//! The allocation budget of a never-seen program: parsing a `fuzzgen`
//! program (lexing included), compiling and lowering it, then its first
//! run, which compiles each body it enters to bytecode.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so tests running in parallel do not mix their
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    default_stack_size, lower_program, run_lowered, with_interp_stack, Enforcement, Engine,
    RuntimeConfig,
};
use ent_syntax::parse_program;
use ent_workloads::fuzzgen;

thread_local! {
    /// Allocations made by the current thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

fn note_allocation() {
    // `try_with` neither allocates nor panics: a const-initialised
    // `Cell` needs no lazy set-up, and during thread teardown the count is
    // skipped.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `note_allocation` only
// bumps a thread-local counter and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread,
/// with its result (dropped by the caller, outside the count).
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let count = || ALLOCATIONS.with(Cell::get);
    let before = count();
    let out = f();
    (count() - before, out)
}

/// Programs in the sample.
const PROGRAMS: u64 = 100;

/// Mean allocations of `parse_program` per program, lexing included
/// (45.3 with the program's own names in one string).
const PARSE_CEILING: f64 = 50.0;

/// Mean allocations of `compile` + `lower_program` per program (258.9
/// with names as ids and no interning in lowering).
const COMPILE_CEILING: f64 = 270.0;

/// Mean allocations of the first `run_lowered` per program.
const FIRST_RUN_CEILING: f64 = 150.0;

#[test]
fn a_fresh_program_compiles_and_first_runs_within_its_allocation_budget() {
    // The engine and strategy are spelled out, so the `ENT_*` variables
    // do not move the count.
    let config = RuntimeConfig {
        engine: Engine::Bytecode,
        enforcement: Enforcement::Guarded,
        ..RuntimeConfig::default()
    };
    // On an interpreter stack, `run_lowered` runs on this thread, where
    // the count is kept.
    let (parsing, compiling, first_runs) = with_interp_stack(default_stack_size(), || {
        let (mut parsing, mut compiling, mut first_runs) = (0, 0, 0);
        for seed in 0..PROGRAMS {
            let src = fuzzgen::program(seed);
            let (n, _program) = allocations_during(|| parse_program(&src));
            parsing += n;
            let (n, lowered) = allocations_during(|| {
                let compiled = compile(&src).expect("fuzzgen programs compile");
                lower_program(&compiled)
            });
            compiling += n;
            let (platform, config) = (Platform::system_a(), config.clone());
            let (n, _result) = allocations_during(|| run_lowered(&lowered, platform, config));
            first_runs += n;
        }
        (parsing, compiling, first_runs)
    });
    let per_program = |n: u64| n as f64 / PROGRAMS as f64;
    let (parsing, compiling, first_runs) = (
        per_program(parsing),
        per_program(compiling),
        per_program(first_runs),
    );
    let report = format!(
        "per program: parse {parsing:.1} allocations (ceiling {PARSE_CEILING}), \
         compile + lower {compiling:.1} (ceiling {COMPILE_CEILING}), \
         first run {first_runs:.1} (ceiling {FIRST_RUN_CEILING})"
    );
    eprintln!("{report}");
    assert!(parsing <= PARSE_CEILING, "{report}");
    assert!(compiling <= COMPILE_CEILING, "{report}");
    assert!(first_runs <= FIRST_RUN_CEILING, "{report}");
}
