//! The footprint of a cached program: what a lowered `fuzzgen` program
//! still holds after its compile, lowering and first run, which is what
//! the program cache keeps resident per entry.
//!
//! Its own test binary because it installs a counting global allocator.
//! The counts are per thread, so tests running in parallel do not mix
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    default_stack_size, lower_program, run_lowered, with_interp_stack, Enforcement, Engine,
    RuntimeConfig,
};
use ent_workloads::fuzzgen;

thread_local! {
    /// Heap blocks allocated and not yet freed by the current thread.
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    /// Bytes in those blocks.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Keeps a live-block and live-byte count, then defers to [`System`].
struct Counting;

fn note(blocks: i64, bytes: i64) {
    // `try_with` neither allocates nor panics: a const-initialised `Cell`
    // needs no lazy set-up, and during thread teardown the count is
    // skipped.
    let _ = LIVE_BLOCKS.try_with(|n| n.set(n.get() + blocks));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `note` only bumps
// thread-local counters and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(0, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-1, -(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's live blocks and bytes.
fn live() -> (i64, i64) {
    (LIVE_BLOCKS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

/// Programs in the sample.
const PROGRAMS: u64 = 100;

/// Mean live bytes a lowered program holds after its first run (27 921
/// measured).
const BYTES_CEILING: f64 = 29_300.0;

/// Mean live heap blocks a lowered program holds after its first run
/// (170.2 measured).
const BLOCKS_CEILING: f64 = 178.0;

#[test]
fn a_cached_program_after_its_first_run_fits_its_footprint() {
    // The engine and strategy are spelled out, so the `ENT_*` variables
    // do not move the count.
    let config = RuntimeConfig {
        engine: Engine::Bytecode,
        enforcement: Enforcement::Guarded,
        ..RuntimeConfig::default()
    };
    // On an interpreter stack, `run_lowered` runs on this thread, where
    // the counts are kept.
    let (blocks, bytes) = with_interp_stack(default_stack_size(), || {
        let mut kept = Vec::with_capacity(PROGRAMS as usize);
        let before = live();
        for seed in 0..PROGRAMS {
            let src = fuzzgen::program(seed);
            let compiled = compile(&src).expect("fuzzgen programs compile");
            let lowered = lower_program(&compiled);
            drop(compiled);
            drop(run_lowered(&lowered, Platform::system_a(), config.clone()));
            drop(src);
            kept.push(lowered);
        }
        let after = live();
        // The programs stay alive until here; the vector holding them is
        // one block of its own, allocated before the first reading.
        drop(kept);
        (after.0 - before.0, after.1 - before.1)
    });
    let per_program = |n: i64| n as f64 / PROGRAMS as f64;
    let (blocks, bytes) = (per_program(blocks), per_program(bytes));
    let report = format!(
        "per program after its first run: {bytes:.0} bytes live (ceiling {BYTES_CEILING}) \
         in {blocks:.1} blocks (ceiling {BLOCKS_CEILING})"
    );
    eprintln!("{report}");
    assert!(bytes <= BYTES_CEILING, "{report}");
    assert!(blocks <= BLOCKS_CEILING, "{report}");
}
