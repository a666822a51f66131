//! Allocation counts of the front end: each distinct name is allocated
//! once per compile, the class table shares the parser's declarations,
//! and lowering borrows them.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so tests running in parallel do not mix their
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ent_core::compile;
use ent_runtime::{default_stack_size, lower_program, with_interp_stack};
use ent_syntax::{lex, parse_program, ClassTable};

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

/// A sum of `terms` ones: a left-nested tree of `terms - 1` additions.
fn sum(terms: usize) -> String {
    vec!["1"; terms].join(" + ")
}

#[test]
fn lexing_allocates_each_distinct_name_once() {
    let src = "x ".repeat(10_000);
    let (n, lexed) = allocations_during(|| lex(&src).expect("lexes"));
    assert_eq!(lexed.tokens.len(), 10_001, "10000 names and end of input");
    assert!(
        n < 100,
        "lexing 10000 uses of one name made {n} allocations"
    );
}

#[test]
fn the_class_table_shares_the_parsed_declarations() {
    let src = format!("class Main {{ int main() {{ return {}; }} }}", sum(2000));
    // The tree is 2000 levels deep: build and drop it on an interpreter
    // stack.
    let n = with_interp_stack(default_stack_size(), || {
        let program = parse_program(&src).expect("parses");
        let (n, table) = allocations_during(|| ClassTable::new(&program).expect("valid table"));
        drop(table);
        n
    });
    assert!(
        n < 50,
        "a table over a 2000-term method body made {n} allocations"
    );
}

#[test]
fn lowering_cost_does_not_grow_with_the_inheritance_chain() {
    // A root class with a 500-term method, under a chain of `depth`
    // subclasses: each inherits the method, which lowers once.
    let lowering_allocations = |depth: usize| {
        let mut src = format!("class C0 {{ int big() {{ return {}; }} }}\n", sum(500));
        for k in 1..=depth {
            src.push_str(&format!("class C{k} extends C{} {{ }}\n", k - 1));
        }
        src.push_str("class Main { int main() { return 0; } }");
        with_interp_stack(default_stack_size(), || {
            let compiled = compile(&src).expect("compiles");
            let (n, lowered) = allocations_during(|| lower_program(&compiled));
            assert_eq!(lowered.n_classes() as usize, depth + 2);
            drop(lowered);
            n
        })
    };
    let shallow = lowering_allocations(1);
    let deep = lowering_allocations(8);
    assert!(
        deep * 10 <= shallow * 11,
        "lowering made {shallow} allocations under 1 subclass and {deep} under 8"
    );
}
