//! Parsing and dropping a program does not recurse on its expression
//! tree: a left-nested operator chain far deeper than an 8 MiB stack
//! could hold one frame per level parses and drops on such a thread.
//!
//! Its own test binary, because a drop that recursed once per level would
//! overflow that stack, and an overflow aborts the whole process instead
//! of failing one test.

use ent_syntax::parse_program;

/// Terms in the chain. A tree whose drop recursed once per `+` used about
/// 35–70 bytes of stack a level in a release build and 110 in a debug
/// one: it overflowed 8 MiB by 240,000 terms in release and by 80,000 in
/// debug.
const TERMS: usize = 300_000;

/// The stack the parse and the drop run on.
const STACK_BYTES: usize = 8 << 20;

/// `return 1 + 1 + …;` with `terms` ones: a tree `terms - 1` additions
/// deep down its left side.
fn chain(terms: usize) -> String {
    let mut src = String::with_capacity(terms * 4 + 64);
    src.push_str("class Main { int main() { return 1");
    for _ in 1..terms {
        src.push_str(" + 1");
    }
    src.push_str("; } }");
    src
}

#[test]
fn a_300000_term_chain_parses_and_drops_on_an_8_mib_stack() {
    let src = chain(TERMS);
    let nodes = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let program = parse_program(&src).expect("the chain parses");
            let nodes = program.ast().len();
            drop(program);
            nodes
        })
        .expect("a thread with an 8 MiB stack")
        .join()
        .expect("the parse and the drop fit the stack");
    // Every literal, every addition, and the method's block.
    assert_eq!(nodes, 2 * TERMS);
}
