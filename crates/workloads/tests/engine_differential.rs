//! Differential fuzzing between the tree-walking evaluator and the
//! closure-threaded bytecode engine: every seeded program from
//! [`ent_workloads::fuzzgen`] runs on both engines across the grid of
//! [`ent_workloads::differential`], whose `observe` compares the complete
//! observable surface byte for byte. This test runs 40 seeds; the
//! `engine_fuzz` binary runs the same grid over `--fuzz-iters` seeds.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{lower_program, Enforcement, Engine, RuntimeConfig};
use ent_workloads::differential::{check_seed, config, observe};
use ent_workloads::fuzzgen;

/// Seeds the test checks.
const SEEDS: u64 = 40;

#[test]
fn engines_agree_on_generated_programs() {
    let mut error_runs = 0u64;
    for seed in 0..SEEDS {
        let report = check_seed(seed);
        if let Some(divergence) = report.divergence {
            panic!("{divergence}");
        }
        error_runs += report.errors;
    }
    // The generator injects out-of-bounds reads and uncaught energy
    // exceptions at a low rate; over 40 seeds the error paths must
    // actually be exercised, not just the happy path.
    assert!(
        error_runs > 0,
        "fuzz corpus never exercised an error path — generator drifted"
    );
}

/// Satellite 4: the per-method attribution profiler must see the same
/// call tree (same folded stacks, same costs) regardless of engine.
#[test]
fn profiler_parity_on_recursive_workload() {
    // Seeded generator programs always contain a recursive scenario;
    // use a handful so the check is not hostage to one shape.
    for seed in [0u64, 3, 9] {
        let src = fuzzgen::program(seed);
        let compiled = compile(&src).expect("generated program compiles");
        let lowered = lower_program(&compiled);
        let folded = |engine: Engine| {
            let run = ent_runtime::run_lowered(
                &lowered,
                Platform::system_a(),
                RuntimeConfig {
                    engine,
                    battery_level: 0.6,
                    seed: 5,
                    profile: ent_runtime::ProfileMode::Exact,
                    ..RuntimeConfig::default()
                },
            );
            run.profile
                .unwrap_or_else(|| panic!("{} profile", engine.name()))
                .folded_stacks()
        };
        let tree_folded = folded(Engine::Tree);
        assert_eq!(
            tree_folded,
            folded(Engine::Bytecode),
            "folded stacks diverge between tree and bytecode at seed {seed}"
        );
        assert!(
            tree_folded.contains("Main.main"),
            "profile must attribute to the call tree root"
        );
    }
}

/// An array literal of 65537 items takes more registers than a 16-bit
/// operand word can name. The op's words are 32 bits, so the body runs on
/// bytecode, and both engines see the whole array rather than a count
/// truncated to 16 bits.
#[test]
fn engines_agree_on_an_array_literal_past_16_bit_operands() {
    let items = vec!["1"; 65537].join(", ");
    let src = format!("class Main {{ int main() {{ return Arr.len([{items}]); }} }}");
    let lowered = lower_program(&compile(&src).expect("program compiles"));
    let run = |engine| {
        ent_runtime::run_lowered(
            &lowered,
            Platform::system_a(),
            config(engine, Enforcement::Guarded, 0.9, None),
        )
    };
    let bytecode = run(Engine::Bytecode);
    assert_eq!(bytecode.tier.threaded_compiles, 1, "`main` ran on bytecode");
    let tree = observe(&lowered, &run(Engine::Tree));
    assert!(tree.contains("value=ok:Int(65537)"), "{tree}");
    assert_eq!(
        tree,
        observe(&lowered, &bytecode),
        "tree and bytecode diverge"
    );
}
