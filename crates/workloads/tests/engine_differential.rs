//! Differential fuzzing between the tree-walking evaluator and the
//! closure-threaded bytecode engine.
//!
//! Every seeded program from [`ent_workloads::fuzzgen`] is run on the tree
//! walker and on bytecode, across a small grid of battery levels, fault
//! regimes, and **enforcement strategies**, and the complete observable
//! surface — result value (or error), pretty value, printed output, run
//! statistics, energy/time bit patterns, and the rendered event stream —
//! must match byte for byte. Guarded and transient check different
//! things, but each strategy's checks are engine-independent: under
//! guarded the engines agree bit-for-bit as always, and under transient
//! they agree on the full surface too (which subsumes the accept/reject
//! verdict, the transient check/failure counters, and the blame string).
//!
//! Iteration count defaults to 40 seeds and can be raised via the
//! `ENT_FUZZ_ITERS` environment variable (the `engine_fuzz` bench binary
//! exposes the same knob as `--fuzz-iters`).

use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, Enforcement, Engine, LoweredProgram, RunResult, RuntimeConfig,
};
use ent_workloads::fuzzgen;

fn fuzz_iters() -> u64 {
    std::env::var("ENT_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(40)
}

/// Everything a run observably produces, in one comparable string.
fn observe(prog: &LoweredProgram, r: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let value = match &r.value {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => format!("err:{e}"),
    };
    let s = &r.stats;
    let _ = writeln!(out, "value={value}");
    let _ = writeln!(out, "pretty={:?}", r.value_pretty);
    let _ = writeln!(out, "stats={s:?}");
    let _ = writeln!(
        out,
        "energy={:016x} time={:016x} peak_temp={:016x}",
        r.measurement.energy_j.to_bits(),
        r.measurement.time_s.to_bits(),
        r.measurement.peak_temp_c.to_bits(),
    );
    for line in &r.output {
        let _ = writeln!(out, "out|{line}");
    }
    let _ = writeln!(out, "events_dropped={}", r.events.dropped());
    for ev in r.events.iter() {
        let _ = writeln!(out, "ev|{}", render_event(prog, ev));
    }
    out
}

fn config(
    engine: Engine,
    enforcement: Enforcement,
    battery: f64,
    faults: Option<FaultPlan>,
) -> RuntimeConfig {
    RuntimeConfig {
        engine,
        enforcement,
        battery_level: battery,
        seed: 7,
        record_events: true,
        faults,
        fault_seed: 11,
        ..RuntimeConfig::default()
    }
}

#[test]
fn engines_agree_on_generated_programs() {
    let iters = fuzz_iters();
    let mut error_runs = 0u64;
    for seed in 0..iters {
        let src = fuzzgen::program(seed);
        let compiled = compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{src}"));
        let lowered = lower_program(&compiled);
        for battery in [0.15, 0.55, 0.95] {
            for faults in [None, Some(FaultPlan::chaos())] {
                for enforcement in [Enforcement::Guarded, Enforcement::Transient] {
                    let run = |engine| {
                        ent_runtime::run_lowered(
                            &lowered,
                            Platform::system_a(),
                            config(engine, enforcement, battery, faults.clone()),
                        )
                    };
                    let tree = run(Engine::Tree);
                    if tree.value.is_err() {
                        error_runs += 1;
                    }
                    assert_eq!(
                        observe(&lowered, &tree),
                        observe(&lowered, &run(Engine::Bytecode)),
                        "tree and bytecode diverge at seed {seed} battery {battery} faults {} \
                         enforce {}\nprogram:\n{src}",
                        faults.is_some(),
                        enforcement.name(),
                    );
                }
            }
        }
    }
    // The generator injects out-of-bounds reads and uncaught energy
    // exceptions at a low rate; with the default iteration count the
    // error paths must actually be exercised, not just the happy path.
    if iters >= 40 {
        assert!(
            error_runs > 0,
            "fuzz corpus never exercised an error path — generator drifted"
        );
    }
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

/// A body too large for the bytecode's `u16` operand words (here an array
/// literal of 65537 items) runs on the tree walker, so both engines see
/// the whole array rather than a count truncated to 16 bits.
#[test]
fn engines_agree_on_a_body_too_large_for_bytecode() {
    let items = vec!["1"; 65537].join(", ");
    let src = format!("class Main {{ int main() {{ return Arr.len([{items}]); }} }}");
    let lowered = lower_program(&compile(&src).expect("program compiles"));
    let run = |engine| {
        let r = ent_runtime::run_lowered(
            &lowered,
            Platform::system_a(),
            config(engine, Enforcement::Guarded, 0.9, None),
        );
        observe(&lowered, &r)
    };
    let tree = run(Engine::Tree);
    assert!(tree.contains("value=ok:Int(65537)"), "{tree}");
    assert_eq!(tree, run(Engine::Bytecode), "tree and bytecode diverge");
}
