//! The engine-differential harness: each seeded [`fuzzgen`] program runs
//! on the tree walker and on bytecode across a grid of battery levels,
//! fault regimes and enforcement strategies, and the two runs' complete
//! observable surface must match byte for byte.
//!
//! Guarded and transient check different things, but each strategy's
//! checks are engine-independent, so under both the engines agree on the
//! full surface (which under transient subsumes the accept/reject
//! verdict, the check/failure counters and the blame string).
//! `tests/engine_differential.rs` runs 40 seeds under `cargo test`; the
//! `engine_fuzz` binary runs longer campaigns (`--fuzz-iters`).

use std::fmt::Write as _;

use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, run_lowered, Enforcement, Engine, LoweredProgram, RunResult,
    RuntimeConfig,
};

use crate::fuzzgen;

/// The grid's battery levels.
const BATTERIES: [f64; 3] = [0.15, 0.55, 0.95];

/// Everything a run observably produces, in one comparable string: the
/// value (or error) and its pretty form, the run statistics, the energy,
/// time and peak-temperature bit patterns, the printed output, and the
/// event stream with its drop count.
pub fn observe(prog: &LoweredProgram, r: &RunResult) -> String {
    let mut out = String::new();
    let value = match &r.value {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => format!("err:{e}"),
    };
    let _ = writeln!(out, "value={value}");
    let _ = writeln!(out, "pretty={:?}", r.value_pretty);
    let _ = writeln!(out, "stats={:?}", r.stats);
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

/// One grid cell's configuration on `engine`: fixed run and fault
/// seeds, events recorded.
pub fn config(
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

/// What one seed's program did across the grid.
#[derive(Debug)]
pub struct SeedReport {
    /// Grid cells run, each on both engines.
    pub runs: u64,
    /// Cells whose run ended in an error (on both engines alike).
    pub errors: u64,
    /// The first cell where the engines diverged, with both observations
    /// and the program; or the compile error of an ill-typed program.
    pub divergence: Option<String>,
}

/// Runs `fuzzgen::program(seed)` on both engines over the whole grid,
/// stopping at the first divergence.
pub fn check_seed(seed: u64) -> SeedReport {
    let src = fuzzgen::program(seed);
    let mut report = SeedReport {
        runs: 0,
        errors: 0,
        divergence: None,
    };
    let compiled = match compile(&src) {
        Ok(c) => c,
        Err(e) => {
            report.divergence = Some(format!(
                "seed {seed}: the generator emitted an ill-typed program: {e}\n{src}"
            ));
            return report;
        }
    };
    let lowered = lower_program(&compiled);
    for battery in BATTERIES {
        for faults in [None, Some(FaultPlan::chaos())] {
            for enforcement in [Enforcement::Guarded, Enforcement::Transient] {
                let run = |engine| {
                    let cell = config(engine, enforcement, battery, faults.clone());
                    run_lowered(&lowered, Platform::system_a(), cell)
                };
                let tree = run(Engine::Tree);
                let bytecode = run(Engine::Bytecode);
                report.runs += 1;
                if tree.value.is_err() {
                    report.errors += 1;
                }
                let (a, b) = (observe(&lowered, &tree), observe(&lowered, &bytecode));
                if a != b {
                    report.divergence = Some(format!(
                        "seed {seed} battery {battery} faults {} enforce {}:\n\
                         --- tree\n{a}\n--- bytecode\n{b}\n--- program\n{src}",
                        faults.is_some(),
                        enforcement.name()
                    ));
                    return report;
                }
            }
        }
    }
    report
}
