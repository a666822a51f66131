//! Differential fuzzing driver: the `cargo test` harness in
//! `crates/workloads/tests/engine_differential.rs` bounded to a CI-sized
//! corpus, exposed as a binary so long campaigns don't need a test
//! timeout.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin engine_fuzz -- [--fuzz-iters N] [--jobs N]
//!
//! Every seeded program from `ent_workloads::fuzzgen` is executed on the
//! tree walker and on bytecode across a grid of battery levels, fault
//! regimes, and enforcement strategies; any observable divergence
//! between the pair — value, output, stats, energy/time bits, or the
//! rendered event stream — aborts with the offending seed and program
//! source.
//! Under transient the full-surface comparison subsumes the
//! accept/reject verdict and the check counters. Exit status 0 means
//! the corpus agreed everywhere.

use std::fmt::Write as _;
use std::time::Instant;

use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, run_lowered, Enforcement, Engine, LoweredProgram, RunResult,
    RuntimeConfig,
};
use ent_workloads::{fuzzgen, run_batch};

const BATTERIES: [f64; 3] = [0.15, 0.55, 0.95];

fn observe(prog: &LoweredProgram, r: &RunResult) -> String {
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
        "energy={:016x} time={:016x}",
        r.measurement.energy_j.to_bits(),
        r.measurement.time_s.to_bits(),
    );
    for line in &r.output {
        let _ = writeln!(out, "out|{line}");
    }
    for ev in r.events.iter() {
        let _ = writeln!(out, "ev|{}", render_event(prog, ev));
    }
    out
}

struct SeedReport {
    runs: u64,
    errors: u64,
    divergence: Option<String>,
}

fn fuzz_seed(seed: u64) -> SeedReport {
    let src = fuzzgen::program(seed);
    let compiled = match compile(&src) {
        Ok(c) => c,
        Err(e) => {
            return SeedReport {
                runs: 0,
                errors: 0,
                divergence: Some(format!(
                    "seed {seed}: generator emitted ill-typed program: {e}"
                )),
            }
        }
    };
    let lowered = lower_program(&compiled);
    let mut report = SeedReport {
        runs: 0,
        errors: 0,
        divergence: None,
    };
    for battery in BATTERIES {
        for faults in [None, Some(FaultPlan::chaos())] {
            for enforcement in [Enforcement::Guarded, Enforcement::Transient] {
                let run = |engine| {
                    let config = RuntimeConfig {
                        engine,
                        enforcement,
                        battery_level: battery,
                        seed: 7,
                        record_events: true,
                        faults: faults.clone(),
                        fault_seed: 11,
                        ..RuntimeConfig::default()
                    };
                    run_lowered(&lowered, Platform::system_a(), config)
                };
                let tree = run(Engine::Tree);
                let bytecode = run(Engine::Bytecode);
                report.runs += 1;
                if tree.value.is_err() {
                    report.errors += 1;
                }
                let a = observe(&lowered, &tree);
                let b = observe(&lowered, &bytecode);
                if a != b {
                    report.divergence = Some(format!(
                        "seed {seed} battery {battery} faults {} enforce {}:\n--- tree\n{a}\n--- bytecode\n{b}\n--- program\n{src}",
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

fn main() {
    let mut iters: u64 = 200;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--fuzz-iters" {
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                iters = n;
            }
        } else if let Some(n) = a.strip_prefix("--fuzz-iters=").and_then(|v| v.parse().ok()) {
            iters = n;
        }
    }
    let jobs = ent_bench::parse_grid_args_with(0, &["--fuzz-iters"]).jobs;

    eprintln!("fuzzing {iters} seeds on tree and bytecode ({jobs} jobs)...");
    let start = Instant::now();
    let seeds: Vec<u64> = (0..iters).collect();
    let reports = run_batch(jobs, &seeds, |&seed| fuzz_seed(seed));

    let mut runs = 0u64;
    let mut errors = 0u64;
    for r in &reports {
        runs += r.runs;
        errors += r.errors;
        if let Some(d) = &r.divergence {
            eprintln!("ENGINE DIVERGENCE\n{d}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "ok: {iters} seeds, {runs} run pairs agreed ({errors} error runs exercised) in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if iters >= 100 && errors == 0 {
        eprintln!("warning: corpus exercised no error paths — generator may have drifted");
        std::process::exit(1);
    }
}
