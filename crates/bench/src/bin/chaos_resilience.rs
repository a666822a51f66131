//! Chaos-resilience bench: proves the fault-injection layer's three
//! contracts on the Figure-8 E1 suite and writes `BENCH_chaos.json` at
//! the workspace root.
//!
//! 1. **Zero overhead when off**: a run with an installed-but-empty fault
//!    plan is bit-identical to a fault-off run (fingerprint compare).
//! 2. **Determinism**: the full chaos grid run twice with the same fault
//!    seed produces identical rows; a different fault seed diverges.
//! 3. **Isolation**: a batch with one deliberately panicking job
//!    completes, that job alone fails, and every other outcome matches
//!    the panic-free batch.
//!
//! Exits 1 if any contract is violated.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin chaos_resilience

use std::fmt::Write as _;
use std::path::PathBuf;

use ent_bench::fig8;
use ent_energy::{FaultPlan, PlatformKind};
use ent_runtime::{json, json_fields, RunResult, RuntimeConfig};
use ent_workloads::{
    e1_program, lowered_cached, platform_for, prepare_e1, run_batch_outcomes, BatchPolicy,
    BenchmarkSpec, PreparedProgram,
};

const SEED: u64 = 42;
const FAULT_SEED: u64 = 7;

/// Every semantic observable, energy/time by f64 bit pattern.
fn fingerprint(result: &RunResult) -> String {
    let s = &result.stats;
    let value = match &result.value {
        Ok(v) => format!("ok:{v}"),
        Err(e) => format!("err:{e}"),
    };
    format!(
        "steps={};snaps={};exc={};sf={};sr={};dd={};value={};out={};energy={:016x};time={:016x}",
        s.steps,
        s.snapshots,
        s.energy_exceptions,
        s.sensor_faults,
        s.stale_reads,
        s.degraded_decisions,
        value,
        result.output.join("\\n"),
        result.measurement.energy_j.to_bits(),
        result.measurement.time_s.to_bits(),
    )
}

fn e1_suite() -> Vec<(BenchmarkSpec, PreparedProgram)> {
    ent_bench::e_benchmarks(PlatformKind::SystemA)
        .into_iter()
        .map(|spec| {
            let prog = prepare_e1(&spec, PlatformKind::SystemA, 1);
            (spec, prog)
        })
        .collect()
}

/// Contract 1: installed-but-empty plan ≡ no plan, per benchmark.
fn check_zero_overhead(suite: &[(BenchmarkSpec, PreparedProgram)]) -> bool {
    let mut ok = true;
    for (spec, prog) in suite {
        let base = RuntimeConfig {
            seed: SEED,
            battery_level: 0.75,
            ..RuntimeConfig::default()
        };
        let off = prog.run(base.clone());
        let noop = prog.run(RuntimeConfig {
            faults: Some(FaultPlan::default()),
            fault_seed: 99,
            ..base
        });
        if fingerprint(&off) != fingerprint(&noop) {
            eprintln!("  {}: NOOP PLAN PERTURBED THE RUN", spec.name);
            ok = false;
        }
    }
    ok
}

fn chaos_fingerprint(rows: &[fig8::ChaosRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(
            out,
            "{}/{}/{}/{} e={:?} err={:?} sf={} sr={} dd={}",
            r.benchmark,
            r.workload,
            r.boot,
            r.silent,
            r.energy_j.map(f64::to_bits),
            r.error,
            r.sensor_faults,
            r.stale_reads,
            r.degraded_decisions,
        );
    }
    out
}

/// Contract 3: one poisoned job fails alone; the rest match the clean
/// batch bit-for-bit.
fn check_batch_isolation() -> (bool, usize) {
    let spec = ent_bench::e_benchmarks(PlatformKind::SystemA)
        .into_iter()
        .next()
        .expect("suite is nonempty");
    let platform = platform_for(&spec, PlatformKind::SystemA);
    let src = e1_program(&spec, &platform, 1);
    let lowered = lowered_cached(spec.name, &src);
    let jobs: Vec<usize> = (0..12).collect();
    let run_one = |&i: &usize| {
        ent_runtime::run_lowered(
            &lowered,
            platform.clone(),
            RuntimeConfig {
                seed: SEED + i as u64,
                battery_level: 0.75,
                ..RuntimeConfig::default()
            },
        )
        .measurement
        .energy_j
        .to_bits()
    };
    let clean = run_batch_outcomes(4, &jobs, &BatchPolicy::default(), |i, _| run_one(i));
    let poisoned = run_batch_outcomes(4, &jobs, &BatchPolicy::default(), |&i, _| {
        assert!(i != 5, "chaos_resilience: deliberate poison job");
        run_one(&i)
    });
    let mut ok = poisoned.len() == jobs.len();
    let mut failed = 0;
    for (i, (c, p)) in clean.iter().zip(&poisoned).enumerate() {
        if i == 5 {
            match p {
                Err(e) if e.message.contains("deliberate poison job") => failed += 1,
                other => {
                    eprintln!("  poison job outcome unexpected: {other:?}");
                    ok = false;
                }
            }
        } else if c != p {
            eprintln!("  job {i}: outcome diverged between clean and poisoned batch");
            ok = false;
        }
    }
    (ok && failed == 1, failed)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn main() {
    ent_bench::check_env_or_exit();
    eprintln!("chaos resilience: zero-overhead-when-off check...");
    let suite = e1_suite();
    let zero_overhead = check_zero_overhead(&suite);

    eprintln!("chaos resilience: determinism check (full fig8 grid, twice)...");
    let plan = FaultPlan::chaos();
    let rows_a = fig8::chaos_rows(1, &plan, FAULT_SEED);
    let rows_b = fig8::chaos_rows(4, &plan, FAULT_SEED);
    let deterministic = chaos_fingerprint(&rows_a) == chaos_fingerprint(&rows_b);
    if !deterministic {
        eprintln!("  CHAOS GRID NOT DETERMINISTIC ACROSS RUNS/JOB COUNTS");
    }
    let rows_other = fig8::chaos_rows(1, &plan, FAULT_SEED + 1);
    let seed_sensitive = chaos_fingerprint(&rows_a) != chaos_fingerprint(&rows_other);
    if !seed_sensitive {
        eprintln!("  DIFFERENT FAULT SEED PRODUCED AN IDENTICAL GRID");
    }

    eprintln!("chaos resilience: batch isolation check...");
    let (isolated, _) = check_batch_isolation();
    if !isolated {
        eprintln!("  BATCH ISOLATION VIOLATED");
    }

    let cells = rows_a.len();
    let failed_cells = rows_a.iter().filter(|r| r.error.is_some()).count();
    let sensor_faults: u64 = rows_a.iter().map(|r| r.sensor_faults).sum();
    let stale_reads: u64 = rows_a.iter().map(|r| r.stale_reads).sum();
    let degraded: u64 = rows_a.iter().map(|r| r.degraded_decisions).sum();

    let note = "Counters are totals over one deterministic fault-injected sweep of the \
                Figure-8 grid. The three booleans are the fault layer's contracts; any \
                false fails this bench.";
    let doc = json::object(|o| {
        json_fields!(o; suite = "fig8_e1_system_a", seed = SEED, fault_seed = FAULT_SEED,
            plan = "chaos", zero_overhead_when_off = zero_overhead,
            deterministic_per_fault_seed = deterministic, fault_seed_sensitive = seed_sensitive,
            batch_isolation = isolated, cells = cells, failed_cells = failed_cells,
            sensor_faults = sensor_faults, stale_reads = stale_reads,
            degraded_decisions = degraded, note = note);
    });

    let path = repo_root().join("BENCH_chaos.json");
    std::fs::write(&path, json::to_string(doc.lines()) + "\n").unwrap();
    eprintln!("wrote {}", path.display());
    eprintln!(
        "cells {cells}, failed {failed_cells}, sensor faults {sensor_faults}, stale {stale_reads}, degraded {degraded}"
    );

    if !(zero_overhead && deterministic && seed_sensitive && isolated) {
        eprintln!("CHAOS RESILIENCE CONTRACT VIOLATED");
        std::process::exit(1);
    }
}
