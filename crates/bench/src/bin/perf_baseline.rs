//! Interpreter perf baseline over the Figure-6 benchmark suite.
//!
//! Measures raw interpreter throughput (`RunStats::steps` per wall-clock
//! second) for every benchmark's E2 program at a fixed seed, in two
//! lanes (the recursive tree walker and the closure-threaded bytecode
//! engine), plus a semantics fingerprint (stats, output, pretty value,
//! energy bits) so the faster lane can prove it computes *exactly* the
//! same thing — with fault injection on as well as off.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin perf_baseline -- --phase baseline
//!     captures the reference numbers (tree engine) into
//!     crates/bench/data/perf_baseline.txt
//!   cargo run -p ent-bench --release --bin perf_baseline [-- --jobs N]
//!     measures both lanes, compares against the stored baseline,
//!     and writes BENCH_interp.json at the workspace root.
//!
//! `--jobs` parallelizes the compile + fingerprint-verification phase; the
//! throughput timing loop always runs sequentially (concurrent timing on a
//! shared machine would measure contention, not the interpreter). Timing
//! runs in rounds after a *time-bounded* warmup (at least
//! [`WARMUP_RUNS`] runs and [`WARMUP_S`] seconds — long enough to settle
//! caches and branch predictors, and to compile every body); the
//! reported throughput is the **median** round, which shrugs off the
//! one-off scheduling hiccups that used to push findbugs/sunflow past 10%
//! RSD, and each benchmark still reports the honest relative standard
//! deviation across rounds so a noisy number is visibly noisy.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ent_energy::{FaultPlan, PlatformKind};
use ent_runtime::json::{self, Fixed};
use ent_runtime::json_fields;
use ent_runtime::{
    default_stack_size, run_lowered, with_interp_stack, Engine, RunResult, RuntimeConfig,
};
use ent_workloads::{all_benchmarks, prepare_e2, run_batch};

const SEED: u64 = 42;
const BATTERY: f64 = 0.75;
/// Per-benchmark, per-lane measurement budget (seconds of wall time).
const BUDGET_S: f64 = 0.3;
/// Timing rounds per lane (the RSD sample size; the reported number is
/// the median round).
const ROUNDS: usize = 6;
/// Untimed runs before the first timing round (a floor — warmup also
/// runs for at least [`WARMUP_S`] seconds).
const WARMUP_RUNS: u32 = 3;
/// Minimum untimed warmup wall time per lane, seconds.
const WARMUP_S: f64 = 0.05;

/// One measured configuration: its key in BENCH_interp.json and its
/// engine.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Lane {
    name: &'static str,
    engine: Engine,
}

const TREE: Lane = Lane {
    name: "tree",
    engine: Engine::Tree,
};
const BYTECODE: Lane = Lane {
    name: "bytecode",
    engine: Engine::Bytecode,
};
const LANES: [Lane; 2] = [TREE, BYTECODE];

struct LaneSample {
    steps_per_sec: f64,
    wall_ms_per_run: f64,
    /// Relative standard deviation of the per-round throughput, percent.
    rsd_pct: f64,
}

struct Sample {
    name: String,
    steps: u64,
    /// One measurement per lane probed, in the order requested.
    by_lane: Vec<(Lane, LaneSample)>,
    /// Plain-run fingerprint (identical across lanes by construction:
    /// verification asserts it, faults off and on, before timing starts).
    fingerprint: String,
}

impl Sample {
    /// Throughput in `lane`, if it was measured.
    fn sps(&self, lane: Lane) -> Option<f64> {
        let (_, m) = self.by_lane.iter().find(|(e, _)| *e == lane)?;
        Some(m.steps_per_sec)
    }
}

fn config(lane: Lane) -> RuntimeConfig {
    RuntimeConfig {
        battery_level: BATTERY,
        seed: SEED,
        engine: lane.engine,
        ..RuntimeConfig::default()
    }
}

fn faulted_config(lane: Lane) -> RuntimeConfig {
    RuntimeConfig {
        faults: Some(FaultPlan::chaos()),
        fault_seed: 17,
        ..config(lane)
    }
}

/// A semantics fingerprint: every observable the execution engine must
/// preserve, in one `|`-separated line. Energy and time are compared by
/// f64 bit pattern — "close" is not "identical".
fn fingerprint(result: &RunResult) -> String {
    let s = &result.stats;
    let value = match &result.value {
        Ok(v) => format!("ok:{v}"),
        Err(e) => format!("err:{e}"),
    };
    format!(
        "steps={};snaps={};copies={};exc={};dyn={};allocs={};value={};pretty={};out={};energy={:016x};time={:016x}",
        s.steps,
        s.snapshots,
        s.copies,
        s.energy_exceptions,
        s.dynamic_allocs,
        s.allocs,
        value,
        result.value_pretty.clone().unwrap_or_default(),
        result.output.join("\\n"),
        result.measurement.energy_j.to_bits(),
        result.measurement.time_s.to_bits(),
    )
}

fn measure(jobs: usize, lanes: &[Lane]) -> Vec<Sample> {
    // Phase 1 — compile (through the engine's shared cache), warm up, and
    // verify fingerprints. Batch-parallel: each job is one benchmark.
    // Every lane must match the first lane's fingerprint, both on the
    // plain configuration and under chaos fault injection.
    let specs = all_benchmarks();
    let reference = lanes[0];
    let verified = run_batch(jobs, &specs, |spec| {
        let prog = prepare_e2(spec, PlatformKind::SystemA, 1);
        let rl = |c: RuntimeConfig| run_lowered(&prog.lowered, prog.platform.clone(), c);
        let warm = rl(config(reference));
        let fp = fingerprint(&warm);
        let fp_faulted = fingerprint(&rl(faulted_config(reference)));

        for &lane in lanes {
            assert_eq!(
                fingerprint(&rl(config(lane))),
                fp,
                "{}: {} disagrees with {} on the plain run",
                spec.name,
                lane.name,
                reference.name
            );
            assert_eq!(
                fingerprint(&rl(faulted_config(lane))),
                fp_faulted,
                "{}: {} disagrees with {} under fault injection",
                spec.name,
                lane.name,
                reference.name
            );
            // The observability layer must be a pure observer: a run with
            // the event ring and the profiler enabled computes bit-for-bit
            // the same thing as the plain run.
            let observed = rl(RuntimeConfig {
                record_events: true,
                profile: ent_runtime::ProfileMode::Exact,
                ..config(lane)
            });
            assert_eq!(
                fingerprint(&observed),
                fp,
                "{}: enabling events+profile changed the {} fingerprint",
                spec.name,
                lane.name
            );
        }
        (prog, fp, warm.stats.steps)
    });

    // Phase 2 — the throughput timing loop: strictly sequential, on one
    // reusable big-stack worker so each `run_lowered` is a direct call.
    // Per lane: untimed warmup runs, then `ROUNDS` timed rounds whose
    // spread is the reported RSD.
    with_interp_stack(default_stack_size(), || {
        specs
            .iter()
            .zip(verified)
            .map(|(spec, (prog, fp, steps))| {
                let by_lane = lanes
                    .iter()
                    .map(|&lane| {
                        let run_once = || {
                            let r =
                                run_lowered(&prog.lowered, prog.platform.clone(), config(lane));
                            assert_eq!(
                                r.stats.steps,
                                steps,
                                "{} must be deterministic under {}",
                                spec.name,
                                lane.name
                            );
                        };
                        // Time-bounded warmup: at least WARMUP_RUNS runs
                        // *and* WARMUP_S seconds, so short benchmarks get
                        // enough laps to settle before the first round.
                        let warm_start = Instant::now();
                        let mut warm_runs = 0u32;
                        while warm_runs < WARMUP_RUNS
                            || warm_start.elapsed().as_secs_f64() < WARMUP_S
                        {
                            run_once();
                            warm_runs += 1;
                        }
                        let mut round_sps = Vec::with_capacity(ROUNDS);
                        let mut total_runs = 0u32;
                        let round_budget = BUDGET_S / ROUNDS as f64;
                        for _ in 0..ROUNDS {
                            let start = Instant::now();
                            let mut runs = 0u32;
                            while start.elapsed().as_secs_f64() < round_budget || runs < 3 {
                                run_once();
                                runs += 1;
                            }
                            let wall = start.elapsed().as_secs_f64();
                            round_sps.push(steps as f64 * runs as f64 / wall);
                            total_runs += runs;
                        }
                        // Median-of-rounds throughput: robust against a
                        // single descheduled round. RSD stays the honest
                        // spread of *all* rounds.
                        let mut sorted = round_sps.clone();
                        sorted.sort_by(f64::total_cmp);
                        let median = if sorted.len() % 2 == 1 {
                            sorted[sorted.len() / 2]
                        } else {
                            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
                        };
                        let mean = round_sps.iter().sum::<f64>() / round_sps.len() as f64;
                        let var = round_sps
                            .iter()
                            .map(|x| (x - mean) * (x - mean))
                            .sum::<f64>()
                            / round_sps.len() as f64;
                        let sample = LaneSample {
                            steps_per_sec: median,
                            wall_ms_per_run: steps as f64 / median * 1000.0,
                            rsd_pct: var.sqrt() / mean * 100.0,
                        };
                        eprintln!(
                            "  {:<12} {:<8} {:>12.0} steps/s  ({} steps, {:.3} ms/run, {} runs, RSD {:.1}%)",
                            spec.name,
                            lane.name,
                            sample.steps_per_sec,
                            steps,
                            sample.wall_ms_per_run,
                            total_runs,
                            sample.rsd_pct
                        );
                        (lane, sample)
                    })
                    .collect();
                Sample {
                    name: spec.name.to_string(),
                    steps,
                    by_lane,
                    fingerprint: fp,
                }
            })
            .collect()
    })
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

fn repo_root() -> PathBuf {
    // crates/bench -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/perf_baseline.txt")
}

fn write_baseline(samples: &[Sample]) {
    let mut out = String::from(
        "# Tree-walking interpreter baseline (Figure-6 E2 suite, System A, seed 42).\n\
         # name<TAB>steps<TAB>steps_per_sec<TAB>wall_ms_per_run<TAB>fingerprint\n",
    );
    for s in samples {
        let tree = &s.by_lane[0].1;
        let _ = writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.6}\t{}",
            s.name, s.steps, tree.steps_per_sec, tree.wall_ms_per_run, s.fingerprint
        );
    }
    let path = baseline_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, out).unwrap();
    eprintln!("baseline written to {}", path.display());
}

struct Baseline {
    steps_per_sec: f64,
    fingerprint: String,
}

fn read_baseline() -> Option<std::collections::BTreeMap<String, Baseline>> {
    let text = std::fs::read_to_string(baseline_path()).ok()?;
    let mut map = std::collections::BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut parts = line.splitn(5, '\t');
        let name = parts.next()?.to_string();
        let _steps = parts.next()?;
        let sps: f64 = parts.next()?.parse().ok()?;
        let _wall = parts.next()?;
        let fp = parts.next()?.to_string();
        map.insert(
            name,
            Baseline {
                steps_per_sec: sps,
                fingerprint: fp,
            },
        );
    }
    Some(map)
}

fn main() {
    let capture_baseline = std::env::args().any(|a| a == "baseline")
        || std::env::args()
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w[0] == "--phase" && w[1] == "baseline");
    let grid = ent_bench::parse_grid_args_with(0, &["--phase"]);
    let lanes: Vec<Lane> = if capture_baseline {
        // The stored baseline is the tree walker's numbers by definition.
        vec![TREE]
    } else {
        LANES.to_vec()
    };

    eprintln!(
        "measuring interpreter throughput (Figure-6 E2 suite) under {}...",
        lanes
            .iter()
            .map(|lane| lane.name)
            .collect::<Vec<_>>()
            .join(" + ")
    );
    let samples = measure(grid.jobs, &lanes);

    if capture_baseline {
        write_baseline(&samples);
        return;
    }

    let baseline = read_baseline();
    let mut speedups = Vec::new();
    let mut engine_speedups = Vec::new();
    let mut mismatches = Vec::new();
    let current_geo = geomean(
        samples
            .iter()
            .map(|s| s.by_lane.last().unwrap().1.steps_per_sec),
    );
    // Writing the benchmarks fills the three lists the summary reads.
    let doc = json::object(|o| {
        json_fields!(o; suite = "fig6_e2_system_a", seed = SEED);
        let benchmarks = json::array(|a| {
            for s in &samples {
                // The headline number is the last lane probed (bytecode
                // in the default sweep).
                let fastest = s.by_lane.last().expect("lane measured").1.steps_per_sec;
                let (base_sps, speedup, semantics_match) =
                    match baseline.as_ref().and_then(|b| b.get(&s.name)) {
                        Some(b) => {
                            let matches = b.fingerprint == s.fingerprint;
                            if !matches {
                                mismatches.push(s.name.clone());
                            }
                            (b.steps_per_sec, fastest / b.steps_per_sec, matches)
                        }
                        None => (0.0, 0.0, true),
                    };
                if speedup > 0.0 {
                    speedups.push(speedup);
                }
                a.item(json::object(|o| {
                    json_fields!(o; name = &s.name, steps = s.steps);
                    o.object("engines", |o| {
                        for (lane, e) in &s.by_lane {
                            o.object(lane.name, |o| {
                                json_fields!(o; steps_per_sec = Fixed(e.steps_per_sec, 1),
                                    wall_ms_per_run = Fixed(e.wall_ms_per_run, 4),
                                    rsd_pct = Fixed(e.rsd_pct, 2));
                            });
                        }
                    });
                    if let (Some(tree), Some(vm)) = (s.sps(TREE), s.sps(BYTECODE)) {
                        engine_speedups.push(vm / tree);
                        o.field("bytecode_over_tree", Fixed(vm / tree, 3));
                    }
                    json_fields!(o; baseline_steps_per_sec = Fixed(base_sps, 1),
                        speedup = Fixed(speedup, 3), semantics_match = semantics_match);
                }));
            }
        });
        json_fields!(o; benchmarks = benchmarks.lines(),
            steps_per_sec_geomean = Fixed(current_geo, 1));
        if !engine_speedups.is_empty() {
            let ratio = geomean(engine_speedups.iter().copied());
            o.field("bytecode_over_tree_geomean", Fixed(ratio, 3));
        }
        let speedup = Fixed(geomean(speedups.iter().copied()), 3);
        json_fields!(o; speedup_geomean = speedup, semantics_identical = mismatches.is_empty());
    });
    let text = json::to_string(doc.lines()) + "\n";
    let speedup_geo = geomean(speedups.iter().copied());

    let path = repo_root().join("BENCH_interp.json");
    std::fs::write(&path, text).unwrap();
    eprintln!("wrote {}", path.display());

    let metric_rows: Vec<ent_bench::metrics::Row> = samples
        .iter()
        .flat_map(|s| {
            s.by_lane.iter().map(|(lane, e)| {
                ent_bench::metrics::Row::new(format!("{}/{}", s.name, lane.name))
                    .with("steps", s.steps as f64)
                    .with("steps_per_sec", e.steps_per_sec)
                    .with("wall_ms_per_run", e.wall_ms_per_run)
                    .with("rsd_pct", e.rsd_pct)
            })
        })
        .collect();
    match ent_bench::metrics::write_in(
        repo_root(),
        "perf_baseline",
        "fig6_e2_system_a",
        &metric_rows,
    ) {
        Ok(p) => eprintln!("metrics written to {}", p.display()),
        Err(e) => eprintln!("could not write metrics json: {e}"),
    }
    if !engine_speedups.is_empty() {
        eprintln!(
            "bytecode over tree geomean: {:.2}x",
            geomean(engine_speedups.iter().copied())
        );
    }
    eprintln!(
        "steps/sec geomean: {:.0}   speedup vs baseline: {}",
        current_geo,
        if speedups.is_empty() {
            "n/a (no baseline captured)".to_string()
        } else {
            format!("{speedup_geo:.2}x")
        }
    );
    if !mismatches.is_empty() {
        eprintln!("SEMANTICS MISMATCH vs baseline in: {mismatches:?}");
        std::process::exit(1);
    }
}
