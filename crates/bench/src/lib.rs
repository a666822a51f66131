//! The ENT experiment harness: drivers that regenerate every table and
//! figure of the paper's evaluation (§6) against the simulated platforms.
//!
//! Each `figN` module produces structured rows; the `fig*` binaries print
//! them as the paper's tables/series. Absolute joule values differ from
//! the paper (the substrate is a simulator, not the authors' testbed), but
//! the *shapes* are the reproduction targets:
//!
//! * Figure 6 — per-benchmark runtime overhead of tagging/snapshots is
//!   small, occasionally negative under noise;
//! * Figure 8 — E1 exceptions fire in exactly the 3 of 9 boot×workload
//!   combinations where the workload mode exceeds the boot mode, and the
//!   exception path saves energy versus the silent counterpart;
//! * Figure 9 — those savings hold on all three systems, with smaller
//!   percentages on the time-fixed System B/C benchmarks;
//! * Figure 10 — E2 energy is battery-proportional
//!   (energy_saver < managed < full_throttle);
//! * Figure 11 — E3 traces: ENT hovers near the `hot` threshold while the
//!   Java runs climb.

use ent_energy::{FaultPlan, PlatformKind};
use ent_workloads::{
    all_benchmarks, benchmark, e3_benchmarks, prepare_e1, prepare_e2, prepare_e3, run_batch,
    run_e1_chaos_prepared, run_e1_prepared, run_e2_prepared, run_e3_prepared,
    run_overhead_pair_prepared, BenchmarkSpec,
};

/// Benchmarks per system in the E1/E2 figures (Figures 8–10). `jython` and
/// `xalan` appear only in the overhead table and the E3 runs, as in the
/// paper.
pub fn e_benchmarks(system: PlatformKind) -> Vec<BenchmarkSpec> {
    let names: &[&str] = match system {
        PlatformKind::SystemA => &[
            "batik", "crypto", "findbugs", "jspider", "pagerank", "sunflow",
        ],
        PlatformKind::SystemB => &["camera", "crypto", "javaboy", "sunflow", "video"],
        PlatformKind::SystemC => &["duckduckgo", "materiallife", "newpipe", "soundrecorder"],
    };
    names
        .iter()
        .map(|n| benchmark(n).expect("benchmark exists"))
        .collect()
}

/// The three boot/workload combinations where the waterfall is violated
/// (Figure 9's bars): `(boot, workload)` indices.
pub const VIOLATING_COMBOS: [(usize, usize); 3] = [(1, 2), (0, 1), (0, 2)];

/// Averages a measurement over several seeds, discarding the first run
/// (the paper's JIT-warmup discipline).
pub fn average_runs(repeats: usize, mut f: impl FnMut(u64) -> f64) -> f64 {
    let repeats = repeats.max(1);
    let _warmup = f(0);
    let total: f64 = (1..=repeats as u64).map(&mut f).sum();
    total / repeats as f64
}

/// Command-line arguments shared by the figure binaries:
/// `[<value>] [--jobs N] [--faults <spec>] [--fault-seed N]`, where the
/// positional value is the repeat count (the seed, for
/// `fig11_e3_thermal`). The engine, tier-up and enforcement settings are
/// not flags: every prepared program reads `ENT_ENGINE`, `ENT_TIER_UP`
/// and `ENT_ENFORCE` (see `ent_workloads::prepare_e1`), which child
/// processes inherit.
#[derive(Clone, Debug)]
pub struct GridArgs {
    /// The positional value (repeats or seed).
    pub value: u64,
    /// Batch worker count; `0` means one per available CPU.
    pub jobs: usize,
    /// Fault plan from `--faults` ("off", "chaos", or a key=value spec);
    /// `None` when the flag is absent or the plan is a no-op.
    pub faults: Option<FaultPlan>,
    /// Seed for the fault injector's deterministic schedule.
    pub fault_seed: u64,
}

/// Parses `std::env::args()` as
/// `[<value>] [--jobs N] [--faults <spec>] [--fault-seed N]`. The jobs
/// default comes from the `ENT_JOBS` environment variable (else 1);
/// figure output is bit-identical at every jobs count, so that flag only
/// changes speed. A malformed `--faults` value exits with status 1, as
/// does a zero or non-numeric `--jobs` or `--fault-seed`, any other
/// `--flag` (its value would otherwise be read as the positional count),
/// and a malformed `ENT_ENGINE`, `ENT_TIER_UP` or `ENT_ENFORCE`
/// ([`ent_runtime::check_env_settings`]).
pub fn parse_grid_args(default_value: u64) -> GridArgs {
    parse_grid_args_with(default_value, &[])
}

/// [`parse_grid_args`] for a binary with flags of its own: every name in
/// `own_flags` takes one value (`--flag v` or `--flag=v`) that the binary
/// reads itself, so the grid parser skips the flag and its value instead
/// of rejecting them.
pub fn parse_grid_args_with(default_value: u64, own_flags: &[&str]) -> GridArgs {
    if let Err(e) = ent_runtime::check_env_settings() {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let mut parsed = GridArgs {
        value: default_value,
        jobs: ent_workloads::default_jobs(),
        faults: None,
        fault_seed: 0,
    };
    let mut args = std::env::args().skip(1);
    let set_faults = |spec: &str, parsed: &mut GridArgs| match FaultPlan::parse(spec) {
        Ok(plan) => parsed.faults = (!plan.is_noop()).then_some(plan),
        Err(e) => {
            eprintln!("invalid --faults spec: {e}");
            std::process::exit(1);
        }
    };
    let parse_jobs = |v: &str| -> usize {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => exit_invalid("--jobs", v, "a positive integer"),
        }
    };
    let parse_seed = |v: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| exit_invalid("--fault-seed", v, "a non-negative integer"))
    };
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let v = args.next().unwrap_or_default();
            parsed.jobs = parse_jobs(&v);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            parsed.jobs = parse_jobs(v);
        } else if a == "--faults" {
            let spec = args.next().unwrap_or_default();
            set_faults(&spec, &mut parsed);
        } else if let Some(spec) = a.strip_prefix("--faults=") {
            let spec = spec.to_string();
            set_faults(&spec, &mut parsed);
        } else if a == "--fault-seed" {
            let v = args.next().unwrap_or_default();
            parsed.fault_seed = parse_seed(&v);
        } else if let Some(v) = a.strip_prefix("--fault-seed=") {
            parsed.fault_seed = parse_seed(v);
        } else if a.starts_with("--") {
            let name = a.split_once('=').map_or(a.as_str(), |(name, _)| name);
            if !own_flags.contains(&name) {
                eprintln!("unknown flag `{name}`");
                std::process::exit(1);
            }
            if name == a {
                args.next();
            }
        } else if let Ok(v) = a.parse() {
            parsed.value = v;
        }
    }
    parsed
}

/// The grid bins' usage-error exit: print what was wrong and stop with
/// status 1 — a malformed knob must never fall back to a default.
fn exit_invalid(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("invalid {flag} value {value:?} (expected {expected})");
    std::process::exit(1);
}

/// Figure 6: benchmark statistics and the percentage energy overhead of
/// ENT's runtime (tagging + snapshot metadata) versus the no-op baseline.
pub mod fig6 {
    use super::*;

    /// One table row.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Benchmark name.
        pub name: &'static str,
        /// Description from Figure 6.
        pub description: &'static str,
        /// Systems (A/B/C) it runs on.
        pub systems: String,
        /// CLOC of the original Java code base (paper's column; context).
        pub cloc: u32,
        /// Lines changed for the ENT port (paper's column; context).
        pub ent_changes: u32,
        /// Measured energy overhead, in percent.
        pub overhead_pct: f64,
    }

    /// Runs the overhead experiment for every benchmark, one batch job per
    /// table row.
    pub fn rows(repeats: usize, jobs: usize) -> Vec<Row> {
        let work = all_benchmarks();
        run_batch(jobs, &work, |spec| {
            let system = spec.primary_platform();
            let prog = prepare_e2(spec, system, 1);
            // Mix the benchmark name into the seed so each row draws an
            // independent noise sample, as distinct physical runs would.
            let name_salt: u64 = spec
                .name
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
            let overhead_pct = average_runs(repeats, |seed| {
                let (tagged, baseline) =
                    run_overhead_pair_prepared(&prog, system, seed * 31 + 7 + name_salt);
                (tagged - baseline) / baseline * 100.0
            });
            let systems = spec
                .systems
                .iter()
                .map(|s| match s {
                    PlatformKind::SystemA => "A",
                    PlatformKind::SystemB => "B",
                    PlatformKind::SystemC => "C",
                })
                .collect::<Vec<_>>()
                .join(",");
            Row {
                name: spec.name,
                description: spec.description,
                systems,
                cloc: spec.cloc,
                ent_changes: spec.ent_changes,
                overhead_pct,
            }
        })
    }
}

/// Figure 7: the benchmark settings table (pure data; no runs).
pub mod fig7 {
    use super::*;

    /// One settings row, mirroring Figure 7's columns.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Benchmark name.
        pub name: &'static str,
        /// What the workload attributor inspects.
        pub workload_attr: &'static str,
        /// Workload labels per workload mode.
        pub workload: [String; 3],
        /// The QoS knob.
        pub qos_knob: &'static str,
        /// QoS labels per boot mode.
        pub qos: [String; 3],
    }

    /// Every benchmark's settings.
    pub fn rows() -> Vec<Row> {
        all_benchmarks()
            .into_iter()
            .map(|b| Row {
                name: b.name,
                workload_attr: b.workload_attr,
                workload: b.workload_labels.map(str::to_string),
                qos_knob: b.qos_knob,
                qos: b.qos_labels.map(str::to_string),
            })
            .collect()
    }
}

/// Figure 8: the full 9-combination battery-exception grid on System A,
/// with silent counterparts.
pub mod fig8 {
    use super::*;

    /// One bar of the figure.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// Workload mode index (0–2).
        pub workload: usize,
        /// Boot mode index (0–2).
        pub boot: usize,
        /// Whether this is the silent counterpart.
        pub silent: bool,
        /// Average energy in joules.
        pub energy_j: f64,
        /// Whether the waterfall was violated during the run.
        pub exception: bool,
        /// Snapshot-check failures in one run of this configuration.
        pub snapshot_failures: u64,
        /// Dynamic-waterfall failures in one run (zero for well-typed
        /// programs, per Corollary 1).
        pub dfall_failures: u64,
    }

    /// Runs the grid for the six System A benchmarks, one batch job per
    /// benchmark × workload × boot × runtime cell.
    pub fn rows(repeats: usize, jobs: usize) -> Vec<Row> {
        let mut work = Vec::new();
        for spec in e_benchmarks(PlatformKind::SystemA) {
            for workload in 0..3 {
                for boot in 0..3 {
                    for silent in [false, true] {
                        work.push((spec.clone(), workload, boot, silent));
                    }
                }
            }
        }
        run_batch(jobs, &work, |(spec, workload, boot, silent)| {
            let prog = prepare_e1(spec, PlatformKind::SystemA, *workload);
            let mut last = None;
            let energy_j = average_runs(repeats, |seed| {
                let o = run_e1_prepared(&prog, *boot, *silent, seed * 131 + 3);
                let energy_j = o.energy_j;
                last = Some(o);
                energy_j
            });
            let last = last.expect("average_runs ran at least once");
            Row {
                benchmark: spec.name,
                workload: *workload,
                boot: *boot,
                silent: *silent,
                energy_j,
                exception: last.exception,
                snapshot_failures: last.snapshot_failures,
                dfall_failures: last.dfall_failures,
            }
        })
    }

    /// Converts figure rows to the machine-readable metric rows the
    /// `fig8_e1_system_a` binary writes — the failure split (exception
    /// flag plus the snapshot/dfall counters behind it) rides along with
    /// the energy number.
    pub fn metric_rows(rows: &[Row]) -> Vec<metrics::Row> {
        rows.iter()
            .map(|r| {
                metrics::Row::new(format!(
                    "{}/{}/{}/{}",
                    r.benchmark,
                    mode_name(r.workload),
                    mode_name(r.boot),
                    if r.silent { "silent" } else { "ent" }
                ))
                .with("energy_j", r.energy_j)
                .with("exception", if r.exception { 1.0 } else { 0.0 })
                .with("snapshot_failures", r.snapshot_failures as f64)
                .with("dfall_failures", r.dfall_failures as f64)
            })
            .collect()
    }

    /// One cell of the fault-injected grid. Runtime errors are recorded
    /// results here (a degraded cell may legitimately fail), so the grid
    /// always has its full shape.
    #[derive(Clone, Debug)]
    pub struct ChaosRow {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// Workload mode index (0–2).
        pub workload: usize,
        /// Boot mode index (0–2).
        pub boot: usize,
        /// Whether this is the silent counterpart.
        pub silent: bool,
        /// Energy in joules (`None` when the run failed).
        pub energy_j: Option<f64>,
        /// The runtime error, when the run failed.
        pub error: Option<String>,
        /// Whether the waterfall was violated during the run.
        pub exception: bool,
        /// Sensor reads the fault injector faulted.
        pub sensor_faults: u64,
        /// Faulted reads served from last-known-good.
        pub stale_reads: u64,
        /// Mode decisions forced to the conservative bound.
        pub degraded_decisions: u64,
    }

    /// Runs the Figure 8 grid with a fault plan installed: one run per
    /// cell, fault realization salted by the cell's grid position. The
    /// whole sweep is a pure function of `(plan, fault_seed)` — two calls
    /// with the same arguments produce identical rows, which the chaos
    /// bench and CI byte-diff rely on.
    pub fn chaos_rows(jobs: usize, plan: &FaultPlan, fault_seed: u64) -> Vec<ChaosRow> {
        let mut work = Vec::new();
        for spec in e_benchmarks(PlatformKind::SystemA) {
            for workload in 0..3 {
                for boot in 0..3 {
                    for silent in [false, true] {
                        let cell = work.len() as u64;
                        work.push((spec.clone(), workload, boot, silent, cell));
                    }
                }
            }
        }
        run_batch(jobs, &work, |(spec, workload, boot, silent, cell)| {
            let prog = prepare_e1(spec, PlatformKind::SystemA, *workload);
            let o = run_e1_chaos_prepared(
                &prog,
                *boot,
                *silent,
                131 + 3,
                Some(plan.clone()),
                fault_seed.wrapping_add(*cell),
            );
            let (energy_j, error, exception) = match &o.result {
                Ok(out) => (Some(out.energy_j), None, out.exception),
                Err(e) => (None, Some(e.clone()), false),
            };
            ChaosRow {
                benchmark: spec.name,
                workload: *workload,
                boot: *boot,
                silent: *silent,
                energy_j,
                error,
                exception,
                sensor_faults: o.sensor_faults,
                stale_reads: o.stale_reads,
                degraded_decisions: o.degraded_decisions,
            }
        })
    }

    /// Metric rows for a chaos sweep: the failure split (`failed`, the
    /// resilience counters) next to the energy of the surviving cells.
    pub fn chaos_metric_rows(rows: &[ChaosRow]) -> Vec<metrics::Row> {
        rows.iter()
            .map(|r| {
                metrics::Row::new(format!(
                    "{}/{}/{}/{}",
                    r.benchmark,
                    mode_name(r.workload),
                    mode_name(r.boot),
                    if r.silent { "silent" } else { "ent" }
                ))
                .with("energy_j", r.energy_j.unwrap_or(f64::NAN))
                .with("failed", if r.error.is_some() { 1.0 } else { 0.0 })
                .with("exception", if r.exception { 1.0 } else { 0.0 })
                .with("sensor_faults", r.sensor_faults as f64)
                .with("stale_reads", r.stale_reads as f64)
                .with("degraded_decisions", r.degraded_decisions as f64)
            })
            .collect()
    }
}

/// Figure 9: E1 normalized energy and percentage savings for the three
/// violating combinations, on all systems.
pub mod fig9 {
    use super::*;

    /// One bar pair (ENT + silent).
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Which system.
        pub system: PlatformKind,
        /// Benchmark name.
        pub benchmark: &'static str,
        /// Boot mode index.
        pub boot: usize,
        /// Workload mode index.
        pub workload: usize,
        /// ENT energy (joules).
        pub ent_j: f64,
        /// Silent counterpart energy (joules).
        pub silent_j: f64,
        /// ENT energy normalized against the silent full_throttle-boot run
        /// of the same workload.
        pub ent_normalized: f64,
        /// Silent energy, same normalization.
        pub silent_normalized: f64,
        /// Percentage savings of ENT versus its silent counterpart.
        pub savings_pct: f64,
        /// Snapshot-check failures in one silent run of this cell (the
        /// would-be `EnergyException` count the runtime suppresses).
        pub snapshot_failures: u64,
        /// Dynamic-waterfall failures in the same silent run.
        pub dfall_failures: u64,
    }

    /// Runs the violating combinations for every system, one batch job per
    /// system × benchmark × combination cell.
    pub fn rows(repeats: usize, jobs: usize) -> Vec<Row> {
        let mut work = Vec::new();
        for system in [
            PlatformKind::SystemA,
            PlatformKind::SystemB,
            PlatformKind::SystemC,
        ] {
            for spec in e_benchmarks(system) {
                for (boot, workload) in VIOLATING_COMBOS {
                    work.push((system, spec.clone(), boot, workload));
                }
            }
        }
        run_batch(jobs, &work, |&(system, ref spec, boot, workload)| {
            // ENT, silent, and reference runs all share the one program
            // for (benchmark, system, workload) — boot and silent are
            // runtime configuration, not program shape.
            let prog = prepare_e1(spec, system, workload);
            let ent_j = average_runs(repeats, |seed| {
                run_e1_prepared(&prog, boot, false, seed * 17 + 1).energy_j
            });
            let mut last_silent = None;
            let silent_j = average_runs(repeats, |seed| {
                let o = run_e1_prepared(&prog, boot, true, seed * 17 + 5003);
                let energy_j = o.energy_j;
                last_silent = Some(o);
                energy_j
            });
            let reference = average_runs(repeats, |seed| {
                run_e1_prepared(&prog, 2, true, seed * 17 + 9001).energy_j
            });
            let last_silent = last_silent.expect("average_runs ran at least once");
            Row {
                system,
                benchmark: spec.name,
                boot,
                workload,
                ent_j,
                silent_j,
                ent_normalized: ent_j / reference,
                silent_normalized: silent_j / reference,
                savings_pct: (1.0 - ent_j / silent_j) * 100.0,
                snapshot_failures: last_silent.snapshot_failures,
                dfall_failures: last_silent.dfall_failures,
            }
        })
    }

    /// Converts figure rows to the machine-readable metric rows the
    /// `fig9_e1_all` binary writes, failure split included.
    pub fn metric_rows(rows: &[Row]) -> Vec<metrics::Row> {
        rows.iter()
            .map(|r| {
                metrics::Row::new(format!(
                    "{}/{}/{}-{}",
                    system_label(r.system),
                    r.benchmark,
                    mode_name(r.boot),
                    mode_name(r.workload)
                ))
                .with("ent_j", r.ent_j)
                .with("silent_j", r.silent_j)
                .with("ent_normalized", r.ent_normalized)
                .with("silent_normalized", r.silent_normalized)
                .with("savings_pct", r.savings_pct)
                .with("snapshot_failures", r.snapshot_failures as f64)
                .with("dfall_failures", r.dfall_failures as f64)
            })
            .collect()
    }
}

/// Figure 10: E2 battery-casing normalized energy per boot mode, large
/// workload.
pub mod fig10 {
    use super::*;

    /// One bar.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Which system.
        pub system: PlatformKind,
        /// Benchmark name.
        pub benchmark: &'static str,
        /// Boot mode index.
        pub boot: usize,
        /// Average energy (joules).
        pub energy_j: f64,
        /// Normalized against the full_throttle boot.
        pub normalized: f64,
        /// Percentage saved versus the full_throttle boot.
        pub savings_pct: f64,
    }

    /// Runs the casing experiment for every system and benchmark, one
    /// batch job per system × benchmark (each job owns its full-throttle
    /// reference and the three boot bars normalized against it).
    pub fn rows(repeats: usize, jobs: usize) -> Vec<Row> {
        let mut work = Vec::new();
        for system in [
            PlatformKind::SystemA,
            PlatformKind::SystemB,
            PlatformKind::SystemC,
        ] {
            for spec in e_benchmarks(system) {
                work.push((system, spec));
            }
        }
        run_batch(jobs, &work, |&(system, ref spec)| {
            let prog = prepare_e2(spec, system, 2);
            let ft = average_runs(repeats, |seed| {
                run_e2_prepared(&prog, 2, seed * 23 + 5).energy_j
            });
            (0..3)
                .map(|boot| {
                    let energy_j = if boot == 2 {
                        ft
                    } else {
                        average_runs(repeats, |seed| {
                            run_e2_prepared(&prog, boot, seed * 23 + 5).energy_j
                        })
                    };
                    Row {
                        system,
                        benchmark: spec.name,
                        boot,
                        energy_j,
                        normalized: energy_j / ft,
                        savings_pct: (1.0 - energy_j / ft) * 100.0,
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Figure 11: E3 temperature traces, ENT versus Java, on System A.
pub mod fig11 {
    use super::*;

    /// One benchmark's pair of traces.
    #[derive(Clone, Debug)]
    pub struct Series {
        /// Benchmark name.
        pub benchmark: &'static str,
        /// `(normalized time, °C)` for the ENT run.
        pub ent: Vec<(f64, f64)>,
        /// `(normalized time, °C)` for the Java run.
        pub java: Vec<(f64, f64)>,
    }

    fn normalize(trace: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        let end = trace.last().map(|(t, _)| *t).unwrap_or(1.0).max(1e-9);
        trace.into_iter().map(|(t, c)| (t / end, c)).collect()
    }

    /// Runs the five E3 benchmarks, one batch job per benchmark × variant
    /// (ENT and Java traces of one benchmark run concurrently).
    pub fn series(seed: u64, jobs: usize) -> Vec<Series> {
        let work: Vec<(&'static str, usize, f64, bool)> = e3_benchmarks()
            .into_iter()
            .flat_map(|(name, tasks, task_seconds)| {
                [true, false].map(|ent| (name, tasks, task_seconds, ent))
            })
            .collect();
        let traces = run_batch(jobs, &work, |&(name, tasks, task_seconds, ent)| {
            let spec = benchmark(name).expect("E3 benchmark exists");
            normalize(run_e3_prepared(
                &prepare_e3(&spec, tasks, task_seconds, ent),
                seed,
            ))
        });
        work.chunks(2)
            .zip(traces.chunks(2))
            .map(|(w, t)| Series {
                benchmark: w[0].0,
                ent: t[0].clone(),
                java: t[1].clone(),
            })
            .collect()
    }
}

/// Machine-readable companions to the figure binaries' text output.
///
/// Every measuring `fig*` binary prints its human-oriented table and, via
/// this module, drops the same numbers as `results/<bin>.json`, so
/// downstream tooling reads structured rows instead of scraping tables.
pub mod metrics {
    use std::fmt::Write as _;
    use std::io;
    use std::path::{Path, PathBuf};

    use ent_runtime::{json_escape, json_f64};

    /// One benchmark/configuration row: a label plus named numeric values
    /// in presentation order.
    #[derive(Clone, Debug)]
    pub struct Row {
        /// Row label (benchmark name, optionally with system/mode suffixes).
        pub name: String,
        /// `(metric, value)` pairs, serialized in insertion order.
        pub values: Vec<(&'static str, f64)>,
    }

    impl Row {
        /// Starts a row with no values.
        pub fn new(name: impl Into<String>) -> Self {
            Row {
                name: name.into(),
                values: Vec::new(),
            }
        }

        /// Appends one metric (builder style).
        #[must_use]
        pub fn with(mut self, key: &'static str, value: f64) -> Self {
            self.values.push((key, value));
            self
        }
    }

    /// Renders rows as one `ent-bench-metrics/1` JSON document.
    pub fn to_json(suite: &str, rows: &[Row]) -> String {
        let mut out = String::from("{\n  \"schema\": \"ent-bench-metrics/1\",\n");
        let _ = writeln!(out, "  \"suite\": \"{}\",", json_escape(suite));
        out.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(out, "    {{\"name\": \"{}\"", json_escape(&r.name));
            for (k, v) in &r.values {
                let _ = write!(out, ", \"{}\": {}", json_escape(k), json_f64(*v));
            }
            out.push('}');
            out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `<dir>/results/<stem>.json`, creating `results/` if needed,
    /// and returns the path written.
    ///
    /// The write is atomic (temp file + rename in the same directory), so
    /// concurrent figure binaries sharing a `results/` directory can never
    /// interleave partial documents — readers see the old file or the new
    /// one, nothing in between.
    pub fn write_in(
        dir: impl AsRef<Path>,
        stem: &str,
        suite: &str,
        rows: &[Row],
    ) -> io::Result<PathBuf> {
        let dir = dir.as_ref().join("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{stem}.json"));
        let tmp = dir.join(format!(".{stem}.json.tmp-{}", std::process::id()));
        std::fs::write(&tmp, to_json(suite, rows))?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(path)
    }

    /// Writes `results/<stem>.json` under the current directory.
    pub fn write(stem: &str, suite: &str, rows: &[Row]) -> io::Result<PathBuf> {
        write_in(".", stem, suite, rows)
    }

    /// Writes `<dir>/results/<stem>_sched.json`: the process-lifetime
    /// scheduler and cache telemetry ([`ent_workloads::sched_totals`]) as
    /// one `ent-batch-telemetry/1` document. Kept in a separate file from
    /// the figure metrics because steal counts vary with `--jobs` and the
    /// host's timing, while `results/<stem>.json` must stay byte-identical
    /// at every jobs count (CI byte-diffs the figure outputs and excludes
    /// `*_sched.json`). Atomic like [`write_in`].
    pub fn write_sched_in(dir: impl AsRef<Path>, stem: &str) -> io::Result<PathBuf> {
        let dir = dir.as_ref().join("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{stem}_sched.json"));
        let tmp = dir.join(format!(".{stem}_sched.json.tmp-{}", std::process::id()));
        std::fs::write(&tmp, ent_workloads::sched_totals().to_json())?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(path)
    }

    /// Writes `results/<stem>_sched.json` under the current directory.
    pub fn write_sched(stem: &str) -> io::Result<PathBuf> {
        write_sched_in(".", stem)
    }
}

/// Renders a simple fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A compact ASCII sparkline for temperature traces.
pub fn sparkline(values: &[f64], lo: f64, hi: f64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|v| {
            let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            LEVELS[(t * (LEVELS.len() - 1) as f64).round() as usize]
        })
        .collect()
}

/// Human-readable mode names for boot/workload indices.
pub fn mode_name(i: usize) -> &'static str {
    ["energy_saver", "managed", "full_throttle"][i.min(2)]
}

/// Short system label.
pub fn system_label(system: PlatformKind) -> &'static str {
    match system {
        PlatformKind::SystemA => "A",
        PlatformKind::SystemB => "B",
        PlatformKind::SystemC => "C",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_benchmark_lists_match_the_paper() {
        assert_eq!(e_benchmarks(PlatformKind::SystemA).len(), 6);
        assert_eq!(e_benchmarks(PlatformKind::SystemB).len(), 5);
        assert_eq!(e_benchmarks(PlatformKind::SystemC).len(), 4);
    }

    #[test]
    fn fig7_has_all_benchmarks() {
        assert_eq!(fig7::rows().len(), 15);
    }

    #[test]
    fn fig8_grid_shape() {
        let rows = fig8::rows(1, 1);
        // 6 benchmarks × 3 workloads × 3 boots × {ent, silent}.
        assert_eq!(rows.len(), 6 * 3 * 3 * 2);
        // Exceptions exactly where workload > boot, and the split
        // counters agree: every E1 violation enters as a snapshot-check
        // failure. Checked runs abort there (Corollary 1: no waterfall
        // failure can follow); silent runs keep going with the over-mode
        // object, so they may additionally record dfall failures. Under
        // `ENT_ENFORCE=transient` the same violations raise, but blame
        // lands in the transient counters, so the guarded split is empty.
        let transient = matches!(
            ent_runtime::Enforcement::from_env(),
            ent_runtime::Enforcement::Transient
        );
        for r in &rows {
            assert_eq!(r.exception, r.workload > r.boot, "{r:?}");
            if transient {
                assert_eq!(r.snapshot_failures, 0, "{r:?}");
            } else {
                assert_eq!(r.exception, r.snapshot_failures > 0, "{r:?}");
            }
            if !r.silent || transient {
                assert_eq!(r.dfall_failures, 0, "{r:?}");
            }
        }
    }

    #[test]
    fn fig8_metric_rows_render_the_failure_split() {
        let rows = fig8::rows(1, 2);
        let metric_rows = fig8::metric_rows(&rows);
        assert_eq!(metric_rows.len(), rows.len());
        let json = metrics::to_json("fig8-test", &metric_rows);
        assert!(ent_runtime::json_is_valid(&json), "{json}");
        for (r, m) in rows.iter().zip(&metric_rows) {
            let get = |key: &str| {
                m.values
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("row {} missing {key}", m.name))
                    .1
            };
            // The collapsed flag and the split counters must agree in the
            // rendered metrics exactly as they do in the figure rows (the
            // guarded split is empty when the process default is
            // transient — blame lands in the transient counters instead).
            assert_eq!(get("exception"), if r.exception { 1.0 } else { 0.0 });
            assert_eq!(get("snapshot_failures"), r.snapshot_failures as f64);
            assert_eq!(get("dfall_failures"), r.dfall_failures as f64);
            if matches!(
                ent_runtime::Enforcement::from_env(),
                ent_runtime::Enforcement::Guarded
            ) {
                assert_eq!(get("exception") > 0.0, get("snapshot_failures") > 0.0);
            }
            if !r.silent {
                assert_eq!(get("dfall_failures"), 0.0, "{}", m.name);
            }
        }
    }

    #[test]
    fn fig9_metric_rows_render_the_failure_split() {
        let rows = fig9::rows(1, 2);
        let metric_rows = fig9::metric_rows(&rows);
        assert_eq!(metric_rows.len(), rows.len());
        let json = metrics::to_json("fig9-test", &metric_rows);
        assert!(ent_runtime::json_is_valid(&json), "{json}");
        for (r, m) in rows.iter().zip(&metric_rows) {
            let get = |key: &str| {
                m.values
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("row {} missing {key}", m.name))
                    .1
            };
            assert_eq!(get("snapshot_failures"), r.snapshot_failures as f64);
            assert_eq!(get("dfall_failures"), r.dfall_failures as f64);
            // Every fig9 cell is a violating combination, so the silent
            // run it reports must have seen snapshot failures (guarded
            // blame; under a transient default the counter stays zero).
            if matches!(
                ent_runtime::Enforcement::from_env(),
                ent_runtime::Enforcement::Guarded
            ) {
                assert!(get("snapshot_failures") > 0.0, "{}", m.name);
            }
            assert_eq!(get("savings_pct"), r.savings_pct);
        }
    }

    #[test]
    fn fig8_chaos_rows_are_deterministic_and_fault_off_cells_match() {
        let plan = ent_energy::FaultPlan {
            dropout_rate: 0.6,
            window_s: 0.5,
            ..ent_energy::FaultPlan::default()
        };
        let a = fig8::chaos_rows(2, &plan, 5);
        let b = fig8::chaos_rows(1, &plan, 5);
        assert_eq!(a.len(), 6 * 3 * 3 * 2);
        let total_faults: u64 = a.iter().map(|r| r.sensor_faults).sum();
        assert!(total_faults > 0, "the plan should fault some reads");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.energy_j.map(f64::to_bits), y.energy_j.map(f64::to_bits));
            assert_eq!(x.error, y.error);
            assert_eq!(
                (x.sensor_faults, x.stale_reads, x.degraded_decisions),
                (y.sensor_faults, y.stale_reads, y.degraded_decisions)
            );
        }
        let json = metrics::to_json("fig8-chaos-test", &fig8::chaos_metric_rows(&a));
        assert!(ent_runtime::json_is_valid(&json), "{json}");
        assert!(json.contains("\"degraded_decisions\""), "{json}");
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_sequential() {
        // The engine's determinism contract, end to end: the same grid at
        // --jobs 1 and --jobs 4 must agree down to the f64 bit pattern.
        let seq = fig9::rows(1, 1);
        let par = fig9::rows(1, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.benchmark, p.benchmark);
            assert_eq!(s.system, p.system);
            assert_eq!((s.boot, s.workload), (p.boot, p.workload));
            assert_eq!(s.ent_j.to_bits(), p.ent_j.to_bits(), "{}", s.benchmark);
            assert_eq!(
                s.silent_j.to_bits(),
                p.silent_j.to_bits(),
                "{}",
                s.benchmark
            );
            assert_eq!(
                s.savings_pct.to_bits(),
                p.savings_pct.to_bits(),
                "{}",
                s.benchmark
            );
            assert_eq!(s.snapshot_failures, p.snapshot_failures);
            assert_eq!(s.dfall_failures, p.dfall_failures);
        }
    }

    #[test]
    fn fig9_savings_are_positive_everywhere() {
        for r in fig9::rows(2, 1) {
            assert!(
                r.savings_pct > 0.0,
                "{} {:?} boot {} workload {}: {:.2}%",
                r.benchmark,
                r.system,
                r.boot,
                r.workload,
                r.savings_pct
            );
            assert!(r.ent_normalized <= r.silent_normalized);
        }
    }

    #[test]
    fn fig9_system_a_savings_sit_in_the_paper_band() {
        // The paper's System A savings range roughly 14–58 %; with the
        // QoS-degradation handler the reproduction should land in a
        // comparable (not pathological) band.
        let rows = fig9::rows(2, 1);
        for r in rows.iter().filter(|r| r.system == PlatformKind::SystemA) {
            assert!(
                r.savings_pct > 10.0 && r.savings_pct < 80.0,
                "{} boot {} workload {}: {:.2}%",
                r.benchmark,
                r.boot,
                r.workload,
                r.savings_pct
            );
        }
    }

    #[test]
    fn fig9_time_fixed_systems_save_less_than_batch_system_a() {
        let rows = fig9::rows(2, 1);
        let avg = |system: PlatformKind, time_fixed: bool| {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| {
                    r.system == system
                        && benchmark(r.benchmark).unwrap().is_time_fixed() == time_fixed
                })
                .map(|r| r.savings_pct)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let a_batch = avg(PlatformKind::SystemA, false);
        let b_fixed = avg(PlatformKind::SystemB, true);
        let c_fixed = avg(PlatformKind::SystemC, true);
        assert!(a_batch > b_fixed, "A batch {a_batch} vs B fixed {b_fixed}");
        assert!(a_batch > c_fixed, "A batch {a_batch} vs C fixed {c_fixed}");
    }

    #[test]
    fn fig10_is_battery_proportional() {
        let rows = fig10::rows(2, 2);
        for system in [
            PlatformKind::SystemA,
            PlatformKind::SystemB,
            PlatformKind::SystemC,
        ] {
            for spec in e_benchmarks(system) {
                let g = |boot: usize| {
                    rows.iter()
                        .find(|r| r.system == system && r.benchmark == spec.name && r.boot == boot)
                        .unwrap()
                        .energy_j
                };
                assert!(
                    g(0) < g(1) && g(1) < g(2),
                    "{}: {} < {} < {}",
                    spec.name,
                    g(0),
                    g(1),
                    g(2)
                );
            }
        }
    }

    #[test]
    fn fig11_ent_hovers_java_climbs() {
        for series in fig11::series(3, 2) {
            let peak = |t: &[(f64, f64)]| t.iter().map(|(_, c)| *c).fold(0.0, f64::max);
            assert!(
                peak(&series.java) > peak(&series.ent),
                "{}: java should peak higher",
                series.benchmark
            );
            assert!(peak(&series.java) > 65.0, "{}", series.benchmark);
        }
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(t.contains("long-name"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let rows = vec![
            metrics::Row::new("batik")
                .with("overhead_pct", 1.25)
                .with("broken", f64::NAN),
            metrics::Row::new("weird \"name\"\\x").with("energy_j", 3.0),
        ];
        let json = metrics::to_json("unit-test", &rows);
        assert!(ent_runtime::json_is_valid(&json), "{json}");
        assert!(json.contains("\"overhead_pct\": 1.25"));
        assert!(json.contains("\"broken\": null"));
        assert!(json.contains("ent-bench-metrics/1"));
    }

    #[test]
    fn sparkline_maps_range() {
        let s = sparkline(&[0.0, 0.5, 1.0], 0.0, 1.0);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn write_sched_emits_valid_batch_telemetry() {
        // Drive at least one batch so the totals are non-trivial, then
        // check the emitted document's schema and required counters.
        let _ = ent_workloads::run_batch(2, &[1u32, 2, 3, 4], |&n| n);
        let dir = std::env::temp_dir().join(format!("ent-sched-test-{}", std::process::id()));
        let path = metrics::write_sched_in(&dir, "unit").expect("write sched telemetry");
        assert!(path.ends_with("results/unit_sched.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(ent_runtime::json_is_valid(&text), "{text}");
        for needle in [
            "\"schema\": \"ent-batch-telemetry/1\"",
            "\"batches\":",
            "\"steals\":",
            "\"chunks_claimed\":",
            "\"cache\":",
            "\"entries\":",
            "\"shard_entries\": [",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
