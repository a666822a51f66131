//! Executes benchmark programs under the experiment configurations of §6.
//!
//! Each experiment shape comes in two layers:
//!
//! * `prepare_e*` builds (or fetches from the engine's compile-once
//!   cache) the benchmark's [`PreparedProgram`] — the lowered program
//!   plus the platform it runs on;
//! * `run_e*_prepared` executes one configuration against a prepared
//!   program. These are what the batch engine's workers call: a run
//!   costs zero compiles and zero thread spawns (workers already sit on
//!   big interpreter stacks).
//!
//! The `run_e*` convenience wrappers (prepare + run in one call) remain
//! for one-off runs and tests.

use std::sync::Arc;

use ent_energy::{FaultPlan, Platform, PlatformKind};
use ent_runtime::{run_lowered, Enforcement, Engine, LoweredProgram, RunResult, RuntimeConfig};

use crate::engine::lowered_cached;
use crate::programs::{e1_program, e2_program, e3_program};
use crate::settings::{battery_for_boot, BenchmarkSpec, E3Settings};

/// Instantiates the simulator platform for a paper system.
pub fn platform_of(kind: PlatformKind) -> Platform {
    match kind {
        PlatformKind::SystemA => Platform::system_a(),
        PlatformKind::SystemB => Platform::system_b(),
        PlatformKind::SystemC => Platform::system_c(),
    }
}

/// The platform a benchmark actually runs on. On System C the paper
/// attributes the higher (and benchmark-dependent) deviation to external
/// factors — internet response, touch replay — so each App gets its own
/// noise level, spread around the platform base.
pub fn platform_for(spec: &BenchmarkSpec, kind: PlatformKind) -> Platform {
    let mut platform = platform_of(kind);
    if kind == PlatformKind::SystemC {
        let hash = spec
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(167).wrapping_add(b as u64));
        let factor = 0.55 + (hash % 10) as f64 * 0.17; // 0.55 … 2.08
        platform.noise_rsd *= factor;
    }
    platform
}

/// A benchmark program compiled and lowered once, ready to run any number
/// of configurations — concurrently, if the caller likes (the lowered
/// program is `Send + Sync` and shared by `Arc`).
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    /// Benchmark name (for panic messages).
    pub name: &'static str,
    /// The platform this program was generated against and runs on.
    pub platform: Platform,
    /// The shared lowered program.
    pub lowered: Arc<LoweredProgram>,
    /// The evaluation engine every run of this program uses: bytecode
    /// from `prepare_e*`; a differential test sets it to compare engines.
    /// Bytecode lives in the shared `LoweredProgram`, compiled at most
    /// once per method no matter how many runs, threads, or engines touch
    /// the program.
    pub engine: Engine,
    /// The enforcement strategy every run of this program uses: guarded
    /// from `prepare_e*` (see [`PreparedProgram::with_enforcement`]).
    pub enforcement: Enforcement,
}

impl PreparedProgram {
    /// Compiles `src` (or fetches it from the compile-once cache) to run
    /// on `platform` with the default engine and strategy.
    fn new(name: &'static str, src: &str, platform: Platform) -> Self {
        PreparedProgram {
            name,
            lowered: lowered_cached(name, src),
            platform,
            engine: Engine::default(),
            enforcement: Enforcement::default(),
        }
    }

    /// Runs one configuration on the prepared program's own platform.
    pub fn run(&self, config: RuntimeConfig) -> RunResult {
        self.run_on(self.platform.clone(), config)
    }

    /// Runs one configuration on an explicit platform (the Figure 6
    /// overhead pair runs the tagged leg on the base platform). The
    /// prepared engine settings override whatever the config carries, so
    /// every `run_e*_prepared` entry point runs on [`Self::engine`] under
    /// [`Self::enforcement`].
    pub fn run_on(&self, platform: Platform, config: RuntimeConfig) -> RunResult {
        let config = RuntimeConfig {
            engine: self.engine,
            enforcement: self.enforcement,
            ..config
        };
        run_lowered(&self.lowered, platform, config)
    }

    /// Returns the same prepared program pinned to an explicit enforcement
    /// strategy (the differential harnesses sweep one program across the
    /// strategy × engine grid).
    #[must_use]
    pub fn with_enforcement(mut self, enforcement: Enforcement) -> Self {
        self.enforcement = enforcement;
        self
    }
}

/// The outcome of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Energy consumed, in joules (with measurement noise).
    pub energy_j: f64,
    /// Virtual runtime in seconds.
    pub time_s: f64,
    /// Whether an `EnergyException` was raised during the run (for silent
    /// runs: whether one *would* have been raised).
    pub exception: bool,
    /// Snapshot checks whose produced mode fell outside the declared
    /// bounds (counted even when running silent).
    pub snapshot_failures: u64,
    /// Dynamic waterfall checks that failed at a message send (the other
    /// cause of `EnergyException`s).
    pub dfall_failures: u64,
    /// Shallow checks that failed under the transient enforcement
    /// strategy (the counterpart of the two guarded counters above;
    /// always 0 under guarded).
    pub transient_failures: u64,
}

/// The measurement and failure split of a finished run.
fn outcome(result: &RunResult) -> Outcome {
    Outcome {
        energy_j: result.measurement.energy_j,
        time_s: result.measurement.time_s,
        exception: result.stats.energy_exceptions > 0,
        snapshot_failures: result.stats.snapshot_failures,
        dfall_failures: result.stats.dfall_failures,
        transient_failures: result.stats.transient_failures,
    }
}

fn to_outcome(name: &str, result: RunResult) -> Outcome {
    if let Err(e) = &result.value {
        panic!("benchmark `{name}` failed at runtime: {e}");
    }
    outcome(&result)
}

/// Prepares a benchmark's E1 "battery-exception" program for a system and
/// workload mode (compile-once cached).
pub fn prepare_e1(spec: &BenchmarkSpec, system: PlatformKind, workload: usize) -> PreparedProgram {
    let platform = platform_for(spec, system);
    let src = e1_program(spec, &platform, workload);
    PreparedProgram::new(spec.name, &src, platform)
}

/// Runs one E1 configuration against a prepared program: a boot mode
/// (0–2), with or without the runtime type system ("silent").
///
/// # Panics
///
/// Panics if the run stops with a runtime error — a harness bug, not a
/// measurement.
pub fn run_e1_prepared(prog: &PreparedProgram, boot: usize, silent: bool, seed: u64) -> Outcome {
    let config = RuntimeConfig {
        silent,
        battery_level: battery_for_boot(boot),
        seed,
        ..RuntimeConfig::default()
    };
    to_outcome(prog.name, prog.run(config))
}

/// The outcome of one fault-injected experiment run. Unlike [`Outcome`],
/// a runtime error is a *recorded result*, not a harness panic — degraded
/// programs may legitimately fail, and chaos sweeps chart those failures.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// The regular measurement, or the runtime error message.
    pub result: Result<Outcome, String>,
    /// Sensor reads the injector faulted.
    pub sensor_faults: u64,
    /// Faulted reads served from last-known-good within the staleness
    /// bound.
    pub stale_reads: u64,
    /// Mode decisions forced to the conservative bound because no
    /// fresh-enough reading existed.
    pub degraded_decisions: u64,
}

fn to_chaos_outcome(result: RunResult) -> ChaosOutcome {
    ChaosOutcome {
        result: match &result.value {
            Ok(_) => Ok(outcome(&result)),
            Err(e) => Err(e.to_string()),
        },
        sensor_faults: result.stats.sensor_faults,
        stale_reads: result.stats.stale_reads,
        degraded_decisions: result.stats.degraded_decisions,
    }
}

/// Runs one E1 configuration with a fault plan installed. `faults: None`
/// is the control leg: the exact fault-off configuration of
/// [`run_e1_prepared`], differing only in that runtime errors are
/// recorded instead of panicking.
pub fn run_e1_chaos_prepared(
    prog: &PreparedProgram,
    boot: usize,
    silent: bool,
    seed: u64,
    faults: Option<FaultPlan>,
    fault_seed: u64,
) -> ChaosOutcome {
    let config = RuntimeConfig {
        silent,
        battery_level: battery_for_boot(boot),
        seed,
        faults,
        fault_seed,
        ..RuntimeConfig::default()
    };
    to_chaos_outcome(prog.run(config))
}

/// Runs one E1 "battery-exception" configuration: a boot mode (0–2), a
/// workload mode (0–2), with or without the runtime type system
/// ("silent").
///
/// # Panics
///
/// Panics if the generated benchmark program fails to compile or stops
/// with a runtime error — both indicate a bug in the harness, not a
/// measurement.
pub fn run_e1(
    spec: &BenchmarkSpec,
    system: PlatformKind,
    boot: usize,
    workload: usize,
    silent: bool,
    seed: u64,
) -> Outcome {
    run_e1_prepared(&prepare_e1(spec, system, workload), boot, silent, seed)
}

/// Prepares a benchmark's E2 "battery-casing" program for a system and
/// workload mode (compile-once cached).
pub fn prepare_e2(spec: &BenchmarkSpec, system: PlatformKind, workload: usize) -> PreparedProgram {
    let platform = platform_for(spec, system);
    let src = e2_program(spec, &platform, workload);
    PreparedProgram::new(spec.name, &src, platform)
}

/// Runs one E2 configuration against a prepared program: the boot mode
/// selects QoS through mode cases.
pub fn run_e2_prepared(prog: &PreparedProgram, boot: usize, seed: u64) -> Outcome {
    let config = RuntimeConfig {
        battery_level: battery_for_boot(boot),
        seed,
        ..RuntimeConfig::default()
    };
    to_outcome(prog.name, prog.run(config))
}

/// Runs one E2 "battery-casing" configuration: the boot mode selects QoS
/// through mode cases; Figure 10 uses the large workload.
pub fn run_e2(
    spec: &BenchmarkSpec,
    system: PlatformKind,
    boot: usize,
    workload: usize,
    seed: u64,
) -> Outcome {
    run_e2_prepared(&prepare_e2(spec, system, workload), boot, seed)
}

/// Prepares a benchmark's E3 "temperature-casing" program on System A.
/// `ent == false` is the plain-Java variant.
pub fn prepare_e3(
    spec: &BenchmarkSpec,
    tasks: usize,
    task_seconds: f64,
    ent: bool,
) -> PreparedProgram {
    let platform = platform_of(PlatformKind::SystemA);
    let settings = E3Settings::default();
    let src = e3_program(spec, &platform, &settings, tasks, task_seconds, ent);
    PreparedProgram::new(spec.name, &src, platform)
}

/// Runs a prepared E3 program and returns the sampled `(time, °C)` trace.
pub fn run_e3_prepared(prog: &PreparedProgram, seed: u64) -> Vec<(f64, f64)> {
    let config = RuntimeConfig {
        seed,
        trace_interval_s: Some(1.0),
        ..RuntimeConfig::default()
    };
    let result = prog.run(config);
    if let Err(e) = &result.value {
        panic!("benchmark `{}` E3 failed at runtime: {e}", prog.name);
    }
    result.trace
}

/// Runs one E3 "temperature-casing" configuration on System A and returns
/// the sampled `(time, °C)` trace. `ent == false` is the plain-Java run.
pub fn run_e3(
    spec: &BenchmarkSpec,
    tasks: usize,
    task_seconds: f64,
    ent: bool,
    seed: u64,
) -> Vec<(f64, f64)> {
    run_e3_prepared(&prepare_e3(spec, tasks, task_seconds, ent), seed)
}

/// Runs a prepared E2 program twice — once with runtime tagging modeled
/// (on the base platform), once without (on the benchmark's platform) —
/// and returns `(tagged_energy, baseline_energy)`: the Figure 6 overhead
/// measurement.
pub fn run_overhead_pair_prepared(
    prog: &PreparedProgram,
    system: PlatformKind,
    seed: u64,
) -> (f64, f64) {
    let base = RuntimeConfig {
        battery_level: battery_for_boot(1),
        seed,
        ..RuntimeConfig::default()
    };
    let tagged = prog.run_on(
        platform_of(system),
        RuntimeConfig {
            tagging: true,
            ..base.clone()
        },
    );
    let plain = prog.run(RuntimeConfig {
        tagging: false,
        seed: seed + 1000,
        ..base
    });
    (tagged.measurement.energy_j, plain.measurement.energy_j)
}

/// Runs the benchmark in its E2 shape with the default (managed) workload
/// twice — once with runtime tagging modeled, once without — and returns
/// `(tagged_energy, baseline_energy)`. This is the Figure 6 overhead
/// measurement.
pub fn run_overhead_pair(spec: &BenchmarkSpec, system: PlatformKind, seed: u64) -> (f64, f64) {
    run_overhead_pair_prepared(&prepare_e2(spec, system, 1), system, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{all_benchmarks, benchmark};
    use ent_energy::PlatformKind::*;

    #[test]
    fn e1_exceptions_fire_exactly_when_workload_exceeds_boot() {
        // Under both strategies, checked and silent: an exception is
        // raised (or, silent, would be) exactly when the workload exceeds
        // the boot mode, and the split counters agree with the collapsed
        // flag. Transient blame lands in its own counter, so the guarded
        // split stays empty, even where a silent guarded run records
        // dfall failures.
        let spec = benchmark("jspider").unwrap();
        for strategy in [Enforcement::Guarded, Enforcement::Transient] {
            for workload in 0..3 {
                let prog = prepare_e1(&spec, SystemA, workload).with_enforcement(strategy);
                for boot in 0..3 {
                    for silent in [false, true] {
                        let out = run_e1_prepared(&prog, boot, silent, 7);
                        let cell = format!(
                            "{} boot {boot}, workload {workload}, silent {silent}: {out:?}",
                            strategy.name()
                        );
                        assert_eq!(out.exception, workload > boot, "{cell}");
                        assert_eq!(
                            out.exception,
                            out.snapshot_failures + out.dfall_failures + out.transient_failures > 0,
                            "{cell}"
                        );
                        if strategy == Enforcement::Transient {
                            assert_eq!(out.snapshot_failures + out.dfall_failures, 0, "{cell}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn e1_violations_enter_as_snapshot_failures() {
        // Every E1 violation is first a failed snapshot check. A checked
        // run aborts right there, so the waterfall never fails
        // (Corollary 1). A silent run suppresses the check and carries
        // the over-mode object forward, so later sends may additionally
        // record dfall failures — but the snapshot counter still leads.
        // This is guarded blame by definition, so the strategy is pinned.
        let spec = benchmark("sunflow").unwrap();
        let prog = prepare_e1(&spec, SystemA, 2).with_enforcement(Enforcement::Guarded);
        let checked = run_e1_prepared(&prog, 0, false, 9);
        assert!(checked.snapshot_failures > 0, "{checked:?}");
        assert_eq!(checked.dfall_failures, 0, "{checked:?}");

        let silent = run_e1_prepared(&prog, 0, true, 9);
        assert!(silent.snapshot_failures > 0, "{silent:?}");
    }

    #[test]
    fn e1_violations_blame_the_check_site_under_transient() {
        // The transient twin: the same violation raises, but blame lands
        // in the transient counter and the guarded split stays empty.
        let spec = benchmark("sunflow").unwrap();
        let prog = prepare_e1(&spec, SystemA, 2).with_enforcement(Enforcement::Transient);
        let checked = run_e1_prepared(&prog, 0, false, 9);
        assert!(checked.exception, "{checked:?}");
        assert!(checked.transient_failures > 0, "{checked:?}");
        assert_eq!(checked.snapshot_failures, 0, "{checked:?}");
        assert_eq!(checked.dfall_failures, 0, "{checked:?}");
    }

    #[test]
    fn e1_ent_saves_energy_versus_silent_on_violations() {
        let spec = benchmark("sunflow").unwrap();
        // energy_saver boot, full_throttle workload: the paper's largest
        // savings case.
        let ent = run_e1(&spec, SystemA, 0, 2, false, 3);
        let silent = run_e1(&spec, SystemA, 0, 2, true, 3);
        assert!(ent.exception && silent.exception);
        assert!(
            silent.energy_j > 1.5 * ent.energy_j,
            "silent {} vs ent {}",
            silent.energy_j,
            ent.energy_j
        );
    }

    #[test]
    fn chaos_control_leg_matches_the_fault_off_runner() {
        let spec = benchmark("jspider").unwrap();
        let prog = prepare_e1(&spec, SystemA, 1);
        let plain = run_e1_prepared(&prog, 1, false, 7);
        let control = run_e1_chaos_prepared(&prog, 1, false, 7, None, 0);
        assert_eq!(control.result, Ok(plain));
        assert_eq!(control.sensor_faults, 0);
        assert_eq!(control.stale_reads, 0);
        assert_eq!(control.degraded_decisions, 0);
    }

    #[test]
    fn chaos_runs_are_deterministic_and_record_faults() {
        let spec = benchmark("jspider").unwrap();
        let prog = prepare_e1(&spec, SystemA, 1);
        let a = run_e1_chaos_prepared(&prog, 1, false, 7, Some(FaultPlan::chaos()), 11);
        let b = run_e1_chaos_prepared(&prog, 1, false, 7, Some(FaultPlan::chaos()), 11);
        assert_eq!(a, b);
        assert!(a.sensor_faults > 0, "{a:?}");
    }

    #[test]
    fn total_dropout_degrades_e1_instead_of_crashing_it() {
        // E1 programs eliminate their mode cases at explicit targets, so
        // even an App degraded to the conservative bound completes.
        let spec = benchmark("jspider").unwrap();
        let prog = prepare_e1(&spec, SystemA, 1);
        let plan = FaultPlan {
            dropout_rate: 1.0,
            ..FaultPlan::default()
        };
        let r = run_e1_chaos_prepared(&prog, 2, false, 7, Some(plan), 3);
        assert!(r.result.is_ok(), "{r:?}");
        assert!(r.degraded_decisions > 0, "{r:?}");
    }

    #[test]
    fn prepared_runs_match_the_convenience_wrappers() {
        let spec = benchmark("crypto").unwrap();
        let prog = prepare_e1(&spec, SystemA, 2);
        let prepared = run_e1_prepared(&prog, 1, false, 13);
        let direct = run_e1(&spec, SystemA, 1, 2, false, 13);
        assert_eq!(prepared, direct);
    }

    #[test]
    fn e2_energy_is_mode_proportional() {
        for name in ["pagerank", "crypto", "video", "newpipe"] {
            let spec = benchmark(name).unwrap();
            let system = spec.primary_platform();
            let prog = prepare_e2(&spec, system, 2);
            let es = run_e2_prepared(&prog, 0, 11).energy_j;
            let mg = run_e2_prepared(&prog, 1, 11).energy_j;
            let ft = run_e2_prepared(&prog, 2, 11).energy_j;
            assert!(es < mg && mg < ft, "{name}: {es} < {mg} < {ft}");
        }
    }

    #[test]
    fn time_fixed_benchmarks_have_fixed_duration_across_boots() {
        let spec = benchmark("video").unwrap();
        let es = run_e2(&spec, SystemB, 0, 2, 5);
        let ft = run_e2(&spec, SystemB, 2, 2, 5);
        let rel = (es.time_s - ft.time_s).abs() / ft.time_s;
        assert!(
            rel < 0.02,
            "durations should match: {} vs {}",
            es.time_s,
            ft.time_s
        );
        assert!(es.energy_j < ft.energy_j);
    }

    #[test]
    fn batch_benchmarks_scale_time_with_mode() {
        let spec = benchmark("pagerank").unwrap();
        let es = run_e2(&spec, SystemA, 0, 2, 5);
        let ft = run_e2(&spec, SystemA, 2, 2, 5);
        assert!(es.time_s < ft.time_s);
    }

    #[test]
    fn e3_ent_hovers_while_java_climbs() {
        let spec = benchmark("xalan").unwrap();
        let ent = run_e3(&spec, 260, 0.18, true, 1);
        let java = run_e3(&spec, 260, 0.18, false, 1);
        let peak = |t: &[(f64, f64)]| t.iter().map(|(_, c)| *c).fold(0.0, f64::max);
        let ent_peak = peak(&ent);
        let java_peak = peak(&java);
        assert!(
            java_peak > 65.0,
            "the Java run should cross the overheating threshold: {java_peak}"
        );
        assert!(
            ent_peak < java_peak - 3.0,
            "ENT should stay cooler: {ent_peak} vs {java_peak}"
        );
        // ENT's late-run temperatures hover around the hot threshold.
        let late: Vec<f64> = ent
            .iter()
            .filter(|(t, _)| *t > ent.last().unwrap().0 * 0.5)
            .map(|(_, c)| *c)
            .collect();
        let avg = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            (avg - 62.0).abs() < 6.0,
            "ENT should hover near the hot band: average {avg}"
        );
    }

    #[test]
    fn overhead_is_small_for_every_benchmark() {
        for spec in all_benchmarks() {
            let system = spec.primary_platform();
            let (tagged, baseline) = run_overhead_pair(&spec, system, 21);
            let pct = (tagged - baseline) / baseline * 100.0;
            assert!(
                pct.abs() < 8.0,
                "{}: overhead {pct:.2}% (tagged {tagged}, baseline {baseline})",
                spec.name
            );
        }
    }
}
