//! The ENT benchmark suite: the fifteen applications of the paper's
//! Figure 6, with the workload-attribution and QoS settings of Figure 7,
//! generated as ENT programs and executed on the simulated platforms.
//!
//! Each benchmark comes in the experiment shapes of §6.1:
//!
//! * E1 "battery-exception" — bounded snapshots throw `EnergyException`
//!   when the workload's mode exceeds the boot mode;
//! * E2 "battery-casing" — mode cases adapt the QoS to the boot mode;
//! * E3 "temperature-casing" — a snapshotted `Sleep` object regulates CPU
//!   temperature (the five System A benchmarks of Figure 11).
//!
//! # Example
//!
//! ```
//! use ent_workloads::{benchmark, run_e2};
//! use ent_energy::PlatformKind;
//!
//! let crypto = benchmark("crypto").unwrap();
//! let saver = run_e2(&crypto, PlatformKind::SystemA, 0, 2, 7);
//! let full = run_e2(&crypto, PlatformKind::SystemA, 2, 2, 7);
//! assert!(saver.energy_j < full.energy_j);
//! ```

mod apps;
pub mod engine;
pub mod fuzzgen;
mod programs;
mod runner;
mod settings;

pub use apps::{
    batik, camera, crypto, duckduckgo, findbugs, javaboy, jspider, jython, materiallife, newpipe,
    pagerank, showcase_apps, soundrecorder, sunflow, video, xalan,
};
pub use engine::{
    cache_shard_of, default_jobs, lowered_cache_shard_entries, lowered_cache_stats, lowered_cached,
    resolve_jobs, run_batch, run_batch_outcomes, run_batch_outcomes_with_telemetry,
    run_job_isolated, sched_totals, source_fingerprint, try_lowered_cached, BatchPolicy,
    BatchTelemetry, CacheStats, JobError, SchedTotals, LOWERED_CACHE_CAP, LOWERED_CACHE_SHARDS,
};
pub use programs::{
    e1_program, e2_program, e3_program, lattice_program, unit_scale, workload_duty_factor,
    LATTICE_CHUNKS,
};
pub use runner::{
    platform_for, platform_of, prepare_e1, prepare_e2, prepare_e3, run_e1, run_e1_chaos_prepared,
    run_e1_prepared, run_e2, run_e2_prepared, run_e3, run_e3_prepared, run_overhead_pair,
    run_overhead_pair_prepared, ChaosOutcome, Outcome, PreparedProgram,
};
pub use settings::{
    all_benchmarks, battery_for_boot, benchmark, e3_benchmarks, BenchmarkSpec, E3Settings, Shape,
    MODE_NAMES,
};
