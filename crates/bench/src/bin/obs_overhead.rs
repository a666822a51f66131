//! Overhead of the observability layer over the Figure-6 E2 suite.
//!
//! Measures interpreter throughput (`RunStats::steps` per wall-clock
//! second) in six configurations of `record_events` × `ProfileMode`
//! (off, events, exact profile, exact+events, sampled profile,
//! sampled+events), asserts the semantics fingerprint is bit-identical
//! across all of them (the zero-interference contract), runs a
//! sampled-vs-exact agreement pass (top-5 exclusive-steps rank overlap
//! and CI coverage of the exact values), and writes `BENCH_obs.json`
//! at the workspace root.
//!
//! The run also applies a regression check for pathological interaction
//! between the event ring and the profiler: any benchmark whose `both`
//! overhead exceeds 2× the sum of its `events` and `profile` overheads
//! (and is material, >20 points) is flagged in `overhead_anomalies`.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin obs_overhead

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use ent_energy::PlatformKind;
use ent_runtime::json::{self, Fixed};
use ent_runtime::json_fields;
use ent_runtime::{
    default_stack_size, run_lowered, with_interp_stack, ProfileMode, RunResult, RuntimeConfig,
};
use ent_workloads::{all_benchmarks, prepare_e2};

const SEED: u64 = 42;
const BATTERY: f64 = 0.75;
/// Per-configuration measurement budget (seconds of wall time).
const BUDGET_S: f64 = 0.15;
/// Sample period for the agreement pass: finer than the default so even
/// the smallest E2 program (~1.2k steps) takes enough samples for a
/// meaningful rank comparison. The overhead columns use the default.
const AGREEMENT_PERIOD: u64 = 16;

/// The measured configurations: `(label, record_events, profile mode)`.
fn configs() -> [(&'static str, bool, ProfileMode); 6] {
    [
        ("off", false, ProfileMode::Off),
        ("events", true, ProfileMode::Off),
        ("profile", false, ProfileMode::Exact),
        ("both", true, ProfileMode::Exact),
        ("sampled", false, ProfileMode::sampled_default()),
        ("sampled_events", true, ProfileMode::sampled_default()),
    ]
}

fn config(events: bool, profile: ProfileMode) -> RuntimeConfig {
    RuntimeConfig {
        battery_level: BATTERY,
        seed: SEED,
        record_events: events,
        profile,
        ..RuntimeConfig::default()
    }
}

/// Every semantic observable, including the split check-failure counters;
/// energy and time compare by f64 bit pattern.
fn fingerprint(result: &RunResult) -> String {
    let s = &result.stats;
    let value = match &result.value {
        Ok(v) => format!("ok:{v}"),
        Err(e) => format!("err:{e}"),
    };
    format!(
        "steps={};snaps={};copies={};exc={};sfail={};dfail={};dyn={};allocs={};value={};pretty={};out={};energy={:016x};time={:016x}",
        s.steps,
        s.snapshots,
        s.copies,
        s.energy_exceptions,
        s.snapshot_failures,
        s.dfall_failures,
        s.dynamic_allocs,
        s.allocs,
        value,
        result.value_pretty.clone().unwrap_or_default(),
        result.output.join("\\n"),
        result.measurement.energy_j.to_bits(),
        result.measurement.time_s.to_bits(),
    )
}

struct Sample {
    name: String,
    steps: u64,
    /// steps/sec per configuration, in `configs()` order.
    sps: [f64; 6],
    semantics_match: bool,
    agreement: Agreement,
}

/// Sampled-vs-exact agreement for one benchmark.
struct Agreement {
    /// Captures the sampled run took (at `AGREEMENT_PERIOD`).
    samples: u64,
    /// Overlap between the top-5 methods by exact exclusive steps and by
    /// sampled exclusive-steps estimate, as a fraction of the compared
    /// rank depth.
    top5_overlap: f64,
    /// Fraction of exact-profile methods whose exact exclusive steps lie
    /// inside the sampled 95% CI (methods the sampler never saw score
    /// against the zero-hit Wilson interval).
    ci_coverage: f64,
}

/// Upper bound of the 95% Wilson interval at zero hits, as a proportion:
/// the CI a method absent from the sampled report implicitly carries.
fn wilson_zero_hi(n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    const Z: f64 = 1.959963984540054;
    let z2 = Z * Z;
    z2 / (n as f64 + z2)
}

fn measure() -> Vec<Sample> {
    // One reusable big-stack worker for the whole measurement loop: every
    // `run_lowered` below is a direct call, not a thread spawn.
    with_interp_stack(default_stack_size(), measure_on_worker)
}

fn measure_on_worker() -> Vec<Sample> {
    let mut samples = Vec::new();
    for spec in all_benchmarks() {
        let prepared = prepare_e2(&spec, PlatformKind::SystemA, 1);
        let (lowered, platform) = (&prepared.lowered, &prepared.platform);

        let plain = run_lowered(lowered, platform.clone(), config(false, ProfileMode::Off));
        let fp = fingerprint(&plain);
        let steps = plain.stats.steps;

        let mut semantics_match = true;
        let mut sps = [0.0f64; 6];
        for (i, (label, events, profile)) in configs().iter().enumerate() {
            // Warm-up run doubles as the fingerprint check.
            let warm = run_lowered(lowered, platform.clone(), config(*events, *profile));
            if fingerprint(&warm) != fp {
                semantics_match = false;
                eprintln!("  {} [{}]: FINGERPRINT MISMATCH", spec.name, label);
            }
            let start = Instant::now();
            let mut runs = 0u32;
            while start.elapsed().as_secs_f64() < BUDGET_S || runs < 3 {
                let r = run_lowered(lowered, platform.clone(), config(*events, *profile));
                assert_eq!(r.stats.steps, steps, "{} must be deterministic", spec.name);
                runs += 1;
            }
            sps[i] = steps as f64 * runs as f64 / start.elapsed().as_secs_f64();
        }

        let agreement = agreement_pass(lowered, platform);
        eprintln!(
            "  {:<12} off {:>11.0}  events {:>+6.2}%  profile {:>+6.2}%  both {:>+6.2}%  sampled {:>+6.2}%  (agree: top5 {:.2}, ci {:.2})",
            spec.name,
            sps[0],
            overhead_pct(sps[0], sps[1]),
            overhead_pct(sps[0], sps[2]),
            overhead_pct(sps[0], sps[3]),
            overhead_pct(sps[0], sps[4]),
            agreement.top5_overlap,
            agreement.ci_coverage,
        );
        samples.push(Sample {
            name: spec.name.to_string(),
            steps,
            sps,
            semantics_match,
            agreement,
        });
    }
    samples
}

/// Runs one exact and one sampled profile (finer period) and scores the
/// sampled estimates against the exact ground truth.
fn agreement_pass(
    lowered: &ent_runtime::LoweredProgram,
    platform: &ent_energy::Platform,
) -> Agreement {
    let exact = run_lowered(lowered, platform.clone(), config(false, ProfileMode::Exact));
    let sampled = run_lowered(
        lowered,
        platform.clone(),
        config(
            false,
            ProfileMode::Sampled {
                period: AGREEMENT_PERIOD,
                seed: ProfileMode::DEFAULT_SAMPLE_SEED,
            },
        ),
    );
    let exact = exact
        .profile
        .as_ref()
        .and_then(|p| p.as_exact())
        .expect("exact profile requested");
    let sampled = sampled
        .profile
        .as_ref()
        .and_then(|p| p.as_sampled())
        .expect("sampled profile requested");

    // Top-5 by exclusive steps, both sides.
    let mut exact_rank: Vec<(&str, u64)> = exact
        .methods
        .iter()
        .map(|m| (m.name.as_str(), m.exclusive.steps))
        .collect();
    exact_rank.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let mut sampled_rank: Vec<(&str, f64)> = sampled
        .methods
        .iter()
        .map(|m| (m.name.as_str(), m.est_steps_excl))
        .collect();
    sampled_rank.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let depth = 5.min(exact_rank.len()).min(sampled_rank.len());
    let top5_overlap = if depth == 0 {
        1.0
    } else {
        let top_exact: Vec<&str> = exact_rank[..depth].iter().map(|(n, _)| *n).collect();
        let hits = sampled_rank[..depth]
            .iter()
            .filter(|(n, _)| top_exact.contains(n))
            .count();
        hits as f64 / depth as f64
    };

    // CI coverage of the exact exclusive steps, over every exact method.
    let by_name: HashMap<&str, &ent_runtime::SampledMethod> = sampled
        .methods
        .iter()
        .map(|m| (m.name.as_str(), m))
        .collect();
    let total_steps = sampled.total_steps as f64;
    let zero_hi = wilson_zero_hi(sampled.samples) * total_steps;
    let mut covered = 0usize;
    for m in &exact.methods {
        let truth = m.exclusive.steps as f64;
        let (lo, hi) = match by_name.get(m.name.as_str()) {
            Some(sm) => sm.ci_steps_excl,
            None => (0.0, zero_hi),
        };
        if lo <= truth && truth <= hi {
            covered += 1;
        }
    }
    let ci_coverage = if exact.methods.is_empty() {
        1.0
    } else {
        covered as f64 / exact.methods.len() as f64
    };

    Agreement {
        samples: sampled.samples,
        top5_overlap,
        ci_coverage,
    }
}

/// Slowdown of `on` relative to `off`, in percent (positive = slower).
fn overhead_pct(off_sps: f64, on_sps: f64) -> f64 {
    (off_sps / on_sps - 1.0) * 100.0
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
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn main() {
    ent_bench::check_env_or_exit();
    eprintln!("measuring observability overhead (Figure-6 E2 suite)...");
    let samples = measure();

    // Regression check: `both` costing far more than its parts means the
    // event ring and the profiler are interacting pathologically (the
    // newpipe anomaly class). Only material gaps count — these programs
    // run in tens of microseconds, so percentages jitter.
    let anomalies: Vec<&Sample> = samples
        .iter()
        .filter(|s| {
            let events = overhead_pct(s.sps[0], s.sps[1]).max(0.0);
            let profile = overhead_pct(s.sps[0], s.sps[2]).max(0.0);
            let both = overhead_pct(s.sps[0], s.sps[3]);
            both > 2.0 * (events + profile) && both - (events + profile) > 20.0
        })
        .collect();
    for s in &anomalies {
        eprintln!(
            "  ANOMALY {}: both {:+.1}% exceeds 2x(events {:+.1}% + profile {:+.1}%)",
            s.name,
            overhead_pct(s.sps[0], s.sps[3]),
            overhead_pct(s.sps[0], s.sps[1]),
            overhead_pct(s.sps[0], s.sps[2]),
        );
    }

    let benchmarks = json::array(|a| {
        for s in &samples {
            a.item(json::object(|o| {
                json_fields!(o; name = &s.name, steps = s.steps);
                for (i, (label, ..)) in configs().iter().enumerate() {
                    o.field(&format!("{label}_steps_per_sec"), Fixed(s.sps[i], 1));
                }
                for (i, (label, ..)) in configs().iter().enumerate().skip(1) {
                    let overhead = overhead_pct(s.sps[0], s.sps[i]);
                    o.field(&format!("{label}_overhead_pct"), Fixed(overhead, 3));
                }
                o.field("semantics_match", s.semantics_match);
            }));
        }
    });
    let off_geo = geomean(samples.iter().map(|s| s.sps[0]));
    // Geomean of throughput ratios, reported as a percentage slowdown.
    let geo_overhead =
        |cfg: usize| (geomean(samples.iter().map(|s| s.sps[0] / s.sps[cfg])) - 1.0) * 100.0;
    let identical = samples.iter().all(|s| s.semantics_match);

    // Sampled-vs-exact agreement section.
    let overlap_mean = samples
        .iter()
        .map(|s| s.agreement.top5_overlap)
        .sum::<f64>()
        / samples.len() as f64;
    let coverage_mean =
        samples.iter().map(|s| s.agreement.ci_coverage).sum::<f64>() / samples.len() as f64;
    let agreement = json::array(|a| {
        for s in &samples {
            let g = &s.agreement;
            a.item(json::object(|o| {
                json_fields!(o; name = &s.name, samples = g.samples,
                    top5_overlap = Fixed(g.top5_overlap, 3), ci_coverage = Fixed(g.ci_coverage, 3));
            }));
        }
    });
    let note = "The E2 programs run in tens of microseconds, so the exact-profile columns are \
                dominated by the fixed per-run report construction (~20us), not by \
                interpreter slowdown; the off and events columns are the \
                zero-overhead-when-off contract. The sampled columns use the default period; \
                the agreement pass uses a finer period so every benchmark takes enough \
                samples to rank.";
    let doc = json::object(|o| {
        let labels = json::list(configs().map(|(label, ..)| label));
        json_fields!(o; suite = "fig6_e2_system_a", seed = SEED, configurations = labels,
            sample_period = ProfileMode::DEFAULT_SAMPLE_PERIOD, benchmarks = benchmarks.lines(),
            off_steps_per_sec_geomean = Fixed(off_geo, 1));
        for (i, (label, ..)) in configs().iter().enumerate().skip(1) {
            let key = format!("{label}_overhead_pct_geomean");
            o.field(&key, Fixed(geo_overhead(i), 3));
        }
        let flagged = json::list(anomalies.iter().map(|s| &s.name));
        json_fields!(o; semantics_identical = identical, overhead_anomalies = flagged);
        let agreement = json::object(|o| {
            json_fields!(o; sample_period = AGREEMENT_PERIOD, benchmarks = agreement.lines(),
                top5_overlap_mean = Fixed(overlap_mean, 3),
                ci_coverage_mean = Fixed(coverage_mean, 3));
        });
        json_fields!(o; agreement = agreement.lines(), note = note);
    });

    let path = repo_root().join("BENCH_obs.json");
    std::fs::write(&path, json::to_string(doc.lines()) + "\n").unwrap();
    eprintln!("wrote {}", path.display());
    eprintln!(
        "geomean overhead: events {:+.2}%  profile {:+.2}%  both {:+.2}%  sampled {:+.2}%  sampled+events {:+.2}%",
        geo_overhead(1),
        geo_overhead(2),
        geo_overhead(3),
        geo_overhead(4),
        geo_overhead(5)
    );
    eprintln!(
        "agreement: top5 overlap mean {overlap_mean:.3}, ci coverage mean {coverage_mean:.3}"
    );
    if !identical {
        eprintln!("SEMANTICS MISMATCH: observability perturbed a run");
        std::process::exit(1);
    }
}
