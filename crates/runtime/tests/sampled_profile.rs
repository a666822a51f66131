//! The sampled profiler's contracts:
//!
//! * **Determinism** — same program + seed + period ⇒ byte-identical
//!   telemetry across repeat runs, both engines and the bytecode
//!   engine's threaded tier, tier counters aside (the sampler keys off
//!   the virtual step counter, which bytecode gas batching keeps exact at
//!   every observable boundary).
//! * **Schema** — sampled reports self-describe with `"mode": "sampled"`
//!   and carry `samples`/`est_*`/`ci_lo`/`ci_hi` fields; exact reports
//!   keep their original schema byte-for-byte (no `mode` key); profiling
//!   off emits `"profile": null`.
//! * **Estimator coherence** — exclusive estimates partition the run,
//!   the root inclusive estimate is the whole run, CIs bracket their
//!   point estimates, and at period 1 the estimator degenerates to the
//!   exact profiler's frame-granular attribution.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    json_is_valid, lower_program, run_lowered, Engine, LoweredProgram, ProfileMode, RunResult,
    RuntimeConfig, TierStats, TierUp,
};

/// Recursion, snapshots (one failing, caught), dynamic allocs, and sim
/// work — enough structure for a multi-frame sample tree.
const WORKLOAD: &str = "
modes { low <= mid; mid <= high; }
class Job@mode<? <= J> {
  int size;
  attributor {
    if (this.size > 100) { return high; }
    else if (this.size > 10) { return mid; }
    else { return low; }
  }
  int step(int n) {
    Sim.work(\"cpu\", Math.toDouble(this.size) * 100000.0);
    if (n <= 1) { return this.size; }
    return this.step(n - 1);
  }
}
class Runner@mode<? <= R> {
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int go() {
    return this.one(3) + this.one(40) + this.one(7);
  }
  int one(int size) {
    let dj = new Job(size);
    let Job j = snapshot dj [_, R];
    let Job j2 = snapshot dj [_, R];
    return j2.step(3);
  }
}
class Main {
  int main() {
    let dr = new Runner();
    let Runner r = snapshot dr [_, _];
    let bad = new Job(500);
    let fallback = try {
      let Job b = snapshot bad [_, low];
      b.step(1)
    } catch {
      0 - 1
    };
    return r.go() + fallback;
  }
}";

fn lowered() -> LoweredProgram {
    lower_program(&compile(WORKLOAD).expect("workload compiles"))
}

fn config(engine: Engine, profile: ProfileMode) -> RuntimeConfig {
    RuntimeConfig {
        engine,
        battery_level: 0.9,
        seed: 42,
        profile,
        ..RuntimeConfig::default()
    }
}

#[test]
fn sampled_telemetry_is_byte_identical_across_runs_and_engines() {
    let prog = lowered();
    let mode = ProfileMode::Sampled {
        period: 32,
        seed: 5,
    };
    let tree_a = run_lowered(&prog, Platform::system_a(), config(Engine::Tree, mode));
    let tree_b = run_lowered(&prog, Platform::system_a(), config(Engine::Tree, mode));
    let vm = run_lowered(&prog, Platform::system_a(), config(Engine::Bytecode, mode));
    let threaded = run_lowered(
        &prog,
        Platform::system_a(),
        RuntimeConfig {
            tier_up: TierUp::Always,
            ..config(Engine::Bytecode, mode)
        },
    );
    assert!(tree_a.value.is_ok(), "workload runs clean: {tree_a:?}");
    assert!(threaded.tier.threaded_entries > 0, "the threaded tier ran");
    let sampled = tree_a
        .profile
        .as_ref()
        .and_then(|p| p.as_sampled())
        .expect("sampled report");
    assert!(sampled.samples > 0, "the workload is long enough to sample");
    // The whole telemetry document — stats, measurement bit patterns,
    // and the profile object — is byte-stable.
    assert_eq!(tree_a.to_json(), tree_b.to_json(), "repeat run diverged");
    assert_eq!(tree_a.to_json(), vm.to_json(), "engines diverged");
    // The tier counters are the threaded tier's one intended difference.
    let untiered = RunResult {
        tier: TierStats::default(),
        ..threaded
    };
    assert_eq!(
        tree_a.to_json(),
        untiered.to_json(),
        "threaded tier diverged"
    );
}

#[test]
fn sampled_schedule_responds_to_seed_and_period() {
    let prog = lowered();
    let base = run_lowered(
        &prog,
        Platform::system_a(),
        config(
            Engine::Tree,
            ProfileMode::Sampled {
                period: 32,
                seed: 5,
            },
        ),
    );
    let wider = run_lowered(
        &prog,
        Platform::system_a(),
        config(
            Engine::Tree,
            ProfileMode::Sampled {
                period: 128,
                seed: 5,
            },
        ),
    );
    let a = base.profile.unwrap();
    let b = wider.profile.unwrap();
    let (a, b) = (a.as_sampled().unwrap(), b.as_sampled().unwrap());
    // 4× the period ⇒ roughly a quarter of the captures (jitter keeps it
    // from being exact; the bound is deliberately loose).
    assert!(
        b.samples < a.samples,
        "period 128 took {} samples vs {} at period 32",
        b.samples,
        a.samples
    );
    // Semantics are untouched either way.
    assert_eq!(base.stats.steps, wider.stats.steps);
    assert_eq!(
        base.measurement.energy_j.to_bits(),
        wider.measurement.energy_j.to_bits()
    );
}

#[test]
fn telemetry_schema_distinguishes_all_three_modes() {
    let prog = lowered();

    // Off: the profile key is literally null and the field is None.
    let off = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::Off),
    );
    assert!(off.profile.is_none());
    let json = off.to_json();
    assert!(json_is_valid(&json), "{json}");
    assert!(json.contains("\"profile\": null"));

    // Exact: the original PR-2 schema, byte-for-byte — object starts at
    // "methods", per-method inclusive/exclusive cost objects, no "mode"
    // key and no CI fields anywhere in the profile object.
    let exact = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::Exact),
    );
    let json = exact.to_json();
    assert!(json_is_valid(&json), "{json}");
    assert!(json.contains("\"profile\": {\"methods\": ["));
    let profile_json = exact.profile.as_ref().unwrap().to_json();
    assert!(
        !profile_json.contains("\"mode\""),
        "exact schema grew a mode key"
    );
    assert!(
        !profile_json.contains("\"ci_lo\""),
        "exact schema grew CI fields"
    );
    assert!(profile_json.contains("\"inclusive\""));
    assert!(profile_json.contains("\"exclusive\""));

    // Sampled: self-describing mode plus samples, estimates, and CIs.
    let sampled = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::sampled_default()),
    );
    let json = sampled.to_json();
    assert!(json_is_valid(&json), "{json}");
    assert!(json.contains("\"profile\": {\"mode\": \"sampled\""));
    for key in [
        "\"period\"",
        "\"samples\"",
        "\"total_steps\"",
        "\"est_steps_excl\"",
        "\"ci_lo\"",
        "\"ci_hi\"",
        "\"est_steps_incl\"",
        "\"est_energy_j_excl\"",
        "\"est_time_s_excl\"",
        "\"folded\"",
    ] {
        assert!(
            json.contains(key),
            "sampled telemetry missing {key}: {json}"
        );
    }
}

#[test]
fn sampled_estimates_are_coherent() {
    let prog = lowered();
    let result = run_lowered(
        &prog,
        Platform::system_a(),
        config(
            Engine::Tree,
            ProfileMode::Sampled {
                period: 16,
                seed: 0,
            },
        ),
    );
    let report = result.profile.as_ref().unwrap();
    let p = report.as_sampled().expect("sampled report");
    assert!(report.as_exact().is_none(), "mode accessors are exclusive");

    assert_eq!(p.total_steps, result.stats.steps);
    // The scaled-to totals come from the noise-free sim accumulator (the
    // whole-run measurement adds seeded noise on top), so they match the
    // exact profiler's attribution total, not `measurement.energy_j`.
    let exact_run = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::Exact),
    );
    let exact_total = exact_run
        .profile
        .as_ref()
        .unwrap()
        .as_exact()
        .unwrap()
        .total();
    assert!(
        (p.total_energy_j - exact_total.energy_j).abs() < 1e-9,
        "{} vs {}",
        p.total_energy_j,
        exact_total.energy_j
    );

    // Exclusive estimates partition the run (hit fractions sum to 1).
    let excl_sum: f64 = p.methods.iter().map(|m| m.est_steps_excl).sum();
    assert!(
        (excl_sum - p.total_steps as f64).abs() < 1e-6 * p.total_steps as f64,
        "exclusive estimates sum to {excl_sum}, run has {} steps",
        p.total_steps
    );
    let energy_sum: f64 = p.methods.iter().map(|m| m.est_energy_j_excl).sum();
    assert!((energy_sum - p.total_energy_j).abs() < 1e-9 + 1e-6 * p.total_energy_j);

    // The root's inclusive estimate is the whole run, exactly.
    let root = p.methods.iter().find(|m| m.name == "(root)").unwrap();
    assert_eq!(root.samples_incl, p.samples);
    assert!((root.est_steps_incl - p.total_steps as f64).abs() < 1e-9);
    assert!((root.est_energy_j_incl - p.total_energy_j).abs() < 1e-9);

    for m in &p.methods {
        assert!(m.samples_incl >= m.samples_excl, "{}", m.name);
        assert!(
            m.ci_steps_excl.0 <= m.est_steps_excl && m.est_steps_excl <= m.ci_steps_excl.1,
            "{}: CI {:?} does not bracket {}",
            m.name,
            m.ci_steps_excl,
            m.est_steps_excl
        );
        assert!(
            m.ci_steps_incl.0 <= m.est_steps_incl && m.est_steps_incl <= m.ci_steps_incl.1,
            "{}",
            m.name
        );
    }

    // Folded weights are sample counts and account for every capture.
    let folded_total: u64 = p
        .folded
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(folded_total, p.samples);
}

#[test]
fn period_one_degenerates_to_exact_attribution() {
    let prog = lowered();
    let exact_run = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::Exact),
    );
    let sampled_run = run_lowered(
        &prog,
        Platform::system_a(),
        config(Engine::Tree, ProfileMode::Sampled { period: 1, seed: 9 }),
    );
    let exact = exact_run.profile.as_ref().unwrap().as_exact().unwrap();
    let sampled = sampled_run.profile.as_ref().unwrap().as_sampled().unwrap();

    // Every step crosses a threshold, so hits == steps per frame.
    assert_eq!(sampled.samples, sampled_run.stats.steps);
    for m in &exact.methods {
        let est = sampled
            .methods
            .iter()
            .find(|s| s.name == m.name)
            .unwrap_or_else(|| panic!("method {} missing from sampled report", m.name));
        assert_eq!(
            est.est_steps_excl, m.exclusive.steps as f64,
            "{}: sampled estimate vs exact exclusive steps",
            m.name
        );
        assert_eq!(est.est_steps_incl, m.inclusive.steps as f64, "{}", m.name);
        // Energy is the step share of the run total (hit-share
        // attribution): exact steps ⇒ exact share of the total.
        let total = exact.total();
        let expect = m.exclusive.steps as f64 / total.steps as f64 * total.energy_j;
        assert!(
            (est.est_energy_j_excl - expect).abs() < 1e-9 + 1e-9 * expect.abs(),
            "{}: {} vs {}",
            m.name,
            est.est_energy_j_excl,
            expect
        );
    }

    // The folded stacks carry identical weights once the exact chains
    // are collapsed the way the sampler collapses them: consecutive
    // identical path segments merge (the sampler run-length encodes
    // direct self-recursion) and weights sum per collapsed path.
    let collapse = |lines: &[String]| -> std::collections::HashMap<String, u64> {
        let mut out = std::collections::HashMap::new();
        for line in lines {
            let (path, weight) = line.rsplit_once(' ').unwrap();
            let mut collapsed: Vec<&str> = Vec::new();
            for seg in path.split(';') {
                if collapsed.last() != Some(&seg) {
                    collapsed.push(seg);
                }
            }
            *out.entry(collapsed.join(";")).or_insert(0u64) += weight.parse::<u64>().unwrap();
        }
        out
    };
    assert_eq!(collapse(&exact.folded), collapse(&sampled.folded));
}
