//! The bytes of the JSON documents the workspace writes, pinned against
//! literals: run telemetry with each profile mode and for a failed run,
//! one wire reply of each kind, and the batch sidecar. The committed
//! `results/*.json` and `BENCH_*.json` files pin the line-per-member
//! layout (`crates/bench/tests/determinism.rs`, `serve_soak.rs`).

use ent_energy::Platform;
use ent_runtime::{run, ProfileMode, RuntimeConfig};
use ent_serve::proto::{ErrorKind, Reply};
use ent_workloads::{CacheStats, SchedTotals};

const PROGRAM: &str = "modes { low <= high; }
class App@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int effort(int n) { return n + mcase{ low: 1; high: 9; } <| X; }
}
class Main {
  int main() {
    let d = new App();
    let App a = snapshot d [low, high];
    IO.print(\"say \\\"hi\\\"\");
    Sim.sleepMs(3);
    return a.effort(a.effort(24));
  }
}";

/// The run telemetry of `src` at seed 7 under `profile`, with a
/// temperature trace when `trace`.
fn telemetry(src: &str, profile: ProfileMode, trace: bool) -> String {
    let compiled = ent_core::compile(src).expect("the pinned program compiles");
    let config = RuntimeConfig {
        seed: 7,
        record_events: true,
        profile,
        trace_interval_s: trace.then_some(0.001),
        ..RuntimeConfig::default()
    };
    run(&compiled, Platform::system_a(), config).to_json()
}

#[test]
fn documents_keep_their_bytes() {
    let sampled = ProfileMode::Sampled { period: 4, seed: 3 };
    let failing = "class Main { int main() { let a = Arr.make(2, 0); return Arr.get(a, 5); } }";
    let nasty = "q\"b\\n\nc\u{1}";
    let totals = SchedTotals {
        batches: 3,
        jobs: 41,
        max_workers: 2,
        steals: 0,
        stolen_jobs: 0,
        chunks_claimed: 9,
        cache: CacheStats {
            capacity: 1024,
            entries: 5,
            hits: 36,
            misses: 5,
            evictions: 0,
        },
    };
    let done = Reply::Done {
        id: nasty.to_string(),
        code: 4,
        output: nasty.to_string(),
        energy_j: f64::NAN,
        time_s: 0.125,
        attempts: 2,
    };
    let doc = Reply::Doc {
        id: nasty.to_string(),
        payload: "{\"ok\": true, \"mode\": \"normal\"}".to_string(),
    };
    let error = Reply::error(nasty, ErrorKind::CompileError, nasty);
    let pinned = [
        (telemetry(PROGRAM, ProfileMode::Off, true), TRACED_RUN),
        (telemetry(PROGRAM, ProfileMode::Exact, false), EXACT_PROFILE),
        (telemetry(PROGRAM, sampled, false), SAMPLED_PROFILE),
        (telemetry(failing, ProfileMode::Off, false), FAILED_RUN),
        (done.to_json(), DONE_REPLY),
        (error.to_json(), ERROR_REPLY),
        (doc.to_json(), DOC_REPLY),
        (totals.to_json(), SCHED_TOTALS),
    ];
    for (got, want) in pinned {
        assert_eq!(got, want);
    }
}

/// A run with a trace and no profile.
const TRACED_RUN: &str = concat!(
    r#"{"schema": "ent-run-telemetry/1", "status": "ok", "error": null, "value": "42""#,
    r#", "stats": {"steps": 34, "snapshots": 1, "copies": 0, "energy_exceptions": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "transient_checks": 0"#,
    r#", "transient_failures": 0, "dynamic_allocs": 1, "allocs": 2, "sensor_faults": 0"#,
    r#", "stale_reads": 0, "degraded_decisions": 0}"#,
    r#", "measurement": {"energy_j": 0.012375694334198956"#,
    r#", "energy_j_bits": "3f89586d937206ca", "time_s": 0.003007"#,
    r#", "time_s_bits": "3f68a222d5171e2a", "peak_temp_c": 42.00051281912657"#,
    r#", "battery_level": 0.9999999321666667}, "trajectory": {"samples": 4, "span_s": 0.003"#,
    r#", "battery_start": 0.9999999998333333, "battery_end": 0.9999999321666667"#,
    r#", "temp_min_c": 42.00000126, "temp_mean_c": 42.000384929344925"#,
    r#", "temp_max_c": 42.00051281912657}, "output_lines": 1, "events": {"recorded": 2"#,
    r#", "retained": 2, "dropped": 0, "capacity": 16384}"#,
    r#", "enforcement": {"strategy": "guarded", "transient_checks": 0"#,
    r#", "transient_failures": 0, "dfall_failures": 0, "snapshot_failures": 0}"#,
    r#", "profile": null}"#,
);

/// The same run with the exact profile.
const EXACT_PROFILE: &str = concat!(
    r#"{"schema": "ent-run-telemetry/1", "status": "ok", "error": null, "value": "42""#,
    r#", "stats": {"steps": 34, "snapshots": 1, "copies": 0, "energy_exceptions": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "transient_checks": 0"#,
    r#", "transient_failures": 0, "dynamic_allocs": 1, "allocs": 2, "sensor_faults": 0"#,
    r#", "stale_reads": 0, "degraded_decisions": 0}"#,
    r#", "measurement": {"energy_j": 0.012375694334198956"#,
    r#", "energy_j_bits": "3f89586d937206ca", "time_s": 0.003007"#,
    r#", "time_s_bits": "3f68a222d5171e2a", "peak_temp_c": 42.00051281912657"#,
    r#", "battery_level": 0.9999999321666667}, "trajectory": null, "output_lines": 1"#,
    r#", "events": {"recorded": 2, "retained": 2, "dropped": 0, "capacity": 16384}"#,
    r#", "enforcement": {"strategy": "guarded", "transient_checks": 0"#,
    r#", "transient_failures": 0, "dfall_failures": 0, "snapshot_failures": 0}"#,
    r#", "profile": {"methods": [{"name": "(root)", "calls": 1, "inclusive": {"steps": 34"#,
    r#", "energy_j": 0.01221, "time_s": 0.003007, "snapshots": 1, "copies": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "dynamic_allocs": 1"#,
    r#", "sensor_faults": 0}, "exclusive": {"steps": 0, "energy_j": 0, "time_s": 0"#,
    r#", "snapshots": 0, "copies": 0, "snapshot_failures": 0, "dfall_failures": 0"#,
    r#", "dynamic_allocs": 0, "sensor_faults": 0}}, {"name": "Main.main", "calls": 1"#,
    r#", "inclusive": {"steps": 34, "energy_j": 0.01221, "time_s": 0.003007, "snapshots": 1"#,
    r#", "copies": 0, "snapshot_failures": 0, "dfall_failures": 0, "dynamic_allocs": 1"#,
    r#", "sensor_faults": 0}, "exclusive": {"steps": 20, "energy_j": 0.01221"#,
    r#", "time_s": 0.003007, "snapshots": 1, "copies": 0, "snapshot_failures": 0"#,
    r#", "dfall_failures": 0, "dynamic_allocs": 1"#,
    r#", "sensor_faults": 0}}, {"name": "App.effort", "calls": 2, "inclusive": {"steps": 14"#,
    r#", "energy_j": 0, "time_s": 0, "snapshots": 0, "copies": 0, "snapshot_failures": 0"#,
    r#", "dfall_failures": 0, "dynamic_allocs": 0, "sensor_faults": 0}"#,
    r#", "exclusive": {"steps": 14, "energy_j": 0, "time_s": 0, "snapshots": 0, "copies": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "dynamic_allocs": 0"#,
    r#", "sensor_faults": 0}}], "folded": ["(root);Main.main 20""#,
    r#", "(root);Main.main;App.effort 14"]}}"#,
);

/// The same run with a sampled profile (period 4, seed 3).
const SAMPLED_PROFILE: &str = concat!(
    r#"{"schema": "ent-run-telemetry/1", "status": "ok", "error": null, "value": "42""#,
    r#", "stats": {"steps": 34, "snapshots": 1, "copies": 0, "energy_exceptions": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "transient_checks": 0"#,
    r#", "transient_failures": 0, "dynamic_allocs": 1, "allocs": 2, "sensor_faults": 0"#,
    r#", "stale_reads": 0, "degraded_decisions": 0}"#,
    r#", "measurement": {"energy_j": 0.012375694334198956"#,
    r#", "energy_j_bits": "3f89586d937206ca", "time_s": 0.003007"#,
    r#", "time_s_bits": "3f68a222d5171e2a", "peak_temp_c": 42.00051281912657"#,
    r#", "battery_level": 0.9999999321666667}, "trajectory": null, "output_lines": 1"#,
    r#", "events": {"recorded": 2, "retained": 2, "dropped": 0, "capacity": 16384}"#,
    r#", "enforcement": {"strategy": "guarded", "transient_checks": 0"#,
    r#", "transient_failures": 0, "dfall_failures": 0, "snapshot_failures": 0}"#,
    r#", "profile": {"mode": "sampled", "period": 4, "seed": 3, "samples": 9"#,
    r#", "total_steps": 34, "methods": [{"name": "(root)", "samples": 0, "samples_incl": 9"#,
    r#", "est_steps_excl": 0, "ci_lo": 0, "ci_hi": 10.170931646264497, "est_steps_incl": 34"#,
    r#", "ci_lo_incl": 23.8290683537355, "ci_hi_incl": 34, "est_energy_j_excl": 0"#,
    r#", "est_energy_j_incl": 0.01221, "est_time_s_excl": 0"#,
    r#", "est_time_s_incl": 0.003007}, {"name": "Main.main", "samples": 5"#,
    r#", "samples_incl": 9, "est_steps_excl": 18.88888888888889, "ci_lo": 9.066143978846766"#,
    r#", "ci_hi": 27.581530282679406, "est_steps_incl": 34, "ci_lo_incl": 23.8290683537355"#,
    r#", "ci_hi_incl": 34, "est_energy_j_excl": 0.006783333333333334"#,
    r#", "est_energy_j_incl": 0.01221, "est_time_s_excl": 0.0016705555555555558"#,
    r#", "est_time_s_incl": 0.003007}, {"name": "App.effort", "samples": 4"#,
    r#", "samples_incl": 4, "est_steps_excl": 15.11111111111111, "ci_lo": 6.418469717320596"#,
    r#", "ci_hi": 24.933856021153236, "est_steps_incl": 15.11111111111111"#,
    r#", "ci_lo_incl": 6.418469717320596, "ci_hi_incl": 24.933856021153236"#,
    r#", "est_energy_j_excl": 0.0054266666666666664"#,
    r#", "est_energy_j_incl": 0.0054266666666666664"#,
    r#", "est_time_s_excl": 0.0013364444444444444"#,
    r#", "est_time_s_incl": 0.0013364444444444444}], "folded": ["(root);Main.main 5""#,
    r#", "(root);Main.main;App.effort 4"]}}"#,
);

/// A run that stops with a runtime error.
const FAILED_RUN: &str = concat!(
    r#"{"schema": "ent-run-telemetry/1", "status": "error""#,
    r#", "error": "runtime error: array index 5 out of bounds (len 2)", "value": null"#,
    r#", "stats": {"steps": 7, "snapshots": 0, "copies": 0, "energy_exceptions": 0"#,
    r#", "snapshot_failures": 0, "dfall_failures": 0, "transient_checks": 0"#,
    r#", "transient_failures": 0, "dynamic_allocs": 0, "allocs": 1, "sensor_faults": 0"#,
    r#", "stale_reads": 0, "degraded_decisions": 0}, "measurement": {"energy_j": 0"#,
    r#", "energy_j_bits": "0000000000000000", "time_s": 0"#,
    r#", "time_s_bits": "0000000000000000", "peak_temp_c": 42, "battery_level": 1}"#,
    r#", "trajectory": null, "output_lines": 0, "events": {"recorded": 0, "retained": 0"#,
    r#", "dropped": 0, "capacity": 16384}, "enforcement": {"strategy": "guarded""#,
    r#", "transient_checks": 0, "transient_failures": 0, "dfall_failures": 0"#,
    r#", "snapshot_failures": 0}, "profile": null}"#,
);

/// A finished job whose id and output need escaping and whose energy is not finite.
const DONE_REPLY: &str = concat!(
    r#"{"schema": "ent-serve-proto/1", "id": "q\"b\\n\nc\u0001", "status": "ok", "code": 4"#,
    r#", "output": "q\"b\\n\nc\u0001", "energy_j": null, "time_s": 0.125, "attempts": 2}"#,
);

/// A typed error.
const ERROR_REPLY: &str = concat!(
    r#"{"schema": "ent-serve-proto/1", "id": "q\"b\\n\nc\u0001", "status": "error""#,
    r#", "error": "compile_error", "message": "q\"b\\n\nc\u0001"}"#,
);

/// A stats or health document.
const DOC_REPLY: &str = concat!(
    r#"{"schema": "ent-serve-proto/1", "id": "q\"b\\n\nc\u0001", "status": "ok""#,
    r#", "doc": {"ok": true, "mode": "normal"}}"#,
);

/// The batch sidecar.
const SCHED_TOTALS: &str = concat!(
    r#"{"schema": "ent-batch-telemetry/1", "batches": 3, "jobs": 41, "max_workers": 2"#,
    r#", "chunks_claimed": 9, "cache": {"capacity": 1024, "hits": 36, "misses": 5"#,
    r#", "evictions": 0, "entries": 5}}"#,
);
