//! The chaos-soak acceptance contract: the daemon survives the scripted
//! storm with zero crashes, every accepted job is byte-identical to its
//! one-shot `ent run`, shed jobs get typed replies, and the whole
//! deterministic record replays exactly.

use ent_runtime::json::{self, Json};
use ent_serve::modes::SystemMode;
use ent_serve::soak::{run_soak, SoakConfig};

#[test]
fn soak_replays_byte_identically_with_the_same_seed() {
    let cfg = SoakConfig {
        flood_jobs: 40,
        ..SoakConfig::default()
    };
    let a = run_soak(&cfg);
    let b = run_soak(&cfg);

    // Zero daemon crashes, zero lost replies — both runs.
    assert_eq!((a.daemon_errors, b.daemon_errors), (0, 0));
    // Byte identity of every accepted job against one-shot `ent run`.
    assert!(a.byte_identical, "{:?}", a.mismatches);
    assert!(b.byte_identical, "{:?}", b.mismatches);
    // The replay-invariant record is identical: every wave fact and the
    // full transition log.
    assert_eq!(a.deterministic_signature(), b.deterministic_signature());
    assert_eq!(a.transitions, b.transitions);
    // Hysteresis holds and the controller walked all the way home.
    assert!(a.hysteresis_ok);
    assert_eq!(a.final_mode, SystemMode::Normal);
}

#[test]
fn a_different_seed_reshuffles_the_chaos_but_not_the_invariants() {
    let report = run_soak(&SoakConfig {
        seed: 7,
        flood_jobs: 40,
        ..SoakConfig::default()
    });
    // The scripted storm de-poisons its fixed programs per seed, so the
    // invariants are seed-independent even though the poisoned program
    // set is not.
    assert_eq!(report.daemon_errors, 0);
    assert!(report.byte_identical, "{:?}", report.mismatches);
    assert!(report.hysteresis_ok);
    assert_eq!(report.final_mode, SystemMode::Normal);
    assert_eq!(report.quarantine_paroled, 1);
    assert!(report
        .transitions
        .iter()
        .any(|(_, _, to)| *to == SystemMode::FallbackOnly));
}

#[test]
fn soak_report_renders_a_valid_bench_document() {
    let report = run_soak(&SoakConfig {
        flood_jobs: 20,
        ..SoakConfig::default()
    });
    let doc = report.to_json();
    assert!(ent_runtime::json_is_valid(&doc), "{doc}");
    for needle in [
        "\"schema\": \"ent-serve-soak/1\"",
        "\"byte_identical\": true",
        "\"hysteresis_ok\": true",
        "\"daemon_errors\": 0",
        "\"transitions\": [",
        "\"determinism_log\": [",
        "\"req_per_s\":",
        "\"p99_ms\":",
    ] {
        assert!(doc.contains(needle), "missing {needle} in {doc}");
    }
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

/// The committed `BENCH_serve.json` pins what the soak decides: its
/// deterministic record and every count the flood's timing cannot move.
/// The document was written with the default 300-job flood; 40 jobs
/// change only the flood's own accept/overload split.
#[test]
fn soak_reproduces_the_committed_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(path).expect("BENCH_serve.json is committed");
    let doc = json::parse(&text).expect("BENCH_serve.json parses");
    let committed = doc.get("report").expect("the document has a report");
    let count = |path: &[&str]| {
        let field = path.iter().fold(committed, |v, k| v.get(k).expect(k));
        field.as_u64().expect("a count")
    };
    let report = run_soak(&SoakConfig {
        flood_jobs: 40,
        ..SoakConfig::default()
    });

    let log: Vec<&str> = items(committed, "determinism_log")
        .iter()
        .map(|line| line.as_str().expect("a log line"))
        .collect();
    assert_eq!(report.determinism_log, log);
    let transitions: Vec<String> = items(committed, "transitions")
        .iter()
        .map(|t| {
            let name = |k: &str| t.get(k).and_then(Json::as_str).expect(k).to_string();
            let tick = t.get("tick").and_then(Json::as_u64).expect("tick");
            format!("{tick}: {} -> {}", name("from"), name("to"))
        })
        .collect();
    let ours: Vec<String> = report
        .transitions
        .iter()
        .map(|(tick, from, to)| format!("{tick}: {} -> {}", from.as_str(), to.as_str()))
        .collect();
    assert_eq!(ours, transitions);
    assert_eq!(transitions.len(), 6);

    // The exact scripted counts: the admission burst's 24 rate-limited
    // sheds, the energy wave's one budget shed, one parole, home at
    // `normal`.
    let c = &report.counters;
    assert_eq!(c.shed_rate_limited, 24);
    assert_eq!(c.shed_energy_budget, 1);
    assert_eq!(report.quarantine_paroled, 1);
    assert_eq!(report.final_mode, SystemMode::Normal);
    let final_mode = committed.get("final_mode").and_then(Json::as_str);
    assert_eq!(final_mode, Some("normal"));
    for (path, ours) in [
        (&["shed", "rate_limited"][..], c.shed_rate_limited),
        (&["shed", "energy_budget"], c.shed_energy_budget),
        (&["shed", "quarantined"], c.shed_quarantined),
        (&["shed", "fallback_only"], c.shed_fallback),
        (&["shed", "bad_requests"], c.bad_requests),
        (&["quarantine", "paroled"], report.quarantine_paroled),
        (&["quarantine", "active"], report.quarantine_active),
        (&["degraded_runs"], c.degraded_runs),
        (&["runtime_errors"], c.runtime_errors),
        (&["compile_errors"], c.compile_errors),
        (&["panics"], c.panics),
        (&["checks"], c.checks),
        (&["probes"], c.probes),
    ] {
        assert_eq!(ours, count(path), "{}", path.join("."));
    }
}
