//! Chaos-soak bench for the `ent-serve` daemon: runs the deterministic
//! in-process soak ([`ent_serve::soak`]) and writes `BENCH_serve.json`
//! at the workspace root.
//!
//! The soak drives a resident server through sensor-fault pressure,
//! runtime errors, poisoned (always-panicking) programs, compile
//! errors, an admission burst, an energy-budget blowout, an overload
//! flood, and a quarantine parole cycle, on a virtual clock with drain
//! barriers. The acceptance contract, all checked here:
//!
//! 1. **Zero daemon crashes**: no reply channel ever dies.
//! 2. **Byte identity**: every accepted job's reply equals its one-shot
//!    `ent run` byte for byte.
//! 3. **Typed sheds**: shed and quarantined jobs get typed error
//!    replies (counted per class).
//! 4. **Hysteresis**: the mode-transition log never recovers more than
//!    one level at a time.
//! 5. **Replay determinism**: the soak run twice with the same seed —
//!    and with one worker versus four — produces the identical
//!    deterministic record.
//!
//! The document records seven booleans (survival, byte identity, typed
//! sheds, hysteresis over all three runs, same-seed replay, worker-count
//! independence, and reaching `fallback_only`); the binary exits 1
//! naming each one that is false. `cargo test` checks each of them on a
//! shorter flood (`crates/serve/tests/serve_soak.rs`).
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin serve_soak \[seed\]

use std::path::PathBuf;

use ent_bench::parse_grid_args;
use ent_runtime::json;
use ent_serve::modes::SystemMode;
use ent_serve::soak::{run_soak, SoakConfig};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn main() {
    // Chaos panics are the point of the soak and every one is caught by
    // the worker isolation layer; keep their backtraces out of the
    // bench log while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_chaos = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos:"));
        if !is_chaos {
            default_hook(info);
        }
    }));

    let args = parse_grid_args(42);
    let cfg = SoakConfig {
        seed: args.value,
        workers: 4,
        flood_jobs: 300,
    };
    eprintln!(
        "serve soak: seed {}, {} workers, flood {} jobs...",
        cfg.seed, cfg.workers, cfg.flood_jobs
    );
    let report = run_soak(&cfg);
    for line in &report.determinism_log {
        eprintln!("  {line}");
    }

    eprintln!("serve soak: replaying with the same seed...");
    let replay = run_soak(&cfg);
    let deterministic = report.deterministic_signature() == replay.deterministic_signature();

    eprintln!("serve soak: replaying with one worker...");
    let solo = run_soak(&SoakConfig { workers: 1, ..cfg });
    let worker_independent = report.deterministic_signature() == solo.deterministic_signature();

    let c = &report.counters;
    let survived = report.daemon_errors == 0
        && replay.daemon_errors == 0
        && solo.daemon_errors == 0
        && report.final_mode == SystemMode::Normal;
    let byte_identical = report.byte_identical && replay.byte_identical && solo.byte_identical;
    let typed_sheds = c.shed_rate_limited > 0
        && c.shed_energy_budget > 0
        && c.shed_quarantined > 0
        && c.shed_fallback > 0;
    let reached_floor = report
        .transitions
        .iter()
        .any(|(_, _, to)| *to == SystemMode::FallbackOnly);

    let hysteresis_ok = report.hysteresis_ok && replay.hysteresis_ok && solo.hysteresis_ok;
    // The contract: written to the document and, all together, the exit
    // status.
    let contracts = [
        ("survived", survived),
        ("byte_identical", byte_identical),
        ("typed_sheds", typed_sheds),
        ("hysteresis_ok", hysteresis_ok),
        ("deterministic_replay", deterministic),
        ("worker_count_independent", worker_independent),
        ("reached_fallback_only", reached_floor),
    ];
    let doc = json::object(|o| {
        o.field("bench", "serve_soak");
        for (name, held) in contracts {
            o.field(name, held);
        }
        o.field("report", report.json());
    });
    let path = repo_root().join("BENCH_serve.json");
    std::fs::write(&path, json::to_string(doc.lines()) + "\n").unwrap();
    eprintln!("wrote {}", path.display());
    eprintln!(
        "sustained {:.0} req/s, p99 {:.2} ms, shed {} (overloaded {}, rate_limited {}, \
         energy {}, quarantined {}, fallback {}), paroled {}",
        report.req_per_s,
        report.p99_ms,
        c.shed_overloaded
            + c.shed_rate_limited
            + c.shed_energy_budget
            + c.shed_quarantined
            + c.shed_fallback,
        c.shed_overloaded,
        c.shed_rate_limited,
        c.shed_energy_budget,
        c.shed_quarantined,
        c.shed_fallback,
        report.quarantine_paroled,
    );

    let violated: Vec<&str> = contracts
        .iter()
        .filter(|&&(_, held)| !held)
        .map(|&(name, _)| name)
        .collect();
    if !violated.is_empty() {
        eprintln!("SERVE SOAK CONTRACT VIOLATED: {}", violated.join(", "));
        std::process::exit(1);
    }
}
