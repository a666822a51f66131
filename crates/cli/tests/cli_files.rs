//! Drives the CLI against the on-disk `.ent` example programs.

use ent_cli::{execute, parse_args};
use ent_runtime::json::{self, Json};

fn example(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ent/");
    std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("missing example {name}: {e}"))
}

fn cli(args: &[&str], src: &str) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let options = parse_args(&args).expect("valid arguments");
    execute(&options, src)
}

#[test]
fn crawler_checks_and_runs_at_every_battery_level() {
    let src = example("crawler.ent");
    let (code, out) = cli(&["check", "crawler.ent"], &src);
    assert_eq!(code, 0, "{out}");

    // Full battery: everything crawled.
    let (code, out) = cli(&["run", "crawler.ent", "--battery", "0.95"], &src);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("crawled"));
    assert!(out.contains("0 EnergyExceptions"), "{out}");

    // Low battery: exceptions fire and are caught.
    let (code, out) = cli(&["run", "crawler.ent", "--battery", "0.3"], &src);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("EnergyException"), "{out}");
}

/// Runs `ent run crawler.ent` with `flags` and `--metrics-json`, and
/// parses the telemetry it wrote.
fn crawler_telemetry(flags: &[&str], name: &str) -> Json {
    let path = std::env::temp_dir().join(format!("ent-cli-{}-{name}", std::process::id()));
    let path_arg = path.to_str().expect("a UTF-8 temp path");
    let mut args = vec!["run", "crawler.ent", "--metrics-json", path_arg];
    args.extend_from_slice(flags);
    let (code, out) = cli(&args, &example("crawler.ent"));
    assert_eq!(code, 0, "{out}");
    let text = std::fs::read_to_string(&path).expect("telemetry written");
    let _ = std::fs::remove_file(&path);
    json::parse(&text).expect("telemetry parses")
}

fn methods(profile: &Json) -> &[Json] {
    match profile.get("methods") {
        Some(Json::Arr(methods)) => methods,
        other => panic!("profile without methods: {other:?}"),
    }
}

#[test]
fn metrics_json_carries_the_exact_and_the_sampled_profile() {
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64);
    let d = crawler_telemetry(&["--profile", "exact"], "exact.json");
    let schema = d.get("schema").and_then(Json::as_str);
    assert_eq!(schema, Some("ent-run-telemetry/1"));
    for key in ["status", "stats", "measurement", "profile", "events"] {
        assert!(d.get(key).is_some(), "telemetry missing {key:?}");
    }
    assert_eq!(d.get("status").and_then(Json::as_str), Some("ok"));
    let p = d.get("profile").filter(|p| **p != Json::Null);
    let p = p.expect("profile was requested");
    let name = |m: &Json| m.get("name").and_then(Json::as_str) == Some("Main.main");
    assert!(methods(p).iter().any(name), "{p:?}");

    let flags = [
        "--profile",
        "sampled",
        "--sample-period",
        "64",
        "--sample-seed",
        "3",
    ];
    let d = crawler_telemetry(&flags, "sampled.json");
    let p = d.get("profile").expect("profile was requested");
    assert_eq!(p.get("mode").and_then(Json::as_str), Some("sampled"));
    assert_eq!((num(p, "period"), num(p, "seed")), (Some(64.0), Some(3.0)));
    assert!(
        num(p, "samples") > Some(0.0),
        "crawler is long enough to sample"
    );
    let m = &methods(p)[0];
    for key in ["est_steps_excl", "ci_lo", "ci_hi", "est_energy_j_excl"] {
        assert!(m.get(key).is_some(), "sampled method row missing {key:?}");
    }
    let [lo, est, hi] = ["ci_lo", "est_steps_excl", "ci_hi"].map(|k| num(m, k).expect(k));
    assert!(lo <= est && est <= hi, "{m:?}");
}

#[test]
fn co_adaptation_adapts_output_to_battery() {
    let src = example("co_adaptation.ent");
    let run_at = |battery: &str| {
        let (code, out) = cli(&["run", "x.ent", "--battery", battery], &src);
        assert_eq!(code, 0, "{out}");
        out.lines()
            .find(|l| l.starts_with("result:"))
            .unwrap()
            .to_string()
    };
    let high = run_at("0.95");
    let low = run_at("0.2");
    assert_ne!(high, low, "modes must change the co-adapted result");
}

#[test]
fn media_agent_runs_and_its_waterfall_variant_fails_to_check() {
    let src = example("media_agent.ent");
    let (code, _) = cli(&["check", "x.ent"], &src);
    assert_eq!(code, 0);

    // The paper's Listing 3 error: a managed agent calling the
    // full_throttle-annotated mediaCrawl.
    let broken = src
        .replace(
            "class Agent@mode<full_throttle>",
            "class Agent@mode<managed>",
        )
        .replace("new Site@mode<full_throttle>", "new Site@mode<managed>")
        .replace("new Saver@mode<full_throttle>", "new Saver@mode<managed>");
    let (code, out) = cli(&["check", "x.ent"], &broken);
    assert_eq!(code, ent_cli::EXIT_COMPILE, "{out}");
    assert!(out.contains("waterfall"), "{out}");
}

#[test]
fn fmt_canonicalizes_all_examples() {
    for name in ["crawler.ent", "co_adaptation.ent", "media_agent.ent"] {
        let src = example(name);
        let (code, formatted) = cli(&["fmt", name], &src);
        assert_eq!(code, 0, "{name}: {formatted}");
        // Formatting is idempotent.
        let (code2, again) = cli(&["fmt", name], &formatted);
        assert_eq!(code2, 0);
        assert_eq!(formatted, again, "{name}: fmt must be idempotent");
    }
}

#[test]
fn silent_flag_changes_the_low_battery_outcome() {
    let src = example("crawler.ent");
    let (_, strict) = cli(&["run", "x.ent", "--battery", "0.3"], &src);
    let (_, silent) = cli(&["run", "x.ent", "--battery", "0.3", "--silent"], &src);
    // The silent run crawls everything (no skips), so it reports more
    // pages and more energy.
    let pages = |out: &str| -> i64 {
        out.lines()
            .find(|l| l.starts_with("result:"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(
        pages(&silent) > pages(&strict),
        "silent {silent} vs strict {strict}"
    );
}

#[test]
fn platform_flag_selects_the_simulator() {
    let src = example("crawler.ent");
    let energy = |platform: &str| {
        let (_, out) = cli(&["run", "x.ent", "--platform", platform], &src);
        out.lines()
            .find(|l| l.starts_with("energy:"))
            .unwrap()
            .to_string()
    };
    // The Pi draws far less power than the laptop for the same program.
    let a = energy("a");
    let b = energy("b");
    assert_ne!(a, b);
}
