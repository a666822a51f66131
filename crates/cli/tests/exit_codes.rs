//! The CLI's exit-code contract: each failure class gets a distinct,
//! documented code, and the degraded-completion code is reachable only
//! through `--faults`.

use std::process::{Command, Output};

use ent_cli::{
    execute, parse_args, EXIT_COMPILE, EXIT_DEGRADED, EXIT_OK, EXIT_REQUIRES_ENT, EXIT_RUNTIME,
    EXIT_USAGE,
};
use ent_runtime::json::{self, Json};

fn cli(args: &[&str], src: &str) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let options = parse_args(&args).expect("valid arguments");
    execute(&options, src)
}

const OK_PROGRAM: &str = "class Main { int main() { return 42; } }";

/// An adaptive program whose snapshot decision depends on a battery read:
/// under total sensor dropout every decision degrades to `low`.
const ADAPTIVE: &str = "modes { low <= high; }
    class App@mode<? <= X> {
      attributor {
        if (Ext.battery() >= 0.5) { return high; } else { return low; }
      }
      int effort() { return mcase{ low: 1; high: 9; } <| X; }
    }
    class Main {
      int main() {
        let dapp = new App();
        let App a = snapshot dapp [low, high];
        return a.effort();
      }
    }";

#[test]
fn success_is_zero() {
    let (code, out) = cli(&["run", "x.ent"], OK_PROGRAM);
    assert_eq!(code, EXIT_OK, "{out}");
}

#[test]
fn malformed_numeric_flags_exit_one_with_a_clear_message() {
    // The full process contract: a zero or non-numeric value for a
    // numeric knob exits 1 (usage) with a message naming the problem —
    // never a panic, never a silent default. A flag the CLI does not
    // know (the scheduler's chunk is derived, not set) is the same
    // usage error.
    let ent = env!("CARGO_BIN_EXE_ent");
    for (flag, value, named) in [
        ("--staleness-bound", "0", "staleness bound"),
        ("--staleness-bound", "soon", "staleness bound"),
        ("--chunk", "2", "unknown option `--chunk`"),
        ("--engine", "threaded", "unknown engine `threaded`"),
        ("--sample-period", "0", "sample period"),
        ("--sample-period", "often", "sample period"),
    ] {
        let out = Command::new(ent)
            .args(["run", "x.ent", flag, value])
            .output()
            .expect("spawn ent");
        assert_eq!(
            out.status.code(),
            Some(EXIT_USAGE),
            "`{flag} {value}` should exit {EXIT_USAGE}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(named),
            "`{flag} {value}` message should mention `{named}`, got: {stderr}"
        );
    }
}

/// The engine settings' environment variables, cleared before each
/// spawned run so the workspace test lanes that set them cannot leak in.
const ENGINE_VARS: [&str; 3] = ["ENT_ENGINE", "ENT_TIER_UP", "ENT_ENFORCE"];

/// Spawns `ent` with `args` under exactly the engine variables in `env`.
fn spawn_ent(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ent"));
    for var in ENGINE_VARS {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("spawn ent")
}

#[test]
fn tier_up_reaches_the_run_from_the_flag_and_the_environment() {
    let crawler = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ent/crawler.ent"
    );
    let dir = std::env::temp_dir().join(format!("ent-tier-up-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // `count` runs 21 times in one run, past the default threshold;
    // crawler's bodies never reach it.
    let hot = dir.join("hot.ent");
    std::fs::write(
        &hot,
        "class Main {\n  int count(int i) { if (i <= 0) { return 0; } return 1 + this.count(i - 1); }\n  int main() { return this.count(20); }\n}\n",
    )
    .expect("write program");
    let hot = hot.to_str().expect("utf-8 temp path");
    let threaded_entries = |tag: &str, program: &str, flags: &[&str], env: &[(&str, &str)]| {
        let metrics = dir.join(format!("{tag}.json"));
        let metrics = metrics.to_str().expect("utf-8 temp path");
        let mut args = vec!["run", program, "--metrics-json", metrics];
        args.extend(flags);
        let out = spawn_ent(&args, env);
        assert_eq!(out.status.code(), Some(EXIT_OK), "{tag}: {out:?}");
        let doc = std::fs::read_to_string(metrics).expect("telemetry written");
        let doc = json::parse(&doc).expect("telemetry parses");
        doc.get("tier")
            .and_then(|t| t.get("threaded_entries"))
            .and_then(Json::as_f64)
            .expect("tier.threaded_entries")
    };
    assert!(threaded_entries("flag", crawler, &["--tier-up", "0"], &[]) > 0.0);
    assert!(threaded_entries("env", crawler, &[], &[("ENT_TIER_UP", "0")]) > 0.0);
    assert_eq!(
        threaded_entries(
            "tree",
            crawler,
            &["--tier-up", "0"],
            &[("ENT_ENGINE", "tree")]
        ),
        0.0,
        "the tree engine never tiers"
    );
    assert!(
        threaded_entries("default", hot, &[], &[]) > 0.0,
        "a hot body tiers up by default"
    );
    assert_eq!(
        threaded_entries("off", hot, &["--tier-up", "off"], &[]),
        0.0,
        "`--tier-up off` never tiers"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_engine_settings_in_the_environment_exit_one() {
    // Checked before any file is read: the path does not exist, yet the
    // message names the variable and what it accepts, not the file.
    for (var, value, accepted) in [
        (
            "ENT_ENGINE",
            "threaded",
            "the threaded tier is a tier-up setting",
        ),
        ("ENT_TIER_UP", "soon", "0, off, or a count"),
        ("ENT_ENFORCE", "eager", "guarded or transient"),
        ("ENT_STACK_SIZE", "huge", "k, m or g suffix"),
    ] {
        let out = spawn_ent(&["run", "no-such-file.ent"], &[(var, value)]);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{var}={value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in [var, value, accepted] {
            assert!(
                stderr.contains(needle),
                "{var}={value}: no {needle:?} in {stderr}"
            );
        }
    }
    // An empty value counts as unset.
    let out = spawn_ent(&["eval", "1 + 2"], &[("ENT_ENGINE", "")]);
    assert_eq!(out.status.code(), Some(EXIT_OK), "{out:?}");
}

#[test]
fn one_shot_commands_compile_deep_sources_on_the_interpreter_stack() {
    // Nested far deeper than the main thread's stack holds in a debug
    // build: `check`, `run` and `fmt` all compile on the interpreter
    // stack.
    let depth = 2000;
    let src = format!(
        "class Main {{ int main() {{ return {}1{}; }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let path = std::env::temp_dir().join(format!("ent-deep-{}.ent", std::process::id()));
    std::fs::write(&path, src).expect("write temp source");
    let path_str = path.to_str().expect("utf-8 temp path");
    for command in ["check", "run", "fmt"] {
        let out = spawn_ent(&[command, path_str], &[]);
        assert_eq!(out.status.code(), Some(EXIT_OK), "`ent {command}`: {out:?}");
        if command == "run" {
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("result: 1"), "{stdout}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compile_errors_are_distinct_from_runtime_errors() {
    let (code, out) = cli(
        &["run", "x.ent"],
        "class Main { int main() { return true; } }",
    );
    assert_eq!(code, EXIT_COMPILE, "{out}");

    let crash = "class Main { int main() { return Arr.get([1], 5); } }";
    let (code, out) = cli(&["run", "x.ent"], crash);
    assert_eq!(code, EXIT_RUNTIME, "{out}");
    assert!(out.contains("runtime error"), "{out}");
}

#[test]
fn check_uses_the_compile_code_and_energy_types_its_own() {
    let (code, _) = cli(
        &["check", "x.ent"],
        "class Main { int main() { return true; } }",
    );
    assert_eq!(code, EXIT_COMPILE);

    let dynamic = "modes { low <= high; }
        class D@mode<?> { attributor { return low; } }
        class Main { unit main() { let d = new D(); return {}; } }";
    let (code, out) = cli(&["check", "x.ent", "--energy-types"], dynamic);
    assert_eq!(code, EXIT_REQUIRES_ENT, "{out}");
}

#[test]
fn fault_exhausted_degradation_gets_its_own_code() {
    // Fault-off: clean success.
    let (code, out) = cli(&["run", "x.ent", "--battery", "0.9"], ADAPTIVE);
    assert_eq!(code, EXIT_OK, "{out}");
    assert!(out.contains("result: 9"), "{out}");

    // Total dropout: the snapshot can never read the battery, degrades to
    // the conservative `low`, and the run completes with the degraded code.
    let (code, out) = cli(
        &[
            "run",
            "x.ent",
            "--battery",
            "0.9",
            "--faults",
            "dropout=1.0",
            "--fault-seed",
            "1",
        ],
        ADAPTIVE,
    );
    assert_eq!(code, EXIT_DEGRADED, "{out}");
    assert!(out.contains("result: 1"), "{out}");
    assert!(out.contains("degraded decisions"), "{out}");
}

#[test]
fn fault_runs_replay_exactly_per_fault_seed() {
    let run = |fault_seed: &str| {
        cli(
            &[
                "run",
                "x.ent",
                "--battery",
                "0.9",
                "--faults",
                "chaos",
                "--fault-seed",
                fault_seed,
            ],
            ADAPTIVE,
        )
    };
    let (code_a, out_a) = run("7");
    let (code_b, out_b) = run("7");
    assert_eq!((code_a, &out_a), (code_b, &out_b), "same seed, same bytes");
}

#[test]
fn staleness_bound_flag_reaches_the_runtime() {
    // An infinite staleness bound can never degrade (the first read in
    // this program is also the only one, so with dropout it degrades by
    // default but serves nothing stale — use a spike-free intermittent
    // plan where a clean read precedes a faulted one).
    let src = "modes { low <= high; }
        class App@mode<? <= X> {
          attributor {
            if (Ext.battery() >= 0.5) { return high; } else { return low; }
          }
          int effort() { return mcase{ low: 1; high: 9; } <| X; }
          int twice() {
            let d = new App();
            Sim.sleepMs(2000);
            let App a = snapshot d [low, X];
            return a.effort();
          }
        }
        class Main {
          int main() {
            let dapp = new App();
            let App a = snapshot dapp [low, high];
            return a.twice();
          }
        }";
    // Find a fault seed where the second read (at t≈2s) drops while the
    // first (t=0) stays clean. Under a strict 0.5s bound the 2s-old
    // last-known-good is too stale, so the decision degrades.
    for seed in 0..64 {
        let fs = seed.to_string();
        let base = [
            "run",
            "x.ent",
            "--battery",
            "0.9",
            "--faults",
            "dropout=0.5,window=1",
            "--fault-seed",
            &fs,
            "--staleness-bound",
            "0.5",
        ];
        let (code_default, out) = cli(&base, src);
        if !out.contains("1 sensor faults") || code_default != EXIT_DEGRADED {
            continue;
        }
        // Same realization, but an infinite bound serves last-known-good
        // instead of degrading.
        let mut relaxed = base.to_vec();
        relaxed.extend(["--staleness-bound", "1e18"]);
        let (code_relaxed, out_relaxed) = cli(&relaxed, src);
        assert_eq!(code_relaxed, EXIT_OK, "{out_relaxed}");
        assert!(out_relaxed.contains("1 served stale"), "{out_relaxed}");
        return;
    }
    panic!("no fault seed dropped exactly the second read");
}
