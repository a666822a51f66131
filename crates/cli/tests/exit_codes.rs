//! The CLI's exit-code contract: each failure class gets a distinct,
//! documented code, and the degraded-completion code is reachable only
//! through `--faults`.

use std::process::{Command, Output};

use ent_cli::{
    execute, parse_args, EXIT_COMPILE, EXIT_DEGRADED, EXIT_OK, EXIT_REQUIRES_ENT, EXIT_RUNTIME,
    EXIT_USAGE,
};

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
    // The full process contract: a zero, out-of-range or non-numeric
    // value for a numeric knob exits 1 (usage) with a message naming
    // the problem — never a panic, never a silent default. A flag the
    // CLI does not know (the scheduler's chunk is derived, not set) is
    // the same usage error.
    let ent = env!("CARGO_BIN_EXE_ent");
    for (flag, value, named) in [
        ("--staleness-bound", "0", "staleness bound"),
        ("--staleness-bound", "soon", "staleness bound"),
        ("--chunk", "2", "unknown option `--chunk`"),
        ("--engine", "threaded", "unknown engine `threaded`"),
        ("--sample-period", "0", "sample period"),
        ("--sample-period", "often", "sample period"),
        ("--battery", "7", "battery level"),
        ("--battery", "-3", "battery level"),
        ("--battery", "nan", "battery level"),
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

/// Spawns `ent` with `args`, adding the variables in `env`.
fn spawn_ent(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ent"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn ent")
}

/// Writes `src` to a temporary file named after `tag` and returns its
/// path.
fn temp_source(tag: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ent-{tag}-{}.ent", std::process::id()));
    std::fs::write(&path, src).expect("write temp source");
    path
}

#[test]
fn deep_recursion_stops_at_the_call_depth_guard_on_both_engines() {
    // 100000 non-tail self-calls on a 16 MiB interpreter stack: the depth
    // guard derived from the stack size must stop the run with a runtime
    // error before the native stack overflows and aborts the process, on
    // the tree walker as on bytecode, in debug builds as in release.
    // Under eight additions per call the tree walker's native frames
    // outgrow the guard's budget in a debug build, and its stack-left
    // backstop must stop the run with the same error instead.
    for additions in [1, 8] {
        let call = (0..additions).fold("this.go(n - 1)".to_string(), |e, _| format!("1 + ({e})"));
        let path = temp_source(
            &format!("recurse-{additions}"),
            &format!(
                "class Main {{\n  int go(int n) {{ if (n <= 0) {{ return 0; }} return {call}; }}\n  int main() {{ return this.go(100000); }}\n}}\n"
            ),
        );
        let path_str = path.to_str().expect("utf-8 temp path");
        for engine in ["tree", "bytecode"] {
            let out = spawn_ent(
                &["run", path_str, "--stack-size", "16m", "--engine", engine],
                &[],
            );
            let case = format!("{engine}, {additions} additions");
            assert_eq!(out.status.code(), Some(EXIT_RUNTIME), "{case}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("call depth exceeded the interpreter limit"),
                "{case}: {stdout}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Spawns `ent` with `args` under a `limit_kb` address-space limit, so a
/// run that would allocate past it aborts (exit 134) instead of taking
/// the host's memory.
fn spawn_ent_limited(limit_kb: u64, args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {limit_kb} && exec \"$0\" \"$@\""))
        .arg(env!("CARGO_BIN_EXE_ent"))
        .args(args)
        .output()
        .expect("spawn ent under ulimit")
}

/// The address space the register-file runs get, in KiB: room for `ent`
/// and its interpreter stack, far from what unbounded register files
/// take (each program below asked for gigabytes before the bound).
const REGISTER_RUN_LIMIT_KB: u64 = 600_000;

#[test]
fn register_files_stop_at_the_stack_bound_on_both_engines() {
    // `r` recurses under a 30000-term left-nested sum (120 KB of source)
    // or a 60000-item array literal (180 KB). Each bytecode frame of the
    // sum once took two registers per term, and each frame of the array
    // one per item: 1.4 MB a frame, so the recursion's register files
    // outgrew the address space before any guard stopped it. The sum now
    // compiles into two scratch registers and runs into the gas limit;
    // the array's frames stop at the register bound (stack size /
    // `Value` size live slots), within a dozen frames on 16 MiB. The
    // tree walker's native-stack backstop or depth guard stops both. The
    // sum's front end nests 30000 deep and needs more than 16 MiB of
    // stack in a debug build, so it runs on 256 MiB.
    let chain = vec!["0"; 30_000].join(" + ");
    let items = vec!["0"; 60_000].join(", ");
    for (tag, value, stack) in [
        ("chain", chain, "256m"),
        ("array", format!("Arr.len([{items}])"), "16m"),
    ] {
        let path = temp_source(
            &format!("registers-{tag}"),
            &format!(
                "class Main {{\n  int r(int n) {{ if (n <= 0) {{ return 0; }} return this.r(n - 1) + {value}; }}\n  int main() {{ return this.r(20000); }}\n}}\n"
            ),
        );
        let path_str = path.to_str().expect("utf-8 temp path");
        for engine in ["tree", "bytecode"] {
            let out = spawn_ent_limited(
                REGISTER_RUN_LIMIT_KB,
                &["run", path_str, "--stack-size", stack, "--engine", engine],
            );
            let case = format!("{tag} on {engine}");
            assert_eq!(out.status.code(), Some(EXIT_RUNTIME), "{case}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let want = match (tag, engine) {
                ("chain", "bytecode") => "execution exceeded the gas limit",
                _ => "call depth exceeded the interpreter limit",
            };
            assert!(stdout.contains(want), "{case}: {stdout}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn arr_concat_past_the_array_limit_is_a_runtime_error_on_both_engines() {
    // One shared array of 2^23 + 1 elements (about 200 MB) concatenated
    // with itself: the length check runs before anything is copied.
    let src = "class Main { int main() { let a = Arr.make(8388609, 0); return Arr.len(Arr.concat(a, a)); } }";
    for engine in ["tree", "bytecode"] {
        let (code, out) = cli(&["run", "x.ent", "--engine", engine], src);
        assert_eq!(code, EXIT_RUNTIME, "{engine}: {out}");
        assert!(
            out.contains("Arr.concat of 16777218 elements exceeds the limit of 16777216"),
            "{engine}: {out}"
        );
    }
}

#[test]
fn malformed_engine_settings_in_the_environment_exit_one() {
    // Checked before any file is read: the path does not exist, yet the
    // message names the variable and what it accepts, not the file.
    let out = spawn_ent(&["run", "no-such-file.ent"], &[("ENT_STACK_SIZE", "huge")]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["ENT_STACK_SIZE", "huge", "k, m or g suffix"] {
        assert!(stderr.contains(needle), "no {needle:?} in {stderr}");
    }
    // An empty value counts as unset.
    let out = spawn_ent(&["eval", "1 + 2"], &[("ENT_STACK_SIZE", "")]);
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
    let path = temp_source("deep", &src);
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
