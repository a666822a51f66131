//! The figure binaries' flag contract: a flag they do not know, or a
//! stack size in the environment that is malformed or that the host
//! refuses, exits 1 with a message naming it, before any grid runs; the
//! environment half holds for
//! `chaos_resilience`, `data_collection_rsd`, the two ablations and
//! `obs_overhead` too. A skipped flag would have its value read as the
//! positional repeat count.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory, so the test can prove the binary
/// wrote no `results/`.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ent-grid-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_flags_exit_one_before_any_grid_runs() {
    // The grids run on the default engine and strategy: neither is a
    // grid flag.
    for (i, argv) in [
        ["--adapt", "on"],
        ["--chunk", "2"],
        ["--bogus", "1"],
        ["--engine", "tree"],
        ["--tier-up", "0"],
        ["--enforce", "guarded"],
    ]
    .iter()
    .enumerate()
    {
        let dir = scratch_dir(&format!("fig9-{i}"));
        let out = Command::new(env!("CARGO_BIN_EXE_fig9_e1_all"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("spawn fig9_e1_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{}`", argv[0])),
            "{argv:?} should be named, got: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} started the figure");
        assert!(!dir.join("results").exists(), "{argv:?} wrote results/");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_malformed_stack_size_exits_one_before_any_grid_runs() {
    // The binaries that take no grid flags check the environment
    // themselves. A repeat count of 1 keeps a run short should a check be
    // missing (`chaos_resilience`, the ablations and `obs_overhead` take
    // no count; `chaos_resilience` and `obs_overhead` write their
    // `BENCH_*.json` beside the workspace manifest).
    let binaries = [
        ("fig9_e1_all", env!("CARGO_BIN_EXE_fig9_e1_all"), &["1"][..]),
        (
            "fig6_overhead",
            env!("CARGO_BIN_EXE_fig6_overhead"),
            &["1"][..],
        ),
        (
            "chaos_resilience",
            env!("CARGO_BIN_EXE_chaos_resilience"),
            &[][..],
        ),
        (
            "data_collection_rsd",
            env!("CARGO_BIN_EXE_data_collection_rsd"),
            &["1"][..],
        ),
        (
            "ablation_governor",
            env!("CARGO_BIN_EXE_ablation_governor"),
            &[][..],
        ),
        (
            "ablation_snapshots",
            env!("CARGO_BIN_EXE_ablation_snapshots"),
            &[][..],
        ),
        ("obs_overhead", env!("CARGO_BIN_EXE_obs_overhead"), &[][..]),
    ];
    // `huge` does not parse; 200000 GiB parses, but no host reserves that
    // much address space for a thread's stack.
    for value in ["huge", "200000g"] {
        for (name, bin, args) in binaries {
            let dir = scratch_dir(&format!("{name}-env"));
            let out = Command::new(bin)
                .args(args)
                .env("ENT_STACK_SIZE", value)
                .current_dir(&dir)
                .output()
                .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let row = format!("{name} ENT_STACK_SIZE={value}");
            assert_eq!(out.status.code(), Some(1), "{row}: {stderr}");
            assert!(stderr.starts_with("error: "), "{row}: got {stderr}");
            assert!(stderr.contains("ENT_STACK_SIZE"), "{row}: got {stderr}");
            assert!(out.stdout.is_empty(), "{row}: the run started");
            assert!(!dir.join("results").exists(), "{row}: wrote results/");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_binary_keeps_its_own_flags() {
    // `engine_fuzz` reads `--fuzz-iters` itself; the shared grid parser
    // must skip it and its value in both spellings.
    for argv in [&["--fuzz-iters", "1"][..], &["--fuzz-iters=1"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_engine_fuzz"))
            .args(argv)
            .args(["--jobs", "1"])
            .output()
            .expect("spawn engine_fuzz");
        assert!(
            out.status.success(),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
