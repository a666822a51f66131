//! The figure binaries' flag contract: a flag they do not know, or a
//! malformed engine setting in the environment, exits 1 with a message
//! naming it, before any grid runs. A skipped flag would have its value
//! read as the positional repeat count.

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
    // The engine settings are environment variables, not grid flags.
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
fn a_malformed_engine_variable_exits_one_before_any_grid_runs() {
    let dir = scratch_dir("fig9-env");
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_e1_all"))
        .env("ENT_ENGINE", "threaded")
        .current_dir(&dir)
        .output()
        .expect("spawn fig9_e1_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("ENT_ENGINE"), "got: {stderr}");
    assert!(out.stdout.is_empty(), "the figure started");
    assert!(!dir.join("results").exists(), "wrote results/");
    let _ = std::fs::remove_dir_all(&dir);
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
