//! `fig_all`'s output, in `cargo test`: each binary it runs, given the
//! arguments of `fig_all 1 --jobs 2` in a scratch working directory,
//! prints its committed `results/<bin>.txt` table and writes the
//! committed `results/<stem>.json`, byte for byte. (`determinism.rs`
//! renders the JSON grids in process at more worker counts; this adds
//! the text tables and the binaries' own writes.)

use std::path::{Path, PathBuf};
use std::process::Command;

/// Each binary of [`ent_bench::FIG_ALL`], as Cargo built it for this test.
const EXES: [(&str, &str); 9] = [
    ("fig6_overhead", env!("CARGO_BIN_EXE_fig6_overhead")),
    ("fig7_settings", env!("CARGO_BIN_EXE_fig7_settings")),
    ("fig8_e1_system_a", env!("CARGO_BIN_EXE_fig8_e1_system_a")),
    ("fig9_e1_all", env!("CARGO_BIN_EXE_fig9_e1_all")),
    ("fig10_e2", env!("CARGO_BIN_EXE_fig10_e2")),
    ("fig11_e3_thermal", env!("CARGO_BIN_EXE_fig11_e3_thermal")),
    (
        "ablation_snapshots",
        env!("CARGO_BIN_EXE_ablation_snapshots"),
    ),
    ("ablation_governor", env!("CARGO_BIN_EXE_ablation_governor")),
    (
        "data_collection_rsd",
        env!("CARGO_BIN_EXE_data_collection_rsd"),
    ),
];

fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

/// Asserts that `got` is the committed `results/<name>`, naming the first
/// line that differs.
fn assert_committed(name: &str, got: &[u8]) {
    let path = committed(name);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let (line, g, w) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map_or((0, "", ""), |(i, (g, w))| (i + 1, g, w));
    panic!(
        "{name} differs from results/{name} at line {line} ({} lines, {} committed)\n  \
         got:       {g}\n  committed: {w}",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn fig_all_binaries_print_and_write_the_committed_results() {
    assert_eq!(
        EXES.map(|(bin, _)| bin),
        ent_bench::FIG_ALL.map(|(bin, _, _)| bin),
        "this test runs exactly fig_all's binaries"
    );
    // The binaries write `results/*.json` relative to their working
    // directory, which must not be the checkout's.
    let dir = std::env::temp_dir().join(format!("ent-fig-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).expect("create a scratch results/");
    for ((bin, exe), (_, takes_repeats, takes_jobs)) in EXES.into_iter().zip(ent_bench::FIG_ALL) {
        let mut cmd = Command::new(exe);
        cmd.current_dir(&dir);
        if takes_repeats {
            cmd.arg("1");
        }
        if takes_jobs {
            cmd.args(["--jobs", "2"]);
        }
        let out = cmd.output().unwrap_or_else(|e| panic!("run {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_committed(&format!("{bin}.txt"), &out.stdout);
    }
    let mut grids = Vec::new();
    for entry in std::fs::read_dir(dir.join("results")).expect("list the scratch results/") {
        let entry = entry.expect("a results/ entry");
        let name = entry.file_name().into_string().expect("a UTF-8 file name");
        // Scheduler sidecars vary with `--jobs` and are not committed.
        if name.ends_with("_sched.json") {
            continue;
        }
        let written = std::fs::read(entry.path()).expect("read a written grid");
        assert_committed(&name, &written);
        grids.push(name);
    }
    grids.sort();
    assert_eq!(
        grids,
        [
            "fig10_e2.json",
            "fig11_e3_thermal.json",
            "fig6_overhead.json",
            "fig8_e1_system_a.json",
            "fig9_e1_all.json"
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
