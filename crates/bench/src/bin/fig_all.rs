//! Convenience driver: regenerates every figure and the two ablations,
//! writing each to `results/<name>.txt` (and echoing progress). The
//! measuring binaries additionally write their own machine-readable
//! `results/<name>.json` alongside the text tables.
//!
//! ```sh
//! cargo run --release -p ent-bench --bin fig_all [repeats] [--jobs N]
//! ```
//!
//! `--jobs` is forwarded to the measuring figure binaries; their output is
//! bit-identical at every jobs count, so it only changes wall-clock time.
//! At `1` repeat the outputs are the committed `results/`, which
//! `crates/bench/tests/determinism.rs` checks in process.

use std::fs;
use std::process::Command;

fn main() {
    let args = ent_bench::parse_grid_args(5);
    let repeats = args.value.to_string();
    let jobs = args.jobs.to_string();
    fs::create_dir_all("results").expect("create results/");
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    // (binary, forward repeats?, forward --jobs?)
    let bins: &[(&str, bool, bool)] = &[
        ("fig6_overhead", true, true),
        ("fig7_settings", false, false),
        ("fig8_e1_system_a", true, true),
        ("fig9_e1_all", true, true),
        ("fig10_e2", true, true),
        ("fig11_e3_thermal", false, true),
        ("ablation_snapshots", false, false),
        ("ablation_governor", false, false),
        ("data_collection_rsd", true, false),
    ];
    for (bin, takes_repeats, takes_jobs) in bins {
        let mut cmd = Command::new(exe_dir.join(bin));
        if *takes_repeats {
            cmd.arg(&repeats);
        }
        if *takes_jobs {
            cmd.args(["--jobs", &jobs]);
        }
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("running {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = format!("results/{bin}.txt");
        fs::write(&path, &out.stdout).expect("write result file");
        println!("wrote {path} ({} bytes)", out.stdout.len());
    }
    println!("\nAll figures and ablations regenerated.");
}
