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
//! At `1` repeat the outputs are the committed `results/`:
//! `crates/bench/tests/fig_tables.rs` runs each binary of
//! [`ent_bench::FIG_ALL`] as `fig_all` does and compares what it
//! prints and writes, and `crates/bench/tests/determinism.rs` renders the
//! JSON grids in process.

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

    for (bin, takes_repeats, takes_jobs) in ent_bench::FIG_ALL {
        let mut cmd = Command::new(exe_dir.join(bin));
        if takes_repeats {
            cmd.arg(&repeats);
        }
        if takes_jobs {
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
