//! Differential fuzzing campaigns: the grid of
//! `ent_workloads::differential`, which
//! `crates/workloads/tests/engine_differential.rs` runs over 40 seeds,
//! over a campaign of any size, as a binary so long campaigns don't need
//! a test timeout.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin engine_fuzz -- [--fuzz-iters N] [--jobs N]
//!
//! Every seeded program from `ent_workloads::fuzzgen` (seeds `0..N`,
//! default 200) is executed on the tree walker and on bytecode across
//! battery levels, fault regimes, and enforcement strategies; any
//! observable divergence between the pair aborts with the offending seed
//! and program source. Exit status 0 means the corpus agreed everywhere.

use std::time::Instant;

use ent_workloads::differential::check_seed;
use ent_workloads::run_batch;

fn main() {
    let mut iters: u64 = 200;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--fuzz-iters" {
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                iters = n;
            }
        } else if let Some(n) = a.strip_prefix("--fuzz-iters=").and_then(|v| v.parse().ok()) {
            iters = n;
        }
    }
    let jobs = ent_bench::parse_grid_args_with(0, &["--fuzz-iters"]).jobs;

    eprintln!("fuzzing {iters} seeds on tree and bytecode ({jobs} jobs)...");
    let start = Instant::now();
    let seeds: Vec<u64> = (0..iters).collect();
    let reports = run_batch(jobs, &seeds, |&seed| check_seed(seed));

    let mut runs = 0u64;
    let mut errors = 0u64;
    for r in &reports {
        runs += r.runs;
        errors += r.errors;
        if let Some(d) = &r.divergence {
            eprintln!("ENGINE DIVERGENCE\n{d}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "ok: {iters} seeds, {runs} run pairs agreed ({errors} error runs exercised) in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if iters >= 100 && errors == 0 {
        eprintln!("warning: corpus exercised no error paths — generator may have drifted");
        std::process::exit(1);
    }
}
