//! The determinism contract, checked against the committed figures.
//!
//! Seeds derive from job identity, never from worker order or engine, so
//! every grid the figure binaries write must render, in process and
//! through the binaries' own metric rows, to the exact bytes of its
//! committed `results/<stem>.json`: at one worker and at eight, and for
//! the E1 and E3 grids on the tree walker as well as on bytecode. The
//! renderer prints round-trip-exact floats, so equal bytes mean equal
//! bits. The E2 grids' engine identity is checked by
//! `sampled_telemetry_is_byte_identical_across_jobs_and_engines`
//! (`ent-workloads`).
//!
//! A change that is meant to move a figure regenerates `results/` with
//! `cargo run --release -p ent-bench --bin fig_all -- 1` (and, for the
//! chaos grid, `fig8_e1_system_a -- 1 --faults chaos --fault-seed 7`).

use std::path::{Path, PathBuf};

use ent_bench::{fig10, fig11, fig6, fig8, fig9, metrics};
use ent_cli::{execute, parse_args, EXIT_OK};
use ent_energy::FaultPlan;
use ent_runtime::Engine;

/// Worker counts every grid renders at.
const JOBS: [usize; 2] = [1, 8];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Asserts that `rows` render to the committed `results/<stem>.json` (each
/// figure binary names its suite after its stem).
fn assert_committed(stem: &str, rows: &[metrics::Row], setting: &str) {
    let path = repo_root().join(format!("results/{stem}.json"));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rendered = metrics::to_json(stem, rows);
    if rendered == committed {
        return;
    }
    let (line, got, want) = rendered
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
        .map_or((0, "", ""), |(i, (got, want))| (i + 1, got, want));
    panic!(
        "{stem} ({setting}) differs from results/{stem}.json at line {line} \
         ({} rendered lines, {} committed)\n  rendered:  {got}\n  committed: {want}",
        rendered.lines().count(),
        committed.lines().count()
    );
}

#[test]
fn figure_grids_render_the_committed_results_at_every_worker_count() {
    for jobs in JOBS {
        let setting = format!("--jobs {jobs}");
        let fig6 = fig6::metric_rows(&fig6::rows(1, jobs));
        assert_committed("fig6_overhead", &fig6, &setting);
        let fig8 = fig8::metric_rows(&fig8::rows(1, jobs));
        assert_committed("fig8_e1_system_a", &fig8, &setting);
        let fig9 = fig9::metric_rows(&fig9::rows(1, jobs));
        assert_committed("fig9_e1_all", &fig9, &setting);
        let fig10 = fig10::metric_rows(&fig10::rows(1, jobs));
        assert_committed("fig10_e2", &fig10, &setting);
        let fig11 = fig11::metric_rows(&fig11::series(7, jobs));
        assert_committed("fig11_e3_thermal", &fig11, &setting);
    }
}

#[test]
fn e1_and_e3_grids_render_the_committed_results_on_the_tree_walker() {
    let tree = Engine::Tree;
    let fig8 = fig8::metric_rows(&fig8::rows_on(tree, 1, 8));
    assert_committed("fig8_e1_system_a", &fig8, "tree");
    let fig9 = fig9::metric_rows(&fig9::rows_on(tree, 1, 8));
    assert_committed("fig9_e1_all", &fig9, "tree");
    let fig11 = fig11::metric_rows(&fig11::series_on(tree, 7, 8));
    assert_committed("fig11_e3_thermal", &fig11, "tree");
}

#[test]
fn the_chaos_grid_replays_across_worker_counts_and_engines() {
    let plan = FaultPlan::chaos();
    let render = |engine: Engine, jobs: usize, fault_seed: u64| {
        fig8::chaos_metric_rows(&fig8::chaos_rows_on(engine, jobs, &plan, fault_seed))
    };
    // Seed 7 is the committed fault-injected grid.
    for (engine, jobs) in [
        (Engine::Bytecode, 1),
        (Engine::Bytecode, 8),
        (Engine::Tree, 8),
    ] {
        let setting = format!("fault seed 7, {} --jobs {jobs}", engine.name());
        assert_committed("fig8_chaos", &render(engine, jobs, 7), &setting);
    }
    // Seed 11 has no committed file: its renders must agree.
    let reference = metrics::to_json("fig8_chaos", &render(Engine::Bytecode, 1, 11));
    for (engine, jobs) in [(Engine::Bytecode, 8), (Engine::Tree, 8)] {
        let rendered = metrics::to_json("fig8_chaos", &render(engine, jobs, 11));
        assert!(
            rendered == reference,
            "fault seed 11 on {} --jobs {jobs} differs from bytecode --jobs 1",
            engine.name()
        );
    }
}

#[test]
fn sampled_crawler_telemetry_replays_on_both_engines() {
    let crawler = repo_root().join("examples/ent/crawler.ent");
    let src = std::fs::read_to_string(&crawler).expect("read crawler.ent");
    let metrics_path =
        std::env::temp_dir().join(format!("ent-sampled-{}.json", std::process::id()));
    let run = |extra: &[&str]| -> (String, String) {
        let mut args: Vec<String> = [
            "run",
            "crawler.ent",
            "--profile",
            "sampled",
            "--sample-period",
            "64",
            "--sample-seed",
            "3",
            "--metrics-json",
        ]
        .map(String::from)
        .to_vec();
        args.push(metrics_path.to_string_lossy().into_owned());
        args.extend(extra.iter().map(|s| s.to_string()));
        let (code, output) = execute(&parse_args(&args).expect("valid arguments"), &src);
        assert_eq!(code, EXIT_OK, "{extra:?}: {output}");
        let telemetry = std::fs::read_to_string(&metrics_path).expect("read telemetry");
        (output, telemetry)
    };
    let first = run(&[]);
    assert!(first.1.contains("\"mode\": \"sampled\""), "{}", first.1);
    assert!(first.1.contains("\"samples\": "), "{}", first.1);
    assert_eq!(run(&[]), first, "a replay changed the sampled telemetry");
    assert_eq!(
        run(&["--engine", "tree"]),
        first,
        "the tree walker changed the sampled telemetry"
    );
    let _ = std::fs::remove_file(&metrics_path);
}
