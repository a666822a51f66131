//! Regenerates Figure 6: benchmark descriptions, statistics, and the
//! percentage energy overhead of ENT's runtime versus a no-op baseline.

use ent_bench::{fig6, metrics, parse_grid_args, render_table};

fn main() {
    let args = parse_grid_args(5);
    let repeats = args.value as usize;
    println!("Figure 6: ENT benchmark descriptions and statistics ({repeats} runs averaged)\n");
    let data = fig6::rows(repeats, args.jobs);
    let metric_rows = fig6::metric_rows(&data);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.description.to_string(),
                r.systems,
                r.cloc.to_string(),
                r.ent_changes.to_string(),
                format!("{:+.2}%", r.overhead_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "name",
                "description",
                "System",
                "CLOC",
                "ENT Changes",
                "% Energy Overhead"
            ],
            &rows,
        )
    );
    println!("(CLOC and ENT-change counts reproduce the paper's table for context;");
    println!(" the overhead column is measured on this reproduction's runtime.)");
    metrics::write_figure("fig6_overhead", &metric_rows);
}
