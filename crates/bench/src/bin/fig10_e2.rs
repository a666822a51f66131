//! Regenerates Figure 10: battery-casing (E2) runs — normalized energy of
//! each boot mode against the full_throttle boot, large workload, all
//! systems.

use ent_bench::{fig10, metrics, mode_name, parse_grid_args, render_table, system_label};

fn main() {
    let args = parse_grid_args(5);
    let repeats = args.value as usize;
    println!("Figure 10: battery-casing (E2) runs ({repeats} runs averaged)\n");
    let data = fig10::rows(repeats, args.jobs);
    let metric_rows = fig10::metric_rows(&data);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                system_label(r.system).to_string(),
                r.benchmark.to_string(),
                mode_name(r.boot).to_string(),
                format!("{:.1}", r.energy_j),
                format!("{:.3}", r.normalized),
                format!("{:.2}%", r.savings_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Sys",
                "benchmark",
                "boot mode",
                "energy (J)",
                "normalized",
                "% saved vs full"
            ],
            &rows,
        )
    );
    metrics::write_figure("fig10_e2", &metric_rows);
}
