//! Regenerates Figure 9: E1 normalized energy over the boot/workload
//! combinations where EnergyExceptions are thrown, on Systems A, B, and C,
//! with the percentage savings of ENT versus the silent counterpart.

use ent_bench::{fig9, metrics, mode_name, parse_grid_args, render_table, system_label};

fn main() {
    let args = parse_grid_args(5);
    let repeats = args.value as usize;
    println!("Figure 9: battery-exception (E1) runs on Systems A/B/C ({repeats} runs averaged)");
    println!("Normalized against the silent full_throttle-boot run of the same workload.\n");
    let data = fig9::rows(repeats, args.jobs);
    let metric_rows = fig9::metric_rows(&data);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                system_label(r.system).to_string(),
                r.benchmark.to_string(),
                format!("{}/{}", mode_name(r.boot), mode_name(r.workload)),
                format!("{:.3}", r.ent_normalized),
                format!("{:.3}", r.silent_normalized),
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
                "boot/workload",
                "ENT (norm.)",
                "silent (norm.)",
                "% saved"
            ],
            &rows,
        )
    );
    metrics::write_figure("fig9_e1_all", &metric_rows);
}
