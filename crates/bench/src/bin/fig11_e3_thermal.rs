//! Regenerates Figure 11: temperature-casing (E3) runs — CPU temperature
//! traces of the ENT and Java variants for the five System A benchmarks.

use ent_bench::{fig11, metrics, parse_grid_args, sparkline};

fn main() {
    let args = parse_grid_args(7);
    let seed = args.value;
    println!("Figure 11: System A temperature-casing (E3) runs (seed {seed})");
    println!("Thresholds: hot at 60 °C, overheating at 65 °C; sleep mcase 0/250/1000 ms.\n");
    let series = fig11::series(seed, args.jobs);
    let metric_rows = fig11::metric_rows(&series);
    for s in &series {
        println!("== {} ==", s.benchmark);
        for (label, trace) in [("ent ", &s.ent), ("java", &s.java)] {
            let (peak, steady) = fig11::peak_and_steady(trace);
            // Downsample to 60 columns for the sparkline.
            let temps: Vec<f64> = trace.iter().map(|(_, c)| *c).collect();
            let step = (temps.len() / 60).max(1);
            let line: Vec<f64> = temps.iter().step_by(step).copied().collect();
            println!(
                "  {label} [{}] peak {peak:.1} °C, steady ~{steady:.1} °C",
                sparkline(&line, 42.0, 80.0)
            );
        }
        println!();
    }
    println!("(Sparkline scale: 42–80 °C. The ENT runs hover near the hot threshold;");
    println!(" the Java runs climb toward thermal saturation, as in the paper.)");
    metrics::write_figure("fig11_e3_thermal", &metric_rows);
}
