//! Ablation study for the snapshot design choices DESIGN.md calls out:
//!
//! * **lazy vs. eager copying** — the paper's compiler tags an object in
//!   place on its first snapshot and only copies on re-snapshots; the
//!   eager ablation copies every time;
//! * **shallow vs. deep copying** — §6.3 argues shallow copies suffice
//!   because tightly-coupled all-dynamic aggregates are rare; the deep
//!   ablation clones the reachable object graph.
//!
//! The workload snapshots one dynamic object holding a chain of plain
//! objects, `N` times, and reports copies made and modeled energy.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{run, RuntimeConfig};

fn workload(snapshots: usize, chain: usize) -> String {
    let mut nested = "new Leaf()".to_string();
    for _ in 0..chain {
        nested = format!("new Node({nested})");
    }
    let snaps: String = (0..snapshots)
        .map(|i| format!("let Holder s{i} = snapshot dh [_, _];\n"))
        .collect();
    format!(
        "modes {{ low <= high; }}
class Leaf {{ }}
class Node {{ Object child; }}
class Holder@mode<? <= H> {{
  Node graph;
  attributor {{ return low; }}
}}
class Main {{
  unit main() {{
    let dh = new Holder({nested});
    {snaps}
    return {{}};
  }}
}}"
    )
}

fn main() {
    ent_bench::check_env_or_exit();
    let snapshots = 50;
    let chain = 8;
    let src = workload(snapshots, chain);
    let compiled = compile(&src).expect("ablation workload typechecks");

    println!("Snapshot ablation: {snapshots} snapshots of one dynamic object holding an {chain}-object chain\n");
    println!(
        "{:<28} {:>8} {:>10} {:>12}",
        "configuration", "copies", "energy (J)", "vs lazy"
    );
    println!("{}", "-".repeat(62));

    let mut baseline = None;
    for (label, eager, deep) in [
        ("lazy shallow (paper)", false, false),
        ("eager shallow", true, false),
        ("lazy deep", false, true),
        ("eager deep", true, true),
    ] {
        let config = RuntimeConfig {
            eager_copy: eager,
            deep_copy: deep,
            ..RuntimeConfig::default()
        };
        let result = run(&compiled, Platform::system_a(), config);
        result.value.as_ref().expect("ablation run completes");
        let energy = result.measurement.energy_j;
        let base = *baseline.get_or_insert(energy);
        println!(
            "{label:<28} {:>8} {:>10.4} {:>11.2}x",
            result.stats.copies,
            energy,
            energy / base
        );
    }
    println!("\nThe paper's lazy-shallow strategy performs the fewest copies; the");
    println!("deep ablation scales with the aggregate size, which is what motivates");
    println!("the shallow default of §6.3.");
}
