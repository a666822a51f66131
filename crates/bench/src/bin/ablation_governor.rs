//! Ablation: how application-level mode adaptation interacts with
//! OS-level power management (§6.2's discussion of the Pi's `ondemand`
//! governor). Runs the `video` E2 benchmark under all three governors and
//! reports the per-boot-mode energy and the application-level savings.

use ent_core::compile;
use ent_energy::{Governor, Platform};
use ent_runtime::{run, RuntimeConfig};
use ent_workloads::{battery_for_boot, benchmark, e2_program};

fn main() {
    ent_bench::check_env_or_exit();
    let spec = benchmark("video").expect("video benchmark exists");
    let base = Platform::system_b();
    let src = e2_program(&spec, &base, 2);
    let compiled = compile(&src).expect("benchmark compiles");

    println!("Governor ablation: video (System B, Raspberry Pi), E2 battery-casing\n");
    println!(
        "{:<13} {:>14} {:>14} {:>14} {:>12}",
        "governor", "saver (J)", "managed (J)", "full (J)", "app savings"
    );
    println!("{}", "-".repeat(72));
    for governor in [
        Governor::Ondemand,
        Governor::Performance,
        Governor::Powersave,
    ] {
        let energy = |boot: usize| {
            let result = run(
                &compiled,
                base.clone().with_governor(governor),
                RuntimeConfig {
                    battery_level: battery_for_boot(boot),
                    seed: 3,
                    ..RuntimeConfig::default()
                },
            );
            result.value.as_ref().expect("run completes");
            result.measurement.energy_j
        };
        let (saver, managed, full) = (energy(0), energy(1), energy(2));
        println!(
            "{:<13} {saver:>14.1} {managed:>14.1} {full:>14.1} {:>11.1}%",
            governor.to_string(),
            (1.0 - saver / full) * 100.0
        );
    }
    println!(
        "\nUnder `performance` the package never drops into low-power states, so\n\
         the application's duty-cycle adaptation saves a smaller fraction —\n\
         the cooperative effect the paper observes with `ondemand` on the Pi."
    );
}
