//! The migration lattice's corner facts, over every point of the three
//! batch benchmarks `migration_lattice` sweeps (3 typed/untyped stages,
//! 8 points each), under both enforcement strategies:
//!
//! * at the fully typed corner guarded makes no copy, and guarded and
//!   transient spend bit-identical energy;
//! * transient never copies;
//! * every other point copies under guarded (a re-snapshot of a live
//!   object).
//!
//! One run per cell with the binary's first seed; the benchmark averages
//! repeats, which these facts do not depend on.

use ent_energy::PlatformKind;
use ent_runtime::{run_lowered, Enforcement, RunResult, RuntimeConfig};
use ent_workloads::{benchmark, lattice_program, lowered_cached, platform_for};

/// The benchmarks and stage count `migration_lattice` sweeps.
const BENCHMARKS: [&str; 3] = ["crypto", "sunflow", "batik"];
const COMPONENTS: u32 = 3;
/// `migration_lattice`'s first repeat's seed.
const SEED: u64 = 23;

#[test]
fn lattice_corners_hold_under_both_strategies() {
    for name in BENCHMARKS {
        let spec = benchmark(name).expect("lattice benchmark exists");
        let platform = platform_for(&spec, PlatformKind::SystemA);
        let typed = (1u32 << COMPONENTS) - 1;
        for mask in 0..=typed {
            let src = lattice_program(&spec, &platform, mask, COMPONENTS);
            let lowered = lowered_cached(name, &src);
            let run = |enforcement| -> RunResult {
                let config = RuntimeConfig {
                    enforcement,
                    seed: SEED,
                    ..RuntimeConfig::default()
                };
                let result = run_lowered(&lowered, platform.clone(), config);
                if let Err(e) = &result.value {
                    panic!(
                        "{name} mask {mask:03b} failed under {}: {e}",
                        enforcement.name()
                    );
                }
                result
            };
            let (guarded, transient) = (run(Enforcement::Guarded), run(Enforcement::Transient));
            let at = format!("{name} mask {mask:03b}");
            assert_eq!(transient.stats.copies, 0, "{at}: transient never copies");
            if mask == typed {
                assert_eq!(
                    guarded.stats.copies, 0,
                    "{at}: the typed corner copies nothing"
                );
                assert_eq!(
                    guarded.measurement.energy_j.to_bits(),
                    transient.measurement.energy_j.to_bits(),
                    "{at}: both strategies spend the same energy at the typed corner"
                );
            } else {
                assert!(
                    guarded.stats.copies > 0,
                    "{at}: guarded copies off the typed corner"
                );
            }
        }
    }
}
