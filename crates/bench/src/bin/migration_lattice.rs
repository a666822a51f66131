//! Migration-lattice benchmark: the typed/untyped configuration lattice
//! of three batch benchmarks (à la the gradual-typing performance
//! lattices), each point run under **both** enforcement strategies.
//!
//! Every benchmark's work is split across [`COMPONENTS`] pipeline
//! stages; bit `i` of a point's mask decides whether stage `i` is typed
//! (statically moded `this`-sends, no boundary) or untyped (a dynamic
//! `Worker` re-snapshotted at every chunk). Every point performs the
//! identical work sequence, so the per-point overhead against the
//! fully-typed corner isolates what each strategy charges for the
//! remaining dynamism: guarded re-snapshots physically copy
//! already-snapshotted objects, transient re-tags in place but checks
//! every call site.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin migration_lattice \[repeats\]
//!
//! Defaults: 3 repeats averaged, on the default (bytecode) engine. Writes
//! `BENCH_lattice.json` at the workspace root.

use std::path::PathBuf;

use ent_bench::{parse_grid_args, render_table};
use ent_energy::PlatformKind;
use ent_runtime::json::{self, Fixed, ToJson};
use ent_runtime::{json_fields, run_lowered, Enforcement, Engine, RuntimeConfig};
use ent_workloads::{benchmark, lattice_program, lowered_cached, platform_for, LATTICE_CHUNKS};

/// Batch benchmarks swept (each must have `Shape::Batch`).
const BENCHMARKS: [&str; 3] = ["crypto", "sunflow", "batik"];
/// Lattice dimensions: 3 stages → 8 points per benchmark.
const COMPONENTS: u32 = 3;
/// Base measurement seed (repeat `r` runs with `SEED + r`).
const SEED: u64 = 23;

/// One (mask, strategy) cell, averaged over the repeats.
struct Cell {
    energy_j: f64,
    time_s: f64,
    snapshots: u64,
    copies: u64,
    transient_checks: u64,
    transient_failures: u64,
    /// Percent energy overhead vs the same strategy's fully-typed corner.
    overhead_pct: f64,
}

/// One lattice point: both strategies on the same program.
struct Point {
    mask: u32,
    guarded: Cell,
    transient: Cell,
}

struct ProgramSweep {
    name: &'static str,
    points: Vec<Point>,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn run_cell(
    lowered: &std::sync::Arc<ent_runtime::LoweredProgram>,
    platform: &ent_energy::Platform,
    strategy: Enforcement,
    repeats: u64,
) -> Cell {
    let mut energy_sum = 0.0;
    let mut time_sum = 0.0;
    let mut last = None;
    for r in 0..repeats {
        let config = RuntimeConfig {
            enforcement: strategy,
            seed: SEED + r,
            ..RuntimeConfig::default()
        };
        let result = run_lowered(lowered, platform.clone(), config);
        if let Err(e) = &result.value {
            panic!("lattice point failed under {}: {e}", strategy.name());
        }
        energy_sum += result.measurement.energy_j;
        time_sum += result.measurement.time_s;
        last = Some(result.stats);
    }
    let stats = last.expect("at least one repeat");
    let n = repeats as f64;
    Cell {
        energy_j: energy_sum / n,
        time_s: time_sum / n,
        snapshots: stats.snapshots,
        copies: stats.copies,
        transient_checks: stats.transient_checks,
        transient_failures: stats.transient_failures,
        overhead_pct: 0.0,
    }
}

fn sweep(name: &'static str, repeats: u64) -> ProgramSweep {
    let spec = benchmark(name).expect("lattice benchmark exists");
    let platform = platform_for(&spec, PlatformKind::SystemA);
    let n_points = 1u32 << COMPONENTS;
    let mut points: Vec<Point> = (0..n_points)
        .map(|mask| {
            let src = lattice_program(&spec, &platform, mask, COMPONENTS);
            let lowered = lowered_cached(name, &src);
            Point {
                mask,
                guarded: run_cell(&lowered, &platform, Enforcement::Guarded, repeats),
                transient: run_cell(&lowered, &platform, Enforcement::Transient, repeats),
            }
        })
        .collect();
    // The fully-typed corner (all mask bits set) is each strategy's own
    // baseline: overhead measures the cost of the remaining dynamism,
    // not guarded-vs-transient directly.
    let typed = (n_points - 1) as usize;
    let base_g = points[typed].guarded.energy_j;
    let base_t = points[typed].transient.energy_j;
    for p in &mut points {
        p.guarded.overhead_pct = (p.guarded.energy_j / base_g - 1.0) * 100.0;
        p.transient.overhead_pct = (p.transient.energy_j / base_t - 1.0) * 100.0;
    }
    ProgramSweep { name, points }
}

/// One strategy's cell, on one line.
fn cell(c: &Cell) -> impl ToJson + '_ {
    json::object(|o| {
        json_fields!(o; energy_j = Fixed(c.energy_j, 6), time_s = Fixed(c.time_s, 6),
            overhead_pct = Fixed(c.overhead_pct, 4));
        json_fields!(o, c; snapshots, copies, transient_checks, transient_failures);
    })
}

fn main() {
    let args = parse_grid_args(3);
    let repeats = args.value.max(1);
    eprintln!(
        "migration lattice: {} benchmarks x {} points x 2 strategies, {repeats} repeats",
        BENCHMARKS.len(),
        1u32 << COMPONENTS
    );

    let sweeps: Vec<ProgramSweep> = BENCHMARKS.iter().map(|&b| sweep(b, repeats)).collect();

    for s in &sweeps {
        println!(
            "\n{} migration lattice ({} stages, {} chunks/stage):",
            s.name, COMPONENTS, LATTICE_CHUNKS
        );
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|p| {
                let typed: String = (0..COMPONENTS)
                    .map(|i| if p.mask & (1 << i) != 0 { 'T' } else { 'U' })
                    .collect();
                vec![
                    typed,
                    format!("{:.3}", p.guarded.energy_j),
                    format!("{:+.2}%", p.guarded.overhead_pct),
                    format!("{}", p.guarded.copies),
                    format!("{:.3}", p.transient.energy_j),
                    format!("{:+.2}%", p.transient.overhead_pct),
                    format!("{}", p.transient.transient_checks),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "stages",
                    "guarded J",
                    "overhead",
                    "copies",
                    "transient J",
                    "overhead",
                    "checks"
                ],
                &rows,
            )
        );
    }

    let programs = json::list(sweeps.iter().map(|s| {
        let points = json::list(s.points.iter().map(|p| {
            json::object(move |o| {
                json_fields!(o; mask = p.mask, typed_stages = p.mask.count_ones(),
                    guarded = cell(&p.guarded), transient = cell(&p.transient));
            })
        }));
        json::object(move |o| json_fields!(o; name = s.name, points = points.lines()))
    }));
    let note = "overhead_pct is each strategy's energy vs its own fully-typed corner; every \
                point performs the identical work sequence, so the overhead isolates \
                enforcement cost.";
    let doc = json::object(|o| {
        json_fields!(o; schema = "ent-lattice/1", components = COMPONENTS,
            chunks_per_stage = LATTICE_CHUNKS, repeats = repeats, seed = SEED,
            engine = Engine::default().name(), programs = programs.lines(), note = note);
    });

    let path = repo_root().join("BENCH_lattice.json");
    std::fs::write(&path, json::to_string(doc.lines()) + "\n").unwrap();
    eprintln!("wrote {}", path.display());
}
