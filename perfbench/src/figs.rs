//! The `figs_batch` workload: in-process regeneration of the Figure 6, 8,
//! 9, 10 and 11 grids through `ent_bench`, on the work-stealing batch
//! engine.

use std::process::Command;
use std::time::{Duration, Instant};

use ent_bench::{e_benchmarks, fig10, fig11, fig6, fig8, fig9, VIOLATING_COMBOS};
use ent_energy::PlatformKind;
use ent_serve::proto::Op;
use ent_workloads::{
    all_benchmarks, benchmark, e1_program, e2_program, e3_benchmarks, e3_program, platform_for,
    platform_of, run_batch, sched_totals, E3Settings,
};

use crate::host::{
    cpu_us, scale_rate, scale_time, steal_ticks, wait_for_quiet, HostSpeed, StealMeter,
};
use crate::inputs::Variant;
use crate::layers::{self, Counts};
use crate::serve;
use crate::stats::{median, quantile, window_figure};
use crate::trace::Tracer;
use crate::{Args, Metric, Report};

/// `repeats` passed to every `rows` call: each cell averages this many
/// seeded runs after one discarded warm-up run.
const REPEATS: usize = 1;
/// Figure 11's trace seed.
const FIG11_SEED: u64 = 7;
/// Span names of the five figure calls, in pass order. A pass makes
/// 15 + 108 + 45 + 45 + 5 = 218 figure cells (rows).
const FIGURES: [&str; 5] = [
    "bench.fig6",
    "bench.fig8",
    "bench.fig9",
    "bench.fig10",
    "bench.fig11",
];

/// FNV-1a over the debug rendering of every row: equal digests mean
/// bit-identical figures (f64 `Debug` round-trips exactly).
fn digest(text: &str, mut h: u64) -> u64 {
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One figure call: returns its digest contribution and the cells it made.
fn figure(i: usize, jobs: usize) -> (u64, u64) {
    let seed = 0xcbf2_9ce4_8422_2325;
    match i {
        0 => {
            let r = fig6::rows(REPEATS, jobs);
            (digest(&format!("{r:?}"), seed), r.len() as u64)
        }
        1 => {
            let r = fig8::rows(REPEATS, jobs);
            (digest(&format!("{r:?}"), seed), r.len() as u64)
        }
        2 => {
            let r = fig9::rows(REPEATS, jobs);
            (digest(&format!("{r:?}"), seed), r.len() as u64)
        }
        3 => {
            let r = fig10::rows(REPEATS, jobs);
            (digest(&format!("{r:?}"), seed), r.len() as u64)
        }
        _ => {
            let r = fig11::series(FIG11_SEED, jobs);
            (digest(&format!("{r:?}"), seed), r.len() as u64)
        }
    }
}

/// One pass over the five figures; per-call wall times in ms, the pass
/// digest and cells.
fn pass(jobs: usize) -> (Vec<f64>, u64, u64) {
    let mut times = Vec::with_capacity(FIGURES.len());
    let mut h = 0u64;
    let mut cells = 0u64;
    for i in 0..FIGURES.len() {
        let started = Instant::now();
        let (d, c) = figure(i, jobs);
        times.push(started.elapsed().as_secs_f64() * 1e3);
        h = h.rotate_left(7) ^ d;
        cells += c;
    }
    (times, h, cells)
}

/// Set-ups per run: fresh child processes plus this one's; `setup_s` is
/// the median of those with no stolen CPU time.
const SETUPS: usize = 9;
/// Longest wait for a quiet host before each `jobs` setting.
const QUIET_WAIT: Duration = Duration::from_secs(3);
/// Passes per measurement window.
const WINDOW_PASSES: usize = 4;

/// One window of consecutive passes at one `jobs` setting.
struct Window {
    call_ms: Vec<f64>,
    cells: u64,
    seconds: f64,
    passes: u64,
    failed: u64,
    /// No CPU time was stolen while the window ran.
    clean: bool,
    /// CPU µs this process spent in the window.
    cpu_us: u64,
}

fn window(jobs: usize, reference: u64) -> Window {
    let started = Instant::now();
    let steal = steal_ticks();
    let cpu = cpu_us("self");
    let mut w = Window {
        call_ms: Vec::new(),
        cells: 0,
        seconds: 0.0,
        passes: 0,
        failed: 0,
        clean: false,
        cpu_us: 0,
    };
    for _ in 0..WINDOW_PASSES {
        let (t, h, c) = pass(jobs);
        w.call_ms.extend(t);
        w.cells += c;
        w.passes += 1;
        w.failed += u64::from(h != reference);
    }
    w.seconds = started.elapsed().as_secs_f64();
    w.clean = steal_ticks() == steal;
    w.cpu_us = cpu_us("self") - cpu;
    w
}

fn cells_per_s(w: &Window) -> f64 {
    w.cells as f64 / w.seconds
}

fn cpu_per_cell(w: &Window) -> f64 {
    w.cpu_us as f64 / w.cells as f64
}

/// The set-up: one pass on a cold program cache (every figure program
/// compiled, every body's bytecode built on first run).
fn set_up(args: &Args) -> (f64, u64) {
    let started = Instant::now();
    let (_, h, _) = pass(args.nproc);
    (started.elapsed().as_secs_f64(), h)
}

/// Set-up time of a fresh process: this binary re-run with `--workload
/// figs_batch --setup-only`, which prints the seconds its set-up took.
fn child_setup() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", "figs_batch", "--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up child printed no time".to_string())
}

pub fn setup_only(args: &Args) -> f64 {
    set_up(args).0
}

fn self_rss_mb() -> f64 {
    crate::host::vm_hwm_mb("/proc/self/status")
}

pub fn untraced(args: &Args) -> Result<Report, String> {
    // Set-ups are timed like windows: the median of those no CPU time was
    // stolen from. Each is scaled to the nominal host by a reference loop
    // timed just before it, as is each window at jobs=nproc (NOTES.md).
    let mut speed = HostSpeed::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference = 0;
    for i in 0..SETUPS {
        wait_for_quiet(QUIET_WAIT);
        let rate = speed.sample(1);
        let steal = steal_ticks();
        // The last set-up is this process's own, which the figures are
        // then checked against.
        let took = if i + 1 < SETUPS {
            child_setup()?
        } else {
            let (took, digest) = set_up(args);
            reference = digest;
            took
        };
        setups.push((took, scale_time(took, rate), steal_ticks() == steal));
    }
    let raw_setups: Vec<(f64, bool)> = setups.iter().map(|s| (s.0, s.2)).collect();
    let scaled_setups: Vec<(f64, bool)> = setups.iter().map(|s| (s.1, s.2)).collect();
    let (setup_s, setup_rsd, _) = window_figure(&scaled_setups, 0.25);

    // Correctness gate: the figures are bit-identical at jobs=1.
    let (_, sequential, _) = pass(1);
    if sequential != reference {
        return Err("figure rows differ between jobs=1 and jobs=nproc".to_string());
    }

    let budget = args.seconds as f64;
    let mut waited = wait_for_quiet(QUIET_WAIT);
    let steal = StealMeter::start();
    let started = Instant::now();
    // A quarter of the budget at jobs=1, the rest at jobs=nproc, in
    // windows of WINDOW_PASSES passes.
    let mut low: Vec<Window> = Vec::new();
    let mut high: Vec<Window> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while started.elapsed().as_secs_f64() < budget * 0.25 || low.is_empty() {
        let w = window(1, reference);
        attempted += w.passes;
        failed += w.failed;
        low.push(w);
    }
    let mid_wait = wait_for_quiet(QUIET_WAIT);
    waited += mid_wait;
    // (cells per second, CPU µs per cell, clean) of each window at
    // jobs=nproc, scaled by a reference loop timed just after it.
    let mut scaled: Vec<(f64, f64, bool)> = Vec::new();
    while started.elapsed().as_secs_f64() < budget + mid_wait.as_secs_f64() || high.is_empty() {
        let w = window(args.nproc, reference);
        let rate = speed.sample(1);
        scaled.push((
            scale_rate(cells_per_s(&w), rate),
            scale_time(cpu_per_cell(&w), rate),
            w.clean,
        ));
        attempted += w.passes;
        failed += w.failed;
        high.push(w);
    }
    // Each figure is the median over windows the hypervisor stole no CPU
    // time from (NOTES.md).
    let q = |ws: &[Window], f: &dyn Fn(&Window) -> f64, fallback: f64| {
        let v: Vec<(f64, bool)> = ws.iter().map(|w| (f(w), w.clean)).collect();
        window_figure(&v, fallback)
    };
    let call_q = |w: &Window, p: f64| quantile(&w.call_ms, p).unwrap_or(0.0);
    let (p50_low, r1, clean_low) = q(&low, &|w| call_q(w, 0.5), 0.25);
    let (p99_low, r2, _) = q(&low, &|w| call_q(w, 0.99), 0.25);
    let (p50_high, r3, clean_high) = q(&high, &|w| call_q(w, 0.5), 0.25);
    let (p99_high, r4, _) = q(&high, &|w| call_q(w, 0.99), 0.25);
    let (calls_per_s, r5, _) = q(&high, &|w| w.call_ms.len() as f64 / w.seconds, 0.75);
    let scaled_q = |f: &dyn Fn(&(f64, f64, bool)) -> f64, fallback: f64| {
        let v: Vec<(f64, bool)> = scaled.iter().map(|w| (f(w), w.2)).collect();
        window_figure(&v, fallback)
    };
    let (cells_rate, rate_rsd, _) = scaled_q(&|w| w.0, 0.75);
    let (cpu_cell, cpu_rsd, _) = scaled_q(&|w| w.1, 0.25);
    let raw_setup = window_figure(&raw_setups, 0.25).0;
    let raw_rate = q(&high, &cells_per_s, 0.75).0;
    let raw_cpu = q(&high, &cpu_per_cell, 0.25).0;
    let passes_high: u64 = high.iter().map(|w| w.passes).sum();
    let cells: u64 = high.iter().map(|w| w.cells).sum();
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s").rsd(setup_rsd),
        Metric::new("cpu_us_per_item", cpu_cell, "us").rsd(cpu_rsd),
        Metric::new("cells_per_s", cells_rate, "1/s").rsd(rate_rsd),
        Metric::new("peak_rss_mb", self_rss_mb(), "MiB"),
    ];
    let ms = |x: f64, rsd: f64| format!("{x:.4} (rsd {rsd:.1}%)");
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        stamp: vec![
            ("repeats".into(), REPEATS.to_string()),
            (
                "passes_jobs1".into(),
                (low.len() * WINDOW_PASSES).to_string(),
            ),
            ("passes_jobs_nproc".into(), passes_high.to_string()),
            (
                "cells_per_pass".into(),
                (cells / passes_high.max(1)).to_string(),
            ),
            ("digest".into(), format!("{reference:016x}")),
            (
                "unscaled".into(),
                format!(
                    "setup_s {raw_setup:.4} cpu_us_per_item {raw_cpu:.2} cells_per_s {raw_rate:.1}"
                ),
            ),
            (
                "ref_rate".into(),
                format!("median {:.1} samples {}", speed.median(), speed.samples()),
            ),
            ("steal_pct".into(), format!("{:.2}", steal.pct())),
            ("p50_ms_low".into(), ms(p50_low, r1)),
            ("p99_ms_low".into(), ms(p99_low, r2)),
            ("p50_ms_high".into(), ms(p50_high, r3)),
            ("p99_ms_high".into(), ms(p99_high, r4)),
            ("max_rps".into(), ms(calls_per_s, r5)),
            (
                "clean_windows".into(),
                format!(
                    "jobs1 {clean_low}/{} jobs_nproc {clean_high}/{}",
                    low.len(),
                    high.len()
                ),
            ),
            (
                "quiet_wait_s".into(),
                format!("{:.2}", waited.as_secs_f64()),
            ),
        ],
    })
}

/// Every distinct program the five figures run, with the platform letter
/// it runs on.
fn figure_programs() -> Vec<(String, &'static str)> {
    let letter = |k: PlatformKind| match k {
        PlatformKind::SystemA => "a",
        PlatformKind::SystemB => "b",
        PlatformKind::SystemC => "c",
    };
    let systems = [
        PlatformKind::SystemA,
        PlatformKind::SystemB,
        PlatformKind::SystemC,
    ];
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for spec in all_benchmarks() {
        let k = spec.primary_platform();
        out.push((e2_program(&spec, &platform_for(&spec, k), 1), letter(k)));
    }
    for spec in e_benchmarks(PlatformKind::SystemA) {
        for w in 0..3 {
            out.push((
                e1_program(&spec, &platform_for(&spec, PlatformKind::SystemA), w),
                "a",
            ));
        }
    }
    for k in systems {
        for spec in e_benchmarks(k) {
            for (_, w) in VIOLATING_COMBOS {
                out.push((e1_program(&spec, &platform_for(&spec, k), w), letter(k)));
            }
            out.push((e2_program(&spec, &platform_for(&spec, k), 2), letter(k)));
        }
    }
    for (name, tasks, task_seconds) in e3_benchmarks() {
        let spec = benchmark(name).expect("E3 benchmark exists");
        for ent in [true, false] {
            let src = e3_program(
                &spec,
                &platform_of(PlatformKind::SystemA),
                &E3Settings::default(),
                tasks,
                task_seconds,
                ent,
            );
            out.push((src, "a"));
        }
    }
    out.sort();
    out.dedup();
    out
}

pub fn traced(args: &Args) -> Result<Report, String> {
    let setup_started = Instant::now();
    let (_, reference) = set_up(args);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let budget = args.seconds as f64;

    // Untraced and traced passes alternate: the difference of their
    // medians is the tracing overhead.
    let mut plain_s = Vec::new();
    let mut t = Tracer::new();
    let sched0 = sched_totals();
    let mut passes = 0u64;
    let mut failed = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < budget * 0.6 || passes == 0 {
        let p = Instant::now();
        let (_, h, _) = pass(args.nproc);
        plain_s.push(p.elapsed().as_secs_f64());
        failed += u64::from(h != reference);
        let h = t.span("figs.pass", passes, |t| {
            let mut h = 0u64;
            for (i, name) in FIGURES.iter().enumerate() {
                let (d, _) = t.span(name, passes, |_| figure(i, args.nproc));
                h = h.rotate_left(7) ^ d;
            }
            h
        });
        failed += u64::from(h != reference);
        passes += 1;
    }
    let sched1 = sched_totals();
    let traced_pass_s: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "figs.pass")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();

    // Layer replay over every distinct figure program.
    let mut counts = Counts::default();
    let programs = figure_programs();
    let variants: Vec<Variant> = programs
        .iter()
        .map(|(src, letter)| Variant::new(Op::Run, src.clone(), letter, 0.9, 1))
        .collect();
    for (i, v) in variants.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        let options = ent_serve::parse_request(&v.line(req, 0))?.options;
        let lowered = layers::front_end(&mut t, req, &v.src, &mut counts);
        layers::run_replay(&mut t, req, &options, &lowered, true, &mut counts);
        layers::cache_hit(&mut t, req, &v.src);
        let mut check = options.clone();
        check.command = ent_cli::Command::Check;
        t.span("cli.check", req, |_| ent_cli::execute(&check, &v.src));
    }
    for v in variants.iter().take(16) {
        layers::cache_miss(&mut t, 0, &v.src);
    }
    let spawns: Vec<u64> = run_batch(args.nproc, &vec![(); 4 * args.nproc], |_| {
        layers::spawns_per_run()
    });

    // The serve layer probed with the figures' own programs (the figures
    // never go through it; see NOTES.md).
    let serve_layer = serve::probe(
        args,
        variants.into_iter().take(30).collect(),
        &mut Tracer::new(),
    )?;

    // Scheduler and cache counters cover both kinds of pass.
    let per_pass = |a: u64, b: u64| (b - a) as f64 / (2 * passes) as f64;
    let mut metrics = layers::layer_metrics(&t, &counts, "figs.pass");
    metrics.extend([
        Metric::new(
            "runtime.spawns_per_run",
            spawns.iter().sum::<u64>() as f64 / spawns.len() as f64,
            "count",
        ),
        Metric::new(
            "workloads.cache_hit_ratio",
            layers::ratio(
                sched1.cache.hits - sched0.cache.hits,
                sched1.cache.misses - sched0.cache.misses,
            ),
            "ratio",
        ),
        Metric::new(
            "workloads.cache_hits",
            per_pass(sched0.cache.hits, sched1.cache.hits),
            "count",
        ),
        Metric::new(
            "workloads.cache_misses",
            per_pass(sched0.cache.misses, sched1.cache.misses),
            "count",
        ),
        Metric::new(
            "workloads.cache_evictions",
            per_pass(sched0.cache.evictions, sched1.cache.evictions),
            "count",
        ),
        Metric::new(
            "workloads.steals",
            per_pass(sched0.steals, sched1.steals),
            "count",
        ),
        Metric::new(
            "workloads.stolen_jobs",
            per_pass(sched0.stolen_jobs, sched1.stolen_jobs),
            "count",
        ),
        Metric::new(
            "workloads.chunks_claimed",
            per_pass(sched0.chunks_claimed, sched1.chunks_claimed),
            "count",
        ),
        Metric::new(
            "trace.overhead_us",
            (median(&traced_pass_s) - median(&plain_s)) * 1e6,
            "us",
        ),
        Metric::new("fail_frac", failed as f64 / (2 * passes) as f64, "ratio"),
    ]);
    metrics.extend(serve_layer.metrics);
    crate::write_trace(args, &t)?;
    Ok(Report {
        correct: failed == 0,
        attempted: 2 * passes,
        failed,
        metrics: crate::order_layer_metrics(metrics)?,
        stamp: vec![
            ("repeats".into(), REPEATS.to_string()),
            ("traced_passes".into(), passes.to_string()),
            ("untraced_passes".into(), plain_s.len().to_string()),
            ("setup_s".into(), format!("{setup_s:.3}")),
            ("replayed_programs".into(), programs.len().to_string()),
        ],
    })
}
