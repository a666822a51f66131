//! The ENT end-to-end benchmark. See `perfbench/NOTES.md`.
//!
//! ```text
//! perfbench --workload serve_hot|serve_cold|figs_batch --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH --out-dir DIR [--commit SHA]
//! ```
//!
//! Prints a provenance stamp line and then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero, printing no result, when a correctness
//! gate fails or the run is invalid.

mod client;
mod figs;
mod host;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    pub commit: String,
    pub nproc: usize,
    /// Internal: time one figs_batch set-up in this fresh process.
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commit: "unknown".to_string(),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        setup_only: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("malformed {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value.clone(),
            "--setup-only" => args.setup_only = number()? != 0,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !["serve_hot", "serve_cold", "figs_batch"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected serve_hot, serve_cold, or figs_batch)",
            args.workload
        ));
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Relative standard deviation of the repeated measurements behind
    /// `value` within this run, when there are any.
    pub rsd_pct: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            rsd_pct: None,
        }
    }

    pub fn rsd(mut self, rsd_pct: f64) -> Metric {
        self.rsd_pct = Some(rsd_pct);
        self
    }
}

/// What one run produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra provenance (phase settings, sample counts, gate timings).
    pub stamp: Vec<(String, String)>,
}

/// Every per-layer metric, in report order (the `per_layer` list of
/// `BENCHMARK.json`).
pub const PER_LAYER: [&str; 41] = [
    "syntax.parse_us",
    "syntax.parse_bytes_per_us",
    "syntax.table_us",
    "core.typeck_us",
    "core.obligations",
    "runtime.lower_us",
    "workloads.compile_us",
    "workloads.lookup_us",
    "workloads.cache_hit_ratio",
    "workloads.cache_hits",
    "workloads.cache_misses",
    "workloads.cache_evictions",
    "runtime.stack_spawn_us",
    "runtime.spawns_per_run",
    "runtime.exec_us",
    "runtime.first_run_us",
    "runtime.steps",
    "runtime.steps_per_us",
    "runtime.threaded_compiles",
    "runtime.deopts",
    "runtime.snapshots",
    "runtime.copies",
    "cli.render_us",
    "cli.check_us",
    "serve.parse_request_us",
    "serve.submit_us",
    "serve.reply_json_us",
    "serve.queue_wait_us",
    "serve.wire_us",
    "serve.shed.overloaded",
    "serve.shed.rate_limited",
    "serve.shed.quarantined",
    "serve.shed.fallback_only",
    "serve.mode_transitions",
    "workloads.steals",
    "workloads.stolen_jobs",
    "workloads.chunks_claimed",
    "trace.coverage_pct",
    "trace.unattributed_us",
    "trace.overhead_us",
    "fail_frac",
];

/// Puts `metrics` in [`PER_LAYER`] order; a missing metric is a bug in
/// this benchmark.
pub fn order_layer_metrics(mut metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for name in PER_LAYER {
        let i = metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        out.push(metrics.swap_remove(i));
    }
    Ok(out)
}

/// Writes the run's spans as JSON lines under `--out-dir`.
pub fn write_trace(args: &Args, t: &trace::Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        println!("{}", figs::setup_only(&args));
        return ExitCode::SUCCESS;
    }
    let result = match (args.workload.as_str(), args.trace) {
        ("figs_batch", false) => figs::untraced(&args),
        ("figs_batch", true) => figs::traced(&args),
        (_, false) => serve::untraced(&args),
        (_, true) => serve::traced(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let mut stamp = format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"nproc\": {}, \"host_parallelism\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ent_runtime::json_escape(&args.commit),
        args.nproc,
        args.nproc,
    );
    for (k, v) in &report.stamp {
        let _ = write!(stamp, ", \"{k}\": \"{}\"", ent_runtime::json_escape(v));
    }
    let rsd: Vec<String> = report
        .metrics
        .iter()
        .filter_map(|m| {
            m.rsd_pct
                .map(|r| format!("\"{}\": {}", m.name, json_num(r)))
        })
        .collect();
    let _ = write!(stamp, ", \"rsd_pct\": {{{}}}}}}}", rsd.join(", "));
    println!("{stamp}");

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
