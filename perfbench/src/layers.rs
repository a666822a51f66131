//! Replays one program through each layer's public functions under spans.
//!
//! Both traced paths use this: the serve workloads replay every traced
//! request after its reply, and figs_batch replays each distinct figure
//! program. The calls are exactly the ones the system makes — `compile` is
//! `parse_program` + `ClassTable::new` + `typecheck_obligations`, a cache
//! miss adds `lower_program`, and a run is `run_lowered` on an interpreter
//! stack — so each span's self time is that layer's cost on this input.

use std::sync::Arc;
use std::time::Instant;

use ent_cli::{run_prepared, Options};
use ent_core::{typecheck_obligations, CompiledProgram};
use ent_energy::Platform;
use ent_runtime::{
    default_stack_size, lower_program, run_lowered, with_interp_stack, Enforcement, LoweredProgram,
    RunResult, RuntimeConfig, TierUp,
};
use ent_syntax::{parse_program, ClassTable};

use crate::trace::Tracer;
use crate::Metric;

/// Counts gathered beside the spans, for the per-layer ratios.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub compiled: u64,
    pub parsed_bytes: u64,
    pub obligations: u64,
    pub runs: u64,
    pub steps: u64,
    pub threaded_compiles: u64,
    pub deopts: u64,
    pub snapshots: u64,
    pub copies: u64,
}

impl Counts {
    fn note_run(&mut self, r: &RunResult) {
        self.runs += 1;
        self.steps += r.stats.steps;
        self.threaded_compiles += r.tier.threaded_compiles;
        self.deopts += r.tier.deopts();
        self.snapshots += r.stats.snapshots;
        self.copies += r.stats.copies;
    }
}

/// The platform and runtime configuration `ent_cli::run_prepared` builds
/// from `options` (the knobs the serve protocol can set).
pub fn run_config(options: &Options) -> (Platform, RuntimeConfig) {
    let platform = match options.platform.as_str() {
        "b" => Platform::system_b(),
        "c" => Platform::system_c(),
        _ => Platform::system_a(),
    };
    let config = RuntimeConfig {
        silent: options.silent,
        battery_level: options.battery,
        seed: options.seed,
        profile: options.profile_mode(),
        faults: options.faults.clone(),
        fault_seed: options.fault_seed,
        engine: options.engine.unwrap_or_default(),
        tier_up: options.tier_up.unwrap_or_else(TierUp::from_env),
        enforcement: options.enforce.unwrap_or_else(Enforcement::from_env),
        ..RuntimeConfig::default()
    };
    (platform, config)
}

/// The front end under spans: `syntax.parse`, `syntax.table`,
/// `core.typeck`, `runtime.lower`.
pub fn front_end(t: &mut Tracer, req: u64, src: &str, counts: &mut Counts) -> LoweredProgram {
    let program = t
        .span("syntax.parse", req, |_| parse_program(src))
        .expect("gated source parses");
    let table = t
        .span("syntax.table", req, |_| ClassTable::new(&program))
        .expect("gated source builds");
    let obligations = t
        .span("core.typeck", req, |_| {
            typecheck_obligations(&program, &table)
        })
        .expect("gated source typechecks");
    counts.compiled += 1;
    counts.parsed_bytes += src.len() as u64;
    counts.obligations += obligations.len() as u64;
    let compiled = CompiledProgram {
        program,
        table,
        obligations,
    };
    t.span("runtime.lower", req, |_| lower_program(&compiled))
}

/// A cache miss of the same cost as the daemon's: the source with one
/// trailing space is a new cache key for an identical program.
pub fn cache_miss(t: &mut Tracer, req: u64, src: &str) -> Arc<LoweredProgram> {
    let fresh = format!("{src} ");
    t.span("workloads.compile", req, |_| {
        ent_workloads::try_lowered_cached(&fresh)
    })
    .expect("gated source compiles")
}

/// The cache-hit path: `try_lowered_cached` on a resident key.
pub fn cache_hit(t: &mut Tracer, req: u64, src: &str) -> Arc<LoweredProgram> {
    t.span("workloads.lookup", req, |_| {
        ent_workloads::try_lowered_cached(src)
    })
    .expect("resident program")
}

/// What a run replay measured, in nanoseconds of span time.
pub struct RunReplay {
    pub spawn_self_ns: u64,
    pub exec_ns: u64,
    pub first_run_ns: Option<u64>,
    pub render_ns: u64,
}

/// One run as the daemon pays it, under spans: `runtime.stack_spawn` (the
/// interpreter-stack spawn a plain worker thread pays per run) around
/// `runtime.first_run` (only when `first`: the first run of a fresh
/// program, lazy bytecode compile included), two warm `runtime.exec` runs
/// of `run_lowered`, and between them `cli.run_prepared` (the same run
/// plus the report render). Render is `run_prepared` minus the mean of
/// the two exec runs around it.
pub fn run_replay(
    t: &mut Tracer,
    req: u64,
    options: &Options,
    lowered: &LoweredProgram,
    first: bool,
    counts: &mut Counts,
) -> RunReplay {
    let (platform, config) = run_config(options);
    let timed = |f: &dyn Fn() -> RunResult| {
        let start = Instant::now();
        let r = f();
        (start, Instant::now(), r)
    };
    let before = t.spans().len();
    let ns = |s: Instant, e: Instant| e.duration_since(s).as_nanos() as u64;
    let (first_ns, exec_ns, prepared_ns) = t.span("runtime.stack_spawn", req, |t| {
        let (first_run, exec_a, prepared, exec_b) = with_interp_stack(default_stack_size(), || {
            let run = || run_lowered(lowered, platform.clone(), config.clone());
            let first_run = first.then(|| timed(&run));
            let exec_a = timed(&run);
            let start = Instant::now();
            run_prepared(options, lowered);
            let prepared = (start, Instant::now());
            (first_run, exec_a, prepared, timed(&run))
        });
        // The runs happened on the interpreter stack's thread; their spans
        // are recorded here, as children of the spawn span.
        let first_ns = first_run.map(|(s, e, r)| {
            t.record("runtime.first_run", req, s, e);
            counts.note_run(&r);
            ns(s, e)
        });
        let mut exec_ns = 0;
        for (s, e, r) in [exec_a, exec_b] {
            t.record("runtime.exec", req, s, e);
            counts.note_run(&r);
            exec_ns += ns(s, e);
        }
        let (ps, pe) = prepared;
        t.record("cli.run_prepared", req, ps, pe);
        (first_ns, exec_ns, ns(ps, pe))
    });
    let spawn = &t.spans()[before];
    let children = first_ns.unwrap_or(0) + exec_ns + prepared_ns;
    RunReplay {
        spawn_self_ns: (spawn.end_ns - spawn.start_ns).saturating_sub(children),
        exec_ns: exec_ns / 2,
        first_run_ns: first_ns,
        render_ns: prepared_ns.saturating_sub(exec_ns / 2),
    }
}

/// Interpreter-stack spawns one run pays on the calling thread: 1 on a
/// plain thread (a serve worker), 0 on a batch worker that already holds
/// an interpreter frame.
pub fn spawns_per_run() -> u64 {
    let caller = std::thread::current().id();
    let runner = with_interp_stack(default_stack_size(), || std::thread::current().id());
    u64::from(caller != runner)
}

/// `hits / (hits + misses)`, or 0 with no lookups.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer metrics that come straight from span totals and replay
/// counts; `root` names the spans whose coverage is reported.
pub fn layer_metrics(t: &Tracer, c: &Counts, root: &str) -> Vec<Metric> {
    let totals = t.totals();
    let us = |name: &str| totals.get(name).map_or(0.0, |x| x.self_us());
    let sum_us = |name: &str| totals.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e3);
    let runs = c.runs.max(1) as f64;
    let exec = totals.get("runtime.exec").copied().unwrap_or_default();
    let prepared = totals.get("cli.run_prepared").copied().unwrap_or_default();
    // Two exec runs bracket each run_prepared.
    let render_us = (prepared.total_ns as f64 - exec.total_ns as f64 / 2.0)
        / prepared.count.max(1) as f64
        / 1e3;
    let (coverage, unattributed_ns, roots) = t.coverage(root);
    vec![
        Metric::new("syntax.parse_us", us("syntax.parse"), "us"),
        Metric::new(
            "syntax.parse_bytes_per_us",
            c.parsed_bytes as f64 / sum_us("syntax.parse").max(1e-9),
            "bytes/us",
        ),
        Metric::new("syntax.table_us", us("syntax.table"), "us"),
        Metric::new("core.typeck_us", us("core.typeck"), "us"),
        Metric::new(
            "core.obligations",
            c.obligations as f64 / c.compiled.max(1) as f64,
            "count",
        ),
        Metric::new("runtime.lower_us", us("runtime.lower"), "us"),
        Metric::new("workloads.compile_us", us("workloads.compile"), "us"),
        Metric::new("workloads.lookup_us", us("workloads.lookup"), "us"),
        Metric::new("runtime.stack_spawn_us", us("runtime.stack_spawn"), "us"),
        Metric::new("runtime.exec_us", us("runtime.exec"), "us"),
        Metric::new("runtime.first_run_us", us("runtime.first_run"), "us"),
        Metric::new("runtime.steps", c.steps as f64 / runs, "count"),
        Metric::new(
            "runtime.steps_per_us",
            c.steps as f64 / (sum_us("runtime.exec") + sum_us("runtime.first_run")).max(1e-9),
            "steps/us",
        ),
        Metric::new(
            "runtime.threaded_compiles",
            c.threaded_compiles as f64 / runs,
            "count",
        ),
        Metric::new("runtime.deopts", c.deopts as f64 / runs, "count"),
        Metric::new("runtime.snapshots", c.snapshots as f64 / runs, "count"),
        Metric::new("runtime.copies", c.copies as f64 / runs, "count"),
        Metric::new("cli.render_us", render_us, "us"),
        Metric::new("cli.check_us", us("cli.check"), "us"),
        Metric::new("trace.coverage_pct", coverage * 100.0, "%"),
        Metric::new(
            "trace.unattributed_us",
            unattributed_ns as f64 / roots.max(1) as f64 / 1e3,
            "us",
        ),
    ]
}
