//! The ENT interpreter: the paper's operational semantics (§4.2) extended
//! with the practical expression forms, executing against the simulated
//! energy platform.
//!
//! The interpreter executes the indexed IR produced by [`crate::lower`]:
//! programs are lowered once at load time — names interned to dense ids,
//! variables resolved to frame slots, fields to per-class slot offsets,
//! sends to vtable indices, mode environments to indexed vectors — and the
//! evaluator then runs without any string comparison, name-keyed map probe,
//! or environment cloning on its hot paths. [`run`] lowers and runs in one
//! call; [`run_lowered`] executes an already-lowered program (the perf
//! harness lowers once and runs many times).
//!
//! The ENT-specific runtime machinery:
//!
//! * **Mode tagging** — every object carries a mode tag; dynamic objects
//!   are untagged (`?`) until snapshotted.
//! * **Snapshot** — evaluates the object's attributor, performs the `check`
//!   against the declared bounds (throwing the catchable
//!   [`RtError::EnergyException`] on a *bad check*), and produces a
//!   statically-moded copy. Copying is lazy, as in the paper's compiler: the
//!   first snapshot tags the object in place; only subsequent snapshots
//!   physically (shallowly) copy.
//! * **dfall** — the dynamic waterfall invariant is re-checked at every
//!   message send; for well-typed programs it never fires (Corollary 1),
//!   which the soundness tests verify.

// The bytecode engine's executor lives in its own file but is a child
// module of the interpreter: its op handlers call straight into the
// private machinery below (heap, invoke, snapshot, builtins, events,
// profiler), so both engines observe identical semantics structurally.
#[path = "threaded/mod.rs"]
pub(crate) mod threaded;

// The enforcement strategies (guarded/transient) are likewise child
// modules: every obligation check both engines perform funnels through
// the seam in `enforce`, which dispatches on
// `RuntimeConfig::enforcement`.
#[path = "enforce/mod.rs"]
mod enforce;

pub use enforce::Enforcement;

use std::sync::Arc;

use ent_core::CompiledProgram;
use ent_energy::{
    EnergySim, FaultInjector, FaultPlan, Measurement, Platform, Sample, SensorKind, SensorRead,
    WorkKind,
};
use ent_modes::ModeName;
use ent_syntax::{BinOp, Symbol, UnOp};

use crate::compile::BuiltinSite;
use crate::error::{Flow, RtError};
use crate::events::{EnergyEvent, EventPayload, EventRing, FaultServe};
use crate::lower::{
    else_branch, lower_program, BOp, Body, CastCheck, EnvSrc, GMode, LMethod, LMode, LOverride,
    LStmt, LoweredProgram, MDefault, MethodEntry, Node, NodeId, Seq,
};
use crate::profile::{
    AnyProfiler, Profile, ProfileMode, ProfileReport, SampledProfile, StackShadow,
};
use crate::value::{discard, put, ObjRef, Value};

/// Which evaluation engine executes method bodies.
///
/// Both engines run the same lowered IR through the same runtime machinery
/// (heap, snapshots, dfall checks, builtins, events, profiler) and are
/// bit-identical in every observable — output, `RunStats`, event stream,
/// telemetry, errors — which the differential fuzz harness and the
/// committed-figures test (`crates/bench/tests/determinism.rs`) pin under
/// both settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The recursive tree-walking evaluator over the lowered node IR.
    Tree,
    /// Closure-threaded register bytecode: each body is compiled lazily
    /// (once per program, cached on the lowered program so batch runs
    /// share it) into a flat array of fn-pointer ops with pre-resolved
    /// operands, superinstructions and mode-decision inline caches. A
    /// body too large for the op format runs on the tree walker. The
    /// default.
    #[default]
    Bytecode,
}

impl Engine {
    /// Parses a CLI-facing engine name (`tree` | `bytecode`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "tree" => Some(Engine::Tree),
            "bytecode" => Some(Engine::Bytecode),
            _ => None,
        }
    }

    /// The CLI-facing name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Bytecode => "bytecode",
        }
    }
}

/// A one-valued placeholder that selects nothing: the bytecode engine
/// has one executor, so there is no tier to choose. It exists only
/// because the benchmark in `perfbench/` names it, with
/// [`RuntimeConfig::tier_up`] and `ent_cli::Options::tier_up`; ROADMAP
/// item 9 deletes all three with the benchmark's next change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierUp;

impl TierUp {
    /// Returns [`TierUp`] and reads no environment variable (kept for
    /// `perfbench/`, ROADMAP item 9).
    pub fn from_env() -> TierUp {
        TierUp
    }
}

/// Configuration for a single program run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Suppress ENT's runtime errors (failed checks proceed as if they had
    /// passed). This is the paper's "silent" configuration for the E1
    /// experiments: tagging stays in place, exceptions are never thrown.
    pub silent: bool,
    /// Model the runtime cost of mode tagging and snapshot copying as
    /// simulator work (disable for the no-op baseline of Figure 6).
    pub tagging: bool,
    /// Initial battery level fraction.
    pub battery_level: f64,
    /// Gas limit: abstract evaluation steps before [`RtError::OutOfGas`].
    pub gas_limit: u64,
    /// Seed for the simulator's noise and `Sim.rand`.
    pub seed: u64,
    /// Sample a `(time, temperature)` trace at this interval, in seconds.
    pub trace_interval_s: Option<f64>,
    /// Ablation: copy on *every* snapshot instead of the paper's lazy
    /// strategy (first snapshot tags in place).
    pub eager_copy: bool,
    /// Ablation: deep-copy the object graph on snapshot instead of the
    /// paper's shallow copy (§6.3 discusses this design choice).
    pub deep_copy: bool,
    /// Record structured [`EnergyEvent`]s in [`RunResult::events`]. Events
    /// are fixed-size interned-id records written into a preallocated ring
    /// buffer, so recording costs a branch plus a store and is safe to
    /// leave on during benchmark runs. Off by default (the zero-overhead
    /// configuration records nothing at all).
    pub record_events: bool,
    /// Ring-buffer capacity for event recording: the newest
    /// `events_capacity` events are retained, older ones are counted in
    /// [`crate::EventRing::dropped`].
    pub events_capacity: usize,
    /// Attribute steps, simulated energy/time, snapshots, copies, and
    /// check failures to the method call tree, reported as
    /// [`RunResult::profile`]. Three-state: `Off` (default; the
    /// interpreter pays only a branch per frame), `Exact` (the
    /// shadow-call-tree ground truth), or `Sampled` (periodic stack
    /// sampling with confidence intervals — see [`crate::SampledProfile`]).
    pub profile: ProfileMode,
    /// Stack size, in bytes, of the worker thread the evaluator recurses
    /// on (deep-but-legitimate ENT recursion needs far more stack than a
    /// default thread provides). Defaults to
    /// [`crate::default_stack_size`]: 512 MiB of lazily-committed virtual
    /// memory, overridable process-wide via `ENT_STACK_SIZE` (bytes, or
    /// with a `k`/`m`/`g` suffix). Clamped to at least 1 MiB.
    pub stack_size: usize,
    /// Deterministic sensor-fault regime to inject, seeded by
    /// [`RuntimeConfig::fault_seed`]. `None` (or a no-op plan) keeps the
    /// interpreter on exactly its historical code path — one branch per
    /// sensor read, bit-identical results.
    pub faults: Option<FaultPlan>,
    /// Seed for the fault injector's decision stream — deliberately
    /// separate from [`RuntimeConfig::seed`] so the same program run can
    /// be replayed under different fault schedules (and vice versa).
    pub fault_seed: u64,
    /// How long (virtual seconds) a last-known-good sensor reading may be
    /// served for a faulted read before the runtime stops trusting it and
    /// degrades to the conservative sentinel.
    pub staleness_bound_s: f64,
    /// Which engine executes method bodies (bytecode by default; `tree`
    /// keeps the recursive evaluator for differential testing and
    /// benchmarking).
    pub engine: Engine,
    /// Which enforcement strategy discharges mode obligations: `guarded`
    /// (the paper's deep snapshot/dfall semantics; default) or
    /// `transient` (shallow first-order checks with check-site blame —
    /// see [`Enforcement`]).
    pub enforcement: Enforcement,
    /// Selects nothing; kept for `perfbench/` until ROADMAP item 9 (see
    /// [`TierUp`]).
    pub tier_up: TierUp,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            silent: false,
            tagging: true,
            battery_level: 1.0,
            gas_limit: 200_000_000,
            seed: 0,
            trace_interval_s: None,
            eager_copy: false,
            deep_copy: false,
            record_events: false,
            events_capacity: 16_384,
            profile: ProfileMode::Off,
            stack_size: crate::stack::default_stack_size(),
            faults: None,
            fault_seed: 0,
            staleness_bound_s: 5.0,
            engine: Engine::default(),
            enforcement: Enforcement::default(),
            tier_up: TierUp,
        }
    }
}

/// Statistics gathered during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Abstract evaluation steps executed.
    pub steps: u64,
    /// Snapshot expressions evaluated.
    pub snapshots: u64,
    /// Physical object copies made by snapshots (lazy copying makes this
    /// less than or equal to `snapshots`).
    pub copies: u64,
    /// `EnergyException`s raised (including caught ones).
    pub energy_exceptions: u64,
    /// Snapshot checks whose produced mode fell outside the declared
    /// bounds (a subset of `energy_exceptions`; also counted when
    /// running silent).
    pub snapshot_failures: u64,
    /// Dynamic waterfall checks that failed at a message send (the other
    /// subset of `energy_exceptions`).
    pub dfall_failures: u64,
    /// Objects allocated with a dynamic mode (the tagged portion of the
    /// heap).
    pub dynamic_allocs: u64,
    /// Total objects allocated.
    pub allocs: u64,
    /// Sensor reads that came back faulted (dropped, stale, or silently
    /// corrupted). Always 0 without fault injection.
    pub sensor_faults: u64,
    /// Faulted reads served from the last-known-good value within the
    /// staleness bound (a subset of `sensor_faults`).
    pub stale_reads: u64,
    /// Mode decisions (snapshots or method attributions) taken while a
    /// sensor read had degraded past the staleness bound: the runtime
    /// substituted the conservative mode (the snapshot's `lo`, or the
    /// sender's mode for method attributors).
    pub degraded_decisions: u64,
    /// Shallow checks performed by the transient enforcement strategy
    /// (boundaries, call sites, and field reads). Always 0 under guarded.
    pub transient_checks: u64,
    /// Transient checks that failed (each also counts toward
    /// `energy_exceptions`; disjoint from `snapshot_failures` and
    /// `dfall_failures`, which belong to the guarded strategy).
    pub transient_failures: u64,
}

/// Bytecode compiles for one run, kept only because the benchmark in
/// `perfbench/` reads them; ROADMAP item 9 deletes this with the
/// benchmark's next change. Not part of [`RunStats`] or of any telemetry:
/// a run over a cached program compiles nothing, so the counts differ
/// between two runs of one program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bodies compiled to threaded ops during this run (program-wide
    /// caching makes this 0 once every body a run enters was compiled).
    pub threaded_compiles: u64,
}

impl TierStats {
    /// Always 0: nothing deopts, as there is one executor (kept for
    /// `perfbench/`, ROADMAP item 9).
    pub fn deopts(&self) -> u64 {
        0
    }
}

/// The result of running an ENT program.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The value `main` returned, or the error that stopped the program.
    pub value: Result<Value, RtError>,
    /// A deep, heap-resolved rendering of the result value (objects print
    /// as `Class@mode{field=…}`), for display and for differential tests
    /// against the formal machine. `None` when the run failed.
    pub value_pretty: Option<String>,
    /// The simulator's final measurement (energy, time, peak temperature).
    pub measurement: Measurement,
    /// Lines produced by `IO.print`.
    pub output: Vec<String>,
    /// Runtime statistics.
    pub stats: RunStats,
    /// The sampled `(time, temperature)` trace, if sampling was enabled —
    /// the temperature column of [`RunResult::samples`], kept in this
    /// shape for the E3 experiment harness.
    pub trace: Vec<(f64, f64)>,
    /// The full periodic state samples (time, temperature, battery,
    /// energy), if [`RuntimeConfig::trace_interval_s`] was set.
    pub samples: Vec<Sample>,
    /// Structured energy events, oldest-first (§6.3 debugging). Empty
    /// unless [`RuntimeConfig::record_events`] was set; render with
    /// [`crate::render_event`].
    pub events: EventRing,
    /// The per-method attribution report — exact or sampled, matching
    /// [`RuntimeConfig::profile`] — when profiling was on.
    pub profile: Option<ProfileReport>,
    /// The enforcement strategy the run executed under (mirrors
    /// [`RuntimeConfig::enforcement`]; surfaced in telemetry).
    pub enforcement: Enforcement,
    /// Bodies this run compiled (see [`TierStats`]).
    pub tier: TierStats,
}

/// Runs a compiled program's `Main.main()` on a simulated platform.
///
/// Lowers the program to the indexed runtime IR and executes it; to run
/// the same program many times, lower once with [`lower_program`] and call
/// [`run_lowered`] per run.
///
/// # Example
///
/// ```
/// use ent_core::compile;
/// use ent_energy::Platform;
/// use ent_runtime::{run, RuntimeConfig, Value};
///
/// let compiled = compile(
///     "class Main { int main() { return 6 * 7; } }",
/// ).unwrap();
/// let result = run(&compiled, Platform::system_a(), RuntimeConfig::default());
/// assert_eq!(result.value.unwrap(), Value::Int(42));
/// ```
pub fn run(compiled: &CompiledProgram, platform: Platform, config: RuntimeConfig) -> RunResult {
    let lowered = lower_program(compiled);
    run_lowered(&lowered, platform, config)
}

/// Runs an already-lowered program's `Main.main()` on a simulated platform.
///
/// # Example
///
/// ```
/// use ent_core::compile;
/// use ent_energy::Platform;
/// use ent_runtime::{lower_program, run_lowered, RuntimeConfig, Value};
///
/// let compiled = compile(
///     "class Main { int main() { return 6 * 7; } }",
/// ).unwrap();
/// let lowered = lower_program(&compiled);
/// for seed in 0..3 {
///     let config = RuntimeConfig { seed, ..RuntimeConfig::default() };
///     let result = run_lowered(&lowered, Platform::system_a(), config);
///     assert_eq!(result.value.unwrap(), Value::Int(42));
/// }
/// ```
pub fn run_lowered(prog: &LoweredProgram, platform: Platform, config: RuntimeConfig) -> RunResult {
    // ENT iteration is recursion-based, and the evaluator is recursive, so
    // deep-but-legitimate programs need far more stack than a default test
    // thread provides (the explicit call-depth guard turns true runaway
    // recursion into `RtError::StackOverflow` long before the big stack is
    // exhausted). `with_interp_stack` runs the evaluation on a scoped
    // big-stack worker — or directly, when the current thread already is
    // one (the batch engine's and `ent-serve`'s pool workers, which
    // amortize one spawn over many runs). Re-entrant and concurrency-safe:
    // any number of threads may run the same `LoweredProgram`
    // simultaneously.
    let stack_size = config.stack_size;
    crate::stack::with_interp_stack(stack_size, move || {
        run_on_current_thread(prog, platform, config)
    })
}

// The engine hands one `LoweredProgram` to many worker threads at once and
// `with_interp_stack` ships borrowed programs and results across threads;
// both are sound only while these stay thread-safe (the interners inside
// are `Arc<str>`-backed), so regressions fail here at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<LoweredProgram>();
const _: () = assert_send_sync::<RunResult>();
const _: () = assert_send_sync::<RuntimeConfig>();

fn run_on_current_thread(
    prog: &LoweredProgram,
    platform: Platform,
    config: RuntimeConfig,
) -> RunResult {
    let mut sim = EnergySim::new(platform, config.seed);
    sim.set_battery_level(config.battery_level);
    if let Some(interval) = config.trace_interval_s {
        sim.enable_sampling(interval);
    }
    // A no-op plan must not even install an injector: the fault-off run
    // (and the `--faults off` run) stays on the historical code path.
    let faults_on = match &config.faults {
        Some(plan) if !plan.is_noop() => {
            sim.set_fault_injector(Some(FaultInjector::new(plan.clone(), config.fault_seed)));
            true
        }
        _ => false,
    };
    let mut interp = Interp {
        prog,
        heap: Vec::new(),
        sim,
        output: Vec::new(),
        stats: RunStats::default(),
        depth: 0,
        max_depth: max_call_depth(config.stack_size),
        stack_floor: match crate::stack::STACK_LOW.with(std::cell::Cell::get) {
            0 => 0,
            low => low + STACK_RESERVE,
        },
        events: if config.record_events {
            EventRing::with_capacity(config.events_capacity)
        } else {
            EventRing::default()
        },
        profiler: AnyProfiler::new(config.profile),
        faults_on,
        last_good: [None; 2],
        degraded: false,
        locals_pool: Vec::new(),
        env_pool: Vec::new(),
        ic_send: Vec::new(),
        ic_arm: Vec::new(),
        ic_snap: Vec::new(),
        compiles: 0,
        config,
    };
    let value = interp.run_main();
    let value_pretty = value.as_ref().ok().map(|v| interp.render_deep(v, 0));
    // Noise-free end-of-run totals for the profilers, read before
    // `finish()` applies measurement noise to the whole-run figures.
    let end_steps = interp.stats.steps;
    let end_energy_j = interp.sim.energy_j();
    let end_time_s = interp.sim.time_s();
    let measurement = interp.sim.finish();
    let samples = interp.sim.samples().to_vec();
    let trace = samples.iter().map(|p| (p.t_s, p.temp_c)).collect();
    let profile = interp.profiler.take().map(|mut p| {
        p.on_finish(end_steps);
        match p {
            AnyProfiler::Exact(e) => ProfileReport::Exact(Profile::build(&e, prog)),
            AnyProfiler::Sampled(s) => ProfileReport::Sampled(SampledProfile::build(
                &s,
                prog,
                end_steps,
                end_energy_j,
                end_time_s,
            )),
        }
    });
    RunResult {
        value,
        value_pretty,
        measurement,
        output: interp.output,
        stats: interp.stats,
        trace,
        samples,
        events: interp.events,
        profile,
        enforcement: interp.config.enforcement,
        tier: TierStats {
            threaded_compiles: interp.compiles,
        },
    }
}

/// Maximum ENT call depth before [`RtError::StackOverflow`].
const MAX_CALL_DEPTH: usize = 50_000;

/// Native stack budgeted per ENT call frame when deriving the depth limit
/// from a configured stack size. Measured the same way as the debug
/// budget below: the tree walker takes 1.9 KiB per plain self-call and
/// 3.3 KiB under four more binary operators, bytecode 1.1 KiB. The
/// headroom absorbs expression-nesting frames that add native depth
/// without ENT depth. At the default 512 MiB stack the derived limit
/// exceeds `MAX_CALL_DEPTH`, so default behavior is unchanged.
#[cfg(not(debug_assertions))]
const STACK_BYTES_PER_FRAME: usize = 8 * 1024;
/// Unoptimized frames are several times larger than release frames.
/// Measured on a debug `ent` by bisecting the deepest self-call that
/// completes on a 64 MiB stack: the tree walker takes 7.8 KiB per call of
/// `return 1 + this.go(n - 1)` and 16.4 KiB when the call sits under four
/// more binary operators; bytecode takes 3.8 KiB. So a debug run with a
/// small configured stack stops at [`RtError::StackOverflow`] instead of
/// overflowing the native stack and aborting the process. (With every
/// arm's locals in one `eval` frame, the tree walker took 29.4 and
/// 61.7 KiB, past this budget.)
#[cfg(debug_assertions)]
const STACK_BYTES_PER_FRAME: usize = 24 * 1024;

/// Native stack the tree walker leaves unused: [`Interp::eval`] stops
/// with [`RtError::StackOverflow`] once it runs within this many bytes of
/// the worker's estimated stack end. The depth limit alone cannot stop a
/// body that nests expressions around its recursive call, because each
/// level adds native frames without adding ENT depth. Measured with
/// `ent run --engine tree` on self-calls 100000 deep under 1, 4, 8, 40
/// and 200 nested additions, and under a snapshot and a send per level,
/// on 1 MiB and 16 MiB stacks: the smallest reserve that turns every
/// abort into exit 3 is 16 KiB in debug builds and 8 KiB in release
/// (it covers the estimate's error and the deepest native path from one
/// check to the next). This keeps four times the larger.
const STACK_RESERVE: usize = 64 * 1024;

/// The ENT call-depth limit for a given interpreter stack size: small
/// configured stacks must fail with [`RtError::StackOverflow`] rather
/// than overflow the native stack and abort the process.
fn max_call_depth(stack_size: usize) -> usize {
    MAX_CALL_DEPTH
        .min(stack_size / STACK_BYTES_PER_FRAME)
        .max(64)
}

/// Largest array a single `Arr.make`/`Arr.range` may allocate (16M
/// elements ≈ 0.5 GiB of `Value`s): a hostile `Arr.make(9e18, v)` must
/// surface as a runtime error, not an allocator abort.
const MAX_ARRAY_LEN: i64 = 1 << 24;

/// Simulator work charged per snapshot (attributor dispatch + metadata).
const SNAPSHOT_OVERHEAD_OPS: f64 = 1.2e4;
/// Simulator work charged per physical snapshot copy.
const COPY_OVERHEAD_OPS: f64 = 3.0e4;
/// Simulator work charged per dynamic (tagged) allocation.
const TAG_OVERHEAD_OPS: f64 = 2.0e3;

/// The runtime mode tag of an object: dynamic objects are untagged until
/// their first snapshot.
#[derive(Clone, Copy, Debug)]
enum RtTag {
    Dynamic,
    Ground(GMode),
}

impl RtTag {
    fn ground(self) -> Option<GMode> {
        match self {
            RtTag::Dynamic => None,
            RtTag::Ground(m) => Some(m),
        }
    }
}

/// A heap object.
#[derive(Clone, Debug)]
struct ObjData {
    /// Class id (index into [`LoweredProgram::classes`]).
    class: u32,
    mode: RtTag,
    /// Ground bindings for the class's mode parameters, slot-indexed
    /// ([`GMode::Missing`] marks an unbound parameter; the internal
    /// parameter of a dynamic object is bound at snapshot time).
    mode_env: Vec<GMode>,
    fields: Vec<Value>,
    /// Lazy-copy metadata: whether this dynamic object has been
    /// snapshotted before (paper §5, "Implementation").
    snapshotted: bool,
}

/// A call frame.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Slot-indexed locals: parameters first, then block-scoped lets.
    locals: Vec<Value>,
    this_ref: Option<ObjRef>,
    /// The current closure mode `m` of `cl(m, e)`.
    mode: GMode,
    /// Slot-indexed mode environment (layout fixed at lowering time).
    env: Vec<GMode>,
    /// First parameter slot that received no argument (arity-mismatched
    /// unchecked calls); reads at or above it report "unbound variable".
    unbound_lo: u32,
    /// Declared parameter count (slots below it are parameters).
    n_params: u32,
}

impl Frame {
    /// Writes register `r` through [`put`]: a plain old value is
    /// overwritten without running drop glue.
    #[inline(always)]
    fn set(&mut self, r: usize, v: Value) {
        put(&mut self.locals[r], v);
    }
}

/// Pads or truncates call arguments to the declared parameter count,
/// returning the slot-indexed locals and the first unbound parameter slot
/// (`u32::MAX` when fully applied).
fn make_locals(mut args: Vec<Value>, n_params: u32) -> (Vec<Value>, u32) {
    let n = n_params as usize;
    let unbound_lo = if args.len() < n {
        args.len() as u32
    } else {
        u32::MAX
    };
    args.resize(n, Value::Unit);
    (args, unbound_lo)
}

/// Projects an object's mode environment through a pre-compiled
/// (class → owner) environment map, appending into `out` (a recycled
/// vector from [`Interp::grab_env`] at the hot call sites).
fn apply_env_into(obj_env: &[GMode], map: &[EnvSrc], out: &mut Vec<GMode>) {
    out.extend(map.iter().map(|src| match *src {
        EnvSrc::Copy(i) => obj_env[i as usize],
        EnvSrc::SlotOrVar { slot, var } => match obj_env[slot as usize] {
            GMode::Missing => GMode::Var(var),
            g => g,
        },
        EnvSrc::Ground(g) => g,
    }));
}

pub(crate) struct Interp<'p> {
    prog: &'p LoweredProgram,
    heap: Vec<ObjData>,
    sim: EnergySim,
    config: RuntimeConfig,
    output: Vec<String>,
    stats: RunStats,
    /// Current ENT call depth (for the stack guard).
    depth: usize,
    /// Depth limit derived from the configured stack size.
    max_depth: usize,
    /// The tree walker stops with [`RtError::StackOverflow`] when the
    /// native stack reaches below this address: the worker's stack end
    /// plus [`STACK_RESERVE`], or 0 off an interpreter worker.
    stack_floor: usize,
    /// Structured event ring (only fed when `record_events` is on).
    events: EventRing,
    /// The attribution profiler — exact or sampled — when `profile` is
    /// not `Off`.
    profiler: Option<AnyProfiler>,
    /// Whether a (non-noop) fault injector is installed. When false,
    /// sensor reads take the historical direct path — one predictable
    /// branch, bit-identical behavior.
    faults_on: bool,
    /// Last clean `(virtual time, value)` per sensor
    /// ([`SensorKind::index`]-indexed), for the last-known-good fallback.
    last_good: [Option<(f64, f64)>; 2],
    /// Set when a faulted read degrades past the staleness bound; mode
    /// decisions consult and clear it to substitute conservative modes.
    degraded: bool,
    /// Recycled call-frame register files: completed invocations park
    /// their `locals` vector here and bytecode call sites draw argument
    /// vectors from it, so steady-state calls reuse one allocation whose
    /// capacity already grew to the largest `frame_size` seen instead of
    /// paying a malloc (and a realloc in `run_body`) plus a free per call.
    locals_pool: Vec<Vec<Value>>,
    /// Recycled mode-environment vectors, pooled like `locals_pool`: every
    /// send projects the receiver's environment through the entry's map
    /// into one of these instead of a fresh allocation.
    env_pool: Vec<Vec<GMode>>,
    /// Per-run send-site inline caches (bytecode engine), indexed by the
    /// program-wide site ids allocated during lazy compilation. Grown on
    /// demand; never shared across runs, so no cross-run or cross-thread
    /// contamination is possible.
    ic_send: Vec<Option<threaded::SendIc<'p>>>,
    /// Per-run `<|` arm-selection caches (bytecode engine).
    ic_arm: Vec<Option<threaded::ArmIc>>,
    /// Per-run snapshot bounds-verdict caches (bytecode engine).
    ic_snap: Vec<Option<threaded::SnapIc>>,
    /// Bodies this run compiled ([`TierStats::threaded_compiles`]).
    compiles: u64,
}

type EvalResult = Result<Value, Flow>;

impl<'p> Interp<'p> {
    fn run_main(&mut self) -> Result<Value, RtError> {
        let Some((main_class, main_method)) = self.prog.main else {
            return Err(RtError::NoMain);
        };
        let n_params = self.prog.classes[main_class as usize].n_mode_params as usize;
        // boot(P) = cl(⊤, main-body) on a fresh Main object.
        let this_ref = match self.allocate(
            main_class,
            Vec::new(),
            RtTag::Ground(GMode::Top),
            vec![GMode::Missing; n_params],
        ) {
            Ok(r) => r,
            Err(Flow::Error(e)) => return Err(e),
            Err(Flow::Return(_)) => unreachable!("allocation cannot return"),
        };
        match self.invoke(this_ref, main_method, Vec::new(), &[], GMode::Top, None) {
            Ok(v) => Ok(v),
            Err(Flow::Return(v)) => Ok(v),
            Err(Flow::Error(e)) => Err(e),
        }
    }

    #[inline]
    fn gas(&mut self) -> Result<(), Flow> {
        self.stats.steps += 1;
        if self.stats.steps > self.config.gas_limit {
            Err(RtError::OutOfGas.into())
        } else {
            Ok(())
        }
    }

    /// Charges `n` gas at once. Only sound for charges that are
    /// *consecutive* in the tree-walker (nothing observable between them);
    /// the clamp makes the out-of-gas step count identical to charging one
    /// at a time, where the first exceeding charge stops at `limit + 1`.
    #[inline]
    fn gas_n(&mut self, n: u64) -> Result<(), Flow> {
        self.stats.steps += n;
        if self.stats.steps > self.config.gas_limit {
            self.stats.steps = self.config.gas_limit + 1;
            Err(RtError::OutOfGas.into())
        } else {
            Ok(())
        }
    }

    /// Hands out an empty argument vector for a call site, preferring a
    /// recycled register file from [`Self::recycle_locals`] (whose
    /// capacity has already grown to a previous callee's `frame_size`)
    /// over a fresh allocation.
    #[inline]
    pub(crate) fn grab_locals(&mut self, n_args: usize) -> Vec<Value> {
        match self.locals_pool.pop() {
            Some(v) => v,
            // Headroom above the argument count so the callee's register
            // file usually fits without a realloc even on a cold vector.
            None => Vec::with_capacity(n_args.max(16)),
        }
    }

    /// Parks a finished frame's register file for reuse. Values were
    /// already drained or are dropped here, plain ones without drop glue
    /// (see [`put`]); only the allocation survives.
    #[inline]
    fn recycle_locals(&mut self, mut locals: Vec<Value>) {
        // A small cap bounds retained memory; one entry per live call
        // depth is the steady-state need, and deep recursion past the cap
        // simply falls back to fresh allocations.
        if self.locals_pool.len() < 64 {
            locals.drain(..).for_each(discard);
            self.locals_pool.push(locals);
        }
    }

    /// Hands out an empty mode-environment vector, preferring a recycled
    /// one from [`Self::recycle_env`] over a fresh allocation.
    #[inline]
    fn grab_env(&mut self) -> Vec<GMode> {
        self.env_pool.pop().unwrap_or_default()
    }

    /// Parks a finished frame's mode environment for reuse.
    #[inline]
    fn recycle_env(&mut self, mut env: Vec<GMode>) {
        if self.env_pool.len() < 64 {
            env.clear();
            self.env_pool.push(env);
        }
    }

    /// The current energy-decision window: mode-decision inline caches are
    /// keyed by it so they invalidate on window roll. 0 with faults off
    /// (the cached decisions are pure lattice functions of their keys, so
    /// this is a freshness policy, not a correctness requirement).
    fn decision_window(&self) -> u64 {
        match &self.config.faults {
            Some(plan) if self.faults_on && plan.window_s > 0.0 => {
                (self.sim.time_s().max(0.0) / plan.window_s) as u64
            }
            _ => 0,
        }
    }

    /// Executes one lowered body on the configured engine. The bytecode
    /// engine lazily compiles it (once per program, so batch runs compile
    /// once), resizes the frame's register file and runs the ops.
    fn run_body(&mut self, frame: &mut Frame, body: &'p Body) -> EvalResult {
        if self.config.engine == Engine::Tree {
            return self.eval(frame, body.root);
        }
        // The engines are observationally identical, so a body too large
        // for the op format runs on the tree walker unnoticed.
        let Some(code) = body.code_or_compile(&self.prog.ir, &self.prog.ic, &mut self.compiles)
        else {
            return self.eval(frame, body.root);
        };
        frame.locals.resize(code.frame_size as usize, Value::Unit);
        threaded::enter(self, frame, code)
    }

    /// The single "virtual time advanced" hook: every interpreter-driven
    /// simulator interaction that moves the clock goes through here, so
    /// cross-cutting observers see one callback instead of scattered call
    /// sites. The simulator's own sampler fires inside `f` at sub-step
    /// resolution; the profiler reads the energy/time delta around it and
    /// charges the innermost frame.
    #[inline]
    fn advance_sim(&mut self, f: impl FnOnce(&mut EnergySim)) {
        match self.profiler.as_mut() {
            // The sampler reads the accumulators only at capture points,
            // so only exact mode pays the delta bookkeeping.
            None | Some(AnyProfiler::Sampled(_)) => f(&mut self.sim),
            Some(AnyProfiler::Exact(p)) => {
                let e0 = self.sim.energy_j();
                let t0 = self.sim.time_s();
                f(&mut self.sim);
                p.charge_sim(self.sim.energy_j() - e0, self.sim.time_s() - t0);
            }
        }
    }

    /// Reads a sensor through the fault layer and the degradation policy.
    /// With faults off this is exactly the historical direct read.
    ///
    /// The degradation ladder: a clean read refreshes last-known-good; a
    /// corrupted read passes through undetected (the runtime cannot tell);
    /// a detectable fault (dropped/stale) serves last-known-good while it
    /// is younger than the staleness bound, and past the bound serves the
    /// conservative sentinel (battery empty / temperature hot) and sets
    /// the `degraded` flag so the surrounding mode decision can substitute
    /// its conservative mode.
    fn read_sensor(&mut self, kind: SensorKind) -> f64 {
        if !self.faults_on {
            return match kind {
                SensorKind::Battery => self.sim.battery_level(),
                SensorKind::Temperature => self.sim.temperature_c(),
            };
        }
        let t = self.sim.time_s();
        let idx = kind.index();
        match self.sim.read_sensor(kind) {
            SensorRead::Clean(v) => {
                self.last_good[idx] = Some((t, v));
                v
            }
            SensorRead::Corrupted(v) => {
                self.stats.sensor_faults += 1;
                self.record_sensor_fault(kind, FaultServe::Corrupted);
                v
            }
            SensorRead::Stale | SensorRead::Dropped => {
                self.stats.sensor_faults += 1;
                match self.last_good[idx] {
                    Some((t0, v)) if t - t0 <= self.config.staleness_bound_s => {
                        self.stats.stale_reads += 1;
                        self.record_sensor_fault(kind, FaultServe::LastKnownGood);
                        v
                    }
                    _ => {
                        self.degraded = true;
                        self.record_sensor_fault(kind, FaultServe::Conservative);
                        match kind {
                            SensorKind::Battery => 0.0,
                            SensorKind::Temperature => 999.0,
                        }
                    }
                }
            }
        }
    }

    fn record_sensor_fault(&mut self, sensor: SensorKind, served: FaultServe) {
        if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
            c.sensor_faults += 1;
        }
        if self.config.record_events {
            self.events.push(EnergyEvent {
                at_s: self.sim.time_s(),
                payload: EventPayload::SensorFault { sensor, served },
            });
        }
    }

    /// Deep, heap-resolved rendering of a value (bounded recursion depth
    /// to stay safe on cyclic heaps).
    fn render_deep(&self, v: &Value, depth: usize) -> String {
        if depth > 16 {
            return "…".to_string();
        }
        match v {
            Value::Obj(r) => {
                let data = &self.heap[*r];
                let layout = &self.prog.classes[data.class as usize];
                let mode = match data.mode {
                    RtTag::Dynamic => "?".to_string(),
                    RtTag::Ground(m) => self.prog.mode_disp(m).to_string(),
                };
                let parts: Vec<String> = layout
                    .field_order
                    .iter()
                    .zip(&data.fields)
                    .map(|(n, fv)| format!("{n}={}", self.render_deep(fv, depth + 1)))
                    .collect();
                format!("{}@{mode}{{{}}}", layout.name, parts.join(","))
            }
            Value::MCase(arms) => {
                let parts: Vec<String> = arms
                    .iter()
                    .map(|(m, av)| format!("{m}:{}", self.render_deep(av, depth + 1)))
                    .collect();
                format!("mcase{{{}}}", parts.join(";"))
            }
            Value::Array(items) => {
                let parts: Vec<String> = items
                    .iter()
                    .map(|iv| self.render_deep(iv, depth + 1))
                    .collect();
                format!("[{}]", parts.join(", "))
            }
            other => other.to_string(),
        }
    }

    // ---- modes -----------------------------------------------------------

    /// Resolves a lowered mode expression to a ground mode using the
    /// frame's slot-indexed mode environment.
    fn resolve_mode(&self, frame: &Frame, m: &LMode) -> Result<GMode, Flow> {
        match *m {
            LMode::Ground(g) => Ok(g),
            LMode::Param { slot, var } => match frame.env[slot as usize] {
                GMode::Missing => Err(self.unbound_mode_var(var)),
                g => Ok(g),
            },
            LMode::Unbound(var) => Err(self.unbound_mode_var(var)),
        }
    }

    fn unbound_mode_var(&self, var: u32) -> Flow {
        RtError::Native(format!(
            "unbound mode variable `{}`",
            self.prog.mode_vars.resolve(Symbol::from_raw(var))
        ))
        .into()
    }

    /// Maps an attributor-produced mode name back to its dense id.
    ///
    /// Lowering interns every mode name the program mentions, so the
    /// lookup cannot fail for programs produced by `lower_program`; it is
    /// still surfaced as a structured runtime error rather than a panic so
    /// a hand-assembled or corrupted IR degrades instead of aborting.
    fn mode_const(&self, m: &ModeName) -> Result<GMode, Flow> {
        match self.prog.mode_names.get(m.as_str()) {
            Some(sym) => Ok(GMode::Const(sym.raw())),
            None => {
                Err(RtError::Native(format!("mode `{m}` is not declared by this program")).into())
            }
        }
    }

    // ---- heap -------------------------------------------------------------

    fn allocate(
        &mut self,
        class: u32,
        ctor_vals: Vec<Value>,
        mode: RtTag,
        mode_env: Vec<GMode>,
    ) -> Result<ObjRef, Flow> {
        let prog = self.prog;
        let layout = &prog.classes[class as usize];
        self.stats.allocs += 1;
        if matches!(mode, RtTag::Dynamic) {
            self.stats.dynamic_allocs += 1;
            if self.config.tagging {
                self.advance_sim(|sim| sim.do_work(WorkKind::Cpu, TAG_OVERHEAD_OPS));
            }
            if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
                c.dynamic_allocs += 1;
            }
            if self.config.record_events {
                self.events.push(EnergyEvent {
                    at_s: self.sim.time_s(),
                    payload: EventPayload::DynamicAlloc { class },
                });
            }
        }
        let obj_ref = self.heap.len();
        self.heap.push(ObjData {
            class,
            mode,
            mode_env,
            fields: vec![Value::Unit; layout.field_order.len()],
            snapshotted: false,
        });

        // Positional constructor values fill uninitialized fields in
        // declaration order; initializer fields are evaluated afterwards,
        // each in its owning class's context.
        let mut ctor_iter = ctor_vals.into_iter();
        for (slot, name) in &layout.ctor.positional {
            let v = ctor_iter.next().ok_or_else(|| {
                Flow::Error(RtError::Native(format!(
                    "missing constructor argument for field `{name}` of `{}`",
                    layout.name
                )))
            })?;
            self.heap[obj_ref].fields[*slot as usize] = v;
        }
        for job in &layout.ctor.inits {
            let mut env = self.grab_env();
            apply_env_into(
                &self.heap[obj_ref].mode_env,
                &prog.env_srcs[job.env_map.range()],
                &mut env,
            );
            let mode = match self.heap[obj_ref].mode {
                RtTag::Ground(m) => m,
                RtTag::Dynamic => GMode::Top,
            };
            let mut frame = Frame {
                locals: self.grab_locals(0),
                this_ref: Some(obj_ref),
                mode,
                env,
                unbound_lo: u32::MAX,
                n_params: 0,
            };
            let v = self.run_body(&mut frame, &prog.bodies[job.body as usize])?;
            self.recycle_locals(frame.locals);
            self.recycle_env(frame.env);
            self.heap[obj_ref].fields[job.slot as usize] = v;
        }
        Ok(obj_ref)
    }

    // ---- invocation --------------------------------------------------------

    /// Invokes `recv.method(args)` from a sender executing at
    /// `sender_mode`, enforcing the configured obligation strategy. `ic`
    /// is the send-site inline-cache slot when called from a bytecode call
    /// site (the tree engine passes `None` and always walks the vtable).
    ///
    /// The profiler hook ordering encodes each strategy's blame model.
    /// Guarded: the frame opens *before* the attributor/dfall machinery in
    /// `invoke_prologue`, so attribution charges those to the callee (the
    /// historical behavior, byte-identical). Transient: the prologue —
    /// including the transient call check — runs *before* the frame opens,
    /// so its costs land in the caller's open frame: the check is blamed
    /// on the check site, under both the exact and sampled profilers. In
    /// both orderings the step counter is read before the frame push/pop,
    /// so a pending sample interval lands on the frame that actually
    /// executed it — at identical `(stack, step)` points in both engines,
    /// since the bytecode engine's gas batching is exact at these
    /// boundaries.
    fn invoke(
        &mut self,
        recv: ObjRef,
        method: u32,
        args: Vec<Value>,
        mode_args: &[GMode],
        sender_mode: GMode,
        ic: Option<u32>,
    ) -> EvalResult {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(RtError::StackOverflow.into());
        }
        let result = match self.config.enforcement {
            Enforcement::Guarded => {
                let entered = match self.profiler.as_mut() {
                    Some(p) => {
                        p.on_enter(self.heap[recv].class, method, self.stats.steps);
                        true
                    }
                    None => false,
                };
                let result =
                    match self.invoke_prologue(recv, method, args, mode_args, sender_mode, ic) {
                        Ok((m, frame)) => self.invoke_body(m, frame),
                        Err(e) => Err(e),
                    };
                if entered {
                    let steps = self.stats.steps;
                    self.profiler
                        .as_mut()
                        .expect("profiler stays on")
                        .on_exit(steps);
                }
                result
            }
            Enforcement::Transient => {
                // A failing prologue returns before the frame ever opens,
                // keeping the shadow stack balanced.
                match self.invoke_prologue(recv, method, args, mode_args, sender_mode, ic) {
                    Ok((m, frame)) => {
                        let entered = match self.profiler.as_mut() {
                            Some(p) => {
                                p.on_enter(self.heap[recv].class, method, self.stats.steps);
                                true
                            }
                            None => false,
                        };
                        let result = self.invoke_body(m, frame);
                        if entered {
                            let steps = self.stats.steps;
                            self.profiler
                                .as_mut()
                                .expect("profiler stays on")
                                .on_exit(steps);
                        }
                        result
                    }
                    Err(e) => Err(e),
                }
            }
        };
        self.depth -= 1;
        result
    }

    /// The enforcement prologue of a send: resolves the method (through
    /// the send IC when bytecode provides one), binds mode parameters,
    /// runs a method-level attributor, and discharges the call-site
    /// obligation via [`Interp::enforce_call`] — everything that happens
    /// before the body runs. Returns the resolved method and its prepared
    /// frame for [`Interp::invoke_body`].
    fn invoke_prologue(
        &mut self,
        recv: ObjRef,
        method: u32,
        args: Vec<Value>,
        mode_args: &[GMode],
        sender_mode: GMode,
        ic: Option<u32>,
    ) -> Result<(&'p LMethod, Frame), Flow> {
        let prog = self.prog;
        let class = self.heap[recv].class;
        let layout = &prog.classes[class as usize];
        // Method ids past the declared names are names no class declares:
        // the lookup correctly reports them absent.
        let lookup = || -> Result<&'p MethodEntry, Flow> {
            match prog.method_entry(class, method) {
                Some(e) => Ok(e),
                None => Err(RtError::Native(format!(
                    "class `{}` has no method `{}`",
                    layout.name,
                    prog.method_names.resolve(Symbol::from_raw(method))
                ))
                .into()),
            }
        };
        // Monomorphic send-site inline cache: a receiver-class guard in
        // front of the vtable walk (each bytecode call site targets one
        // method id, so the class alone keys the entry).
        let entry: &'p MethodEntry = match ic {
            Some(site) => {
                let site = site as usize;
                if self.ic_send.len() <= site {
                    self.ic_send.resize(site + 1, None);
                }
                match self.ic_send[site] {
                    Some((c, e)) if c == class => e,
                    _ => {
                        let e = lookup()?;
                        self.ic_send[site] = Some((class, e));
                        e
                    }
                }
            }
            None => lookup()?,
        };
        let m: &'p LMethod = &prog.methods[entry.method as usize];
        let mut env = self.grab_env();
        apply_env_into(
            &self.heap[recv].mode_env,
            &prog.env_srcs[entry.env_map.range()],
            &mut env,
        );
        let n0 = env.len();

        // Bind generic method-mode parameters: explicit arguments first,
        // then defaults (a shadowed owner binding, or unbound).
        for (k, p) in m.mode_params.iter().enumerate() {
            let g = match mode_args.get(k) {
                Some(&g) => g,
                None => match p.default {
                    MDefault::FromSlot(j) => env[j as usize],
                    MDefault::Missing => GMode::Missing,
                },
            };
            env.push(g);
        }

        // The frame's locals are built once and reused by the attributor
        // frame below (the attributor leaves the slot layout balanced), so
        // attributed sends never clone argument values or environments.
        let (mut locals, unbound_lo) = make_locals(args, m.n_params);

        // Receiver-side mode for dfall: the object's tag, overridden by a
        // method-level mode or attributor.
        let receiver_mode = if let Some(attr_body) = m.attributor {
            // Method-level attributor: evaluate it now to characterize
            // this invocation.
            let mut aframe = Frame {
                locals,
                this_ref: Some(recv),
                mode: sender_mode,
                env,
                unbound_lo,
                n_params: m.n_params,
            };
            // Sensor reads inside the attributor may degrade past the
            // staleness bound; the flag is scoped to this one decision
            // (saved/restored around it so an outer decision in progress
            // keeps its own view).
            let outer_degraded = self.degraded;
            self.degraded = false;
            let attributed =
                self.eval_attributor_body(&mut aframe, &prog.bodies[attr_body as usize])?;
            // Reclaim the frame pieces: the tree engine's block scoping
            // leaves exactly the parameters; the bytecode engine may have
            // grown the register file, truncated back here.
            locals = aframe.locals;
            locals.truncate(m.n_params as usize);
            env = aframe.env;
            let produced = if self.degraded {
                // Degraded decision: fall back to the sender's mode — the
                // conservative choice that always satisfies the waterfall
                // invariant (a lower mode is never forced upward).
                self.stats.degraded_decisions += 1;
                sender_mode
            } else {
                attributed
            };
            self.degraded = outer_degraded;
            // The method's internal view (its first declared mode
            // parameter, if any) is bound to the attributed mode.
            if !m.mode_params.is_empty() {
                env[n0] = produced;
            }
            Some(produced)
        } else if let Some(ov) = m.mode_override {
            // Method-level static override, resolved in the owner's env.
            Some(match ov {
                LOverride::Ground(g) => g,
                LOverride::Param { slot, var } => match env[slot as usize] {
                    GMode::Missing => GMode::Var(var),
                    g => g,
                },
            })
        } else {
            self.heap[recv].mode.ground()
        };

        // The call-site obligation: the configured strategy validates the
        // receiver mode against the sender's and yields the frame's mode.
        let frame_mode = self.enforce_call(class, method, receiver_mode, sender_mode)?;

        Ok((
            m,
            Frame {
                locals,
                this_ref: Some(recv),
                mode: frame_mode,
                env,
                unbound_lo,
                n_params: m.n_params,
            },
        ))
    }

    /// Evaluates an attributor body to a mode constant.
    fn eval_attributor_body(&mut self, frame: &mut Frame, body: &'p Body) -> Result<GMode, Flow> {
        let v = match self.run_body(frame, body) {
            Ok(v) => v,
            Err(Flow::Return(v)) => v,
            Err(e) => return Err(e),
        };
        match v {
            Value::Mode(m) => self.mode_const(&m),
            other => Err(RtError::Native(format!(
                "attributor returned a {} instead of a mode",
                other.kind()
            ))
            .into()),
        }
    }

    // ---- snapshot ------------------------------------------------------------

    /// The paper's snapshot/check reduction: evaluate the attributor, check
    /// the bounds, produce a statically-moded (lazily copied) object. `ic`
    /// is a bytecode snapshot site's verdict-cache slot (`None` from the
    /// tree engine); the attributor — with its sensor reads, fault
    /// degradation, events, and profiler charges — runs on every
    /// evaluation regardless.
    fn snapshot(
        &mut self,
        frame: &Frame,
        obj: ObjRef,
        lo: &LMode,
        hi: &LMode,
        ic: Option<u32>,
    ) -> EvalResult {
        let prog = self.prog;
        self.stats.snapshots += 1;
        // Under transient, the boundary's bounds check is itself one of the
        // strategy's first-order checks.
        if matches!(self.config.enforcement, Enforcement::Transient) {
            self.stats.transient_checks += 1;
        }
        if self.config.tagging {
            self.advance_sim(|sim| sim.do_work(WorkKind::Cpu, SNAPSHOT_OVERHEAD_OPS));
        }
        if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
            c.snapshots += 1;
        }
        let class = self.heap[obj].class;
        let layout = &prog.classes[class as usize];
        let Some(attributor) = &layout.attributor else {
            return Err(RtError::Native(format!(
                "class `{}` has no attributor; only dynamic objects can be snapshotted",
                layout.name
            ))
            .into());
        };
        let mut env = self.grab_env();
        env.extend_from_slice(&self.heap[obj].mode_env);
        let mut aframe = Frame {
            locals: self.grab_locals(0),
            this_ref: Some(obj),
            mode: frame.mode,
            env,
            unbound_lo: u32::MAX,
            n_params: 0,
        };
        // Scope the degradation flag to this snapshot's attributor run
        // (nested snapshots inside the attributor manage their own).
        let outer_degraded = self.degraded;
        self.degraded = false;
        let attributed =
            self.eval_attributor_body(&mut aframe, &prog.bodies[attributor.body as usize])?;
        let attr_degraded = self.degraded;
        self.degraded = outer_degraded;
        self.recycle_locals(aframe.locals);
        self.recycle_env(aframe.env);

        // check(m, m1, m2, o): bad check throws the catchable
        // EnergyException unless running silent.
        let lo = self.resolve_mode(frame, lo)?;
        let hi = self.resolve_mode(frame, hi)?;
        // Degraded decision: the attributor ran on sentinel sensor data, so
        // its answer is untrustworthy — substitute the snapshot's declared
        // conservative `lo` mode, which by construction passes the check.
        let mode = if attr_degraded {
            self.stats.degraded_decisions += 1;
            lo
        } else {
            attributed
        };
        // The bounds verdict is a pure lattice function of the key below;
        // bytecode sites memoize it per energy window.
        let failed = match ic {
            Some(site) => {
                let window = self.decision_window();
                let site = site as usize;
                if self.ic_snap.len() <= site {
                    self.ic_snap.resize(site + 1, None);
                }
                match self.ic_snap[site] {
                    Some(c)
                        if c.class == class
                            && c.mode == mode
                            && c.lo == lo
                            && c.hi == hi
                            && c.window == window =>
                    {
                        c.failed
                    }
                    _ => {
                        let failed = !(prog.le(lo, mode) && prog.le(mode, hi));
                        self.ic_snap[site] = Some(threaded::SnapIc {
                            class,
                            mode,
                            lo,
                            hi,
                            window,
                            failed,
                        });
                        failed
                    }
                }
            }
            None => !(prog.le(lo, mode) && prog.le(mode, hi)),
        };
        // Whether the commit below will physically copy: only guarded's
        // lazy-copy discipline ever does; transient re-tags in place.
        let will_copy = match self.config.enforcement {
            Enforcement::Guarded => self.heap[obj].snapshotted || self.config.eager_copy,
            Enforcement::Transient => false,
        };
        if self.config.record_events {
            self.events.push(EnergyEvent {
                at_s: self.sim.time_s(),
                payload: EventPayload::Snapshot {
                    class,
                    mode,
                    lo,
                    hi,
                    copied: !failed && will_copy,
                    failed,
                },
            });
        }
        if failed {
            self.enforce_snapshot_failure(class, mode, lo, hi)?;
        }

        // Bind the class's internal mode parameter (slot 0) to the
        // produced mode; the configured strategy commits the view.
        let has_internal = attributor.has_internal;
        self.enforce_snapshot_commit(obj, mode, has_internal)
    }

    // ---- mode cases -------------------------------------------------------------

    /// Eliminates a mode case at a target mode: the arm whose mode is the
    /// largest at or below the target.
    fn eliminate(&self, arms: &[(ModeName, Value)], target: GMode) -> Result<Value, Flow> {
        self.eliminate_idx(arms, target).map(|(_, v)| v)
    }

    /// [`Interp::eliminate`], also reporting *which* arm was selected so
    /// bytecode elimination sites can cache the index. Every arm's mode is
    /// resolved (undeclared arm modes error even when a better arm was
    /// already found), exactly as before. The selected value's clone is a
    /// refcount bump for all heap-backed variants.
    fn eliminate_idx(
        &self,
        arms: &[(ModeName, Value)],
        target: GMode,
    ) -> Result<(u32, Value), Flow> {
        let prog = self.prog;
        let mut best: Option<(GMode, u32)> = None;
        for (i, (m, _)) in arms.iter().enumerate() {
            let am = self.mode_const(m)?;
            if prog.le(am, target) {
                let better = match best {
                    None => true,
                    Some((bm, _)) => prog.le(bm, am),
                };
                if better {
                    best = Some((am, i as u32));
                }
            }
        }
        match best {
            Some((_, i)) => Ok((i, arms[i as usize].1.clone())),
            None => Err(RtError::NoSuchArm(format!(
                "no mode case arm at or below `{}`",
                prog.mode_disp(target)
            ))
            .into()),
        }
    }

    /// Auto-eliminates a value if it is a mode case flowing into a
    /// primitive position (the implicit projection of the paper's concrete
    /// syntax).
    #[inline]
    fn force(&self, frame: &Frame, v: Value) -> Result<Value, Flow> {
        match v {
            Value::MCase(arms) => self.eliminate(&arms, frame.mode),
            other => Ok(other),
        }
    }

    // ---- evaluation ---------------------------------------------------------------

    /// Evaluates node `e`. Every arm with locals of its own runs in a
    /// function of its own, so an unoptimized `eval` frame holds only the
    /// dispatch: a nested expression or call costs the native stack of
    /// the arm it takes, not of every arm (see `STACK_BYTES_PER_FRAME`).
    /// Within [`STACK_RESERVE`] of the stack's end it stops with
    /// [`RtError::StackOverflow`] instead.
    fn eval(&mut self, frame: &mut Frame, e: NodeId) -> EvalResult {
        self.gas()?;
        if crate::stack::stack_address() < self.stack_floor {
            return Err(RtError::StackOverflow.into());
        }
        let ir = &self.prog.ir;
        // Matched in place rather than through a copy of the node: the
        // smaller frame keeps the nesting depth a stack size allows.
        match ir.nodes[e as usize] {
            Node::Lit(v) | Node::ModeConst(v) => Ok(ir.lits[v as usize].clone()),
            Node::This => match frame.this_ref {
                Some(r) => Ok(Value::Obj(r)),
                None => Err(RtError::Native("`this` outside an object context".into()).into()),
            },
            Node::Var { slot, name } => self.eval_var(frame, slot, name),
            Node::UnboundVar(name) => Err(self.unbound(name)),
            Node::Field { recv, field, name } => self.eval_field(frame, recv, field, name),
            Node::New { new, ctor_args } => self.eval_new(frame, new, ctor_args),
            Node::NewUnknown { class, ctor_args } => self.eval_new_unknown(frame, class, ctor_args),
            Node::Call { send, recv_args } => self.eval_call(frame, send, recv_args),
            Node::Builtin { op, name, args } => self.eval_builtin(frame, op, name, args),
            Node::Cast { check, expr } => self.eval_cast(frame, check, expr),
            Node::Snapshot { expr, bounds } => self.eval_snapshot(frame, expr, bounds),
            Node::MCase { arms, modes } => self.eval_mcase(frame, arms, modes),
            Node::Elim { expr, mode } => self.eval_elim(frame, expr, mode),
            Node::Binary { op, lhs, rhs } => self.binary(frame, op, lhs, rhs),
            Node::Unary { op, expr } => self.eval_unary(frame, op, expr),
            Node::If { cond, then, els } => self.eval_if(frame, cond, then, els),
            Node::Block(stmts) => self.eval_block(frame, stmts),
            Node::Try { body, handler } => self.eval_try(frame, body, handler),
            Node::ArrayLit(items) => self.eval_array(frame, items),
        }
    }

    /// The error of reading the unbound variable `names[name]`.
    fn unbound(&self, name: u32) -> Flow {
        RtError::Native(format!(
            "unbound variable `{}`",
            self.prog.ir.names[name as usize]
        ))
        .into()
    }

    fn eval_var(&mut self, frame: &mut Frame, slot: u32, name: u32) -> EvalResult {
        if slot >= frame.unbound_lo && slot < frame.n_params {
            return Err(self.unbound(name));
        }
        match frame.locals.get(slot as usize) {
            Some(v) => Ok(v.clone()),
            None => Err(self.unbound(name)),
        }
    }

    fn eval_field(&mut self, frame: &mut Frame, recv: NodeId, field: u32, name: u32) -> EvalResult {
        let rv = self.eval(frame, recv)?;
        let Value::Obj(r) = rv else {
            return Err(RtError::Native(format!("field access on a {}", rv.kind())).into());
        };
        self.read_field(frame, r, field, &self.prog.ir.names[name as usize])
    }

    fn eval_new(&mut self, frame: &mut Frame, new: u32, ctor_args: Seq) -> EvalResult {
        let ir = &self.prog.ir;
        let mut vals = Vec::with_capacity(ctor_args.len());
        for &a in ir.kids(ctor_args) {
            vals.push(self.eval(frame, a)?);
        }
        let new = &ir.news[new as usize];
        let (mode, env) = self.resolve_new(frame, new.class, &new.plan)?;
        let r = self.allocate(new.class, vals, mode, env)?;
        Ok(Value::Obj(r))
    }

    fn eval_new_unknown(&mut self, frame: &mut Frame, class: u32, ctor_args: Seq) -> EvalResult {
        let ir = &self.prog.ir;
        for &a in ir.kids(ctor_args) {
            self.eval(frame, a)?;
        }
        Err(RtError::Native(format!(
            "unknown class `{}`",
            ir.unknown_classes[class as usize]
        ))
        .into())
    }

    fn eval_call(&mut self, frame: &mut Frame, send: u32, recv_args: Seq) -> EvalResult {
        let ir = &self.prog.ir;
        let (&recv, args) = ir
            .kids(recv_args)
            .split_first()
            .expect("a call has a receiver");
        let rv = self.eval(frame, recv)?;
        let Value::Obj(r) = rv else {
            return Err(RtError::Native(format!("method call on a {}", rv.kind())).into());
        };
        let mut vals = Vec::with_capacity(args.len());
        for &a in args {
            vals.push(self.eval(frame, a)?);
        }
        let send = &ir.sends[send as usize];
        let mut gmodes = Vec::with_capacity(send.mode_args.len());
        for m in ir.modes(send.mode_args) {
            gmodes.push(self.resolve_mode(frame, m)?);
        }
        self.invoke(r, send.method, vals, &gmodes, frame.mode, None)
    }

    fn eval_builtin(&mut self, frame: &mut Frame, op: BOp, name: u32, args: Seq) -> EvalResult {
        if matches!(op, BOp::SimWorkKind(_)) {
            // The resolved kind literal's step, at its tree position.
            self.gas()?;
        }
        let ir = &self.prog.ir;
        let mut vals = Vec::with_capacity(args.len());
        for &a in ir.kids(args) {
            let v = self.eval(frame, a)?;
            vals.push(self.force(frame, v)?);
        }
        let (ns, name) = ir.builtin_name(name);
        self.builtin(op, ns, name, vals)
    }

    fn eval_cast(
        &mut self,
        frame: &mut Frame,
        check: Option<CastCheck>,
        expr: NodeId,
    ) -> EvalResult {
        let v = self.eval(frame, expr)?;
        // Only object downcasts can fail at run time.
        self.check_cast(&v, &check)?;
        Ok(v)
    }

    fn eval_snapshot(&mut self, frame: &mut Frame, expr: NodeId, bounds: u32) -> EvalResult {
        let v = self.eval(frame, expr)?;
        let Value::Obj(r) = v else {
            return Err(RtError::Native(format!("snapshot of a {}", v.kind())).into());
        };
        let modes = &self.prog.ir.modes;
        let b = bounds as usize;
        self.snapshot(frame, r, &modes[b], &modes[b + 1], None)
    }

    fn eval_mcase(&mut self, frame: &mut Frame, arms: Seq, modes: u32) -> EvalResult {
        let ir = &self.prog.ir;
        let mut vals = Vec::with_capacity(arms.len());
        let modes = &ir.arm_modes[modes as usize..modes as usize + arms.len()];
        for (m, &arm) in modes.iter().zip(ir.kids(arms)) {
            vals.push((m.clone(), self.eval(frame, arm)?));
        }
        Ok(Value::MCase(Arc::new(vals)))
    }

    fn eval_elim(&mut self, frame: &mut Frame, expr: NodeId, mode: Option<u32>) -> EvalResult {
        let v = self.eval(frame, expr)?;
        let Value::MCase(arms) = v else {
            return Err(RtError::Native(format!("`<|` on a {}", v.kind())).into());
        };
        let target = match mode {
            Some(m) => self.resolve_mode(frame, &self.prog.ir.modes[m as usize])?,
            None => frame.mode,
        };
        self.eliminate(&arms, target)
    }

    fn eval_unary(&mut self, frame: &mut Frame, op: UnOp, expr: NodeId) -> EvalResult {
        let v = self.eval(frame, expr)?;
        let v = self.force(frame, v)?;
        Self::apply_unop(op, v)
    }

    fn eval_if(
        &mut self,
        frame: &mut Frame,
        cond: NodeId,
        then: NodeId,
        els: NodeId,
    ) -> EvalResult {
        let c = self.eval(frame, cond)?;
        let c = self.force(frame, c)?;
        let Value::Bool(b) = c else {
            return Err(RtError::Native(format!("if condition is a {}", c.kind())).into());
        };
        if b {
            self.eval(frame, then)
        } else {
            match else_branch(els) {
                Some(els) => self.eval(frame, els),
                None => Ok(Value::Unit),
            }
        }
    }

    fn eval_block(&mut self, frame: &mut Frame, stmts: Seq) -> EvalResult {
        let depth = frame.locals.len();
        let mut last = Value::Unit;
        for &stmt in self.prog.ir.stmts(stmts) {
            match stmt {
                LStmt::Let(value) => {
                    let v = self.eval(frame, value)?;
                    frame.locals.push(v);
                    last = Value::Unit;
                }
                LStmt::Expr(e) => {
                    last = self.eval(frame, e)?;
                }
                LStmt::Return(e) => {
                    let v = self.eval(frame, e)?;
                    frame.locals.truncate(depth);
                    return Err(Flow::Return(v));
                }
            }
        }
        frame.locals.truncate(depth);
        Ok(last)
    }

    fn eval_try(&mut self, frame: &mut Frame, body: NodeId, handler: NodeId) -> EvalResult {
        // A failing body may leave partially-pushed block locals on the
        // frame; restore the handler's lowered slot layout.
        let depth = frame.locals.len();
        match self.eval(frame, body) {
            Err(Flow::Error(RtError::EnergyException(_))) => {
                frame.locals.truncate(depth);
                self.eval(frame, handler)
            }
            other => other,
        }
    }

    fn eval_array(&mut self, frame: &mut Frame, items: Seq) -> EvalResult {
        let mut vals = Vec::with_capacity(items.len());
        for &item in self.prog.ir.kids(items) {
            vals.push(self.eval(frame, item)?);
        }
        Ok(Value::Array(Arc::new(vals)))
    }

    fn binary(&mut self, frame: &mut Frame, op: BinOp, lhs: NodeId, rhs: NodeId) -> EvalResult {
        // Short-circuit && / ||.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(frame, lhs)?;
            let l = self.force(frame, l)?;
            let Value::Bool(lb) = l else {
                return Err(RtError::Native(format!("`{op}` on a {}", l.kind())).into());
            };
            if (op == BinOp::And && !lb) || (op == BinOp::Or && lb) {
                return Ok(Value::Bool(lb));
            }
            let r = self.eval(frame, rhs)?;
            let r = self.force(frame, r)?;
            let Value::Bool(rb) = r else {
                return Err(RtError::Native(format!("`{op}` on a {}", r.kind())).into());
            };
            return Ok(Value::Bool(rb));
        }

        let l = self.eval(frame, lhs)?;
        let l = self.force(frame, l)?;
        let r = self.eval(frame, rhs)?;
        let r = self.force(frame, r)?;
        self.apply_binop(op, &l, &r)
    }

    /// Applies a (non-short-circuit) binary operator to forced operands —
    /// the shared arithmetic/comparison core of both engines.
    fn apply_binop(&self, op: BinOp, l: &Value, r: &Value) -> EvalResult {
        use BinOp::*;
        let err = |l: &Value, r: &Value| -> Flow {
            RtError::Native(format!(
                "cannot apply `{op}` to {} and {}",
                l.kind(),
                r.kind()
            ))
            .into()
        };
        match (op, l, r) {
            (Add, Value::Str(a), b) => Ok(Value::str(format!("{a}{}", b.display_string()))),
            (Add, a, Value::Str(b)) => Ok(Value::str(format!("{}{b}", a.display_string()))),
            (Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            (Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (Div, Value::Int(_), Value::Int(0)) => {
                Err(RtError::Native("division by zero".into()).into())
            }
            (Div, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(*b))),
            (Rem, Value::Int(_), Value::Int(0)) => {
                Err(RtError::Native("remainder by zero".into()).into())
            }
            (Rem, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(*b))),
            (Add, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a + b)),
            (Sub, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a - b)),
            (Mul, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a * b)),
            (Div, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a / b)),
            (Rem, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a % b)),
            (Lt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a < b)),
            (Le, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a <= b)),
            (Gt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a > b)),
            (Ge, Value::Int(a), Value::Int(b)) => Ok(Value::Bool(a >= b)),
            (Lt, Value::Double(a), Value::Double(b)) => Ok(Value::Bool(a < b)),
            (Le, Value::Double(a), Value::Double(b)) => Ok(Value::Bool(a <= b)),
            (Gt, Value::Double(a), Value::Double(b)) => Ok(Value::Bool(a > b)),
            (Ge, Value::Double(a), Value::Double(b)) => Ok(Value::Bool(a >= b)),
            (Eq, a, b) => Ok(Value::Bool(a == b)),
            (Ne, a, b) => Ok(Value::Bool(a != b)),
            _ => Err(err(l, r)),
        }
    }

    // ---- builtins --------------------------------------------------------------

    fn builtin(
        &mut self,
        op: BOp,
        ns: &ent_syntax::Ident,
        name: &ent_syntax::Ident,
        mut args: Vec<Value>,
    ) -> EvalResult {
        self.builtin_slice(op, ns, name, &mut args)
    }

    /// Calls a compiled builtin site on its argument registers in place,
    /// `frame.locals[base..base + n_args]` — the one builtin path of the
    /// bytecode engine. Forces the last argument first when the site says
    /// so. On every exit (value, builtin error or
    /// force error) the window is reset to `Unit` before returning, which
    /// is where the take-based form left those registers: every argument
    /// dies where it died when the call owned a vector of them.
    #[inline]
    fn call_builtin(&mut self, frame: &mut Frame, site: &BuiltinSite, base: usize) -> EvalResult {
        let end = base + usize::from(site.n_args);
        let out = 'call: {
            if site.force_last && matches!(frame.locals[end - 1], Value::MCase(_)) {
                let last = std::mem::replace(&mut frame.locals[end - 1], Value::Unit);
                match self.force(frame, last) {
                    Ok(v) => frame.locals[end - 1] = v,
                    Err(f) => break 'call Err(f),
                }
            }
            self.builtin_slice(site.op, &site.ns, &site.name, &mut frame.locals[base..end])
        };
        frame.locals[base..end]
            .iter_mut()
            .for_each(|v| put(v, Value::Unit));
        out
    }

    /// The slice-based builtin core: callers keep ownership of the
    /// argument storage (the bytecode engine passes its argument
    /// registers through [`Self::call_builtin`]; the tree walker funnels
    /// in via [`Self::builtin`]). Arms that need owned values take them
    /// out of the slice, leaving `Unit` — indistinguishable from the
    /// by-value form since the caller resets or drops the storage
    /// without reading it back.
    fn builtin_slice(
        &mut self,
        op: BOp,
        ns: &ent_syntax::Ident,
        name: &ent_syntax::Ident,
        args: &mut [Value],
    ) -> EvalResult {
        let native = |msg: String| -> Flow { RtError::Native(msg).into() };
        // Growth builtins take their array argument by value: when the `Arc`
        // is the last reference (the common `a = Arr.push(a, x);` loop shape
        // once the caller's register has been drained) the buffer is reused
        // in place instead of re-copying the spine every iteration.
        match (op, &*args) {
            (BOp::ArrPush, [Value::Array(_), _]) => {
                let Value::Array(a) = std::mem::replace(&mut args[0], Value::Unit) else {
                    unreachable!("shape checked above")
                };
                let v = std::mem::replace(&mut args[1], Value::Unit);
                let mut out = Arc::try_unwrap(a).unwrap_or_else(|a| a.to_vec());
                out.push(v);
                return Ok(Value::Array(Arc::new(out)));
            }
            (BOp::ArrConcat, [Value::Array(_), Value::Array(_)]) => {
                let Value::Array(a) = std::mem::replace(&mut args[0], Value::Unit) else {
                    unreachable!("shape checked above")
                };
                let Value::Array(b) = std::mem::replace(&mut args[1], Value::Unit) else {
                    unreachable!("shape checked above")
                };
                let mut out = Arc::try_unwrap(a).unwrap_or_else(|a| a.to_vec());
                out.extend(b.iter().cloned());
                return Ok(Value::Array(Arc::new(out)));
            }
            _ => {}
        }
        match (op, &*args) {
            (BOp::ExtBattery, []) => Ok(Value::Double(self.read_sensor(SensorKind::Battery))),
            (BOp::ExtTemperature, []) => {
                Ok(Value::Double(self.read_sensor(SensorKind::Temperature)))
            }
            (BOp::ExtTimeMs, []) => Ok(Value::Double(self.sim.time_s() * 1000.0)),
            (BOp::SimWork, [Value::Str(kind), Value::Double(units)]) => {
                let (kind, units) = (WorkKind::parse(kind), *units);
                self.advance_sim(|sim| sim.do_work(kind, units));
                Ok(Value::Unit)
            }
            (BOp::SimWorkKind(kind), [Value::Double(units)]) => {
                let units = *units;
                self.advance_sim(|sim| sim.do_work(kind, units));
                Ok(Value::Unit)
            }
            (BOp::SimSleepMs, [Value::Int(ms)]) => {
                let ms = *ms as f64;
                self.advance_sim(|sim| sim.sleep_ms(ms));
                Ok(Value::Unit)
            }
            (BOp::SimRand, []) => Ok(Value::Double(self.sim.rand())),
            (BOp::IoPrint, [v]) => {
                self.output.push(v.display_string());
                Ok(Value::Unit)
            }
            (BOp::StrLen, [Value::Str(s)]) => Ok(Value::Int(s.chars().count() as i64)),
            (BOp::StrOfInt, [Value::Int(n)]) => Ok(Value::str(n.to_string())),
            (BOp::StrOfDouble, [Value::Double(x)]) => Ok(Value::str(format!("{x}"))),
            (BOp::StrSub, [Value::Str(s), Value::Int(a), Value::Int(b)]) => {
                let chars: Vec<char> = s.chars().collect();
                let a = (*a).clamp(0, chars.len() as i64) as usize;
                let b = (*b).clamp(a as i64, chars.len() as i64) as usize;
                Ok(Value::str(chars[a..b].iter().collect::<String>()))
            }
            (BOp::MathFloor, [Value::Double(x)]) => Ok(Value::Int(x.floor() as i64)),
            (BOp::MathToDouble, [Value::Int(n)]) => Ok(Value::Double(*n as f64)),
            (BOp::MathMin, [Value::Int(a), Value::Int(b)]) => Ok(Value::Int(*a.min(b))),
            (BOp::MathMax, [Value::Int(a), Value::Int(b)]) => Ok(Value::Int(*a.max(b))),
            (BOp::MathFmin, [Value::Double(a), Value::Double(b)]) => Ok(Value::Double(a.min(*b))),
            (BOp::MathFmax, [Value::Double(a), Value::Double(b)]) => Ok(Value::Double(a.max(*b))),
            // Wrapping on i64::MIN, consistent with the arithmetic ops.
            (BOp::MathAbs, [Value::Int(n)]) => Ok(Value::Int(n.wrapping_abs())),
            (BOp::MathSqrt, [Value::Double(x)]) => Ok(Value::Double(x.sqrt())),
            (BOp::MathPow, [Value::Double(a), Value::Double(b)]) => Ok(Value::Double(a.powf(*b))),
            (BOp::ArrRange, [Value::Int(a), Value::Int(b)]) => {
                let len = (*b as i128 - *a as i128).max(0);
                if len > MAX_ARRAY_LEN as i128 {
                    return Err(native(format!(
                        "Arr.range of {len} elements exceeds the limit of {MAX_ARRAY_LEN}"
                    )));
                }
                let items: Vec<Value> = (*a..*b).map(Value::Int).collect();
                Ok(Value::Array(Arc::new(items)))
            }
            (BOp::ArrLen, [Value::Array(items)]) => Ok(Value::Int(items.len() as i64)),
            (BOp::ArrGet, [Value::Array(items), Value::Int(i)]) => {
                items.get(*i as usize).cloned().ok_or_else(|| {
                    native(format!(
                        "array index {i} out of bounds (len {})",
                        items.len()
                    ))
                })
            }
            (BOp::ArrSub, [Value::Array(items), Value::Int(a), Value::Int(b)]) => {
                let a = (*a).clamp(0, items.len() as i64) as usize;
                let b = (*b).clamp(a as i64, items.len() as i64) as usize;
                Ok(Value::Array(Arc::new(items[a..b].to_vec())))
            }
            (BOp::ArrMake, [Value::Int(n), v]) => {
                let n = (*n).max(0);
                if n > MAX_ARRAY_LEN {
                    return Err(native(format!(
                        "Arr.make of {n} elements exceeds the limit of {MAX_ARRAY_LEN}"
                    )));
                }
                Ok(Value::Array(Arc::new(vec![v.clone(); n as usize])))
            }
            _ => Err(native(format!(
                "unknown or misapplied builtin `{ns}.{name}` with {} args",
                op.written_args(args.len())
            ))),
        }
    }
}

// The clone audit (DESIGN.md §11): hot-loop value movement must be refcount
// bumps on the shared `Arc`, never deep copies of the payload. These tests
// pin that for array indexing, mode-case arm selection, and the unique-`Arc`
// buffer reuse in `Arr.push`, on the tree walker's by-value path and on the
// bytecode engine's in-place register window.
#[cfg(test)]
mod clone_audit {
    use super::*;

    fn with_interp<R>(src: &str, f: impl for<'p> FnOnce(&mut Interp<'p>) -> R) -> R {
        let compiled = ent_core::compile(src).unwrap();
        let lowered = lower_program(&compiled);
        let config = RuntimeConfig::default();
        let sim = EnergySim::new(Platform::system_a(), config.seed);
        let mut interp = Interp {
            prog: &lowered,
            heap: Vec::new(),
            sim,
            output: Vec::new(),
            stats: RunStats::default(),
            depth: 0,
            max_depth: MAX_CALL_DEPTH,
            stack_floor: 0,
            events: EventRing::default(),
            profiler: None,
            faults_on: false,
            last_good: [None; 2],
            degraded: false,
            locals_pool: Vec::new(),
            env_pool: Vec::new(),
            ic_send: Vec::new(),
            ic_arm: Vec::new(),
            ic_snap: Vec::new(),
            compiles: 0,
            config,
        };
        f(&mut interp)
    }

    const MODES_MAIN: &str = "modes { low <= high; } class Main { int main() { return 0; } }";

    #[test]
    fn array_get_is_refcount_bump() {
        with_interp(MODES_MAIN, |it| {
            let inner: Arc<Vec<Value>> = Arc::new(vec![Value::Int(7)]);
            let items = Arc::new(vec![Value::Array(inner.clone()), Value::Int(2)]);
            let got = it
                .builtin(
                    BOp::ArrGet,
                    &"Arr".into(),
                    &"get".into(),
                    vec![Value::Array(items.clone()), Value::Int(0)],
                )
                .unwrap();
            // The element clone shares the payload: original + `items[0]` +
            // the returned value; the outer array is back to one owner (the
            // argument vector was dropped inside the call).
            assert_eq!(Arc::strong_count(&inner), 3);
            assert_eq!(Arc::strong_count(&items), 1);
            let Value::Array(got) = got else {
                panic!("expected array element")
            };
            assert!(Arc::ptr_eq(&got, &inner));
        });
    }

    #[test]
    fn eliminate_arm_is_refcount_bump() {
        with_interp(MODES_MAIN, |it| {
            let payload: Arc<Vec<Value>> = Arc::new(vec![Value::Int(1), Value::Int(2)]);
            let arms = vec![
                (ModeName::new("low"), Value::Array(payload.clone())),
                (ModeName::new("high"), Value::Int(0)),
            ];
            let target = it.mode_const(&ModeName::new("low")).unwrap();
            let (idx, v) = it.eliminate_idx(&arms, target).unwrap();
            assert_eq!(idx, 0);
            // original + the arm entry + the selected value — no deep copy.
            assert_eq!(Arc::strong_count(&payload), 3);
            let Value::Array(v) = v else {
                panic!("expected array arm")
            };
            assert!(Arc::ptr_eq(&v, &payload));
        });
    }

    #[test]
    fn arr_push_reuses_unique_buffer() {
        with_interp(MODES_MAIN, |it| {
            let mut v = Vec::with_capacity(8);
            v.extend([Value::Int(1), Value::Int(2)]);
            let buf = v.as_ptr();
            let out = it
                .builtin(
                    BOp::ArrPush,
                    &"Arr".into(),
                    &"push".into(),
                    vec![Value::Array(Arc::new(v)), Value::Int(3)],
                )
                .unwrap();
            let Value::Array(out) = out else {
                panic!("expected array")
            };
            assert_eq!(out.len(), 3);
            // The uniquely-owned buffer was grown in place, not re-copied.
            assert_eq!(out.as_ptr(), buf);
        });
    }

    /// A frame whose registers are `args`, and a compiled builtin site
    /// over all of them, for [`Interp::call_builtin`].
    fn window(op: BOp, name: &str, args: Vec<Value>) -> (Frame, BuiltinSite) {
        let site = BuiltinSite {
            op,
            ns: "Arr".into(),
            name: name.into(),
            n_args: args.len() as u16,
            force_last: true,
        };
        let frame = Frame {
            locals: args,
            this_ref: None,
            mode: GMode::Top,
            env: Vec::new(),
            unbound_lo: u32::MAX,
            n_params: 0,
        };
        (frame, site)
    }

    #[test]
    fn call_builtin_resets_its_window() {
        with_interp(MODES_MAIN, |it| {
            let inner: Arc<Vec<Value>> = Arc::new(vec![Value::Int(7)]);
            let items = Arc::new(vec![Value::Array(inner.clone()), Value::Int(2)]);
            let (mut frame, site) = window(
                BOp::ArrGet,
                "get",
                vec![Value::Array(items.clone()), Value::Int(0)],
            );
            let got = it.call_builtin(&mut frame, &site, 0).unwrap();
            // The registers were reset, so the outer array is back to one
            // owner and the element is shared, not copied.
            assert_eq!(frame.locals, [Value::Unit, Value::Unit]);
            assert_eq!(Arc::strong_count(&items), 1);
            assert_eq!(Arc::strong_count(&inner), 3);
            let Value::Array(got) = got else {
                panic!("expected array element")
            };
            assert!(Arc::ptr_eq(&got, &inner));
            // An error resets the window too.
            let (mut frame, site) = window(
                BOp::ArrGet,
                "get",
                vec![Value::Array(items.clone()), Value::Int(5)],
            );
            assert!(it.call_builtin(&mut frame, &site, 0).is_err());
            assert_eq!(frame.locals, [Value::Unit, Value::Unit]);
            assert_eq!(Arc::strong_count(&items), 1);
        });
    }

    #[test]
    fn call_builtin_push_grows_a_unique_buffer_in_place() {
        with_interp(MODES_MAIN, |it| {
            let mut v = Vec::with_capacity(8);
            v.extend([Value::Int(1), Value::Int(2)]);
            let buf = v.as_ptr();
            let (mut frame, site) = window(
                BOp::ArrPush,
                "push",
                vec![Value::Array(Arc::new(v)), Value::Int(3)],
            );
            let Value::Array(out) = it.call_builtin(&mut frame, &site, 0).unwrap() else {
                panic!("expected array")
            };
            assert_eq!(out.len(), 3);
            assert_eq!(out.as_ptr(), buf);
            assert_eq!(frame.locals, [Value::Unit, Value::Unit]);
        });
    }

    #[test]
    fn a_misapplied_resolved_work_call_counts_its_kind_argument() {
        with_interp(MODES_MAIN, |it| {
            let err = it
                .builtin(
                    BOp::SimWorkKind(WorkKind::Net),
                    &"Sim".into(),
                    &"work".into(),
                    vec![Value::Int(3)],
                )
                .unwrap_err();
            let Flow::Error(RtError::Native(msg)) = err else {
                panic!("expected a native error, got {err:?}")
            };
            assert_eq!(msg, "unknown or misapplied builtin `Sim.work` with 2 args");
        });
    }

    #[test]
    fn arr_push_copies_shared_buffer() {
        with_interp(MODES_MAIN, |it| {
            let shared = Arc::new(vec![Value::Int(1)]);
            let out = it
                .builtin(
                    BOp::ArrPush,
                    &"Arr".into(),
                    &"push".into(),
                    vec![Value::Array(shared.clone()), Value::Int(2)],
                )
                .unwrap();
            // The shared original is untouched.
            assert_eq!(shared.len(), 1);
            assert_eq!(Arc::strong_count(&shared), 1);
            let Value::Array(out) = out else {
                panic!("expected array")
            };
            assert_eq!(out.len(), 2);
        });
    }
}
