//! Per-method energy attribution, in two modes sharing one shadow-stack
//! discipline:
//!
//! * [`exact`] — the shadow call-*tree* profiler: every cost the
//!   interpreter observes is charged to the innermost frame's node as it
//!   happens. Ground truth, but ~50%+ overhead on the tiny fig6 programs
//!   (BENCH_obs.json) — per-enter tree probes plus per-run report
//!   construction dominate runs that finish in tens of microseconds.
//! * [`sampled`] — the probabilistic profiler: the interpreter maintains
//!   only a flat frame array (push/pop on enter/exit) and, every ~`period`
//!   steps of the deterministic virtual step counter, captures the live
//!   stack once. Sample tallies are scaled to whole-run totals from
//!   [`crate::RunStats`] and reported as per-method *estimates with
//!   Wilson-score confidence intervals*, following the probabilistic
//!   energy profiler for statically typed JVM languages (PAPERS.md).
//!
//! Both modes observe frame transitions through the [`StackShadow`]
//! trait, at identical program points in both engines: the tree walker
//! and the bytecode engine funnel every send through the shared `invoke`
//! path, and bytecode gas batching is exact at observable boundaries, so
//! the `(stack, step-count)` pairs the sampler sees — and therefore every
//! sampled report byte — are identical across `--engine tree|bytecode`
//! and across `--jobs N`.

pub(crate) mod exact;
pub(crate) mod sampled;

pub(crate) use exact::Profiler;
pub use exact::{MethodProfile, Profile};
pub(crate) use sampled::Sampler;
pub use sampled::{SampledMethod, SampledProfile};

/// The metrics charged to one frame (tree node) or aggregated per method.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Costs {
    /// Abstract evaluation steps.
    pub steps: u64,
    /// Simulated energy, in joules (noise-free; noise is applied to the
    /// whole-run measurement, not to attribution).
    pub energy_j: f64,
    /// Virtual time, in seconds.
    pub time_s: f64,
    /// Snapshot expressions evaluated.
    pub snapshots: u64,
    /// Physical snapshot copies.
    pub copies: u64,
    /// Snapshot checks that failed.
    pub snapshot_failures: u64,
    /// Dynamic waterfall checks that failed.
    pub dfall_failures: u64,
    /// Objects allocated with a dynamic mode.
    pub dynamic_allocs: u64,
    /// Sensor reads that came back faulted under fault injection.
    pub sensor_faults: u64,
}

impl Costs {
    pub(crate) fn add(&mut self, other: &Costs) {
        self.steps += other.steps;
        self.energy_j += other.energy_j;
        self.time_s += other.time_s;
        self.snapshots += other.snapshots;
        self.copies += other.copies;
        self.snapshot_failures += other.snapshot_failures;
        self.dfall_failures += other.dfall_failures;
        self.dynamic_allocs += other.dynamic_allocs;
        self.sensor_faults += other.sensor_faults;
    }
}

/// Sentinel class/method id for the root frame (program boot: `Main`
/// allocation and anything outside a method body).
pub(crate) const ROOT_ID: u32 = u32::MAX;

/// Packs a `(class, method)` pair into one map key.
pub(crate) fn key(class: u32, method: u32) -> u64 {
    ((class as u64) << 32) | method as u64
}

/// splitmix64: a strong, cheap stateless mixer — the same recipe the
/// fault injector uses for per-window randomness, here keyed on
/// `(seed, sample index)` so the jittered sample schedule is a pure
/// function of the configuration, never of read order or thread count.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How [`crate::RunResult::profile`] is produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileMode {
    /// No attribution; the interpreter pays only a branch per frame.
    #[default]
    Off,
    /// The exact shadow call-tree profiler (ground truth, high overhead).
    Exact,
    /// Periodic stack sampling on the virtual step clock: one capture
    /// every ~`period` steps (jittered in `[period/2, 3·period/2)` by a
    /// splitmix64 stream keyed on `seed` to avoid loop aliasing).
    Sampled {
        /// Mean steps between captures. Clamped to at least 1.
        period: u64,
        /// Jitter-stream seed; same seed + period ⇒ byte-identical report.
        seed: u64,
    },
}

impl ProfileMode {
    /// Default mean sample period, in steps. Chosen so the fig6 suite
    /// (1.2k–9k steps/run) takes a handful of samples per run at <5%
    /// overhead (BENCH_obs.json).
    pub const DEFAULT_SAMPLE_PERIOD: u64 = 256;
    /// Default jitter seed.
    pub const DEFAULT_SAMPLE_SEED: u64 = 0;

    /// `Sampled` with the default period and seed.
    pub fn sampled_default() -> ProfileMode {
        ProfileMode::Sampled {
            period: Self::DEFAULT_SAMPLE_PERIOD,
            seed: Self::DEFAULT_SAMPLE_SEED,
        }
    }

    /// Whether any profiler is installed.
    pub fn is_on(&self) -> bool {
        !matches!(self, ProfileMode::Off)
    }

    /// Parses a CLI mode name: `off`, `exact`, or `sampled` (with the
    /// default period/seed; `--sample-period`/`--sample-seed` override).
    pub fn parse(s: &str) -> Option<ProfileMode> {
        match s {
            "off" => Some(ProfileMode::Off),
            "exact" => Some(ProfileMode::Exact),
            "sampled" => Some(ProfileMode::sampled_default()),
            _ => None,
        }
    }
}

/// The frame-transition discipline both profilers share: the interpreter
/// calls these at method entry, method exit, and end-of-run, passing the
/// deterministic step counter at the boundary. Hooks deliberately carry
/// *only* the step count — everything else a report needs (energy/time
/// totals) arrives once at build time — so the hot path loads one counter
/// and the report can never depend on which engine's boundaries fired.
pub(crate) trait StackShadow {
    /// A method frame opens. `steps` is read *before* the frame is
    /// pushed, so any pending interval belongs to the caller.
    fn on_enter(&mut self, class: u32, method: u32, steps: u64);
    /// The innermost frame closes. `steps` is read *before* the pop, so
    /// any pending interval belongs to the callee.
    fn on_exit(&mut self, steps: u64);
    /// The run ends; settle the tail interval (root frame).
    fn on_finish(&mut self, steps: u64);
}

/// The installed profiler, if any (one enum, no dynamic dispatch: the
/// interpreter's hot path keeps a single predictable branch).
#[derive(Clone, Debug)]
pub(crate) enum AnyProfiler {
    Exact(Profiler),
    Sampled(Sampler),
}

impl AnyProfiler {
    pub(crate) fn new(mode: ProfileMode) -> Option<AnyProfiler> {
        match mode {
            ProfileMode::Off => None,
            ProfileMode::Exact => Some(AnyProfiler::Exact(Profiler::new())),
            ProfileMode::Sampled { period, seed } => {
                Some(AnyProfiler::Sampled(Sampler::new(period, seed)))
            }
        }
    }

    /// The innermost frame's cost accumulator, in exact mode. Sampled
    /// mode ignores per-cost charges (it attributes statistically), so
    /// the charge sites stay one `if let` each.
    #[inline]
    pub(crate) fn own(&mut self) -> Option<&mut Costs> {
        match self {
            AnyProfiler::Exact(p) => Some(p.own()),
            AnyProfiler::Sampled(_) => None,
        }
    }

    /// Whether this is the exact shadow-call-tree profiler. The VM's tail
    /// self-send elision stays enabled under sampling: an elided chain is
    /// consumed by a gasless `Ret`, so no steps accrue between the chain's
    /// end and the exit hook, and the sampler's per-path hit counts — the
    /// only thing its report is built from — are unchanged. Exact mode
    /// still needs real frames (it charges costs to the innermost frame as
    /// they happen), so only it disables the elision.
    #[inline]
    pub(crate) fn is_exact(&self) -> bool {
        matches!(self, AnyProfiler::Exact(_))
    }
}

impl StackShadow for AnyProfiler {
    #[inline]
    fn on_enter(&mut self, class: u32, method: u32, steps: u64) {
        match self {
            AnyProfiler::Exact(p) => p.on_enter(class, method, steps),
            AnyProfiler::Sampled(s) => s.on_enter(class, method, steps),
        }
    }

    #[inline]
    fn on_exit(&mut self, steps: u64) {
        match self {
            AnyProfiler::Exact(p) => p.on_exit(steps),
            AnyProfiler::Sampled(s) => s.on_exit(steps),
        }
    }

    fn on_finish(&mut self, steps: u64) {
        match self {
            AnyProfiler::Exact(p) => p.on_finish(steps),
            AnyProfiler::Sampled(s) => s.on_finish(steps),
        }
    }
}

/// The end-of-run attribution report, exposed as
/// [`crate::RunResult::profile`] when [`crate::RuntimeConfig::profile`]
/// is not `Off`.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileReport {
    /// Exact shadow-call-tree attribution ([`ProfileMode::Exact`]).
    Exact(Profile),
    /// Statistical estimates with confidence intervals
    /// ([`ProfileMode::Sampled`]).
    Sampled(SampledProfile),
}

impl ProfileReport {
    /// `"exact"` or `"sampled"`.
    pub fn mode(&self) -> &'static str {
        match self {
            ProfileReport::Exact(_) => "exact",
            ProfileReport::Sampled(_) => "sampled",
        }
    }

    /// The exact profile, if this report came from exact mode.
    pub fn as_exact(&self) -> Option<&Profile> {
        match self {
            ProfileReport::Exact(p) => Some(p),
            ProfileReport::Sampled(_) => None,
        }
    }

    /// The sampled profile, if this report came from sampled mode.
    pub fn as_sampled(&self) -> Option<&SampledProfile> {
        match self {
            ProfileReport::Sampled(p) => Some(p),
            ProfileReport::Exact(_) => None,
        }
    }

    /// The attribution table as fixed-width text (the CLI `--profile`
    /// view).
    pub fn render_table(&self) -> String {
        match self {
            ProfileReport::Exact(p) => p.render_table(),
            ProfileReport::Sampled(p) => p.render_table(),
        }
    }

    /// Folded stacks in the flamegraph collapse format — exclusive steps
    /// weights in exact mode, sample counts in sampled mode.
    pub fn folded_stacks(&self) -> String {
        match self {
            ProfileReport::Exact(p) => p.folded_stacks(),
            ProfileReport::Sampled(p) => p.folded_stacks(),
        }
    }

    /// The `profile` value of [`crate::RunResult::to_json`]. Exact mode
    /// keeps the PR 2 schema byte-for-byte (no `mode` key); sampled mode
    /// is self-describing via `"mode": "sampled"`.
    pub fn to_json(&self) -> String {
        match self {
            ProfileReport::Exact(p) => p.to_json(),
            ProfileReport::Sampled(p) => p.to_json(),
        }
    }
}
