//! The ENT execution engine: a compile-once program cache plus a
//! deterministic parallel batch runner.
//!
//! The paper's evaluation (§6) is a measurement lattice — benchmark ×
//! system × boot mode × workload mode × silent × trial — of hundreds of
//! interpreter runs over a few dozen distinct programs. This module gives
//! the figure generators two things:
//!
//! * **A program cache** ([`lowered_cached`]): programs are compiled and
//!   lowered once per distinct source and shared as
//!   `Arc<LoweredProgram>` across every run, thread, and figure that
//!   needs them (`LoweredProgram` is `Send + Sync`, asserted at compile
//!   time in `ent-runtime`). The cache is lock-striped into
//!   [`LOWERED_CACHE_SHARDS`] shards keyed by a hash of the source, so
//!   concurrent workers preparing different programs never contend on one
//!   global mutex; each shard keeps bounded insertion-order (FIFO)
//!   eviction, so long-lived processes sweeping many generated programs
//!   cannot grow it without limit.
//! * **A batch executor** ([`run_batch_outcomes`] and the infallible
//!   wrapper [`run_batch`]): enumerates jobs up front, fans them out
//!   across `jobs` reusable big-stack workers under a **work-stealing
//!   scheduler**, and returns per-job outcomes in job order. A panicking
//!   job is caught at the job boundary, optionally retried
//!   ([`BatchPolicy::retries`]), and recorded as a [`JobError`] — the
//!   rest of the batch always completes.
//!
//! # The work-stealing scheduler
//!
//! Jobs are known up front, so there is no shared injector queue to keep
//! hot: the scheduler partitions `0..n` into one contiguous
//! [`StealRange`] per worker (a single atomic word packing `(lo, hi)`).
//! An **owner** claims chunk-sized blocks from the front of its own range
//! with a CAS (the chunk is derived from the batch shape: about eight
//! grabs per worker); a **thief** whose range has drained takes the
//! *back half* of a victim's remainder with a CAS on the same word,
//! adopts the stolen block as its new range, and goes back to owner-side
//! claiming — so stolen work is itself stealable, and a skewed job mix
//! diffuses across workers instead of convoying behind the slowest range.
//! Steals, stolen jobs, and owner grabs are counted ([`BatchTelemetry`]).
//!
//! # Determinism contract
//!
//! Parallel output is **bit-identical** to sequential output at any
//! worker count, under any steal schedule. The contract has two halves:
//!
//! * the engine's half: every job index is claimed by exactly one worker
//!   (front-claims and back-steals CAS the same range word, so the blocks
//!   they remove are disjoint), results are tagged with their job index
//!   and assembled in job order after the batch, each worker wraps one
//!   [`ent_runtime::with_interp_stack`] frame around its whole loop, and
//!   nothing about a run depends on which worker picks it up;
//! * the caller's half: each job's behavior — in particular its RNG seed —
//!   must derive from the job's *identity* (its position in the
//!   enumerated grid), never from execution order or shared mutable
//!   state. The figure generators' seed formulas (`seed * 17 + 1` and
//!   friends, keyed on the trial index) satisfy this by construction.
//!
//! Under that contract `run_batch(n, jobs, f)` returns the same bytes for
//! every `n`, which the `fig*` binaries' `--jobs` flag and the CI
//! byte-equality check rely on. Nothing in the engine reads the clock, so
//! no host-timing effect can reach a result.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ent_core::compile;
use ent_runtime::{default_stack_size, with_interp_stack, LoweredProgram};

/// Lock stripes in the lowered-program cache. Sized for the workloads the
/// harness actually runs: enough stripes that an 8-worker batch preparing
/// distinct programs rarely collides, few enough that per-shard FIFO
/// bounds stay meaningful.
pub const LOWERED_CACHE_SHARDS: usize = 8;

/// The most distinct programs the cache retains at once across all
/// shards. Past the per-shard bound the oldest entry in that shard is
/// evicted (insertion order); the figure suite uses a few dozen
/// programs, so eviction only fires for adversarial or very-long-lived
/// callers.
pub const LOWERED_CACHE_CAP: usize = 256;

/// Entries each shard retains before evicting its oldest.
const PER_SHARD_CAP: usize = LOWERED_CACHE_CAP / LOWERED_CACHE_SHARDS;

struct Shard {
    map: HashMap<Arc<str>, Arc<LoweredProgram>>,
    /// Keys in insertion order, oldest first: the map's own keys, shared.
    order: VecDeque<Arc<str>>,
}

fn shards() -> &'static [Mutex<Shard>] {
    static SHARDS: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| {
        (0..LOWERED_CACHE_SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                })
            })
            .collect()
    })
}

/// FNV-1a over the source text; the shard key.
fn source_hash(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in src.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a source string lives in (public for tests that need to
/// construct same-shard or cross-shard key sets deliberately).
#[must_use]
pub fn cache_shard_of(src: &str) -> usize {
    (source_hash(src) % LOWERED_CACHE_SHARDS as u64) as usize
}

/// A stable 64-bit fingerprint of a program source — the cache key hash,
/// also used by the server's quarantine table to identify repeat
/// offenders without retaining tenant source text.
#[must_use]
pub fn source_fingerprint(src: &str) -> u64 {
    source_hash(src)
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time counters for the sharded lowered-program cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lock stripes ([`LOWERED_CACHE_SHARDS`]).
    pub shards: u64,
    /// Total capacity ([`LOWERED_CACHE_CAP`]).
    pub capacity: u64,
    /// Programs resident across all shards right now.
    pub entries: u64,
    /// Lookups served from a shard.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Entries evicted to keep a shard under its bound.
    pub evictions: u64,
}

/// Reads the cache counters (monotone since process start, except
/// `entries`, which is the live resident count).
#[must_use]
pub fn lowered_cache_stats() -> CacheStats {
    CacheStats {
        shards: LOWERED_CACHE_SHARDS as u64,
        capacity: LOWERED_CACHE_CAP as u64,
        entries: lowered_cache_shard_entries().iter().sum(),
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Resident program count per shard, in shard order — the occupancy view
/// behind [`CacheStats::entries`]. Until this existed, per-shard state was
/// internal-only; the batch-telemetry sidecar and the server stats
/// endpoint both render it so operators can spot skewed stripes.
#[must_use]
pub fn lowered_cache_shard_entries() -> Vec<u64> {
    shards()
        .iter()
        .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
        .collect()
}

/// Compiles and lowers `src` once, returning the shared lowered program.
/// Subsequent calls with the same source (from any thread) hit the cache.
///
/// The cache key is the source text itself, so "benchmark identity" is
/// exact: two benchmark cells share a program if and only if they generate
/// the same ENT source. `name` labels compile errors only. The map is
/// lock-striped by source hash; compilation happens *outside* the shard
/// lock, so a worker compiling a large program never blocks other workers'
/// lookups in the same shard (two threads racing to compile the same new
/// source may both compile it; the first insert wins and both share its
/// `Arc` from then on). Entries past the per-shard bound evict that
/// shard's oldest program; outstanding `Arc`s keep evicted programs
/// alive, so eviction is invisible to callers except as a recompile on a
/// later repeat.
///
/// # Panics
///
/// Panics if `src` does not compile — benchmark programs are generated,
/// so a compile error is a harness bug, not a measurement. Servers
/// compiling tenant-submitted source use [`try_lowered_cached`], where a
/// compile error is a recorded reply instead.
pub fn lowered_cached(name: &str, src: &str) -> Arc<LoweredProgram> {
    try_lowered_cached(src).unwrap_or_else(|e| panic!("benchmark `{name}` failed to compile:\n{e}"))
}

/// The fallible twin of [`lowered_cached`]: compiles and lowers `src` once
/// (shared cache, same striping and eviction), returning the rendered
/// compile error instead of panicking. Failed compiles are never cached —
/// the sources a server sees repeatedly are the ones worth keeping, and a
/// repeat offender is the quarantine table's job, not the cache's.
///
/// # Errors
///
/// Returns the diagnostic rendered against `src` (the same text the CLI's
/// `error:` line carries) when the program fails to parse or typecheck.
pub fn try_lowered_cached(src: &str) -> Result<Arc<LoweredProgram>, String> {
    let shard = &shards()[cache_shard_of(src)];
    {
        let s = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = s.map.get(src) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let compiled = compile(src).map_err(|e| e.render(src))?;
    let lowered = Arc::new(ent_runtime::lower_program(&compiled));
    let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(raced) = s.map.get(src) {
        // Another worker compiled and inserted while we were compiling.
        return Ok(Arc::clone(raced));
    }
    while s.map.len() >= PER_SHARD_CAP {
        let Some(oldest) = s.order.pop_front() else {
            break;
        };
        s.map.remove(&oldest);
        CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
    let key: Arc<str> = Arc::from(src);
    s.map.insert(Arc::clone(&key), Arc::clone(&lowered));
    s.order.push_back(key);
    Ok(lowered)
}

/// The default worker count for batch runs: the `ENT_JOBS` environment
/// variable when set and positive, else 1 (sequential, the reproducible
/// default for published artifacts).
#[must_use]
pub fn default_jobs() -> usize {
    std::env::var("ENT_JOBS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Resolves a `--jobs` request: `0` means "one worker per available CPU".
#[must_use]
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Per-job failure policy for [`run_batch_outcomes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchPolicy {
    /// How many times a panicking job is re-run, immediately, before its
    /// failure is recorded. `0` (the default) means one attempt, no
    /// retries.
    pub retries: u32,
}

/// Why a job in a batch produced no result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// The panic payload of the final attempt.
    pub message: String,
    /// How many attempts were made (always ≥ 1).
    pub attempts: u32,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} attempts)", self.message, self.attempts)
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

/// Runs one job under the policy: catch panics at the job boundary and
/// retry up to `policy.retries` times.
fn run_job<J, R>(
    job: &J,
    policy: &BatchPolicy,
    f: &(impl Fn(&J, u32) -> R + Sync),
) -> Result<R, JobError> {
    let mut last = None;
    for attempt in 0..=policy.retries {
        match catch_unwind(AssertUnwindSafe(|| f(job, attempt))) {
            Ok(r) => return Ok(r),
            Err(panic) => last = Some(panic_message(panic)),
        }
    }
    Err(JobError {
        message: last.unwrap_or_else(|| "job failed".to_string()),
        attempts: policy.retries + 1,
    })
}

/// Runs one closure under a [`BatchPolicy`] — the same catch_unwind /
/// retry machinery the batch scheduler applies per job, exposed for
/// callers (like the resident server) that manage their own queues but
/// want identical isolation semantics. The closure receives the 0-based
/// attempt number.
pub fn run_job_isolated<R>(
    policy: &BatchPolicy,
    f: impl Fn(u32) -> R + Sync,
) -> Result<R, JobError> {
    run_job(&(), policy, &|_: &(), attempt| f(attempt))
}

/// A contiguous block of pending job indices, packed `(lo << 32) | hi`
/// into one atomic word so owner front-claims and thief back-steals
/// contend on a single CAS — a claim and a steal can never hand the same
/// index to two workers, because both must succeed their CAS against the
/// same observed value.
struct StealRange(AtomicU64);

fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl StealRange {
    fn new(lo: u32, hi: u32) -> Self {
        StealRange(AtomicU64::new(pack(lo, hi)))
    }

    /// Owner side: claims up to `n` jobs from the front, returning the
    /// half-open claimed block.
    fn claim_front(&self, n: u32) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = n.max(1).min(hi - lo);
            match self.0.compare_exchange_weak(
                cur,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo, lo + take)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief side: steals the back half of the remainder (rounded up, so
    /// a single remaining job is stolen whole), returning the stolen
    /// half-open block.
    fn steal_back(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            let rem = hi.saturating_sub(lo);
            if rem == 0 {
                return None;
            }
            let take = rem - rem / 2;
            match self.0.compare_exchange_weak(
                cur,
                pack(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take, hi)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Owner side only, and only when the owner's range is empty: adopt a
    /// stolen block as the new range. Sound because owners are the only
    /// writers that *grow* a range, and the owner just observed its own
    /// range empty (thieves only shrink).
    fn adopt(&self, lo: u32, hi: u32) {
        self.0.store(pack(lo, hi), Ordering::Release);
    }
}

/// What the scheduler did for one batch (and, summed process-wide, for
/// [`sched_totals`]). Counter semantics: a **steal** is one successful
/// back-half transfer between workers; **stolen_jobs** is how many job
/// indices those transfers moved; **chunks_claimed** is owner-side front
/// grabs (including grabs from adopted stolen blocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Jobs in the batch.
    pub jobs: u64,
    /// Workers the batch actually ran on (after clamping to batch size).
    pub workers: u64,
    /// The owner-side chunk size ([`effective_chunk`] of the batch shape).
    pub chunk: u64,
    /// Successful steals.
    pub steals: u64,
    /// Job indices moved by steals.
    pub stolen_jobs: u64,
    /// Owner-side chunk grabs.
    pub chunks_claimed: u64,
}

#[derive(Default)]
struct SchedCounters {
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
    chunks_claimed: AtomicU64,
}

/// Process-lifetime scheduler totals (every batch summed), plus the cache
/// counters — what the fig harnesses dump as `results/<stem>_sched.json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedTotals {
    /// Batches executed.
    pub batches: u64,
    /// Jobs across all batches.
    pub jobs: u64,
    /// Widest worker pool any batch used.
    pub max_workers: u64,
    /// Successful steals across all batches.
    pub steals: u64,
    /// Job indices moved by steals.
    pub stolen_jobs: u64,
    /// Owner-side chunk grabs.
    pub chunks_claimed: u64,
    /// The most recent batch's telemetry.
    pub last: BatchTelemetry,
    /// Cache counters at read time.
    pub cache: CacheStats,
}

static TOTAL_BATCHES: AtomicU64 = AtomicU64::new(0);
static TOTAL_JOBS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MAX_WORKERS: AtomicU64 = AtomicU64::new(0);
static TOTAL_STEALS: AtomicU64 = AtomicU64::new(0);
static TOTAL_STOLEN_JOBS: AtomicU64 = AtomicU64::new(0);
static TOTAL_CHUNKS: AtomicU64 = AtomicU64::new(0);

fn last_batch_cell() -> &'static Mutex<BatchTelemetry> {
    static LAST: OnceLock<Mutex<BatchTelemetry>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(BatchTelemetry::default()))
}

fn record_batch(t: &BatchTelemetry) {
    TOTAL_BATCHES.fetch_add(1, Ordering::Relaxed);
    TOTAL_JOBS.fetch_add(t.jobs, Ordering::Relaxed);
    TOTAL_MAX_WORKERS.fetch_max(t.workers, Ordering::Relaxed);
    TOTAL_STEALS.fetch_add(t.steals, Ordering::Relaxed);
    TOTAL_STOLEN_JOBS.fetch_add(t.stolen_jobs, Ordering::Relaxed);
    TOTAL_CHUNKS.fetch_add(t.chunks_claimed, Ordering::Relaxed);
    *last_batch_cell().lock().unwrap_or_else(|e| e.into_inner()) = *t;
}

/// Reads the process-lifetime scheduler totals.
#[must_use]
pub fn sched_totals() -> SchedTotals {
    SchedTotals {
        batches: TOTAL_BATCHES.load(Ordering::Relaxed),
        jobs: TOTAL_JOBS.load(Ordering::Relaxed),
        max_workers: TOTAL_MAX_WORKERS.load(Ordering::Relaxed),
        steals: TOTAL_STEALS.load(Ordering::Relaxed),
        stolen_jobs: TOTAL_STOLEN_JOBS.load(Ordering::Relaxed),
        chunks_claimed: TOTAL_CHUNKS.load(Ordering::Relaxed),
        last: *last_batch_cell().lock().unwrap_or_else(|e| e.into_inner()),
        cache: lowered_cache_stats(),
    }
}

impl SchedTotals {
    /// Renders the totals as one `ent-batch-telemetry/1` JSON document
    /// (hand-emitted; the workspace has no serde). Every field is a
    /// counter or a fixed-vocabulary string, so no escaping is needed.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"ent-batch-telemetry/1\", \
             \"batches\": {}, \"jobs\": {}, \"max_workers\": {}, \
             \"steals\": {}, \"stolen_jobs\": {}, \"chunks_claimed\": {}, \
             \"last\": {{\"jobs\": {}, \"workers\": {}, \"chunk\": {}, \
             \"steals\": {}, \"stolen_jobs\": {}, \"chunks_claimed\": {}}}, \
             \"cache\": {{\"shards\": {}, \"capacity\": {}, \"hits\": {}, \
             \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
             \"shard_entries\": [{}]}}}}",
            self.batches,
            self.jobs,
            self.max_workers,
            self.steals,
            self.stolen_jobs,
            self.chunks_claimed,
            self.last.jobs,
            self.last.workers,
            self.last.chunk,
            self.last.steals,
            self.last.stolen_jobs,
            self.last.chunks_claimed,
            self.cache.shards,
            self.cache.capacity,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            lowered_cache_shard_entries()
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}

/// The owner-side chunk size for a batch: `jobs / (workers * 8)` clamped
/// to `[1, 64]` — about eight grabs per worker on a balanced mix, fine
/// enough that a skewed mix leaves blocks worth stealing.
fn effective_chunk(jobs: usize, workers: usize) -> u32 {
    (jobs / (workers.max(1) * 8)).clamp(1, 64) as u32
}

/// Runs `f` over every job, fanning out across `jobs` big-stack workers
/// under the work-stealing scheduler, and returns per-job outcomes **in
/// job order** regardless of which worker finished what when — plus the
/// batch's scheduler telemetry.
///
/// Each attempt runs inside `catch_unwind` at the job boundary: a
/// panicking job becomes `Err(JobError)` for that slot
/// and every other job still runs to completion. `f` receives the attempt
/// index (0 for the first try) so retry-aware jobs can vary their
/// behavior; deterministic callers ignore it.
///
/// Each worker executes inside a single [`with_interp_stack`] frame, so
/// every `run_lowered` a job makes runs directly on the worker's (already
/// big) stack — the pool reuses one spawned worker per thread, not one
/// per run. With `jobs == 1` the batch runs sequentially on one such
/// worker; under the module-level determinism contract the results are
/// bit-identical either way.
pub fn run_batch_outcomes_with_telemetry<J, R, F>(
    jobs: usize,
    work: &[J],
    policy: &BatchPolicy,
    f: F,
) -> (Vec<Result<R, JobError>>, BatchTelemetry)
where
    J: Sync,
    R: Send,
    F: Fn(&J, u32) -> R + Sync,
{
    let stack_size = default_stack_size();
    let workers = resolve_jobs(jobs).max(1).min(work.len().max(1));
    let mut telemetry = BatchTelemetry {
        jobs: work.len() as u64,
        workers: workers as u64,
        chunk: u64::from(effective_chunk(work.len(), workers)),
        ..BatchTelemetry::default()
    };
    if workers == 1 {
        let outcomes = with_interp_stack(stack_size, || {
            work.iter().map(|job| run_job(job, policy, &f)).collect()
        });
        record_batch(&telemetry);
        return (outcomes, telemetry);
    }

    let n = u32::try_from(work.len()).expect("batch too large for the range scheduler");
    let chunk = telemetry.chunk as u32;
    // Even contiguous partition: worker w owns [w*n/W, (w+1)*n/W).
    let ranges: Vec<StealRange> = (0..workers)
        .map(|w| {
            let lo = (w as u64 * n as u64 / workers as u64) as u32;
            let hi = ((w as u64 + 1) * n as u64 / workers as u64) as u32;
            StealRange::new(lo, hi)
        })
        .collect();
    let counters = SchedCounters::default();

    let mut indexed: Vec<(usize, Result<R, JobError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                let counters = &counters;
                let f = &f;
                s.spawn(move || {
                    with_interp_stack(stack_size, || {
                        let mut mine = Vec::new();
                        'work: loop {
                            // Owner side: drain our own range chunk by chunk.
                            while let Some((a, b)) = ranges[w].claim_front(chunk) {
                                counters.chunks_claimed.fetch_add(1, Ordering::Relaxed);
                                for i in a..b {
                                    let job = &work[i as usize];
                                    mine.push((i as usize, run_job(job, policy, f)));
                                }
                            }
                            // Thief side: adopt the back half of the first
                            // victim with work left, then go back to
                            // owner-side claiming (the adopted block is
                            // itself stealable by others).
                            for off in 1..workers {
                                let victim = (w + off) % workers;
                                if let Some((a, b)) = ranges[victim].steal_back() {
                                    counters.steals.fetch_add(1, Ordering::Relaxed);
                                    counters
                                        .stolen_jobs
                                        .fetch_add(u64::from(b - a), Ordering::Relaxed);
                                    ranges[w].adopt(a, b);
                                    continue 'work;
                                }
                            }
                            // Every range is empty: all indices are claimed
                            // (by us or by workers still finishing theirs).
                            break;
                        }
                        mine
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // Job panics are caught inside `run_job`; a worker can only
                // die from a harness bug outside any job boundary.
                h.join().expect("batch worker died outside a job boundary")
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), work.len(), "every job claimed exactly once");

    telemetry.steals = counters.steals.load(Ordering::Relaxed);
    telemetry.stolen_jobs = counters.stolen_jobs.load(Ordering::Relaxed);
    telemetry.chunks_claimed = counters.chunks_claimed.load(Ordering::Relaxed);
    record_batch(&telemetry);
    (indexed.into_iter().map(|(_, r)| r).collect(), telemetry)
}

/// [`run_batch_outcomes_with_telemetry`] minus the telemetry — the
/// historical per-job-outcome entry point.
pub fn run_batch_outcomes<J, R, F>(
    jobs: usize,
    work: &[J],
    policy: &BatchPolicy,
    f: F,
) -> Vec<Result<R, JobError>>
where
    J: Sync,
    R: Send,
    F: Fn(&J, u32) -> R + Sync,
{
    run_batch_outcomes_with_telemetry(jobs, work, policy, f).0
}

/// Infallible wrapper over [`run_batch_outcomes`] for callers whose jobs
/// are not supposed to fail (the figure generators).
///
/// # Panics
///
/// If any job failed, panics **after the whole batch has completed** with
/// an aggregate message naming the first failure — failures surface as
/// one harness error instead of a half-finished batch.
pub fn run_batch<J, R, F>(jobs: usize, work: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let outcomes = run_batch_outcomes(jobs, work, &BatchPolicy::default(), |job, _| f(job));
    let total = outcomes.len();
    let mut failed = 0usize;
    let mut first: Option<(usize, JobError)> = None;
    let mut results = Vec::with_capacity(total);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => {
                failed += 1;
                if first.is_none() {
                    first = Some((i, e));
                }
            }
        }
    }
    if let Some((i, e)) = first {
        panic!("{failed} of {total} batch jobs failed; first failure (job {i}): {e}");
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_come_back_in_job_order() {
        let work: Vec<usize> = (0..100).collect();
        let seq = run_batch(1, &work, |&n| n * n);
        let par = run_batch(8, &work, |&n| n * n);
        assert_eq!(seq, par);
        assert_eq!(seq[17], 289);
    }

    #[test]
    fn batch_handles_empty_and_single_job_lists() {
        let none: Vec<u32> = Vec::new();
        assert!(run_batch(4, &none, |&n| n).is_empty());
        assert_eq!(run_batch(4, &[7u32], |&n| n + 1), vec![8]);
    }

    #[test]
    fn steal_range_claims_and_steals_disjoint_blocks() {
        let r = StealRange::new(0, 10);
        assert_eq!(r.claim_front(3), Some((0, 3)));
        // Remainder 3..10 (7 jobs); the thief takes the back ceil-half.
        assert_eq!(r.steal_back(), Some((6, 10)));
        assert_eq!(r.claim_front(5), Some((3, 6)));
        assert_eq!(r.claim_front(1), None);
        assert_eq!(r.steal_back(), None);

        // A single remaining job is stolen whole.
        let r = StealRange::new(4, 5);
        assert_eq!(r.steal_back(), Some((4, 5)));
        assert_eq!(r.claim_front(1), None);
    }

    #[test]
    fn skewed_batches_steal_and_stay_in_order() {
        // Worker 0's range starts with slow jobs; 48 jobs on 4 workers
        // derive chunk 1, so the other workers drain their ranges and
        // then steal the slow tail. The telemetry must show steals, and
        // the output must stay in job order with every index present
        // exactly once.
        let work: Vec<usize> = (0..48).collect();
        let (outcomes, telemetry) =
            run_batch_outcomes_with_telemetry(4, &work, &BatchPolicy::default(), |&n, _| {
                if n < 6 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                n * 3
            });
        assert_eq!(outcomes.len(), work.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.as_ref().unwrap(), &(i * 3));
        }
        assert_eq!(telemetry.jobs, 48);
        assert_eq!(telemetry.workers, 4);
        assert_eq!(telemetry.chunk, 1);
        assert!(
            telemetry.steals > 0,
            "skewed chunk-1 batch should steal: {telemetry:?}"
        );
        assert!(telemetry.stolen_jobs >= telemetry.steals);
        // With chunk 1 every job is one owner-side grab (stolen blocks are
        // re-claimed chunk by chunk after adoption).
        assert_eq!(telemetry.chunks_claimed, 48);
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_batch_completes() {
        let work: Vec<usize> = (0..32).collect();
        for jobs in [1, 8] {
            let outcomes = run_batch_outcomes(jobs, &work, &BatchPolicy::default(), |&n, _| {
                assert!(n != 13, "unlucky job");
                n * 2
            });
            assert_eq!(outcomes.len(), work.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 13 {
                    let err = outcome.as_ref().unwrap_err();
                    assert!(err.message.contains("unlucky job"), "{err}");
                    assert_eq!(err.attempts, 1);
                } else {
                    assert_eq!(outcome.as_ref().unwrap(), &(i * 2));
                }
            }
        }
    }

    #[test]
    fn retries_rerun_the_job_and_record_the_attempt_count() {
        use std::sync::atomic::AtomicU32;
        // A job that fails on its first two attempts and succeeds on the
        // third; with one retry it still fails, with two it recovers.
        let tries = AtomicU32::new(0);
        let policy = BatchPolicy { retries: 1 };
        let outcomes = run_batch_outcomes(1, &[()], &policy, |_, _| {
            let t = tries.fetch_add(1, Ordering::Relaxed);
            assert!(t >= 2, "flaky");
            t
        });
        let err = outcomes[0].as_ref().unwrap_err();
        assert_eq!(err.attempts, 2);
        assert!(err.message.contains("flaky"));

        tries.store(0, Ordering::Relaxed);
        let policy = BatchPolicy { retries: 2 };
        let outcomes = run_batch_outcomes(1, &[()], &policy, |_, attempt| {
            let t = tries.fetch_add(1, Ordering::Relaxed);
            assert!(t >= 2, "flaky");
            attempt
        });
        assert_eq!(outcomes[0], Ok(2), "succeeds on the third attempt");
    }

    #[test]
    #[should_panic(expected = "1 of 3 batch jobs failed")]
    fn run_batch_aggregates_failures_after_finishing() {
        use std::sync::atomic::AtomicUsize;
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let work = [0usize, 1, 2];
        let _ = std::panic::catch_unwind(|| {
            run_batch(1, &work, |&n| {
                assert!(n != 1, "boom");
                COMPLETED.fetch_add(1, Ordering::Relaxed);
                n
            })
        })
        .map_err(|p| {
            // Every non-failing job ran even though job 1 panicked.
            assert_eq!(COMPLETED.load(Ordering::Relaxed), 2);
            std::panic::resume_unwind(p)
        });
    }

    #[test]
    fn cache_returns_the_same_program_for_the_same_source() {
        let src = "class Main { int main() { return 6 * 7; } }";
        let before = lowered_cache_stats();
        let a = lowered_cached("unit-test", src);
        let b = lowered_cached("unit-test", src);
        assert!(Arc::ptr_eq(&a, &b));
        let after = lowered_cache_stats();
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
    }

    #[test]
    fn cache_evicts_oldest_entries_in_shard_past_the_cap() {
        // Fill the *first entry's shard* past its per-shard bound, then
        // confirm the first entry was evicted (a repeat lookup compiles a
        // fresh Arc) while a recent same-shard entry is still shared.
        // Cross-shard entries never evict each other.
        let src_for = |n: usize| format!("class Main {{ int main() {{ return {n}; }} }}");
        let first_src = src_for(9_000_000);
        let shard = cache_shard_of(&first_src);
        let first = lowered_cached("evict-test", &first_src);
        let mut same_shard = Vec::new();
        let mut n = 9_100_000;
        while same_shard.len() < PER_SHARD_CAP {
            let src = src_for(n);
            if cache_shard_of(&src) == shard {
                same_shard.push(src);
            }
            n += 1;
        }
        for src in &same_shard {
            let _ = lowered_cached("evict-test", src);
        }
        let last_src = same_shard.last().unwrap();
        let last = lowered_cached("evict-test", last_src);
        let last_again = lowered_cached("evict-test", last_src);
        assert!(Arc::ptr_eq(&last, &last_again), "recent entry still cached");
        let first_again = lowered_cached("evict-test", &first_src);
        assert!(
            !Arc::ptr_eq(&first, &first_again),
            "oldest same-shard entry should have been evicted"
        );
        assert!(lowered_cache_stats().evictions > 0);
    }

    #[test]
    fn sched_totals_render_valid_telemetry_json() {
        let work: Vec<usize> = (0..16).collect();
        let _ = run_batch(2, &work, |&n| n);
        let totals = sched_totals();
        assert!(totals.batches > 0);
        assert!(totals.jobs >= 16);
        let json = totals.to_json();
        assert!(ent_runtime::json_is_valid(&json), "{json}");
        for needle in [
            "\"schema\": \"ent-batch-telemetry/1\"",
            "\"steals\"",
            "\"chunks_claimed\"",
            "\"cache\"",
            "\"shards\"",
            "\"entries\"",
            "\"shard_entries\": [",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn try_lowered_cached_shares_and_reports_errors() {
        let src = "class Main { int main() { return 7; } }";
        let a = try_lowered_cached(src).expect("valid program compiles");
        let b = try_lowered_cached(src).expect("second lookup hits");
        assert!(Arc::ptr_eq(&a, &b), "cache shares the lowered program");

        let before = lowered_cache_stats();
        let err = try_lowered_cached("class Main { int main() { return x; } }")
            .expect_err("unbound variable should fail to compile");
        assert!(!err.is_empty(), "error is a rendered diagnostic");
        let after = lowered_cache_stats();
        assert_eq!(
            before.entries, after.entries,
            "failed compiles are never cached"
        );
    }

    #[test]
    fn run_job_isolated_traps_panics_and_retries() {
        let calls = AtomicU64::new(0);
        let policy = BatchPolicy { retries: 2 };
        let out = run_job_isolated(&policy, |attempt| {
            calls.fetch_add(1, Ordering::Relaxed);
            if attempt < 2 {
                panic!("transient failure on attempt {attempt}");
            }
            attempt
        });
        assert_eq!(out.unwrap(), 2, "third attempt succeeds");
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        let err = run_job_isolated(&policy, |_| -> u32 { panic!("always") })
            .expect_err("exhausted retries surface the panic");
        assert_eq!(err.attempts, 3);
        assert!(err.message.contains("always"));
    }

    #[test]
    fn effective_chunk_pins_and_scales() {
        assert_eq!(effective_chunk(8, 8), 1);
        assert_eq!(effective_chunk(64, 8), 1);
        assert_eq!(effective_chunk(64, 4), 2);
        assert_eq!(effective_chunk(600, 2), 37);
        assert_eq!(effective_chunk(1_000_000, 2), 64);
    }

    #[test]
    fn resolve_jobs_expands_zero() {
        assert!(resolve_jobs(3) == 3);
        assert!(resolve_jobs(0) >= 1);
    }
}
