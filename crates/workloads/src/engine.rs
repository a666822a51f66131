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
//!   time in `ent-runtime`). One mutex guards one map and its insertion
//!   order; compiles, and freeing evicted programs, run outside it, and
//!   eviction is bounded FIFO at [`LOWERED_CACHE_CAP`] programs, so
//!   long-lived processes sweeping many generated programs cannot grow it
//!   without limit.
//! * **A batch executor** ([`run_batch_outcomes`] and the infallible
//!   wrapper [`run_batch`]): enumerates jobs up front, fans them out
//!   across `jobs` reusable big-stack workers that claim blocks of job
//!   indices from **one shared cursor**, and returns per-job outcomes in
//!   job order. A panicking job is caught at the job boundary, optionally
//!   retried ([`BatchPolicy::retries`]), and recorded as a [`JobError`] —
//!   the rest of the batch always completes.
//!
//! # The job cursor
//!
//! Jobs are known up front, so the scheduler is one atomic index over
//! `0..n`. A worker reads the cursor `cur`, claims the block of
//! `max(1, (n - cur) / (2 * workers))` jobs starting there with one
//! compare-exchange, runs it in index order, and claims again (guided
//! self-scheduling). Early blocks are large and far apart, so the workers
//! start on different programs; the tail is handed out one job at a time,
//! so a slow job near the end leaves no worker idle behind a long block.
//! The block size comes from the batch shape alone. Claiming one job per
//! `fetch_add` was measured and rejected (DESIGN.md §12).
//!
//! # Determinism contract
//!
//! Parallel output is **bit-identical** to sequential output at any
//! worker count, under any claim schedule. The contract has two halves:
//!
//! * the engine's half: every job index is claimed by exactly one worker
//!   (a block is claimed by one compare-exchange on the one cursor word,
//!   so blocks are disjoint), results are tagged with their job index
//!   and assembled in job order after the batch, each worker runs its
//!   whole loop on one interpreter stack, and nothing about a run
//!   depends on which worker picks it up;
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
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ent_core::compile;
use ent_runtime::{
    default_stack_size, json, json_fields, spawn_interp_scoped, with_interp_stack, LoweredProgram,
};

/// The most distinct programs the cache retains at once. Past it the
/// oldest entry is evicted (insertion order); the figure suite uses a few
/// dozen programs, so eviction only fires for adversarial or
/// very-long-lived callers.
pub const LOWERED_CACHE_CAP: usize = 256;

struct Cache {
    map: HashMap<Arc<str>, Arc<LoweredProgram>>,
    /// Keys in insertion order, oldest first: the map's own keys, shared.
    order: VecDeque<Arc<str>>,
}

fn lock_cache() -> MutexGuard<'static, Cache> {
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            Mutex::new(Cache {
                map: HashMap::new(),
                order: VecDeque::new(),
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A stable 64-bit fingerprint of a program source (FNV-1a), used by the
/// server's quarantine table to identify repeat offenders without
/// retaining tenant source text.
#[must_use]
pub fn source_fingerprint(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in src.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time counters for the lowered-program cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Capacity ([`LOWERED_CACHE_CAP`]).
    pub capacity: u64,
    /// Programs resident right now.
    pub entries: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Entries evicted to keep the cache under its bound.
    pub evictions: u64,
}

/// Reads the cache counters (monotone since process start, except
/// `entries`, which is the live resident count).
#[must_use]
pub fn lowered_cache_stats() -> CacheStats {
    CacheStats {
        capacity: LOWERED_CACHE_CAP as u64,
        entries: lock_cache().map.len() as u64,
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Compiles and lowers `src` once, returning the shared lowered program.
/// Subsequent calls with the same source (from any thread) hit the cache.
///
/// The cache key is the source text itself, so "benchmark identity" is
/// exact: two benchmark cells share a program if and only if they generate
/// the same ENT source. `name` labels compile errors only. Compilation
/// happens *outside* the cache lock, so a worker compiling a large program
/// never blocks other workers' lookups (two threads racing to compile the
/// same new source may both compile it; the first insert wins and both
/// share its `Arc` from then on). An insert past [`LOWERED_CACHE_CAP`]
/// evicts the oldest program; outstanding `Arc`s keep evicted programs
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
/// (shared cache, same eviction), returning the rendered compile error
/// instead of panicking. Failed compiles are never cached — the sources a
/// server sees repeatedly are the ones worth keeping, and a repeat
/// offender is the quarantine table's job, not the cache's.
///
/// # Errors
///
/// Returns the diagnostic rendered against `src` (the same text the CLI's
/// `error:` line carries) when the program fails to parse or typecheck.
pub fn try_lowered_cached(src: &str) -> Result<Arc<LoweredProgram>, String> {
    if let Some(found) = lock_cache().map.get(src) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(found));
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let compiled = compile(src).map_err(|e| e.render(src))?;
    let lowered = Arc::new(ent_runtime::lower_program(&compiled));
    let key: Arc<str> = Arc::from(src);
    // Evicted entries are freed after the lock is released.
    let mut evicted = Vec::new();
    let mut guard = lock_cache();
    let cache = &mut *guard;
    if let Some(raced) = cache.map.get(src) {
        // Another worker compiled and inserted while we were compiling.
        return Ok(Arc::clone(raced));
    }
    while cache.map.len() >= LOWERED_CACHE_CAP {
        let Some(oldest) = cache.order.pop_front() else {
            break;
        };
        evicted.extend(cache.map.remove_entry(&oldest));
        CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
    cache.map.insert(Arc::clone(&key), Arc::clone(&lowered));
    cache.order.push_back(key);
    drop(guard);
    drop(evicted);
    Ok(lowered)
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
    /// Always 0: workers claim jobs from one shared cursor and never take
    /// work from each other. Kept because the end-to-end benchmark
    /// (`perfbench/src/figs.rs`) still reports it as `workloads.steals`.
    pub steals: u64,
    /// Always 0, for the same reason as [`SchedTotals::steals`]
    /// (`workloads.stolen_jobs`).
    pub stolen_jobs: u64,
    /// Blocks claimed from the job cursor across all batches (a
    /// sequential batch claims none).
    pub chunks_claimed: u64,
    /// Cache counters at read time.
    pub cache: CacheStats,
}

static TOTAL_BATCHES: AtomicU64 = AtomicU64::new(0);
static TOTAL_JOBS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MAX_WORKERS: AtomicU64 = AtomicU64::new(0);
static TOTAL_CHUNKS: AtomicU64 = AtomicU64::new(0);

fn record_batch(jobs: usize, workers: usize, claims: u64) {
    TOTAL_BATCHES.fetch_add(1, Ordering::Relaxed);
    TOTAL_JOBS.fetch_add(jobs as u64, Ordering::Relaxed);
    TOTAL_MAX_WORKERS.fetch_max(workers as u64, Ordering::Relaxed);
    TOTAL_CHUNKS.fetch_add(claims, Ordering::Relaxed);
}

/// Reads the process-lifetime scheduler totals.
#[must_use]
pub fn sched_totals() -> SchedTotals {
    SchedTotals {
        batches: TOTAL_BATCHES.load(Ordering::Relaxed),
        jobs: TOTAL_JOBS.load(Ordering::Relaxed),
        max_workers: TOTAL_MAX_WORKERS.load(Ordering::Relaxed),
        steals: 0,
        stolen_jobs: 0,
        chunks_claimed: TOTAL_CHUNKS.load(Ordering::Relaxed),
        cache: lowered_cache_stats(),
    }
}

impl SchedTotals {
    /// Renders the totals as one `ent-batch-telemetry/1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(json::object(|o| {
            o.field("schema", "ent-batch-telemetry/1");
            json_fields!(o, self; batches, jobs, max_workers, chunks_claimed);
            o.object("cache", |o| {
                json_fields!(o, self.cache; capacity, hits, misses, evictions, entries);
            });
        }))
    }
}

/// Claims the next block of `0..n` from the shared cursor: the
/// `max(1, (n - cur) / (2 * workers))` jobs starting at the cursor `cur`,
/// or `None` once every index is claimed. The cursor publishes no data
/// (jobs are shared before the workers start and results come back
/// through the joins), so `Relaxed` suffices: blocks are disjoint because
/// every claim is a read-modify-write of the one cursor word.
fn claim(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        if cur >= n {
            return None;
        }
        let end = cur + ((n - cur) / (2 * workers)).max(1);
        match cursor.compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(cur..end),
            Err(seen) => cur = seen,
        }
    }
}

/// Runs `f` over every job, fanning out across `jobs` big-stack workers
/// that claim blocks from one shared cursor, and returns per-job outcomes
/// **in job order** regardless of which worker finished what when.
///
/// Each attempt runs inside `catch_unwind` at the job boundary: a
/// panicking job becomes `Err(JobError)` for that slot
/// and every other job still runs to completion. `f` receives the attempt
/// index (0 for the first try) so retry-aware jobs can vary their
/// behavior; deterministic callers ignore it.
///
/// Each worker is one big-stack thread ([`spawn_interp_scoped`]; a
/// single worker runs in one [`with_interp_stack`] frame), so every
/// `run_lowered` a job makes runs directly on the worker's stack — the
/// pool spawns once per worker per batch, not once per run. The pool is `jobs` workers, at least 1 and at most one per
/// job. With one worker the batch runs sequentially; under the
/// module-level determinism contract the results are bit-identical
/// either way.
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
    let stack_size = default_stack_size();
    let n = work.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers == 1 {
        let outcomes = with_interp_stack(stack_size, || {
            work.iter().map(|job| run_job(job, policy, &f)).collect()
        });
        record_batch(n, 1, 0);
        return outcomes;
    }

    let cursor = AtomicUsize::new(0);
    let claims = AtomicU64::new(0);
    let mut indexed: Vec<(usize, Result<R, JobError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                spawn_interp_scoped(s, stack_size, || {
                    let mut mine = Vec::new();
                    while let Some(block) = claim(&cursor, n, workers) {
                        claims.fetch_add(1, Ordering::Relaxed);
                        for i in block {
                            mine.push((i, run_job(&work[i], policy, &f)));
                        }
                    }
                    mine
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
    debug_assert_eq!(indexed.len(), n, "every job claimed exactly once");
    record_batch(n, workers, claims.load(Ordering::Relaxed));
    indexed.into_iter().map(|(_, r)| r).collect()
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
    fn skewed_batches_stay_in_order() {
        // The front of the range is slow, so the workers finish their
        // blocks out of order; the output must stay in job order with
        // every index run exactly once.
        let calls = AtomicU64::new(0);
        let work: Vec<usize> = (0..48).collect();
        let outcomes = run_batch_outcomes(4, &work, &BatchPolicy::default(), |&n, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            if n < 6 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            n * 3
        });
        assert_eq!(outcomes.len(), work.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.as_ref().unwrap(), &(i * 3));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn cursor_blocks_shrink_and_cover_every_index_once() {
        let cursor = AtomicUsize::new(0);
        let blocks: Vec<Range<usize>> = std::iter::from_fn(|| claim(&cursor, 40, 2)).collect();
        assert_eq!(blocks[..4], [0..10, 10..17, 17..22, 22..26]);
        assert!(blocks
            .windows(2)
            .all(|w| w[0].end == w[1].start && w[0].len() >= w[1].len()));
        assert_eq!(blocks.last(), Some(&(39..40)));
        assert_eq!(claim(&cursor, 40, 2), None);
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
            "\"chunks_claimed\"",
            "\"cache\"",
            "\"entries\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    /// That failed compiles are never cached is pinned in
    /// `tests/program_cache.rs`, whose one test owns the process-wide
    /// cache: here, other tests insert programs concurrently.
    #[test]
    fn try_lowered_cached_shares_and_reports_errors() {
        let src = "class Main { int main() { return 7; } }";
        let a = try_lowered_cached(src).expect("valid program compiles");
        let b = try_lowered_cached(src).expect("second lookup hits");
        assert!(Arc::ptr_eq(&a, &b), "cache shares the lowered program");

        let err = try_lowered_cached("class Main { int main() { return x; } }")
            .expect_err("unbound variable should fail to compile");
        assert!(!err.is_empty(), "error is a rendered diagnostic");
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
}
