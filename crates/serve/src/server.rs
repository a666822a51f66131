//! The resident server core: bounded queue, worker pool, admission,
//! modes, quarantine.
//!
//! The TCP front-end ([`crate::tcp`]) and the deterministic soak harness
//! ([`crate::soak`]) both drive this same object — the only difference
//! is where requests and the virtual clock come from. The pipeline for
//! one `run` request:
//!
//! ```text
//! parse → mode gate → quarantine gate → queue bound → token/energy gate
//!       → bounded queue → worker: catch_unwind(run_prepared) → reply
//! ```
//!
//! Every gate that refuses a request sends a typed reply immediately —
//! the queue is the only place a request waits, and it is bounded, so
//! memory use is bounded by construction. Workers reuse the engine's
//! [`run_job_isolated`] machinery (the same catch_unwind / retry policy
//! as batch jobs) and the shared compile-once program cache
//! ([`try_lowered_cached`]), so a hundred tenants submitting the same
//! benchmark compile it once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ent_cli::{run_prepared, Options, EXIT_DEGRADED, EXIT_OK, EXIT_RUNTIME};
use ent_runtime::{default_stack_size, json_f64, with_interp_stack};
use ent_workloads::{
    lowered_cache_stats, run_job_isolated, source_fingerprint, try_lowered_cached, BatchPolicy,
};

use crate::admission::{Admission, AdmissionConfig, AdmissionShed};
use crate::modes::{ModeConfig, ModeController, Observation, SystemMode, Transition};
use crate::proto::{ErrorKind, Op, Reply, Request, STATS_SCHEMA};
use crate::quarantine::{Quarantine, QuarantineConfig, Verdict};

/// Deterministic chaos injection for the soak: panics keyed by job
/// identity, the worker-pool analogue of the energy layer's
/// `FaultInjector` (a pure function of seed and identity, never of
/// timing).
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    /// Seed decorrelating this plan from the fault injector's.
    pub seed: u64,
    /// Fraction of *programs* (by fingerprint) whose every attempt
    /// panics — repeat offenders destined for quarantine.
    pub poison_rate: f64,
    /// Fraction of *jobs* (by fingerprint and sequence number) whose
    /// first attempt panics — transient faults a retry absorbs.
    pub transient_rate: f64,
}

/// splitmix64, as in the fault injector: a stateless mixer so chaos is a
/// pure function of identity.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl ChaosPlan {
    /// Does this plan poison every attempt of `fingerprint`?
    #[must_use]
    pub fn poisons(&self, fingerprint: u64) -> bool {
        fraction(splitmix64(self.seed ^ fingerprint)) < self.poison_rate
    }

    /// Does this plan panic the first attempt of job `seq`?
    #[must_use]
    pub fn transient(&self, fingerprint: u64, seq: u64) -> bool {
        fraction(splitmix64(
            self.seed ^ fingerprint.rotate_left(17) ^ seq.wrapping_mul(0x9e37),
        )) < self.transient_rate
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity under `normal` mode (degraded modes shrink
    /// the effective bound; see [`Server::effective_capacity`]).
    pub queue_capacity: usize,
    /// Per-job isolation policy (retries) — the same [`BatchPolicy`] the
    /// batch scheduler uses.
    pub policy: BatchPolicy,
    /// Per-tenant admission policy.
    pub admission: AdmissionConfig,
    /// Mode-controller thresholds.
    pub modes: ModeConfig,
    /// Quarantine policy.
    pub quarantine: QuarantineConfig,
    /// Deterministic panic injection (soak only; `None` in production).
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            policy: BatchPolicy { retries: 1 },
            admission: AdmissionConfig::default(),
            modes: ModeConfig::default(),
            quarantine: QuarantineConfig::default(),
            chaos: None,
        }
    }
}

/// Monotone counters, all relaxed — they are telemetry, not
/// synchronization.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    ok_runs: AtomicU64,
    degraded_runs: AtomicU64,
    runtime_errors: AtomicU64,
    compile_errors: AtomicU64,
    panics: AtomicU64,
    checks: AtomicU64,
    probes: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_rate_limited: AtomicU64,
    shed_energy_budget: AtomicU64,
    shed_quarantined: AtomicU64,
    shed_fallback: AtomicU64,
    bad_requests: AtomicU64,
    // Drained by each controller tick.
    tick_completions: AtomicU64,
    tick_failures: AtomicU64,
    tick_faults: AtomicU64,
}

/// A queued job.
struct Job {
    seq: u64,
    request: Request,
    fingerprint: u64,
    is_probe: bool,
    now_ms: u64,
    reply_tx: Sender<Reply>,
}

/// Mutable control state under one lock: the queue and the three
/// controllers move together, so a submission sees one consistent
/// admission decision.
struct State {
    queue: VecDeque<Job>,
    modes: ModeController,
    admission: Admission,
    quarantine: Quarantine,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    available: Condvar,
    counters: Counters,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

/// A point-in-time copy of the server's monotone counters. Field names
/// match the `ent-serve-stats/1` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Requests that passed every gate and entered the queue.
    pub accepted: u64,
    /// Jobs a worker finished (any outcome).
    pub completed: u64,
    /// Runs that exited 0.
    pub ok_runs: u64,
    /// Runs that completed degraded (exit 4).
    pub degraded_runs: u64,
    /// Runs that stopped with a runtime error (exit 3).
    pub runtime_errors: u64,
    /// Programs that failed to compile.
    pub compile_errors: u64,
    /// Jobs that panicked past their retry budget.
    pub panics: u64,
    /// `check` operations served.
    pub checks: u64,
    /// Quarantine parole probes admitted.
    pub probes: u64,
    /// Sheds: bounded queue full.
    pub shed_overloaded: u64,
    /// Sheds: tenant token bucket empty.
    pub shed_rate_limited: u64,
    /// Sheds: tenant energy budget spent.
    pub shed_energy_budget: u64,
    /// Sheds: program quarantined.
    pub shed_quarantined: u64,
    /// Sheds: `fallback_only` mode refused run work.
    pub shed_fallback: u64,
    /// Lines that failed to parse or validate.
    pub bad_requests: u64,
}

/// What a submission produced.
pub enum Submission {
    /// Decided synchronously (stats, health, every shed, bad requests).
    Immediate(Reply),
    /// Queued; the reply arrives on this channel when a worker finishes.
    Queued(Receiver<Reply>),
}

/// The resident server. Dropping it shuts the worker pool down.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(cfg: ServerConfig) -> Server {
        let workers_n = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                modes: ModeController::new(cfg.modes.clone()),
                admission: Admission::new(cfg.admission.clone()),
                quarantine: Quarantine::new(cfg.quarantine.clone()),
            }),
            cfg,
            available: Condvar::new(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let workers = (0..workers_n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let (entered_tx, entered_rx) = channel();
                // One interpreter-stack frame per worker lifetime: every
                // compile and run the worker does then recurses in place.
                let handle = std::thread::Builder::new()
                    .name(format!("ent-serve-worker-{i}"))
                    .spawn(move || {
                        with_interp_stack(default_stack_size(), || {
                            let _ = entered_tx.send(());
                            worker_loop(&inner);
                        });
                    })
                    .expect("spawn worker");
                // A worker that cannot create its stack dies before serving;
                // stop here rather than leave queued requests unanswered.
                entered_rx.recv().expect(
                    "an ent-serve worker could not create its interpreter stack \
                     (ENT_STACK_SIZE too large for this host?)",
                );
                handle
            })
            .collect();
        Server { inner, workers }
    }

    /// The queue bound in force under `mode`: degraded halves it,
    /// energy_saver (and the fallback floor) quarters it — load is shed
    /// earlier exactly when the system is least able to absorb it.
    #[must_use]
    pub fn effective_capacity(cfg: &ServerConfig, mode: SystemMode) -> usize {
        let cap = cfg.queue_capacity.max(1);
        match mode.severity() {
            0 => cap,
            1 => (cap / 2).max(1),
            _ => (cap / 4).max(1),
        }
    }

    /// Parses and submits one wire line at `now_ms` virtual time.
    pub fn handle_line(&self, line: &str, now_ms: u64) -> Submission {
        match crate::proto::parse_request(line) {
            Ok(request) => self.submit(request, now_ms),
            Err(message) => Submission::Immediate(self.bad_request(message)),
        }
    }

    /// Counts a line that is not a request and builds its typed reply.
    pub(crate) fn bad_request(&self, message: impl Into<String>) -> Reply {
        self.inner
            .counters
            .bad_requests
            .fetch_add(1, Ordering::Relaxed);
        Reply::error("", ErrorKind::BadRequest, message)
    }

    /// Submits a parsed request at `now_ms` virtual time.
    pub fn submit(&self, request: Request, now_ms: u64) -> Submission {
        let inner = &self.inner;
        match request.op {
            Op::Health => Submission::Immediate(self.health_reply(&request.id)),
            Op::Stats => Submission::Immediate(Reply::Doc {
                id: request.id.clone(),
                payload: self.stats_json(),
            }),
            Op::Run | Op::Check => {
                let fingerprint = source_fingerprint(&request.src);
                let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                let mode = st.modes.mode();
                // Gate 1: mode. The conservative floor sheds run work
                // outright; `check` is a static path and stays served.
                if mode == SystemMode::FallbackOnly && request.op == Op::Run {
                    inner.counters.shed_fallback.fetch_add(1, Ordering::Relaxed);
                    return Submission::Immediate(Reply::error(
                        &request.id,
                        ErrorKind::FallbackOnly,
                        "server is in fallback_only mode; run work is shed",
                    ));
                }
                // Gate 2: quarantine (run only — a quarantined program
                // may still be type-checked).
                let mut is_probe = false;
                if request.op == Op::Run {
                    match st.quarantine.check(fingerprint, now_ms) {
                        Verdict::Admit => {}
                        Verdict::Probe => {
                            is_probe = true;
                            inner.counters.probes.fetch_add(1, Ordering::Relaxed);
                        }
                        Verdict::Reject => {
                            inner
                                .counters
                                .shed_quarantined
                                .fetch_add(1, Ordering::Relaxed);
                            return Submission::Immediate(Reply::error(
                                &request.id,
                                ErrorKind::Quarantined,
                                "program is quarantined after repeated failures; \
                                 periodic parole probes will release it once it runs clean",
                            ));
                        }
                    }
                }
                // Gate 3: the bounded queue (before spending a token, so
                // overload does not also drain the tenant's bucket).
                let capacity = Self::effective_capacity(&inner.cfg, mode);
                if st.queue.len() >= capacity {
                    inner
                        .counters
                        .shed_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    return Submission::Immediate(Reply::error(
                        &request.id,
                        ErrorKind::Overloaded,
                        format!(
                            "work queue full ({capacity} deep in {} mode)",
                            mode.as_str()
                        ),
                    ));
                }
                // Gate 4: per-tenant tokens and energy budget.
                if let Err(shed) = st.admission.admit(&request.tenant, now_ms, mode) {
                    let (counter, kind, msg) = match shed {
                        AdmissionShed::RateLimited => (
                            &inner.counters.shed_rate_limited,
                            ErrorKind::RateLimited,
                            "tenant request budget exhausted; retry later",
                        ),
                        AdmissionShed::EnergyBudget => (
                            &inner.counters.shed_energy_budget,
                            ErrorKind::EnergyBudget,
                            "tenant energy budget spent",
                        ),
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Submission::Immediate(Reply::error(&request.id, kind, msg));
                }
                let (reply_tx, reply_rx) = channel();
                st.queue.push_back(Job {
                    seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                    request,
                    fingerprint,
                    is_probe,
                    now_ms,
                    reply_tx,
                });
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                drop(st);
                inner.available.notify_one();
                Submission::Queued(reply_rx)
            }
        }
    }

    /// Runs one mode-controller tick: drains the since-last-tick
    /// counters into an [`Observation`] and lets the controller move.
    /// The TCP front-end calls this on a timer; the soak calls it at
    /// deterministic points.
    pub fn tick(&self) -> SystemMode {
        let c = &self.inner.counters;
        let completions = c.tick_completions.swap(0, Ordering::Relaxed);
        let failures = c.tick_failures.swap(0, Ordering::Relaxed);
        let sensor_faults = c.tick_faults.swap(0, Ordering::Relaxed);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let obs = Observation {
            completions,
            failures,
            sensor_faults,
            queue_depth: st.queue.len() as u64,
            queue_capacity: Self::effective_capacity(&self.inner.cfg, st.modes.mode()) as u64,
        };
        st.modes.observe(&obs)
    }

    /// The current system mode.
    #[must_use]
    pub fn mode(&self) -> SystemMode {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .modes
            .mode()
    }

    /// The mode-transition log so far.
    #[must_use]
    pub fn transitions(&self) -> Vec<Transition> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .modes
            .transitions()
            .to_vec()
    }

    fn health_reply(&self, id: &str) -> Reply {
        let mode = self.mode();
        Reply::Doc {
            id: id.to_string(),
            payload: format!("{{\"ok\": true, \"mode\": \"{}\"}}", mode.as_str()),
        }
    }

    /// Renders the `ent-serve-stats/1` document — the server-side twin
    /// of the batch sidecar, including the shared program cache's
    /// counters.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let c = &self.inner.counters;
        let st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let mode = st.modes.mode();
        let (fail_ewma, queue_ewma, fault_ewma) = st.modes.signals();
        let cache = lowered_cache_stats();
        let transitions = st
            .modes
            .transitions()
            .iter()
            .map(|(tick, from, to)| {
                format!(
                    "{{\"tick\": {tick}, \"from\": \"{}\", \"to\": \"{}\"}}",
                    from.as_str(),
                    to.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{{\"schema\": \"{STATS_SCHEMA}\", \"mode\": \"{}\", \
             \"signals\": {{\"failure_ewma\": {}, \"queue_ewma\": {}, \"fault_ewma\": {}}}, \
             \"workers\": {}, \"tenants\": {}, \
             \"queue\": {{\"depth\": {}, \"capacity\": {}, \"effective_capacity\": {}}}, \
             \"jobs\": {{\"accepted\": {}, \"completed\": {}, \"ok\": {}, \"degraded\": {}, \
             \"runtime_errors\": {}, \"compile_errors\": {}, \"panics\": {}, \"checks\": {}}}, \
             \"shed\": {{\"overloaded\": {}, \"rate_limited\": {}, \"energy_budget\": {}, \
             \"quarantined\": {}, \"fallback_only\": {}, \"bad_requests\": {}}}, \
             \"quarantine\": {{\"active\": {}, \"paroled\": {}, \"probes\": {}}}, \
             \"cache\": {{\"capacity\": {}, \"entries\": {}, \"hits\": {}, \
             \"misses\": {}, \"evictions\": {}}}, \
             \"transitions\": [{}]}}",
            mode.as_str(),
            json_f64(fail_ewma),
            json_f64(queue_ewma),
            json_f64(fault_ewma),
            self.workers.len(),
            st.admission.tenant_count(),
            st.queue.len(),
            self.inner.cfg.queue_capacity,
            Self::effective_capacity(&self.inner.cfg, mode),
            load(&c.accepted),
            load(&c.completed),
            load(&c.ok_runs),
            load(&c.degraded_runs),
            load(&c.runtime_errors),
            load(&c.compile_errors),
            load(&c.panics),
            load(&c.checks),
            load(&c.shed_overloaded),
            load(&c.shed_rate_limited),
            load(&c.shed_energy_budget),
            load(&c.shed_quarantined),
            load(&c.shed_fallback),
            load(&c.bad_requests),
            st.quarantine.active(),
            st.quarantine.paroled(),
            load(&c.probes),
            cache.capacity,
            cache.entries,
            cache.hits,
            cache.misses,
            cache.evictions,
            transitions,
        )
    }

    /// A point-in-time copy of every monotone counter, for the soak
    /// harness and the bench bin (the stats document renders the same
    /// numbers for wire clients).
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        let c = &self.inner.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CounterSnapshot {
            accepted: load(&c.accepted),
            completed: load(&c.completed),
            ok_runs: load(&c.ok_runs),
            degraded_runs: load(&c.degraded_runs),
            runtime_errors: load(&c.runtime_errors),
            compile_errors: load(&c.compile_errors),
            panics: load(&c.panics),
            checks: load(&c.checks),
            probes: load(&c.probes),
            shed_overloaded: load(&c.shed_overloaded),
            shed_rate_limited: load(&c.shed_rate_limited),
            shed_energy_budget: load(&c.shed_energy_budget),
            shed_quarantined: load(&c.shed_quarantined),
            shed_fallback: load(&c.shed_fallback),
            bad_requests: load(&c.bad_requests),
        }
    }

    /// `(active, paroled)` quarantine counts.
    #[must_use]
    pub fn quarantine_counts(&self) -> (u64, u64) {
        let st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        (st.quarantine.active(), st.quarantine.paroled())
    }

    /// Stops accepting queue pops and joins the workers. Jobs still in
    /// the queue are drained first (their submitters hold receivers).
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut st: MutexGuard<State> = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                st = inner.available.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let reply = process_job(inner, &job);
        // A submitter that gave up and dropped its receiver is fine.
        let _ = job.reply_tx.send(reply);
    }
}

/// Executes one job with full isolation and does the post-completion
/// bookkeeping (counters, quarantine strikes/parole, energy accounting,
/// tick signals).
fn process_job(inner: &Arc<Inner>, job: &Job) -> Reply {
    let c = &inner.counters;
    if job.request.op == Op::Check {
        // A static path: compile + typecheck, no energy spent. Still
        // isolated — a compiler panic must not take a worker down.
        let result = run_job_isolated(&inner.cfg.policy, |_| {
            ent_cli::execute(&job.request.options, &job.request.src)
        });
        c.checks.fetch_add(1, Ordering::Relaxed);
        c.completed.fetch_add(1, Ordering::Relaxed);
        c.tick_completions.fetch_add(1, Ordering::Relaxed);
        return match result {
            Ok((code, output)) => Reply::Done {
                id: job.request.id.clone(),
                code,
                output,
                energy_j: 0.0,
                time_s: 0.0,
                attempts: 1,
            },
            Err(e) => {
                c.panics.fetch_add(1, Ordering::Relaxed);
                c.tick_failures.fetch_add(1, Ordering::Relaxed);
                Reply::error(&job.request.id, ErrorKind::Panic, e.message)
            }
        };
    }

    let chaos = inner.cfg.chaos;
    let fingerprint = job.fingerprint;
    let seq = job.seq;
    let src = &job.request.src;
    let options: &Options = &job.request.options;
    let result = run_job_isolated(&inner.cfg.policy, move |attempt| {
        if let Some(plan) = &chaos {
            if plan.poisons(fingerprint) {
                panic!("chaos: poisoned program {fingerprint:#x}");
            }
            if attempt == 0 && plan.transient(fingerprint, seq) {
                panic!("chaos: transient worker fault on job {seq}");
            }
        }
        // Compile through the shared cache; run through the same
        // rendering path as `ent run` — byte-identity by construction.
        match try_lowered_cached(src) {
            Ok(lowered) => (attempt + 1, Ok(run_prepared(options, &lowered))),
            Err(diagnostic) => (attempt + 1, Err(diagnostic)),
        }
    });

    c.completed.fetch_add(1, Ordering::Relaxed);
    c.tick_completions.fetch_add(1, Ordering::Relaxed);
    match result {
        Ok((attempts, Ok(outcome))) => {
            let failed = outcome.code == EXIT_RUNTIME;
            match outcome.code {
                EXIT_OK => {
                    c.ok_runs.fetch_add(1, Ordering::Relaxed);
                }
                EXIT_DEGRADED => {
                    c.degraded_runs.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    c.runtime_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            if failed {
                c.tick_failures.fetch_add(1, Ordering::Relaxed);
            }
            c.tick_faults
                .fetch_add(outcome.sensor_faults, Ordering::Relaxed);
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.admission
                .record_energy(&job.request.tenant, outcome.energy_j);
            if failed {
                st.quarantine.note_failure(fingerprint, job.now_ms);
            } else {
                st.quarantine.note_success(fingerprint, job.now_ms);
            }
            drop(st);
            let _ = job.is_probe; // probe outcome feeds parole via note_*
            Reply::done(&job.request.id, &outcome, attempts)
        }
        Ok((_, Err(diagnostic))) => {
            c.compile_errors.fetch_add(1, Ordering::Relaxed);
            c.tick_failures.fetch_add(1, Ordering::Relaxed);
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.quarantine.note_failure(fingerprint, job.now_ms);
            drop(st);
            Reply::error(&job.request.id, ErrorKind::CompileError, diagnostic)
        }
        Err(job_error) => {
            c.panics.fetch_add(1, Ordering::Relaxed);
            c.tick_failures.fetch_add(1, Ordering::Relaxed);
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.quarantine.note_failure(fingerprint, job.now_ms);
            drop(st);
            Reply::error(
                &job.request.id,
                ErrorKind::Panic,
                format!(
                    "job panicked on all {} attempts: {}",
                    job_error.attempts, job_error.message
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    const HELLO: &str = "class Main { int main() { IO.print(\"hi\"); return 41 + 1; } }";

    fn run_line(src: &str, tenant: &str, id: &str) -> String {
        format!(
            "{{\"op\": \"run\", \"id\": \"{id}\", \"tenant\": \"{tenant}\", \"src\": \"{}\"}}",
            ent_runtime::json_escape(src)
        )
    }

    fn recv(sub: Submission) -> Reply {
        match sub {
            Submission::Immediate(r) => r,
            Submission::Queued(rx) => rx.recv().expect("worker replies"),
        }
    }

    #[test]
    fn served_run_is_byte_identical_to_one_shot() {
        let server = Server::start(ServerConfig::default());
        let reply = recv(server.handle_line(&run_line(HELLO, "t", "r1"), 0));
        let request = parse_request(&run_line(HELLO, "t", "r1")).unwrap();
        let one_shot = ent_cli::execute(&request.options, HELLO);
        match reply {
            Reply::Done { code, output, .. } => {
                assert_eq!((code, output), one_shot);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn compile_errors_reply_typed_with_the_cli_diagnostic() {
        let server = Server::start(ServerConfig::default());
        let bad = "class Main { int main() { return x; } }";
        let reply = recv(server.handle_line(&run_line(bad, "t", "r2"), 0));
        let request = parse_request(&run_line(bad, "t", "r2")).unwrap();
        let (code, one_shot) = ent_cli::execute(&request.options, bad);
        assert_eq!(code, ent_cli::EXIT_COMPILE);
        match reply {
            Reply::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::CompileError);
                assert_eq!(format!("error: {message}\n"), one_shot);
            }
            other => panic!("expected Error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_modes_block_past_the_limit_is_refused_typed() {
        let server = Server::start(ServerConfig::default());
        let modes: String = (0..5000).map(|i| format!("m{i}; ")).collect();
        let src = format!("modes {{ {modes}}} class Main {{ int main() {{ return 0; }} }}");
        // The parser's limit, `ent_syntax::MAX_MODES`.
        let limit = "declares more than 64 modes";
        match recv(server.handle_line(&run_line(&src, "t", "r"), 0)) {
            Reply::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::CompileError);
                assert!(message.contains(limit), "{message}");
            }
            other => panic!("expected a compile error, got {other:?}"),
        }
        let check = run_line(&src, "t", "c").replacen("\"run\"", "\"check\"", 1);
        match recv(server.handle_line(&check, 1)) {
            Reply::Done { code, output, .. } => {
                assert_eq!(code, ent_cli::EXIT_COMPILE);
                assert!(output.contains(limit), "{output}");
            }
            other => panic!("expected a finished check, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn bad_lines_get_bad_request_replies() {
        let server = Server::start(ServerConfig::default());
        for line in ["junk", "{\"op\": \"fly\"}", "{\"op\": \"run\"}"] {
            match server.handle_line(line, 0) {
                Submission::Immediate(Reply::Error { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::BadRequest);
                }
                _ => panic!("`{line}` should be refused synchronously"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn rate_limits_burst_traffic_per_tenant() {
        let cfg = ServerConfig {
            admission: AdmissionConfig {
                burst: 2.0,
                refill_per_s: 1.0,
                energy_budget_j: f64::INFINITY,
            },
            ..ServerConfig::default()
        };
        let server = Server::start(cfg);
        let mut shed = 0;
        let mut queued = Vec::new();
        for i in 0..5 {
            match server.handle_line(&run_line(HELLO, "bursty", &format!("r{i}")), 0) {
                Submission::Immediate(Reply::Error { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::RateLimited);
                    shed += 1;
                }
                Submission::Queued(rx) => queued.push(rx),
                Submission::Immediate(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(shed, 3, "burst of 2 admits 2 of 5");
        // Another tenant at the same instant is untouched.
        assert!(matches!(
            server.handle_line(&run_line(HELLO, "quiet", "q"), 0),
            Submission::Queued(_)
        ));
        for rx in queued {
            assert!(matches!(rx.recv().unwrap(), Reply::Done { .. }));
        }
        server.shutdown();
    }

    #[test]
    fn stats_document_is_valid_and_carries_cache_counters() {
        let server = Server::start(ServerConfig::default());
        let _ = recv(server.handle_line(&run_line(HELLO, "t", "r"), 0));
        let Submission::Immediate(reply) = server.handle_line("{\"op\": \"stats\"}", 1) else {
            panic!("stats is synchronous")
        };
        let Reply::Doc { payload, .. } = &reply else {
            panic!("stats is a doc")
        };
        assert!(ent_runtime::json_is_valid(payload), "{payload}");
        for needle in [
            "\"schema\": \"ent-serve-stats/1\"",
            "\"mode\": \"normal\"",
            "\"signals\":",
            "\"queue\":",
            "\"jobs\":",
            "\"shed\":",
            "\"quarantine\":",
            "\"cache\":",
            "\"entries\":",
            "\"transitions\":",
        ] {
            assert!(payload.contains(needle), "missing {needle} in {payload}");
        }
        let line = reply.to_json();
        assert!(ent_runtime::json_is_valid(&line), "{line}");
        server.shutdown();
    }

    #[test]
    fn poisoned_jobs_panic_without_crashing_the_daemon() {
        let cfg = ServerConfig {
            chaos: Some(ChaosPlan {
                seed: 1,
                poison_rate: 1.0,
                transient_rate: 0.0,
            }),
            policy: BatchPolicy { retries: 1 },
            ..ServerConfig::default()
        };
        let server = Server::start(cfg);
        let reply = recv(server.handle_line(&run_line(HELLO, "t", "boom"), 0));
        match reply {
            Reply::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::Panic);
                assert!(message.contains("2 attempts"), "{message}");
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("expected Panic, got {other:?}"),
        }
        // The daemon still serves afterwards.
        let Submission::Immediate(Reply::Doc { payload, .. }) =
            server.handle_line("{\"op\": \"health\"}", 1)
        else {
            panic!("health is synchronous")
        };
        assert!(payload.contains("\"ok\": true"));
        server.shutdown();
    }

    #[test]
    fn transient_panics_are_absorbed_by_one_retry() {
        let cfg = ServerConfig {
            chaos: Some(ChaosPlan {
                seed: 2,
                poison_rate: 0.0,
                transient_rate: 1.0,
            }),
            policy: BatchPolicy { retries: 1 },
            ..ServerConfig::default()
        };
        let server = Server::start(cfg);
        let reply = recv(server.handle_line(&run_line(HELLO, "t", "flaky"), 0));
        match reply {
            Reply::Done { code, attempts, .. } => {
                assert_eq!(code, EXIT_OK);
                assert_eq!(attempts, 2, "first attempt panicked, retry ran");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        server.shutdown();
    }
}
