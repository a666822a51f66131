//! The resident server: the control plane (`gates`) and the permits
//! that bound how many admitted jobs run at once. The TCP front-end
//! ([`crate::tcp`]) and the deterministic soak harness ([`crate::soak`])
//! both drive this same object — the only difference is where requests
//! and the virtual clock come from. The pipeline for one `run` request:
//!
//! ```text
//! parse → decide: mode → quarantine → queue bound → token/energy
//!       → wait for a permit → catch_unwind(run_prepared) → complete → reply
//! ```
//!
//! Every step runs on the thread that read the request. A job that finds
//! none of the `workers` permits free waits; waiters start in admission
//! order and are the queue whose bound sheds `overloaded`, so memory use
//! is bounded by construction. Jobs reuse the engine's
//! [`run_job_isolated`] machinery (the batch jobs' catch_unwind / retry
//! policy) and the shared compile-once program cache
//! ([`try_lowered_cached`]), so a hundred tenants submitting the same
//! benchmark compile it once.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ent_cli::run_prepared;
use ent_runtime::{default_stack_size, json_fields, with_interp_stack};
use ent_workloads::{
    lowered_cache_stats, run_job_isolated, source_fingerprint, try_lowered_cached, BatchPolicy,
};

use crate::admission::AdmissionConfig;
use crate::gates::{Admitted, Gates, Outcome};
use crate::json::{self, Members};
use crate::modes::{transitions, ModeConfig, SystemMode, Transition};
use crate::proto::{parse_request, ErrorKind, Op, Reply, Request, STATS_SCHEMA};
use crate::quarantine::QuarantineConfig;

/// Deterministic chaos injection for the soak: panics keyed by job
/// identity, the daemon's analogue of the energy layer's
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
    /// Permits: how many admitted jobs run at once.
    pub workers: usize,
    /// How many admitted jobs may wait for a permit under `normal` mode
    /// (degraded modes shrink the bound in force: half under `degraded`,
    /// a quarter below).
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

/// The server's monotone counters. Field names match the
/// `ent-serve-stats/1` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Requests that passed every gate.
    pub accepted: u64,
    /// Jobs that finished (any outcome).
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
    /// Sheds: too many jobs waiting for a permit, or tenant table full.
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

impl CounterSnapshot {
    /// The `shed` object's members, as the stats document and the soak
    /// report spell them.
    pub(crate) fn write_sheds(&self, o: &mut Members) {
        json_fields!(o; overloaded = self.shed_overloaded, rate_limited = self.shed_rate_limited,
            energy_budget = self.shed_energy_budget, quarantined = self.shed_quarantined,
            fallback_only = self.shed_fallback, bad_requests = self.bad_requests);
    }
}

/// A `run` or `check` that passed every gate; [`Server::execute`] runs it.
pub(crate) struct Job {
    pub(crate) request: Request,
    admitted: Admitted,
}

/// Everything that changes, under one lock.
struct State {
    gates: Gates,
    /// Jobs that have taken a permit. Admission numbers jobs by `accepted`
    /// (`Admitted::seq`), so job number `started` is the next to start.
    started: u64,
    /// Permits held by running jobs.
    running: usize,
}

impl State {
    /// Admitted jobs waiting for a permit: the queue the bound counts.
    fn waiting(&self) -> usize {
        (self.gates.counters.accepted - self.started) as usize
    }

    /// Job `seq` starts after every earlier one, on a free permit.
    fn may_start(&self, seq: u64, permits: usize) -> bool {
        self.started == seq && self.running < permits
    }
}

/// What a submission produced.
pub enum Submission {
    /// The reply: an admitted job runs before the submission returns.
    Immediate(Reply),
    /// Never built: every submission is answered before it returns. Kept
    /// because `perfbench/` matches on it (ROADMAP item 9 deletes it).
    Queued(Receiver<Reply>),
}

/// The resident server. It starts no thread: jobs run on their submitters'.
pub struct Server {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Signalled when a permit frees or a waiter starts.
    permits: Condvar,
}

impl Server {
    /// Builds the server.
    #[must_use]
    pub fn start(mut cfg: ServerConfig) -> Server {
        cfg.workers = cfg.workers.max(1);
        Server {
            state: Mutex::new(State {
                gates: Gates::new(&cfg),
                started: 0,
                running: 0,
            }),
            cfg,
            permits: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parses and submits one wire line at `now_ms` virtual time.
    pub fn handle_line(&self, line: &str, now_ms: u64) -> Submission {
        Submission::Immediate(self.serve_line(line, now_ms).0)
    }

    /// Answers one wire line at `now_ms` virtual time, with how long its
    /// job held a permit.
    pub(crate) fn serve_line(&self, line: &str, now_ms: u64) -> (Reply, Duration) {
        match parse_request(line) {
            Ok(request) => self.serve(request, now_ms),
            Err(message) => (self.bad_request(message), Duration::ZERO),
        }
    }

    /// Counts a line that is not a request and builds its typed reply.
    pub(crate) fn bad_request(&self, message: impl Into<String>) -> Reply {
        self.lock().gates.bad_request();
        Reply::error("", ErrorKind::BadRequest, message)
    }

    /// The reply to a connection the host could not give a thread,
    /// counted as an `overloaded` shed.
    pub(crate) fn refuse_connection(&self) -> Reply {
        self.lock().gates.refuse_connection();
        Reply::error(
            "",
            ErrorKind::Overloaded,
            "no thread for this connection; retry later",
        )
    }

    /// Submits a parsed request at `now_ms` virtual time. An admitted job
    /// runs on this thread, on an interpreter stack (scoped, if need be).
    pub fn submit(&self, request: Request, now_ms: u64) -> Submission {
        Submission::Immediate(self.serve(request, now_ms).0)
    }

    fn serve(&self, request: Request, now_ms: u64) -> (Reply, Duration) {
        match self.admit(request, now_ms) {
            Ok(job) => with_interp_stack(default_stack_size(), || self.execute(&job)),
            Err(reply) => (reply, Duration::ZERO),
        }
    }

    /// Runs the gates on `request` at `now_ms`: `stats`, `health` and every
    /// shed are answered here. A job must go to [`Server::execute`], as
    /// every job admitted after it waits until it starts.
    pub(crate) fn admit(&self, request: Request, now_ms: u64) -> Result<Job, Reply> {
        let fingerprint = source_fingerprint(&request.src);
        let mut st = self.lock();
        let depth = st.waiting();
        let decision = st
            .gates
            .decide(request.op, &request.tenant, fingerprint, now_ms, depth);
        let admitted = match decision {
            Ok(admitted) => admitted,
            Err(shed) => return Err(shed.reply(&request.id)),
        };
        let payload = match request.op {
            Op::Health => {
                let mode = st.gates.modes.mode().as_str();
                json::to_string(json::object(|o| json_fields!(o; ok = true, mode = mode)))
            }
            Op::Stats => self.stats_json(&st),
            Op::Run | Op::Check => return Ok(Job { request, admitted }),
        };
        Err(Reply::Doc {
            id: request.id,
            payload,
        })
    }

    /// Runs `job` on this thread once it may take a permit; returns the
    /// reply and how long the job held the permit.
    pub(crate) fn execute(&self, job: &Job) -> (Reply, Duration) {
        let (seq, permits) = (job.admitted.seq, self.cfg.workers);
        let mut st = self
            .permits
            .wait_while(self.lock(), |st| !st.may_start(seq, permits))
            .unwrap_or_else(PoisonError::into_inner);
        st.started += 1;
        st.running += 1;
        self.wake(&st);
        drop(st);
        let held = Instant::now();
        (self.process(job), held.elapsed())
    }

    /// Executes one job with full isolation. It is booked, and its permit
    /// freed, under one lock before the reply goes out, so a submitter
    /// holding every reply of a wave knows the whole wave is counted.
    fn process(&self, job: &Job) -> Reply {
        let request = &job.request;
        let id = &request.id;
        let book = |outcome: Outcome<'_>| {
            let mut st = self.lock();
            st.gates.complete(&request.tenant, &job.admitted, outcome);
            st.running -= 1;
            self.wake(&st);
        };
        let failed = |outcome, kind, message: String| {
            book(outcome);
            Reply::error(id, kind, message)
        };
        if request.op == Op::Check {
            // A static path: compile + typecheck, no energy spent. Still
            // isolated — a compiler panic must not take the daemon down.
            let checked = run_job_isolated(&self.cfg.policy, |_| {
                ent_cli::execute(&request.options, &request.src)
            });
            return match checked {
                Ok((code, output)) => {
                    book(Outcome::Checked);
                    Reply::Done {
                        id: id.clone(),
                        code,
                        output,
                        energy_j: 0.0,
                        time_s: 0.0,
                        attempts: 1,
                    }
                }
                Err(e) => failed(Outcome::Panicked, ErrorKind::Panic, e.message),
            };
        }

        let (chaos, fingerprint, seq) =
            (self.cfg.chaos, job.admitted.fingerprint, job.admitted.seq);
        let result = run_job_isolated(&self.cfg.policy, |attempt| {
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
            match try_lowered_cached(&request.src) {
                Ok(lowered) => (attempt + 1, Ok(run_prepared(&request.options, &lowered))),
                Err(diagnostic) => (attempt + 1, Err(diagnostic)),
            }
        });
        match result {
            Ok((attempts, Ok(run))) => {
                book(Outcome::Ran(&run));
                Reply::done(id, &run, attempts)
            }
            Ok((_, Err(diagnostic))) => {
                failed(Outcome::CompileError, ErrorKind::CompileError, diagnostic)
            }
            Err(e) => {
                let message = format!("job panicked on all {} attempts: {}", e.attempts, e.message);
                failed(Outcome::Panicked, ErrorKind::Panic, message)
            }
        }
    }

    /// Wakes the waiters when a permit is free for one of them.
    fn wake(&self, st: &State) {
        if st.waiting() > 0 && st.running < self.cfg.workers {
            self.permits.notify_all();
        }
    }

    /// Runs one mode-controller tick on what completed since the last
    /// one. The TCP front-end calls this on a timer; the soak calls it at
    /// deterministic points.
    pub fn tick(&self) -> SystemMode {
        let st = &mut *self.lock();
        let depth = st.waiting();
        st.gates.tick(depth)
    }

    /// The current system mode.
    #[must_use]
    pub fn mode(&self) -> SystemMode {
        self.lock().gates.modes.mode()
    }

    /// The mode-transition log so far.
    #[must_use]
    pub fn transitions(&self) -> Vec<Transition> {
        self.lock().gates.modes.transitions().to_vec()
    }

    /// Renders the `ent-serve-stats/1` document — the server-side twin
    /// of the batch sidecar, including the shared program cache's
    /// counters.
    fn stats_json(&self, st: &State) -> String {
        let g = &st.gates;
        let c = &g.counters;
        let (fail_ewma, queue_ewma, fault_ewma) = g.modes.signals();
        let cache = lowered_cache_stats();
        json::to_string(json::object(|o| {
            json_fields!(o; schema = STATS_SCHEMA, mode = g.modes.mode().as_str());
            o.object("signals", |o| {
                json_fields!(o; failure_ewma = fail_ewma, queue_ewma = queue_ewma,
                    fault_ewma = fault_ewma);
            });
            json_fields!(o; workers = self.cfg.workers, tenants = g.admission.tenant_count());
            o.object("queue", |o| {
                json_fields!(o; depth = st.waiting(), capacity = self.cfg.queue_capacity,
                    effective_capacity = g.capacity());
            });
            o.object("jobs", |o| {
                json_fields!(o; accepted = c.accepted, completed = c.completed, ok = c.ok_runs,
                    degraded = c.degraded_runs, runtime_errors = c.runtime_errors,
                    compile_errors = c.compile_errors, panics = c.panics, checks = c.checks);
            });
            o.object("shed", |o| c.write_sheds(o));
            o.object("quarantine", |o| {
                json_fields!(o; active = g.quarantine.active(), paroled = g.quarantine.paroled(),
                    probes = c.probes);
            });
            o.object("cache", |o| {
                json_fields!(o, cache; capacity, entries, hits, misses, evictions);
            });
            o.field("transitions", transitions(g.modes.transitions()));
        }))
    }

    /// A point-in-time copy of every monotone counter, for the soak
    /// harness and the bench bin (the stats document renders the same
    /// numbers for wire clients).
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.lock().gates.counters
    }

    /// `(active, paroled)` quarantine counts.
    #[must_use]
    pub fn quarantine_counts(&self) -> (u64, u64) {
        let q = &self.lock().gates.quarantine;
        (q.active(), q.paroled())
    }

    /// Drops the server: every submission was answered as it returned.
    pub fn shutdown(self) {}
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
        let Submission::Immediate(reply) = sub else {
            panic!("every submission is answered before it returns")
        };
        reply
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
        let mut replies = Vec::new();
        for i in 0..5 {
            match recv(server.handle_line(&run_line(HELLO, "bursty", &format!("r{i}")), 0)) {
                Reply::Error { kind, .. } => {
                    assert_eq!(kind, ErrorKind::RateLimited);
                    shed += 1;
                }
                reply => replies.push(reply),
            }
        }
        assert_eq!(shed, 3, "burst of 2 admits 2 of 5");
        // Another tenant at the same instant is untouched.
        assert!(matches!(
            recv(server.handle_line(&run_line(HELLO, "quiet", "q"), 0)),
            Reply::Done { .. }
        ));
        for reply in replies {
            assert!(matches!(reply, Reply::Done { .. }), "{reply:?}");
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
                assert_eq!(code, ent_cli::EXIT_OK);
                assert_eq!(attempts, 2, "first attempt panicked, retry ran");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        server.shutdown();
    }

    /// The jobs waiting for a permit are the queue: the bound counts
    /// them, `stats` reports them, and they start in admission order.
    #[test]
    fn waiters_for_a_permit_are_the_bounded_queue() {
        let one_permit = |queue_capacity| ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        };
        let admit = |server: &Server, id: &str| {
            let request = parse_request(&run_line(HELLO, "t", id)).unwrap();
            server.admit(request, 0).expect("admitted")
        };
        let server = Server::start(one_permit(1));
        let waiter = admit(&server, "w");
        match recv(server.handle_line(&run_line(HELLO, "t", "shed"), 0)) {
            Reply::Error { kind, message, .. } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(message, "work queue full (1 deep in normal mode)");
            }
            other => panic!("expected an overloaded shed, got {other:?}"),
        }
        let Reply::Doc { payload, .. } = recv(server.handle_line("{\"op\": \"stats\"}", 0)) else {
            panic!("stats is a doc")
        };
        assert!(payload.contains("\"depth\": 1"), "{payload}");
        assert!(matches!(server.execute(&waiter).0, Reply::Done { .. }));
        let again = recv(server.handle_line(&run_line(HELLO, "t", "again"), 0));
        assert!(matches!(again, Reply::Done { .. }), "{again:?}");

        // Two waiters: the later one may not start before the earlier.
        let server = Server::start(one_permit(2));
        let (first, second) = (admit(&server, "first"), admit(&server, "second"));
        {
            let st = server.lock();
            assert_eq!(st.waiting(), 2);
            assert!(!st.may_start(second.admitted.seq, 1));
            assert!(st.may_start(first.admitted.seq, 1));
        }
        std::thread::scope(|s| {
            // Started first, the later waiter blocks until the earlier one
            // has run.
            let later = s.spawn(|| server.execute(&second).0);
            assert!(matches!(server.execute(&first).0, Reply::Done { .. }));
            assert!(matches!(later.join().unwrap(), Reply::Done { .. }));
        });
        assert_eq!(server.lock().waiting(), 0);
        assert_eq!(server.counters().completed, 2);
    }
}
