//! The resident server: a bounded queue, a worker pool and the reply
//! channels around the control plane (`gates`). The TCP front-end ([`crate::tcp`]) and the deterministic soak harness
//! ([`crate::soak`]) both drive this same object — the only difference
//! is where requests and the virtual clock come from. The pipeline for
//! one `run` request:
//!
//! ```text
//! parse → decide: mode → quarantine → queue bound → token/energy
//!       → bounded queue → worker: catch_unwind(run_prepared) → complete → reply
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
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ent_cli::run_prepared;
use ent_runtime::{default_stack_size, json_fields, with_interp_stack};
use ent_workloads::{
    lowered_cache_stats, run_job_isolated, source_fingerprint, try_lowered_cached, BatchPolicy,
};

use crate::admission::AdmissionConfig;
use crate::gates::{Admitted, Gates, Outcome};
use crate::json::{self, Members};
use crate::modes::{transitions, ModeConfig, SystemMode, Transition};
use crate::proto::{ErrorKind, Op, Reply, Request, STATS_SCHEMA};
use crate::quarantine::QuarantineConfig;

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
    /// the bound in force: half under `degraded`, a quarter below).
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
    /// Sheds: bounded queue or tenant table full.
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

/// A queued job.
struct Job {
    request: Request,
    admitted: Admitted,
    reply_tx: Sender<Reply>,
}

/// Everything that changes, under one lock.
struct State {
    queue: VecDeque<Job>,
    gates: Gates,
    shutdown: bool,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    available: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
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
                gates: Gates::new(&cfg),
                shutdown: false,
            }),
            cfg,
            available: Condvar::new(),
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

    /// Parses and submits one wire line at `now_ms` virtual time.
    pub fn handle_line(&self, line: &str, now_ms: u64) -> Submission {
        match crate::proto::parse_request(line) {
            Ok(request) => self.submit(request, now_ms),
            Err(message) => Submission::Immediate(self.bad_request(message)),
        }
    }

    /// Counts a line that is not a request and builds its typed reply.
    pub(crate) fn bad_request(&self, message: impl Into<String>) -> Reply {
        self.inner.lock().gates.bad_request();
        Reply::error("", ErrorKind::BadRequest, message)
    }

    /// Submits a parsed request at `now_ms` virtual time.
    pub fn submit(&self, request: Request, now_ms: u64) -> Submission {
        let fingerprint = source_fingerprint(&request.src);
        let mut st = self.inner.lock();
        let depth = st.queue.len();
        let decision = st
            .gates
            .decide(request.op, &request.tenant, fingerprint, now_ms, depth);
        let admitted = match decision {
            Ok(admitted) => admitted,
            Err(shed) => return Submission::Immediate(shed.reply(&request.id)),
        };
        let payload = match request.op {
            Op::Health => {
                let mode = st.gates.modes.mode().as_str();
                json::to_string(json::object(|o| json_fields!(o; ok = true, mode = mode)))
            }
            Op::Stats => self.stats_json(&st),
            Op::Run | Op::Check => {
                let (reply_tx, reply_rx) = channel();
                st.queue.push_back(Job {
                    request,
                    admitted,
                    reply_tx,
                });
                drop(st);
                self.inner.available.notify_one();
                return Submission::Queued(reply_rx);
            }
        };
        Submission::Immediate(Reply::Doc {
            id: request.id,
            payload,
        })
    }

    /// Runs one mode-controller tick on what completed since the last
    /// one. The TCP front-end calls this on a timer; the soak calls it at
    /// deterministic points.
    pub fn tick(&self) -> SystemMode {
        let st = &mut *self.inner.lock();
        st.gates.tick(st.queue.len())
    }

    /// The current system mode.
    #[must_use]
    pub fn mode(&self) -> SystemMode {
        self.inner.lock().gates.modes.mode()
    }

    /// The mode-transition log so far.
    #[must_use]
    pub fn transitions(&self) -> Vec<Transition> {
        self.inner.lock().gates.modes.transitions().to_vec()
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
            json_fields!(o; workers = self.workers.len(), tenants = g.admission.tenant_count());
            o.object("queue", |o| {
                json_fields!(o; depth = st.queue.len(), capacity = self.inner.cfg.queue_capacity,
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
        self.inner.lock().gates.counters
    }

    /// `(active, paroled)` quarantine counts.
    #[must_use]
    pub fn quarantine_counts(&self) -> (u64, u64) {
        let q = &self.inner.lock().gates.quarantine;
        (q.active(), q.paroled())
    }

    /// Stops accepting queue pops and joins the workers. Jobs still in
    /// the queue are drained first (their submitters hold receivers).
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let waiting = |st: &mut State| st.queue.is_empty() && !st.shutdown;
        let woken = inner.available.wait_while(inner.lock(), waiting);
        // The queue is empty only at shutdown: queued jobs drain first.
        let Some(job) = woken.unwrap_or_else(|e| e.into_inner()).queue.pop_front() else {
            return;
        };
        let reply = process_job(inner, &job);
        // A submitter that gave up and dropped its receiver is fine.
        let _ = job.reply_tx.send(reply);
    }
}

/// Executes one job with full isolation and books it before the reply
/// goes out, so a submitter holding every reply of a wave knows the
/// whole wave is counted.
fn process_job(inner: &Inner, job: &Job) -> Reply {
    let request = &job.request;
    let id = &request.id;
    let book = |outcome: Outcome<'_>| {
        let tenant = &request.tenant;
        inner.lock().gates.complete(tenant, &job.admitted, outcome);
    };
    let failed = |outcome, kind, message: String| {
        book(outcome);
        Reply::error(id, kind, message)
    };
    if request.op == Op::Check {
        // A static path: compile + typecheck, no energy spent. Still
        // isolated — a compiler panic must not take a worker down.
        let checked = run_job_isolated(&inner.cfg.policy, |_| {
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

    let (chaos, fingerprint, seq) = (inner.cfg.chaos, job.admitted.fingerprint, job.admitted.seq);
    let result = run_job_isolated(&inner.cfg.policy, |attempt| {
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
                assert_eq!(code, ent_cli::EXIT_OK);
                assert_eq!(attempts, 2, "first attempt panicked, retry ran");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        server.shutdown();
    }
}
