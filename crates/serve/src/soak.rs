//! The deterministic in-process chaos soak.
//!
//! The harness drives a [`Server`] through a scripted storm — sensor
//! faults, runtime errors, poisoned (always-panicking) programs, compile
//! errors, an admission burst, an energy-budget blowout, an overload
//! flood, and a quarantine parole cycle — on a **virtual clock**, and
//! records what the daemon did.
//!
//! Determinism is by construction, not by luck:
//!
//! * Work arrives in **waves**, and every wave is fully drained (all
//!   queued replies received, hence all completion bookkeeping done —
//!   workers record strikes and tick signals *before* replying) before
//!   the controller ticks. A tick therefore observes an exact function
//!   of the wave's composition, independent of worker count and OS
//!   scheduling.
//! * Chaos panics are a pure function of `(seed, fingerprint, seq)`
//!   ([`ChaosPlan`]), and submission order fixes `seq`.
//! * Admission and quarantine run on harness-supplied virtual
//!   milliseconds.
//!
//! The only timing-dependent numbers are the overload flood's shed/accept
//! split and the wall-clock throughput/latency figures; everything in
//! [`SoakReport::determinism_log`] and the transition log is exact, and
//! the integration tests replay the soak to prove it.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use ent_cli::EXIT_COMPILE;
use ent_runtime::{json_escape, json_f64};
use ent_workloads::source_fingerprint;

use crate::admission::AdmissionConfig;
use crate::modes::{check_hysteresis, transitions_json, SystemMode, Transition};
use crate::proto::{parse_request, ErrorKind, Reply};
use crate::server::{ChaosPlan, CounterSnapshot, Server, ServerConfig, Submission};

/// Soak parameters. Everything that affects the deterministic record is
/// here; the defaults are what `BENCH_serve.json` is generated with.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Chaos seed (panic injection plan).
    pub seed: u64,
    /// Worker threads — the determinism log must not depend on this.
    pub workers: usize,
    /// Jobs hurled at the bounded queue in the overload wave.
    pub flood_jobs: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            workers: 4,
            flood_jobs: 300,
        }
    }
}

/// What the soak observed.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The configuration that produced this report.
    pub seed: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Total request lines submitted (including shed and bad ones).
    pub submitted: u64,
    /// Final server counters.
    pub counters: CounterSnapshot,
    /// The full mode-transition log.
    pub transitions: Vec<Transition>,
    /// Did the transition log pass [`check_hysteresis`]?
    pub hysteresis_ok: bool,
    /// Was every accepted job byte-identical to its one-shot `ent run`?
    pub byte_identical: bool,
    /// Request ids of any byte-identity mismatches.
    pub mismatches: Vec<String>,
    /// Programs quarantined when the soak ended.
    pub quarantine_active: u64,
    /// Programs released on parole during the soak.
    pub quarantine_paroled: u64,
    /// Reply channels that died or timed out — a worker crash would show
    /// here. The acceptance bar is zero.
    pub daemon_errors: u64,
    /// Completed jobs per wall-clock second (informational).
    pub req_per_s: f64,
    /// 99th-percentile submit-to-reply latency of queued jobs in
    /// milliseconds (informational).
    pub p99_ms: f64,
    /// Wall-clock duration of the whole soak in milliseconds.
    pub wall_ms: u64,
    /// Mode when the soak ended.
    pub final_mode: SystemMode,
    /// The exact per-wave record: every line must be identical across
    /// runs and across worker counts.
    pub determinism_log: Vec<String>,
}

impl SoakReport {
    /// The replay-invariant part of the report as one string — two soaks
    /// with the same seed must produce equal signatures regardless of
    /// worker count or machine.
    #[must_use]
    pub fn deterministic_signature(&self) -> String {
        let transitions = self
            .transitions
            .iter()
            .map(|(tick, from, to)| format!("tick {tick}: {} -> {}", from.as_str(), to.as_str()))
            .collect::<Vec<_>>()
            .join("\n");
        format!("{}\n--\n{}", self.determinism_log.join("\n"), transitions)
    }

    /// Renders the report as the `BENCH_serve.json` document body.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let log = self
            .determinism_log
            .iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"schema\": \"ent-serve-soak/1\", \"seed\": {}, \"workers\": {}, \
             \"submitted\": {}, \"accepted\": {}, \"completed\": {}, \
             \"ok_runs\": {}, \"degraded_runs\": {}, \"runtime_errors\": {}, \
             \"compile_errors\": {}, \"panics\": {}, \"checks\": {}, \"probes\": {}, \
             \"shed\": {{\"overloaded\": {}, \"rate_limited\": {}, \"energy_budget\": {}, \
             \"quarantined\": {}, \"fallback_only\": {}, \"bad_requests\": {}}}, \
             \"quarantine\": {{\"active\": {}, \"paroled\": {}}}, \
             \"byte_identical\": {}, \"mismatches\": {}, \"daemon_errors\": {}, \
             \"hysteresis_ok\": {}, \"final_mode\": \"{}\", \
             \"req_per_s\": {}, \"p99_ms\": {}, \"wall_ms\": {}, \
             \"transitions\": [{}], \"determinism_log\": [{}]}}",
            self.seed,
            self.workers,
            self.submitted,
            c.accepted,
            c.completed,
            c.ok_runs,
            c.degraded_runs,
            c.runtime_errors,
            c.compile_errors,
            c.panics,
            c.checks,
            c.probes,
            c.shed_overloaded,
            c.shed_rate_limited,
            c.shed_energy_budget,
            c.shed_quarantined,
            c.shed_fallback,
            c.bad_requests,
            self.quarantine_active,
            self.quarantine_paroled,
            self.byte_identical,
            self.mismatches.len(),
            self.daemon_errors,
            self.hysteresis_ok,
            self.final_mode.as_str(),
            json_f64(self.req_per_s),
            json_f64(self.p99_ms),
            self.wall_ms,
            transitions_json(&self.transitions),
            log,
        )
    }
}

/// A program whose snapshot decision needs the battery sensor: under a
/// total dropout plan every decision degrades (exit 4) and each of the
/// three snapshots reports one sensor fault — fault-rate 3.0 per job,
/// which pushes the controller's fault EWMA past its `degraded` line in
/// one wave.
const THREE_FAULT: &str = "modes { low <= high; }
class App@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int effort() { return mcase{ low: 1; high: 9; } <| X; }
}
class Main {
  int main() {
    let d1 = new App();
    let App a1 = snapshot d1 [low, high];
    let d2 = new App();
    let App a2 = snapshot d2 [low, high];
    let d3 = new App();
    let App a3 = snapshot d3 [low, high];
    return a1.effort() + a2.effort() + a3.effort();
  }
}";

/// The parole program: a bounded snapshot (`[high, high]`) throws
/// `EnergyException` whenever the attributor reads a low battery — so
/// the *same bytes* fail at `battery: 0.3` (three strikes, quarantine)
/// and run clean at `battery: 0.9` (parole probes succeed, release).
const PAROLE: &str = "modes { low <= high; }
class App@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int effort() { return mcase{ low: 1; high: 9; } <| X; }
}
class Main {
  int main() {
    let dapp = new App();
    let App a = snapshot dapp [high, high];
    return a.effort();
  }
}";

/// Spends ~39.5 simulated joules per run (10 virtual seconds of idle
/// power) in microseconds of wall time — the energy-budget blowout.
const EXPENSIVE: &str = "class Main {
  int main() {
    Sim.sleepMs(10000);
    return 1;
  }
}";

/// Thousands of interpreter steps per run: enough wall-clock weight that
/// a rapid flood outruns the worker pool and hits the queue bound.
const SPIN: &str = "class W {
  int spin(int n) {
    if (n <= 0) { return 0; }
    return this.spin(n - 1);
  }
}
class Main {
  int main() {
    let w = new W();
    return w.spin(8000);
  }
}";

/// Fails in the front half of the pipeline: a compile-error repeat
/// offender for the quarantine table.
const BAD_SYNTAX: &str = "class Main { int main() { return nonsense; } }";

/// Appends spaces until the program's fingerprint escapes the chaos
/// plan's poison set — the scripted waves must not have their fixed
/// programs randomly poisoned out from under them, for any seed.
fn de_poison(plan: &ChaosPlan, src: &str) -> String {
    let mut out = src.to_string();
    for _ in 0..256 {
        if !plan.poisons(source_fingerprint(&out)) {
            return out;
        }
        out.push(' ');
    }
    panic!("no de-poisoned variant found within 256 paddings");
}

/// Deterministically scans trivial programs for `n` that the plan
/// poisons (`want_poisoned`) or leaves alone.
fn program_pool(plan: &ChaosPlan, n: usize, want_poisoned: bool) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for i in 0..100_000u64 {
        let src = format!("class Main {{ int main() {{ return {i}; }} }}");
        if plan.poisons(source_fingerprint(&src)) == want_poisoned {
            out.push(src);
            if out.len() == n {
                return out;
            }
        }
    }
    panic!("program pool scan exhausted");
}

/// A job waiting on its worker reply, with everything needed to replay
/// it one-shot for the byte-identity check.
struct PendingJob {
    id: String,
    line: String,
    rx: Receiver<Reply>,
    t0: Instant,
}

struct Harness {
    server: Server,
    now_ms: u64,
    submitted: u64,
    latencies_ms: Vec<f64>,
    mismatches: Vec<String>,
    daemon_errors: u64,
    log: Vec<String>,
}

/// What one submission produced, from the driver's point of view.
enum Served {
    Done(Reply),
    Shed(ErrorKind),
}

impl Harness {
    fn advance(&mut self, ms: u64) {
        self.now_ms += ms;
    }

    fn line(id: &str, tenant: &str, src: &str, extras: &str) -> String {
        let extras = if extras.is_empty() {
            String::new()
        } else {
            format!(", {extras}")
        };
        format!(
            "{{\"op\": \"run\", \"id\": \"{id}\", \"tenant\": \"{tenant}\", \
             \"src\": \"{}\"{extras}}}",
            json_escape(src)
        )
    }

    /// Submits one line; queued work becomes a [`PendingJob`].
    fn submit(&mut self, line: &str) -> Result<PendingJob, Reply> {
        self.submitted += 1;
        let id = parse_request(line).map_or(String::new(), |r| r.id);
        match self.server.handle_line(line, self.now_ms) {
            Submission::Immediate(reply) => Err(reply),
            Submission::Queued(rx) => Ok(PendingJob {
                id,
                line: line.to_string(),
                rx,
                t0: Instant::now(),
            }),
        }
    }

    /// Receives a pending job's reply and replays it one-shot to verify
    /// byte identity. Chaos-injected panics have no one-shot analogue
    /// and are skipped.
    fn drain(&mut self, job: PendingJob) -> Option<Reply> {
        match job.rx.recv_timeout(Duration::from_secs(120)) {
            Err(_) => {
                self.daemon_errors += 1;
                None
            }
            Ok(reply) => {
                self.latencies_ms
                    .push(job.t0.elapsed().as_secs_f64() * 1000.0);
                let request = parse_request(&job.line).expect("pending jobs parsed once already");
                match &reply {
                    Reply::Done { code, output, .. } => {
                        let one_shot = ent_cli::execute(&request.options, &request.src);
                        if one_shot != (*code, output.clone()) {
                            self.mismatches.push(job.id);
                        }
                    }
                    Reply::Error {
                        kind: ErrorKind::CompileError,
                        message,
                        ..
                    } => {
                        let (code, output) = ent_cli::execute(&request.options, &request.src);
                        if code != EXIT_COMPILE || output != format!("error: {message}\n") {
                            self.mismatches.push(job.id);
                        }
                    }
                    _ => {}
                }
                Some(reply)
            }
        }
    }

    /// Submit-and-wait: the sequential path for waves whose bookkeeping
    /// order matters (parole probes, energy accounting).
    fn submit_and_wait(&mut self, line: &str) -> Served {
        match self.submit(line) {
            Err(Reply::Error { kind, .. }) => Served::Shed(kind),
            Err(reply) => Served::Done(reply),
            Ok(job) => match self.drain(job) {
                Some(reply) => Served::Done(reply),
                None => Served::Shed(ErrorKind::Panic),
            },
        }
    }

    /// Submits a whole wave, drains every reply, then ticks — the drain
    /// barrier that makes the tick observation exact.
    fn wave_and_tick(&mut self, lines: &[String]) -> (Vec<Reply>, SystemMode) {
        let mut pending = Vec::new();
        let mut replies = Vec::new();
        for line in lines {
            match self.submit(line) {
                Ok(job) => pending.push(job),
                Err(reply) => replies.push(reply),
            }
        }
        for job in pending {
            if let Some(reply) = self.drain(job) {
                replies.push(reply);
            }
        }
        let mode = self.server.tick();
        (replies, mode)
    }

    fn log(&mut self, line: String) {
        self.log.push(line);
    }
}

fn count_done(replies: &[Reply], want_code: i32) -> usize {
    replies
        .iter()
        .filter(|r| matches!(r, Reply::Done { code, .. } if *code == want_code))
        .count()
}

fn count_errors(replies: &[Reply], want: ErrorKind) -> usize {
    replies
        .iter()
        .filter(|r| matches!(r, Reply::Error { kind, .. } if *kind == want))
        .count()
}

/// Runs the full scripted soak and returns the report. Panics only on
/// harness bugs (malformed scripted requests); every daemon-side failure
/// is recorded, not thrown.
#[must_use]
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let chaos = ChaosPlan {
        seed: cfg.seed,
        poison_rate: 0.04,
        transient_rate: 0.12,
    };
    let server = Server::start(ServerConfig {
        workers: cfg.workers,
        queue_capacity: 64,
        admission: AdmissionConfig {
            burst: 16.0,
            refill_per_s: 50.0,
            energy_budget_j: 60.0,
        },
        chaos: Some(chaos),
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let mut h = Harness {
        server,
        now_ms: 0,
        submitted: 0,
        latencies_ms: Vec::new(),
        mismatches: Vec::new(),
        daemon_errors: 0,
        log: Vec::new(),
    };

    let parole = de_poison(&chaos, PAROLE);
    let three_fault = de_poison(&chaos, THREE_FAULT);
    let expensive = de_poison(&chaos, EXPENSIVE);
    let spin = de_poison(&chaos, SPIN);
    let bad_syntax = de_poison(&chaos, BAD_SYNTAX);
    let clean = program_pool(&chaos, 8, false);
    let poisoned = program_pool(&chaos, 2, true);

    // Wave 1 — warmup: multi-tenant clean traffic, shared-cache fill.
    let lines: Vec<String> = (0..8)
        .map(|i| {
            let tenant = ["alice", "bob", "carol", "dave"][i % 4];
            Harness::line(&format!("warm-{i}"), tenant, &clean[i], "")
        })
        .collect();
    let (replies, mode) = h.wave_and_tick(&lines);
    h.log(format!(
        "warmup: ok {} of 8, mode {}",
        count_done(&replies, 0),
        mode.as_str()
    ));

    // Wave 2 — sensor-fault pressure: every job completes degraded with
    // three faults, so the fault EWMA alone demands `degraded`.
    h.advance(1000);
    let extras = "\"battery\": 0.9, \"faults\": \"dropout=1.0\", \"fault_seed\": 1";
    let lines: Vec<String> = (0..4)
        .map(|i| Harness::line(&format!("fault-{i}"), "chaos", &three_fault, extras))
        .collect();
    let (replies, mode) = h.wave_and_tick(&lines);
    h.log(format!(
        "faults: degraded {} of 4, mode {}",
        count_done(&replies, ent_cli::EXIT_DEGRADED),
        mode.as_str()
    ));

    // Wave 3 — half the wave fails: three low-battery runs of the parole
    // program (its three strikes quarantine it here) plus one poisoned
    // job, against four clean jobs.
    h.advance(1000);
    let mut lines: Vec<String> = (0..3)
        .map(|i| Harness::line(&format!("strike-{i}"), "chaos", &parole, "\"battery\": 0.3"))
        .collect();
    lines.push(Harness::line("poison-0", "chaos", &poisoned[0], ""));
    for (i, src) in clean.iter().take(4).enumerate() {
        lines.push(Harness::line(&format!("mid-{i}"), "chaos", src, ""));
    }
    let (replies, mode) = h.wave_and_tick(&lines);
    let (active, _) = h.server.quarantine_counts();
    h.log(format!(
        "half-fail: runtime_errors {}, panics {}, quarantined {active}, mode {}",
        count_done(&replies, ent_cli::EXIT_RUNTIME),
        count_errors(&replies, ErrorKind::Panic),
        mode.as_str()
    ));

    // Wave 4 — total failure: poisoned panics and compile errors only.
    h.advance(1000);
    let lines = vec![
        Harness::line("poison-1a", "chaos", &poisoned[1], ""),
        Harness::line("poison-1b", "chaos", &poisoned[1], ""),
        Harness::line("bad-0", "chaos", &bad_syntax, ""),
        Harness::line("bad-1", "chaos", &bad_syntax, ""),
    ];
    let (replies, mode) = h.wave_and_tick(&lines);
    h.log(format!(
        "all-fail-1: panics {}, compile_errors {}, mode {}",
        count_errors(&replies, ErrorKind::Panic),
        count_errors(&replies, ErrorKind::CompileError),
        mode.as_str()
    ));

    // Wave 5 — total failure again: the failure EWMA crosses the
    // fallback line, and the repeat offenders cross three strikes (their
    // wave-4 strikes have decayed slightly, so one more each is not
    // enough — two more each is).
    h.advance(1000);
    let lines = vec![
        Harness::line("poison-1c", "chaos", &poisoned[1], ""),
        Harness::line("poison-1d", "chaos", &poisoned[1], ""),
        Harness::line("bad-2", "chaos", &bad_syntax, ""),
        Harness::line("bad-3", "chaos", &bad_syntax, ""),
    ];
    let (_, mode) = h.wave_and_tick(&lines);
    let (active, _) = h.server.quarantine_counts();
    h.log(format!(
        "all-fail-2: quarantined {active}, mode {}",
        mode.as_str()
    ));

    // Wave 6 — the conservative floor: run work is shed with a typed
    // reply; static paths (check, health, stats) and malformed-line
    // handling stay up.
    h.advance(1000);
    let mut fallback_sheds = 0;
    for i in 0..2 {
        if let Served::Shed(kind) = h.submit_and_wait(&Harness::line(
            &format!("floor-{i}"),
            "alice",
            &clean[0],
            "",
        )) {
            assert_eq!(kind, ErrorKind::FallbackOnly, "floor sheds are typed");
            fallback_sheds += 1;
        }
    }
    let check_line = format!(
        "{{\"op\": \"check\", \"id\": \"floor-check\", \"tenant\": \"alice\", \"src\": \"{}\"}}",
        json_escape(&clean[0])
    );
    let check_ok = matches!(
        h.submit_and_wait(&check_line),
        Served::Done(Reply::Done { code: 0, .. })
    );
    let health_up = matches!(
        h.server.handle_line("{\"op\": \"health\"}", h.now_ms),
        Submission::Immediate(Reply::Doc { payload, .. }) if payload.contains("fallback_only")
    );
    let bad_typed = matches!(
        h.server.handle_line("definitely not json", h.now_ms),
        Submission::Immediate(Reply::Error {
            kind: ErrorKind::BadRequest,
            ..
        })
    );
    h.submitted += 2; // the health and junk lines above
    let mode = h.server.tick();
    h.log(format!(
        "floor: run sheds {fallback_sheds}, check ok {check_ok}, health up {health_up}, \
         bad line typed {bad_typed}, mode {}",
        mode.as_str()
    ));

    // Wave 7 — recovery: idle ticks decay the failure estimate; the
    // controller must walk home one level at a time.
    let mut idle_ticks = 0;
    let mut mode = h.server.mode();
    while mode != SystemMode::Normal && idle_ticks < 40 {
        h.advance(1000);
        mode = h.server.tick();
        idle_ticks += 1;
    }
    h.log(format!(
        "recovery: {idle_ticks} idle ticks to {}",
        mode.as_str()
    ));

    // Wave 8 — admission burst: 40 requests at one virtual instant
    // against a 16-token bucket. The queue (64 deep again) never trips,
    // so the split is exactly 16 accepted / 24 rate-limited.
    h.advance(1000);
    let lines: Vec<String> = (0..40)
        .map(|i| Harness::line(&format!("burst-{i}"), "bursty", &clean[i % 8], ""))
        .collect();
    let (replies, mode) = h.wave_and_tick(&lines);
    h.log(format!(
        "burst: accepted {}, rate_limited {}, mode {}",
        count_done(&replies, 0),
        count_errors(&replies, ErrorKind::RateLimited),
        mode.as_str()
    ));

    // Wave 9 — energy budget: each run of the expensive program spends
    // ~39.5 simulated joules against a 60 J budget, sequentially so the
    // account is strictly ordered: two runs fit, the third is shed.
    h.advance(1000);
    let mut energy_record = Vec::new();
    for i in 0..3 {
        h.advance(100);
        match h.submit_and_wait(&Harness::line(
            &format!("joule-{i}"),
            "greedy",
            &expensive,
            "",
        )) {
            Served::Done(Reply::Done { code, .. }) => energy_record.push(format!("ran({code})")),
            Served::Shed(kind) => energy_record.push(format!("shed({})", kind.as_str())),
            _ => energy_record.push("other".to_string()),
        }
    }
    let mode = h.server.tick();
    h.log(format!(
        "energy: [{}], mode {}",
        energy_record.join(", "),
        mode.as_str()
    ));

    // Wave 10 — overload flood: rapid heavy jobs outrun the worker pool
    // and hit the queue bound. The shed/accept split is timing-dependent
    // (excluded from the log); the tick is clean either way, because the
    // wave drains before it and every accepted job succeeds.
    h.advance(1000);
    let mut pending = Vec::new();
    for i in 0..cfg.flood_jobs {
        h.advance(20);
        if let Ok(job) = h.submit(&Harness::line(&format!("flood-{i}"), "flood", &spin, "")) {
            pending.push(job);
        }
    }
    for job in pending {
        let _ = h.drain(job);
    }
    let mode = h.server.tick();
    h.log(format!("flood: drained, mode {}", mode.as_str()));

    // Wave 11 — parole: the quarantined parole program resubmitted at a
    // healthy battery. Every 8th submission runs as a probe; two clean
    // probes in a row release it, after which it is served normally.
    h.advance(1000);
    let mut parole_record = Vec::new();
    for i in 0..16 {
        h.advance(100);
        match h.submit_and_wait(&Harness::line(
            &format!("parole-{i}"),
            "chaos",
            &parole,
            "\"battery\": 0.9",
        )) {
            Served::Shed(ErrorKind::Quarantined) => parole_record.push("shed"),
            Served::Done(Reply::Done { code: 0, .. }) => parole_record.push("probe-ok"),
            _ => parole_record.push("other"),
        }
    }
    h.advance(100);
    let released_run = matches!(
        h.submit_and_wait(&Harness::line(
            "parole-free",
            "chaos",
            &parole,
            "\"battery\": 0.9"
        )),
        Served::Done(Reply::Done { code: 0, .. })
    );
    let (active, paroled) = h.server.quarantine_counts();
    let mode = h.server.tick();
    h.log(format!(
        "parole: sheds {}, clean probes {}, released {released_run}, \
         active {active}, paroled {paroled}, mode {}",
        parole_record.iter().filter(|s| **s == "shed").count(),
        parole_record.iter().filter(|s| **s == "probe-ok").count(),
        mode.as_str()
    ));

    // Wave 12 — service restored: clean traffic at normal admission.
    h.advance(1000);
    let lines: Vec<String> = (0..4)
        .map(|i| Harness::line(&format!("post-{i}"), "alice", &clean[i], ""))
        .collect();
    let (replies, mode) = h.wave_and_tick(&lines);
    h.log(format!(
        "restored: ok {} of 4, mode {}",
        count_done(&replies, 0),
        mode.as_str()
    ));

    // Assemble the report.
    let wall = started.elapsed();
    let counters = h.server.counters();
    let transitions = h.server.transitions();
    let (quarantine_active, quarantine_paroled) = h.server.quarantine_counts();
    let final_mode = h.server.mode();
    let mut sorted = h.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p99_ms = if sorted.is_empty() {
        0.0
    } else {
        sorted[((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len()) - 1]
    };
    let wall_s = wall.as_secs_f64().max(1e-9);
    let report = SoakReport {
        seed: cfg.seed,
        workers: cfg.workers,
        submitted: h.submitted,
        counters,
        hysteresis_ok: check_hysteresis(&transitions).is_ok(),
        transitions,
        byte_identical: h.mismatches.is_empty(),
        mismatches: h.mismatches,
        quarantine_active,
        quarantine_paroled,
        daemon_errors: h.daemon_errors,
        req_per_s: counters.completed as f64 / wall_s,
        p99_ms,
        wall_ms: wall.as_millis() as u64,
        final_mode,
        determinism_log: h.log,
    };
    h.server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_survives_and_exercises_every_subsystem() {
        let report = run_soak(&SoakConfig {
            flood_jobs: 60,
            ..SoakConfig::default()
        });
        assert_eq!(report.daemon_errors, 0, "no worker crash, no lost reply");
        assert!(report.byte_identical, "mismatches: {:?}", report.mismatches);
        assert!(report.hysteresis_ok);
        assert_eq!(report.final_mode, SystemMode::Normal);
        // The scripted storm reaches the floor and walks home.
        assert!(report
            .transitions
            .iter()
            .any(|(_, _, to)| *to == SystemMode::FallbackOnly));
        // Every shed class fires except (possibly) overload, whose count
        // is timing-dependent.
        let c = &report.counters;
        assert!(c.shed_rate_limited >= 24, "{c:?}");
        assert!(c.shed_energy_budget >= 1, "{c:?}");
        assert!(c.shed_quarantined >= 1, "{c:?}");
        assert!(c.shed_fallback >= 1, "{c:?}");
        assert!(c.panics >= 1 && c.compile_errors >= 1, "{c:?}");
        assert_eq!(report.quarantine_paroled, 1, "{:?}", report.determinism_log);
        // The log pins the deterministic wave facts verbatim.
        let log = report.determinism_log.join("\n");
        assert!(log.contains("burst: accepted 16, rate_limited 24"), "{log}");
        assert!(
            log.contains("energy: [ran(0), ran(0), shed(energy_budget)]"),
            "{log}"
        );
        assert!(
            log.contains("parole: sheds 14, clean probes 2, released true"),
            "{log}"
        );
    }
}
