//! The daemon's control plane as one value: the gates each request
//! meets, the bookkeeping each finished job reports and the counters.
//! [`Gates`] reads no clock, starts no thread and holds no atomic; the
//! unit tests drive it through every short event sequence.

use ent_cli::{RunOutcome, EXIT_DEGRADED, EXIT_OK, EXIT_RUNTIME};

use crate::admission::{Admission, AdmissionShed};
use crate::modes::{ModeController, Observation, SystemMode};
use crate::proto::{ErrorKind, Op, Reply};
use crate::quarantine::{Quarantine, Verdict};
use crate::server::{CounterSnapshot, ServerConfig};

/// Why a gate refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shed {
    /// `fallback_only` mode refuses run work.
    FallbackOnly,
    /// The program is quarantined and this submission is not its probe.
    Quarantined,
    /// The queue holds `capacity` jobs, its bound under `mode`.
    Overloaded { capacity: usize, mode: SystemMode },
    /// A tenant not yet in the full tenant table arrived.
    TenantTableFull,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The tenant has spent its energy budget.
    EnergyBudget,
}

impl Shed {
    /// The typed reply to request `id`.
    pub(crate) fn reply(self, id: &str) -> Reply {
        let (kind, message) = match self {
            Shed::FallbackOnly => (
                ErrorKind::FallbackOnly,
                "server is in fallback_only mode; run work is shed",
            ),
            Shed::Quarantined => (
                ErrorKind::Quarantined,
                "program is quarantined after repeated failures; \
                 periodic parole probes will release it once it runs clean",
            ),
            Shed::Overloaded { capacity, mode } => {
                let mode = mode.as_str();
                let message = format!("work queue full ({capacity} deep in {mode} mode)");
                return Reply::error(id, ErrorKind::Overloaded, message);
            }
            Shed::TenantTableFull => (ErrorKind::Overloaded, "tenant table full; retry later"),
            Shed::RateLimited => (
                ErrorKind::RateLimited,
                "tenant request budget exhausted; retry later",
            ),
            Shed::EnergyBudget => (ErrorKind::EnergyBudget, "tenant energy budget spent"),
        };
        Reply::error(id, kind, message)
    }
}

/// A request that passed every gate: what its completion reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Admitted {
    pub(crate) op: Op,
    /// The quarantine key.
    pub(crate) fingerprint: u64,
    /// Virtual milliseconds at admission.
    pub(crate) now_ms: u64,
    /// Jobs accepted before this one (chaos keys transient faults on it).
    pub(crate) seq: u64,
    /// The job is the parole probe of a quarantined program.
    pub(crate) probe: bool,
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Outcome<'a> {
    /// A `check` produced its report (any exit code).
    Checked,
    /// A `run` finished with this exit code, energy and sensor faults.
    Ran(&'a RunOutcome),
    /// The program failed to compile.
    CompileError,
    /// The job panicked on every attempt.
    Panicked,
}

/// The control plane. The server reads its fields and changes them only
/// through the methods.
#[derive(Clone, Debug)]
pub(crate) struct Gates {
    queue_capacity: usize,
    pub(crate) modes: ModeController,
    pub(crate) admission: Admission,
    pub(crate) quarantine: Quarantine,
    pub(crate) counters: CounterSnapshot,
    /// Completions, failures and sensor faults since the last tick.
    since_tick: Observation,
}

impl Gates {
    pub(crate) fn new(cfg: &ServerConfig) -> Self {
        Gates {
            queue_capacity: cfg.queue_capacity,
            modes: ModeController::new(cfg.modes.clone()),
            admission: Admission::new(cfg.admission.clone()),
            quarantine: Quarantine::new(cfg.quarantine.clone()),
            counters: CounterSnapshot::default(),
            since_tick: Observation::default(),
        }
    }

    /// The queue bound in force: degraded halves it, energy_saver (and
    /// the fallback floor) quarters it — load is shed earlier exactly
    /// when the system is least able to absorb it.
    pub(crate) fn capacity(&self) -> usize {
        let cap = self.queue_capacity.max(1);
        match self.modes.mode().severity() {
            0 => cap,
            1 => (cap / 2).max(1),
            _ => (cap / 4).max(1),
        }
    }

    /// Decides request `op` from `tenant` for program `fingerprint` at
    /// `now_ms`, with `queue_depth` jobs waiting, and counts a shed.
    /// `stats` and `health` pass; `run` and `check` meet, in order, the
    /// mode gate (run only), quarantine (run only), the queue bound and
    /// admission (tenant table, energy budget, token bucket).
    pub(crate) fn decide(
        &mut self,
        op: Op,
        tenant: &str,
        fingerprint: u64,
        now_ms: u64,
        queue_depth: usize,
    ) -> Result<Admitted, Shed> {
        let mode = self.modes.mode();
        let mut admitted = Admitted {
            op,
            fingerprint,
            now_ms,
            seq: self.counters.accepted,
            probe: false,
        };
        match op {
            Op::Stats | Op::Health => return Ok(admitted),
            // A quarantined program may still be type-checked.
            Op::Check => {}
            Op::Run if mode == SystemMode::FallbackOnly => {
                return Err(self.count(Shed::FallbackOnly))
            }
            Op::Run => match self.quarantine.check(fingerprint, now_ms) {
                Verdict::Admit => {}
                Verdict::Probe => admitted.probe = true,
                Verdict::Reject => return Err(self.count(Shed::Quarantined)),
            },
        }
        // Before a token is spent: overload must not drain the bucket.
        let capacity = self.capacity();
        let passed = if queue_depth >= capacity {
            Err(Shed::Overloaded { capacity, mode })
        } else {
            let admission = self.admission.admit(tenant, now_ms, mode);
            admission.map_err(|shed| match shed {
                AdmissionShed::RateLimited => Shed::RateLimited,
                AdmissionShed::EnergyBudget => Shed::EnergyBudget,
                AdmissionShed::TenantTableFull => Shed::TenantTableFull,
            })
        };
        if let Err(shed) = passed {
            // A shed probe tested nothing: the next submission is the probe.
            if admitted.probe {
                self.quarantine.return_probe(fingerprint);
            }
            return Err(self.count(shed));
        }
        self.counters.accepted += 1;
        self.counters.probes += u64::from(admitted.probe);
        Ok(admitted)
    }

    fn count(&mut self, shed: Shed) -> Shed {
        let c = &mut self.counters;
        *match shed {
            Shed::FallbackOnly => &mut c.shed_fallback,
            Shed::Quarantined => &mut c.shed_quarantined,
            Shed::Overloaded { .. } | Shed::TenantTableFull => &mut c.shed_overloaded,
            Shed::RateLimited => &mut c.shed_rate_limited,
            Shed::EnergyBudget => &mut c.shed_energy_budget,
        } += 1;
        shed
    }

    /// Books `tenant`'s `job`, which ended with `outcome`: counters, the
    /// next tick's signals, the tenant's energy and the program's
    /// quarantine record. A failed run adds a strike. A clean run counts
    /// toward parole only as the probe: a run admitted before its program
    /// was quarantined tested nothing.
    pub(crate) fn complete(&mut self, tenant: &str, job: &Admitted, outcome: Outcome) {
        let c = &mut self.counters;
        c.completed += 1;
        c.checks += u64::from(job.op == Op::Check);
        self.since_tick.completions += 1;
        let failed = match outcome {
            Outcome::Checked => false,
            Outcome::Ran(run) => {
                *match run.code {
                    EXIT_OK => &mut c.ok_runs,
                    EXIT_DEGRADED => &mut c.degraded_runs,
                    _ => &mut c.runtime_errors,
                } += 1;
                self.since_tick.sensor_faults += run.sensor_faults;
                self.admission.record_energy(tenant, run.energy_j);
                run.code == EXIT_RUNTIME
            }
            Outcome::CompileError | Outcome::Panicked => true,
        };
        c.compile_errors += u64::from(outcome == Outcome::CompileError);
        c.panics += u64::from(outcome == Outcome::Panicked);
        self.since_tick.failures += u64::from(failed);
        if job.op == Op::Run && failed {
            self.quarantine.note_failure(job.fingerprint, job.now_ms);
        } else if job.probe {
            self.quarantine.note_probe_ok(job.fingerprint, job.now_ms);
        }
    }

    /// Counts a line that is not a request.
    pub(crate) fn bad_request(&mut self) {
        self.counters.bad_requests += 1;
    }

    /// One controller tick on the signals since the last one and the
    /// queue's `queue_depth`; returns the (possibly new) mode.
    pub(crate) fn tick(&mut self, queue_depth: usize) -> SystemMode {
        let obs = Observation {
            queue_depth: queue_depth as u64,
            queue_capacity: self.capacity() as u64,
            ..std::mem::take(&mut self.since_tick)
        };
        self.modes.observe(&obs)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::BuildHasherDefault;
    use std::mem::discriminant;

    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::modes::{check_hysteresis, ModeConfig};
    use crate::quarantine::QuarantineConfig;

    const GOOD: u64 = 1;
    const POISON: u64 = 2;
    /// Two tenants, and a third name that arrives at table capacity.
    const TENANTS: [&str; 3] = ["a", "b", "new"];
    const STEP_MS: u64 = 500;
    const MAX_STEPS: u64 = 1;
    const JOULES: f64 = 1.0;

    /// Small enough that every gate trips within a few events: a queue of
    /// two, two tokens refilled at one per step, a budget of one and a
    /// half runs, one strike to quarantine, every second submission of a
    /// quarantined program a probe, two clean probes to release it.
    fn config() -> ServerConfig {
        ServerConfig {
            queue_capacity: 2,
            admission: AdmissionConfig {
                burst: 2.0,
                refill_per_s: 2.0,
                energy_budget_j: 1.5,
            },
            quarantine: QuarantineConfig {
                strike_threshold: 1.0,
                decay_interval_ms: 1000,
                probe_every: 2,
                parole_probes: 2,
            },
            ..ServerConfig::default()
        }
    }

    fn ran(code: i32) -> RunOutcome {
        RunOutcome {
            code,
            output: String::new(),
            energy_j: JOULES,
            time_s: 0.0,
            sensor_faults: 0,
            degraded_decisions: 0,
        }
    }

    /// Admits a run of `program` from `tenant` with an empty queue.
    fn admit(g: &mut Gates, tenant: &str, program: u64) -> Admitted {
        g.decide(Op::Run, tenant, program, 0, 0).expect("admitted")
    }

    #[test]
    fn runs_admitted_before_a_quarantine_do_not_parole_it() {
        let mut g = Gates::new(&config());
        let early = [admit(&mut g, "a", POISON), admit(&mut g, "a", POISON)];
        let failing = admit(&mut g, "b", POISON);
        g.complete("b", &failing, Outcome::Panicked);
        assert_eq!(g.quarantine.active(), 1);
        for job in &early {
            g.complete("a", job, Outcome::Ran(&ran(EXIT_OK)));
        }
        assert_eq!((g.quarantine.active(), g.quarantine.paroled()), (1, 0));
        // Two clean probes, and only they, release it.
        for _ in 0..2 {
            let shed = g.decide(Op::Run, "c", POISON, 0, 0);
            assert_eq!(shed, Err(Shed::Quarantined));
            let probe = admit(&mut g, "c", POISON);
            assert!(probe.probe);
            assert_eq!(g.quarantine.paroled(), 0);
            g.complete("c", &probe, Outcome::Ran(&ran(EXIT_OK)));
        }
        assert_eq!((g.quarantine.active(), g.quarantine.paroled()), (0, 1));
        assert!(!admit(&mut g, "d", POISON).probe);
    }

    #[test]
    fn a_probe_a_later_gate_sheds_is_not_counted() {
        let mut g = Gates::new(&config());
        let failing = admit(&mut g, "a", POISON);
        g.complete("a", &failing, Outcome::CompileError);
        admit(&mut g, "spent", GOOD);
        admit(&mut g, "spent", GOOD);
        let shed = g.decide(Op::Run, "c", POISON, 0, 0);
        assert_eq!(shed, Err(Shed::Quarantined));
        // The probe's turn: a full queue, then an empty bucket, shed it,
        // and each time the next submission is the probe again.
        let full = Shed::Overloaded {
            capacity: 2,
            mode: SystemMode::Normal,
        };
        assert_eq!(g.decide(Op::Run, "c", POISON, 0, 2), Err(full));
        let shed = g.decide(Op::Run, "spent", POISON, 0, 0);
        assert_eq!(shed, Err(Shed::RateLimited));
        assert_eq!(g.counters.probes, 0);
        assert!(admit(&mut g, "c", POISON).probe);
        assert_eq!(g.counters.probes, 1);
        // Then the cadence resumes.
        let shed = g.decide(Op::Run, "c", POISON, 0, 0);
        assert_eq!(shed, Err(Shed::Quarantined));
    }

    /// How an admitted job ends in the explorer.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum End {
        Checked,
        Ok,
        RuntimeError,
        CompileError,
        Panicked,
    }

    #[derive(Clone, Copy, Debug)]
    enum Event {
        /// `op` from tenant index `.1` for program `.2`.
        Submit(Op, usize, u64),
        /// The `.0`th job in the queue ends.
        Complete(usize, End),
        Tick,
        /// The clock moves on by `STEP_MS`.
        Step,
    }

    #[derive(Clone)]
    struct World {
        gates: Gates,
        now_ms: u64,
        /// Admitted jobs not yet completed, with their tenant: the queue.
        jobs: Vec<(usize, Admitted)>,
        /// Clean probes of each program since it was last quarantined or
        /// last failed.
        streak: [u32; 2],
        /// Joules each tenant's completed runs spent.
        spent: [f64; 3],
    }

    impl World {
        /// Each tenant's row in the table and its queued jobs, hashed in
        /// any queue order; the two tenants least first.
        fn tenant_hashes(&self) -> [u64; 3] {
            let mut rows = [[u64::MAX; 3]; 3];
            for (name, row) in self.gates.admission.state_key().0 {
                rows[tenant(name)] = row;
            }
            let mut jobs = [0u64; 3];
            for (t, j) in &self.jobs {
                let run = u64::from(j.op == Op::Run);
                let job = hash(&[run, j.fingerprint, j.now_ms, u64::from(j.probe)]);
                jobs[*t] = jobs[*t].wrapping_add(job);
            }
            let [a, b, new] = [0, 1, 2].map(|t| mix(hash(&rows[t]), jobs[t]));
            [a.min(b), a.max(b), new]
        }

        /// A hash of everything later decisions depend on: not the
        /// counters, the tick count or the transition log, and not which
        /// of the two tenants is which. Each tenant's spend is in its row.
        fn key(&self) -> u64 {
            let g = &self.gates;
            let mut h = hash(&g.modes.state_key());
            h = hash(&[
                h,
                g.since_tick.completions,
                g.since_tick.failures,
                self.now_ms,
            ]);
            let [q0, q1] = self.streak.map(u64::from);
            h = hash(&[h, g.admission.state_key().1, q0, q1]);
            for entry in g.quarantine.state_key() {
                h = mix(h, hash(&entry));
            }
            for t in self.tenant_hashes() {
                h = mix(h, t);
            }
            h
        }

        fn events(&self) -> Vec<Event> {
            let mut out = vec![Event::Tick];
            if self.now_ms < MAX_STEPS * STEP_MS {
                out.push(Event::Step);
            }
            // In a state symmetric in the two tenants, the second one's
            // events mirror the first one's.
            let [a, b, _] = self.tenant_hashes();
            let tenants = if a == b { 1 } else { 2 };
            for tenant in 0..tenants {
                out.push(Event::Submit(Op::Run, tenant, GOOD));
                out.push(Event::Submit(Op::Run, tenant, POISON));
                // Quarantine does not apply to `check`: one program does.
                out.push(Event::Submit(Op::Check, tenant, GOOD));
            }
            if self.gates.admission.tenant_count() == 2 {
                out.push(Event::Submit(Op::Run, 2, GOOD));
            }
            for (i, (t, job)) in self.jobs.iter().enumerate() {
                let ends: &[End] = match (job.op, job.fingerprint) {
                    _ if *t == 1 && tenants == 1 => &[],
                    (Op::Check, _) => &[End::Checked, End::Panicked],
                    (_, GOOD) => &[End::Ok],
                    _ => &[End::Ok, End::RuntimeError, End::CompileError, End::Panicked],
                };
                out.extend(ends.iter().map(|&end| Event::Complete(i, end)));
            }
            out
        }
    }

    /// One step of a 64-bit hash over a stream of words (splitmix64's
    /// mixer): a state's key is taken hundreds of thousands of times in a
    /// debug build.
    fn mix(h: u64, word: u64) -> u64 {
        let mut x = (h ^ word).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn hash(words: &[u64]) -> u64 {
        let mut h = 0;
        for &word in words {
            h = mix(h, word);
        }
        h
    }

    fn tenant(name: &str) -> usize {
        TENANTS
            .iter()
            .position(|n| *n == name)
            .expect("a known tenant")
    }

    /// The tenant table, hashed in any row order.
    fn table(admission: &Admission) -> u64 {
        let rows = admission.state_key().0.into_iter();
        let row = |(name, row): (&str, [u64; 3])| mix(hash(&row), tenant(name) as u64);
        rows.map(row).fold(0, u64::wrapping_add)
    }

    /// Submissions counted toward the probe cadence, over all programs.
    fn held(quarantine: &Quarantine) -> u64 {
        quarantine.state_key().iter().map(|entry| entry[4]).sum()
    }

    /// A set of keys that are already hashes.
    #[derive(Default)]
    struct Keys(u64);

    impl std::hash::Hasher for Keys {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, _: &[u8]) {
            unreachable!("keys are u64")
        }

        fn write_u64(&mut self, key: u64) {
            self.0 = key;
        }
    }

    /// What the exploration reached.
    #[derive(Default)]
    struct Reached {
        sheds: HashSet<std::mem::Discriminant<Shed>>,
        ends: HashSet<End>,
        paroles: u64,
    }

    /// The mode-scaled energy budget, as DESIGN §15.2 states it.
    fn budget(mode: SystemMode) -> f64 {
        let full = config().admission.energy_budget_j;
        if mode.severity() >= 2 {
            full / 2.0
        } else {
            full
        }
    }

    /// Clean ticks (no completions, an empty queue) that bring any
    /// explored state to `normal`: one tick drains the signals since the
    /// last tick, an EWMA at 1.0 (failure rate and queue fullness cannot
    /// exceed it; the explorer serves no sensor faults) then decays below
    /// its lowest threshold, and each of three levels takes
    /// `recovery_ticks`.
    fn recovery_bound(cfg: &ModeConfig) -> u32 {
        let decay = |threshold: f64| (threshold.ln() / (1.0 - cfg.alpha).ln()).floor() as u32 + 1;
        1 + decay(cfg.fail_degraded).max(decay(cfg.queue_degraded)) + 3 * cfg.recovery_ticks
    }

    /// Applies `event` to `w`, checking every invariant the step touches.
    fn apply(w: &World, event: Event, reached: &mut Reached) -> World {
        let mut next = w.clone();
        let g = &mut next.gates;
        match event {
            Event::Tick => {
                g.tick(next.jobs.len());
                check_hysteresis(g.modes.transitions()).expect("hysteresis");
            }
            Event::Step => next.now_ms += STEP_MS,
            Event::Submit(op, t, fingerprint) => {
                let mode = g.modes.mode();
                let quarantined = g.quarantine.is_quarantined(fingerprint);
                let over_budget = g.admission.energy_spent(TENANTS[t]) >= budget(mode);
                let (tokens, probes) = (table(&g.admission), g.counters.probes);
                let cadence = held(&g.quarantine);
                let depth = next.jobs.len();
                let decision = g.decide(op, TENANTS[t], fingerprint, next.now_ms, depth);
                let probe = matches!(decision, Ok(job) if job.probe);
                let counted = g.counters.probes - probes;
                assert_eq!(counted, u64::from(probe), "probes counts admitted probes");
                match decision {
                    Ok(job) => {
                        assert!(
                            op != Op::Run || !over_budget,
                            "a spent tenant ran: {event:?}"
                        );
                        let probe = op == Op::Run && quarantined;
                        assert_eq!(job.probe, probe, "a quarantined program ran: {event:?}");
                        next.jobs.push((t, job));
                    }
                    Err(shed) => {
                        let floor = shed == Shed::FallbackOnly;
                        assert!(op == Op::Run || !floor, "the floor shed {op:?}");
                        if matches!(shed, Shed::Overloaded { .. } | Shed::TenantTableFull) {
                            let after = table(&g.admission);
                            assert_eq!(tokens, after, "an overloaded shed spent a token");
                        }
                        if !matches!(shed, Shed::FallbackOnly | Shed::Quarantined) {
                            let after = held(&g.quarantine);
                            assert_eq!(cadence, after, "a later gate's shed took a probe slot");
                        }
                        reached.sheds.insert(discriminant(&shed));
                    }
                }
            }
            Event::Complete(i, end) => {
                let (t, job) = next.jobs.remove(i);
                let p = usize::from(job.fingerprint == POISON);
                let before = g.quarantine.is_quarantined(job.fingerprint);
                let (ok, err) = (ran(EXIT_OK), ran(EXIT_RUNTIME));
                let outcome = match end {
                    End::Checked => Outcome::Checked,
                    End::Ok => Outcome::Ran(&ok),
                    End::RuntimeError => Outcome::Ran(&err),
                    End::CompileError => Outcome::CompileError,
                    End::Panicked => Outcome::Panicked,
                };
                g.complete(TENANTS[t], &job, outcome);
                reached.ends.insert(end);
                if job.op == Op::Run {
                    if matches!(end, End::Ok | End::RuntimeError) {
                        next.spent[t] += JOULES;
                    }
                    let clean = end == End::Ok;
                    if !clean {
                        next.streak[p] = 0;
                    } else if job.probe && before {
                        next.streak[p] += 1;
                    }
                    let parole = config().quarantine.parole_probes;
                    match (before, g.quarantine.is_quarantined(job.fingerprint)) {
                        (true, false) => {
                            assert!(job.probe, "released by a run that was not its probe");
                            assert_eq!(next.streak[p], parole, "released early");
                            next.streak[p] = 0;
                            reached.paroles += 1;
                        }
                        (true, true) => assert!(next.streak[p] < parole, "kept after parole"),
                        (false, true) => next.streak[p] = 0,
                        (false, false) => {}
                    }
                }
            }
        }
        for (t, &spent) in next.spent.iter().enumerate() {
            if spent > 0.0 {
                let recorded = next.gates.admission.energy_spent(TENANTS[t]);
                assert_eq!(recorded, spent, "tenant {t} lost its spend");
            }
        }
        next
    }

    /// The invariants of one state that no single event reaches. The
    /// recovery run depends only on the controller and the signals since
    /// the last tick, so it runs once per distinct pair.
    fn check_state(w: &World, bound: u32, recovered: &mut HashSet<Vec<u64>>) {
        let mut g = w.gates.clone();
        for op in [Op::Stats, Op::Health, Op::Check] {
            let decision = g.decide(op, "a", GOOD, w.now_ms, w.jobs.len());
            assert_ne!(decision, Err(Shed::FallbackOnly), "the floor shed {op:?}");
        }
        let since = &w.gates.since_tick;
        let mut controller = w.gates.modes.state_key().to_vec();
        controller.extend([since.completions, since.failures]);
        if recovered.insert(controller) {
            let mut g = w.gates.clone();
            for _ in 0..bound {
                g.tick(0);
            }
            assert_eq!(g.modes.mode(), SystemMode::Normal, "{bound} clean ticks");
            check_hysteresis(g.modes.transitions()).expect("hysteresis");
        }
    }

    /// Breadth-first over every event sequence up to `DEPTH` events from
    /// a fresh control plane, states deduplicated on a canonical key.
    #[test]
    fn every_short_event_sequence_keeps_the_invariants() {
        const DEPTH: usize = 8;
        let cfg = config();
        let bound = recovery_bound(&cfg.modes);
        let mut gates = Gates::new(&cfg);
        gates.admission = Admission::with_tenant_cap(cfg.admission.clone(), 2);
        let start = World {
            gates,
            now_ms: 0,
            jobs: Vec::new(),
            streak: [0; 2],
            spent: [0.0; 3],
        };
        let mut seen: HashSet<u64, BuildHasherDefault<Keys>> = HashSet::default();
        seen.insert(start.key());
        let mut recovered = HashSet::new();
        let mut frontier = vec![start];
        let mut reached = Reached::default();
        for depth in 0..DEPTH {
            let mut next = Vec::new();
            for w in &frontier {
                for event in w.events() {
                    let n = apply(w, event, &mut reached);
                    if seen.insert(n.key()) {
                        check_state(&n, bound, &mut recovered);
                        if depth + 1 < DEPTH {
                            next.push(n);
                        }
                    }
                }
            }
            eprintln!("depth {}: {} states in all", depth + 1, seen.len());
            frontier = next;
        }
        assert_eq!(reached.sheds.len(), 6, "every shed kind");
        assert_eq!(reached.ends.len(), 5, "every completion kind");
        assert!(reached.paroles > 0, "a parole");
    }
}
