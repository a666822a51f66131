//! The four-state system-mode controller.
//!
//! The paper's thesis — proactively adapt program behavior to energy
//! state — lifts to the service level: the server itself carries an
//! explicit mode, and every admission decision consults it. The mode
//! lattice is ordered by severity:
//!
//! ```text
//! normal  <  degraded  <  energy_saver  <  fallback_only
//! ```
//!
//! and transitions are **monotone-conservative**, modeled on the GMU
//! `ENFORCE_ADAPTIVE_GUARD` TLA+ spec (SNIPPETS.md Snippet 3):
//!
//! * **Fast to degrade**: when the observed signals call for a more
//!   severe mode, the controller jumps there directly, possibly skipping
//!   levels. A failing system must never linger in a generous mode.
//! * **Slow to recover**: stepping back toward `normal` happens one
//!   level at a time, and only after [`ModeConfig::recovery_ticks`]
//!   consecutive clean observations. In particular `fallback_only →
//!   normal` in one transition is impossible by construction.
//!
//! The controller is a **pure function of its observation sequence**: it
//! reads no clocks and no globals, so the same ticks produce the same
//! transition log on any machine with any worker count — which is what
//! lets the chaos soak assert hysteresis invariants exactly.

/// The system mode lattice, least to most severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SystemMode {
    /// Full service.
    Normal,
    /// Elevated failure or queue pressure: admission tightens (halved
    /// queue and refill), everything still runs.
    Degraded,
    /// Sustained pressure: admission tightens further and per-tenant
    /// energy budgets halve — spend joules only on work that matters.
    EnergySaver,
    /// The conservative floor: `run` work is shed with a typed reply;
    /// only cheap static paths (`check`, `stats`, `health`) are served.
    FallbackOnly,
}

impl SystemMode {
    /// Severity rank, `0` = normal.
    #[must_use]
    pub fn severity(self) -> u8 {
        match self {
            SystemMode::Normal => 0,
            SystemMode::Degraded => 1,
            SystemMode::EnergySaver => 2,
            SystemMode::FallbackOnly => 3,
        }
    }

    fn from_severity(rank: u8) -> SystemMode {
        match rank {
            0 => SystemMode::Normal,
            1 => SystemMode::Degraded,
            2 => SystemMode::EnergySaver,
            _ => SystemMode::FallbackOnly,
        }
    }

    /// The wire name (`ent-serve-proto/1` fixed vocabulary).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SystemMode::Normal => "normal",
            SystemMode::Degraded => "degraded",
            SystemMode::EnergySaver => "energy_saver",
            SystemMode::FallbackOnly => "fallback_only",
        }
    }
}

/// One controller tick's worth of drained counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observation {
    /// Jobs that completed since the last tick (any exit code).
    pub completions: u64,
    /// Of those, jobs that failed: panics, runtime errors, compile
    /// errors.
    pub failures: u64,
    /// Sensor faults the injector served during those jobs — the PR 4
    /// `FaultInjector` signal, forwarded from run telemetry.
    pub sensor_faults: u64,
    /// Queue depth at tick time.
    pub queue_depth: u64,
    /// Queue capacity in force at tick time.
    pub queue_capacity: u64,
}

/// Controller thresholds. The defaults suit the soak and the daemon; the
/// invariants hold for any values.
#[derive(Clone, Debug)]
pub struct ModeConfig {
    /// EWMA smoothing factor in `(0, 1]` — the weight of the newest tick.
    pub alpha: f64,
    /// Failure-rate EWMA at or above this demands `degraded`.
    pub fail_degraded: f64,
    /// … `energy_saver`.
    pub fail_energy_saver: f64,
    /// … `fallback_only`.
    pub fail_fallback: f64,
    /// Queue-fullness EWMA at or above this demands `degraded`.
    pub queue_degraded: f64,
    /// … `energy_saver`.
    pub queue_energy_saver: f64,
    /// Sensor-faults-per-completion EWMA at or above this demands
    /// `degraded` (a faulting sensor fleet is an energy-state warning,
    /// not yet a failure).
    pub faults_degraded: f64,
    /// Consecutive clean ticks required before recovering ONE level.
    pub recovery_ticks: u32,
}

impl Default for ModeConfig {
    fn default() -> Self {
        ModeConfig {
            alpha: 0.35,
            fail_degraded: 0.10,
            fail_energy_saver: 0.30,
            fail_fallback: 0.55,
            queue_degraded: 0.60,
            queue_energy_saver: 0.90,
            faults_degraded: 1.0,
            recovery_ticks: 3,
        }
    }
}

/// One recorded transition: `(tick, from, to)`.
pub type Transition = (u64, SystemMode, SystemMode);

/// The mode controller. Feed it one [`Observation`] per tick; read the
/// mode back between ticks.
#[derive(Clone, Debug)]
pub struct ModeController {
    config: ModeConfig,
    mode: SystemMode,
    tick: u64,
    fail_ewma: f64,
    queue_ewma: f64,
    fault_ewma: f64,
    clean_ticks: u32,
    transitions: Vec<Transition>,
}

impl ModeController {
    /// A controller starting in `normal` with zeroed signal estimates.
    #[must_use]
    pub fn new(config: ModeConfig) -> Self {
        ModeController {
            config,
            mode: SystemMode::Normal,
            tick: 0,
            fail_ewma: 0.0,
            queue_ewma: 0.0,
            fault_ewma: 0.0,
            clean_ticks: 0,
            transitions: Vec::new(),
        }
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> SystemMode {
        self.mode
    }

    /// Every transition so far, in tick order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The smoothed `(failure-rate, queue-fullness, faults-per-job)`
    /// estimates, for the stats endpoint.
    #[must_use]
    pub fn signals(&self) -> (f64, f64, f64) {
        (self.fail_ewma, self.queue_ewma, self.fault_ewma)
    }

    /// Applies one tick's observation and returns the (possibly new)
    /// mode.
    pub fn observe(&mut self, obs: &Observation) -> SystemMode {
        self.tick += 1;
        let a = self.config.alpha;
        // Ticks with no completions carry no new failure evidence: decay
        // the estimate toward zero rather than holding it frozen, so an
        // idle system can eventually recover.
        let fail_rate = if obs.completions > 0 {
            obs.failures as f64 / obs.completions as f64
        } else {
            0.0
        };
        let fault_rate = if obs.completions > 0 {
            obs.sensor_faults as f64 / obs.completions as f64
        } else {
            0.0
        };
        let fullness = if obs.queue_capacity > 0 {
            (obs.queue_depth as f64 / obs.queue_capacity as f64).min(1.0)
        } else {
            0.0
        };
        self.fail_ewma = a * fail_rate + (1.0 - a) * self.fail_ewma;
        self.queue_ewma = a * fullness + (1.0 - a) * self.queue_ewma;
        self.fault_ewma = a * fault_rate + (1.0 - a) * self.fault_ewma;

        let demanded = self.demanded_severity();
        let current = self.mode.severity();
        if demanded > current {
            // Fast to degrade: jump straight to the demanded mode.
            self.transition(SystemMode::from_severity(demanded));
            self.clean_ticks = 0;
        } else if demanded < current {
            // Slow to recover: one level per `recovery_ticks` clean run.
            self.clean_ticks += 1;
            if self.clean_ticks >= self.config.recovery_ticks {
                self.transition(SystemMode::from_severity(current - 1));
                self.clean_ticks = 0;
            }
        } else {
            self.clean_ticks = 0;
        }
        self.mode
    }

    /// The most severe mode any single signal demands right now.
    fn demanded_severity(&self) -> u8 {
        let c = &self.config;
        let mut rank = 0u8;
        if self.fail_ewma >= c.fail_fallback {
            rank = rank.max(3);
        } else if self.fail_ewma >= c.fail_energy_saver {
            rank = rank.max(2);
        } else if self.fail_ewma >= c.fail_degraded {
            rank = rank.max(1);
        }
        if self.queue_ewma >= c.queue_energy_saver {
            rank = rank.max(2);
        } else if self.queue_ewma >= c.queue_degraded {
            rank = rank.max(1);
        }
        if self.fault_ewma >= c.faults_degraded {
            rank = rank.max(1);
        }
        rank
    }

    fn transition(&mut self, to: SystemMode) {
        let from = self.mode;
        if from != to {
            self.transitions.push((self.tick, from, to));
            self.mode = to;
        }
    }
}

/// Renders a transition log as the items of a JSON array, as the stats
/// document and the soak report carry it.
pub(crate) fn transitions_json(transitions: &[Transition]) -> String {
    let item = |&(tick, from, to): &Transition| {
        let (from, to) = (from.as_str(), to.as_str());
        format!("{{\"tick\": {tick}, \"from\": \"{from}\", \"to\": \"{to}\"}}")
    };
    transitions.iter().map(item).collect::<Vec<_>>().join(", ")
}

/// Checks a transition log against the hysteresis invariants; returns a
/// description of the first violation, if any. Shared by the soak
/// harness, the bench bin, and the test suite so "the log respects
/// hysteresis" means one thing everywhere.
///
/// # Errors
///
/// Returns which transition broke which invariant.
pub fn check_hysteresis(transitions: &[Transition]) -> Result<(), String> {
    let mut last_tick = 0;
    for &(tick, from, to) in transitions {
        if tick < last_tick {
            return Err(format!("transition log out of order at tick {tick}"));
        }
        last_tick = tick;
        if from == to {
            return Err(format!("self-transition recorded at tick {tick}"));
        }
        if to.severity() < from.severity() && from.severity() - to.severity() > 1 {
            return Err(format!(
                "recovery skipped levels at tick {tick}: {} -> {}",
                from.as_str(),
                to.as_str()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ModeController {
        /// Everything the controller's next decisions depend on: not its
        /// tick count or its log.
        pub(crate) fn state_key(&self) -> [u64; 5] {
            let [fail, queue, fault] =
                [self.fail_ewma, self.queue_ewma, self.fault_ewma].map(f64::to_bits);
            let severity = u64::from(self.mode.severity());
            [severity, fail, queue, fault, u64::from(self.clean_ticks)]
        }
    }

    fn obs(completions: u64, failures: u64, depth: u64, cap: u64) -> Observation {
        Observation {
            completions,
            failures,
            sensor_faults: 0,
            queue_depth: depth,
            queue_capacity: cap,
        }
    }

    #[test]
    fn starts_normal_and_stays_there_on_clean_traffic() {
        let mut c = ModeController::new(ModeConfig::default());
        for _ in 0..50 {
            assert_eq!(c.observe(&obs(10, 0, 1, 64)), SystemMode::Normal);
        }
        assert!(c.transitions().is_empty());
    }

    #[test]
    fn degrades_fast_and_recovers_one_level_at_a_time() {
        let mut c = ModeController::new(ModeConfig::default());
        // Total failure: the controller dives to the floor quickly.
        let mut worst = SystemMode::Normal;
        for _ in 0..10 {
            worst = worst.max(c.observe(&obs(10, 10, 0, 64)));
        }
        assert_eq!(worst, SystemMode::FallbackOnly);
        // Clean traffic: recovery must pass through every level.
        let mut seen = vec![c.mode()];
        for _ in 0..40 {
            let m = c.observe(&obs(10, 0, 0, 64));
            if *seen.last().unwrap() != m {
                seen.push(m);
            }
        }
        assert_eq!(
            seen,
            vec![
                SystemMode::FallbackOnly,
                SystemMode::EnergySaver,
                SystemMode::Degraded,
                SystemMode::Normal
            ]
        );
        check_hysteresis(c.transitions()).unwrap();
    }

    #[test]
    fn queue_pressure_alone_caps_at_energy_saver() {
        let mut c = ModeController::new(ModeConfig::default());
        for _ in 0..20 {
            c.observe(&obs(10, 0, 64, 64));
        }
        assert_eq!(c.mode(), SystemMode::EnergySaver);
    }

    #[test]
    fn idle_ticks_decay_toward_recovery() {
        let mut c = ModeController::new(ModeConfig::default());
        for _ in 0..10 {
            c.observe(&obs(10, 10, 0, 64));
        }
        assert_eq!(c.mode(), SystemMode::FallbackOnly);
        // No completions at all — the estimate decays, recovery begins.
        for _ in 0..60 {
            c.observe(&obs(0, 0, 0, 64));
        }
        assert_eq!(c.mode(), SystemMode::Normal);
        check_hysteresis(c.transitions()).unwrap();
    }

    #[test]
    fn hysteresis_checker_rejects_level_skips() {
        let bad = [(5, SystemMode::FallbackOnly, SystemMode::Normal)];
        assert!(check_hysteresis(&bad).is_err());
        let fine = [
            (1, SystemMode::Normal, SystemMode::FallbackOnly),
            (9, SystemMode::FallbackOnly, SystemMode::EnergySaver),
        ];
        check_hysteresis(&fine).unwrap();
    }
}
