//! Quarantine of repeatedly-failing programs.
//!
//! A multi-tenant daemon cannot let one poisoned program burn worker
//! time forever: a program (keyed by its [`source fingerprint`]
//! [`ent_workloads::source_fingerprint`] alone, so no tenant source text
//! is retained, and one tenant's failures quarantine that source for
//! every tenant) accumulates a **strike** per failed job. Strikes decay
//! by halving every [`QuarantineConfig::decay_interval_ms`] of virtual
//! time, so an old bad patch doesn't condemn a program forever; crossing
//! [`QuarantineConfig::strike_threshold`] quarantines it.
//!
//! Release is **parole, not amnesty**: while quarantined, every
//! [`QuarantineConfig::probe_every`]-th submission is admitted as a
//! probe (the rest are shed with a typed reply), and only
//! [`QuarantineConfig::parole_probes`] *consecutive* clean probes lift
//! the quarantine. One failed run resets the count — mirroring the
//! mode controller's fast-degrade / slow-recover asymmetry.
//!
//! The table holds at most [`MAX_PROGRAMS`] programs. At capacity, one
//! pass drops every program that is not quarantined (they hold only
//! decaying strikes); a quarantined program stays until parole, so a
//! table full of quarantined programs records no new ones.
//!
//! The table is a pure function of the `(event, now_ms)` sequence it is
//! fed; virtual time makes soak runs replayable.

use std::collections::HashMap;

/// Quarantine policy knobs.
#[derive(Clone, Debug)]
pub struct QuarantineConfig {
    /// Decayed strikes at or above this quarantine the program.
    pub strike_threshold: f64,
    /// Virtual milliseconds for one strike half-life.
    pub decay_interval_ms: u64,
    /// While quarantined, every Nth submission runs as a parole probe.
    pub probe_every: u64,
    /// Consecutive clean probes required for release.
    pub parole_probes: u32,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            strike_threshold: 3.0,
            decay_interval_ms: 60_000,
            probe_every: 8,
            parole_probes: 2,
        }
    }
}

/// Programs the table holds at most: a few MiB of entries.
pub const MAX_PROGRAMS: usize = 1 << 16;

/// The verdict for one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not quarantined: run normally.
    Admit,
    /// Quarantined, but this submission is the parole probe: run it, and
    /// report the outcome back via `note_probe_ok` / `note_failure`.
    Probe,
    /// Quarantined: shed with a typed `quarantined` reply.
    Reject,
}

#[derive(Clone, Debug, Default)]
struct Entry {
    strikes: f64,
    last_update_ms: u64,
    quarantined: bool,
    /// Submissions seen while quarantined (for probe cadence).
    held: u64,
    clean_probes: u32,
}

impl Entry {
    fn decay(&mut self, now_ms: u64, half_life_ms: u64) {
        if half_life_ms == 0 || now_ms <= self.last_update_ms {
            self.last_update_ms = self.last_update_ms.max(now_ms);
            return;
        }
        let elapsed = (now_ms - self.last_update_ms) as f64 / half_life_ms as f64;
        self.strikes *= 0.5f64.powf(elapsed);
        self.last_update_ms = now_ms;
    }
}

/// The quarantine table.
#[derive(Clone, Debug)]
pub struct Quarantine {
    config: QuarantineConfig,
    entries: HashMap<u64, Entry>,
    /// Programs ever released on parole (monotone counter).
    paroled: u64,
    /// Programs quarantined now.
    active: u64,
}

impl Quarantine {
    /// An empty table under `config`.
    #[must_use]
    pub fn new(config: QuarantineConfig) -> Self {
        Quarantine {
            config,
            entries: HashMap::new(),
            paroled: 0,
            active: 0,
        }
    }

    /// Decides the fate of a submission of `fingerprint` at `now_ms`.
    pub fn check(&mut self, fingerprint: u64, now_ms: u64) -> Verdict {
        let half_life = self.config.decay_interval_ms;
        let Some(entry) = self.entries.get_mut(&fingerprint) else {
            return Verdict::Admit;
        };
        entry.decay(now_ms, half_life);
        if !entry.quarantined {
            return Verdict::Admit;
        }
        entry.held += 1;
        if self.config.probe_every > 0 && entry.held % self.config.probe_every == 0 {
            Verdict::Probe
        } else {
            Verdict::Reject
        }
    }

    /// Gives back the slot of a [`Verdict::Probe`] that a later gate
    /// shed, so the next submission of `fingerprint` is the probe.
    pub(crate) fn return_probe(&mut self, fingerprint: u64) {
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            entry.held -= 1;
        }
    }

    /// Records a failed job (panic, runtime error, or compile error).
    pub fn note_failure(&mut self, fingerprint: u64, now_ms: u64) {
        if !self.entries.contains_key(&fingerprint) && !self.make_room() {
            return;
        }
        let half_life = self.config.decay_interval_ms;
        let threshold = self.config.strike_threshold;
        let entry = self.entries.entry(fingerprint).or_default();
        entry.decay(now_ms, half_life);
        entry.strikes += 1.0;
        // A failure resets the clean-probe streak; crossing the
        // threshold (re-)quarantines.
        entry.clean_probes = 0;
        if entry.strikes >= threshold && !entry.quarantined {
            entry.quarantined = true;
            self.active += 1;
        }
    }

    /// Whether the table has room for one more program. At capacity it
    /// drops, in one pass, every program that is not quarantined. The
    /// pass runs only when it frees a slot.
    fn make_room(&mut self) -> bool {
        if self.entries.len() >= MAX_PROGRAMS && (self.active as usize) < self.entries.len() {
            self.entries.retain(|_, e| e.quarantined);
        }
        self.entries.len() < MAX_PROGRAMS
    }

    /// Records a clean parole probe: a job admitted on
    /// [`Verdict::Probe`] that ran clean. Enough of them in a row release
    /// the program with its strikes cleared. A clean job that was not the
    /// probe must not report here: it was admitted before the quarantine.
    pub fn note_probe_ok(&mut self, fingerprint: u64, now_ms: u64) {
        let half_life = self.config.decay_interval_ms;
        let Some(entry) = self.entries.get_mut(&fingerprint) else {
            return;
        };
        entry.decay(now_ms, half_life);
        if entry.quarantined {
            entry.clean_probes += 1;
            if entry.clean_probes >= self.config.parole_probes {
                self.entries.remove(&fingerprint);
                self.active -= 1;
                self.paroled += 1;
            }
        }
    }

    /// Programs currently quarantined.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Programs ever released on parole.
    #[must_use]
    pub fn paroled(&self) -> u64 {
        self.paroled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Quarantine {
        /// Whether `fingerprint` is quarantined now.
        pub(crate) fn is_quarantined(&self, fingerprint: u64) -> bool {
            self.entries
                .get(&fingerprint)
                .is_some_and(|e| e.quarantined)
        }

        /// The table in fingerprint order: every field that decides a
        /// submission.
        pub(crate) fn state_key(&self) -> Vec<[u64; 6]> {
            let mut entries: Vec<_> = (self.entries.iter())
                .map(|(&fp, e)| {
                    let flag = u64::from(e.quarantined);
                    let clean = u64::from(e.clean_probes);
                    [
                        fp,
                        e.strikes.to_bits(),
                        e.last_update_ms,
                        flag,
                        e.held,
                        clean,
                    ]
                })
                .collect();
            entries.sort_unstable();
            entries
        }
    }

    fn table() -> Quarantine {
        Quarantine::new(QuarantineConfig {
            strike_threshold: 3.0,
            decay_interval_ms: 1000,
            probe_every: 4,
            parole_probes: 2,
        })
    }

    #[test]
    fn three_strikes_quarantine_and_probes_cycle() {
        let mut q = table();
        for _ in 0..3 {
            assert_eq!(q.check(7, 0), Verdict::Admit);
            q.note_failure(7, 0);
        }
        assert_eq!(q.active(), 1);
        // Every 4th submission is the probe; the rest shed.
        let verdicts: Vec<Verdict> = (0..8).map(|_| q.check(7, 1)).collect();
        assert_eq!(verdicts.iter().filter(|v| **v == Verdict::Probe).count(), 2);
        assert_eq!(verdicts[3], Verdict::Probe);
        assert_eq!(verdicts[0], Verdict::Reject);
    }

    #[test]
    fn parole_requires_consecutive_clean_probes() {
        let mut q = table();
        for _ in 0..3 {
            q.note_failure(9, 0);
        }
        assert_eq!(q.active(), 1);
        // One clean probe is not enough…
        q.note_probe_ok(9, 10);
        assert_eq!(q.active(), 1);
        // …and a failed probe resets the streak entirely.
        q.note_failure(9, 20);
        q.note_probe_ok(9, 30);
        assert_eq!(q.active(), 1, "streak was reset by the failed probe");
        // Two consecutive clean probes release.
        q.note_probe_ok(9, 40);
        assert_eq!(q.active(), 0);
        assert_eq!(q.paroled(), 1);
        assert_eq!(q.check(9, 50), Verdict::Admit);
    }

    #[test]
    fn strikes_decay_with_virtual_time() {
        let mut q = table();
        q.note_failure(5, 0);
        q.note_failure(5, 0);
        // Two half-lives later the 2 strikes have decayed to 0.5: one
        // more failure stays under the threshold of 3.
        q.note_failure(5, 2000);
        assert_eq!(q.active(), 0);
        // Fresh failures in a burst still quarantine.
        q.note_failure(5, 2000);
        q.note_failure(5, 2000);
        assert_eq!(q.active(), 1);
    }

    #[test]
    fn distinct_failing_programs_keep_the_table_bounded() {
        let mut q = table();
        for _ in 0..3 {
            q.note_failure(7, 0);
        }
        let programs = 2 * MAX_PROGRAMS as u64;
        for i in 0..programs {
            q.note_failure(1_000 + i, i);
            assert!(q.entries.len() <= MAX_PROGRAMS, "failure {i}");
        }
        assert_eq!(q.active(), 1);
        // Still quarantined: shed until its probe comes round.
        assert_eq!(q.check(7, programs), Verdict::Reject);
    }

    #[test]
    fn unknown_programs_are_admitted_without_allocating() {
        let mut q = table();
        for fp in 0..100 {
            assert_eq!(q.check(fp, 0), Verdict::Admit);
        }
        assert_eq!(q.entries.len(), 0, "check never allocates entries");
    }
}
