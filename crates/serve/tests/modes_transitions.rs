//! Table-driven mode-controller transition suite: the hysteresis
//! invariants hold for every scripted observation sequence, and the
//! verdicts are a pure function of the sequence — independent of worker
//! count, wall clock, or machine.

use ent_serve::modes::{
    check_hysteresis, ModeConfig, ModeController, Observation, SystemMode, Transition,
};
use ent_serve::quarantine::{Quarantine, QuarantineConfig, Verdict};
use ent_serve::soak::{run_soak, SoakConfig};

/// One scripted tick: `(completions, failures, sensor_faults,
/// queue_depth)` against a fixed capacity of 64.
type Tick = (u64, u64, u64, u64);

fn drive(ticks: &[Tick]) -> (ModeController, Vec<Transition>) {
    let mut c = ModeController::new(ModeConfig::default());
    for &(completions, failures, sensor_faults, queue_depth) in ticks {
        c.observe(&Observation {
            completions,
            failures,
            sensor_faults,
            queue_depth,
            queue_capacity: 64,
        });
    }
    let transitions = c.transitions().to_vec();
    (c, transitions)
}

const CLEAN: Tick = (10, 0, 0, 0);
const ALL_FAIL: Tick = (10, 10, 0, 0);
const HALF_FAIL: Tick = (10, 5, 0, 0);
const FAULTY: Tick = (10, 0, 30, 0);
const FULL_QUEUE: Tick = (10, 0, 0, 64);
const IDLE: Tick = (0, 0, 0, 0);

/// The table: a name, a script, and the mode the controller must end in.
/// Every case's transition log must also pass the shared hysteresis
/// checker.
fn table() -> Vec<(&'static str, Vec<Tick>, SystemMode)> {
    vec![
        ("clean stays normal", vec![CLEAN; 50], SystemMode::Normal),
        (
            "sustained failure dives to the floor",
            vec![ALL_FAIL; 6],
            SystemMode::FallbackOnly,
        ),
        (
            "half failure settles below the floor",
            vec![HALF_FAIL; 10],
            SystemMode::EnergySaver,
        ),
        (
            "sensor faults alone demand degraded",
            vec![FAULTY; 6],
            SystemMode::Degraded,
        ),
        (
            "queue pressure alone caps at energy_saver",
            vec![FULL_QUEUE; 20],
            SystemMode::EnergySaver,
        ),
        (
            "full recovery walks home",
            [vec![ALL_FAIL; 6], vec![CLEAN; 40]].concat(),
            SystemMode::Normal,
        ),
        (
            "idle decay recovers too",
            [vec![ALL_FAIL; 6], vec![IDLE; 60]].concat(),
            SystemMode::Normal,
        ),
        (
            "a relapse mid-recovery restarts the clean count",
            [
                vec![ALL_FAIL; 6],
                vec![CLEAN; 4],
                vec![ALL_FAIL; 3],
                vec![CLEAN; 40],
            ]
            .concat(),
            SystemMode::Normal,
        ),
        (
            "mixed pressure follows the worst signal",
            [vec![FULL_QUEUE; 5], vec![ALL_FAIL; 5]].concat(),
            SystemMode::FallbackOnly,
        ),
    ]
}

#[test]
fn every_script_lands_where_the_table_says_and_respects_hysteresis() {
    for (name, script, want) in table() {
        let (c, transitions) = drive(&script);
        assert_eq!(c.mode(), want, "{name}");
        check_hysteresis(&transitions).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn no_script_ever_jumps_fallback_to_normal() {
    for (name, script, _) in table() {
        let (_, transitions) = drive(&script);
        for &(tick, from, to) in &transitions {
            assert!(
                !(from == SystemMode::FallbackOnly && to == SystemMode::Normal),
                "{name}: fallback_only -> normal at tick {tick}"
            );
        }
    }
}

#[test]
fn recovery_is_one_level_at_a_time_with_the_configured_dwell() {
    // From the floor, clean ticks step down exactly one level per
    // `recovery_ticks` — never faster, never skipping.
    let cfg = ModeConfig::default();
    let mut c = ModeController::new(cfg.clone());
    for _ in 0..6 {
        c.observe(&Observation {
            completions: 10,
            failures: 10,
            sensor_faults: 0,
            queue_depth: 0,
            queue_capacity: 64,
        });
    }
    assert_eq!(c.mode(), SystemMode::FallbackOnly);
    let mut downs = Vec::new();
    let mut last = c.mode();
    let mut clean_since_step = 0u32;
    for _ in 0..60 {
        let m = c.observe(&Observation {
            completions: 10,
            failures: 0,
            sensor_faults: 0,
            queue_depth: 0,
            queue_capacity: 64,
        });
        clean_since_step += 1;
        if m != last {
            assert_eq!(
                last.severity() - m.severity(),
                1,
                "recovery steps exactly one level"
            );
            assert!(
                clean_since_step >= cfg.recovery_ticks,
                "stepped down after only {clean_since_step} clean ticks"
            );
            downs.push(m);
            clean_since_step = 0;
            last = m;
        }
    }
    assert_eq!(
        downs,
        vec![
            SystemMode::EnergySaver,
            SystemMode::Degraded,
            SystemMode::Normal
        ]
    );
}

#[test]
fn controller_is_a_pure_function_of_the_observation_sequence() {
    for (name, script, _) in table() {
        let (a, ta) = drive(&script);
        let (b, tb) = drive(&script);
        assert_eq!(a.mode(), b.mode(), "{name}");
        assert_eq!(ta, tb, "{name}: same script, same transition log");
    }
}

#[test]
fn parole_requires_the_configured_consecutive_clean_probes() {
    let cfg = QuarantineConfig {
        strike_threshold: 3.0,
        decay_interval_ms: 60_000,
        probe_every: 4,
        parole_probes: 3,
    };
    let mut q = Quarantine::new(cfg);
    for _ in 0..3 {
        q.note_failure(11, 0);
    }
    assert_eq!(q.active(), 1);
    // N-1 clean probes are not release; a dirty probe resets the streak.
    q.note_probe_ok(11, 10);
    q.note_probe_ok(11, 20);
    assert_eq!(q.active(), 1, "two of three clean probes is not parole");
    q.note_failure(11, 30);
    q.note_probe_ok(11, 40);
    q.note_probe_ok(11, 50);
    assert_eq!(q.active(), 1, "the dirty probe reset the streak");
    q.note_probe_ok(11, 60);
    assert_eq!(q.active(), 0, "three consecutive clean probes release");
    assert_eq!(q.paroled(), 1);
    assert_eq!(q.check(11, 70), Verdict::Admit);
}

#[test]
fn soak_verdicts_are_independent_of_worker_count() {
    // The whole point of the drain-barrier design: the deterministic
    // record (every wave fact and the entire transition log) is the same
    // whether one worker or four drain the queue.
    let solo = run_soak(&SoakConfig {
        workers: 1,
        flood_jobs: 40,
        ..SoakConfig::default()
    });
    let pool = run_soak(&SoakConfig {
        workers: 4,
        flood_jobs: 40,
        ..SoakConfig::default()
    });
    assert_eq!(
        solo.deterministic_signature(),
        pool.deterministic_signature()
    );
    assert_eq!(solo.transitions, pool.transitions);
    assert!(solo.hysteresis_ok && pool.hysteresis_ok);
}
