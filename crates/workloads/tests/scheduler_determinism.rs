//! Adversarial determinism tests for the batch scheduler: skewed job
//! mixes (sleep-heavy and gas-heavy cells side by side) must produce
//! byte-identical outcome vectors — values, error messages, attempt
//! counts, ordering — at every worker count.
//!
//! Workers claim shrinking blocks from one shared cursor
//! (`(n - cur) / (2 * workers)` jobs, at least 1), so the tails of the
//! small batches here are handed out one job at a time.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ent_energy::PlatformKind;
use ent_workloads::{
    benchmark, prepare_e1, run_batch, run_batch_outcomes, run_e1_prepared, BatchPolicy, JobError,
};

/// FNV-1a over an outcome vector: values by exact bit pattern, errors by
/// message and attempt count, all in slot order.
fn fingerprint(outcomes: &[Result<Vec<u8>, JobError>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        match o {
            Ok(bytes) => {
                eat(b"ok");
                eat(bytes);
            }
            Err(e) => {
                eat(b"err");
                eat(e.message.as_bytes());
                eat(&e.attempts.to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn skewed_interpreter_batches_are_byte_identical_across_worker_counts() {
    // A deliberately unbalanced mix: the front of the range is gas-heavy
    // (full_throttle workload cells) *and* sleep-padded, so the workers
    // that drew light cells finish first and claim the rest.
    // Every job's behavior — benchmark, config, seed, even its sleep —
    // derives from its index, never from execution order.
    let heavy = prepare_e1(&benchmark("sunflow").unwrap(), PlatformKind::SystemA, 2);
    let light = prepare_e1(&benchmark("jspider").unwrap(), PlatformKind::SystemA, 0);
    let work: Vec<usize> = (0..36).collect();
    let run = |jobs: usize| {
        run_batch_outcomes(jobs, &work, &BatchPolicy::default(), |&i, _| {
            if i < 6 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let prog = if i % 3 == 0 { &heavy } else { &light };
            let out = run_e1_prepared(prog, i % 3, i % 2 == 0, 1000 + i as u64 * 17);
            let mut bytes = out.energy_j.to_bits().to_le_bytes().to_vec();
            bytes.extend(out.time_s.to_bits().to_le_bytes());
            bytes.push(out.exception as u8);
            bytes.extend(out.snapshot_failures.to_le_bytes());
            bytes.extend(out.dfall_failures.to_le_bytes());
            bytes
        })
    };
    let baseline = run(1);
    let fp = fingerprint(&baseline);
    for jobs in [2, 8] {
        let outcomes = run(jobs);
        assert_eq!(
            fingerprint(&outcomes),
            fp,
            "jobs={jobs} diverged from the sequential baseline"
        );
        assert_eq!(outcomes.len(), baseline.len());
    }
}

#[test]
fn more_than_one_worker_runs_the_skewed_mix() {
    // The companion to the test above: prove the byte-equality is not
    // vacuous. Job 0 holds its worker until the last job has finished,
    // which only another worker can run; each job reports the worker
    // thread it ran on.
    let last_done = (Mutex::new(false), Condvar::new());
    let work: Vec<usize> = (0..64).collect();
    let threads = run_batch(8, &work, |&i| {
        let (done, cv) = &last_done;
        if i == 0 {
            let guard = done.lock().unwrap();
            let _ = cv
                .wait_timeout_while(guard, Duration::from_secs(30), |d| !*d)
                .unwrap();
        } else if i == work.len() - 1 {
            *done.lock().unwrap() = true;
            cv.notify_all();
        }
        std::thread::current().id()
    });
    let workers: HashSet<_> = threads.into_iter().collect();
    assert!(workers.len() > 1, "one worker ran every job");
}

#[test]
fn failures_attempts_and_messages_are_identical_across_worker_counts() {
    // Jobs 5, 13, and 21 fail deterministically on every attempt; job 30
    // fails on its first attempt only. With one retry, the permanent
    // failures must report attempts == 2 with identical messages at every
    // worker count, and the flaky job must succeed everywhere.
    let work: Vec<usize> = (0..40).collect();
    let policy = BatchPolicy { retries: 1 };
    let run = |jobs: usize| {
        run_batch_outcomes(jobs, &work, &policy, |&i, attempt| {
            if i == 5 || i == 13 || i == 21 {
                panic!("job {i} is permanently broken");
            }
            if i == 30 && attempt == 0 {
                panic!("job {i} is flaky on its first attempt");
            }
            if i < 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
            vec![i as u8, attempt as u8]
        })
    };
    let baseline = run(1);
    assert_eq!(
        baseline[30],
        Ok(vec![30, 1]),
        "flaky job recovers via retry"
    );
    let err = baseline[13].as_ref().unwrap_err();
    assert_eq!(err.attempts, 2);
    assert!(err.message.contains("permanently broken"));
    let fp = fingerprint(&baseline);
    for jobs in [2, 8] {
        assert_eq!(
            fingerprint(&run(jobs)),
            fp,
            "jobs={jobs}: failure shape diverged"
        );
    }
}

#[test]
fn worker_counts_do_not_change_results() {
    // 600 jobs split into different blocks at every worker count; the
    // outcomes must stay byte-identical, and only the schedule may differ.
    let work: Vec<usize> = (0..600).collect();
    let run = |jobs: usize| {
        run_batch_outcomes(jobs, &work, &BatchPolicy::default(), |&i, _| {
            vec![(i * 31 % 251) as u8]
        })
    };
    let base = run(1);
    let fp = fingerprint(&base);
    assert_eq!(base.len(), work.len());
    for jobs in [2, 4, 8] {
        assert_eq!(fingerprint(&run(jobs)), fp, "jobs={jobs} diverged");
    }
}

#[test]
fn attempt_counter_is_per_job_not_per_worker() {
    // A job's retry happens on whichever worker claimed it; the attempt
    // index passed to the closure must still be per-job. Count
    // total invocations: 22 passing jobs run once, the two failing jobs
    // run twice (first attempt + one retry).
    let calls = AtomicU32::new(0);
    let work: Vec<usize> = (0..24).collect();
    let policy = BatchPolicy { retries: 1 };
    let outcomes = run_batch_outcomes(8, &work, &policy, |&i, attempt| {
        calls.fetch_add(1, Ordering::Relaxed);
        assert!(attempt <= 1, "attempts never exceed retries + 1");
        if i == 2 || i == 17 {
            panic!("always fails");
        }
        i
    });
    assert_eq!(calls.load(Ordering::Relaxed), 22 + 2 * 2);
    assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 2);
    for (i, o) in outcomes.iter().enumerate() {
        if i == 2 || i == 17 {
            assert_eq!(o.as_ref().unwrap_err().attempts, 2);
        } else {
            assert_eq!(o.as_ref().unwrap(), &i);
        }
    }
}
