//! Adversarial determinism tests for the work-stealing batch scheduler:
//! skewed job mixes (sleep-heavy and gas-heavy cells side by side) must
//! produce byte-identical outcome vectors — values, error messages,
//! attempt counts, ordering — at every worker count.
//!
//! The scheduler derives its chunk from the batch shape
//! (`jobs / (workers * 8)`, clamped to `[1, 64]`), so the skewed batches
//! here are small enough that the chunk is 1 at 8 workers and stealing
//! is fine-grained.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use ent_energy::PlatformKind;
use ent_workloads::{
    benchmark, prepare_e1, run_batch_outcomes, run_batch_outcomes_with_telemetry, run_e1_prepared,
    BatchPolicy, JobError,
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
    // that drew light cells drain their ranges and steal the heavy tail.
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
fn stealing_actually_happens_in_the_skewed_mix() {
    // The companion to the test above: prove the byte-equality is not
    // vacuous — 64 jobs on 8 workers derive chunk 1, and the skewed mix
    // steals.
    let work: Vec<usize> = (0..64).collect();
    let (_, telemetry) =
        run_batch_outcomes_with_telemetry(8, &work, &BatchPolicy::default(), |&i, _| {
            if i < 8 {
                std::thread::sleep(Duration::from_millis(10));
            }
            i
        });
    assert_eq!(telemetry.chunk, 1);
    assert!(
        telemetry.steals > 0,
        "expected steals in a skewed chunk-1 batch: {telemetry:?}"
    );
    assert!(telemetry.stolen_jobs >= telemetry.steals);
}

#[test]
fn failures_attempts_and_messages_are_identical_under_stealing() {
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
            "jobs={jobs}: failure shape diverged under stealing"
        );
    }
}

#[test]
fn worker_counts_change_chunks_not_results() {
    // 600 jobs derive a different chunk at every worker count (64, 37,
    // 18, 9); the outcomes must stay byte-identical, and only the
    // schedule may differ.
    let work: Vec<usize> = (0..600).collect();
    let run = |jobs: usize| {
        run_batch_outcomes_with_telemetry(jobs, &work, &BatchPolicy::default(), |&i, _| {
            vec![(i * 31 % 251) as u8]
        })
    };
    let (base, t1) = run(1);
    let fp = fingerprint(&base);
    assert_eq!(base.len(), work.len());
    let mut chunks = vec![t1.chunk];
    for jobs in [2, 4, 8] {
        let (outcomes, telemetry) = run(jobs);
        assert_eq!(fingerprint(&outcomes), fp, "jobs={jobs} diverged");
        assert_eq!(telemetry.workers, jobs as u64);
        chunks.push(telemetry.chunk);
    }
    assert_eq!(chunks, vec![64, 37, 18, 9]);
}

#[test]
fn attempt_counter_is_per_job_not_per_worker() {
    // A stolen job's retry happens on whichever worker holds it; the
    // attempt index passed to the closure must still be per-job. Count
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
