//! What the benchmark reads about its host from `/proc`.
//!
//! This benchmark runs on small virtual machines whose vCPUs the
//! hypervisor sometimes hands to other guests for seconds at a time
//! ("steal" in `/proc/stat`). Stolen time freezes the program and the load
//! generator alike, so a phase is started only once the host has been
//! quiet for a moment, and the steal share of each run is reported. The
//! host's speed also drifts without any steal showing, so time metrics are
//! scaled by a reference loop timed beside them ([`HostSpeed`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `(steal, total)` CPU ticks summed over all CPUs since boot.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Stolen ticks since boot, summed over all CPUs.
pub fn steal_ticks() -> u64 {
    cpu_ticks().0
}

/// The steal counter and one process's CPU time, read every 10 ms in the
/// background, so that any interval of a phase can be checked for stolen
/// time, and the CPU the process spent in it read off, afterwards.
pub struct StealTrace(Vec<Sample>);

/// One reading: when, stolen ticks since boot, the process's CPU µs.
#[derive(Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub steal: u64,
    pub cpu_us: u64,
}

impl StealTrace {
    /// Samples until `stop` is set; `pid` is the process whose CPU time
    /// is read alongside.
    pub fn record(stop: &AtomicBool, pid: &str) -> StealTrace {
        let sample = || Sample {
            at: Instant::now(),
            steal: steal_ticks(),
            cpu_us: cpu_us(pid),
        };
        let mut samples = vec![sample()];
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
            samples.push(sample());
        }
        StealTrace(samples)
    }

    /// Ticks stolen between the last sample at or before `from` and the
    /// first at or after `to`.
    pub fn stolen(&self, from: Instant, to: Instant) -> u64 {
        let first = self.0.first().map_or(0, |s| s.steal);
        let last = self.0.last().map_or(0, |s| s.steal);
        let before = self
            .0
            .iter()
            .rev()
            .find(|s| s.at <= from)
            .map_or(first, |s| s.steal);
        let after = self.0.iter().find(|s| s.at >= to).map_or(last, |s| s.steal);
        after.saturating_sub(before)
    }

    /// Consecutive, disjoint intervals of `n` sampling periods each, as
    /// `(first, last)` sample pairs.
    pub fn intervals(&self, n: usize) -> Vec<(Sample, Sample)> {
        self.0
            .windows(n + 1)
            .step_by(n)
            .map(|w| (w[0], w[n]))
            .collect()
    }
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub struct StealMeter((u64, u64));

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// Stolen share since `start`, in percent.
    pub fn pct(&self) -> f64 {
        let (s1, t1) = cpu_ticks();
        let (s0, t0) = self.0;
        if t1 <= t0 {
            0.0
        } else {
            (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0
        }
    }
}

/// The most a run waits for a quiet host in total, so that a long noisy
/// spell cannot stretch a run (about 10 s of the waits are 300 ms samples
/// on a quiet host).
const QUIET_BUDGET: Duration = Duration::from_secs(15);

/// Milliseconds this process has spent in [`wait_for_quiet`].
static QUIET_WAITED_MS: AtomicU64 = AtomicU64::new(0);

/// Waits until a 300 ms sample shows at most one tick of steal, or `max`
/// has passed, or the run's quiet budget is spent; returns how long it
/// waited.
pub fn wait_for_quiet(max: Duration) -> Duration {
    let started = Instant::now();
    let spent = Duration::from_millis(QUIET_WAITED_MS.load(Ordering::Relaxed));
    let max = max.min(QUIET_BUDGET.saturating_sub(spent));
    while started.elapsed() < max {
        let (s0, _) = cpu_ticks();
        std::thread::sleep(Duration::from_millis(300));
        if cpu_ticks().0.saturating_sub(s0) <= 1 {
            break;
        }
    }
    let waited = started.elapsed();
    QUIET_WAITED_MS.fetch_add(waited.as_millis() as u64, Ordering::Relaxed);
    waited
}

/// Reference-loop speed, in loops per CPU second, of the nominal host that
/// time metrics are scaled to.
pub const NOMINAL_REF_RATE: f64 = 120.0;

/// Integer arithmetic, branches and scattered loads and stores over a
/// 256 KiB table.
fn table_loop(seed: u64) -> u64 {
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let (mut x, mut acc) = (seed | 1, 0u64);
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        table[j] = table[j].wrapping_add(i ^ acc);
        acc = acc.rotate_left(5) ^ table[acc as usize & mask];
        if acc & 3 == 0 {
            acc = acc.wrapping_mul(31);
        }
    }
    acc
}

/// Small allocations of assorted sizes, up to 512 of them live at once.
fn alloc_loop(seed: u64) -> u64 {
    let mut acc = seed;
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..60_000u64 {
        let n = ((acc ^ i) % 24 + 1) as usize;
        let v: Vec<u64> = (0..n as u64).map(|k| k ^ acc).collect();
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(v[n / 2]);
        live.push(v);
        if live.len() > 512 {
            live.swap_remove(acc as usize % live.len());
        }
    }
    acc
}

/// Recursion over 4 KiB frames, to touch a new thread's stack.
fn deep(n: u64) -> u64 {
    let frame = [n; 512];
    if n == 0 {
        frame[3]
    } else {
        std::hint::black_box(deep(n - 1)) ^ frame[(n % 512) as usize]
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through the pointer, which
    // points at a live, properly laid out value.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One reference loop, in CPU nanoseconds of the calling thread and the
/// threads it starts: the table and allocation loops, then 20 threads
/// with 512 MiB stacks (the size the interpreter runs on) that each touch
/// 36 KiB of theirs. It is this benchmark's own code, so no change to the
/// system under test moves it; only the host's speed does.
fn reference_loop(seed: u64) -> u64 {
    let before = thread_cpu_ns();
    std::hint::black_box(table_loop(seed) ^ alloc_loop(seed));
    let mut spawned = 0;
    for _ in 0..20 {
        spawned += std::thread::Builder::new()
            .stack_size(512 << 20)
            .spawn(|| {
                std::hint::black_box(deep(8));
                thread_cpu_ns()
            })
            .and_then(|t| t.join().map_err(|_| std::io::Error::other("panicked")))
            .expect("reference thread");
    }
    thread_cpu_ns().saturating_sub(before) + spawned
}

/// The reference loops timed over a run. Other guests on the host slow
/// the system down by up to a third, for seconds to minutes, mostly
/// without stealing CPU time that `/proc/stat` would show; scaling each
/// measurement by the reference speed timed next to it takes that out of
/// the time metrics (NOTES.md). A sample is CPU time, so neither stolen
/// time nor the benchmark's other threads count in it.
#[derive(Default)]
pub struct HostSpeed {
    /// CPU seconds of each sample.
    seconds: Vec<f64>,
}

impl HostSpeed {
    /// Times `n` reference loops; returns the rate of their median, in
    /// loops per CPU second.
    pub fn sample(&mut self, n: usize) -> f64 {
        let new: Vec<f64> = (1..=n as u64)
            .map(|seed| reference_loop(seed).max(1) as f64 / 1e9)
            .collect();
        self.seconds.extend(&new);
        1.0 / crate::stats::median(&new)
    }

    /// Rate of the median sample, in loops per CPU second.
    pub fn median(&self) -> f64 {
        1.0 / crate::stats::median(&self.seconds)
    }

    pub fn samples(&self) -> usize {
        self.seconds.len()
    }
}

/// `seconds` measured while the host ran the reference loop at `rate`,
/// scaled to the nominal host.
pub fn scale_time(seconds: f64, rate: f64) -> f64 {
    seconds * rate / NOMINAL_REF_RATE
}

/// A per-second rate measured while the host ran the reference loop at
/// `rate`, scaled to the nominal host.
pub fn scale_rate(per_s: f64, rate: f64) -> f64 {
    per_s * NOMINAL_REF_RATE / rate
}

/// CPU time (user + system, exited threads included) that process `pid`
/// (or `"self"`) has used, in microseconds. The kernel counts it in
/// 10 ms ticks and leaves stolen time out.
pub fn cpu_us(pid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks * 10_000
}

/// Peak resident set (VmHWM) of the process whose `status` file is at
/// `status_path`, in MiB; 0 when unreadable.
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
