//! Open-loop load generator over loopback TCP.
//!
//! Request `k` is due at `t0 + k / rate`, whatever happened to earlier
//! requests. One process, one thread and one connection per lane (at most
//! `nproc` of each); a lane writes every request that has fallen due in one
//! pipelined write, then waits in `ppoll` (a high-resolution timeout;
//! socket receive timeouts tick in scheduler jiffies) for replies until
//! the next one is due.
//! Replies arrive in order per connection, so the n-th reply line on a lane
//! answers its n-th request. Latency is measured from the due time, so a
//! stall also charges the requests queued behind it; how late the
//! generator itself sent is reported as lateness.
//!
//! The daemon does not set `TCP_NODELAY`, so with two replies in flight
//! Nagle holds the second until the first is acknowledged, and a client
//! that delays its ACKs stalls for the kernel's delayed-ACK timer (about
//! 40 ms). The generator re-arms `TCP_QUICKACK` after every read, so the
//! latencies it reports are the daemon's work, not that timer (see
//! NOTES.md).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request's timeline, in nanoseconds since the phase start.
#[derive(Clone, Debug, Default)]
pub struct Shot {
    pub due_ns: u64,
    /// `None` when the lane stopped sending (backlog cap hit).
    pub sent_ns: Option<u64>,
    /// `None` when no reply arrived before the drain deadline.
    pub done_ns: Option<u64>,
    pub reply: Vec<u8>,
}

impl Shot {
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns
            .map(|d| d.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    pub fn lateness_ms(&self) -> Option<f64> {
        self.sent_ns
            .map(|s| s.saturating_sub(self.due_ns) as f64 / 1e6)
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `timeout` for `stream` to become readable (or closed).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals for the call, `nfds` is 1 (the
    // one PollFd), and a null sigmask leaves the signal mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// Asks the kernel to acknowledge the next received segment at once
/// (Linux resets this after use, so it is re-armed after every read).
fn quickack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which is alive for the
    // call; `value` points at a live i32 and `len` is its size. A failed
    // call only leaves delayed ACKs on, so its result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            std::ptr::addr_of!(one).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Opens `lanes` connections to `addr`.
pub fn connect(addr: SocketAddr, lanes: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..lanes.max(1))
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            quickack(&s);
            Ok(s)
        })
        .collect()
}

/// Offers `lines` at `rate` requests per second over `streams`; each lane
/// stops sending once `max_backlog` of its requests are unanswered, and the
/// phase waits at most `drain` after the last due time for replies.
/// Returns the phase start (time zero of every shot) and the shots.
pub fn open_loop(
    streams: &mut [TcpStream],
    lines: &[String],
    rate: f64,
    max_backlog: usize,
    drain: Duration,
) -> (Instant, Vec<Shot>) {
    let lanes = streams.len();
    let start = Instant::now() + Duration::from_millis(2);
    let step_ns = 1e9 / rate;
    let due = |k: usize| (k as f64 * step_ns) as u64;
    let last_due = due(lines.len().saturating_sub(1));
    let deadline = start + Duration::from_nanos(last_due) + drain;
    let mut per_lane: Vec<Vec<(usize, Shot)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(lane, stream)| {
                s.spawn(move || {
                    let mine: Vec<usize> = (lane..lines.len()).step_by(lanes).collect();
                    run_lane(stream, lines, &mine, start, deadline, &due, max_backlog)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane"))
            .collect()
    });
    let mut all: Vec<(usize, Shot)> = per_lane.drain(..).flatten().collect();
    all.sort_by_key(|(k, _)| *k);
    (start, all.into_iter().map(|(_, s)| s).collect())
}

fn run_lane(
    stream: &mut TcpStream,
    lines: &[String],
    mine: &[usize],
    start: Instant,
    deadline: Instant,
    due: &dyn Fn(usize) -> u64,
    max_backlog: usize,
) -> Vec<(usize, Shot)> {
    let ns = |t: Instant| u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(0);
    let mut shots: Vec<(usize, Shot)> = mine
        .iter()
        .map(|&k| {
            (
                k,
                Shot {
                    due_ns: due(k),
                    ..Shot::default()
                },
            )
        })
        .collect();
    let mut next = 0usize; // next shot to send
    let mut answered = 0usize; // replies received
    let mut stopped = false;
    let mut pending: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut out = Vec::with_capacity(1 << 16);
    loop {
        let now = Instant::now();
        if !stopped {
            out.clear();
            while next < shots.len() && shots[next].1.due_ns <= ns(now) && now >= start {
                if next - answered >= max_backlog {
                    stopped = true;
                    break;
                }
                out.extend_from_slice(lines[shots[next].0].as_bytes());
                out.push(b'\n');
                shots[next].1.sent_ns = Some(ns(now));
                next += 1;
            }
            if !out.is_empty() && stream.write_all(&out).is_err() {
                break;
            }
        }
        let all_sent = stopped || next == shots.len();
        if all_sent && answered == next {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = if all_sent {
            deadline
        } else {
            start + Duration::from_nanos(shots[next].1.due_ns)
        };
        let wait = wake.saturating_duration_since(now);
        if wait.is_zero() {
            continue;
        }
        if !wait_readable(stream, wait) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let done = ns(Instant::now());
                quickack(stream);
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    if answered < next {
                        let shot = &mut shots[answered].1;
                        shot.done_ns = Some(done);
                        shot.reply = line;
                        answered += 1;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shots
}
