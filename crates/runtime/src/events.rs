//! Structured runtime events: the raw material of the paper's §6.3
//! energy-debugging workflow (which object was assigned which mode, when,
//! and which dynamic checks failed), in a form cheap enough to collect
//! during benchmark runs.
//!
//! An [`EnergyEvent`] is a fixed-size `Copy` record: interned class,
//! method, and mode ids plus the virtual timestamp — no strings, no
//! per-event allocation. Events are recorded into a bounded [`EventRing`]
//! whose storage grows on demand (amortized doubling up to the retention
//! capacity — a run that records two events never pays for sixteen
//! thousand slots), so the hot-path cost of recording is one branch plus
//! a store; rendering the ids back to names is a separate pass
//! ([`render_event`]) that resolves them through the lowered program's
//! interners, losslessly reproducing the human-readable stream.

use ent_energy::SensorKind;

use crate::lower::{GMode, LoweredProgram};

/// A compact structured runtime event, timestamped on the virtual clock.
///
/// Only recorded when [`crate::RuntimeConfig::record_events`] is set.
/// Names are interned: resolve `class`/`method` ids with
/// [`LoweredProgram::class_name`]/[`LoweredProgram::method_name`] and
/// modes with [`LoweredProgram::mode_string`], or render the whole event
/// with [`render_event`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyEvent {
    /// Virtual time in seconds.
    pub at_s: f64,
    /// What happened.
    pub payload: EventPayload,
}

/// The event body: ids only, fixed size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventPayload {
    /// An object of a dynamic class was allocated (untagged).
    DynamicAlloc {
        /// Class id.
        class: u32,
    },
    /// A snapshot assigned a mode.
    Snapshot {
        /// Class id.
        class: u32,
        /// The mode the attributor produced.
        mode: GMode,
        /// The declared lower bound.
        lo: GMode,
        /// The declared upper bound.
        hi: GMode,
        /// Whether a physical copy was made (lazy copying).
        copied: bool,
        /// Whether the check failed (an `EnergyException` was or would
        /// have been raised).
        failed: bool,
    },
    /// A dynamic waterfall check failed at a message send (method-level
    /// attributors; impossible for statically-checked sends).
    DfallFailure {
        /// Receiver class id.
        class: u32,
        /// Method id.
        method: u32,
        /// The receiver-side mode.
        receiver_mode: GMode,
        /// The sender's mode.
        sender_mode: GMode,
    },
    /// A sensor read was faulted (only possible under fault injection) and
    /// the runtime's degradation policy decided what to serve instead.
    SensorFault {
        /// Which sensor the read targeted.
        sensor: SensorKind,
        /// What the degradation policy served for the faulted read.
        served: FaultServe,
    },
}

/// How a faulted sensor read was served (the degradation ladder of the
/// fault model: corrupted values pass through undetected; detectable
/// faults fall back to last-known-good within the staleness bound, then to
/// the conservative sentinel past it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultServe {
    /// A silently corrupted value was returned as-is (undetectable).
    Corrupted,
    /// The last-known-good reading was served (within the staleness bound).
    LastKnownGood,
    /// No usable reading existed: the conservative sentinel was served and
    /// the run was marked degraded.
    Conservative,
}

/// A bounded ring buffer of [`EnergyEvent`]s.
///
/// The retention bound is fixed once (at
/// [`crate::RuntimeConfig::events_capacity`]) but storage grows lazily:
/// the buffer starts empty and doubles as events arrive, capping out at
/// the bound. Sparse runs therefore pay only for the events they record —
/// preallocating the whole window up front measurably perturbed profiled
/// runs (the half-megabyte default allocation churned the allocator
/// against the profiler's call-tree nodes). When the buffer is full the
/// oldest events are overwritten and counted in [`EventRing::dropped`],
/// so a bounded window of the most recent events always survives
/// arbitrarily long runs.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct EventRing {
    buf: Vec<EnergyEvent>,
    /// Logical capacity (`Vec::with_capacity` may over-allocate).
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl EventRing {
    /// Creates a ring that retains at most `capacity` events. Storage is
    /// allocated on demand by `EventRing::push`, not here.
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event: a bounds check plus a store (amortized — the
    /// backing storage doubles up to the retention bound as it fills).
    #[inline]
    pub(crate) fn push(&mut self, ev: EnergyEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else if self.cap == 0 {
            self.dropped += 1;
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many events were overwritten after the ring filled (0 means
    /// the stream is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }

    /// Iterates the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EnergyEvent> {
        let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
        older.iter().chain(newer.iter())
    }

    /// The retained events oldest-first, as a vector.
    pub fn to_vec(&self) -> Vec<EnergyEvent> {
        self.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a EventRing {
    type Item = &'a EnergyEvent;
    type IntoIter =
        std::iter::Chain<std::slice::Iter<'a, EnergyEvent>, std::slice::Iter<'a, EnergyEvent>>;

    fn into_iter(self) -> Self::IntoIter {
        let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
        older.iter().chain(newer.iter())
    }
}

/// Renders one event as the CLI's human-readable line, resolving every id
/// back through the lowered program's interners. Lossless: every field of
/// the compact record appears in the rendering.
pub fn render_event(prog: &LoweredProgram, ev: &EnergyEvent) -> String {
    let at_s = ev.at_s;
    match ev.payload {
        EventPayload::DynamicAlloc { class } => {
            format!("[{at_s:8.3}s] alloc dynamic {}", prog.class_name(class))
        }
        EventPayload::Snapshot {
            class,
            mode,
            lo,
            hi,
            copied,
            failed,
        } => {
            let status = if failed {
                "FAILED CHECK"
            } else if copied {
                "copied"
            } else {
                "tagged in place"
            };
            format!(
                "[{at_s:8.3}s] snapshot {} -> {} in [{}, {}] ({status})",
                prog.class_name(class),
                prog.mode_string(mode),
                prog.mode_string(lo),
                prog.mode_string(hi),
            )
        }
        EventPayload::DfallFailure {
            class,
            method,
            receiver_mode,
            sender_mode,
        } => format!(
            "[{at_s:8.3}s] waterfall violation at {}.{}: receiver {} > sender {}",
            prog.class_name(class),
            prog.method_name(method),
            prog.mode_string(receiver_mode),
            prog.mode_string(sender_mode),
        ),
        EventPayload::SensorFault { sensor, served } => {
            let sensor = match sensor {
                SensorKind::Battery => "battery",
                SensorKind::Temperature => "temperature",
            };
            let served = match served {
                FaultServe::Corrupted => "corrupted value passed through",
                FaultServe::LastKnownGood => "served last-known-good",
                FaultServe::Conservative => "served conservative sentinel (degraded)",
            };
            format!("[{at_s:8.3}s] sensor fault on {sensor}: {served}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_s: f64) -> EnergyEvent {
        EnergyEvent {
            at_s,
            payload: EventPayload::DynamicAlloc { class: 0 },
        }
    }

    #[test]
    fn ring_keeps_everything_until_full() {
        let mut ring = EventRing::with_capacity(4);
        for i in 0..3 {
            ring.push(ev(i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        let times: Vec<f64> = ring.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = EventRing::with_capacity(3);
        for i in 0..5 {
            ring.push(ev(i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
        let times: Vec<f64> = ring.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_capacity_ring_counts_but_retains_nothing() {
        let mut ring = EventRing::with_capacity(0);
        ring.push(ev(1.0));
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 1);
    }
}
