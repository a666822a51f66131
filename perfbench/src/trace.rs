//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end, parent and request id. Spans are
//! appended to a vector while the run is measured and written out once at
//! the end. A span's self time is its duration minus the time its child
//! spans cover; the traced code is sequential, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, in microseconds.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span that was timed elsewhere (a child of the innermost
    /// open span).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let to_ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent,
            req,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of each span minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-name totals over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Coverage of the root spans named `root`: the share of their summed
    /// wall time that child spans cover, the unattributed remainder in ns,
    /// and the root count.
    pub fn coverage(&self, root: &str) -> (f64, u64, u64) {
        let self_ns = self.self_times();
        let mut total = 0u64;
        let mut unattributed = 0u64;
        let mut roots = 0u64;
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.parent.is_none() && s.name == root {
                total += s.end_ns - s.start_ns;
                unattributed += own;
                roots += 1;
            }
        }
        (
            1.0 - unattributed as f64 / total.max(1) as f64,
            unattributed,
            roots,
        )
    }

    /// The spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("root", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let root = totals["root"];
        let child = totals["child"];
        assert!(child.self_ns >= 2_000_000);
        assert!(root.self_ns < root.total_ns);
        let (share, _, roots) = t.coverage("root");
        assert_eq!(roots, 1);
        assert!(share > 0.5);
    }
}
