//! The sampling-based probabilistic energy profiler.
//!
//! Instead of the exact profiler's per-enter tree probe, mark flushing,
//! and per-cost charging, the sampler maintains only a flat shadow frame
//! array — one push on method entry, one pop on exit, with direct
//! self-recursion run-length collapsed (see [`Sampler`]) — and captures
//! the live stack whenever the deterministic virtual step counter crosses
//! the next (jittered) sample threshold. Thresholds are only *checked* at
//! frame boundaries, but that loses nothing: between two consecutive
//! boundaries every step runs in a single frame, so an interval that
//! crosses `k` thresholds contributes exactly `k` hits to the one frame
//! that executed it. Step attribution is therefore an unbiased
//! frame-granular estimator. Bytecode gas batching is exact at observable
//! boundaries (see `compile.rs`), and the one place the VM *removes*
//! boundaries — tail self-send elision, which it keeps enabled under
//! sampling — only ever collapses a direct self-recursive chain whose
//! consuming `Ret` carries zero gas. No steps accrue between the chain's
//! end and its exit hook, and the collapsed chain occupies a single
//! run-length-encoded shadow frame anyway, so any threshold crossed
//! inside the chain attributes to the same collapsed path in both
//! engines. Hit tallies — and with hit-share attribution (below), every
//! byte of the report — are identical across engines and worker counts.
//!
//! Sample schedule: the gap between captures is
//! `period/2 + splitmix64(seed, i) % period` for sample index `i` — mean
//! ≈ `period`, range `[period/2, 3·period/2)` — so the schedule is a pure
//! function of `(seed, period)` (bit-reproducible) yet never phase-locks
//! to loop bodies the way a fixed stride would.
//!
//! At end of run, [`SampledProfile::build`] scales hit tallies to the
//! whole-run totals recorded in [`crate::RunStats`] and the simulator
//! accumulators, and attaches 95% Wilson-score confidence intervals to
//! the step estimates. Energy and time are attributed by *hit share*:
//! a method estimated to own `h/n` of the run's steps is estimated to own
//! `h/n` of its energy and time. That assumes energy-per-step is uniform
//! at the sampling quantum (the exact profiler remains the ground truth
//! when per-method power skews), and it is what makes the report a pure
//! function of the hit counts — which in turn is what lets the VM keep
//! its tail self-send elision under sampling: elision moves *frame
//! boundaries*, never step counts at boundaries, so hit tallies (and
//! hence every byte of the report) are engine-invariant even though the
//! engines' accumulator readings at capture points are not.

use std::fmt::Write as _;

use super::{splitmix64, StackShadow, ROOT_ID};
use crate::lower::LoweredProgram;
use crate::telemetry::{json_escape, json_f64};

/// No node: an end of a sibling list, or a shadow frame no capture has
/// resolved yet.
const NO_NODE: u32 = u32::MAX;

/// One node of the sampled call tree: a distinct stack path that was
/// live at one or more captures (plus its ancestors).
#[derive(Clone, Debug)]
struct SNode {
    parent: u32,
    class: u32,
    method: u32,
    /// Sample hits attributed to this exact stack path.
    hits: u64,
    /// First child, or [`NO_NODE`]; the children chain through `next`.
    first_child: u32,
    /// Next sibling, or [`NO_NODE`].
    next: u32,
}

/// One shadow-stack frame.
#[derive(Clone, Debug)]
struct SFrame {
    class: u32,
    method: u32,
    /// Run length of direct self-recursion.
    repeat: u32,
    /// This frame's sample-tree node, cached by the first capture that
    /// resolves it ([`NO_NODE`] until then): frames below a live frame
    /// never change, so neither does its path.
    node: u32,
}

/// The in-run sampler: the flat frame array plus the (lazily grown)
/// sample tree. The per-frame cost is a bounds-checked compare on entry
/// and exit; all tree work happens on the ~`steps/period` captures.
///
/// Direct self-recursion is run-length collapsed in the shadow stack: a
/// chain of `Job.step → Job.step → …` occupies one frame with a repeat
/// count. Captured paths therefore name each method once per contiguous
/// self-recursive run, which keeps captures and the report build O(path
/// length) instead of O(recursion depth) — the depth-expanded chains are
/// the exact profiler's job, and statistically every collapsed hit
/// attributes to the same method anyway. The collapse is also what makes
/// VM tail self-send elision invisible here: an elided chain and its
/// hooked tree-walker counterpart both present as one `(class, method)`
/// frame, so captured paths are engine- and worker-count-invariant.
#[derive(Clone, Debug)]
pub(crate) struct Sampler {
    period: u64,
    seed: u64,
    /// Live shadow stack (root excluded).
    frames: Vec<SFrame>,
    /// Step threshold that triggers the next capture.
    next_at: u64,
    /// Sample index: drives the jitter stream.
    tick: u64,
    /// Total hits recorded.
    samples: u64,
    nodes: Vec<SNode>,
}

impl Sampler {
    pub(crate) fn new(period: u64, seed: u64) -> Sampler {
        let mut s = Sampler {
            period: period.max(1),
            seed,
            frames: Vec::new(),
            next_at: 0,
            tick: 0,
            samples: 0,
            nodes: vec![SNode {
                parent: ROOT_ID,
                class: ROOT_ID,
                method: ROOT_ID,
                hits: 0,
                first_child: NO_NODE,
                next: NO_NODE,
            }],
        };
        s.next_at = s.gap();
        s
    }

    /// The next jittered inter-sample gap, in steps: mean ≈ `period`,
    /// range `[period/2, 3·period/2)`, never zero.
    fn gap(&mut self) -> u64 {
        let jitter = splitmix64(self.seed ^ splitmix64(self.tick));
        self.tick += 1;
        (self.period / 2 + jitter % self.period).max(1)
    }

    /// The boundary check: capture iff the step counter crossed the next
    /// threshold since the previous boundary.
    #[inline]
    fn maybe_capture(&mut self, steps: u64) {
        if steps >= self.next_at {
            self.capture(steps);
        }
    }

    /// Records the live stack, with one hit per threshold the interval
    /// crossed (the whole interval ran in the current innermost frame, so
    /// multi-hits attribute exactly).
    #[cold]
    fn capture(&mut self, steps: u64) {
        let mut hits = 0u64;
        while steps >= self.next_at {
            hits += 1;
            let g = self.gap();
            self.next_at += g;
        }
        // Only the frames pushed since the previous capture are
        // unresolved, and they sit on top of the resolved ones.
        let mut node = 0u32;
        for f in &mut self.frames {
            if f.node == NO_NODE {
                f.node = child(&mut self.nodes, node, f.class, f.method);
            }
            node = f.node;
        }
        self.nodes[node as usize].hits += hits;
        self.samples += hits;
    }
}

/// Finds or creates `parent`'s child node for one frame of a captured
/// path. Parents are always created before their children, so node
/// indices are topologically ordered (the build sweep relies on it).
fn child(nodes: &mut Vec<SNode>, parent: u32, class: u32, method: u32) -> u32 {
    let mut c = nodes[parent as usize].first_child;
    while c != NO_NODE {
        let n = &nodes[c as usize];
        if n.class == class && n.method == method {
            return c;
        }
        c = n.next;
    }
    let id = nodes.len() as u32;
    let next = nodes[parent as usize].first_child;
    nodes.push(SNode {
        parent,
        class,
        method,
        hits: 0,
        first_child: NO_NODE,
        next,
    });
    nodes[parent as usize].first_child = id;
    id
}

impl StackShadow for Sampler {
    #[inline]
    fn on_enter(&mut self, class: u32, method: u32, steps: u64) {
        // The interval since the last boundary ran in the caller — check
        // before pushing the callee frame.
        self.maybe_capture(steps);
        match self.frames.last_mut() {
            // Direct self-recursion: bump the run length instead of
            // deepening the shadow stack.
            Some(f) if f.class == class && f.method == method => f.repeat += 1,
            _ => self.frames.push(SFrame {
                class,
                method,
                repeat: 1,
                node: NO_NODE,
            }),
        }
    }

    #[inline]
    fn on_exit(&mut self, steps: u64) {
        // The interval ran in the callee — check before popping it.
        self.maybe_capture(steps);
        if let Some(f) = self.frames.last_mut() {
            f.repeat -= 1;
            if f.repeat == 0 {
                self.frames.pop();
            }
        }
    }

    fn on_finish(&mut self, steps: u64) {
        // The tail interval belongs to whatever frame is still open —
        // normally the root.
        self.maybe_capture(steps);
    }
}

/// 95% two-sided Wilson score interval for a binomial proportion
/// `hits/n`, as `(lo, hi)` in `[0, 1]`. Deterministic (plain f64
/// arithmetic, no resampling), well-behaved at `hits = 0` and
/// `hits = n`, and wide at small `n` — exactly the honesty a
/// handful-of-samples run needs.
fn wilson_ci(hits: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    const Z: f64 = 1.959963984540054;
    let nf = n as f64;
    let p = hits as f64 / nf;
    let z2 = Z * Z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (Z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    // Clamp to [0, 1] and force the interval to bracket the point
    // estimate (f64 rounding can otherwise leave `hi` a ulp under `p`
    // at the boundaries).
    (
        (center - half).max(0.0).min(p),
        (center + half).min(1.0).max(p),
    )
}

/// One row of the sampled attribution table, names resolved: statistical
/// estimates scaled to run totals, with 95% CIs on the step estimates.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledMethod {
    /// `Class.method`, or `(root)` for the boot frame.
    pub name: String,
    /// Captures whose innermost frame was this method.
    pub samples_excl: u64,
    /// Captures with this method anywhere on the stack (each capture
    /// counted once under recursion).
    pub samples_incl: u64,
    /// Estimated exclusive steps, `samples_excl/samples · total_steps`.
    pub est_steps_excl: f64,
    /// 95% Wilson CI around [`Self::est_steps_excl`], in steps.
    pub ci_steps_excl: (f64, f64),
    /// Estimated inclusive steps.
    pub est_steps_incl: f64,
    /// 95% Wilson CI around [`Self::est_steps_incl`], in steps.
    pub ci_steps_incl: (f64, f64),
    /// Estimated exclusive energy, in joules: the exclusive hit share of
    /// the whole-run total (uniform energy-per-step assumption).
    pub est_energy_j_excl: f64,
    /// Estimated inclusive energy, in joules.
    pub est_energy_j_incl: f64,
    /// Estimated exclusive virtual time, in seconds.
    pub est_time_s_excl: f64,
    /// Estimated inclusive virtual time, in seconds.
    pub est_time_s_incl: f64,
}

/// The sampler's end-of-run report, exposed as
/// [`crate::RunResult::profile`] when [`crate::RuntimeConfig::profile`]
/// is `Sampled`.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledProfile {
    /// Mean sample period, in steps.
    pub period: u64,
    /// Jitter seed.
    pub seed: u64,
    /// Total captures taken.
    pub samples: u64,
    /// Whole-run step count the estimates are scaled to.
    pub total_steps: u64,
    /// Whole-run noise-free simulated energy, in joules.
    pub total_energy_j: f64,
    /// Whole-run virtual time, in seconds.
    pub total_time_s: f64,
    /// Per-method estimates, sorted by descending inclusive energy
    /// estimate, then name (deterministic for fixed seed/period).
    pub methods: Vec<SampledMethod>,
    /// Folded stacks weighted by *sample counts* (not steps), in
    /// deterministic tree-creation order. Paths name each method once per
    /// contiguous self-recursive run (the sampler collapses direct
    /// self-recursion), unlike the exact profiler's depth-expanded
    /// chains.
    pub folded: Vec<String>,
}

impl SampledProfile {
    /// Scales the sample tallies to run totals and resolves names. With
    /// zero captures (run shorter than the first gap) the report is
    /// empty but well-formed.
    pub(crate) fn build(
        s: &Sampler,
        prog: &LoweredProgram,
        total_steps: u64,
        total_energy_j: f64,
        total_time_s: f64,
    ) -> SampledProfile {
        let n = s.samples;
        let mut report = SampledProfile {
            period: s.period,
            seed: s.seed,
            samples: n,
            total_steps,
            total_energy_j,
            total_time_s,
            methods: Vec::new(),
            folded: Vec::new(),
        };
        if n == 0 {
            return report;
        }
        let nodes = &s.nodes;
        let len = nodes.len();

        // Per-node inclusive hit tallies: parents precede children in
        // index order, so one reverse sweep folds the tree bottom-up.
        let mut incl_hits: Vec<u64> = nodes.iter().map(|nd| nd.hits).collect();
        for i in (1..len).rev() {
            let p = nodes[i].parent as usize;
            incl_hits[p] += incl_hits[i];
        }

        // One row per distinct (class, method), in first-seen node order,
        // holding its resolved name and hit sums; `row[i]` is node `i`'s
        // row. Each name is built once and later moved into its method
        // entry. This build runs once per sampled run, so it avoids
        // hashing and formatting: a run's captures name a handful of
        // methods, and a scan over them is cheaper than a map.
        struct Row {
            class: u32,
            method: u32,
            name: String,
            excl_hits: u64,
            incl_hits: u64,
        }
        let mut rows: Vec<Row> = Vec::new();
        let mut row: Vec<usize> = Vec::with_capacity(len);
        for nd in nodes {
            let r = match rows
                .iter()
                .position(|r| r.class == nd.class && r.method == nd.method)
            {
                Some(r) => r,
                None => {
                    let name = if nd.class == ROOT_ID {
                        "(root)".to_string()
                    } else {
                        let (c, m) = (prog.class_name(nd.class), prog.method_name(nd.method));
                        let mut name = String::with_capacity(c.len() + 1 + m.len());
                        name.push_str(c);
                        name.push('.');
                        name.push_str(m);
                        name
                    };
                    rows.push(Row {
                        class: nd.class,
                        method: nd.method,
                        name,
                        excl_hits: 0,
                        incl_hits: 0,
                    });
                    rows.len() - 1
                }
            };
            row.push(r);
        }

        // Aggregate per (class, method): exclusive sums every node;
        // inclusive sums only nodes with no ancestor of the same key, so
        // recursion is not double-counted (same walk as the exact build).
        for (i, nd) in nodes.iter().enumerate() {
            let r = row[i];
            rows[r].excl_hits += nd.hits;
            let mut anc = nd.parent;
            let recursive = loop {
                if anc == ROOT_ID {
                    break false;
                }
                if row[anc as usize] == r {
                    break true;
                }
                anc = nodes[anc as usize].parent;
            };
            if !recursive {
                rows[r].incl_hits += incl_hits[i];
            }
        }

        // Folded stacks weighted by sample counts, paths built top-down.
        // Every node's path sits in one buffer as a span, so a child
        // extends its parent's span without a string of its own.
        let mut paths = String::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(len);
        for (i, nd) in nodes.iter().enumerate() {
            let start = paths.len();
            if i > 0 {
                let (ps, pe) = spans[nd.parent as usize];
                paths.extend_from_within(ps..pe);
                paths.push(';');
            }
            paths.push_str(&rows[row[i]].name);
            spans.push((start, paths.len()));
            if nd.hits > 0 {
                let path = &paths[start..];
                let mut line = String::with_capacity(path.len() + 22);
                line.push_str(path);
                let _ = write!(line, " {}", nd.hits);
                report.folded.push(line);
            }
        }

        // Everything below is a pure function of the hit counts: steps,
        // energy, and time all scale the same hit shares to their run
        // totals, so the report is independent of where frame boundaries
        // fell between captures (the elision-invariance property the
        // module doc relies on).
        let steps_f = total_steps as f64;
        let nf = n as f64;
        report.methods = rows
            .into_iter()
            .map(|a| {
                let (xlo, xhi) = wilson_ci(a.excl_hits, n);
                let (ilo, ihi) = wilson_ci(a.incl_hits, n);
                let (x_share, i_share) = (a.excl_hits as f64 / nf, a.incl_hits as f64 / nf);
                SampledMethod {
                    name: a.name,
                    samples_excl: a.excl_hits,
                    samples_incl: a.incl_hits,
                    est_steps_excl: x_share * steps_f,
                    ci_steps_excl: (xlo * steps_f, xhi * steps_f),
                    est_steps_incl: i_share * steps_f,
                    ci_steps_incl: (ilo * steps_f, ihi * steps_f),
                    est_energy_j_excl: x_share * total_energy_j,
                    est_energy_j_incl: i_share * total_energy_j,
                    est_time_s_excl: x_share * total_time_s,
                    est_time_s_incl: i_share * total_time_s,
                }
            })
            .collect();
        report.methods.sort_by(|a, b| {
            b.est_energy_j_incl
                .total_cmp(&a.est_energy_j_incl)
                .then_with(|| a.name.cmp(&b.name))
        });

        report
    }

    /// The folded stacks as one newline-terminated string (flamegraph
    /// collapse format; weights are sample counts).
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for line in &self.folded {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Renders the estimate table as fixed-width text (the CLI's
    /// `--profile sampled` view).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sampled profile: {} samples, period {} steps, seed {}",
            self.samples, self.period, self.seed
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>13} {:>25} {:>11}",
            "method", "smp(incl)", "smp(excl)", "~steps(excl)", "95% CI", "~J(excl)"
        );
        for m in &self.methods {
            let ci = format!("[{:.0}, {:.0}]", m.ci_steps_excl.0, m.ci_steps_excl.1);
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>8} {:>13.0} {:>25} {:>11.4}",
                m.name, m.samples_incl, m.samples_excl, m.est_steps_excl, ci, m.est_energy_j_excl,
            );
        }
        out
    }

    /// The profile as a JSON object (the `profile` key of
    /// [`crate::RunResult::to_json`]): self-describing via
    /// `"mode": "sampled"`, with per-method `est_*` estimates and
    /// `ci_lo`/`ci_hi` bounds (exclusive steps; inclusive under the
    /// `_incl` suffix).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"mode\": \"sampled\", \"period\": {}, \"seed\": {}, \"samples\": {}, \"total_steps\": {}, \"methods\": [",
            self.period, self.seed, self.samples, self.total_steps,
        );
        for (i, m) in self.methods.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"samples\": {}, \"samples_incl\": {}, \"est_steps_excl\": {}, \"ci_lo\": {}, \"ci_hi\": {}, \"est_steps_incl\": {}, \"ci_lo_incl\": {}, \"ci_hi_incl\": {}, \"est_energy_j_excl\": {}, \"est_energy_j_incl\": {}, \"est_time_s_excl\": {}, \"est_time_s_incl\": {}}}",
                json_escape(&m.name),
                m.samples_excl,
                m.samples_incl,
                json_f64(m.est_steps_excl),
                json_f64(m.ci_steps_excl.0),
                json_f64(m.ci_steps_excl.1),
                json_f64(m.est_steps_incl),
                json_f64(m.ci_steps_incl.0),
                json_f64(m.ci_steps_incl.1),
                json_f64(m.est_energy_j_excl),
                json_f64(m.est_energy_j_incl),
                json_f64(m.est_time_s_excl),
                json_f64(m.est_time_s_incl),
            );
        }
        out.push_str("], \"folded\": [");
        for (i, line) in self.folded.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(line));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_schedule_is_a_pure_function_of_seed_and_period() {
        let mut a = Sampler::new(64, 7);
        let mut b = Sampler::new(64, 7);
        let gaps_a: Vec<u64> = (0..32).map(|_| a.gap()).collect();
        let gaps_b: Vec<u64> = (0..32).map(|_| b.gap()).collect();
        assert_eq!(gaps_a, gaps_b);
        // Every gap stays inside the documented window.
        for g in gaps_a {
            assert!((32..96).contains(&g), "gap {g} outside [period/2, 3p/2)");
        }
        // A different seed produces a different schedule.
        let mut c = Sampler::new(64, 8);
        let gaps_c: Vec<u64> = (0..32).map(|_| c.gap()).collect();
        assert_ne!(gaps_b, gaps_c);
    }

    #[test]
    fn period_one_samples_every_step_and_recovers_exact_steps() {
        // period 1 forces a unit gap, so hits == steps per frame and the
        // estimator degenerates to exact frame-granular attribution.
        let compiled = ent_core::compile("class Main { int main() { return 0; } }").unwrap();
        let prog = crate::lower::lower_program(&compiled);
        let main = prog.main.expect("the test program declares Main.main").1;
        let mut s = Sampler::new(1, 0);
        s.on_enter(0, main, 2); // 2 root steps, charged to root
        s.on_exit(12); // 10 steps inside main
        s.on_finish(15); // 3 more root steps
        let p = SampledProfile::build(&s, &prog, 15, 7.5, 3.75);
        assert_eq!(p.samples, 15);
        let root = p.methods.iter().find(|m| m.name == "(root)").unwrap();
        let m = p.methods.iter().find(|m| m.name != "(root)").unwrap();
        assert_eq!(root.samples_excl, 5);
        assert_eq!(m.samples_excl, 10);
        assert_eq!(m.est_steps_excl, 10.0);
        assert_eq!(root.samples_incl, 15);
        assert_eq!(root.est_steps_incl, 15.0);
        // The CI brackets the estimate and the exact value.
        assert!(m.ci_steps_excl.0 <= 10.0 && 10.0 <= m.ci_steps_excl.1);
        // Energy is the hit share of the run total: the root owns all 15
        // hits inclusively, `main` 10 of 15 exclusively.
        assert!((root.est_energy_j_incl - 7.5).abs() < 1e-12);
        assert!((m.est_energy_j_excl - 5.0).abs() < 1e-12);
        // Folded stacks carry sample-count weights.
        assert_eq!(
            p.folded,
            vec!["(root) 5".to_string(), "(root);Main.main 10".to_string()]
        );
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        for &(h, n) in &[(0u64, 10u64), (1, 10), (5, 10), (10, 10), (3, 1000)] {
            let (lo, hi) = wilson_ci(h, n);
            let p = h as f64 / n as f64;
            assert!(lo <= p && p <= hi, "({h},{n}): [{lo},{hi}] vs {p}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
        // No samples: total ignorance.
        assert_eq!(wilson_ci(0, 0), (0.0, 1.0));
    }

    #[test]
    fn zero_samples_builds_an_empty_but_wellformed_report() {
        let compiled = ent_core::compile("class Main { int main() { return 0; } }").unwrap();
        let prog = crate::lower::lower_program(&compiled);
        let s = Sampler::new(1_000_000, 0);
        let p = SampledProfile::build(&s, &prog, 3, 0.1, 0.2);
        assert_eq!(p.samples, 0);
        assert!(p.methods.is_empty());
        assert!(p.folded.is_empty());
        assert!(
            crate::telemetry::json_is_valid(&p.to_json()),
            "{}",
            p.to_json()
        );
    }
}
