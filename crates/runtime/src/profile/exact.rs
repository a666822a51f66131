//! The exact per-method energy profiler: flamegraph-style attribution of
//! simulated energy, time, steps, snapshots, and dynamic-check outcomes
//! on the virtual clock.
//!
//! When [`crate::RuntimeConfig::profile`] is
//! [`ProfileMode::Exact`](crate::ProfileMode::Exact), the interpreter
//! maintains a shadow call-stack of `(class id, method id)` frames as a
//! call *tree*: one node per distinct stack path, found or created on
//! method entry. Every cost the interpreter observes — a simulator
//! advance (one delta per advance, taken at the single virtual-time
//! hook), a snapshot, a copy, a failed check — is charged to the
//! innermost frame's node. Steps are attributed by *marks*: the profiler
//! remembers the step counter at the last frame transition and flushes
//! the delta on enter/exit/end-of-run, so the interpreter's per-step path
//! carries no profiler work at all. At the end of the run the tree is
//! folded into:
//!
//! * a per-method **attribution table** ([`Profile::methods`]) with
//!   inclusive and exclusive totals (recursion-safe: a method's inclusive
//!   total counts each dynamic instance once), and
//! * **folded stacks** ([`Profile::folded`]) — `a;b;c <steps>` lines in
//!   the standard flamegraph collapse format, weighted by exclusive
//!   steps.
//!
//! Everything is interned ids until [`Profile::build`] resolves names
//! through the lowered program once, after the run.

use std::collections::HashMap;
use std::fmt::Write as _;

use super::{key, Costs, StackShadow, ROOT_ID};
use crate::json::{self, Members, ToJson};
use crate::json_fields;
use crate::lower::LoweredProgram;

/// One node of the call tree: a distinct stack path.
#[derive(Clone, Debug)]
struct PNode {
    parent: u32,
    class: u32,
    method: u32,
    calls: u64,
    own: Costs,
    /// Monomorphic inline cache: the `(class, method)` key and node id of
    /// the child most recently entered from this node. Call sites are
    /// overwhelmingly monomorphic, so this skips the hash probe on the
    /// interpreter's invoke path.
    cache_key: u64,
    cache_node: u32,
}

/// Empty inline-cache sentinel: `key(ROOT_ID, ROOT_ID)`, which no real
/// `(class, method)` pair produces (class ids are dense from 0).
const EMPTY_CACHE: u64 = u64::MAX;

/// The in-run profiler: the shadow stack plus the call tree it grows.
/// All operations are O(1) per event (one hash probe per method entry).
#[derive(Clone, Debug)]
pub(crate) struct Profiler {
    nodes: Vec<PNode>,
    /// `(parent node, (class, method) key) → node`.
    children: HashMap<(u32, u64), u32>,
    /// Shadow stack of node ids; `cur` mirrors the top.
    stack: Vec<u32>,
    cur: u32,
    /// Step counter at the last flush; steps accrue to `cur` lazily.
    steps_mark: u64,
}

impl Profiler {
    pub(crate) fn new() -> Self {
        Profiler {
            nodes: vec![PNode {
                parent: ROOT_ID,
                class: ROOT_ID,
                method: ROOT_ID,
                calls: 1,
                own: Costs::default(),
                cache_key: EMPTY_CACHE,
                cache_node: 0,
            }],
            children: HashMap::new(),
            stack: vec![0],
            cur: 0,
            steps_mark: 0,
        }
    }

    /// Enters a method frame: flushes pending steps to the caller, then
    /// finds or creates the child node for this stack path. `now_steps`
    /// is the interpreter's running step counter.
    #[inline]
    pub(crate) fn enter(&mut self, class: u32, method: u32, now_steps: u64) {
        self.flush(now_steps);
        let parent = self.cur;
        let k = key(class, method);
        let node = if self.nodes[parent as usize].cache_key == k {
            self.nodes[parent as usize].cache_node
        } else {
            self.enter_slow(parent, class, method, k)
        };
        self.nodes[node as usize].calls += 1;
        self.stack.push(node);
        self.cur = node;
    }

    /// Inline-cache miss: the hash probe (and node creation on first
    /// entry), then cache refill.
    #[cold]
    fn enter_slow(&mut self, parent: u32, class: u32, method: u32, k: u64) -> u32 {
        let node = match self.children.entry((parent, k)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.nodes.len() as u32;
                self.nodes.push(PNode {
                    parent,
                    class,
                    method,
                    calls: 0,
                    own: Costs::default(),
                    cache_key: EMPTY_CACHE,
                    cache_node: 0,
                });
                *e.insert(id)
            }
        };
        let p = &mut self.nodes[parent as usize];
        p.cache_key = k;
        p.cache_node = node;
        node
    }

    /// Leaves the innermost method frame, flushing its pending steps.
    pub(crate) fn exit(&mut self, now_steps: u64) {
        self.flush(now_steps);
        self.stack.pop();
        self.cur = *self.stack.last().expect("profiler root frame never pops");
    }

    /// The innermost frame's cost accumulator.
    #[inline]
    pub(crate) fn own(&mut self) -> &mut Costs {
        &mut self.nodes[self.cur as usize].own
    }

    /// Attributes the steps executed since the previous flush to the
    /// innermost frame. Called on frame transitions and once at the end
    /// of the run; the per-step interpreter path never touches the
    /// profiler.
    #[inline]
    pub(crate) fn flush(&mut self, now_steps: u64) {
        let delta = now_steps - self.steps_mark;
        if delta > 0 {
            self.nodes[self.cur as usize].own.steps += delta;
            self.steps_mark = now_steps;
        }
    }

    /// Charges a simulator advance delta to the innermost frame (the
    /// virtual-time hook).
    #[inline]
    pub(crate) fn charge_sim(&mut self, energy_j: f64, time_s: f64) {
        let own = &mut self.nodes[self.cur as usize].own;
        own.energy_j += energy_j;
        own.time_s += time_s;
    }
}

impl StackShadow for Profiler {
    #[inline]
    fn on_enter(&mut self, class: u32, method: u32, steps: u64) {
        self.enter(class, method, steps);
    }

    #[inline]
    fn on_exit(&mut self, steps: u64) {
        self.exit(steps);
    }

    /// The tail of the run (after the last frame transition) belongs to
    /// whatever frame is still open — normally the root.
    fn on_finish(&mut self, steps: u64) {
        self.flush(steps);
    }
}

/// One row of the per-method attribution table, names resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodProfile {
    /// `Class.method`, or `(root)` for the boot frame.
    pub name: String,
    /// Dynamic invocations.
    pub calls: u64,
    /// Costs charged directly to this method's own frames.
    pub exclusive: Costs,
    /// Exclusive plus everything its callees were charged, counting each
    /// dynamic instance once (recursion-safe).
    pub inclusive: Costs,
}

/// The exact profiler's end-of-run report, exposed as
/// [`crate::RunResult::profile`] when [`crate::RuntimeConfig::profile`]
/// is `Exact`.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Per-method inclusive/exclusive attribution, sorted by descending
    /// inclusive energy, then name (deterministic for fixed programs and
    /// seeds).
    pub methods: Vec<MethodProfile>,
    /// Folded stacks (`Main.main;Agent.work;Site.crawl 1234`), weighted
    /// by exclusive steps, in deterministic (tree-creation) order. Feed
    /// directly to a flamegraph renderer.
    pub folded: Vec<String>,
}

impl Profile {
    /// Folds the call tree into the report, resolving interned ids
    /// through the lowered program.
    pub(crate) fn build(profiler: &Profiler, prog: &LoweredProgram) -> Profile {
        let nodes = &profiler.nodes;
        let n = nodes.len();

        // Per-node inclusive costs: children always have larger indices
        // than their parent (created on first entry under it), so one
        // reverse sweep folds the tree bottom-up.
        let mut inclusive: Vec<Costs> = nodes.iter().map(|nd| nd.own).collect();
        for i in (1..n).rev() {
            let inc = inclusive[i];
            inclusive[nodes[i].parent as usize].add(&inc);
        }

        // Resolve each distinct (class, method) once: deep recursion can
        // grow the tree far past the handful of methods it names.
        let mut names: HashMap<u64, String> = HashMap::new();
        for nd in nodes.iter() {
            names.entry(key(nd.class, nd.method)).or_insert_with(|| {
                if nd.class == ROOT_ID {
                    "(root)".to_string()
                } else {
                    format!(
                        "{}.{}",
                        prog.class_name(nd.class),
                        prog.method_name(nd.method)
                    )
                }
            });
        }

        // Aggregate per (class, method): exclusive sums every node;
        // inclusive sums only nodes with no ancestor of the same key, so
        // recursion is not double-counted.
        let mut order: Vec<u64> = Vec::new();
        let mut agg: HashMap<u64, MethodProfile> = HashMap::new();
        for (i, nd) in nodes.iter().enumerate() {
            let k = key(nd.class, nd.method);
            let entry = agg.entry(k).or_insert_with(|| {
                order.push(k);
                MethodProfile {
                    name: names[&k].clone(),
                    calls: 0,
                    exclusive: Costs::default(),
                    inclusive: Costs::default(),
                }
            });
            entry.calls += nd.calls;
            entry.exclusive.add(&nd.own);
            let mut anc = nd.parent;
            let recursive = loop {
                if anc == ROOT_ID {
                    break false;
                }
                let a = &nodes[anc as usize];
                if key(a.class, a.method) == k {
                    break true;
                }
                anc = a.parent;
            };
            if !recursive {
                entry.inclusive.add(&inclusive[i]);
            }
        }
        let mut methods: Vec<MethodProfile> = order
            .into_iter()
            .map(|k| {
                agg.remove(&k)
                    .expect("every key in `order` was inserted into `agg` in the same sweep")
            })
            .collect();
        methods.sort_by(|a, b| {
            b.inclusive
                .energy_j
                .total_cmp(&a.inclusive.energy_j)
                .then_with(|| a.name.cmp(&b.name))
        });

        // Folded stacks: path strings built top-down (parent paths are
        // always computed before their children).
        let mut paths: Vec<String> = Vec::with_capacity(n);
        let mut folded = Vec::new();
        for (i, nd) in nodes.iter().enumerate() {
            let name = &names[&key(nd.class, nd.method)];
            let path = if i == 0 {
                name.clone()
            } else {
                let parent = &paths[nd.parent as usize];
                let mut s = String::with_capacity(parent.len() + 1 + name.len());
                s.push_str(parent);
                s.push(';');
                s.push_str(name);
                s
            };
            if nd.own.steps > 0 {
                let mut line = String::with_capacity(path.len() + 22);
                line.push_str(&path);
                let _ = write!(line, " {}", nd.own.steps);
                folded.push(line);
            }
            paths.push(path);
        }

        Profile { methods, folded }
    }

    /// The root frame's inclusive costs: the whole run.
    pub fn total(&self) -> Costs {
        self.methods
            .iter()
            .find(|m| m.name == "(root)")
            .map(|m| m.inclusive)
            .unwrap_or_default()
    }

    /// The folded stacks as one newline-terminated string (the exact
    /// input format of flamegraph renderers).
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for line in &self.folded {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Renders the attribution table as fixed-width text (the CLI's
    /// `--profile exact` view).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12} {:>12} {:>11} {:>11} {:>6} {:>6} {:>7}",
            "method",
            "calls",
            "steps(incl)",
            "steps(excl)",
            "J(incl)",
            "J(excl)",
            "snaps",
            "copies",
            "checks!"
        );
        for m in &self.methods {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {:>11.4} {:>11.4} {:>6} {:>6} {:>7}",
                m.name,
                m.calls,
                m.inclusive.steps,
                m.exclusive.steps,
                m.inclusive.energy_j,
                m.exclusive.energy_j,
                m.exclusive.snapshots,
                m.exclusive.copies,
                m.exclusive.snapshot_failures + m.exclusive.dfall_failures,
            );
        }
        out
    }

    /// The profile as a JSON object (the `profile` key of
    /// [`crate::RunResult::to_json`]). This is the PR 2 schema,
    /// unchanged: consumers of exact-mode telemetry see identical bytes
    /// before and after the sampled mode existed.
    pub fn to_json(&self) -> String {
        json::to_string(self.json())
    }

    /// The report as a JSON object, for embedding in run telemetry.
    pub(crate) fn json(&self) -> impl ToJson + '_ {
        let costs = |o: &mut Members, c: &Costs| {
            json_fields!(o, c; steps, energy_j, time_s, snapshots, copies, snapshot_failures,
                dfall_failures, dynamic_allocs, sensor_faults);
        };
        json::object(move |o| {
            let methods = self.methods.iter().map(|m| {
                json::object(move |o| {
                    o.field("name", &m.name).field("calls", m.calls);
                    o.object("inclusive", |o| costs(o, &m.inclusive));
                    o.object("exclusive", |o| costs(o, &m.exclusive));
                })
            });
            o.field("methods", json::list(methods));
            o.field("folded", json::list(&self.folded));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reuses_nodes_per_stack_path() {
        let mut p = Profiler::new();
        p.enter(0, 0, 0); // a
        p.enter(1, 1, 0); // a;b
        p.exit(0);
        p.enter(1, 1, 0); // a;b again: same node
        p.exit(0);
        p.exit(0);
        assert_eq!(p.nodes.len(), 3);
        assert_eq!(p.nodes[2].calls, 2);
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        // Resolve against a real program: class 0 is `Main`, and `main` is
        // the only interned method.
        let compiled = ent_core::compile("class Main { int main() { return 0; } }").unwrap();
        let prog = crate::lower::lower_program(&compiled);
        let main = prog.main.expect("the test program declares Main.main").1;
        let mut p = Profiler::new();
        p.enter(0, main, 0); // main
        p.enter(0, main, 1); // main;main (recursive): 1 step flushed to outer
        p.exit(3); // 2 more steps flushed to the inner frame
        p.exit(3);
        let profile = Profile::build(&p, &prog);
        // `f` appears twice on the stack but inclusive counts the outer
        // instance only: 3 steps inclusive, 3 exclusive (1 + 2).
        let f = profile
            .methods
            .iter()
            .find(|m| m.calls == 2)
            .expect("the recursive frame");
        assert_eq!(f.inclusive.steps, 3);
        assert_eq!(f.exclusive.steps, 3);
        let root = profile.total();
        assert_eq!(root.steps, 3);
    }
}
