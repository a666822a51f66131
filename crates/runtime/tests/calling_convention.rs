//! The bytecode calling convention: a send pushes a frame record on one
//! register stack instead of recursing natively, so an
//! `EnergyException` unwinds frame records, and attributors and
//! snapshots run nested inside deep recursions. Each scenario must match
//! the tree walker, whose every send is a native call, on the whole
//! observable surface — value, output, stats, energy bits, events — and
//! on the exact and sampled telemetry bytes, under both enforcement
//! strategies.

use std::fmt::Write as _;

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    lower_program, render_event, run_lowered, Enforcement, Engine, LoweredProgram, ProfileMode,
    RunResult, RuntimeConfig,
};

/// Every semantic observable, f64s by bit pattern, then the telemetry
/// document (which carries the profile).
fn observe(prog: &LoweredProgram, r: &RunResult) -> String {
    let mut out = String::new();
    let value = match &r.value {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => format!("err:{e}"),
    };
    let _ = writeln!(out, "value={value}");
    let _ = writeln!(out, "pretty={:?}", r.value_pretty);
    let _ = writeln!(out, "stats={:?}", r.stats);
    let _ = writeln!(
        out,
        "energy={:016x} time={:016x}",
        r.measurement.energy_j.to_bits(),
        r.measurement.time_s.to_bits(),
    );
    for line in &r.output {
        let _ = writeln!(out, "out|{line}");
    }
    for ev in r.events.iter() {
        let _ = writeln!(out, "ev|{}", render_event(prog, ev));
    }
    out.push_str(&r.to_json());
    out
}

/// The profilers: off, exact, and sampled often enough to see every
/// frame.
const PROFILES: [ProfileMode; 3] = [
    ProfileMode::Off,
    ProfileMode::Exact,
    ProfileMode::Sampled { period: 7, seed: 3 },
];

/// Runs `src` on both engines under each strategy and each of
/// `profiles`, asserts identical observables, and returns the bytecode
/// runs' printed output under guarded with the profiler off.
fn matches_the_tree_walker(src: &str, profiles: &[ProfileMode]) -> Vec<String> {
    let compiled =
        compile(src).unwrap_or_else(|e| panic!("program fails to compile:\n{}", e.render(src)));
    let prog = lower_program(&compiled);
    let mut output = Vec::new();
    for enforcement in [Enforcement::Guarded, Enforcement::Transient] {
        for &profile in profiles {
            let run = |engine| {
                let config = RuntimeConfig {
                    engine,
                    enforcement,
                    profile,
                    record_events: true,
                    ..RuntimeConfig::default()
                };
                run_lowered(&prog, Platform::system_a(), config)
            };
            let (tree, bytecode) = (run(Engine::Tree), run(Engine::Bytecode));
            assert!(tree.value.is_ok(), "{:?}", tree.value);
            assert_eq!(
                observe(&prog, &tree),
                observe(&prog, &bytecode),
                "{enforcement:?}, {profile:?}: the engines diverge"
            );
            if enforcement == Enforcement::Guarded && profile == ProfileMode::Off {
                output = bytecode.output;
            }
        }
    }
    output
}

/// `run` makes `EnergyException`s three sends below its `try` (`run` →
/// `outer` → `middle` → `raise`); `MIDDLE_TRY` is where `middle` may
/// catch the first one itself. `early` returns from inside a `try` body,
/// leaving its handler live when its frame pops; the exception that
/// follows in its caller must not land there.
const UNWIND: &str = r#"
modes { low <= mid; mid <= high; }
class Job@mode<? <= J> {
  int size;
  attributor {
    if (this.size > 100) { return high; } else { return low; }
  }
  int work() { Sim.work("cpu", 1000.0); return this.size; }
}
class Agent@mode<? <= X> {
  attributor { return low; }
  int raise(int n) {
    let dj = new Job(500 + n);
    let Job j = snapshot dj [_, X];
    return j.work() + n;
  }
  int early(int n) {
    return try { return n + 1; } catch { 0 };
  }
  int middle(int n) {
    let k = n * 2;
    let first = MIDDLE_TRY;
    let e = this.early(first);
    return this.raise(e) + first;
  }
  int outer(int n) { let x = n + 1; return this.middle(x) + 1; }
  int run() {
    let r = try { this.outer(1) } catch { IO.print("caught in run"); 0 - 1 };
    IO.print("after " + Str.ofInt(r));
    let s = try { this.outer(2) + this.early(3) } catch { 0 - 2 };
    return r + s + this.early(5);
  }
}
class Main {
  int main() {
    let da = new Agent();
    let Agent a = snapshot da [_, _];
    return a.run();
  }
}
"#;

#[test]
fn an_energy_exception_three_sends_down_unwinds_to_the_try_like_the_tree_walker() {
    let caught_below = UNWIND.replace(
        "MIDDLE_TRY",
        "try { this.raise(k) } catch { IO.print(\"caught in middle \" + Str.ofInt(k)); 40 }",
    );
    assert_eq!(
        matches_the_tree_walker(&caught_below, &PROFILES),
        [
            "caught in middle 4",
            "caught in run",
            "after -1",
            "caught in middle 6"
        ]
    );
    let caught_above = UNWIND.replace("MIDDLE_TRY", "this.raise(k)");
    assert_eq!(
        matches_the_tree_walker(&caught_above, &PROFILES),
        ["caught in run", "after -1"]
    );
}

/// `deep` recurses 10,000 sends deep; every level runs `probe`'s method
/// attributor, and every 2500th level and the leaf take a snapshot, each
/// a body the runtime enters natively from inside a bytecode frame. The
/// leaf's snapshot fails, and its exception unwinds four frames to the
/// `try` at level 3, past the handlers each `probe` left live when it
/// returned from inside its `try`.
const DEEP: &str = r#"
modes { low <= mid; mid <= high; }
class Job@mode<? <= J> {
  int size;
  attributor {
    if (this.size > 100) { return high; } else { return low; }
  }
  int work() { Sim.work("cpu", 1000.0); return this.size; }
}
class Agent@mode<? <= X> {
  attributor { return mid; }
  int probe(int n) attributor {
    if (n % 1000 == 0) { return low; } else { return mid; }
  } {
    return try { return n % 3; } catch { 0 };
  }
  int deep(int n) {
    if (n <= 0) { return this.leaf(); }
    if (n == 3) {
      return try { this.deep(n - 1) } catch { IO.print("caught at 3"); 0 - 100 };
    }
    if (n % 2500 == 0) {
      let dj = new Job(n % 7);
      let Job j = snapshot dj [_, X];
      return j.work() + this.probe(n) + this.deep(n - 1);
    }
    return this.probe(n) + this.deep(n - 1);
  }
  int leaf() {
    let dj = new Job(500);
    let Job j = snapshot dj [_, X];
    return j.work();
  }
}
class Main {
  int main() {
    let da = new Agent();
    let Agent a = snapshot da [_, _];
    return a.deep(10000);
  }
}
"#;

#[test]
fn attributors_and_snapshots_inside_a_deep_bytecode_recursion_match_the_tree_walker() {
    // The exact profile of a 10,000-deep recursion folds 10,000 stacks
    // of up to 10,000 frames each: the sampled profile stands in for it.
    let profiles = [PROFILES[0], PROFILES[2]];
    assert_eq!(matches_the_tree_walker(DEEP, &profiles), ["caught at 3"]);
}

/// `probe`'s method attributor makes a failing snapshot: the exception
/// leaves the prologue of a send whose caller was already saved on a
/// frame record, so the record pops back without a frame having opened,
/// and the exception reaches `run`'s `try` two sends up.
const ATTRIBUTOR_RAISES: &str = r#"
modes { low <= mid; mid <= high; }
class Job@mode<? <= J> {
  int size;
  attributor { if (this.size > 100) { return high; } else { return low; } }
  int work() { return this.size; }
}
class Agent@mode<? <= X> {
  attributor { return low; }
  int probe(int n) attributor {
    let dj = new Job(500 + n);
    let Job j = snapshot dj [_, low];
    return low;
  } { return n; }
  int mid(int n) { let k = n + 1; return this.probe(k) + 1; }
  int run() {
    let a = try { this.mid(1) } catch { IO.print("caught attributor raise"); 0 - 1 };
    let b = try { this.mid(2) + this.mid(3) } catch { 0 - 2 };
    return a + b;
  }
}
class Main {
  int main() {
    let da = new Agent();
    let Agent a = snapshot da [_, _];
    return a.run();
  }
}
"#;

#[test]
fn an_energy_exception_from_a_send_prologue_unwinds_like_the_tree_walker() {
    assert_eq!(
        matches_the_tree_walker(ATTRIBUTOR_RAISES, &PROFILES),
        ["caught attributor raise"]
    );
}
