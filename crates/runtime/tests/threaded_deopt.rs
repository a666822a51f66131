//! Every deopt guard in the closure-threaded tier, exercised end to end:
//! each test forces one [`DeoptReason`] to fire under `--tier-up 0`,
//! asserts the matching counter is nonzero (the guard actually tripped,
//! the test is not vacuously passing on the VM), and asserts the full
//! observable surface — value, rendering, stats, output, energy/time
//! bits, and the rendered event stream — is byte-identical to a pure
//! bytecode run. Deopt is a performance event, never a semantic one.
//! Also pinned here: when the tier is entered at all (transient runs
//! never; default runs once a body is hot).

use std::fmt::Write as _;

use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, run_lowered, Enforcement, Engine, LoweredProgram, RunResult,
    RuntimeConfig, TierStats, TierUp,
};

/// Every semantic observable, f64s by bit pattern (tier counters are
/// deliberately excluded: they are *supposed* to differ between tier-up
/// settings).
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
        "energy={:016x} time={:016x} batt={:016x}",
        r.measurement.energy_j.to_bits(),
        r.measurement.time_s.to_bits(),
        r.measurement.battery_level.to_bits(),
    );
    for line in &r.output {
        let _ = writeln!(out, "out|{line}");
    }
    for ev in r.events.iter() {
        let _ = writeln!(out, "ev|{}", render_event(prog, ev));
    }
    out
}

/// Runs `src` on the bytecode VM, never tiering and always tiering, with
/// the same config, asserts byte-identical observables, and returns both
/// runs, untiered first.
fn run_both(src: &str, mutate: impl Fn(&mut RuntimeConfig)) -> (RunResult, RunResult) {
    let compiled =
        compile(src).unwrap_or_else(|e| panic!("program fails to compile:\n{}", e.render(src)));
    let lowered = lower_program(&compiled);
    let config = |tier_up| {
        let mut c = RuntimeConfig {
            engine: Engine::Bytecode,
            battery_level: 0.8,
            seed: 42,
            record_events: true,
            tier_up,
            ..RuntimeConfig::default()
        };
        mutate(&mut c);
        c
    };
    let vm = run_lowered(&lowered, Platform::system_a(), config(TierUp::Never));
    let th = run_lowered(&lowered, Platform::system_a(), config(TierUp::Always));
    assert_eq!(
        observe(&lowered, &vm),
        observe(&lowered, &th),
        "bytecode and threaded observables diverge"
    );
    (vm, th)
}

/// [`run_both`], asserting the always-tiering run entered compiled code;
/// returns that run for deopt-counter assertions.
fn run_pair(src: &str, mutate: impl Fn(&mut RuntimeConfig)) -> RunResult {
    let (vm, th) = run_both(src, mutate);
    assert_eq!(vm.tier.deopts(), 0, "the VM run must never count deopts");
    assert!(
        th.tier.threaded_entries > 0,
        "threaded run never entered compiled code"
    );
    th
}

/// A snapshot taken after the virtual clock has moved well past a fault
/// window boundary: the mode-window guard must bail to the VM rather
/// than decide against stale window-keyed state.
const SNAPSHOT_AFTER_SLEEP: &str = r#"
modes { low <= mid; mid <= high; }
class App@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.7) { return high; }
    else if (Ext.battery() >= 0.3) { return mid; }
    else { return low; }
  }
  int effort() {
    return mcase{ low: 1; mid: 4; high: 9; } <| X;
  }
  int round(int i) {
    Sim.sleepMs(1500);
    let dapp = new App();
    let got = try {
      let App a = snapshot dapp [low, X];
      a.effort()
    } catch { 0 };
    if (i <= 0) { return got; }
    return got + this.round(i - 1);
  }
}
class Main {
  int main() {
    let dapp = new App();
    let App a = snapshot dapp [low, high];
    return a.round(8);
  }
}
"#;

#[test]
fn mode_window_deopt_is_semantically_invisible() {
    // chaos() uses 0.5 s windows; each round sleeps 1.5 s before its
    // snapshot, so the window observed at body entry has always rolled
    // by the time `SnapB` runs.
    let th = run_pair(SNAPSHOT_AFTER_SLEEP, |c| {
        c.faults = Some(FaultPlan::chaos());
        c.fault_seed = 7;
    });
    assert!(
        th.tier.deopt_mode_window > 0,
        "mode-window guard never fired: {:?}",
        th.tier
    );
}

/// One static call site fed five receiver classes: the send IC goes
/// megamorphic and the site must deopt instead of thrashing.
const MEGAMORPHIC_SEND: &str = r#"
modes { low <= high; }
class Shape { int sides() { return 0; } }
class Tri extends Shape { int sides() { return 3; } }
class Quad extends Shape { int sides() { return 4; } }
class Penta extends Shape { int sides() { return 5; } }
class Hexa extends Shape { int sides() { return 6; } }
class Main {
  Shape pick(int i) {
    let r = i - (i / 5) * 5;
    if (r == 0) { return new Shape(); }
    if (r == 1) { return new Tri(); }
    if (r == 2) { return new Quad(); }
    if (r == 3) { return new Penta(); }
    return new Hexa();
  }
  int loop(int i, int acc) {
    if (i >= 25) { return acc; }
    let s = this.pick(i);
    return this.loop(i + 1, acc + s.sides());
  }
  int main() { return this.loop(0, 0); }
}
"#;

#[test]
fn megamorphic_ic_deopt_is_semantically_invisible() {
    let th = run_pair(MEGAMORPHIC_SEND, |_| {});
    assert!(
        th.tier.deopt_ic_megamorphic > 0,
        "megamorphic guard never fired: {:?}",
        th.tier
    );
}

/// A hot body that reads a sensor under total dropout: every read
/// faults, bumping the injector epoch, and the fault-epoch guard must
/// hand the rest of the body to the VM.
const SENSOR_UNDER_DROPOUT: &str = r#"
modes { low <= high; }
class Main {
  int probe(int i, int acc) {
    if (i <= 0) { return acc; }
    Sim.sleepMs(700);
    let lvl = Ext.battery();
    if (lvl >= 0.5) { return this.probe(i - 1, acc + 1); }
    return this.probe(i - 1, acc);
  }
  int main() { return this.probe(10, 0); }
}
"#;

#[test]
fn fault_epoch_deopt_is_semantically_invisible() {
    let th = run_pair(SENSOR_UNDER_DROPOUT, |c| {
        c.faults = Some(FaultPlan {
            dropout_rate: 1.0,
            ..FaultPlan::default()
        });
        c.fault_seed = 3;
    });
    assert!(
        th.tier.deopt_fault_epoch > 0,
        "fault-epoch guard never fired: {:?}",
        th.tier
    );
    assert!(th.stats.sensor_faults > 0, "dropout plan never faulted");
}

#[test]
fn transient_runs_never_tier_up() {
    // Only guarded semantics are compiled, so even `TierUp::Always` keeps
    // a transient run on the VM without compiling threaded code.
    let (vm, th) = run_both(MEGAMORPHIC_SEND, |c| {
        c.enforcement = Enforcement::Transient;
    });
    assert_eq!(th.tier.threaded_entries, 0, "{:?}", th.tier);
    assert_eq!(th.tier.threaded_compiles, 0, "{:?}", th.tier);
    assert_eq!(vm.to_json(), th.to_json(), "telemetry diverged");
    assert!(th.stats.transient_checks > 0, "transient strategy was idle");
}

#[test]
fn default_config_tiers_up_a_body_once_it_is_hot() {
    // Each body runs once per run, so the hit counters, shared by every
    // run over the lowered program, cross the default threshold on run N.
    let TierUp::After(n) = TierUp::default() else {
        panic!("the default tiers up after a threshold");
    };
    let src = r#"
class Main {
  int twice(int i) { return i + i; }
  int main() { return this.twice(20) + 2; }
}
"#;
    let lowered = lower_program(&compile(src).expect("program compiles"));
    let run = || run_lowered(&lowered, Platform::system_a(), RuntimeConfig::default());
    assert_eq!(run().tier, TierStats::default(), "a cold body tiered up");
    for _ in 1..n {
        run();
    }
    let last = run();
    assert!(last.tier.threaded_entries > 0, "{:?}", last.tier);
    let never = run_lowered(
        &lowered,
        Platform::system_a(),
        RuntimeConfig {
            tier_up: TierUp::Never,
            ..RuntimeConfig::default()
        },
    );
    let untiered = RunResult {
        tier: TierStats::default(),
        ..last
    };
    assert_eq!(untiered.to_json(), never.to_json(), "tier choice leaked");
}
