//! Re-entrancy stress tests: one shared `LoweredProgram` driven from many
//! threads at once must produce exactly the per-config results a
//! sequential caller sees — the engine's determinism contract, exercised
//! at the runtime layer (no engine involved), including with the
//! observability layer switched on.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    lower_program, run_lowered, Engine, LoweredProgram, RunResult, RuntimeConfig, Value,
};

/// A program that exercises the dynamic machinery: a mode lattice, a
/// dynamic object with an attributor, snapshots (bounded, so low battery
/// raises and catches an `EnergyException`), recursion, and `Sim` work.
const PROGRAM: &str = r#"
modes { low <= mid; mid <= high; }
class Workload@mode<? <= W> {
  int items;
  attributor {
    if (this.items >= 20) { return high; }
    else if (this.items >= 5) { return mid; }
    else { return low; }
  }
  int size() { return this.items; }
}
class App@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.7) { return high; }
    else if (Ext.battery() >= 0.3) { return mid; }
    else { return low; }
  }
  int step(int n) {
    Sim.work("cpu", 250.0);
    if (n <= 0) { return 0; }
    return 1 + this.step(n - 1);
  }
  int round(int items) {
    let dw = new Workload(items);
    let got = try {
      let Workload w = snapshot dw [_, X];
      this.step(w.size())
    } catch {
      Sim.work("cpu", 50.0);
      0
    };
    return got;
  }
  int iterate(int i) {
    if (i <= 0) { return 0; }
    return this.round(4 * i) + this.iterate(i - 1);
  }
}
class Main {
  int main() {
    let dapp = new App();
    let App a = snapshot dapp [_, _];
    let total = a.iterate(6);
    IO.print("total " + total);
    return total;
  }
}
"#;

/// The runtime configurations the stress matrix covers: silent on/off,
/// observability on/off, eager copying, several seeds and battery levels.
fn configs() -> Vec<RuntimeConfig> {
    let mut out = Vec::new();
    for seed in [1, 7, 42] {
        for battery in [0.15, 0.5, 0.9] {
            out.push(RuntimeConfig {
                seed,
                battery_level: battery,
                ..RuntimeConfig::default()
            });
        }
    }
    out.push(RuntimeConfig {
        seed: 9,
        battery_level: 0.5,
        silent: true,
        ..RuntimeConfig::default()
    });
    out.push(RuntimeConfig {
        seed: 9,
        battery_level: 0.5,
        record_events: true,
        profile: ent_runtime::ProfileMode::Exact,
        ..RuntimeConfig::default()
    });
    out.push(RuntimeConfig {
        seed: 9,
        battery_level: 0.5,
        eager_copy: true,
        ..RuntimeConfig::default()
    });
    out
}

/// Every semantic observable of a run, f64s by bit pattern.
fn fingerprint(result: &RunResult) -> String {
    let s = &result.stats;
    let value = match &result.value {
        Ok(v) => format!("ok:{v}"),
        Err(e) => format!("err:{e}"),
    };
    format!(
        "steps={};snaps={};copies={};exc={};sfail={};dfail={};value={};out={};energy={:016x};time={:016x}",
        s.steps,
        s.snapshots,
        s.copies,
        s.energy_exceptions,
        s.snapshot_failures,
        s.dfall_failures,
        value,
        result.output.join("\\n"),
        result.measurement.energy_j.to_bits(),
        result.measurement.time_s.to_bits(),
    )
}

fn lowered() -> LoweredProgram {
    let compiled = compile(PROGRAM).expect("stress program compiles");
    lower_program(&compiled)
}

#[test]
fn eight_threads_match_sequential_fingerprints() {
    let prog = lowered();
    let configs = configs();
    let expected: Vec<String> = configs
        .iter()
        .map(|c| fingerprint(&run_lowered(&prog, Platform::system_a(), c.clone())))
        .collect();
    // The program must actually exercise the interesting paths.
    assert!(expected.iter().any(|fp| fp.contains("exc=0")));
    assert!(expected.iter().any(|fp| !fp.contains("exc=0")));

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (prog, configs, expected) = (&prog, &configs, &expected);
                s.spawn(move || {
                    // Each thread sweeps the whole matrix, starting at a
                    // different offset so distinct configs overlap in time.
                    for i in 0..configs.len() {
                        let i = (i + t * 3) % configs.len();
                        let result = run_lowered(prog, Platform::system_a(), configs[i].clone());
                        assert_eq!(
                            fingerprint(&result),
                            expected[i],
                            "config {i} diverged on thread {t}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress thread");
        }
    });
}

#[test]
fn observability_results_are_complete_under_concurrency() {
    // `record_events` and `profile` allocate per-run state; under
    // concurrency each run must still get its own complete event log and
    // profile (nothing shared, nothing lost).
    let prog = lowered();
    let config = RuntimeConfig {
        seed: 3,
        battery_level: 0.5,
        record_events: true,
        profile: ent_runtime::ProfileMode::Exact,
        ..RuntimeConfig::default()
    };
    let reference = run_lowered(&prog, Platform::system_a(), config.clone());
    let ref_events = reference.events.iter().count();
    assert!(ref_events > 0, "the stress program should emit events");
    let ref_profile = reference
        .profile
        .as_ref()
        .expect("profile requested")
        .render_table();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (prog, config) = (&prog, &config);
                s.spawn(move || {
                    let r = run_lowered(prog, Platform::system_a(), config.clone());
                    (
                        r.events.iter().count(),
                        r.profile
                            .as_ref()
                            .expect("profile requested")
                            .render_table(),
                    )
                })
            })
            .collect();
        for h in handles {
            let (events, profile) = h.join().expect("stress thread");
            assert_eq!(events, ref_events);
            assert_eq!(profile, ref_profile);
        }
    });
}

#[test]
fn small_stacks_turn_deep_recursion_into_a_graceful_error() {
    // The tree walker's depth limit scales with the configured stack
    // size: a recursion that would blow a 16 MiB native stack must
    // surface as the runtime's stack-overflow error, never abort the
    // process. Bytecode sends take no native stack, so the same stack
    // runs bytecode to the 50,000-call limit, which stops it the same
    // way.
    let go = |depth: u32| {
        let src = format!(
            "class Main {{
               int go(int n) {{ if (n <= 0) {{ return 0; }} return this.go(n - 1); }}
               int main() {{ return this.go({depth}); }}
             }}"
        );
        lower_program(&compile(&src).expect("deep program compiles"))
    };
    let run = |prog: &LoweredProgram, engine| {
        run_lowered(
            prog,
            Platform::system_a(),
            RuntimeConfig {
                stack_size: 16 * 1024 * 1024,
                engine,
                ..RuntimeConfig::default()
            },
        )
    };
    let (deep, too_deep) = (go(30_000), go(60_000));
    for (prog, engine) in [(&deep, Engine::Tree), (&too_deep, Engine::Bytecode)] {
        let err = run(prog, engine)
            .value
            .expect_err("depth guard should fire");
        assert!(err.to_string().contains("call depth"), "{engine:?}: {err}");
    }
    assert_eq!(run(&deep, Engine::Bytecode).value, Ok(Value::Int(0)));
}

#[test]
fn tiny_configured_stacks_still_complete() {
    // The depth guard (MAX_CALL_DEPTH) protects legitimate programs long
    // before a 16 MiB stack runs out; a configured stack must be honored
    // without breaking shallow programs.
    let prog = lowered();
    let result = run_lowered(
        &prog,
        Platform::system_a(),
        RuntimeConfig {
            seed: 1,
            battery_level: 0.9,
            stack_size: 16 * 1024 * 1024,
            ..RuntimeConfig::default()
        },
    );
    assert!(result.value.is_ok(), "{:?}", result.value);
}
