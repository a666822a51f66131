//! Behavioral coverage for the builtin namespaces (`Str`, `Math`, `Arr`,
//! `Sim`, `Ext`, `IO`) at run time.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{
    lower_program, run, run_lowered, Enforcement, Engine, RtError, RunResult, RuntimeConfig,
    TierUp, Value,
};

fn eval_int(expr: &str) -> Value {
    let src = format!("class Main {{ int main() {{ return {expr}; }} }}");
    run_src(&src).value.unwrap()
}

fn eval_str(expr: &str) -> String {
    let src = format!("class Main {{ string main() {{ return {expr}; }} }}");
    match run_src(&src).value.unwrap() {
        Value::Str(s) => s.to_string(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn run_src(src: &str) -> RunResult {
    let compiled = compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    run(&compiled, Platform::system_a(), RuntimeConfig::default())
}

#[test]
fn string_builtins() {
    assert_eq!(eval_int("Str.len(\"héllo\")"), Value::Int(5));
    assert_eq!(eval_str("Str.ofInt(-42)"), "-42");
    assert_eq!(eval_str("Str.ofDouble(2.5)"), "2.5");
    assert_eq!(eval_str("Str.sub(\"abcdef\", 1, 4)"), "bcd");
    // Out-of-range indices clamp instead of failing.
    assert_eq!(eval_str("Str.sub(\"abc\", 2, 99)"), "c");
    assert_eq!(eval_str("Str.sub(\"abc\", 5, 2)"), "");
}

#[test]
fn math_builtins() {
    assert_eq!(eval_int("Math.floor(3.99)"), Value::Int(3));
    assert_eq!(eval_int("Math.floor(-1.5)"), Value::Int(-2));
    assert_eq!(eval_int("Math.min(3, 7) + Math.max(3, 7)"), Value::Int(10));
    assert_eq!(eval_int("Math.abs(0 - 9)"), Value::Int(9));
    assert_eq!(eval_int("Math.floor(Math.sqrt(81.0))"), Value::Int(9));
    assert_eq!(
        eval_int("Math.floor(Math.pow(2.0, 10.0))"),
        Value::Int(1024)
    );
    assert_eq!(
        eval_int("Math.floor(Math.fmin(1.5, 2.5) + Math.fmax(1.5, 2.5))"),
        Value::Int(4)
    );
}

#[test]
fn array_builtins() {
    assert_eq!(eval_int("Arr.len(Arr.range(2, 9))"), Value::Int(7));
    assert_eq!(eval_int("Arr.get([10, 20, 30], 1)"), Value::Int(20));
    assert_eq!(
        eval_int("Arr.len(Arr.sub([1,2,3,4,5], 1, 4))"),
        Value::Int(3)
    );
    assert_eq!(
        eval_int("Arr.len(Arr.concat([1,2],[3,4,5]))"),
        Value::Int(5)
    );
    assert_eq!(eval_int("Arr.get(Arr.push([1,2], 7), 2)"), Value::Int(7));
    assert_eq!(eval_int("Arr.len(Arr.make(4, 0))"), Value::Int(4));
    // Empty ranges.
    assert_eq!(eval_int("Arr.len(Arr.range(5, 5))"), Value::Int(0));
}

#[test]
fn array_index_out_of_bounds_is_a_runtime_error() {
    let src = "class Main { int main() { return Arr.get([1], 3); } }";
    let r = run_src(src);
    assert!(matches!(r.value, Err(RtError::Native(_))), "{:?}", r.value);
}

#[test]
fn division_and_remainder_by_zero() {
    let r = run_src("class Main { int main() { return 1 / 0; } }");
    assert!(matches!(r.value, Err(RtError::Native(_))));
    let r = run_src("class Main { int main() { return 1 % 0; } }");
    assert!(matches!(r.value, Err(RtError::Native(_))));
}

#[test]
fn short_circuit_evaluation_skips_the_rhs() {
    // The RHS would divide by zero; && must not evaluate it.
    assert_eq!(
        eval_int("if (false && (1 / 0 == 0)) { 1 } else { 2 }"),
        Value::Int(2)
    );
    assert_eq!(
        eval_int("if (true || (1 / 0 == 0)) { 3 } else { 4 }"),
        Value::Int(3)
    );
}

#[test]
fn ext_builtins_read_the_simulator() {
    let src = "class Main {
        bool main() {
          let b = Ext.battery();
          let t = Ext.temperature();
          let ms = Ext.timeMs();
          return b >= 0.0 && b <= 1.0 && t > 0.0 && ms >= 0.0;
        }
      }";
    assert_eq!(run_src(src).value.unwrap(), Value::Bool(true));
}

#[test]
fn sim_rand_is_in_range_and_seeded() {
    let src = "class Main {
        bool main() {
          let a = Sim.rand();
          let b = Sim.rand();
          return a >= 0.0 && a < 1.0 && b >= 0.0 && b < 1.0 && (a == b) == false;
        }
      }";
    assert_eq!(run_src(src).value.unwrap(), Value::Bool(true));
}

#[test]
fn string_concat_renders_every_kind() {
    assert_eq!(
        eval_str("\"i=\" + 1 + \" d=\" + 0.5 + \" b=\" + true + \" a=\" + [1, 2]"),
        "i=1 d=0.5 b=true a=[1, 2]"
    );
}

#[test]
fn print_order_is_preserved() {
    let src = "class Main {
        unit main() {
          IO.print(\"one\");
          IO.print(\"two\");
          IO.print(\"three\");
          return {};
        }
      }";
    assert_eq!(run_src(src).output, vec!["one", "two", "three"]);
}

#[test]
fn integer_arithmetic_wraps_rather_than_panics() {
    // Wrapping semantics on overflow (documented choice, matching the
    // release-mode behavior of the host).
    let src = "class Main { int main() { return 9223372036854775807 + 1; } }";
    assert_eq!(run_src(src).value.unwrap(), Value::Int(i64::MIN));
}

#[test]
fn negation_and_abs_wrap_on_int_min_rather_than_panicking() {
    // `-i64::MIN` and `Math.abs(i64::MIN)` have no i64 representation;
    // both wrap (to i64::MIN) like the binary arithmetic ops do, instead
    // of tripping the host's debug overflow check.
    let src = "class Main { int main() { return -(-9223372036854775807 - 1); } }";
    assert_eq!(run_src(src).value.unwrap(), Value::Int(i64::MIN));
    let src = "class Main { int main() { return Math.abs(-9223372036854775807 - 1); } }";
    assert_eq!(run_src(src).value.unwrap(), Value::Int(i64::MIN));
}

#[test]
fn hostile_array_allocations_error_instead_of_aborting() {
    // `Arr.make`/`Arr.range` with astronomic sizes must surface as runtime
    // errors, not exhaust the allocator.
    let src = "class Main { int main() { return Arr.len(Arr.make(9000000000000000000, 0)); } }";
    let r = run_src(src);
    match r.value {
        Err(RtError::Native(msg)) => assert!(msg.contains("exceeds the limit"), "{msg}"),
        other => panic!("expected a native error, got {other:?}"),
    }
    let src = "class Main { int main() { return Arr.len(Arr.range(0, 9000000000000000000)); } }";
    match run_src(src).value {
        Err(RtError::Native(msg)) => assert!(msg.contains("exceeds the limit"), "{msg}"),
        other => panic!("expected a native error, got {other:?}"),
    }
    // Reversed range stays an empty array, as before.
    assert_eq!(eval_int("Arr.len(Arr.range(5, -5))"), Value::Int(0));
}

#[test]
fn hostile_sleep_durations_terminate() {
    // A sleep of i64::MAX ms must not spin the integrator effectively
    // forever: the simulator clamps a single advance.
    let src = "class Main { unit main() { Sim.sleepMs(9223372036854775807); return {}; } }";
    let r = run_src(src);
    assert!(r.value.is_ok(), "{:?}", r.value);
    assert!(r.measurement.time_s <= 1.0e6 + 1.0);
}

/// Runs `src` under `gas_limit` on the tree walker, the bytecode VM and
/// the threaded tier (every body tiered up on its first entry).
fn on_every_engine(src: &str, gas_limit: u64) -> Vec<RunResult> {
    let compiled = compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let lowered = lower_program(&compiled);
    [
        (Engine::Tree, TierUp::Never),
        (Engine::Bytecode, TierUp::Never),
        (Engine::Bytecode, TierUp::Always),
    ]
    .into_iter()
    .map(|(engine, tier_up)| {
        let config = RuntimeConfig {
            engine,
            tier_up,
            enforcement: Enforcement::Guarded,
            gas_limit,
            ..RuntimeConfig::default()
        };
        run_lowered(&lowered, Platform::system_a(), config)
    })
    .collect()
}

#[test]
fn a_gas_limit_on_a_resolved_work_kind_stops_every_engine_alike() {
    // Lowering resolves the literal kind and drops its node; every engine
    // still charges its step between the call's own step and the units
    // argument, whose evaluation prints.
    let src = r#"class Main {
        double units() { IO.print("units"); return 1000.0; }
        int main() { Sim.work("net", this.units()); return 1; }
      }"#;
    let observe = |limit| {
        on_every_engine(src, limit)
            .iter()
            .map(|r| {
                let energy = r.measurement.energy_j.to_bits();
                (
                    format!("{:?}", r.value),
                    r.stats.steps,
                    r.output.clone(),
                    energy,
                )
            })
            .collect::<Vec<_>>()
    };
    let total = observe(u64::MAX)[0].1;
    for limit in 0..=total {
        let seen = observe(limit);
        assert!(
            seen.iter().all(|s| *s == seen[0]),
            "limit {limit}: {seen:?}"
        );
    }
    // Steps 1 and 2 are `main`'s block and the call; a limit of 2 runs out
    // on the kind, before the units argument runs.
    let stopped = &observe(2)[0];
    assert_eq!(stopped.0, "Err(OutOfGas)");
    assert_eq!(stopped.1, 3);
    assert!(stopped.2.is_empty(), "{stopped:?}");
}

#[test]
fn a_work_kind_held_in_a_variable_runs_unresolved_at_the_same_cost() {
    let literal = r#"class Main { int main() { Sim.work("crypto", 5.0e8); return 1; } }"#;
    let variable =
        r#"class Main { int main() { let k = "crypto"; Sim.work(k, 5.0e8); return 1; } }"#;
    let cpu = r#"class Main { int main() { Sim.work("cpu", 5.0e8); return 1; } }"#;
    let unknown = r#"class Main { int main() { Sim.work("warp", 5.0e8); return 1; } }"#;
    let cost = |src| {
        on_every_engine(src, u64::MAX)
            .iter()
            .map(|r| {
                assert_eq!(r.value, Ok(Value::Int(1)));
                [r.measurement.energy_j, r.measurement.time_s].map(f64::to_bits)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(cost(literal), cost(variable));
    assert_ne!(cost(literal), cost(cpu));
    // An unknown kind parses as CPU work, resolved or not.
    assert_eq!(cost(unknown), cost(cpu));
}
