//! The bytecode engine against the tree walker, on the full observable
//! surface — value, rendering, stats, output, energy/time bits, and the
//! rendered event stream.
//!
//! The three `*_deopt_*` scenarios are the ones that once sent a body
//! from the closure-threaded tier back to a separate bytecode VM: a mode
//! decision after the fault window rolled, a megamorphic send, and a
//! faulted sensor read. Nothing deopts now, since each handler owns its
//! slow path; the tests keep their names and check that the scenario
//! runs exactly as on the tree walker. The rest pin the executor's binop
//! lanes and builtin calls. Names ending in `the_vm` also predate the
//! single executor: the behavior they pinned, the VM's, is the tree
//! walker's, which they now compare with.

use std::fmt::Write as _;

use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, run_lowered, Enforcement, Engine, LoweredProgram, RunResult,
    RuntimeConfig, Value,
};

/// Every semantic observable, f64s by bit pattern.
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

fn lower(src: &str) -> LoweredProgram {
    let compiled =
        compile(src).unwrap_or_else(|e| panic!("program fails to compile:\n{}", e.render(src)));
    lower_program(&compiled)
}

/// Runs a lowered program on both engines with the same configuration,
/// `mutate`d, asserts byte-identical observables, and returns the
/// bytecode run.
fn run_all_engines(lowered: &LoweredProgram, mutate: impl Fn(&mut RuntimeConfig)) -> RunResult {
    let run = |engine| {
        let mut c = RuntimeConfig {
            engine,
            battery_level: 0.8,
            seed: 42,
            record_events: true,
            ..RuntimeConfig::default()
        };
        mutate(&mut c);
        run_lowered(lowered, Platform::system_a(), c)
    };
    let (tree, bytecode) = (run(Engine::Tree), run(Engine::Bytecode));
    assert_eq!(
        observe(lowered, &tree),
        observe(lowered, &bytecode),
        "tree-walker and bytecode observables diverge"
    );
    bytecode
}

/// [`run_all_engines`] on a source.
fn run_pair(src: &str, mutate: impl Fn(&mut RuntimeConfig)) -> RunResult {
    run_all_engines(&lower(src), mutate)
}

/// A snapshot and an elimination taken after the virtual clock has moved
/// well past a fault window boundary: the window-keyed decision caches
/// must miss and decide afresh, never reuse a stale window's verdict.
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
    // snapshot, so the window has always rolled since the site's last
    // decision.
    let r = run_pair(SNAPSHOT_AFTER_SLEEP, |c| {
        c.faults = Some(FaultPlan::chaos());
        c.fault_seed = 7;
    });
    assert_eq!(r.stats.snapshots, 10, "{:?}", r.stats);
}

/// One static call site fed five receiver classes: the send IC misses on
/// every class change and re-caches, under a tail self-send loop.
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
    // Transient counts a check per send, so its run also pins that the
    // tail self-send in `loop` is not elided there.
    let lowered = lower(MEGAMORPHIC_SEND);
    for strategy in [Enforcement::Guarded, Enforcement::Transient] {
        let r = run_all_engines(&lowered, |c| c.enforcement = strategy);
        assert_eq!(r.value.as_ref().ok(), Some(&Value::Int(90)), "{strategy:?}");
        if strategy == Enforcement::Transient {
            assert!(r.stats.transient_checks > 0, "transient strategy was idle");
        }
    }
}

/// A body that reads a sensor under total dropout: every read faults and
/// runs the degradation ladder, and the body carries on.
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
    let r = run_pair(SENSOR_UNDER_DROPOUT, |c| {
        c.faults = Some(FaultPlan {
            dropout_rate: 1.0,
            ..FaultPlan::default()
        });
        c.fault_seed = 3;
    });
    assert!(r.stats.sensor_faults > 0, "dropout plan never faulted");
}

/// Binop operand pairs over the `let` slots `a`/`b`, literals `k`/`k2`
/// and a computed register `reg`, in both orders and literal with
/// literal. Slot and literal operands (and a register lhs) fuse into
/// `BinF`/`JmpBinF`; a register rhs compiles to plain `Bin`/`JmpBin`.
fn operand_pairs<'a>(k: &'a str, k2: &'a str, reg: &'a str) -> [(&'a str, &'a str); 9] {
    [
        ("a", "b"),
        ("a", k),
        (k, "a"),
        (k, k2),
        (reg, "a"),
        (reg, k),
        ("a", reg),
        (k, reg),
        (reg, reg),
    ]
}

/// Every arithmetic and comparison operator over every operand shape on
/// int and double values, string concatenation and equality, and `if`
/// conditions on int and double comparisons: the executor's scalar lanes
/// must print and count exactly what the tree walker does.
#[test]
fn scalar_binop_lanes_match_the_vm() {
    use std::fmt::Write as _;
    const ARITH: [&str; 5] = ["+", "-", "*", "/", "%"];
    const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
    let mut body = String::new();
    for (a, b, k, k2, reg) in [
        ("17", "5", "3", "9", "this.i(7)"),
        ("-7.5", "2.25", "0.5", "7.5", "this.d(-7.5)"),
    ] {
        let _ = writeln!(body, "    {{ let a = {a}; let b = {b};");
        for op in ARITH.iter().chain(&CMP) {
            for (l, r) in operand_pairs(k, k2, reg) {
                let _ = writeln!(body, "      IO.print(\"\" + ({l} {op} {r}));");
            }
        }
        for op in CMP {
            for (l, r) in operand_pairs(k, k2, reg) {
                let _ = writeln!(
                    body,
                    "      IO.print(if ({l} {op} {r}) {{ \"t\" }} else {{ \"f\" }});"
                );
            }
        }
        let _ = writeln!(body, "    }}");
    }
    let _ = writeln!(body, "    {{ let a = \"ab\"; let b = \"cd\";");
    for op in ["+", "==", "!="] {
        for (l, r) in operand_pairs("\"ab\"", "\"x\"", "this.s(\"cd\")") {
            let _ = writeln!(body, "      IO.print(\"\" + ({l} {op} {r}));");
        }
    }
    let _ = writeln!(body, "      IO.print(1 + a); IO.print(a + 2.5);\n    }}");
    let src = format!(
        "class Main {{
  int i(int x) {{ return x; }}
  double d(double x) {{ return x; }}
  string s(string x) {{ return x; }}
  int main() {{
{body}    return 0;
  }}
}}
"
    );
    let th = run_pair(&src, |_| {});
    assert!(th.value.is_ok(), "{:?}", th.value);
    assert_eq!(th.output.len(), 2 * (11 + 6) * 9 + 3 * 9 + 2);
}

/// Int `/` and `%` by a zero held in a variable, over each operand shape:
/// the fast lane must fall back to the tree walker's error.
#[test]
fn int_division_by_a_zero_variable_errors_like_the_vm() {
    for (op, msg) in [("/", "division by zero"), ("%", "remainder by zero")] {
        for (l, r) in [
            ("a", "z"),
            ("7", "z"),
            ("this.i(7)", "z"),
            ("a", "this.i(z)"),
        ] {
            let src = format!(
                "class Main {{
  int i(int x) {{ return x; }}
  int main() {{ let a = 7; let z = 0; return {l} {op} {r}; }}
}}
"
            );
            let th = run_pair(&src, |_| {});
            match &th.value {
                Err(e) => assert!(e.to_string().contains(msg), "{l} {op} {r}: {e}"),
                Ok(v) => panic!("{l} {op} {r} returned {v:?}"),
            }
        }
    }
}

/// Argument types of the builtin table below, each with the identity
/// method that makes a computed-register operand of it.
fn ident_method(ty: &str) -> &'static str {
    match ty {
        "int" => "i",
        "double" => "d",
        "string" => "s",
        _ => "a",
    }
}

/// A builtin's arguments: each one's type and source text.
type Args = &'static [(&'static str, &'static str)];

/// Every builtin with its arguments, and whether it returns a value
/// (unit builtins run as statements).
const BUILTINS: &[(&str, Args, bool)] = &[
    ("Ext.battery", &[], true),
    ("Ext.temperature", &[], true),
    ("Ext.timeMs", &[], true),
    ("Sim.rand", &[], true),
    (
        "Sim.work",
        &[("string", "\"cpu\""), ("double", "2.0e8")],
        false,
    ),
    (
        "Sim.work",
        &[("string", "\"io\""), ("double", "3.0e7")],
        false,
    ),
    ("Sim.sleepMs", &[("int", "20")], false),
    ("IO.print", &[("string", "\"héllo\"")], false),
    ("Str.len", &[("string", "\"héllo\"")], true),
    ("Str.ofInt", &[("int", "42")], true),
    ("Str.ofDouble", &[("double", "2.5")], true),
    (
        "Str.sub",
        &[("string", "\"abcdef\""), ("int", "1"), ("int", "4")],
        true,
    ),
    ("Math.floor", &[("double", "3.99")], true),
    ("Math.toDouble", &[("int", "7")], true),
    ("Math.min", &[("int", "3"), ("int", "7")], true),
    ("Math.max", &[("int", "3"), ("int", "7")], true),
    ("Math.fmin", &[("double", "1.5"), ("double", "2.5")], true),
    ("Math.fmax", &[("double", "1.5"), ("double", "2.5")], true),
    ("Math.abs", &[("int", "9")], true),
    ("Math.sqrt", &[("double", "81.0")], true),
    ("Math.pow", &[("double", "2.0"), ("double", "10.0")], true),
    ("Arr.range", &[("int", "2"), ("int", "6")], true),
    ("Arr.len", &[("int[]", "[1, 2, 3]")], true),
    ("Arr.get", &[("int[]", "[10, 20, 30]"), ("int", "1")], true),
    (
        "Arr.sub",
        &[("int[]", "[1, 2, 3, 4, 5]"), ("int", "1"), ("int", "4")],
        true,
    ),
    (
        "Arr.concat",
        &[("int[]", "[1, 2]"), ("int[]", "[3, 4, 5]")],
        true,
    ),
    ("Arr.push", &[("int[]", "[1, 2]"), ("int", "7")], true),
    ("Arr.make", &[("int", "3"), ("int", "0")], true),
];

/// Every builtin, each argument from a `let` slot, a literal or a
/// computed register, in every combination: the in-place builtin call
/// must print, count and charge exactly what the tree walker does.
#[test]
fn every_builtin_matches_the_vm_and_the_tree_walker() {
    use std::fmt::Write as _;
    let mut body = String::new();
    let mut calls = 0;
    for (callee, params, returns) in BUILTINS {
        let _ = write!(body, "    {{");
        for (j, (_, v)) in params.iter().enumerate() {
            let _ = write!(body, " let p{j} = {v};");
        }
        let _ = writeln!(body);
        for combo in 0..3usize.pow(params.len() as u32) {
            let args: Vec<String> = params
                .iter()
                .enumerate()
                .map(|(j, (ty, v))| match combo / 3usize.pow(j as u32) % 3 {
                    0 => format!("p{j}"),
                    1 => (*v).to_string(),
                    _ => format!("this.{}({v})", ident_method(ty)),
                })
                .collect();
            let call = format!("{callee}({})", args.join(", "));
            if *returns {
                let _ = writeln!(body, "      IO.print(\"\" + {call});");
            } else {
                let _ = writeln!(body, "      {call};");
                let _ = writeln!(body, "      IO.print(\"\" + Ext.timeMs());");
            }
            calls += 1;
        }
        let _ = writeln!(body, "    }}");
    }
    let src = format!(
        "class Main {{
  int i(int x) {{ return x; }}
  double d(double x) {{ return x; }}
  string s(string x) {{ return x; }}
  int[] a(int[] x) {{ return x; }}
  int main() {{
{body}    return 0;
  }}
}}
"
    );
    let th = run_all_engines(&lower(&src), |_| {});
    assert!(th.value.is_ok(), "{:?}", th.value);
    // Each call prints one line; `IO.print` calls print theirs and the
    // clock line.
    assert_eq!(th.output.len(), calls + 3);
}

/// A mode case as a builtin's last argument is forced at call time
/// (`force_last`); an earlier one by its own force op. From a slot, as a
/// literal, and from a call, on both sides of the mode lattice.
#[test]
fn a_mode_case_last_argument_is_forced_like_the_vm() {
    let src = r#"
modes { low <= high; }
class Work@mode<? <= X> {
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int pick() { return mcase{ low: 2; high: 9; } <| X; }
  mcase<int> both() { return mcase{ low: 1; high: 4; }; }
  int run(int i) {
    let m = mcase{ low: 5; high: 50; };
    IO.print("" + Math.min(40, m));
    IO.print("" + Math.max(1, mcase{ low: 2; high: 9; }));
    IO.print("" + Math.min(mcase{ low: 2; high: 9; }, 7));
    IO.print("" + Arr.get([10, 20, 30, 40, 50], this.both()));
    Sim.sleepMs(m);
    IO.print("" + Ext.timeMs());
    if (i <= 0) { return this.pick(); }
    return this.run(i - 1);
  }
}
class Main {
  int main() {
    let dw = new Work();
    let Work w = snapshot dw [low, high];
    return w.run(3);
  }
}
"#;
    let lowered = lower(src);
    for battery in [0.2, 0.8] {
        let th = run_all_engines(&lowered, |c| c.battery_level = battery);
        assert!(th.value.is_ok(), "battery {battery}: {:?}", th.value);
        // Five lines from each of `run(3)` … `run(0)`.
        assert_eq!(th.output.len(), 20, "{:?}", th.output);
    }
}

/// A builtin the typechecker would reject, run anyway: the error names
/// the argument count on every engine, and the call leaves nothing
/// behind in its registers that changes what follows.
#[test]
fn a_misapplied_builtin_errors_like_the_vm() {
    for (call, named) in [
        ("Sim.work(1, 2)", "`Sim.work` with 2 args"),
        ("Math.min(this.i(1))", "`Math.min` with 1 args"),
        ("Arr.get([1], \"x\")", "`Arr.get` with 2 args"),
        ("Math.nothing(1, 2, 3)", "`Math.nothing` with 3 args"),
    ] {
        let src = format!(
            "class Main {{
  int i(int x) {{ return x; }}
  int main() {{ let a = [1, 2]; IO.print(\"\" + Arr.len(a)); {call}; return 0; }}
}}
"
        );
        let compiled = ent_core::compile_unchecked(&src).expect("program parses");
        let th = run_all_engines(&lower_program(&compiled), |_| {});
        match &th.value {
            Err(e) => assert!(
                e.to_string()
                    .contains(&format!("misapplied builtin {named}")),
                "{call}: {e}"
            ),
            Ok(v) => panic!("{call} returned {v:?}"),
        }
        assert_eq!(th.output, ["2"], "{call}");
    }
}

/// `Arr.push` and `Arr.concat` over an accumulator threaded through a
/// tail self-send: the argument registers are moved, the accumulator is
/// grown, and every engine ends with the same array.
#[test]
fn array_growth_in_a_loop_matches_the_vm() {
    let src = r#"
class Main {
  int[] grow(int[] xs, int i) {
    if (i <= 0) { return xs; }
    let ys = Arr.push(xs, i);
    return this.grow(Arr.concat(ys, [i * 10, i * 100]), i - 1);
  }
  int main() {
    let xs = this.grow([0], 40);
    IO.print("" + Arr.len(xs));
    IO.print("" + xs);
    return Arr.get(xs, 5);
  }
}
"#;
    let th = run_all_engines(&lower(src), |_| {});
    assert_eq!(th.value.as_ref().ok(), Some(&Value::Int(390)));
    assert_eq!(th.output[0], "121");
}

/// A parameter that an arity-mismatched call (which the typechecker would
/// reject) leaves unbound, read as either operand of a fused binop and of
/// a fused compare-and-branch: the error names the parameter on every
/// engine.
#[test]
fn an_unbound_parameter_in_a_fused_operand_is_named_like_the_tree_walker() {
    for body in [
        "return a + b;",
        "return b * a;",
        "if (b < a) { return 1; } return 0;",
        "if (a >= b) { return 1; } return 0;",
    ] {
        let src = format!(
            "class Main {{
  int f(int a, int b) {{ {body} }}
  int main() {{ return this.f(1); }}
}}
"
        );
        let compiled = ent_core::compile_unchecked(&src).expect("program parses");
        let r = run_all_engines(&lower_program(&compiled), |_| {});
        match &r.value {
            Err(e) => assert!(
                e.to_string().contains("unbound variable `b`"),
                "{body}: {e}"
            ),
            Ok(v) => panic!("{body} returned {v:?}"),
        }
    }
}
