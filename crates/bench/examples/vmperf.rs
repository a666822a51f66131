//! Engine microbenchmarks: the tree walker vs. the closure-threaded
//! bytecode engine on isolated interpreter shapes, away from the energy
//! sim and the fig-suite setup.
//!
//!   cargo run -p ent-bench --release --example vmperf
//!
//! The shapes bracket the dispatch loop's regimes:
//!
//! * `straight` — a 400-`let` arithmetic chain, pure fused-binop dispatch
//!   (body larger than L1, so both engines are partly memory-bound);
//! * `fib` — non-tail recursion, exercises the full invoke path;
//! * `tailloop` — tail self-send recursion, exercises bytecode's tail-call
//!   elision against the tree walker's per-call frame machinery;
//! * `arr` — `Arr.push` accumulation (the parameter slot keeps the array
//!   `Arc` shared, so both engines deep-copy: a worst case, not a win).
//!
//! Numbers are wall-clock and machine-local; treat them as ratios, not
//! absolutes. The acceptance-grade measurement is `perf_baseline`.

use std::time::Instant;

use ent_energy::Platform;
use ent_runtime::{
    default_stack_size, lower_program, run_lowered, with_interp_stack, Engine, RuntimeConfig,
};

const BUDGET_S: f64 = 0.7;

fn bench(name: &str, src: &str) {
    let compiled = ent_core::compile(src).expect("benchmark program compiles");
    let lowered = lower_program(&compiled);
    let mut sps = Vec::new();
    with_interp_stack(default_stack_size(), || {
        for (lane, engine) in [("tree", Engine::Tree), ("bytecode", Engine::Bytecode)] {
            let cfg = || RuntimeConfig {
                engine,
                gas_limit: 4_000_000_000,
                ..Default::default()
            };
            let r = run_lowered(&lowered, Platform::system_a(), cfg());
            let steps = r.stats.steps;
            if let Err(e) = &r.value {
                panic!("{name} {lane}: {e:?}");
            }
            let start = Instant::now();
            let mut runs = 0u32;
            while start.elapsed().as_secs_f64() < BUDGET_S || runs < 3 {
                let r = run_lowered(&lowered, Platform::system_a(), cfg());
                assert_eq!(r.stats.steps, steps, "{name} must be deterministic");
                runs += 1;
            }
            let wall = start.elapsed().as_secs_f64();
            sps.push(steps as f64 * f64::from(runs) / wall);
            println!(
                "{name:<10} {lane:<10} {:>12.0} steps/s ({steps} steps)",
                sps.last().unwrap()
            );
        }
    });
    println!("{name:<10} bc/tree    {:>12.2}x", sps[1] / sps[0]);
}

fn main() {
    let mut body = String::from("let a0 = 1;\n");
    for i in 1..400 {
        body.push_str(&format!(
            "let a{i} = a{} * 3 + {i} - (a{} % 7);\n",
            i - 1,
            i - 1
        ));
    }
    let straight = format!(
        "class Main {{ int go(int n, int acc) {{ if (n <= 0) {{ return acc; }} {body} return this.go(n - 1, acc + a399); }} int main() {{ return this.go(400, 0); }} }}"
    );
    bench("straight", &straight);
    bench(
        "fib",
        "class Main { int fib(int n) { if (n < 2) { return n; } return this.fib(n-1) + this.fib(n-2); } int main() { return this.fib(24); } }",
    );
    bench(
        "tailloop",
        "class Main { int go(int n, int acc) { if (n <= 0) { return acc; } return this.go(n - 1, acc + n); } int main() { return this.go(30000, 0); } }",
    );
    bench(
        "arr",
        "class Main { int go(int n, int[] xs) { if (n <= 0) { return Arr.len(xs); } return this.go(n - 1, Arr.push(xs, n)); } int main() { return this.go(3000, Arr.range(0, 1)); } }",
    );
}
