//! Criterion micro-benchmarks for the ENT implementation itself: the cost
//! of the mixed type system's moving parts (host-side wall time, as
//! opposed to the simulated joules of the fig* binaries).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ent_core::compile;
use ent_energy::Platform;
use ent_modes::{ConstraintSet, ModeName, ModeTable, ModeVar, StaticMode, Symbol};
use ent_runtime::{run, RuntimeConfig};
use ent_workloads::{benchmark, e1_program, e2_program};

/// A mid-sized program: the jspider E1 benchmark source.
fn jspider_src() -> String {
    let spec = benchmark("jspider").unwrap();
    e1_program(&spec, &Platform::system_a(), 1)
}

fn bench_compile(c: &mut Criterion) {
    let src = jspider_src();
    c.bench_function("compile/jspider_e1", |b| {
        b.iter(|| compile(std::hint::black_box(&src)).unwrap())
    });
}

fn bench_entailment(c: &mut Criterion) {
    let table = ModeTable::linear(["a", "b", "c", "d", "e", "f"]).unwrap();
    let mut k = ConstraintSet::new();
    for i in 0..6 {
        k.push(
            StaticMode::Var(ModeVar::named(Symbol::from_raw(i))),
            StaticMode::Const(ModeName::new("c")),
        );
    }
    let lo = StaticMode::Var(ModeVar::named(Symbol::from_raw(0)));
    let hi = StaticMode::Const(ModeName::new("f"));
    c.bench_function("modes/entailment_query", |b| {
        b.iter(|| k.entails(&table, std::hint::black_box(&lo), std::hint::black_box(&hi)))
    });
}

fn bench_snapshot(c: &mut Criterion) {
    // 200 snapshots of one dynamic object: measures attributor dispatch,
    // bound checks, and the lazy-copy machinery.
    let src = "modes { low <= high; }
        class D@mode<? <= X> {
          attributor { if (Ext.battery() >= 0.5) { return high; } else { return low; } }
        }
        class Main {
          unit main() {
            let d = new D();
            this.burst(d, 200);
            return {};
          }
          unit burst(D@mode<?> d, int remaining) {
            if (remaining <= 0) { return {}; }
            let D s = snapshot d [_, _];
            return this.burst(d, remaining - 1);
          }
        }";
    let compiled = compile(src).unwrap();
    c.bench_function("runtime/200_snapshots", |b| {
        b.iter_batched(
            || compiled.clone(),
            |p| run(&p, Platform::system_a(), RuntimeConfig::default()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_dispatch(c: &mut Criterion) {
    // A tight recursive method-call loop: interpreter dispatch + dfall.
    let src = "modes { low <= high; }
        class Counter@mode<X> {
          int count(int n, int acc) {
            if (n <= 0) { return acc; }
            return this.count(n - 1, acc + 1);
          }
        }
        class Main {
          int main() {
            let c = new Counter@mode<high>();
            return c.count(2000, 0);
          }
        }";
    let compiled = compile(src).unwrap();
    c.bench_function("runtime/2000_dispatches", |b| {
        b.iter(|| run(&compiled, Platform::system_a(), RuntimeConfig::default()))
    });
}

fn bench_e2_run(c: &mut Criterion) {
    // End-to-end: compile + run the crypto E2 benchmark (small batch).
    let spec = benchmark("crypto").unwrap();
    let src = e2_program(&spec, &Platform::system_a(), 1);
    let compiled = compile(&src).unwrap();
    c.bench_function("experiment/crypto_e2_run", |b| {
        b.iter(|| {
            run(
                &compiled,
                Platform::system_a(),
                RuntimeConfig {
                    battery_level: 0.78,
                    ..RuntimeConfig::default()
                },
            )
        })
    });
}

fn bench_copy_strategies(c: &mut Criterion) {
    // Ablation: lazy vs eager and shallow vs deep snapshot copying over a
    // repeatedly re-snapshotted aggregate.
    let src = "modes { low <= high; }
        class Leaf { }
        class Node { Object child; }
        class Holder@mode<? <= H> {
          Node graph;
          attributor { return low; }
        }
        class Main {
          unit main() {
            let dh = new Holder(new Node(new Node(new Node(new Leaf()))));
            this.burst(dh, 100);
            return {};
          }
          unit burst(Holder@mode<?> h, int remaining) {
            if (remaining <= 0) { return {}; }
            let Holder s = snapshot h [_, _];
            return this.burst(h, remaining - 1);
          }
        }";
    let compiled = compile(src).unwrap();
    let mut group = c.benchmark_group("ablation/copy_strategy");
    for (label, eager, deep) in [
        ("lazy_shallow", false, false),
        ("eager_shallow", true, false),
        ("eager_deep", true, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                run(
                    &compiled,
                    Platform::system_a(),
                    RuntimeConfig {
                        eager_copy: eager,
                        deep_copy: deep,
                        ..RuntimeConfig::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_entailment,
    bench_snapshot,
    bench_dispatch,
    bench_e2_run,
    bench_copy_strategies
);
criterion_main!(benches);
