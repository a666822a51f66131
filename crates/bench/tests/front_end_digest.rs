//! Pins the front end's output: parsing, obligations, and the `ent
//! check` and `ent run` reports over a fixed corpus hash to one constant.
//!
//! The corpus is a fixed range of `fuzzgen` seeds, the example programs,
//! the E2 programs on systems A and B, and a table of malformed and
//! operator-heavy sources. Per source the digest takes:
//!
//! * the `Debug` rendering of `parse_program`'s classes and declared
//!   modes, or of its error (not the whole `Program`: the mode table's
//!   name index is a `HashMap`, whose `Debug` order varies by run);
//! * each obligation's kind, class, member and span, or the compile
//!   error;
//! * the `(exit code, output)` of `ent check` and `ent run` through
//!   `ent_cli::execute`.
//!
//! A change that keeps the digest rewrites no AST, diagnostic,
//! obligation list or report on this corpus. The constant changes only
//! with a deliberate change to one of those outputs.

use std::fmt::Write as _;

use ent_cli::{execute, parse_args};
use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{default_stack_size, with_interp_stack};
use ent_syntax::parse_program;
use ent_workloads::{all_benchmarks, e2_program, fuzzgen};

/// The digest of the whole corpus.
const EXPECTED: u64 = 0xb3f5_1d7a_958d_0d87;

/// `fuzzgen` seeds in the corpus.
const FUZZ_SEEDS: std::ops::Range<u64> = 0..300;

/// Sources that fail somewhere in the front end, or stress operator
/// precedence and associativity.
const EXTRA: &[&str] = &[
    "",
    "class",
    "class Main { int main() { return 1 + ; } }",
    "class Main { int main() { return \"abc; } }",
    "class Main { int main() { return \"a\\qb\"; } }",
    "class Main { int main() { return 1 # 2; } }",
    "class Main { int main() { return 0; } } /* never closed",
    "class Main { int main() { return 99999999999999999999; } }",
    "class Main { int main() { return 1e; } }",
    "modes { a <= b; b <= a; } class Main { int main() { return 0; } }",
    "modes { a <= c; a <= d; b <= c; b <= d; } class Main { int main() { return 0; } }",
    "modes { top; } class Main { int main() { return 0; } }",
    "modes { } class Main { int main() { return 0; } }",
    "modes { a b; } class Main { int main() { return 0; } }",
    "class Main { foo x; }",
    "class Main { int main() { return true; } }",
    "class Main { int main() { return x.y.z; } }",
    "class A extends B { } class Main { int main() { return 0; } }",
    "class A { } class A { } class Main { int main() { return 0; } }",
    "modes { low <= high; } class C@mode<?> { } class Main { int main() { return 0; } }",
    "modes { low <= high; } class C@mode<X, low <= Y <= high> { int f<Z>(int n) { return n; } } \
     class Main { int main() { return 0; } }",
    "modes { low <= high; } class C@mode<low <= low <= high> { } class Main { int main() { return 0; } }",
    "modes { low <= high; } class Main { int main() { return mcase<int>{ low: 1; mid: 2; }; } }",
    "class Main { int main() { return new Main@mode<low>(); } }",
    "class Main { @mode<low> int x; }",
    "class Main { int main() { return this.f@mode<low>; } }",
    "class Main { int main() { return (1 + 2; } }",
    "class Main { int main() { let int = 3; return 0; } }",
    "class Main { int main() { return 1 - 2 - 3 * 4 / 5 % 6 + -7 - !8; } }",
    "class Main { bool main() { return 1 + 2 * 3 - 4 / 2 % 3 < 5 == true != false && !false || 1 >= 2 && 3 <= 4 || 5 > 6; } }",
    "class Main { bool main() { return 1 < 2 < 3; } }",
    "class Main { int main() { return ((((1)))) * (2 + 3) - (4 - 5 - 6); } }",
    "class Main { string main() { return \"a\" + 1 + 2.5 + true + (3 == 3); } }",
    "class Main { int main() { return 1 +; } }",
    "class Main { int main() { return * 2; } }",
    "class Main { bool main() { return true && || false; } }",
    "class Main { int main() { return (Main) this; } }",
    "class Main { int main() { return (x) + 1; } }",
    "class Main { int main() { let x = [1, 2, 3]; return Arr.get(x, 1) * 2 - Arr.len(x); } }",
    "class Main { double main() { return 1.5e3 / 2.0 - 3e-2 * 4.0; } }",
    "class Main { int main() { if (1 < 2) { return 1; } else if (2 < 3) { return 2; } else { return 3; } } }",
    "class Main { int main() { try { return 1 / 0; } catch { return 7; } } }",
];

/// 64-bit FNV-1a: a fixed hash, the same on every platform and toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn cli(command: &str, src: &str) -> String {
    let args: Vec<String> = [
        command,
        "x.ent",
        "--engine",
        "bytecode",
        "--enforce",
        "guarded",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let options = parse_args(&args).expect("valid arguments");
    let (code, out) = execute(&options, src);
    format!("{code}\n{out}")
}

/// Everything the front end observably produces for one source.
fn observe(src: &str) -> String {
    let mut out = String::new();
    match parse_program(src) {
        Ok(p) => {
            let _ = write!(out, "{:?}\n{:?}\n", p.classes, p.mode_table.modes());
        }
        Err(e) => {
            let _ = writeln!(out, "{e:?}");
        }
    }
    match compile(src) {
        Ok(c) => {
            for o in &c.obligations {
                let _ = writeln!(
                    out,
                    "{} {} {} {:?}",
                    o.kind.name(),
                    o.class,
                    o.member,
                    o.span
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "{}", e.render(src));
        }
    }
    out.push_str(&cli("check", src));
    out.push_str(&cli("run", src));
    out
}

fn corpus() -> Vec<String> {
    let mut sources: Vec<String> = FUZZ_SEEDS.map(fuzzgen::program).collect();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ent");
    let mut paths: Vec<_> = std::fs::read_dir(examples)
        .expect("examples/ent exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ent"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no example programs found");
    for p in paths {
        sources.push(std::fs::read_to_string(&p).expect("readable example"));
    }
    for platform in [Platform::system_a(), Platform::system_b()] {
        for spec in all_benchmarks() {
            sources.push(e2_program(&spec, &platform, 1));
        }
    }
    sources.extend(EXTRA.iter().map(|s| s.to_string()));
    sources
}

#[test]
fn the_front_end_output_matches_its_pinned_digest() {
    let digest = with_interp_stack(default_stack_size(), || {
        let mut h = Fnv::new();
        for src in corpus() {
            h.add(&src);
            h.add(&observe(&src));
        }
        h.0
    });
    assert_eq!(
        digest, EXPECTED,
        "front-end digest {digest:#018x} differs from the pinned {EXPECTED:#018x}"
    );
}
