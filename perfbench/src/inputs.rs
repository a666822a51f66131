//! Seeded request generation and the correctness reference for the serve
//! workloads.
//!
//! The same workload seed always yields the same programs, knobs, tenants
//! and request order. The program under test only ever sees the rendered
//! request lines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ent_energy::PlatformKind;
use ent_runtime::{json_escape, with_interp_stack, Engine};
use ent_serve::proto::Op;

/// splitmix64: derives independent streams from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `0..n` from a seeded stream position.
pub fn draw(seed: u64, i: u64, n: u64) -> u64 {
    mix(seed ^ mix(i)) % n.max(1)
}

/// One distinct request body (everything but `id` and `tenant`) with the
/// reply the daemon must produce for it.
pub struct Variant {
    pub op: Op,
    pub src: String,
    /// The JSON members after `tenant`, rendered once.
    body: String,
    /// `(exit code, output)` of `ent_cli::execute` on this request.
    pub expected: (i32, String),
}

impl Variant {
    pub fn new(op: Op, src: String, platform: &str, battery: f64, seed: u64) -> Variant {
        let body = format!(
            "\"src\": \"{}\", \"platform\": \"{platform}\", \"battery\": {battery}, \"seed\": {seed}}}",
            json_escape(&src)
        );
        Variant {
            op,
            src,
            body,
            expected: (0, String::new()),
        }
    }

    /// The wire line for request `id` billed to tenant `tenant`.
    pub fn line(&self, id: u64, tenant: u64) -> String {
        let op = if self.op == Op::Check { "check" } else { "run" };
        format!(
            "{{\"op\": \"{op}\", \"id\": \"r{id}\", \"tenant\": \"t{tenant}\", {}",
            self.body
        )
    }
}

fn platform_letter(kind: PlatformKind) -> &'static str {
    match kind {
        PlatformKind::SystemA => "a",
        PlatformKind::SystemB => "b",
        PlatformKind::SystemC => "c",
    }
}

/// Battery levels are drawn on a 1% grid so they print exactly.
fn battery(seed: u64, i: u64) -> f64 {
    (5 + draw(seed, i, 96)) as f64 / 100.0
}

/// The 60 cache-hot programs: the 15 Figure 6 benchmarks' E2 programs at
/// each of 3 workload levels, plus the 15 showcase apps, each on the
/// platform it was generated for, with `per_program` seeded knob variants.
pub fn hot_variants(seed: u64, per_program: u64) -> Vec<Variant> {
    let mut programs: Vec<(String, &'static str)> = Vec::new();
    for spec in ent_workloads::all_benchmarks() {
        let kind = spec.primary_platform();
        let platform = ent_workloads::platform_for(&spec, kind);
        for workload in 0..3 {
            programs.push((
                ent_workloads::e2_program(&spec, &platform, workload),
                platform_letter(kind),
            ));
        }
    }
    for (_, kind, src) in ent_workloads::showcase_apps() {
        programs.push((src.to_string(), platform_letter(kind)));
    }
    let mut out = Vec::new();
    for (p, (src, platform)) in programs.into_iter().enumerate() {
        for v in 0..per_program {
            let i = p as u64 * per_program + v;
            out.push(Variant::new(
                Op::Run,
                src.clone(),
                platform,
                battery(seed ^ 0xba77, i),
                draw(seed ^ 0x5eed, i, 1000),
            ));
        }
    }
    out
}

/// `count` never-repeated fuzz programs for the cache-cold workload. About
/// one in five is a `check`. Candidates whose reference run does not exit
/// 0 are skipped, so the daemon's failure signal stays quiet; a reference
/// that disagrees with the tree walker fails the gate.
pub fn cold_variants(seed: u64, count: usize, threads: usize) -> Result<Vec<Variant>, String> {
    let base = mix(seed ^ 0xc01d) >> 16;
    let next = AtomicUsize::new(0);
    let kept: Mutex<Vec<(u64, Variant)>> = Mutex::new(Vec::new());
    let accepted = AtomicUsize::new(0);
    let disagreement: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                with_interp_stack(ent_runtime::default_stack_size(), || loop {
                    if accepted.load(Ordering::SeqCst) >= count
                        || disagreement.lock().expect("gate lock").is_some()
                    {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst) as u64;
                    let op = if draw(seed ^ 0x0c, i, 5) == 0 {
                        Op::Check
                    } else {
                        Op::Run
                    };
                    let platform = ["a", "b", "c"][draw(seed ^ 0x91a7, i, 3) as usize];
                    let mut v = Variant::new(
                        op,
                        ent_workloads::fuzzgen::program(base + i),
                        platform,
                        battery(seed ^ 0xba77, i),
                        draw(seed ^ 0x5eed, i, 1000),
                    );
                    match reference(&mut v) {
                        Ok(()) if v.expected.0 == 0 => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            kept.lock().expect("gate lock").push((i, v));
                        }
                        Ok(()) => {}
                        Err(e) => *disagreement.lock().expect("gate lock") = Some(e),
                    }
                })
            });
        }
    });
    if let Some(e) = disagreement.into_inner().expect("gate lock") {
        return Err(e);
    }
    let mut kept = kept.into_inner().expect("gate lock");
    kept.sort_by_key(|(i, _)| *i);
    kept.truncate(count);
    Ok(kept.into_iter().map(|(_, v)| v).collect())
}

/// Computes the reference reply for `v` and checks it against the tree
/// walker: `ent_cli::execute` of the exact request the daemon will parse,
/// and for runs the same request on the tree-walking engine, whose value,
/// printed output and EnergyException verdict must agree byte for byte.
pub fn reference(v: &mut Variant) -> Result<(), String> {
    let request = ent_serve::parse_request(&v.line(0, 0)).map_err(|e| format!("request: {e}"))?;
    let expected = ent_cli::execute(&request.options, &request.src);
    if v.op == Op::Run {
        let mut tree = request.options.clone();
        tree.engine = Some(Engine::Tree);
        let by_tree = ent_cli::execute(&tree, &request.src);
        if by_tree != expected {
            return Err(format!(
                "tree walker disagrees with the default engine:\n{}\n---\n{}",
                by_tree.1, expected.1
            ));
        }
    }
    v.expected = expected;
    Ok(())
}

/// Computes every variant's reference on `threads` gate threads; returns
/// the first disagreement.
pub fn gate(variants: &mut [Variant], threads: usize) -> Result<(), String> {
    let chunk = variants.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = variants
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(move || {
                    with_interp_stack(ent_runtime::default_stack_size(), || {
                        part.iter_mut().try_for_each(reference)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("gate thread"))
    })
}

/// The variant request `k` uses, a seeded draw over `n` variants.
pub fn pick(seed: u64, k: u64, n: usize) -> usize {
    draw(seed ^ 0x0dde, k, n as u64) as usize
}
