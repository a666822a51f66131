//! The `serve_hot` and `serve_cold` workloads: the release `ent-serve`
//! daemon under open-loop TCP load, and an in-process traced replay.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ent_serve::json::{self, Json};
use ent_serve::proto::{parse_request, Op, Reply};
use ent_serve::server::{Server, ServerConfig, Submission};
use ent_workloads::lowered_cache_stats;

use crate::client::{self, Shot};
use crate::host::{scale_time, steal_ticks, wait_for_quiet, HostSpeed, StealMeter, StealTrace};
use crate::inputs::{self, Variant};
use crate::layers::{self, Counts};
use crate::stats::{median, quantile, window_figure, MIN_CLEAN};
use crate::trace::Tracer;
use crate::{Args, Metric, Report};

/// Frozen load settings of one serve workload. Rates are requests per
/// second offered by the whole generator; the limit is on p99 latency
/// measured from each request's due time.
pub struct Load {
    pub low_rps: f64,
    pub high_rps: f64,
    pub limit_ms: f64,
    /// Requests per max_rps search step.
    pub step_requests: u64,
}

/// Sized once on the seed commit (2-core host) and frozen.
pub const HOT: Load = Load {
    low_rps: 400.0,
    high_rps: 1200.0,
    limit_ms: 25.0,
    step_requests: 1000,
};
pub const COLD: Load = Load {
    low_rps: 200.0,
    high_rps: 400.0,
    limit_ms: 50.0,
    // Every cold request needs a gated program of its own.
    step_requests: 500,
};

/// Tenants the requests are spread over, round-robin: at any offered
/// rate below 512 × 25 = 12800 req/s each tenant stays under half the
/// default 50/s token refill, so admission never sheds.
const TENANTS: u64 = 512;
/// Seeded (battery, seed) knob variants per hot program: E2 programs pick
/// their QoS from the battery level, so many draws keep the work mix (and
/// the figures) close across workload seeds.
const HOT_VARIANTS: u64 = 16;
/// Most unanswered requests one lane may hold before it stops sending
/// (the step is then a growing backlog, not a pass).
const MAX_BACKLOG: usize = 128;
/// Steps of the max_rps search, and the most times one step is offered.
const SEARCH_STEPS: usize = 7;
const SEARCH_ATTEMPTS: u64 = 3;
/// The generator's own limit: a run whose p99 send lateness in the fixed
/// rate phases exceeds this is invalid, not slow.
const LATENESS_LIMIT_MS: f64 = 50.0;
/// Fewest completions the steal-free intervals need before
/// `cpu_us_per_item` is taken over them alone.
const MIN_CLEAN_ITEMS: u64 = 500;
/// Longest wait for a quiet host before a round or a search step.
const QUIET_WAIT: Duration = Duration::from_secs(3);
/// Rounds per run, each on a freshly started daemon.
const ROUNDS: usize = 3;
/// Set-ups per run (the rounds' and extra ones); `setup_s` is the median
/// of those with no stolen CPU time.
const SETUPS: usize = 9;
/// Requests per latency window. A phase's p50 and p99 are taken per
/// window of consecutive requests, and the reported figure is the median
/// over the windows of all rounds during which the hypervisor stole no
/// CPU time (see `stats::window_figure` and NOTES.md).
const WINDOW: usize = 100;
/// Reference-loop samples taken, with the daemon idle, before every
/// set-up and around every fixed-rate phase.
const REF_SAMPLES: usize = 5;

pub fn load_of(workload: &str) -> &'static Load {
    if workload == "serve_hot" {
        &HOT
    } else {
        &COLD
    }
}

/// The generated inputs of one serve workload.
struct Inputs {
    variants: Vec<Variant>,
    hot: bool,
    seed: u64,
}

impl Inputs {
    /// Request `k`'s variant: a seeded draw over the hot variants, or
    /// the `k`-th never-seen cold program.
    fn variant(&self, k: u64) -> &Variant {
        if self.hot {
            &self.variants[inputs::pick(self.seed, k, self.variants.len())]
        } else {
            &self.variants[k as usize]
        }
    }

    fn capacity(&self) -> u64 {
        if self.hot {
            u64::MAX
        } else {
            self.variants.len() as u64
        }
    }

    fn line(&self, k: u64) -> String {
        self.variant(k).line(k, k % TENANTS)
    }
}

fn generate(args: &Args, cold_count: usize) -> Result<Inputs, String> {
    let hot = args.workload == "serve_hot";
    let mut variants = if hot {
        inputs::hot_variants(args.seed, HOT_VARIANTS)
    } else {
        inputs::cold_variants(args.seed, cold_count, args.nproc)?
    };
    if hot {
        inputs::gate(&mut variants, args.nproc)?;
    }
    Ok(Inputs {
        variants,
        hot,
        seed: args.seed,
    })
}

/// Warm-up traffic: every hot variant once, so the cache holds all 60
/// programs. The cold workload warms the daemon with the same 60 programs
/// (one variant each), which its fuzz traffic never repeats.
fn warm_lines(inputs: &Inputs) -> Vec<String> {
    let hot;
    let variants = if inputs.hot {
        &inputs.variants
    } else {
        hot = inputs::hot_variants(inputs.seed, 1);
        &hot
    };
    variants
        .iter()
        .enumerate()
        .map(|(i, v)| v.line(1_000_000 + i as u64, i as u64 % TENANTS))
        .collect()
}

/// The daemon subprocess; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(bin: &Path, workers: usize) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let child = Command::new(bin)
            .args([
                "--addr",
                &addr.to_string(),
                "--workers",
                &workers.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if TcpStream::connect(addr).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("ent-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("ent-serve did not accept connections within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set (VmHWM), in MiB.
    fn peak_rss_mb(&self) -> f64 {
        crate::host::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One blocking request/reply on its own connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("reply: {e}"))?;
        if reply.is_empty() {
            return Err("daemon closed the connection".to_string());
        }
        Ok(reply)
    }
}

/// Starts a daemon and warms it up; returns it with the set-up time and
/// whether no CPU time was stolen meanwhile.
fn set_up(args: &Args, inputs: &Inputs) -> Result<(Daemon, (f64, bool)), String> {
    let steal = steal_ticks();
    let started = Instant::now();
    let daemon = Daemon::start(&args.serve_bin, args.nproc)?;
    let mut conn = Conn::open(daemon.addr)?;
    for line in warm_lines(inputs) {
        let reply = conn.roundtrip(&line)?;
        if !reply.contains("\"status\": \"ok\"") {
            return Err(format!("warm-up request refused: {reply}"));
        }
    }
    let took = started.elapsed().as_secs_f64();
    Ok((daemon, (took, steal_ticks() == steal)))
}

/// Whether `reply` is the correct answer to request `id`: status ok, the
/// reference's exit code and byte-identical output. Anything else — a
/// shed, a refusal, a failure or a mismatch — counts as failed.
fn reply_ok(reply: &str, id: u64, v: &Variant) -> bool {
    let Ok(doc) = json::parse(reply.trim_end()) else {
        return false;
    };
    let field = |k: &str| doc.get(k).and_then(Json::as_str);
    field("id") == Some(&format!("r{id}"))
        && field("status") == Some("ok")
        && doc.get("code").and_then(Json::as_f64) == Some(f64::from(v.expected.0))
        && field("output") == Some(v.expected.1.as_str())
}

/// Tallies of one or more phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    completed: u64,
    lateness_ms: Vec<f64>,
}

/// One window of consecutive requests: the latencies of its correct
/// replies, and whether the hypervisor stole no CPU time while it ran.
struct Window {
    latencies_ms: Vec<f64>,
    clean: bool,
}

/// Offered-load phase result: latencies of correct replies in due order.
struct Phase {
    latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    windows: Vec<Window>,
    /// Daemon CPU µs and replies completed, over the phase's 250 ms
    /// intervals with no stolen tick, and over all of them.
    cpu_clean: (u64, u64),
    cpu_all: (u64, u64),
    all_ok: bool,
    /// Ticks stolen while the phase ran.
    stolen: u64,
    elapsed_s: f64,
}

/// Offers requests `next_k..next_k + count` at `rate` over `lanes`
/// connections and checks every reply.
fn offer(
    daemon: &Daemon,
    lanes: usize,
    inputs: &Inputs,
    next_k: &mut u64,
    count: u64,
    rate: f64,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let k0 = *next_k;
    let lines: Vec<String> = (k0..k0 + count).map(|k| inputs.line(k)).collect();
    *next_k += count;
    let mut streams = client::connect(daemon.addr, lanes).map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let pid = daemon.child.id().to_string();
    let (steal, (start, shots)) = std::thread::scope(|s| {
        let sampler = s.spawn(|| StealTrace::record(&stop, &pid));
        let shots = client::open_loop(
            &mut streams,
            &lines,
            rate,
            MAX_BACKLOG,
            Duration::from_secs(5),
        );
        stop.store(true, Ordering::SeqCst);
        (sampler.join().expect("steal sampler"), shots)
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(streams);
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let windows = shots
        .chunks_exact(WINDOW)
        .filter_map(|w| {
            let end = w.iter().filter_map(|s| s.done_ns).max()?;
            Some(Window {
                latencies_ms: w.iter().filter_map(Shot::latency_ms).collect(),
                clean: steal.stolen(at(w[0].due_ns), at(end)) == 0,
            })
        })
        .collect();
    let stolen = steal.stolen(started, Instant::now());
    let done_at: Vec<Instant> = shots.iter().filter_map(|s| s.done_ns).map(at).collect();
    let (mut cpu_clean, mut cpu_all) = ((0, 0), (0, 0));
    for (a, b) in steal.intervals(25) {
        let cpu = b.cpu_us - a.cpu_us;
        let done = done_at.iter().filter(|t| **t >= a.at && **t < b.at).count() as u64;
        cpu_all = (cpu_all.0 + cpu, cpu_all.1 + done);
        if b.steal == a.steal {
            cpu_clean = (cpu_clean.0 + cpu, cpu_clean.1 + done);
        }
    }
    let mut latencies_ms = Vec::with_capacity(shots.len());
    let mut lateness_ms = Vec::with_capacity(shots.len());
    let mut all_ok = true;
    for (i, shot) in shots.iter().enumerate() {
        let k = k0 + i as u64;
        let Some(_) = shot.sent_ns else {
            all_ok = false;
            continue;
        };
        tally.attempted += 1;
        lateness_ms.extend(shot.lateness_ms());
        let ok = shot.done_ns.is_some()
            && reply_ok(&String::from_utf8_lossy(&shot.reply), k, inputs.variant(k));
        if ok {
            tally.completed += 1;
            latencies_ms.extend(shot.latency_ms());
        } else {
            tally.failed += 1;
            all_ok = false;
        }
    }
    Ok(Phase {
        latencies_ms,
        lateness_ms,
        windows,
        cpu_clean,
        cpu_all,
        all_ok,
        stolen,
        elapsed_s,
    })
}

/// The `q` quantile of a phase's latencies, pooled over its steal-free
/// windows when there are at least `MIN_CLEAN` of them; otherwise the
/// lower quartile of the per-window quantiles (stolen time only ever adds
/// latency). Returns the figure, the RSD of the per-window quantiles and
/// the clean-window count.
fn pooled_quantile(windows: &[Window], q: f64) -> (f64, f64, usize) {
    let per_window: Vec<(f64, bool)> = windows
        .iter()
        .map(|w| (quantile(&w.latencies_ms, q).unwrap_or(0.0), w.clean))
        .collect();
    let (fallback, rsd, clean) = window_figure(&per_window, 0.25);
    if clean < MIN_CLEAN {
        return (fallback, rsd, clean);
    }
    let pooled: Vec<f64> = windows
        .iter()
        .filter(|w| w.clean)
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    (quantile(&pooled, q).unwrap_or(0.0), rsd, clean)
}

/// CPU µs and completed items summed over phases, the CPU time as
/// measured and as scaled to the nominal host.
#[derive(Default)]
struct CpuSum {
    raw_us: u64,
    scaled_us: f64,
    items: u64,
}

impl CpuSum {
    fn add(&mut self, (cpu_us, items): (u64, u64), ref_rate: f64) {
        self.raw_us += cpu_us;
        self.scaled_us += scale_time(cpu_us as f64, ref_rate);
        self.items += items;
    }
}

/// CPU µs per completed item, as measured and scaled, over the steal-free
/// intervals when they saw at least `MIN_CLEAN_ITEMS` completions, else
/// over all intervals.
fn cpu_per_item(clean: &CpuSum, all: &CpuSum) -> (f64, f64) {
    let sum = if clean.items >= MIN_CLEAN_ITEMS {
        clean
    } else {
        all
    };
    let items = sum.items.max(1) as f64;
    (sum.raw_us as f64 / items, sum.scaled_us / items)
}

/// Planned request count for `seconds` at `rate`, at least 500.
fn planned(rate: f64, seconds: f64) -> u64 {
    ((rate * seconds) as u64).max(500)
}

/// Runs the max_rps search on `daemon`: double from `start` until a step
/// fails, then bisect (geometric midpoint) between the best pass and the
/// lowest failure. A step passes when every request got a correct reply
/// and the step's p99 meets the limit; a growing backlog fails it through
/// both (the lane backlog cap, or latency rising through the step).
/// Returns the replies per second the best passing step delivered.
fn search(
    daemon: &Daemon,
    lanes: usize,
    inputs: &Inputs,
    load: &Load,
    next_k: &mut u64,
    tally: &mut Tally,
    start: f64,
) -> Result<(Option<f64>, Vec<String>), String> {
    let mut best: Option<f64> = None;
    let mut best_goodput = None;
    let mut worst: Option<f64> = None;
    let mut rate = start;
    let mut steps = Vec::new();
    for _ in 0..SEARCH_STEPS {
        // A step that failed while the hypervisor stole CPU time is
        // offered again (twice at most): steal only ever makes a step
        // fail, saturation fails it on a quiet host too.
        let mut pass = false;
        for _ in 0..SEARCH_ATTEMPTS {
            if *next_k + load.step_requests > inputs.capacity() {
                break;
            }
            wait_for_quiet(QUIET_WAIT);
            let step = offer(
                daemon,
                lanes,
                inputs,
                next_k,
                load.step_requests,
                rate,
                tally,
            )?;
            let p99 = quantile(&step.latencies_ms, 0.99).unwrap_or(f64::MAX);
            pass = step.all_ok && p99 <= load.limit_ms;
            steps.push(format!(
                "{rate:.0}:{}:p99={p99:.2}",
                if pass { "pass" } else { "fail" }
            ));
            if pass {
                if best.is_none_or(|b| rate > b) {
                    best_goodput = Some(step.latencies_ms.len() as f64 / step.elapsed_s);
                }
                break;
            }
            if step.stolen == 0 {
                break;
            }
        }
        if pass {
            best = Some(best.map_or(rate, |b: f64| b.max(rate)));
        } else {
            worst = Some(worst.map_or(rate, |w: f64| w.min(rate)));
        }
        rate = match (best, worst) {
            (Some(b), Some(w)) => (b * w).sqrt(),
            (Some(b), None) => b * 2.0,
            (None, Some(w)) => w / 2.0,
            (None, None) => rate,
        };
    }
    Ok((best_goodput, steps))
}

pub fn untraced(args: &Args) -> Result<Report, String> {
    let load = load_of(&args.workload);
    let budget = args.seconds as f64;
    // Each round gets a fresh daemon and a tenth of the budget per phase;
    // the search takes what is left.
    let phase_s = budget * 0.6 / 2.0 / ROUNDS as f64;
    let low_n = planned(load.low_rps, phase_s);
    let high_n = planned(load.high_rps, phase_s);
    // Every round's daemon starts with an empty cache, so rounds replay the
    // same requests; the search (after the last round) needs fresh ones.
    let cold_count =
        (low_n + high_n + SEARCH_ATTEMPTS * SEARCH_STEPS as u64 * load.step_requests) as usize;
    let gate_started = Instant::now();
    let inputs = generate(args, cold_count)?;
    let gate_s = gate_started.elapsed().as_secs_f64();

    let lanes = args.nproc;
    let mut tally = Tally::default();
    let mut next_k = 0u64;
    // Each set-up is scaled to the nominal host by reference loops timed
    // just before it, and each phase's CPU time by those around it
    // (NOTES.md).
    let mut setups = Vec::new();
    let mut speed = HostSpeed::default();
    for _ in ROUNDS..SETUPS {
        wait_for_quiet(QUIET_WAIT);
        let rate = speed.sample(REF_SAMPLES);
        setups.push((set_up(args, &inputs)?.1, rate));
    }
    let mut low_windows: Vec<Window> = Vec::new();
    let mut high_windows: Vec<Window> = Vec::new();
    let mut high_done = 0u64;
    let mut high_s = 0.0;
    let (mut cpu_clean, mut cpu_all) = (CpuSum::default(), CpuSum::default());
    let mut peak_rss_mb = 0.0f64;
    let mut search_result = (None, Vec::new());
    let mut waited = Duration::ZERO;
    let steal = StealMeter::start();
    for round in 0..ROUNDS {
        waited += wait_for_quiet(QUIET_WAIT);
        let before_low = speed.sample(REF_SAMPLES);
        let (daemon, setup_s) = set_up(args, &inputs)?;
        setups.push((setup_s, before_low));
        next_k = 0;
        let low = offer(
            &daemon,
            lanes,
            &inputs,
            &mut next_k,
            low_n,
            load.low_rps,
            &mut tally,
        )?;
        let before_high = speed.sample(REF_SAMPLES);
        let done_before = tally.completed;
        let high = offer(
            &daemon,
            lanes,
            &inputs,
            &mut next_k,
            high_n,
            load.high_rps,
            &mut tally,
        )?;
        high_done += tally.completed - done_before;
        let after_high = speed.sample(REF_SAMPLES);
        for (phase, rate) in [
            (&low, (before_low + before_high) / 2.0),
            (&high, (before_high + after_high) / 2.0),
        ] {
            cpu_clean.add(phase.cpu_clean, rate);
            cpu_all.add(phase.cpu_all, rate);
        }
        tally.lateness_ms.extend(&low.lateness_ms);
        tally.lateness_ms.extend(&high.lateness_ms);
        high_s += high.elapsed_s;
        low_windows.extend(low.windows);
        high_windows.extend(high.windows);
        if round + 1 == ROUNDS {
            search_result = search(
                &daemon,
                lanes,
                &inputs,
                load,
                &mut next_k,
                &mut tally,
                load.high_rps,
            )?;
        }
        peak_rss_mb = peak_rss_mb.max(daemon.peak_rss_mb());
    }
    let (best, steps) = search_result;
    let steal_pct = steal.pct();

    let lateness_p99 = quantile(&tally.lateness_ms, 0.99).unwrap_or(0.0);
    if lateness_p99 > LATENESS_LIMIT_MS {
        return Err(format!(
            "invalid run: the generator sent {lateness_p99:.3} ms late at p99 (limit {LATENESS_LIMIT_MS} ms)"
        ));
    }
    let (p50_low, rsd_p50_low, clean_low) = pooled_quantile(&low_windows, 0.5);
    // Latency and max_rps go to the stamp, not the metrics: on a shared
    // 2-vCPU host they spread by 15-50% between identical runs (NOTES.md).
    let (p99_low, rsd_p99_low, _) = pooled_quantile(&low_windows, 0.99);
    let (p50_high, rsd_p50_high, clean_high) = pooled_quantile(&high_windows, 0.5);
    let (p99_high, rsd_p99_high, _) = pooled_quantile(&high_windows, 0.99);
    // Set-ups are timed like windows: the median of those no CPU time was
    // stolen from.
    let scaled_setups: Vec<(f64, bool)> = setups
        .iter()
        .map(|&((s, clean), rate)| (scale_time(s, rate), clean))
        .collect();
    let raw_setups: Vec<(f64, bool)> = setups.iter().map(|s| s.0).collect();
    let (setup_s, setup_rsd, _) = window_figure(&scaled_setups, 0.25);
    let raw_setup = window_figure(&raw_setups, 0.25).0;
    let (raw_cpu, cpu_us) = cpu_per_item(&cpu_clean, &cpu_all);
    // Replies per second are set by the open loop, not the host, so they
    // are not scaled.
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s").rsd(setup_rsd),
        Metric::new("cpu_us_per_item", cpu_us, "us"),
        Metric::new("cells_per_s", high_done as f64 / high_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let ms = |x: f64, rsd: f64| format!("{x:.4} (rsd {rsd:.1}%)");
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        stamp: vec![
            ("gate_s".into(), format!("{gate_s:.3}")),
            ("low_rps".into(), format!("{}", load.low_rps)),
            ("high_rps".into(), format!("{}", load.high_rps)),
            ("p99_limit_ms".into(), format!("{}", load.limit_ms)),
            ("rounds".into(), ROUNDS.to_string()),
            ("samples_low_per_round".into(), low_n.to_string()),
            ("samples_high_per_round".into(), high_n.to_string()),
            ("search".into(), steps.join(" ")),
            ("lateness_p99_ms".into(), format!("{lateness_p99:.4}")),
            (
                "unscaled".into(),
                format!("setup_s {raw_setup:.4} cpu_us_per_item {raw_cpu:.2}"),
            ),
            (
                "ref_rate".into(),
                format!("median {:.1} samples {}", speed.median(), speed.samples()),
            ),
            ("steal_pct".into(), format!("{steal_pct:.2}")),
            ("p50_ms_low".into(), ms(p50_low, rsd_p50_low)),
            ("p99_ms_low".into(), ms(p99_low, rsd_p99_low)),
            ("p50_ms_high".into(), ms(p50_high, rsd_p50_high)),
            ("p99_ms_high".into(), ms(p99_high, rsd_p99_high)),
            ("max_rps".into(), format!("{:.1}", best.unwrap_or(0.0))),
            (
                "clean_windows".into(),
                format!(
                    "low {clean_low}/{} high {clean_high}/{}",
                    low_windows.len(),
                    high_windows.len()
                ),
            ),
            (
                "quiet_wait_s".into(),
                format!("{:.2}", waited.as_secs_f64()),
            ),
            ("lateness_limit_ms".into(), format!("{LATENESS_LIMIT_MS}")),
            (
                "distinct_programs".into(),
                if inputs.hot {
                    "60".into()
                } else {
                    next_k.to_string()
                },
            ),
        ],
    })
}

/// Requests the traced path may take per phase: cold programs are
/// generated (and gated) up front, so their count is bounded.
fn traced_cap(hot: bool) -> u64 {
    if hot {
        20_000
    } else {
        700
    }
}

/// What the serve-layer probe measured.
pub struct Probe {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Sends one request through the in-process server the way the TCP
/// front-end does: `parse_request`, `submit`, wait for the worker's reply,
/// render the wire line.
fn in_process(server: &Server, line: &str, now_ms: u64) -> Result<String, String> {
    let request = parse_request(line)?;
    let reply = match server.submit(request, now_ms) {
        Submission::Immediate(r) => r,
        Submission::Queued(rx) => rx.recv().map_err(|_| "worker pool went away".to_string())?,
    };
    Ok(reply.to_json())
}

/// A traced request: what the replay needs to split its reply wait.
struct Traced {
    k: u64,
    wait_ns: u64,
    missed: bool,
}

/// The serve path probed in-process and over TCP with `inputs`; spans go
/// to `t` (request roots named `request`, replay roots `replay`).
fn probe_inputs(args: &Args, inputs: &Inputs, t: &mut Tracer) -> Result<Probe, String> {
    let budget = args.seconds as f64;
    let cap = traced_cap(inputs.hot).min(inputs.capacity() / 3);
    let server = Server::start(ServerConfig {
        workers: args.nproc,
        ..ServerConfig::default()
    });
    let epoch = Instant::now();
    let now_ms = || epoch.elapsed().as_millis() as u64;
    let mut last_tick = Instant::now();
    let mut tick = |server: &Server| {
        // The daemon's ticker runs every 500 ms of wall time.
        if last_tick.elapsed() >= Duration::from_millis(500) {
            server.tick();
            last_tick = Instant::now();
        }
    };
    for line in warm_lines(inputs) {
        in_process(&server, &line, now_ms())?;
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut next_k = 0u64;

    // In-process requests, alternately without and with spans: the
    // untraced ones give the request path's own time (and, against the
    // traced ones, the tracing overhead).
    let mut path_ns = Vec::new();
    let mut traced = Vec::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut evictions = 0u64;
    let started = Instant::now();
    while (started.elapsed().as_secs_f64() < budget * 0.4 && (traced.len() as u64) < cap)
        || traced.is_empty()
    {
        let k = next_k;
        next_k += 1;
        let line = inputs.line(k);
        attempted += 1;
        if k.is_multiple_of(2) {
            let t0 = Instant::now();
            let reply = in_process(&server, &line, now_ms())?;
            path_ns.push(t0.elapsed().as_nanos() as f64);
            failed += u64::from(!reply_ok(&reply, k, inputs.variant(k)));
            tick(&server);
            continue;
        }
        let before = lowered_cache_stats();
        let now = now_ms();
        let (reply, wait_ns) = t.span("request", k, |t| -> Result<(String, u64), String> {
            let request = t.span("serve.parse_request", k, |_| parse_request(&line))?;
            // The reply path runs from submit to the reply in hand: on a
            // small host the woken worker may start (and preempt the
            // submitter) before `submit` returns.
            let submitted = Instant::now();
            let submission = t.span("serve.submit", k, |_| server.submit(request, now));
            let reply: Reply = t.span("serve.reply_wait", k, |_| match submission {
                Submission::Immediate(r) => Ok(r),
                Submission::Queued(rx) => {
                    rx.recv().map_err(|_| "worker pool went away".to_string())
                }
            })?;
            let wait_ns = submitted.elapsed().as_nanos() as u64;
            Ok((t.span("serve.reply_json", k, |_| reply.to_json()), wait_ns))
        })?;
        let after = lowered_cache_stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
        failed += u64::from(!reply_ok(&reply, k, inputs.variant(k)));
        traced.push(Traced {
            k,
            wait_ns,
            missed: after.misses > before.misses,
        });
        tick(&server);
    }
    let counters = server.counters();
    let transitions = server.transitions().len();
    server.shutdown();

    // Replay each traced request's layers; the reply wait they leave
    // unexplained is queue wait (plus wake-ups and contention).
    let mut counts = Counts::default();
    let mut queue_wait_us = Vec::with_capacity(traced.len());
    // The first traced request of each distinct program.
    let mut first_use: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for r in &traced {
        let v = inputs.variant(r.k);
        let options = parse_request(&inputs.line(r.k))?.options;
        let work_ns = t.span("replay", r.k, |t| {
            if !first_use.contains_key(v.src.as_str()) {
                first_use.insert(&v.src, r.k);
                layers::front_end(t, r.k, &v.src, &mut counts);
            }
            if v.op == Op::Check {
                let start = Instant::now();
                t.span("cli.check", r.k, |_| ent_cli::execute(&options, &v.src));
                return start.elapsed().as_nanos() as u64;
            }
            // A miss compiles (as the daemon did); the cache-hit path is
            // timed on every request, on the freshly inserted key after a
            // miss.
            let start = Instant::now();
            let (lowered, compile_ns) = if r.missed {
                let lowered = layers::cache_miss(t, r.k, &v.src);
                let compile_ns = start.elapsed().as_nanos() as u64;
                layers::cache_hit(t, r.k, &format!("{} ", v.src));
                (lowered, compile_ns)
            } else {
                let lowered = layers::cache_hit(t, r.k, &v.src);
                (lowered, start.elapsed().as_nanos() as u64)
            };
            let rr = layers::run_replay(t, r.k, &options, &lowered, r.missed, &mut counts);
            compile_ns + rr.spawn_self_ns + rr.first_run_ns.unwrap_or(rr.exec_ns) + rr.render_ns
        });
        queue_wait_us.push((r.wait_ns as f64 - work_ns as f64) / 1e3);
    }
    // Every layer is measured on this workload's programs even when the
    // traced requests never miss or check (serve_hot): once per distinct
    // program, after the server is gone.
    if !traced.iter().any(|r| r.missed) {
        for &k in first_use.values() {
            let options = parse_request(&inputs.line(k))?.options;
            let lowered = layers::cache_miss(t, k, &inputs.variant(k).src);
            layers::run_replay(t, k, &options, &lowered, true, &mut counts);
        }
    }
    if !traced.iter().any(|r| inputs.variant(r.k).op == Op::Check) {
        for &k in first_use.values() {
            let mut check = parse_request(&inputs.line(k))?.options;
            check.command = ent_cli::Command::Check;
            t.span("cli.check", k, |_| {
                ent_cli::execute(&check, &inputs.variant(k).src)
            });
        }
    }

    // Client-observed latency over real TCP, one request at a time.
    let (daemon, _) = set_up(args, inputs)?;
    let mut conn = Conn::open(daemon.addr)?;
    let mut tcp_ns = Vec::new();
    let started = Instant::now();
    while (started.elapsed().as_secs_f64() < budget * 0.2 && (tcp_ns.len() as u64) < cap)
        || tcp_ns.is_empty()
    {
        let k = next_k;
        next_k += 1;
        let line = inputs.line(k);
        let t0 = Instant::now();
        let reply = conn.roundtrip(&line)?;
        tcp_ns.push(t0.elapsed().as_nanos() as f64);
        attempted += 1;
        failed += u64::from(!reply_ok(&reply, k, inputs.variant(k)));
    }
    drop(daemon);

    let totals = t.totals();
    let us = |name: &str| totals.get(name).map_or(0.0, |x| x.self_us());
    let traced_ns: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "request" && s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let mut metrics = vec![
        Metric::new("serve.parse_request_us", us("serve.parse_request"), "us"),
        Metric::new("serve.submit_us", us("serve.submit"), "us"),
        Metric::new("serve.reply_json_us", us("serve.reply_json"), "us"),
        Metric::new(
            "serve.queue_wait_us",
            crate::stats::mean(&queue_wait_us),
            "us",
        ),
        Metric::new(
            "serve.wire_us",
            (median(&tcp_ns) - median(&path_ns)) / 1e3,
            "us",
        ),
        Metric::new(
            "serve.shed.overloaded",
            counters.shed_overloaded as f64,
            "count",
        ),
        Metric::new(
            "serve.shed.rate_limited",
            counters.shed_rate_limited as f64,
            "count",
        ),
        Metric::new(
            "serve.shed.quarantined",
            counters.shed_quarantined as f64,
            "count",
        ),
        Metric::new(
            "serve.shed.fallback_only",
            counters.shed_fallback as f64,
            "count",
        ),
        Metric::new("serve.mode_transitions", transitions as f64, "count"),
        Metric::new("workloads.cache_hits", hits as f64, "count"),
        Metric::new("workloads.cache_misses", misses as f64, "count"),
        Metric::new("workloads.cache_evictions", evictions as f64, "count"),
        Metric::new(
            "trace.overhead_us",
            (median(&traced_ns) - median(&path_ns)) / 1e3,
            "us",
        ),
    ];
    metrics.extend(layers::layer_metrics(t, &counts, "request"));
    Ok(Probe {
        metrics,
        attempted,
        failed,
    })
}

/// The serve-layer probe over the figures' programs (figs_batch's traced
/// run): returns the `serve.*` metrics only.
pub fn probe(args: &Args, mut variants: Vec<Variant>, t: &mut Tracer) -> Result<Probe, String> {
    inputs::gate(&mut variants, args.nproc)?;
    let inputs = Inputs {
        variants,
        hot: true,
        seed: args.seed,
    };
    let mut probe = probe_inputs(args, &inputs, t)?;
    probe.metrics.retain(|m| m.name.starts_with("serve."));
    Ok(probe)
}

pub fn traced(args: &Args) -> Result<Report, String> {
    let hot = args.workload == "serve_hot";
    let gate_started = Instant::now();
    let inputs = generate(args, 3 * traced_cap(hot) as usize)?;
    let gate_s = gate_started.elapsed().as_secs_f64();
    let mut t = Tracer::new();
    let probe = probe_inputs(args, &inputs, &mut t)?;
    let mut metrics = probe.metrics;
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let hit_ratio = layers::ratio(
        value("workloads.cache_hits") as u64,
        value("workloads.cache_misses") as u64,
    );
    metrics.extend([
        Metric::new("workloads.cache_hit_ratio", hit_ratio, "ratio"),
        Metric::new(
            "runtime.spawns_per_run",
            layers::spawns_per_run() as f64,
            "count",
        ),
        Metric::new("workloads.steals", 0.0, "count"),
        Metric::new("workloads.stolen_jobs", 0.0, "count"),
        Metric::new("workloads.chunks_claimed", 0.0, "count"),
        Metric::new(
            "fail_frac",
            probe.failed as f64 / probe.attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    crate::write_trace(args, &t)?;
    Ok(Report {
        correct: probe.failed == 0,
        attempted: probe.attempted,
        failed: probe.failed,
        metrics: crate::order_layer_metrics(metrics)?,
        stamp: vec![
            ("gate_s".into(), format!("{gate_s:.3}")),
            (
                "traced_requests".into(),
                t.coverage("request").2.to_string(),
            ),
        ],
    })
}
