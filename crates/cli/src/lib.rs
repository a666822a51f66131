//! Implementation of the `ent` command-line driver.
//!
//! Subcommands:
//!
//! * `ent check <file.ent>` — parse and typecheck; print diagnostics with
//!   source locations. With `--energy-types`, additionally reject the
//!   dynamic features the static predecessor system cannot express.
//! * `ent run <file.ent>` — compile and run `Main.main()` on a simulated
//!   platform, printing the program output, the result, and the energy
//!   measurement. Options: `--platform a|b|c`, `--battery <0..1>`,
//!   `--seed <n>`, `--silent`, `--trace`, `--events`, `--events-limit <n>`,
//!   `--profile exact|sampled|off`, `--sample-period <n>`,
//!   `--sample-seed <n>`, `--metrics-json <path>`, `--faults <spec>`,
//!   `--fault-seed <n>`, `--staleness-bound <s>`.
//!
//! Exit codes distinguish failure classes (see [`USAGE`]): 1 usage,
//! 2 compile, 3 runtime, 4 completed-but-degraded under `--faults`,
//! 5 requires-ENT under `check --energy-types`.
//! * `ent fmt <file.ent>` — parse and pretty-print to canonical form.
//!
//! The library half exists so integration tests can drive the CLI without
//! spawning processes.

use std::fmt::Write as _;

use ent_baselines::{check_energy_types, EnergyTypesResult};
use ent_core::compile;
use ent_energy::{FaultPlan, Platform};
use ent_runtime::{
    lower_program, render_event, run, run_lowered, Enforcement, Engine, ProfileMode, RuntimeConfig,
    TierUp,
};
use ent_syntax::{parse_program, print_program};

/// Exit code: success.
pub const EXIT_OK: i32 = 0;
/// Exit code: bad invocation (unknown flag, unreadable file, bad spec).
pub const EXIT_USAGE: i32 = 1;
/// Exit code: the program failed to parse or typecheck.
pub const EXIT_COMPILE: i32 = 2;
/// Exit code: the program compiled but stopped with a runtime error.
pub const EXIT_RUNTIME: i32 = 3;
/// Exit code: the run completed, but only by degrading mode decisions to
/// their conservative bound after sensor faults exhausted the
/// last-known-good window (only reachable with `--faults`).
pub const EXIT_DEGRADED: i32 = 4;
/// Exit code: `check --energy-types` found a well-typed program that
/// needs ENT's dynamic features (mixed typechecking's "requires ENT").
pub const EXIT_REQUIRES_ENT: i32 = 5;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// The subcommand.
    pub command: Command,
    /// The `.ent` source path.
    pub path: String,
    /// Platform: "a", "b", or "c".
    pub platform: String,
    /// Initial battery level.
    pub battery: f64,
    /// RNG seed.
    pub seed: u64,
    /// Run silent (suppress ENT runtime errors).
    pub silent: bool,
    /// Print a temperature trace after the run.
    pub trace: bool,
    /// Print the structured energy-event log after the run (§6.3's
    /// debugging view).
    pub events: bool,
    /// Ring-buffer capacity for event recording (`None` = the runtime
    /// default).
    pub events_limit: Option<usize>,
    /// Profiling mode from `--profile exact|sampled|off` (default off).
    pub profile: ProfileMode,
    /// Mean steps between stack samples, from `--sample-period`
    /// (sampled mode only; `None` = the mode default, 256).
    pub sample_period: Option<u64>,
    /// Jitter seed for the sample schedule, from `--sample-seed`
    /// (sampled mode only; `None` = 0).
    pub sample_seed: Option<u64>,
    /// Write the machine-readable run telemetry JSON to this path.
    pub metrics_json: Option<String>,
    /// Apply the Energy Types (static-only) restriction in `check`.
    pub energy_types: bool,
    /// Interpreter stack size in bytes (`None` = the runtime default,
    /// 512 MiB or `ENT_STACK_SIZE`).
    pub stack_size: Option<usize>,
    /// Fault plan from `--faults` ("off", "chaos", or key=value pairs);
    /// `None` when absent or a no-op.
    pub faults: Option<FaultPlan>,
    /// Seed for the fault injector's deterministic schedule.
    pub fault_seed: u64,
    /// How long a last-known-good sensor reading may be served after a
    /// fault before decisions degrade (`None` = the runtime default).
    pub staleness_bound: Option<f64>,
    /// Engine from `--engine` (`None` = [`Engine::from_env`]: the
    /// `ENT_ENGINE` environment variable, else bytecode).
    pub engine: Option<Engine>,
    /// Tier-up threshold from `--tier-up` (`None` = [`TierUp::from_env`]:
    /// the `ENT_TIER_UP` environment variable, else off). Only the
    /// bytecode engine reads it.
    pub tier_up: Option<TierUp>,
    /// Enforcement strategy from `--enforce` (`None` =
    /// [`Enforcement::from_env`]: the `ENT_ENFORCE` environment variable,
    /// else guarded).
    pub enforce: Option<Enforcement>,
}

/// The CLI subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Parse + typecheck.
    Check,
    /// Compile + run.
    Run,
    /// Pretty-print.
    Fmt,
    /// Evaluate a single expression (the argument is the expression, not
    /// a path).
    Eval,
}

/// Usage text.
pub const USAGE: &str = "\
usage: ent <command> <file.ent> [options]

commands:
  check    parse and typecheck the program
  run      compile and run Main.main() on a simulated platform
  fmt      parse and pretty-print to canonical form
  eval     evaluate one expression, e.g. ent eval '1 + 2 * 3'

options:
  --platform <a|b|c>   simulated platform (default: a, the Intel laptop)
  --battery <0..1>     initial battery level (default: 1.0)
  --seed <n>           simulator seed (default: 0)
  --silent             suppress ENT runtime errors (the paper's silent mode)
  --trace              print a temperature trace after the run
  --events             print the energy-event log (snapshots, modes, failures)
  --events-limit <n>   retain only the newest <n> events (ring buffer size)
  --profile <mode>     collect and print per-method energy attribution:
                       exact (the shadow-call-tree ground truth), sampled
                       (periodic stack sampling, ~zero overhead, estimates
                       with 95% confidence intervals), or off (default)
  --sample-period <n>  sampled profile: mean steps between stack samples,
                       at least 1 (default: 256; requires sampled mode)
  --sample-seed <n>    sampled profile: seed for the jittered sample
                       schedule; the same seed and period replay the
                       identical samples (default: 0; requires sampled mode)
  --metrics-json <p>   write machine-readable run telemetry JSON to <p>
  --stack-size <n>     interpreter stack size in bytes, or with a k/m/g
                       suffix (default: 512m, or the ENT_STACK_SIZE env var)
  --energy-types       (check) also enforce the static-only Energy Types subset
  --faults <spec>      inject deterministic sensor faults: off, chaos, or
                       key=value pairs (dropout=0.2,stale=0.1,spike=0.1,
                       spike_mag=0.5,brownouts=2,brownout_drop=0.05,bursts=1,
                       burst_temp=30,burst_width=5,stall=0.1,window=1,horizon=60)
  --fault-seed <n>     seed for the fault schedule (default: 0); the same
                       seed replays the identical fault realization
  --staleness-bound <s> seconds a last-known-good sensor reading may be served
                       after a fault before decisions degrade; must be a
                       positive number (default: 5)
  --engine <e>         method-body execution engine: bytecode (the register
                       VM, default) or tree (the recursive evaluator); both
                       produce bit-identical results (ENT_ENGINE env default)
  --tier-up <n>        when the bytecode engine compiles a hot method body to
                       its closure-threaded tier (deopting back to bytecode
                       where a guard fails): 0 = on first call, off = never,
                       else after <n> calls (default: 8; ENT_TIER_UP env
                       default); results are bit-identical at every setting
  --enforce <s>        mode-check enforcement strategy: guarded (deep snapshot
                       boundaries + dynamic waterfall, the paper's semantics,
                       default) or transient (shallow first-order checks at
                       boundaries, call sites, and field reads; never copies;
                       failures blame the check site) (ENT_ENFORCE env default)

exit codes:
  0  success
  1  bad invocation (unknown flag, unreadable file, malformed spec)
  2  the program failed to parse or typecheck
  3  the program stopped with a runtime error
  4  the run completed only by degrading mode decisions to their
     conservative bound (sensor faults outlived the staleness bound)
  5  check --energy-types: well-typed, but requires ENT's dynamic features
";

/// Parses command-line arguments (excluding the program name).
///
/// # Errors
///
/// Returns a usage-style message for unknown commands or malformed
/// options.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("check") => Command::Check,
        Some("run") => Command::Run,
        Some("fmt") => Command::Fmt,
        Some("eval") => Command::Eval,
        Some(other) => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    };
    let Some(path) = it.next() else {
        return Err(format!("missing <file.ent>\n\n{USAGE}"));
    };
    let mut options = Options {
        command,
        path: path.clone(),
        platform: "a".to_string(),
        battery: 1.0,
        seed: 0,
        silent: false,
        trace: false,
        events: false,
        events_limit: None,
        profile: ProfileMode::Off,
        sample_period: None,
        sample_seed: None,
        metrics_json: None,
        energy_types: false,
        stack_size: None,
        faults: None,
        fault_seed: 0,
        staleness_bound: None,
        engine: None,
        tier_up: None,
        enforce: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--platform" => {
                let v = it.next().ok_or("--platform needs a value")?;
                if !matches!(v.as_str(), "a" | "b" | "c") {
                    return Err(format!("unknown platform `{v}` (expected a, b, or c)"));
                }
                options.platform = v.clone();
            }
            "--battery" => {
                let v = it.next().ok_or("--battery needs a value")?;
                options.battery = v
                    .parse()
                    .map_err(|_| format!("malformed battery level `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|_| format!("malformed seed `{v}`"))?;
            }
            "--silent" => options.silent = true,
            "--trace" => options.trace = true,
            "--events" => options.events = true,
            "--events-limit" => {
                let v = it.next().ok_or("--events-limit needs a value")?;
                options.events_limit = Some(
                    v.parse()
                        .map_err(|_| format!("malformed events limit `{v}`"))?,
                );
            }
            "--profile" => {
                // A flag in the mode's place counts as a missing mode, so a
                // bare `--profile` gets one message wherever it stands.
                let v = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or("--profile needs a mode (exact, sampled, or off)")?;
                options.profile = ProfileMode::parse(v).ok_or_else(|| {
                    format!("unknown profile mode `{v}` (expected exact, sampled, or off)")
                })?;
            }
            "--sample-period" => {
                let v = it.next().ok_or("--sample-period needs a value in steps")?;
                let period: u64 = v
                    .parse()
                    .map_err(|_| format!("malformed sample period `{v}`"))?;
                if period == 0 {
                    return Err("sample period must be at least 1 step".to_string());
                }
                options.sample_period = Some(period);
            }
            "--sample-seed" => {
                let v = it.next().ok_or("--sample-seed needs a value")?;
                options.sample_seed = Some(
                    v.parse()
                        .map_err(|_| format!("malformed sample seed `{v}`"))?,
                );
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a path")?;
                options.metrics_json = Some(v.clone());
            }
            "--stack-size" => {
                let v = it.next().ok_or("--stack-size needs a value")?;
                options.stack_size = Some(
                    ent_runtime::parse_stack_size(v)
                        .ok_or_else(|| format!("malformed stack size `{v}` (try 512m or 1g)"))?,
                );
            }
            "--energy-types" => options.energy_types = true,
            "--faults" => {
                let v = it
                    .next()
                    .ok_or("--faults needs a spec (off, chaos, or key=value pairs)")?;
                let plan =
                    FaultPlan::parse(v).map_err(|e| format!("invalid --faults spec: {e}"))?;
                options.faults = (!plan.is_noop()).then_some(plan);
            }
            "--fault-seed" => {
                let v = it.next().ok_or("--fault-seed needs a value")?;
                options.fault_seed = v
                    .parse()
                    .map_err(|_| format!("malformed fault seed `{v}`"))?;
            }
            "--staleness-bound" => {
                let v = it
                    .next()
                    .ok_or("--staleness-bound needs a value in seconds")?;
                let bound: f64 = v
                    .parse()
                    .map_err(|_| format!("malformed staleness bound `{v}`"))?;
                if !bound.is_finite() || bound <= 0.0 {
                    return Err(format!(
                        "staleness bound must be a positive number of seconds, got `{v}`"
                    ));
                }
                options.staleness_bound = Some(bound);
            }
            "--engine" => {
                let v = it
                    .next()
                    .ok_or("--engine needs a value (tree or bytecode)")?;
                options.engine = Some(Engine::parse(v).ok_or_else(|| {
                    format!(
                        "unknown engine `{v}` (expected tree or bytecode; \
                         the threaded tier is --tier-up <n>)"
                    )
                })?);
            }
            "--tier-up" => {
                let v = it
                    .next()
                    .ok_or("--tier-up needs a value (0, off, or a count)")?;
                options.tier_up = Some(TierUp::parse(v).ok_or_else(|| {
                    format!("malformed tier-up threshold `{v}` (expected 0, off, or a count)")
                })?);
            }
            "--enforce" => {
                let v = it
                    .next()
                    .ok_or("--enforce needs a value (guarded or transient)")?;
                options.enforce = Some(Enforcement::parse(v).ok_or_else(|| {
                    format!("unknown enforcement `{v}` (expected guarded or transient)")
                })?);
            }
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    // The sampling knobs only mean something when a sampled profile is in
    // force.
    if (options.sample_period.is_some() || options.sample_seed.is_some())
        && !matches!(options.profile_mode(), ProfileMode::Sampled { .. })
    {
        return Err(
            "--sample-period and --sample-seed require sampled profiling (--profile sampled)"
                .to_string(),
        );
    }
    Ok(options)
}

impl Options {
    /// The profiling mode in force: the `--profile` mode with
    /// `--sample-period` / `--sample-seed` folded into sampled mode.
    pub fn profile_mode(&self) -> ProfileMode {
        match self.profile {
            ProfileMode::Sampled { period, seed } => ProfileMode::Sampled {
                period: self.sample_period.unwrap_or(period),
                seed: self.sample_seed.unwrap_or(seed),
            },
            other => other,
        }
    }
}

/// Runs the CLI against already-loaded source text, returning
/// `(exit_code, output)`.
pub fn execute(options: &Options, src: &str) -> (i32, String) {
    let mut out = String::new();
    match options.command {
        Command::Eval => {
            // Wrap the expression in a scratch program; string
            // concatenation renders any value kind.
            let program = format!(
                "class Main {{ unit main() {{ IO.print(\"\" + ({src})); return {{}}; }} }}"
            );
            let compiled = match compile(&program) {
                Ok(c) => c,
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                    return (EXIT_COMPILE, out);
                }
            };
            let (platform, config) = run_config(options);
            let result = run(&compiled, platform, config);
            match &result.value {
                Ok(_) => {
                    for line in &result.output {
                        let _ = writeln!(out, "{line}");
                    }
                    (EXIT_OK, out)
                }
                Err(e) => {
                    let _ = writeln!(out, "runtime error: {e}");
                    (EXIT_RUNTIME, out)
                }
            }
        }
        Command::Fmt => match parse_program(src) {
            Ok(program) => {
                out.push_str(&print_program(&program));
                (EXIT_OK, out)
            }
            Err(e) => {
                let _ = writeln!(out, "error: {}", e.render(src));
                (EXIT_COMPILE, out)
            }
        },
        Command::Check => {
            if options.energy_types {
                match check_energy_types(src) {
                    EnergyTypesResult::Static(_) => {
                        let _ = writeln!(out, "ok: well-typed under Energy Types (fully static)");
                        (EXIT_OK, out)
                    }
                    EnergyTypesResult::RequiresEnt(features) => {
                        let _ = writeln!(
                            out,
                            "requires ENT: the program is well-typed but uses dynamic features:"
                        );
                        for f in features {
                            let _ = writeln!(out, "  - {f}");
                        }
                        (EXIT_REQUIRES_ENT, out)
                    }
                    EnergyTypesResult::Rejected(e) => {
                        let _ = writeln!(out, "error: {}", e.render(src));
                        (EXIT_COMPILE, out)
                    }
                }
            } else {
                match compile(src) {
                    Ok(compiled) => {
                        let _ = writeln!(
                            out,
                            "ok: {} classes, {} modes, {} runtime obligations",
                            compiled.program.classes.len(),
                            compiled.program.mode_table.modes().len(),
                            compiled.obligations.len()
                        );
                        (EXIT_OK, out)
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {}", e.render(src));
                        (EXIT_COMPILE, out)
                    }
                }
            }
        }
        Command::Run => {
            let compiled = match compile(src) {
                Ok(c) => c,
                Err(e) => {
                    let _ = writeln!(out, "error: {}", e.render(src));
                    return (EXIT_COMPILE, out);
                }
            };
            // Lower explicitly: rendering events and profiles resolves
            // interned ids through the lowered program.
            let lowered = lower_program(&compiled);
            let outcome = run_prepared(options, &lowered);
            (outcome.code, outcome.output)
        }
    }
}

/// The rendered outcome of one program run: the exit code and the exact
/// bytes `ent run` would print, plus the headline numbers a resident
/// server feeds into its admission and mode controllers without reparsing
/// the text.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Exit code under the CLI contract (`EXIT_OK` / `EXIT_RUNTIME` /
    /// `EXIT_DEGRADED`, or `EXIT_USAGE` for a failed `--metrics-json`
    /// write).
    pub code: i32,
    /// The full human-readable report, byte-identical to `ent run`.
    pub output: String,
    /// Simulated energy spent by the run, in joules.
    pub energy_j: f64,
    /// Simulated wall time of the run, in seconds.
    pub time_s: f64,
    /// Sensor faults the injector served during the run.
    pub sensor_faults: u64,
    /// Mode decisions that fell back to the conservative bound.
    pub degraded_decisions: u64,
}

/// Runs an already-lowered program under `options` and renders the full
/// `ent run` report. This is the single rendering path: the CLI `run`
/// subcommand calls it after compiling, and the `ent-serve` workers call
/// it against cache-shared programs — which is what makes a served reply
/// byte-identical to its one-shot equivalent by construction.
pub fn run_prepared(options: &Options, lowered: &ent_runtime::LoweredProgram) -> RunOutcome {
    let mut out = String::new();
    let (platform, config) = run_config(options);
    let result = run_lowered(lowered, platform, config);
    for line in &result.output {
        let _ = writeln!(out, "{line}");
    }
    let mut code = match &result.value {
        Ok(v) => {
            let pretty = result.value_pretty.clone().unwrap_or_else(|| v.to_string());
            let _ = writeln!(out, "result: {pretty}");
            if result.stats.degraded_decisions > 0 {
                // Only reachable with --faults: the run finished, but
                // some decisions fell back to the conservative bound.
                EXIT_DEGRADED
            } else {
                EXIT_OK
            }
        }
        Err(e) => {
            let _ = writeln!(out, "runtime error: {e}");
            EXIT_RUNTIME
        }
    };
    let m = &result.measurement;
    let _ = writeln!(
        out,
        "energy: {:.2} J over {:.2} s (peak {:.1} °C, battery {:.0}%)",
        m.energy_j,
        m.time_s,
        m.peak_temp_c,
        m.battery_level * 100.0
    );
    let _ = writeln!(
        out,
        "runtime: {} snapshots, {} copies, {} EnergyExceptions, {} dynamic allocations",
        result.stats.snapshots,
        result.stats.copies,
        result.stats.energy_exceptions,
        result.stats.dynamic_allocs
    );
    if options.faults.is_some() {
        let _ = writeln!(
            out,
            "faults: {} sensor faults, {} served stale, {} degraded decisions",
            result.stats.sensor_faults, result.stats.stale_reads, result.stats.degraded_decisions
        );
    }
    if options.events {
        let _ = writeln!(out, "events:");
        if result.events.dropped() > 0 {
            let _ = writeln!(
                out,
                "  ({} older events dropped; raise --events-limit to keep more)",
                result.events.dropped()
            );
        }
        for event in &result.events {
            let _ = writeln!(out, "  {}", render_event(lowered, event));
        }
    }
    if let Some(profile) = &result.profile {
        let _ = writeln!(out, "profile:");
        for line in profile.render_table().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    if let Some(path) = &options.metrics_json {
        match std::fs::write(path, result.to_json()) {
            Ok(()) => {
                let _ = writeln!(out, "metrics: wrote {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "metrics: failed to write {path}: {e}");
                code = EXIT_USAGE;
            }
        }
    }
    if code != EXIT_USAGE && options.trace && !result.trace.is_empty() {
        let temps: Vec<f64> = result.trace.iter().map(|(_, c)| *c).collect();
        let _ = writeln!(out, "trace (°C): {}", summarize_trace(&temps));
    }
    RunOutcome {
        code,
        output: out,
        energy_j: m.energy_j,
        time_s: m.time_s,
        sensor_faults: result.stats.sensor_faults,
        degraded_decisions: result.stats.degraded_decisions,
    }
}

/// The platform and runtime configuration `options` select — the one
/// place a flag, else its environment default, becomes a run setting
/// (`run` and `eval` both run under it).
fn run_config(options: &Options) -> (Platform, RuntimeConfig) {
    let platform = match options.platform.as_str() {
        "b" => Platform::system_b(),
        "c" => Platform::system_c(),
        _ => Platform::system_a(),
    };
    let mut config = RuntimeConfig {
        silent: options.silent,
        battery_level: options.battery,
        seed: options.seed,
        trace_interval_s: options.trace.then_some(1.0),
        record_events: options.events || options.metrics_json.is_some(),
        profile: options.profile_mode(),
        faults: options.faults.clone(),
        fault_seed: options.fault_seed,
        engine: options.engine.unwrap_or_else(Engine::from_env),
        tier_up: options.tier_up.unwrap_or_else(TierUp::from_env),
        enforcement: options.enforce.unwrap_or_else(Enforcement::from_env),
        ..RuntimeConfig::default()
    };
    if let Some(limit) = options.events_limit {
        config.events_capacity = limit;
    }
    if let Some(stack) = options.stack_size {
        config.stack_size = stack;
    }
    if let Some(bound) = options.staleness_bound {
        config.staleness_bound_s = bound;
    }
    (platform, config)
}

fn summarize_trace(temps: &[f64]) -> String {
    let chunked: Vec<String> = temps
        .chunks((temps.len() / 20).max(1))
        .map(|c| format!("{:.0}", c.iter().sum::<f64>() / c.len() as f64))
        .collect();
    chunked.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_args_defaults() {
        let o = parse_args(&args(&["run", "x.ent"])).unwrap();
        assert_eq!(o.command, Command::Run);
        assert_eq!(o.platform, "a");
        assert_eq!(o.battery, 1.0);
        assert!(!o.silent);
    }

    #[test]
    fn parse_args_options() {
        let o = parse_args(&args(&[
            "run",
            "x.ent",
            "--platform",
            "b",
            "--battery",
            "0.4",
            "--seed",
            "9",
            "--silent",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(o.platform, "b");
        assert_eq!(o.battery, 0.4);
        assert_eq!(o.seed, 9);
        assert!(o.silent && o.trace);
    }

    #[test]
    fn parse_args_observability_flags() {
        let o = parse_args(&args(&[
            "run",
            "x.ent",
            "--events",
            "--events-limit",
            "64",
            "--profile",
            "exact",
            "--metrics-json",
            "m.json",
        ]))
        .unwrap();
        assert!(o.events);
        assert_eq!(o.profile, ProfileMode::Exact);
        assert_eq!(o.profile_mode(), ProfileMode::Exact);
        assert_eq!(o.events_limit, Some(64));
        assert_eq!(o.metrics_json.as_deref(), Some("m.json"));
        assert!(parse_args(&args(&["run", "x.ent", "--events-limit", "x"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--metrics-json"])).is_err());
    }

    #[test]
    fn parse_args_profile_modes() {
        let o = parse_args(&args(&["run", "x.ent", "--profile", "exact"])).unwrap();
        assert_eq!(o.profile, ProfileMode::Exact);
        let o = parse_args(&args(&["run", "x.ent", "--profile", "off"])).unwrap();
        assert_eq!(o.profile, ProfileMode::Off);
        assert_eq!(o.profile_mode(), ProfileMode::Off);
        let o = parse_args(&args(&["run", "x.ent", "--profile", "sampled"])).unwrap();
        assert_eq!(o.profile, ProfileMode::sampled_default());
        // Period and seed knobs fold into the resolved mode.
        let o = parse_args(&args(&[
            "run",
            "x.ent",
            "--profile",
            "sampled",
            "--sample-period",
            "64",
            "--sample-seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            o.profile_mode(),
            ProfileMode::Sampled {
                period: 64,
                seed: 7
            }
        );
        // A bare `--profile` is a missing mode, at the end or before
        // another flag.
        for tail in [&["--profile"][..], &["--profile", "--events"][..]] {
            let err = parse_args(&args(&[&["run", "x.ent"][..], tail].concat())).unwrap_err();
            assert!(err.contains("--profile needs a mode"), "{tail:?}: {err}");
        }
        // Invalid combinations are usage errors (exit code 1 in main).
        assert!(parse_args(&args(&["run", "x.ent", "--profile", "fast"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--sample-period", "0"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--sample-period", "64"])).is_err());
        assert!(parse_args(&args(&[
            "run",
            "x.ent",
            "--profile",
            "exact",
            "--sample-seed",
            "3"
        ]))
        .is_err());
    }

    #[test]
    fn help_offers_no_bare_profile_alias() {
        assert!(USAGE.contains("--profile <mode>"));
        assert!(!USAGE.contains("alias"));
        assert!(USAGE.contains("--sample-period"));
    }

    #[test]
    fn run_with_profile_and_metrics_json() {
        let path = std::env::temp_dir().join("ent_cli_metrics_test.json");
        let o = parse_args(&args(&[
            "run",
            "x.ent",
            "--profile",
            "exact",
            "--metrics-json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("profile:"));
        assert!(out.contains("Main.main"));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(ent_runtime::json_is_valid(&json));
        assert!(json.contains("\"profile\""));
        assert!(json.contains("\"stats\""));
        assert!(json.contains("\"measurement\""));
    }

    #[test]
    fn parse_args_stack_size() {
        let o = parse_args(&args(&["run", "x.ent", "--stack-size", "64m"])).unwrap();
        assert_eq!(o.stack_size, Some(64 * 1024 * 1024));
        let o = parse_args(&args(&["run", "x.ent"])).unwrap();
        assert_eq!(o.stack_size, None);
        assert!(parse_args(&args(&["run", "x.ent", "--stack-size", "huge"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--stack-size"])).is_err());

        // A run with a small explicit stack still completes (the depth
        // guard fires before the stack is exhausted on simple programs).
        let o = parse_args(&args(&["run", "x.ent", "--stack-size", "8m"])).unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("result: 42"));
    }

    #[test]
    fn parse_args_rejects_unknowns() {
        assert!(parse_args(&args(&["frobnicate", "x.ent"])).is_err());
        assert!(parse_args(&args(&["run"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--wat"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--platform", "z"])).is_err());
    }

    const HELLO: &str = "class Main { int main() { IO.print(\"hi\"); return 41 + 1; } }";

    #[test]
    fn check_reports_ok() {
        let o = parse_args(&args(&["check", "x.ent"])).unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, 0);
        assert!(out.contains("ok:"));
    }

    #[test]
    fn check_reports_errors_with_locations() {
        let o = parse_args(&args(&["check", "x.ent"])).unwrap();
        let (code, out) = execute(&o, "class Main { int main() { return true; } }");
        assert_eq!(code, EXIT_COMPILE);
        assert!(out.contains("1:"));
    }

    #[test]
    fn run_prints_output_result_and_measurement() {
        let o = parse_args(&args(&["run", "x.ent"])).unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, 0);
        assert!(out.contains("hi"));
        assert!(out.contains("result: 42"));
        assert!(out.contains("energy:"));
    }

    #[test]
    fn fmt_roundtrips() {
        let o = parse_args(&args(&["fmt", "x.ent"])).unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, 0);
        // The formatted output must parse again.
        assert!(parse_program(&out).is_ok());
    }

    #[test]
    fn eval_evaluates_expressions() {
        let o = parse_args(&args(&["eval", "1 + 2 * 3"])).unwrap();
        let (code, out) = execute(&o, "1 + 2 * 3");
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "7");

        let (code, out) = execute(&o, "Str.sub(\"snapshot\", 0, 4)");
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.trim(), "snap");

        let (code, out) = execute(&o, "1 +");
        assert_eq!(code, EXIT_COMPILE);
        assert!(out.contains("error"));
    }

    #[test]
    fn energy_types_check_distinguishes_static_from_dynamic() {
        let o = parse_args(&args(&["check", "x.ent", "--energy-types"])).unwrap();
        let (code, _) = execute(&o, HELLO);
        assert_eq!(code, 0);

        let dynamic = "modes { low <= high; }
            class D@mode<?> { attributor { return low; } }
            class Main { unit main() { let d = new D(); return {}; } }";
        let (code, out) = execute(&o, dynamic);
        assert_eq!(code, EXIT_REQUIRES_ENT);
        assert!(out.contains("requires ENT"));
    }

    #[test]
    fn parse_args_fault_flags() {
        let o = parse_args(&args(&[
            "run",
            "x.ent",
            "--faults",
            "dropout=0.5,window=0.5",
            "--fault-seed",
            "9",
            "--staleness-bound",
            "2.5",
        ]))
        .unwrap();
        let plan = o.faults.expect("plan parsed");
        assert_eq!(plan.dropout_rate, 0.5);
        assert_eq!(o.fault_seed, 9);
        assert_eq!(o.staleness_bound, Some(2.5));

        // "off" and a no-op spec both leave faults unset.
        let o = parse_args(&args(&["run", "x.ent", "--faults", "off"])).unwrap();
        assert!(o.faults.is_none());

        assert!(parse_args(&args(&["run", "x.ent", "--faults", "dropout=nope"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--staleness-bound", "-1"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--fault-seed"])).is_err());
    }

    #[test]
    fn parse_args_rejects_zero_and_junk_numeric_flags() {
        // Zero is meaningless for these knobs — every rejection is a
        // usage error (exit 1 in main) with a message naming the flag.
        for bad in [
            ["--staleness-bound", "0"],
            ["--staleness-bound", "0.0"],
            ["--staleness-bound", "inf"],
            ["--staleness-bound", "NaN"],
            ["--staleness-bound", "soon"],
            ["--sample-period", "0"],
        ] {
            let err = parse_args(&args(&["run", "x.ent", bad[0], bad[1]]))
                .expect_err(&format!("{} {} must be rejected", bad[0], bad[1]));
            assert!(!err.is_empty());
        }
        // The open boundary value stays accepted.
        assert!(parse_args(&args(&["run", "x.ent", "--staleness-bound", "0.001"])).is_ok());
    }

    #[test]
    fn parse_args_engine_flag_and_runs_agree() {
        let o = parse_args(&args(&["run", "x.ent", "--engine", "tree"])).unwrap();
        assert_eq!(o.engine, Some(Engine::Tree));
        let o = parse_args(&args(&["run", "x.ent", "--engine", "bytecode"])).unwrap();
        assert_eq!(o.engine, Some(Engine::Bytecode));
        assert!(parse_args(&args(&["run", "x.ent", "--engine", "jit"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--engine"])).is_err());
        // The threaded tier is a tier-up setting of bytecode, not an
        // engine, and the rejection says where it went.
        let err = parse_args(&args(&["run", "x.ent", "--engine", "threaded"])).unwrap_err();
        assert!(err.contains("--tier-up"), "{err}");

        // The flags must not change a single output byte — including the
        // threaded tier forced to compile every body (`--tier-up 0`).
        let tree = parse_args(&args(&["run", "x.ent", "--engine", "tree"])).unwrap();
        let vm = parse_args(&args(&["run", "x.ent", "--engine", "bytecode"])).unwrap();
        let th = parse_args(&args(&["run", "x.ent", "--tier-up", "0"])).unwrap();
        assert_eq!(execute(&tree, HELLO), execute(&vm, HELLO));
        assert_eq!(execute(&vm, HELLO), execute(&th, HELLO));
    }

    #[test]
    fn eval_runs_under_the_run_options() {
        // System B's ambient temperature is 45 °C, System A's 42 °C.
        let o = parse_args(&args(&["eval", "Ext.temperature()", "--platform", "b"])).unwrap();
        let (code, out) = execute(&o, &o.path);
        assert_eq!(code, EXIT_OK, "{out}");
        assert_eq!(out.trim(), "45");
    }

    #[test]
    fn parse_args_enforce_flag_and_guarded_matches_default() {
        let o = parse_args(&args(&["run", "x.ent"])).unwrap();
        assert_eq!(o.enforce, None);
        let o = parse_args(&args(&["run", "x.ent", "--enforce", "guarded"])).unwrap();
        assert_eq!(o.enforce, Some(Enforcement::Guarded));
        let o = parse_args(&args(&["run", "x.ent", "--enforce", "transient"])).unwrap();
        assert_eq!(o.enforce, Some(Enforcement::Transient));
        assert!(parse_args(&args(&["run", "x.ent", "--enforce", "eager"])).is_err());
        assert!(parse_args(&args(&["run", "x.ent", "--enforce"])).is_err());

        // Explicit `--enforce guarded` is the default: byte-identical.
        let default = parse_args(&args(&["run", "x.ent"])).unwrap();
        let guarded = parse_args(&args(&["run", "x.ent", "--enforce", "guarded"])).unwrap();
        assert_eq!(execute(&default, HELLO), execute(&guarded, HELLO));

        // A program a transient run accepts agrees with guarded on output.
        let transient = parse_args(&args(&["run", "x.ent", "--enforce", "transient"])).unwrap();
        assert_eq!(execute(&transient, HELLO), execute(&guarded, HELLO));
    }

    #[test]
    fn check_reports_runtime_obligations() {
        let o = parse_args(&args(&["check", "x.ent"])).unwrap();
        let (code, out) = execute(&o, HELLO);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("runtime obligations"), "output: {out}");
    }

    #[test]
    fn usage_documents_the_exit_codes_and_fault_flags() {
        assert!(USAGE.contains("exit codes:"));
        assert!(USAGE.contains("--faults"));
        assert!(USAGE.contains("--fault-seed"));
        assert!(USAGE.contains("--staleness-bound"));
        assert!(USAGE.contains("--enforce"));
        for needle in [
            "0  success",
            "2  the program failed to parse",
            "5  check --energy-types",
        ] {
            assert!(USAGE.contains(needle), "usage missing: {needle}");
        }
    }

    #[test]
    fn parse_args_adapt_and_chunk_flags() {
        // The scheduler takes no tuning flags: its chunk is derived from
        // each batch's shape.
        for flags in [["--adapt", "on"], ["--chunk", "16"]] {
            let mut argv = vec!["run", "x.ent"];
            argv.extend(flags);
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown option `{}`", flags[0])),
                "{err}"
            );
        }
        assert!(!USAGE.contains("--adapt") && !USAGE.contains("--chunk"));
    }
}
