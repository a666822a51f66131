//! The `ent-serve-proto/1` wire protocol.
//!
//! Newline-delimited JSON, one request per line in, one reply per line
//! out, strictly in order per connection. A request:
//!
//! ```json
//! {"op": "run", "id": "req-1", "tenant": "alice", "src": "class Main {…}",
//!  "platform": "a", "battery": 0.8, "seed": 7,
//!  "faults": "dropout=0.2", "fault_seed": 3, "staleness_bound": 2.5}
//! ```
//!
//! `op` is one of `run`, `check`, `stats`, `health`; `src` is required
//! for `run`/`check`. The optional knobs mirror the `ent run` flags and
//! are validated by the same rules, so a served job is exactly an
//! `ent run` invocation — which is what the byte-identity guarantee is
//! stated over.
//!
//! Every reply carries `"schema": "ent-serve-proto/1"`, the request's
//! `id`, and either `"status": "ok"` with the run's exit `code` and full
//! `output` text, or `"status": "error"` with a typed `error` from the
//! fixed vocabulary in [`ErrorKind`].

use ent_cli::{Command, Options, RunOutcome};
use ent_energy::FaultPlan;
use ent_runtime::json_fields;

use crate::json::{self, Json, Raw, ToJson};

/// The protocol schema stamp.
pub const PROTO_SCHEMA: &str = "ent-serve-proto/1";
/// The stats document schema stamp.
pub const STATS_SCHEMA: &str = "ent-serve-stats/1";
/// The longest tenant name a request may carry, in bytes: names key the
/// daemon's admission table.
pub const MAX_TENANT_BYTES: usize = 256;

/// Request operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Compile (cache-shared) and run `Main.main()`.
    Run,
    /// Parse and typecheck only.
    Check,
    /// The server stats document (`ent-serve-stats/1`).
    Stats,
    /// Liveness: replies even in `fallback_only`.
    Health,
}

/// A parsed, validated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Caller-chosen correlation id, echoed in the reply.
    pub id: String,
    /// The tenant this request bills to.
    pub tenant: String,
    /// Program source (`run` / `check`).
    pub src: String,
    /// The equivalent one-shot CLI options.
    pub options: Options,
}

/// The typed error vocabulary. Every shed or failed request names one of
/// these — a client can branch on `error` without parsing prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The bounded work queue is full (back off and retry).
    Overloaded,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The tenant's energy budget is spent.
    EnergyBudget,
    /// The program is quarantined for repeated failures.
    Quarantined,
    /// The server is in `fallback_only` mode; run work is shed.
    FallbackOnly,
    /// The request line failed to parse or validate.
    BadRequest,
    /// The job panicked past its retry budget (isolated; the daemon is
    /// fine).
    Panic,
    /// The program failed to compile.
    CompileError,
}

impl ErrorKind {
    /// The wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::RateLimited => "rate_limited",
            ErrorKind::EnergyBudget => "energy_budget",
            ErrorKind::Quarantined => "quarantined",
            ErrorKind::FallbackOnly => "fallback_only",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Panic => "panic",
            ErrorKind::CompileError => "compile_error",
        }
    }
}

/// One reply, as the in-process harness sees it; [`Reply::to_json`] is
/// the wire form.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The job ran; `output` is byte-identical to `ent run`'s report and
    /// `code` is the CLI exit code (0 ok, 3 runtime error, 4 degraded).
    Done {
        /// Echoed request id.
        id: String,
        /// CLI exit code.
        code: i32,
        /// The full `ent run` report.
        output: String,
        /// Simulated joules the run spent.
        energy_j: f64,
        /// Simulated seconds the run took.
        time_s: f64,
        /// Attempts the isolation policy used (1 = first try).
        attempts: u32,
    },
    /// The request was shed or failed with a typed error.
    Error {
        /// Echoed request id.
        id: String,
        /// The typed error.
        kind: ErrorKind,
        /// Human-readable detail (compile diagnostics, panic text, …).
        message: String,
    },
    /// A stats or health document (`payload` is already a JSON object).
    Doc {
        /// Echoed request id.
        id: String,
        /// The rendered document.
        payload: String,
    },
}

impl Reply {
    /// The id this reply answers.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Reply::Done { id, .. } | Reply::Error { id, .. } | Reply::Doc { id, .. } => id,
        }
    }

    /// Renders the single-line wire form.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self.json())
    }

    /// The wire form, for writing straight into a buffer.
    pub(crate) fn json(&self) -> impl ToJson + '_ {
        json::object(move |o| {
            json_fields!(o; schema = PROTO_SCHEMA, id = self.id());
            match self {
                Reply::Done {
                    code,
                    output,
                    energy_j,
                    time_s,
                    attempts,
                    ..
                } => json_fields!(o; status = "ok", code = *code, output = output,
                    energy_j = *energy_j, time_s = *time_s, attempts = *attempts),
                Reply::Error { kind, message, .. } => {
                    json_fields!(o; status = "error", error = kind.as_str(), message = message);
                }
                Reply::Doc { payload, .. } => json_fields!(o; status = "ok", doc = Raw(payload)),
            }
        })
    }

    /// Builds the `Done` reply for a finished run.
    #[must_use]
    pub fn done(id: &str, outcome: &RunOutcome, attempts: u32) -> Reply {
        Reply::Done {
            id: id.to_string(),
            code: outcome.code,
            output: outcome.output.clone(),
            energy_j: outcome.energy_j,
            time_s: outcome.time_s,
            attempts,
        }
    }

    /// Builds a typed error reply.
    #[must_use]
    pub fn error(id: &str, kind: ErrorKind, message: impl Into<String>) -> Reply {
        Reply::Error {
            id: id.to_string(),
            kind,
            message: message.into(),
        }
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A one-line message destined for a `bad_request` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let op = match doc.get("op").and_then(Json::as_str) {
        Some("run") => Op::Run,
        Some("check") => Op::Check,
        Some("stats") => Op::Stats,
        Some("health") => Op::Health,
        Some(other) => {
            return Err(format!(
                "unknown op `{other}` (expected run, check, stats, or health)"
            ))
        }
        None => return Err("missing `op`".to_string()),
    };
    let id = match doc.get("id") {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err("`id` must be a string".to_string()),
    };
    let tenant = match doc.get("tenant") {
        None => "anonymous".to_string(),
        Some(Json::Str(s)) if s.len() > MAX_TENANT_BYTES => {
            return Err(format!("`tenant` is longer than {MAX_TENANT_BYTES} bytes"))
        }
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("`tenant` must be a non-empty string".to_string()),
    };
    let src = match doc.get("src") {
        None if matches!(op, Op::Run | Op::Check) => {
            return Err("missing `src` for run/check".to_string())
        }
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err("`src` must be a string".to_string()),
    };

    // Everything not exposed over the wire keeps its CLI default, so the
    // served run equals `ent run <file> [flags]` exactly.
    let mut options = Options::new(Command::Run, String::new());
    if matches!(op, Op::Check) {
        options.command = Command::Check;
    }
    if let Some(v) = doc.get("platform") {
        match v.as_str() {
            Some(p @ ("a" | "b" | "c")) => options.platform = p.to_string(),
            _ => return Err("`platform` must be \"a\", \"b\", or \"c\"".to_string()),
        }
    }
    if let Some(v) = doc.get("battery") {
        match v.as_f64() {
            Some(b) if (0.0..=1.0).contains(&b) => options.battery = b,
            _ => return Err("`battery` must be a number in [0, 1]".to_string()),
        }
    }
    if let Some(v) = doc.get("seed") {
        options.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?;
    }
    if let Some(v) = doc.get("silent") {
        options.silent = v.as_bool().ok_or("`silent` must be a boolean")?;
    }
    if let Some(v) = doc.get("faults") {
        let spec = v.as_str().ok_or("`faults` must be a spec string")?;
        let plan = FaultPlan::parse(spec).map_err(|e| format!("invalid `faults` spec: {e}"))?;
        options.faults = (!plan.is_noop()).then_some(plan);
    }
    if let Some(v) = doc.get("fault_seed") {
        options.fault_seed = v
            .as_u64()
            .ok_or("`fault_seed` must be a non-negative integer")?;
    }
    if let Some(v) = doc.get("staleness_bound") {
        match v.as_f64() {
            Some(b) if b.is_finite() && b > 0.0 => options.staleness_bound = Some(b),
            _ => return Err("`staleness_bound` must be a positive number of seconds".to_string()),
        }
    }
    Ok(Request {
        op,
        id,
        tenant,
        src,
        options,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_request_with_knobs() {
        let r = parse_request(
            r#"{"op": "run", "id": "r1", "tenant": "alice", "src": "class Main {}",
                "platform": "b", "battery": 0.5, "seed": 9,
                "faults": "dropout=0.5", "fault_seed": 2, "staleness_bound": 1.5}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.id, "r1");
        assert_eq!(r.tenant, "alice");
        assert_eq!(r.options.platform, "b");
        assert_eq!(r.options.battery, 0.5);
        assert_eq!(r.options.seed, 9);
        assert!(r.options.faults.is_some());
        assert_eq!(r.options.staleness_bound, Some(1.5));
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse_request(r#"{"op": "run", "src": "class Main {}"}"#).unwrap();
        assert_eq!(r.tenant, "anonymous");
        assert_eq!(r.options.platform, "a");
        assert_eq!(r.options.battery, 1.0);
        assert_eq!(r.options.seed, 0);
        assert!(!r.options.silent);
        assert!(r.options.faults.is_none());
    }

    #[test]
    fn an_over_long_tenant_name_is_a_bad_request() {
        let line = |n: usize| {
            format!(
                r#"{{"op": "run", "tenant": "{}", "src": "class Main {{}}"}}"#,
                "t".repeat(n)
            )
        };
        assert!(parse_request(&line(MAX_TENANT_BYTES)).is_ok());
        let err = parse_request(&line(MAX_TENANT_BYTES + 1)).unwrap_err();
        assert!(err.contains(&MAX_TENANT_BYTES.to_string()), "{err}");
    }

    #[test]
    fn stats_and_health_need_no_src() {
        assert_eq!(parse_request(r#"{"op": "stats"}"#).unwrap().op, Op::Stats);
        assert_eq!(parse_request(r#"{"op": "health"}"#).unwrap().op, Op::Health);
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "malformed literal"),
            (r#"{"op": "fly"}"#, "unknown op"),
            (r#"{"src": "x"}"#, "missing `op`"),
            (r#"{"op": "run"}"#, "missing `src`"),
            (r#"{"op": "run", "src": "x", "battery": 7}"#, "battery"),
            (r#"{"op": "run", "src": "x", "platform": "z"}"#, "platform"),
            (
                r#"{"op": "run", "src": "x", "staleness_bound": 0}"#,
                "staleness_bound",
            ),
            (r#"{"op": "run", "src": "x", "seed": -1}"#, "seed"),
            (r#"{"op": "run", "src": "x", "tenant": ""}"#, "tenant"),
            (
                r#"{"op": "run", "src": "x", "faults": "dropout=never"}"#,
                "faults",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` gave `{err}`");
        }
    }

    #[test]
    fn replies_render_valid_single_line_json() {
        let replies = [
            Reply::Done {
                id: "a\"b".to_string(),
                code: 0,
                output: "result: 42\nenergy: 1.00 J\n".to_string(),
                energy_j: 1.0,
                time_s: 0.5,
                attempts: 2,
            },
            Reply::error("r2", ErrorKind::Overloaded, "queue full (16 deep)"),
            Reply::Doc {
                id: String::new(),
                payload: "{\"mode\": \"normal\"}".to_string(),
            },
        ];
        for reply in &replies {
            let line = reply.to_json();
            assert!(ent_runtime::json_is_valid(&line), "{line}");
            assert!(!line.contains('\n'), "wire form is one line: {line}");
            assert!(line.contains(PROTO_SCHEMA));
        }
        // The typed error vocabulary is stable.
        assert_eq!(ErrorKind::Quarantined.as_str(), "quarantined");
        assert_eq!(ErrorKind::FallbackOnly.as_str(), "fallback_only");
        // Round-trip: the output bytes survive escape + parse exactly.
        let Reply::Done { output, .. } = &replies[0] else {
            unreachable!()
        };
        let parsed = crate::json::parse(&replies[0].to_json()).unwrap();
        assert_eq!(
            parsed.get("output").and_then(crate::json::Json::as_str),
            Some(output.as_str())
        );
    }
}
