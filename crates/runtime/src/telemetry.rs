//! Machine-readable run telemetry: [`RunResult::to_json`], the
//! `ent-run-telemetry/1` document, written through [`crate::json`] like
//! every document the workspace emits. The `*_bits` fields carry exact
//! f64 bit patterns as hex strings so consumers can compare energy/time
//! across configurations bit-for-bit, the same way the semantics
//! fingerprints do.
//!
//! [`json_is_valid`] checks a document against [`crate::json`]'s grammar;
//! tests use it to guarantee every emitted document is well-formed without
//! pulling in a JSON crate.

use crate::interp::RunResult;
use crate::json::{self, Bits, Raw};
use crate::json_fields;
use crate::profile::ProfileReport;

impl RunResult {
    /// The whole run as one JSON document: status, counters, measurement
    /// (with exact f64 bit patterns), battery/thermal trajectory summaries,
    /// event-stream accounting, and the profile when one was collected.
    ///
    /// This is what the CLI writes for `--metrics-json` and what the bench
    /// binaries embed in their per-benchmark metrics files.
    pub fn to_json(&self) -> String {
        let (s, m) = (&self.stats, &self.measurement);
        let error = self.value.as_ref().err().map(ToString::to_string);
        let value = self.value.is_ok();
        let value = value.then(|| self.value_pretty.as_deref().unwrap_or(""));
        json::to_string(json::object(|o| {
            let status = if error.is_none() { "ok" } else { "error" };
            json_fields!(o; schema = "ent-run-telemetry/1", status = status,
                error = error.as_deref(), value = value);
            o.object("stats", |o| {
                json_fields!(o, s; steps, snapshots, copies, energy_exceptions, snapshot_failures,
                    dfall_failures, transient_checks, transient_failures, dynamic_allocs, allocs,
                    sensor_faults, stale_reads, degraded_decisions);
            });
            o.object("measurement", |o| {
                json_fields!(o; energy_j = m.energy_j, energy_j_bits = Bits(m.energy_j),
                    time_s = m.time_s, time_s_bits = Bits(m.time_s));
                json_fields!(o, m; peak_temp_c, battery_level);
            });
            // Trajectory summaries from the unified sampler (null when
            // sampling was off).
            match (self.samples.first(), self.samples.last()) {
                (Some(first), Some(last)) => o.object("trajectory", |o| {
                    let temps = || self.samples.iter().map(|p| p.temp_c);
                    let n = self.samples.len();
                    json_fields!(o; samples = n, span_s = last.t_s - first.t_s,
                        battery_start = first.battery, battery_end = last.battery,
                        temp_min_c = temps().fold(f64::INFINITY, f64::min),
                        temp_mean_c = temps().sum::<f64>() / n as f64,
                        temp_max_c = temps().fold(f64::NEG_INFINITY, f64::max));
                }),
                _ => o.field("trajectory", Raw("null")),
            };
            o.field("output_lines", self.output.len());
            let e = &self.events;
            o.object("events", |o| {
                json_fields!(o; recorded = e.recorded(), retained = e.len(),
                    dropped = e.dropped(), capacity = e.capacity());
            });
            // Which strategy discharged the run's mode obligations, and
            // how often it checked/failed (the transient counters are 0
            // under guarded, whose checks are the dfall/snapshot counters
            // above).
            o.object("enforcement", |o| {
                o.field("strategy", self.enforcement.name());
                json_fields!(o, s; transient_checks, transient_failures, dfall_failures,
                    snapshot_failures);
            });
            match &self.profile {
                Some(ProfileReport::Exact(p)) => o.field("profile", p.json()),
                Some(ProfileReport::Sampled(p)) => o.field("profile", p.json()),
                None => o.field("profile", Raw("null")),
            };
        }))
    }
}

/// Whether `s` is exactly one well-formed JSON document — the grammar
/// [`crate::json::parse`] reads.
pub fn json_is_valid(s: &str) -> bool {
    crate::json::parse(s).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::{malformed, well_formed};
    use crate::json_escape;

    #[test]
    fn validator_accepts_well_formed_documents() {
        for s in well_formed() {
            assert!(json_is_valid(&s), "should accept: {s}");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for s in malformed() {
            assert!(!json_is_valid(&s), "should reject: {s}");
        }
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert!(json_is_valid(&json::to_string("x\t\"y\"\u{2}")));
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(json::to_string(5.0), "5");
        assert_eq!(json::to_string(0.25), "0.25");
        assert_eq!(json::to_string(f64::NAN), "null");
        assert!(json_is_valid(&json::to_string(1e-9)));
        assert_eq!(json::to_string(Bits(1.5)), "\"3ff8000000000000\"");
    }
}
