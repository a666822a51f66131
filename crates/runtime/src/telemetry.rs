//! Machine-readable run telemetry: [`RunResult::to_json`] and the small
//! JSON utilities the reporting layers share.
//!
//! The workspace deliberately has no serde dependency (offline,
//! vendored-deps-only builds), so JSON is emitted by hand here and in
//! [`crate::profile`]. The emitters keep three invariants: strings go
//! through [`json_escape`], floats go through [`json_f64`] (non-finite
//! values become `null`), and the `*_bits` fields carry exact f64 bit
//! patterns as hex strings so consumers can compare energy/time across
//! configurations bit-for-bit, the same way the semantics fingerprints do.
//!
//! [`json_is_valid`] checks a document against [`crate::json`]'s grammar;
//! tests use it to guarantee every emitted document is well-formed without
//! pulling in a JSON crate.

use std::fmt::Write as _;

use crate::interp::RunResult;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 as a JSON number (`Display` for f64 is exact-round-trip
/// and never uses exponent notation); non-finite values become `null`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `Display` prints integral floats without a fraction ("5"), which
        // is still a valid JSON number.
        s
    } else {
        "null".to_string()
    }
}

/// The exact bit pattern of an f64, as a fixed-width hex string.
pub(crate) fn json_f64_bits(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

impl RunResult {
    /// The whole run as one JSON document: status, counters, measurement
    /// (with exact f64 bit patterns), battery/thermal trajectory summaries,
    /// event-stream accounting, and the profile when one was collected.
    ///
    /// This is what the CLI writes for `--metrics-json` and what the bench
    /// binaries embed in their per-benchmark metrics files.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\": \"ent-run-telemetry/1\"");

        match &self.value {
            Ok(_) => {
                out.push_str(", \"status\": \"ok\", \"error\": null");
                let _ = write!(
                    out,
                    ", \"value\": \"{}\"",
                    json_escape(self.value_pretty.as_deref().unwrap_or(""))
                );
            }
            Err(e) => {
                let _ = write!(
                    out,
                    ", \"status\": \"error\", \"error\": \"{}\", \"value\": null",
                    json_escape(&e.to_string())
                );
            }
        }

        let s = &self.stats;
        let _ = write!(
            out,
            ", \"stats\": {{\"steps\": {}, \"snapshots\": {}, \"copies\": {}, \"energy_exceptions\": {}, \"snapshot_failures\": {}, \"dfall_failures\": {}, \"transient_checks\": {}, \"transient_failures\": {}, \"dynamic_allocs\": {}, \"allocs\": {}, \"sensor_faults\": {}, \"stale_reads\": {}, \"degraded_decisions\": {}}}",
            s.steps,
            s.snapshots,
            s.copies,
            s.energy_exceptions,
            s.snapshot_failures,
            s.dfall_failures,
            s.transient_checks,
            s.transient_failures,
            s.dynamic_allocs,
            s.allocs,
            s.sensor_faults,
            s.stale_reads,
            s.degraded_decisions,
        );

        let m = &self.measurement;
        let _ = write!(
            out,
            ", \"measurement\": {{\"energy_j\": {}, \"energy_j_bits\": {}, \"time_s\": {}, \"time_s_bits\": {}, \"peak_temp_c\": {}, \"battery_level\": {}}}",
            json_f64(m.energy_j),
            json_f64_bits(m.energy_j),
            json_f64(m.time_s),
            json_f64_bits(m.time_s),
            json_f64(m.peak_temp_c),
            json_f64(m.battery_level),
        );

        // Trajectory summaries from the unified sampler (null when sampling
        // was off).
        if self.samples.is_empty() {
            out.push_str(", \"trajectory\": null");
        } else {
            let first = self.samples.first().unwrap();
            let last = self.samples.last().unwrap();
            let n = self.samples.len();
            let temp_min = self
                .samples
                .iter()
                .map(|p| p.temp_c)
                .fold(f64::INFINITY, f64::min);
            let temp_max = self
                .samples
                .iter()
                .map(|p| p.temp_c)
                .fold(f64::NEG_INFINITY, f64::max);
            let temp_mean = self.samples.iter().map(|p| p.temp_c).sum::<f64>() / n as f64;
            let _ = write!(
                out,
                ", \"trajectory\": {{\"samples\": {}, \"span_s\": {}, \"battery_start\": {}, \"battery_end\": {}, \"temp_min_c\": {}, \"temp_mean_c\": {}, \"temp_max_c\": {}}}",
                n,
                json_f64(last.t_s - first.t_s),
                json_f64(first.battery),
                json_f64(last.battery),
                json_f64(temp_min),
                json_f64(temp_mean),
                json_f64(temp_max),
            );
        }

        let _ = write!(
            out,
            ", \"output_lines\": {}, \"events\": {{\"recorded\": {}, \"retained\": {}, \"dropped\": {}, \"capacity\": {}}}",
            self.output.len(),
            self.events.recorded(),
            self.events.len(),
            self.events.dropped(),
            self.events.capacity(),
        );

        // Which strategy discharged the run's mode obligations, and how
        // often it checked/failed (the transient counters are 0 under
        // guarded, whose checks are the dfall/snapshot counters above).
        let _ = write!(
            out,
            ", \"enforcement\": {{\"strategy\": \"{}\", \"transient_checks\": {}, \"transient_failures\": {}, \"dfall_failures\": {}, \"snapshot_failures\": {}}}",
            self.enforcement.name(),
            s.transient_checks,
            s.transient_failures,
            s.dfall_failures,
            s.snapshot_failures,
        );

        // Tiering counters. All-zero unless the bytecode engine tiered a
        // body up (by default, one invoked 8 times in a guarded run), so
        // the object is byte-identical across engines unless the threaded
        // tier actually ran — the sampled determinism gates diff full
        // telemetry lines across engines.
        let t = &self.tier;
        let _ = write!(
            out,
            ", \"tier\": {{\"threaded_entries\": {}, \"threaded_compiles\": {}, \"deopts\": {}, \"deopt_mode_window\": {}, \"deopt_ic_megamorphic\": {}, \"deopt_fault_epoch\": {}}}",
            t.threaded_entries,
            t.threaded_compiles,
            t.deopts(),
            t.deopt_mode_window,
            t.deopt_ic_megamorphic,
            t.deopt_fault_epoch,
        );

        match &self.profile {
            Some(p) => {
                let _ = write!(out, ", \"profile\": {}", p.to_json());
            }
            None => out.push_str(", \"profile\": null"),
        }

        out.push('}');
        out
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
        assert!(json_is_valid(&format!(
            "\"{}\"",
            json_escape("x\t\"y\"\u{2}")
        )));
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(json_f64(5.0), "5");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert!(json_is_valid(&json_f64(1e-9)));
        assert!(json_is_valid(&json_f64_bits(1.5)));
    }
}
