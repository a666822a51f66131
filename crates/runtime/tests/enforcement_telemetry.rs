//! The `enforcement` object of `ent-run-telemetry/1`: every run document
//! names the strategy that produced it and carries that strategy's check
//! counters, so downstream consumers can tell a guarded measurement from
//! a transient one without out-of-band context.

use ent_core::compile;
use ent_energy::Platform;
use ent_runtime::{json_is_valid, run, Enforcement, RunResult, RuntimeConfig};

const PROGRAM: &str = "
modes { low <= high; }
class Job@mode<? <= J> {
  int n;
  attributor {
    if (Ext.battery() >= 0.5) { return high; } else { return low; }
  }
  int work(int k) {
    Sim.work(\"cpu\", 10000.0);
    if (k <= 1) { return this.n; }
    return this.work(k - 1);
  }
}
class Main {
  int main() {
    let dj = new Job(7);
    let Job j = snapshot dj [_, _];
    return j.work(5);
  }
}";

fn run_with(enforcement: Enforcement) -> RunResult {
    let compiled = compile(PROGRAM).unwrap_or_else(|e| panic!("{}", e.render(PROGRAM)));
    run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            enforcement,
            battery_level: 0.9,
            seed: 3,
            ..RuntimeConfig::default()
        },
    )
}

#[test]
fn guarded_document_names_its_strategy_with_idle_counters() {
    let result = run_with(Enforcement::Guarded);
    assert!(result.value.is_ok());
    let json = result.to_json();
    assert!(json_is_valid(&json), "malformed telemetry: {json}");
    assert!(
        json.contains("\"enforcement\": {\"strategy\": \"guarded\", \"transient_checks\": 0, \"transient_failures\": 0,"),
        "{json}"
    );
    // The stats block carries the same counters for flat consumers.
    assert!(json.contains("\"transient_checks\": 0"), "{json}");
}

#[test]
fn transient_document_counts_its_checks() {
    let result = run_with(Enforcement::Transient);
    assert!(result.value.is_ok());
    let json = result.to_json();
    assert!(json_is_valid(&json), "malformed telemetry: {json}");
    assert!(
        json.contains("\"enforcement\": {\"strategy\": \"transient\""),
        "{json}"
    );
    let checks = result.stats.transient_checks;
    assert!(checks > 0, "the program sends and snapshots");
    assert!(
        json.contains(&format!(
            "\"strategy\": \"transient\", \"transient_checks\": {checks}, \"transient_failures\": 0,"
        )),
        "{json}"
    );
}

#[test]
fn failed_transient_run_still_reports_the_enforcement_object() {
    let src = "
modes { low <= high; }
class Hot@mode<H> {
  int f()
    attributor { if (Ext.battery() >= 0.0) { return high; } else { return low; } }
  { return 1; }
}
class Cold@mode<low> {
  Hot@mode<low> h;
  int go() { return this.h.f(); }
}
class Main {
  int main() {
    let c = new Cold(new Hot@mode<low>());
    return c.go();
  }
}";
    let compiled = compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let result = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            enforcement: Enforcement::Transient,
            battery_level: 0.9,
            seed: 3,
            ..RuntimeConfig::default()
        },
    );
    let err = result.value.as_ref().expect_err("the check must fail");
    assert!(
        err.to_string()
            .contains("transient check failed at call site"),
        "unexpected error: {err}"
    );
    let json = result.to_json();
    assert!(json_is_valid(&json), "malformed telemetry: {json}");
    assert!(json.contains("\"status\": \"error\""), "{json}");
    assert!(json.contains("\"strategy\": \"transient\""), "{json}");
    assert!(json.contains("\"transient_failures\": 1"), "{json}");
    // Guarded blame counters stay untouched by a transient failure.
    assert!(
        json.contains("\"dfall_failures\": 0") && json.contains("\"snapshot_failures\": 0"),
        "{json}"
    );
}
