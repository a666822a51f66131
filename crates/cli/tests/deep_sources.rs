//! One-shot `ent` on deep sources, through the built binary: `main` runs
//! each command on the interpreter stack, so `check`, `run` and `fmt`
//! finish on a source nested 20,000 parentheses deep, and a 70,000-term
//! sum runs on bytecode with the tree walker's step count.

use std::path::PathBuf;
use std::process::Command;

use ent_runtime::json::{self, Json};

/// `return (((…1…)));` nested `depth` parentheses deep.
fn nested(depth: usize) -> String {
    format!(
        "class Main {{ int main() {{ return {}1{}; }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// `return 1 + 1 + …;` with `terms` ones.
fn sum(terms: usize) -> String {
    format!(
        "class Main {{ int main() {{ return {}; }} }}",
        vec!["1"; terms].join(" + ")
    )
}

/// A file of this test's own in the temporary directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ent-deep-{}-{name}", std::process::id()))
}

/// Runs the built `ent` with `args` and returns its exit code and
/// standard output.
fn ent(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ent"))
        .args(args)
        .output()
        .expect("the ent binary runs");
    let code = out.status.code().expect("ent exits with a code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `stats.steps` of the run telemetry at `path`.
fn steps(path: &PathBuf) -> f64 {
    let text = std::fs::read_to_string(path).expect("telemetry written");
    let doc = json::parse(&text).expect("telemetry parses");
    let stats = doc.get("stats").expect("telemetry has stats");
    stats
        .get("steps")
        .and_then(Json::as_f64)
        .expect("a step count")
}

#[test]
fn a_source_nested_20000_parentheses_deep_checks_runs_and_formats() {
    let path = temp_path("nested.ent");
    std::fs::write(&path, nested(20_000)).expect("source written");
    let file = path.to_str().expect("a UTF-8 temp path");

    let (code, out) = ent(&["check", file]);
    assert_eq!(code, 0, "{out}");
    assert!(out.lines().any(|l| l.starts_with("ok:")), "{out}");

    let (code, out) = ent(&["run", file]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("result: 1"), "{out}");

    let (code, out) = ent(&["fmt", file]);
    assert_eq!(code, 0, "{out}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_70000_term_sum_runs_on_bytecode_with_the_tree_walkers_step_count() {
    let path = temp_path("sum.ent");
    std::fs::write(&path, sum(70_000)).expect("source written");
    let file = path.to_str().expect("a UTF-8 temp path");
    let tree_json = temp_path("sum-tree.json");
    let default_json = temp_path("sum-default.json");

    let tree = tree_json.to_str().expect("a UTF-8 temp path");
    let (code, out) = ent(&["run", file, "--engine", "tree", "--metrics-json", tree]);
    assert_eq!(code, 0, "{out}");
    let default = default_json.to_str().expect("a UTF-8 temp path");
    let (code, out) = ent(&["run", file, "--metrics-json", default]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("result: 70000"), "{out}");

    assert_eq!(steps(&tree_json), steps(&default_json));
    for p in [&path, &tree_json, &default_json] {
        let _ = std::fs::remove_file(p);
    }
}
