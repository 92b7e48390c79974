//! Runs the benchmark on tiny inputs and checks its output contract:
//! every workload passes its output checks, and every metric named in
//! the repository's `BENCHMARK.json` is reported with its unit.

use std::path::Path;
use std::process::Command;

use serde::Value;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Seq(items)) = json.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{list} entry lacks a string {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs every workload in smoke mode and returns its per-workload
/// result lines.
fn run(trace: &str) -> Vec<Value> {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seconds", "1", "--seed", "3", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "benchmark --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect();
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stdout}");
    lines
}

fn assert_reports(list: &str, trace: &str) {
    let wanted = declared(list);
    assert!(!wanted.is_empty());
    for line in run(trace) {
        assert!(
            matches!(line.get("correct"), Some(Value::Bool(true))),
            "{line:?}"
        );
        assert!(
            matches!(line.get("failed"), Some(Value::U64(0))),
            "{line:?}"
        );
        let metrics = line.get("metrics").expect("metrics object");
        for (name, unit) in &wanted {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing from {line:?}"));
            assert!(
                matches!(metric.get("value"), Some(Value::U64(_) | Value::F64(_))),
                "{name} has no numeric value"
            );
            assert!(
                matches!(metric.get("unit"), Some(Value::Str(u)) if u == unit),
                "{name} should be reported in {unit}: {metric:?}"
            );
        }
    }
}

#[test]
fn smoke_reports_every_end_to_end_metric() {
    assert_reports("end_to_end", "0");
}

#[test]
fn smoke_reports_every_per_layer_metric() {
    assert_reports("per_layer", "1");
}
