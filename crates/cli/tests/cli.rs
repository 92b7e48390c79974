//! End-to-end tests of the `adalsh` binary: generate → info → filter →
//! evaluate over a temporary dataset file.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adalsh"))
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("adalsh_cli_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

fn generate(path: &Path) {
    let out = bin()
        .args([
            "generate",
            "spotsigs",
            "--out",
            path.to_str().unwrap(),
            "--records",
            "300",
            "--entities",
            "40",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn generate_then_info() {
    let path = tmpfile("gi.jsonl");
    generate(&path);
    let out = bin()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("records:  300"), "{text}");
    assert!(text.contains("signatures"), "{text}");
}

#[test]
fn filter_prints_clusters_and_writes_json() {
    let data = tmpfile("f.jsonl");
    let clusters = tmpfile("f_clusters.json");
    generate(&data);
    let out = bin()
        .args([
            "filter",
            data.to_str().unwrap(),
            "--k",
            "3",
            "--rule",
            "jaccard:0.6",
            "--out",
            clusters.to_str().unwrap(),
        ])
        .output()
        .expect("run filter");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("adaLSH: 3 clusters"), "{text}");
    let json = std::fs::read_to_string(&clusters).expect("clusters file");
    let parsed: Vec<Vec<u32>> = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed.len(), 3);
}

#[test]
fn evaluate_reports_metrics() {
    let data = tmpfile("e.jsonl");
    generate(&data);
    let out = bin()
        .args(["evaluate", data.to_str().unwrap(), "--k", "3"])
        .output()
        .expect("run evaluate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("F1 gold:"), "{text}");
    assert!(text.contains("with recovery:"), "{text}");
}

#[test]
fn evaluate_methods_agree() {
    let data = tmpfile("m.jsonl");
    generate(&data);
    for method in ["adalsh", "pairs", "lsh320"] {
        let out = bin()
            .args([
                "evaluate",
                data.to_str().unwrap(),
                "--k",
                "2",
                "--method",
                method,
            ])
            .output()
            .expect("run evaluate");
        assert!(
            out.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let data = tmpfile("t.jsonl");
    generate(&data);
    let run = |method: &str, threads: &str| {
        let out = bin()
            .args([
                "filter",
                data.to_str().unwrap(),
                "--k",
                "3",
                "--method",
                method,
                "--threads",
                threads,
            ])
            .output()
            .expect("run filter");
        assert!(
            out.status.success(),
            "--method {method} --threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Identical clusters and identical operation counts at any thread
    // count — the parallel path's determinism contract, for every
    // method that runs `P` or threaded hashing.
    let strip_time = |s: &str| {
        s.lines()
            .map(|l| {
                if let (Some(i), Some(j)) = (l.find("clusters, "), l.find(" (")) {
                    format!("{}{}", &l[..i], &l[j..])
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    for method in ["adalsh", "pairs", "lsh320"] {
        let single = run(method, "1");
        let multi = run(method, "4");
        assert_eq!(strip_time(&single), strip_time(&multi), "method {method}");
    }
}

#[test]
fn serve_boots_answers_health_and_topk_and_dies_cleanly() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let data = tmpfile("serve.jsonl");
    generate(&data);

    let mut child = bin()
        .args([
            "serve",
            data.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--rule",
            "jaccard:0.6",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The server prints its bound address once ready; with port 0 this
    // is the only way to learn the ephemeral port.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("listening on http://") {
            break rest.to_string();
        }
    };

    let http = |raw: String| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        response
    };

    let health = http("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string());
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"records\":300"), "{health}");

    let topk = http("GET /topk?k=2 HTTP/1.1\r\nHost: t\r\n\r\n".to_string());
    assert!(topk.starts_with("HTTP/1.1 200"), "{topk}");
    assert!(topk.contains("\"clusters\":"), "{topk}");

    let metrics = http("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".to_string());
    assert!(metrics.contains("adalsh_requests_total"), "{metrics}");

    child.kill().expect("kill serve");
    child.wait().expect("reap serve");
}

#[test]
fn filter_trace_roundtrip_validates_and_summarizes() {
    let data = tmpfile("tr.jsonl");
    let trace = tmpfile("tr_trace.jsonl");
    generate(&data);
    let out = bin()
        .args([
            "filter",
            data.to_str().unwrap(),
            "--k",
            "3",
            "--rule",
            "jaccard:0.6",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run filter");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace written to"), "{text}");

    // Every line is a flat JSON event, bracketed by run_start/run_end.
    let raw = std::fs::read_to_string(&trace).expect("trace file");
    assert!(raw.contains("\"ev\":\"run_start\""), "{raw}");
    assert!(raw.contains("\"ev\":\"run_end\""), "{raw}");

    // `trace validate` reconciles the events against the Stats totals.
    let out = bin()
        .args(["trace", "validate", trace.to_str().unwrap()])
        .output()
        .expect("run trace validate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OK"), "{text}");
    assert!(text.contains("1 complete run"), "{text}");

    // `trace summarize` renders the per-level table.
    let out = bin()
        .args(["trace", "summarize", trace.to_str().unwrap()])
        .output()
        .expect("run trace summarize");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("H1"), "{text}");
    assert!(text.contains("level"), "{text}");
}

/// The `u64` value of `field` in one JSONL trace line.
fn json_u64(line: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {line}"))
        + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {line}"))
}

#[test]
fn filter_trace_carries_spans_and_attributes() {
    let data = tmpfile("sp.jsonl");
    generate(&data);
    // The exact oracle, then a seeded noisy one whose `pairwise` span
    // carries the segment's oracle calls and spend.
    let noisy: &[&str] = &["--oracle", "noisy", "--oracle-seed", "11"];
    for (name, oracle) in [("exact", &[][..]), ("noisy", noisy)] {
        let trace = tmpfile(&format!("sp_trace_{name}.jsonl"));
        let out = bin()
            .args([
                "filter",
                data.to_str().unwrap(),
                "--k",
                "3",
                "--rule",
                "jaccard:0.6",
                "--trace-out",
                trace.to_str().unwrap(),
            ])
            .args(oracle)
            .output()
            .expect("run filter");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        // The trace carries the filter_run span tree alongside the
        // engine events: a root with design/resolve phases plus the
        // engine-derived hash_rounds/pairwise children.
        let raw = std::fs::read_to_string(&trace).expect("trace file");
        for op in ["filter_run", "design", "resolve", "hash_rounds", "pairwise"] {
            assert!(
                raw.contains(&format!("\"op\":\"{op}\"")),
                "{name}: missing span op {op} in:\n{raw}"
            );
        }
        let pairwise = raw
            .lines()
            .find(|l| l.contains("\"ev\":\"span\"") && l.contains("\"op\":\"pairwise\""))
            .expect("pairwise span");
        let (calls, spend) = (
            json_u64(pairwise, "oracle_calls"),
            json_u64(pairwise, "oracle_spend"),
        );
        if oracle.is_empty() {
            assert_eq!((calls, spend), (0, 0), "{pairwise}");
        } else {
            assert!(calls > 0 && spend > 0, "{pairwise}");
        }

        // `trace validate` checks the span-tree invariants too,
        // including the pairwise span's oracle sums.
        let out = bin()
            .args(["trace", "validate", trace.to_str().unwrap()])
            .output()
            .expect("run trace validate");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        // `trace attribute` renders the per-phase latency breakdown.
        let out = bin()
            .args(["trace", "attribute", trace.to_str().unwrap()])
            .output()
            .expect("run trace attribute");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("filter_run"), "{name}: {text}");
        assert!(text.contains("resolve"), "{name}: {text}");
    }
}

/// A crafted span whose window end wraps past `u64::MAX` would pass the
/// containment check if the end were computed with wrapping arithmetic.
/// Both trace commands that read span trees reject the file instead.
#[test]
fn overflowing_span_windows_are_rejected() {
    let trace = tmpfile("overflow_trace.jsonl");
    std::fs::write(
        &trace,
        "{\"ev\":\"span\",\"span_id\":1,\"parent_span_id\":0,\"op\":\"filter_run\",\
         \"start_micros\":0,\"duration_micros\":100}\n\
         {\"ev\":\"span\",\"span_id\":2,\"parent_span_id\":1,\"op\":\"resolve\",\
         \"start_micros\":18446744073709551610,\"duration_micros\":10}\n",
    )
    .unwrap();
    for action in ["validate", "attribute"] {
        let out = bin()
            .args(["trace", action, trace.to_str().unwrap()])
            .output()
            .expect("run trace");
        assert_eq!(out.status.code(), Some(1), "{action}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(
                "event 1: span window start 18446744073709551610 + duration 10 overflows u64"
            ),
            "{action}: {err}"
        );
    }
}

#[test]
fn bench_diff_gates_regressions() {
    let base = tmpfile("bd_base.json");
    let good = tmpfile("bd_good.json");
    let warn = tmpfile("bd_warn.json");
    let bad = tmpfile("bd_bad.json");
    std::fs::write(&base, "{\"run_seconds\": 1.0, \"ingest_qps\": 100.0}\n").unwrap();
    std::fs::write(&good, "{\"run_seconds\": 1.05, \"ingest_qps\": 98.0}\n").unwrap();
    std::fs::write(&warn, "{\"run_seconds\": 1.6, \"ingest_qps\": 100.0}\n").unwrap();
    std::fs::write(&bad, "{\"run_seconds\": 4.0, \"ingest_qps\": 100.0}\n").unwrap();

    let diff = |cur: &Path, smoke: bool| {
        let mut cmd = bin();
        cmd.args([
            "bench",
            "diff",
            cur.to_str().unwrap(),
            base.to_str().unwrap(),
        ]);
        if smoke {
            cmd.arg("--smoke");
        }
        cmd.output().expect("run bench diff")
    };

    // Within noise: passes either way.
    let out = diff(&good, false);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bench diff OK"));

    // 1.6x: strict mode fails, smoke tolerates it as a warning.
    let out = diff(&warn, false);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("regression gate failed"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = diff(&warn, true);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 4x: fails even the smoke gate.
    let out = diff(&bad, true);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("run_seconds"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bench_diff_rejects_disjoint_files() {
    let a = tmpfile("bd_a.json");
    let b = tmpfile("bd_b.json");
    std::fs::write(&a, "{\"x_seconds\": 1.0}\n").unwrap();
    std::fs::write(&b, "{\"y_seconds\": 1.0}\n").unwrap();
    let out = bin()
        .args(["bench", "diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run bench diff");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no numeric metrics"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn trace_out_rejected_for_untraced_methods() {
    let data = tmpfile("trm.jsonl");
    generate(&data);
    let out = bin()
        .args([
            "filter",
            data.to_str().unwrap(),
            "--k",
            "2",
            "--method",
            "pairs",
            "--trace-out",
            tmpfile("trm_trace.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("run filter");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("adaLSH"), "{err}");
}

/// An LSH-X budget the rule cannot use is a usage error naming the
/// method, never a panic: no functions at all, and five functions, too
/// few to meet constraint (3) at Jaccard 0.6.
#[test]
fn lsh_budgets_the_rule_cannot_use_are_errors() {
    let data = tmpfile("lsh_bad_x.jsonl");
    generate(&data);
    for method in ["lsh0", "lsh5"] {
        let out = bin()
            .args([
                "filter",
                data.to_str().unwrap(),
                "--k",
                "3",
                "--rule",
                "jaccard:0.6",
                "--method",
                method,
            ])
            .output()
            .expect("run filter");
        assert_eq!(out.status.code(), Some(1), "{method} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("'{method}'")), "{err}");
    }
}

#[test]
fn trace_validate_rejects_garbage() {
    let bad = tmpfile("garbage.jsonl");
    std::fs::write(&bad, "{\"ev\":\"not_an_event\"}\n").unwrap();
    let out = bin()
        .args(["trace", "validate", bad.to_str().unwrap()])
        .output()
        .expect("run trace validate");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown event"), "{err}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
}

/// A flag the command does not take — a removed one or a typo — is a
/// usage error naming the flag and the command, never silently ignored.
#[test]
fn unknown_flags_are_rejected() {
    let data = tmpfile("unknown_flags.jsonl");
    generate(&data);
    let data = data.to_str().unwrap();
    for (argv, flag) in [
        (
            vec!["filter", data, "--k", "2", "--minhash-scheme", "doph"],
            "--minhash-scheme for filter",
        ),
        (
            vec!["evaluate", data, "--k", "2", "--minhash-scheme", "classic"],
            "--minhash-scheme for evaluate",
        ),
        (
            vec!["filter", data, "--k", "2", "--thread", "2"],
            "--thread for filter",
        ),
        (vec!["info", data, "--smoke"], "--smoke for info"),
        (
            vec!["serve", data, "--minhash-scheme", "doph"],
            "--minhash-scheme for serve",
        ),
    ] {
        let out = bin().args(&argv).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} must not run the command");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

#[test]
fn missing_file_fails_cleanly() {
    let out = bin()
        .args(["info", "/nonexistent/nope.jsonl"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = bin().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
