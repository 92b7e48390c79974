//! The adaLSH benchmark: one command that runs seeded workloads,
//! prints every metric by name and unit, and checks that the engine's
//! outputs are correct.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spotsigs-deep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Flags:
//!
//! * `--workload <name>` — one of [`WORKLOADS`]; all of them when absent.
//! * `--seed <n>` — every input is generated from it (default
//!   [`DEFAULT_SEED`]); the same seed gives the same inputs.
//! * `--seconds <s>` — how long the timed phase of each workload runs
//!   (default [`DEFAULT_SECONDS`]).
//! * `--trace <0|1>` — `0` reports the end-to-end metrics, measured with
//!   tracing off; `1` adds a separate traced pass and reports the
//!   per-layer metrics taken from it.
//! * `--trace-out <file>` — with one workload, also writes the traced
//!   pass as span JSONL that `adalsh trace attribute` renders (implies
//!   `--trace 1`).
//! * `--out <file>` — writes every metric, including the diagnostics
//!   that are printed but not reported to a caller, as JSON.
//! * `--smoke` — tiny inputs; the whole suite finishes in seconds.
//!
//! The last line of standard output is one JSON object per workload:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits 1 when any output check failed and 2 on bad
//! arguments. See `BENCHMARK.md` beside this crate for the workloads,
//! the metric dictionary and the A/B protocol.

mod batch;
mod fold;
mod http;
mod input;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use adalsh_obs::jsonl::escape_json_into;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "scale-1m",
    "spotsigs-deep",
    "popimages-dense",
    "serve-mixed",
];

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Length of each workload's timed phase when `--seconds` is absent
/// (1 s under `--smoke`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// The top-k every workload resolves.
pub const K: usize = 10;

/// Engine threads, pinned so results do not move with the core count of
/// the machine they run on. One, because on a two-vCPU shared host a
/// two-thread run waits at every fork-join for whichever vCPU a
/// neighbour holds: interleaved runs of `spotsigs-deep` on ten seeds
/// spread 0.26 (IQR over median) at two threads and 0.08 at one.
pub const ENGINE_THREADS: usize = 1;

/// HTTP workers of the `serve-mixed` server: one for each of the load
/// generator's two connections, so a parked `wait_epoch` read never
/// holds up an ingest.
pub const SERVER_WORKERS: usize = 2;

/// Which list a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported with `--trace 0`; gated by a regression bound.
    EndToEnd,
    /// Reported with `--trace 1`, from the traced pass.
    PerLayer,
    /// Printed and written by `--out` only: measured on some workloads
    /// but not all, or too unsteady to gate.
    Diagnostic,
}

/// Every metric the benchmark measures: name, unit, list.
/// `BENCHMARK.json` at the repository root mirrors the first two lists.
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("answer_ms", "ms", Kind::EndToEnd),
    ("f1_gold", "ratio", Kind::EndToEnd),
    ("peak_rss_mb", "MiB", Kind::PerLayer),
    ("store.build_s", "s", Kind::PerLayer),
    ("store.open_s", "s", Kind::PerLayer),
    ("store.bytes_per_record", "B", Kind::PerLayer),
    ("core.design_s", "s", Kind::PerLayer),
    ("core.levels", "count", Kind::PerLayer),
    ("core.runs", "count", Kind::PerLayer),
    ("core.h1_s", "s", Kind::PerLayer),
    ("core.hn_s", "s", Kind::PerLayer),
    ("core.p_s", "s", Kind::PerLayer),
    ("core.resolve_self_s", "s", Kind::PerLayer),
    ("core.rounds", "count", Kind::PerLayer),
    ("core.gate_pairwise_frac", "ratio", Kind::PerLayer),
    ("core.hash_evals", "count", Kind::PerLayer),
    ("core.keys_emitted", "count", Kind::PerLayer),
    ("core.pair_comparisons", "count", Kind::PerLayer),
    ("data.distance_evals", "count", Kind::PerLayer),
    ("data.early_exit_ratio", "ratio", Kind::PerLayer),
    ("lsh.ns_per_hash_eval", "ns", Kind::PerLayer),
    ("core.h1_ns_per_record", "ns", Kind::PerLayer),
    ("core.hn_ns_per_record", "ns", Kind::PerLayer),
    ("core.p_ns_per_pair", "ns", Kind::PerLayer),
    ("core.h_ns_per_modeled_unit", "ns", Kind::PerLayer),
    ("core.p_ns_per_modeled_unit", "ns", Kind::PerLayer),
    ("answer_tail_ms", "ms", Kind::Diagnostic),
    ("failed_frac", "ratio", Kind::Diagnostic),
    ("obs.trace_overhead", "ratio", Kind::Diagnostic),
    ("serve.topk_p50_ms", "ms", Kind::Diagnostic),
    ("serve.topk_tail_ms", "ms", Kind::Diagnostic),
    ("serve.ack_ms_p50", "ms", Kind::Diagnostic),
    ("serve.queue_wait_ms_p50", "ms", Kind::Diagnostic),
    ("serve.resolve_ms_p50", "ms", Kind::Diagnostic),
    ("serve.publish_ms_p50", "ms", Kind::Diagnostic),
    ("serve.coalesced_records_mean", "count", Kind::Diagnostic),
    ("serve.rejected_batches", "count", Kind::Diagnostic),
    ("serve.backlog_records_end", "count", Kind::Diagnostic),
    ("serve.sustained_ingest_rec_s", "1/s", Kind::Diagnostic),
    ("loadgen.late_ms_p99", "ms", Kind::Diagnostic),
];

/// Settings shared by every workload of one invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
    /// Scratch directory inside the checkout, removed on exit.
    pub work: PathBuf,
}

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Failed output checks; empty means correct.
    pub failures: Vec<String>,
    /// Passed output checks, for the human-readable report.
    pub passed: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric. Names must be listed in [`METRICS`].
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            METRICS.iter().any(|(n, _, _)| *n == name),
            "metric {name} is not in the metric table"
        );
        self.metrics.insert(name, Measured { value, samples });
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.passed.push(what);
        } else {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .expect("metric names come from the table")
}

/// The one-line result a caller parses: every metric of the requested
/// list, each with its unit. A metric the workload failed to measure is
/// a failed check, not an omission.
fn result_line(report: &mut Report, kind: Kind) -> String {
    let mut metrics = Vec::new();
    for (name, unit, _) in METRICS.iter().filter(|(_, _, k)| *k == kind) {
        match report.metrics.get(name) {
            Some(m) if m.value.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )),
            _ => report.check(false, format!("metric {name} was not measured")),
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn print_report(workload: &str, report: &Report) {
    println!("-- {workload}: metrics");
    for (name, m) in &report.metrics {
        println!(
            "   {name:<30} {:>16} {:<6} n={}",
            format!("{:.6}", m.value),
            unit_of(name),
            m.samples
        );
    }
    for ok in &report.passed {
        println!("   check ok:   {ok}");
    }
    for bad in &report.failures {
        println!("   check FAIL: {bad}");
    }
    println!(
        "   attempted {} operations, {} failed",
        report.attempted, report.failed
    );
}

/// Every measured metric, diagnostics included, for `--out`.
fn full_json(workload: &str, seed: u64, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, m)| m.value.is_finite())
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.value,
                unit_of(name),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| {
            let mut quoted = String::from("\"");
            escape_json_into(f, &mut quoted);
            quoted.push('"');
            quoted
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        failures.join(", "),
        metrics.join(", ")
    )
}

/// The current peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workloads: Vec<&'static str>,
    ctx: Ctx,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workloads: Vec<&'static str> = WORKLOADS.to_vec();
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut trace_out = None;
    let mut out = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
                    format!("unknown workload '{name}' (want one of {WORKLOADS:?})")
                })?;
                workloads = vec![known];
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if trace_out.is_some() {
        if workloads.len() != 1 {
            return Err("--trace-out needs a single --workload".into());
        }
        trace = true;
    }
    let work = PathBuf::from(format!(".perfbench-work/{}", std::process::id()));
    Ok(Args {
        workloads,
        ctx: Ctx {
            seed,
            seconds: seconds.unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS }),
            trace,
            smoke,
            trace_out,
            work,
        },
        out,
    })
}

/// Removes the scratch directory however the run ends.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = if raw.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        serve::child_main(&raw[1..])
    } else {
        match parse_args(&raw) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Runs the requested workloads and prints their results; returns the
/// exit code.
fn run(args: &Args) -> i32 {
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("benchmark: cannot create {}: {e}", ctx.work.display());
        return 2;
    }
    let _cleanup = WorkDir(&ctx.work);

    let kind = if ctx.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let mut lines = Vec::new();
    let mut full = Vec::new();
    let mut all_correct = true;
    for &workload in &args.workloads {
        println!(
            "== {workload}  seed {}  {:.0}s{}{}",
            ctx.seed,
            ctx.seconds,
            if ctx.trace { "  traced" } else { "" },
            if ctx.smoke { "  smoke" } else { "" }
        );
        let mut report = match workload {
            "serve-mixed" => serve::run(ctx),
            batch_workload => batch::run(batch_workload, ctx),
        };
        let line = result_line(&mut report, kind);
        print_report(workload, &report);
        all_correct &= report.correct();
        full.push(full_json(workload, ctx.seed, &report));
        lines.push(line);
    }
    if let Some(path) = &args.out {
        let body = format!("[\n{}\n]\n", full.join(",\n"));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            all_correct = false;
        }
    }
    for line in &lines {
        println!("{line}");
    }
    i32::from(!all_correct)
}
