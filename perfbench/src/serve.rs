//! The `serve-mixed` workload: the online server under an open-loop
//! mix of ingest batches and top-k reads.
//!
//! The server is this binary re-executed as a child process
//! ([`CHILD_FLAG`]) running `adalsh_serve::Server` with the `adalsh
//! serve` defaults, [`SERVER_WORKERS`] HTTP workers and the batch
//! workloads' engine configuration, bootstrapped from 2 000
//! SpotSigs-like records. The load generator is this process: thread A
//! sends 10-record `/ingest` batches and `/topk?k=10` reads on a fixed
//! schedule; thread B parks on `/topk?wait_epoch=` for the oldest batch
//! not yet seen, and when the server answers at epoch E every acked
//! batch with `visible_epoch ≤ E` counts as visible at that instant.
//! One process, two threads, at most two open connections.
//!
//! `setup_s` is spawn until the first `200` from `/healthz`;
//! `answer_ms` is the ingest-to-visible median at [`RATE`] records/s,
//! timed from each batch's due time. At the end of every rung the
//! server's `/topk` answer must equal an in-process `OnlineAdaLsh`
//! replay of the bootstrap plus every acked batch in ack order.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adalsh_core::metrics::set_metrics;
use adalsh_core::{AdaLsh, OnlineAdaLsh};
use adalsh_data::{io as dio, Dataset, MatchRule};
use adalsh_datagen::{spotsigs, SpotSigsConfig};
use adalsh_obs::{schema, MemorySubscriber, TraceSink};
use adalsh_serve::{PipelineConfig, Server, ServerConfig, Service};
use serde::{Deserialize, Serialize, Value};

use crate::batch::engine_config;
use crate::fold::{fold, write_events};
use crate::input::{permutation, permutation_within};
use crate::stats::{self, due_offset, median, ms_since_due, summarize, Rung, Verdict};
use crate::{http, peak_rss_mb, Ctx, Report, ENGINE_THREADS, K, SERVER_WORKERS};

/// First argument that turns this binary into the server under test.
pub const CHILD_FLAG: &str = "--serve-child";

/// Records the server is bootstrapped (and its engine designed) from.
const BOOTSTRAP: usize = 2_000;
const SMOKE_BOOTSTRAP: usize = 300;

/// Records per `/ingest` batch.
const BATCH: usize = 10;

/// Offered ingest rate of the measured rung (records/s), and the rates
/// above it the traced run probes for the highest sustained one.
const RATE: u64 = 250;
const LADDER: [u64; 2] = [500, 1_000];

/// One `/topk?k=10` read every 10 ms, on the same schedule as ingest.
const READ_INTERVAL: Duration = Duration::from_millis(10);

/// Server spawns timed for `setup_s`; the last one serves the rung.
const SETUPS: usize = 7;

/// How long thread B keeps waiting for acked batches to become visible
/// after the schedule ends.
const DRAIN: Duration = Duration::from_secs(10);

/// How long a server may take to start or to exit.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Lowest acceptable top-k F1 of a rung's final answer against the
/// planted entities of everything ingested. A short rung ingests a
/// seed-dependent part of the stream, so this sits below the full
/// rung's 0.88.
const F1_FLOOR: f64 = 0.8;

/// Structure seed of the corpus (see [`crate::input`]).
const STRUCTURE: u64 = 1;

fn rule() -> MatchRule {
    spotsigs::match_rule(0.4)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    if let Err(e) = measure(ctx, &mut report) {
        report.check(false, e);
    }
    report
}

/// The generated corpus: the bootstrap prefix plus the ingest stream,
/// cut into request bodies ahead of time so the generator only sends.
struct Corpus {
    all: Dataset,
    bootstrap: Dataset,
    bootstrap_path: PathBuf,
    bodies: Vec<String>,
}

fn corpus(ctx: &Ctx, stream: usize) -> Result<Corpus, String> {
    let boot = if ctx.smoke {
        SMOKE_BOOTSTRAP
    } else {
        BOOTSTRAP
    };
    let total = boot + stream;
    // About ten records per clustered entity, as in the bootstrap.
    let generated = spotsigs::generate(&SpotSigsConfig {
        num_records: total,
        num_entities: total / 10,
        seed: STRUCTURE,
        ..SpotSigsConfig::default()
    });
    // `--seed` orders the bootstrap and the records inside each batch
    // (see `input`). Which records arrive in which batch is fixed: a
    // reordered stream changes what every resolve pass meets, and moved
    // the ingest-to-visible median by a fifth between seeds.
    let order: Vec<u32> = permutation(boot, ctx.seed)
        .into_iter()
        .chain(
            permutation_within(stream, BATCH, ctx.seed)
                .into_iter()
                .map(|i| boot as u32 + i),
        )
        .collect();
    let all = generated.subset(&order);
    let ids: Vec<u32> = (0..boot as u32).collect();
    let bootstrap = all.subset(&ids);
    let bootstrap_path = ctx.work.join("bootstrap.jsonl");
    dio::save(&bootstrap, &bootstrap_path).map_err(|e| format!("write bootstrap: {e}"))?;
    let bodies = all.records()[boot..]
        .chunks(BATCH)
        .map(|chunk| {
            let body = Value::Map(vec![("records".to_string(), chunk.to_vec().to_value())]);
            serde_json::to_string(&body).map_err(|e| format!("encode batch: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Corpus {
        all,
        bootstrap,
        bootstrap_path,
        bodies,
    })
}

fn measure(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let rung_s = ctx.seconds;
    let ladder_s = (rung_s / 4.0).max(1.0);
    let stream = (RATE as f64 * rung_s).max(LADDER[1] as f64 * ladder_s) as usize;
    let corpus = corpus(ctx, stream)?;
    let trace_file = ctx.trace.then(|| ctx.work.join("serve-trace.jsonl"));

    // Set-up: spawn until the first 200 from /healthz, repeated.
    let mut setups = Vec::new();
    let mut server: Option<ServerChild> = None;
    for i in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        let traced = if i + 1 == SETUPS {
            trace_file.as_deref()
        } else {
            None
        };
        let (child, secs) = ServerChild::spawn(&corpus.bootstrap_path, traced)?;
        setups.push(secs);
        server = Some(child);
        report.attempted += 1;
    }
    report.put("setup_s", median(&setups), setups.len());
    let server = server.expect("SETUPS > 0");
    println!(
        "   bootstrap {} records, {} stream batches of {BATCH}, rule {:?}, k={K}, \
         {SERVER_WORKERS} workers, {ENGINE_THREADS} engine threads",
        corpus.bootstrap.len(),
        corpus.bodies.len(),
        rule()
    );

    let main = drive(server.addr, &corpus.bodies, RATE, rung_s);
    report.attempted += main.attempted;
    report.failed += main.failed;
    let visible = summarize(&main.visible_ms);
    report.put("answer_ms", visible.median, visible.samples);
    if let Some((p, value)) = visible.tail {
        println!("   ingest-to-visible tail is p{p}");
        report.put("answer_tail_ms", value, visible.samples);
    }
    let topk = summarize(&main.topk_ms);
    report.put("serve.topk_p50_ms", topk.median, topk.samples);
    if let Some((_, value)) = topk.tail {
        report.put("serve.topk_tail_ms", value, topk.samples);
    }
    report.put("serve.ack_ms_p50", median(&main.ack_ms), main.ack_ms.len());
    report.put("serve.rejected_batches", main.rejected as f64, 1);
    report.put("serve.backlog_records_end", main.backlog_records as f64, 1);
    report.put("loadgen.late_ms_p99", main.late_p99(), main.late_ms.len());
    report.put(
        "failed_frac",
        main.failed as f64 / main.attempted.max(1) as f64,
        main.attempted as usize,
    );
    let (evaluated, f1) = finish_rung(server.addr, &corpus, &main, report, "main rung")?;
    report.put("f1_gold", f1, 1);
    let rss = server.stop()?;
    if let Some(mb) = rss {
        report.put("peak_rss_mb", mb, 1);
    }
    let mut rungs = vec![main.rung(RATE)];

    if let Some(path) = &trace_file {
        traced_layers(path, ctx, &corpus.bootstrap, &evaluated, report)?;
        for rate in LADDER {
            let (child, _) = ServerChild::spawn(&corpus.bootstrap_path, None)?;
            let out = drive(child.addr, &corpus.bodies, rate, ladder_s);
            finish_rung(
                child.addr,
                &corpus,
                &out,
                report,
                &format!("{rate} rec/s rung"),
            )?;
            child.stop()?;
            let rung = out.rung(rate);
            println!(
                "   rung {rate} rec/s for {ladder_s:.1}s: {:?}, {} of {} requests failed",
                stats::verdict(&rung),
                out.failed,
                out.attempted
            );
            rungs.push(rung);
        }
        report.put(
            "serve.sustained_ingest_rec_s",
            stats::sustained_rate(&rungs) as f64,
            rungs.len(),
        );
    }
    if stats::verdict(&rungs[0]) == Verdict::Invalid {
        println!(
            "   warning: the generator ran {:.1} ms late (p99); the rung is invalid",
            rungs[0].late_p99_ms
        );
    }
    Ok(())
}

/// Per-layer metrics of the traced run: the server's own trace (engine
/// events and its span tree) folded like a batch run's, plus the
/// design and store layers measured in-process on the same records.
fn traced_layers(
    path: &Path,
    ctx: &Ctx,
    bootstrap: &Dataset,
    evaluated: &Dataset,
    report: &mut Report,
) -> Result<(), String> {
    let events = adalsh_obs::jsonl::read_events(path)?;
    let validated = schema::validate(&events);
    report.check(
        validated.is_ok(),
        match &validated {
            Ok(r) => format!(
                "server trace: {} events over {} resolve passes reconcile; spans nest",
                r.events, r.runs
            ),
            Err(e) => format!("server trace is invalid: {e}"),
        },
    );
    fold(&events).report(report);
    let span_ms = |op: &str| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.name == "span" && e.str("op") == Some(op))
            .filter_map(|e| e.u64("duration_micros"))
            .map(|us| us as f64 / 1e3)
            .collect()
    };
    for (op, name) in [
        ("queue_wait", "serve.queue_wait_ms_p50"),
        ("resolve", "serve.resolve_ms_p50"),
        ("publish", "serve.publish_ms_p50"),
    ] {
        let ms = span_ms(op);
        report.put(name, median(&ms), ms.len());
    }
    let passes: Vec<f64> = events
        .iter()
        .filter(|e| e.name == "span" && e.str("op") == Some("resolve"))
        .filter_map(|e| e.f64("records"))
        .collect();
    report.put(
        "serve.coalesced_records_mean",
        passes.iter().sum::<f64>() / passes.len().max(1) as f64,
        passes.len(),
    );

    // Design, as the server does it at boot, timed in-process.
    let mut designs = Vec::new();
    let mut levels = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let engine = AdaLsh::for_dataset(bootstrap, engine_config(&rule()))?;
        designs.push(start.elapsed().as_secs_f64());
        levels = engine.num_levels();
    }
    report.put("core.design_s", median(&designs), designs.len());
    report.put("core.levels", levels as f64, 1);
    crate::batch::store_round_trip(report, evaluated, &ctx.work)?;

    if let Some(out) = &ctx.trace_out {
        write_events(out, &events)?;
        println!("   trace written to {}", out.display());
    }
    Ok(())
}

/// After a rung: the final answer must equal the in-process replay and
/// reach the F1 floor. Returns the corpus as the server holds it (ids
/// in server order) and the answer's F1 against its planted entities.
fn finish_rung(
    addr: SocketAddr,
    corpus: &Corpus,
    out: &RungOutcome,
    report: &mut Report,
    label: &str,
) -> Result<(Dataset, f64), String> {
    let boot = corpus.bootstrap.len();
    let mut order: Vec<u32> = (0..boot as u32).collect();
    for ack in &out.acks {
        let first = (boot + ack.batch * BATCH) as u32;
        let expected: Vec<u32> = (order.len() as u32..).take(ack.ids.len()).collect();
        if ack.ids != expected {
            return Err(format!(
                "{label}: batch {} was assigned ids {:?}, expected {:?}",
                ack.batch, ack.ids, expected
            ));
        }
        order.extend(first..first + ack.ids.len() as u32);
    }
    let evaluated = corpus.all.subset(&order);

    let path = format!("/topk?k={K}&min_records={}", evaluated.len());
    let response = http::get(addr, &path).map_err(|e| format!("{label}: final read: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "{label}: final read answered {}: {}",
            response.status, response.body
        ));
    }
    let served = parse_clusters(&response.body)?;

    let mut replay = OnlineAdaLsh::new(&corpus.bootstrap, engine_config(&rule()))?;
    replay.extend(evaluated.records()[boot..].to_vec())?;
    let expected = replay.query(K).clusters;
    report.check(
        served == expected,
        format!(
            "{label}: /topk over {} records equals the in-process replay of {} acked batches",
            evaluated.len(),
            out.acks.len()
        ),
    );
    let records: Vec<u32> = served.iter().flatten().copied().collect();
    let f1 = set_metrics(&records, &evaluated.gold_records(K)).f1;
    report.check(
        f1 >= F1_FLOOR,
        format!("{label}: f1_gold {f1:.4} >= floor {F1_FLOOR}"),
    );
    Ok((evaluated, f1))
}

fn parse_clusters(body: &str) -> Result<Vec<Vec<u32>>, String> {
    let value: Value = serde_json::from_str(body).map_err(|e| format!("bad /topk body: {e}"))?;
    let clusters = value.get("clusters").ok_or("/topk body has no clusters")?;
    Vec::<Vec<u32>>::from_value(clusters).map_err(|e| format!("bad /topk clusters: {e}"))
}

fn field_u64(body: &str, name: &str) -> Option<u64> {
    let value: Value = serde_json::from_str(body).ok()?;
    u64::from_value(value.get(name)?).ok()
}

/// The ids and `visible_epoch` of an `/ingest` answer.
fn parse_ack(body: &str) -> Option<(Vec<u32>, u64)> {
    let value: Value = serde_json::from_str(body).ok()?;
    let ids = Vec::<u32>::from_value(value.get("ids")?).ok()?;
    let epoch = u64::from_value(value.get("visible_epoch")?).ok()?;
    Some((ids, epoch))
}

/// One accepted batch.
struct Ack {
    /// Index of the batch in the stream.
    batch: usize,
    ids: Vec<u32>,
    due: Duration,
    visible_epoch: u64,
    visible_at: Option<Duration>,
}

/// Acked batches and how far thread B has seen them become visible.
#[derive(Default)]
struct Shared {
    acks: Vec<Ack>,
    seen: usize,
    sending_done: bool,
}

/// What a rung measured. Latencies are milliseconds from due time.
#[derive(Default)]
struct RungOutcome {
    acks: Vec<Ack>,
    visible_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    backlog_records: u64,
}

impl RungOutcome {
    /// How late the generator sent its requests, p99 (ms).
    fn late_p99(&self) -> f64 {
        p99(&self.late_ms)
    }

    fn rung(&self, rate: u64) -> Rung {
        Rung {
            rate,
            failures: self.failed,
            visible_p99_ms: (!self.visible_ms.is_empty()).then(|| p99(&self.visible_ms)),
            backlog_records: self.backlog_records,
            late_p99_ms: self.late_p99(),
        }
    }
}

fn p99(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, 99.0)
}

/// Drives one open-loop rung: `rate` records/s of ingest plus reads
/// every [`READ_INTERVAL`], for `seconds`, then waits for every acked
/// batch to become visible.
fn drive(addr: SocketAddr, bodies: &[String], rate: u64, seconds: f64) -> RungOutcome {
    let batches = ((rate as f64 * seconds) as usize / BATCH).min(bodies.len());
    let reads = (seconds / READ_INTERVAL.as_secs_f64()) as u64;
    let ingest_interval = Duration::from_secs_f64(BATCH as f64 / rate as f64);
    let end = due_offset(batches as u64, ingest_interval).max(due_offset(reads, READ_INTERVAL));
    let shared = (Mutex::new(Shared::default()), Condvar::new());
    let start = Instant::now();
    let mut out = RungOutcome::default();

    let (b_attempted, b_failed) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_visibility(addr, &shared, start, end + DRAIN));
        let (mut i, mut j) = (0usize, 0u64);
        while i < batches || j < reads {
            let due_i = due_offset(i as u64, ingest_interval);
            let due_j = due_offset(j, READ_INTERVAL);
            let ingest = i < batches && (j >= reads || due_i <= due_j);
            let due = if ingest { due_i } else { due_j };
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            out.late_ms.push(ms_since_due(due, start.elapsed()));
            out.attempted += 1;
            if ingest {
                let response = http::post(addr, "/ingest", &bodies[i]);
                let done = start.elapsed();
                match response {
                    Ok(r) if r.status == 200 => match parse_ack(&r.body) {
                        Some((ids, visible_epoch)) => {
                            out.ack_ms.push(ms_since_due(due, done));
                            let (lock, cv) = &shared;
                            let mut s = lock.lock().expect("load generator state");
                            s.acks.push(Ack {
                                batch: i,
                                ids,
                                due,
                                visible_epoch,
                                visible_at: None,
                            });
                            cv.notify_all();
                        }
                        None => out.failed += 1,
                    },
                    Ok(r) if r.status == 503 => {
                        out.failed += 1;
                        out.rejected += 1;
                    }
                    _ => out.failed += 1,
                }
                i += 1;
            } else {
                match http::get(addr, &format!("/topk?k={K}")) {
                    Ok(r) if r.status == 200 => {
                        out.topk_ms.push(ms_since_due(due, start.elapsed()));
                    }
                    _ => out.failed += 1,
                }
                j += 1;
            }
        }
        {
            let (lock, cv) = &shared;
            lock.lock().expect("load generator state").sending_done = true;
            cv.notify_all();
        }
        watcher.join().expect("visibility watcher thread")
    });
    out.attempted += b_attempted;
    out.failed += b_failed;

    out.acks = shared.0.into_inner().expect("load generator state").acks;
    for ack in &out.acks {
        match ack.visible_at {
            Some(at) => out.visible_ms.push(ms_since_due(ack.due, at)),
            // Acked but never seen: counts against the rung.
            None => out.failed += 1,
        }
        if ack.visible_at.is_none_or(|at| at > end) {
            out.backlog_records += ack.ids.len() as u64;
        }
    }
    out
}

/// Thread B: parks on `/topk?wait_epoch=` for the oldest acked batch
/// not yet seen, and marks every batch the answer's epoch covers.
/// Returns the requests it made and how many failed.
fn watch_visibility(
    addr: SocketAddr,
    shared: &(Mutex<Shared>, Condvar),
    start: Instant,
    deadline: Duration,
) -> (u64, u64) {
    let (lock, cv) = shared;
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let epoch = {
            let mut s = lock.lock().expect("load generator state");
            while s.seen == s.acks.len() && !s.sending_done {
                s = cv.wait(s).expect("load generator state");
            }
            if s.seen == s.acks.len() || start.elapsed() > deadline {
                return (attempted, failed);
            }
            s.acks[s.seen].visible_epoch
        };
        attempted += 1;
        let response = http::get(addr, &format!("/topk?k={K}&wait_epoch={epoch}"));
        let now = start.elapsed();
        match response.ok().filter(|r| r.status == 200) {
            Some(r) => {
                let Some(published) = field_u64(&r.body, "epoch") else {
                    failed += 1;
                    continue;
                };
                let mut s = lock.lock().expect("load generator state");
                while s.seen < s.acks.len() && s.acks[s.seen].visible_epoch <= published {
                    let seen = s.seen;
                    s.acks[seen].visible_at = Some(now);
                    s.seen += 1;
                }
            }
            None => failed += 1,
        }
    }
}

/// A running server child. Dropping it kills and reaps the process, so
/// no server outlives the benchmark, whichever way it exits.
struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerChild {
    /// Starts a server and waits for its first healthy answer; returns
    /// it with the seconds that took.
    fn spawn(bootstrap: &Path, trace_file: Option<&Path>) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let mut command = Command::new(exe);
        command.arg(CHILD_FLAG).arg(bootstrap);
        if let Some(path) = trace_file {
            command.arg("--trace-file").arg(path);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerChild {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not report an address: {line:?}"))?;
        loop {
            if matches!(http::get(server.addr, "/healthz"), Ok(r) if r.status == 200) {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > CHILD_TIMEOUT {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Closes the server's stdin, which shuts it down gracefully, waits
    /// for it to exit, and returns the peak RSS it reported (MiB).
    fn stop(mut self) -> Result<Option<f64>, String> {
        drop(self.stdin.take());
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() < CHILD_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("server did not exit after its stdin closed".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(rest
            .lines()
            .find_map(|l| l.strip_prefix("vmhwm_kib "))
            .and_then(|kib| kib.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Already reaped after a clean stop: both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server child: `--serve-child <bootstrap.jsonl> [--trace-file f]`.
/// Prints `listening <addr>`, serves until stdin closes, shuts down
/// gracefully, writes its trace if asked, and prints `vmhwm_kib <n>`.
pub fn child_main(args: &[String]) -> i32 {
    match serve_child(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark server: {e}");
            1
        }
    }
}

fn serve_child(args: &[String]) -> Result<(), String> {
    let bootstrap = args.first().ok_or("missing bootstrap path")?;
    let trace_file = match args.get(1..) {
        Some([flag, path]) if flag == "--trace-file" => Some(PathBuf::from(path)),
        Some([]) | None => None,
        Some(other) => return Err(format!("unexpected arguments {other:?}")),
    };
    let dataset = dio::load(Path::new(bootstrap)).map_err(|e| format!("read {bootstrap}: {e}"))?;
    let memory = Arc::new(MemorySubscriber::new());
    let mut config = engine_config(&rule());
    if trace_file.is_some() {
        config.trace = TraceSink::new(memory.clone());
    }
    let resolver = OnlineAdaLsh::new(&dataset, config)?;
    let service = Arc::new(Service::with_config(
        resolver,
        rule(),
        None,
        PipelineConfig::default(),
    ));
    let server = Server::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    println!("listening {}", server.local_addr());

    // Serve until the parent closes stdin (or exits).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    // The last reference: dropping it joins the resolver thread, so
    // every event of every pass is in `memory` afterwards.
    drop(service);
    if let Some(path) = trace_file {
        write_events(&path, &memory.events())?;
    }
    if let Some(mb) = peak_rss_mb() {
        println!("vmhwm_kib {}", (mb * 1024.0).round());
    }
    Ok(())
}
