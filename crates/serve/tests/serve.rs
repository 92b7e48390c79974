//! End-to-end tests: a real server on an ephemeral port, driven over
//! raw TCP.
//!
//! The load-bearing assertions mirror the crate's contract:
//!
//! 1. the answer served on `/topk` after an HTTP ingest burst (made
//!    visible via the `wait_epoch` read-your-writes barrier) is
//!    **bit-identical** to the batch `Pairs` oracle run on the same
//!    record snapshot;
//! 2. `POST /snapshot` → restart with resume → `/topk` returns the same
//!    answer with **zero** additional hash evaluations for
//!    already-hashed records;
//! 3. malformed traffic gets structured JSON errors, never a dropped
//!    connection or a crash;
//! 4. N writers and M readers hammering the server concurrently still
//!    converge to the Pairs-oracle answer, and a snapshot taken during
//!    the churn restores bit-identically;
//! 5. a full ingest queue sheds batches with `503` + `Retry-After`, and
//!    the accepted-batch ledger reconciles exactly with the final
//!    record count — accepted batches are never dropped;
//! 6. reads complete from the published snapshot while the resolver is
//!    busy applying a large batch — the read path takes no lock;
//! 7. (`#[ignore]`d, release builds only) 16 concurrent readers keep at
//!    least 0.8x the `/topk` QPS of one reader.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adalsh_core::algorithm::FilterMethod;
use adalsh_core::{AdaLshConfig, OnlineAdaLsh, Pairs};
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
    ShingleSet,
};
use adalsh_serve::{PipelineConfig, ServeSnapshot, Server, ServerConfig, Service};
use serde::{Deserialize, Serialize, Value};

fn record(core: u64, noise: u64) -> Record {
    let mut s: Vec<u64> = (0..15).map(|i| core * 1000 + i).collect();
    s.push(core * 1000 + 500 + noise % 4);
    Record::single(FieldValue::Shingles(ShingleSet::new(s)))
}

fn bootstrap() -> Dataset {
    let schema = Schema::single("s", FieldKind::Shingles);
    let records: Vec<Record> = (0..20).map(|i| record(i % 4, i)).collect();
    let gt = (0..20).map(|i| (i % 4) as u32).collect();
    Dataset::new(schema, records, gt)
}

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
}

fn start_server(snapshot_path: Option<std::path::PathBuf>) -> (Server, Arc<Service>) {
    let resolver = OnlineAdaLsh::new(&bootstrap(), AdaLshConfig::new(rule())).unwrap();
    start_server_with(resolver, snapshot_path, ServerConfig::default())
}

fn start_server_with(
    resolver: OnlineAdaLsh,
    snapshot_path: Option<std::path::PathBuf>,
    config: ServerConfig,
) -> (Server, Arc<Service>) {
    start_server_pipelined(resolver, snapshot_path, config, PipelineConfig::default())
}

fn start_server_pipelined(
    resolver: OnlineAdaLsh,
    snapshot_path: Option<std::path::PathBuf>,
    config: ServerConfig,
    pipeline: PipelineConfig,
) -> (Server, Arc<Service>) {
    let service = Arc::new(Service::with_config(
        resolver,
        rule(),
        snapshot_path,
        pipeline,
    ));
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    (server, service)
}

/// Sends one raw HTTP/1.1 request and returns `(status, headers, body)`.
fn http_full(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

/// Sends one raw HTTP/1.1 request and returns `(status, body)`.
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let (status, _, body) = http_full(addr, raw);
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = post_full(addr, path, body);
    (status, body)
}

fn post_full(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    http_full(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The `/ingest` body for a batch of records.
fn ingest_body(records: &[Record]) -> String {
    let value = Value::Map(vec![("records".to_string(), records.to_value())]);
    serde_json::to_string(&value).unwrap()
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn clusters_of(topk_body: &str) -> Vec<Vec<u32>> {
    let value = parse(topk_body);
    Vec::<Vec<u32>>::from_value(value.get("clusters").expect("clusters field")).unwrap()
}

fn hash_evals_of(topk_body: &str) -> u64 {
    let value = parse(topk_body);
    u64::from_value(value.get("stats").unwrap().get("hash_evals").unwrap()).unwrap()
}

fn u64_field(body: &str, field: &str) -> u64 {
    u64::from_value(
        parse(body)
            .get(field)
            .unwrap_or_else(|| panic!("{field} in {body}")),
    )
    .unwrap()
}

#[test]
fn ingest_then_topk_matches_batch_pairs_oracle() {
    let (server, _service) = start_server(None);
    let addr = server.local_addr();

    // Liveness before any traffic: the boot snapshot is published
    // synchronously, so the record count and epoch are correct at once.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"records\":20"), "{body}");
    assert!(body.contains("\"epoch\":0"), "{body}");

    // Ingest a burst over HTTP: 9 records growing entity 7. The
    // response names the epoch at which the batch becomes visible.
    let burst: Vec<Record> = (0..9).map(|i| record(7, i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&burst));
    assert_eq!(status, 200, "{body}");
    let ids = Vec::<u32>::from_value(parse(&body).get("ids").unwrap()).unwrap();
    assert_eq!(ids, (20..29).collect::<Vec<u32>>());
    let visible_epoch = u64_field(&body, "visible_epoch");
    assert_eq!(visible_epoch, 1);

    // Read-your-writes: the barrier parks until the batch is applied.
    let (status, body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"records\":29"), "{body}");
    let served = clusters_of(&body);

    // Batch oracle on the identical record snapshot.
    let snapshot_records: Vec<Record> = bootstrap()
        .records()
        .iter()
        .cloned()
        .chain(burst.iter().cloned())
        .collect();
    let n = snapshot_records.len();
    let oracle_dataset = Dataset::new(
        Schema::single("s", FieldKind::Shingles),
        snapshot_records,
        vec![0; n],
    );
    let gold = Pairs::new(rule()).filter(&oracle_dataset, 2);

    assert_eq!(
        served, gold.clusters,
        "served top-k must be bit-identical to the batch Pairs oracle"
    );
    assert_eq!(
        served[0].len(),
        9,
        "entity 7's burst is the largest cluster"
    );

    // Metrics reflect the traffic served so far.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("adalsh_ingested_records_total 9"),
        "{metrics}"
    );
    assert!(
        metrics.contains("adalsh_requests_total{endpoint=\"/topk\",status=\"200\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("adalsh_request_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        !metrics.contains("adalsh_hash_evals_total 0\n"),
        "{metrics}"
    );
    // The pipeline families chart the ingest flow: one batch accepted,
    // applied in one resolve pass, published as epoch 1, queue drained.
    assert!(metrics.contains("adalsh_published_epoch 1"), "{metrics}");
    assert!(
        metrics.contains("adalsh_applied_batches_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("adalsh_ingest_queue_depth 0"), "{metrics}");
    assert!(
        metrics.contains("adalsh_resolve_batch_records_count 1"),
        "{metrics}"
    );
    // Boot publish + one batch publish.
    assert!(
        metrics.contains("adalsh_publish_seconds_count 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("adalsh_rejected_batches_total 0"),
        "{metrics}"
    );
    // The engine's trace events fold into the same scrape: the resolve
    // pass's level-1 sweep emits at least one hash_round observation.
    assert!(
        metrics.contains("adalsh_engine_hash_round_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        !metrics.contains("adalsh_engine_hash_round_seconds_count 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("adalsh_engine_pairwise_block_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        metrics.contains("adalsh_engine_gate_decisions_total"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn snapshot_restart_resumes_without_rehashing() {
    let path = std::env::temp_dir().join(format!("adalsh-serve-test-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (server, _service) = start_server(Some(path.clone()));
    let addr = server.local_addr();

    let burst: Vec<Record> = (0..6).map(|i| record(2, 40 + i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&burst));
    assert_eq!(status, 200);
    let visible_epoch = u64_field(&body, "visible_epoch");

    // The resolve pass that applied the burst pays the hashing; its
    // published answer is the reference.
    let (_, first_body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    let first_clusters = clusters_of(&first_body);
    assert!(hash_evals_of(&first_body) > 0, "cold resolve must hash");

    // Persist and stop. The snapshot lands at an epoch boundary and
    // reports which epoch it captured.
    let (status, body) = post(addr, "/snapshot", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"records\":26"), "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");
    server.shutdown();

    // Restart from disk under the same rule.
    let restored = ServeSnapshot::load(&path)
        .unwrap()
        .restore(AdaLshConfig::new(rule()))
        .unwrap();
    let (server, _service) = start_server_with(restored, None, ServerConfig::default());
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"records\":26"), "{body}");

    // Same answer, zero additional hash evaluations: every persisted
    // hash state lined up with the rebuilt engine, and the boot resolve
    // (published synchronously) found nothing left to hash.
    let (status, resumed_body) = get(addr, "/topk?k=2");
    assert_eq!(status, 200);
    assert_eq!(clusters_of(&resumed_body), first_clusters);
    assert_eq!(
        hash_evals_of(&resumed_body),
        0,
        "resumed server must not re-hash already-hashed records"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_traffic_gets_structured_errors() {
    let config = ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    };
    let resolver = OnlineAdaLsh::new(&bootstrap(), AdaLshConfig::new(rule())).unwrap();
    let (server, _service) = start_server_with(resolver, None, config);
    let addr = server.local_addr();

    // Unknown route.
    let (status, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // Wrong method on a known route.
    let (status, body) = post(addr, "/topk", "");
    assert_eq!(status, 405);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // Body that is not JSON.
    let (status, body) = post(addr, "/ingest", "definitely not json");
    assert_eq!(status, 400);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // Schema-violating batch is atomic: nothing lands.
    let bad = "{\"records\":[{\"fields\":[{\"Shingles\":[1]},{\"Shingles\":[2]}]}]}";
    let (status, body) = post(addr, "/ingest", bad);
    assert_eq!(status, 400, "{body}");
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"records\":20"), "{health}");

    // Barrier parameters must parse.
    let (status, body) = get(addr, "/topk?k=2&wait_epoch=soon");
    assert_eq!(status, 400);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // k beyond the resolve depth cannot be served from the snapshot.
    let (status, body) = get(addr, "/topk?k=999");
    assert_eq!(status, 400);
    assert!(body.contains("resolve"), "{body}");

    // Declared body above the configured cap.
    let oversize = "x".repeat(512);
    let (status, body) = post(addr, "/ingest", &oversize);
    assert_eq!(status, 413);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // Garbage request line.
    let (status, body) = http(addr, "BOGUS\r\n\r\n");
    assert_eq!(status, 400);
    assert!(parse(&body).get("error").is_some(), "{body}");

    // The server is still healthy after all of it.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    server.shutdown();
}

/// A dense vector of the wrong dimension is a 400 at intake with nothing
/// reserved. It passes the kind-only schema check, so without the
/// dimension check it would panic the resolver thread and turn every
/// later ingest into a 503.
#[test]
fn wrong_dimension_ingest_is_rejected_and_the_server_keeps_ingesting() {
    let dense = |v: &[f64]| Record::single(FieldValue::Dense(DenseVector::new(v.to_vec())));
    let records: Vec<Record> = (0..8)
        .map(|i| dense(&[1.0, 0.05 * f64::from(i), 0.0, 0.3]))
        .collect();
    let boot = Dataset::new(
        Schema::single("hist", FieldKind::Dense),
        records,
        vec![0; 8],
    );
    let rule = MatchRule::threshold(0, FieldDistance::Angular, 0.05);
    let resolver = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule.clone())).unwrap();
    let service = Arc::new(Service::with_config(
        resolver,
        rule,
        None,
        PipelineConfig::default(),
    ));
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, body) = post(addr, "/ingest", &ingest_body(&[dense(&[1.0, 0.0, 0.0])]));
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("field 0 (hist)") && body.contains("dimension 3, earlier records have 4"),
        "{body}"
    );
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"records\":8"), "{health}");

    let (status, body) = post(
        addr,
        "/ingest",
        &ingest_body(&[dense(&[1.0, 0.0, 0.0, 0.3])]),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        u64_field(&body, "visible_epoch"),
        1,
        "the rejected batch reserved no epoch"
    );
    let (status, body) = get(addr, "/topk?k=1&wait_epoch=1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&body, "epoch"), 1);
    assert_eq!(u64_field(&body, "records"), 9);

    server.shutdown();
}

/// Satellite: N writer threads and M reader threads hammer the server
/// concurrently (with a snapshot mid-churn); the final clusters are
/// bit-identical to a sequential batch Pairs-oracle run over the same
/// records in id order, and the mid-churn snapshot restores to a
/// consistent prefix of that history.
#[test]
fn concurrent_ingest_topk_snapshot_converges_to_pairs_oracle() {
    const WRITERS: u64 = 4;
    const BATCHES_PER_WRITER: u64 = 5;
    const RECORDS_PER_BATCH: u64 = 3;

    let path = std::env::temp_dir().join(format!(
        "adalsh-serve-concurrent-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (server, _service) = start_server(Some(path.clone()));
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // M = 2 readers: every read must succeed, lock-free, while writers
    // churn. They assert invariants, not specific contents.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, body) = get(addr, "/topk?k=4");
                    assert_eq!(status, 200, "{body}");
                    let (status, health) = get(addr, "/healthz");
                    assert_eq!(status, 200, "{health}");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // One snapshot request racing the writers.
    let snapshotter = std::thread::spawn(move || {
        let (status, body) = post(addr, "/snapshot", "");
        assert_eq!(status, 200, "{body}");
    });

    // N = 4 writers, each sending its own batches; a writer retries on
    // 503 (the retry is idempotent: nothing was reserved). Each returns
    // its (ids, records) ledger.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut ledger: Vec<(Vec<u32>, Vec<Record>)> = Vec::new();
                for b in 0..BATCHES_PER_WRITER {
                    let batch: Vec<Record> = (0..RECORDS_PER_BATCH)
                        .map(|r| record((w * BATCHES_PER_WRITER + b) % 6, w * 100 + b * 10 + r))
                        .collect();
                    let body = ingest_body(&batch);
                    loop {
                        let (status, response) = post(addr, "/ingest", &body);
                        if status == 200 {
                            let ids = Vec::<u32>::from_value(parse(&response).get("ids").unwrap())
                                .unwrap();
                            assert_eq!(ids.len(), batch.len());
                            ledger.push((ids, batch.clone()));
                            break;
                        }
                        assert_eq!(status, 503, "only overload may reject: {response}");
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                }
                ledger
            })
        })
        .collect();

    let mut ledger: Vec<(Vec<u32>, Vec<Record>)> = Vec::new();
    for writer in writers {
        ledger.extend(writer.join().expect("writer panicked"));
    }
    snapshotter.join().expect("snapshotter panicked");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().expect("reader panicked") > 0);
    }

    // Reconstruct the exact record sequence from the returned ids: the
    // intake assigns ids in apply order, so placing every accepted
    // record at its id rebuilds the server's dataset.
    let total = 20 + (WRITERS * BATCHES_PER_WRITER * RECORDS_PER_BATCH) as usize;
    let mut records: Vec<Option<Record>> = vec![None; total];
    for (i, r) in bootstrap().records().iter().enumerate() {
        records[i] = Some(r.clone());
    }
    for (ids, batch) in &ledger {
        for (id, r) in ids.iter().zip(batch) {
            assert!(
                records[*id as usize].replace(r.clone()).is_none(),
                "id {id} assigned twice"
            );
        }
    }
    let records: Vec<Record> = records
        .into_iter()
        .map(|r| r.expect("every id in 0..total assigned exactly once"))
        .collect();

    // Read-your-writes on the total record count, then compare.
    let (status, body) = get(addr, &format!("/topk?k=4&min_records={total}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&body, "records"), total as u64);
    let served = clusters_of(&body);

    let oracle_dataset = Dataset::new(
        Schema::single("s", FieldKind::Shingles),
        records,
        vec![0; total],
    );
    let gold = Pairs::new(rule()).filter(&oracle_dataset, 4);
    assert_eq!(
        served, gold.clusters,
        "concurrent ingest must converge to the sequential Pairs oracle"
    );

    // A final snapshot of the full history restores bit-identically:
    // same clusters, zero re-hashing.
    let (status, body) = post(addr, "/snapshot", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&body, "records"), total as u64);
    let (_, full_body) = get(addr, "/topk?k=10");
    let full_clusters = clusters_of(&full_body);
    let mut restored = ServeSnapshot::load(&path)
        .unwrap()
        .restore(AdaLshConfig::new(rule()))
        .unwrap();
    let replay = restored.query_cached(10);
    assert_eq!(
        replay.clusters, full_clusters,
        "snapshot/resume round-trip must reproduce the served clusters"
    );
    assert_eq!(
        replay.stats.hash_evals, 0,
        "restored hash states leave nothing to re-hash"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Satellite: a tiny ingest queue under a burst sheds load with `503` +
/// `Retry-After`, and the accepted-batch ledger reconciles exactly with
/// the final record count — no accepted batch is ever dropped, no
/// rejected batch ever lands.
#[test]
fn backpressure_sheds_with_retry_after_and_drops_nothing_accepted() {
    let resolver = OnlineAdaLsh::new(&bootstrap(), AdaLshConfig::new(rule())).unwrap();
    let (server, _service) = start_server_pipelined(
        resolver,
        None,
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
        // cap 1 batch; one record per resolve pass keeps the drainer
        // slow enough that a burst must overflow the queue.
        PipelineConfig {
            queue_cap: 1,
            max_batch: 1,
            resolve_k: 4,
            ..PipelineConfig::default()
        },
    );
    let addr = server.local_addr();

    const BATCH_RECORDS: u64 = 200;
    let mut accepted_records = 0u64;
    let mut accepted_epochs: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    for i in 0..12u64 {
        // Large same-entity batches make every resolve pass grow a
        // quadratic pairwise cluster, so the drainer (one record batch
        // per pass, queue of one) cannot keep up with back-to-back
        // posts — the burst must overflow the queue.
        let batch: Vec<Record> = (0..BATCH_RECORDS)
            .map(|r| record(7, i * BATCH_RECORDS + r))
            .collect();
        let (status, head, body) = post_full(addr, "/ingest", &ingest_body(&batch));
        match status {
            200 => {
                accepted_records += BATCH_RECORDS;
                accepted_epochs.push(u64_field(&body, "visible_epoch"));
            }
            503 => {
                rejected += 1;
                assert!(
                    head.contains("Retry-After: 1"),
                    "503 must carry Retry-After: {head}"
                );
                assert!(
                    body.contains("retry_after_seconds"),
                    "structured overload body: {body}"
                );
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(
        rejected > 0,
        "a 1-slot queue must shed under a 12-batch burst"
    );
    assert!(!accepted_epochs.is_empty(), "some batches must land");

    // Epochs of accepted batches are strictly increasing: the ledger
    // has no duplicates and no holes burned by rejected batches.
    for pair in accepted_epochs.windows(2) {
        assert!(
            pair[0] < pair[1],
            "epochs must increase: {accepted_epochs:?}"
        );
    }
    assert_eq!(
        *accepted_epochs.last().unwrap() as usize,
        accepted_epochs.len(),
        "rejected batches must not consume epochs"
    );

    // Wait for the last accepted batch to be applied, then reconcile:
    // final record count == bootstrap + every accepted record.
    let expected = 20 + accepted_records;
    let (status, body) = get(
        addr,
        &format!("/topk?k=4&wait_epoch={}", accepted_epochs.last().unwrap()),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        u64_field(&body, "records"),
        expected,
        "accepted-batch ledger must reconcile with the final record count"
    );

    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains(&format!("adalsh_ingested_records_total {accepted_records}")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("adalsh_rejected_batches_total {rejected}")),
        "{metrics}"
    );

    server.shutdown();
}

/// Satellite: the `/metrics` exposition is scrapeable by the book — the
/// response declares `Content-Type: text/plain; version=0.0.4`, and the
/// live body survives a full promtext round-trip with every histogram
/// family (including the span-backed `adalsh_ingest_to_visible_seconds`)
/// passing the cumulative-bucket invariants.
#[test]
fn metrics_exposition_declares_content_type_and_round_trips() {
    let (server, _service) = start_server(None);
    let addr = server.local_addr();

    let burst: Vec<Record> = (0..5).map(|i| record(3, i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&burst));
    assert_eq!(status, 200, "{body}");
    let visible_epoch = u64_field(&body, "visible_epoch");
    let (status, body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    assert_eq!(status, 200, "{body}");

    // The root ingest span (whose duration feeds ingest-to-visible)
    // finishes just after the visibility barrier fires, so poll for the
    // observation before asserting on the exposition.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let (head, exposition) = loop {
        let (status, head, exposition) =
            http_full(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        if !exposition.contains("adalsh_ingest_to_visible_seconds_count 0") {
            break (head, exposition);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ingest-to-visible never observed: {exposition}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus scrapers key on the exposition version header: {head}"
    );

    let samples =
        adalsh_obs::promtext::parse(&exposition).unwrap_or_else(|e| panic!("{e}\n{exposition}"));
    assert!(!samples.is_empty());
    for family in [
        "adalsh_request_seconds",
        "adalsh_publish_seconds",
        "adalsh_resolve_batch_records",
        "adalsh_ingest_to_visible_seconds",
    ] {
        adalsh_obs::promtext::check_histogram(&samples, family)
            .unwrap_or_else(|e| panic!("{e}\n{exposition}"));
    }
    // The span layer fed the new families: one batch went end to end.
    let visible_count = samples
        .iter()
        .find(|s| s.name == "adalsh_ingest_to_visible_seconds_count")
        .expect("ingest-to-visible histogram")
        .value;
    assert!(visible_count >= 1.0, "{exposition}");
    assert!(
        samples.iter().any(|s| s.name == "adalsh_queue_age_seconds"),
        "{exposition}"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "adalsh_resolve_minor_page_faults_total"),
        "{exposition}"
    );

    server.shutdown();
}

/// Tentpole: `GET /debug/spans` serves the live span ring — after one
/// ingest made visible and one query, the ring holds the full ingest
/// span tree (root plus queue/coalesce/resolve/engine/publish children)
/// and the query root. The root span finishes *after* the visibility
/// barrier fires, so the ring is polled briefly.
#[test]
fn debug_spans_serves_the_ingest_span_tree() {
    let (server, _service) = start_server(None);
    let addr = server.local_addr();

    let burst: Vec<Record> = (0..6).map(|i| record(1, i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&burst));
    assert_eq!(status, 200, "{body}");
    let visible_epoch = u64_field(&body, "visible_epoch");
    let (status, body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    assert_eq!(status, 200, "{body}");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let body = loop {
        let (status, body) = get(addr, "/debug/spans");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"op\":\"ingest_batch\"") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ingest_batch root never reached the span ring: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let value = parse(&body);
    assert!(u64_field(&body, "count") > 0);
    assert!(value.get("spans").is_some(), "{body}");
    for op in [
        "queue_wait",
        "coalesce",
        "resolve",
        "hash_rounds",
        "pairwise",
        "publish",
        "topk_query",
    ] {
        assert!(body.contains(&format!("\"op\":\"{op}\"")), "{op}: {body}");
    }

    server.shutdown();
}

/// Acceptance: the span stream a live server emits is not just shaped
/// right — it reconciles bit-for-bit against the engine's own event
/// taxonomy. A `MemorySubscriber` installed under the service's sink
/// sees every event (engine events and spans alike); `schema::validate`
/// then checks tree integrity, exact window containment, and the
/// span↔segment linkage identities on the full stream.
#[test]
fn live_span_stream_validates_against_the_event_taxonomy() {
    let memory = Arc::new(adalsh_obs::MemorySubscriber::new());
    let mut resolver = OnlineAdaLsh::new(&bootstrap(), AdaLshConfig::new(rule())).unwrap();
    let composed = resolver.trace().with(Arc::clone(&memory) as _);
    resolver.set_trace(composed);
    let (server, _service) = start_server_with(resolver, None, ServerConfig::default());
    let addr = server.local_addr();

    let burst: Vec<Record> = (0..7).map(|i| record(5, i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&burst));
    assert_eq!(status, 200, "{body}");
    let visible_epoch = u64_field(&body, "visible_epoch");
    let (status, body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    assert_eq!(status, 200, "{body}");

    // Wait for the root ingest span (finished after the barrier fires).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let events = loop {
        let events = memory.events();
        if events
            .iter()
            .any(|e| e.name == "span" && e.str("op") == Some("ingest_batch"))
        {
            break events;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ingest_batch span never emitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    let report = adalsh_obs::schema::validate(&events).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.runs, 2, "boot resolve + one ingest pass");
    let spans: Vec<&adalsh_obs::OwnedEvent> = events.iter().filter(|e| e.name == "span").collect();
    let ops: Vec<&str> = spans.iter().filter_map(|s| s.str("op")).collect();
    for op in [
        "ingest_batch",
        "queue_wait",
        "resolve",
        "hash_rounds",
        "pairwise",
        "publish",
        "topk_query",
    ] {
        assert!(ops.contains(&op), "missing span op {op} in {ops:?}");
    }
    // The engine children link the ingest pass's segment (boot is 1).
    let segment_of = |op: &str| {
        spans
            .iter()
            .find(|s| s.str("op") == Some(op))
            .and_then(|s| s.u64("segment"))
    };
    assert_eq!(segment_of("hash_rounds"), Some(2));
    assert_eq!(segment_of("pairwise"), Some(2));

    server.shutdown();
}

/// Acceptance: `GET /topk` and `GET /metrics` acquire no mutex on the
/// request path. While the resolver thread is busy applying a large
/// same-entity batch (quadratic pairwise work), plain reads keep
/// answering from the previously published epoch.
#[test]
fn reads_complete_while_resolver_is_busy() {
    let (server, _service) = start_server(None);
    let addr = server.local_addr();

    // One batch big enough that its resolve pass takes a while: 1200
    // same-entity records mean ~0.7M pairwise comparisons in one pass.
    let big: Vec<Record> = (0..1200).map(|i| record(9, i)).collect();
    let (status, body) = post(addr, "/ingest", &ingest_body(&big));
    assert_eq!(status, 200, "{body}");
    let visible_epoch = u64_field(&body, "visible_epoch");

    // The ingest reply races the resolver's pass. Immediately read,
    // without barriers: every read must answer promptly from the
    // published snapshot; the first reads land while the resolver still
    // churns, proving they did not wait on it.
    let mut saw_pre_batch_epoch = false;
    for _ in 0..5 {
        let (status, body) = get(addr, "/topk?k=2");
        assert_eq!(status, 200, "{body}");
        if u64_field(&body, "epoch") < visible_epoch {
            saw_pre_batch_epoch = true;
        }
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("adalsh_requests_total"), "{metrics}");
        let (status, health) = get(addr, "/healthz");
        assert_eq!(status, 200, "{health}");
    }
    assert!(
        saw_pre_batch_epoch,
        "reads issued right after ingest must answer from the old epoch \
         instead of waiting for the resolver"
    );

    // The batch still becomes visible afterwards.
    let (status, body) = get(addr, &format!("/topk?k=2&wait_epoch={visible_epoch}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&body, "records"), 20 + 1200);

    server.shutdown();
}

/// `/topk` requests per second over `clients` concurrent connections,
/// each reading back to back for `burst`.
fn read_qps(addr: SocketAddr, clients: usize, burst: Duration) -> f64 {
    let started = Instant::now();
    let stop_at = started + burst;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut done = 0u64;
                while Instant::now() < stop_at {
                    let (status, body) = get(addr, "/topk?k=10");
                    assert_eq!(status, 200, "{body}");
                    done += 1;
                }
                done
            })
        })
        .collect();
    let done: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    done as f64 / started.elapsed().as_secs_f64()
}

/// Read scaling: concurrency must not collapse the lock-free read path.
/// On a single core QPS saturates at one client already, so 16 clients
/// match one up to scheduler noise; a lock convoy would fall far below.
/// 0.8x separates noise from collapse. Timing-based, so it runs in
/// release builds only:
///
/// ```sh
/// cargo test --release -p adalsh-serve --test serve -- --ignored
/// ```
#[test]
#[ignore = "release-only timing gate; run by ci.sh --bench-smoke"]
fn sixteen_readers_keep_single_reader_qps() {
    let resolver = OnlineAdaLsh::new(&bootstrap(), AdaLshConfig::new(rule())).unwrap();
    let config = ServerConfig {
        workers: 16,
        ..ServerConfig::default()
    };
    let (server, _service) = start_server_with(resolver, None, config);
    let addr = server.local_addr();
    let burst = Duration::from_millis(250);

    let _ = get(addr, "/topk?k=10");
    let c1 = read_qps(addr, 1, burst);
    let c16 = read_qps(addr, 16, burst);
    assert!(
        c16 >= 0.8 * c1,
        "16-client QPS {c16:.0} < 0.8x 1-client QPS {c1:.0}: the lock-free read path \
         collapsed under concurrency"
    );

    server.shutdown();
}
