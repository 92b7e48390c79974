//! Request routing over the read/write-split pipeline.
//!
//! Reads (`GET /topk`, `/healthz`, `/metrics`) never acquire a mutex:
//! they clone the epoch-published `Arc<`[`ResolvedSnapshot`]`>` (or render
//! the atomic-backed metrics registry) and answer from it, so a slow
//! resolve pass cannot stall a reader. Writes (`POST /ingest`) validate
//! against the schema and enqueue into the pipeline's bounded intake
//! queue — a full queue is `503` + `Retry-After`, never unbounded
//! memory. `POST /snapshot` asks the resolver thread to persist at the
//! next epoch boundary; only the snapshot caller waits.
//!
//! Read-your-writes is explicit: `/ingest` returns the `visible_epoch`
//! at which the batch will be readable, and `/topk` accepts
//! `?wait_epoch=E` / `?min_records=N` to park until the published
//! snapshot reaches that floor (plain reads never touch the barrier).
//!
//! Handlers never panic across the service boundary: schema violations,
//! malformed JSON, bad parameters, and snapshot failures all map to
//! structured `{"error": …}` responses with the appropriate status.

use std::path::PathBuf;
use std::sync::Arc;

use adalsh_core::{OnlineAdaLsh, OracleMode, VerdictOverlay};
use adalsh_data::{MatchRule, Record};
use adalsh_obs::span::DEFAULT_RING_CAP;
use adalsh_obs::trace::OwnedValue;
use adalsh_obs::{Spans, TraceSink, Value as TraceValue};
use serde::{Deserialize, Serialize, Value};

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::pipeline::{Pipeline, PipelineConfig, ResolvedSnapshot, SubmitError};

/// Default cap on request bodies (`/ingest` batches), in bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// The resolver service behind the HTTP layer.
pub struct Service {
    pipeline: Pipeline,
    metrics: Metrics,
    /// The span recorder shared with the pipeline: `/debug/spans`
    /// serves its ring, `/topk` roots its query spans here.
    spans: Arc<Spans>,
    /// Clone of the resolver's composed trace sink, so query spans
    /// emitted on worker threads land in the same trace stream (e.g. a
    /// `--trace-out` JSONL file) as the resolver's events.
    sink: TraceSink,
    /// Echoed in `POST /snapshot` responses (the pipeline owns the
    /// actual writer).
    snapshot_path: Option<PathBuf>,
    /// External-verdict store behind `POST /adjudicate`; present only
    /// when the resolver runs a noisy oracle. Shared with the resolver,
    /// which consults it before spending any oracle budget.
    overlay: Option<Arc<VerdictOverlay>>,
}

impl Service {
    /// Like [`Service::with_config`] with a default [`PipelineConfig`].
    pub fn new(resolver: OnlineAdaLsh, rule: MatchRule, snapshot_path: Option<PathBuf>) -> Self {
        Self::with_config(resolver, rule, snapshot_path, PipelineConfig::default())
    }

    /// Wraps a resolver configured with `rule`, resolves + publishes the
    /// boot snapshot synchronously, and starts the resolver thread. The
    /// service folds the engine's trace events into its metrics
    /// registry: the resolver's sink is composed with the [`Metrics`]
    /// engine subscriber, so a caller-installed sink (e.g. `--trace-out`
    /// JSONL) keeps receiving every event as well.
    pub fn with_config(
        mut resolver: OnlineAdaLsh,
        rule: MatchRule,
        snapshot_path: Option<PathBuf>,
        config: PipelineConfig,
    ) -> Self {
        let metrics = Metrics::new();
        let composed = resolver.trace().with(metrics.engine_subscriber());
        resolver.set_trace(composed.clone());
        let spans = Arc::new(Spans::new(DEFAULT_RING_CAP, config.slow_ms));
        // A noisy-oracle resolver gets an external-verdict overlay so
        // POST /adjudicate can overrule individual pair verdicts.
        let overlay = match resolver.config().oracle {
            OracleMode::Noisy(_) => {
                let overlay = Arc::new(VerdictOverlay::default());
                resolver.set_oracle_overlay(Some(Arc::clone(&overlay)));
                Some(overlay)
            }
            OracleMode::Exact => None,
        };
        let pipeline = Pipeline::start(
            resolver,
            rule,
            snapshot_path.clone(),
            config,
            metrics.pipeline(),
            Arc::clone(&spans),
        );
        Self {
            pipeline,
            metrics,
            spans,
            sink: composed,
            snapshot_path,
            overlay,
        }
    }

    /// The service's metrics registry (the server layer records request
    /// latencies into it).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Routes one request to its handler. Returns the endpoint label
    /// used in metrics alongside the response.
    pub(crate) fn handle(&self, request: &Request) -> (&'static str, Response) {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => ("/healthz", self.healthz()),
            ("GET", "/topk") => ("/topk", self.topk(request)),
            ("GET", "/metrics") => ("/metrics", Response::text(200, self.metrics.render())),
            ("GET", "/debug/spans") => ("/debug/spans", self.debug_spans()),
            ("POST", "/ingest") => ("/ingest", self.ingest(request)),
            ("POST", "/snapshot") => ("/snapshot", self.snapshot()),
            ("POST", "/adjudicate") => ("/adjudicate", self.adjudicate(request)),
            ("GET", "/adjudicate") => ("/adjudicate", self.adjudication_state()),
            (
                _,
                "/healthz" | "/topk" | "/metrics" | "/debug/spans" | "/ingest" | "/snapshot"
                | "/adjudicate",
            ) => (
                "unmatched",
                Response::error(405, &format!("method {} not allowed here", request.method)),
            ),
            (_, path) => (
                "unmatched",
                Response::error(404, &format!("no route for {path}")),
            ),
        }
    }

    /// Liveness: one `Arc` clone of the published snapshot, no locks.
    fn healthz(&self) -> Response {
        let snapshot = self.pipeline.current();
        let body = Value::Map(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            ("records".to_string(), Value::U64(snapshot.records as u64)),
            ("epoch".to_string(), Value::U64(snapshot.epoch)),
        ]);
        json_ok(&body)
    }

    /// `GET /topk?k=N[&wait_epoch=E][&min_records=R]`: serves the first
    /// `N` clusters of the published snapshot (resolved at `resolve_k`;
    /// the canonical cluster order makes that prefix exactly the
    /// top-`N` answer). The optional barriers park until the published
    /// epoch / record count reaches the floor — plain reads clone an
    /// `Arc` and return.
    fn topk(&self, request: &Request) -> Response {
        // Every query gets a root span; the only child is the barrier
        // wait (a plain read's whole cost is the Arc clone, so deeper
        // decomposition would be noise).
        let root = self.spans.begin("topk_query", 0);
        let response = self.topk_inner(request, root.id);
        self.spans.finish(root, &[], &self.sink);
        response
    }

    fn topk_inner(&self, request: &Request, parent_span: u64) -> Response {
        let k: usize = match request.query_param("k") {
            None => return Response::error(400, "missing required query parameter k"),
            Some(raw) => match raw.parse() {
                Ok(k) if k >= 1 => k,
                Ok(_) => return Response::error(400, "k must be at least 1"),
                Err(e) => return Response::error(400, &format!("bad k '{raw}': {e}")),
            },
        };
        let resolve_k = self.pipeline.resolve_k();
        if k > resolve_k {
            return Response::error(
                400,
                &format!(
                    "k={k} exceeds the server's resolve depth {resolve_k}; \
                     restart with a larger --resolve-k to serve deeper answers"
                ),
            );
        }
        let wait_epoch = match parse_u64_param(request, "wait_epoch") {
            Ok(v) => v.unwrap_or(0),
            Err(response) => return response,
        };
        let min_records = match parse_u64_param(request, "min_records") {
            Ok(v) => v.unwrap_or(0),
            Err(response) => return response,
        };

        let mut snapshot = self.pipeline.current();
        if snapshot.epoch < wait_epoch || (snapshot.records as u64) < min_records {
            let wait = self.spans.begin("barrier_wait", parent_span);
            let reached = self.pipeline.wait_until(wait_epoch, min_records);
            self.spans
                .finish(wait, &[("epoch", TraceValue::U64(wait_epoch))], &self.sink);
            if !reached {
                let current = self.pipeline.current();
                return Response::error(
                    408,
                    &format!(
                        "barrier not reached before timeout: published epoch {} / {} records, \
                         needed epoch >= {wait_epoch} and records >= {min_records}",
                        current.epoch, current.records
                    ),
                );
            }
            snapshot = self.pipeline.current();
        }
        json_ok(&topk_value(&snapshot, k))
    }

    /// `GET /debug/spans`: the recent completed spans (newest first)
    /// from the in-memory ring — a live ops surface needing no trace
    /// file. Reads the ring under its own mutex; never touches the
    /// resolver.
    fn debug_spans(&self) -> Response {
        let recent = self.spans.recent();
        let items: Vec<Value> = recent
            .iter()
            .map(|span| {
                let mut fields = vec![
                    ("id".to_string(), Value::U64(span.id)),
                    ("parent".to_string(), Value::U64(span.parent)),
                    ("op".to_string(), Value::Str(span.op.to_string())),
                    ("start_micros".to_string(), Value::U64(span.start_micros)),
                    (
                        "duration_micros".to_string(),
                        Value::U64(span.duration_micros),
                    ),
                ];
                for (name, value) in &span.fields {
                    let json = match value {
                        OwnedValue::U64(v) => Value::U64(*v),
                        OwnedValue::F64(v) => Value::F64(*v),
                        OwnedValue::Str(v) => Value::Str(v.clone()),
                    };
                    fields.push((name.to_string(), json));
                }
                Value::Map(fields)
            })
            .collect();
        let body = Value::Map(vec![
            ("count".to_string(), Value::U64(items.len() as u64)),
            ("spans".to_string(), Value::Seq(items)),
        ]);
        json_ok(&body)
    }

    /// `POST /ingest`: schema-validated batch intake into the bounded
    /// pipeline queue. The batch is atomic — one bad record rejects the
    /// whole request and nothing is reserved. An accepted batch is
    /// answered *before* it is applied; the response carries the epoch
    /// at which it becomes visible (read-your-writes via
    /// `GET /topk?wait_epoch=<visible_epoch>`).
    fn ingest(&self, request: &Request) -> Response {
        let body = match request.body_utf8() {
            Ok(text) => text,
            Err(e) => return Response::error(400, &e),
        };
        let parsed: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
        };
        let Some(records_value) = parsed.get("records") else {
            return Response::error(400, "body must be an object with a 'records' array");
        };
        let records = match Vec::<Record>::from_value(records_value) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &format!("bad record in 'records': {e}")),
        };
        if records.is_empty() {
            return Response::error(400, "'records' must not be empty");
        }

        match self.pipeline.submit(records) {
            Ok(accepted) => {
                self.metrics.observe_ingest(accepted.ids.len());
                let body = Value::Map(vec![
                    ("ids".to_string(), accepted.ids.to_value()),
                    ("count".to_string(), Value::U64(accepted.ids.len() as u64)),
                    (
                        "visible_epoch".to_string(),
                        Value::U64(accepted.visible_epoch),
                    ),
                    (
                        "read_your_writes".to_string(),
                        Value::Str(format!(
                            "GET /topk?k=<k>&wait_epoch={} blocks until this batch is visible",
                            accepted.visible_epoch
                        )),
                    ),
                ]);
                json_ok(&body)
            }
            Err(SubmitError::Invalid(message)) => Response::error(400, &message),
            Err(SubmitError::Overloaded { retry_after_secs }) => {
                let body = Value::Map(vec![
                    (
                        "error".to_string(),
                        Value::Str("ingest queue full; the batch was NOT accepted".to_string()),
                    ),
                    (
                        "retry_after_seconds".to_string(),
                        Value::U64(retry_after_secs),
                    ),
                    (
                        "read_your_writes".to_string(),
                        Value::Str(
                            "nothing was reserved: retrying the identical request is safe"
                                .to_string(),
                        ),
                    ),
                ]);
                match serde_json::to_string(&body) {
                    Ok(text) => Response::json(503, text)
                        .with_header("Retry-After", retry_after_secs.to_string()),
                    Err(e) => Response::error(500, &format!("response serialization failed: {e}")),
                }
            }
            Err(SubmitError::ShuttingDown) => {
                Response::error(503, "server is shutting down; batch not accepted")
            }
        }
    }

    /// `POST /adjudicate`: external pairwise verdicts. Body shape
    /// `{"verdicts":[{"a":0,"b":1,"matched":false}, …]}`. Each verdict
    /// lands in the overlay (authoritative for its pair: the noisy
    /// oracle consults the overlay before spending any budget), then
    /// the resolver re-resolves at the current epoch so the corrected
    /// answer is visible to `/topk` when this request returns.
    fn adjudicate(&self, request: &Request) -> Response {
        let Some(overlay) = &self.overlay else {
            return Response::error(
                400,
                "external adjudication requires a noisy oracle: \
                 start the server with --oracle noisy",
            );
        };
        let body = match request.body_utf8() {
            Ok(text) => text,
            Err(e) => return Response::error(400, &e),
        };
        let parsed: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("body is not valid JSON: {e}")),
        };
        let Some(verdicts_value) = parsed.get("verdicts") else {
            return Response::error(400, "body must be an object with a 'verdicts' array");
        };
        let verdicts = match Vec::<Verdict>::from_value(verdicts_value) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("bad verdict in 'verdicts': {e}")),
        };
        if verdicts.is_empty() {
            return Response::error(400, "'verdicts' must not be empty");
        }
        if let Some(bad) = verdicts.iter().find(|v| v.a == v.b) {
            return Response::error(
                400,
                &format!(
                    "verdict pair ({}, {}) must name two distinct records",
                    bad.a, bad.b
                ),
            );
        }

        let mut version = overlay.version();
        for verdict in &verdicts {
            version = overlay.set(verdict.a, verdict.b, verdict.matched);
        }
        self.metrics.observe_adjudication(verdicts.len(), version);
        match self.pipeline.reresolve() {
            Ok(snapshot) => {
                let body = Value::Map(vec![
                    ("applied".to_string(), Value::U64(verdicts.len() as u64)),
                    ("overlay_version".to_string(), Value::U64(version)),
                    ("epoch".to_string(), Value::U64(snapshot.epoch)),
                    ("records".to_string(), Value::U64(snapshot.records as u64)),
                ]);
                json_ok(&body)
            }
            Err(e) => Response::error(503, &e),
        }
    }

    /// `GET /adjudicate`: the adjudication worklist — overlay state plus
    /// the published snapshot's degraded pairs (verdicts the oracle fell
    /// back to the cheap rule for; prime candidates for an external
    /// verdict).
    fn adjudication_state(&self) -> Response {
        let Some(overlay) = &self.overlay else {
            return Response::error(
                400,
                "external adjudication requires a noisy oracle: \
                 start the server with --oracle noisy",
            );
        };
        let snapshot = self.pipeline.current();
        let degraded: Vec<Value> = snapshot
            .oracle
            .as_ref()
            .map(|spend| {
                spend
                    .degraded_pairs
                    .iter()
                    .map(|&(a, b)| Value::Seq(vec![Value::U64(a as u64), Value::U64(b as u64)]))
                    .collect()
            })
            .unwrap_or_default();
        let body = Value::Map(vec![
            ("overlay_version".to_string(), Value::U64(overlay.version())),
            (
                "overlay_verdicts".to_string(),
                Value::U64(overlay.len() as u64),
            ),
            ("epoch".to_string(), Value::U64(snapshot.epoch)),
            ("degraded_pairs".to_string(), Value::Seq(degraded)),
        ]);
        json_ok(&body)
    }

    /// `POST /snapshot`: the resolver thread persists at the next epoch
    /// boundary; readers are never blocked, only this caller waits.
    fn snapshot(&self) -> Response {
        let Some(path) = &self.snapshot_path else {
            return Response::error(
                400,
                "snapshotting is disabled: start the server with --snapshot-out <path>",
            );
        };
        match self.pipeline.snapshot() {
            Ok(done) => {
                let body = Value::Map(vec![
                    ("path".to_string(), Value::Str(path.display().to_string())),
                    ("records".to_string(), Value::U64(done.records as u64)),
                    ("epoch".to_string(), Value::U64(done.epoch)),
                ]);
                json_ok(&body)
            }
            Err(e) => Response::error(500, &e),
        }
    }
}

/// One external pairwise verdict in a `POST /adjudicate` body.
#[derive(Debug, Deserialize)]
struct Verdict {
    a: u32,
    b: u32,
    matched: bool,
}

/// Parses an optional non-negative integer query parameter.
fn parse_u64_param(request: &Request, name: &str) -> Result<Option<u64>, Response> {
    match request.query_param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| Response::error(400, &format!("bad {name} '{raw}': {e}"))),
    }
}

/// Renders a value as a 200 JSON response.
fn json_ok(value: &Value) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("response serialization failed: {e}")),
    }
}

/// JSON shape of a `/topk` answer, assembled from the published
/// snapshot: the first `k` clusters plus the resolve pass's stats and
/// provenance (`epoch`, `records`, `resolve_k`).
fn topk_value(snapshot: &ResolvedSnapshot, k: usize) -> Value {
    let clusters: Vec<Vec<u32>> = snapshot.clusters.iter().take(k).cloned().collect();
    let mut fields = vec![
        ("k".to_string(), Value::U64(k as u64)),
        ("epoch".to_string(), Value::U64(snapshot.epoch)),
        ("records".to_string(), Value::U64(snapshot.records as u64)),
        (
            "resolve_k".to_string(),
            Value::U64(snapshot.resolve_k as u64),
        ),
        ("clusters".to_string(), clusters.to_value()),
        ("stats".to_string(), snapshot.stats.to_value()),
        (
            "wall_micros".to_string(),
            Value::U64(snapshot.resolve_wall.as_micros() as u64),
        ),
    ];
    if let Some(spend) = &snapshot.oracle {
        fields.push(("oracle".to_string(), spend.to_value()));
    }
    Value::Map(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_core::AdaLshConfig;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, FieldValue, Schema, ShingleSet};

    fn shingle_record(items: &[u64]) -> Record {
        Record::single(FieldValue::Shingles(ShingleSet::new(items.to_vec())))
    }

    fn test_service() -> Service {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        Service::new(resolver, rule, None)
    }

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            None => (path.to_string(), Vec::new()),
            Some((p, qs)) => (
                p.to_string(),
                qs.split('&')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                        (k.to_string(), v.to_string())
                    })
                    .collect(),
            ),
        };
        Request {
            method: "GET".to_string(),
            path,
            query,
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_reports_record_count_and_epoch() {
        let service = test_service();
        let (endpoint, response) = service.handle(&get("/healthz"));
        assert_eq!(endpoint, "/healthz");
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"records\":8"), "{text}");
        assert!(text.contains("\"epoch\":0"), "{text}");
    }

    #[test]
    fn topk_requires_a_valid_k_within_resolve_depth() {
        let service = test_service();
        assert_eq!(service.handle(&get("/topk")).1.status, 400);
        assert_eq!(service.handle(&get("/topk?k=0")).1.status, 400);
        assert_eq!(service.handle(&get("/topk?k=nope")).1.status, 400);
        // Deeper than the configured resolve_k cannot be served from the
        // published snapshot.
        assert_eq!(service.handle(&get("/topk?k=1000")).1.status, 400);
        assert_eq!(service.handle(&get("/topk?k=2&wait_epoch=x")).1.status, 400);
        let ok = service.handle(&get("/topk?k=2")).1;
        assert_eq!(ok.status, 200);
        let text = String::from_utf8(ok.body).unwrap();
        assert!(text.contains("\"clusters\":"), "{text}");
        assert!(text.contains("\"hash_evals\":"), "{text}");
        assert!(text.contains("\"epoch\":0"), "{text}");
    }

    #[test]
    fn topk_wait_epoch_observes_a_prior_ingest() {
        let service = test_service();
        let good = "{\"records\":[{\"fields\":[{\"Shingles\":[1,2,3]}]},\
                     {\"fields\":[{\"Shingles\":[4,5,6]}]}]}";
        let response = service.handle(&post("/ingest", good)).1;
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"visible_epoch\":1"), "{text}");

        let read = service.handle(&get("/topk?k=2&wait_epoch=1")).1;
        assert_eq!(read.status, 200);
        let text = String::from_utf8(read.body).unwrap();
        assert!(text.contains("\"records\":10"), "{text}");

        let read = service.handle(&get("/topk?k=2&min_records=10")).1;
        assert_eq!(read.status, 200);
    }

    #[test]
    fn ingest_validates_and_is_atomic() {
        let service = test_service();
        // Not JSON.
        assert_eq!(service.handle(&post("/ingest", "nope")).1.status, 400);
        // JSON but wrong shape.
        assert_eq!(service.handle(&post("/ingest", "{}")).1.status, 400);
        assert_eq!(
            service
                .handle(&post("/ingest", "{\"records\":[]}"))
                .1
                .status,
            400
        );
        // Second record violates the schema (two fields) — nothing lands.
        let bad = "{\"records\":[{\"fields\":[{\"Shingles\":[1,2]}]},\
                    {\"fields\":[{\"Shingles\":[1]},{\"Shingles\":[2]}]}]}";
        assert_eq!(service.handle(&post("/ingest", bad)).1.status, 400);
        let health = String::from_utf8(service.handle(&get("/healthz")).1.body).unwrap();
        assert!(health.contains("\"records\":8"), "{health}");

        // A clean batch is accepted; ids and the visibility epoch come
        // back in order (the rejected batch burned neither).
        let good = "{\"records\":[{\"fields\":[{\"Shingles\":[1,2,3]}]},\
                     {\"fields\":[{\"Shingles\":[4,5,6]}]}]}";
        let response = service.handle(&post("/ingest", good)).1;
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"ids\":[8,9]"), "{text}");
        assert!(text.contains("\"count\":2"), "{text}");
        assert!(text.contains("\"visible_epoch\":1"), "{text}");
        assert!(text.contains("read_your_writes"), "{text}");
    }

    #[test]
    fn unknown_routes_and_methods_are_structured_errors() {
        let service = test_service();
        let (endpoint, response) = service.handle(&get("/nope"));
        assert_eq!(endpoint, "unmatched");
        assert_eq!(response.status, 404);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("\"error\""));
        assert_eq!(service.handle(&post("/topk", "")).1.status, 405);
        assert_eq!(service.handle(&get("/ingest")).1.status, 405);
    }

    #[test]
    fn snapshot_without_a_path_is_rejected() {
        let service = test_service();
        let response = service.handle(&post("/snapshot", "")).1;
        assert_eq!(response.status, 400);
    }

    fn noisy_service(cfg: adalsh_core::NoisyOracleConfig) -> Service {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let mut config = AdaLshConfig::new(rule.clone());
        config.oracle = adalsh_core::OracleMode::Noisy(cfg);
        let resolver = OnlineAdaLsh::new(&dataset, config).unwrap();
        Service::new(resolver, rule, None)
    }

    #[test]
    fn adjudicate_requires_a_noisy_oracle() {
        let service = test_service();
        let body = "{\"verdicts\":[{\"a\":0,\"b\":1,\"matched\":false}]}";
        assert_eq!(service.handle(&post("/adjudicate", body)).1.status, 400);
        assert_eq!(service.handle(&get("/adjudicate")).1.status, 400);
        // Route exists for other methods too: 405, not 404.
        let put = Request {
            method: "PUT".to_string(),
            path: "/adjudicate".to_string(),
            query: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(service.handle(&put).1.status, 405);
    }

    #[test]
    fn adjudicate_validates_its_body() {
        let service = noisy_service(adalsh_core::NoisyOracleConfig::default());
        assert_eq!(service.handle(&post("/adjudicate", "nope")).1.status, 400);
        assert_eq!(service.handle(&post("/adjudicate", "{}")).1.status, 400);
        assert_eq!(
            service
                .handle(&post("/adjudicate", "{\"verdicts\":[]}"))
                .1
                .status,
            400
        );
        // A pair must name two distinct records.
        let own = "{\"verdicts\":[{\"a\":3,\"b\":3,\"matched\":true}]}";
        let response = service.handle(&post("/adjudicate", own)).1;
        assert_eq!(response.status, 400);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("distinct"));
    }

    #[test]
    fn adjudicate_overrules_the_oracle_and_republishes() {
        // Zero noise: the oracle tracks the rule exactly until the
        // overlay says otherwise.
        let service = noisy_service(adalsh_core::NoisyOracleConfig::default());
        let before = service.pipeline.current();
        assert!(
            before.stats.pair_comparisons > 0,
            "precondition: the boot resolve adjudicates pairs through the oracle"
        );
        let spend = before
            .oracle
            .as_ref()
            .expect("noisy snapshot carries spend");
        assert!(spend.calls > 0, "oracle settled the pairwise verdicts");
        let top = &before.clusters[0];
        assert!(top.len() >= 2, "precondition: a non-trivial top cluster");
        let (a, b) = (top[0], top[1]);

        let body = format!("{{\"verdicts\":[{{\"a\":{a},\"b\":{b},\"matched\":false}}]}}");
        let response = service.handle(&post("/adjudicate", &body)).1;
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"applied\":1"), "{text}");
        assert!(text.contains("\"overlay_version\":1"), "{text}");

        // The re-published answer no longer co-clusters the pair.
        let after = service.pipeline.current();
        assert_eq!(after.epoch, before.epoch, "re-resolve keeps the epoch");
        assert!(
            !after
                .clusters
                .iter()
                .any(|c| c.contains(&a) && c.contains(&b)),
            "overruled pair must be split: {:?}",
            after.clusters
        );

        // The worklist endpoint reflects the overlay.
        let state = service.handle(&get("/adjudicate")).1;
        assert_eq!(state.status, 200);
        let text = String::from_utf8(state.body).unwrap();
        assert!(text.contains("\"overlay_version\":1"), "{text}");
        assert!(text.contains("\"overlay_verdicts\":1"), "{text}");

        // /topk exposes the oracle ledger of the re-resolve.
        let read = service.handle(&get("/topk?k=2")).1;
        assert_eq!(read.status, 200);
        let text = String::from_utf8(read.body).unwrap();
        assert!(text.contains("\"oracle\":"), "{text}");

        // Metrics carry the overlay families.
        let metrics = service.metrics.render();
        assert!(
            metrics.contains("adalsh_oracle_overlay_verdicts_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("adalsh_oracle_overlay_version 1"),
            "{metrics}"
        );
        assert!(metrics.contains("adalsh_oracle_calls_total"), "{metrics}");
    }

    /// Satellite chaos drill: a resolver-thread panic (injected via the
    /// oracle's test-only `panic_on_record` hook on the first ingested
    /// record id) must not wedge readers. `/topk` and `/healthz` keep
    /// serving the last published epoch lock-free, and `/ingest`
    /// surfaces 503 once the intake channel disconnects — never a hang,
    /// never a poisoned-read panic.
    #[test]
    fn resolver_panic_keeps_reads_alive_and_sheds_writes() {
        let service = noisy_service(adalsh_core::NoisyOracleConfig {
            // Boot records are ids 0..8; the first ingested record gets
            // id 8 and detonates during its resolve pass.
            panic_on_record: Some(8),
            ..Default::default()
        });
        let before = service.pipeline.current();
        assert_eq!(before.epoch, 0, "boot resolve avoids the tripwire");

        // A duplicate of record 0 joins its cluster, forcing a pairwise
        // adjudication against id 8 on the resolver thread.
        let body = "{\"records\":[{\"fields\":[{\"Shingles\":[0,1,2,100]}]}]}";
        let accepted = service.handle(&post("/ingest", body)).1;
        assert_eq!(accepted.status, 200, "intake happens before the panic");

        // The write path must surface the dead resolver as 503 (the
        // channel disconnects when the thread unwinds) — bounded wait.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let response = service.handle(&post("/ingest", body)).1;
            if response.status == 503 {
                let text = String::from_utf8(response.body).unwrap();
                assert!(text.contains("shutting down"), "{text}");
                break;
            }
            assert_eq!(response.status, 200, "before death, ingest still works");
            assert!(
                std::time::Instant::now() < deadline,
                "resolver thread should have died from the injected panic"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Reads never wedge: the boot snapshot is still served.
        let read = service.handle(&get("/topk?k=2")).1;
        assert_eq!(read.status, 200);
        let text = String::from_utf8(read.body).unwrap();
        assert!(text.contains("\"epoch\":0"), "{text}");
        let health = service.handle(&get("/healthz")).1;
        assert_eq!(health.status, 200);
        // A barrier read on the never-published epoch times out with
        // 408 instead of hanging forever (10s pipeline default).
        // Plain reads and metrics stay lock-free throughout.
        assert_eq!(service.handle(&get("/metrics")).1.status, 200);
    }
}
