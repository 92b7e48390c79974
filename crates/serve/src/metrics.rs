//! Service metrics with Prometheus text exposition, built on the shared
//! [`adalsh_obs`] registry.
//!
//! The registry is lock-light: counters and histogram buckets are
//! atomics, and the only mutexes guard the small label maps and the
//! family list. A scrape renders the standard text format without
//! touching the resolver lock, so `/metrics` stays responsive while a
//! long query holds the engine.
//!
//! Besides the request-level families, the service folds the engine's
//! structured trace into **engine histograms**: an [`EngineMetrics`]
//! subscriber rides on the resolver's [`adalsh_obs::TraceSink`] and
//! turns `hash_round` / `pairwise_block` / `gate` events into
//! `adalsh_engine_*` families, giving per-round latency distributions
//! and gate-decision counts on the same scrape endpoint.

use std::sync::Arc;
use std::time::Duration;

use adalsh_core::Stats;
use adalsh_obs::{
    Counter, Event, Gauge, GaugeF64, Histogram, LabeledCounter, Registry, Subscriber,
};

/// Upper bounds (seconds) of the request-latency histogram buckets; a
/// final `+Inf` bucket is implicit. Spans sub-millisecond health checks
/// to multi-second cold queries.
pub const LATENCY_BUCKETS_SECS: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0];

/// Upper bounds (seconds) for the pipeline-pass histograms
/// (`adalsh_publish_seconds`, `adalsh_ingest_to_visible_seconds`): a
/// coalesced resolve pass at scale-tier load (10⁶ records, PR 9's mmap
/// store) legitimately runs tens of seconds, so the tail extends well
/// past the request-latency buckets instead of saturating at 10s.
pub const PIPELINE_BUCKETS_SECS: [f64; 11] = [
    0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0, 30.0, 60.0, 120.0,
];

/// Upper bounds (seconds) for the engine-internal histograms: hash
/// rounds and pairwise blocks run from microseconds (tiny clusters) to
/// seconds (the level-1 sweep over the whole corpus).
pub const ENGINE_BUCKETS_SECS: [f64; 7] = [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Upper bounds (records) for the resolve-pass batch-size histogram:
/// one pass coalesces anywhere from a single record to `--max-batch`,
/// and the scale tier drives batches into the 10⁴–10⁵ range — the top
/// finite bucket sits above that so heavy passes don't all collapse
/// into `+Inf`.
pub const BATCH_BUCKETS_RECORDS: [f64; 9] = [
    1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0, 131072.0,
];

/// All counters exported on `/metrics`.
pub struct Metrics {
    registry: Registry,
    /// Requests by `(endpoint, status)`.
    requests: LabeledCounter,
    /// Request wall latency (exact f64 sum — not truncated to micros).
    latency: Histogram,
    /// Records accepted by `/ingest` since startup (resumed records are
    /// not counted: this meters service work, not corpus size).
    ingested_records: Counter,
    /// External verdicts accepted over `POST /adjudicate`.
    overlay_verdicts: Counter,
    /// Version of the external-verdict overlay (bumps per verdict).
    overlay_version: Gauge,
    /// Trace-fed engine families (shares `registry`).
    engine: Arc<EngineMetrics>,
    /// Ingest-pipeline families (shares `registry`); handed to the
    /// [`crate::pipeline::Pipeline`] at construction.
    pipeline: PipelineMetrics,
}

impl Metrics {
    /// Creates an empty registry with every family pre-registered (so a
    /// scrape before the first request still lists them all).
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.labeled_counter(
            "adalsh_requests_total",
            "Requests served, by endpoint and status.",
            &["endpoint", "status"],
        );
        let latency = registry.histogram(
            "adalsh_request_seconds",
            "Request wall latency.",
            &LATENCY_BUCKETS_SECS,
        );
        let ingested_records = registry.counter(
            "adalsh_ingested_records_total",
            "Records accepted over /ingest since startup.",
        );
        let overlay_verdicts = registry.counter(
            "adalsh_oracle_overlay_verdicts_total",
            "External pairwise verdicts accepted over POST /adjudicate.",
        );
        let overlay_version = registry.gauge(
            "adalsh_oracle_overlay_version",
            "Version of the external-verdict overlay (bumps per verdict).",
        );
        let pipeline = PipelineMetrics::register(&registry);
        let engine = Arc::new(EngineMetrics::register(&registry));
        Self {
            registry,
            requests,
            latency,
            ingested_records,
            overlay_verdicts,
            overlay_version,
            engine,
            pipeline,
        }
    }

    /// Records one finished request: its endpoint label (the matched
    /// path, or `"unmatched"`), response status, and wall latency.
    pub fn observe_request(&self, endpoint: &str, status: u16, latency: Duration) {
        self.requests.inc(&[endpoint, &status.to_string()]);
        self.latency.observe(latency.as_secs_f64());
    }

    /// Adds newly ingested records to the intake counter.
    pub fn observe_ingest(&self, records: usize) {
        self.ingested_records.add(records as u64);
    }

    /// Records one accepted `/adjudicate` request: the number of
    /// verdicts applied and the overlay version they produced.
    pub fn observe_adjudication(&self, verdicts: usize, overlay_version: u64) {
        self.overlay_verdicts.add(verdicts as u64);
        self.overlay_version.set(overlay_version);
    }

    /// The pipeline's handle bundle (cheap clone — every member is
    /// atomics behind an `Arc`).
    pub fn pipeline(&self) -> PipelineMetrics {
        self.pipeline.clone()
    }

    /// The trace subscriber feeding the `adalsh_engine_*` families.
    /// Install it on the resolver's sink (composed via
    /// [`adalsh_obs::TraceSink::with`] so a caller-installed JSONL
    /// writer keeps receiving events too).
    pub fn engine_subscriber(&self) -> Arc<dyn Subscriber> {
        self.engine.clone()
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").finish_non_exhaustive()
    }
}

/// Handles for the ingest-pipeline families, passed into the pipeline
/// so the resolver thread and the intake path can record without going
/// through [`Metrics`].
#[derive(Clone)]
pub struct PipelineMetrics {
    /// `adalsh_ingest_queue_depth` — batches waiting in the intake queue.
    pub queue_depth: Gauge,
    /// `adalsh_published_epoch` — epoch of the published snapshot.
    pub published_epoch: Gauge,
    /// `adalsh_resolve_batch_records` — records coalesced per resolve pass.
    pub batch_records: Histogram,
    /// `adalsh_publish_seconds` — pop-to-publish wall time of one pass.
    pub publish_seconds: Histogram,
    /// `adalsh_ingest_to_visible_seconds` — accept-to-publish wall time
    /// of an ingest batch (the root `ingest_batch` span's duration).
    pub ingest_to_visible: Histogram,
    /// `adalsh_queue_age_seconds` — queue wait of the most recently
    /// dequeued ingest batch (how stale the intake queue runs).
    pub queue_age: GaugeF64,
    /// `adalsh_resolve_minor_page_faults_total` — minor page faults
    /// charged to resolve passes (mmap-tier paging attribution).
    pub resolve_minor_faults: Counter,
    /// `adalsh_resolve_major_page_faults_total` — likewise, major.
    pub resolve_major_faults: Counter,
    /// `adalsh_applied_batches_total` — accepted batches applied.
    pub applied_batches: Counter,
    /// `adalsh_rejected_batches_total` — batches shed with 503.
    pub rejected_batches: Counter,
    /// `adalsh_hash_evals_total` — cumulative over resolve passes.
    pub hash_evals: Counter,
    /// `adalsh_pairwise_evals_total` — likewise.
    pub pairwise_evals: Counter,
    /// `adalsh_bucket_inserts_total` — likewise; an online pass inserts
    /// only the keys its stored bucket tables have not seen.
    pub bucket_inserts: Counter,
    /// `adalsh_transitive_reused_total` — likewise.
    pub transitive_reused: Counter,
    /// `adalsh_pairwise_reused_total` — likewise.
    pub pairwise_reused: Counter,
}

impl PipelineMetrics {
    /// Registers the pipeline families on `registry`.
    fn register(registry: &Registry) -> Self {
        Self {
            hash_evals: registry.counter(
                "adalsh_hash_evals_total",
                "Elementary hash evaluations across all resolve passes.",
            ),
            pairwise_evals: registry.counter(
                "adalsh_pairwise_evals_total",
                "Record-pair comparisons across all resolve passes.",
            ),
            bucket_inserts: registry.counter(
                "adalsh_bucket_inserts_total",
                "Keys inserted into transitive hashing bucket tables across all resolve passes.",
            ),
            transitive_reused: registry.counter(
                "adalsh_transitive_reused_total",
                "Transitive hashing calls that started from a partition kept from an earlier resolve pass.",
            ),
            pairwise_reused: registry.counter(
                "adalsh_pairwise_reused_total",
                "Pairwise calls that started from a partition kept from an earlier resolve pass.",
            ),
            queue_depth: registry.gauge(
                "adalsh_ingest_queue_depth",
                "Ingest batches currently waiting in the bounded intake queue.",
            ),
            published_epoch: registry.gauge(
                "adalsh_published_epoch",
                "Epoch (applied ingest batches) of the published snapshot.",
            ),
            batch_records: registry.histogram(
                "adalsh_resolve_batch_records",
                "Records coalesced into one resolve pass by the resolver thread.",
                &BATCH_BUCKETS_RECORDS,
            ),
            publish_seconds: registry.histogram(
                "adalsh_publish_seconds",
                "Wall time from popping a batch to publishing its snapshot.",
                &PIPELINE_BUCKETS_SECS,
            ),
            ingest_to_visible: registry.histogram(
                "adalsh_ingest_to_visible_seconds",
                "Wall time from accepting an ingest batch to publishing the snapshot \
                 that makes it visible.",
                &PIPELINE_BUCKETS_SECS,
            ),
            queue_age: registry.gauge_f64(
                "adalsh_queue_age_seconds",
                "Queue wait, in seconds, of the most recently dequeued ingest batch.",
            ),
            resolve_minor_faults: registry.counter(
                "adalsh_resolve_minor_page_faults_total",
                "Minor page faults incurred during resolve passes.",
            ),
            resolve_major_faults: registry.counter(
                "adalsh_resolve_major_page_faults_total",
                "Major page faults incurred during resolve passes (mmap-tier reads).",
            ),
            applied_batches: registry.counter(
                "adalsh_applied_batches_total",
                "Accepted ingest batches applied by the resolver thread.",
            ),
            rejected_batches: registry.counter(
                "adalsh_rejected_batches_total",
                "Ingest batches shed with 503 because the intake queue was full.",
            ),
        }
    }
}

impl PipelineMetrics {
    /// Adds one resolve pass's engine work to the cumulative totals.
    pub fn observe_pass(&self, stats: &Stats) {
        self.hash_evals.add(stats.hash_evals);
        self.pairwise_evals.add(stats.pair_comparisons);
        self.bucket_inserts.add(stats.bucket_inserts);
        self.transitive_reused.add(stats.transitive_reused);
        self.pairwise_reused.add(stats.pairwise_reused);
    }
}

impl std::fmt::Debug for PipelineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineMetrics").finish_non_exhaustive()
    }
}

/// Folds engine trace events into Prometheus families. Lives on the
/// resolver's [`adalsh_obs::TraceSink`]; events it does not chart
/// (run bounds, finals, online-query summaries) pass through untouched.
pub struct EngineMetrics {
    hash_round_seconds: Histogram,
    pairwise_block_seconds: Histogram,
    gate_decisions: LabeledCounter,
    oracle_calls: Counter,
    oracle_attempts: Counter,
    oracle_retries: Counter,
    oracle_timeouts: Counter,
    oracle_errors: Counter,
    oracle_degraded: Counter,
    oracle_spend: Counter,
    oracle_verdicts: LabeledCounter,
}

impl EngineMetrics {
    /// Registers the engine families on `registry`.
    fn register(registry: &Registry) -> Self {
        Self {
            hash_round_seconds: registry.histogram(
                "adalsh_engine_hash_round_seconds",
                "Wall time of one transitive hashing round (one H_t application).",
                &ENGINE_BUCKETS_SECS,
            ),
            pairwise_block_seconds: registry.histogram(
                "adalsh_engine_pairwise_block_seconds",
                "Wall time of one pairwise wavefront block.",
                &ENGINE_BUCKETS_SECS,
            ),
            gate_decisions: registry.labeled_counter(
                "adalsh_engine_gate_decisions_total",
                "Line-5 jump-gate decisions, by chosen action.",
                &["action"],
            ),
            oracle_calls: registry.counter(
                "adalsh_oracle_calls_total",
                "Settled pairwise-oracle adjudications.",
            ),
            oracle_attempts: registry.counter(
                "adalsh_oracle_attempts_total",
                "Oracle attempts, including retries and vote slots.",
            ),
            oracle_retries: registry.counter(
                "adalsh_oracle_retries_total",
                "Oracle attempts retried after a timeout or transient error.",
            ),
            oracle_timeouts: registry.counter(
                "adalsh_oracle_timeouts_total",
                "Oracle attempts reaped by the per-attempt timeout.",
            ),
            oracle_errors: registry.counter(
                "adalsh_oracle_errors_total",
                "Oracle attempts failed with a transient error.",
            ),
            oracle_degraded: registry.counter(
                "adalsh_oracle_degraded_total",
                "Adjudications degraded to the cheap rule (budget or deadline).",
            ),
            oracle_spend: registry.counter(
                "adalsh_oracle_spend_total",
                "Budget units charged by settled adjudications.",
            ),
            oracle_verdicts: registry.labeled_counter(
                "adalsh_oracle_verdicts_total",
                "Settled oracle verdicts, by outcome.",
                &["verdict"],
            ),
        }
    }
}

impl Subscriber for EngineMetrics {
    fn event(&self, event: &Event<'_>) {
        match event.name {
            "hash_round" => {
                if let Some(micros) = event.u64("wall_micros") {
                    self.hash_round_seconds.observe(micros as f64 / 1e6);
                }
            }
            "pairwise_block" => {
                if let Some(micros) = event.u64("wall_micros") {
                    self.pairwise_block_seconds.observe(micros as f64 / 1e6);
                }
            }
            "gate" => {
                if let Some(action) = event.str("action") {
                    self.gate_decisions.inc(&[action]);
                }
            }
            "oracle_call" => {
                let u = |name: &str| event.u64(name).unwrap_or(0);
                self.oracle_calls.inc();
                self.oracle_attempts.add(u("attempts"));
                self.oracle_retries.add(u("retries"));
                self.oracle_timeouts.add(u("timeouts"));
                self.oracle_errors.add(u("errors"));
                self.oracle_degraded.add(u("degraded"));
                self.oracle_spend.add(u("spend"));
                let verdict = if u("matched") == 1 {
                    "match"
                } else {
                    "non-match"
                };
                self.oracle_verdicts.inc(&[verdict]);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_obs::{promtext, TraceSink, Value};

    #[test]
    fn render_contains_all_families() {
        let m = Metrics::new();
        m.observe_request("/topk", 200, Duration::from_millis(3));
        m.observe_request("/topk", 200, Duration::from_millis(40));
        m.observe_request("/ingest", 400, Duration::from_micros(200));
        m.observe_ingest(7);
        let p = m.pipeline();
        p.observe_pass(&Stats {
            hash_evals: 11,
            pair_comparisons: 5,
            bucket_inserts: 13,
            transitive_reused: 2,
            pairwise_reused: 3,
            ..Stats::default()
        });

        let text = m.render();
        assert!(text.contains("adalsh_requests_total{endpoint=\"/topk\",status=\"200\"} 2"));
        assert!(text.contains("adalsh_requests_total{endpoint=\"/ingest\",status=\"400\"} 1"));
        assert!(text.contains("adalsh_request_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("adalsh_request_seconds_count 3"));
        assert!(text.contains("adalsh_ingested_records_total 7"));
        assert!(text.contains("adalsh_hash_evals_total 11"));
        assert!(text.contains("adalsh_pairwise_evals_total 5"));
        assert!(text.contains("adalsh_bucket_inserts_total 13"));
        assert!(text.contains("adalsh_transitive_reused_total 2"));
        assert!(text.contains("adalsh_pairwise_reused_total 3"));
        // Engine families are pre-registered even before any query.
        assert!(text.contains("adalsh_engine_hash_round_seconds_count 0"));
        assert!(text.contains("adalsh_engine_pairwise_block_seconds_count 0"));
        // Pipeline families likewise exist before the first batch.
        assert!(text.contains("adalsh_ingest_queue_depth 0"));
        assert!(text.contains("adalsh_published_epoch 0"));
        assert!(text.contains("adalsh_resolve_batch_records_count 0"));
        assert!(text.contains("adalsh_publish_seconds_count 0"));
        assert!(text.contains("adalsh_applied_batches_total 0"));
        assert!(text.contains("adalsh_rejected_batches_total 0"));
    }

    #[test]
    fn pipeline_handles_feed_the_shared_registry() {
        let m = Metrics::new();
        let p = m.pipeline();
        p.queue_depth.inc();
        p.queue_depth.inc();
        p.queue_depth.dec();
        p.published_epoch.set(17);
        p.batch_records.observe(96.0);
        p.publish_seconds.observe(0.012);
        p.applied_batches.add(3);
        p.rejected_batches.inc();

        let text = m.render();
        assert!(text.contains("adalsh_ingest_queue_depth 1"), "{text}");
        assert!(text.contains("adalsh_published_epoch 17"), "{text}");
        assert!(
            text.contains("adalsh_resolve_batch_records_count 1"),
            "{text}"
        );
        assert!(text.contains("adalsh_applied_batches_total 3"), "{text}");
        assert!(text.contains("adalsh_rejected_batches_total 1"), "{text}");
        assert!(
            text.contains("# TYPE adalsh_ingest_queue_depth gauge"),
            "{text}"
        );
        let samples = promtext::parse(&text).unwrap();
        promtext::check_histogram(&samples, "adalsh_resolve_batch_records").unwrap();
        promtext::check_histogram(&samples, "adalsh_publish_seconds").unwrap();
    }

    /// Satellite audit: every bucket table is strictly increasing and
    /// covers the ranges the system actually produces — sub-millisecond
    /// health checks at the bottom, scale-tier resolve passes (10⁶
    /// records, tens of seconds) at the top — so load does not collapse
    /// into the `+Inf` bucket.
    #[test]
    #[allow(clippy::assertions_on_constants)] // the table *is* the test subject
    fn bucket_tables_are_increasing_and_cover_observed_ranges() {
        for (name, table) in [
            ("latency", &LATENCY_BUCKETS_SECS[..]),
            ("pipeline", &PIPELINE_BUCKETS_SECS[..]),
            ("engine", &ENGINE_BUCKETS_SECS[..]),
            ("batch", &BATCH_BUCKETS_RECORDS[..]),
        ] {
            assert!(
                table.windows(2).all(|w| w[0] < w[1]),
                "{name} buckets must be strictly increasing: {table:?}"
            );
            assert!(
                table.iter().all(|b| b.is_finite() && *b > 0.0),
                "{name} buckets must be finite and positive: {table:?}"
            );
        }
        // Request latencies: sub-millisecond health checks resolve below
        // the bottom bucket's neighborhood; multi-second cold queries fit
        // under the top finite bucket.
        assert!(LATENCY_BUCKETS_SECS[0] <= 0.001);
        assert!(*LATENCY_BUCKETS_SECS.last().unwrap() >= 10.0);
        // Pipeline passes: a scale-tier coalesced resolve can run tens of
        // seconds — the old 10s ceiling saturated there.
        assert!(*PIPELINE_BUCKETS_SECS.last().unwrap() >= 60.0);
        // Engine rounds span microseconds to seconds.
        assert!(ENGINE_BUCKETS_SECS[0] <= 1e-5);
        assert!(*ENGINE_BUCKETS_SECS.last().unwrap() >= 1.0);
        // Batch sizes: a single record at the bottom; scale-tier passes
        // coalesce into the 10⁴–10⁵ range, inside the finite buckets.
        assert_eq!(BATCH_BUCKETS_RECORDS[0], 1.0);
        assert!(*BATCH_BUCKETS_RECORDS.last().unwrap() >= 100_000.0);
    }

    #[test]
    fn pipeline_families_include_span_backed_metrics() {
        let m = Metrics::new();
        let p = m.pipeline();
        p.ingest_to_visible.observe(0.25);
        p.queue_age.set(0.75);
        p.resolve_minor_faults.add(12);
        p.resolve_major_faults.add(3);
        let text = m.render();
        assert!(
            text.contains("adalsh_ingest_to_visible_seconds_count 1"),
            "{text}"
        );
        assert!(text.contains("adalsh_queue_age_seconds 0.75"), "{text}");
        assert!(
            text.contains("adalsh_resolve_minor_page_faults_total 12"),
            "{text}"
        );
        assert!(
            text.contains("adalsh_resolve_major_page_faults_total 3"),
            "{text}"
        );
        let samples = promtext::parse(&text).unwrap();
        promtext::check_histogram(&samples, "adalsh_ingest_to_visible_seconds").unwrap();
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_request("/healthz", 200, Duration::from_micros(500));
        let text = m.render();
        // A 0.5ms request lands in every bucket from le="0.001" upward.
        assert!(text.contains("adalsh_request_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("adalsh_request_seconds_bucket{le=\"10\"} 1"));
    }

    /// The seed implementation truncated `_sum` to whole microseconds
    /// and double-counted nothing into `+Inf`; the parser-backed checks
    /// pin the correct semantics: `+Inf == _count`, buckets cumulative
    /// and nondecreasing, `_sum` an exact f64 total.
    #[test]
    fn latency_histogram_has_valid_prometheus_semantics() {
        let m = Metrics::new();
        m.observe_request("/topk", 200, Duration::from_secs_f64(0.0000007));
        m.observe_request("/topk", 200, Duration::from_secs_f64(0.0123));
        m.observe_request("/topk", 200, Duration::from_secs_f64(99.0));

        let samples = promtext::parse(&m.render()).expect("exposition parses");
        promtext::check_histogram(&samples, "adalsh_request_seconds").expect("valid histogram");

        let sum = samples
            .iter()
            .find(|s| s.name == "adalsh_request_seconds_sum")
            .unwrap()
            .value;
        // Sub-microsecond latencies survive: the sum is not truncated to
        // whole micros (0.0000007 would truncate to 0).
        assert!(
            (sum - (0.0000007 + 0.0123 + 99.0)).abs() < 1e-9,
            "exact f64 sum, got {sum}"
        );
        let inf = samples
            .iter()
            .find(|s| s.name == "adalsh_request_seconds_bucket" && s.label("le") == Some("+Inf"))
            .unwrap()
            .value;
        assert_eq!(inf as u64, 3, "+Inf bucket counts every observation");
    }

    #[test]
    fn oracle_families_fold_oracle_call_events() {
        let m = Metrics::new();
        // Pre-registered before any noisy run.
        let before = m.render();
        assert!(before.contains("adalsh_oracle_calls_total 0"), "{before}");
        assert!(
            before.contains("adalsh_oracle_overlay_verdicts_total 0"),
            "{before}"
        );

        let sink = TraceSink::new(m.engine_subscriber());
        sink.emit(
            "oracle_call",
            &[
                ("attempts", Value::U64(3)),
                ("retries", Value::U64(2)),
                ("votes", Value::U64(0)),
                ("timeouts", Value::U64(1)),
                ("errors", Value::U64(1)),
                ("spend", Value::U64(3)),
                ("degraded", Value::U64(0)),
                ("matched", Value::U64(1)),
                ("latency_micros", Value::U64(500)),
            ],
        );
        sink.emit(
            "oracle_call",
            &[
                ("attempts", Value::U64(1)),
                ("retries", Value::U64(0)),
                ("votes", Value::U64(0)),
                ("timeouts", Value::U64(0)),
                ("errors", Value::U64(0)),
                ("spend", Value::U64(0)),
                ("degraded", Value::U64(1)),
                ("matched", Value::U64(0)),
                ("latency_micros", Value::U64(0)),
            ],
        );
        m.observe_adjudication(2, 2);

        let text = m.render();
        assert!(text.contains("adalsh_oracle_calls_total 2"), "{text}");
        assert!(text.contains("adalsh_oracle_attempts_total 4"), "{text}");
        assert!(text.contains("adalsh_oracle_retries_total 2"), "{text}");
        assert!(text.contains("adalsh_oracle_timeouts_total 1"), "{text}");
        assert!(text.contains("adalsh_oracle_errors_total 1"), "{text}");
        assert!(text.contains("adalsh_oracle_degraded_total 1"), "{text}");
        assert!(text.contains("adalsh_oracle_spend_total 3"), "{text}");
        assert!(
            text.contains("adalsh_oracle_verdicts_total{verdict=\"match\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("adalsh_oracle_verdicts_total{verdict=\"non-match\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("adalsh_oracle_overlay_verdicts_total 2"),
            "{text}"
        );
        assert!(text.contains("adalsh_oracle_overlay_version 2"), "{text}");
    }

    #[test]
    fn engine_subscriber_folds_trace_events() {
        let m = Metrics::new();
        let sink = TraceSink::new(m.engine_subscriber());
        sink.emit(
            "hash_round",
            &[("level", Value::U64(1)), ("wall_micros", Value::U64(1500))],
        );
        sink.emit("pairwise_block", &[("wall_micros", Value::U64(80))]);
        sink.emit("pairwise_block", &[("wall_micros", Value::U64(120))]);
        sink.emit("gate", &[("action", Value::Str("pairwise"))]);
        sink.emit("gate", &[("action", Value::Str("pairwise"))]);
        sink.emit("gate", &[("action", Value::Str("hash"))]);
        sink.emit("final_cluster", &[("rank", Value::U64(0))]); // ignored

        let text = m.render();
        assert!(
            text.contains("adalsh_engine_hash_round_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("adalsh_engine_pairwise_block_seconds_count 2"),
            "{text}"
        );
        assert!(text.contains("adalsh_engine_gate_decisions_total{action=\"pairwise\"} 2"));
        assert!(text.contains("adalsh_engine_gate_decisions_total{action=\"hash\"} 1"));
        let samples = promtext::parse(&text).unwrap();
        promtext::check_histogram(&samples, "adalsh_engine_hash_round_seconds").unwrap();
        promtext::check_histogram(&samples, "adalsh_engine_pairwise_block_seconds").unwrap();
    }
}
