//! The read/write-split ingest pipeline: bounded intake queue, one
//! resolver thread, epoch-published snapshots.
//!
//! ```text
//!                    write path                      read path
//!   POST /ingest ──▶ validate ──▶ ┌──────────────┐
//!                    (schema,     │ bounded MPSC │   GET /topk ────┐
//!                     reserve ids │ queue        │   GET /healthz ─┤ Arc clone,
//!                     + epoch)    │ (cap = Q)    │   GET /metrics ─┘ no locks
//!                         503 ◀── └──────┬───────┘        ▲
//!                    + Retry-After       │ drain ≤ B      │ publish
//!                                 ┌──────▼───────┐  ┌─────┴──────────────┐
//!                                 │ resolver     │  │ Arc<ResolvedSnap-  │
//!                                 │ thread       ├─▶│ shot> (epoch, recs,│
//!                                 │ (OnlineAda-  │  │ clusters, Stats)   │
//!                                 │  Lsh owner)  │  └────────────────────┘
//!                                 └──────────────┘
//! ```
//!
//! **Write path.** `submit` validates every record against the schema
//! and the corpus's dense dimensions, then — under a small *intake* mutex that only writers touch —
//! reserves the batch's record ids and its **epoch** (the 1-based count
//! of accepted batches) and pushes a command into a bounded
//! [`sync_channel`]. A full queue rejects the batch *before* anything
//! was reserved, so an overloaded caller can retry the identical
//! request. The intake mutex linearizes (reserve, enqueue): batches
//! land in the queue in epoch order, which is also id order.
//!
//! **Resolver thread.** The single drainer owns the [`OnlineAdaLsh`].
//! It pops the next command, opportunistically coalesces further queued
//! ingest batches up to `max_batch` records (adaptive batching: an idle
//! server resolves per batch for freshness, a backlogged one amortizes
//! one resolve pass over many batches), applies them, resolves top
//! `resolve_k`, and publishes an immutable [`ResolvedSnapshot`] through
//! the lock-free slot in [`crate::publish`]. Snapshot commands execute
//! between batches, so a persisted snapshot always corresponds exactly
//! to a published epoch.
//!
//! **Read path.** Readers clone the published `Arc` — no mutex, no
//! contact with the resolver. Read-your-writes is opt-in: `wait_until`
//! parks on a condvar until the published epoch / record count reaches
//! a floor (the condvar pair is touched only by barrier waiters and the
//! resolver's publish step, never by plain reads).
//!
//! **Epoch/answer semantics.** Epoch `E` means "the first `E` accepted
//! batches are applied". The published clusters are resolved at
//! `resolve_k`; because the engine and the Pairs baseline share one
//! canonical cluster order (size-descending, then smallest-id), the
//! first `N ≤ resolve_k` published clusters are exactly the top-`N`
//! answer, so `/topk?k=N` serves a prefix. Published `Stats` are those
//! of the resolve pass that produced the answer (a resume with fully
//! persisted hash states legitimately publishes `hash_evals == 0`).

use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adalsh_core::{OnlineAdaLsh, OracleSpend, Stats};
use adalsh_data::{MatchRule, Record, Schema};
use adalsh_obs::{ProcSample, SpanCollector, Spans, TraceSink, Value};

use crate::metrics::PipelineMetrics;
use crate::publish::{published, Publisher, ReadHandle};
use crate::snapshot::ServeSnapshot;

/// Tunables for the ingest pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Capacity of the bounded ingest queue, in batches. A full queue
    /// answers `503` + `Retry-After` instead of growing memory.
    pub queue_cap: usize,
    /// Most records one resolve pass will coalesce from consecutive
    /// queued batches.
    pub max_batch: usize,
    /// The `k` the resolver thread resolves at; `/topk?k=N` serves the
    /// first `N ≤ resolve_k` published clusters.
    pub resolve_k: usize,
    /// Longest a `wait_epoch=` / `min_records=` barrier read parks
    /// before giving up.
    pub barrier_timeout: Duration,
    /// Root spans at or above this many milliseconds are logged to
    /// stderr (`--slow-ms`; 0 disables the slow-op log).
    pub slow_ms: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            max_batch: 2048,
            resolve_k: 10,
            barrier_timeout: Duration::from_secs(10),
            slow_ms: 0,
        }
    }
}

/// One immutable published resolution state. Readers clone the `Arc`
/// around this; nothing in here is ever mutated after publish.
#[derive(Debug, Clone)]
pub struct ResolvedSnapshot {
    /// Number of accepted ingest batches applied (0 = bootstrap only).
    pub epoch: u64,
    /// Records resolved into this snapshot.
    pub records: usize,
    /// The `k` this snapshot was resolved at.
    pub resolve_k: usize,
    /// Top-`resolve_k` clusters in canonical order (size-descending,
    /// ties by smallest member id).
    pub clusters: Vec<Vec<u32>>,
    /// Counters of the resolve pass that produced `clusters`.
    pub stats: Stats,
    /// Oracle-ledger totals of that resolve pass (noisy oracle only):
    /// spend, retries, and the degraded pairs awaiting external
    /// adjudication over `POST /adjudicate`.
    pub oracle: Option<OracleSpend>,
    /// Wall time of that resolve pass.
    pub resolve_wall: Duration,
}

/// What `submit` hands back for an accepted batch.
#[derive(Debug)]
pub struct Accepted {
    /// Ids the batch's records will occupy, in order.
    pub ids: Vec<u32>,
    /// The epoch at which the batch becomes visible: once the published
    /// epoch reaches this value, every read sees these records.
    pub visible_epoch: u64,
}

/// Why a batch was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// A record failed schema validation (batch atomically rejected).
    Invalid(String),
    /// The ingest queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested `Retry-After`, in seconds.
        retry_after_secs: u64,
    },
    /// The pipeline is shutting down.
    ShuttingDown,
}

/// Result of a drained snapshot command.
#[derive(Debug)]
pub struct SnapshotDone {
    /// Epoch the persisted state corresponds to.
    pub epoch: u64,
    /// Records persisted.
    pub records: usize,
}

enum Command {
    Ingest {
        records: Vec<Record>,
        epoch: u64,
        /// Truncated-micros stamp (on the pipeline's [`Spans`] origin)
        /// taken at `submit` — the root `ingest_batch` span starts
        /// here, so queue wait is part of ingest-to-visible latency.
        enqueued_micros: u64,
    },
    Snapshot {
        reply: SyncSender<Result<SnapshotDone, String>>,
    },
    /// Re-resolve and re-publish at the current epoch — issued after
    /// `POST /adjudicate` lands external verdicts so they become
    /// visible without waiting for the next ingest.
    Reresolve {
        reply: SyncSender<Arc<ResolvedSnapshot>>,
    },
}

/// Writer-side state; only `submit`/`snapshot` lock this, never reads.
struct Intake {
    sender: Option<SyncSender<Command>>,
    next_id: u32,
    next_epoch: u64,
}

/// Publish watermark for read-your-writes barriers. Touched only by
/// the resolver's publish step and by waiting readers.
struct BarrierState {
    epoch: u64,
    records: u64,
}

/// The assembled pipeline: intake queue + resolver thread + published
/// snapshot slot. Dropping it drains the queue and joins the resolver.
pub struct Pipeline {
    intake: Mutex<Intake>,
    reader: ReadHandle<ResolvedSnapshot>,
    barrier: Arc<(Mutex<BarrierState>, Condvar)>,
    schema: Schema,
    /// The resolver's first record: intake checks every dense dimension
    /// against it, so the resolver never sees a ragged batch.
    like: Record,
    config: PipelineConfig,
    metrics: PipelineMetrics,
    spans: Arc<Spans>,
    snapshot_enabled: bool,
    drainer: Option<JoinHandle<()>>,
}

impl Pipeline {
    /// Takes ownership of the resolver, publishes the boot snapshot
    /// **synchronously** (the server answers `/topk` correctly before
    /// the first ingest), and spawns the resolver thread.
    ///
    /// When `spans` is enabled, every ingest pass gets a root
    /// `ingest_batch` span with `queue_wait` / `coalesce` / `resolve`
    /// (plus engine-derived `hash_rounds` / `pairwise` children) /
    /// `publish` child spans, emitted through the resolver's trace
    /// sink. A [`SpanCollector`] is composed onto that sink **before**
    /// the boot resolve so its 1-based segment numbering lines up with
    /// the trace file's segment count.
    pub fn start(
        mut resolver: OnlineAdaLsh,
        rule: MatchRule,
        snapshot_path: Option<PathBuf>,
        config: PipelineConfig,
        metrics: PipelineMetrics,
        spans: Arc<Spans>,
    ) -> Self {
        let schema = resolver.schema().clone();
        let like = resolver
            .records()
            .first()
            .expect("a resolver is never empty")
            .clone();
        let snapshot_enabled = snapshot_path.is_some();
        let resolve_k = config.resolve_k.max(1);

        let collector = if spans.enabled() {
            let collector = Arc::new(SpanCollector::new());
            let composed = resolver.trace().with(collector.clone());
            resolver.set_trace(composed);
            Some(collector)
        } else {
            None
        };

        // Boot resolve: epoch 0 covers everything the resolver was
        // constructed (or resumed) with.
        let boot_wall = Instant::now();
        let output = resolver.query_cached(resolve_k);
        // The boot segment belongs to no ingest batch — consume it so
        // the first batch's spans don't adopt stale attribution.
        if let Some(collector) = &collector {
            let _ = collector.take_last_segment();
        }
        metrics.observe_pass(&output.stats);
        let boot = Arc::new(ResolvedSnapshot {
            epoch: 0,
            records: resolver.len(),
            resolve_k,
            clusters: output.clusters,
            stats: output.stats,
            oracle: output.oracle,
            resolve_wall: output.wall,
        });
        metrics
            .publish_seconds
            .observe(boot_wall.elapsed().as_secs_f64());
        metrics.published_epoch.set(0);

        let (publisher, reader) = published(Arc::clone(&boot));
        let (sender, receiver) = sync_channel::<Command>(config.queue_cap.max(1));
        let barrier = Arc::new((
            Mutex::new(BarrierState {
                epoch: 0,
                records: boot.records as u64,
            }),
            Condvar::new(),
        ));

        let drainer = {
            let barrier = Arc::clone(&barrier);
            let metrics = metrics.clone();
            let config = config.clone();
            let spans = Arc::clone(&spans);
            let sink = resolver.trace().clone();
            std::thread::Builder::new()
                .name("adalsh-resolver".to_string())
                .spawn(move || {
                    drainer_loop(
                        resolver,
                        rule,
                        snapshot_path,
                        &receiver,
                        publisher,
                        &barrier,
                        &config,
                        &metrics,
                        &SpanContext {
                            spans,
                            collector,
                            sink,
                        },
                    );
                })
                .expect("spawn resolver thread")
        };

        Self {
            intake: Mutex::new(Intake {
                sender: Some(sender),
                next_id: boot.records as u32,
                next_epoch: 1,
            }),
            reader,
            barrier,
            schema,
            like,
            config,
            metrics,
            spans,
            snapshot_enabled,
            drainer: Some(drainer),
        }
    }

    /// Whether a snapshot path was configured (the service rejects
    /// `POST /snapshot` early when it wasn't).
    pub fn snapshot_enabled(&self) -> bool {
        self.snapshot_enabled
    }

    /// The currently published snapshot — one lock-free `Arc` clone.
    pub fn current(&self) -> Arc<ResolvedSnapshot> {
        self.reader.load()
    }

    /// The `k` the resolver resolves at.
    pub fn resolve_k(&self) -> usize {
        self.config.resolve_k.max(1)
    }

    /// Validates and enqueues one ingest batch.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] on a schema violation or a dense field
    /// whose dimension differs from the corpus's (nothing reserved),
    /// [`SubmitError::Overloaded`] when the queue is full (nothing
    /// reserved — the retry is idempotent), [`SubmitError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, records: Vec<Record>) -> Result<Accepted, SubmitError> {
        for (i, record) in records.iter().enumerate() {
            self.schema
                .validate_like(record, Some(&self.like))
                .map_err(|e| SubmitError::Invalid(format!("record {i} of batch: {e}")))?;
        }
        let count = records.len() as u32;
        let enqueued_micros = if self.spans.enabled() {
            self.spans.now_micros()
        } else {
            0
        };

        let mut intake = lock_unpoisoned(&self.intake);
        let Some(sender) = intake.sender.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let first_id = intake.next_id;
        let epoch = intake.next_epoch;
        // Gauge up *before* the command becomes visible: the drainer's
        // matching `dec` can only run after a successful send, so the
        // pair can never saturate at zero and leak a phantom unit.
        self.metrics.queue_depth.inc();
        match sender.try_send(Command::Ingest {
            records,
            epoch,
            enqueued_micros,
        }) {
            Ok(()) => {
                intake.next_id += count;
                intake.next_epoch += 1;
                Ok(Accepted {
                    ids: (first_id..first_id + count).collect(),
                    visible_epoch: epoch,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.queue_depth.dec();
                self.metrics.rejected_batches.inc();
                Err(SubmitError::Overloaded {
                    retry_after_secs: 1,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.dec();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Asks the resolver thread to persist a snapshot at the next epoch
    /// boundary and waits for the result. Readers are never blocked;
    /// only this caller waits.
    ///
    /// # Errors
    /// Propagates capture/save failures; times out if the resolver is
    /// stuck behind an enormous backlog.
    pub fn snapshot(&self) -> Result<SnapshotDone, String> {
        let (reply, done) = sync_channel(1);
        {
            let intake = lock_unpoisoned(&self.intake);
            let Some(sender) = intake.sender.as_ref() else {
                return Err("pipeline is shutting down".to_string());
            };
            // A snapshot command must not consume ingest queue capacity
            // budgeting, but it does occupy a slot; block briefly rather
            // than failing, since snapshots are rare and small.
            self.metrics.queue_depth.inc();
            if sender.send(Command::Snapshot { reply }).is_err() {
                self.metrics.queue_depth.dec();
                return Err("pipeline is shutting down".to_string());
            }
        }
        match done.recv_timeout(Duration::from_secs(60)) {
            Ok(result) => result,
            Err(_) => Err("timed out waiting for the resolver to snapshot".to_string()),
        }
    }

    /// Asks the resolver thread to re-resolve and re-publish at the
    /// current epoch, returning the fresh snapshot. Used after external
    /// verdicts land: the resolver's overlay-versioned cache misses and
    /// the re-adjudicated answer becomes visible immediately.
    ///
    /// # Errors
    /// Fails when the pipeline is shutting down or the resolver is
    /// stuck behind an enormous backlog.
    pub fn reresolve(&self) -> Result<Arc<ResolvedSnapshot>, String> {
        let (reply, done) = sync_channel(1);
        {
            let intake = lock_unpoisoned(&self.intake);
            let Some(sender) = intake.sender.as_ref() else {
                return Err("pipeline is shutting down".to_string());
            };
            self.metrics.queue_depth.inc();
            if sender.send(Command::Reresolve { reply }).is_err() {
                self.metrics.queue_depth.dec();
                return Err("pipeline is shutting down".to_string());
            }
        }
        match done.recv_timeout(Duration::from_secs(60)) {
            Ok(snapshot) => Ok(snapshot),
            Err(_) => Err("timed out waiting for the resolver to re-resolve".to_string()),
        }
    }

    /// Blocks until the published snapshot satisfies `epoch ≥ min_epoch`
    /// and `records ≥ min_records`, or the barrier timeout elapses.
    /// Returns `true` when satisfied. Plain reads never enter here.
    pub fn wait_until(&self, min_epoch: u64, min_records: u64) -> bool {
        let deadline = Instant::now() + self.config.barrier_timeout;
        let (lock, condvar) = &*self.barrier;
        let mut state = lock_unpoisoned(lock);
        while state.epoch < min_epoch || state.records < min_records {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, timeout) = condvar
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
            if timeout.timed_out() && (state.epoch < min_epoch || state.records < min_records) {
                return false;
            }
        }
        true
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Closing the channel lets the resolver drain what's buffered
        // and exit; joining bounds test teardown.
        lock_unpoisoned(&self.intake).sender.take();
        if let Some(handle) = self.drainer.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Span machinery the resolver thread carries: the recorder, the
/// per-segment engine-attribution collector (riding the resolver's
/// sink), and a clone of that sink to emit `"span"` events through.
struct SpanContext {
    spans: Arc<Spans>,
    collector: Option<Arc<SpanCollector>>,
    sink: TraceSink,
}

/// The resolver thread: pops commands in order, coalesces consecutive
/// ingest batches up to `max_batch` records, applies + resolves +
/// publishes, and executes snapshot commands at epoch boundaries.
/// Exits when the intake channel closes, after draining it.
#[allow(clippy::too_many_arguments)]
fn drainer_loop(
    mut resolver: OnlineAdaLsh,
    rule: MatchRule,
    snapshot_path: Option<PathBuf>,
    receiver: &Receiver<Command>,
    mut publisher: Publisher<ResolvedSnapshot>,
    barrier: &Arc<(Mutex<BarrierState>, Condvar)>,
    config: &PipelineConfig,
    metrics: &PipelineMetrics,
    span_ctx: &SpanContext,
) {
    let resolve_k = config.resolve_k.max(1);
    let max_batch = config.max_batch.max(1);
    // A command popped while coalescing that cannot join the current
    // pass (a snapshot, or records beyond max_batch) carries over.
    let mut carried: Option<Command> = None;

    loop {
        let command = match carried.take() {
            Some(c) => c,
            None => match receiver.recv() {
                Ok(c) => {
                    metrics.queue_depth.dec();
                    c
                }
                Err(_) => return, // channel closed and drained: shutdown
            },
        };

        match command {
            Command::Snapshot { reply } => {
                let result = match &snapshot_path {
                    None => Err(
                        "snapshotting is disabled: start the server with --snapshot-out <path>"
                            .to_string(),
                    ),
                    Some(path) => {
                        let snapshot = ServeSnapshot::capture(&resolver, rule.clone());
                        let records = snapshot.resolver.records.len();
                        snapshot.save(path).map(|()| SnapshotDone {
                            epoch: lock_unpoisoned(&barrier.0).epoch,
                            records,
                        })
                    }
                };
                let _ = reply.send(result);
            }
            Command::Reresolve { reply } => {
                let pass_start = Instant::now();
                let epoch = lock_unpoisoned(&barrier.0).epoch;
                let output = resolver.query_cached(resolve_k);
                // A re-resolve's segment belongs to no ingest span —
                // consume it so the next batch starts clean.
                if let Some(collector) = &span_ctx.collector {
                    let _ = collector.take_last_segment();
                }
                metrics.observe_pass(&output.stats);
                let snapshot = Arc::new(ResolvedSnapshot {
                    epoch,
                    records: resolver.len(),
                    resolve_k,
                    clusters: output.clusters,
                    stats: output.stats,
                    oracle: output.oracle,
                    resolve_wall: output.wall,
                });
                publisher.publish(Arc::clone(&snapshot));
                metrics
                    .publish_seconds
                    .observe(pass_start.elapsed().as_secs_f64());
                let _ = reply.send(snapshot);
            }
            Command::Ingest {
                records,
                epoch,
                enqueued_micros,
            } => {
                let pass_start = Instant::now();
                let spans = &span_ctx.spans;
                let sink = &span_ctx.sink;
                let tracing = spans.enabled();
                // The root span starts at the first batch's *enqueue*
                // stamp, so its duration is the full ingest-to-visible
                // latency; queue wait is the [enqueue, pop] prefix.
                let stamp = || if tracing { spans.now_micros() } else { 0 };
                let pop_stamp = stamp();
                let root = spans.begin_at("ingest_batch", 0, enqueued_micros);
                if tracing {
                    metrics
                        .queue_age
                        .set(pop_stamp.saturating_sub(enqueued_micros) as f64 / 1e6);
                }

                let mut batch = records;
                let mut last_epoch = epoch;
                let mut applied_batches = 1u64;
                // Coalesce whatever else is already queued, preserving
                // order, until the pass is full or a snapshot command
                // (an epoch boundary) shows up. Coalesced batches fold
                // into this pass's root span (their own enqueue stamps
                // are later than the root's, so the window still
                // contains their wait).
                while batch.len() < max_batch {
                    match receiver.try_recv() {
                        Ok(next) => {
                            metrics.queue_depth.dec();
                            match next {
                                Command::Ingest { records, epoch, .. } => {
                                    batch.extend(records);
                                    last_epoch = epoch;
                                    applied_batches += 1;
                                }
                                other => {
                                    // Snapshot / re-resolve commands mark an
                                    // epoch boundary: finish this pass first.
                                    carried = Some(other);
                                    break;
                                }
                            }
                        }
                        Err(_) => break,
                    }
                }
                let coalesced = stamp();

                let batch_len = batch.len();
                let resolve_span = spans.begin("resolve", root.id);
                let proc_before = if tracing { ProcSample::capture() } else { None };
                resolver
                    .extend(batch)
                    .expect("batch pre-validated at intake");
                let output = resolver.query_cached(resolve_k);
                metrics.observe_pass(&output.stats);
                let proc_after = proc_before.and_then(|_| ProcSample::capture());
                let resolved = stamp();
                let snapshot = Arc::new(ResolvedSnapshot {
                    epoch: last_epoch,
                    records: resolver.len(),
                    resolve_k,
                    clusters: output.clusters,
                    stats: output.stats,
                    oracle: output.oracle,
                    resolve_wall: output.wall,
                });
                let records_total = snapshot.records as u64;
                let publish_span = spans.begin("publish", root.id);
                publisher.publish(snapshot);

                metrics.batch_records.observe(batch_len as f64);
                metrics.applied_batches.add(applied_batches);
                metrics.published_epoch.set(last_epoch);
                metrics
                    .publish_seconds
                    .observe(pass_start.elapsed().as_secs_f64());

                // Wake barrier waiters after the snapshot is visible.
                let (lock, condvar) = &**barrier;
                let mut state = lock_unpoisoned(lock);
                state.epoch = last_epoch;
                state.records = records_total;
                drop(state);
                condvar.notify_all();
                let published = stamp();

                // Span bookkeeping waits until the pass is visible: every
                // stamp and sample above was taken in place, so emitting
                // the spans now changes no field, only who waits for it.
                if tracing {
                    let wait = spans.begin_at("queue_wait", root.id, enqueued_micros);
                    spans.finish_at(wait, pop_stamp, &[], sink);
                    let coalesce = spans.begin_at("coalesce", root.id, pop_stamp);
                    spans.finish_at(
                        coalesce,
                        coalesced,
                        &[("batches", Value::U64(applied_batches))],
                        sink,
                    );
                    // Engine-derived children: durations are the exact
                    // per-segment Σ wall_micros the collector folded, so
                    // schema::validate reconciles them bit-for-bit with
                    // the hash_round/pairwise events of that segment.
                    if let Some(seg) = span_ctx
                        .collector
                        .as_ref()
                        .and_then(|c| c.take_last_segment())
                    {
                        spans.record_segment(&resolve_span, &seg, sink);
                    }
                    let mut fields: Vec<(&'static str, Value<'static>)> =
                        vec![("records", Value::U64(batch_len as u64))];
                    if let (Some(before), Some(after)) = (proc_before, proc_after) {
                        metrics
                            .resolve_minor_faults
                            .add(after.minor_faults.saturating_sub(before.minor_faults));
                        metrics
                            .resolve_major_faults
                            .add(after.major_faults.saturating_sub(before.major_faults));
                        fields.extend(before.delta_fields(&after));
                    }
                    spans.finish_at(resolve_span, resolved, &fields, sink);
                    spans.finish_at(
                        publish_span,
                        published,
                        &[("epoch", Value::U64(last_epoch))],
                        sink,
                    );
                    let total = spans.finish_at(
                        root,
                        published,
                        &[
                            ("records", Value::U64(batch_len as u64)),
                            ("batches", Value::U64(applied_batches)),
                            ("epoch", Value::U64(last_epoch)),
                        ],
                        sink,
                    );
                    metrics.ingest_to_visible.observe(total as f64 / 1e6);
                }
            }
        }
    }
}

/// Locks a mutex, recovering from poisoning: the pipeline must stay
/// alive even if a request worker panicked mid-call.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use adalsh_core::AdaLshConfig;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, FieldValue, ShingleSet};

    fn shingle_record(items: &[u64]) -> Record {
        Record::single(FieldValue::Shingles(ShingleSet::new(items.to_vec())))
    }

    fn test_pipeline(config: PipelineConfig) -> (Pipeline, Metrics) {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let pipeline = Pipeline::start(
            resolver,
            rule,
            None,
            config,
            metrics.pipeline(),
            Arc::new(Spans::new(64, 0)),
        );
        (pipeline, metrics)
    }

    #[test]
    fn boot_publishes_epoch_zero_synchronously() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let snapshot = pipeline.current();
        assert_eq!(snapshot.epoch, 0);
        assert_eq!(snapshot.records, 8);
        assert!(!snapshot.clusters.is_empty());
        assert!(snapshot.stats.hash_evals > 0, "cold boot resolves");
    }

    #[test]
    fn submit_assigns_ids_and_epochs_in_order() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let a = pipeline
            .submit(vec![shingle_record(&[1, 2, 3]), shingle_record(&[4, 5, 6])])
            .unwrap();
        assert_eq!(a.ids, vec![8, 9]);
        assert_eq!(a.visible_epoch, 1);
        let b = pipeline.submit(vec![shingle_record(&[7, 8, 9])]).unwrap();
        assert_eq!(b.ids, vec![10]);
        assert_eq!(b.visible_epoch, 2);
        assert!(
            pipeline.wait_until(b.visible_epoch, 0),
            "barrier reaches epoch 2"
        );
        let snapshot = pipeline.current();
        assert_eq!(snapshot.records, 11);
        assert!(snapshot.epoch >= 2);
    }

    /// One applied ingest batch leaves a full span tree in the ring:
    /// an `ingest_batch` root with `queue_wait` / `coalesce` /
    /// `resolve` / `publish` children, and engine-derived
    /// `hash_rounds` / `pairwise` grandchildren under `resolve`.
    #[test]
    fn ingest_pass_records_a_span_tree() {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let spans = Arc::new(Spans::new(64, 0));
        let pipeline = Pipeline::start(
            resolver,
            rule,
            None,
            PipelineConfig::default(),
            metrics.pipeline(),
            Arc::clone(&spans),
        );

        let accepted = pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        assert!(pipeline.wait_until(accepted.visible_epoch, 0));
        // The root span finishes just after the barrier wakes. Wait on
        // the root counter, not the ring: polling the ring takes its lock,
        // and a push that meets a held lock drops its span by design.
        let deadline = Instant::now() + Duration::from_secs(5);
        while spans.roots_completed() == 0 {
            assert!(Instant::now() < deadline, "root span never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let recent = spans.recent();

        let root = recent.iter().find(|s| s.op == "ingest_batch").unwrap();
        assert_eq!(root.parent, 0);
        let mut child_sum = 0;
        for op in ["queue_wait", "coalesce", "resolve", "publish"] {
            let child = recent
                .iter()
                .find(|s| s.op == op)
                .unwrap_or_else(|| panic!("missing child {op}"));
            assert_eq!(child.parent, root.id, "{op} hangs off the root");
            assert!(
                child.start_micros >= root.start_micros
                    && child.start_micros + child.duration_micros
                        <= root.start_micros + root.duration_micros,
                "{op} window escapes the root"
            );
            child_sum += child.duration_micros;
        }
        assert!(child_sum <= root.duration_micros, "children outsum root");

        let resolve = recent.iter().find(|s| s.op == "resolve").unwrap();
        for op in ["hash_rounds", "pairwise"] {
            let child = recent
                .iter()
                .find(|s| s.op == op)
                .unwrap_or_else(|| panic!("missing engine child {op}"));
            assert_eq!(child.parent, resolve.id, "{op} hangs off resolve");
            // The boot segment was discarded, so the first batch links
            // to segment 2 of the trace stream.
            assert!(
                child
                    .fields
                    .iter()
                    .any(|(n, v)| *n == "segment"
                        && matches!(v, adalsh_obs::trace::OwnedValue::U64(2))),
                "{op} links to segment 2: {:?}",
                child.fields
            );
        }

        // The span-backed metric families saw the pass.
        let text = metrics.render();
        assert!(
            text.contains("adalsh_ingest_to_visible_seconds_count 1"),
            "{text}"
        );
    }

    #[test]
    fn invalid_batch_reserves_nothing() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let bad = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1])),
            FieldValue::Shingles(ShingleSet::new(vec![2])),
        ]);
        match pipeline.submit(vec![shingle_record(&[1, 2]), bad]) {
            Err(SubmitError::Invalid(message)) => {
                assert!(message.contains("record 1"), "{message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let ok = pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        assert_eq!(ok.ids, vec![8], "rejected batch burned no ids");
        assert_eq!(ok.visible_epoch, 1, "rejected batch burned no epoch");
    }

    #[test]
    fn wait_until_times_out_on_unreached_epoch() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig {
            barrier_timeout: Duration::from_millis(50),
            ..PipelineConfig::default()
        });
        let start = Instant::now();
        assert!(!pipeline.wait_until(999, 0));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn snapshot_without_path_reports_disabled() {
        let (pipeline, _metrics) = test_pipeline(PipelineConfig::default());
        let err = pipeline.snapshot().unwrap_err();
        assert!(err.contains("disabled"), "{err}");
    }

    #[test]
    fn snapshot_lands_at_an_epoch_boundary() {
        let dir = std::env::temp_dir().join(format!("adalsh-pipeline-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");

        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..8)
            .map(|i| shingle_record(&[i, i + 1, i + 2, 100]))
            .collect();
        let labels = (0..8).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        let metrics = Metrics::new();
        let pipeline = Pipeline::start(
            resolver,
            rule,
            Some(path.clone()),
            PipelineConfig::default(),
            metrics.pipeline(),
            Arc::new(Spans::disabled()),
        );

        pipeline.submit(vec![shingle_record(&[1, 2, 3])]).unwrap();
        let done = pipeline.snapshot().unwrap();
        assert_eq!(done.records, 9, "snapshot sees the batch queued before it");
        assert_eq!(done.epoch, 1);
        let loaded = ServeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.resolver.records.len(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
