//! Completed-span recording: parent/child span trees with typed
//! attribution fields, riding the existing trace pipe.
//!
//! A **span** is a named interval of work (`op`) with a unique id, an
//! optional parent, and attribution fields (records touched, engine
//! sums, RSS/page-fault deltas). Spans are emitted **at completion** as
//! ordinary `"span"` trace events through the caller's [`TraceSink`] —
//! so a `--trace-out` file interleaves span events with the engine's
//! events and [`crate::schema::validate`] can reconcile the two (see
//! the span invariants there): [`SpanCollector`] folds each run segment
//! through [`crate::fold`], and [`Spans::record_segment`] emits the
//! `hash_rounds` / `pairwise` children from those totals. Completed
//! spans are also kept in a bounded in-memory ring for a live
//! `/debug/spans` surface, and root spans crossing a slow threshold are
//! logged to stderr.
//!
//! ## Exact-arithmetic timestamps
//!
//! All stamps are **truncated** microseconds from one process-wide
//! origin [`Instant`], and every duration is a *difference of stamps*,
//! never an independently truncated elapsed time. This makes the span
//! invariants hold exactly rather than "up to rounding":
//!
//! * `floor(b) - floor(a) >= floor(b - a)` — a parent's stamp-derived
//!   duration can only round *up* relative to real elapsed time, so a
//!   child interval measured the same way always fits;
//! * `Σ floor(xᵢ) <= floor(Σ xᵢ)` — children synthesized from engine
//!   per-round `wall_micros` sums (already truncated per round) never
//!   exceed a stamp-derived parent window.
//!
//! ## Concurrency
//!
//! The ring push uses `try_lock`: a serving read path finishing a
//! `topk_query` span must never block behind a `/debug/spans` scrape.
//! A contended push drops the span from the *ring* only — the trace
//! event was already emitted, so the durable record is complete.

use std::collections::VecDeque;
use std::fs::File;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::fold::{EngineEvent, EngineTotals};
use crate::trace::{Event, OwnedValue, Subscriber, TraceSink, Value};

/// Default capacity of the completed-span ring.
pub const DEFAULT_RING_CAP: usize = 256;

/// An in-flight span: finish it with [`Spans::finish`]. A span begun on
/// a disabled [`Spans`] carries `id == 0` and finishing it is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct ActiveSpan {
    /// Unique nonzero span id (0 on a disabled recorder).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Operation name (one of [`crate::schema::SPAN_OPS`]).
    pub op: &'static str,
    /// Truncated-microsecond start stamp from the recorder's origin.
    pub start_micros: u64,
}

/// A finished span as kept in the ring.
#[derive(Debug, Clone)]
pub struct CompletedSpan {
    /// Unique span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Operation name.
    pub op: &'static str,
    /// Start stamp (truncated micros from the recorder origin).
    pub start_micros: u64,
    /// Duration (difference of truncated stamps).
    pub duration_micros: u64,
    /// Extra attribution fields, in emission order.
    pub fields: Vec<(&'static str, OwnedValue)>,
}

/// The span recorder: id allocation, the shared time origin, the
/// completed-span ring, and the slow-op threshold. One per process
/// surface (a serving stack, a CLI run), shared by `Arc`.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    slow_micros: u64,
    cap: usize,
    ring: Mutex<VecDeque<CompletedSpan>>,
    /// Root spans recorded so far, bumped after the ring push and outside
    /// its lock: a waiter that polls this never contends the push. The
    /// `Release` bump pairs with the `Acquire` load in
    /// [`Spans::roots_completed`], so a reader that sees a root counted
    /// sees that root's pushes, and its children's, done.
    roots_completed: AtomicU64,
}

impl Spans {
    /// An enabled recorder keeping up to `cap` completed spans;
    /// `slow_ms > 0` logs root spans at or above the threshold to
    /// stderr.
    pub fn new(cap: usize, slow_ms: u64) -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            slow_micros: slow_ms.saturating_mul(1000),
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            roots_completed: AtomicU64::new(0),
        }
    }

    /// A recorder whose every operation is a no-op — the
    /// tracing-disabled arm of the overhead benchmark, and the default
    /// for paths that opted out of spans.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            slow_micros: 0,
            cap: 1,
            ring: Mutex::new(VecDeque::new()),
            roots_completed: AtomicU64::new(0),
        }
    }

    /// Is this recorder live? Callers guard span-only field computation
    /// (proc sampling, stamp taking) behind this, mirroring
    /// [`TraceSink::enabled`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Truncated microseconds since the recorder origin. All stamps
    /// passed to [`Spans::begin_at`] / [`Spans::finish_at`] must come
    /// from here so the exact-arithmetic invariants hold.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Starts a span now. `parent == 0` makes it a root.
    pub fn begin(&self, op: &'static str, parent: u64) -> ActiveSpan {
        let start = if self.enabled { self.now_micros() } else { 0 };
        self.begin_at(op, parent, start)
    }

    /// Starts a span at an explicit earlier stamp (e.g. the enqueue
    /// stamp of a batch popped from a queue).
    pub fn begin_at(&self, op: &'static str, parent: u64, start_micros: u64) -> ActiveSpan {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        ActiveSpan {
            id,
            parent,
            op,
            start_micros,
        }
    }

    /// Finishes a span now. See [`Spans::finish_at`].
    pub fn finish(
        &self,
        span: ActiveSpan,
        extra: &[(&'static str, Value<'static>)],
        sink: &TraceSink,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.finish_at(span, self.now_micros(), extra, sink)
    }

    /// Finishes a span at an explicit end stamp: emits the `"span"`
    /// trace event through `sink`, pushes the completed span into the
    /// ring (best-effort), logs slow roots, and returns the duration.
    ///
    /// `end_micros` values before the start stamp clamp to a zero
    /// duration rather than wrapping.
    pub fn finish_at(
        &self,
        span: ActiveSpan,
        end_micros: u64,
        extra: &[(&'static str, Value<'static>)],
        sink: &TraceSink,
    ) -> u64 {
        if !self.enabled || span.id == 0 {
            return 0;
        }
        let duration = end_micros.saturating_sub(span.start_micros);
        self.record(span, duration, extra, sink);
        duration
    }

    /// Records a completed span with an explicit duration — for
    /// children synthesized from engine `wall_micros` sums rather than
    /// stamp pairs (the `Σ floor(xᵢ) <= floor(Σ xᵢ)` case).
    pub fn record(
        &self,
        span: ActiveSpan,
        duration_micros: u64,
        extra: &[(&'static str, Value<'static>)],
        sink: &TraceSink,
    ) {
        if !self.enabled || span.id == 0 {
            return;
        }
        if sink.enabled() {
            let mut fields: Vec<(&str, Value<'_>)> = Vec::with_capacity(5 + extra.len());
            fields.extend([
                ("span_id", Value::U64(span.id)),
                ("parent_span_id", Value::U64(span.parent)),
                ("op", Value::Str(span.op)),
                ("start_micros", Value::U64(span.start_micros)),
                ("duration_micros", Value::U64(duration_micros)),
            ]);
            fields.extend_from_slice(extra);
            sink.emit("span", &fields);
        }
        if self.slow_micros > 0 && span.parent == 0 && duration_micros >= self.slow_micros {
            eprintln!(
                "slow op: {} {:.1}ms{}",
                span.op,
                duration_micros as f64 / 1000.0,
                slow_suffix(extra)
            );
        }
        if let Ok(mut ring) = self.ring.try_lock() {
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back(CompletedSpan {
                id: span.id,
                parent: span.parent,
                op: span.op,
                start_micros: span.start_micros,
                duration_micros,
                fields: extra.iter().map(|&(n, v)| (n, own(v))).collect(),
            });
        }
        if span.parent == 0 {
            self.roots_completed.fetch_add(1, Ordering::Release);
        }
    }

    /// Root spans recorded so far, whether or not the ring kept them.
    /// Once it counts a root, that root and its children have made their
    /// ring pushes, so a reader that waits on this and only then calls
    /// [`Spans::recent`] does not race them for the ring's lock.
    pub fn roots_completed(&self) -> u64 {
        self.roots_completed.load(Ordering::Acquire)
    }

    /// Records the engine-derived children of `resolve` from one run
    /// segment's totals: a `hash_rounds` span lasting
    /// Σ `hash_round.wall_micros` and a `pairwise` span lasting
    /// Σ `pairwise.wall_micros`, both from `resolve`'s start, linked to
    /// the segment by their `segment` field and carrying the sums
    /// [`crate::schema::validate`] reconciles with that segment's events.
    pub fn record_segment(&self, resolve: &ActiveSpan, seg: &SegmentAttribution, sink: &TraceSink) {
        let hash = self.begin_at("hash_rounds", resolve.id, resolve.start_micros);
        self.record(
            hash,
            seg.hash_wall_micros,
            &[
                ("segment", Value::U64(seg.segment)),
                ("hash_evals", Value::U64(seg.hash_evals)),
            ],
            sink,
        );
        let pairwise = self.begin_at("pairwise", resolve.id, resolve.start_micros);
        self.record(
            pairwise,
            seg.pairwise_wall_micros,
            &[
                ("segment", Value::U64(seg.segment)),
                ("pairs", Value::U64(seg.pairs)),
                ("oracle_calls", Value::U64(seg.oracle_calls)),
                ("oracle_spend", Value::U64(seg.oracle_spend)),
                (
                    "oracle_latency_micros",
                    Value::U64(seg.oracle_latency_micros),
                ),
            ],
            sink,
        );
    }

    /// The completed spans currently in the ring, newest first.
    pub fn recent(&self) -> Vec<CompletedSpan> {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter().rev().cloned().collect()
    }
}

fn own(value: Value<'_>) -> OwnedValue {
    match value {
        Value::U64(v) => OwnedValue::U64(v),
        Value::F64(v) => OwnedValue::F64(v),
        Value::Str(v) => OwnedValue::Str(v.to_string()),
    }
}

fn slow_suffix(extra: &[(&'static str, Value<'static>)]) -> String {
    let mut out = String::new();
    for (name, value) in extra {
        out.push_str("  ");
        out.push_str(name);
        out.push('=');
        match value {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => out.push_str(&v.to_string()),
            Value::Str(v) => out.push_str(v),
        }
    }
    out
}

/// A point sample of this process's memory counters, for per-phase
/// RSS/page-fault deltas around mmap-backed work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSample {
    /// Current resident set size in bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Minor page faults since process start.
    pub minor_faults: u64,
    /// Major page faults since process start.
    pub major_faults: u64,
}

/// The system page size, read once from the `AT_PAGESZ` entry of
/// `/proc/self/auxv` (native-endian type/value pairs of pointer-sized
/// words); `None` where procfs is unavailable.
fn page_size() -> Option<u64> {
    const AT_PAGESZ: usize = 6;
    const WORD: usize = std::mem::size_of::<usize>();
    static PAGE_SIZE: OnceLock<Option<u64>> = OnceLock::new();
    *PAGE_SIZE.get_or_init(|| {
        let auxv = std::fs::read("/proc/self/auxv").ok()?;
        let word = |bytes: &[u8]| usize::from_ne_bytes(bytes.try_into().expect("one word"));
        auxv.chunks_exact(2 * WORD)
            .find(|pair| word(&pair[..WORD]) == AT_PAGESZ)
            .map(|pair| word(&pair[WORD..]) as u64)
    })
}

/// Reads `/proc/self/stat` into `buf` through a descriptor opened once:
/// a positioned read at offset 0 regenerates the line, in one system call
/// instead of the open, stat, reads and close of reading the file afresh
/// (~3 µs against ~10 µs in a loop; a short read fails the parse).
#[cfg(unix)]
fn read_stat(buf: &mut [u8]) -> Option<usize> {
    use std::os::unix::fs::FileExt;
    static STAT: OnceLock<Option<File>> = OnceLock::new();
    let file = STAT
        .get_or_init(|| File::open("/proc/self/stat").ok())
        .as_ref()?;
    file.read_at(buf, 0).ok()
}

/// No procfs off Unix.
#[cfg(not(unix))]
fn read_stat(_buf: &mut [u8]) -> Option<usize> {
    None
}

impl ProcSample {
    /// Samples `/proc/self/stat` (RSS and fault counters) — one small
    /// read, cheap enough for every resolve pass; `None` where procfs is
    /// unavailable.
    pub fn capture() -> Option<Self> {
        let page = page_size()?;
        // The line is a few hundred bytes: 52 numeric fields and a comm
        // of at most 64.
        let mut buf = [0u8; 2048];
        let len = read_stat(&mut buf)?;
        let stat = std::str::from_utf8(&buf[..len]).ok()?;
        // Fields after the parenthesized comm (which may itself contain
        // spaces): state(3) ppid pgrp session tty tpgid flags minflt(10)
        // cminflt majflt(12) ... rss(24) — so minflt is token 7, majflt
        // token 9 and rss (in pages) token 21 of the tail.
        let tail = stat.rsplit_once(')')?.1;
        let mut tokens = tail.split_whitespace();
        let minor: u64 = tokens.nth(7)?.parse().ok()?;
        let major: u64 = tokens.nth(1)?.parse().ok()?;
        let rss_pages: u64 = tokens.nth(11)?.parse().ok()?;
        Some(Self {
            rss_bytes: rss_pages * page,
            minor_faults: minor,
            major_faults: major,
        })
    }

    /// Attribution fields for the phase between `self` and `after`:
    /// `rss_delta_bytes` (signed, so it rides the wire as `f64`) plus
    /// monotone fault deltas.
    pub fn delta_fields(&self, after: &ProcSample) -> [(&'static str, Value<'static>); 3] {
        let rss_delta = after.rss_bytes as i64 - self.rss_bytes as i64;
        [
            ("rss_delta_bytes", Value::F64(rss_delta as f64)),
            (
                "minor_faults",
                Value::U64(after.minor_faults.saturating_sub(self.minor_faults)),
            ),
            (
                "major_faults",
                Value::U64(after.major_faults.saturating_sub(self.major_faults)),
            ),
        ]
    }
}

/// One run segment's engine totals, folded by [`SpanCollector`] from
/// the engine's own trace events on the emitting thread. Derefs to the
/// [`EngineTotals`], so `seg.hash_wall_micros` reads the segment's
/// Σ `hash_round.wall_micros`. Only the `hash_round`, `pairwise`,
/// `oracle_call` and `run_end` totals are folded; the others stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentAttribution {
    /// 1-based index of the run segment in the trace stream — the
    /// `segment` field linking engine-derived spans back to the events
    /// they summarize.
    pub segment: u64,
    /// The segment's engine events, folded.
    pub totals: EngineTotals,
}

impl Deref for SegmentAttribution {
    type Target = EngineTotals;

    fn deref(&self) -> &EngineTotals {
        &self.totals
    }
}

#[derive(Default)]
struct CollectorInner {
    /// Completed run segments seen — must match the trace file's
    /// segment count, so the collector is attached before the first
    /// resolve that emits into the file.
    segments_seen: u64,
    open: Option<SegmentAttribution>,
    last: Option<SegmentAttribution>,
}

/// A [`Subscriber`] that folds engine events into per-segment sums so
/// span emitters can attach exact engine attribution (`hash_rounds` /
/// `pairwise` child spans) without re-reading the trace. Attach it to
/// the same sink the engine emits through; take the finished segment
/// with [`SpanCollector::take_last_segment`] after each resolve.
#[derive(Default)]
pub struct SpanCollector {
    inner: Mutex<CollectorInner>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attribution of the most recently completed segment, consumed
    /// — `None` when no segment completed since the last take (e.g. a
    /// resolve served from the cache emits no segment at all).
    pub fn take_last_segment(&self) -> Option<SegmentAttribution> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .last
            .take()
    }
}

impl Subscriber for SpanCollector {
    fn event(&self, event: &Event<'_>) {
        // Only the kinds the child spans attribute take the lock; most
        // of a pass's events (gates, finals, blocks, spans) return here.
        let kind = match EngineEvent::of(event.name) {
            Some(
                kind @ (EngineEvent::RunStart
                | EngineEvent::HashRound
                | EngineEvent::Pairwise
                | EngineEvent::OracleCall
                | EngineEvent::RunEnd),
            ) => kind,
            _ => return,
        };
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if kind == EngineEvent::RunStart {
            inner.open = Some(SegmentAttribution {
                segment: inner.segments_seen + 1,
                totals: EngineTotals::default(),
            });
            return;
        }
        if let Some(seg) = &mut inner.open {
            seg.totals.fold(kind, event);
        }
        if kind == EngineEvent::RunEnd {
            inner.segments_seen += 1;
            inner.last = inner.open.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySubscriber;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_is_inert() {
        let spans = Spans::disabled();
        assert!(!spans.enabled());
        let memory = Arc::new(MemorySubscriber::new());
        let sink = TraceSink::new(memory.clone());
        let span = spans.begin("ingest_batch", 0);
        assert_eq!(span.id, 0);
        assert_eq!(spans.finish(span, &[], &sink), 0);
        assert!(memory.events().is_empty());
        assert!(spans.recent().is_empty());
    }

    #[test]
    fn finish_emits_span_event_and_fills_ring() {
        let spans = Spans::new(8, 0);
        let memory = Arc::new(MemorySubscriber::new());
        let sink = TraceSink::new(memory.clone());
        let root = spans.begin("ingest_batch", 0);
        let child = spans.begin("publish", root.id);
        spans.finish(child, &[("epoch", Value::U64(3))], &sink);
        spans.finish(root, &[("records", Value::U64(10))], &sink);

        let events = memory.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "span");
        assert_eq!(events[0].str("op"), Some("publish"));
        assert_eq!(events[0].u64("parent_span_id"), Some(root.id));
        assert_eq!(events[0].u64("epoch"), Some(3));
        assert_eq!(events[1].str("op"), Some("ingest_batch"));
        assert_eq!(events[1].u64("parent_span_id"), Some(0));

        let recent = spans.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].op, "ingest_batch", "newest first");
        assert_eq!(recent[1].op, "publish");
    }

    /// A push that meets a held ring lock drops its span, but the root
    /// counter still counts the root, and children are not counted.
    #[test]
    fn roots_are_counted_whether_or_not_the_ring_keeps_them() {
        let spans = Spans::new(8, 0);
        let sink = TraceSink::disabled();
        let root = spans.begin("ingest_batch", 0);
        let child = spans.begin("publish", root.id);
        spans.finish(child, &[], &sink);
        assert_eq!(spans.roots_completed(), 0);
        {
            let _held = spans.ring.lock().unwrap();
            spans.finish(root, &[], &sink);
        }
        assert_eq!(spans.roots_completed(), 1);
        assert_eq!(spans.recent().len(), 1, "the contended root was dropped");
        let disabled = Spans::disabled();
        disabled.finish(disabled.begin("topk_query", 0), &[], &sink);
        assert_eq!(disabled.roots_completed(), 0);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let spans = Spans::new(4, 0);
        let a = spans.begin("topk_query", 0);
        let b = spans.begin("topk_query", 0);
        assert_ne!(a.id, 0);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let spans = Spans::new(2, 0);
        let sink = TraceSink::disabled();
        for _ in 0..5 {
            let s = spans.begin("topk_query", 0);
            spans.finish(s, &[], &sink);
        }
        let recent = spans.recent();
        assert_eq!(recent.len(), 2);
        assert!(recent[0].id > recent[1].id, "kept the newest two");
    }

    #[test]
    fn durations_are_stamp_differences_and_clamp() {
        let spans = Spans::new(4, 0);
        let sink = TraceSink::disabled();
        let span = spans.begin_at("queue_wait", 1, 100);
        assert_eq!(spans.finish_at(span, 150, &[], &sink), 50);
        let span = spans.begin_at("queue_wait", 1, 100);
        assert_eq!(spans.finish_at(span, 90, &[], &sink), 0, "clamps");
    }

    #[test]
    fn proc_sample_captures_and_deltas() {
        let before = ProcSample::capture().expect("procfs available in CI");
        assert!(before.rss_bytes > 1 << 20, "implausible RSS");
        let page = page_size().unwrap();
        assert!(page.is_power_of_two() && page >= 4096, "page size {page}");
        // `stat`'s RSS pages are `status`'s VmRSS (other test threads
        // may allocate between the two reads).
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let vm_rss_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(
            (vm_rss_kib * 1024).abs_diff(before.rss_bytes) < 64 << 20,
            "VmRSS {vm_rss_kib} KiB vs {} B",
            before.rss_bytes
        );
        // 64 MiB is past malloc's largest mmap threshold, so these are
        // fresh pages and touching them faults.
        let ballast = vec![7u8; 64 << 20];
        std::hint::black_box(&ballast);
        let after = ProcSample::capture().unwrap();
        // The descriptor kept open reads fresh counters.
        assert!(after.minor_faults > before.minor_faults);
        let fields = before.delta_fields(&after);
        assert_eq!(fields[0].0, "rss_delta_bytes");
        drop(ballast);
    }

    #[test]
    fn collector_accumulates_per_segment_and_takes_once() {
        let collector = Arc::new(SpanCollector::new());
        let sink = TraceSink::new(collector.clone());
        assert_eq!(collector.take_last_segment(), None);
        sink.emit("run_start", &[]);
        sink.emit(
            "hash_round",
            &[
                ("wall_micros", Value::U64(10)),
                ("hash_evals", Value::U64(4)),
            ],
        );
        sink.emit(
            "hash_round",
            &[
                ("wall_micros", Value::U64(5)),
                ("hash_evals", Value::U64(2)),
            ],
        );
        sink.emit(
            "pairwise",
            &[("wall_micros", Value::U64(7)), ("pairs", Value::U64(3))],
        );
        sink.emit(
            "oracle_call",
            &[("spend", Value::U64(2)), ("latency_micros", Value::U64(99))],
        );
        sink.emit("run_end", &[]);
        let seg = collector.take_last_segment().expect("segment completed");
        assert_eq!(seg.segment, 1);
        assert_eq!(seg.hash_rounds, 2);
        assert_eq!(seg.hash_wall_micros, 15);
        assert_eq!(seg.hash_evals, 6);
        assert_eq!(seg.pairwise_calls, 1);
        assert_eq!(seg.pairwise_wall_micros, 7);
        assert_eq!(seg.pairs, 3);
        assert_eq!(seg.oracle_calls, 1);
        assert_eq!(seg.oracle_spend, 2);
        assert_eq!(seg.oracle_latency_micros, 99);
        assert_eq!(collector.take_last_segment(), None, "consumed");

        // A second segment numbers itself 2 even after a take.
        sink.emit("run_start", &[]);
        sink.emit("run_end", &[]);
        assert_eq!(collector.take_last_segment().unwrap().segment, 2);
    }

    /// The collector folds a segment's attributed events through the
    /// shared fold, and `record_segment` turns the totals into the two
    /// linked child spans.
    #[test]
    fn record_segment_emits_linked_children() {
        let memory = Arc::new(MemorySubscriber::new());
        let collector = Arc::new(SpanCollector::new());
        let sink = TraceSink::new(memory.clone()).with(collector.clone());
        sink.emit("run_start", &[]);
        sink.emit(
            "hash_round",
            &[
                ("wall_micros", Value::U64(10)),
                ("hash_evals", Value::U64(4)),
            ],
        );
        sink.emit("gate", &[("action", Value::Str("pairwise"))]);
        sink.emit(
            "pairwise",
            &[("wall_micros", Value::U64(7)), ("pairs", Value::U64(3))],
        );
        sink.emit(
            "oracle_call",
            &[("spend", Value::U64(2)), ("latency_micros", Value::U64(99))],
        );
        sink.emit("run_end", &[("rounds", Value::U64(1))]);
        let seg = collector.take_last_segment().unwrap();
        assert_eq!((seg.runs, seg.rounds), (1, 1));
        assert_eq!(seg.gates_pairwise, 0, "gates return before the lock");

        let spans = Spans::new(8, 0);
        let resolve = spans.begin_at("resolve", 1, 50);
        spans.record_segment(&resolve, &seg, &sink);
        let events = memory.events();
        let children: Vec<_> = events.iter().filter(|e| e.name == "span").collect();
        assert_eq!(children.len(), 2);
        let (hash, pairwise) = (children[0], children[1]);
        assert_eq!(hash.str("op"), Some("hash_rounds"));
        assert_eq!(pairwise.str("op"), Some("pairwise"));
        for child in [hash, pairwise] {
            assert_eq!(child.u64("parent_span_id"), Some(resolve.id));
            assert_eq!(child.u64("start_micros"), Some(50));
            assert_eq!(child.u64("segment"), Some(1));
        }
        assert_eq!(hash.u64("duration_micros"), Some(10));
        assert_eq!(hash.u64("hash_evals"), Some(4));
        assert_eq!(pairwise.u64("duration_micros"), Some(7));
        assert_eq!(pairwise.u64("pairs"), Some(3));
        assert_eq!(pairwise.u64("oracle_calls"), Some(1));
        assert_eq!(pairwise.u64("oracle_spend"), Some(2));
        assert_eq!(pairwise.u64("oracle_latency_micros"), Some(99));
    }

    #[test]
    fn oracle_calls_outside_segments_are_ignored() {
        let collector = Arc::new(SpanCollector::new());
        let sink = TraceSink::new(collector.clone());
        sink.emit("oracle_call", &[("spend", Value::U64(5))]);
        sink.emit("run_start", &[]);
        sink.emit("run_end", &[]);
        assert_eq!(collector.take_last_segment().unwrap().oracle_calls, 0);
    }
}
