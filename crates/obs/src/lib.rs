//! # adalsh-obs
//!
//! The workspace's observability substrate: a structured tracing layer
//! and a shared metrics registry, both **dependency-free** (std only —
//! not even the vendored serde stubs), so every crate can emit signals
//! without pulling serialization machinery into its hot paths.
//!
//! ## Tracing
//!
//! The engine's whole contribution is *adaptive* control flow — which
//! sequence level each cluster reaches, when the Line-5 gate jumps to
//! pairwise `P` — and those decisions are worth recording, not just
//! their final `Stats` totals. The tracing layer is built around three
//! pieces:
//!
//! * [`trace::Event`] — a named, flat bag of `u64`/`f64`/`str` fields,
//!   borrowed from the emitter's stack (no allocation to emit);
//! * [`trace::Subscriber`] — anything consuming events
//!   ([`jsonl::JsonlSubscriber`] writes them as JSON Lines,
//!   [`trace::MemorySubscriber`] collects them for tests, a metrics
//!   subscriber can fold them into histograms);
//! * [`trace::TraceSink`] — the handle instrumented code holds. A
//!   disabled sink is a `None` and costs one predictable branch per
//!   decision point; instrumentation guards its field computation (and
//!   its `Instant::now` calls) behind [`trace::TraceSink::enabled`], so
//!   tracing compiles to near-zero cost when off.
//!
//! The event taxonomy — which events exist, their required fields, and
//! the exact accounting identities tying event totals to the engine's
//! `Stats` counters — lives in [`schema`] and is enforced by
//! [`schema::validate`].
//!
//! ## Metrics
//!
//! [`metrics::Registry`] generalizes the registry that previously lived
//! privately inside `adalsh-serve`: plain and labeled counters plus
//! fixed-bucket histograms, rendered in Prometheus text exposition
//! format. Histograms keep an exact `f64` sum (not truncated micros)
//! and derive the `+Inf` bucket from the observation count, so
//! `_bucket{le="+Inf"} == _count` and `_sum` hold by construction.
//! [`promtext`] is the matching minimal parser, so the exposition
//! format is *tested*, not eyeballed.
//!
//! ## Reading traces back
//!
//! [`json`] is a minimal flat-JSON-object parser (the trace schema is
//! deliberately flat), [`jsonl::read_events`] loads a trace file, and
//! [`summary`] renders the per-level cost/latency table behind the
//! CLI's `trace summarize`. It, [`schema::validate`] and the span layer
//! sum the engine's events through one fold, [`fold::EngineTotals`].

pub mod attr;
pub mod fold;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod promtext;
pub mod schema;
pub mod span;
pub mod summary;
pub mod trace;

pub use jsonl::JsonlSubscriber;
pub use metrics::{Counter, Gauge, GaugeF64, Histogram, LabeledCounter, Registry};
pub use span::{ActiveSpan, CompletedSpan, ProcSample, SegmentAttribution, SpanCollector, Spans};
pub use trace::{
    Event, MemorySubscriber, NoopSubscriber, OwnedEvent, Subscriber, TraceSink, Value,
};
