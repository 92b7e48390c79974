//! Span-layer overhead recorder: the ingest pipeline with tracing
//! disabled vs the same pipeline with the full span layer enabled
//! (root `ingest_batch` spans, engine-derived children, `/proc`
//! RSS/page-fault sampling, slow-op checks, ring retention).
//!
//! Both arms drive a bare [`adalsh_serve::Pipeline`] — no HTTP in the
//! way — through the same sequential batch series, measuring
//! ingest-to-visible wall per batch (`submit` then `wait_until` the
//! batch's `visible_epoch`). Each repetition starts one fresh pipeline
//! per arm and feeds the two batch by batch, the arm that goes first
//! alternating per batch, so a host that slows down or speeds up inside
//! a repetition slows both arms alike instead of reading as span cost.
//! Each arm keeps its fastest repetition, so the ratio compares best
//! cases instead of scheduler noise.
//!
//! ```sh
//! cargo run --release -p adalsh-bench --bin bench_spans
//! cargo run --release -p adalsh-bench --bin bench_spans -- --smoke
//! cargo run --release -p adalsh-bench --bin bench_spans -- --smoke --out /tmp/spans.json
//! ```
//!
//! `--smoke` runs a shorter series, skips writing `BENCH_spans.json`,
//! and exits nonzero if the span layer costs more than
//! [`MAX_OVERHEAD_RATIO`] — observability that taxes the hot path
//! double digits is a regression, not a feature. `--out <path>` writes
//! the JSON to `<path>` in either mode, so CI can diff a fresh smoke
//! run against the committed baseline with `adalsh bench diff`.

use std::sync::Arc;
use std::time::Instant;

use adalsh_bench::recorder::{out_arg, provenance_fields};
use adalsh_core::{AdaLshConfig, OnlineAdaLsh};
use adalsh_data::{FieldDistance, FieldValue, MatchRule, Record, ShingleSet};
use adalsh_datagen::spotsigs::{self, SpotSigsConfig};
use adalsh_obs::span::DEFAULT_RING_CAP;
use adalsh_obs::{NoopSubscriber, Spans, TraceSink};
use adalsh_serve::metrics::Metrics;
use adalsh_serve::{Pipeline, PipelineConfig};

/// The span layer may not slow ingest-to-visible by more than this.
const MAX_OVERHEAD_RATIO: f64 = 1.15;

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.6)
}

fn resolver(records: usize, entities: usize) -> OnlineAdaLsh {
    let dataset = spotsigs::generate(&SpotSigsConfig {
        num_records: records,
        num_entities: entities,
        seed: 42,
        ..SpotSigsConfig::default()
    });
    OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule())).expect("design")
}

/// A fresh shingle record in the spotsigs shape (entity core plus a
/// little noise), so ingested batches join existing clusters.
fn fresh_record(i: usize, entities: usize) -> Record {
    let entity = (i % entities) as u64;
    let mut shingles: Vec<u64> = (0..12).map(|s| entity * 10_000 + s).collect();
    shingles.push(entity * 10_000 + 100 + (i as u64 % 7));
    shingles.push(entity * 10_000 + 200 + (i as u64 % 5));
    Record::single(FieldValue::Shingles(ShingleSet::new(shingles)))
}

/// A pipeline over a fresh resolver, with the full span layer or with
/// tracing disabled.
fn pipeline(records: usize, entities: usize, spans_on: bool) -> Pipeline {
    let mut engine = resolver(records, entities);
    let spans = if spans_on {
        engine.set_trace(TraceSink::new(Arc::new(NoopSubscriber)));
        Arc::new(Spans::new(DEFAULT_RING_CAP, 0))
    } else {
        Arc::new(Spans::disabled())
    };
    Pipeline::start(
        engine,
        rule(),
        None,
        PipelineConfig::default(),
        Metrics::new().pipeline(),
        spans,
    )
}

/// Submits ingest batch `b` and waits for its `visible_epoch`, so the
/// pass pays the full queue_wait / coalesce / resolve / publish path.
/// Returns the ingest-to-visible wall in seconds.
fn ingest(pipeline: &Pipeline, records: usize, entities: usize, b: usize, per_batch: usize) -> f64 {
    let batch: Vec<Record> = (0..per_batch)
        .map(|r| fresh_record(records + b * per_batch + r, entities))
        .collect();
    let started = Instant::now();
    let accepted = pipeline.submit(batch).expect("submit batch");
    assert!(
        pipeline.wait_until(accepted.visible_epoch, 0),
        "batch {b} never became visible"
    );
    started.elapsed().as_secs_f64()
}

/// Best-of-`reps` summed walls of the disabled and the enabled arm. Each
/// repetition runs both arms on fresh pipelines, batch by batch; which
/// arm goes first alternates per batch, and so does the first batch's
/// first arm per repetition.
fn best_of_interleaved(
    reps: usize,
    records: usize,
    entities: usize,
    batches: usize,
    per_batch: usize,
) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for rep in 0..reps {
        let arms = [
            pipeline(records, entities, false),
            pipeline(records, entities, true),
        ];
        let mut walls = [0.0; 2];
        for b in 0..batches {
            let first = (rep + b) % 2;
            for arm in [first, 1 - first] {
                walls[arm] += ingest(&arms[arm], records, entities, b, per_batch);
            }
        }
        for (best, wall) in best.iter_mut().zip(walls) {
            *best = best.min(wall);
        }
    }
    (best[0], best[1])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = out_arg(&args);

    let (records, entities) = if smoke { (200, 30) } else { (400, 50) };
    let (batches, per_batch) = if smoke { (16, 25) } else { (40, 25) };
    let reps = if smoke { 4 } else { 6 };

    // Warm both code paths once (page cache, lazy init) before timing.
    let _ = best_of_interleaved(1, records, entities, 2, per_batch);

    let (disabled, enabled) = best_of_interleaved(reps, records, entities, batches, per_batch);
    let ratio = enabled / disabled;
    let per_batch_micros = |wall: f64| wall / batches as f64 * 1e6;

    println!("span overhead ({records} boot records, {batches} x {per_batch} ingest):");
    println!(
        "  tracing disabled  {disabled:>9.4}s total   {:>9.1}us/batch",
        per_batch_micros(disabled)
    );
    println!(
        "  spans enabled     {enabled:>9.4}s total   {:>9.1}us/batch",
        per_batch_micros(enabled)
    );
    println!("  overhead ratio    {ratio:>9.3}x   (gate: {MAX_OVERHEAD_RATIO}x)");

    let json = format!(
        "{{\n  \"_meta\": {{ \"records\": {records}, \"entities\": {entities}, \
         \"batches\": {batches}, \"per_batch\": {per_batch}, \"reps\": {reps}, \
         \"unit\": \"best-of-{reps} summed ingest-to-visible wall, seconds\", {} }},\n  \
         \"disabled\": {{ \"ingest_to_visible_wall_seconds\": {disabled:.6}, \
         \"per_batch_micros\": {:.1} }},\n  \
         \"enabled\": {{ \"ingest_to_visible_wall_seconds\": {enabled:.6}, \
         \"per_batch_micros\": {:.1} }},\n  \
         \"span_overhead_ratio\": {ratio:.4}\n}}\n",
        provenance_fields(),
        per_batch_micros(disabled),
        per_batch_micros(enabled),
    );
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write --out");
        println!("wrote {path}");
    }

    if smoke {
        if ratio > MAX_OVERHEAD_RATIO {
            eprintln!(
                "FAIL: span layer costs {ratio:.3}x (> {MAX_OVERHEAD_RATIO}x) — \
                 tracing must stay cheap enough to leave on"
            );
            std::process::exit(1);
        }
        println!("smoke mode: baseline not written");
        return;
    }

    let path = "BENCH_spans.json";
    std::fs::write(path, &json).expect("write baseline");
    println!("wrote {path}");
}
