//! The three batch workloads: design an engine for a record store, then
//! run the adaLSH filter for the top-k entities, over and over.
//!
//! | workload | input | what it stresses |
//! |---|---|---|
//! | `scale-1m` | 10⁶ Zipf scale records streamed into a store file, filtered off the memory mapping | `H₁` over every record (~96% of a run); store ingest and open in set-up |
//! | `spotsigs-deep` | 12 000 SpotSigs-like records, 300 large entities, in RAM | deep levels and `P` (~40% of a run) |
//! | `popimages-dense` | 40 000 dense histograms, 2 500 entities, angular 3°, in RAM | hyperplane kernels, cosine early exits, design time |
//!
//! Set-up (`setup_s`) is everything before the engine can answer: store
//! build + open + design for `scale-1m`, design alone for the RAM
//! workloads (generating the input is not the program's work). It is
//! repeated and its median reported. The timed phase runs the filter
//! with tracing off after one warm-up run; `answer_ms` is the median
//! run. With `--trace 1` one more run goes through a trace subscriber
//! and its events give the per-layer split.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adalsh_core::metrics::set_metrics;
use adalsh_core::{AdaLsh, AdaLshConfig, FilterOutput};
use adalsh_data::{Dataset, MatchRule, RecordStore};
use adalsh_datagen::{popimages, scale_match_rule, spotsigs, ScaleConfig, ScaleGenerator};
use adalsh_datagen::{PopImagesConfig, SpotSigsConfig};
use adalsh_obs::span::DEFAULT_RING_CAP;
use adalsh_obs::{schema, MemorySubscriber, SpanCollector, Spans, TraceSink, Value};
use adalsh_store::{write_store, StoreBuilder, StoreView};

use crate::fold::{fold, write_events};
use crate::input::{rekeyed, shuffled};
use crate::stats::{median, quartiles};
use crate::{peak_rss_mb, Ctx, Report, ENGINE_THREADS, K};

/// Timed filter runs per workload, at least, however long they take.
const MIN_RUNS: usize = 3;

/// Set-up repetitions: at least `MIN_SETUPS`, more while they stay
/// cheap, so a fast design is not reported off three noisy points.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Records per generated chunk while streaming the scale store: only
/// the builder's `push` calls are timed, not the generator.
const CHUNK: usize = 4096;

/// A workload's input and the lowest top-k F1 against the planted
/// entities its output may score. F1 is the same for every `--seed`
/// (the entity structure is fixed), and each floor sits just under the
/// value the engine scores; falling below it means the engine lost
/// entities, whatever it gained in speed.
struct Workload {
    input: Input,
    rule: MatchRule,
    f1_floor: f64,
}

enum Input {
    Ram(Dataset),
    /// The scale generator's config and the token rekeying seed; the
    /// store is built during set-up.
    Scale(ScaleConfig, u64),
}

/// Structure seeds (see [`crate::input`]): each workload's corpus is
/// generated from its own, and `--seed` reorders or rekeys it.
const SCALE_STRUCTURE: u64 = 0x5CA1E;
const SPOTSIGS_STRUCTURE: u64 = 2;
const POPIMAGES_STRUCTURE: u64 = 1;

fn workload(name: &str, ctx: &Ctx) -> Workload {
    let smoke = ctx.smoke;
    match name {
        "scale-1m" => Workload {
            input: Input::Scale(
                ScaleConfig {
                    records: if smoke { 20_000 } else { 1_000_000 },
                    seed: SCALE_STRUCTURE,
                    ..ScaleConfig::default()
                },
                ctx.seed,
            ),
            rule: scale_match_rule(),
            f1_floor: 0.99,
        },
        "spotsigs-deep" => Workload {
            input: Input::Ram(shuffled(
                &spotsigs::generate(&SpotSigsConfig {
                    num_records: if smoke { 1_200 } else { 12_000 },
                    num_entities: if smoke { 30 } else { 300 },
                    seed: SPOTSIGS_STRUCTURE,
                    ..SpotSigsConfig::default()
                }),
                ctx.seed,
            )),
            rule: spotsigs::match_rule(0.4),
            f1_floor: 0.86,
        },
        "popimages-dense" => Workload {
            input: Input::Ram(shuffled(
                &popimages::generate(&PopImagesConfig {
                    num_records: if smoke { 2_000 } else { 40_000 },
                    num_entities: if smoke { 125 } else { 2_500 },
                    seed: POPIMAGES_STRUCTURE,
                    ..PopImagesConfig::default()
                }),
                ctx.seed,
            )),
            rule: popimages::match_rule(3.0),
            f1_floor: 0.99,
        },
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// The engine configuration every run uses: paper defaults, threads
/// pinned.
pub fn engine_config(rule: &MatchRule) -> AdaLshConfig {
    let mut config = AdaLshConfig::new(rule.clone());
    config.threads = ENGINE_THREADS;
    config
}

/// Runs one batch workload.
pub fn run(name: &str, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    if let Err(e) = measure(name, ctx, &mut report) {
        report.check(false, e);
    }
    report
}

/// The store being resolved, with the engine designed for it.
struct Ready {
    /// The mapped store of `scale-1m`; `None` for RAM inputs.
    view: Option<StoreView>,
    engine: AdaLsh,
}

/// Set-up timings of one repetition.
#[derive(Default)]
struct SetupTimes {
    build: f64,
    open: f64,
    design: f64,
}

fn measure(name: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let w = workload(name, ctx);
    let store_path = ctx.work.join(format!("{name}.store"));

    // Set-up, repeated; the last repetition's engine is the one timed.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut ready: Option<Ready> = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(ready.take());
        let (times, r) = set_up(&w, &store_path)?;
        setups.push(times);
        ready = Some(r);
        report.attempted += 1;
    }
    let mut ready = ready.expect("at least one set-up ran");
    let store = record_store(&ready.view, &w.input);
    let total: Vec<f64> = setups.iter().map(|s| s.build + s.open + s.design).collect();
    report.put("setup_s", median(&total), setups.len());
    println!(
        "   {} records, rule {:?}, k={K}, {} levels, {ENGINE_THREADS} engine threads",
        store.len(),
        w.rule,
        ready.engine.num_levels()
    );

    // Warm-up run: its output is the reference every later run must
    // reproduce bit for bit.
    let warm = ready.engine.run(store, K);
    report.attempted += 1;
    let reference = digest(&warm);
    let f1 = set_metrics(&warm.records(), &store.gold_records(K)).f1;
    report.put("f1_gold", f1, 1);
    report.check(
        f1 >= w.f1_floor,
        format!("f1_gold {f1:.4} >= floor {}", w.f1_floor),
    );

    let mut walls = Vec::new();
    let mut diverged = 0;
    let timed = Instant::now();
    while walls.len() < MIN_RUNS || timed.elapsed().as_secs_f64() < ctx.seconds {
        let start = Instant::now();
        let out = ready.engine.run(store, K);
        walls.push(start.elapsed().as_secs_f64());
        diverged += usize::from(digest(&out) != reference);
    }
    report.attempted += walls.len() as u64;
    report.check(
        diverged == 0,
        format!(
            "clusters + Stats digest {reference:016x} identical in {} of {} runs",
            walls.len() - diverged,
            walls.len()
        ),
    );
    let answer_s = median(&walls);
    report.put("answer_ms", answer_s * 1e3, walls.len());
    if let Some([q1, _, q3]) = quartiles(&walls) {
        println!(
            "   runs: q1 {:.1} ms, median {:.1} ms, q3 {:.1} ms",
            q1 * 1e3,
            answer_s * 1e3,
            q3 * 1e3
        );
    }
    if let Some(mb) = peak_rss_mb() {
        report.put("peak_rss_mb", mb, 1);
    }

    if ctx.trace {
        let designs: Vec<f64> = setups.iter().map(|s| s.design).collect();
        report.put("core.design_s", median(&designs), setups.len());
        report.put("core.levels", ready.engine.num_levels() as f64, 1);
        match &w.input {
            Input::Scale(..) => {
                let builds: Vec<f64> = setups.iter().map(|s| s.build).collect();
                let opens: Vec<f64> = setups.iter().map(|s| s.open).collect();
                report.put("store.build_s", median(&builds), setups.len());
                report.put("store.open_s", median(&opens), setups.len());
                report_store_size(report, &store_path, store.len())?;
            }
            Input::Ram(dataset) => store_round_trip(report, dataset, &ctx.work)?,
        }
        traced_pass(store, &w.rule, ctx, reference, answer_s, report)?;
        report.attempted += 1;
    }
    drop(ready);
    let _ = std::fs::remove_file(&store_path);
    Ok(())
}

/// One set-up repetition: for `scale-1m`, stream the generator into a
/// fresh store file, map it, and design; for RAM inputs, design.
fn set_up(w: &Workload, store_path: &Path) -> Result<(SetupTimes, Ready), String> {
    let mut times = SetupTimes::default();
    let view = match &w.input {
        Input::Ram(_) => None,
        Input::Scale(config, rekey) => {
            times.build = build_scale_store(store_path, config, *rekey)?;
            let start = Instant::now();
            let view = StoreView::open(store_path).map_err(|e| format!("open store: {e}"))?;
            times.open = start.elapsed().as_secs_f64();
            Some(view)
        }
    };
    let start = Instant::now();
    let engine = AdaLsh::for_dataset(record_store(&view, &w.input), engine_config(&w.rule))?;
    times.design = start.elapsed().as_secs_f64();
    Ok((times, Ready { view, engine }))
}

/// The records the engine resolves: the mapped store when there is one,
/// else the RAM dataset.
fn record_store<'a>(view: &'a Option<StoreView>, input: &'a Input) -> &'a dyn RecordStore {
    match (view, input) {
        (Some(view), _) => view,
        (None, Input::Ram(dataset)) => dataset,
        (None, Input::Scale(..)) => unreachable!("scale set-up always maps its store"),
    }
}

/// Streams the scale generator, rekeyed, into a store file and returns
/// the time spent inside the builder (create, every push, finish).
fn build_scale_store(path: &Path, config: &ScaleConfig, rekey: u64) -> Result<f64, String> {
    let err = |e: adalsh_store::StoreError| format!("build store: {e}");
    let mut generator = ScaleGenerator::new(config.clone());
    let start = Instant::now();
    let mut builder = StoreBuilder::create(path, generator.schema()).map_err(err)?;
    let mut in_builder = start.elapsed();
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        chunk.clear();
        chunk.extend(
            generator
                .by_ref()
                .take(CHUNK)
                .map(|(record, entity)| (rekeyed(&record, rekey), entity)),
        );
        if chunk.is_empty() {
            break;
        }
        let start = Instant::now();
        for (record, entity) in &chunk {
            builder.push(record, *entity).map_err(err)?;
        }
        in_builder += start.elapsed();
    }
    let start = Instant::now();
    builder.finish().map_err(err)?;
    in_builder += start.elapsed();
    Ok(in_builder.as_secs_f64())
}

/// The store layer measured on a RAM workload's records: the same
/// builder and mapping `scale-1m` sets up with, on dense or shingle
/// payloads of another shape. Per-layer only; the RAM workloads never
/// read the file.
pub fn store_round_trip(report: &mut Report, dataset: &Dataset, work: &Path) -> Result<(), String> {
    let path = work.join("round-trip.store");
    let start = Instant::now();
    write_store(&path, dataset).map_err(|e| format!("write store: {e}"))?;
    report.put("store.build_s", start.elapsed().as_secs_f64(), 1);
    let start = Instant::now();
    let view = StoreView::open(&path).map_err(|e| format!("open store: {e}"))?;
    report.put("store.open_s", start.elapsed().as_secs_f64(), 1);
    report.check(
        view.len() == dataset.len(),
        format!("store round trip kept all {} records", dataset.len()),
    );
    drop(view);
    report_store_size(report, &path, dataset.len())?;
    let _ = std::fs::remove_file(&path);
    Ok(())
}

fn report_store_size(report: &mut Report, path: &Path, records: usize) -> Result<(), String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    report.put("store.bytes_per_record", bytes as f64 / records as f64, 1);
    Ok(())
}

/// Hash of the clusters and every `Stats` counter, the modeled cost
/// bit for bit: two runs agree on it exactly or the engine is not
/// deterministic.
fn digest(out: &FilterOutput) -> u64 {
    let mut h = DefaultHasher::new();
    out.clusters.hash(&mut h);
    let s = &out.stats;
    (
        s.hash_evals,
        s.distance_evals,
        s.pair_comparisons,
        s.bucket_inserts,
        s.transitive_calls,
        s.pairwise_calls,
        s.rounds,
        s.modeled_cost.to_bits(),
    )
        .hash(&mut h);
    h.finish()
}

/// One more design + run with a trace subscriber attached. The events
/// give the per-layer split; the span tree (`filter_run` → `design`,
/// `resolve` → `hash_rounds`, `pairwise`) is checked by the trace
/// validator, which also reconciles every event sum with the run's
/// `Stats`.
fn traced_pass(
    store: &dyn RecordStore,
    rule: &MatchRule,
    ctx: &Ctx,
    reference: u64,
    untraced_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let memory = Arc::new(MemorySubscriber::new());
    let sink = TraceSink::new(memory.clone());
    let collector = Arc::new(SpanCollector::new());
    let spans = Spans::new(DEFAULT_RING_CAP, 0);
    let mut config = engine_config(rule);
    config.trace = sink.with(collector.clone());

    let root = spans.begin("filter_run", 0);
    let design = spans.begin("design", root.id);
    let mut engine = AdaLsh::for_dataset(store, config)?;
    spans.finish(design, &[], &sink);
    let resolve = spans.begin("resolve", root.id);
    let start = Instant::now();
    let out = engine.run(store, K);
    let traced_s = start.elapsed().as_secs_f64();
    let segment = collector
        .take_last_segment()
        .ok_or("the traced run emitted no run segment")?;
    let hash = spans.begin_at("hash_rounds", resolve.id, resolve.start_micros);
    spans.record(
        hash,
        segment.hash_wall_micros,
        &[
            ("segment", Value::U64(segment.segment)),
            ("hash_evals", Value::U64(segment.hash_evals)),
        ],
        &sink,
    );
    let pairwise = spans.begin_at("pairwise", resolve.id, resolve.start_micros);
    spans.record(
        pairwise,
        segment.pairwise_wall_micros,
        &[
            ("segment", Value::U64(segment.segment)),
            ("pairs", Value::U64(segment.pairs)),
        ],
        &sink,
    );
    spans.finish(resolve, &[], &sink);
    spans.finish(
        root,
        &[
            ("k", Value::U64(K as u64)),
            ("records", Value::U64(store.len() as u64)),
        ],
        &sink,
    );

    let events = memory.events();
    let validated = schema::validate(&events);
    report.check(
        validated.is_ok(),
        match &validated {
            Ok(r) => format!(
                "traced pass: {} events reconcile with Stats; span children fit their parents",
                r.events
            ),
            Err(e) => format!("traced pass trace is invalid: {e}"),
        },
    );
    report.check(
        digest(&out) == reference,
        "traced run reproduces the untraced clusters + Stats digest",
    );
    let totals = fold(&events);
    report.check(
        totals.self_s() >= 0.0,
        format!(
            "H + P ({:.4} s) fit inside the run wall ({:.4} s)",
            (totals.h1_micros + totals.hn_micros + totals.p_micros) as f64 / 1e6,
            totals.run_micros as f64 / 1e6
        ),
    );
    totals.report(report);
    report.put("obs.trace_overhead", traced_s / untraced_s, 1);
    if let Some(path) = &ctx.trace_out {
        write_events(path, &events)?;
        println!("   trace written to {}", path.display());
    }
    Ok(())
}
