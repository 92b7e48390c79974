//! The CLI subcommands.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adalsh_core::algorithm::{AdaLsh, AdaLshConfig, FilterMethod, FilterOutput};
use adalsh_core::baselines::{LshBlocking, Pairs};
use adalsh_core::metrics::{map_mar, reduction_pct, set_metrics};
use adalsh_core::recovery::perfect_recovery;
use adalsh_core::{NoisyOracleConfig, OnlineAdaLsh, OracleMode, OracleSpend};
use adalsh_data::{io as dio, Dataset, RecordStore};
use adalsh_datagen::popimages::PopImagesConfig;
use adalsh_datagen::spotsigs::SpotSigsConfig;
use adalsh_datagen::{CoraConfig, ScaleConfig, ScaleGenerator};
use adalsh_obs::span::DEFAULT_RING_CAP;
use adalsh_obs::{
    attr, jsonl, schema, summary, JsonlSubscriber, ProcSample, SpanCollector, Spans, TraceSink,
    Value as TraceValue,
};
use adalsh_serve::{PipelineConfig, ServeSnapshot, Server, ServerConfig, Service};
use adalsh_store::{StoreBuilder, StoreView};

use crate::args::Args;
use crate::bench_diff;
use crate::rules;

/// `adalsh generate <family> --out file …`
pub fn generate(args: &Args) -> Result<(), String> {
    let family = args.positional(0, "dataset family")?;
    let out = args.flag("out").ok_or("generate requires --out <file>")?;
    let seed: u64 = args.flag_or("seed", 42u64)?;
    let dataset = match family {
        "cora" => {
            let cfg = CoraConfig {
                num_records: args.flag_or("records", 1200usize)?,
                num_entities: args.flag_or("entities", 220usize)?,
                seed,
                ..CoraConfig::default()
            };
            adalsh_datagen::cora::generate(&cfg).0
        }
        "spotsigs" => {
            let cfg = SpotSigsConfig {
                num_records: args.flag_or("records", 1100usize)?,
                num_entities: args.flag_or("entities", 120usize)?,
                seed,
                ..SpotSigsConfig::default()
            };
            adalsh_datagen::spotsigs::generate(&cfg)
        }
        "popimages" => {
            let cfg = PopImagesConfig {
                num_records: args.flag_or("records", 4000usize)?,
                num_entities: args.flag_or("entities", 250usize)?,
                zipf_exponent: args.flag_or("exponent", 1.05f64)?,
                seed,
                ..PopImagesConfig::default()
            };
            adalsh_datagen::popimages::generate(&cfg)
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    dio::save(&dataset, Path::new(out)).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} records / {} entities to {out}",
        dataset.len(),
        dataset.num_entities()
    );
    Ok(())
}

/// `adalsh info <file>`
pub fn info(args: &Args) -> Result<(), String> {
    let dataset = load(args)?;
    let sizes = dataset.entity_sizes();
    println!("records:  {}", dataset.len());
    println!("entities: {}", dataset.num_entities());
    println!("fields:");
    for f in dataset.schema().fields() {
        println!("  {} ({:?})", f.name, f.kind);
    }
    let shown = if args.switch("verbose") {
        sizes.len()
    } else {
        sizes.len().min(10)
    };
    println!("top entity sizes: {:?}", &sizes[..shown]);
    println!("singletons: {}", sizes.iter().filter(|&&s| s == 1).count());
    Ok(())
}

/// `adalsh filter <file> --k K [--method m] [--rule spec] [--out file]`
/// or `adalsh filter --store <file.store> …` to resolve directly off a
/// memory-mapped store file without materializing records in RAM.
pub fn filter(args: &Args) -> Result<(), String> {
    let input = load_input(args)?;
    let store = input.store();
    let k: usize = args.flag_or("k", 10usize)?;
    let rule = rules::resolve(args.flag("rule"), store.schema())?;
    let (name, out) = run_method(args, store, &rule, k)?;
    println!(
        "{name}: {} clusters, {} records, {:?} ({} hash evals, {} pair comparisons)",
        out.clusters.len(),
        out.records().len(),
        out.wall,
        out.stats.hash_evals,
        out.stats.pair_comparisons
    );
    if let Some(spend) = &out.oracle {
        println!("{}", oracle_summary(spend));
    }
    for (i, c) in out.clusters.iter().enumerate() {
        let preview: Vec<u32> = c.iter().take(8).copied().collect();
        println!("#{:<3} size {:<6} e.g. {:?}", i + 1, c.len(), preview);
    }
    if let Some(path) = args.flag("out") {
        let json = serde_json::to_string_pretty(&out.clusters).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("clusters written to {path}");
    }
    Ok(())
}

/// `adalsh evaluate <file> --k K [--khat K2] [--method m] [--rule spec]`
/// — also accepts `--store <file.store>` in place of the dataset file.
pub fn evaluate(args: &Args) -> Result<(), String> {
    let input = load_input(args)?;
    let store = input.store();
    let k: usize = args.flag_or("k", 10usize)?;
    let khat: usize = args.flag_or("khat", k)?;
    let rule = rules::resolve(args.flag("rule"), store.schema())?;
    let (name, out) = run_method(args, store, &rule, khat)?;
    let gold = store.gold_records(k);
    let m = set_metrics(&out.records(), &gold);
    let gt = store.ground_truth_clusters();
    let (map, mar) = map_mar(&out.clusters, &gt, k);
    let recovered = perfect_recovery(store, &out.records());
    let (map_r, mar_r) = map_mar(&recovered, &gt, k);
    println!("method:            {name}");
    println!("requested k̂:       {khat} (gold k = {k})");
    println!("filtering time:    {:?}", out.wall);
    println!("hash evaluations:  {}", out.stats.hash_evals);
    println!("pair comparisons:  {}", out.stats.pair_comparisons);
    println!(
        "output records:    {} ({:.1}% of dataset)",
        out.records().len(),
        reduction_pct(out.records().len(), store.len())
    );
    println!("precision gold:    {:.4}", m.precision);
    println!("recall gold:       {:.4}", m.recall);
    println!("F1 gold:           {:.4}", m.f1);
    println!("mAP / mAR:         {map:.4} / {mar:.4}");
    println!("with recovery:     {map_r:.4} / {mar_r:.4}");
    if let Some(spend) = &out.oracle {
        println!("{}", oracle_summary(spend));
    }
    Ok(())
}

/// `adalsh serve <bootstrap.jsonl> [--addr A] [--rule spec] …` or
/// `adalsh serve --resume <snapshot.json> [--addr A] …`
///
/// Boots the online resolution service. A fresh start bootstraps the
/// engine design from the dataset file; `--resume` restores records and
/// hash states from a `POST /snapshot` file instead (the match rule is
/// taken from the snapshot, so already-hashed records are never
/// re-hashed). `--queue-cap`, `--max-batch`, and `--resolve-k` tune the
/// ingest pipeline (queue bound, records per resolve pass, published
/// resolve depth). Prints `listening on http://<addr>` once ready —
/// with `--addr 127.0.0.1:0` the line reveals the ephemeral port.
pub fn serve(args: &Args) -> Result<(), String> {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:8080");
    let workers: usize = args.flag_or("workers", 4usize)?;
    let threads: usize = args.flag_or("threads", 0usize)?;
    let snapshot_out = args.flag("snapshot-out").map(PathBuf::from);
    let pipeline_defaults = PipelineConfig::default();
    let pipeline = PipelineConfig {
        queue_cap: args.flag_or("queue-cap", pipeline_defaults.queue_cap)?,
        max_batch: args.flag_or("max-batch", pipeline_defaults.max_batch)?,
        resolve_k: args.flag_or("resolve-k", pipeline_defaults.resolve_k)?,
        slow_ms: args.flag_or("slow-ms", pipeline_defaults.slow_ms)?,
        ..pipeline_defaults
    };
    let trace = match args.flag("trace-out") {
        Some(path) => {
            println!("tracing engine rounds to {path}");
            trace_sink(path)?
        }
        None => TraceSink::disabled(),
    };

    let (resolver, rule) = if let Some(path) = args.flag("resume") {
        let snapshot = ServeSnapshot::load(Path::new(path))?;
        let rule = snapshot.rule.clone();
        let mut config = AdaLshConfig::new(rule.clone());
        if threads > 0 {
            config.threads = threads;
        }
        config.oracle = oracle_mode(args)?;
        config.trace = trace;
        let resolver = snapshot.restore(config)?;
        println!("resumed {} records from {path}", resolver.len());
        (resolver, rule)
    } else {
        let dataset = load(args)?;
        let rule = rules::resolve(args.flag("rule"), dataset.schema())?;
        let mut config = AdaLshConfig::new(rule.clone());
        if threads > 0 {
            config.threads = threads;
        }
        config.oracle = oracle_mode(args)?;
        config.trace = trace;
        let resolver = OnlineAdaLsh::new(&dataset, config)?;
        println!("bootstrapped engine from {} records", resolver.len());
        (resolver, rule)
    };

    let service = Arc::new(Service::with_config(resolver, rule, snapshot_out, pipeline));
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::start(service, addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
    println!("listening on http://{}", server.local_addr());
    // Serve until the process is terminated (`park` tolerates spurious
    // wake-ups; there is nothing else for the main thread to do).
    loop {
        std::thread::park();
    }
}

fn load(args: &Args) -> Result<Dataset, String> {
    let path = args.positional(0, "dataset path")?;
    dio::load(Path::new(path)).map_err(|e| format!("read {path}: {e}"))
}

/// Record source for `filter`/`evaluate`: a dataset file materialized
/// in RAM, or a store file resolved through its memory mapping.
enum Input {
    Ram(Dataset),
    Mapped(StoreView),
}

impl Input {
    fn store(&self) -> &dyn RecordStore {
        match self {
            Input::Ram(dataset) => dataset,
            Input::Mapped(view) => view,
        }
    }
}

/// Loads the positional dataset file, or opens `--store <file.store>`
/// as a zero-copy mapped view. Exactly one of the two must be given.
fn load_input(args: &Args) -> Result<Input, String> {
    match args.flag("store") {
        Some(path) => {
            if !args.positional.is_empty() {
                return Err(
                    "pass either a dataset file or --store <file.store>, not both".to_string(),
                );
            }
            StoreView::open(Path::new(path))
                .map(Input::Mapped)
                .map_err(|e| format!("open store {path}: {e}"))
        }
        None => load(args).map(Input::Ram),
    }
}

/// `adalsh datagen --out <file.store> [--records N] [--seed S]
/// [--exponent E] [--max-entity-size N]`
///
/// Streams the seeded Zipf scale generator straight into a store file:
/// records are written as they are drawn, so memory stays constant no
/// matter how many records are requested. The result is consumed with
/// `filter --store` / `evaluate --store` and the rule preset
/// `jaccard:0.4` (a distance threshold; planted entities sit well inside it).
pub fn datagen(args: &Args) -> Result<(), String> {
    let out = args
        .flag("out")
        .ok_or("datagen requires --out <file.store>")?;
    let defaults = ScaleConfig::default();
    let config = ScaleConfig {
        records: args.flag_or("records", defaults.records)?,
        seed: args.flag_or("seed", defaults.seed)?,
        exponent: args.flag_or("exponent", defaults.exponent)?,
        max_entity_size: args.flag_or("max-entity-size", defaults.max_entity_size)?,
        ..defaults
    };
    if config.records == 0 {
        return Err("--records must be at least 1".to_string());
    }
    let generator = ScaleGenerator::new(config);
    let mut builder = StoreBuilder::create(Path::new(out), generator.schema())
        .map_err(|e| format!("create {out}: {e}"))?;
    let start = std::time::Instant::now();
    let mut entities = 0u64;
    let mut last_entity = None;
    for (record, entity) in generator {
        if last_entity != Some(entity) {
            entities += 1;
            last_entity = Some(entity);
        }
        builder
            .push(&record, entity)
            .map_err(|e| format!("write {out}: {e}"))?;
    }
    let records = builder.len();
    builder
        .finish()
        .map_err(|e| format!("finalize {out}: {e}"))?;
    let wall = start.elapsed();
    println!(
        "wrote {records} records / {entities} entities to {out} in {wall:?} ({:.0} records/s)",
        records as f64 / wall.as_secs_f64().max(1e-9)
    );
    Ok(())
}

/// `--oracle` followed by its satellite flags.
pub const ORACLE_FLAGS: &[&str] = &[
    "oracle",
    "oracle-fp",
    "oracle-fn",
    "oracle-fault",
    "oracle-seed",
    "oracle-budget",
    "oracle-votes",
    "oracle-timeout-ms",
];

/// Builds the pairwise-oracle mode from `--oracle` and its satellite
/// flags. Satellite flags without `--oracle noisy` are an error rather
/// than silently ignored configuration.
fn oracle_mode(args: &Args) -> Result<OracleMode, String> {
    match args.flag("oracle").unwrap_or("exact") {
        "exact" => {
            if let Some(flag) = ORACLE_FLAGS[1..].iter().find(|f| args.flag(f).is_some()) {
                return Err(format!("--{flag} requires --oracle noisy"));
            }
            Ok(OracleMode::Exact)
        }
        "noisy" => {
            let defaults = NoisyOracleConfig::default();
            let timeout_ms: u64 =
                args.flag_or("oracle-timeout-ms", defaults.timeout_micros / 1000)?;
            let cfg = NoisyOracleConfig {
                false_match_rate: args.flag_or("oracle-fp", defaults.false_match_rate)?,
                false_non_match_rate: args.flag_or("oracle-fn", defaults.false_non_match_rate)?,
                fault_rate: args.flag_or("oracle-fault", defaults.fault_rate)?,
                seed: args.flag_or("oracle-seed", defaults.seed)?,
                votes: args.flag_or("oracle-votes", defaults.votes)?,
                timeout_micros: timeout_ms.saturating_mul(1000),
                budget: match args.flag("oracle-budget") {
                    Some(v) => Some(v.parse().map_err(|e| format!("--oracle-budget {v}: {e}"))?),
                    None => None,
                },
                ..defaults
            };
            for (name, rate) in [
                ("oracle-fp", cfg.false_match_rate),
                ("oracle-fn", cfg.false_non_match_rate),
                ("oracle-fault", cfg.fault_rate),
            ] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--{name} must be in [0, 1], got {rate}"));
                }
            }
            Ok(OracleMode::Noisy(cfg))
        }
        other => Err(format!("unknown oracle '{other}' (want exact or noisy)")),
    }
}

/// One-line oracle-ledger summary printed after a noisy run.
fn oracle_summary(spend: &OracleSpend) -> String {
    let budget = spend
        .budget
        .map_or(String::new(), |b| format!(" / budget {b}"));
    format!(
        "oracle: {} calls ({} attempts, {} retries, {} timeouts, {} errors), \
         {} degraded, spend {}{budget}",
        spend.calls,
        spend.attempts,
        spend.retries,
        spend.timeouts,
        spend.transient_errors,
        spend.degraded,
        spend.spent,
    )
}

fn run_method(
    args: &Args,
    store: &dyn RecordStore,
    rule: &adalsh_data::MatchRule,
    k: usize,
) -> Result<(String, FilterOutput), String> {
    let method = args.flag("method").unwrap_or("adalsh");
    // 0 = auto (the methods' default: available parallelism). Applies to
    // every method — they all end in `P` or threaded hashing.
    let threads: usize = args.flag_or("threads", 0usize)?;
    let trace_out = args.flag("trace-out");
    if trace_out.is_some() && method != "adalsh" {
        return Err(format!(
            "--trace-out instruments the adaLSH round loop; method '{method}' does not emit trace \
             events (drop --trace-out or use --method adalsh)"
        ));
    }
    let oracle = oracle_mode(args)?;
    if oracle != OracleMode::Exact && method != "adalsh" {
        return Err(format!(
            "--oracle noisy adjudicates through the adaLSH engine; method '{method}' always \
             applies the exact rule (drop --oracle or use --method adalsh)"
        ));
    }
    // A traced adaLSH run gets a `filter_run` span tree emitted into the
    // same JSONL file as the engine events, so `adalsh trace validate`
    // reconciles the two and `adalsh trace attribute` can break the wall
    // time into design / resolve / engine phases.
    let mut filter_spans: Option<FilterSpanContext> = None;
    let (name, mut boxed): (String, Box<dyn FilterMethod>) = match method {
        "adalsh" => {
            let mut config = AdaLshConfig::new(rule.clone());
            if threads > 0 {
                config.threads = threads;
            }
            config.oracle = oracle;
            if let Some(path) = trace_out {
                let sink = trace_sink(path)?;
                let spans = Spans::new(DEFAULT_RING_CAP, args.flag_or("slow-ms", 0u64)?);
                // The collector folds the run's engine events into the
                // per-segment sums the engine-derived child spans carry;
                // attached before any resolve so its segment numbering
                // matches the file's.
                let collector = Arc::new(SpanCollector::new());
                config.trace = sink.with(Arc::clone(&collector) as _);
                let root = spans.begin("filter_run", 0);
                let design = spans.begin("design", root.id);
                let engine = AdaLsh::for_dataset(store, config)?;
                spans.finish(design, &[], &sink);
                filter_spans = Some(FilterSpanContext {
                    spans,
                    sink,
                    collector,
                    root,
                });
                (engine.name(), Box::new(engine))
            } else {
                let engine = AdaLsh::for_dataset(store, config)?;
                (engine.name(), Box::new(engine))
            }
        }
        "pairs" => {
            let mut pairs = Pairs::new(rule.clone());
            if threads > 0 {
                pairs = pairs.with_threads(threads);
            }
            (pairs.name(), Box::new(pairs))
        }
        m if m.starts_with("lsh") => {
            let x: u64 = m[3..]
                .parse()
                .map_err(|_| format!("bad method '{m}' (want lsh<X>, e.g. lsh1280)"))?;
            let mut lsh = LshBlocking::new(rule.clone(), x);
            if threads > 0 {
                lsh = lsh.with_threads(threads);
            }
            // Built here, not inside `filter`, so an X the rule cannot
            // use is an error rather than a panic.
            let engine = lsh.engine(store).map_err(|e| {
                format!("method '{m}': cannot design one level of X = {x} hash functions: {e}")
            })?;
            (lsh.name(), Box::new(engine))
        }
        other => return Err(format!("unknown method '{other}'")),
    };
    let out = match &filter_spans {
        None => boxed.filter(store, k),
        Some(ctx) => {
            let resolve = ctx.spans.begin("resolve", ctx.root.id);
            let before = ProcSample::capture();
            let out = boxed.filter(store, k);
            let after = ProcSample::capture();
            // Engine-derived children: exact per-segment sums linked by
            // the `segment` field (a single-run trace has segment 1).
            if let Some(seg) = ctx.collector.take_last_segment() {
                ctx.spans.record_segment(&resolve, &seg, &ctx.sink);
            }
            let mut fields: Vec<(&'static str, TraceValue<'static>)> = Vec::new();
            if let (Some(before), Some(after)) = (before, after) {
                // RSS/page-fault deltas attribute mmap-tier paging (the
                // --store path) to the resolve phase.
                fields.extend(before.delta_fields(&after));
            }
            ctx.spans.finish(resolve, &fields, &ctx.sink);
            ctx.spans.finish(
                ctx.root,
                &[
                    ("k", TraceValue::U64(k as u64)),
                    ("records", TraceValue::U64(store.len() as u64)),
                ],
                &ctx.sink,
            );
            out
        }
    };
    if let Some(path) = trace_out {
        println!("trace written to {path}");
    }
    Ok((name, out))
}

/// Span plumbing for a traced `filter`/`evaluate` run: the recorder,
/// the JSONL sink span events are emitted through, the engine-event
/// collector, and the open `filter_run` root.
struct FilterSpanContext {
    spans: Spans,
    sink: TraceSink,
    collector: Arc<SpanCollector>,
    root: adalsh_obs::ActiveSpan,
}

/// Opens a JSONL trace writer as a [`TraceSink`].
fn trace_sink(path: &str) -> Result<TraceSink, String> {
    let subscriber =
        JsonlSubscriber::create(Path::new(path)).map_err(|e| format!("create {path}: {e}"))?;
    Ok(TraceSink::new(Arc::new(subscriber)))
}

/// `adalsh trace <validate|summarize|attribute> <file.jsonl>`
///
/// `validate` checks the trace against the event taxonomy and every
/// reconciliation identity (trace event sums must equal the run's
/// `Stats` totals — see `adalsh_obs::schema`); `summarize` renders a
/// per-level table of rounds, hash work, pairwise work, and wall time;
/// `attribute` validates, then renders the span trees as a per-phase
/// latency-attribution report (critical-path breakdown per root op).
pub fn trace(args: &Args) -> Result<(), String> {
    let action = args.positional(0, "trace action (validate|summarize|attribute)")?;
    let path = args.positional(1, "trace file")?;
    let events = jsonl::read_events(Path::new(path))?;
    match action {
        "validate" => {
            let report = schema::validate(&events)?;
            println!(
                "{path}: OK — {} events, {} complete run(s), all reconciliation identities hold",
                report.events, report.runs
            );
            Ok(())
        }
        "summarize" => {
            print!("{}", summary::summarize(&events));
            Ok(())
        }
        "attribute" => {
            // Attribution of an invalid span tree would be misleading —
            // validate first so every printed number is reconciled.
            schema::validate(&events)?;
            print!("{}", attr::attribute(&events));
            Ok(())
        }
        other => Err(format!(
            "unknown trace action '{other}' (want validate, summarize, or attribute)"
        )),
    }
}

/// `adalsh bench diff <current.json> <baseline.json> [--smoke]`
///
/// The bench-regression gate: compares every numeric metric of a fresh
/// recorder run against a committed `BENCH_*.json` baseline (see
/// [`crate::bench_diff`]). `--smoke` warns at the regular threshold and
/// fails only past 3x, for noisy CI machines.
pub fn bench(args: &Args) -> Result<(), String> {
    let action = args.positional(0, "bench action (diff)")?;
    if action != "diff" {
        return Err(format!("unknown bench action '{action}' (want diff)"));
    }
    let current_path = args.positional(1, "current bench JSON")?;
    let baseline_path = args.positional(2, "baseline bench JSON")?;
    let read = |path: &str| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let current = read(current_path)?;
    let baseline = read(baseline_path)?;
    let report = bench_diff::diff(&current, &baseline);
    if report.metrics.is_empty() {
        return Err(format!(
            "{current_path} and {baseline_path} share no numeric metrics — wrong baseline?"
        ));
    }
    let text = bench_diff::render_and_gate(&report, args.switch("smoke"))?;
    print!("{text}");
    println!("bench diff OK: {current_path} vs {baseline_path}");
    Ok(())
}
