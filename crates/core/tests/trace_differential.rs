//! Tracing must be a pure observer: clusters and `Stats` bit-identical
//! whether the sink is disabled, discarding, or writing JSONL, at any
//! thread count — and every emitted trace must reconcile exactly with
//! the run's `Stats` under the `adalsh_obs::schema` identities.

use std::path::PathBuf;
use std::sync::Arc;

use adalsh_core::{AdaLsh, AdaLshConfig, FilterOutput, OnlineAdaLsh, TraceSink};
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
    ShingleSet,
};
use adalsh_lsh::mix::derive_seed;
use adalsh_obs::{jsonl, schema, summary, JsonlSubscriber, MemorySubscriber, NoopSubscriber};

/// A dataset with planted entities: entity `e` has `sizes[e]` records
/// sharing a 20-shingle core plus two noise shingles.
fn planted(sizes: &[usize], seed: u64) -> Dataset {
    let schema = Schema::single("s", FieldKind::Shingles);
    let mut records = Vec::new();
    let mut gt = Vec::new();
    for (e, &sz) in sizes.iter().enumerate() {
        let base: Vec<u64> = (0..20).map(|i| (e as u64) * 1000 + i).collect();
        for r in 0..sz {
            let mut s = base.clone();
            s.push(derive_seed(seed, (e * 10_000 + r) as u64) % 7 + (e as u64) * 1000 + 500);
            s.push(derive_seed(seed, (e * 10_000 + r + 5000) as u64) % 7 + (e as u64) * 1000 + 600);
            records.push(Record::single(FieldValue::Shingles(ShingleSet::new(s))));
            gt.push(e as u32);
        }
    }
    Dataset::new(schema, records, gt)
}

fn config(threads: usize) -> AdaLshConfig {
    let mut cfg = AdaLshConfig::new(MatchRule::threshold(0, FieldDistance::Jaccard, 0.4));
    cfg.threads = threads;
    cfg
}

fn run(dataset: &Dataset, k: usize, cfg: AdaLshConfig) -> FilterOutput {
    let mut ada = AdaLsh::for_dataset(dataset, cfg).unwrap();
    ada.run(dataset, k)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "adalsh-trace-{tag}-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn subscribers_and_threads_do_not_change_results() {
    let d = planted(&[24, 15, 9, 4, 2, 1, 1], 19);
    let reference = run(&d, 3, config(1));
    assert_eq!(reference.clusters.len(), 3);

    for threads in [1usize, 4] {
        // Disabled sink.
        let out = run(&d, 3, config(threads));
        assert_eq!(out.clusters, reference.clusters, "disabled t={threads}");
        assert_eq!(out.stats, reference.stats, "disabled t={threads}");

        // Discarding subscriber: the emission paths run, results don't move.
        let mut cfg = config(threads);
        cfg.trace = TraceSink::new(Arc::new(NoopSubscriber));
        let out = run(&d, 3, cfg);
        assert_eq!(out.clusters, reference.clusters, "noop t={threads}");
        assert_eq!(out.stats, reference.stats, "noop t={threads}");

        // JSONL writer: same results, and the file round-trips + validates.
        let path = temp_path(&format!("diff{threads}"));
        let mut cfg = config(threads);
        cfg.trace = TraceSink::new(Arc::new(JsonlSubscriber::create(&path).unwrap()));
        let out = run(&d, 3, cfg);
        assert_eq!(out.clusters, reference.clusters, "jsonl t={threads}");
        assert_eq!(out.stats, reference.stats, "jsonl t={threads}");
        let events = jsonl::read_events(&path).unwrap();
        let report = schema::validate(&events).unwrap();
        assert_eq!(report.runs, 1, "jsonl t={threads}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn trace_reconciles_with_stats_exactly() {
    let d = planted(&[20, 12, 6, 3, 1, 1], 37);
    for threads in [1usize, 4] {
        let memory = Arc::new(MemorySubscriber::new());
        let mut cfg = config(threads);
        cfg.trace = TraceSink::new(memory.clone());
        let out = run(&d, 2, cfg);
        let events = memory.events();

        // The schema validator enforces every identity (Σ hash_evals,
        // Σ pairs, event counts vs call counters, the bit-exact
        // modeled_cost fold, …) against the run_end totals; here we pin
        // run_end to the actual Stats so the identities bind to reality.
        let end = events.iter().find(|e| e.name == "run_end").unwrap();
        assert_eq!(end.u64("rounds"), Some(out.stats.rounds), "t={threads}");
        assert_eq!(
            end.u64("hash_evals"),
            Some(out.stats.hash_evals),
            "t={threads}"
        );
        assert_eq!(
            end.u64("distance_evals"),
            Some(out.stats.distance_evals),
            "t={threads}"
        );
        assert_eq!(
            end.u64("pair_comparisons"),
            Some(out.stats.pair_comparisons),
            "t={threads}"
        );
        assert_eq!(
            end.u64("bucket_inserts"),
            Some(out.stats.bucket_inserts),
            "t={threads}"
        );
        assert_eq!(
            end.u64("transitive_calls"),
            Some(out.stats.transitive_calls),
            "t={threads}"
        );
        assert_eq!(
            end.u64("pairwise_calls"),
            Some(out.stats.pairwise_calls),
            "t={threads}"
        );
        for reused in ["transitive_reused", "pairwise_reused"] {
            assert_eq!(end.u64(reused), Some(0), "a batch run has no memo");
        }
        assert_eq!(
            end.f64("modeled_cost").map(f64::to_bits),
            Some(out.stats.modeled_cost.to_bits()),
            "t={threads}"
        );
        schema::validate(&events).unwrap_or_else(|e| panic!("t={threads}: {e}"));

        // The human summary renders without panicking and mentions the
        // hash levels that actually ran.
        let text = summary::summarize(&events);
        assert!(text.contains("H1"), "summary lists level 1:\n{text}");
    }
}

#[test]
fn design_level_events_cover_every_level() {
    let d = planted(&[10, 5, 2], 7);
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = config(2);
    cfg.trace = TraceSink::new(memory.clone());
    let ada = AdaLsh::for_dataset(&d, cfg).unwrap();
    let designs: Vec<_> = memory
        .events()
        .into_iter()
        .filter(|e| e.name == "design_level")
        .collect();
    assert_eq!(designs.len(), ada.num_levels());
    for (i, ev) in designs.iter().enumerate() {
        assert_eq!(ev.u64("level"), Some(i as u64 + 1));
        assert!(ev.u64("budget").unwrap() > 0);
    }
}

/// The engine reports each level whose hyperplane normals it builds
/// with one `level_built` event, after the round that reached it; a
/// second run on the same engine builds and reports nothing, and a
/// shingle rule has no normals to report.
#[test]
fn dense_level_builds_are_traced_once_per_level() {
    let records: Vec<Record> = (0..300u64)
        .map(|i| {
            let v: Vec<f64> = (0..8u64)
                .map(|d| {
                    let center = (derive_seed(i % 12, d) % 1000) as f64 / 500.0 - 1.0;
                    center + (derive_seed(i, d + 8) % 1000) as f64 / 1e5
                })
                .collect();
            Record::single(FieldValue::Dense(DenseVector::new(v)))
        })
        .collect();
    let gt = (0..300).map(|i| i % 12).collect();
    let d = Dataset::new(Schema::single("v", FieldKind::Dense), records, gt);
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = AdaLshConfig::new(MatchRule::threshold(0, FieldDistance::Angular, 0.05));
    cfg.trace = TraceSink::new(memory.clone());
    let mut ada = AdaLsh::for_dataset(&d, cfg).unwrap();
    let first = ada.run(&d, 3);
    let events = memory.events();
    schema::validate(&events).unwrap();
    let reached = events
        .iter()
        .filter(|e| e.name == "hash_round")
        .filter_map(|e| e.u64("level"))
        .max()
        .unwrap();
    let built: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "level_built")
        .map(|e| {
            assert!(e.u64("functions").unwrap() > 0 && e.u64("bytes").unwrap() > 0);
            e.u64("level").unwrap()
        })
        .collect();
    assert_eq!(built, (1..=reached).collect::<Vec<_>>());
    assert!(
        reached < ada.num_levels() as u64,
        "precondition: some designed level stays unbuilt"
    );
    assert!(summary::summarize(&events).contains(&format!("normals: levels 1–{reached} built")));

    let again = ada.run(&d, 3);
    assert_eq!((again.clusters, again.stats), (first.clusters, first.stats));
    let events = memory.events();
    schema::validate(&events).unwrap();
    assert_eq!(
        events.iter().filter(|e| e.name == "level_built").count(),
        built.len()
    );

    let shingles = Arc::new(MemorySubscriber::new());
    let mut cfg = config(1);
    cfg.trace = TraceSink::new(shingles.clone());
    run(&planted(&[10, 5, 2], 7), 2, cfg);
    assert!(shingles.events().iter().all(|e| e.name != "level_built"));
}

#[test]
fn online_query_events_track_freshness() {
    let d = planted(&[8, 6, 4], 11);
    let n = d.len() as u64;
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = config(2);
    cfg.trace = TraceSink::new(memory.clone());
    let mut online = OnlineAdaLsh::new(&d, cfg).unwrap();

    let first = online.query(2);
    let second = online.query(2);
    assert_eq!(second.stats.hash_evals, 0, "re-query reuses all hashes");

    let events = memory.events();
    schema::validate(&events).unwrap();
    let queries: Vec<_> = events.iter().filter(|e| e.name == "online_query").collect();
    assert_eq!(queries.len(), 2);
    assert_eq!(queries[0].u64("fresh_records"), Some(n));
    assert_eq!(queries[0].u64("hash_evals"), Some(first.stats.hash_evals));
    assert_eq!(queries[1].u64("fresh_records"), Some(0));
    assert_eq!(queries[1].u64("advanced_records"), Some(0));
    assert_eq!(queries[1].u64("hash_evals"), Some(0));
}

/// An online resolver's `P` memo shows in its trace: a repeated query
/// takes every partition whole from the memo (0 pairs), a query after new
/// arrivals seeds the grown cluster with its old part, and every segment
/// reconciles, including `#pairwise{reused>0} = pairwise_reused`.
#[test]
fn online_memo_reuse_is_traced_and_reconciles() {
    let d = planted(&[8, 6, 4], 11);
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = config(2);
    cfg.trace = TraceSink::new(memory.clone());
    let mut online = OnlineAdaLsh::new(&d, cfg).unwrap();
    online.query(2);
    let repeat = online.query(2);
    online.push(d.records()[0].clone()).unwrap();
    let grown = online.query(2);

    let events = memory.events();
    schema::validate(&events).unwrap();
    let mut segments: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new()];
    for e in &events {
        match e.name.as_str() {
            "pairwise" => segments.last_mut().unwrap().push((
                e.u64("cluster_size").unwrap(),
                e.u64("reused").unwrap(),
                e.u64("pairs").unwrap(),
            )),
            "run_end" => segments.push(Vec::new()),
            _ => {}
        }
    }
    assert!(segments[0].iter().all(|&(_, reused, _)| reused == 0));
    assert!(!segments[1].is_empty(), "precondition: P ran");
    assert!(segments[1]
        .iter()
        .all(|&(size, reused, pairs)| reused == size && pairs == 0));
    assert_eq!(repeat.stats.pair_comparisons, 0);
    assert_eq!(repeat.stats.pairwise_reused, repeat.stats.pairwise_calls);
    // The duplicate of record 0 joins its entity's cluster, whose old
    // members seed it.
    assert!(
        segments[2]
            .iter()
            .any(|&(size, reused, _)| 0 < reused && reused < size),
        "{:?}",
        segments[2]
    );
    assert!(grown.stats.pairwise_reused > 0);
    let text = summary::summarize(&events);
    assert!(text.contains("P memo:"), "{text}");
}

/// The memo seeds every `H_t` too, `H₁` included: with the jump gate off
/// every cluster walks the whole sequence, a repeated query takes every
/// call whole from the memo (no key inserted), and a query after a new
/// arrival seeds a grown cluster with the part it resolved before.
#[test]
fn online_hash_memo_reuse_is_traced_and_reconciles() {
    let d = planted(&[8, 6, 4], 13);
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = config(1);
    cfg.disable_jump_gate = true;
    cfg.trace = TraceSink::new(memory.clone());
    let mut online = OnlineAdaLsh::new(&d, cfg).unwrap();
    online.query(2);
    let repeat = online.query(2);
    online.push(d.records()[0].clone()).unwrap();
    online.query(2);

    let events = memory.events();
    schema::validate(&events).unwrap();
    // (level, cluster_size, reused, keys_emitted) per segment.
    let mut segments: Vec<Vec<(u64, u64, u64, u64)>> = vec![Vec::new()];
    for e in &events {
        match e.name.as_str() {
            "hash_round" => segments.last_mut().unwrap().push((
                e.u64("level").unwrap(),
                e.u64("cluster_size").unwrap(),
                e.u64("reused").unwrap(),
                e.u64("keys_emitted").unwrap(),
            )),
            "run_end" => segments.push(Vec::new()),
            _ => {}
        }
    }
    assert!(segments[0].iter().all(|&(_, _, reused, _)| reused == 0));
    let deeper = |segment: &[(u64, u64, u64, u64)]| {
        segment
            .iter()
            .filter(|&&(level, ..)| level > 1)
            .copied()
            .collect::<Vec<_>>()
    };
    assert!(!deeper(&segments[1]).is_empty(), "precondition: H2 ran");
    assert!(segments[1]
        .iter()
        .all(|&(_, size, reused, keys)| reused == size && keys == 0));
    assert_eq!(
        repeat.stats.transitive_reused,
        repeat.stats.transitive_calls
    );
    assert_eq!(repeat.stats.bucket_inserts, 0);
    assert!(
        deeper(&segments[2])
            .iter()
            .any(|&(_, size, reused, keys)| 0 < reused && reused < size && keys > 0),
        "{:?}",
        segments[2]
    );
    let text = summary::summarize(&events);
    assert!(text.contains("H memo:"), "{text}");
}

/// Renders an event stream one event a line, `name field=value …` in
/// emission order, leaving out the wall-clock fields (`wall_micros`,
/// `build_micros`). An `f64` prints in its shortest round-trip form, so
/// equal text means bit-equal values.
fn render_stream(events: &[adalsh_obs::trace::OwnedEvent]) -> String {
    use adalsh_obs::trace::OwnedValue;
    let mut out = String::new();
    for event in events {
        out.push_str(&event.name);
        for (name, value) in &event.fields {
            if name == "wall_micros" || name == "build_micros" {
                continue;
            }
            match value {
                OwnedValue::U64(v) => out.push_str(&format!(" {name}={v}")),
                OwnedValue::F64(v) => out.push_str(&format!(" {name}={v:?}")),
                OwnedValue::Str(v) => out.push_str(&format!(" {name}={v}")),
            }
        }
        out.push('\n');
    }
    out
}

/// The engine's event streams of three fixed runs: an exact-oracle run on
/// dense vectors (gates both ways, `P`, level builds), a noisy-oracle run
/// whose budget forces degraded calls, and an online resolver's second
/// pass after an arrival, which takes part of both an `H_t` and a `P`
/// partition from its memo. Every event and field but the wall clocks is
/// pinned, so a dropped, added or reordered event fails.
#[test]
fn engine_event_streams_are_pinned() {
    let mut text = String::new();

    // Exact oracle, dense rule.
    let records: Vec<Record> = (0..120u64)
        .map(|i| {
            let v: Vec<f64> = (0..8u64)
                .map(|d| {
                    let center = (derive_seed(i % 6, d) % 1000) as f64 / 500.0 - 1.0;
                    center + (derive_seed(i, d + 8) % 1000) as f64 / 1e5
                })
                .collect();
            Record::single(FieldValue::Dense(DenseVector::new(v)))
        })
        .collect();
    let gt = (0..120).map(|i| i % 6).collect();
    let dense = Dataset::new(Schema::single("v", FieldKind::Dense), records, gt);
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = AdaLshConfig::new(MatchRule::threshold(0, FieldDistance::Angular, 0.05));
    cfg.threads = 2;
    cfg.trace = TraceSink::new(memory.clone());
    let exact = run(&dense, 3, cfg);
    assert!(exact.stats.pairwise_calls > 0, "precondition: P ran");
    let events = memory.events();
    schema::validate(&events).unwrap();
    text.push_str("# exact\n");
    text.push_str(&render_stream(&events));

    // Noisy oracle, degraded by its budget.
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = config(2);
    cfg.oracle = adalsh_core::OracleMode::Noisy(adalsh_core::NoisyOracleConfig {
        false_match_rate: 0.05,
        false_non_match_rate: 0.05,
        fault_rate: 0.2,
        seed: 7,
        budget: Some(20),
        ..adalsh_core::NoisyOracleConfig::default()
    });
    cfg.trace = TraceSink::new(memory.clone());
    let noisy = run(&planted(&[14, 9, 6, 3, 1, 1], 29), 3, cfg);
    let spend = noisy.oracle.expect("noisy run reports spend");
    assert!(
        spend.degraded > 0,
        "precondition: the budget degraded calls"
    );
    let events = memory.events();
    schema::validate(&events).unwrap();
    text.push_str("# noisy\n");
    text.push_str(&render_stream(&events));

    // Online: the second pass after one arrival.
    let memory = Arc::new(MemorySubscriber::new());
    let mut cfg = AdaLshConfig::new(MatchRule::threshold(0, FieldDistance::Angular, 0.05));
    cfg.threads = 2;
    cfg.trace = TraceSink::new(memory.clone());
    let mut online = OnlineAdaLsh::new(&dense, cfg).unwrap();
    online.query(2);
    let first = memory.events().len();
    online.push(dense.records()[0].clone()).unwrap();
    let second = online.query(2);
    assert!(second.stats.transitive_calls > 1, "precondition: H2 ran");
    assert_eq!(
        second.stats.transitive_reused, second.stats.transitive_calls,
        "precondition: every H_t call reused its part"
    );
    assert!(second.stats.pairwise_reused > 0, "precondition: P reused");
    let events = memory.events();
    schema::validate(&events).unwrap();
    text.push_str("# online second pass\n");
    text.push_str(&render_stream(&events[first..]));

    let golden = include_str!("engine_events.golden");
    if text != golden {
        let (line, (got, want)) = text
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(golden.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .expect("the streams differ in some line");
        panic!(
            "engine event stream differs from engine_events.golden at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
}
