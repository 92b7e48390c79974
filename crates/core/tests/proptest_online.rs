//! Property-based tests for the online mode: any interleaving of pushes
//! and queries must agree with batch resolution on the same snapshot, and
//! the resolver's partition memo must change nothing but how many bucket
//! inserts and pairs a query performs.

use adalsh_core::algorithm::{AdaLshConfig, FilterMethod, SelectionStrategy};
use adalsh_core::baselines::Pairs;
use adalsh_core::online::OnlineAdaLsh;
use adalsh_core::FilterOutput;
use adalsh_data::{
    Dataset, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema, ShingleSet,
};
use proptest::prelude::*;

fn record(entity: u64, noise: u64) -> Record {
    let mut s: Vec<u64> = (0..15).map(|i| entity * 1000 + i).collect();
    s.push(entity * 1000 + 500 + noise % 4);
    Record::single(FieldValue::Shingles(ShingleSet::new(s)))
}

/// Entity cores overlap their neighbours' in 9 of 15 shingles, so
/// neighbouring entities often hash together but never match (distance
/// 1 − 9/23 against the 0.4 threshold): `P` splits the clusters it gets.
fn overlapping(entity: u64, noise: u64) -> Record {
    let mut s: Vec<u64> = (0..15).map(|i| entity * 6 + i).collect();
    s.push(1000 + entity * 10 + noise % 4);
    Record::single(FieldValue::Shingles(ShingleSet::new(s)))
}

/// A record between entities `entity` and `entity + 1`: 13 shingles of
/// each core and within the threshold of both (distance 1 − 13/20), so it
/// joins two components that never match each other.
fn bridge(entity: u64) -> Record {
    let s: Vec<u64> = (2..19).map(|i| entity * 6 + i).collect();
    Record::single(FieldValue::Shingles(ShingleSet::new(s)))
}

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
}

fn config(threads: usize, deep: bool, selection: SelectionStrategy) -> AdaLshConfig {
    let mut config = AdaLshConfig::new(rule());
    config.threads = threads;
    config.selection = selection;
    // Without the jump gate every cluster walks the whole sequence, so
    // `P` sees the last level's clusters instead of level 1's.
    config.disable_jump_gate = deep;
    config
}

fn bootstrap() -> Dataset {
    let schema = Schema::single("s", FieldKind::Shingles);
    let records: Vec<Record> = (0..12).map(|i| record(i % 3, i)).collect();
    let gt = (0..12).map(|i| (i % 3) as u32).collect();
    Dataset::new(schema, records, gt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Push an arbitrary stream (entity ids 0..5) with interleaved
    /// queries; every query must equal Pairs on the snapshot.
    #[test]
    fn online_queries_match_batch(
        stream in prop::collection::vec((0u64..5, any::<u64>(), prop::bool::ANY), 1..40),
    ) {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        let mut all_records: Vec<Record> = boot.records().to_vec();
        for (entity, noise, query_now) in stream {
            let r = record(entity, noise);
            online.push(r.clone()).unwrap();
            all_records.push(r);
            if query_now {
                let out = online.query(1);
                let snapshot = Dataset::new(
                    boot.schema().clone(),
                    all_records.clone(),
                    vec![0; all_records.len()],
                );
                let gold = Pairs::new(rule()).filter(&snapshot, 1);
                // Sizes must agree (record sets may differ only under
                // exact size ties, which this stream can produce).
                prop_assert_eq!(
                    out.clusters[0].len(),
                    gold.clusters[0].len(),
                    "online vs batch top-1 size"
                );
            }
        }
        // Final full check: top-2 record sets match exactly when untied.
        let snapshot = Dataset::new(
            boot.schema().clone(),
            all_records.clone(),
            vec![0; all_records.len()],
        );
        let gold = Pairs::new(rule()).filter(&snapshot, 2);
        let sizes: Vec<usize> = gold.clusters.iter().map(Vec::len).collect();
        prop_assume!(sizes.len() < 2 || sizes[0] != sizes[1]);
        let out = online.query(2);
        prop_assert_eq!(out.clusters[0].clone(), gold.clusters[0].clone());
    }

    /// Query cost is monotone-amortized: an immediate repeat query does
    /// zero hash evaluations.
    #[test]
    fn repeat_queries_are_free(pushes in 0usize..20) {
        let boot = bootstrap();
        let mut online = OnlineAdaLsh::new(&boot, AdaLshConfig::new(rule())).unwrap();
        for i in 0..pushes {
            online.push(record((i % 4) as u64, i as u64)).unwrap();
        }
        let _ = online.query(2);
        let again = online.query(2);
        prop_assert_eq!(again.stats.hash_evals, 0);
    }

    /// After any push/query interleaving, none included, and arrivals
    /// that bridge two stored components, a warm resolver's query equals
    /// that of a cold one restored from its snapshot (the same hash
    /// states, an empty memo) in clusters, `hash_evals`, `rounds`,
    /// `transitive_calls`, `pairwise_calls` and the modeled-cost bits,
    /// and performs no more bucket inserts or pairs; the warm counts are
    /// the same at 1 and 2 threads. Under
    /// the ablation strategies the pool's order decides which cluster
    /// runs next, so the memo's components must come back in the order a
    /// cold run gives them.
    #[test]
    fn memo_matches_a_cold_resolver(
        stream in prop::collection::vec(
            (0u64..5, any::<u64>(), prop::bool::ANY, prop::bool::ANY),
            0..30,
        ),
        k in 1usize..4,
        deep in prop::bool::ANY,
        strategy in 0usize..3,
    ) {
        let selection = [
            SelectionStrategy::LargestFirst,
            SelectionStrategy::Random,
            SelectionStrategy::Fifo,
        ][strategy];
        let cfg = |threads| config(threads, deep, selection);
        let boot = Dataset::new(
            Schema::single("s", FieldKind::Shingles),
            (0..12).map(|i| overlapping(i % 3, i)).collect(),
            vec![0; 12],
        );
        let mut warm: Vec<OnlineAdaLsh> = [1, 2]
            .map(|threads| OnlineAdaLsh::new(&boot, cfg(threads)).unwrap())
            .into();
        for (entity, noise, bridging, query_now) in stream {
            let record = if bridging {
                bridge(entity)
            } else {
                overlapping(entity, noise)
            };
            for online in &mut warm {
                online.push(record.clone()).unwrap();
            }
            if !query_now {
                continue;
            }
            let mut cold =
                OnlineAdaLsh::from_snapshot(warm[0].snapshot(), cfg(1)).unwrap();
            let cold = cold.query(k);
            let outs: Vec<FilterOutput> = warm.iter_mut().map(|online| online.query(k)).collect();
            for (threads, out) in [1, 2].iter().zip(&outs) {
                let (w, c) = (&out.stats, &cold.stats);
                prop_assert_eq!(&out.clusters, &cold.clusters, "t={}", threads);
                prop_assert_eq!(w.hash_evals, c.hash_evals, "t={}", threads);
                prop_assert_eq!(w.rounds, c.rounds, "t={}", threads);
                prop_assert_eq!(w.transitive_calls, c.transitive_calls, "t={}", threads);
                prop_assert_eq!(w.pairwise_calls, c.pairwise_calls, "t={}", threads);
                prop_assert_eq!(
                    w.modeled_cost.to_bits(),
                    c.modeled_cost.to_bits(),
                    "t={}",
                    threads
                );
                prop_assert!(
                    w.bucket_inserts <= c.bucket_inserts,
                    "warm {} > cold {} inserts at t={}",
                    w.bucket_inserts,
                    c.bucket_inserts,
                    threads
                );
                prop_assert!(
                    w.pair_comparisons <= c.pair_comparisons,
                    "warm {} > cold {} pairs at t={}",
                    w.pair_comparisons,
                    c.pair_comparisons,
                    threads
                );
            }
            let (one, two) = (&outs[0].stats, &outs[1].stats);
            prop_assert_eq!(one.bucket_inserts, two.bucket_inserts);
            prop_assert_eq!(one.pair_comparisons, two.pair_comparisons);
            prop_assert_eq!(one.transitive_reused, two.transitive_reused);
            prop_assert_eq!(one.pairwise_reused, two.pairwise_reused);
            prop_assert_eq!(cold.stats.transitive_reused, 0, "a restored memo starts empty");
            prop_assert_eq!(cold.stats.pairwise_reused, 0, "a restored memo starts empty");
        }
        // A query on an unchanged corpus reuses every partition whole,
        // every `H_t` and every `P`, and inserts no key.
        let again = warm[0].query(k);
        let repeat = warm[0].query(k);
        prop_assert_eq!(repeat.clusters, again.clusters);
        prop_assert_eq!(repeat.stats.pair_comparisons, 0);
        prop_assert_eq!(repeat.stats.pairwise_reused, repeat.stats.pairwise_calls);
        prop_assert_eq!(repeat.stats.transitive_reused, repeat.stats.transitive_calls);
        prop_assert_eq!(repeat.stats.bucket_inserts, 0);
    }
}
