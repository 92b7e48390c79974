//! Property tests of [`apply_transitive`] against a reference: the
//! connected components of "shares a `(table_tag, key)` bucket", built
//! from [`SequenceHasher::keys`] with a `BTreeMap` and a naive
//! disjoint-set union, compared as sorted sets. Random shingle records
//! (over a small universe, so buckets are shared), random Shared and
//! PerPart level ladders, random cluster subsets, and records
//! pre-advanced to mixed levels. A seeded call must equal a cold call on
//! the whole cluster.

use std::collections::BTreeMap;

use adalsh_core::hashing::{HashPart, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::stats::Stats;
use adalsh_core::transitive::{apply_transitive, BucketTable};
use adalsh_data::{Dataset, FieldKind, FieldValue, Record, Schema, ShingleSet};
use adalsh_lsh::scheme::WzScheme;
use proptest::prelude::*;

/// A monotone ladder from per-level `(w, z)` increments over two parts:
/// `Shared` tables concatenating both parts, or one `PerPart` group each.
fn ladder(increments: &[(u32, u32)], per_part: bool) -> Vec<LevelScheme> {
    let (mut w, mut z) = (1u32, 1u32);
    increments
        .iter()
        .map(|&(dw, dz)| {
            w += dw;
            z += dz;
            if per_part {
                LevelScheme::PerPart {
                    parts: vec![WzScheme::new(w, z), WzScheme::new(w + 1, z + 1)],
                }
            } else {
                LevelScheme::Shared {
                    ws: vec![w, 1 + w / 2],
                    z,
                }
            }
        })
        .collect()
}

fn dataset(records: &[(Vec<u64>, Vec<u64>)]) -> Dataset {
    let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
    let labels = (0..records.len() as u32).collect();
    let records = records
        .iter()
        .map(|(a, b)| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(a.clone())),
                FieldValue::Shingles(ShingleSet::new(b.clone())),
            ])
        })
        .collect();
    Dataset::new(schema, records, labels)
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        x = parent[x];
    }
    x
}

/// Components of the cluster's records under "shares a `(table_tag,
/// key)` at `level`", as sorted record-id lists in sorted order. States
/// must already be at or past `level`.
fn reference_components(
    hasher: &SequenceHasher,
    states: &[RecordHashState],
    cluster: &[u32],
    level: usize,
) -> Vec<Vec<u32>> {
    let mut parent: Vec<usize> = (0..cluster.len()).collect();
    let mut first: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for (slot, &rid) in cluster.iter().enumerate() {
        for bucket in hasher.keys(&states[rid as usize], level) {
            let other = *first.entry(bucket).or_insert(slot);
            let (ra, rb) = (find(&mut parent, slot), find(&mut parent, other));
            parent[ra] = rb;
        }
    }
    let mut comps: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for (slot, &rid) in cluster.iter().enumerate() {
        comps.entry(find(&mut parent, slot)).or_default().push(rid);
    }
    sorted(comps.into_values().collect())
}

fn sorted(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    clusters.iter_mut().for_each(|c| c.sort_unstable());
    clusters.sort();
    clusters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transitive_equals_bucket_components(
        records in prop::collection::vec(
            (
                prop::collection::vec(0u64..24, 0..8),
                prop::collection::vec(0u64..12, 0..4),
            ),
            1..40,
        ),
        increments in prop::collection::vec((0u32..3, 0u32..4), 1..5),
        per_part in prop::bool::ANY,
        seed in any::<u64>(),
        member_mask in any::<u64>(),
        pre_levels in prop::collection::vec(0usize..6, 40),
        level_pick in 0usize..8,
    ) {
        let levels = ladder(&increments, per_part);
        let hasher = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::shingles(1, seed ^ 0x5a5a)],
            levels,
        );
        let num_levels = hasher.num_levels();
        let to_level = 1 + level_pick % num_levels;
        let d = dataset(&records);
        let n = records.len() as u32;
        // A random non-empty subset of the records, in id order.
        let mut cluster: Vec<u32> = (0..n).filter(|&i| member_mask >> (i % 64) & 1 == 1).collect();
        if cluster.is_empty() {
            cluster.push(member_mask as u32 % n);
        }

        // Some records were advanced by earlier calls, to levels below,
        // at or beyond `to_level`.
        let mut states = vec![RecordHashState::default(); records.len()];
        let mut st = Stats::default();
        for (rid, &pre) in pre_levels.iter().enumerate().take(records.len()) {
            if pre > 0 {
                let rec = &d.records()[rid];
                hasher.advance(rec, &mut states[rid], pre.min(num_levels), &mut st);
            }
        }

        let mut stats = Stats::default();
        let got = apply_transitive(
            &hasher, &mut states, &d, &cluster, to_level, 1, &[], None, None, &mut stats,
        );
        let want = reference_components(&hasher, &states, &cluster, to_level);
        prop_assert_eq!(sorted(got), want);
        let keys: usize = cluster
            .iter()
            .map(|&rid| hasher.keys(&states[rid as usize], to_level).count())
            .sum();
        prop_assert_eq!(stats.bucket_inserts, keys as u64);
        prop_assert_eq!(stats.transitive_calls, 1);
    }

    /// Split a cluster into a part `S` and the rest, seed `S` with the
    /// components and the bucket table a cold stored-table call on `S`
    /// leaves, and the seeded call on the whole cluster returns the
    /// components, hash evaluations and states of a cold call from the
    /// same states, inserting only the rest's keys and leaving the cold
    /// call's bucket set, at 1 and 2 threads.
    #[test]
    fn seeded_transitive_equals_a_cold_call(
        records in prop::collection::vec(
            (
                prop::collection::vec(0u64..24, 0..8),
                prop::collection::vec(0u64..12, 0..4),
            ),
            1..40,
        ),
        increments in prop::collection::vec((0u32..3, 0u32..4), 1..5),
        per_part in prop::bool::ANY,
        seed in any::<u64>(),
        member_mask in any::<u64>(),
        split_mask in any::<u64>(),
        pre_levels in prop::collection::vec(0usize..6, 40),
        level_pick in 0usize..8,
    ) {
        let levels = ladder(&increments, per_part);
        let hasher = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::shingles(1, seed ^ 0x5a5a)],
            levels,
        );
        let num_levels = hasher.num_levels();
        let to_level = 1 + level_pick % num_levels;
        let d = dataset(&records);
        let n = records.len() as u32;
        let cluster: Vec<u32> = (0..n).filter(|&i| member_mask >> (i % 64) & 1 == 1).collect();
        let (part, rest): (Vec<u32>, Vec<u32>) =
            cluster.iter().partition(|&&i| split_mask >> (i % 64) & 1 == 1);

        for threads in [1, 2] {
            let mut states = vec![RecordHashState::default(); records.len()];
            let mut st = Stats::default();
            for (rid, &pre) in pre_levels.iter().enumerate().take(records.len()) {
                if pre > 0 {
                    let rec = &d.records()[rid];
                    hasher.advance(rec, &mut states[rid], pre.min(num_levels), &mut st);
                }
            }
            // The memo's layout: `S` ascending, one label per record, and
            // the rest after it, ascending.
            let mut table = BucketTable::default();
            let parts = apply_transitive(
                &hasher, &mut states, &d, &part, to_level, threads, &[], Some(&mut table), None, &mut st,
            );
            let labels: Vec<u32> = part
                .iter()
                .map(|r| parts.iter().position(|p| p.contains(r)).unwrap() as u32)
                .collect();
            let laid: Vec<u32> = part.iter().chain(&rest).copied().collect();

            let mut cold_states = states.clone();
            let mut cold = Stats::default();
            let mut cold_table = BucketTable::default();
            let want = apply_transitive(
                &hasher, &mut cold_states, &d, &cluster, to_level, threads, &[],
                Some(&mut cold_table), None, &mut cold,
            );
            let mut warm = Stats::default();
            let got = apply_transitive(
                &hasher, &mut states, &d, &laid, to_level, threads, &labels, Some(&mut table),
                None,
                &mut warm,
            );
            prop_assert_eq!(sorted(got), sorted(want), "threads={}", threads);
            prop_assert_eq!(warm.hash_evals, cold.hash_evals);
            prop_assert_eq!(&states, &cold_states);
            let rest_keys: usize = rest
                .iter()
                .map(|&rid| hasher.keys(&states[rid as usize], to_level).count())
                .sum();
            prop_assert_eq!(warm.bucket_inserts, rest_keys as u64);
            let buckets = |t: &BucketTable| {
                let mut b: Vec<u64> = t.buckets().collect();
                b.sort_unstable();
                b
            };
            prop_assert_eq!(buckets(&table), buckets(&cold_table));
            prop_assert_eq!(warm.transitive_calls, 1);
        }
    }
}
