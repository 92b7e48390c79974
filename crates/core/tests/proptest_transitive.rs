//! Property tests of [`apply_transitive`] against a reference: the
//! connected components of "shares a `(table_tag, key)` bucket", built
//! from [`SequenceHasher::keys`] with a `BTreeMap` and a naive
//! disjoint-set union, compared as sorted sets. Random shingle records
//! (over a small universe, so buckets are shared), random Shared and
//! PerPart level ladders, random cluster subsets, and records
//! pre-advanced to mixed levels. A call seeded with stored components and
//! their bucket table, as the online memo seeds it, must equal a cold
//! call on the whole cluster, including when new records join, bridge or
//! stay apart from the stored components.

use std::collections::BTreeMap;

use adalsh_core::hashing::{HashPart, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::memo::Seed;
use adalsh_core::stats::Stats;
use adalsh_core::transitive::{apply_transitive, BucketTable};
use adalsh_data::{Dataset, FieldKind, FieldValue, Record, Schema, ShingleSet, Sketches};
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
            &hasher, &mut states, &d, &cluster, to_level, 1, None, None, &mut stats,
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

    /// Split a cluster into a part `S` and the rest `N`, seed `S` with
    /// the components and the bucket table a cold memoized call on `S`
    /// leaves, and the seeded call on `N` returns the canonical components,
    /// hash evaluations and states of a cold memoized call on the whole
    /// cluster from the same states, inserting only `N`'s keys and leaving
    /// the cold call's bucket set, at 1 and 2 threads.
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
            let call = Call { hasher: &hasher, d: &d, to_level, threads };
            let mut table = BucketTable::default();
            let parts = call.memoized(&mut states, &[], &part, &mut table, &mut st);

            let mut cold_states = states.clone();
            let mut cold = Stats::default();
            let mut cold_table = BucketTable::default();
            let want = call.memoized(&mut cold_states, &[], &cluster, &mut cold_table, &mut cold);
            prop_assert_eq!(&want, &reference_components(&hasher, &cold_states, &cluster, to_level));
            let mut warm = Stats::default();
            let got = call.memoized(&mut states, &parts, &rest, &mut table, &mut warm);
            prop_assert_eq!(got, want, "threads={}", threads);
            prop_assert_eq!(warm.hash_evals, cold.hash_evals);
            prop_assert_eq!(&states, &cold_states);
            let rest_keys: usize = rest
                .iter()
                .map(|&rid| hasher.keys(&states[rid as usize], to_level).count())
                .sum();
            prop_assert_eq!(warm.bucket_inserts, rest_keys as u64);
            prop_assert_eq!(buckets(&table), buckets(&cold_table));
            prop_assert_eq!(warm.transitive_calls, 1);
        }
    }

    /// Records `S` stored as one memoized call's components, then new
    /// records that copy a record of `S` (joining its component), hold
    /// the union of two (bridging their components when those differ), or
    /// hold tokens no record of `S` holds (staying apart): the call seeded
    /// with `S`'s components and table returns exactly the canonical
    /// components of a cold call on every record.
    #[test]
    fn arrivals_that_join_bridge_or_stay_apart_match_a_cold_call(
        records in prop::collection::vec(
            (
                prop::collection::vec(0u64..24, 1..8),
                prop::collection::vec(0u64..12, 0..4),
            ),
            2..30,
        ),
        arrivals in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..8),
        increments in prop::collection::vec((0u32..3, 0u32..4), 1..5),
        per_part in prop::bool::ANY,
        seed in any::<u64>(),
        level_pick in 0usize..8,
    ) {
        let stored = records.len();
        let mut all = records.clone();
        for (i, &(kind, a, b)) in (0u64..).zip(&arrivals) {
            let (x, y) = (&records[a % stored], &records[b % stored]);
            all.push(match kind {
                0 => x.clone(),
                1 => ([&x.0[..], &y.0[..]].concat(), [&x.1[..], &y.1[..]].concat()),
                _ => (vec![1000 + 2 * i, 1001 + 2 * i], vec![]),
            });
        }
        let levels = ladder(&increments, per_part);
        let hasher = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::shingles(1, seed ^ 0x5a5a)],
            levels,
        );
        let to_level = 1 + level_pick % hasher.num_levels();
        let d = dataset(&all);
        let call = Call { hasher: &hasher, d: &d, to_level, threads: 1 };
        let part: Vec<u32> = (0..stored as u32).collect();
        let new: Vec<u32> = (stored as u32..all.len() as u32).collect();
        let whole: Vec<u32> = (0..all.len() as u32).collect();

        let mut states = vec![RecordHashState::default(); all.len()];
        let mut table = BucketTable::default();
        let mut st = Stats::default();
        let parts = call.memoized(&mut states, &[], &part, &mut table, &mut st);
        let got = call.memoized(&mut states, &parts, &new, &mut table, &mut Stats::default());
        let mut cold_states = vec![RecordHashState::default(); all.len()];
        let want = call.memoized(
            &mut cold_states,
            &[],
            &whole,
            &mut BucketTable::default(),
            &mut Stats::default(),
        );
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got, reference_components(&hasher, &states, &whole, to_level));
    }
}

/// One level's memoized calls on one dataset.
struct Call<'a> {
    hasher: &'a SequenceHasher,
    d: &'a Dataset,
    to_level: usize,
    threads: usize,
}

impl Call<'_> {
    /// A call as the online memo makes it, on `components`' records
    /// (canonical, already at the level) and `rest` (ascending), over
    /// `table`, with the record → slot index the memo builds.
    fn memoized(
        &self,
        states: &mut [RecordHashState],
        components: &[Vec<u32>],
        rest: &[u32],
        table: &mut BucketTable,
        stats: &mut Stats,
    ) -> Vec<Vec<u32>> {
        let mut slots = vec![u32::MAX; self.d.len()];
        for (label, component) in (0u32..).zip(components) {
            for &rid in component {
                slots[rid as usize] = label;
            }
        }
        for (slot, &rid) in (components.len() as u32..).zip(rest) {
            slots[rid as usize] = slot;
        }
        let mut members: Vec<u32> = components.iter().flatten().chain(rest).copied().collect();
        members.sort_unstable();
        let seed = Seed {
            components,
            members: &members,
            slots: &slots,
            table,
            sketches: &mut Sketches::default(),
        };
        apply_transitive(
            self.hasher,
            states,
            self.d,
            rest,
            self.to_level,
            self.threads,
            Some(seed),
            None,
            stats,
        )
    }
}

fn buckets(table: &BucketTable) -> Vec<u64> {
    let mut b: Vec<u64> = table.buckets().collect();
    b.sort_unstable();
    b
}
