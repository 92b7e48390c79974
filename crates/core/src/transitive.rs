//! Transitive hashing functions (paper Definition 1, Appendix B.2).
//!
//! Applying sequence function `Hᵢ` to a cluster `S` hashes every record
//! of `S` into `Hᵢ`'s tables and outputs one cluster per connected
//! component of the "shared a bucket" graph. Tables are **fresh per
//! invocation** (Appendix B.2) so clusters from different invocations can
//! never merge. Components are maintained with the parent-pointer
//! [`Forest`] using the four insertion cases of Figure 19:
//!
//! 1. bucket empty, record not yet in a tree → new singleton tree;
//! 2. bucket empty, record already in a tree → just record the occupant;
//! 3. bucket occupied, record not in a tree → attach the record as a new
//!    leaf of the occupant's tree;
//! 4. bucket occupied, record in a tree → merge the two trees under a new
//!    root (no-op if they are already the same tree).
//!
//! Bucket lookup starts from the record *last added* to the bucket — its
//! root path is the shortest (Appendix B.2) — which the map realizes by
//! always storing the most recent record per bucket.
//!
//! # Seeded runs
//!
//! A `seed` gives the `H_t` components of the cluster's first
//! `seed.len()` records (a part `S` an earlier call already partitioned),
//! one label per record. Every record's state is advanced as usual, so
//! `hash_evals` does not depend on the seed. Only the other records' keys
//! are inserted, into a fresh table over a forest that starts with `S`'s
//! components joined; then each record of `S` *probes* the table with its
//! keys, without inserting, and joins the tree of any bucket it finds.
//! The components are those of the whole cluster: two records of `S`
//! share a bucket only inside one of `S`'s components, so every edge
//! still to find touches a record outside `S`, and a record that shares
//! buckets with two components of `S` joins them. An empty seed is the
//! unseeded loop, insert for insert; a seed covering the cluster inserts
//! nothing and returns its components.
//!
//! Bucket ids are `combine(table_tag, key)` — a SplitMix64 output, already
//! uniform in every bit — so the bucket map uses them as their own hash
//! (`PassThroughHasher`) instead of running SipHash over them again.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use adalsh_data::{RecordStore, RecordView};
use adalsh_lsh::mix::combine;

use crate::hashing::{HashScratch, RecordHashState, SequenceHasher};
use crate::ppt::Forest;
use crate::stats::Stats;

/// Minimum estimated new hash evaluations before phase 1 fans out to
/// worker threads. Below this, thread spawn/join overhead (~tens of µs)
/// rivals the hashing itself; the estimate sums each record's
/// *remaining* budget `budget(H_to) − budget(H_reached)`, which is exact:
/// every remaining slot is evaluated.
const MIN_PARALLEL_EVALS: u64 = 1 << 15;

/// A `Hasher` that returns its one `u64` input unchanged, for maps keyed
/// by values that are already well-mixed hashes (the bucket ids here).
/// The map's bucket index and control bits then come straight from the
/// SplitMix64 output, which is uniform in every bit.
#[derive(Debug, Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("bucket maps are keyed by u64 only");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Bucket id → last-added record slot, hashed by [`PassThroughHasher`].
type BucketMap = HashMap<u64, u32, BuildHasherDefault<PassThroughHasher>>;

/// Applies sequence function `H_to_level` to `cluster` (record ids),
/// advancing each record's incremental hash state as needed, and returns
/// the output clusters (record-id lists). Records already at or past
/// `to_level` contribute their persisted keys without any hashing — the
/// normal case when a query re-runs over states advanced by an earlier
/// query (Property 4 across runs).
///
/// Records are hashed on up to `threads` worker threads. Hash evaluation
/// is embarrassingly parallel (each record's state is independent and
/// the hasher is immutable after construction); bucket insertion and
/// cluster maintenance stay sequential — they are a small fraction of
/// the work for any non-trivial scheme. Clusters whose estimated hashing
/// work falls under `MIN_PARALLEL_EVALS` are processed sequentially
/// regardless of `threads`. Output and statistics are identical at any
/// thread count.
///
/// The estimate and the chunking are both **remaining-work aware**:
/// records already at or past `to_level` cost nothing, partially
/// advanced records cost the budget delta. Workers receive contiguous
/// chunks of approximately equal estimated work rather than equal record
/// counts, so a cluster mixing fresh and already-hashed records (the
/// normal incremental-query shape) does not strand all the real work on
/// one thread.
///
/// `seed` labels the `H_to_level` components of the cluster's first
/// `seed.len()` records (see the module docs; `&[]` for none).
///
/// # Panics
/// Panics if `to_level` is out of range for the hasher, `seed` is longer
/// than `cluster`, or a seed label is not below `seed.len()`.
#[allow(clippy::too_many_arguments)]
pub fn apply_transitive(
    hasher: &SequenceHasher,
    states: &mut [RecordHashState],
    store: &dyn RecordStore,
    cluster: &[u32],
    to_level: usize,
    threads: usize,
    seed: &[u32],
    stats: &mut Stats,
) -> Vec<Vec<u32>> {
    stats.transitive_calls += 1;

    // Phase 1: advance every record's hash state to `to_level`.
    let threads = threads.max(1).min(cluster.len().max(1));
    let target_budget = hasher.level(to_level).budget();
    let remaining = |state: &RecordHashState| -> u64 {
        let reached = usize::from(state.level);
        if reached >= to_level {
            return 0;
        }
        let done = if reached == 0 {
            0
        } else {
            hasher.level(reached).budget()
        };
        target_budget.saturating_sub(done)
    };
    let costs: Vec<u64> = cluster
        .iter()
        .map(|&rid| remaining(&states[rid as usize]))
        .collect();
    let est_evals: u64 = costs.iter().sum();
    if threads == 1 || est_evals < MIN_PARALLEL_EVALS {
        let mut scratch = HashScratch::default();
        for &rid in cluster {
            hasher.advance_with_scratch(
                &RecordView::new(store, rid),
                &mut states[rid as usize],
                to_level,
                stats,
                &mut scratch,
            );
        }
    } else {
        // Pull the touched states out so each worker owns a disjoint
        // chunk; put them back afterwards.
        let mut owned: Vec<(u32, RecordHashState)> = cluster
            .iter()
            .map(|&rid| (rid, std::mem::take(&mut states[rid as usize])))
            .collect();
        // Cut `owned` into at most `threads` contiguous chunks carrying a
        // fair share of the remaining estimated work each: chunk `t` takes
        // records until it reaches `left / chunks_left` estimated evals
        // (recomputed per cut, so an oversized early chunk shrinks the
        // targets of later ones instead of starving the last thread).
        let per_thread: Vec<Stats> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            let mut rest: &mut [(u32, RecordHashState)] = &mut owned;
            let mut cost_rest: &[u64] = &costs;
            let mut left = est_evals;
            for t in 0..threads {
                if rest.is_empty() {
                    break;
                }
                let chunks_left = (threads - t) as u64;
                let cut = if chunks_left == 1 {
                    rest.len()
                } else {
                    let target = left.div_ceil(chunks_left);
                    let mut acc = 0u64;
                    let mut cut = 0usize;
                    while cut < rest.len() && (cut == 0 || acc < target) {
                        acc += cost_rest[cut];
                        cut += 1;
                    }
                    left -= acc;
                    cut
                };
                let (chunk, tail) = rest.split_at_mut(cut);
                rest = tail;
                cost_rest = &cost_rest[cut..];
                handles.push(scope.spawn(move || {
                    let mut local = Stats::default();
                    let mut scratch = HashScratch::default();
                    for (rid, state) in chunk {
                        hasher.advance_with_scratch(
                            &RecordView::new(store, *rid),
                            state,
                            to_level,
                            &mut local,
                            &mut scratch,
                        );
                    }
                    local
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("hash worker panicked"))
                .collect()
        });
        for s in &per_thread {
            stats.merge(s);
        }
        for (rid, state) in owned {
            states[rid as usize] = state;
        }
    }

    // Phase 2: bucket insertion and component maintenance (sequential),
    // for the records outside the seed.
    let s = seed.len();
    assert!(
        s <= cluster.len(),
        "seed covers {s} slots of a {}-record cluster",
        cluster.len()
    );
    let mut forest = Forest::seeded(cluster.len(), seed);
    // Fresh tables for this invocation: bucket → last-added record slot.
    let mut buckets =
        BucketMap::with_capacity_and_hasher((cluster.len() - s) * 2, BuildHasherDefault::default());

    for (slot, &rid) in (0u32..).zip(cluster).skip(s) {
        let state = &states[rid as usize];
        for (table_tag, key) in hasher.keys(state, to_level) {
            let bucket = combine(table_tag, key);
            stats.bucket_inserts += 1;
            match buckets.entry(bucket) {
                Entry::Vacant(v) => {
                    // Cases 1 and 2.
                    if forest.leaf_of(slot).is_none() {
                        forest.add_singleton(slot);
                    }
                    v.insert(slot);
                }
                Entry::Occupied(mut o) => {
                    let occupant = *o.get();
                    if occupant != slot {
                        let r2 = forest
                            .find_root_of_slot(occupant)
                            .expect("bucket occupants are always in a tree");
                        match forest.leaf_of(slot) {
                            // Case 3.
                            None => {
                                forest.attach_leaf(r2, slot);
                            }
                            // Case 4.
                            Some(leaf) => {
                                let r1 = forest.find_root(leaf);
                                if r1 != r2 {
                                    forest.merge_roots(r1, r2);
                                }
                            }
                        }
                        o.insert(slot);
                    }
                }
            }
        }
    }

    // Probe: every bucket a seeded record shares with a record outside
    // the seed joins their trees (case 4 without the insert).
    if !buckets.is_empty() {
        for (slot, &rid) in (0u32..).zip(&cluster[..s]) {
            for (table_tag, key) in hasher.keys(&states[rid as usize], to_level) {
                if let Some(&occupant) = buckets.get(&combine(table_tag, key)) {
                    let r1 = forest.find_root_of_slot(slot).expect("seeded");
                    let r2 = forest.find_root_of_slot(occupant).expect("inserted");
                    if r1 != r2 {
                        forest.merge_roots(r1, r2);
                    }
                }
            }
        }
    }

    forest
        .clusters()
        .into_iter()
        .map(|slots| slots.into_iter().map(|s| cluster[s as usize]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{HashPart, LevelScheme};
    use adalsh_data::{Dataset, FieldKind, FieldValue, Record, Schema, ShingleSet};

    /// Builds a dataset of shingle records from the raw sets.
    fn dataset(sets: &[&[u64]]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records = sets
            .iter()
            .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec()))))
            .collect();
        let gt = (0..sets.len() as u32).collect();
        Dataset::new(schema, records, gt)
    }

    fn hasher(levels: Vec<LevelScheme>) -> SequenceHasher {
        SequenceHasher::new(vec![HashPart::shingles(0, 77)], levels)
    }

    fn sorted(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        clusters.iter_mut().for_each(|c| c.sort_unstable());
        clusters.sort();
        clusters
    }

    #[test]
    fn identical_records_cluster_together() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, &[], &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1], vec![2]]);
        assert_eq!(st.transitive_calls, 1);
        assert!(st.hash_evals > 0 && st.bucket_inserts > 0);
    }

    #[test]
    fn all_disjoint_records_stay_singletons() {
        let sets: Vec<Vec<u64>> = (0..5)
            .map(|i| ((i * 100)..(i * 100 + 20)).collect())
            .collect();
        let refs: Vec<&[u64]> = sets.iter().map(|v| v.as_slice()).collect();
        let d = dataset(&refs);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![4], z: 10 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0, 1, 2, 3, 4], 1, 1, &[], &mut st);
        assert_eq!(out.len(), 5, "disjoint sets must not merge");
    }

    #[test]
    fn transitivity_chains_clusters() {
        // a ~ b (2/3 overlap), b ~ c (2/3 overlap), a ∩ c smaller: with a
        // permissive scheme all three should land in one cluster via b.
        let d = dataset(&[&[1, 2, 3], &[2, 3, 4], &[3, 4, 5]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![1], z: 30 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, &[], &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn later_levels_split_coarse_clusters() {
        // Moderate overlap (1/3): a w=1,z=20 scheme merges them; a much
        // stricter w=16,z=4 scheme should split them apart.
        let d = dataset(&[&[1, 2, 3, 4], &[3, 4, 50, 60], &[1, 2, 3, 4]]);
        let levels = vec![
            LevelScheme::Shared { ws: vec![1], z: 20 },
            LevelScheme::Shared {
                ws: vec![16],
                z: 20,
            },
        ];
        let h = hasher(levels);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let coarse = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, &[], &mut st);
        assert_eq!(sorted(coarse.clone()), vec![vec![0, 1, 2]]);
        // Apply the next level to the merged cluster.
        let merged = &coarse[0];
        let fine = apply_transitive(&h, &mut states, &d, merged, 2, 1, &[], &mut st);
        let fine = sorted(fine);
        assert!(
            fine.contains(&vec![0, 2]),
            "identical pair must stay together: {fine:?}"
        );
        assert_eq!(fine.len(), 2, "moderate-overlap record must split off");
    }

    #[test]
    fn invocations_use_fresh_tables() {
        // The same records processed in two separate invocations must not
        // see each other's buckets: process {0} then {1} — identical
        // records, but separate invocations, so two singleton outputs.
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 4 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let a = apply_transitive(&h, &mut states, &d, &[0], 1, 1, &[], &mut st);
        let b = apply_transitive(&h, &mut states, &d, &[1], 1, 1, &[], &mut st);
        assert_eq!(a, vec![vec![0]]);
        assert_eq!(b, vec![vec![1]]);
    }

    #[test]
    fn output_partitions_input() {
        let sets: Vec<Vec<u64>> = (0..20)
            .map(|i| vec![i / 3 * 10, i / 3 * 10 + 1, i])
            .collect();
        let refs: Vec<&[u64]> = sets.iter().map(|v| v.as_slice()).collect();
        let d = dataset(&refs);
        let ids: Vec<u32> = (0..20).collect();
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 6 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &ids, 1, 1, &[], &mut st);
        let mut all: Vec<u32> = out.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, ids, "output must partition the input exactly");
    }

    #[test]
    fn threaded_output_and_stats_identical_across_thread_counts() {
        // Large enough to clear MIN_PARALLEL_EVALS (budget 180/record ×
        // 300 records ≈ 54k evals), with half the records pre-advanced to
        // level 1 so the work-balanced chunking sees mixed per-record
        // costs. Output clusters and Stats must be identical at every
        // thread count.
        let sets: Vec<Vec<u64>> = (0..300)
            .map(|i| {
                let e = i / 10 * 1000;
                (0..40).map(|j| e + j + (i % 10) / 5).collect()
            })
            .collect();
        let refs: Vec<&[u64]> = sets.iter().map(|v| v.as_slice()).collect();
        let d = dataset(&refs);
        let ids: Vec<u32> = (0..300).collect();
        let levels = vec![
            LevelScheme::Shared { ws: vec![2], z: 30 },
            LevelScheme::Shared { ws: vec![3], z: 60 },
        ];
        let run = |threads: usize| {
            let h = hasher(levels.clone());
            let mut states = vec![RecordHashState::default(); d.len()];
            let mut st = Stats::default();
            // Pre-advance the even records to level 1 sequentially, so the
            // threaded call finds records at different levels.
            let evens: Vec<u32> = ids.iter().copied().filter(|i| i % 2 == 0).collect();
            apply_transitive(&h, &mut states, &d, &evens, 1, 1, &[], &mut st);
            let out = apply_transitive(&h, &mut states, &d, &ids, 2, threads, &[], &mut st);
            (sorted(out), st, states)
        };
        let (out1, st1, states1) = run(1);
        for threads in [2, 3, 5, 8] {
            let (out, st, states) = run(threads);
            assert_eq!(out, out1, "clusters diverged at {threads} threads");
            assert_eq!(st, st1, "stats diverged at {threads} threads");
            assert_eq!(states, states1, "states diverged at {threads} threads");
        }
    }

    /// Labels `parts`' records by part, laid out part after part.
    fn seed_of(parts: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let records = parts.concat();
        let labels = (0u32..)
            .zip(parts)
            .flat_map(|(label, part)| std::iter::repeat_n(label, part.len()))
            .collect();
        (records, labels)
    }

    #[test]
    fn a_new_record_bridges_two_seed_components() {
        // 0 and 1 share no shingle, so no bucket; 2 holds both sets.
        let d = dataset(&[&[1, 2, 3], &[100, 200, 300], &[1, 2, 3, 100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![1], z: 16 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let old = apply_transitive(&h, &mut states, &d, &[0, 1], 1, 1, &[], &mut st);
        assert_eq!(sorted(old.clone()), vec![vec![0], vec![1]]);
        let (mut cluster, seed) = seed_of(&sorted(old));
        cluster.push(2);
        let mut cold_states = states.clone();
        let mut cold = Stats::default();
        apply_transitive(&h, &mut cold_states, &d, &cluster, 1, 1, &[], &mut cold);
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &cluster, 1, 1, &seed, &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1, 2]]);
        // Only the new record's keys were inserted; hashing is unchanged.
        assert_eq!(st.bucket_inserts, h.keys(&states[2], 1).count() as u64);
        assert_eq!(st.hash_evals, cold.hash_evals);
    }

    #[test]
    fn a_whole_set_seed_inserts_nothing() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        let cold = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, &[], &mut st);
        let (cluster, seed) = seed_of(&sorted(cold.clone()));
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &cluster, 1, 1, &seed, &mut st);
        assert_eq!(sorted(out), sorted(cold));
        assert_eq!((st.bucket_inserts, st.transitive_calls), (0, 1));
    }

    #[test]
    fn an_empty_seed_inserts_every_key() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 4], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, &[], &mut st);
        let keys: usize = states.iter().map(|s| h.keys(s, 1).count()).sum();
        assert_eq!(st.bucket_inserts, keys as u64);
    }

    #[test]
    fn single_record_cluster() {
        let d = dataset(&[&[1, 2]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 3 }]);
        let mut states = vec![RecordHashState::default(); 1];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0], 1, 1, &[], &mut st);
        assert_eq!(out, vec![vec![0]]);
    }
}
