//! Transitive hashing functions (paper Definition 1, Appendix B.2).
//!
//! Applying sequence function `Hᵢ` to a cluster `S` hashes every record
//! of `S` into `Hᵢ`'s tables and outputs one cluster per connected
//! component of the "shared a bucket" graph. Tables are **fresh per
//! member set** (Appendix B.2) so clusters from different invocations can
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
//! # Stored tables and seeded runs
//!
//! A call given a [`BucketTable`] keeps its table: bucket → last record
//! *id*, for every key of its members, so an online resolver's memo can
//! hand it to the next call over a superset of those members. A `seed`
//! gives the `H_t` components of the cluster's first `seed.len()` records
//! (a part `S` an earlier call already partitioned), one label per
//! record, and the table must be that call's. Every record's state is
//! advanced as usual, so `hash_evals` does not depend on the seed. The
//! forest starts with `S`'s components joined, and only the other
//! records' keys go through the ordinary insert loop, against the stored
//! table: a bucket a record of `S` occupies joins that record's tree. The
//! keys of `S`'s records are never read. The components are those of the
//! whole cluster: two records of `S` share a bucket only inside one of
//! `S`'s components, and keys persist across calls, so every edge still
//! to find touches a record outside `S`. An empty seed over an empty
//! table is the unseeded loop, insert for insert; a seed covering the
//! cluster inserts nothing and returns its components. The table the
//! call leaves is the one a cold call on the whole cluster builds, up to
//! which record each bucket names. Without a table (batch runs) the call
//! builds a fresh one keyed by slot and drops it.
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

/// Bucket id → last-added record, hashed by [`PassThroughHasher`].
type BucketMap = HashMap<u64, u32, BuildHasherDefault<PassThroughHasher>>;

/// Makes `record` the occupant of `bucket` in `map` and returns the
/// previous occupant, if any. Through `entry`, which probes once and
/// grows the map only on a vacancy: `HashMap::insert` measured ~5% slower
/// over a whole level-3 insert loop.
fn replace_in(map: &mut BucketMap, bucket: u64, record: u32) -> Option<u32> {
    match map.entry(bucket) {
        Entry::Vacant(vacant) => {
            vacant.insert(record);
            None
        }
        Entry::Occupied(mut occupied) => Some(std::mem::replace(occupied.get_mut(), record)),
    }
}

/// The bucket table a memoized `H_t` call keeps: bucket id → the id of
/// the record last inserted there, over every key of the call's members
/// at its level. Record ids, unlike slots, mean the same in every call.
///
/// Most buckets sit in two sorted, aligned arrays, 12 bytes a bucket,
/// with a directory of one run start per four buckets: bucket ids are
/// uniform, so the run a bucket falls in, scaled from its id, holds about
/// four buckets (on `serve-mixed` this cut `answer_ms` by about a third
/// against a binary search over the whole array). The buckets added
/// since the last merge sit in a map beside them, which a seeded call
/// merges in once it holds more than an eighth as many, so memory stays
/// near the arrays' and a merge costs O(1) per bucket amortized. An unseeded call leaves its whole table in
/// the map: only a table some later call takes is ever sorted.
#[derive(Debug, Default)]
pub struct BucketTable {
    /// Sorted bucket ids.
    sorted: Vec<u64>,
    /// The occupant of each bucket of `sorted`.
    records: Vec<u32>,
    /// `starts[j]..starts[j + 1]` holds the buckets of `sorted` in run
    /// `j` of `starts.len() - 1` (see [`run_of`]); empty with `sorted`.
    starts: Vec<u32>,
    /// Buckets added since the last merge.
    recent: BucketMap,
}

/// The run of `runs` that `bucket` falls in: its id scaled to `0..runs`,
/// so a sorted array's runs are consecutive and about equally full.
fn run_of(bucket: u64, runs: usize) -> usize {
    ((u128::from(bucket) * runs as u128) >> 64) as usize
}

impl BucketTable {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.recent.len()
    }

    /// True when no key was inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bucket ids, in no particular order.
    pub fn buckets(&self) -> impl Iterator<Item = u64> + '_ {
        self.sorted.iter().chain(self.recent.keys()).copied()
    }

    /// Makes `record` the occupant of `bucket` and returns the previous
    /// occupant, if any.
    pub(crate) fn replace(&mut self, bucket: u64, record: u32) -> Option<u32> {
        if let Some(runs) = self.starts.len().checked_sub(1) {
            let run = run_of(bucket, runs);
            let lo = self.starts[run] as usize;
            let hi = self.starts[run + 1] as usize;
            if let Ok(at) = self.sorted[lo..hi].binary_search(&bucket) {
                return Some(std::mem::replace(&mut self.records[lo + at], record));
            }
        }
        replace_in(&mut self.recent, bucket, record)
    }

    /// Merges the recent buckets into the sorted arrays once they number
    /// more than an eighth of them.
    fn settle(&mut self) {
        if self.recent.len() * 8 <= self.sorted.len() {
            return;
        }
        let mut recent: Vec<(u64, u32)> = std::mem::take(&mut self.recent).into_iter().collect();
        recent.sort_unstable_by_key(|&(bucket, _)| bucket);
        let len = self.sorted.len() + recent.len();
        let (mut sorted, mut records) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut old = self
            .sorted
            .iter()
            .copied()
            .zip(self.records.iter().copied())
            .peekable();
        for (bucket, record) in recent {
            while let Some((b, r)) = old.next_if(|&(b, _)| b < bucket) {
                sorted.push(b);
                records.push(r);
            }
            sorted.push(bucket);
            records.push(record);
        }
        for (b, r) in old {
            sorted.push(b);
            records.push(r);
        }
        let runs = (len / 4).max(1);
        let mut starts = Vec::with_capacity(runs + 1);
        let mut at = 0;
        for run in 0..=runs {
            while at < len && run_of(sorted[at], runs) < run {
                at += 1;
            }
            starts.push(at as u32);
        }
        self.sorted = sorted;
        self.records = records;
        self.starts = starts;
    }
}

/// The records one engine run raised to a deeper level, each counted
/// once, noted where [`apply_transitive`] advances them: one bit per
/// record id, set at the record's first advance of the run.
#[derive(Debug, Clone, Default)]
pub struct AdvancedRecords {
    seen: Vec<u64>,
    /// Distinct records advanced.
    pub records: u64,
}

impl AdvancedRecords {
    /// An empty tally for record ids below `n`.
    pub fn new(n: usize) -> Self {
        Self {
            seen: vec![0; n.div_ceil(64)],
            ..Self::default()
        }
    }

    /// Notes record `rid`, now at `level`, as it is hashed to `to_level`.
    fn note(&mut self, rid: u32, level: u16, to_level: usize) {
        let (word, bit) = (rid as usize / 64, 1u64 << (rid % 64));
        if usize::from(level) < to_level && self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.records += 1;
        }
    }
}

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
/// `seed.len()` records, and `table` is the stored table of their keys,
/// which the call extends with the rest's (see the module docs). With no
/// table the seed must be empty.
///
/// `advanced`, when given, notes every record whose level this call
/// raises (see [`AdvancedRecords`]).
///
/// # Panics
/// Panics if `to_level` is out of range for the hasher, `seed` is longer
/// than `cluster`, a seed label is not below `seed.len()`, a seed comes
/// without a table or a non-empty table without a seed, or a seeded
/// call's seed records or rest are not ascending.
#[allow(clippy::too_many_arguments)]
pub fn apply_transitive(
    hasher: &SequenceHasher,
    states: &mut [RecordHashState],
    store: &dyn RecordStore,
    cluster: &[u32],
    to_level: usize,
    threads: usize,
    seed: &[u32],
    table: Option<&mut BucketTable>,
    mut advanced: Option<&mut AdvancedRecords>,
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
        .map(|&rid| {
            let state = &states[rid as usize];
            if let Some(advanced) = advanced.as_deref_mut() {
                advanced.note(rid, state.level, to_level);
            }
            remaining(state)
        })
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
    let inserts = (cluster.len() - s) * 2;
    match table {
        // A stored table holds record ids: seed records sit at slots
        // `0..s` and the rest after them, each part ascending.
        Some(table) if s > 0 => {
            let (seeded, rest) = cluster.split_at(s);
            assert!(
                ascending(seeded) && ascending(rest),
                "a stored-table call lays out its seed and its rest ascending"
            );
            table.recent.reserve(inserts);
            let slot_of = |record: u32| match seeded.binary_search(&record) {
                Ok(slot) => slot as u32,
                Err(_) => {
                    let slot = rest.binary_search(&record).expect("occupants are members");
                    (s + slot) as u32
                }
            };
            insert_keys(
                hasher,
                states,
                cluster,
                to_level,
                s,
                &mut forest,
                |bucket, slot| table.replace(bucket, cluster[slot as usize]),
                slot_of,
                stats,
            );
            table.settle();
        }
        // Unseeded: a fresh table keyed by slot. A stored one turns its
        // slots into record ids at the end; it stays unsorted until a
        // later call takes it, so a table no call takes again is never
        // sorted.
        table => {
            let mut fresh = BucketMap::default();
            let kept = table.is_some();
            let buckets = match table {
                Some(table) => {
                    assert!(table.is_empty(), "a stored table comes with its seed");
                    &mut table.recent
                }
                None => {
                    assert!(s == 0, "a seed comes with its stored table");
                    &mut fresh
                }
            };
            buckets.reserve(inserts);
            insert_keys(
                hasher,
                states,
                cluster,
                to_level,
                0,
                &mut forest,
                |bucket, slot| replace_in(buckets, bucket, slot),
                |slot| slot,
                stats,
            );
            if kept {
                for occupant in buckets.values_mut() {
                    *occupant = cluster[*occupant as usize];
                }
            }
        }
    }

    forest.record_clusters(cluster)
}

fn ascending(records: &[u32]) -> bool {
    records.windows(2).all(|pair| pair[0] < pair[1])
}

/// Inserts the keys of `cluster[from..]` in slot order, maintaining
/// `forest` by the four cases of Figure 19. `replace(bucket, slot)` makes
/// the slot's record the bucket's occupant and returns the previous one,
/// which `slot_of` maps back to a slot.
#[allow(clippy::too_many_arguments)]
fn insert_keys(
    hasher: &SequenceHasher,
    states: &[RecordHashState],
    cluster: &[u32],
    to_level: usize,
    from: usize,
    forest: &mut Forest,
    mut replace: impl FnMut(u64, u32) -> Option<u32>,
    slot_of: impl Fn(u32) -> u32,
    stats: &mut Stats,
) {
    for (slot, &rid) in (0u32..).zip(cluster).skip(from) {
        let state = &states[rid as usize];
        for (table_tag, key) in hasher.keys(state, to_level) {
            stats.bucket_inserts += 1;
            match replace(combine(table_tag, key), slot).map(&slot_of) {
                // Cases 1 and 2.
                None => {
                    if forest.leaf_of(slot).is_none() {
                        forest.add_singleton(slot);
                    }
                }
                Some(occupant) if occupant != slot => {
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
                }
                Some(_) => {}
            }
        }
    }
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
        let out = apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2],
            1,
            1,
            &[],
            None,
            None,
            &mut st,
        );
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
        let out = apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2, 3, 4],
            1,
            1,
            &[],
            None,
            None,
            &mut st,
        );
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
        let out = apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2],
            1,
            1,
            &[],
            None,
            None,
            &mut st,
        );
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
        let coarse = apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2],
            1,
            1,
            &[],
            None,
            None,
            &mut st,
        );
        assert_eq!(sorted(coarse.clone()), vec![vec![0, 1, 2]]);
        // Apply the next level to the merged cluster.
        let merged = &coarse[0];
        let fine = apply_transitive(&h, &mut states, &d, merged, 2, 1, &[], None, None, &mut st);
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
        let a = apply_transitive(&h, &mut states, &d, &[0], 1, 1, &[], None, None, &mut st);
        let b = apply_transitive(&h, &mut states, &d, &[1], 1, 1, &[], None, None, &mut st);
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
        let out = apply_transitive(&h, &mut states, &d, &ids, 1, 1, &[], None, None, &mut st);
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
            apply_transitive(&h, &mut states, &d, &evens, 1, 1, &[], None, None, &mut st);
            let out = apply_transitive(
                &h,
                &mut states,
                &d,
                &ids,
                2,
                threads,
                &[],
                None,
                None,
                &mut st,
            );
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

    /// A stored-table call on `members` (ascending), as a memo entry
    /// keeps it: one component label per member, and the table.
    fn stored(
        h: &SequenceHasher,
        states: &mut [RecordHashState],
        d: &Dataset,
        members: &[u32],
    ) -> (Vec<u32>, BucketTable) {
        let mut table = BucketTable::default();
        let mut st = Stats::default();
        let parts = apply_transitive(
            h,
            states,
            d,
            members,
            1,
            1,
            &[],
            Some(&mut table),
            None,
            &mut st,
        );
        let labels = members
            .iter()
            .map(|r| parts.iter().position(|p| p.contains(r)).unwrap() as u32)
            .collect();
        (labels, table)
    }

    /// A seeded call on `cluster` (`seed_part` first, each part
    /// ascending) over the table `stored` left for `seed_part`: its
    /// sorted output, its `Stats` and the table it leaves.
    fn warm(
        h: &SequenceHasher,
        d: &Dataset,
        seed_part: &[u32],
        cluster: &[u32],
    ) -> (Vec<Vec<u32>>, Stats, BucketTable) {
        let mut states = vec![RecordHashState::default(); d.len()];
        let (seed, mut table) = stored(h, &mut states, d, seed_part);
        let mut st = Stats::default();
        let out = apply_transitive(
            h,
            &mut states,
            d,
            cluster,
            1,
            1,
            &seed,
            Some(&mut table),
            None,
            &mut st,
        );
        (sorted(out), st, table)
    }

    #[test]
    fn a_new_record_joins_a_seed_component_through_the_stored_table() {
        // 2 shares buckets with 0 only, and 0's keys live in the stored
        // table alone: nothing re-inserts them.
        let d = dataset(&[&[1, 2, 3], &[100, 200, 300], &[1, 2, 3]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let (out, st, table) = warm(&h, &d, &[0, 1], &[0, 1, 2]);
        assert_eq!(out, vec![vec![0, 2], vec![1]]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut cold = BucketTable::default();
        let mut cold_st = Stats::default();
        apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2],
            1,
            1,
            &[],
            Some(&mut cold),
            None,
            &mut cold_st,
        );
        assert_eq!(st.bucket_inserts, h.keys(&states[2], 1).count() as u64);
        let buckets = |t: &BucketTable| {
            let mut b: Vec<u64> = t.buckets().collect();
            b.sort_unstable();
            b
        };
        assert_eq!(buckets(&table), buckets(&cold));
    }

    #[test]
    fn a_new_record_bridges_two_seed_components() {
        // 0 and 1 share no shingle, so no bucket; 2 holds both sets, and
        // only the stored table holds 0's and 1's keys.
        let d = dataset(&[&[1, 2, 3], &[100, 200, 300], &[1, 2, 3, 100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![1], z: 16 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let (seed, _) = stored(&h, &mut states, &d, &[0, 1]);
        assert_eq!(seed, vec![0, 1], "two seed components");
        let (out, st, _) = warm(&h, &d, &[0, 1], &[0, 1, 2]);
        assert_eq!(out, vec![vec![0, 1, 2]]);
        h.advance(&d.records()[2], &mut states[2], 1, &mut Stats::default());
        assert_eq!(st.bucket_inserts, h.keys(&states[2], 1).count() as u64);
    }

    #[test]
    fn a_whole_set_seed_inserts_nothing() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let (out, st, _) = warm(&h, &d, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(out, vec![vec![0, 1], vec![2]]);
        assert_eq!((st.bucket_inserts, st.transitive_calls), (0, 1));
    }

    #[test]
    #[should_panic(expected = "a seed comes with its stored table")]
    fn a_seed_without_its_table_panics() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1],
            1,
            1,
            &[0],
            None,
            None,
            &mut st,
        );
    }

    #[test]
    fn an_empty_seed_inserts_every_key() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 4], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        apply_transitive(
            &h,
            &mut states,
            &d,
            &[0, 1, 2],
            1,
            1,
            &[],
            None,
            None,
            &mut st,
        );
        let keys: usize = states.iter().map(|s| h.keys(s, 1).count()).sum();
        assert_eq!(st.bucket_inserts, keys as u64);
    }

    #[test]
    fn single_record_cluster() {
        let d = dataset(&[&[1, 2]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 3 }]);
        let mut states = vec![RecordHashState::default(); 1];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0], 1, 1, &[], None, None, &mut st);
        assert_eq!(out, vec![vec![0]]);
    }
}
