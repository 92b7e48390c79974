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
//! An online resolver's memo ([`crate::memo`]) hands a call a [`Seed`]:
//! the `H_t` components of a part `S` of the input that an earlier call
//! partitioned, that call's [`BucketTable`] (bucket → last record *id*,
//! for every key of `S`), and a record → slot index. The call's `cluster`
//! is then the rest of the input, `N`, ascending. Only `N` goes through
//! phase 1: `S`'s members reached level `t` in the call that stored the
//! entry, and states never fall back. The forest starts with one slot per
//! component of `S` and one per record of `N`, and only `N`'s keys go
//! through the ordinary insert loop, against the stored table: a bucket a
//! record of `S` occupies joins that record's component, which the index
//! names in one read. The keys of `S`'s records are never read. The
//! components are those of the whole input: two records of `S` share a
//! bucket only inside one of `S`'s components, and keys persist across
//! calls, so every edge still to find touches a record of `N`. The output
//! keeps each component no record of `N` joined as it is and merges the
//! others from their sorted parts (`Forest::splice`), so it is canonical
//! without a sort, and a call costs O(|N|'s work + components). The
//! table the call leaves is the one a cold call on the whole input
//! builds, up to which record each bucket names. A cold call (an empty
//! seed over an empty table) inserts every key. Without a seed (batch
//! runs) the call builds a fresh table keyed by slot, drops it, and
//! returns its components in leaf-chain order.
//!
//! Bucket ids are `combine(table_tag, key)` — a SplitMix64 output, already
//! uniform in every bit — so the batch bucket map uses them as their own
//! hash (`PassThroughHasher`) instead of running SipHash over them again,
//! and a stored [`BucketTable`] takes a bucket's home slot from its top
//! bits.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use adalsh_data::{RecordStore, RecordView};
use adalsh_lsh::mix::combine;

use crate::hashing::{HashScratch, RecordHashState, SequenceHasher};
use crate::memo::Seed;
use crate::ppt::{Forest, NodeId};
use crate::stats::Stats;

/// Minimum estimated new hash evaluations before phase 1 fans out to
/// worker threads. Below this, thread spawn/join overhead (~tens of µs)
/// rivals the hashing itself; the estimate sums each record's
/// *remaining* budget `budget(H_to) − budget(H_reached)`, which is exact:
/// every remaining slot is evaluated.
const MIN_PARALLEL_EVALS: u64 = 1 << 15;

/// Records whose states the sequential phase 1 takes out of the state
/// table at once: enough to fill many blocks, few enough that the copy
/// stays in cache.
const PHASE1_WINDOW: usize = 256;

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
/// Open addressing with linear probing over two aligned arrays, 12 bytes
/// a slot, at most three quarters full. Bucket ids are uniform, so a
/// bucket's home slot is its top bits and a lookup usually reads one
/// slot. Nothing is ever merged or sorted: a table only grows, doubling
/// when full, so an insert costs O(1) amortized however large the table
/// already is. A cold call sizes its table once for all its keys. A call
/// touches a record's home slots before it inserts the record's keys, so
/// their cache misses overlap.
#[derive(Debug, Default)]
pub struct BucketTable {
    /// The bucket of each slot; meaningless where the slot is vacant.
    buckets: Vec<u64>,
    /// The occupant of each slot, or [`VACANT`].
    records: Vec<u32>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots)`: a bucket's home slot is `bucket >> shift`.
    shift: u32,
}

/// A vacant slot of a [`BucketTable`]: no record id reaches it.
const VACANT: u32 = u32::MAX;

impl BucketTable {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket ids, in no particular order.
    pub fn buckets(&self) -> impl Iterator<Item = u64> + '_ {
        self.buckets
            .iter()
            .zip(&self.records)
            .filter(|&(_, &record)| record != VACANT)
            .map(|(&bucket, _)| bucket)
    }

    fn home(&self, bucket: u64) -> usize {
        (bucket >> self.shift) as usize
    }

    /// Makes `record` the occupant of `bucket` and returns the previous
    /// occupant, if any.
    pub(crate) fn replace(&mut self, bucket: u64, record: u32) -> Option<u32> {
        debug_assert_ne!(record, VACANT, "record ids stay below u32::MAX");
        if (self.len + 1) * 4 > self.records.len() * 3 {
            self.resize((self.records.len() * 2).max(16));
        }
        let mask = self.records.len() - 1;
        let mut slot = self.home(bucket);
        loop {
            match self.records[slot] {
                VACANT => {
                    self.buckets[slot] = bucket;
                    self.records[slot] = record;
                    self.len += 1;
                    return None;
                }
                occupant if self.buckets[slot] == bucket => {
                    self.records[slot] = record;
                    return Some(occupant);
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Reads `bucket`'s home slot, so a [`BucketTable::replace`] soon
    /// after finds it in cache: touching every key of a record first lets
    /// their cache misses overlap instead of queueing behind each insert.
    fn touch(&self, bucket: u64) {
        let home = self.home(bucket);
        if let (Some(&held), Some(&record)) = (self.buckets.get(home), self.records.get(home)) {
            std::hint::black_box((held, record));
        }
    }

    /// Makes room for `additional` more buckets, so inserting them never
    /// grows the table.
    fn reserve(&mut self, additional: usize) {
        let slots = ((self.len + additional) * 4)
            .div_ceil(3)
            .next_power_of_two();
        if slots > self.records.len() {
            self.resize(slots.max(16));
        }
    }

    /// Moves every bucket into a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let buckets = std::mem::replace(&mut self.buckets, vec![0; slots]);
        let records = std::mem::replace(&mut self.records, vec![VACANT; slots]);
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        for (bucket, record) in buckets.into_iter().zip(records) {
            if record != VACANT {
                self.replace(bucket, record);
            }
        }
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
/// With a `seed` (an online resolver's memo), `cluster` holds the
/// input's records outside the seed's components, ascending, and the call
/// partitions their union, extending the seed's table with `cluster`'s
/// keys and returning canonical components (see the module docs).
///
/// `advanced`, when given, notes every record whose level this call
/// raises (see [`AdvancedRecords`]).
///
/// # Panics
/// Panics if `to_level` is out of range for the hasher, or a seed with
/// no component comes with a non-empty table.
#[allow(clippy::too_many_arguments)]
pub fn apply_transitive(
    hasher: &SequenceHasher,
    states: &mut [RecordHashState],
    store: &dyn RecordStore,
    cluster: &[u32],
    to_level: usize,
    threads: usize,
    seed: Option<Seed<'_>>,
    mut advanced: Option<&mut AdvancedRecords>,
    stats: &mut Stats,
) -> Vec<Vec<u32>> {
    stats.transitive_calls += 1;
    if let Some(seed) = &seed {
        debug_assert!(
            seed.components
                .iter()
                .flatten()
                .all(|&rid| usize::from(states[rid as usize].level) >= to_level),
            "a seed's members reached the level in the call that stored it"
        );
    }

    // Phase 1: advance the hash state of every record of `cluster` to
    // `to_level`.
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
        // A window of states at a time, so a huge cluster (the level-1
        // sweep over every record) never holds a second copy of them all.
        let mut scratch = HashScratch::default();
        let mut window = Vec::with_capacity(PHASE1_WINDOW);
        for rids in cluster.chunks(PHASE1_WINDOW) {
            window.extend(
                rids.iter()
                    .map(|&rid| std::mem::take(&mut states[rid as usize])),
            );
            advance_chunk(
                hasher,
                store,
                rids,
                &mut window,
                to_level,
                stats,
                &mut scratch,
            );
            for (&rid, state) in rids.iter().zip(window.drain(..)) {
                states[rid as usize] = state;
            }
        }
    } else {
        // Pull the touched states out so each worker owns a disjoint
        // chunk; put them back afterwards.
        let mut owned: Vec<RecordHashState> = cluster
            .iter()
            .map(|&rid| std::mem::take(&mut states[rid as usize]))
            .collect();
        // Cut `owned` into at most `threads` contiguous chunks carrying a
        // fair share of the remaining estimated work each: chunk `t` takes
        // records until it reaches `left / chunks_left` estimated evals
        // (recomputed per cut, so an oversized early chunk shrinks the
        // targets of later ones instead of starving the last thread).
        let per_thread: Vec<Stats> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            let mut rest: &mut [RecordHashState] = &mut owned;
            let mut rids_rest: &[u32] = cluster;
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
                let (rids, rids_tail) = rids_rest.split_at(cut);
                rest = tail;
                rids_rest = rids_tail;
                cost_rest = &cost_rest[cut..];
                handles.push(scope.spawn(move || {
                    let mut local = Stats::default();
                    let mut scratch = HashScratch::default();
                    advance_chunk(
                        hasher,
                        store,
                        rids,
                        chunk,
                        to_level,
                        &mut local,
                        &mut scratch,
                    );
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
        for (&rid, state) in cluster.iter().zip(owned) {
            states[rid as usize] = state;
        }
    }

    // Phase 2: bucket insertion and component maintenance (sequential).
    let Some(seed) = seed else {
        // Batch: a fresh table keyed by slot.
        let mut forest = Forest::new(cluster.len());
        let mut buckets = BucketMap::default();
        buckets.reserve(cluster.len() * 2);
        for (slot, &rid) in (0u32..).zip(cluster) {
            for (table_tag, key) in hasher.keys(&states[rid as usize], to_level) {
                stats.bucket_inserts += 1;
                let occupant = replace_in(&mut buckets, combine(table_tag, key), slot);
                link(&mut forest, slot, occupant);
            }
        }
        return forest.record_clusters(cluster);
    };
    // Slots `0..c` are the seed's components, `c..` the rest.
    let c = seed.components.len() as u32;
    let table = seed.table;
    assert!(
        c > 0 || table.is_empty(),
        "a stored table comes with its seed"
    );
    if c == 0 {
        // A cold call puts every key in an empty table: size it once for
        // them all (a level's records emit equally many) instead of
        // doubling up to it.
        let keys = cluster.first().map_or(0, |&rid| {
            hasher.keys(&states[rid as usize], to_level).count()
        });
        table.reserve(cluster.len() * keys);
    }
    let mut forest = Forest::new(c as usize + cluster.len());
    let nodes: Vec<NodeId> = (0..c).map(|slot| forest.add_singleton(slot)).collect();
    let mut buckets = Vec::new();
    for (slot, &rid) in (c..).zip(cluster) {
        buckets.clear();
        buckets.extend(
            hasher
                .keys(&states[rid as usize], to_level)
                .map(|(table_tag, key)| combine(table_tag, key)),
        );
        for &bucket in &buckets {
            table.touch(bucket);
        }
        for &bucket in &buckets {
            stats.bucket_inserts += 1;
            let occupant = table.replace(bucket, rid);
            link(&mut forest, slot, occupant.map(|o| seed.slots[o as usize]));
        }
    }
    forest.splice(seed.components, &nodes, cluster, c)
}

/// Advances the records `rids`, whose states `states` holds in the same
/// order (taken out of the caller's table), to `to_level` in blocks of
/// [`adalsh_lsh::PANEL_RECORDS`].
fn advance_chunk(
    hasher: &SequenceHasher,
    store: &dyn RecordStore,
    rids: &[u32],
    states: &mut [RecordHashState],
    to_level: usize,
    stats: &mut Stats,
    scratch: &mut HashScratch,
) {
    let views: Vec<RecordView<'_>> = rids
        .iter()
        .map(|&rid| RecordView::new(store, rid))
        .collect();
    hasher.advance_records(&views, states, to_level, stats, scratch);
}

/// Maintains `forest` by the four cases of Figure 19 after `slot`'s
/// record took a bucket whose previous occupant held slot `occupant`.
#[inline]
fn link(forest: &mut Forest, slot: u32, occupant: Option<u32>) {
    match occupant {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{HashPart, LevelScheme};
    use adalsh_data::{Dataset, FieldKind, FieldValue, Record, Schema, ShingleSet, Sketches};

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
        let out = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, None, None, &mut st);
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
        let out = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, None, None, &mut st);
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
        let coarse = apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, None, None, &mut st);
        assert_eq!(sorted(coarse.clone()), vec![vec![0, 1, 2]]);
        // Apply the next level to the merged cluster.
        let merged = &coarse[0];
        let fine = apply_transitive(&h, &mut states, &d, merged, 2, 1, None, None, &mut st);
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
        let a = apply_transitive(&h, &mut states, &d, &[0], 1, 1, None, None, &mut st);
        let b = apply_transitive(&h, &mut states, &d, &[1], 1, 1, None, None, &mut st);
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
        let out = apply_transitive(&h, &mut states, &d, &ids, 1, 1, None, None, &mut st);
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
            apply_transitive(&h, &mut states, &d, &evens, 1, 1, None, None, &mut st);
            let out = apply_transitive(&h, &mut states, &d, &ids, 2, threads, None, None, &mut st);
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

    /// A cold memoized call on `members` (ascending): its components and
    /// the table it leaves.
    fn stored(
        h: &SequenceHasher,
        states: &mut [RecordHashState],
        d: &Dataset,
        members: &[u32],
    ) -> (Vec<Vec<u32>>, BucketTable) {
        let mut table = BucketTable::default();
        let parts = seeded(
            h,
            states,
            d,
            &[],
            members,
            &mut table,
            &mut Stats::default(),
        );
        (parts, table)
    }

    /// A memoized call on `components`' records and `rest` (ascending)
    /// over `table`, with the index the memo would build.
    fn seeded(
        h: &SequenceHasher,
        states: &mut [RecordHashState],
        d: &Dataset,
        components: &[Vec<u32>],
        rest: &[u32],
        table: &mut BucketTable,
        st: &mut Stats,
    ) -> Vec<Vec<u32>> {
        let (members, slots) = crate::memo::seed_index(components, rest, d.len());
        let seed = Seed {
            components,
            members: &members,
            slots: &slots,
            table,
            sketches: &mut Sketches::default(),
        };
        apply_transitive(h, states, d, rest, 1, 1, Some(seed), None, st)
    }

    /// A seeded call on `seed_part ∪ rest` over the table a cold call on
    /// `seed_part` left: its output, its `Stats` and the table it leaves.
    fn warm(
        h: &SequenceHasher,
        d: &Dataset,
        seed_part: &[u32],
        rest: &[u32],
    ) -> (Vec<Vec<u32>>, Stats, BucketTable) {
        let mut states = vec![RecordHashState::default(); d.len()];
        let (components, mut table) = stored(h, &mut states, d, seed_part);
        let mut st = Stats::default();
        let out = seeded(h, &mut states, d, &components, rest, &mut table, &mut st);
        (out, st, table)
    }

    #[test]
    fn a_new_record_joins_a_seed_component_through_the_stored_table() {
        // 2 shares buckets with 0 only, and 0's keys live in the stored
        // table alone: nothing re-inserts them. The untouched component
        // {1} comes back as it was, after the merged {0, 2}.
        let d = dataset(&[&[1, 2, 3], &[100, 200, 300], &[1, 2, 3]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let (out, st, table) = warm(&h, &d, &[0, 1], &[2]);
        assert_eq!(out, vec![vec![0, 2], vec![1]]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let (cold, cold_table) = stored(&h, &mut states, &d, &[0, 1, 2]);
        assert_eq!(out, cold);
        assert_eq!(st.bucket_inserts, h.keys(&states[2], 1).count() as u64);
        assert_eq!(
            st.hash_evals,
            h.level(1).budget() as u64,
            "only 2 is hashed"
        );
        let buckets = |t: &BucketTable| {
            let mut b: Vec<u64> = t.buckets().collect();
            b.sort_unstable();
            b
        };
        assert_eq!(buckets(&table), buckets(&cold_table));
    }

    #[test]
    fn a_new_record_bridges_two_seed_components() {
        // 0 and 1 share no shingle, so no bucket; 2 holds both sets, and
        // only the stored table holds 0's and 1's keys.
        let d = dataset(&[&[1, 2, 3], &[100, 200, 300], &[1, 2, 3, 100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![1], z: 16 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let (seed, _) = stored(&h, &mut states, &d, &[0, 1]);
        assert_eq!(seed, vec![vec![0], vec![1]], "two seed components");
        let (out, st, _) = warm(&h, &d, &[0, 1], &[2]);
        assert_eq!(out, vec![vec![0, 1, 2]]);
        h.advance(&d.records()[2], &mut states[2], 1, &mut Stats::default());
        assert_eq!(st.bucket_inserts, h.keys(&states[2], 1).count() as u64);
    }

    #[test]
    fn new_records_apart_from_the_seed_keep_canonical_order() {
        // 1 and 3 form a new component between the seed's {0, 4} and
        // {2}, and 5 one after them; the seed's components are untouched.
        let d = dataset(&[
            &[1, 2, 3],
            &[50, 60, 70],
            &[100, 200, 300],
            &[50, 60, 70],
            &[1, 2, 3],
            &[900, 901, 902],
        ]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let (out, _, _) = warm(&h, &d, &[0, 2, 4], &[1, 3, 5]);
        assert_eq!(out, vec![vec![0, 4], vec![1, 3], vec![2], vec![5]]);
    }

    #[test]
    fn a_seed_with_no_rest_inserts_nothing() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let (out, st, _) = warm(&h, &d, &[0, 1, 2], &[]);
        assert_eq!(out, vec![vec![0, 1], vec![2]]);
        assert_eq!(
            (st.bucket_inserts, st.hash_evals, st.transitive_calls),
            (0, 0, 1)
        );
    }

    #[test]
    #[should_panic(expected = "a stored table comes with its seed")]
    fn a_stored_table_without_its_seed_panics() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 3]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let (_, mut table) = stored(&h, &mut states, &d, &[0]);
        seeded(
            &h,
            &mut states,
            &d,
            &[],
            &[1],
            &mut table,
            &mut Stats::default(),
        );
    }

    #[test]
    fn an_empty_seed_inserts_every_key() {
        let d = dataset(&[&[1, 2, 3], &[1, 2, 4], &[100, 200, 300]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 8 }]);
        let mut states = vec![RecordHashState::default(); d.len()];
        let mut st = Stats::default();
        apply_transitive(&h, &mut states, &d, &[0, 1, 2], 1, 1, None, None, &mut st);
        let keys: usize = states.iter().map(|s| h.keys(s, 1).count()).sum();
        assert_eq!(st.bucket_inserts, keys as u64);
    }

    #[test]
    fn single_record_cluster() {
        let d = dataset(&[&[1, 2]]);
        let h = hasher(vec![LevelScheme::Shared { ws: vec![2], z: 3 }]);
        let mut states = vec![RecordHashState::default(); 1];
        let mut st = Stats::default();
        let out = apply_transitive(&h, &mut states, &d, &[0], 1, 1, None, None, &mut st);
        assert_eq!(out, vec![vec![0]]);
    }
}
