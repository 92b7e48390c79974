//! The pairwise computation function `P` (paper Definition 2,
//! Appendix B.3).
//!
//! `P` evaluates the match rule on record pairs of a cluster and outputs
//! the connected components of the resulting match graph. Two
//! optimizations from §6.1.1 are built in:
//!
//! * pairs already connected transitively are skipped (their trees share
//!   a root), saving their distance computations;
//! * components are maintained in the same parent-pointer [`Forest`] the
//!   hashing functions use.
//!
//! The *cost model* nevertheless charges `P` for all `|C|·(|C|−1)/2`
//! pairs (paper Definition 3 is conservative; see Appendix B.3's remark).
//!
//! # One wavefront
//!
//! [`apply_pairwise_with`] walks the canonical pair sequence
//! `(0,1), (0,2), …, (n−2,n−1)` in blocks of up to `block` pairs *open*
//! (endpoints in different trees) in the block-start forest. A block is
//! collected, evaluated by the [`PairwiseOracle`] on up to `threads`
//! workers, and folded in canonical order, re-testing closure against the
//! live forest: a pair still open is charged to [`Stats`], settled through
//! the [`SpendLedger`] if one is given, and merged on a match. So clusters,
//! `Stats` and the ledger equal [`apply_pairwise_scalar`]'s at any thread
//! count and block size; a pair closed by an earlier merge of its block
//! was evaluated *speculatively* and is neither charged nor settled. With
//! one worker and tracing off the walk is the fused scalar loop, one pair
//! at a time through the uncounted kernels: nothing is speculative, and
//! each slot's root is looked up once a pair. Every operand comes from one
//! [`SlotTable`] per call, so a pair costs no store dispatch.
//!
//! # Seeded runs
//!
//! An online resolver's memo ([`crate::memo`]) hands a call a [`Seed`]:
//! the components of a part `S` of the input whose partition is already
//! known, and the sketches `S`'s last call built. The call's `cluster` is
//! then the rest `N`, ascending. Slots keep one record each: `S`'s
//! records first, ascending, then `N`'s, so the pair order is the one an
//! unseeded run over that layout walks. The forest starts with each of
//! `S`'s components joined, and the cursor skips every pair inside `S`:
//! for `i < |S|` it starts at `j = |S|`, otherwise at `i + 1`. The
//! components are those of the match graph on `S ∪ N` because a pair
//! inside `S` can only merge two slots `S`'s own partition already
//! joined. A new slot is not stopped at its first matching component: it
//! may bridge two components of `S` that do not match each other, so it
//! is tested against every slot its tree does not yet hold. The
//! [`SlotTable`] starts from the stored sketches and sketches only `N`;
//! the call leaves its table's sketches, ascending, in the seed for the
//! next call. The output keeps each component no slot of `N` joined as it
//! is (`Forest::splice`), in canonical order. A cold call (an empty
//! seed) is the unseeded loop, pair for pair.

use std::time::Instant;

use adalsh_data::{Dataset, ExitCounts, KernelTally, MatchRule, RecordStore, SlotTable};
use adalsh_obs::{TraceSink, Value};

use crate::memo::Seed;
use crate::oracle::{ExactOracle, PairwiseOracle, Settle, SpendLedger};
use crate::ppt::{Forest, NodeId};
use crate::stats::Stats;

/// Open pairs per wavefront block. Bounds speculative (uncharged,
/// wasted) evaluations per block while keeping enough work in flight to
/// amortize thread synchronization.
pub const DEFAULT_PAIR_BLOCK: usize = 4096;

/// Minimum open pairs in a block before fanning out to worker threads;
/// below this, spawn/join overhead rivals the evaluations themselves.
const MIN_PARALLEL_PAIRS: usize = 512;

/// Observability totals from one traced [`apply_pairwise_with`] call:
/// blocks run, threshold kernels fired in them (speculative evaluations
/// included, which [`Stats`] never charges), and how many of those exited
/// early. Zero when the sink is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairwiseTrace {
    /// Wavefront blocks processed (each emitted one `pairwise_block`
    /// trace event).
    pub blocks: u64,
    /// Threshold-kernel invocations across all blocks.
    pub kernel_checks: u64,
    /// Kernel invocations resolved without an exact distance computation.
    pub early_exits: u64,
    /// Of those, invocations an exact bound rejected before touching the
    /// payloads: the Jaccard bitmap bound before any merge, or the
    /// angular pivot bound before the dot product.
    pub bound_rejects: u64,
}

/// Applies `P` to `cluster` (record ids) under `rule`, returning the
/// connected components as record-id lists: [`apply_pairwise_with`]
/// under [`ExactOracle`], with no ledger and tracing off.
pub fn apply_pairwise(
    store: &dyn RecordStore,
    rule: &MatchRule,
    cluster: &[u32],
    threads: usize,
    stats: &mut Stats,
) -> Vec<Vec<u32>> {
    apply_pairwise_with(
        store,
        &ExactOracle::new(rule),
        cluster,
        None,
        threads,
        DEFAULT_PAIR_BLOCK,
        None,
        &TraceSink::disabled(),
        stats,
    )
    .0
}

/// Applies `P` to `cluster` (record ids) with verdicts from `oracle`.
/// With a `seed` (an online resolver's memo), `cluster` holds the
/// input's records outside the seed's components, ascending, and the call
/// partitions their union, returning canonical components (see the
/// module docs); without one the components come in leaf-chain order.
/// `threads` and `block` (≥ 1) change wall-clock only. A `ledger`
/// settles every charged pair (budget, degradation, `oracle_call` when
/// traced); an enabled `sink` gets one `pairwise_block` event per block.
#[allow(clippy::too_many_arguments)]
pub fn apply_pairwise_with<O: PairwiseOracle>(
    store: &dyn RecordStore,
    oracle: &O,
    cluster: &[u32],
    seed: Option<Seed<'_>>,
    threads: usize,
    block: usize,
    ledger: Option<&mut SpendLedger>,
    sink: &TraceSink,
    stats: &mut Stats,
) -> (Vec<Vec<u32>>, PairwiseTrace) {
    stats.pairwise_calls += 1;
    let Some(seed) = seed else {
        let mut forest = singletons(cluster.len());
        let pairs = pair_count(cluster.len(), 0);
        let table = SlotTable::build(oracle.rule(), store, cluster, pairs);
        let trace = run(
            oracle,
            &table,
            &mut forest,
            0,
            threads,
            block,
            ledger,
            sink,
            stats,
        );
        return (forest.record_clusters(cluster), trace);
    };
    // Slots: the seed's records ascending, each labelled with its
    // component, then the rest; `first[c]` is component `c`'s first slot.
    let c = seed.components.len() as u32;
    let mut ids = Vec::with_capacity(seed.members.len());
    let mut labels = Vec::with_capacity(seed.members.len() - cluster.len());
    let mut first = vec![u32::MAX; c as usize];
    for &rid in seed.members {
        let label = seed.slots[rid as usize];
        if label < c {
            if first[label as usize] == u32::MAX {
                first[label as usize] = ids.len() as u32;
            }
            ids.push(rid);
            labels.push(label);
        }
    }
    let s = ids.len();
    ids.extend_from_slice(cluster);
    let mut forest = seeded_forest(ids.len(), &labels);
    let pairs = pair_count(ids.len(), s);
    let sketches = std::mem::take(seed.sketches);
    let table = SlotTable::seeded(oracle.rule(), store, &ids, pairs, sketches);
    let trace = run(
        oracle,
        &table,
        &mut forest,
        s as u32,
        threads,
        block,
        ledger,
        sink,
        stats,
    );
    *seed.sketches = table.into_sketches();
    let nodes: Vec<NodeId> = first
        .into_iter()
        .map(|slot| forest.leaf_of(slot).expect("seed slots are added"))
        .collect();
    let clusters = forest.splice(seed.components, &nodes, cluster, s as u32);
    (clusters, trace)
}

/// Walks the canonical pair sequence of `table`'s slots, minus the pairs
/// inside the first `s`, into `forest`: the fused loop with one worker
/// and tracing off, the blocked wavefront otherwise.
#[allow(clippy::too_many_arguments)]
fn run<O: PairwiseOracle>(
    oracle: &O,
    table: &SlotTable<'_>,
    forest: &mut Forest,
    s: u32,
    threads: usize,
    block: usize,
    ledger: Option<&mut SpendLedger>,
    sink: &TraceSink,
    stats: &mut Stats,
) -> PairwiseTrace {
    let pairs = pair_count(table.len(), s as usize);
    let mut settle = Settle::new(oracle.rule(), stats, ledger, sink);
    if threads <= 1 && !sink.enabled() {
        fused(oracle, table, forest, s, &mut settle);
        PairwiseTrace::default()
    } else {
        let block = block.clamp(1, pairs.max(1));
        wavefront(oracle, table, forest, s, threads, block, &mut settle)
    }
}

/// The canonical pair sequence one pair at a time (one worker, tracing
/// off): row `i` holds its root across the row, refreshed only by its
/// own merges (no other merge can move it), and each `j`'s root is
/// looked up once. Nothing is speculative.
fn fused<O: PairwiseOracle>(
    oracle: &O,
    table: &SlotTable<'_>,
    forest: &mut Forest,
    s: u32,
    settle: &mut Settle<'_>,
) {
    let n = table.len() as u32;
    for i in 0..n {
        let mut ri = root(forest, i);
        for j in (i + 1).max(s)..n {
            let rj = root(forest, j);
            if ri == rj {
                continue;
            }
            let (a, b) = (i as usize, j as usize);
            let verdict = oracle.adjudicate(table, a, b, &mut ());
            if settle.matched::<O>(verdict, table.id(a), table.id(b)) {
                ri = forest.merge_roots(ri, rj);
            }
        }
    }
}

/// The blocked wavefront: blocks of up to `block` pairs open in the
/// block-start forest, adjudicated on up to `threads` workers and folded
/// in canonical order.
fn wavefront<O: PairwiseOracle>(
    oracle: &O,
    table: &SlotTable<'_>,
    forest: &mut Forest,
    s: u32,
    threads: usize,
    block: usize,
    settle: &mut Settle<'_>,
) -> PairwiseTrace {
    let n = table.len() as u32;
    let sink = settle.sink();
    let traced = sink.is_some();
    let mut trace = PairwiseTrace::default();
    // A block fills a prefix of both buffers.
    let mut open = vec![(0u32, 0u32); block];
    let mut verdicts = vec![O::Verdict::default(); block];
    // Cursor over the canonical pair sequence, minus the pairs inside the
    // seeded prefix: row `i` starts at the first slot past both `i` and it.
    let row_start = |i: u32| (i + 1).max(s);
    let (mut i, mut j) = (0u32, row_start(0));
    loop {
        let block_start = traced.then(Instant::now);
        let mut len = 0;
        while len < block && j < n {
            if root(forest, i) != root(forest, j) {
                open[len] = (i, j);
                len += 1;
            }
            j += 1;
            if j == n {
                i += 1;
                j = row_start(i);
            }
        }
        if len == 0 {
            break;
        }
        let (open, verdicts) = (&open[..len], &mut verdicts[..len]);
        // Only traced blocks read the tally; the others run uncounted.
        let counts = if traced {
            evaluate_block(oracle, table, open, threads, verdicts)
        } else {
            evaluate_block::<O, ()>(oracle, table, open, threads, verdicts);
            ExitCounts::default()
        };

        let mut charged = 0u64;
        for (&(a, b), &verdict) in open.iter().zip(verdicts.iter()) {
            let (ra, rb) = (root(forest, a), root(forest, b));
            if ra == rb {
                // Closed by an earlier merge of this block: speculative.
                continue;
            }
            charged += 1;
            if settle.matched::<O>(verdict, table.id(a as usize), table.id(b as usize)) {
                forest.merge_roots(ra, rb);
            }
        }

        if let (Some(t0), Some(sink)) = (block_start, sink) {
            trace.blocks += 1;
            trace.kernel_checks += counts.checks;
            trace.early_exits += counts.early_exits;
            trace.bound_rejects += counts.bound_rejects;
            sink.emit(
                "pairwise_block",
                &[
                    ("pairs_open", Value::U64(open.len() as u64)),
                    ("pairs_charged", Value::U64(charged)),
                    ("kernel_checks", Value::U64(counts.checks)),
                    ("early_exits", Value::U64(counts.early_exits)),
                    ("bound_rejects", Value::U64(counts.bound_rejects)),
                    ("wall_micros", Value::U64(t0.elapsed().as_micros() as u64)),
                ],
            );
        }
    }
    trace
}

/// Adjudicates every open pair of a block into `verdicts` and returns
/// the kernel tally; big blocks split into disjoint chunks of pairs and
/// buffer across workers, whose tallies merge at join time.
fn evaluate_block<O: PairwiseOracle, T: KernelTally>(
    oracle: &O,
    table: &SlotTable<'_>,
    open: &[(u32, u32)],
    threads: usize,
    verdicts: &mut [O::Verdict],
) -> T {
    let eval = |pairs: &[(u32, u32)], out: &mut [O::Verdict]| {
        let mut tally = T::default();
        for (v, &(a, b)) in out.iter_mut().zip(pairs) {
            *v = oracle.adjudicate(table, a as usize, b as usize, &mut tally);
        }
        tally
    };
    if threads == 1 || open.len() < MIN_PARALLEL_PAIRS {
        return eval(open, verdicts);
    }
    let chunk = open.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = open
            .chunks(chunk)
            .zip(verdicts.chunks_mut(chunk))
            .map(|(pairs, out)| scope.spawn(move || eval(pairs, out)))
            .collect();
        let mut total = T::default();
        for handle in handles {
            total.merge(&handle.join().expect("block worker panicked"));
        }
        total
    })
}

/// The scalar reference implementation of `P`: one pair at a time, in
/// canonical order, through the plain (uncached) [`MatchRule::matches`]
/// kernels. The differential tests pin [`apply_pairwise_with`] to it —
/// clusters *and* `Stats` — as the scalar reference in
/// `tests/proptest_hashing.rs` anchors the hash kernels.
pub fn apply_pairwise_scalar(
    dataset: &Dataset,
    rule: &MatchRule,
    cluster: &[u32],
    stats: &mut Stats,
) -> Vec<Vec<u32>> {
    stats.pairwise_calls += 1;
    let n = cluster.len() as u32;
    let mut forest = singletons(cluster.len());
    let per_pair_distances = rule.num_elementary_distances() as u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let (ri, rj) = (root(&mut forest, i), root(&mut forest, j));
            if ri == rj {
                // Transitively closed already — skip the comparison.
                continue;
            }
            stats.pair_comparisons += 1;
            stats.distance_evals += per_pair_distances;
            let a = dataset.record(cluster[i as usize]);
            let b = dataset.record(cluster[j as usize]);
            if rule.matches(a, b) {
                forest.merge_roots(ri, rj);
            }
        }
    }
    forest.record_clusters(cluster)
}

/// A forest holding every slot `0..n` as its own singleton tree.
fn singletons(n: usize) -> Forest {
    seeded_forest(n, &[])
}

/// A forest over slots `0..n` whose first `seed.len()` slots are joined
/// into one tree per seed label; every other slot is a singleton.
fn seeded_forest(n: usize, seed: &[u32]) -> Forest {
    let mut forest = Forest::seeded(n, seed);
    for slot in seed.len() as u32..n as u32 {
        forest.add_singleton(slot);
    }
    forest
}

/// Pairs of the canonical sequence over `n` slots that touch a slot past
/// the first `s`.
fn pair_count(n: usize, s: usize) -> usize {
    let fresh = n - s;
    s * fresh + fresh * fresh.saturating_sub(1) / 2
}

/// The root of `slot`'s tree.
fn root(forest: &mut Forest, slot: u32) -> NodeId {
    forest.find_root_of_slot(slot).expect("slot added")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{NoisyOracle, NoisyOracleConfig, OracleSpend};
    use crate::transitive::BucketTable;
    use adalsh_data::{FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet, Sketches};
    use adalsh_obs::MemorySubscriber;
    use std::sync::Arc;

    fn dataset(sets: &[&[u64]]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records = sets
            .iter()
            .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec()))))
            .collect();
        let gt = (0..sets.len() as u32).collect();
        Dataset::new(schema, records, gt)
    }

    fn dataset_of(sets: &[Vec<u64>]) -> Dataset {
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        dataset(&refs)
    }

    fn jaccard_rule(dthr: f64) -> MatchRule {
        MatchRule::threshold(0, FieldDistance::Jaccard, dthr)
    }

    fn sorted(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        clusters.iter_mut().for_each(|c| c.sort_unstable());
        clusters.sort();
        clusters
    }

    /// A sink recording into the returned subscriber, or a disabled one.
    fn memory_sink(traced: bool) -> (TraceSink, Arc<MemorySubscriber>) {
        let mem = Arc::new(MemorySubscriber::default());
        let sink = if traced {
            TraceSink::new(mem.clone())
        } else {
            TraceSink::disabled()
        };
        (sink, mem)
    }

    #[test]
    fn exact_components() {
        // 0~1 (sim 0.5), 2 far from both.
        let d = dataset(&[&[1, 2, 3, 4], &[3, 4, 5, 6], &[100, 200]]);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.7), &[0, 1, 2], 1, &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1], vec![2]]);
        assert_eq!(st.pairwise_calls, 1);
    }

    #[test]
    fn transitivity_via_middle_record() {
        // 0~1 and 1~2 but 0 and 2 are beyond the threshold: one component
        // by transitivity (paper §3's transitivity discussion).
        let d = dataset(&[&[1, 2, 3], &[2, 3, 4], &[3, 4, 5]]);
        // d(0,1) = 1 − 2/4 = 0.5; d(0,2) = 1 − 1/5 = 0.8.
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.5), &[0, 1, 2], 1, &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn skips_transitively_closed_pairs() {
        // Four identical records: after 0-1, 0-2, 0-3 merge, pairs (1,2),
        // (1,3), (2,3) are closed ⇒ only 3 of 6 comparisons run.
        let d = dataset(&[&[1], &[1], &[1], &[1]]);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.1), &[0, 1, 2, 3], 1, &mut st);
        assert_eq!(out.len(), 1);
        assert_eq!(st.pair_comparisons, 3);
    }

    #[test]
    fn speculative_evals_are_uncharged_at_any_block_size() {
        // Same four identical records: with the whole cluster in one
        // block, pairs (1,2), (1,3), (2,3) are evaluated speculatively
        // (open at snapshot, closed by the (0,·) merges at fold time) —
        // the charge must still be 3, identical to the scalar oracle.
        let d = dataset(&[&[1], &[1], &[1], &[1]]);
        let rule = jaccard_rule(0.1);
        for block in [1usize, 2, 3, 6, 100] {
            let mut st = Stats::default();
            let (out, _) = apply_pairwise_with(
                &d,
                &ExactOracle::new(&rule),
                &[0, 1, 2, 3],
                None,
                2,
                block,
                None,
                &TraceSink::disabled(),
                &mut st,
            );
            assert_eq!(out.len(), 1, "block {block}");
            assert_eq!(st.pair_comparisons, 3, "block {block}");
            assert_eq!(st.distance_evals, 3, "block {block}");
        }
    }

    /// `P` on `components`' records and `rest` (ascending), seeded with
    /// `components` as the memo seeds it, with no stored sketches.
    #[allow(clippy::too_many_arguments)]
    fn seeded(
        d: &Dataset,
        rule: &MatchRule,
        components: &[Vec<u32>],
        rest: &[u32],
        threads: usize,
        block: usize,
        sink: &TraceSink,
        st: &mut Stats,
    ) -> (Vec<Vec<u32>>, PairwiseTrace) {
        let (members, slots) = crate::memo::seed_index(components, rest, d.len());
        let seed = Seed {
            components,
            members: &members,
            slots: &slots,
            table: &mut BucketTable::default(),
            sketches: &mut Sketches::default(),
        };
        let oracle = ExactOracle::new(rule);
        apply_pairwise_with(d, &oracle, rest, Some(seed), threads, block, None, sink, st)
    }

    /// A new record that matches members of two old components which do
    /// not match each other joins all three: the seeded run must not stop
    /// the new record at its first matching component.
    #[test]
    fn new_record_bridges_two_old_components() {
        // d(0,2) = d(1,2) = 0.5; d(0,1) = 1.0; record 3 is far from all.
        let d = dataset(&[
            &[1, 2, 3, 4],
            &[5, 6, 7, 8],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[99],
        ]);
        let rule = jaccard_rule(0.5);
        let old = [vec![0], vec![1]];
        for (threads, block) in [(1usize, 1usize), (2, 1), (2, 4096)] {
            let (sink, _) = memory_sink(threads == 2);
            let mut st = Stats::default();
            let (out, _) = seeded(&d, &rule, &old, &[2, 3], threads, block, &sink, &mut st);
            assert_eq!(out, vec![vec![0, 1, 2], vec![3]]);
            // (0,2) merges, (0,3) fails, (1,2) is still open and merges;
            // (1,3) and (2,3) fail. The old pair (0,1) is never evaluated,
            // which is the one pair an unseeded run adds.
            assert_eq!((st.pairwise_calls, st.pair_comparisons), (1, 5));
        }
        // A seed with no rest evaluates nothing and returns its
        // components.
        let mut st = Stats::default();
        let old = [vec![0, 2], vec![1]];
        let (out, trace) = seeded(
            &d,
            &rule,
            &old,
            &[],
            2,
            DEFAULT_PAIR_BLOCK,
            &memory_sink(true).0,
            &mut st,
        );
        assert_eq!(out, old);
        assert_eq!((st.pairwise_calls, st.pair_comparisons), (1, 0));
        assert_eq!(trace.blocks, 0);
    }

    /// A seeded call keeps the stored sketches of its seed, adds the
    /// rest's, and leaves them ascending, equal to a cold table's.
    #[test]
    fn a_seeded_call_leaves_the_sketches_of_its_whole_input() {
        let d = dataset(&[&[1, 2, 3, 4], &[9], &[1, 2, 3, 5], &[1, 2, 3, 4, 6]]);
        let rule = jaccard_rule(0.5);
        let sketches = |ids: &[u32]| {
            let table = SlotTable::build(&rule, &d, ids, 0);
            (0..ids.len())
                .map(|k| match table.operand(k, 0) {
                    adalsh_data::Operand::Shingles(_, sketch) => *sketch,
                    _ => unreachable!("a shingle field"),
                })
                .collect::<Vec<_>>()
        };
        // 0 and 2 match, as do 0 and 3; 1 matches nothing.
        let (components, rest) = ([vec![0, 2]], [1, 3]);
        let slots = [0, 1, 0, 2];
        let mut stored = SlotTable::build(&rule, &d, &[0, 2], 0).into_sketches();
        let seed = Seed {
            components: &components,
            members: &[0, 1, 2, 3],
            slots: &slots,
            table: &mut BucketTable::default(),
            sketches: &mut stored,
        };
        let mut st = Stats::default();
        let oracle = ExactOracle::new(&rule);
        let sink = TraceSink::disabled();
        let (out, _) =
            apply_pairwise_with(&d, &oracle, &rest, Some(seed), 1, 1, None, &sink, &mut st);
        assert_eq!(out, vec![vec![0, 2, 3], vec![1]]);
        let table = SlotTable::seeded(&rule, &d, &[0, 1, 2, 3], 0, stored);
        let kept: Vec<_> = (0..4)
            .map(|k| match table.operand(k, 0) {
                adalsh_data::Operand::Shingles(_, sketch) => *sketch,
                _ => unreachable!("a shingle field"),
            })
            .collect();
        assert_eq!(kept, sketches(&[0, 1, 2, 3]));
    }

    #[test]
    fn all_far_pairs_compare_everything() {
        let d = dataset(&[&[1], &[2], &[3], &[4]]);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.1), &[0, 1, 2, 3], 1, &mut st);
        assert_eq!(out.len(), 4);
        assert_eq!(st.pair_comparisons, 6);
        assert_eq!(st.distance_evals, 6);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let d = dataset(&[&[1]]);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.5), &[], 4, &mut st);
        assert!(out.is_empty());
        let out = apply_pairwise(&d, &jaccard_rule(0.5), &[0], 4, &mut st);
        assert_eq!(out, vec![vec![0]]);
        assert_eq!(st.pair_comparisons, 0);
    }

    #[test]
    fn respects_record_id_indirection() {
        // The cluster lists non-contiguous record ids.
        let d = dataset(&[&[1, 2], &[99], &[1, 2]]);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &jaccard_rule(0.2), &[2, 0], 1, &mut st);
        assert_eq!(sorted(out), vec![vec![0, 2]]);
    }

    /// Every way to run the wavefront under the exact rule — with or
    /// without a ledger, sink off or on, any thread count and block size
    /// — matches the scalar reference in clusters and `Stats`; a ledger
    /// settles every charged pair for free, and a traced run's events
    /// reconcile with its tally.
    #[test]
    fn wavefront_equals_scalar_across_ledgers_sinks_threads_and_blocks() {
        // A chain of overlapping sets plus isolated singletons, and a
        // banded variant — both merge across block boundaries.
        let mixed: Vec<Vec<u64>> = (0..40)
            .map(|k| {
                if k % 3 == 0 {
                    vec![1000 + k, 2000 + k]
                } else {
                    (k / 4 * 10..k / 4 * 10 + 8).collect()
                }
            })
            .collect();
        let banded: Vec<Vec<u64>> = (0..30)
            .map(|k| {
                if k % 4 == 0 {
                    vec![5000 + k]
                } else {
                    (k / 3 * 10..k / 3 * 10 + 6).collect()
                }
            })
            .collect();
        let rule = jaccard_rule(0.4);
        let oracle = ExactOracle::new(&rule);
        for sets in [mixed, banded] {
            let d = dataset_of(&sets);
            let ids: Vec<u32> = (0..sets.len() as u32).collect();
            let mut st_scalar = Stats::default();
            let scalar = sorted(apply_pairwise_scalar(&d, &rule, &ids, &mut st_scalar));
            for threads in [1usize, 2, 3, 5] {
                for block in [1usize, 7, 16, 64, 10_000] {
                    for settle in [false, true] {
                        for traced in [false, true] {
                            let case = format!(
                                "n={} t={threads} b={block} ledger={settle} traced={traced}",
                                ids.len()
                            );
                            let (sink, mem) = memory_sink(traced);
                            let mut ledger = SpendLedger::new(None);
                            let mut st = Stats::default();
                            let (out, trace) = apply_pairwise_with(
                                &d,
                                &oracle,
                                &ids,
                                None,
                                threads,
                                block,
                                settle.then_some(&mut ledger),
                                &sink,
                                &mut st,
                            );
                            assert_eq!(sorted(out), scalar, "{case}");
                            assert_eq!(st, st_scalar, "{case}");
                            let spend = ledger.spend();
                            let settled = if settle { st.pair_comparisons } else { 0 };
                            assert_eq!(spend.calls, settled, "{case}");
                            assert_eq!(spend.spent, 0, "exact oracle is free: {case}");
                            assert_eq!(spend.degraded, 0, "{case}");

                            if !traced {
                                assert_eq!(trace, PairwiseTrace::default(), "{case}");
                                continue;
                            }
                            let events = mem.events();
                            let calls = events.iter().filter(|e| e.name == "oracle_call").count();
                            assert_eq!(calls as u64, settled, "{case}");
                            let blocks: Vec<_> = events
                                .iter()
                                .filter(|e| e.name == "pairwise_block")
                                .collect();
                            assert_eq!(blocks.len() + calls, events.len(), "{case}");
                            assert_eq!(blocks.len() as u64, trace.blocks, "{case}");
                            let (mut charged, mut checks, mut exits) = (0u64, 0u64, 0u64);
                            for ev in blocks {
                                let open = ev.u64("pairs_open").unwrap();
                                let block_charged = ev.u64("pairs_charged").unwrap();
                                assert!(open >= block_charged, "{case}");
                                assert!(open <= block as u64, "{case}");
                                assert!(ev.u64("wall_micros").is_some(), "{case}");
                                charged += block_charged;
                                checks += ev.u64("kernel_checks").unwrap();
                                exits += ev.u64("early_exits").unwrap();
                            }
                            assert_eq!(charged, st.pair_comparisons, "{case}");
                            assert_eq!(checks, trace.kernel_checks, "{case}");
                            assert_eq!(exits, trace.early_exits, "{case}");
                            // A single-threshold rule fires exactly one
                            // kernel per open pair.
                            assert!(trace.kernel_checks >= st.pair_comparisons, "{case}");
                            assert!(trace.early_exits <= trace.kernel_checks, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A zero-noise noisy oracle runs the same rule kernels as the exact
    /// one, so a traced run reports the same `kernel_checks` and
    /// `early_exits` — per block and in the call's tally, which the
    /// engine's `pairwise` event carries.
    #[test]
    fn zero_noise_oracle_reports_the_exact_kernel_counts() {
        // Each group of six has four small sets and two 5x larger ones:
        // the small-large pairs never match and resolve on the Jaccard
        // size-ratio early exit.
        let sets: Vec<Vec<u64>> = (0..30u64)
            .map(|k| {
                let base = k / 6 * 100;
                let len = if k % 3 == 0 { 30 } else { 6 };
                (base..base + len).collect()
            })
            .collect();
        let d = dataset_of(&sets);
        let ids: Vec<u32> = (0..30).collect();
        let rule = jaccard_rule(0.4);
        let exact = ExactOracle::new(&rule);
        let noisy = NoisyOracle::new(&rule, NoisyOracleConfig::default());
        let block_totals = |mem: &MemorySubscriber| {
            mem.events()
                .iter()
                .filter(|e| e.name == "pairwise_block")
                .fold((0u64, 0u64), |(checks, exits), e| {
                    (
                        checks + e.u64("kernel_checks").unwrap(),
                        exits + e.u64("early_exits").unwrap(),
                    )
                })
        };
        for threads in [1usize, 3] {
            for block in [1usize, 16, DEFAULT_PAIR_BLOCK] {
                let case = format!("t={threads} b={block}");
                let (sink, exact_mem) = memory_sink(true);
                let mut st_exact = Stats::default();
                let (out_exact, exact_trace) = apply_pairwise_with(
                    &d,
                    &exact,
                    &ids,
                    None,
                    threads,
                    block,
                    None,
                    &sink,
                    &mut st_exact,
                );
                let (sink, noisy_mem) = memory_sink(true);
                let mut ledger = SpendLedger::new(None);
                let mut st_noisy = Stats::default();
                let (out_noisy, noisy_trace) = apply_pairwise_with(
                    &d,
                    &noisy,
                    &ids,
                    None,
                    threads,
                    block,
                    Some(&mut ledger),
                    &sink,
                    &mut st_noisy,
                );
                assert_eq!(sorted(out_noisy), sorted(out_exact), "{case}");
                assert_eq!(st_noisy, st_exact, "{case}");
                assert_eq!(noisy_trace, exact_trace, "{case}");
                assert_eq!(block_totals(&noisy_mem), block_totals(&exact_mem), "{case}");
                assert_eq!(
                    block_totals(&exact_mem),
                    (exact_trace.kernel_checks, exact_trace.early_exits),
                    "{case}"
                );
                assert!(exact_trace.early_exits > 0, "size-ratio exit fires: {case}");
            }
        }
    }

    #[test]
    fn noisy_oracle_is_deterministic_across_threads_blocks_and_sinks() {
        let sets: Vec<Vec<u64>> = (0..36)
            .map(|k| (k / 3 * 10..k / 3 * 10 + 6).collect())
            .collect();
        let d = dataset_of(&sets);
        let ids: Vec<u32> = (0..36).collect();
        let rule = jaccard_rule(0.4);
        let cfg = NoisyOracleConfig {
            false_match_rate: 0.15,
            false_non_match_rate: 0.15,
            fault_rate: 0.2,
            seed: 11,
            budget: Some(300),
            ..NoisyOracleConfig::default()
        };
        let run =
            |threads: usize, block: usize, traced: bool| -> (Vec<Vec<u32>>, Stats, OracleSpend) {
                let oracle = NoisyOracle::new(&rule, cfg.clone());
                let mut ledger = SpendLedger::new(cfg.budget);
                let mut st = Stats::default();
                let (sink, _) = memory_sink(traced);
                let (out, _) = apply_pairwise_with(
                    &d,
                    &oracle,
                    &ids,
                    None,
                    threads,
                    block,
                    Some(&mut ledger),
                    &sink,
                    &mut st,
                );
                (sorted(out), st, ledger.into_spend())
            };
        let baseline = run(1, DEFAULT_PAIR_BLOCK, false);
        for threads in [1usize, 2, 4] {
            for block in [1usize, 13, 4096] {
                for traced in [false, true] {
                    let got = run(threads, block, traced);
                    assert_eq!(
                        got, baseline,
                        "noisy oracle must replay bit-identically (t={threads} b={block} traced={traced})"
                    );
                }
            }
        }
        // The run under this fault rate must actually have exercised the
        // resilience machinery.
        let (_, _, spend) = baseline;
        assert!(spend.retries > 0, "fault injection must trigger retries");
        assert!(spend.spent <= 300, "budget respected: {}", spend.spent);
    }

    #[test]
    fn oracle_budget_degrades_tail_pairs_to_the_rule() {
        // All-distinct records: every pair is open and adjudicated.
        let d = dataset(&[&[1], &[2], &[3], &[4], &[5]]);
        let ids: Vec<u32> = (0..5).collect();
        let rule = jaccard_rule(0.4);
        let cfg = NoisyOracleConfig {
            budget: Some(4),
            ..NoisyOracleConfig::default()
        };
        let oracle = NoisyOracle::new(&rule, cfg.clone());
        let mut ledger = SpendLedger::new(cfg.budget);
        let mut st = Stats::default();
        let (out, _) = apply_pairwise_with(
            &d,
            &oracle,
            &ids,
            None,
            1,
            DEFAULT_PAIR_BLOCK,
            Some(&mut ledger),
            &TraceSink::disabled(),
            &mut st,
        );
        // Zero noise: the degraded fallback is the same rule verdict, so
        // clusters match the exact path even with the budget exhausted.
        let mut st_rule = Stats::default();
        let plain = apply_pairwise(&d, &rule, &ids, 1, &mut st_rule);
        assert_eq!(sorted(out), sorted(plain));
        assert_eq!(st, st_rule, "Stats never carry oracle spend");
        let spend = ledger.spend();
        assert_eq!(spend.calls, 10, "all 10 pairs settled");
        assert_eq!(spend.spent, 4, "budget cap");
        assert_eq!(spend.degraded, 6, "tail pairs degraded for free");
        assert_eq!(spend.degraded_pairs.len(), 6);
    }

    #[test]
    fn multifield_rule_distance_accounting() {
        use adalsh_data::rule::WeightedPart;
        let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let rec = |x: &[u64], y: &[u64]| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(x.to_vec())),
                FieldValue::Shingles(ShingleSet::new(y.to_vec())),
            ])
        };
        let d = Dataset::new(
            schema,
            vec![rec(&[1], &[2]), rec(&[1], &[2]), rec(&[9], &[9])],
            vec![0, 0, 1],
        );
        let rule = MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
                WeightedPart {
                    field: 1,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
            ],
            dthr: 0.2,
        };
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &rule, &[0, 1, 2], 1, &mut st);
        assert_eq!(sorted(out), vec![vec![0, 1], vec![2]]);
        // 3 comparisons × 2 elementary distances each.
        assert_eq!(st.pair_comparisons, 3);
        assert_eq!(st.distance_evals, 6);
    }
}
