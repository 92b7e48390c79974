//! The exact partition memo an online resolver keeps for `P` across
//! resolve passes.
//!
//! `P` on a cluster `C` returns the connected components of the match
//! graph on `C`. Records are append-only and immutable and the exact rule
//! is deterministic, so a member set that already went through `P` has a
//! known answer, and a cluster `S ∪ N` whose part `S` went through `P`
//! needs only the pairs that touch `N`: the seeded wavefront (see
//! [`crate::pairwise`]) starts from `S`'s components. Neither shortcut
//! can change an answer, only how many pairs are evaluated.
//!
//! The memo is keyed by the sorted member list, and a hit compares the
//! members exactly, so no digest collision can change an answer. It is
//! generational: [`PartitionMemo::end_pass`] keeps only the entries the
//! pass created or reused, so memory is bounded by one pass's `P` inputs
//! (a pass's clusters are disjoint, so at most two `u32`s per record).
//! It holds exact-rule partitions only; a noisy oracle's verdicts depend
//! on its ledger, seed and overlay, and never go through it.

use std::collections::HashMap;

/// Partitions of the clusters one resolve pass sent through `P`, kept
/// for the next pass.
#[derive(Debug, Default)]
pub struct PartitionMemo {
    /// Record count at the previous pass: members below it were there.
    watermark: u32,
    /// The previous pass's partitions: sorted members → one component
    /// label per member, numbered in order of first appearance.
    previous: HashMap<Vec<u32>, Vec<u32>>,
    /// Partitions this pass created or reused.
    current: HashMap<Vec<u32>, Vec<u32>>,
}

impl PartitionMemo {
    /// An empty memo: the first pass runs every `P` in full.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `members` through `run(cluster, seed)`, the seeded `P`:
    /// `cluster` is `members` sorted, and `seed` labels the components of
    /// its first `seed.len()` records. When the members that existed at
    /// the previous pass form a set the previous pass resolved, the seed
    /// is that set's partition (all of `members` on a whole-set hit, so
    /// `run` evaluates no pair); otherwise it is empty.
    ///
    /// Returns the components — records ascending, components by their
    /// smallest record, the same for every way of reaching them — `run`'s
    /// second output, and how many members' partition came from the memo
    /// (`|C|`, `|S|` or 0).
    pub fn partition<T>(
        &mut self,
        members: &[u32],
        run: impl FnOnce(&[u32], &[u32]) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, T, usize) {
        let mut key = members.to_vec();
        key.sort_unstable();
        let old = key.partition_point(|&r| r < self.watermark);
        // A pass's clusters are disjoint, so no later cluster of this
        // pass can need the entry again.
        let seed = self.previous.remove(&key[..old]).unwrap_or_default();
        let (mut clusters, extra) = run(&key, &seed);
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters.sort_unstable_by_key(|cluster| cluster[0]);
        // Components ordered by their smallest record are numbered in
        // order of first appearance in `key`.
        let mut labels = vec![0u32; key.len()];
        for (label, cluster) in clusters.iter().enumerate() {
            for record in cluster {
                let slot = key.binary_search(record).expect("P returns its input");
                labels[slot] = label as u32;
            }
        }
        self.current.insert(key, labels);
        (clusters, extra, seed.len())
    }

    /// Closes a pass over the first `records` records: the entries it
    /// created or reused become the ones the next pass may use.
    pub fn end_pass(&mut self, records: usize) {
        self.previous = std::mem::take(&mut self.current);
        self.watermark = u32::try_from(records).expect("record ids are u32");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `run` that records its inputs and returns `parts` verbatim.
    fn fixed(
        parts: Vec<Vec<u32>>,
        seen: &mut Vec<(Vec<u32>, Vec<u32>)>,
    ) -> impl FnOnce(&[u32], &[u32]) -> (Vec<Vec<u32>>, ()) + '_ {
        move |cluster, seed| {
            seen.push((cluster.to_vec(), seed.to_vec()));
            (parts, ())
        }
    }

    #[test]
    fn output_is_canonical() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let (out, (), reused) = memo.partition(
            &[9, 2, 5, 4],
            fixed(vec![vec![9, 4], vec![5, 2]], &mut seen),
        );
        assert_eq!(out, vec![vec![2, 5], vec![4, 9]]);
        assert_eq!(reused, 0);
        assert_eq!(seen, vec![(vec![2, 4, 5, 9], vec![])]);
    }

    #[test]
    fn hits_seeds_and_misses_across_passes() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        memo.partition(&[3, 1, 0], fixed(vec![vec![0, 3], vec![1]], &mut seen));
        memo.partition(&[2, 4], fixed(vec![vec![2], vec![4]], &mut seen));
        memo.end_pass(5);

        // Whole-set hit: the stored partition is the seed for every slot.
        let (out, (), reused) =
            memo.partition(&[0, 1, 3], fixed(vec![vec![0, 3], vec![1]], &mut seen));
        assert_eq!((out, reused), (vec![vec![0, 3], vec![1]], 3));
        // Grown: the old part {2, 4} seeds, new record 6 comes after it.
        let (_, (), reused) = memo.partition(&[6, 4, 2], fixed(vec![vec![2, 4, 6]], &mut seen));
        assert_eq!(reused, 2);
        // Old part {5} was never resolved: a full run.
        let (_, (), reused) = memo.partition(&[5, 7], fixed(vec![vec![5, 7]], &mut seen));
        assert_eq!(reused, 0);
        assert_eq!(
            seen[2..],
            [
                (vec![0, 1, 3], vec![0, 1, 0]),
                (vec![2, 4, 6], vec![0, 1]),
                (vec![5, 7], vec![]),
            ]
        );

        // Only what the last pass created or reused survives it.
        memo.end_pass(8);
        let (_, (), reused) = memo.partition(&[0, 1, 3], fixed(vec![vec![0, 1, 3]], &mut seen));
        assert_eq!(reused, 3);
        memo.end_pass(8);
        memo.end_pass(8);
        let (_, (), reused) = memo.partition(&[0, 1, 3], fixed(vec![vec![0, 1, 3]], &mut seen));
        assert_eq!(reused, 0, "an entry no pass used is dropped");
    }
}
