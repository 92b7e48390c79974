//! The exact partition memo an online resolver keeps across resolve
//! passes, for `P` and for every transitive function `H_t` the round loop
//! applies after `H₁`.
//!
//! Each of these functions returns the connected components of a graph on
//! its input cluster whose edges depend on two records only: "match" for
//! `P`, "share an `H_t` bucket" for `H_t`. Records are append-only and
//! immutable, the exact rule is deterministic, and a record's keys
//! persist across passes, so a member set's graph never changes. When a
//! part `S` of a cluster `C` went through the same function in the
//! previous pass, `C`'s components are the closure of `S`'s components
//! plus the edges that touch `C \ S`. The seeded runs — the wavefront of
//! [`crate::pairwise`] and the probe of [`crate::transitive`] — test only
//! those edges. A seed changes how much work a call does, never its
//! answer.
//!
//! An entry is (function, sorted members, one component label per
//! member). For an input `C` the seed is the **largest previous entry of
//! the same function wholly inside `C`** (ties go to the smaller first
//! member); an entry only partly inside `C` is never used. A pass's
//! inputs to one function are disjoint, so each function keeps a dense
//! record → entry index over the previous pass's records, and the lookup
//! costs one array read per member.
//!
//! The memo is generational: [`PartitionMemo::end_pass`] keeps only the
//! entries the pass created or reused, so memory is bounded by one pass's
//! inputs per function. It holds exact-rule partitions only; a noisy
//! oracle's verdicts depend on its ledger, seed and overlay, and never go
//! through it.

/// "No entry" in a record → entry index.
const NONE: u32 = u32::MAX;

/// The function a partition came from: one function's entries never seed
/// another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// The pairwise computation function `P`.
    Pairwise,
    /// The transitive hashing function `H_t` of level `t`.
    Hash(usize),
}

/// One function's input and its components.
#[derive(Debug, Default)]
struct Entry {
    /// Sorted record ids.
    members: Vec<u32>,
    /// Component of each member, numbered in order of first appearance.
    labels: Vec<u32>,
}

/// One function's entries: the previous pass's, indexed by record, and
/// the current pass's.
#[derive(Debug, Default)]
struct Generations {
    previous: Vec<Entry>,
    /// Record → index into `previous`, or [`NONE`], for every record id
    /// below the previous pass's record count.
    owner: Vec<u32>,
    /// Scratch: members of the input being looked up, per previous entry
    /// (zero between lookups).
    counts: Vec<u32>,
    current: Vec<Entry>,
}

impl Generations {
    /// Takes the largest previous entry whose members all lie in `key`
    /// (sorted), ties to the smaller first member, and returns `key`
    /// reordered as the entry's members and then the rest, with the
    /// entry's labels.
    fn take_seed(&mut self, key: &[u32]) -> Option<(Vec<u32>, Vec<u32>)> {
        let mut touched = Vec::new();
        for &record in key {
            match self.owner.get(record as usize) {
                Some(&entry) if entry != NONE => {
                    let count = &mut self.counts[entry as usize];
                    if *count == 0 {
                        touched.push(entry);
                    }
                    *count += 1;
                }
                _ => {}
            }
        }
        // A taken entry has no members left, so it never counts as inside.
        let best = touched
            .iter()
            .map(|&entry| (entry, &self.previous[entry as usize].members))
            .filter(|(entry, members)| self.counts[*entry as usize] as usize == members.len())
            .max_by_key(|(_, members)| (members.len(), std::cmp::Reverse(members[0])))
            .map(|(entry, _)| entry);
        for entry in touched {
            self.counts[entry as usize] = 0;
        }
        // A pass's inputs to one function are disjoint, so no later input
        // of this pass can need the entry again.
        let best = best?;
        let Entry {
            members: mut cluster,
            labels,
        } = std::mem::take(&mut self.previous[best as usize]);
        cluster.extend(
            key.iter()
                .filter(|&&record| self.owner.get(record as usize) != Some(&best)),
        );
        Some((cluster, labels))
    }
}

/// Partitions of the inputs one resolve pass sent through each memoized
/// function, kept for the next pass.
#[derive(Debug, Default)]
pub struct PartitionMemo {
    /// Indexed by [`PartitionMemo::slot`].
    functions: Vec<Generations>,
}

impl PartitionMemo {
    /// An empty memo: the first pass runs every function in full.
    pub fn new() -> Self {
        Self::default()
    }

    /// Levels start at 1, which leaves slot 0 to `P`.
    fn slot(function: Function) -> usize {
        match function {
            Function::Pairwise => 0,
            Function::Hash(level) => level,
        }
    }

    /// Resolves `members` through `run(cluster, seed)`, the seeded form
    /// of `function`: `cluster` holds `members`, and `seed` labels the
    /// components of its first `seed.len()` records. The seed is the
    /// largest entry `function` left in the previous pass whose members
    /// all lie in `members` (all of them on a whole-set hit), laid out
    /// first with the other members after it, ascending; with no such
    /// entry `cluster` is `members` sorted and `seed` is empty.
    ///
    /// Returns the components — records ascending, components by their
    /// smallest record, the same for every way of reaching them — `run`'s
    /// second output, and how many members' partition came from the memo.
    pub fn partition<T>(
        &mut self,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], &[u32]) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, T, usize) {
        let slot = Self::slot(function);
        if self.functions.len() <= slot {
            self.functions.resize_with(slot + 1, Generations::default);
        }
        let memo = &mut self.functions[slot];
        let mut key = members.to_vec();
        key.sort_unstable();
        let seeded = memo.take_seed(&key);
        let (mut clusters, extra) = match &seeded {
            Some((cluster, seed)) => run(cluster, seed),
            None => run(&key, &[]),
        };
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters.sort_unstable_by_key(|cluster| cluster[0]);
        // Components ordered by their smallest record are numbered in
        // order of first appearance in `key`.
        let mut labels = vec![0u32; key.len()];
        for (label, cluster) in (0u32..).zip(&clusters) {
            for record in cluster {
                let slot = key.binary_search(record).expect("run returns its input");
                labels[slot] = label;
            }
        }
        memo.current.push(Entry {
            members: key,
            labels,
        });
        let reused = seeded.map_or(0, |(_, seed)| seed.len());
        (clusters, extra, reused)
    }

    /// [`PartitionMemo::partition`] through `memo`, or with no memo
    /// `run(members, &[])` as given, unseeded, and 0 members reused.
    pub fn resolve<T>(
        memo: Option<&mut Self>,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], &[u32]) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, T, usize) {
        match memo {
            Some(memo) => memo.partition(function, members, run),
            None => {
                let (clusters, extra) = run(members, &[]);
                (clusters, extra, 0)
            }
        }
    }

    /// Closes a pass over the first `records` records: the entries it
    /// created or reused become the ones the next pass may use.
    pub fn end_pass(&mut self, records: usize) {
        for memo in &mut self.functions {
            memo.previous = std::mem::take(&mut memo.current);
            memo.owner.clear();
            if !memo.previous.is_empty() {
                memo.owner.resize(records, NONE);
            }
            for (index, entry) in (0u32..).zip(&memo.previous) {
                for &record in &entry.members {
                    memo.owner[record as usize] = index;
                }
            }
            memo.counts.clear();
            memo.counts.resize(memo.previous.len(), 0);
        }
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

    /// Resolves `members` into singletons and returns `run`'s inputs.
    fn inputs(
        memo: &mut PartitionMemo,
        function: Function,
        members: &[u32],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut seen = Vec::new();
        let parts = members.iter().map(|&r| vec![r]).collect();
        memo.partition(function, members, fixed(parts, &mut seen));
        seen.pop().unwrap()
    }

    #[test]
    fn output_is_canonical() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let (out, (), reused) = memo.partition(
            Function::Pairwise,
            &[9, 2, 5, 4],
            fixed(vec![vec![9, 4], vec![5, 2]], &mut seen),
        );
        assert_eq!(out, vec![vec![2, 5], vec![4, 9]]);
        assert_eq!(reused, 0);
        assert_eq!(seen, vec![(vec![2, 4, 5, 9], vec![])]);
    }

    #[test]
    fn whole_set_hits_seed_every_member() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let h2 = Function::Hash(2);
        memo.partition(h2, &[3, 1, 0], fixed(vec![vec![0, 3], vec![1]], &mut seen));
        memo.end_pass(4);
        let (out, (), reused) =
            memo.partition(h2, &[0, 1, 3], fixed(vec![vec![0, 3], vec![1]], &mut seen));
        assert_eq!((out, reused), (vec![vec![0, 3], vec![1]], 3));
        assert_eq!(seen[1], (vec![0, 1, 3], vec![0, 1, 0]));
    }

    #[test]
    fn the_largest_contained_entry_seeds() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let h2 = Function::Hash(2);
        memo.partition(h2, &[0, 1], fixed(vec![vec![0, 1]], &mut seen));
        memo.partition(h2, &[2, 3, 4], fixed(vec![vec![2, 4], vec![3]], &mut seen));
        memo.partition(h2, &[5], fixed(vec![vec![5]], &mut seen));
        memo.partition(h2, &[6, 9], fixed(vec![vec![6], vec![9]], &mut seen));
        memo.partition(h2, &[7, 8], fixed(vec![vec![7], vec![8]], &mut seen));
        memo.end_pass(10);
        // {2, 3, 4} is the largest entry inside; the rest follow, sorted.
        let (_, (), reused) = memo.partition(
            h2,
            &[6, 5, 10, 0, 4, 1, 3, 2],
            fixed(vec![vec![0, 1, 2, 3, 4, 5, 6, 10]], &mut seen),
        );
        assert_eq!(reused, 3);
        assert_eq!(
            seen.pop().unwrap(),
            (vec![2, 3, 4, 0, 1, 5, 6, 10], vec![0, 1, 0])
        );
        // Equal sizes: the smaller first member wins.
        assert_eq!(
            inputs(&mut memo, h2, &[9, 8, 7, 6]),
            (vec![6, 9, 7, 8], vec![0, 1])
        );
    }

    #[test]
    fn an_entry_only_partly_inside_never_seeds() {
        let mut memo = PartitionMemo::new();
        let h2 = Function::Hash(2);
        inputs(&mut memo, h2, &[0, 1, 2]);
        memo.end_pass(4);
        assert_eq!(inputs(&mut memo, h2, &[3, 2, 1]), (vec![1, 2, 3], vec![]));
    }

    #[test]
    fn one_functions_entries_never_seed_another() {
        let mut memo = PartitionMemo::new();
        inputs(&mut memo, Function::Hash(3), &[0, 1]);
        memo.end_pass(2);
        assert_eq!(inputs(&mut memo, Function::Hash(4), &[0, 1]).1, vec![]);
        assert_eq!(inputs(&mut memo, Function::Pairwise, &[0, 1]).1, vec![]);
        assert_eq!(inputs(&mut memo, Function::Hash(3), &[0, 1]).1, vec![0, 1]);
    }

    #[test]
    fn unused_entries_are_dropped_after_one_pass() {
        let mut memo = PartitionMemo::new();
        let p = Function::Pairwise;
        inputs(&mut memo, p, &[0, 1]);
        inputs(&mut memo, p, &[2, 3]);
        memo.end_pass(4);
        // Only what the last pass created or reused survives it.
        assert_eq!(inputs(&mut memo, p, &[0, 1]).1, vec![0, 1]);
        memo.end_pass(4);
        assert_eq!(inputs(&mut memo, p, &[0, 1]).1, vec![0, 1]);
        assert_eq!(inputs(&mut memo, p, &[2, 3]).1, vec![]);
        memo.end_pass(4);
        memo.end_pass(4);
        assert_eq!(inputs(&mut memo, p, &[0, 1]).1, vec![], "no pass used it");
    }
}
