//! The exact partition memo an online resolver keeps across resolve
//! passes, for `P` and for every transitive function `H_t`, `H₁`
//! included.
//!
//! Each of these functions returns the connected components of a graph on
//! its input cluster whose edges depend on two records only: "match" for
//! `P`, "share an `H_t` bucket" for `H_t`. Records are append-only and
//! immutable, the exact rule is deterministic, and a record's keys
//! persist across passes, so a member set's graph never changes. When a
//! part `S` of a cluster `C` went through the same function in the
//! previous pass, `C`'s components are the closure of `S`'s components
//! plus the edges that touch `C \ S`. The seeded runs — the wavefront of
//! [`crate::pairwise`] and the stored-table inserts of
//! [`crate::transitive`] — test only those edges. A seed changes how much
//! work a call does, never its answer.
//!
//! An entry is (function, sorted members, one component label per
//! member), and for `H_t` also the call's [`BucketTable`]: bucket → last
//! record id over every key of its members. For an input `C` the seed is
//! the **largest previous entry of the same function wholly inside `C`**
//! (ties go to the smaller first member); an entry only partly inside `C`
//! is never used, so a table only ever meets records of a superset of its
//! own members. Taking the seed moves its table into the call, which
//! extends it with the rest's keys and leaves it to the new entry. A
//! pass's inputs to one function are disjoint, so each function keeps a
//! dense record → entry index over the previous pass's records, and the
//! lookup costs one array read per member.
//!
//! The memo is generational: [`PartitionMemo::end_pass`] keeps only the
//! entries the pass created or reused, and a table goes with its entry,
//! so memory is bounded by one pass's inputs and their keys per function.
//! It holds exact-rule partitions only; a noisy oracle's verdicts depend
//! on its ledger, seed and overlay, and never go through it.

use crate::transitive::BucketTable;

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
    /// The bucket table of the members' keys, for `H_t`; empty for `P`.
    table: BucketTable,
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
    /// (sorted), ties to the smaller first member, and returns it with
    /// its members extended by the rest of `key`, ascending.
    fn take_seed(&mut self, key: &[u32]) -> Option<Entry> {
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
        let mut entry = std::mem::take(&mut self.previous[best as usize]);
        entry.members.extend(
            key.iter()
                .filter(|&&record| self.owner.get(record as usize) != Some(&best)),
        );
        Some(entry)
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

    /// Resolves `members` through `run(cluster, seed, table)`, the seeded
    /// form of `function`: `cluster` holds `members`, and `seed` labels
    /// the components of its first `seed.len()` records. The seed is the
    /// largest entry `function` left in the previous pass whose members
    /// all lie in `members` (all of them on a whole-set hit), laid out
    /// first with the other members after it, ascending; with no such
    /// entry `cluster` is `members` sorted and `seed` is empty. For `H_t`
    /// `table` is the seed entry's bucket table, moved out of it (empty
    /// with no seed), and `run` extends it to the whole cluster; the new
    /// entry keeps it. `P` gets no table.
    ///
    /// Returns the components — records ascending, components by their
    /// smallest record, the same for every way of reaching them — `run`'s
    /// second output, and how many members' partition came from the memo.
    pub fn partition<T>(
        &mut self,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], &[u32], Option<&mut BucketTable>) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, T, usize) {
        let slot = Self::slot(function);
        if self.functions.len() <= slot {
            self.functions.resize_with(slot + 1, Generations::default);
        }
        let memo = &mut self.functions[slot];
        let mut key = members.to_vec();
        key.sort_unstable();
        let keeps_table = matches!(function, Function::Hash(_));
        let (mut clusters, extra, reused, table) = match memo.take_seed(&key) {
            Some(mut seed) => {
                let table = keeps_table.then_some(&mut seed.table);
                let (clusters, extra) = run(&seed.members, &seed.labels, table);
                (clusters, extra, seed.labels.len(), seed.table)
            }
            None => {
                let mut table = BucketTable::default();
                let (clusters, extra) = run(&key, &[], keeps_table.then_some(&mut table));
                (clusters, extra, 0, table)
            }
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
            table,
        });
        (clusters, extra, reused)
    }

    /// [`PartitionMemo::partition`] through `memo`, or with no memo
    /// `run(members, &[], None)` as given: unseeded, with no stored
    /// table, and 0 members reused.
    pub fn resolve<T>(
        memo: Option<&mut Self>,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], &[u32], Option<&mut BucketTable>) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, T, usize) {
        match memo {
            Some(memo) => memo.partition(function, members, run),
            None => {
                let (clusters, extra) = run(members, &[], None);
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

    /// Partitions `members` through a `run` that records its inputs in
    /// `seen` and returns `parts` verbatim.
    fn fixed(
        memo: &mut PartitionMemo,
        function: Function,
        members: &[u32],
        parts: Vec<Vec<u32>>,
        seen: &mut Vec<(Vec<u32>, Vec<u32>)>,
    ) -> (Vec<Vec<u32>>, (), usize) {
        memo.partition(function, members, |cluster, seed, _| {
            seen.push((cluster.to_vec(), seed.to_vec()));
            (parts, ())
        })
    }

    /// Resolves `members` into singletons and returns `run`'s inputs.
    fn inputs(
        memo: &mut PartitionMemo,
        function: Function,
        members: &[u32],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut seen = Vec::new();
        let parts = members.iter().map(|&r| vec![r]).collect();
        fixed(memo, function, members, parts, &mut seen);
        seen.pop().unwrap()
    }

    #[test]
    fn output_is_canonical() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let (out, (), reused) = fixed(
            &mut memo,
            Function::Pairwise,
            &[9, 2, 5, 4],
            vec![vec![9, 4], vec![5, 2]],
            &mut seen,
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
        fixed(
            &mut memo,
            h2,
            &[3, 1, 0],
            vec![vec![0, 3], vec![1]],
            &mut seen,
        );
        memo.end_pass(4);
        let (out, (), reused) = fixed(
            &mut memo,
            h2,
            &[0, 1, 3],
            vec![vec![0, 3], vec![1]],
            &mut seen,
        );
        assert_eq!((out, reused), (vec![vec![0, 3], vec![1]], 3));
        assert_eq!(seen[1], (vec![0, 1, 3], vec![0, 1, 0]));
    }

    #[test]
    fn the_largest_contained_entry_seeds() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let h2 = Function::Hash(2);
        fixed(&mut memo, h2, &[0, 1], vec![vec![0, 1]], &mut seen);
        fixed(
            &mut memo,
            h2,
            &[2, 3, 4],
            vec![vec![2, 4], vec![3]],
            &mut seen,
        );
        fixed(&mut memo, h2, &[5], vec![vec![5]], &mut seen);
        fixed(&mut memo, h2, &[6, 9], vec![vec![6], vec![9]], &mut seen);
        fixed(&mut memo, h2, &[7, 8], vec![vec![7], vec![8]], &mut seen);
        memo.end_pass(10);
        // {2, 3, 4} is the largest entry inside; the rest follow, sorted.
        let (_, (), reused) = fixed(
            &mut memo,
            h2,
            &[6, 5, 10, 0, 4, 1, 3, 2],
            vec![vec![0, 1, 2, 3, 4, 5, 6, 10]],
            &mut seen,
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

    /// Resolves `members` into one component through a `run` that marks
    /// each member's bucket in its table, and returns the buckets the
    /// table held when `run` received it (`None` if it got no table).
    fn marks(memo: &mut PartitionMemo, function: Function, members: &[u32]) -> Option<Vec<u64>> {
        let mut got = None;
        memo.partition(function, members, |cluster, _, table| {
            got = table.map(|table| {
                let mut held: Vec<u64> = table.buckets().collect();
                held.sort_unstable();
                for &record in cluster {
                    table.replace(u64::from(record), record);
                }
                held
            });
            (vec![cluster.to_vec()], ())
        });
        got
    }

    #[test]
    fn a_table_moves_with_its_entry() {
        let mut memo = PartitionMemo::new();
        let h2 = Function::Hash(2);
        assert_eq!(marks(&mut memo, h2, &[1, 0]), Some(vec![]));
        memo.end_pass(3);
        // The seed's table arrives as the last call left it.
        assert_eq!(marks(&mut memo, h2, &[2, 1, 0]), Some(vec![0, 1]));
        memo.end_pass(3);
        assert_eq!(marks(&mut memo, h2, &[0, 1, 2]), Some(vec![0, 1, 2]));
        // `P` keeps no table.
        assert_eq!(marks(&mut memo, Function::Pairwise, &[0, 1]), None);
    }

    #[test]
    fn a_table_is_dropped_with_an_unused_entry() {
        let mut memo = PartitionMemo::new();
        let h2 = Function::Hash(2);
        marks(&mut memo, h2, &[0, 1]);
        memo.end_pass(2);
        memo.end_pass(2);
        assert_eq!(
            marks(&mut memo, h2, &[0, 1]),
            Some(vec![]),
            "no pass used it"
        );
    }

    #[test]
    fn an_entry_only_partly_inside_never_lends_its_table() {
        let mut memo = PartitionMemo::new();
        let h2 = Function::Hash(2);
        marks(&mut memo, h2, &[0, 1, 2]);
        marks(&mut memo, h2, &[3]);
        memo.end_pass(4);
        assert_eq!(marks(&mut memo, h2, &[1, 2, 3]), Some(vec![3]));
    }
}
