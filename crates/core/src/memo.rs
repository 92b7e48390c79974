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
//! An entry is (function, its canonical components), and what the call
//! built that a later call can start from: for `H_t` its
//! [`BucketTable`] (bucket → last record id over every key of its
//! members), for `P` its bitmap [`Sketches`]. For an input `C` the seed
//! is the **largest previous entry of the same function wholly inside
//! `C`** (ties go to the smaller first member); an entry only partly
//! inside `C` is never used, so a table only ever meets records of a
//! superset of its own members. Taking the seed moves its table and
//! sketches into the call, which extends them with the rest's and leaves
//! them to the new entry.
//!
//! A **whole-set hit** (the seed is all of `C`) runs nothing: the stored
//! components are the answer. Otherwise the call gets the seed's
//! components, the input's other records (the rest, ascending) and a
//! dense record → slot index: a seed member's component, a rest record
//! its slot after the components. Inputs come from canonical outputs, so
//! they are ascending already and nothing is sorted. A pass's inputs to
//! one function are disjoint, so each function keeps a dense record →
//! entry index and a record → component index over the previous pass's
//! records, and the lookup costs one array read per member. The same
//! disjointness lets a call write its rest's slots into the component
//! index: no entry those records belong to can seed a later input of the
//! pass.
//!
//! The memo is generational: [`PartitionMemo::end_pass`] keeps only the
//! entries the pass created or reused, and a table and its sketches go
//! with their entry, so memory is bounded by one pass's inputs, their
//! keys and their sketches per function. It holds exact-rule partitions
//! only; a noisy oracle's verdicts depend on its ledger, seed and
//! overlay, and never go through it.

use std::borrow::Cow;

use adalsh_data::Sketches;

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

/// What a memoized call starts from: the seed entry's components and
/// stored state (all empty on a cold call), with the call's input.
pub struct Seed<'m> {
    /// The seed's components, canonical.
    pub components: &'m [Vec<u32>],
    /// The call's whole input, ascending.
    pub members: &'m [u32],
    /// Record id → slot over `members`: a seed member's component index
    /// (below `components.len()`), and `components.len() + j` for the
    /// `j`-th record of the rest.
    pub slots: &'m [u32],
    /// `H_t`: the seed's bucket table, which the call extends with the
    /// rest's keys.
    pub table: &'m mut BucketTable,
    /// `P`: the seed's sketches, over its members ascending, which the
    /// call replaces with its table's.
    pub sketches: &'m mut Sketches,
}

/// One function's input, its components, and what its call left.
#[derive(Debug, Default)]
struct Entry {
    /// Canonical: records ascending, components by their smallest record.
    components: Vec<Vec<u32>>,
    /// Number of records over all components.
    len: usize,
    /// The bucket table of the members' keys, for `H_t`; empty for `P`.
    table: BucketTable,
    /// The sketches of the members, ascending, for `P`; empty for `H_t`.
    sketches: Sketches,
}

/// One function's entries: the previous pass's, indexed by record, and
/// the current pass's.
#[derive(Debug, Default)]
struct Generations {
    previous: Vec<Entry>,
    /// Record → index into `previous`, or [`NONE`], for every record id
    /// below the previous pass's record count.
    owner: Vec<u32>,
    /// Record → index of its component in its `owner` entry; a call
    /// writes its rest's slots here too (see the module docs).
    slots: Vec<u32>,
    /// Scratch: members of the input being looked up, per previous entry
    /// (zero between lookups).
    counts: Vec<u32>,
    current: Vec<Entry>,
}

impl Generations {
    /// The largest previous entry whose members all lie in `members`,
    /// ties to the smaller first member.
    fn find_seed(&mut self, members: &[u32]) -> Option<u32> {
        let mut touched = Vec::new();
        for &record in members {
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
            .map(|&entry| (entry, &self.previous[entry as usize]))
            .filter(|(entry, seed)| self.counts[*entry as usize] as usize == seed.len)
            .max_by_key(|(_, seed)| (seed.len, std::cmp::Reverse(seed.components[0][0])))
            .map(|(entry, _)| entry);
        for entry in touched {
            self.counts[entry as usize] = 0;
        }
        best
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

    /// Resolves `members` (ascending) through `run(rest, seed)`, the
    /// seeded form of `function`. The seed is the largest entry `function`
    /// left in the previous pass whose members all lie in `members`, and
    /// `rest` the other members, ascending; with no such entry the seed
    /// is empty and `rest` is `members`. `run` returns the components in
    /// canonical order — records ascending, components by their smallest
    /// record, the same for every way of reaching them — and the new
    /// entry keeps them, with the table and sketches `run` left in the
    /// seed.
    ///
    /// On a whole-set hit (the seed holds every member) `run` is not
    /// called: the stored components come back, with `None` for `run`'s
    /// second output. Returns the components, that output, and how many
    /// members' partition came from the memo.
    pub fn partition<T>(
        &mut self,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], Seed<'_>) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, Option<T>, usize) {
        debug_assert!(
            members.windows(2).all(|pair| pair[0] < pair[1]),
            "a memoized input is ascending"
        );
        let slot = Self::slot(function);
        if self.functions.len() <= slot {
            self.functions.resize_with(slot + 1, Generations::default);
        }
        let memo = &mut self.functions[slot];
        let best = memo.find_seed(members);
        // A pass's inputs to one function are disjoint, so no later input
        // of this pass can need the entry again.
        let mut entry = best.map_or_else(Entry::default, |best| {
            std::mem::take(&mut memo.previous[best as usize])
        });
        let reused = entry.len;
        if best.is_some() && reused == members.len() {
            let clusters = entry.components.clone();
            memo.current.push(entry);
            return (clusters, None, reused);
        }
        let rest: Cow<'_, [u32]> = match best {
            Some(best) => members
                .iter()
                .copied()
                .filter(|&record| memo.owner.get(record as usize) != Some(&best))
                .collect(),
            None => Cow::Borrowed(members),
        };
        if let Some(&last) = members.last() {
            if memo.slots.len() <= last as usize {
                memo.slots.resize(last as usize + 1, NONE);
            }
        }
        for (slot, &record) in (entry.components.len() as u32..).zip(rest.iter()) {
            memo.slots[record as usize] = slot;
        }
        let (clusters, extra) = run(
            &rest,
            Seed {
                components: &entry.components,
                members,
                slots: &memo.slots,
                table: &mut entry.table,
                sketches: &mut entry.sketches,
            },
        );
        entry.components.clone_from(&clusters);
        entry.len = members.len();
        memo.current.push(entry);
        (clusters, Some(extra), reused)
    }

    /// [`PartitionMemo::partition`] through `memo`, or with no memo
    /// `run(members, None)` as given: unseeded, with no stored table, and
    /// 0 members reused.
    pub fn resolve<T>(
        memo: Option<&mut Self>,
        function: Function,
        members: &[u32],
        run: impl FnOnce(&[u32], Option<Seed<'_>>) -> (Vec<Vec<u32>>, T),
    ) -> (Vec<Vec<u32>>, Option<T>, usize) {
        match memo {
            Some(memo) => memo.partition(function, members, |rest, seed| run(rest, Some(seed))),
            None => {
                let (clusters, extra) = run(members, None);
                (clusters, Some(extra), 0)
            }
        }
    }

    /// Closes a pass over the first `records` records: the entries it
    /// created or reused become the ones the next pass may use.
    pub fn end_pass(&mut self, records: usize) {
        for memo in &mut self.functions {
            memo.previous = std::mem::take(&mut memo.current);
            memo.owner.clear();
            memo.slots.clear();
            if !memo.previous.is_empty() {
                memo.owner.resize(records, NONE);
                memo.slots.resize(records, NONE);
            }
            for (index, entry) in (0u32..).zip(&memo.previous) {
                for (label, component) in (0u32..).zip(&entry.components) {
                    for &record in component {
                        memo.owner[record as usize] = index;
                        memo.slots[record as usize] = label;
                    }
                }
            }
            memo.counts.clear();
            memo.counts.resize(memo.previous.len(), 0);
        }
    }
}

/// The input (ascending) and the record → slot index the memo hands a
/// call seeded with `components` and `rest`, over ids below `records`.
#[cfg(test)]
pub(crate) fn seed_index(
    components: &[Vec<u32>],
    rest: &[u32],
    records: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut slots = vec![NONE; records];
    for (label, component) in (0u32..).zip(components) {
        for &record in component {
            slots[record as usize] = label;
        }
    }
    for (slot, &record) in (components.len() as u32..).zip(rest) {
        slots[record as usize] = slot;
    }
    let mut members: Vec<u32> = components.iter().flatten().chain(rest).copied().collect();
    members.sort_unstable();
    (members, slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `run` received: the rest, the seed's components, and the slot
    /// of each member.
    type Seen = (Vec<u32>, Vec<Vec<u32>>, Vec<u32>);

    /// Partitions `members` through a `run` that records its inputs in
    /// `seen` and returns `parts` verbatim; the middle output says
    /// whether `run` ran.
    fn fixed(
        memo: &mut PartitionMemo,
        function: Function,
        members: &[u32],
        parts: Vec<Vec<u32>>,
        seen: &mut Vec<Seen>,
    ) -> (Vec<Vec<u32>>, bool, usize) {
        let (out, ran, reused) = memo.partition(function, members, |rest, seed| {
            let slots = seed.members.iter().map(|&r| seed.slots[r as usize]);
            seen.push((rest.to_vec(), seed.components.to_vec(), slots.collect()));
            (parts, ())
        });
        (out, ran.is_some(), reused)
    }

    /// Resolves `members` into singletons and returns `run`'s inputs.
    fn inputs(memo: &mut PartitionMemo, function: Function, members: &[u32]) -> Seen {
        let mut seen = Vec::new();
        let parts = members.iter().map(|&r| vec![r]).collect();
        fixed(memo, function, members, parts, &mut seen);
        seen.pop().expect("a partial hit runs")
    }

    #[test]
    fn a_cold_call_runs_on_the_whole_input() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let parts = vec![vec![2, 5], vec![4, 9]];
        let out = fixed(
            &mut memo,
            Function::Pairwise,
            &[2, 4, 5, 9],
            parts.clone(),
            &mut seen,
        );
        assert_eq!(out, (parts, true, 0));
        assert_eq!(seen, vec![(vec![2, 4, 5, 9], vec![], vec![0, 1, 2, 3])]);
    }

    #[test]
    fn a_whole_set_hit_runs_nothing_and_returns_its_components() {
        for function in [Function::Hash(2), Function::Pairwise] {
            let mut memo = PartitionMemo::new();
            let parts = vec![vec![0, 3], vec![1]];
            fixed(
                &mut memo,
                function,
                &[0, 1, 3],
                parts.clone(),
                &mut Vec::new(),
            );
            for _ in 0..2 {
                memo.end_pass(4);
                let (out, ran, reused) =
                    memo.partition(function, &[0, 1, 3], |_, _| -> (Vec<Vec<u32>>, ()) {
                        panic!("a whole-set hit runs nothing")
                    });
                assert_eq!((out, ran, reused), (parts.clone(), None, 3));
            }
        }
    }

    #[test]
    fn the_largest_contained_entry_seeds() {
        let mut memo = PartitionMemo::new();
        let mut seen = Vec::new();
        let h2 = Function::Hash(2);
        for (members, parts) in [
            (vec![0, 1], vec![vec![0, 1]]),
            (vec![2, 3, 4], vec![vec![2, 4], vec![3]]),
            (vec![5], vec![vec![5]]),
            (vec![6, 9], vec![vec![6], vec![9]]),
            (vec![11, 12], vec![vec![11], vec![12]]),
            (vec![13, 14], vec![vec![13, 14]]),
        ] {
            fixed(&mut memo, h2, &members, parts, &mut seen);
        }
        memo.end_pass(15);
        // {2, 3, 4} is the largest entry inside, {6, 9} is only partly
        // inside; the rest takes the slots after the two components.
        let (_, ran, reused) = fixed(
            &mut memo,
            h2,
            &[0, 1, 2, 3, 4, 5, 6, 10],
            vec![vec![0, 1, 2, 3, 4, 5, 6, 10]],
            &mut seen,
        );
        assert_eq!((ran, reused), (true, 3));
        assert_eq!(
            seen.pop().unwrap(),
            (
                vec![0, 1, 5, 6, 10],
                vec![vec![2, 4], vec![3]],
                vec![2, 3, 0, 1, 0, 4, 5, 6]
            )
        );
        // Equal sizes: the smaller first member wins.
        assert_eq!(
            inputs(&mut memo, h2, &[11, 12, 13, 14]),
            (vec![13, 14], vec![vec![11], vec![12]], vec![0, 1, 2, 3])
        );
    }

    #[test]
    fn an_entry_only_partly_inside_never_seeds() {
        let mut memo = PartitionMemo::new();
        let h2 = Function::Hash(2);
        inputs(&mut memo, h2, &[0, 1, 2]);
        memo.end_pass(4);
        assert_eq!(
            inputs(&mut memo, h2, &[1, 2, 3]),
            (vec![1, 2, 3], vec![], vec![0, 1, 2])
        );
    }

    #[test]
    fn one_functions_entries_never_seed_another() {
        let mut memo = PartitionMemo::new();
        inputs(&mut memo, Function::Hash(3), &[0, 1]);
        memo.end_pass(3);
        assert_eq!(
            inputs(&mut memo, Function::Hash(4), &[0, 1]).1,
            Vec::<Vec<u32>>::new()
        );
        assert_eq!(
            inputs(&mut memo, Function::Pairwise, &[0, 1]).1,
            Vec::<Vec<u32>>::new()
        );
        assert_eq!(
            inputs(&mut memo, Function::Hash(3), &[0, 1, 2]).1,
            vec![vec![0], vec![1]]
        );
    }

    #[test]
    fn unused_entries_are_dropped_after_one_pass() {
        let mut memo = PartitionMemo::new();
        let p = Function::Pairwise;
        let seeds = |memo: &mut PartitionMemo, members: &[u32]| inputs(memo, p, members).1.len();
        inputs(&mut memo, p, &[0, 1]);
        inputs(&mut memo, p, &[2, 3]);
        memo.end_pass(5);
        // Only what the last pass created or reused survives it.
        assert_eq!(seeds(&mut memo, &[0, 1, 4]), 2);
        memo.end_pass(5);
        assert_eq!(seeds(&mut memo, &[2, 3, 4]), 0, "no pass used it");
    }

    /// Resolves `members` into one component through a `run` that marks
    /// each rest record's bucket in the seed's table, and returns the
    /// buckets the table held when `run` received it.
    fn marks(memo: &mut PartitionMemo, members: &[u32]) -> Vec<u64> {
        let mut held = Vec::new();
        memo.partition(Function::Hash(2), members, |rest, seed| {
            held = seed.table.buckets().collect();
            held.sort_unstable();
            for &record in rest {
                seed.table.replace(u64::from(record), record);
            }
            (vec![seed.members.to_vec()], ())
        });
        held
    }

    #[test]
    fn a_table_moves_with_its_entry() {
        let mut memo = PartitionMemo::new();
        assert_eq!(marks(&mut memo, &[0, 1]), Vec::<u64>::new());
        memo.end_pass(4);
        // The seed's table arrives as the last call left it.
        assert_eq!(marks(&mut memo, &[0, 1, 2]), vec![0, 1]);
        memo.end_pass(4);
        assert_eq!(marks(&mut memo, &[0, 1, 2, 3]), vec![0, 1, 2]);
    }

    #[test]
    fn a_table_is_dropped_with_an_unused_entry() {
        let mut memo = PartitionMemo::new();
        marks(&mut memo, &[0, 1]);
        memo.end_pass(3);
        memo.end_pass(3);
        assert_eq!(
            marks(&mut memo, &[0, 1, 2]),
            Vec::<u64>::new(),
            "no pass used it"
        );
    }

    #[test]
    fn an_entry_only_partly_inside_never_lends_its_table() {
        let mut memo = PartitionMemo::new();
        marks(&mut memo, &[0, 1, 2]);
        marks(&mut memo, &[3]);
        memo.end_pass(5);
        assert_eq!(marks(&mut memo, &[1, 2, 3, 4]), vec![3]);
    }
}
