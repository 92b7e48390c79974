//! Parent-pointer trees (paper Appendix B.1–B.2, Figures 18–19).
//!
//! The transitive hashing functions and the pairwise computation function
//! both maintain clusters as *parent-pointer trees*: each node points to
//! its parent; leaves are chained left-to-right through `next_leaf`
//! pointers; the root knows its first leaf, last leaf, and leaf count.
//! Records are the leaves. The structure supports exactly the operations
//! Appendix B needs:
//!
//! * create a singleton tree for a record (Figure 19a);
//! * attach a record as a new leaf of an existing tree (Figure 19b);
//! * merge two trees under a fresh root `n′` (Figure 19c);
//! * find the root from any node (with path compression — compression
//!   rewires only `parent` pointers and never touches the leaf chain, so
//!   leaf iteration is unaffected);
//! * iterate a cluster's records by walking the leaf chain.
//!
//! A [`Forest`] is scoped to one function invocation: "when function `Hᵢ`
//! is invoked, there are no trees and none of the input records belongs
//! to a tree" (Appendix B.2). Records are addressed by dense *slots*
//! `0..n` (the caller maps record ids to positions in the cluster being
//! processed).

use std::borrow::Cow;

/// Sentinel for "no node".
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    parent: u32,
    /// Number of leaves under this node (maintained at roots).
    n_leaves: u32,
    /// First/last leaf of this subtree (valid at roots).
    first_leaf: u32,
    last_leaf: u32,
    /// Next leaf in the left-to-right chain (valid at leaves).
    next_leaf: u32,
    /// The record slot, for leaves; `NONE` for internal nodes.
    slot: u32,
}

/// A forest of parent-pointer trees over record slots `0..capacity`.
#[derive(Debug)]
pub struct Forest {
    nodes: Vec<Node>,
    /// `leaf_of[slot]` is the slot's leaf node, if the slot has been added.
    leaf_of: Vec<u32>,
}

/// Identifier of a node in a [`Forest`].
pub type NodeId = u32;

impl Forest {
    /// Creates an empty forest able to hold `capacity` record slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            leaf_of: vec![NONE; capacity],
        }
    }

    /// A forest able to hold `capacity` slots whose first `seed.len()`
    /// slots are added, joined into one tree per label of `seed`; no
    /// other slot is added yet.
    ///
    /// # Panics
    /// Panics if `seed` is longer than `capacity` or a label is not below
    /// `seed.len()`.
    pub fn seeded(capacity: usize, seed: &[u32]) -> Self {
        let mut forest = Self::new(capacity);
        let mut roots = vec![NONE; seed.len()];
        for (slot, &label) in (0u32..).zip(seed) {
            match roots[label as usize] {
                NONE => roots[label as usize] = forest.add_singleton(slot),
                root => {
                    forest.attach_leaf(root, slot);
                }
            }
        }
        forest
    }

    /// Number of record slots that have been added so far.
    pub fn num_leaves(&self) -> usize {
        self.leaf_of.iter().filter(|&&l| l != NONE).count()
    }

    /// The leaf node of `slot`, if the slot was added.
    pub fn leaf_of(&self, slot: u32) -> Option<NodeId> {
        let l = self.leaf_of[slot as usize];
        (l != NONE).then_some(l)
    }

    /// Creates a singleton tree for `slot` (Figure 19a).
    ///
    /// # Panics
    /// Panics if the slot was already added.
    pub fn add_singleton(&mut self, slot: u32) -> NodeId {
        assert_eq!(
            self.leaf_of[slot as usize], NONE,
            "slot {slot} already in a tree"
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            parent: NONE,
            n_leaves: 1,
            first_leaf: id,
            last_leaf: id,
            next_leaf: NONE,
            slot,
        });
        self.leaf_of[slot as usize] = id;
        id
    }

    /// Attaches `slot` as a new leaf under the tree rooted at `root`
    /// (Figure 19b). Returns the new leaf.
    ///
    /// # Panics
    /// Panics if `root` is not a root or the slot was already added.
    pub fn attach_leaf(&mut self, root: NodeId, slot: u32) -> NodeId {
        assert_eq!(self.nodes[root as usize].parent, NONE, "not a root");
        assert_eq!(
            self.leaf_of[slot as usize], NONE,
            "slot {slot} already in a tree"
        );
        let leaf = self.nodes.len() as u32;
        self.nodes.push(Node {
            parent: root,
            n_leaves: 1,
            first_leaf: leaf,
            last_leaf: leaf,
            next_leaf: NONE,
            slot,
        });
        self.leaf_of[slot as usize] = leaf;
        let old_last = self.nodes[root as usize].last_leaf;
        self.nodes[old_last as usize].next_leaf = leaf;
        let r = &mut self.nodes[root as usize];
        r.last_leaf = leaf;
        r.n_leaves += 1;
        leaf
    }

    /// Merges the trees rooted at `a` and `b` under a fresh root `n′`
    /// (Figure 19c). Returns the new root.
    ///
    /// # Panics
    /// Panics if either argument is not a root, or `a == b`.
    pub fn merge_roots(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_ne!(a, b, "cannot merge a tree with itself");
        assert_eq!(self.nodes[a as usize].parent, NONE, "a is not a root");
        assert_eq!(self.nodes[b as usize].parent, NONE, "b is not a root");
        let new_root = self.nodes.len() as u32;
        let (a_first, a_last, a_n) = {
            let n = &self.nodes[a as usize];
            (n.first_leaf, n.last_leaf, n.n_leaves)
        };
        let (b_first, b_last, b_n) = {
            let n = &self.nodes[b as usize];
            (n.first_leaf, n.last_leaf, n.n_leaves)
        };
        self.nodes.push(Node {
            parent: NONE,
            n_leaves: a_n + b_n,
            first_leaf: a_first,
            last_leaf: b_last,
            next_leaf: NONE,
            slot: NONE,
        });
        self.nodes[a as usize].parent = new_root;
        self.nodes[b as usize].parent = new_root;
        // Chain a's last leaf into b's first leaf.
        self.nodes[a_last as usize].next_leaf = b_first;
        new_root
    }

    /// Finds the root of the tree containing `node`, compressing the path.
    pub fn find_root(&mut self, node: NodeId) -> NodeId {
        let mut root = node;
        while self.nodes[root as usize].parent != NONE {
            root = self.nodes[root as usize].parent;
        }
        // Path compression: repoint everything on the path at the root.
        let mut cur = node;
        while cur != root {
            let next = self.nodes[cur as usize].parent;
            self.nodes[cur as usize].parent = root;
            cur = next;
        }
        root
    }

    /// Finds the root of the tree containing `slot`'s leaf, if any.
    pub fn find_root_of_slot(&mut self, slot: u32) -> Option<NodeId> {
        self.leaf_of(slot).map(|l| self.find_root(l))
    }

    /// Leaf count of the tree rooted at `root`.
    ///
    /// # Panics
    /// Panics if `root` is not a root.
    pub fn cluster_size(&self, root: NodeId) -> usize {
        assert_eq!(self.nodes[root as usize].parent, NONE, "not a root");
        self.nodes[root as usize].n_leaves as usize
    }

    /// Record slots of the tree rooted at `root`, in leaf-chain order.
    ///
    /// # Panics
    /// Panics if `root` is not a root.
    pub fn cluster_slots(&self, root: NodeId) -> Vec<u32> {
        assert_eq!(self.nodes[root as usize].parent, NONE, "not a root");
        let n = self.nodes[root as usize].n_leaves as usize;
        let mut out = Vec::with_capacity(n);
        let mut leaf = self.nodes[root as usize].first_leaf;
        for _ in 0..n {
            let node = &self.nodes[leaf as usize];
            debug_assert_ne!(node.slot, NONE, "internal node in leaf chain");
            out.push(node.slot);
            leaf = node.next_leaf;
        }
        out
    }

    /// All current roots (every slot added so far belongs to exactly one).
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].parent == NONE)
            .collect()
    }

    /// Materializes all clusters as slot lists, in no particular order.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        self.roots()
            .into_iter()
            .map(|r| self.cluster_slots(r))
            .collect()
    }

    /// [`Forest::clusters`] with each slot mapped to `records[slot]`.
    pub(crate) fn record_clusters(&self, records: &[u32]) -> Vec<Vec<u32>> {
        self.clusters()
            .into_iter()
            .map(|slots| slots.into_iter().map(|s| records[s as usize]).collect())
            .collect()
    }

    /// The components of a seeded run in canonical order (records
    /// ascending, components by their smallest record), where
    /// `components[i]` (canonical) started as the tree of node `nodes[i]`
    /// and `rest[j]` (ascending) sits at slot `rest_from + j`.
    ///
    /// Only a merge through a slot of `rest` joins two components, so a
    /// tree no such slot reached holds one component unchanged, and the
    /// output clones it. The other trees number at most `rest.len()`;
    /// each one's records are merged from its sorted parts, so no record
    /// is sorted and the cost is O(components + records in those trees).
    pub(crate) fn splice(
        &mut self,
        components: &[Vec<u32>],
        nodes: &[NodeId],
        rest: &[u32],
        rest_from: u32,
    ) -> Vec<Vec<u32>> {
        // The trees a rest slot reached, each with its components and its
        // rest records (ascending, in slot order).
        let mut joined = vec![NONE; self.nodes.len()];
        let mut trees: Vec<(Vec<&[u32]>, Vec<u32>)> = Vec::new();
        for (slot, &record) in (rest_from..).zip(rest) {
            let root = self.find_root_of_slot(slot).expect("rest slots are added");
            let tree = &mut joined[root as usize];
            if *tree == NONE {
                *tree = trees.len() as u32;
                trees.push(Default::default());
            }
            trees[*tree as usize].1.push(record);
        }
        let mut untouched = Vec::with_capacity(components.len());
        for (component, &node) in components.iter().zip(nodes) {
            match joined[self.find_root(node) as usize] {
                NONE => untouched.push(component),
                tree => trees[tree as usize].0.push(component),
            }
        }
        let mut merged: Vec<Vec<u32>> = trees
            .into_iter()
            .map(|(parts, records)| merge_ascending(parts, records))
            .collect();
        merged.sort_unstable_by_key(|records| records[0]);
        let mut out = Vec::with_capacity(untouched.len() + merged.len());
        let mut merged = merged.into_iter().peekable();
        for component in untouched {
            out.extend(std::iter::from_fn(|| {
                merged.next_if(|records| records[0] < component[0])
            }));
            out.push(component.clone());
        }
        out.extend(merged);
        out
    }
}

/// The union of the ascending, disjoint `parts` and `records`,
/// ascending: pairwise merges, so O(len · log(parts)).
fn merge_ascending(parts: Vec<&[u32]>, records: Vec<u32>) -> Vec<u32> {
    let mut runs: Vec<Cow<'_, [u32]>> = parts.into_iter().map(Cow::Borrowed).collect();
    runs.push(Cow::Owned(records));
    while runs.len() > 1 {
        let mut pairs = runs.into_iter();
        let mut next = Vec::new();
        while let Some(a) = pairs.next() {
            next.push(match pairs.next() {
                Some(b) => Cow::Owned(merge_two(&a, &b)),
                None => a,
            });
        }
        runs = next;
    }
    runs.pop().map(Cow::into_owned).unwrap_or_default()
}

fn merge_two(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_is_its_own_cluster() {
        let mut f = Forest::new(3);
        let l = f.add_singleton(1);
        assert_eq!(f.find_root(l), l);
        assert_eq!(f.cluster_size(l), 1);
        assert_eq!(f.cluster_slots(l), vec![1]);
    }

    #[test]
    fn attach_extends_leaf_chain() {
        let mut f = Forest::new(4);
        let r = f.add_singleton(0);
        f.attach_leaf(r, 2);
        f.attach_leaf(r, 3);
        assert_eq!(f.cluster_size(r), 3);
        assert_eq!(f.cluster_slots(r), vec![0, 2, 3]);
    }

    #[test]
    fn merge_concatenates_leaf_chains() {
        let mut f = Forest::new(6);
        let a = f.add_singleton(0);
        f.attach_leaf(a, 1);
        let b = f.add_singleton(4);
        f.attach_leaf(b, 5);
        let m = f.merge_roots(a, b);
        assert_eq!(f.cluster_size(m), 4);
        assert_eq!(f.cluster_slots(m), vec![0, 1, 4, 5]);
        assert_eq!(f.find_root(a), m);
        assert_eq!(f.find_root(b), m);
    }

    #[test]
    fn merge_of_merges() {
        let mut f = Forest::new(8);
        let roots: Vec<NodeId> = (0..8).map(|s| f.add_singleton(s)).collect();
        let ab = f.merge_roots(roots[0], roots[1]);
        let cd = f.merge_roots(roots[2], roots[3]);
        let abcd = f.merge_roots(ab, cd);
        assert_eq!(f.cluster_slots(abcd), vec![0, 1, 2, 3]);
        // Every constituent leaf resolves to the top root.
        for s in 0..4 {
            assert_eq!(f.find_root_of_slot(s), Some(abcd));
        }
        // Untouched singletons stay separate.
        assert_eq!(f.find_root_of_slot(7), Some(roots[7]));
    }

    #[test]
    fn roots_and_clusters_enumeration() {
        let mut f = Forest::new(5);
        let a = f.add_singleton(0);
        let b = f.add_singleton(1);
        f.merge_roots(a, b);
        f.add_singleton(4);
        let mut clusters = f.clusters();
        clusters.iter_mut().for_each(|c| c.sort_unstable());
        clusters.sort();
        assert_eq!(clusters, vec![vec![0, 1], vec![4]]);
    }

    #[test]
    fn path_compression_preserves_answers() {
        let mut f = Forest::new(16);
        let mut root = f.add_singleton(0);
        for s in 1..16u32 {
            let n = f.add_singleton(s);
            root = f.merge_roots(root, n);
        }
        // Deep chain: find twice, answers identical and leaf chain intact.
        let leaf = f.leaf_of(0).unwrap();
        let r1 = f.find_root(leaf);
        let r2 = f.find_root(leaf);
        assert_eq!(r1, r2);
        assert_eq!(r1, root);
        let mut slots = f.cluster_slots(root);
        slots.sort_unstable();
        assert_eq!(slots, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_of_reports_membership() {
        let mut f = Forest::new(2);
        assert_eq!(f.leaf_of(0), None);
        f.add_singleton(0);
        assert!(f.leaf_of(0).is_some());
        assert_eq!(f.leaf_of(1), None);
        assert_eq!(f.num_leaves(), 1);
    }

    #[test]
    #[should_panic(expected = "already in a tree")]
    fn double_add_panics() {
        let mut f = Forest::new(1);
        f.add_singleton(0);
        f.add_singleton(0);
    }

    #[test]
    #[should_panic(expected = "not a root")]
    fn attach_to_non_root_panics() {
        let mut f = Forest::new(3);
        let a = f.add_singleton(0);
        let b = f.add_singleton(1);
        f.merge_roots(a, b);
        f.attach_leaf(a, 2); // a is no longer a root
    }

    #[test]
    #[should_panic(expected = "merge a tree with itself")]
    fn self_merge_panics() {
        let mut f = Forest::new(1);
        let a = f.add_singleton(0);
        f.merge_roots(a, a);
    }
}
