//! Operation counters shared by every filtering method.
//!
//! Wall-clock time depends on the machine; these counters are the
//! hardware-independent cost ledger the experiments report alongside it:
//! elementary hash evaluations (the unit of the paper's `costᵢ`) and
//! elementary distance computations (the unit of `cost_P`).

use serde::{Deserialize, Serialize};

/// Counters accumulated during a filtering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Elementary hash-function evaluations (one per `(function, record)`
    /// application, before any AND/OR combination).
    pub hash_evals: u64,
    /// Elementary distance evaluations performed by the pairwise
    /// computation function `P` (one per field distance).
    pub distance_evals: u64,
    /// Record-pair comparisons performed by `P` (a comparison may cost
    /// several `distance_evals` under multi-field rules).
    pub pair_comparisons: u64,
    /// Hash-table bucket insertions.
    pub bucket_inserts: u64,
    /// Invocations of a transitive hashing function.
    pub transitive_calls: u64,
    /// Of those, the calls that started from a partition an online
    /// resolver's memo kept from an earlier pass (whole or in part).
    pub transitive_reused: u64,
    /// Invocations of the pairwise computation function.
    pub pairwise_calls: u64,
    /// Of those, the calls that started from a partition an online
    /// resolver's memo kept from an earlier pass (whole or in part).
    pub pairwise_reused: u64,
    /// Rounds of the main loop (cluster selections).
    pub rounds: u64,
    /// Modeled cost in the units of the paper's Definition 3, accumulated
    /// with the active [`crate::cost::CostModel`].
    pub modeled_cost: f64,
}

impl Stats {
    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &Stats) {
        self.hash_evals += other.hash_evals;
        self.distance_evals += other.distance_evals;
        self.pair_comparisons += other.pair_comparisons;
        self.bucket_inserts += other.bucket_inserts;
        self.transitive_calls += other.transitive_calls;
        self.transitive_reused += other.transitive_reused;
        self.pairwise_calls += other.pairwise_calls;
        self.pairwise_reused += other.pairwise_reused;
        self.rounds += other.rounds;
        self.modeled_cost += other.modeled_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Stats {
            hash_evals: 1,
            distance_evals: 2,
            pair_comparisons: 3,
            bucket_inserts: 4,
            transitive_calls: 5,
            transitive_reused: 1,
            pairwise_calls: 6,
            pairwise_reused: 2,
            rounds: 7,
            modeled_cost: 1.5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hash_evals, 2);
        assert_eq!(a.distance_evals, 4);
        assert_eq!(a.transitive_reused, 2);
        assert_eq!(a.pairwise_reused, 4);
        assert_eq!(a.rounds, 14);
        assert!((a.modeled_cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.hash_evals, 0);
        assert_eq!(s.modeled_cost, 0.0);
    }
}
