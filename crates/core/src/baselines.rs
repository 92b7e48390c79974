//! Baseline filtering methods (paper §6.1.1, Appendix E.1).
//!
//! * [`Pairs`] — the pairwise computation function `P` on the whole
//!   dataset, with the transitive-closure skipping optimization; the
//!   traditional exact approach.
//! * [`LshBlocking`] — `LSH-X` blocking: a *single* stage of `X` hash
//!   functions per record with the optimal `(w, z)` such that `w·z ≤ X`,
//!   followed (unless `nP`) by `P`-verification of candidate clusters
//!   with all three fairness optimizations of §6.1.1: early termination
//!   once `k` verified clusters beat everything unverified, skipping
//!   transitively-closed pairs, and the same data structures as adaLSH.
//!
//! `LSH-X` is realized as a one-level [`AdaLsh`] engine —
//! `require_pairwise_final` gives exactly the verify-largest-first-and-
//! stop-early behaviour — so the baselines share every data structure
//! with the main algorithm, as the paper's comparison demands.

use adalsh_data::{MatchRule, RecordStore};

use crate::algorithm::{
    canonical_order, default_threads, AdaLsh, AdaLshConfig, FilterMethod, FilterOutput,
};
use crate::pairwise::apply_pairwise;
use crate::sequence::{BudgetStrategy, SequenceSpec};
use crate::stats::Stats;

/// The `Pairs` baseline: exact transitive closure over the whole dataset.
#[derive(Debug, Clone)]
pub struct Pairs {
    rule: MatchRule,
    threads: usize,
}

impl Pairs {
    /// Creates the baseline for a rule.
    pub fn new(rule: MatchRule) -> Self {
        Self {
            rule,
            threads: default_threads(),
        }
    }

    /// Overrides the worker-thread count for `P` (output and `Stats` are
    /// identical at any count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl FilterMethod for Pairs {
    fn name(&self) -> String {
        "Pairs".to_string()
    }

    fn filter(&mut self, store: &dyn RecordStore, k: usize) -> FilterOutput {
        let start = std::time::Instant::now();
        let mut stats = Stats::default();
        let all: Vec<u32> = (0..store.len() as u32).collect();
        let mut clusters = apply_pairwise(store, &self.rule, &all, self.threads, &mut stats);
        canonical_order(&mut clusters);
        clusters.truncate(k);
        FilterOutput {
            clusters,
            stats,
            wall: start.elapsed(),
            oracle: None,
        }
    }
}

/// The `LSH-X` blocking baseline (optionally without the `P` stage).
pub struct LshBlocking {
    rule: MatchRule,
    /// Hash-function budget `X` applied to **every** record.
    x: u64,
    /// Apply `P` verification after the hashing stage (`false` = the
    /// `LSH-X-nP` variant of Appendix E.1).
    apply_p: bool,
    epsilon: f64,
    seed: u64,
    /// Worker-thread override for the underlying engine; `None` keeps the
    /// engine's default ([`default_threads`]).
    threads: Option<usize>,
}

impl LshBlocking {
    /// Creates `LSH-X` (with `P` verification).
    pub fn new(rule: MatchRule, x: u64) -> Self {
        Self {
            rule,
            x,
            apply_p: true,
            epsilon: 1e-3,
            seed: 0x5EED,
            threads: None,
        }
    }

    /// Creates `LSH-X-nP` (no `P` stage; Appendix E.1).
    pub fn without_pairwise(rule: MatchRule, x: u64) -> Self {
        Self {
            apply_p: false,
            ..Self::new(rule, x)
        }
    }

    /// Overrides the constraint slack ε used when shaping `(w, z)`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the hashing seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count (output and `Stats` are
    /// identical at any count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the single-level engine for a record store. Errs when `X`
    /// is 0 or no `(w, z)` with `w·z ≤ X` meets constraint (3) for the
    /// rule; [`FilterMethod::filter`] panics in those cases, so callers
    /// that take `X` from input build the engine here first.
    pub fn engine(&self, store: &dyn RecordStore) -> Result<AdaLsh, String> {
        let mut config = AdaLshConfig::new(self.rule.clone());
        config.spec = SequenceSpec {
            epsilon: self.epsilon,
            // A single level of budget exactly X.
            strategy: BudgetStrategy::Linear { step: self.x },
            max_budget: self.x,
            seed: self.seed,
        };
        config.require_pairwise_final = self.apply_p;
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        // LSH-X applies exactly X functions per record — never extend.
        config.scale_max_budget = false;
        AdaLsh::for_dataset(store, config)
    }
}

impl FilterMethod for LshBlocking {
    fn name(&self) -> String {
        if self.apply_p {
            format!("LSH{}", self.x)
        } else {
            format!("LSH{}nP", self.x)
        }
    }

    fn filter(&mut self, store: &dyn RecordStore, k: usize) -> FilterOutput {
        let mut engine = self
            .engine(store)
            .expect("LSH-X scheme must be designable for the rule");
        debug_assert_eq!(engine.num_levels(), 1, "LSH-X is single-stage");
        engine.run(store, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet};

    fn planted(sizes: &[usize]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let mut records = Vec::new();
        let mut gt = Vec::new();
        for (e, &sz) in sizes.iter().enumerate() {
            let base: Vec<u64> = (0..20).map(|i| (e as u64) * 1000 + i).collect();
            for r in 0..sz {
                let mut s = base.clone();
                s.push((e as u64) * 1000 + 500 + (r as u64 % 5));
                records.push(Record::single(FieldValue::Shingles(ShingleSet::new(s))));
                gt.push(e as u32);
            }
        }
        Dataset::new(schema, records, gt)
    }

    fn rule() -> MatchRule {
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
    }

    #[test]
    fn pairs_is_exact() {
        let d = planted(&[10, 6, 3, 1]);
        let out = Pairs::new(rule()).filter(&d, 2);
        assert_eq!(out.clusters.len(), 2);
        assert_eq!(out.records(), d.gold_records(2));
        assert!(out.stats.hash_evals == 0, "Pairs never hashes");
        assert!(out.stats.pair_comparisons > 0);
    }

    #[test]
    fn pairs_name() {
        assert_eq!(Pairs::new(rule()).name(), "Pairs");
    }

    #[test]
    fn lsh_x_matches_pairs_output() {
        let d = planted(&[12, 7, 4, 2, 1]);
        let gold = Pairs::new(rule()).filter(&d, 3).records();
        let out = LshBlocking::new(rule(), 640).filter(&d, 3);
        assert_eq!(out.records(), gold);
        assert!(out.stats.pairwise_calls > 0, "LSH-X verifies with P");
    }

    #[test]
    fn lsh_x_hashes_every_record_once() {
        let d = planted(&[8, 5, 2]);
        let n = d.len() as u64;
        let out = LshBlocking::new(rule(), 320).filter(&d, 2);
        // Single stage: every record hashed with the same budget ≤ X.
        assert!(out.stats.hash_evals <= 320 * n);
        assert!(out.stats.hash_evals >= 320 * n / 2, "budget mostly used");
        assert_eq!(out.stats.transitive_calls, 1, "exactly one hashing stage");
    }

    #[test]
    fn lsh_x_np_skips_verification() {
        let d = planted(&[8, 5, 2]);
        let out = LshBlocking::without_pairwise(rule(), 320).filter(&d, 2);
        assert_eq!(out.stats.pairwise_calls, 0);
        assert_eq!(out.stats.pair_comparisons, 0);
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(LshBlocking::new(rule(), 1280).name(), "LSH1280");
        assert_eq!(LshBlocking::without_pairwise(rule(), 20).name(), "LSH20nP");
    }

    #[test]
    fn tiny_budget_np_is_coarse_but_total() {
        // LSH20nP must still output k clusters covering a superset/subset
        // of records without crashing — accuracy is allowed to drop
        // (that is the point of Figure 20).
        let d = planted(&[10, 6, 3, 2, 1]);
        let out = LshBlocking::without_pairwise(rule(), 20).filter(&d, 2);
        assert!(!out.clusters.is_empty());
    }
}
