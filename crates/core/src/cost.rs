//! The cost model of Algorithm 1 (paper Definition 3, Appendix E.2).
//!
//! The model assigns `costᵢ` to "one record advanced to sequence level
//! `i` from scratch" and `cost_P` to "one pairwise comparison". The
//! gate on Line 5 of Algorithm 1 compares the *incremental* hashing cost
//! `(costₜ₊₁ − costₜ)·|C|` against the pairwise cost
//! `cost_P · |C|·(|C|−1)/2` and jumps ahead to `P` when hashing no longer
//! pays.
//!
//! The model is built by [`CostModel::analytic`]: it counts elementary
//! hash evaluations weighted by per-evaluation work (vector dimension for
//! hyperplanes, mean shingle-set size for MinHash — sampled from the
//! data), and likewise for distances. It is deterministic, so the gate's
//! decisions, and with them every output and `Stats` counter, are the
//! same on every machine and every build. The paper estimates the costs
//! from 100 wall-clock samples instead; such a model would make the
//! output depend on the host's timing, so there is none.
//!
//! The `noise_factor` multiplies `cost_P` inside the gate only, to
//! reproduce the sensitivity experiment of Appendix E.2 (Figure 21).

use adalsh_data::{FieldDistance, FieldKind, MatchRule, RecordStore};

use crate::hashing::{HashPart, LevelScheme, SequenceHasher};

/// The cost model driving Algorithm 1's jump-ahead gate.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// `level_cost[i]` = cost of advancing one record from scratch to
    /// level `i`; `level_cost[0] == 0`.
    pub level_cost: Vec<f64>,
    /// Cost of one pairwise comparison.
    pub cost_p: f64,
    /// Gate-only multiplier on `cost_p` (Appendix E.2's noise factor;
    /// `1.0` = clean model).
    pub noise_factor: f64,
}

impl CostModel {
    /// Builds the deterministic analytic model for a hasher and rule over
    /// a dataset. Unit costs are "elementary arithmetic operations":
    /// a hyperplane evaluation costs `dim`, a MinHash evaluation costs
    /// the mean shingle-set size of its field (sampled, up to 256
    /// records), a weighted part costs the weight-mean of its choices.
    pub fn analytic(hasher: &SequenceHasher, store: &dyn RecordStore, rule: &MatchRule) -> Self {
        let field_size = |field: usize| -> f64 {
            let n = store.len().min(256);
            if n == 0 {
                return 1.0;
            }
            let total: usize = (0..n)
                .map(|i| match store.schema().fields()[field].kind {
                    FieldKind::Dense => store.field(i as u32, field).as_dense().len(),
                    FieldKind::Shingles => store.field(i as u32, field).as_shingles().len().max(1),
                })
                .sum();
            total as f64 / n as f64
        };
        // Per-elementary-evaluation unit cost of each hash part.
        fn part_unit(part: &HashPart, field_size: &dyn Fn(usize) -> f64) -> f64 {
            match part {
                HashPart::Dense { field, .. } | HashPart::Shingles { field, .. } => {
                    field_size(*field)
                }
                HashPart::Weighted { choices, .. } => {
                    // Uniform over choices is close enough for a gate
                    // heuristic; exact weights would need the selection's
                    // internals.
                    choices
                        .iter()
                        .map(|c| part_unit(c, field_size))
                        .sum::<f64>()
                        / choices.len() as f64
                }
            }
        }
        let units: Vec<f64> = hasher
            .parts()
            .iter()
            .map(|p| part_unit(p, &field_size))
            .collect();

        let mut level_cost = vec![0.0];
        for level in hasher.levels() {
            let cost = match level {
                LevelScheme::Shared { ws, z } => ws
                    .iter()
                    .enumerate()
                    .map(|(p, &w)| f64::from(w) * f64::from(*z) * units[p])
                    .sum(),
                LevelScheme::PerPart { parts } => parts
                    .iter()
                    .enumerate()
                    .map(|(p, s)| s.budget() as f64 * units[p])
                    .sum(),
            };
            level_cost.push(cost);
        }

        // Pairwise cost: every elementary distance touches its field's
        // data once (merge pass ≈ 2·size for Jaccard, dim for cosine).
        fn rule_cost(rule: &MatchRule, field_size: &dyn Fn(usize) -> f64) -> f64 {
            match rule {
                MatchRule::Threshold { field, metric, .. } => match metric {
                    FieldDistance::Jaccard => 2.0 * field_size(*field),
                    FieldDistance::Angular => field_size(*field),
                },
                MatchRule::And(subs) | MatchRule::Or(subs) => {
                    subs.iter().map(|r| rule_cost(r, field_size)).sum()
                }
                MatchRule::WeightedAverage { parts, .. } => parts
                    .iter()
                    .map(|p| match p.metric {
                        FieldDistance::Jaccard => 2.0 * field_size(p.field),
                        FieldDistance::Angular => field_size(p.field),
                    })
                    .sum(),
            }
        }
        let cost_p = rule_cost(rule, &field_size);
        Self {
            level_cost,
            cost_p,
            noise_factor: 1.0,
        }
    }

    /// Sets the Appendix-E.2 noise factor and returns `self`.
    pub fn with_noise(mut self, noise_factor: f64) -> Self {
        assert!(noise_factor > 0.0, "noise factor must be positive");
        self.noise_factor = noise_factor;
        self
    }

    /// Number of levels the model covers.
    pub fn num_levels(&self) -> usize {
        self.level_cost.len() - 1
    }

    /// Algorithm 1, Line 5: should a cluster of `size` records at level
    /// `t` jump ahead to `P` instead of applying `H_{t+1}`?
    /// `(costₜ₊₁ − costₜ)·|C| ≥ cost_P·nf·(|C| choose 2)`.
    ///
    /// # Panics
    /// Panics if `t + 1` exceeds the modeled levels.
    pub fn jump_to_pairwise(&self, t: usize, size: usize) -> bool {
        assert!(t + 1 < self.level_cost.len(), "level out of range");
        let delta = self.level_cost[t + 1] - self.level_cost[t];
        let pairs = size as f64 * (size as f64 - 1.0) / 2.0;
        delta * size as f64 >= self.cost_p * self.noise_factor * pairs
    }

    /// Modeled incremental cost of hashing `size` records from level `t`
    /// to `t + 1` (for the Definition-3 ledger in [`Stats`](crate::stats::Stats)).
    pub fn hash_increment_cost(&self, t: usize, size: usize) -> f64 {
        (self.level_cost[t + 1] - self.level_cost[t]) * size as f64
    }

    /// Modeled cost of `P` on a cluster of `size` records (all pairs,
    /// conservatively — Definition 3).
    pub fn pairwise_cost(&self, size: usize) -> f64 {
        self.cost_p * size as f64 * (size as f64 - 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::{Dataset, FieldValue, Record, Schema, ShingleSet};

    fn shingle_dataset(sets: &[&[u64]]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records = sets
            .iter()
            .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec()))))
            .collect();
        let gt = (0..sets.len() as u32).collect();
        Dataset::new(schema, records, gt)
    }

    fn simple_setup() -> (SequenceHasher, Dataset, MatchRule) {
        let d = shingle_dataset(&[&[1, 2, 3, 4], &[5, 6, 7, 8], &[1, 2]]);
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, 1)],
            vec![
                LevelScheme::Shared { ws: vec![1], z: 10 },
                LevelScheme::Shared { ws: vec![2], z: 10 },
            ],
        );
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        (h, d, rule)
    }

    #[test]
    fn analytic_levels_scale_with_budget() {
        let (h, d, rule) = simple_setup();
        let m = CostModel::analytic(&h, &d, &rule);
        assert_eq!(m.num_levels(), 2);
        assert_eq!(m.level_cost[0], 0.0);
        // Level 2 budget (20) is double level 1 (10) ⇒ double the cost.
        assert!((m.level_cost[2] / m.level_cost[1] - 2.0).abs() < 1e-9);
        assert!(m.cost_p > 0.0);
    }

    #[test]
    fn gate_prefers_pairwise_for_small_clusters() {
        let (h, d, rule) = simple_setup();
        let m = CostModel::analytic(&h, &d, &rule);
        // A 2-record cluster: hashing 2 records 10 more functions each
        // beats 1 comparison only if the comparison is very expensive —
        // with these numbers the gate must fire (P is cheaper).
        assert!(m.jump_to_pairwise(1, 2));
        // A 1-record cluster: zero pairs ⇒ always jump (P is free).
        assert!(m.jump_to_pairwise(1, 1));
    }

    #[test]
    fn gate_prefers_hashing_for_large_clusters() {
        let (h, d, rule) = simple_setup();
        let m = CostModel::analytic(&h, &d, &rule);
        // Pair count grows quadratically: for 10_000 records hashing wins.
        assert!(!m.jump_to_pairwise(1, 10_000));
    }

    #[test]
    fn noise_factor_shifts_the_gate() {
        let (h, d, rule) = simple_setup();
        let m = CostModel::analytic(&h, &d, &rule);
        // Find a size where the clean gate says "hash".
        let size = (2..100_000)
            .find(|&s| !m.jump_to_pairwise(1, s))
            .expect("gate flips somewhere");
        // Heavily under-estimating P (nf = 1/5) makes P look cheap ⇒ jump.
        let noisy = m.clone().with_noise(0.02);
        assert!(noisy.jump_to_pairwise(1, size));
        // Over-estimating P (nf = 5) keeps hashing even longer.
        let (h2, d2, rule2) = simple_setup();
        let m2 = CostModel::analytic(&h2, &d2, &rule2).with_noise(5.0);
        assert!(!m2.jump_to_pairwise(1, size));
        let _ = (h, d, rule, m2, d2, rule2, h2);
    }

    #[test]
    fn ledger_helpers() {
        let m = CostModel {
            level_cost: vec![0.0, 1.0, 3.0],
            cost_p: 0.5,
            noise_factor: 1.0,
        };
        assert!((m.hash_increment_cost(1, 10) - 20.0).abs() < 1e-12);
        assert!((m.pairwise_cost(4) - 3.0).abs() < 1e-12);
        assert_eq!(m.pairwise_cost(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn gate_beyond_last_level_panics() {
        let m = CostModel {
            level_cost: vec![0.0, 1.0],
            cost_p: 0.5,
            noise_factor: 1.0,
        };
        let _ = m.jump_to_pairwise(1, 5);
    }
}
