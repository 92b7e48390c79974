//! Multi-field hashing schemes: AND rules, OR rules, weighted averages.
//!
//! Paper Appendix C extends the `(w,z)`-scheme machinery to records with
//! several fields:
//!
//! * **AND rules** (C.1) — every table concatenates `wᵢ` hash values from
//!   each field `i`; collision probability
//!   `1 − (1 − ∏ᵢ pᵢ^{wᵢ})ᶻ`; parameters chosen by Program (4)–(6).
//! * **OR rules** (C.2) — each field gets its own group of tables;
//!   collision probability `1 − ∏ᵢ (1 − pᵢ^{wᵢ})^{zᵢ}`; parameters chosen
//!   by Program (7)–(10).
//! * **Weighted-average rules** (C.3) — a plain `(w,z)`-scheme whose
//!   elementary functions are drawn by the two-step selection of
//!   Definition 7; Theorem 3 shows the induced family has
//!   `p(x̄) = 1 − d̄`, so the single-field optimizer applies unchanged.

use serde::{Deserialize, Serialize};

use crate::mix::derive_seed;
use crate::optimizer::{OptimizerInput, SchemeOptimizer};
use crate::prob::{simpson2, DEFAULT_INTERVALS};
use crate::scheme::WzScheme;

/// Per-field inputs of the multi-field programs.
pub struct FieldSpec<'a> {
    /// The field's distance threshold (constraint (6)/(9)/(10)).
    pub dthr: f64,
    /// The field's elementary collision probability `pᵢ(x)`.
    pub p: &'a dyn Fn(f64) -> f64,
}

// ---------------------------------------------------------------------------
// AND rules
// ---------------------------------------------------------------------------

/// An AND-rule scheme: `z` tables, each concatenating `ws[i]` hash values
/// from field `i` (paper Appendix C.1; `ws = [w, u]` in the two-field
/// exposition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AndScheme {
    /// Hash functions per table drawn from each field's family.
    pub ws: Vec<u32>,
    /// Number of tables.
    pub z: u32,
}

impl AndScheme {
    /// Creates a scheme.
    ///
    /// # Panics
    /// Panics if any count is zero or `ws` is empty.
    pub fn new(ws: Vec<u32>, z: u32) -> Self {
        assert!(!ws.is_empty() && z > 0);
        assert!(ws.iter().all(|&w| w > 0), "all per-field widths positive");
        Self { ws, z }
    }

    /// Total budget `(Σ wᵢ) · z` (constraint (5)).
    pub fn budget(&self) -> u64 {
        self.ws.iter().map(|&w| u64::from(w)).sum::<u64>() * u64::from(self.z)
    }

    /// Collision probability `1 − (1 − ∏ pᵢ^{wᵢ})ᶻ` given per-field
    /// elementary probabilities.
    ///
    /// # Panics
    /// Panics if `ps.len() != ws.len()`.
    pub fn collision_prob(&self, ps: &[f64]) -> f64 {
        assert_eq!(ps.len(), self.ws.len());
        let prod: f64 = ps
            .iter()
            .zip(&self.ws)
            .map(|(&p, &w)| p.powi(w as i32))
            .product();
        1.0 - (1.0 - prod).powi(self.z as i32)
    }

    /// Does constraint (6) hold at the per-field thresholds?
    pub fn feasible(&self, fields: &[FieldSpec<'_>], epsilon: f64) -> bool {
        let ps: Vec<f64> = fields.iter().map(|f| (f.p)(f.dthr)).collect();
        self.collision_prob(&ps) >= 1.0 - epsilon
    }

    /// The Program-(4) objective `∫∫ [1 − (1 − ∏ pᵢ^{wᵢ})ᶻ] dx₁dx₂` for
    /// two fields (the paper's exposition, and the only AND arity the
    /// designer accepts).
    pub fn objective2(&self, fields: &[FieldSpec<'_>]) -> f64 {
        assert_eq!(self.ws.len(), 2, "objective2 requires exactly two fields");
        assert_eq!(fields.len(), 2);
        simpson2(
            |x1, x2| self.collision_prob(&[(fields[0].p)(x1), (fields[1].p)(x2)]),
            DEFAULT_INTERVALS / 4,
        )
    }
}

/// Solves Program (4)–(6) for a two-field AND rule: enumerate table
/// widths `s = w + u` with `z = ⌊budget/s⌋` and compositions of `s`,
/// keep the feasible scheme with minimum objective. `min_ws`/`min_z`
/// carry the incremental-computation constraints `w ≥ w′`, `u ≥ u′`
/// discussed at the end of Appendix C.1.
///
/// Deviation from the paper's equality constraint (5): we relax to
/// `(w+u)·z ≤ budget` with at least 7/8 of the budget used. Insisting on
/// exact divisibility leaves whole budget values with only degenerate
/// compositions (e.g. budget 320 admits no `w+u = 3` scheme), which
/// produces needlessly blunt levels mid-sequence.
pub fn optimize_and2(
    budget: u64,
    fields: &[FieldSpec<'_>; 2],
    epsilon: f64,
    min_ws: [u32; 2],
    min_z: u32,
) -> Option<AndScheme> {
    let min_ws = [min_ws[0].max(1), min_ws[1].max(1)];
    let mut best: Option<(f64, AndScheme)> = None;
    for s in u64::from(min_ws[0] + min_ws[1])..=budget {
        let z = (budget / s) as u32;
        if z < min_z.max(1) {
            break;
        }
        if s * u64::from(z) * 8 < budget * 7 {
            continue; // too much budget left unused
        }
        // Enumerate w (field 0's width); coarsen for very large s — the
        // objective varies slowly in the composition and we only need a
        // near-optimal scheme.
        let s = s as u32;
        let step = (s / 128).max(1);
        let mut w = min_ws[0];
        while w + min_ws[1] <= s {
            let u = s - w;
            let cand = AndScheme::new(vec![w, u], z);
            if cand.feasible(fields, epsilon) {
                let obj = cand.objective2(fields);
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, cand));
                }
            }
            w += step;
        }
    }
    best.map(|(_, s)| s)
}

// ---------------------------------------------------------------------------
// OR rules
// ---------------------------------------------------------------------------

/// An OR-rule scheme: field `i` gets its own `(wᵢ, zᵢ)` group of tables
/// (paper Appendix C.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrScheme {
    /// Per-field `(w, z)` schemes.
    pub parts: Vec<WzScheme>,
}

impl OrScheme {
    /// Total budget `Σ wᵢ·zᵢ` (constraint (8)).
    pub fn budget(&self) -> u64 {
        self.parts.iter().map(WzScheme::budget).sum()
    }

    /// Collision probability `1 − ∏ (1 − pᵢ^{wᵢ})^{zᵢ}`.
    pub fn collision_prob(&self, ps: &[f64]) -> f64 {
        assert_eq!(ps.len(), self.parts.len());
        let none: f64 = ps
            .iter()
            .zip(&self.parts)
            .map(|(&p, s)| (1.0 - p.powi(s.w as i32)).powi(s.z as i32))
            .product();
        1.0 - none
    }

    /// Constraints (9)–(10): *each field's own* scheme must nearly-surely
    /// collide at that field's threshold.
    pub fn feasible(&self, fields: &[FieldSpec<'_>], epsilon: f64) -> bool {
        self.parts
            .iter()
            .zip(fields)
            .all(|(s, f)| s.collision_prob((f.p)(f.dthr)) >= 1.0 - epsilon)
    }

    /// The Program-(7) objective for two fields.
    pub fn objective2(&self, fields: &[FieldSpec<'_>]) -> f64 {
        assert_eq!(self.parts.len(), 2);
        simpson2(
            |x1, x2| self.collision_prob(&[(fields[0].p)(x1), (fields[1].p)(x2)]),
            DEFAULT_INTERVALS / 4,
        )
    }
}

/// Solves Program (7)–(10) for a two-field OR rule: enumerate budget
/// splits `b₁ + b₂ = budget`, solve each field's single-field program for
/// its share, keep the feasible pair with minimum joint objective.
pub fn optimize_or2(
    budget: u64,
    fields: &[FieldSpec<'_>; 2],
    epsilon: f64,
    min_parts: [(u32, u32); 2],
) -> Option<OrScheme> {
    let mut best: Option<(f64, OrScheme)> = None;
    let step = (budget / 64).max(1);
    let mut b1 = 1u64;
    while b1 < budget {
        let b2 = budget - b1;
        let in1 = OptimizerInput::new(b1, fields[0].dthr, epsilon, fields[0].p)
            .with_min(min_parts[0].0, min_parts[0].1);
        let in2 = OptimizerInput::new(b2, fields[1].dthr, epsilon, fields[1].p)
            .with_min(min_parts[1].0, min_parts[1].1);
        if let (Some(s1), Some(s2)) = (
            SchemeOptimizer::optimize_divisor(&in1),
            SchemeOptimizer::optimize_divisor(&in2),
        ) {
            let cand = OrScheme {
                parts: vec![s1, s2],
            };
            if cand.feasible(fields, epsilon) {
                let obj = cand.objective2(fields);
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, cand));
                }
            }
        }
        b1 += step;
    }
    best.map(|(_, s)| s)
}

// ---------------------------------------------------------------------------
// Weighted-average rules
// ---------------------------------------------------------------------------

/// Definition 7's two-step function selection for weighted-average rules:
/// hash function `j` first picks a field with probability `αᵢ`, then an
/// elementary function of that field's family. The selection is a pure
/// function of `(seed, j)`, preserving incremental computation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedSelection {
    /// Cumulative weight boundaries (last entry is 1.0).
    cdf: Vec<f64>,
    seed: u64,
}

impl WeightedSelection {
    /// Creates a selection over fields with the given weights.
    ///
    /// # Panics
    /// Panics if weights are empty, non-positive, or don't sum to 1
    /// (within `1e-9`).
    pub fn new(weights: &[f64], seed: u64) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights must sum to 1");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf, seed }
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.cdf.len()
    }

    /// The field sampled for hash function `fn_index` (step (a) of
    /// Definition 7).
    pub fn field_for(&self, fn_index: usize) -> usize {
        let r = derive_seed(self.seed, fn_index as u64) as f64 / u64::MAX as f64;
        self.cdf
            .iter()
            .position(|&c| r < c)
            .unwrap_or(self.cdf.len() - 1)
    }

    /// Theorem 3's collision probability for the induced family at
    /// weighted distance `d̄`: `1 − d̄` when every per-field family has
    /// `pᵢ(x) = 1 − x`.
    pub fn collision_prob(d_bar: f64) -> f64 {
        1.0 - d_bar
    }

    /// Theorem 4's sensitivity mixture: given per-field probabilities
    /// `pᵢ` (each field's family evaluated at its own distance), the
    /// induced family's collision probability is `Σ αᵢ pᵢ`.
    pub fn mixture_prob(&self, per_field: &[f64]) -> f64 {
        assert_eq!(per_field.len(), self.cdf.len());
        let mut prev = 0.0;
        self.cdf
            .iter()
            .zip(per_field)
            .map(|(&c, &p)| {
                let alpha = c - prev;
                prev = c;
                alpha * p
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(x: f64) -> f64 {
        1.0 - x
    }

    #[test]
    fn and_scheme_probability_formula() {
        // 1 − (1 − p₁ʷ p₂ᵘ)ᶻ with w=2, u=3, z=4.
        let s = AndScheme::new(vec![2, 3], 4);
        let (p1, p2): (f64, f64) = (0.9, 0.8);
        let expected = 1.0 - (1.0 - p1.powi(2) * p2.powi(3)).powi(4);
        assert!((s.collision_prob(&[p1, p2]) - expected).abs() < 1e-15);
        assert_eq!(s.budget(), 20);
    }

    #[test]
    fn and_optimizer_returns_feasible_near_budget() {
        let fields = [
            FieldSpec {
                dthr: 0.3,
                p: &linear,
            },
            FieldSpec {
                dthr: 0.2,
                p: &linear,
            },
        ];
        let s = optimize_and2(240, &fields, 0.01, [1, 1], 1).expect("feasible");
        assert!(s.budget() <= 240);
        assert!(s.budget() * 8 >= 240 * 7, "must use ≥ 7/8 of the budget");
        assert!(s.feasible(&fields, 0.01));
    }

    #[test]
    fn and_optimizer_honors_minimums() {
        let fields = [
            FieldSpec {
                dthr: 0.3,
                p: &linear,
            },
            FieldSpec {
                dthr: 0.2,
                p: &linear,
            },
        ];
        let s = optimize_and2(480, &fields, 0.01, [3, 2], 2).expect("feasible");
        assert!(s.ws[0] >= 3 && s.ws[1] >= 2 && s.z >= 2);
    }

    #[test]
    fn and_optimizer_infeasible_for_tiny_budget() {
        let fields = [
            FieldSpec {
                dthr: 0.5,
                p: &linear,
            },
            FieldSpec {
                dthr: 0.5,
                p: &linear,
            },
        ];
        assert!(optimize_and2(2, &fields, 1e-9, [1, 1], 1).is_none());
    }

    #[test]
    fn or_scheme_probability_formula() {
        let s = OrScheme {
            parts: vec![WzScheme::new(2, 3), WzScheme::new(4, 5)],
        };
        let (p1, p2): (f64, f64) = (0.7, 0.9);
        let expected = 1.0 - (1.0 - p1.powi(2)).powi(3) * (1.0 - p2.powi(4)).powi(5);
        assert!((s.collision_prob(&[p1, p2]) - expected).abs() < 1e-15);
        assert_eq!(s.budget(), 26);
    }

    #[test]
    fn or_optimizer_feasible_and_within_budget() {
        let fields = [
            FieldSpec {
                dthr: 0.3,
                p: &linear,
            },
            FieldSpec {
                dthr: 0.15,
                p: &linear,
            },
        ];
        let s = optimize_or2(512, &fields, 0.01, [(1, 1), (1, 1)]).expect("feasible");
        assert!(s.budget() <= 512);
        assert!(s.feasible(&fields, 0.01));
    }

    #[test]
    fn or_feasibility_is_per_field() {
        // A scheme whose second part is hopeless must be infeasible even
        // if the first part is strong.
        let s = OrScheme {
            parts: vec![WzScheme::new(1, 200), WzScheme::new(64, 1)],
        };
        let fields = [
            FieldSpec {
                dthr: 0.2,
                p: &linear,
            },
            FieldSpec {
                dthr: 0.2,
                p: &linear,
            },
        ];
        assert!(!s.feasible(&fields, 0.001));
    }

    #[test]
    fn weighted_selection_matches_weights() {
        let sel = WeightedSelection::new(&[0.25, 0.75], 42);
        let n = 40_000;
        let ones = (0..n).filter(|&i| sel.field_for(i) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn weighted_selection_deterministic() {
        let a = WeightedSelection::new(&[0.5, 0.5], 7);
        let b = WeightedSelection::new(&[0.5, 0.5], 7);
        for i in 0..100 {
            assert_eq!(a.field_for(i), b.field_for(i));
        }
    }

    #[test]
    fn mixture_prob_theorem4() {
        let sel = WeightedSelection::new(&[0.3, 0.7], 0);
        let p = sel.mixture_prob(&[0.9, 0.5]);
        assert!((p - (0.3 * 0.9 + 0.7 * 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weighted_selection_rejects_bad_weights() {
        let _ = WeightedSelection::new(&[0.3, 0.3], 0);
    }
}
