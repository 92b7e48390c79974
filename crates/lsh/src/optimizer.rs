//! Scheme selection: Program (1)–(3) of paper §5.1 and its extensions.
//!
//! Given a hash-function budget, a distance threshold `dthr`, a recall
//! slack `ε`, and the elementary collision-probability function `p(x)`,
//! choose the `(w, z)` of a scheme so that
//!
//! * **objective (1)** — `∫₀¹ [1 − (1 − pʷ(x))ᶻ] dx` is minimized (few
//!   far-pair collisions);
//! * **constraint (2)** — `w · z = budget`;
//! * **constraint (3)** — `1 − (1 − pʷ(dthr))ᶻ ≥ 1 − ε` (near pairs
//!   almost surely collide).
//!
//! As the paper observes, the objective decreases with `w` while the
//! constraint eventually breaks, so the rule is: take the **largest `w`
//! that still meets constraint (3)**. Three searches apply it:
//!
//! * [`SchemeOptimizer::optimize_le`] — `z = ⌊budget/w⌋`, remainder
//!   functions dropped (`w·z ≤ budget`). `adalsh-core`'s designer runs
//!   it for every single-field level, for the per-part growth of later
//!   OR-rule levels, and for the one level of the LSH-X baseline
//!   (§6.1.1);
//! * [`SchemeOptimizer::optimize_divisor`] — `w` restricted to divisors
//!   of the budget, found by binary search; the per-field solver of
//!   [`crate::multifield::optimize_or2`] (the first OR-rule level);
//! * [`SchemeOptimizer::optimize_exhausting`] — §5.1's non-integer
//!   `budget/w` extension: every `w` plus a remainder table, kept by
//!   minimum objective. No designer path runs it.

use crate::prob::{simpson, DEFAULT_INTERVALS};
use crate::scheme::{Scheme, WzScheme};

/// Inputs of the scheme-selection programs.
pub struct OptimizerInput<'a> {
    /// Total hash-function budget.
    pub budget: u64,
    /// Normalized distance threshold `dthr ∈ [0, 1]`.
    pub dthr: f64,
    /// Recall slack `ε` of constraint (3).
    pub epsilon: f64,
    /// Elementary collision probability `p(x)`, nonincreasing on `[0, 1]`.
    pub p: &'a dyn Fn(f64) -> f64,
    /// Lower bound on `w` (sequence monotonicity `wᵢ ≤ wᵢ₊₁`, §4.1).
    pub min_w: u32,
    /// Lower bound on `z` (sequence monotonicity `zᵢ ≤ zᵢ₊₁`, §4.1).
    pub min_z: u32,
}

impl<'a> OptimizerInput<'a> {
    /// Input with no monotonicity bounds.
    pub fn new(budget: u64, dthr: f64, epsilon: f64, p: &'a dyn Fn(f64) -> f64) -> Self {
        assert!(budget > 0, "budget must be positive");
        assert!((0.0..=1.0).contains(&dthr), "threshold outside [0,1]");
        assert!((0.0..1.0).contains(&epsilon), "epsilon outside [0,1)");
        Self {
            budget,
            dthr,
            epsilon,
            p,
            min_w: 1,
            min_z: 1,
        }
    }

    /// Sets the monotonicity lower bounds and returns `self`.
    pub fn with_min(mut self, min_w: u32, min_z: u32) -> Self {
        self.min_w = min_w.max(1);
        self.min_z = min_z.max(1);
        self
    }
}

/// Stateless namespace for the scheme-selection algorithms.
pub struct SchemeOptimizer;

impl SchemeOptimizer {
    /// The Program-(1) objective of a scheme: area under its
    /// collision-probability curve.
    pub fn objective(scheme: &Scheme, p: &dyn Fn(f64) -> f64) -> f64 {
        simpson(|x| scheme.collision_prob(p(x)), 0.0, 1.0, DEFAULT_INTERVALS)
    }

    /// Does constraint (3) hold for this scheme? Because `p` is
    /// nonincreasing and the curve is monotone in `p`, checking at `dthr`
    /// covers all `x ≤ dthr`.
    pub fn feasible(scheme: &Scheme, input: &OptimizerInput<'_>) -> bool {
        scheme.collision_prob((input.p)(input.dthr)) >= 1.0 - input.epsilon
    }

    /// Program (1)–(3) with `w` restricted to divisors of the budget:
    /// binary search for the **largest feasible divisor** `w` (the paper's
    /// §5.1 search). Honors `min_w`/`min_z`. Returns `None` when no
    /// divisor is feasible.
    pub fn optimize_divisor(input: &OptimizerInput<'_>) -> Option<WzScheme> {
        let divisors = divisors_of(input.budget);
        // Candidates satisfying the monotonicity bounds.
        let candidates: Vec<u32> = divisors
            .into_iter()
            .filter(|&w| {
                let z = (input.budget / u64::from(w)) as u32;
                w >= input.min_w && z >= input.min_z
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // Feasibility is monotone: true for small w, false past a cutoff.
        // Binary search the boundary.
        let feas = |w: u32| {
            let z = (input.budget / u64::from(w)) as u32;
            Self::feasible(&Scheme::pure(w, z), input)
        };
        if !feas(candidates[0]) {
            return None;
        }
        let (mut lo, mut hi) = (0usize, candidates.len() - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if feas(candidates[mid]) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let w = candidates[lo];
        Some(WzScheme::new(w, (input.budget / u64::from(w)) as u32))
    }

    /// Non-integer-`budget/w` extension (§5.1): exhaustive search over all
    /// `w ∈ [min_w, budget]`, each with `z = ⌊budget/w⌋` full tables plus a
    /// remainder table, keeping the feasible scheme with minimum objective.
    pub fn optimize_exhausting(input: &OptimizerInput<'_>) -> Option<Scheme> {
        let mut best: Option<(f64, Scheme)> = None;
        for w in u64::from(input.min_w)..=input.budget {
            let scheme = Scheme::exhausting(input.budget, w as u32);
            if scheme.z < input.min_z {
                continue;
            }
            if !Self::feasible(&scheme, input) {
                // p is nonincreasing in w at every x, so once infeasible,
                // all larger w are infeasible too.
                break;
            }
            let obj = Self::objective(&scheme, input.p);
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, scheme));
            }
        }
        best.map(|(_, s)| s)
    }

    /// The `w·z ≤ budget` search: the **largest** `w ≥ min_w` whose
    /// scheme `(w, ⌊budget/w⌋)` keeps `z ≥ min_z` and is
    /// [feasible](Self::feasible). Remainder functions are dropped, so a
    /// level uses *at most* its budget. The scan walks `w` up from
    /// `min_w` and stops at the first `w` that breaks a bound or
    /// constraint (3) — both only get worse as `w` grows — so for the
    /// result, `w + 1` is infeasible, under `min_z` or over the budget.
    /// Returns `None` when `min_w` itself fails.
    pub fn optimize_le(input: &OptimizerInput<'_>) -> Option<WzScheme> {
        let mut best = None;
        for w in u64::from(input.min_w)..=input.budget {
            let z = (input.budget / w) as u32;
            if z < input.min_z {
                break;
            }
            let scheme = WzScheme::new(w as u32, z);
            if !Self::feasible(&scheme.into(), input) {
                break;
            }
            best = Some(scheme);
        }
        best
    }
}

/// All divisors of `n`, ascending.
fn divisors_of(n: u64) -> Vec<u32> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d as u32);
            if d * d != n {
                large.push((n / d) as u32);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_p(x: f64) -> f64 {
        1.0 - x
    }

    #[test]
    fn divisors_correct() {
        assert_eq!(divisors_of(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors_of(1), vec![1]);
        assert_eq!(divisors_of(49), vec![1, 7, 49]);
    }

    #[test]
    fn example5_feasibility() {
        // Paper Example 5's setting: budget 2100, dthr = 15/180, ε = 0.001.
        // NOTE: the example's prose labels the pairs inconsistently with
        // the paper's own formulas; evaluating 1 − (1 − pʷ(dthr))ᶻ gives:
        //   (15, 140): prob ≈ 1        → feasible, largest objective area
        //   (30, 70):  prob ≈ 0.995    → infeasible at ε = 0.001
        //   (60, 35):  prob ≈ 0.17     → infeasible, smallest objective
        // which matches the paper's *algorithmic* statements ("the greater
        // w, the lower the objective"; "once the constraint fails for some
        // w it fails for all greater w"). We test the consistent math.
        let input = OptimizerInput::new(2100, 15.0 / 180.0, 0.001, &linear_p);
        let s15 = Scheme::pure(15, 140);
        let s30 = Scheme::pure(30, 70);
        let s60 = Scheme::pure(60, 35);
        assert!(SchemeOptimizer::feasible(&s15, &input));
        assert!(!SchemeOptimizer::feasible(&s30, &input));
        assert!(!SchemeOptimizer::feasible(&s60, &input));
        let o15 = SchemeOptimizer::objective(&s15, &linear_p);
        let o30 = SchemeOptimizer::objective(&s30, &linear_p);
        let o60 = SchemeOptimizer::objective(&s60, &linear_p);
        assert!(o60 < o30, "greater w ⇒ lower objective");
        assert!(o30 < o15, "greater w ⇒ lower objective");
    }

    #[test]
    fn divisor_search_picks_largest_feasible() {
        let input = OptimizerInput::new(2100, 15.0 / 180.0, 0.001, &linear_p);
        let s = SchemeOptimizer::optimize_divisor(&input).expect("feasible");
        assert_eq!(s.budget(), 2100);
        // Must be feasible…
        assert!(SchemeOptimizer::feasible(&s.into(), &input));
        // …and the next larger divisor must not be.
        let divisors = super::divisors_of(2100);
        let pos = divisors.iter().position(|&w| w == s.w).unwrap();
        if pos + 1 < divisors.len() {
            let w2 = divisors[pos + 1];
            let s2 = Scheme::pure(w2, 2100 / w2);
            assert!(!SchemeOptimizer::feasible(&s2, &input));
        }
        // Binary search must agree with linear scan.
        let linear_best = divisors
            .iter()
            .filter(|&&w| SchemeOptimizer::feasible(&Scheme::pure(w, 2100 / w), &input))
            .max()
            .copied()
            .unwrap();
        assert_eq!(s.w, linear_best);
    }

    #[test]
    fn optimize_respects_min_bounds() {
        let input = OptimizerInput::new(2100, 15.0 / 180.0, 0.001, &linear_p).with_min(1, 100);
        let s = SchemeOptimizer::optimize_divisor(&input).expect("feasible");
        assert!(s.z >= 100);
    }

    #[test]
    fn infeasible_when_epsilon_too_strict() {
        // A budget of 2 functions cannot guarantee near-certain collision
        // at a distance of 0.5 with ε = 1e-9.
        let input = OptimizerInput::new(2, 0.5, 1e-9, &linear_p);
        assert!(SchemeOptimizer::optimize_divisor(&input).is_none());
        assert!(SchemeOptimizer::optimize_exhausting(&input).is_none());
    }

    #[test]
    fn trivially_feasible_with_loose_epsilon() {
        let input = OptimizerInput::new(16, 0.1, 0.9, &linear_p);
        let s = SchemeOptimizer::optimize_divisor(&input).expect("feasible");
        assert!(SchemeOptimizer::feasible(&s.into(), &input));
    }

    #[test]
    fn exhausting_at_least_as_good_as_divisor() {
        let input = OptimizerInput::new(2100, 15.0 / 180.0, 0.001, &linear_p);
        let div = SchemeOptimizer::optimize_divisor(&input).unwrap();
        let exh = SchemeOptimizer::optimize_exhausting(&input).unwrap();
        let o_div = SchemeOptimizer::objective(&div.into(), &linear_p);
        let o_exh = SchemeOptimizer::objective(&exh, &linear_p);
        assert!(o_exh <= o_div + 1e-12);
        assert_eq!(exh.budget(), 2100);
    }

    #[test]
    fn optimize_le_respects_bounds() {
        let input = OptimizerInput::new(100, 0.4, 0.01, &linear_p).with_min(2, 5);
        let s = SchemeOptimizer::optimize_le(&input).unwrap();
        assert!(s.w >= 2 && s.z >= 5);
        assert!(s.budget() <= 100);
        assert!(SchemeOptimizer::feasible(&s.into(), &input));
        // A tiny budget with a strict ε has no feasible scheme.
        let strict = OptimizerInput::new(2, 0.5, 1e-12, &linear_p);
        assert!(SchemeOptimizer::optimize_le(&strict).is_none());
    }

    #[test]
    fn small_budget_20_is_solvable() {
        // adaLSH's first sequence function uses only 20 hash functions
        // (§6.1.1); the optimizer must produce something sensible.
        let input = OptimizerInput::new(20, 0.4, 0.05, &linear_p);
        let s = SchemeOptimizer::optimize_divisor(&input).expect("feasible");
        assert_eq!(s.budget(), 20);
    }

    #[test]
    fn feasibility_monotone_in_w() {
        // Empirically verify the monotonicity the binary search relies on.
        let input = OptimizerInput::new(720, 0.15, 0.01, &linear_p);
        let mut seen_infeasible = false;
        for w in 1..=720u64 {
            if 720 % w != 0 {
                continue;
            }
            let f = SchemeOptimizer::feasible(&Scheme::pure(w as u32, (720 / w) as u32), &input);
            if !f {
                seen_infeasible = true;
            }
            assert!(
                !(seen_infeasible && f),
                "feasibility must be monotone (violated at w={w})"
            );
        }
    }
}
