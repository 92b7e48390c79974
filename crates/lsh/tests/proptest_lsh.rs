//! Property-based tests for the LSH layer: amplification algebra, scheme
//! curves, and optimizer guarantees over arbitrary parameters.

use adalsh_lsh::construction::Sensitivity;
use adalsh_lsh::optimizer::{OptimizerInput, SchemeOptimizer};
use adalsh_lsh::scheme::{Scheme, WzScheme};
use adalsh_lsh::{HyperplaneFamily, MinHashFamily};
use proptest::prelude::*;

fn linear_p(x: f64) -> f64 {
    1.0 - x
}

proptest! {
    #[test]
    fn scheme_prob_in_unit_interval(w in 1u32..64, z in 1u32..256, p in 0.0f64..=1.0) {
        let c = WzScheme::new(w, z).collision_prob(p);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn scheme_prob_monotone_in_p(w in 1u32..32, z in 1u32..128, p in 0.0f64..0.99) {
        let s = WzScheme::new(w, z);
        prop_assert!(s.collision_prob(p + 0.01) >= s.collision_prob(p) - 1e-12);
    }

    #[test]
    fn more_tables_never_hurt_recall(w in 1u32..32, z in 1u32..64, p in 0.0f64..=1.0) {
        let a = WzScheme::new(w, z).collision_prob(p);
        let b = WzScheme::new(w, z + 1).collision_prob(p);
        prop_assert!(b >= a - 1e-12);
    }

    #[test]
    fn wider_tables_never_help_recall(w in 1u32..32, z in 1u32..64, p in 0.0f64..=1.0) {
        let a = WzScheme::new(w, z).collision_prob(p);
        let b = WzScheme::new(w + 1, z).collision_prob(p);
        prop_assert!(b <= a + 1e-12);
    }

    #[test]
    fn exhausting_scheme_accounts_budget(budget in 1u64..5000, w in 1u32..128) {
        prop_assume!(u64::from(w) <= budget);
        let s = Scheme::exhausting(budget, w);
        prop_assert_eq!(s.budget(), budget);
        // Table widths partition the budget.
        let total: u64 = (0..s.num_tables()).map(|t| u64::from(s.table_width(t))).sum();
        prop_assert_eq!(total, budget);
    }

    #[test]
    fn amplification_preserves_ordering(
        d1 in 0.01f64..0.4,
        gap in 0.1f64..0.5,
        w in 1u32..20,
        z in 1u32..100,
    ) {
        let s = Sensitivity::linear(d1, (d1 + gap).min(0.99));
        let amp = s.and_or(w, z);
        prop_assert!(amp.p1 >= amp.p2 - 1e-12, "p1 {} p2 {}", amp.p1, amp.p2);
    }

    #[test]
    fn optimizer_output_is_feasible_and_exact_budget(
        budget in 16u64..4096,
        dthr in 0.05f64..0.6,
        eps_exp in 1u32..5,
    ) {
        let epsilon = 10f64.powi(-(eps_exp as i32));
        let input = OptimizerInput::new(budget, dthr, epsilon, &linear_p);
        if let Some(s) = SchemeOptimizer::optimize_divisor(&input) {
            prop_assert_eq!(s.budget(), budget);
            prop_assert!(SchemeOptimizer::feasible(&s.into(), &input));
            // Optimality: no larger feasible divisor exists.
            for w in (s.w + 1)..=(budget as u32) {
                if budget % u64::from(w) == 0 {
                    let cand = Scheme::pure(w, (budget / u64::from(w)) as u32);
                    prop_assert!(
                        !SchemeOptimizer::feasible(&cand, &input),
                        "w={w} also feasible but larger than {}",
                        s.w
                    );
                    break; // monotonicity makes one check sufficient
                }
            }
        } else {
            // If no divisor works, w = 1 must itself be infeasible.
            let base = Scheme::pure(1, budget as u32);
            prop_assert!(!SchemeOptimizer::feasible(&base, &input));
        }
    }

    #[test]
    fn optimize_le_takes_the_largest_feasible_w(
        budget in 1u64..5000,
        dthr in 0.0f64..0.8,
        eps_exp in 1u32..7,
        min_w in 1u32..8,
        min_z in 1u32..64,
    ) {
        let epsilon = 10f64.powi(-(eps_exp as i32));
        let input = OptimizerInput::new(budget, dthr, epsilon, &linear_p).with_min(min_w, min_z);
        // `w` within budget, `z = ⌊budget/w⌋` above `min_z`, constraint (3) met.
        let fits = |w: u32| {
            let z = budget / u64::from(w);
            z >= u64::from(min_z)
                && SchemeOptimizer::feasible(&Scheme::pure(w, z as u32), &input)
        };
        match SchemeOptimizer::optimize_le(&input) {
            Some(s) => {
                prop_assert!(SchemeOptimizer::feasible(&s.into(), &input));
                prop_assert!(s.budget() <= budget);
                prop_assert!(s.w >= min_w && s.z >= min_z);
                prop_assert_eq!(u64::from(s.z), budget / u64::from(s.w));
                prop_assert!(!fits(s.w + 1), "w={} also fits", s.w + 1);
            }
            None => prop_assert!(!fits(min_w)),
        }
    }

    #[test]
    fn exhausting_never_worse_than_divisor(
        budget in 16u64..1024,
        dthr in 0.05f64..0.5,
    ) {
        let input = OptimizerInput::new(budget, dthr, 1e-3, &linear_p);
        let div = SchemeOptimizer::optimize_divisor(&input);
        let exh = SchemeOptimizer::optimize_exhausting(&input);
        if let (Some(d), Some(e)) = (div, exh) {
            let od = SchemeOptimizer::objective(&d.into(), &linear_p);
            let oe = SchemeOptimizer::objective(&e, &linear_p);
            prop_assert!(oe <= od + 1e-9, "exhausting {oe} vs divisor {od}");
        }
    }

    #[test]
    fn minhash_deterministic_and_order_free(
        mut set in prop::collection::vec(0u64..10_000, 1..80),
        idx in 0usize..256,
        seed in 0u64..1000,
    ) {
        let f = MinHashFamily::new(seed);
        let a = f.hash(idx, &set);
        set.reverse();
        prop_assert_eq!(f.hash(idx, &set), a);
    }

    #[test]
    fn minhash_of_superset_never_larger(
        set in prop::collection::vec(0u64..10_000, 1..40),
        extra in prop::collection::vec(0u64..10_000, 1..40),
        idx in 0usize..64,
    ) {
        // min over a superset can only be ≤ the subset's min.
        let f = MinHashFamily::new(7);
        let small = f.hash(idx, &set);
        let mut big = set.clone();
        big.extend(extra);
        prop_assert!(f.hash(idx, &big) <= small);
    }

    #[test]
    fn hyperplane_sign_flips_with_negation(
        v in prop::collection::vec(-10.0f64..10.0, 4..16),
        idx in 0usize..64,
    ) {
        prop_assume!(v.iter().any(|&x| x.abs() > 1e-6));
        let mut fam = HyperplaneFamily::new(v.len(), 3);
        fam.ensure_functions(idx + 1);
        let pos = fam.hash(idx, &v);
        let neg_v: Vec<f64> = v.iter().map(|x| -x).collect();
        let neg = fam.hash(idx, &neg_v);
        // Signs differ unless the dot product is exactly zero (measure
        // zero; the boundary convention maps 0 to the positive side, so
        // a zero dot makes both sides return 1).
        prop_assert!(pos != neg || pos == 1);
    }
}
