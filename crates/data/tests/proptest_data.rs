//! Property-based tests for the record model: metric axioms and
//! representation invariants that must hold for arbitrary inputs.

use adalsh_data::shingle::{
    intersection_size_galloping, intersection_size_merge, overlap_bound, sketch, sketch_bit,
    GALLOP_RATIO, SKETCH_BITS,
};
use adalsh_data::vector::{self, NO_PIVOTS};
use adalsh_data::{
    Dataset, DenseVector, Exit, ExitCounts, FieldDistance, FieldKind, FieldRef, FieldValue,
    KernelTally, MatchRule, Operand, Record, Schema, ShingleSet,
};
use proptest::prelude::*;

/// Jaccard distance through the metric's exact entry point.
fn jaccard(a: &ShingleSet, b: &ShingleSet) -> f64 {
    let (a, b) = (
        FieldRef::Shingles(a.shingles()),
        FieldRef::Shingles(b.shingles()),
    );
    FieldDistance::Jaccard.distance(a, b, 0.0, 0.0)
}

/// Angular distance through the metric's exact entry point.
fn angular(a: &DenseVector, b: &DenseVector) -> f64 {
    let (fa, fb) = (
        FieldRef::Dense(a.components()),
        FieldRef::Dense(b.components()),
    );
    FieldDistance::Angular.distance(fa, fb, a.norm(), b.norm())
}

fn shingle_strategy() -> impl Strategy<Value = ShingleSet> {
    prop::collection::vec(0u64..500, 0..60).prop_map(ShingleSet::new)
}

fn vector_strategy() -> impl Strategy<Value = DenseVector> {
    prop::collection::vec(-100.0f64..100.0, 1..32).prop_map(DenseVector::new)
}

/// Pairs of same-dimension vectors, from unrelated to nearly parallel
/// (`b = a + scale · noise`), where `acos` is worst conditioned.
fn dense_pair_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    const SCALES: [f64; 7] = [0.0, 1e-12, 1e-7, 1e-3, 0.1, 1.0, 10.0];
    (
        1usize..24,
        prop::collection::vec(-1.0f64..1.0, 24),
        prop::collection::vec(-1.0f64..1.0, 24),
        0..SCALES.len(),
    )
        .prop_map(|(dim, a, noise, scale)| {
            let a = a[..dim].to_vec();
            let b = a
                .iter()
                .zip(&noise)
                .map(|(x, n)| x + SCALES[scale] * n)
                .collect();
            (a, b)
        })
}

/// Pairs of sets whose sizes differ by at least [`GALLOP_RATIO`], so the
/// threshold kernel takes its galloping path: a small set of up to 12
/// shingles against a large one of at least `12 · GALLOP_RATIO` (distinct
/// by construction: prefix sums of positive gaps), the small one drawn
/// partly from the large one so overlaps occur.
fn skewed_pair_strategy() -> impl Strategy<Value = (ShingleSet, ShingleSet)> {
    (
        1usize..=12,
        prop::collection::vec(1u64..64, 12 * GALLOP_RATIO..16 * GALLOP_RATIO),
        prop::collection::vec((any::<bool>(), 0usize..4096, 0u64..8192), 12),
    )
        .prop_map(|(n, gaps, picks)| {
            let large: Vec<u64> = gaps
                .iter()
                .scan(0, |at, gap| {
                    *at += gap;
                    Some(*at)
                })
                .collect();
            let small = picks[..n]
                .iter()
                .map(|&(shared, at, fresh)| {
                    if shared {
                        large[at % large.len()]
                    } else {
                        fresh
                    }
                })
                .collect();
            (ShingleSet::new(small), ShingleSet::new(large))
        })
}

/// Pairs of large sets (hundreds of shingles) sharing most of their
/// elements: a common core plus a private part each, so a threshold near
/// their distance is met, or missed, with much of the merge still to go.
fn overlapping_pair_strategy() -> impl Strategy<Value = (ShingleSet, ShingleSet)> {
    (
        prop::collection::vec(0u64..1 << 20, 200..600),
        prop::collection::vec(0u64..1 << 20, 0..120),
        prop::collection::vec(0u64..1 << 20, 0..120),
    )
        .prop_map(|(core, a_own, b_own)| {
            let a = ShingleSet::new(core.iter().chain(&a_own).copied().collect());
            let b = ShingleSet::new(core.iter().chain(&b_own).copied().collect());
            (a, b)
        })
}

/// Asserts that the threshold kernel agrees with `distance ≤ dthr` where
/// a verdict is easiest to get wrong: at the pair's own exact distance,
/// one ulp either side of it, at 0 and 1, and at thresholds a rule never
/// holds (NaN, −0.0, −1.0, 2.0), for which the kernels promise the same
/// bit-identity.
fn check_boundary(
    metric: FieldDistance,
    a: Operand<'_>,
    b: Operand<'_>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let d = exact(metric, a, b);
    let thresholds = [d.next_down(), d, d.next_up(), 0.0, 1.0];
    for dthr in thresholds.into_iter().chain([f64::NAN, -0.0, -1.0, 2.0]) {
        let (verdict, _) = metric.at_most_counted(a, b, dthr);
        prop_assert_eq!(verdict, d <= dthr, "{:?}: d={} dthr={}", metric, d, dthr);
    }
    Ok(())
}

/// The exact distance between two operands' payloads.
fn exact(metric: FieldDistance, a: Operand<'_>, b: Operand<'_>) -> f64 {
    fn parts(op: Operand<'_>) -> (FieldRef<'_>, f64) {
        match op {
            Operand::Dense(x, norm, _) => (FieldRef::Dense(x), norm),
            Operand::Shingles(x, _) => (FieldRef::Shingles(x), 0.0),
        }
    }
    let ((fa, na), (fb, nb)) = (parts(a), parts(b));
    metric.distance(fa, fb, na, nb)
}

/// Arbitrary well-formed datasets over a two-field (shingles + dense)
/// schema, with arbitrary ground-truth labels.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            shingle_strategy(),
            prop::collection::vec(-50.0f64..50.0, 4),
            0u32..5,
        ),
        1..12,
    )
    .prop_map(|rows| {
        let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
        let mut records = Vec::with_capacity(rows.len());
        let mut ground_truth = Vec::with_capacity(rows.len());
        for (shingles, components, entity) in rows {
            records.push(Record::new(vec![
                FieldValue::Shingles(shingles),
                FieldValue::Dense(DenseVector::new(components)),
            ]));
            ground_truth.push(entity);
        }
        Dataset::new(schema, records, ground_truth)
    })
}

proptest! {
    #[test]
    fn jaccard_distance_in_unit_interval(a in shingle_strategy(), b in shingle_strategy()) {
        let d = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn jaccard_is_symmetric(a in shingle_strategy(), b in shingle_strategy()) {
        prop_assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
    }

    #[test]
    fn jaccard_identity(a in shingle_strategy()) {
        prop_assert_eq!(jaccard(&a, &a), 0.0);
    }

    #[test]
    fn jaccard_triangle_inequality(
        a in shingle_strategy(),
        b in shingle_strategy(),
        c in shingle_strategy(),
    ) {
        // The Jaccard distance is a proper metric.
        let ab = jaccard(&a, &b);
        let bc = jaccard(&b, &c);
        let ac = jaccard(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-12, "ac={ac} ab={ab} bc={bc}");
    }

    #[test]
    fn intersection_bounded_by_sizes(a in shingle_strategy(), b in shingle_strategy()) {
        let i = intersection_size_merge(a.shingles(), b.shingles());
        prop_assert!(i <= a.len() && i <= b.len());
        prop_assert_eq!(intersection_size_galloping(a.shingles(), b.shingles()), i);
        prop_assert_eq!(intersection_size_galloping(b.shingles(), a.shingles()), i);
    }

    #[test]
    fn shingle_set_is_sorted_dedup(v in prop::collection::vec(0u64..100, 0..100)) {
        let s = ShingleSet::new(v);
        let sh = s.shingles();
        prop_assert!(sh.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn angular_distance_in_unit_interval(a in vector_strategy()) {
        // Compare against a fixed same-dimension vector.
        let b = DenseVector::new(vec![1.0; a.dim()]);
        let d = angular(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn angular_is_symmetric(a in vector_strategy()) {
        let b = DenseVector::new(vec![0.5; a.dim()]);
        prop_assert!((angular(&a, &b) - angular(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn angular_scale_invariant(a in vector_strategy(), scale in 0.001f64..1000.0) {
        let b = DenseVector::new(vec![1.0; a.dim()]);
        let scaled = DenseVector::new(a.components().iter().map(|x| x * scale).collect());
        let d1 = angular(&a, &b);
        let d2 = angular(&scaled, &b);
        prop_assert!((d1 - d2).abs() < 1e-6, "{d1} vs {d2}");
    }

    #[test]
    fn threshold_rule_consistent_with_distance(
        a in shingle_strategy(),
        b in shingle_strategy(),
        dthr in 0.0f64..=1.0,
    ) {
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, dthr);
        let ra = adalsh_data::Record::single(FieldValue::Shingles(a.clone()));
        let rb = adalsh_data::Record::single(FieldValue::Shingles(b.clone()));
        let matched = rule.matches(&ra, &rb);
        prop_assert_eq!(matched, jaccard(&a, &b) <= dthr);
    }

    #[test]
    fn dataset_serde_roundtrip_is_exact(dataset in dataset_strategy()) {
        // The hand-written Dataset serde keeps the derived norm cache
        // off the wire; deserialization must rebuild it bit-identically
        // (deserialization funnels through `Dataset::new`).
        let json = serde_json::to_string(&dataset).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.schema(), dataset.schema());
        prop_assert_eq!(back.records(), dataset.records());
        prop_assert_eq!(back.ground_truth(), dataset.ground_truth());
        for i in 0..dataset.len() as u32 {
            for field in 0..dataset.schema().num_fields() {
                prop_assert_eq!(
                    back.field_norm(i, field).to_bits(),
                    dataset.field_norm(i, field).to_bits(),
                    "norm cache differs at record {} field {}", i, field
                );
            }
        }
    }

    #[test]
    fn and_rule_is_intersection_of_parts(
        a in shingle_strategy(),
        b in shingle_strategy(),
        t1 in 0.0f64..=1.0,
        t2 in 0.0f64..=1.0,
    ) {
        let r1 = MatchRule::threshold(0, FieldDistance::Jaccard, t1);
        let r2 = MatchRule::threshold(0, FieldDistance::Jaccard, t2);
        let and = MatchRule::And(vec![r1.clone(), r2.clone()]);
        let or = MatchRule::Or(vec![r1.clone(), r2.clone()]);
        let ra = adalsh_data::Record::single(FieldValue::Shingles(a));
        let rb = adalsh_data::Record::single(FieldValue::Shingles(b));
        prop_assert_eq!(and.matches(&ra, &rb), r1.matches(&ra, &rb) && r2.matches(&ra, &rb));
        prop_assert_eq!(or.matches(&ra, &rb), r1.matches(&ra, &rb) || r2.matches(&ra, &rb));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn jaccard_threshold_exact_at_the_boundary(
        a in prop::collection::vec(0u64..48, 0..40).prop_map(ShingleSet::new),
        b in prop::collection::vec(0u64..48, 0..40).prop_map(ShingleSet::new),
    ) {
        let (sa, sb) = (sketch(a.shingles()), sketch(b.shingles()));
        let (fa, fb) = (Operand::Shingles(a.shingles(), &sa), Operand::Shingles(b.shingles(), &sb));
        check_boundary(FieldDistance::Jaccard, fa, fb)?;
    }

    #[test]
    fn jaccard_threshold_exact_on_skewed_sizes((small, large) in skewed_pair_strategy()) {
        prop_assert!(large.len() >= GALLOP_RATIO * small.len());
        let (ss, sl) = (sketch(small.shingles()), sketch(large.shingles()));
        let fs = Operand::Shingles(small.shingles(), &ss);
        let fl = Operand::Shingles(large.shingles(), &sl);
        check_boundary(FieldDistance::Jaccard, fs, fl)?;
        check_boundary(FieldDistance::Jaccard, fl, fs)?;
    }

    #[test]
    fn jaccard_threshold_exact_on_large_overlaps((a, b) in overlapping_pair_strategy()) {
        let (sa, sb) = (sketch(a.shingles()), sketch(b.shingles()));
        let (fa, fb) = (Operand::Shingles(a.shingles(), &sa), Operand::Shingles(b.shingles(), &sb));
        check_boundary(FieldDistance::Jaccard, fa, fb)?;
        // Thresholds either side of the pair's distance, far enough that
        // the merge decides them before it ends.
        let d = exact(FieldDistance::Jaccard, fa, fb);
        for dthr in [d * 0.5, d * 0.9, (d + 1.0) / 2.0] {
            let (verdict, _) = FieldDistance::Jaccard.at_most_counted(fa, fb, dthr);
            prop_assert_eq!(verdict, d <= dthr, "d={} dthr={}", d, dthr);
        }
    }

    #[test]
    fn angular_threshold_exact_at_the_boundary((a, b) in dense_pair_strategy()) {
        let fa = Operand::Dense(&a, vector::norm(&a), &NO_PIVOTS);
        let fb = Operand::Dense(&b, vector::norm(&b), &NO_PIVOTS);
        check_boundary(FieldDistance::Angular, fa, fb)?;
        check_boundary(FieldDistance::Angular, fa, fa)?;
        let zero = vec![0.0; a.len()];
        check_boundary(FieldDistance::Angular, fa, Operand::Dense(&zero, 0.0, &NO_PIVOTS))?;
    }
}

/// Test-local SplitMix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_B9F9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A token whose sketch bit is `bit`, found by a seeded search.
fn token_on_bit(state: &mut u64, bit: usize) -> u64 {
    loop {
        let t = mix(state);
        if sketch_bit(t) == bit {
            return t;
        }
    }
}

/// Pairs of sets in the shapes the sketched Jaccard kernel is easiest to
/// get wrong on, chosen by `shape`: random tokens with a shared core,
/// small-integer tokens, size ratios of 7x, 8x and 9x around
/// [`GALLOP_RATIO`], tokens crafted onto a handful of sketch bits,
/// saturated sketches (more than `SKETCH_BITS` tokens a set), identical
/// sets, and empty or one-empty sets.
fn sketched_pair_strategy() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (0u8..7, any::<u64>(), 0usize..160, 0usize..160, 0usize..160).prop_map(
        |(shape, seed, x, y, z)| {
            let mut rng = seed;
            let mut draw = |n: usize, f: &mut dyn FnMut(&mut u64) -> u64| -> Vec<u64> {
                (0..n).map(|_| f(&mut rng)).collect()
            };
            let (core, a_own, b_own): (Vec<u64>, Vec<u64>, Vec<u64>) = match shape {
                // Random tokens, a shared core of up to 160.
                0 => (draw(z, &mut mix), draw(x, &mut mix), draw(y, &mut mix)),
                // Small integers: collide in value, spread by the mixer.
                1 => {
                    let mut small = |r: &mut u64| mix(r) % 64;
                    (
                        draw(z % 40, &mut small),
                        draw(x % 40, &mut small),
                        draw(y % 40, &mut small),
                    )
                }
                // |large| = r · |small| for r ∈ {7, 8, 9}, small half shared.
                2 => {
                    let n = 1 + x % 20;
                    let ratio = 7 + y % 3;
                    let large = draw(ratio * n, &mut mix);
                    let shared: Vec<u64> = large.iter().take(n / 2 + z % 2).copied().collect();
                    let own = draw(n - shared.len(), &mut mix);
                    (shared, own, large)
                }
                // Every token on one of `1 + z % 3` sketch bits.
                3 => {
                    let bits: Vec<usize> = (0..1 + z % 3).map(|k| (k * 337 + x) % 1024).collect();
                    let mut on_bits = |r: &mut u64| {
                        let bit = bits[(mix(r) % bits.len() as u64) as usize];
                        token_on_bit(r, bit)
                    };
                    (
                        draw(z % 30, &mut on_bits),
                        draw(x % 40, &mut on_bits),
                        draw(y % 40, &mut on_bits),
                    )
                }
                // Saturated: over SKETCH_BITS tokens a set.
                4 => (
                    draw(600 + 4 * z, &mut mix),
                    draw(SKETCH_BITS - 500 + 2 * x, &mut mix),
                    draw(SKETCH_BITS - 500 + 2 * y, &mut mix),
                ),
                // Identical sets.
                5 => (draw(z, &mut mix), Vec::new(), Vec::new()),
                // Empty and one-empty sets.
                _ => (Vec::new(), Vec::new(), draw(x % 3 * y % 50, &mut mix)),
            };
            let a = ShingleSet::new(core.iter().chain(&a_own).copied().collect());
            let b = ShingleSet::new(core.iter().chain(&b_own).copied().collect());
            (a.shingles().to_vec(), b.shingles().to_vec())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The sketched threshold kernel equals `jaccard_distance(a, b) <=
    /// dthr` for out-of-range, non-finite and in-range thresholds, and at
    /// every `m*` edge: the distance at each overlap `m` near the true
    /// intersection and near the bound, and one ulp either side. The bound
    /// is never below the true intersection, and a pair it rejects fails
    /// and counts as an early exit.
    #[test]
    fn sketched_jaccard_kernel_equals_the_exact_check((a, b) in sketched_pair_strategy()) {
        let (sa, sb) = (sketch(&a), sketch(&b));
        let inter = intersection_size_merge(&a, &b);
        let bound = overlap_bound(a.len(), &sa, b.len(), &sb);
        prop_assert!(bound >= inter, "bound {} below |A ∩ B| = {}", bound, inter);
        prop_assert!(bound <= a.len().min(b.len()));
        let (fa, fb) = (Operand::Shingles(&a, &sa), Operand::Shingles(&b, &sb));
        let d = exact(FieldDistance::Jaccard, fa, fb);
        let total = a.len() + b.len();
        let edge = |m: usize| 1.0 - (m as f64 / (total - m) as f64);
        let small = a.len().min(b.len());
        let mut thresholds = vec![
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -0.0, 0.0, 1.0, 1.5, d,
        ];
        for m in (0..=small).filter(|&m| {
            m.abs_diff(inter) <= 3 || m.abs_diff(bound) <= 3 || m % 29 == 0 || m == small
        }) {
            if total > m {
                let e = edge(m);
                thresholds.extend([e.next_down(), e, e.next_up()]);
            }
        }
        for dthr in thresholds {
            let (verdict, exit) = FieldDistance::Jaccard.at_most_counted(fa, fb, dthr);
            prop_assert_eq!(verdict, d <= dthr, "d={} dthr={} exit={:?}", d, dthr, exit);
            let (swapped, _) = FieldDistance::Jaccard.at_most_counted(fb, fa, dthr);
            prop_assert_eq!(swapped, verdict);
            if exit == Exit::Bound {
                prop_assert!(!verdict, "the bound only rejects");
                let mut counts = ExitCounts::default();
                counts.record(1, exit);
                prop_assert_eq!((counts.early_exits, counts.bound_rejects), (1, 1));
            }
        }
    }
}

/// A pair of vectors and pivots of one dimension, in the shapes the
/// angular pivot bound is easiest to get wrong on, chosen by `shape`:
/// random and nearly parallel pairs, zero vectors, every vector scaled
/// to 1e-160 or 1e150, NaN and ±inf components, a pivot equal to `a`,
/// antipodal pairs, and 4096-d pairs, where the guard is widest.
fn pivot_case_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>)> {
    const NOISE: [f64; 5] = [1e-12, 1e-7, 1e-3, 0.05, 1.0];
    (0u8..8, any::<u64>(), 1usize..24, 0..NOISE.len()).prop_map(|(shape, seed, dim, noise)| {
        let mut rng = seed;
        let dim = if shape == 7 { 4096 } else { dim };
        let mut unit = move || (mix(&mut rng) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| unit()).collect() };
        let a = draw(dim);
        let near: Vec<f64> = draw(dim)
            .iter()
            .zip(&a)
            .map(|(e, x)| x + NOISE[noise] * e)
            .collect();
        let mut pivots: Vec<Vec<f64>> = (0..3).map(|_| draw(dim)).collect();
        pivots.push(near.iter().zip(&a).map(|(x, y)| x + 0.5 * y).collect());
        let (mut a, mut b) = (a, near);
        match shape {
            // Zero vectors, as either operand and as a pivot.
            1 => {
                if noise % 2 == 0 {
                    a = vec![0.0; dim];
                } else {
                    b = vec![0.0; dim];
                }
                pivots[0] = vec![0.0; dim];
            }
            // Tiny and huge scales: products underflow or norms overflow.
            2 | 3 => {
                let scale = if shape == 2 { 1e-160 } else { 1e150 };
                for v in [&mut a, &mut b].into_iter().chain(pivots.iter_mut()) {
                    v.iter_mut().for_each(|x| *x *= scale);
                }
            }
            // Non-finite components.
            4 => {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][noise % 3];
                if noise % 2 == 0 {
                    a[0] = bad;
                } else {
                    pivots[1][0] = bad;
                }
            }
            // A pivot equal to `a`.
            5 => pivots[0] = a.clone(),
            // Antipodal pairs.
            6 => b = a.iter().map(|x| -x * (1.0 + noise as f64)).collect(),
            _ => {}
        }
        (a, b, pivots)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The angular kernel with pivot angles equals `angular_distance(a,
    /// b) <= dthr` at the pair's exact distance, a few ulps either side
    /// of it, ± the guard around it, around the bound's own edge (the
    /// largest angle gap less the guard), and at out-of-range and
    /// non-finite thresholds. A pair the bound rejects fails, counts as
    /// an early exit, and the bound rejects every pair whose gap clears
    /// twice the guard.
    #[test]
    fn angular_pivot_bound_equals_the_exact_check((a, b, pivots) in pivot_case_strategy()) {
        let (na, nb) = (vector::norm(&a), vector::norm(&b));
        let angles = |x: &[f64], norm: f64| {
            let mut out = NO_PIVOTS;
            for (angle, p) in out.iter_mut().zip(&pivots) {
                *angle = vector::pivot_angle(x, norm, p, vector::norm(p));
            }
            out
        };
        let (pa, pb) = (angles(&a, na), angles(&b, nb));
        for (x, norm, angles) in [(&a, na, pa), (&b, nb, pb)] {
            if !vector::bound_safe(norm) {
                prop_assert!(angles.iter().all(|t| t.is_nan()), "norm {} |x| = {}", norm, x.len());
            }
        }
        let (fa, fb) = (Operand::Dense(&a, na, &pa), Operand::Dense(&b, nb, &pb));
        let d = exact(FieldDistance::Angular, fa, fb);
        let guard = vector::angular_guard(a.len());
        prop_assert!(guard > 0.0 && guard < 1e-5, "guard {} at dim {}", guard, a.len());
        let gap = pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).fold(f64::NAN, f64::max);
        let mut thresholds = vec![
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, 2.0,
            d - guard, d + guard, gap - guard, gap - 2.0 * guard,
        ];
        let mut around = |t: f64| {
            let (mut down, mut up) = (t, t);
            for _ in 0..3 {
                (down, up) = (down.next_down(), up.next_up());
                thresholds.extend([down, up]);
            }
            thresholds.push(t);
        };
        around(d);
        around(gap - guard);
        for dthr in thresholds {
            let (verdict, exit) = FieldDistance::Angular.at_most_counted(fa, fb, dthr);
            prop_assert_eq!(verdict, d <= dthr, "d={} gap={} dthr={} exit={:?}", d, gap, dthr, exit);
            let (swapped, _) = FieldDistance::Angular.at_most_counted(fb, fa, dthr);
            prop_assert_eq!(swapped, verdict);
            if exit == Exit::Bound {
                prop_assert!(!verdict, "the bound only rejects");
                let mut counts = ExitCounts::default();
                counts.record(1, exit);
                prop_assert_eq!((counts.early_exits, counts.bound_rejects), (1, 1));
            }
            if gap > dthr + 2.0 * guard {
                prop_assert_eq!(exit, Exit::Bound, "gap={} dthr={}", gap, dthr);
            }
        }
    }
}

/// The guard grows with the dimension as `sqrt(dim)`: a 4096-d angle may
/// err by far more than a 64-d one, so one constant could not serve both.
#[test]
fn angular_guard_grows_with_the_dimension() {
    let (g64, g4096) = (vector::angular_guard(64), vector::angular_guard(4096));
    assert!(g64 > 4.0 * (2.0 * 72.0 * f64::EPSILON / 2.0).sqrt());
    assert!(g4096 > 7.0 * g64 && g4096 < 8.0 * g64, "{g64} {g4096}");
    assert!(g4096 < 1e-5, "far below any threshold a rule holds");
}
