//! Property-based tests for the record model: metric axioms and
//! representation invariants that must hold for arbitrary inputs.

use adalsh_data::shingle::{intersection_size_galloping, intersection_size_merge, GALLOP_RATIO};
use adalsh_data::vector;
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldRef, FieldValue, MatchRule, Record,
    Schema, ShingleSet,
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
    a: FieldRef<'_>,
    b: FieldRef<'_>,
    norm_a: f64,
    norm_b: f64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let d = metric.distance(a, b, norm_a, norm_b);
    let thresholds = [d.next_down(), d, d.next_up(), 0.0, 1.0];
    for dthr in thresholds.into_iter().chain([f64::NAN, -0.0, -1.0, 2.0]) {
        let (verdict, _) = metric.at_most_counted(a, b, dthr, norm_a, norm_b);
        prop_assert_eq!(verdict, d <= dthr, "{:?}: d={} dthr={}", metric, d, dthr);
    }
    Ok(())
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
        let (fa, fb) = (FieldRef::Shingles(a.shingles()), FieldRef::Shingles(b.shingles()));
        check_boundary(FieldDistance::Jaccard, fa, fb, 0.0, 0.0)?;
    }

    #[test]
    fn jaccard_threshold_exact_on_skewed_sizes((small, large) in skewed_pair_strategy()) {
        prop_assert!(large.len() >= GALLOP_RATIO * small.len());
        let (fs, fl) = (FieldRef::Shingles(small.shingles()), FieldRef::Shingles(large.shingles()));
        check_boundary(FieldDistance::Jaccard, fs, fl, 0.0, 0.0)?;
        check_boundary(FieldDistance::Jaccard, fl, fs, 0.0, 0.0)?;
    }

    #[test]
    fn jaccard_threshold_exact_on_large_overlaps((a, b) in overlapping_pair_strategy()) {
        let (fa, fb) = (FieldRef::Shingles(a.shingles()), FieldRef::Shingles(b.shingles()));
        check_boundary(FieldDistance::Jaccard, fa, fb, 0.0, 0.0)?;
        // Thresholds either side of the pair's distance, far enough that
        // the merge decides them before it ends.
        let d = FieldDistance::Jaccard.distance(fa, fb, 0.0, 0.0);
        for dthr in [d * 0.5, d * 0.9, (d + 1.0) / 2.0] {
            let (verdict, _) = FieldDistance::Jaccard.at_most_counted(fa, fb, dthr, 0.0, 0.0);
            prop_assert_eq!(verdict, d <= dthr, "d={} dthr={}", d, dthr);
        }
    }

    #[test]
    fn angular_threshold_exact_at_the_boundary((a, b) in dense_pair_strategy()) {
        let (fa, fb) = (FieldRef::Dense(&a), FieldRef::Dense(&b));
        let (na, nb) = (vector::norm(&a), vector::norm(&b));
        check_boundary(FieldDistance::Angular, fa, fb, na, nb)?;
        check_boundary(FieldDistance::Angular, fa, fa, na, na)?;
        let zero = vec![0.0; a.len()];
        check_boundary(FieldDistance::Angular, fa, FieldRef::Dense(&zero), na, 0.0)?;
    }
}
