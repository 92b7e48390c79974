//! Dense numeric vectors and the cosine / angular distance.
//!
//! The paper's image experiments represent each record as an RGB-histogram
//! vector and declare two records a match when the *angle* between their
//! vectors is below a threshold (paper §6.3, PopularImages). Throughout the
//! workspace distances are **normalized to `[0, 1]`**: an angle of `θ`
//! degrees maps to `θ / 180` (paper Example 5, `x = θ/180`).
//!
//! [`DenseVector`] is the owned storage type. The kernels work on
//! component slices and are reached through
//! [`FieldDistance`](crate::FieldDistance); [`norm`] is public so every
//! norm cache (dataset and store file) holds the bits the kernels use.

use serde::{Deserialize, Serialize};

use crate::distance::Exit;

/// A dense vector of `f64` components.
///
/// Invariant: never empty. Construction normalizes nothing; distances
/// are angles, so the scale of a vector never affects a verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVector(Vec<f64>);

impl DenseVector {
    /// Creates a vector from raw components.
    ///
    /// # Panics
    /// Panics if `components` is empty.
    pub fn new(components: Vec<f64>) -> Self {
        assert!(!components.is_empty(), "DenseVector must be non-empty");
        Self(components)
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Read-only view of the components.
    pub fn components(&self) -> &[f64] {
        &self.0
    }

    /// Euclidean norm ([`norm`] over the components).
    pub fn norm(&self) -> f64 {
        norm(&self.0)
    }
}

/// Euclidean norm `sqrt(dot(v, v))` through the one dot kernel, so a
/// norm cached at dataset or store-build time is exactly the bits the
/// distance kernels would compute.
pub fn norm(v: &[f64]) -> f64 {
    dot_kernel(v, v).sqrt()
}

/// The normalized angular distance `θ / 180 ∈ [0, 1]` (paper Example 5)
/// given both vectors' norms.
///
/// Zero vectors (`norm_a · norm_b == 0`) are defined to be at distance 0
/// from everything: they carry no direction, and treating them as
/// maximally distant would make a single empty histogram poison
/// transitive closure.
///
/// # Panics
/// Panics if the dimensions differ.
pub(crate) fn angular_distance(a: &[f64], b: &[f64], norm_a: f64, norm_b: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let denom = norm_a * norm_b;
    if denom == 0.0 {
        return 0.0;
    }
    let cos = (dot_kernel(a, b) / denom).clamp(-1.0, 1.0);
    cos.acos().to_degrees() / 180.0
}

/// Threshold verdict `angular_distance(a, b, norm_a, norm_b) <= dthr`,
/// with how it was reached, given both operands' [`PivotAngles`].
///
/// The **pivot bound** goes first. The angle is a metric on nonzero
/// vectors, so `θ(a, b) ≥ |θ(a, p) − θ(b, p)|` for every pivot `p`. When
/// some pivot's computed angle gap exceeds `dthr + angular_guard(dim)`,
/// the computed distance exceeds `dthr` too ([`angular_guard`] covers
/// the rounding of all three angles), and the pair fails with no dot
/// product ([`Exit::Bound`]). A NaN angle never rejects.
///
/// Otherwise the verdict is decided in **cosine space** whenever that
/// is safe. `acos` is monotone decreasing, so `θ/180 ≤ dthr ⟺ cos θ ≥
/// cos(dthr·π)`; comparing cosines skips the `acos` that otherwise runs
/// on every pair of the quadratic verification loop. Within a guard band
/// of [`COS_GUARD`] around the threshold cosine — where rounding of the
/// forward (`cos`) and inverse (`acos`, `to_degrees`, `/ 180`)
/// transforms could disagree — the exact kernel decides instead, so the
/// verdict is **bit-identical** to evaluating the distance and
/// comparing. The band is ~10⁵ wider than the few-ulp error of either
/// transform, and `acos`'s sensitivity near `cos = ±1` only widens the
/// true angle gap, never narrows it. Zero vectors and thresholds outside
/// `[0, 1]` resolve early too ([`Exit::Early`]), with the verdict the
/// exact distance gives.
///
/// # Panics
/// Panics if the dimensions differ.
#[inline]
pub(crate) fn angular_at_most_counted(
    (a, norm_a, pivots_a): (&[f64], f64, &PivotAngles),
    (b, norm_b, pivots_b): (&[f64], f64, &PivotAngles),
    dthr: f64,
) -> (bool, Exit) {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    // `max` skips NaN, so only angles both operands hold take part.
    let gap = pivots_a
        .iter()
        .zip(pivots_b)
        .map(|(x, y)| (x - y).abs())
        .fold(f64::NEG_INFINITY, f64::max);
    if gap > dthr + angular_guard(a.len()) {
        return (false, Exit::Bound);
    }
    let denom = norm_a * norm_b;
    if denom == 0.0 {
        // Zero vectors are at distance 0 (see `angular_distance`).
        return (0.0 <= dthr, Exit::Early);
    }
    let ratio = dot_kernel(a, b) / denom;
    if !(0.0..=1.0).contains(&dthr) {
        // Out-of-range thresholds: the distance is in [0, 1], or NaN
        // exactly when this ratio is (a NaN or ±inf component).
        return (dthr >= 1.0 && !ratio.is_nan(), Exit::Early);
    }
    let cos = ratio.clamp(-1.0, 1.0);
    let cos_thr = (dthr * std::f64::consts::PI).cos();
    if cos >= cos_thr + COS_GUARD {
        return (true, Exit::Early);
    }
    if cos <= cos_thr - COS_GUARD {
        return (false, Exit::Early);
    }
    (
        angular_distance(a, b, norm_a, norm_b) <= dthr,
        Exit::Complete,
    )
}

/// Pivots a dense operand keeps its angles to.
pub const PIVOTS: usize = 4;

/// A dense operand's normalized angles ([`pivot_angle`]) to the pivots of
/// the table it sits in; NaN where the table has no such pivot or the
/// operand's norm is not [`bound_safe`].
pub type PivotAngles = [f64; PIVOTS];

/// The angles of an operand that takes no pivot bound.
pub const NO_PIVOTS: PivotAngles = [f64::NAN; PIVOTS];

/// Is a vector of norm `norm` safe to bound by pivot angles? Zero vectors
/// sit at distance 0 from everything, so the triangle inequality fails
/// for them. Within `[2⁻²⁵⁰, 2²⁵⁰]` no dot product of two such vectors
/// overflows, and underflow costs it at most `dim · 2⁻¹⁰⁷⁵` absolutely,
/// under `dim · 2⁻⁵⁷⁵` of `|a|·|b|`: far below the relative error
/// [`angular_guard`] budgets. NaN and infinite norms are outside.
pub fn bound_safe(norm: f64) -> bool {
    const LIMIT: f64 = 1.8092513943330656e75; // 2^250
    (1.0 / LIMIT..=LIMIT).contains(&norm)
}

/// The normalized angle `angular_distance(x, pivot)` that the pivot bound
/// compares, or NaN unless both norms are [`bound_safe`].
pub fn pivot_angle(x: &[f64], norm: f64, pivot: &[f64], pivot_norm: f64) -> f64 {
    if bound_safe(norm) && bound_safe(pivot_norm) {
        angular_distance(x, pivot, norm, pivot_norm)
    } else {
        f64::NAN
    }
}

/// The pivot bound's guard at dimension `dim`, in normalized angle:
/// more than the rounding error of one computed angle gap plus that of
/// the pair's own computed distance. Derived in DESIGN §7.1:
/// * the cosine of two [`bound_safe`] vectors is off by at most
///   `e = 4(dim + 8)u` (`u = 2⁻⁵³`): the dot kernel's sum errs by
///   `γ_{dim+6} |a||b|`, the norms' product by as much again, plus a few
///   roundings, and the factor 2 over those covers second-order terms;
/// * `acos` turns a cosine error `e` into at most `acos(1 − e) ≤
///   π·sqrt(e/2)` of angle, so a normalized angle is off by at most
///   `ε = sqrt(e/2) + 8u` (the `8u` for `acos`, `to_degrees` and `/180`);
/// * a rejected pair's gap is then within `2ε` of a true angle gap, its
///   computed distance within `ε` of the true angle, and the subtraction
///   and `dthr + guard` round by `4u` at most, so `4ε` suffices.
pub fn angular_guard(dim: usize) -> f64 {
    const U: f64 = f64::EPSILON / 2.0;
    let e = 4.0 * (dim as f64 + 8.0) * U;
    4.0 * ((e / 2.0).sqrt() + 8.0 * U)
}

/// Flat dot-product kernel: four independent partial sums over exact
/// 4-element chunks (no per-element branching), pairwise-combined, then a
/// short sequential tail for `len % 4` trailing components.
///
/// The products in a chunk carry no loop-carried dependency, so the
/// compiler vectorizes the loop. The summation *order* therefore differs
/// from a sequential fold by a few ulps — norms, angles and the cosine
/// fast path all go through this one kernel, so every derived comparison
/// stays mutually consistent.
fn dot_kernel(a: &[f64], b: &[f64]) -> f64 {
    let chunks = a.len() / 4 * 4;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..chunks].chunks_exact(4).zip(b[..chunks].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        sum += x * y;
    }
    sum
}

/// Guard-band half-width (in cosine units) inside which the angular
/// threshold kernel falls back to the exact `acos` distance; see
/// `angular_at_most_counted` for the safety argument.
pub const COS_GUARD: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    /// Angular distance with the vectors' own norms.
    fn dist(a: &[f64], b: &[f64]) -> f64 {
        angular_distance(a, b, norm(a), norm(b))
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot_kernel(&[3.0, 4.0], &[1.0, 0.0]), 3.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(DenseVector::new(vec![3.0, 4.0]).norm(), 5.0);
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        let v = [3.0, 4.0];
        let n = norm(&v);
        let unit: Vec<f64> = v.iter().map(|c| c / n).collect();
        assert!((norm(&unit) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_scale_invariant() {
        let a = [3.0, 4.0, -1.0];
        let b = [0.5, 2.0, 1.0];
        let n = norm(&a);
        let unit: Vec<f64> = a.iter().map(|c| c / n).collect();
        assert!((dist(&unit, &b) - dist(&a, &b)).abs() < 1e-12);
        assert_eq!(norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn orthogonal_is_half() {
        assert!((dist(&[1.0, 0.0], &[0.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opposite_is_one() {
        assert!((dist(&[1.0, 0.0], &[-1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_direction_is_zero() {
        // acos is ill-conditioned near cos = 1; a few 1e-5 degrees of
        // numerical slack is far below any threshold we ever use (≥ 2°).
        assert!(dist(&[2.0, 1.0], &[4.0, 2.0]) < 1e-3 / 180.0);
    }

    #[test]
    fn zero_vector_is_at_distance_zero() {
        assert_eq!(dist(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
        let (a, zero) = ([1.0, 2.0], [0.0, 0.0]);
        assert_eq!(
            angular_at_most_counted((&a, norm(&a), &NO_PIVOTS), (&zero, 0.0, &NO_PIVOTS), 0.0),
            (true, Exit::Early)
        );
    }

    #[test]
    fn cached_norms_are_bit_identical() {
        // The owned norm, the slice norm and the kernel's self-dot agree
        // bit for bit, and the distance is `acos` in degrees over 180 —
        // the exact float sequence every cached norm must reproduce.
        let pairs = [
            ([3.0, 4.0], [1.0, 0.0]),
            ([0.1, -0.7], [-0.3, 0.9]),
            ([1e-8, 2e-8], [5e7, -1e7]),
            ([0.0, 0.0], [1.0, 1.0]),
        ];
        for (a, b) in pairs {
            let owned = DenseVector::new(a.to_vec()).norm();
            assert_eq!(owned.to_bits(), norm(&a).to_bits());
            assert_eq!(owned.to_bits(), dot_kernel(&a, &a).sqrt().to_bits());
            let (na, nb) = (norm(&a), norm(&b));
            let reference = if na * nb == 0.0 {
                0.0
            } else {
                (dot_kernel(&a, &b) / (na * nb))
                    .clamp(-1.0, 1.0)
                    .acos()
                    .to_degrees()
                    / 180.0
            };
            assert_eq!(dist(&a, &b).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn angular_at_most_equals_exact_check() {
        // A deterministic sweep of directions, plus degenerate vectors.
        let mut vs: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let t = i as f64 * 0.53;
                vec![t.cos(), t.sin(), (t * 1.7).cos() * 0.4]
            })
            .collect();
        vs.push(vec![0.0, 0.0, 0.0]);
        vs.push(vec![1e-12, 0.0, 0.0]);
        for a in &vs {
            for b in &vs {
                let (na, nb) = (norm(a), norm(b));
                let exact = angular_distance(a, b, na, nb);
                // Thresholds away from, *at*, and tightly around the
                // exact distance — the last ones land inside the guard
                // band and must take the exact-kernel fallback.
                let thresholds = [
                    0.0,
                    0.25,
                    1.0,
                    exact,
                    (exact - 1e-14).clamp(0.0, 1.0),
                    (exact + 1e-14).clamp(0.0, 1.0),
                    -0.5,
                    1.5,
                ];
                for t in thresholds {
                    assert_eq!(
                        angular_at_most_counted((a, na, &NO_PIVOTS), (b, nb, &NO_PIVOTS), t).0,
                        exact <= t,
                        "a={a:?} b={b:?} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_kernel_matches_sequential_reference() {
        // The 4-accumulator kernel regroups the sum, so agreement is to
        // relative precision, not bit-for-bit — check every tail length
        // (0..4 leftover components) around the chunk boundary.
        for len in 1..=19usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos() - 0.4).collect();
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot_kernel(&a, &b);
            let tol = 1e-12 * reference.abs().max(1.0);
            assert!(
                (got - reference).abs() <= tol,
                "len={len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn dot_kernel_exact_on_integral_inputs() {
        // With integrally-representable products the regrouped sum is
        // exact, so the kernel must reproduce the mathematical value.
        let a: Vec<f64> = (0..13).map(|i| (i as f64) - 6.0).collect();
        let b: Vec<f64> = (0..13).map(|i| ((i * 3) % 7) as f64).collect();
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_kernel(&a, &b), exact);
    }

    #[test]
    fn fifteen_degrees_is_paper_example_threshold() {
        // Paper Example 5: a 15° angle is the normalized distance 15/180.
        let t = 15f64.to_radians();
        let d = dist(&[1.0, 0.0], &[t.cos(), t.sin()]);
        assert!((d - 15.0 / 180.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_rejected() {
        let _ = DenseVector::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_dimension_mismatch_panics() {
        let _ = dist(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn threshold_dimension_mismatch_panics() {
        let _ = angular_at_most_counted(
            (&[1.0], 1.0, &NO_PIVOTS),
            (&[1.0, 2.0], 1.0, &NO_PIVOTS),
            0.5,
        );
    }
}
