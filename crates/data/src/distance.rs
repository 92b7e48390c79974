//! Per-field distance metrics, all normalized to `[0, 1]`.
//!
//! The LSH machinery in this workspace (paper §3, Appendix A) assumes the
//! collision probability of its elementary hash families is `p(x) = 1 − x`
//! for distance `x ∈ [0, 1]`. Both metrics here satisfy that for their
//! natural family:
//!
//! * [`FieldDistance::Angular`] — normalized angle `θ/180`, matched by the
//!   random-hyperplane family (paper Example 6);
//! * [`FieldDistance::Jaccard`] — Jaccard distance, matched by MinHash
//!   (paper Appendix C.1, "the family of minhash functions for the Jaccard
//!   distance").

use serde::{Deserialize, Serialize};

use crate::record::{FieldKind, FieldRef, FieldValue};
use crate::{shingle, vector};

/// Tally of threshold-kernel invocations and how many of them resolved
/// on an early-exit path (size-ratio bound, cosine-space compare, or a
/// degenerate input) without computing the exact distance. Purely
/// observational: verdicts and cost accounting are identical whether or
/// not anyone counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExitCounts {
    /// Threshold-kernel invocations.
    pub checks: u64,
    /// Invocations resolved without the exact distance computation.
    pub early_exits: u64,
}

impl ExitCounts {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &ExitCounts) {
        self.checks += other.checks;
        self.early_exits += other.early_exits;
    }
}

/// Where the counted kernels report: [`ExitCounts`] tallies, `()`
/// discards — so the uncounted rule walk is the counted one run with
/// `()`, and compiles to the same code.
pub trait KernelTally: Default + Send {
    /// Records `checks` kernel invocations, `early_exits` of which
    /// resolved on an early-exit path.
    fn record(&mut self, checks: u64, early_exits: u64);
    /// Folds another tally into this one.
    fn merge(&mut self, other: &Self);
}

impl KernelTally for ExitCounts {
    fn record(&mut self, checks: u64, early_exits: u64) {
        self.checks += checks;
        self.early_exits += early_exits;
    }

    fn merge(&mut self, other: &Self) {
        ExitCounts::merge(self, other);
    }
}

impl KernelTally for () {
    fn record(&mut self, _: u64, _: u64) {}

    fn merge(&mut self, _: &Self) {}
}

/// A normalized distance metric over one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldDistance {
    /// Normalized angular (cosine) distance `θ / 180` over dense vectors.
    Angular,
    /// Jaccard distance `1 − |A∩B|/|A∪B|` over shingle sets.
    Jaccard,
}

impl FieldDistance {
    /// The field kind this metric applies to.
    pub fn expected_kind(self) -> FieldKind {
        match self {
            FieldDistance::Angular => FieldKind::Dense,
            FieldDistance::Jaccard => FieldKind::Shingles,
        }
    }

    /// Evaluates the distance between two field values.
    ///
    /// # Panics
    /// Panics if either value's kind does not match the metric.
    pub fn eval(self, a: &FieldValue, b: &FieldValue) -> f64 {
        self.eval_ref(a.as_ref(), b.as_ref())
    }

    /// [`FieldDistance::eval`] over borrowed [`FieldRef`] payloads — the
    /// canonical kernel entry point shared by the in-RAM and mapped-store
    /// paths.
    ///
    /// # Panics
    /// Panics if either ref's kind does not match the metric.
    pub fn eval_ref(self, a: FieldRef<'_>, b: FieldRef<'_>) -> f64 {
        match self {
            FieldDistance::Angular => {
                let (a, b) = (a.as_dense(), b.as_dense());
                vector::angle_degrees_with_norms(a, b, vector::norm(a), vector::norm(b)) / 180.0
            }
            FieldDistance::Jaccard => shingle::jaccard_distance(a.as_shingles(), b.as_shingles()),
        }
    }

    /// [`FieldDistance::eval`] with caller-supplied vector norms
    /// (`Dataset::field_norm`). For [`FieldDistance::Angular`] this skips
    /// the two per-call norm recomputations; for
    /// [`FieldDistance::Jaccard`] the norms are ignored. Bit-identical to
    /// `eval` when the norms are the vectors' own.
    ///
    /// # Panics
    /// Panics if either value's kind does not match the metric.
    pub fn eval_with_norms(self, a: &FieldValue, b: &FieldValue, norm_a: f64, norm_b: f64) -> f64 {
        self.eval_with_norms_ref(a.as_ref(), b.as_ref(), norm_a, norm_b)
    }

    /// [`FieldDistance::eval_with_norms`] over borrowed [`FieldRef`]
    /// payloads.
    ///
    /// # Panics
    /// Panics if either ref's kind does not match the metric.
    pub fn eval_with_norms_ref(
        self,
        a: FieldRef<'_>,
        b: FieldRef<'_>,
        norm_a: f64,
        norm_b: f64,
    ) -> f64 {
        match self {
            FieldDistance::Angular => {
                vector::angle_degrees_with_norms(a.as_dense(), b.as_dense(), norm_a, norm_b) / 180.0
            }
            FieldDistance::Jaccard => shingle::jaccard_distance(a.as_shingles(), b.as_shingles()),
        }
    }

    /// Threshold fast path: `eval(a, b) <= dthr`, decided with the
    /// cheapest safe kernel — cached norms plus a guarded cosine-space
    /// compare for the angular metric
    /// ([`crate::DenseVector::angular_at_most_with_norms`]), the
    /// size-ratio early exit plus galloping intersection for Jaccard
    /// ([`crate::ShingleSet::jaccard_at_most`]). The verdict is
    /// **bit-identical** to evaluating the full distance and comparing;
    /// only the work to reach it shrinks. Cost accounting is unaffected:
    /// callers charge per elementary distance regardless of early exits
    /// (the paper's Definition 3 is conservative).
    ///
    /// # Panics
    /// Panics if either value's kind does not match the metric.
    pub fn distance_at_most(
        self,
        a: &FieldValue,
        b: &FieldValue,
        dthr: f64,
        norm_a: f64,
        norm_b: f64,
    ) -> bool {
        self.distance_at_most_counted(a, b, dthr, norm_a, norm_b).0
    }

    /// [`FieldDistance::distance_at_most`] reporting whether the verdict
    /// was reached on an early-exit path: `(verdict, resolved_early)`.
    /// The verdict is bit-identical either way; the flag feeds the
    /// [`ExitCounts`] observability tally only.
    ///
    /// # Panics
    /// Panics if either value's kind does not match the metric.
    pub fn distance_at_most_counted(
        self,
        a: &FieldValue,
        b: &FieldValue,
        dthr: f64,
        norm_a: f64,
        norm_b: f64,
    ) -> (bool, bool) {
        self.distance_at_most_counted_ref(a.as_ref(), b.as_ref(), dthr, norm_a, norm_b)
    }

    /// [`FieldDistance::distance_at_most_counted`] over borrowed
    /// [`FieldRef`] payloads — the kernel the pairwise verification loop
    /// runs regardless of whether the records live in RAM or in a mapped
    /// store file.
    ///
    /// # Panics
    /// Panics if either ref's kind does not match the metric.
    pub fn distance_at_most_counted_ref(
        self,
        a: FieldRef<'_>,
        b: FieldRef<'_>,
        dthr: f64,
        norm_a: f64,
        norm_b: f64,
    ) -> (bool, bool) {
        match self {
            FieldDistance::Angular => vector::angular_at_most_with_norms_counted(
                a.as_dense(),
                b.as_dense(),
                dthr,
                norm_a,
                norm_b,
            ),
            FieldDistance::Jaccard => {
                shingle::jaccard_at_most_counted(a.as_shingles(), b.as_shingles(), dthr)
            }
        }
    }

    /// The collision probability `p(x)` of the metric's natural LSH family
    /// at distance `x` — `1 − x` for both families shipped here.
    ///
    /// Exposed so the scheme optimizer (Program (1)–(3), paper §5.1) can be
    /// driven directly from a [`FieldDistance`].
    pub fn collision_prob(self, x: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&x), "distance out of range: {x}");
        1.0 - x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::ShingleSet;
    use crate::vector::DenseVector;

    #[test]
    fn angular_eval() {
        let a = FieldValue::Dense(DenseVector::new(vec![1.0, 0.0]));
        let b = FieldValue::Dense(DenseVector::new(vec![0.0, 1.0]));
        assert!((FieldDistance::Angular.eval(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_eval() {
        let a = FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3, 4]));
        let b = FieldValue::Shingles(ShingleSet::new(vec![3, 4, 5]));
        assert!((FieldDistance::Jaccard.eval(&a, &b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn collision_prob_is_one_minus_x() {
        assert_eq!(FieldDistance::Angular.collision_prob(0.0), 1.0);
        assert_eq!(FieldDistance::Jaccard.collision_prob(1.0), 0.0);
        assert!((FieldDistance::Angular.collision_prob(0.25) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn fast_paths_agree_with_eval() {
        let sh = |v: &[u64]| FieldValue::Shingles(ShingleSet::new(v.to_vec()));
        let dn = |v: &[f64]| FieldValue::Dense(DenseVector::new(v.to_vec()));
        let jacc_pairs = [
            (sh(&[1, 2, 3, 4]), sh(&[3, 4, 5])),
            (sh(&[1]), sh(&(0..40).collect::<Vec<_>>())),
            (sh(&[]), sh(&[7])),
        ];
        for (a, b) in &jacc_pairs {
            for t in [0.0, 0.3, 0.6, 1.0] {
                assert_eq!(
                    FieldDistance::Jaccard.distance_at_most(a, b, t, 0.0, 0.0),
                    FieldDistance::Jaccard.eval(a, b) <= t
                );
            }
        }
        let dense_pairs = [
            (dn(&[1.0, 0.0]), dn(&[0.0, 1.0])),
            (dn(&[0.3, -0.7]), dn(&[0.3, -0.7])),
            (dn(&[0.0, 0.0]), dn(&[1.0, 2.0])),
        ];
        for (a, b) in &dense_pairs {
            let (na, nb) = (a.as_dense().norm(), b.as_dense().norm());
            assert_eq!(
                FieldDistance::Angular
                    .eval_with_norms(a, b, na, nb)
                    .to_bits(),
                FieldDistance::Angular.eval(a, b).to_bits()
            );
            for t in [0.0, 0.4, 0.5, 1.0] {
                assert_eq!(
                    FieldDistance::Angular.distance_at_most(a, b, t, na, nb),
                    FieldDistance::Angular.eval(a, b) <= t
                );
            }
        }
    }

    #[test]
    fn expected_kinds() {
        assert_eq!(FieldDistance::Angular.expected_kind(), FieldKind::Dense);
        assert_eq!(FieldDistance::Jaccard.expected_kind(), FieldKind::Shingles);
    }

    #[test]
    #[should_panic]
    fn kind_mismatch_panics() {
        let a = FieldValue::Shingles(ShingleSet::new(vec![1]));
        let b = FieldValue::Shingles(ShingleSet::new(vec![1]));
        let _ = FieldDistance::Angular.eval(&a, &b);
    }
}
