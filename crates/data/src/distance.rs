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
//!
//! Each metric has one public entry per operation, over borrowed
//! [`FieldRef`] payloads: [`FieldDistance::distance`] (exact) and
//! [`FieldDistance::at_most_counted`] (threshold verdict over
//! [`Operand`]s, which carry each field's cached norm or bitmap sketch;
//! bit-identical to comparing the exact distance). The hash families own
//! `p(x)`.

use serde::{Deserialize, Serialize};

use crate::record::{FieldKind, FieldRef};
use crate::shingle::Sketch;
use crate::vector::PivotAngles;
use crate::{shingle, vector};

/// How a threshold kernel reached its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// After the exact distance, or an intersection count that ran to
    /// the end of an input.
    Complete,
    /// On an early-exit path: the Jaccard overlap bound (the verdict fixed
    /// before the intersection count finishes, the size-ratio exit
    /// included), the cosine-space compare, or a degenerate input.
    Early,
    /// Rejected by an exact bound before the kernel touched the payloads:
    /// the Jaccard bitmap overlap bound, before any merge, or the angular
    /// pivot bound, before the dot product. An early exit too.
    Bound,
}

impl Exit {
    /// [`Exit::Early`] when `early`, else [`Exit::Complete`].
    pub fn from_early(early: bool) -> Self {
        if early {
            Exit::Early
        } else {
            Exit::Complete
        }
    }
}

/// Tally of threshold-kernel invocations, how many of them resolved on
/// an early-exit path without computing the exact distance, and how many
/// of those an exact bound ([`Exit::Bound`]) decided. Purely observational:
/// verdicts and cost accounting are identical whether or not anyone
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExitCounts {
    /// Threshold-kernel invocations.
    pub checks: u64,
    /// Invocations resolved without the exact distance computation.
    pub early_exits: u64,
    /// Of those, invocations an exact bound rejected before touching the
    /// payloads: the Jaccard bitmap bound or the angular pivot bound.
    pub bound_rejects: u64,
}

impl ExitCounts {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &ExitCounts) {
        self.checks += other.checks;
        self.early_exits += other.early_exits;
        self.bound_rejects += other.bound_rejects;
    }
}

/// Where the counted kernels report: [`ExitCounts`] tallies, `()`
/// discards — so the uncounted rule walk is the counted one run with
/// `()`, and compiles to the same code.
pub trait KernelTally: Default + Send {
    /// Records `checks` kernel invocations that each resolved by `exit`.
    fn record(&mut self, checks: u64, exit: Exit);
    /// Folds another tally into this one.
    fn merge(&mut self, other: &Self);
}

impl KernelTally for ExitCounts {
    fn record(&mut self, checks: u64, exit: Exit) {
        self.checks += checks;
        if exit != Exit::Complete {
            self.early_exits += checks;
        }
        if exit == Exit::Bound {
            self.bound_rejects += checks;
        }
    }

    fn merge(&mut self, other: &Self) {
        ExitCounts::merge(self, other);
    }
}

impl KernelTally for () {
    fn record(&mut self, _: u64, _: Exit) {}

    fn merge(&mut self, _: &Self) {}
}

/// One record's side of a threshold check: the field's payload with the
/// summary its caller caches for it.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A dense vector with its Euclidean norm, as
    /// [`RecordStore::field_norm`](crate::RecordStore::field_norm) caches
    /// it, and its angles to its table's pivots
    /// ([`vector::NO_PIVOTS`] for none).
    Dense(&'a [f64], f64, &'a PivotAngles),
    /// A shingle set with its bitmap [`Sketch`] ([`shingle::sketch`]).
    Shingles(&'a [u64], &'a Sketch),
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

    /// The exact normalized distance between two fields, given their
    /// norms as [`RecordStore::field_norm`](crate::RecordStore::field_norm)
    /// caches them ([`FieldValue::norm`](crate::FieldValue::norm) for an
    /// owned field; ignored for shingles). Both backings and the
    /// owned-record reference path reach the slice kernels through here.
    ///
    /// # Panics
    /// Panics if either ref's kind does not match the metric, or if two
    /// dense refs differ in dimension.
    pub fn distance(self, a: FieldRef<'_>, b: FieldRef<'_>, norm_a: f64, norm_b: f64) -> f64 {
        match self {
            FieldDistance::Angular => {
                vector::angular_distance(a.as_dense(), b.as_dense(), norm_a, norm_b)
            }
            FieldDistance::Jaccard => shingle::jaccard_distance(a.as_shingles(), b.as_shingles()),
        }
    }

    /// Threshold verdict `distance(a, b) <= dthr` on two operands,
    /// reporting how it was reached. The pairwise verification loop runs
    /// this kernel whether the records live in RAM or in a mapped store
    /// file.
    ///
    /// The cheapest safe kernel decides, and each documents its safety
    /// argument:
    /// * angular: a pivot bound, then a guarded cosine-space compare. A
    ///   pair whose angles to some pivot differ by more than `dthr` plus
    ///   [`vector::angular_guard`] fails with no dot product
    ///   ([`Exit::Bound`]);
    /// * Jaccard: two overlap bounds. The exact f64 distance is
    ///   rounding-monotone in the intersection size, so a binary search
    ///   finds the smallest overlap `m*` that passes. A pair whose bitmap
    ///   bound ([`shingle::overlap_bound`], never below the true
    ///   intersection) falls under `m*` fails with no merge
    ///   ([`Exit::Bound`]); otherwise the intersection count stops as
    ///   soon as it reaches `m*` or can no longer reach it. No `m*`
    ///   exists for a NaN threshold, so that verdict is `false`, like the
    ///   exact comparison's.
    ///
    /// The verdict is **bit-identical** to computing the exact distance
    /// and comparing, given operands whose norms and sketches are those
    /// of their payloads; only the work to reach it shrinks, and the exit
    /// feeds the [`ExitCounts`] observability tally only. Cost accounting
    /// is unaffected: callers charge per elementary distance regardless of
    /// early exits (the paper's Definition 3 is conservative).
    ///
    /// # Panics
    /// Panics if either operand's kind does not match the metric, or if
    /// two dense operands differ in dimension.
    #[inline]
    pub fn at_most_counted(self, a: Operand<'_>, b: Operand<'_>, dthr: f64) -> (bool, Exit) {
        match (self, a, b) {
            (FieldDistance::Angular, Operand::Dense(a, na, pa), Operand::Dense(b, nb, pb)) => {
                vector::angular_at_most_counted((a, na, pa), (b, nb, pb), dthr)
            }
            (FieldDistance::Jaccard, Operand::Shingles(a, sa), Operand::Shingles(b, sb)) => {
                shingle::jaccard_at_most_sketched(a, b, sa, sb, dthr)
            }
            _ => panic!("{self:?} threshold on an operand of the wrong kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;
    use crate::shingle::ShingleSet;
    use crate::vector::{self, DenseVector};

    fn sh(v: &[u64]) -> FieldValue {
        FieldValue::Shingles(ShingleSet::new(v.to_vec()))
    }

    fn dn(v: &[f64]) -> FieldValue {
        FieldValue::Dense(DenseVector::new(v.to_vec()))
    }

    fn dist(metric: FieldDistance, a: &FieldValue, b: &FieldValue) -> f64 {
        metric.distance(a.as_ref(), b.as_ref(), a.norm(), b.norm())
    }

    /// An owned field's threshold operand, with its norm or `sketch`.
    fn operand<'a>(v: &'a FieldValue, sketch: &'a Sketch) -> Operand<'a> {
        match v.as_ref() {
            FieldRef::Dense(x) => Operand::Dense(x, v.norm(), &vector::NO_PIVOTS),
            FieldRef::Shingles(x) => Operand::Shingles(x, sketch),
        }
    }

    fn at_most(metric: FieldDistance, a: &FieldValue, b: &FieldValue, t: f64) -> bool {
        let sketch_of = |v: &FieldValue| match v.as_ref() {
            FieldRef::Shingles(x) => shingle::sketch(x),
            FieldRef::Dense(_) => Sketch::default(),
        };
        let (sa, sb) = (sketch_of(a), sketch_of(b));
        metric
            .at_most_counted(operand(a, &sa), operand(b, &sb), t)
            .0
    }

    #[test]
    fn angular_distance() {
        let (a, b) = (dn(&[1.0, 0.0]), dn(&[0.0, 1.0]));
        assert!((dist(FieldDistance::Angular, &a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_distance() {
        let (a, b) = (sh(&[1, 2, 3, 4]), sh(&[3, 4, 5]));
        assert!((dist(FieldDistance::Jaccard, &a, &b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_norms() {
        let (a, b) = (sh(&[1, 2, 3, 4]), sh(&[3, 4, 5]));
        let d = FieldDistance::Jaccard.distance(a.as_ref(), b.as_ref(), 7.0, -1.0);
        assert_eq!(d.to_bits(), dist(FieldDistance::Jaccard, &a, &b).to_bits());
    }

    #[test]
    fn threshold_agrees_with_distance() {
        let jacc_pairs = [
            (sh(&[1, 2, 3, 4]), sh(&[3, 4, 5])),
            (sh(&[1]), sh(&(0..40).collect::<Vec<_>>())),
            (sh(&[]), sh(&[7])),
        ];
        for (a, b) in &jacc_pairs {
            for t in [0.0, 0.3, 0.6, 1.0] {
                assert_eq!(
                    at_most(FieldDistance::Jaccard, a, b, t),
                    dist(FieldDistance::Jaccard, a, b) <= t
                );
            }
        }
        let dense_pairs = [
            (dn(&[1.0, 0.0]), dn(&[0.0, 1.0])),
            (dn(&[0.3, -0.7]), dn(&[0.3, -0.7])),
            (dn(&[0.0, 0.0]), dn(&[1.0, 2.0])),
        ];
        for (a, b) in &dense_pairs {
            let (fa, fb) = (a.as_ref(), b.as_ref());
            let recomputed = FieldDistance::Angular.distance(
                fa,
                fb,
                vector::norm(fa.as_dense()),
                vector::norm(fb.as_dense()),
            );
            assert_eq!(
                recomputed.to_bits(),
                dist(FieldDistance::Angular, a, b).to_bits()
            );
            for t in [0.0, 0.4, 0.5, 1.0] {
                assert_eq!(
                    at_most(FieldDistance::Angular, a, b, t),
                    dist(FieldDistance::Angular, a, b) <= t
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
        let a = sh(&[1]);
        let _ = dist(FieldDistance::Angular, &a, &a);
    }

    #[test]
    #[should_panic]
    fn threshold_kind_mismatch_panics() {
        let a = dn(&[1.0]);
        let _ = at_most(FieldDistance::Jaccard, &a, &a, 0.5);
    }
}
