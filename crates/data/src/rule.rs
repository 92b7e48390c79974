//! Match rules: when do two records refer to the same entity?
//!
//! The simplest rule is a single distance threshold (paper §3): records
//! `a`, `b` match when `d(a, b) ≤ dthr`. Real datasets have several fields,
//! so Appendix C extends this to **AND rules**, **OR rules**, **weighted
//! average rules**, and arbitrary combinations of the three. The pairwise
//! computation function `P` (paper Definition 2) evaluates these rules
//! exactly; the transitive hashing functions approximate them with
//! AND-OR-amplified LSH schemes.

use serde::{Deserialize, Serialize};

use crate::distance::{Exit, FieldDistance, KernelTally, Operand};
use crate::record::{FieldRef, Record, Schema};
use crate::shingle::{self, Sketch};
use crate::store::RecordStore;

/// One component of a weighted-average rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedPart {
    /// Field index into the record.
    pub field: usize,
    /// Metric applied to that field.
    pub metric: FieldDistance,
    /// Non-negative weight `αᵢ`; weights of a rule sum to 1.
    pub weight: f64,
}

/// A match rule over multi-field records (paper Appendix C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MatchRule {
    /// `d(f, f') ≤ dthr` on a single field.
    Threshold {
        /// Field index into the record.
        field: usize,
        /// Metric applied to that field.
        metric: FieldDistance,
        /// Normalized distance threshold in `[0, 1]`.
        dthr: f64,
    },
    /// All sub-rules must match (Appendix C.1).
    And(Vec<MatchRule>),
    /// At least one sub-rule must match (Appendix C.2).
    Or(Vec<MatchRule>),
    /// `Σ αᵢ · dᵢ(fᵢ, fᵢ') ≤ dthr` (Appendix C.3).
    WeightedAverage {
        /// The weighted components; weights must sum to 1.
        parts: Vec<WeightedPart>,
        /// Threshold on the weighted-average distance.
        dthr: f64,
    },
}

impl MatchRule {
    /// Convenience constructor for the single-field threshold rule.
    pub fn threshold(field: usize, metric: FieldDistance, dthr: f64) -> Self {
        MatchRule::Threshold {
            field,
            metric,
            dthr,
        }
    }

    /// Do two records match under this rule?
    ///
    /// The reference path: every threshold computes its exact distance
    /// ([`FieldDistance::distance`], norms recomputed from the records)
    /// and compares. It is the differential-test oracle for
    /// [`MatchRule::matches_in_counted`], which must agree with it on
    /// every input, bit for bit.
    pub fn matches(&self, a: &Record, b: &Record) -> bool {
        match self {
            MatchRule::Threshold {
                field,
                metric,
                dthr,
            } => {
                let (fa, fb, na, nb) = record_fields(a, b, *field);
                metric.distance(fa, fb, na, nb) <= *dthr
            }
            MatchRule::And(subs) => subs.iter().all(|r| r.matches(a, b)),
            MatchRule::Or(subs) => subs.iter().any(|r| r.matches(a, b)),
            MatchRule::WeightedAverage { parts, dthr } => {
                weighted_distance(parts, |f| record_fields(a, b, f)) <= *dthr
            }
        }
    }

    /// Do records `i` and `j` of `store` match under this rule? The one
    /// walk of the rule that production verdicts take.
    ///
    /// Semantically identical to [`MatchRule::matches`] on the two
    /// records — same verdict for every input, bit for bit — but routed
    /// through the cached norms ([`RecordStore::field_norm`]), the
    /// records' bitmap sketches and the per-metric threshold kernels
    /// ([`FieldDistance::at_most_counted`]). `sketch_i` and `sketch_j`
    /// are the records' [`RuleSketches`] rows, read only at a Jaccard
    /// threshold leaf. It runs identically whether the store is an in-RAM
    /// [`crate::Dataset`] or a memory-mapped file.
    ///
    /// Reports to a [`KernelTally`] (an [`ExitCounts`](crate::ExitCounts)
    /// counts, `()` discards and compiles down to the plain walk): every
    /// threshold-kernel invocation actually performed (respecting the
    /// same AND/OR short-circuits as `matches`) is a check, with how it
    /// exited. Weighted-average parts always evaluate their exact
    /// distances (the fold admits no early exit and takes no bound), so
    /// they count as checks that never exit early.
    ///
    /// # Panics
    /// Panics if a Jaccard threshold leaf reads a row of a table built
    /// for a rule with no Jaccard leaf on its field.
    pub fn matches_in_counted<T: KernelTally>(
        &self,
        store: &dyn RecordStore,
        i: u32,
        j: u32,
        sketch_i: SketchRow<'_>,
        sketch_j: SketchRow<'_>,
        counts: &mut T,
    ) -> bool {
        match self {
            MatchRule::Threshold {
                field,
                metric,
                dthr,
            } => {
                let (verdict, exit) = metric.at_most_counted(
                    operand(store, i, *field, *metric, sketch_i),
                    operand(store, j, *field, *metric, sketch_j),
                    *dthr,
                );
                counts.record(1, exit);
                verdict
            }
            // Same short-circuit order as `matches`: skipped sub-rules
            // are not counted (their kernels never ran).
            MatchRule::And(subs) => subs
                .iter()
                .all(|r| r.matches_in_counted(store, i, j, sketch_i, sketch_j, counts)),
            MatchRule::Or(subs) => subs
                .iter()
                .any(|r| r.matches_in_counted(store, i, j, sketch_i, sketch_j, counts)),
            MatchRule::WeightedAverage { parts, dthr } => {
                // The same fold as `matches` (no early exit: a partial-sum
                // cutoff could not reproduce the exact sum), only the norm
                // lookups are cached.
                counts.record(parts.len() as u64, Exit::Complete);
                let d = weighted_distance(parts, |f| {
                    (
                        store.field(i, f),
                        store.field(j, f),
                        store.field_norm(i, f),
                        store.field_norm(j, f),
                    )
                });
                d <= *dthr
            }
        }
    }

    /// Appends each field a Jaccard threshold leaf reads and `fields`
    /// does not yet hold, in walk order. Weighted-average parts take no
    /// bound, so they add none.
    fn jaccard_fields(&self, fields: &mut Vec<usize>) {
        match self {
            MatchRule::Threshold { field, metric, .. } => {
                if *metric == FieldDistance::Jaccard && !fields.contains(field) {
                    fields.push(*field);
                }
            }
            MatchRule::And(subs) | MatchRule::Or(subs) => {
                subs.iter().for_each(|r| r.jaccard_fields(fields));
            }
            MatchRule::WeightedAverage { .. } => {}
        }
    }

    /// Number of *elementary* distance evaluations performed by
    /// [`MatchRule::matches`] in the worst case. Used by the cost model to
    /// convert "pairwise comparisons" into comparable units.
    pub fn num_elementary_distances(&self) -> usize {
        match self {
            MatchRule::Threshold { .. } => 1,
            MatchRule::And(subs) | MatchRule::Or(subs) => {
                subs.iter().map(Self::num_elementary_distances).sum()
            }
            MatchRule::WeightedAverage { parts, .. } => parts.len(),
        }
    }

    /// Validates the rule against a schema: field indices in range, metric
    /// kinds consistent, thresholds in `[0, 1]`, weights positive and
    /// summing to 1 (within `1e-9`), combinators non-empty.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        match self {
            MatchRule::Threshold {
                field,
                metric,
                dthr,
            } => {
                check_field(schema, *field, *metric)?;
                check_threshold(*dthr)
            }
            MatchRule::And(subs) | MatchRule::Or(subs) => {
                if subs.is_empty() {
                    return Err("AND/OR rule must have at least one sub-rule".into());
                }
                subs.iter().try_for_each(|r| r.validate(schema))
            }
            MatchRule::WeightedAverage { parts, dthr } => {
                if parts.is_empty() {
                    return Err("weighted-average rule must have at least one part".into());
                }
                let mut total = 0.0;
                for p in parts {
                    check_field(schema, p.field, p.metric)?;
                    if p.weight <= 0.0 {
                        return Err(format!("non-positive weight {}", p.weight));
                    }
                    total += p.weight;
                }
                if (total - 1.0).abs() > 1e-9 {
                    return Err(format!("weights sum to {total}, expected 1"));
                }
                check_threshold(*dthr)
            }
        }
    }
}

/// The bitmap sketches a rule's Jaccard threshold leaves bound overlaps
/// with, for a list of records: row `k` holds, for the list's `k`-th
/// record, one [`Sketch`] of each field a Jaccard threshold leaf reads
/// (once, however many leaves read it). A rule with no Jaccard leaf has
/// empty rows and allocates nothing.
#[derive(Debug, Clone)]
pub struct RuleSketches {
    /// The sketched fields: column `c` of a row is field `fields[c]`.
    fields: Vec<usize>,
    /// Row-major: row `k` is `sketches[k * fields.len()..][..fields.len()]`.
    sketches: Vec<Sketch>,
}

impl RuleSketches {
    /// An empty table for `rule`.
    pub fn new(rule: &MatchRule) -> Self {
        let mut fields = Vec::new();
        rule.jaccard_fields(&mut fields);
        Self {
            fields,
            sketches: Vec::new(),
        }
    }

    /// The table of `ids`' rows, in order.
    pub fn build(rule: &MatchRule, store: &dyn RecordStore, ids: &[u32]) -> Self {
        let mut table = Self::new(rule);
        if !table.fields.is_empty() {
            table.sketches.reserve(ids.len() * table.fields.len());
            for &id in ids {
                table.push(store, id);
            }
        }
        table
    }

    /// Appends record `id`'s row.
    pub fn push(&mut self, store: &dyn RecordStore, id: u32) {
        for &field in &self.fields {
            self.sketches
                .push(shingle::sketch(store.field(id, field).as_shingles()));
        }
    }

    /// Row `k`, the `k`-th record pushed, as a rule walk takes it.
    #[inline]
    pub fn row(&self, k: usize) -> SketchRow<'_> {
        SketchRow {
            table: self,
            row: k,
        }
    }
}

/// One record's row of a [`RuleSketches`] table. Only a Jaccard
/// threshold leaf looks a sketch up in it, so a rule walk with no such
/// leaf never touches the table.
#[derive(Debug, Clone, Copy)]
pub struct SketchRow<'a> {
    table: &'a RuleSketches,
    row: usize,
}

impl<'a> SketchRow<'a> {
    /// The sketch of field `field` on this row.
    ///
    /// # Panics
    /// Panics if no Jaccard threshold leaf of the table's rule reads
    /// `field`, or if the row was never pushed.
    #[inline]
    pub fn sketch(self, field: usize) -> &'a Sketch {
        let RuleSketches { fields, sketches } = self.table;
        let column = fields
            .iter()
            .position(|&f| f == field)
            .expect("field read by no Jaccard threshold leaf");
        &sketches[self.row * fields.len() + column]
    }
}

/// A threshold operand for field `field` of record `id`: its cached norm
/// under an angular metric, its sketch on `row` under Jaccard.
/// Inlined, like [`FieldDistance::at_most_counted`]: as two calls it
/// cost the angular `P` ~30% a pair (1 500 128-d vectors, one thread).
#[inline]
fn operand<'a>(
    store: &'a dyn RecordStore,
    id: u32,
    field: usize,
    metric: FieldDistance,
    row: SketchRow<'a>,
) -> Operand<'a> {
    match metric {
        FieldDistance::Angular => Operand::Dense(
            store.field(id, field).as_dense(),
            store.field_norm(id, field),
        ),
        FieldDistance::Jaccard => {
            Operand::Shingles(store.field(id, field).as_shingles(), row.sketch(field))
        }
    }
}

/// The weighted-average distance `d̄(a, b) = Σ αᵢ dᵢ` of Appendix C.3,
/// with `fields(f)` lending field `f` of both records and their norms.
/// Both rule walks sum in this one order, so their verdicts agree.
fn weighted_distance<'r>(
    parts: &[WeightedPart],
    fields: impl Fn(usize) -> (FieldRef<'r>, FieldRef<'r>, f64, f64),
) -> f64 {
    parts
        .iter()
        .map(|p| {
            let (a, b, norm_a, norm_b) = fields(p.field);
            p.weight * p.metric.distance(a, b, norm_a, norm_b)
        })
        .sum()
}

/// Field `f` of two owned records with their norms, recomputed.
fn record_fields<'r>(
    a: &'r Record,
    b: &'r Record,
    f: usize,
) -> (FieldRef<'r>, FieldRef<'r>, f64, f64) {
    let (fa, fb) = (a.field(f), b.field(f));
    (fa.as_ref(), fb.as_ref(), fa.norm(), fb.norm())
}

fn check_field(schema: &Schema, field: usize, metric: FieldDistance) -> Result<(), String> {
    let def = schema
        .fields()
        .get(field)
        .ok_or_else(|| format!("field index {field} out of range"))?;
    if def.kind != metric.expected_kind() {
        return Err(format!(
            "metric {:?} incompatible with field {} of kind {:?}",
            metric, def.name, def.kind
        ));
    }
    Ok(())
}

fn check_threshold(dthr: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&dthr) {
        Ok(())
    } else {
        Err(format!("threshold {dthr} outside [0, 1]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FieldKind, FieldValue};
    use crate::shingle::ShingleSet;
    use crate::vector::DenseVector;

    fn two_field_schema() -> Schema {
        Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
        ])
    }

    fn rec(shingles: &[u64], vec: &[f64]) -> Record {
        Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(shingles.to_vec())),
            FieldValue::Dense(DenseVector::new(vec.to_vec())),
        ])
    }

    #[test]
    fn threshold_rule_matches() {
        let r = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let a = rec(&[1, 2, 3, 4], &[1.0]);
        let b = rec(&[3, 4, 5], &[1.0]);
        // Jaccard distance is exactly 0.6 — inclusive threshold.
        assert!(r.matches(&a, &b));
        let strict = MatchRule::threshold(0, FieldDistance::Jaccard, 0.59);
        assert!(!strict.matches(&a, &b));
    }

    #[test]
    fn and_rule_requires_all() {
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.6),
            MatchRule::threshold(1, FieldDistance::Angular, 0.1),
        ]);
        let a = rec(&[1, 2, 3, 4], &[1.0, 0.0]);
        let close = rec(&[3, 4, 5], &[1.0, 0.05]);
        let far = rec(&[3, 4, 5], &[0.0, 1.0]);
        assert!(rule.matches(&a, &close));
        assert!(!rule.matches(&a, &far));
    }

    #[test]
    fn or_rule_requires_any() {
        let rule = MatchRule::Or(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.1),
            MatchRule::threshold(1, FieldDistance::Angular, 0.1),
        ]);
        let a = rec(&[1, 2], &[1.0, 0.0]);
        let b = rec(&[9, 10], &[1.0, 0.01]); // far shingles, close vector
        assert!(rule.matches(&a, &b));
        let c = rec(&[9, 10], &[0.0, 1.0]); // far on both
        assert!(!rule.matches(&a, &c));
    }

    #[test]
    fn weighted_average_rule() {
        let parts = vec![
            WeightedPart {
                field: 0,
                metric: FieldDistance::Jaccard,
                weight: 0.5,
            },
            WeightedPart {
                field: 1,
                metric: FieldDistance::Angular,
                weight: 0.5,
            },
        ];
        let a = rec(&[1, 2, 3, 4], &[1.0, 0.0]);
        let b = rec(&[3, 4, 5], &[0.0, 1.0]);
        // 0.5·0.6 + 0.5·0.5 = 0.55
        let d = weighted_distance(&parts, |f| record_fields(&a, &b, f));
        assert!((d - 0.55).abs() < 1e-12);
        let rule = MatchRule::WeightedAverage { parts, dthr: 0.55 };
        assert!(rule.matches(&a, &b));
    }

    #[test]
    fn matches_in_counted_equals_matches_all_rule_kinds() {
        use crate::dataset::Dataset;
        let schema = two_field_schema();
        let records: Vec<Record> = (0..6)
            .map(|i| {
                let sh: Vec<u64> = (0..(3 + i % 3) as u64)
                    .map(|t| t + (i as u64 / 2) * 2)
                    .collect();
                let ang = (i as f64) * 0.5;
                rec(&sh, &[ang.cos(), ang.sin()])
            })
            .collect();
        let gt = (0..6).collect();
        let d = Dataset::new(schema, records, gt);
        let rules = [
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.5),
            MatchRule::threshold(1, FieldDistance::Angular, 0.2),
            MatchRule::And(vec![
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.7),
                MatchRule::threshold(1, FieldDistance::Angular, 0.4),
            ]),
            MatchRule::Or(vec![
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.2),
                MatchRule::threshold(1, FieldDistance::Angular, 0.3),
            ]),
            MatchRule::WeightedAverage {
                parts: vec![
                    WeightedPart {
                        field: 0,
                        metric: FieldDistance::Jaccard,
                        weight: 0.6,
                    },
                    WeightedPart {
                        field: 1,
                        metric: FieldDistance::Angular,
                        weight: 0.4,
                    },
                ],
                dthr: 0.45,
            },
        ];
        let ids: Vec<u32> = (0..6).collect();
        for rule in &rules {
            let sk = RuleSketches::build(rule, &d, &ids);
            for i in 0..6u32 {
                for j in 0..6u32 {
                    let (si, sj) = (sk.row(i as usize), sk.row(j as usize));
                    assert_eq!(
                        rule.matches_in_counted(&d, i, j, si, sj, &mut ()),
                        rule.matches(d.record(i), d.record(j)),
                        "rule {rule:?} pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn rule_sketches_hold_one_column_per_jaccard_field() {
        use crate::dataset::Dataset;
        let schema = Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
            ("body", FieldKind::Shingles),
        ]);
        let record = |i: u64| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(vec![i, i + 1])),
                FieldValue::Dense(DenseVector::new(vec![1.0, i as f64])),
                FieldValue::Shingles(ShingleSet::new(vec![100 + i])),
            ])
        };
        let d = Dataset::new(schema, (0..3).map(record).collect(), vec![0, 1, 2]);
        let ids = [2, 0];
        // The two leaves on the body field share its column; the angular
        // leaf takes none.
        let rule = MatchRule::Or(vec![
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.1),
            MatchRule::And(vec![
                MatchRule::threshold(1, FieldDistance::Angular, 0.2),
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.5),
            ]),
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.9),
        ]);
        let sk = RuleSketches::build(&rule, &d, &ids);
        assert_eq!(sk.fields, [2, 0]);
        assert_eq!(sk.sketches.len(), 4);
        for (k, &id) in ids.iter().enumerate() {
            for field in [0, 2] {
                let own = shingle::sketch(d.field(id, field).as_shingles());
                assert_eq!(*sk.row(k).sketch(field), own, "record {id} field {field}");
            }
        }
        let dense_only = MatchRule::Or(vec![
            MatchRule::threshold(1, FieldDistance::Angular, 0.2),
            MatchRule::WeightedAverage {
                parts: vec![WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 1.0,
                }],
                dthr: 0.5,
            },
        ]);
        // An angular leaf and a weighted part take no column, so the
        // table allocates nothing.
        let sk = RuleSketches::build(&dense_only, &d, &ids);
        assert!(sk.fields.is_empty() && sk.sketches.capacity() == 0);
        for (i, j) in [(0, 1), (1, 1)] {
            assert_eq!(
                dense_only.matches_in_counted(&d, i, j, sk.row(0), sk.row(1), &mut ()),
                dense_only.matches(d.record(i), d.record(j)),
            );
        }
    }

    #[test]
    fn counting_does_not_change_verdicts_and_counts_kernels() {
        use crate::dataset::Dataset;
        use crate::distance::ExitCounts;
        let schema = two_field_schema();
        let records: Vec<Record> = (0..6)
            .map(|i| {
                let sh: Vec<u64> = (0..(3 + i % 3) as u64)
                    .map(|t| t + (i as u64 / 2) * 2)
                    .collect();
                let ang = (i as f64) * 0.5;
                rec(&sh, &[ang.cos(), ang.sin()])
            })
            .collect();
        let gt = (0..6).collect();
        let d = Dataset::new(schema, records, gt);
        let rules = [
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.5),
            MatchRule::And(vec![
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.7),
                MatchRule::threshold(1, FieldDistance::Angular, 0.4),
            ]),
            MatchRule::Or(vec![
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.2),
                MatchRule::threshold(1, FieldDistance::Angular, 0.3),
            ]),
            MatchRule::WeightedAverage {
                parts: vec![
                    WeightedPart {
                        field: 0,
                        metric: FieldDistance::Jaccard,
                        weight: 0.6,
                    },
                    WeightedPart {
                        field: 1,
                        metric: FieldDistance::Angular,
                        weight: 0.4,
                    },
                ],
                dthr: 0.45,
            },
        ];
        let ids: Vec<u32> = (0..6).collect();
        for rule in &rules {
            let sk = RuleSketches::build(rule, &d, &ids);
            let mut counts = ExitCounts::default();
            let mut pairs = 0u64;
            for i in 0..6u32 {
                for j in 0..6u32 {
                    pairs += 1;
                    let (si, sj) = (sk.row(i as usize), sk.row(j as usize));
                    assert_eq!(
                        rule.matches_in_counted(&d, i, j, si, sj, &mut counts),
                        rule.matches_in_counted(&d, i, j, si, sj, &mut ()),
                        "rule {rule:?} pair ({i},{j})"
                    );
                }
            }
            // Every pair runs at least one kernel and the short-circuits
            // bound the total by the rule's elementary distance count.
            assert!(counts.checks >= pairs, "rule {rule:?}: {counts:?}");
            assert!(
                counts.checks <= pairs * rule.num_elementary_distances() as u64,
                "rule {rule:?}: {counts:?}"
            );
            assert!(counts.early_exits <= counts.checks, "rule {rule:?}");
            assert!(counts.bound_rejects <= counts.early_exits, "rule {rule:?}");
            if let MatchRule::WeightedAverage { .. } = rule {
                assert_eq!(counts.early_exits, 0, "weighted fold has no early exit");
            }
        }
    }

    #[test]
    fn exit_counts_merge_adds() {
        use crate::distance::ExitCounts;
        let mut a = ExitCounts {
            checks: 3,
            early_exits: 1,
            bound_rejects: 1,
        };
        a.merge(&ExitCounts {
            checks: 2,
            early_exits: 2,
            bound_rejects: 1,
        });
        assert_eq!(
            a,
            ExitCounts {
                checks: 5,
                early_exits: 3,
                bound_rejects: 2,
            }
        );
    }

    #[test]
    fn validate_good_rules() {
        let s = two_field_schema();
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.4),
            MatchRule::Or(vec![MatchRule::threshold(1, FieldDistance::Angular, 0.2)]),
        ]);
        assert!(rule.validate(&s).is_ok());
    }

    #[test]
    fn validate_catches_kind_mismatch() {
        let s = two_field_schema();
        let rule = MatchRule::threshold(0, FieldDistance::Angular, 0.4);
        assert!(rule.validate(&s).is_err());
    }

    #[test]
    fn validate_catches_bad_field_index() {
        let s = two_field_schema();
        let rule = MatchRule::threshold(7, FieldDistance::Jaccard, 0.4);
        assert!(rule.validate(&s).is_err());
    }

    #[test]
    fn validate_catches_bad_threshold() {
        let s = two_field_schema();
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 1.4);
        assert!(rule.validate(&s).is_err());
    }

    #[test]
    fn validate_catches_bad_weights() {
        let s = two_field_schema();
        let rule = MatchRule::WeightedAverage {
            parts: vec![WeightedPart {
                field: 0,
                metric: FieldDistance::Jaccard,
                weight: 0.7,
            }],
            dthr: 0.5,
        };
        assert!(rule.validate(&s).is_err(), "weights must sum to 1");
    }

    #[test]
    fn validate_catches_empty_combinator() {
        let s = two_field_schema();
        assert!(MatchRule::And(vec![]).validate(&s).is_err());
        assert!(MatchRule::Or(vec![]).validate(&s).is_err());
    }

    #[test]
    fn elementary_distance_counts() {
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.4),
            MatchRule::WeightedAverage {
                parts: vec![
                    WeightedPart {
                        field: 0,
                        metric: FieldDistance::Jaccard,
                        weight: 0.5,
                    },
                    WeightedPart {
                        field: 1,
                        metric: FieldDistance::Angular,
                        weight: 0.5,
                    },
                ],
                dthr: 0.3,
            },
        ]);
        assert_eq!(rule.num_elementary_distances(), 3);
    }
}
