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
use crate::record::{FieldKind, FieldRef, Record, Schema};
use crate::shingle::{self, Sketch};
use crate::store::RecordStore;
use crate::vector::{self, PivotAngles, PIVOTS};

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

    /// Do slots `a` and `b` of `table` match under this rule? The one
    /// walk of the rule that production verdicts take.
    ///
    /// Semantically identical to [`MatchRule::matches`] on the two slots'
    /// records — same verdict for every input, bit for bit — but every
    /// operand comes from the table: the payload with its cached norm
    /// ([`RecordStore::field_norm`]) and pivot angles, or its bitmap
    /// sketch, read by the per-metric threshold kernels
    /// ([`FieldDistance::at_most_counted`]). It runs identically whether
    /// the table borrows an in-RAM [`crate::Dataset`] or a memory-mapped
    /// file.
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
    /// Panics if `table` was built for a rule that reads fewer fields, or
    /// if a slot is out of range.
    pub fn matches_in_counted<T: KernelTally>(
        &self,
        table: &SlotTable<'_>,
        a: usize,
        b: usize,
        counts: &mut T,
    ) -> bool {
        match self {
            MatchRule::Threshold {
                field,
                metric,
                dthr,
            } => {
                let (verdict, exit) = metric.at_most_counted(
                    table.operand(a, *field),
                    table.operand(b, *field),
                    *dthr,
                );
                counts.record(1, exit);
                verdict
            }
            // Same short-circuit order as `matches`: skipped sub-rules
            // are not counted (their kernels never ran).
            MatchRule::And(subs) => subs
                .iter()
                .all(|r| r.matches_in_counted(table, a, b, counts)),
            MatchRule::Or(subs) => subs
                .iter()
                .any(|r| r.matches_in_counted(table, a, b, counts)),
            MatchRule::WeightedAverage { parts, dthr } => {
                // The same fold as `matches` (no early exit: a partial-sum
                // cutoff could not reproduce the exact sum), only the norm
                // lookups are cached.
                counts.record(parts.len() as u64, Exit::Complete);
                let d = weighted_distance(parts, |f| {
                    let ((x, nx), (y, ny)) = (table.field(a, f), table.field(b, f));
                    (x, y, nx, ny)
                });
                d <= *dthr
            }
        }
    }

    /// Raises `reads[f]` to how the rule reads each field `f`, growing
    /// `reads` to cover it.
    fn mark_reads(&self, reads: &mut Vec<Read>) {
        let mut mark = |field: usize, read: Read| {
            if reads.len() <= field {
                reads.resize(field + 1, Read::Not);
            }
            reads[field] = reads[field].max(read);
        };
        match self {
            MatchRule::Threshold { field, .. } => mark(*field, Read::Bounded),
            MatchRule::And(subs) | MatchRule::Or(subs) => {
                subs.iter().for_each(|r| r.mark_reads(reads));
            }
            MatchRule::WeightedAverage { parts, .. } => {
                parts.iter().for_each(|p| mark(p.field, Read::Payload));
            }
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

/// How a rule reads one field, weakest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Read {
    /// Not at all: the field takes no column.
    Not,
    /// Only through weighted-average parts: payloads and norms.
    Payload,
    /// Through a threshold leaf too, whose kernel takes a bound: a
    /// shingle column adds bitmap sketches, a dense one pivot angles.
    Bounded,
}

/// Canonical pairs a call must be able to test per slot before a dense
/// column takes pivot angles ([`SlotTable::build`]).
const PIVOT_PAIRS_PER_SLOT: usize = 16;

/// The operands of one `P` call (or one recovery): for each slot, the
/// record id and, for each field its rule reads, the payload borrowed
/// from the store with what the kernels cache for it:
/// * a dense field holds its norm and, when a threshold leaf reads it
///   and the call is big enough, its angles to [`PIVOTS`] pivot slots;
/// * a shingle field holds, when a threshold leaf reads it, its bitmap
///   [`Sketch`].
///
/// A rule walk reads operands only from here
/// ([`MatchRule::matches_in_counted`]), so a pair costs no store
/// dispatch, and both ends of a pivot bound hold angles to the same
/// pivots.
pub struct SlotTable<'s> {
    store: &'s dyn RecordStore,
    /// The record id of each slot.
    ids: Vec<u32>,
    /// Column `f` holds field `f`.
    columns: Vec<Column<'s>>,
}

enum Column<'s> {
    /// A field the rule does not read.
    Unread,
    Dense {
        slots: Vec<DenseSlot<'s>>,
        /// The pivots' payloads and norms: up to [`PIVOTS`] distinct
        /// [`vector::bound_safe`] slots, or none.
        pivots: Vec<(&'s [f64], f64)>,
    },
    Shingles {
        sets: Vec<&'s [u64]>,
        /// One per slot when a threshold leaf reads the field.
        sketches: Option<Vec<Sketch>>,
    },
}

struct DenseSlot<'s> {
    x: &'s [f64],
    norm: f64,
    angles: PivotAngles,
}

/// The bitmap sketch columns a [`SlotTable`] held, one per field (`None`
/// for a field without sketches), slots in ascending record-id order:
/// what a memoized `P` call keeps for a later call over a superset of its
/// records ([`SlotTable::seeded`]). Empty, it covers no slot.
#[derive(Debug, Default, PartialEq)]
pub struct Sketches(Vec<Option<Vec<Sketch>>>);

impl<'s> SlotTable<'s> {
    /// The table of `ids`' slots, in order, for a call that may test up
    /// to `pairs` pairs of them. A dense column read by a threshold leaf
    /// takes pivot angles only when `pairs` reaches 16 a slot: a slot's
    /// angles cost [`PIVOTS`] dot products and `acos`es, and a reject
    /// saves about one dot product. The pivots are the first
    /// [`vector::bound_safe`] slots at or after slots `0`, `n/4`, `n/2`
    /// and `3n/4`, deduplicated.
    pub fn build(rule: &MatchRule, store: &'s dyn RecordStore, ids: &[u32], pairs: usize) -> Self {
        Self::seeded(rule, store, ids, pairs, Sketches::default())
    }

    /// [`SlotTable::build`], with each sketch column starting from
    /// `stored`'s: the sketches a table of the same rule left
    /// ([`SlotTable::into_sketches`]) for a prefix of `ids`. Only the
    /// slots past that prefix are sketched.
    ///
    /// # Panics
    /// Panics if a stored column is longer than `ids`.
    pub fn seeded(
        rule: &MatchRule,
        store: &'s dyn RecordStore,
        ids: &[u32],
        pairs: usize,
        mut stored: Sketches,
    ) -> Self {
        let mut reads = Vec::new();
        rule.mark_reads(&mut reads);
        let n = ids.len();
        let pivoted = pairs >= PIVOT_PAIRS_PER_SLOT.saturating_mul(n);
        let columns = reads
            .iter()
            .enumerate()
            .map(|(field, &read)| {
                let bounded = read == Read::Bounded;
                match (read, store.schema().fields()[field].kind) {
                    (Read::Not, _) => Column::Unread,
                    (_, FieldKind::Dense) => Column::Dense {
                        slots: Vec::with_capacity(n),
                        pivots: if bounded && pivoted {
                            pivots(store, ids, field)
                        } else {
                            Vec::new()
                        },
                    },
                    (_, FieldKind::Shingles) => Column::Shingles {
                        sets: Vec::with_capacity(n),
                        sketches: bounded.then(|| {
                            let mut sketches = stored
                                .0
                                .get_mut(field)
                                .and_then(Option::take)
                                .unwrap_or_default();
                            assert!(sketches.len() <= n, "stored sketches past the table");
                            sketches.reserve(n - sketches.len());
                            sketches
                        }),
                    },
                }
            })
            .collect();
        let mut table = Self {
            store,
            ids: Vec::with_capacity(n),
            columns,
        };
        for &id in ids {
            table.push(id);
        }
        table
    }

    /// The table's sketch columns in ascending record-id order. Its ids
    /// must form at most two ascending runs, as a memoized `P` call lays
    /// them out: its seed's records, then the rest.
    ///
    /// # Panics
    /// Panics if the ids form more than two ascending runs.
    pub fn into_sketches(self) -> Sketches {
        let ids = &self.ids;
        let split = ids
            .windows(2)
            .position(|pair| pair[0] > pair[1])
            .map_or(ids.len(), |at| at + 1);
        let (seed, rest) = ids.split_at(split);
        assert!(
            rest.windows(2).all(|pair| pair[0] < pair[1]),
            "a table's ids form at most two ascending runs"
        );
        // Slot order of the merged runs.
        let mut order = Vec::with_capacity(if rest.is_empty() { 0 } else { ids.len() });
        if !rest.is_empty() {
            let (mut i, mut j) = (0, 0);
            while i < seed.len() || j < rest.len() {
                if j == rest.len() || (i < seed.len() && seed[i] < rest[j]) {
                    order.push(i);
                    i += 1;
                } else {
                    order.push(split + j);
                    j += 1;
                }
            }
        }
        Sketches(
            self.columns
                .into_iter()
                .map(|column| match column {
                    Column::Shingles {
                        sketches: Some(sketches),
                        ..
                    } if !order.is_empty() => Some(order.iter().map(|&k| sketches[k]).collect()),
                    Column::Shingles { sketches, .. } => sketches,
                    _ => None,
                })
                .collect(),
        )
    }

    /// Appends record `id` as the next slot.
    pub fn push(&mut self, id: u32) {
        let slot = self.ids.len();
        self.ids.push(id);
        for (field, column) in self.columns.iter_mut().enumerate() {
            match column {
                Column::Unread => {}
                Column::Dense { slots, pivots } => {
                    let x = self.store.field(id, field).as_dense();
                    let norm = self.store.field_norm(id, field);
                    let mut angles = vector::NO_PIVOTS;
                    for (angle, &(p, p_norm)) in angles.iter_mut().zip(pivots.iter()) {
                        *angle = vector::pivot_angle(x, norm, p, p_norm);
                    }
                    slots.push(DenseSlot { x, norm, angles });
                }
                Column::Shingles { sets, sketches } => {
                    let set = self.store.field(id, field).as_shingles();
                    // A stored sketch already covers a seeded slot.
                    if let Some(sketches) = sketches.as_mut().filter(|s| s.len() == slot) {
                        sketches.push(shingle::sketch(set));
                    }
                    sets.push(set);
                }
            }
        }
    }

    /// Removes the last slot.
    pub fn pop(&mut self) {
        self.ids.pop();
        for column in &mut self.columns {
            match column {
                Column::Unread => {}
                Column::Dense { slots, .. } => {
                    slots.pop();
                }
                Column::Shingles { sets, sketches } => {
                    sets.pop();
                    sketches.as_mut().map(Vec::pop);
                }
            }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table holds no slot.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The record id of `slot`.
    #[inline]
    pub fn id(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    /// The threshold operand of field `field` on `slot`.
    ///
    /// # Panics
    /// Panics if the rule reads no such field, or if it is a shingle
    /// field no threshold leaf reads.
    #[inline]
    pub fn operand(&self, slot: usize, field: usize) -> Operand<'_> {
        match &self.columns[field] {
            Column::Dense { slots, .. } => {
                let DenseSlot { x, norm, angles } = &slots[slot];
                Operand::Dense(x, *norm, angles)
            }
            Column::Shingles { sets, sketches } => Operand::Shingles(
                sets[slot],
                &sketches.as_ref().expect("field read by no threshold leaf")[slot],
            ),
            Column::Unread => panic!("field {field} read by no rule leaf"),
        }
    }

    /// Field `field` of `slot` with its norm (0 for shingles), as a
    /// weighted-average part reads it.
    fn field(&self, slot: usize, field: usize) -> (FieldRef<'s>, f64) {
        match &self.columns[field] {
            Column::Dense { slots, .. } => (FieldRef::Dense(slots[slot].x), slots[slot].norm),
            Column::Shingles { sets, .. } => (FieldRef::Shingles(sets[slot]), 0.0),
            Column::Unread => panic!("field {field} read by no rule leaf"),
        }
    }
}

/// The pivots of dense field `field` over the slots of `ids`, as
/// payloads and norms ([`SlotTable::build`] says which slots).
fn pivots<'s>(store: &'s dyn RecordStore, ids: &[u32], field: usize) -> Vec<(&'s [f64], f64)> {
    let n = ids.len();
    let norm = |k: usize| store.field_norm(ids[k], field);
    let mut slots: Vec<usize> = (0..PIVOTS)
        .filter_map(|p| (p * n / PIVOTS..n).find(|&k| vector::bound_safe(norm(k))))
        .collect();
    slots.dedup();
    slots
        .into_iter()
        .map(|k| (store.field(ids[k], field).as_dense(), norm(k)))
        .collect()
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
        // Without and with pivot angles.
        for (rule, pairs) in rules.iter().flat_map(|r| [(r, 0), (r, usize::MAX)]) {
            let table = SlotTable::build(rule, &d, &ids, pairs);
            for i in 0..6 {
                for j in 0..6 {
                    assert_eq!(
                        rule.matches_in_counted(&table, i, j, &mut ()),
                        rule.matches(d.record(i as u32), d.record(j as u32)),
                        "rule {rule:?} pair ({i},{j}) pairs={pairs}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_table_holds_a_column_per_read_field() {
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
        // The two leaves on the body field share its column.
        let rule = MatchRule::Or(vec![
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.1),
            MatchRule::And(vec![
                MatchRule::threshold(1, FieldDistance::Angular, 0.2),
                MatchRule::threshold(0, FieldDistance::Jaccard, 0.5),
            ]),
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.9),
        ]);
        let table = SlotTable::build(&rule, &d, &ids, 0);
        assert_eq!(table.columns.len(), 3);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(table.id(k), id);
            for field in [0, 2] {
                let own = shingle::sketch(d.field(id, field).as_shingles());
                let Operand::Shingles(set, sketch) = table.operand(k, field) else {
                    panic!("field {field} is a shingle column");
                };
                assert_eq!((set, sketch), (d.field(id, field).as_shingles(), &own));
            }
            // Too few pairs for pivots: no angles.
            let Operand::Dense(x, norm, angles) = table.operand(k, 1) else {
                panic!("field 1 is a dense column");
            };
            assert_eq!(
                (x, norm.to_bits()),
                (d.field(id, 1).as_dense(), d.field_norm(id, 1).to_bits())
            );
            assert!(angles.iter().all(|a| a.is_nan()));
        }
        // A weighted part reads payloads only: no sketch, no pivots, and
        // unread fields take no column.
        let weighted = MatchRule::WeightedAverage {
            parts: vec![WeightedPart {
                field: 1,
                metric: FieldDistance::Angular,
                weight: 1.0,
            }],
            dthr: 0.5,
        };
        let table = SlotTable::build(&weighted, &d, &ids, usize::MAX);
        assert!(matches!(table.columns[0], Column::Unread));
        assert_eq!(table.columns.len(), 2);
        let Column::Dense { pivots, .. } = &table.columns[1] else {
            panic!("field 1 is a dense column");
        };
        assert!(pivots.is_empty());
        for (i, j) in [(0, 1), (1, 1)] {
            assert_eq!(
                weighted.matches_in_counted(&table, i, j, &mut ()),
                weighted.matches(d.record(ids[i]), d.record(ids[j])),
            );
        }
    }

    /// A table started from the sketches a table over a prefix of its ids
    /// left equals one built from scratch, column by column, and leaves
    /// its sketches in ascending record-id order.
    #[test]
    fn a_seeded_slot_table_equals_a_built_one() {
        use crate::dataset::Dataset;
        let schema = Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
            ("body", FieldKind::Shingles),
        ]);
        let record = |i: u64| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(vec![i, i + 1, 7 * i])),
                FieldValue::Dense(DenseVector::new(vec![1.0, i as f64, 2.0])),
                FieldValue::Shingles(ShingleSet::new(vec![100 + i, 3])),
            ])
        };
        let d = Dataset::new(schema, (0..8).map(record).collect(), vec![0; 8]);
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.5),
            MatchRule::threshold(1, FieldDistance::Angular, 0.2),
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.7),
        ]);
        // The layout of a memoized call: its seed's ids, then the rest.
        let (seed, ids) = ([1, 4, 6], [1, 4, 6, 0, 2, 5, 7]);
        for pairs in [0, usize::MAX] {
            let stored = SlotTable::build(&rule, &d, &seed, pairs).into_sketches();
            let seeded = SlotTable::seeded(&rule, &d, &ids, pairs, stored);
            let built = SlotTable::build(&rule, &d, &ids, pairs);
            assert_eq!(seeded.ids, built.ids);
            for (field, (a, b)) in seeded.columns.iter().zip(&built.columns).enumerate() {
                match (a, b) {
                    (
                        Column::Shingles { sets, sketches },
                        Column::Shingles {
                            sets: sets_b,
                            sketches: sketches_b,
                        },
                    ) => assert_eq!((sets, sketches), (sets_b, sketches_b), "field {field}"),
                    (
                        Column::Dense { slots, pivots },
                        Column::Dense {
                            slots: slots_b,
                            pivots: pivots_b,
                        },
                    ) => {
                        assert_eq!(pivots, pivots_b, "field {field}");
                        fn bits<'a>(
                            slots: &[DenseSlot<'a>],
                        ) -> Vec<(&'a [f64], u64, [u64; PIVOTS])> {
                            slots
                                .iter()
                                .map(|s| (s.x, s.norm.to_bits(), s.angles.map(f64::to_bits)))
                                .collect()
                        }
                        assert_eq!(bits(slots), bits(slots_b), "field {field}");
                    }
                    _ => panic!("field {field}: columns of different kinds"),
                }
            }
            let mut ascending = ids;
            ascending.sort_unstable();
            assert_eq!(
                seeded.into_sketches(),
                SlotTable::build(&rule, &d, &ascending, pairs).into_sketches()
            );
        }
    }

    /// Pivots skip slots the bound cannot use; those slots hold NaN
    /// angles, and a pushed slot gets its angles to the same pivots.
    #[test]
    fn slot_table_pivots_are_safe_slots_and_pushes_reuse_them() {
        use crate::dataset::Dataset;
        let schema = Schema::single("hist", FieldKind::Dense);
        let vectors = [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![1e-200, 0.0],
            vec![-1.0, 0.5],
            vec![2.0, 1.0],
        ];
        let records = vectors
            .iter()
            .map(|v| Record::single(FieldValue::Dense(DenseVector::new(v.clone()))))
            .collect();
        let d = Dataset::new(schema, records, (0..8).collect());
        let rule = MatchRule::threshold(0, FieldDistance::Angular, 0.1);
        let mut table = SlotTable::build(&rule, &d, &[0, 1, 2, 3, 4, 5, 6], usize::MAX);
        let Column::Dense { pivots, .. } = &table.columns[0] else {
            panic!("a dense column");
        };
        // Starts 0, 1, 3, 5 (n = 7) find slots 1, 1, 3, 6.
        let expected: Vec<&[f64]> = vec![&vectors[1], &vectors[3], &vectors[6]];
        assert_eq!(pivots.iter().map(|p| p.0).collect::<Vec<_>>(), expected);
        let angles = |table: &SlotTable<'_>, k: usize| match table.operand(k, 0) {
            Operand::Dense(_, _, angles) => *angles,
            Operand::Shingles(..) => unreachable!(),
        };
        for k in [0, 2, 5] {
            assert!(angles(&table, k).iter().all(|a| a.is_nan()), "slot {k}");
        }
        let a = angles(&table, 4);
        assert!((a[0] - 0.25).abs() < 1e-12 && (a[1] - 0.25).abs() < 1e-12);
        assert!(a[3].is_nan(), "three pivots");
        table.push(7);
        table.push(4);
        assert_eq!(angles(&table, 8).map(f64::to_bits), a.map(f64::to_bits));
        table.pop();
        assert_eq!((table.len(), table.id(7)), (8, 7));
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
            let table = SlotTable::build(rule, &d, &ids, usize::MAX);
            let mut counts = ExitCounts::default();
            let mut pairs = 0u64;
            for i in 0..6 {
                for j in 0..6 {
                    pairs += 1;
                    assert_eq!(
                        rule.matches_in_counted(&table, i, j, &mut counts),
                        rule.matches_in_counted(&table, i, j, &mut ()),
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
