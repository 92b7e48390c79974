//! Datasets: records plus ground-truth entity labels.
//!
//! A [`Dataset`] owns the records handed to a filtering method and, for
//! evaluation, the ground-truth clustering `C* = {C*₁, …}` (paper §2.1):
//! each record refers to exactly one entity. Ground truth is *never*
//! consulted by the filtering algorithms themselves — only by the accuracy
//! metrics and the "perfect recovery" process of §6.2.

use serde::{Deserialize, Serialize};

use crate::record::{FieldValue, Record, Schema};

/// Opaque entity label. Records with equal labels refer to the same entity.
pub type EntityId = u32;

/// Maximum number of records any record container may hold: record ids
/// are `u32` indexes, so a container of more than `u32::MAX` records
/// could not address its tail.
pub const MAX_RECORDS: usize = u32::MAX as usize;

/// Checks that a container of `count` records can still address every
/// record with a `u32` id. Shared by [`Dataset::push`], the dataset
/// loaders, and the out-of-core store builder so all ingestion paths
/// fail with the same structured error instead of silently truncating
/// ids.
///
/// # Errors
/// Fails when `count` exceeds [`MAX_RECORDS`].
pub fn ensure_record_id_capacity(count: usize) -> Result<(), String> {
    if count > MAX_RECORDS {
        return Err(format!(
            "{count} records exceed the u32 record-id space (max {MAX_RECORDS})"
        ));
    }
    Ok(())
}

/// A set of records with a schema and ground-truth entity labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    records: Vec<Record>,
    /// `ground_truth[i]` is the entity of record `i`.
    ground_truth: Vec<EntityId>,
    /// Euclidean norm of every dense field, row-major
    /// `[record × num_fields]` (0.0 for shingle fields), computed once at
    /// construction. The pairwise kernels evaluate `O(n²)` angular
    /// distances; recomputing both norms inside every call doubles the
    /// dot-product work, so the cache pays for itself after one pair.
    field_norms: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, validating every record against the schema and
    /// the dense dimensions of the first record
    /// ([`Schema::validate_like`]).
    ///
    /// # Panics
    /// Panics if lengths disagree, the dataset is empty, or any record
    /// fails validation.
    pub fn new(schema: Schema, records: Vec<Record>, ground_truth: Vec<EntityId>) -> Self {
        assert_eq!(
            records.len(),
            ground_truth.len(),
            "one ground-truth label per record"
        );
        assert!(!records.is_empty(), "dataset must be non-empty");
        for (i, r) in records.iter().enumerate() {
            if let Err(e) = schema.validate_like(r, records.first()) {
                panic!("record {i} violates schema: {e}");
            }
        }
        let field_norms = compute_field_norms(&records);
        Self {
            schema,
            records,
            ground_truth,
            field_norms,
        }
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records `|R|`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty (never, by construction — kept for idiom).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with id `i`.
    pub fn record(&self, i: u32) -> &Record {
        &self.records[i as usize]
    }

    /// All records in id order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Ground-truth entity of record `i`.
    pub fn entity_of(&self, i: u32) -> EntityId {
        self.ground_truth[i as usize]
    }

    /// Cached Euclidean norm of field `field` of record `i` — exactly the
    /// bits `record.field(field).as_dense().norm()` would produce, paid
    /// once at construction instead of on every distance evaluation.
    /// Shingle fields report 0.0 (they have no norm).
    pub fn field_norm(&self, i: u32, field: usize) -> f64 {
        self.field_norms[i as usize * self.schema.num_fields() + field]
    }

    /// Ground-truth labels in record-id order.
    pub fn ground_truth(&self) -> &[EntityId] {
        &self.ground_truth
    }

    /// The ground-truth clustering `C*`, **sorted by descending cluster
    /// size** (ties broken by ascending entity id, for determinism).
    /// Each cluster lists record ids in ascending order.
    pub fn ground_truth_clusters(&self) -> Vec<Vec<u32>> {
        crate::store::clusters_from_labels(self.len(), &|i| self.ground_truth[i as usize])
    }

    /// Record ids of the `k` largest ground-truth entities — the gold
    /// output `O*` of the filtering stage (paper §2.1). If the dataset has
    /// fewer than `k` entities, all records are returned.
    pub fn gold_records(&self, k: usize) -> Vec<u32> {
        let clusters = self.ground_truth_clusters();
        let mut out: Vec<u32> = clusters.into_iter().take(k).flatten().collect();
        out.sort_unstable();
        out
    }

    /// Sizes of all ground-truth entities, descending.
    pub fn entity_sizes(&self) -> Vec<usize> {
        self.ground_truth_clusters().iter().map(Vec::len).collect()
    }

    /// Number of distinct entities.
    pub fn num_entities(&self) -> usize {
        let mut ids: Vec<EntityId> = self.ground_truth.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Appends one record, growing the norm cache incrementally — the
    /// resulting dataset is bit-identical (records, labels, and cached
    /// norms) to rebuilding from scratch with [`Dataset::new`]. This is
    /// the online-ingestion path: unlike construction, a bad record is
    /// an `Err`, not a panic.
    ///
    /// # Errors
    /// Fails (leaving the dataset unchanged) if the record violates the
    /// schema, a dense field's dimension differs from the dataset's
    /// ([`Schema::validate_like`]), or the dataset already holds
    /// [`MAX_RECORDS`] records (ids are `u32`; growing past that would
    /// silently truncate them).
    pub fn push(&mut self, record: Record, entity: EntityId) -> Result<u32, String> {
        self.schema.validate_like(&record, self.records.first())?;
        ensure_record_id_capacity(self.records.len() + 1)?;
        self.field_norms
            .extend(record.fields().iter().map(FieldValue::norm));
        let id = self.records.len() as u32;
        self.records.push(record);
        self.ground_truth.push(entity);
        Ok(id)
    }

    /// Restricts the dataset to the records with the given ids (in the
    /// given order), remapping ids to `0..ids.len()`. Useful for building
    /// reduced datasets from a filtering output.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn subset(&self, ids: &[u32]) -> Dataset {
        let records = ids.iter().map(|&i| self.record(i).clone()).collect();
        let gt = ids.iter().map(|&i| self.entity_of(i)).collect();
        Dataset::new(self.schema.clone(), records, gt)
    }
}

fn compute_field_norms(records: &[Record]) -> Vec<f64> {
    let mut norms = Vec::with_capacity(records.len() * records[0].num_fields());
    for r in records {
        norms.extend(r.fields().iter().map(FieldValue::norm));
    }
    norms
}

// Hand-written serde impls: the norm cache is derived data and must stay
// out of the wire format (the vendored derive has no `#[serde(skip)]`).
// Deserialization funnels through `Dataset::new`, which re-validates and
// rebuilds the cache.
impl Serialize for Dataset {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("records".to_string(), self.records.to_value()),
            ("ground_truth".to_string(), self.ground_truth.to_value()),
        ])
    }
}

impl Deserialize for Dataset {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("Dataset missing field `{name}`")))
        };
        let schema = Schema::from_value(field("schema")?)
            .map_err(|e| serde::Error::in_field("schema", e))?;
        let records = Vec::<Record>::from_value(field("records")?)
            .map_err(|e| serde::Error::in_field("records", e))?;
        let ground_truth = Vec::<EntityId>::from_value(field("ground_truth")?)
            .map_err(|e| serde::Error::in_field("ground_truth", e))?;
        if records.len() != ground_truth.len() || records.is_empty() {
            return Err(serde::Error::custom(
                "Dataset: records/ground_truth length mismatch or empty",
            ));
        }
        for r in &records {
            if let Err(e) = schema.validate_like(r, records.first()) {
                return Err(serde::Error::custom(format!("record violates schema: {e}")));
            }
        }
        Ok(Dataset::new(schema, records, ground_truth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FieldKind, FieldValue};
    use crate::shingle::ShingleSet;

    fn toy() -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let recs: Vec<Record> = (0..6)
            .map(|i| Record::single(FieldValue::Shingles(ShingleSet::new(vec![i]))))
            .collect();
        // entity 7: records 0,1,2 — entity 3: records 3,4 — entity 9: record 5
        Dataset::new(schema, recs, vec![7, 7, 7, 3, 3, 9])
    }

    #[test]
    fn clusters_sorted_by_size_desc() {
        let d = toy();
        let c = d.ground_truth_clusters();
        assert_eq!(c, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn gold_records_top_k() {
        let d = toy();
        assert_eq!(d.gold_records(1), vec![0, 1, 2]);
        assert_eq!(d.gold_records(2), vec![0, 1, 2, 3, 4]);
        assert_eq!(d.gold_records(10), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn entity_sizes_and_count() {
        let d = toy();
        assert_eq!(d.entity_sizes(), vec![3, 2, 1]);
        assert_eq!(d.num_entities(), 3);
    }

    #[test]
    fn size_tie_broken_by_entity_id() {
        let schema = Schema::single("s", FieldKind::Shingles);
        let recs: Vec<Record> = (0..4)
            .map(|i| Record::single(FieldValue::Shingles(ShingleSet::new(vec![i]))))
            .collect();
        // Two entities of size 2: entity 5 (records 2,3) and entity 8 (0,1).
        let d = Dataset::new(schema, recs, vec![8, 8, 5, 5]);
        let c = d.ground_truth_clusters();
        assert_eq!(c[0], vec![2, 3], "lower entity id wins ties");
    }

    #[test]
    fn subset_remaps() {
        let d = toy();
        let s = d.subset(&[5, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.entity_of(0), 9);
        assert_eq!(s.entity_of(1), 7);
    }

    #[test]
    fn field_norms_cached_at_construction() {
        use crate::vector::DenseVector;
        let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
        let recs = vec![
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(vec![1])),
                FieldValue::Dense(DenseVector::new(vec![3.0, 4.0])),
            ]),
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(vec![2])),
                FieldValue::Dense(DenseVector::new(vec![0.0, 0.0])),
            ]),
        ];
        let d = Dataset::new(schema, recs, vec![0, 1]);
        assert_eq!(d.field_norm(0, 0), 0.0, "shingle fields have no norm");
        assert_eq!(d.field_norm(0, 1).to_bits(), 5.0f64.to_bits());
        assert_eq!(d.field_norm(1, 1), 0.0);
        // The cache holds exactly the bits `norm()` produces.
        for i in 0..2u32 {
            assert_eq!(
                d.field_norm(i, 1).to_bits(),
                d.record(i).field(1).as_dense().norm().to_bits()
            );
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_norm_cache() {
        let d = toy();
        let json = serde_json::to_string(&d).unwrap();
        assert!(
            !json.contains("field_norms"),
            "cache must stay off the wire"
        );
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.ground_truth(), d.ground_truth());
        for i in 0..d.len() as u32 {
            assert_eq!(back.record(i), d.record(i));
            assert_eq!(
                back.field_norm(i, 0).to_bits(),
                d.field_norm(i, 0).to_bits()
            );
        }
    }

    #[test]
    fn push_matches_from_scratch_construction() {
        use crate::vector::DenseVector;
        let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
        let mk = |s: u64, x: f64| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(vec![s])),
                FieldValue::Dense(DenseVector::new(vec![x, -x])),
            ])
        };
        let mut grown = Dataset::new(schema.clone(), vec![mk(1, 0.5)], vec![0]);
        assert_eq!(grown.push(mk(2, -3.25), 1).unwrap(), 1);
        assert_eq!(grown.push(mk(3, 7.0), 1).unwrap(), 2);
        let rebuilt = Dataset::new(
            schema,
            vec![mk(1, 0.5), mk(2, -3.25), mk(3, 7.0)],
            vec![0, 1, 1],
        );
        assert_eq!(grown.records(), rebuilt.records());
        assert_eq!(grown.ground_truth(), rebuilt.ground_truth());
        for i in 0..3u32 {
            for f in 0..2 {
                assert_eq!(
                    grown.field_norm(i, f).to_bits(),
                    rebuilt.field_norm(i, f).to_bits()
                );
            }
        }
    }

    #[test]
    fn push_rejects_schema_violation_and_leaves_dataset_intact() {
        let mut d = toy();
        let before = d.len();
        let bad = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1])),
            FieldValue::Shingles(ShingleSet::new(vec![2])),
        ]);
        assert!(d.push(bad, 0).is_err());
        assert_eq!(d.len(), before);
        assert_eq!(d.field_norms.len(), before * d.schema().num_fields());
    }

    #[test]
    fn record_id_capacity_guard() {
        assert!(ensure_record_id_capacity(0).is_ok());
        assert!(ensure_record_id_capacity(1).is_ok());
        assert!(ensure_record_id_capacity(MAX_RECORDS).is_ok());
        let err = ensure_record_id_capacity(MAX_RECORDS + 1).unwrap_err();
        assert!(err.contains("u32 record-id space"), "{err}");
        // `push` routes through the same guard (the schema check passes
        // first, so a full dataset fails on capacity, not validation).
        // Exercising it for real would need 2^32 records; the guard
        // function itself is the testable surface.
    }

    #[test]
    #[should_panic(expected = "one ground-truth label per record")]
    fn mismatched_lengths_panic() {
        let schema = Schema::single("s", FieldKind::Shingles);
        let recs = vec![Record::single(FieldValue::Shingles(ShingleSet::new(vec![
            1,
        ])))];
        let _ = Dataset::new(schema, recs, vec![1, 2]);
    }
}
