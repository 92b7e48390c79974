//! Records, fields, and schemas.
//!
//! A [`Record`] is an ordered list of field values conforming to a
//! [`Schema`]. The paper's datasets map onto this model as:
//!
//! * **Cora** — three shingle-set fields (`title`, `authors`, `rest`);
//! * **SpotSigs** — one shingle-set field (the article's spot signatures);
//! * **PopularImages** — one dense-vector field (the RGB histogram).

use serde::{Deserialize, Serialize};

use crate::shingle::ShingleSet;
use crate::vector::DenseVector;

/// The type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldKind {
    /// Dense numeric vector compared with the angular (cosine) distance.
    Dense,
    /// Shingle set compared with the Jaccard distance.
    Shingles,
}

/// A single field value of a record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Dense vector (e.g. image histogram).
    Dense(DenseVector),
    /// Shingle set (e.g. title word shingles).
    Shingles(ShingleSet),
}

impl FieldValue {
    /// The kind of this value.
    pub fn kind(&self) -> FieldKind {
        match self {
            FieldValue::Dense(_) => FieldKind::Dense,
            FieldValue::Shingles(_) => FieldKind::Shingles,
        }
    }

    /// Borrows this value as a [`FieldRef`] — the common currency of the
    /// distance and hash kernels, shared with out-of-core stores that
    /// never materialize a `FieldValue` at all.
    pub fn as_ref(&self) -> FieldRef<'_> {
        match self {
            FieldValue::Dense(v) => FieldRef::Dense(v.components()),
            FieldValue::Shingles(s) => FieldRef::Shingles(s.shingles()),
        }
    }

    /// The norm the distance kernels take for this field, as
    /// [`RecordStore::field_norm`](crate::RecordStore::field_norm) caches
    /// it: the Euclidean norm of a dense vector, 0 for a shingle set.
    pub fn norm(&self) -> f64 {
        match self {
            FieldValue::Dense(v) => v.norm(),
            FieldValue::Shingles(_) => 0.0,
        }
    }

    /// Borrows the dense vector, panicking on a kind mismatch.
    ///
    /// # Panics
    /// Panics if the value is not [`FieldValue::Dense`].
    pub fn as_dense(&self) -> &DenseVector {
        match self {
            FieldValue::Dense(v) => v,
            FieldValue::Shingles(_) => panic!("field is a shingle set, expected dense vector"),
        }
    }

    /// Borrows the shingle set, panicking on a kind mismatch.
    ///
    /// # Panics
    /// Panics if the value is not [`FieldValue::Shingles`].
    pub fn as_shingles(&self) -> &ShingleSet {
        match self {
            FieldValue::Shingles(s) => s,
            FieldValue::Dense(_) => panic!("field is a dense vector, expected shingle set"),
        }
    }
}

/// A borrowed view of one field's payload.
///
/// This is the type every distance / hash kernel actually consumes: the
/// in-RAM [`FieldValue`] lends its backing slice via
/// [`FieldValue::as_ref`], and a memory-mapped store lends a slice of the
/// mapped file directly — the two paths run the *same* kernels on the
/// *same* bytes, which is what makes the in-RAM and out-of-core engines
/// bit-identical by construction.
///
/// Invariants mirror the owned types: a `Shingles` slice is sorted and
/// deduplicated; a `Dense` slice is non-empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// Borrowed dense-vector components.
    Dense(&'a [f64]),
    /// Borrowed sorted, deduplicated shingle hashes.
    Shingles(&'a [u64]),
}

impl<'a> FieldRef<'a> {
    /// The kind of the borrowed value.
    pub fn kind(&self) -> FieldKind {
        match self {
            FieldRef::Dense(_) => FieldKind::Dense,
            FieldRef::Shingles(_) => FieldKind::Shingles,
        }
    }

    /// Borrows the dense components, panicking on a kind mismatch.
    ///
    /// # Panics
    /// Panics if the value is not [`FieldRef::Dense`].
    pub fn as_dense(&self) -> &'a [f64] {
        match self {
            FieldRef::Dense(v) => v,
            FieldRef::Shingles(_) => panic!("field is a shingle set, expected dense vector"),
        }
    }

    /// Borrows the shingle hashes, panicking on a kind mismatch.
    ///
    /// # Panics
    /// Panics if the value is not [`FieldRef::Shingles`].
    pub fn as_shingles(&self) -> &'a [u64] {
        match self {
            FieldRef::Shingles(s) => s,
            FieldRef::Dense(_) => panic!("field is a dense vector, expected shingle set"),
        }
    }

    /// Number of payload elements (components or shingles).
    pub fn payload_len(&self) -> usize {
        match self {
            FieldRef::Dense(v) => v.len(),
            FieldRef::Shingles(s) => s.len(),
        }
    }

    /// Clones the borrowed payload into an owned [`FieldValue`].
    pub fn to_value(&self) -> FieldValue {
        match self {
            FieldRef::Dense(v) => FieldValue::Dense(DenseVector::new(v.to_vec())),
            FieldRef::Shingles(s) => FieldValue::Shingles(ShingleSet::new(s.to_vec())),
        }
    }
}

/// Declaration of one field in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDef {
    /// Human-readable field name (used in error messages and reports).
    pub name: String,
    /// The field's value kind.
    pub kind: FieldKind,
}

/// An ordered list of field declarations shared by all records of a
/// [`crate::Dataset`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<FieldDef>,
}

impl Schema {
    /// Creates a schema from `(name, kind)` pairs.
    ///
    /// # Panics
    /// Panics if no fields are given or names repeat.
    pub fn new(fields: Vec<(&str, FieldKind)>) -> Self {
        assert!(!fields.is_empty(), "schema must have at least one field");
        let defs: Vec<FieldDef> = fields
            .into_iter()
            .map(|(name, kind)| FieldDef {
                name: name.to_string(),
                kind,
            })
            .collect();
        for i in 0..defs.len() {
            for j in (i + 1)..defs.len() {
                assert_ne!(defs[i].name, defs[j].name, "duplicate field name");
            }
        }
        Self { fields: defs }
    }

    /// Convenience constructor for the common single-field case.
    pub fn single(name: &str, kind: FieldKind) -> Self {
        Self::new(vec![(name, kind)])
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Field declarations in order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Index of the field with the given name, if any.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Checks that `record` conforms to this schema.
    pub fn validate(&self, record: &Record) -> Result<(), String> {
        if record.num_fields() != self.num_fields() {
            return Err(format!(
                "record has {} fields, schema has {}",
                record.num_fields(),
                self.num_fields()
            ));
        }
        for (i, def) in self.fields.iter().enumerate() {
            let got = record.field(i).kind();
            if got != def.kind {
                return Err(format!(
                    "field {} ({}) has kind {:?}, schema expects {:?}",
                    i, def.name, got, def.kind
                ));
            }
        }
        Ok(())
    }

    /// [`Schema::validate`] plus the dense-dimension check: each dense
    /// field of `record` must have as many components as the same field
    /// of `like`, a record already accepted into the same collection. The
    /// angular kernels and the hyperplane family compare vectors
    /// component by component, so a corpus has one dimension per dense
    /// field, and every path that admits outside records checks it here.
    /// With `like = None` (nothing accepted yet) only the schema is
    /// checked.
    pub fn validate_like(&self, record: &Record, like: Option<&Record>) -> Result<(), String> {
        self.validate(record)?;
        let Some(like) = like else {
            return Ok(());
        };
        for (i, def) in self.fields.iter().enumerate() {
            if let (FieldValue::Dense(got), FieldValue::Dense(want)) =
                (record.field(i), like.field(i))
            {
                if got.dim() != want.dim() {
                    return Err(format!(
                        "field {i} ({}) has dimension {}, earlier records have {}",
                        def.name,
                        got.dim(),
                        want.dim()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A record: an ordered list of field values.
///
/// Records carry no identity of their own; a record's *id* is its index in
/// the owning [`crate::Dataset`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    fields: Vec<FieldValue>,
}

impl Record {
    /// Creates a record from field values.
    ///
    /// # Panics
    /// Panics if `fields` is empty.
    pub fn new(fields: Vec<FieldValue>) -> Self {
        assert!(!fields.is_empty(), "record must have at least one field");
        Self { fields }
    }

    /// Single-field convenience constructor.
    pub fn single(value: FieldValue) -> Self {
        Self::new(vec![value])
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// The `i`-th field value.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn field(&self, i: usize) -> &FieldValue {
        &self.fields[i]
    }

    /// All field values in order.
    pub fn fields(&self) -> &[FieldValue] {
        &self.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(c: &[f64]) -> FieldValue {
        FieldValue::Dense(DenseVector::new(c.to_vec()))
    }

    fn sh(v: &[u64]) -> FieldValue {
        FieldValue::Shingles(ShingleSet::new(v.to_vec()))
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
        ]);
        assert_eq!(s.num_fields(), 2);
        assert_eq!(s.field_index("hist"), Some(1));
        assert_eq!(s.field_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn schema_rejects_duplicates() {
        let _ = Schema::new(vec![("a", FieldKind::Dense), ("a", FieldKind::Shingles)]);
    }

    #[test]
    fn validate_accepts_conforming_record() {
        let s = Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
        ]);
        let r = Record::new(vec![sh(&[1, 2]), dense(&[0.5, 0.5])]);
        assert!(s.validate(&r).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let s = Schema::single("hist", FieldKind::Dense);
        let r = Record::new(vec![dense(&[1.0]), dense(&[1.0])]);
        assert!(s.validate(&r).is_err());
    }

    #[test]
    fn validate_rejects_wrong_kind() {
        let s = Schema::single("hist", FieldKind::Dense);
        let r = Record::single(sh(&[1]));
        let err = s.validate(&r).unwrap_err();
        assert!(err.contains("hist"));
    }

    #[test]
    fn validate_like_rejects_wrong_dimension() {
        let s = Schema::new(vec![
            ("title", FieldKind::Shingles),
            ("hist", FieldKind::Dense),
        ]);
        let like = Record::new(vec![sh(&[1]), dense(&[0.5, 0.5, 0.0])]);
        let same = Record::new(vec![sh(&[1, 2, 3]), dense(&[1.0, 0.0, 2.0])]);
        assert!(s.validate_like(&same, Some(&like)).is_ok());
        let short = Record::new(vec![sh(&[1]), dense(&[1.0, 0.0])]);
        assert!(s.validate_like(&short, None).is_ok());
        let err = s.validate_like(&short, Some(&like)).unwrap_err();
        assert!(err.contains("hist"), "{err}");
        assert!(err.contains("dimension 2"), "{err}");
        assert!(err.contains("have 3"), "{err}");
        // The schema check still runs first.
        assert!(s
            .validate_like(&Record::single(sh(&[1])), Some(&like))
            .is_err());
    }

    #[test]
    fn field_value_kind_and_accessors() {
        let d = dense(&[1.0]);
        assert_eq!(d.kind(), FieldKind::Dense);
        assert_eq!(d.as_dense().dim(), 1);
        let s = sh(&[1, 2]);
        assert_eq!(s.kind(), FieldKind::Shingles);
        assert_eq!(s.as_shingles().len(), 2);
    }

    #[test]
    #[should_panic(expected = "expected dense vector")]
    fn as_dense_panics_on_shingles() {
        let _ = sh(&[1]).as_dense();
    }

    #[test]
    fn field_ref_round_trips() {
        let d = dense(&[1.0, 2.0]);
        let r = d.as_ref();
        assert_eq!(r.kind(), FieldKind::Dense);
        assert_eq!(r.as_dense(), &[1.0, 2.0]);
        assert_eq!(r.payload_len(), 2);
        assert_eq!(r.to_value(), d);
        let s = sh(&[3, 1, 2]);
        let r = s.as_ref();
        assert_eq!(r.kind(), FieldKind::Shingles);
        assert_eq!(r.as_shingles(), &[1, 2, 3]);
        assert_eq!(r.to_value(), s);
    }

    #[test]
    #[should_panic(expected = "expected shingle set")]
    fn field_ref_as_shingles_panics_on_dense() {
        let v = dense(&[1.0]);
        let _ = v.as_ref().as_shingles();
    }
}
