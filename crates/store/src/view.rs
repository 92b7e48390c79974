//! Zero-copy read view over a store file.
//!
//! [`StoreView::open`] maps the file and performs **structural**
//! validation only (header sanity, section bounds and alignment,
//! offset-index monotonicity) — it does not page the payload in, so
//! opening a multi-gigabyte store is cheap and peak RSS stays
//! proportional to what the engine actually touches. The full payload
//! checksum is verified on demand by [`StoreView::verify_checksum`].
//!
//! The view implements [`RecordStore`]: field payloads are lent
//! straight out of the mapping as [`FieldRef`] slices, so the engine's
//! distance and hash kernels run over the file's bytes with no
//! per-record materialization.

use std::path::{Path, PathBuf};

use adalsh_data::{EntityId, FieldKind, FieldRef, RecordStore, Schema};

use crate::format::{
    align8, fnv1a, Section, StoreError, StoreMeta, ENDIAN_TAG, FIXED_HEADER_LEN, FNV_OFFSET,
    FORMAT_VERSION, MAGIC,
};
use crate::mmap::Mapping;

/// A read-only, memory-mapped store file. See the module docs.
pub struct StoreView {
    map: Mapping,
    meta: StoreMeta,
    payload_base: usize,
    checksum: u64,
    path: PathBuf,
}

/// Marker for payload element types that are valid for any bit pattern,
/// so reinterpreting mapped bytes as them is sound.
trait Pod: Copy {}
impl Pod for u32 {}
impl Pod for u64 {}
impl Pod for f64 {}

/// Reinterprets `bytes` as a slice of `T`. Alignment and length are
/// validated at `open` time for every section; the debug asserts keep
/// the invariant honest.
fn typed<T: Pod>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.len() % size, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    // SAFETY: T admits every bit pattern (Pod), the pointer is aligned
    // (sections start 8-aligned inside an 8-aligned mapping) and the
    // length is exact; the borrow inherits the input lifetime.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
}

impl StoreView {
    /// Opens and structurally validates a store file.
    ///
    /// # Errors
    /// Fails on I/O errors or any format violation: bad magic, version
    /// or endianness mismatch, header/section bounds or alignment
    /// violations, inconsistent column sizes, or a corrupt shingle
    /// offset index.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len < FIXED_HEADER_LEN {
            return Err(StoreError::Format(format!(
                "{}: {} bytes is smaller than the fixed header",
                path.display(),
                len
            )));
        }
        let map = Mapping::of_file(&file, len)?;
        drop(file);
        let bytes = map.bytes();
        if bytes[..8] != MAGIC {
            return Err(StoreError::Format(format!(
                "{}: bad magic (not a store file)",
                path.display()
            )));
        }
        let u32_at = |off: usize| u32::from_ne_bytes(bytes[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_ne_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(StoreError::Format(format!(
                "{}: format version {version}, this build reads {FORMAT_VERSION}",
                path.display()
            )));
        }
        if u32_at(12) != ENDIAN_TAG {
            return Err(StoreError::Format(format!(
                "{}: endianness mismatch (file written on an opposite-endian machine)",
                path.display()
            )));
        }
        let header_len = u64_at(16);
        let checksum = u64_at(24);
        let Some(header_end) = usize::try_from(header_len)
            .ok()
            .and_then(|h| FIXED_HEADER_LEN.checked_add(h))
            .filter(|&end| end <= len)
        else {
            return Err(StoreError::Format(format!(
                "{}: header length {header_len} overruns the file",
                path.display()
            )));
        };
        let header = std::str::from_utf8(&bytes[FIXED_HEADER_LEN..header_end])
            .map_err(|e| StoreError::Format(format!("header not UTF-8: {e}")))?;
        let meta: StoreMeta = serde_json::from_str(header)
            .map_err(|e| StoreError::Format(format!("header parse: {e}")))?;
        let payload_base = align8(header_end as u64) as usize;
        let view = Self {
            map,
            meta,
            payload_base,
            checksum,
            path: path.to_path_buf(),
        };
        view.validate(len)?;
        Ok(view)
    }

    /// Structural validation of the parsed header against the mapped
    /// length; see [`StoreView::open`].
    fn validate(&self, file_len: usize) -> Result<(), StoreError> {
        let m = &self.meta;
        let bad = |msg: String| {
            Err(StoreError::Format(format!(
                "{}: {msg}",
                self.path.display()
            )))
        };
        let payload_len = (file_len - self.payload_base.min(file_len)) as u64;
        if self.payload_base > file_len || m.payload_len != payload_len {
            return bad(format!(
                "payload length {} != {} bytes after the header",
                m.payload_len, payload_len
            ));
        }
        let n = m.records;
        // A section's expected length is the product of `factors`, all
        // read from the untrusted header, so it is computed with checked
        // arithmetic: a wrapped product could otherwise match a small
        // section and pass the bounds checks.
        let check = |sec: &Section, factors: &[u64], what: &str| -> Result<(), StoreError> {
            let Some(len) = factors.iter().try_fold(1u64, |acc, &x| acc.checked_mul(x)) else {
                return Err(StoreError::Format(format!(
                    "{}: {what} section size overflows",
                    self.path.display()
                )));
            };
            if !sec.offset.is_multiple_of(8) {
                return Err(StoreError::Format(format!(
                    "{}: {what} section misaligned (offset {})",
                    self.path.display(),
                    sec.offset
                )));
            }
            if sec.len != len || sec.padded_end().is_none_or(|end| end > m.payload_len) {
                return Err(StoreError::Format(format!(
                    "{}: {what} section [{}, +{}] inconsistent (expected {} bytes in a {}-byte \
                     payload)",
                    self.path.display(),
                    sec.offset,
                    sec.len,
                    len,
                    m.payload_len
                )));
            }
            Ok(())
        };
        check(&m.ground_truth, &[4, n], "ground-truth")?;
        check(
            &m.norms,
            &[8, n, m.schema.num_fields() as u64],
            "norm-cache",
        )?;
        if m.columns.len() != m.schema.num_fields() {
            return bad(format!(
                "{} columns for {} schema fields",
                m.columns.len(),
                m.schema.num_fields()
            ));
        }
        for (f, (col, def)) in m.columns.iter().zip(m.schema.fields()).enumerate() {
            if col.kind != def.kind {
                return bad(format!(
                    "column {f} kind {:?} != schema kind {:?}",
                    col.kind, def.kind
                ));
            }
            match col.kind {
                FieldKind::Dense => {
                    if n > 0 && col.dim == 0 {
                        return bad(format!("dense column {f} has stride 0"));
                    }
                    check(&col.offsets, &[0], "dense-offsets")?;
                    check(&col.data, &[8, n, col.dim], "dense-data")?;
                }
                FieldKind::Shingles => {
                    // `n + 1` cannot wrap: the ground-truth size `4n` fit.
                    check(&col.offsets, &[8, n + 1], "shingle-offsets")?;
                    let offsets: &[u64] = self.sec(&col.offsets);
                    if offsets.first() != Some(&0) {
                        return bad(format!("column {f} offset index does not start at 0"));
                    }
                    if offsets.windows(2).any(|w| w[0] > w[1]) {
                        return bad(format!("column {f} offset index not monotone"));
                    }
                    let total = *offsets.last().unwrap();
                    check(&col.data, &[8, total], "shingle-arena")?;
                }
            }
        }
        Ok(())
    }

    /// The payload region (checksummed bytes).
    fn payload(&self) -> &[u8] {
        &self.map.bytes()[self.payload_base..]
    }

    /// Typed slice over one section.
    fn sec<T: Pod>(&self, s: &Section) -> &[T] {
        typed(&self.payload()[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// The parsed header.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The path this view was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total mapped file length in bytes.
    pub fn file_len(&self) -> usize {
        self.map.bytes().len()
    }

    /// Recomputes the FNV-1a checksum of the whole payload and compares
    /// it to the header's. This pages the entire file in — it is a
    /// deliberate full-scan integrity check, not part of `open`.
    ///
    /// # Errors
    /// Fails when the checksums disagree.
    pub fn verify_checksum(&self) -> Result<(), StoreError> {
        let got = fnv1a(FNV_OFFSET, self.payload());
        if got != self.checksum {
            return Err(StoreError::Format(format!(
                "{}: payload checksum {got:#018x} != header {:#018x}",
                self.path.display(),
                self.checksum
            )));
        }
        Ok(())
    }
}

impl RecordStore for StoreView {
    fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    fn len(&self) -> usize {
        self.meta.records as usize
    }

    fn field(&self, id: u32, field: usize) -> FieldRef<'_> {
        let col = &self.meta.columns[field];
        match col.kind {
            FieldKind::Dense => {
                let dim = col.dim as usize;
                let data: &[f64] = self.sec(&col.data);
                let base = id as usize * dim;
                FieldRef::Dense(&data[base..base + dim])
            }
            FieldKind::Shingles => {
                let offsets: &[u64] = self.sec(&col.offsets);
                let arena: &[u64] = self.sec(&col.data);
                FieldRef::Shingles(
                    &arena[offsets[id as usize] as usize..offsets[id as usize + 1] as usize],
                )
            }
        }
    }

    fn field_norm(&self, id: u32, field: usize) -> f64 {
        let norms: &[f64] = self.sec(&self.meta.norms);
        norms[id as usize * self.meta.schema.num_fields() + field]
    }

    fn entity_of(&self, id: u32) -> EntityId {
        let gt: &[u32] = self.sec(&self.meta.ground_truth);
        gt[id as usize]
    }

    fn source(&self) -> &str {
        "store"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{write_store, StoreBuilder};
    use adalsh_data::{Dataset, DenseVector, FieldValue, Record, ShingleSet};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("adalsh_store_view_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Dataset {
        let schema = Schema::new(vec![
            ("tokens", FieldKind::Shingles),
            ("vec", FieldKind::Dense),
        ]);
        let mk = |s: &[u64], v: &[f64]| {
            Record::new(vec![
                FieldValue::Shingles(ShingleSet::new(s.to_vec())),
                FieldValue::Dense(DenseVector::new(v.to_vec())),
            ])
        };
        Dataset::new(
            schema,
            vec![
                mk(&[1, 2, 9], &[0.5, 0.5, 1.0]),
                mk(&[], &[1.0, 0.0, -2.0]),
                mk(&[3], &[0.0, 0.0, 0.0]),
            ],
            vec![7, 9, 7],
        )
    }

    #[test]
    fn round_trip_payloads_bit_identical() {
        let d = sample();
        let path = tmp("roundtrip.store");
        write_store(&path, &d).unwrap();
        let v = StoreView::open(&path).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.schema(), d.schema());
        assert_eq!(v.source(), "store");
        for i in 0..3u32 {
            assert_eq!(v.entity_of(i), d.entity_of(i));
            assert_eq!(v.field(i, 0).as_shingles(), d.field(i, 0).as_shingles());
            assert_eq!(v.field(i, 1).as_dense(), d.field(i, 1).as_dense());
            for f in 0..2 {
                assert_eq!(
                    v.field_norm(i, f).to_bits(),
                    d.field_norm(i, f).to_bits(),
                    "norm cache bits ({i}, {f})"
                );
            }
        }
        assert_eq!(v.ground_truth_clusters(), d.ground_truth_clusters());
        v.verify_checksum().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let path = tmp("empty.store");
        let schema = Schema::single("s", FieldKind::Shingles);
        StoreBuilder::create(&path, schema.clone())
            .unwrap()
            .finish()
            .unwrap();
        let v = StoreView::open(&path).unwrap();
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.schema(), &schema);
        assert!(v.ground_truth_clusters().is_empty());
        v.verify_checksum().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_record_store_round_trips() {
        let path = tmp("single.store");
        let schema = Schema::single("v", FieldKind::Dense);
        let mut b = StoreBuilder::create(&path, schema).unwrap();
        let rec = Record::single(FieldValue::Dense(DenseVector::new(vec![3.0, 4.0])));
        assert_eq!(b.push(&rec, 42).unwrap(), 0);
        b.finish().unwrap();
        let v = StoreView::open(&path).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.field(0, 0).as_dense(), &[3.0, 4.0]);
        assert_eq!(v.field_norm(0, 0).to_bits(), 5.0f64.to_bits());
        assert_eq!(v.entity_of(0), 42);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_rejects_ragged_dense_column() {
        let path = tmp("ragged.store");
        let schema = Schema::single("v", FieldKind::Dense);
        let mut b = StoreBuilder::create(&path, schema).unwrap();
        b.push(
            &Record::single(FieldValue::Dense(DenseVector::new(vec![1.0, 2.0]))),
            0,
        )
        .unwrap();
        let err = b
            .push(
                &Record::single(FieldValue::Dense(DenseVector::new(vec![1.0]))),
                0,
            )
            .unwrap_err();
        assert!(err.to_string().contains("fixed-stride"), "{err}");
    }

    #[test]
    fn open_rejects_non_store_files() {
        let path = tmp("not_a_store");
        std::fs::write(&path, b"definitely not a store file, but 32+ bytes long").unwrap();
        let err = StoreView::open(&path).err().expect("must reject");
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_fails_checksum_but_not_open() {
        let d = sample();
        let path = tmp("corrupt.store");
        write_store(&path, &d).unwrap();
        // Flip one byte in the last 8 bytes (inside a payload column).
        let mut bytes = std::fs::read(&path).unwrap();
        let off = bytes.len() - 5;
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let v = StoreView::open(&path);
        if let Ok(v) = v {
            // Structural checks may or may not catch a payload flip;
            // the checksum must.
            assert!(v.verify_checksum().is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrapping_header_length_rejected() {
        let path = tmp("huge_header_len.store");
        write_store(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // 32 + (u64::MAX - 15) wraps to 16, which an unchecked bound
        // test would accept.
        bytes[16..24].copy_from_slice(&(u64::MAX - 15).to_ne_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = StoreView::open(&path).err().expect("must reject");
        assert!(err.to_string().contains("overruns the file"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_shingle_offset_rejected() {
        let path = tmp("huge_offset.store");
        write_store(&path, &sample()).unwrap();
        let (last_entry, total) = {
            let v = StoreView::open(&path).unwrap();
            let offsets = v.meta.columns[0].offsets;
            let off = v.payload_base + (offsets.offset + offsets.len) as usize - 8;
            let index: &[u64] = v.sec(&offsets);
            (off, *index.last().unwrap())
        };
        // A last entry of `total + 2^61` keeps the index monotone, and
        // `8 × entry` wraps to `8 × total`: the arena length the header
        // records, so only checked arithmetic can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[last_entry..last_entry + 8].copy_from_slice(&(total + (1 << 61)).to_ne_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = StoreView::open(&path).err().expect("must reject");
        assert!(err.to_string().contains("overflows"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let d = sample();
        let path = tmp("truncated.store");
        write_store(&path, &d).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(StoreView::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
