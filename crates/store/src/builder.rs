//! Streaming store-file builder.
//!
//! [`StoreBuilder`] ingests records one at a time and holds **constant
//! memory** regardless of dataset size: every column is spilled to its
//! own temp file as records arrive, and `finish` concatenates the
//! spills into the final columnar layout. The finalize step writes to a
//! `<dest>.tmp` sibling, fsyncs it, and atomically renames it onto the
//! destination (then fsyncs the parent directory), so a reader can
//! never observe a partially written store — the same durability
//! pattern as the serving snapshots.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use adalsh_data::dataset::ensure_record_id_capacity;
use adalsh_data::{vector, EntityId, FieldKind, FieldValue, Record, RecordStore, Schema};

use crate::format::{
    align8, fnv1a, ColumnMeta, Section, StoreError, StoreMeta, ENDIAN_TAG, FIXED_HEADER_LEN,
    FNV_OFFSET, FORMAT_VERSION, MAGIC,
};

/// One spilled column: an append-only temp file plus its byte count.
struct Spill {
    path: PathBuf,
    w: BufWriter<File>,
    bytes: u64,
}

impl Spill {
    fn create(path: PathBuf) -> Result<Self, StoreError> {
        let w = BufWriter::new(File::create(&path)?);
        Ok(Self { path, w, bytes: 0 })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.w.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }
}

/// Per-field column writer state.
enum Col {
    Dense {
        dim: Option<u64>,
        data: Spill,
    },
    Shingles {
        total: u64,
        offsets: Spill,
        data: Spill,
    },
}

/// Streaming builder for a store file. See the module docs for the
/// memory and durability contract.
pub struct StoreBuilder {
    dest: PathBuf,
    schema: Schema,
    records: u64,
    gt: Spill,
    norms: Spill,
    cols: Vec<Col>,
    /// Reused encoding buffer for one field's payload.
    scratch: Vec<[u8; 8]>,
}

/// Native-endian bytes of `values` (the file is a memory image; see
/// `format.rs`), encoded into the reused `buf` so each field is one
/// spill write.
fn ne_bytes<'a, T: Copy>(
    buf: &'a mut Vec<[u8; 8]>,
    values: &[T],
    to_bytes: fn(T) -> [u8; 8],
) -> &'a [u8] {
    buf.clear();
    buf.extend(values.iter().map(|&v| to_bytes(v)));
    buf.as_flattened()
}

impl StoreBuilder {
    /// Starts building a store at `dest` for records of `schema`. Spill
    /// temp files are created next to `dest` (as `<dest>.spill.*`) and
    /// removed by [`StoreBuilder::finish`].
    ///
    /// # Errors
    /// Fails on filesystem errors creating the spill files.
    pub fn create(dest: &Path, schema: Schema) -> Result<Self, StoreError> {
        let spill = |tag: &str| -> PathBuf {
            let mut name = dest.as_os_str().to_owned();
            name.push(format!(".spill.{tag}"));
            PathBuf::from(name)
        };
        let mut cols = Vec::with_capacity(schema.num_fields());
        for (i, def) in schema.fields().iter().enumerate() {
            cols.push(match def.kind {
                FieldKind::Dense => Col::Dense {
                    dim: None,
                    data: Spill::create(spill(&format!("col{i}.dat")))?,
                },
                FieldKind::Shingles => Col::Shingles {
                    total: 0,
                    offsets: Spill::create(spill(&format!("col{i}.off")))?,
                    data: Spill::create(spill(&format!("col{i}.dat")))?,
                },
            });
        }
        Ok(Self {
            dest: dest.to_path_buf(),
            schema,
            records: 0,
            gt: Spill::create(spill("gt"))?,
            norms: Spill::create(spill("norms"))?,
            cols,
            scratch: Vec::new(),
        })
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.records as usize
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Appends one record, returning its id. The cached norm written
    /// for each dense field is exactly the bits `Dataset` would cache
    /// ([`vector::norm`] over the components), preserving the
    /// bit-identity contract of `RecordStore::field_norm`.
    ///
    /// # Errors
    /// Fails if the record violates the schema, a dense field's
    /// dimension differs from the column's established stride, the
    /// record count would overflow the `u32` id space, or on I/O.
    pub fn push(&mut self, record: &Record, entity: EntityId) -> Result<u32, StoreError> {
        self.schema.validate(record).map_err(StoreError::Format)?;
        ensure_record_id_capacity(self.records as usize + 1).map_err(StoreError::Format)?;
        for (f, col) in self.cols.iter_mut().enumerate() {
            match (col, record.field(f)) {
                (Col::Dense { dim, data }, FieldValue::Dense(v)) => {
                    let d = v.dim() as u64;
                    match dim {
                        None => *dim = Some(d),
                        Some(expect) if *expect != d => {
                            return Err(StoreError::Format(format!(
                                "field {f}: dense dimension {d} != column stride {expect} \
                                 (store columns are fixed-stride)"
                            )));
                        }
                        Some(_) => {}
                    }
                    data.write(ne_bytes(
                        &mut self.scratch,
                        v.components(),
                        f64::to_ne_bytes,
                    ))?;
                    self.norms
                        .write(&vector::norm(v.components()).to_ne_bytes())?;
                }
                (
                    Col::Shingles {
                        total,
                        offsets,
                        data,
                    },
                    FieldValue::Shingles(s),
                ) => {
                    offsets.write(&total.to_ne_bytes())?;
                    data.write(ne_bytes(&mut self.scratch, s.shingles(), u64::to_ne_bytes))?;
                    *total += s.len() as u64;
                    self.norms.write(&0.0f64.to_ne_bytes())?;
                }
                // validate() already pinned kinds; unreachable.
                _ => unreachable!("schema validation admitted a kind mismatch"),
            }
        }
        self.gt.write(&entity.to_ne_bytes())?;
        let id = self.records as u32;
        self.records += 1;
        Ok(id)
    }

    /// Finalizes the store: closes the offset index of every shingle
    /// column, concatenates the spilled columns into `<dest>.tmp` with
    /// the checksummed header, fsyncs, and atomically renames onto the
    /// destination. Spill files are removed on success; on failure the
    /// `.tmp` sibling is removed and the error returned.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn finish(mut self) -> Result<(), StoreError> {
        // Close each shingle column's offset index: offsets[n] = total.
        for col in &mut self.cols {
            if let Col::Shingles { total, offsets, .. } = col {
                let total = *total;
                offsets.write(&total.to_ne_bytes())?;
            }
        }
        let mut spills: Vec<PathBuf> = vec![self.gt.path.clone(), self.norms.path.clone()];
        for col in &self.cols {
            match col {
                Col::Dense { data, .. } => spills.push(data.path.clone()),
                Col::Shingles { offsets, data, .. } => {
                    spills.push(offsets.path.clone());
                    spills.push(data.path.clone());
                }
            }
        }
        let tmp = {
            let mut name = self.dest.as_os_str().to_owned();
            name.push(".tmp");
            PathBuf::from(name)
        };
        let result = self.write_final(&tmp);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        } else {
            for p in &spills {
                let _ = std::fs::remove_file(p);
            }
        }
        result
    }

    /// Lays out the payload, writes the complete file to `tmp`, and
    /// renames it onto the destination.
    fn write_final(mut self, tmp: &Path) -> Result<(), StoreError> {
        let n = self.records;
        let nf = self.schema.num_fields() as u64;

        // Flush every spill so the files on disk are complete.
        self.gt.w.flush()?;
        self.norms.w.flush()?;
        for col in &mut self.cols {
            match col {
                Col::Dense { data, .. } => data.w.flush()?,
                Col::Shingles { offsets, data, .. } => {
                    offsets.w.flush()?;
                    data.w.flush()?;
                }
            }
        }

        // Payload layout: every section starts 8-aligned; offsets are
        // relative to the payload base. The write loop below must visit
        // sections in exactly this order.
        let mut cursor = 0u64;
        let mut section = |len: u64| -> Section {
            let s = Section {
                offset: cursor,
                len,
            };
            cursor = align8(cursor + len);
            s
        };
        let ground_truth = section(4 * n);
        let norms = section(8 * n * nf);
        debug_assert_eq!(self.norms.bytes, norms.len, "norm spill size");
        let mut columns = Vec::with_capacity(self.cols.len());
        let mut ordered: Vec<(&Spill, Section)> = Vec::new();
        ordered.push((&self.gt, ground_truth));
        ordered.push((&self.norms, norms));
        for (def, col) in self.schema.fields().iter().zip(&self.cols) {
            match col {
                Col::Dense { dim, data } => {
                    let dim = dim.unwrap_or(0);
                    let sec = section(8 * n * dim);
                    debug_assert_eq!(data.bytes, sec.len, "dense spill size");
                    ordered.push((data, sec));
                    columns.push(ColumnMeta {
                        kind: def.kind,
                        dim,
                        offsets: Section {
                            offset: sec.offset,
                            len: 0,
                        },
                        data: sec,
                    });
                }
                Col::Shingles {
                    total,
                    offsets,
                    data,
                } => {
                    let off = section(8 * (n + 1));
                    let dat = section(8 * total);
                    debug_assert_eq!(offsets.bytes, off.len, "offset spill size");
                    debug_assert_eq!(data.bytes, dat.len, "arena spill size");
                    ordered.push((offsets, off));
                    ordered.push((data, dat));
                    columns.push(ColumnMeta {
                        kind: def.kind,
                        dim: 0,
                        offsets: off,
                        data: dat,
                    });
                }
            }
        }
        let payload_len = cursor;
        let meta = StoreMeta {
            records: n,
            schema: self.schema.clone(),
            ground_truth,
            norms,
            columns,
            payload_len,
        };
        let header = serde_json::to_string(&meta)
            .map_err(|e| StoreError::Format(format!("serialize header: {e}")))?;
        let header_bytes = header.as_bytes();
        let payload_base = align8((FIXED_HEADER_LEN + header_bytes.len()) as u64);

        // Fixed header with a checksum placeholder, then the JSON and
        // its alignment padding.
        let mut file = File::create(tmp)?;
        file.write_all(&MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_ne_bytes())?;
        file.write_all(&ENDIAN_TAG.to_ne_bytes())?;
        file.write_all(&(header_bytes.len() as u64).to_ne_bytes())?;
        file.write_all(&0u64.to_ne_bytes())?;
        file.write_all(header_bytes)?;
        let pad = payload_base - (FIXED_HEADER_LEN + header_bytes.len()) as u64;
        file.write_all(&vec![0u8; pad as usize])?;

        // Stream the payload, folding the checksum over every byte
        // (padding included) exactly as `verify_checksum` will.
        let mut out = BufWriter::new(file);
        let mut checksum = FNV_OFFSET;
        let mut written = 0u64;
        let mut copy_buf = vec![0u8; 1 << 16];
        for (spill, sec) in ordered {
            debug_assert_eq!(sec.offset, written, "layout/write-order drift");
            let mut src = File::open(&spill.path)?;
            let mut remaining = sec.len;
            while remaining > 0 {
                let want = copy_buf.len().min(remaining as usize);
                let got = src.read(&mut copy_buf[..want])?;
                if got == 0 {
                    return Err(StoreError::Format(format!(
                        "spill {} shorter than its recorded {} bytes",
                        spill.path.display(),
                        sec.len
                    )));
                }
                checksum = fnv1a(checksum, &copy_buf[..got]);
                out.write_all(&copy_buf[..got])?;
                remaining -= got as u64;
            }
            let pad = align8(sec.offset + sec.len) - (sec.offset + sec.len);
            if pad > 0 {
                let zeros = [0u8; 8];
                checksum = fnv1a(checksum, &zeros[..pad as usize]);
                out.write_all(&zeros[..pad as usize])?;
            }
            written = align8(sec.offset + sec.len);
        }
        debug_assert_eq!(written, payload_len, "payload length drift");
        out.flush()?;
        let mut file = out
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;

        // Patch the checksum into the fixed header, make the file
        // durable, and publish it atomically.
        file.seek(SeekFrom::Start(24))?;
        file.write_all(&checksum.to_ne_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(tmp, &self.dest)?;
        #[cfg(unix)]
        if let Some(parent) = self.dest.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// Copies every record of `store` into a new store file at `dest` —
/// the `Dataset` → file path the round-trip tests and the CLI use.
///
/// # Errors
/// See [`StoreBuilder::create`], [`StoreBuilder::push`], and
/// [`StoreBuilder::finish`].
pub fn write_store(dest: &Path, store: &dyn RecordStore) -> Result<(), StoreError> {
    let mut builder = StoreBuilder::create(dest, store.schema().clone())?;
    for id in 0..store.len() as u32 {
        builder.push(&store.materialize(id), store.entity_of(id))?;
    }
    builder.finish()
}
