//! Dataset serialization: JSON and JSON-lines interchange.
//!
//! A [`Dataset`] round-trips through serde (all model types derive
//! `Serialize`/`Deserialize`). For large datasets the JSON-lines format
//! is friendlier: a header line with the schema followed by one line per
//! record — streamable and diff-able.
//!
//! ```text
//! {"schema":{...}}
//! {"entity":0,"fields":[{"Shingles":[1,2,3]}]}
//! {"entity":0,"fields":[{"Shingles":[1,2,4]}]}
//! ```

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, EntityId};
use crate::record::{Record, Schema};

/// Header line of the JSON-lines format.
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    schema: Schema,
}

/// Record line of the JSON-lines format.
#[derive(Debug, Serialize, Deserialize)]
struct Line {
    entity: EntityId,
    fields: Record,
}

/// Writes a dataset in JSON-lines format.
///
/// # Errors
/// Propagates I/O and serialization errors as `std::io::Error`.
pub fn write_jsonl<W: Write>(dataset: &Dataset, mut out: W) -> std::io::Result<()> {
    let header = Header {
        schema: dataset.schema().clone(),
    };
    writeln!(out, "{}", serde_json::to_string(&header)?)?;
    for i in 0..dataset.len() as u32 {
        let line = Line {
            entity: dataset.entity_of(i),
            fields: dataset.record(i).clone(),
        };
        writeln!(out, "{}", serde_json::to_string(&line)?)?;
    }
    Ok(())
}

/// Streaming JSON-lines reader: parses the header eagerly, then yields
/// one `(Record, EntityId)` at a time through a **reused line buffer**,
/// so reading a dataset costs one line of text in memory at a time —
/// not the whole file, and not one `String` allocation per line. This
/// is the ingestion path the out-of-core store builder rides: a
/// million-record JSONL file streams straight into a store file without
/// ever materializing the dataset.
///
/// [`read_jsonl`] is a thin collect-everything wrapper over this type.
pub struct JsonlReader<R: BufRead> {
    input: R,
    schema: Schema,
    buf: String,
    records_seen: usize,
    /// The first record read: every later one must match its dense
    /// dimensions.
    first: Option<Record>,
}

impl<R: BufRead> JsonlReader<R> {
    /// Opens a reader, consuming and validating the header line.
    ///
    /// # Errors
    /// Fails on I/O errors, a missing header, or malformed header JSON.
    pub fn open(mut input: R) -> std::io::Result<Self> {
        let mut buf = String::new();
        if input.read_line(&mut buf)? == 0 {
            return Err(bad_data("missing header line"));
        }
        let header: Header = serde_json::from_str(buf.trim_end_matches(['\n', '\r']))?;
        Ok(Self {
            input,
            schema: header.schema,
            buf,
            records_seen: 0,
            first: None,
        })
    }

    /// The schema declared by the header.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Records yielded so far.
    pub fn records_seen(&self) -> usize {
        self.records_seen
    }

    /// Parses the next record line, skipping blank lines. Returns
    /// `Ok(None)` at end of input.
    ///
    /// # Errors
    /// Fails on I/O errors, malformed JSON, records violating the header
    /// schema, a dense field whose dimension differs from the first
    /// record's, or a record count overflowing the `u32` id space.
    pub fn next_record(&mut self) -> std::io::Result<Option<(Record, EntityId)>> {
        loop {
            self.buf.clear();
            if self.input.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            let line = self.buf.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                continue;
            }
            let parsed: Line = serde_json::from_str(line)?;
            self.schema
                .validate_like(&parsed.fields, self.first.as_ref())
                .map_err(|e| bad_data(format!("record {}: {e}", self.records_seen)))?;
            crate::dataset::ensure_record_id_capacity(self.records_seen + 1).map_err(bad_data)?;
            if self.first.is_none() {
                self.first = Some(parsed.fields.clone());
            }
            self.records_seen += 1;
            return Ok(Some((parsed.fields, parsed.entity)));
        }
    }
}

/// Reads a dataset from JSON-lines format by streaming it through
/// [`JsonlReader`] (line-at-a-time, one reused buffer).
///
/// # Errors
/// Fails on I/O errors, malformed JSON, a missing header, an empty body,
/// records that violate the header schema, or a ragged dense column.
pub fn read_jsonl<R: BufRead>(input: R) -> std::io::Result<Dataset> {
    let mut reader = JsonlReader::open(input)?;
    let mut records = Vec::new();
    let mut gt = Vec::new();
    while let Some((record, entity)) = reader.next_record()? {
        records.push(record);
        gt.push(entity);
    }
    if records.is_empty() {
        return Err(bad_data("dataset has no records"));
    }
    let schema = reader.schema().clone();
    Ok(Dataset::new(schema, records, gt))
}

/// Writes a dataset to a file in JSON-lines format.
///
/// # Errors
/// See [`write_jsonl`].
pub fn save(dataset: &Dataset, path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_jsonl(dataset, std::io::BufWriter::new(file))
}

/// Reads a dataset from a JSON-lines file.
///
/// # Errors
/// See [`read_jsonl`].
pub fn load(path: &std::path::Path) -> std::io::Result<Dataset> {
    let file = std::fs::File::open(path)?;
    read_jsonl(std::io::BufReader::new(file))
}

fn bad_data(msg: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FieldKind, FieldValue};
    use crate::shingle::ShingleSet;
    use crate::vector::DenseVector;

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
            vec![mk(&[1, 2], &[0.5, 0.5]), mk(&[3], &[1.0, 0.0])],
            vec![7, 9],
        )
    }

    #[test]
    fn jsonl_round_trip() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let back = read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.schema(), d.schema());
        assert_eq!(back.ground_truth(), d.ground_truth());
        for i in 0..d.len() as u32 {
            assert_eq!(back.record(i), d.record(i));
        }
    }

    #[test]
    fn file_round_trip() {
        let d = sample();
        let dir = std::env::temp_dir().join("adalsh_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.jsonl");
        save(&d, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), d.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_rejected() {
        let r = read_jsonl(std::io::Cursor::new(Vec::<u8>::new()));
        assert!(r.is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        let r = read_jsonl(std::io::Cursor::new(b"not json\n".to_vec()));
        assert!(r.is_err());
    }

    #[test]
    fn schema_violation_rejected() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Append a record with the wrong arity.
        text.push_str("{\"entity\":1,\"fields\":{\"fields\":[{\"Shingles\":[1]}]}}\n");
        let r = read_jsonl(std::io::Cursor::new(text.into_bytes()));
        assert!(r.is_err());
    }

    #[test]
    fn ragged_dense_column_rejected() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // The sample's vectors are 2-d; append a 3-d one.
        text.push_str(
            "{\"entity\":1,\"fields\":{\"fields\":[{\"Shingles\":[1]},{\"Dense\":[1.0,0.0,0.0]}]}}\n",
        );
        let err = read_jsonl(std::io::Cursor::new(text.into_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("record 2"), "{msg}");
        assert!(msg.contains("field 1 (vec)"), "{msg}");
        assert!(msg.contains("dimension 3, earlier records have 2"), "{msg}");
    }

    #[test]
    fn blank_lines_ignored() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        let back = read_jsonl(std::io::Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn streaming_reader_equals_collected_read() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let mut reader = JsonlReader::open(std::io::Cursor::new(buf.clone())).unwrap();
        assert_eq!(reader.schema(), d.schema());
        let mut streamed = Vec::new();
        while let Some(pair) = reader.next_record().unwrap() {
            streamed.push(pair);
        }
        assert_eq!(reader.records_seen(), d.len());
        let collected = read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(streamed.len(), collected.len());
        for (i, (rec, ent)) in streamed.iter().enumerate() {
            assert_eq!(rec, collected.record(i as u32));
            assert_eq!(*ent, collected.entity_of(i as u32));
        }
    }

    #[test]
    fn empty_body_rejected() {
        let d = sample();
        let mut buf = Vec::new();
        write_jsonl(&d, &mut buf).unwrap();
        let header_only: String = String::from_utf8(buf)
            .unwrap()
            .lines()
            .take(1)
            .collect::<Vec<_>>()
            .join("\n");
        let r = read_jsonl(std::io::Cursor::new(header_only.into_bytes()));
        assert!(r.is_err());
    }
}
