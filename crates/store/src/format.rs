//! On-disk format of an adaLSH store file.
//!
//! ```text
//! offset 0   ┌──────────────────────────────────────────────┐
//!            │ magic  "ADLSHST1"                    8 bytes │
//! offset 8   │ format version (u32, native endian)  4 bytes │
//! offset 12  │ endian tag 0x0A0B0C0D (u32)          4 bytes │
//! offset 16  │ header JSON length (u64)             8 bytes │
//! offset 24  │ payload FNV-1a checksum (u64)        8 bytes │
//! offset 32  │ header JSON (StoreMeta)          header_len  │
//!            ├──── zero padding to 8-byte alignment ────────┤
//! payload 0  │ ground-truth column   u32 × n                │
//!            ├──── zero padding to 8-byte alignment ────────┤
//!            │ norm-cache column     f64 × n × num_fields   │
//!            │ column 0 …                                   │
//!            │   dense:    f64 × n × dim   (fixed stride)   │
//!            │   shingles: offsets u64 × (n+1), then arena  │
//!            │ … column F−1  (each section 8-byte aligned)  │
//! file end   └──────────────────────────────────────────────┘
//! ```
//!
//! All integers and floats are **native-endian**: the file is a memory
//! image, and the endian tag rejects files mapped on a machine with the
//! opposite byte order instead of silently misreading them. Section
//! offsets in the header are relative to the payload base (the first
//! 8-aligned offset after the header JSON), so the header's own length
//! does not feed back into its content. The checksum covers every
//! payload byte, padding included; [`StoreView::verify_checksum`]
//! recomputes it on demand — `open` performs structural validation only,
//! so opening a store does not page the whole file in.
//!
//! [`StoreView::verify_checksum`]: crate::StoreView::verify_checksum

use serde::{Deserialize, Serialize};

use adalsh_data::{FieldKind, Schema};

/// Magic bytes at offset 0 of every store file.
pub const MAGIC: [u8; 8] = *b"ADLSHST1";

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Endianness canary: written native, must read back as itself.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Byte length of the fixed header that precedes the header JSON.
pub const FIXED_HEADER_LEN: usize = 32;

/// Rounds `off` up to the next multiple of 8.
pub fn align8(off: u64) -> u64 {
    (off + 7) & !7
}

/// One pass of 64-bit FNV-1a over `bytes`, folded into `h`. Seed with
/// [`FNV_OFFSET`].
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis (the checksum seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A byte range inside the payload region: `offset` is relative to the
/// payload base and always 8-aligned; `len` is the unpadded byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Byte offset from the payload base (8-aligned).
    pub offset: u64,
    /// Exact (unpadded) byte length.
    pub len: u64,
}

impl Section {
    /// End offset of the section's padded extent, or `None` when it
    /// overflows `u64` (only a corrupt header can get there).
    pub fn padded_end(&self) -> Option<u64> {
        self.offset
            .checked_add(self.len)
            .filter(|&end| end <= u64::MAX - 7)
            .map(align8)
    }
}

/// Layout of one schema field's column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// The field kind this column stores.
    pub kind: FieldKind,
    /// Dense columns: components per record (the fixed stride).
    /// Shingle columns: 0.
    pub dim: u64,
    /// Shingle columns: the `u64 × (n+1)` prefix-offset index into the
    /// arena (`offsets[i]..offsets[i+1]` are record `i`'s shingles).
    /// Dense columns: empty.
    pub offsets: Section,
    /// Dense columns: `f64 × n × dim` components. Shingle columns: the
    /// `u64` shingle arena.
    pub data: Section,
}

/// The header JSON: everything needed to interpret the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreMeta {
    /// Number of records.
    pub records: u64,
    /// The dataset schema.
    pub schema: Schema,
    /// Ground-truth entity labels, `u32 × records`.
    pub ground_truth: Section,
    /// Cached field norms, `f64 × records × num_fields`, row-major —
    /// exactly the bits `Dataset::field_norm` would hold.
    pub norms: Section,
    /// One column per schema field, in schema order.
    pub columns: Vec<ColumnMeta>,
    /// Total payload byte length (the checksummed region).
    pub payload_len: u64,
}

/// Errors raised by the store builder and view.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file (or the data being written) violates the format.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align8_rounds_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 well-known vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn section_padded_end() {
        let s = Section { offset: 8, len: 4 };
        assert_eq!(s.padded_end(), Some(16));
        let s = Section { offset: 8, len: 8 };
        assert_eq!(s.padded_end(), Some(16));
        let s = Section {
            offset: 8,
            len: u64::MAX - 8,
        };
        assert_eq!(s.padded_end(), None);
    }
}
