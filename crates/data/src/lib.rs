//! # adalsh-data
//!
//! Record model, distance metrics, and match rules for the adaLSH top-k
//! entity-resolution system.
//!
//! The paper's clustering functions operate over records with one or more
//! *fields*; each field carries either a dense numeric vector (e.g. an RGB
//! histogram for an image) compared with the **cosine (angular) distance**,
//! or a set of shingles / tokens (e.g. the word shingles of a publication
//! title) compared with the **Jaccard distance**. Records are declared a
//! *match* by a [`MatchRule`]: a single threshold on one field, or an
//! AND / OR / weighted-average combination over several fields
//! (paper §3 and Appendix C).
//!
//! Every distance goes through one entry per operation on
//! [`FieldDistance`]: [`FieldDistance::distance`] for the exact value and
//! [`FieldDistance::at_most_counted`] for the threshold verdict with how
//! it exited. Both take borrowed payloads plus what callers cache for
//! them (norms; for the threshold, a shingle set's bitmap [`Sketch`] or a
//! dense vector's pivot angles, which a [`SlotTable`] holds per call), so
//! in-RAM records and a memory-mapped store run the same slice kernels
//! (`shingle.rs`, `vector.rs`) on the same bytes. [`ShingleSet`] and [`DenseVector`] are
//! the owned storage and construction types.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary
//! types every other crate in the workspace speaks.

pub mod dataset;
pub mod distance;
pub mod io;
pub mod record;
pub mod rule;
pub mod shingle;
pub mod store;
pub mod vector;

pub use dataset::{ensure_record_id_capacity, Dataset, EntityId, MAX_RECORDS};
pub use distance::{Exit, ExitCounts, FieldDistance, KernelTally, Operand};
pub use record::{FieldKind, FieldRef, FieldValue, Record, Schema};
pub use rule::{MatchRule, Sketches, SlotTable};
pub use shingle::{ShingleSet, Sketch};
pub use store::{RecordFields, RecordStore, RecordView};
pub use vector::DenseVector;
