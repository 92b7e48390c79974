//! # adalsh-lsh
//!
//! Locality-sensitive hashing primitives for adaLSH:
//!
//! * elementary hash families — [`hyperplane::HyperplaneFamily`] (with its
//!   batched [`hyperplane::HyperplanePanel`]) for the
//!   cosine/angular distance (paper Examples 2 and 6) and
//!   [`minhash::MinHashFamily`] for the Jaccard distance (Appendix C.1);
//! * AND/OR **amplification** of `(d₁, d₂, p₁, p₂)`-sensitive families
//!   (paper Appendix A, Definitions 4–6) in [`construction`];
//! * the **(w,z)-scheme** collision-probability model
//!   `1 − (1 − pʷ(x))ᶻ` in [`scheme`];
//! * the **scheme optimizer** solving Program (1)–(3) of §5.1 (and its
//!   non-integer-`budget/w` extension) in [`optimizer`];
//!   [`SchemeOptimizer::optimize_le`] is the one `(w, z)` search behind
//!   every single-field design level, the later levels of OR rules and
//!   the LSH-X baseline;
//! * **multi-field** scheme optimizers for AND rules (Program (4)–(6)),
//!   OR rules (Program (7)–(10)), and the weighted-average function
//!   selection of Definition 7 with Theorems 3–4, in [`multifield`].
//!
//! Everything is deterministic given an explicit seed, so experiments are
//! reproducible bit-for-bit.

pub mod construction;
mod dispatch;
pub mod hyperplane;
pub mod minhash;
pub mod mix;
pub mod multifield;
pub mod optimizer;
pub mod prob;
pub mod scheme;

pub use construction::Sensitivity;
pub use hyperplane::{HyperplaneFamily, HyperplanePanel, PANEL_RECORDS};
pub use minhash::MinHashFamily;
pub use multifield::{AndScheme, FieldSpec, OrScheme, WeightedSelection};
pub use optimizer::{OptimizerInput, SchemeOptimizer};
pub use scheme::{Scheme, WzScheme};
