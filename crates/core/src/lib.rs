//! # adalsh-core
//!
//! Adaptive LSH top-k entity-resolution filtering (the paper's primary
//! contribution), plus its baselines, accuracy metrics, and recovery
//! processes.
//!
//! The central entry point is [`algorithm::AdaLsh`], implementing
//! Algorithm 1: a sequence of transitive hashing functions of increasing
//! accuracy/cost is applied adaptively — the largest unresolved cluster
//! is processed each round, jumping to exact pairwise computation when a
//! cost model says hashing stopped paying — until the `k` largest
//! clusters are trustworthy.
//!
//! Module map (paper section in parentheses):
//!
//! * [`ppt`] — parent-pointer trees (App. B.1–B.2)
//! * [`bins`] — bin-based largest-cluster index (App. B.1, B.4)
//! * [`hashing`] — incremental per-record hashing state (§2.2 P4, App. B.2)
//! * [`transitive`] — transitive hashing functions (Def. 1)
//! * [`pairwise`] — pairwise computation function `P` (Def. 2, App. B.3)
//! * [`memo`] — the online resolver's exact partition memo for `P` and `H_t`
//! * [`cost`] — cost model (Def. 3, App. E.2)
//! * [`sequence`] — budget strategies and sequence design (§5)
//! * [`algorithm`] — Algorithm 1, incremental mode, selection ablations (§4)
//! * [`baselines`] — Pairs and LSH-X blocking baselines (§6.1.1, App. E.1)
//! * [`metrics`] — accuracy/performance metrics (§6.2)
//! * [`oracle`] — pluggable noisy/fault-injected pairwise adjudication
//! * [`recovery`] — k̂ > k output and recovery processes (§6.1.2)
//! * [`stats`] — operation counters

pub mod algorithm;
pub mod baselines;
pub mod bins;
pub mod cost;
pub mod hashing;
pub mod memo;
pub mod metrics;
pub mod online;
pub mod oracle;
pub mod pairwise;
pub mod ppt;
pub mod recovery;
pub mod sequence;
pub mod stats;
pub mod transitive;

pub use adalsh_obs::TraceSink;
pub use algorithm::{AdaLsh, AdaLshConfig, FilterOutput, SelectionStrategy};
pub use baselines::{LshBlocking, Pairs};
pub use cost::CostModel;
pub use online::{OnlineAdaLsh, OnlineSnapshot};
pub use oracle::{
    Adjudication, ExactOracle, NoisyOracle, NoisyOracleConfig, OracleMode, OracleSpend,
    PairwiseOracle, SpendLedger, VerdictOverlay,
};
pub use pairwise::PairwiseTrace;
pub use sequence::{design, BudgetStrategy, SequenceSpec};
pub use stats::Stats;
