//! # adalsh-serve
//!
//! An online top-k entity-resolution HTTP service over the adaLSH
//! engine — the paper's §9 online setting (see
//! [`adalsh_core::online`]) turned into a long-lived process.
//!
//! The service is std-only by design: a hand-rolled HTTP/1.1 layer over
//! [`std::net::TcpListener`] with a bounded worker-thread pool — no
//! async runtime, no web framework.
//!
//! The service is **read/write split**: `POST /ingest` lands batches in
//! a bounded queue, one resolver thread owns the engine and drains the
//! queue in adaptive batches, and after every pass it epoch-publishes
//! an immutable [`pipeline::ResolvedSnapshot`] through a lock-free slot
//! ([`publish`]). `GET /topk`, `/healthz`, and `/metrics` never acquire
//! a mutex — readers clone an `Arc` and answer from it, so a slow
//! resolve pass cannot stall the read path.
//!
//! Module map:
//!
//! * `http` — request parsing / response writing, bounded and
//!   timeout-aware
//! * [`server`] — accept loop, bounded queue, worker pool, graceful
//!   drain on shutdown
//! * [`publish`] — single-writer lock-free `Arc` publication slot
//! * [`pipeline`] — bounded intake queue, resolver thread, epoch
//!   publication, read-your-writes barriers
//! * [`service`] — routing over the pipeline
//! * [`metrics`] — Prometheus text exposition (`/metrics`)
//! * [`snapshot`] — durable resume: restart without re-hashing
//!
//! Endpoints:
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `POST /ingest` | schema-validated batch intake; returns assigned ids + `visible_epoch`; `503` + `Retry-After` when the queue is full |
//! | `GET /topk?k=N[&wait_epoch=E][&min_records=R]` | top-k clusters + resolve stats from the published snapshot; optional read-your-writes barrier |
//! | `GET /healthz` | lock-free liveness + record count + epoch |
//! | `GET /metrics` | Prometheus text: requests, latency, queue/epoch, engine + oracle counters |
//! | `POST /snapshot` | state persisted by the resolver thread at an epoch boundary (fsynced temp file + atomic rename + directory fsync) |
//! | `POST /adjudicate` | external pairwise verdicts into the noisy oracle's overlay; re-resolves and re-publishes at the current epoch (400 under `--oracle exact`) |
//! | `GET /adjudicate` | adjudication worklist: overlay version/size + the published snapshot's budget-degraded pairs |

pub(crate) mod http;
pub mod metrics;
pub mod pipeline;
pub mod publish;
pub mod server;
pub mod service;
pub mod snapshot;

pub use pipeline::{Pipeline, PipelineConfig, ResolvedSnapshot};
pub use server::{Server, ServerConfig};
pub use service::Service;
pub use snapshot::{ServeSnapshot, SNAPSHOT_VERSION};
