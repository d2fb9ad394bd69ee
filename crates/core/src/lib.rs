//! # nrp-core
//!
//! The paper's contribution: **NRP (Node-Reweighted PageRank)** homogeneous
//! network embeddings, together with the **ApproxPPR** baseline it builds on
//! (Yang et al., *Homogeneous Network Embedding for Massive Graphs via
//! Reweighted Personalized PageRank*, PVLDB 13(5), 2020).
//!
//! The pipeline has two stages:
//!
//! 1. [`approx_ppr::ApproxPpr`] (paper Algorithm 1) factorizes the truncated
//!    personalized-PageRank series `Π' = Σ_{i=1..ℓ1} α(1-α)^i P^i` into
//!    forward embeddings `X` and backward embeddings `Y` such that
//!    `X_u · Y_v ≈ π(u, v)`, without ever materializing the `n × n` PPR
//!    matrix: a randomized block-Krylov SVD of the adjacency matrix provides
//!    the initial factors and `ℓ1 - 1` sparse propagations fold in the
//!    higher-order terms.
//! 2. [`reweight`] (paper Algorithms 2–4) learns per-node forward and
//!    backward weights by coordinate descent so that the total embedded
//!    proximity out of (into) each node matches its out- (in-) degree, fixing
//!    the "PPR is a relative measure" deficiency illustrated by the paper's
//!    Fig. 1.  [`nrp::Nrp`] (Algorithm 3) glues the stages together.
//!
//! Supporting modules: [`ppr`] computes exact PPR matrices for small graphs
//! (ground truth in tests and the Table 1 harness), [`push`] implements
//! forward-push approximate single-source PPR (used by the STRAP baseline),
//! and [`embedding`] defines the [`embedding::Embedding`] container plus the
//! [`embedding::Embedder`] trait shared by every method in the workspace.
//!
//! The public API is organized around two pieces:
//!
//! * [`config::MethodConfig`] — every method described as serde-backed data
//!   (`{"method": "NRP", ...}`), with paper defaults for missing fields, a
//!   JSON/TOML round trip and a registry that resolves a config to a boxed
//!   [`embedding::Embedder`] via [`config::MethodConfig::build`].
//! * [`context::EmbedContext`] / [`context::EmbedOutput`] — the v2 embedding
//!   interface: runs accept a context (seed override, thread budget,
//!   cancellation flag) and return the embedding together with per-stage
//!   wall-clock metadata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx_ppr;
pub mod config;
pub mod context;
pub mod embedding;
pub mod error;
pub mod nrp;
pub mod ppr;
pub mod push;
pub mod reweight;

/// Deterministic data-parallel primitives (re-exported from `nrp-linalg`):
/// chunked map/reduce with stable chunk ordering, run sequentially or on a
/// persistent worker pool via an `Exec` policy.  Everything
/// built on this module is bitwise identical for any thread budget — the
/// contract behind [`EmbedContext::with_threads`](context::EmbedContext).
pub use nrp_linalg::parallel;

pub use approx_ppr::{ApproxPpr, ApproxPprParams};
pub use config::{flat_toml_to_value, register_method, registered_methods, MethodConfig};
pub use context::{EmbedContext, EmbedOutput, RunMetadata, StageClock, StageTiming};
pub use embedding::{Embedder, Embedding};
pub use error::{NrpError, PushParamError};
pub use nrp::{Nrp, NrpParams};
pub use nrp_linalg::DanglingPolicy;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NrpError>;
