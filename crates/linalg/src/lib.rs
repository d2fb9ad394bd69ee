//! # nrp-linalg
//!
//! Dense and randomized linear-algebra kernels required by the NRP
//! reproduction. Everything is implemented from scratch on top of `Vec<f64>`
//! so the workspace has no dependency on external BLAS/LAPACK or sparse
//! linear-algebra crates:
//!
//! * [`DenseMatrix`] — row-major dense matrices with the handful of
//!   operations the algorithms need (products, transposes, norms).
//! * [`qr`] — thin QR factorization by modified Gram–Schmidt, and the
//!   panel-blocked classical Gram–Schmidt run twice (BCGS2) that
//!   orthonormalizes randomized range bases: 32-column panels projected
//!   with two matrix-shaped products over fixed row chunks, so the basis is
//!   bitwise identical for every thread budget.
//! * [`eig`] — a symmetric eigensolver for the small projected matrices:
//!   Householder tridiagonalisation plus implicit-shift QL (`tred2` +
//!   `tql2`), sequential with a fixed operation order, rejecting non-finite
//!   input and bounding its iterations.
//! * [`svd`] — exact SVD of small or tall-thin matrices via the
//!   eigendecomposition of the Gram matrix.
//! * [`randomized`] — randomized truncated SVD of large sparse operators:
//!   both plain subspace iteration (Halko et al.) and the block-Krylov
//!   variant (BKSVD, Musco & Musco 2015) the paper's Algorithm 1 calls for.
//! * [`sparse`] — CSR sparse matrices with `f64` values and sparse × dense
//!   products, plus the [`LinearOperator`] abstraction that lets the
//!   randomized SVD run directly on graph adjacency structures without
//!   materializing them as matrices.
//! * [`random`] — seeded Gaussian matrix generation (Box–Muller).
//! * [`parallel`] — deterministic chunked map/reduce with stable chunk
//!   ordering; every multi-threaded kernel in the workspace is built on it
//!   and is bitwise identical for any thread budget.  Each kernel's one
//!   threaded entry point takes an [`Exec`] policy: the calling thread alone,
//!   or a persistent [`WorkerPool`] — same chunk grid, same results, spawn
//!   cost paid once per pool.

// Unsafe is denied everywhere except the two documented blocks in
// `parallel` (lifetime erasure for pool jobs, disjoint row-block writes),
// which carry their own `allow` and safety arguments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod eig;
pub mod error;
pub mod matrix;
pub mod operator;
pub mod parallel;
pub mod qr;
pub mod random;
pub mod randomized;
pub mod sparse;
pub mod svd;

pub use error::LinalgError;
pub use matrix::DenseMatrix;
pub use operator::{
    AdjacencyOperator, DanglingPolicy, LinearOperator, SparseTransposePair, TransitionOperator,
};
pub use parallel::{Exec, WorkerPool};
pub use randomized::{RandomizedSvd, RandomizedSvdMethod, SvdResult};
pub use sparse::SparseMatrix;

/// Convenience result alias for linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
