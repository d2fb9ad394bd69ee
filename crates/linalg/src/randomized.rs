//! Randomized truncated SVD of large (sparse) linear operators.
//!
//! Two variants are provided:
//!
//! * **Subspace iteration** (Halko, Martinsson & Tropp): the classic
//!   randomized range finder with power iterations.
//! * **Block Krylov** (BKSVD, Musco & Musco, NeurIPS 2015): the variant the
//!   paper's Algorithm 1 uses, which attains a `(1 + ε)` spectral-norm
//!   low-rank approximation with `Θ(log n / √ε)` iterations — noticeably
//!   fewer than subspace iteration needs for the same accuracy.
//!
//! Both access the input only through [`LinearOperator::apply`] /
//! [`LinearOperator::apply_transpose`], so the adjacency matrix of a graph is
//! never materialized.

use crate::eig::symmetric_eigen;
use crate::parallel::Exec;
use crate::qr::orthonormalize_exec;
use crate::random::gaussian_matrix;
use crate::{DenseMatrix, LinalgError, LinearOperator, Result};

/// Which randomized range finder to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomizedSvdMethod {
    /// Halko-style subspace (power) iteration.
    SubspaceIteration,
    /// Musco & Musco block Krylov iteration (the paper's BKSVD).
    BlockKrylov,
}

impl RandomizedSvdMethod {
    /// The serialized name (used by declarative method configurations).
    pub fn as_str(self) -> &'static str {
        match self {
            RandomizedSvdMethod::SubspaceIteration => "subspace-iteration",
            RandomizedSvdMethod::BlockKrylov => "block-krylov",
        }
    }

    /// Parses the serialized name produced by [`RandomizedSvdMethod::as_str`].
    pub fn from_str_name(name: &str) -> Option<Self> {
        match name {
            "subspace-iteration" => Some(RandomizedSvdMethod::SubspaceIteration),
            "block-krylov" => Some(RandomizedSvdMethod::BlockKrylov),
            _ => None,
        }
    }
}

impl serde::Serialize for RandomizedSvdMethod {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

impl serde::Deserialize for RandomizedSvdMethod {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let name = value.as_str().ok_or_else(|| {
            serde::Error::custom(format!("expected SVD method string, got {}", value.kind()))
        })?;
        Self::from_str_name(name).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown SVD method `{name}` (expected `block-krylov` or `subspace-iteration`)"
            ))
        })
    }
}

/// Output of a randomized truncated SVD: `A ≈ U diag(σ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SvdResult {
    /// Left singular vectors (`nrows x k`).
    pub u: DenseMatrix,
    /// Approximate singular values, descending.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (`ncols x k`).
    pub v: DenseMatrix,
}

impl SvdResult {
    /// Number of retained singular triplets.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Reconstructs the dense approximation `U Σ Vᵀ` (tests / tiny inputs).
    pub fn reconstruct(&self) -> DenseMatrix {
        let mut us = self.u.clone();
        us.scale_cols(&self.singular_values)
            .expect("shapes agree by construction");
        us.matmul_transpose(&self.v)
            .expect("shapes agree by construction")
    }
}

/// Configuration of the randomized SVD.
#[derive(Debug, Clone)]
pub struct RandomizedSvd {
    rank: usize,
    oversample: usize,
    iterations: usize,
    method: RandomizedSvdMethod,
    seed: u64,
    exec: Exec,
}

impl RandomizedSvd {
    /// Creates a configuration targeting the given rank with default
    /// oversampling (8) and iteration count (6) using block Krylov.
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            oversample: 8,
            iterations: 6,
            method: RandomizedSvdMethod::BlockKrylov,
            seed: 0,
            exec: Exec::sequential(),
        }
    }

    /// Sets the number of extra sketch columns beyond `rank`.
    pub fn oversample(mut self, oversample: usize) -> Self {
        self.oversample = oversample;
        self
    }

    /// Sets the number of power / Krylov iterations.
    ///
    /// For BKSVD the paper's guidance is `Θ(log n / √ε)`; see
    /// [`RandomizedSvd::iterations_for_epsilon`].
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the range-finder variant.
    pub fn method(mut self, method: RandomizedSvdMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the RNG seed for the Gaussian test matrix.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution policy for the block matmuls, the Krylov basis
    /// construction and the final projection (sequential by default, or a
    /// thread budget on a persistent [`crate::WorkerPool`]).  The result is
    /// bitwise identical for every policy: all threaded kernels follow the
    /// determinism contract of [`crate::parallel`].
    pub fn exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Iteration count suggested by the BKSVD analysis for a relative error
    /// `epsilon` on an `n`-dimensional problem: `ceil(log n / sqrt(epsilon))`
    /// scaled down by a constant factor that is sufficient in practice
    /// (Musco & Musco report small constants; we clamp to `[2, 30]`).
    pub fn iterations_for_epsilon(n: usize, epsilon: f64) -> usize {
        let eps = epsilon.clamp(1e-3, 1.0);
        let raw = ((n.max(2) as f64).ln() / eps.sqrt() / 2.0).ceil() as usize;
        raw.clamp(2, 30)
    }

    /// Runs the randomized SVD on `op`.
    pub fn compute<O: LinearOperator>(&self, op: &O) -> Result<SvdResult> {
        if self.rank == 0 {
            return Err(LinalgError::InvalidParameter(
                "rank must be positive".into(),
            ));
        }
        let (rows, cols) = (op.nrows(), op.ncols());
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidParameter(
                "operator has an empty dimension".into(),
            ));
        }
        let max_rank = rows.min(cols);
        let sketch = (self.rank + self.oversample).min(max_rank).max(1);
        let q = match self.method {
            RandomizedSvdMethod::SubspaceIteration => self.subspace_basis(op, sketch)?,
            RandomizedSvdMethod::BlockKrylov => self.krylov_basis(op, sketch)?,
        };
        // Project: W = Aᵀ Q, then the small Gram matrix C = Wᵀ W = Qᵀ A Aᵀ Q.
        let w = op.apply_transpose_exec(&q, &self.exec)?;
        let gram = w.gram_exec(&self.exec);
        let eig = symmetric_eigen(&gram)?;
        let keep = self.rank.min(eig.values.len());
        let basis = eig.vectors.truncate_cols(keep);
        let singular_values: Vec<f64> = eig.values[..keep]
            .iter()
            .map(|&l| l.max(0.0).sqrt())
            .collect();
        let u = q.matmul_exec(&basis, &self.exec)?;
        let mut v = w.matmul_exec(&basis, &self.exec)?;
        let inv: Vec<f64> = singular_values
            .iter()
            .map(|&s| if s > 1e-300 { 1.0 / s } else { 0.0 })
            .collect();
        v.scale_cols(&inv)?;
        Ok(SvdResult {
            u,
            singular_values,
            v,
        })
    }

    /// Subspace iteration range basis.
    fn subspace_basis<O: LinearOperator>(&self, op: &O, sketch: usize) -> Result<DenseMatrix> {
        let e = &self.exec;
        let omega = gaussian_matrix(op.ncols(), sketch, self.seed.wrapping_add(1));
        let mut q = orthonormalize_exec(&op.apply_exec(&omega, e)?, e)?;
        for _ in 0..self.iterations {
            let z = orthonormalize_exec(&op.apply_transpose_exec(&q, e)?, e)?;
            q = orthonormalize_exec(&op.apply_exec(&z, e)?, e)?;
        }
        Ok(q)
    }

    /// Block Krylov range basis: `orth([A Ω, (A Aᵀ) A Ω, …, (A Aᵀ)^q A Ω])`.
    ///
    /// The blocks are written side by side into one buffer sized for
    /// `q + 1` full-width blocks; if orthonormalization dropped columns the
    /// filled part is compacted, so the matrix handed to the final
    /// orthonormalization is exactly the horizontal concatenation of the
    /// blocks.
    fn krylov_basis<O: LinearOperator>(&self, op: &O, sketch: usize) -> Result<DenseMatrix> {
        let e = &self.exec;
        let omega = gaussian_matrix(op.ncols(), sketch, self.seed.wrapping_add(1));
        let mut block = orthonormalize_exec(&op.apply_exec(&omega, e)?, e)?;
        let mut krylov = DenseMatrix::zeros(op.nrows(), (self.iterations + 1) * sketch);
        let mut filled = 0;
        for iteration in 0..=self.iterations {
            if iteration > 0 {
                let z = op.apply_transpose_exec(&block, e)?;
                block = orthonormalize_exec(&op.apply_exec(&z, e)?, e)?;
            }
            let width = block.cols();
            if block.rows() != krylov.rows() || filled + width > krylov.cols() {
                return Err(LinalgError::ShapeMismatch {
                    operation: "krylov block".into(),
                    left: krylov.shape(),
                    right: block.shape(),
                });
            }
            for r in 0..block.rows() {
                krylov.row_mut(r)[filled..filled + width].copy_from_slice(block.row(r));
            }
            filled += width;
        }
        if filled < krylov.cols() {
            krylov = krylov.truncate_cols(filled);
        }
        orthonormalize_exec(&krylov, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::AdjacencyOperator;
    use crate::random::gaussian_matrix;
    use crate::svd::gram_svd;
    use nrp_graph::generators::{erdos_renyi, stochastic_block_model};
    use nrp_graph::GraphKind;

    /// Builds a noisy low-rank matrix with a known dominant subspace.
    fn low_rank_plus_noise(
        rows: usize,
        cols: usize,
        rank: usize,
        noise: f64,
        seed: u64,
    ) -> DenseMatrix {
        let u = gaussian_matrix(rows, rank, seed);
        let v = gaussian_matrix(cols, rank, seed + 1);
        let mut a = u.matmul_transpose(&v).unwrap();
        a.scale(5.0);
        let mut e = gaussian_matrix(rows, cols, seed + 2);
        e.scale(noise);
        a.add(&e).unwrap()
    }

    #[test]
    fn recovers_low_rank_structure_block_krylov() {
        let a = low_rank_plus_noise(60, 40, 3, 0.01, 7);
        let result = RandomizedSvd::new(3).seed(1).compute(&a).unwrap();
        let err = result.reconstruct().sub(&a).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn recovers_low_rank_structure_subspace_iteration() {
        let a = low_rank_plus_noise(60, 40, 3, 0.01, 11);
        let result = RandomizedSvd::new(3)
            .method(RandomizedSvdMethod::SubspaceIteration)
            .iterations(8)
            .seed(2)
            .compute(&a)
            .unwrap();
        let err = result.reconstruct().sub(&a).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn close_to_exact_truncated_svd() {
        let a = low_rank_plus_noise(40, 40, 5, 0.1, 3);
        let exact = gram_svd(&a, 1e-12).unwrap().truncate(5);
        let approx = RandomizedSvd::new(5)
            .iterations(10)
            .seed(4)
            .compute(&a)
            .unwrap();
        for (e, r) in exact.singular_values.iter().zip(&approx.singular_values) {
            assert!(
                (e - r).abs() / e < 0.02,
                "singular value mismatch: exact {e}, approx {r}"
            );
        }
    }

    #[test]
    fn factors_have_requested_shape_and_orthogonality() {
        let a = low_rank_plus_noise(50, 30, 4, 0.05, 9);
        let result = RandomizedSvd::new(4).seed(5).compute(&a).unwrap();
        assert_eq!(result.u.shape(), (50, 4));
        assert_eq!(result.v.shape(), (30, 4));
        assert_eq!(result.rank(), 4);
        assert!(crate::qr::orthogonality_defect(&result.u) < 1e-8);
        assert!(crate::qr::orthogonality_defect(&result.v) < 1e-6);
    }

    #[test]
    fn works_on_graph_adjacency_operator() {
        let (g, _) =
            stochastic_block_model(&[40, 40], 0.2, 0.02, GraphKind::Undirected, 3).unwrap();
        let op = AdjacencyOperator::new(&g);
        let result = RandomizedSvd::new(8).seed(6).compute(&op).unwrap();
        assert_eq!(result.u.rows(), 80);
        assert!(result.u.is_finite() && result.v.is_finite());
        // Compare against the exact SVD of the dense adjacency.
        let dense = crate::operator::to_dense(&op).unwrap();
        let exact = gram_svd(&dense, 1e-12).unwrap();
        // Largest singular value should match closely.
        let rel =
            (result.singular_values[0] - exact.singular_values[0]).abs() / exact.singular_values[0];
        assert!(rel < 0.02, "top singular value off by {rel}");
    }

    #[test]
    fn spectral_error_near_optimal_on_er_graph() {
        let g = erdos_renyi(120, 0.08, GraphKind::Undirected, 5).unwrap();
        let op = AdjacencyOperator::new(&g);
        let k = 10;
        let result = RandomizedSvd::new(k)
            .iterations(8)
            .seed(7)
            .compute(&op)
            .unwrap();
        let dense = crate::operator::to_dense(&op).unwrap();
        let exact = gram_svd(&dense, 1e-12).unwrap();
        // Frobenius error of rank-k approximation must be close to the optimal
        // error sqrt(sum_{i>k} sigma_i^2).
        let optimal: f64 = exact
            .singular_values
            .iter()
            .skip(k)
            .map(|s| s * s)
            .sum::<f64>()
            .sqrt();
        let achieved = result.reconstruct().sub(&dense).unwrap().frobenius_norm();
        assert!(
            achieved <= 1.1 * optimal + 1e-9,
            "achieved {achieved}, optimal {optimal}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = low_rank_plus_noise(30, 30, 3, 0.05, 13);
        let r1 = RandomizedSvd::new(3).seed(42).compute(&a).unwrap();
        let r2 = RandomizedSvd::new(3).seed(42).compute(&a).unwrap();
        assert_eq!(r1.singular_values, r2.singular_values);
        assert_eq!(r1.u, r2.u);
    }

    #[test]
    fn bitwise_identical_across_thread_budgets() {
        let (g, _) =
            stochastic_block_model(&[30, 30], 0.2, 0.03, GraphKind::Undirected, 8).unwrap();
        let op = AdjacencyOperator::new(&g);
        for method in [
            RandomizedSvdMethod::BlockKrylov,
            RandomizedSvdMethod::SubspaceIteration,
        ] {
            let run = |exec: Exec| {
                RandomizedSvd::new(6)
                    .method(method)
                    .iterations(4)
                    .seed(21)
                    .exec(exec)
                    .compute(&op)
                    .unwrap()
            };
            let reference = run(Exec::sequential());
            for threads in [2usize, 4, 8] {
                let pool = std::sync::Arc::new(crate::WorkerPool::new(threads));
                let result = run(Exec::pooled(pool, threads));
                assert_eq!(result.u, reference.u, "{method:?} threads = {threads}");
                assert_eq!(result.v, reference.v, "{method:?} threads = {threads}");
                assert_eq!(
                    result.singular_values, reference.singular_values,
                    "{method:?} threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn zero_rank_rejected() {
        let a = gaussian_matrix(5, 5, 1);
        assert!(RandomizedSvd::new(0).compute(&a).is_err());
    }

    #[test]
    fn rank_larger_than_dimension_is_clamped() {
        let a = gaussian_matrix(6, 4, 2);
        let result = RandomizedSvd::new(10).compute(&a).unwrap();
        assert!(result.rank() <= 4);
    }

    #[test]
    fn iterations_for_epsilon_monotone() {
        let loose = RandomizedSvd::iterations_for_epsilon(10_000, 0.5);
        let tight = RandomizedSvd::iterations_for_epsilon(10_000, 0.05);
        assert!(tight >= loose);
        assert!(loose >= 2);
        assert!(tight <= 30);
    }
}
