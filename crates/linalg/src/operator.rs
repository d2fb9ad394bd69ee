//! Linear-operator abstraction over matrices that are never materialized.
//!
//! The randomized SVD and the PPR propagation only ever touch the adjacency
//! matrix `A` and the transition matrix `P` through products with tall-skinny
//! dense matrices.  [`LinearOperator`] captures exactly that interface, and
//! [`AdjacencyOperator`] / [`TransitionOperator`] implement it directly on
//! top of the graph's CSR structure — `O(m·k)` per product and no `n × n`
//! storage, the property that lets NRP scale to large graphs.
//!
//! All operators expose threaded products ([`LinearOperator::apply_exec`] /
//! [`LinearOperator::apply_transpose_exec`]) with the workspace-wide
//! determinism contract: **the result is bitwise identical for every thread
//! budget**, because every output row is produced by exactly one worker with
//! the same summation order (see [`crate::parallel`]).
//!
//! Dangling nodes (out-degree zero) are handled by an explicit
//! [`DanglingPolicy`].  The default, [`DanglingPolicy::SelfLoop`], treats a
//! dangling node as carrying an implicit self-loop, so every row of `P` sums
//! to 1 and the PPR series conserves probability mass — matching the paper's
//! random-walk semantics (an α-decaying walk at a node with no out-neighbours
//! terminates *there*, it does not vanish) and the forward-push primitive in
//! `nrp-core`.  [`DanglingPolicy::ZeroRow`] keeps the literal `D⁻¹A` matrix
//! with all-zero dangling rows, under which mass leaks out of the series, and
//! [`DanglingPolicy::Teleport`] gives dangling nodes a uniform jump to any
//! node (the PageRank classic) — still mass-conserving, but without pooling
//! the surviving mass at the sink.

use nrp_graph::Graph;

use crate::{parallel, DenseMatrix, LinalgError, Result, SparseMatrix};

/// A real linear operator `A : R^{ncols} -> R^{nrows}` accessed only through
/// matrix products.
pub trait LinearOperator {
    /// Number of rows of the represented matrix.
    fn nrows(&self) -> usize;
    /// Number of columns of the represented matrix.
    fn ncols(&self) -> usize;
    /// Computes `A * x` for a dense `x` with `ncols()` rows.
    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix>;
    /// Computes `Aᵀ * x` for a dense `x` with `nrows()` rows.
    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix>;

    /// Computes `A * x` under an [`parallel::Exec`] policy (sequential, or a
    /// thread budget on a persistent [`crate::WorkerPool`]).
    ///
    /// Implementations must be bitwise identical for every policy and must
    /// agree with [`LinearOperator::apply`]; the default simply runs the
    /// sequential product, and the operators in this crate override it to
    /// hand the policy to their row-parallel kernels.
    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        let _ = exec;
        self.apply(x)
    }

    /// Computes `Aᵀ * x` under an [`parallel::Exec`] policy (same contract
    /// as [`LinearOperator::apply_exec`]).
    fn apply_transpose_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        let _ = exec;
        self.apply_transpose(x)
    }
}

fn check_rows(expected: usize, x: &DenseMatrix, operation: &str) -> Result<()> {
    if x.rows() != expected {
        return Err(LinalgError::ShapeMismatch {
            operation: operation.into(),
            left: (expected, expected),
            right: x.shape(),
        });
    }
    Ok(())
}

/// The (unweighted) adjacency matrix `A` of a graph: `A[u, v] = 1` iff the
/// arc `(u, v)` exists.
#[derive(Debug, Clone, Copy)]
pub struct AdjacencyOperator<'g> {
    graph: &'g Graph,
}

impl<'g> AdjacencyOperator<'g> {
    /// Wraps a graph's adjacency structure.
    pub fn new(graph: &'g Graph) -> Self {
        Self { graph }
    }

    fn fill_apply_row(&self, x: &DenseMatrix, u: usize, out_row: &mut [f64]) {
        for &v in self.graph.out_neighbors(u as u32) {
            let x_row = x.row(v as usize);
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += xv;
            }
        }
    }

    fn fill_transpose_row(&self, x: &DenseMatrix, u: usize, out_row: &mut [f64]) {
        // Row u of Aᵀ has ones at the in-neighbours of u.
        for &v in self.graph.in_neighbors(u as u32) {
            let x_row = x.row(v as usize);
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += xv;
            }
        }
    }
}

impl LinearOperator for AdjacencyOperator<'_> {
    fn nrows(&self) -> usize {
        self.graph.num_nodes()
    }

    fn ncols(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.apply_exec(x, &parallel::Exec::sequential())
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.apply_transpose_exec(x, &parallel::Exec::sequential())
    }

    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        check_rows(self.ncols(), x, "adjacency * dense")?;
        let n = self.graph.num_nodes();
        let data = parallel::par_fill_rows_exec(n, x.cols(), exec, |u, out_row| {
            self.fill_apply_row(x, u, out_row)
        });
        DenseMatrix::from_vec(n, x.cols(), data)
    }

    fn apply_transpose_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        check_rows(self.nrows(), x, "adjacencyᵀ * dense")?;
        let n = self.graph.num_nodes();
        let data = parallel::par_fill_rows_exec(n, x.cols(), exec, |u, out_row| {
            self.fill_transpose_row(x, u, out_row)
        });
        DenseMatrix::from_vec(n, x.cols(), data)
    }
}

/// How the transition matrix treats dangling nodes (out-degree zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// A dangling node carries an implicit self-loop: its row of `P` is the
    /// unit vector `e_u`, so every row sums to 1 and the PPR series conserves
    /// probability mass.  This matches the paper's walk semantics (a walk at
    /// a node with no out-neighbours terminates there) and the forward-push
    /// primitive, and is the default.
    #[default]
    SelfLoop,
    /// The literal `D⁻¹A` matrix: dangling rows are all-zero and the mass of
    /// a walk that reaches one vanishes from the series.  Kept for
    /// comparisons and for callers that want the raw matrix.
    ZeroRow,
    /// The PageRank classic: a walk at a dangling node jumps to a uniformly
    /// random node, so its row of `P` is `(1/n, …, 1/n)`.  Rows still sum to
    /// 1 (mass-conserving), but the surviving mass spreads over the whole
    /// graph instead of pooling at the sink.
    Teleport,
}

impl DanglingPolicy {
    /// The serialized name (used by declarative method configurations).
    pub fn as_str(self) -> &'static str {
        match self {
            DanglingPolicy::SelfLoop => "self-loop",
            DanglingPolicy::ZeroRow => "zero-row",
            DanglingPolicy::Teleport => "teleport",
        }
    }

    /// Parses the serialized name produced by [`DanglingPolicy::as_str`].
    pub fn from_str_name(name: &str) -> Option<Self> {
        match name {
            "self-loop" => Some(DanglingPolicy::SelfLoop),
            "zero-row" => Some(DanglingPolicy::ZeroRow),
            "teleport" => Some(DanglingPolicy::Teleport),
            _ => None,
        }
    }
}

impl serde::Serialize for DanglingPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

impl serde::Deserialize for DanglingPolicy {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let name = value.as_str().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected dangling-policy string, got {}",
                value.kind()
            ))
        })?;
        Self::from_str_name(name).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown dangling policy `{name}` (expected self-loop, zero-row or teleport)"
            ))
        })
    }
}

/// The random-walk transition matrix `P` of a graph
/// (`P[u, v] = 1/dout(u)` for each out-neighbour `v` of `u`, with dangling
/// rows resolved by a [`DanglingPolicy`]).
#[derive(Debug, Clone)]
pub struct TransitionOperator<'g> {
    graph: &'g Graph,
    inv_out_degree: Vec<f64>,
    dangling_nodes: Vec<u32>,
    policy: DanglingPolicy,
}

impl<'g> TransitionOperator<'g> {
    /// Wraps a graph as its transition matrix under the default
    /// [`DanglingPolicy::SelfLoop`].
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_policy(graph, DanglingPolicy::default())
    }

    /// Wraps a graph as its transition matrix under an explicit policy.
    pub fn with_policy(graph: &'g Graph, policy: DanglingPolicy) -> Self {
        let n = graph.num_nodes();
        let inv_out_degree = (0..n)
            .map(|u| {
                let d = graph.out_degree(u as u32);
                match (d, policy) {
                    (0, DanglingPolicy::SelfLoop) => 1.0,
                    (0, DanglingPolicy::ZeroRow) => 0.0,
                    (0, DanglingPolicy::Teleport) => 1.0 / n as f64,
                    (d, _) => 1.0 / d as f64,
                }
            })
            .collect();
        let dangling_nodes = (0..n as u32)
            .filter(|&u| graph.out_degree(u) == 0)
            .collect();
        Self {
            graph,
            inv_out_degree,
            dangling_nodes,
            policy,
        }
    }

    /// The dangling-node policy in effect.
    pub fn policy(&self) -> DanglingPolicy {
        self.policy
    }

    /// The vector of `1/dout(u)` values.  A dangling node's entry is its
    /// policy-implied degree: 1 under [`DanglingPolicy::SelfLoop`] (the
    /// implicit self-loop), 0 under [`DanglingPolicy::ZeroRow`] and `1/n`
    /// under [`DanglingPolicy::Teleport`] (the uniform jump).
    pub fn inverse_out_degrees(&self) -> &[f64] {
        &self.inv_out_degree
    }

    fn is_dangling(&self, u: usize) -> bool {
        self.graph.out_degree(u as u32) == 0
    }

    /// The row every Teleport-dangling node maps to under `P * x`: the column
    /// means of `x`.  Computed once per product, sequentially over ascending
    /// rows, so it is identical for every thread budget.  `None` when the
    /// policy never needs it.
    fn teleport_apply_row(&self, x: &DenseMatrix) -> Option<Vec<f64>> {
        if self.policy != DanglingPolicy::Teleport || self.dangling_nodes.is_empty() {
            return None;
        }
        let n = self.graph.num_nodes();
        let mut row = vec![0.0; x.cols()];
        for u in 0..n {
            for (acc, &xv) in row.iter_mut().zip(x.row(u)) {
                *acc += xv;
            }
        }
        let inv = 1.0 / n as f64;
        for acc in &mut row {
            *acc *= inv;
        }
        Some(row)
    }

    /// The contribution Teleport-dangling sources add to *every* row of
    /// `Pᵀ * x`: `(1/n) Σ_{dangling u} x_u`, summed over ascending node ids.
    fn teleport_transpose_row(&self, x: &DenseMatrix) -> Option<Vec<f64>> {
        if self.policy != DanglingPolicy::Teleport || self.dangling_nodes.is_empty() {
            return None;
        }
        let mut row = vec![0.0; x.cols()];
        for &u in &self.dangling_nodes {
            for (acc, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                *acc += xv;
            }
        }
        let inv = 1.0 / self.graph.num_nodes() as f64;
        for acc in &mut row {
            *acc *= inv;
        }
        Some(row)
    }

    fn fill_apply_row(
        &self,
        x: &DenseMatrix,
        u: usize,
        uniform: Option<&[f64]>,
        out_row: &mut [f64],
    ) {
        let neighbors = self.graph.out_neighbors(u as u32);
        if neighbors.is_empty() {
            match self.policy {
                // Row u of P is e_u.
                DanglingPolicy::SelfLoop => out_row.copy_from_slice(x.row(u)),
                DanglingPolicy::ZeroRow => {}
                // Row u of P is (1/n, …, 1/n).
                DanglingPolicy::Teleport => {
                    out_row.copy_from_slice(uniform.expect("teleport row precomputed"))
                }
            }
            return;
        }
        let w = self.inv_out_degree[u];
        for &v in neighbors {
            let x_row = x.row(v as usize);
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += w * xv;
            }
        }
    }

    fn fill_transpose_row(
        &self,
        x: &DenseMatrix,
        v: usize,
        teleport: Option<&[f64]>,
        out_row: &mut [f64],
    ) {
        // Row v of Pᵀ gathers from the in-neighbours of v (sorted ascending),
        // plus v itself when v is a dangling self-loop.  The self contribution
        // is merged at its sorted position so the summation order matches a
        // scatter over ascending source nodes exactly.
        let mut self_pending = self.is_dangling(v) && self.policy == DanglingPolicy::SelfLoop;
        for &u in self.graph.in_neighbors(v as u32) {
            if self_pending && (u as usize) > v {
                for (o, &xv) in out_row.iter_mut().zip(x.row(v)) {
                    *o += xv;
                }
                self_pending = false;
            }
            // An in-neighbour of v has the arc u → v, so it is never
            // dangling and its weight is 1/dout(u) under both policies.
            let w = self.inv_out_degree[u as usize];
            debug_assert!(w > 0.0 && !self.is_dangling(u as usize));
            let x_row = x.row(u as usize);
            for (o, &xv) in out_row.iter_mut().zip(x_row) {
                *o += w * xv;
            }
        }
        if self_pending {
            for (o, &xv) in out_row.iter_mut().zip(x.row(v)) {
                *o += xv;
            }
        }
        // Teleport-dangling sources scatter 1/n into every column of P, so
        // every output row gains the same precomputed vector.  Added after
        // the neighbour gathers — a fixed per-row order, hence still bitwise
        // identical for every thread budget.
        if let Some(teleport) = teleport {
            for (o, &t) in out_row.iter_mut().zip(teleport) {
                *o += t;
            }
        }
    }
}

impl LinearOperator for TransitionOperator<'_> {
    fn nrows(&self) -> usize {
        self.graph.num_nodes()
    }

    fn ncols(&self) -> usize {
        self.graph.num_nodes()
    }

    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.apply_exec(x, &parallel::Exec::sequential())
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.apply_transpose_exec(x, &parallel::Exec::sequential())
    }

    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        check_rows(self.ncols(), x, "transition * dense")?;
        let n = self.graph.num_nodes();
        let uniform = self.teleport_apply_row(x);
        let data = parallel::par_fill_rows_exec(n, x.cols(), exec, |u, out_row| {
            self.fill_apply_row(x, u, uniform.as_deref(), out_row)
        });
        DenseMatrix::from_vec(n, x.cols(), data)
    }

    fn apply_transpose_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        check_rows(self.nrows(), x, "transitionᵀ * dense")?;
        let n = self.graph.num_nodes();
        let teleport = self.teleport_transpose_row(x);
        let data = parallel::par_fill_rows_exec(n, x.cols(), exec, |v, out_row| {
            self.fill_transpose_row(x, v, teleport.as_deref(), out_row)
        });
        DenseMatrix::from_vec(n, x.cols(), data)
    }
}

impl LinearOperator for DenseMatrix {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul(x)
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.transpose_matmul(x)
    }

    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        self.matmul_exec(x, exec)
    }
    // apply_transpose_exec keeps the sequential default: the
    // accumulation over rows would need the chunked-reduce grouping, which
    // differs in the last ulp from `transpose_matmul`.  Dense operators only
    // appear in tests and tiny problems, so there is nothing to win.
}

impl LinearOperator for SparseMatrix {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_dense(x)
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.transpose_matmul_dense(x)
    }

    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        self.matmul_dense_exec(x, exec)
    }
    // apply_transpose_exec keeps the sequential default; callers that
    // need a threaded transpose product wrap the matrix in a
    // [`SparseTransposePair`] so both directions are row-parallel gathers.
}

/// A sparse matrix paired with its precomputed transpose, so that both
/// `A * x` and `Aᵀ * x` are row-parallel CSR gathers — the form the
/// randomized SVD needs to spend its thread budget on sparse inputs (STRAP's
/// proximity matrix).  Gathering over the transpose visits sources in the
/// same ascending order as the sequential scatter, so results are bitwise
/// identical to [`SparseMatrix::transpose_matmul_dense`].
#[derive(Debug, Clone)]
pub struct SparseTransposePair {
    forward: SparseMatrix,
    transpose: SparseMatrix,
}

impl SparseTransposePair {
    /// Builds the pair, materializing the transpose once.
    pub fn new(matrix: SparseMatrix) -> Self {
        let transpose = matrix.transpose();
        Self {
            forward: matrix,
            transpose,
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.forward
    }
}

impl LinearOperator for SparseTransposePair {
    fn nrows(&self) -> usize {
        self.forward.rows()
    }

    fn ncols(&self) -> usize {
        self.forward.cols()
    }

    fn apply(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.forward.matmul_dense(x)
    }

    fn apply_transpose(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.transpose.matmul_dense(x)
    }

    fn apply_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        self.forward.matmul_dense_exec(x, exec)
    }

    fn apply_transpose_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        self.transpose.matmul_dense_exec(x, exec)
    }
}

/// Densifies an operator by applying it to the identity (tests only).
pub fn to_dense<O: LinearOperator>(op: &O) -> Result<DenseMatrix> {
    op.apply(&DenseMatrix::identity(op.ncols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Exec, WorkerPool};
    use nrp_graph::{Graph, GraphKind};
    use std::sync::Arc;

    fn pooled(threads: usize) -> Exec {
        Exec::pooled(Arc::new(WorkerPool::new(threads)), threads)
    }

    fn toy() -> Graph {
        Graph::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)],
            GraphKind::Directed,
        )
        .unwrap()
    }

    /// 0 → 1 → 2 with 2 dangling, plus 3 → 2 so node 2 has two in-neighbours.
    fn dangling_graph() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (3, 2), (3, 0)], GraphKind::Directed).unwrap()
    }

    #[test]
    fn adjacency_apply_matches_dense() {
        let g = toy();
        let op = AdjacencyOperator::new(&g);
        let dense = to_dense(&op).unwrap();
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(dense.get(0, 2), 1.0);
        assert_eq!(dense.get(1, 0), 0.0);
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let fast = op.apply(&x).unwrap();
        let slow = dense.matmul(&x).unwrap();
        assert!(fast.sub(&slow).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn adjacency_transpose_matches_dense_transpose() {
        let g = toy();
        let op = AdjacencyOperator::new(&g);
        let dense = to_dense(&op).unwrap();
        let x = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64 + 0.5);
        let fast = op.apply_transpose(&x).unwrap();
        let slow = dense.transpose().matmul(&x).unwrap();
        assert!(fast.sub(&slow).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn transition_rows_sum_to_one_under_self_loop_policy() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)], GraphKind::Directed).unwrap();
        let op = TransitionOperator::new(&g);
        assert_eq!(op.policy(), DanglingPolicy::SelfLoop);
        let dense = to_dense(&op).unwrap();
        for u in 0..3 {
            let sum: f64 = dense.row(u).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {u} sums to {sum}");
        }
        // Dangling rows are unit vectors at the node itself.
        assert_eq!(dense.get(1, 1), 1.0);
        assert_eq!(dense.get(2, 2), 1.0);
        assert_eq!(dense.get(0, 1), 0.5);
        assert_eq!(op.inverse_out_degrees(), &[0.5, 1.0, 1.0]);
    }

    #[test]
    fn transition_zero_row_policy_keeps_dangling_rows_empty() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)], GraphKind::Directed).unwrap();
        let op = TransitionOperator::with_policy(&g, DanglingPolicy::ZeroRow);
        let dense = to_dense(&op).unwrap();
        let row1: f64 = dense.row(1).iter().sum();
        assert_eq!(row1, 0.0);
        assert_eq!(op.inverse_out_degrees(), &[0.5, 0.0, 0.0]);
    }

    #[test]
    fn transition_teleport_policy_spreads_dangling_mass_uniformly() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2)], GraphKind::Directed).unwrap();
        let op = TransitionOperator::with_policy(&g, DanglingPolicy::Teleport);
        let dense = to_dense(&op).unwrap();
        for u in 0..4 {
            let sum: f64 = dense.row(u).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {u} sums to {sum}");
        }
        // Dangling rows are uniform, non-dangling rows untouched.
        for v in 0..4 {
            assert!((dense.get(1, v) - 0.25).abs() < 1e-15);
            assert!((dense.get(3, v) - 0.25).abs() < 1e-15);
        }
        assert_eq!(dense.get(0, 1), 0.5);
        assert_eq!(op.inverse_out_degrees(), &[0.5, 0.25, 0.25, 0.25]);
        assert_eq!(op.policy(), DanglingPolicy::Teleport);
    }

    #[test]
    fn dangling_policy_names_round_trip() {
        for policy in [
            DanglingPolicy::SelfLoop,
            DanglingPolicy::ZeroRow,
            DanglingPolicy::Teleport,
        ] {
            assert_eq!(DanglingPolicy::from_str_name(policy.as_str()), Some(policy));
            let value = serde::Serialize::to_value(&policy);
            let back: DanglingPolicy = serde::Deserialize::from_value(&value).unwrap();
            assert_eq!(back, policy);
        }
        assert!(DanglingPolicy::from_str_name("uniform").is_none());
        let bad = serde::Value::String("uniform".into());
        assert!(<DanglingPolicy as serde::Deserialize>::from_value(&bad).is_err());
    }

    #[test]
    fn transition_transpose_matches_dense_for_all_policies() {
        for policy in [
            DanglingPolicy::SelfLoop,
            DanglingPolicy::ZeroRow,
            DanglingPolicy::Teleport,
        ] {
            for g in [toy(), dangling_graph()] {
                let op = TransitionOperator::with_policy(&g, policy);
                let dense = to_dense(&op).unwrap();
                let x = DenseMatrix::from_fn(4, 2, |i, j| ((i + 1) * (j + 2)) as f64);
                let fast = op.apply_transpose(&x).unwrap();
                let slow = dense.transpose().matmul(&x).unwrap();
                assert!(
                    fast.sub(&slow).unwrap().frobenius_norm() < 1e-12,
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn dense_matrix_as_operator() {
        let a = DenseMatrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let x = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64);
        assert_eq!(a.apply(&x).unwrap(), a.matmul(&x).unwrap());
        assert_eq!(a.apply_exec(&x, &pooled(3)).unwrap(), a.matmul(&x).unwrap());
        let y = DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(
            a.apply_transpose(&y).unwrap(),
            a.transpose().matmul(&y).unwrap()
        );
    }

    #[test]
    fn sparse_matrix_as_operator() {
        let m = SparseMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0)]).unwrap();
        let x = DenseMatrix::identity(3);
        let applied = m.apply(&x).unwrap();
        assert_eq!(applied.get(0, 1), 2.0);
        assert_eq!(applied.get(2, 0), 1.0);
    }

    #[test]
    fn sparse_transpose_pair_matches_plain_sparse_products() {
        let m = SparseMatrix::from_triplets(
            5,
            4,
            &[
                (0, 1, 2.0),
                (1, 3, -1.0),
                (2, 0, 0.5),
                (4, 2, 3.0),
                (4, 0, 1.5),
            ],
        )
        .unwrap();
        let pair = SparseTransposePair::new(m.clone());
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.1 + 1.0);
        let y = DenseMatrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64 * 0.2 - 0.5);
        assert_eq!(pair.apply(&x).unwrap(), m.matmul_dense(&x).unwrap());
        assert_eq!(
            pair.apply_transpose(&y).unwrap(),
            m.transpose_matmul_dense(&y).unwrap()
        );
        for threads in [1usize, 2, 5] {
            assert_eq!(
                pair.apply_exec(&x, &pooled(threads)).unwrap(),
                pair.apply(&x).unwrap()
            );
            assert_eq!(
                pair.apply_transpose_exec(&y, &pooled(threads)).unwrap(),
                pair.apply_transpose(&y).unwrap()
            );
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let g = toy();
        let op = AdjacencyOperator::new(&g);
        let x = DenseMatrix::zeros(5, 2);
        assert!(op.apply(&x).is_err());
        assert!(op.apply_transpose(&x).is_err());
    }

    #[test]
    fn parallel_transition_apply_matches_sequential() {
        for policy in [
            DanglingPolicy::SelfLoop,
            DanglingPolicy::ZeroRow,
            DanglingPolicy::Teleport,
        ] {
            for g in [toy(), dangling_graph()] {
                let op = TransitionOperator::with_policy(&g, policy);
                let x = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.25 + 0.1);
                let sequential = op.apply(&x).unwrap();
                let sequential_t = op.apply_transpose(&x).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let exec = pooled(threads);
                    assert_eq!(
                        op.apply_exec(&x, &exec).unwrap(),
                        sequential,
                        "{policy:?}, threads = {threads}"
                    );
                    assert_eq!(
                        op.apply_transpose_exec(&x, &exec).unwrap(),
                        sequential_t,
                        "{policy:?}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn undirected_adjacency_operator_is_symmetric() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], GraphKind::Undirected).unwrap();
        let op = AdjacencyOperator::new(&g);
        let dense = to_dense(&op).unwrap();
        assert!(dense.sub(&dense.transpose()).unwrap().frobenius_norm() < 1e-12);
    }
}
