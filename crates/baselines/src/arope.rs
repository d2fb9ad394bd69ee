//! AROPE (Zhang et al., KDD 2018): arbitrary-order proximity preserved
//! network embedding.
//!
//! AROPE eigen-decomposes the (symmetrized) adjacency matrix once,
//! `A ≈ U Λ Uᵀ`, and then derives embeddings for any polynomial proximity
//! `S = Σ_i w_i A^i` by reweighting the eigenvalues: `f(Λ) = Σ_i w_i Λ^i`,
//! `X = U |f(Λ)|^{1/2}`, `Y = U sign(f(Λ)) |f(Λ)|^{1/2}`, so `X Yᵀ = U f(Λ) Uᵀ ≈ S`.
//! Like the original method it is designed for undirected graphs; on directed
//! inputs the direction is ignored (exactly how the NRP paper evaluates it).

use nrp_core::{
    EmbedContext, EmbedOutput, Embedder, Embedding, MethodConfig, NrpError, Result, StageClock,
};
use nrp_graph::Graph;
use nrp_linalg::eig::symmetric_eigen;
use nrp_linalg::{AdjacencyOperator, LinearOperator, RandomizedSvd, RandomizedSvdMethod};

/// AROPE hyper-parameters.
#[derive(Debug, Clone)]
pub struct AropeParams {
    /// Total per-node budget `k`; forward and backward blocks get `k/2` each.
    pub dimension: usize,
    /// Weights of the proximity polynomial `S = Σ_i w_i A^i` (order = length).
    pub order_weights: Vec<f64>,
    /// Oversampling for the randomized eigen-solver.
    pub oversample: usize,
    /// Power iterations for the randomized eigen-solver.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AropeParams {
    fn default() -> Self {
        Self {
            dimension: 128,
            order_weights: vec![1.0, 0.1, 0.01],
            oversample: 8,
            iterations: 8,
            seed: 0,
        }
    }
}

/// The AROPE embedder.
#[derive(Debug, Clone, Default)]
pub struct Arope {
    params: AropeParams,
}

impl Arope {
    /// Creates an AROPE embedder.
    pub fn new(params: AropeParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AropeParams {
        &self.params
    }
}

impl Embedder for Arope {
    fn name(&self) -> &'static str {
        "AROPE"
    }

    fn config(&self) -> MethodConfig {
        let p = &self.params;
        MethodConfig::Arope {
            dimension: p.dimension,
            order_weights: p.order_weights.clone(),
            oversample: p.oversample,
            iterations: p.iterations,
            seed: p.seed,
        }
    }

    fn embed(&self, graph: &Graph, ctx: &EmbedContext) -> Result<EmbedOutput> {
        let p = &self.params;
        if p.dimension < 2 {
            return Err(NrpError::InvalidParameter(
                "dimension must be at least 2".into(),
            ));
        }
        if p.order_weights.is_empty() {
            return Err(NrpError::InvalidParameter(
                "order_weights must not be empty".into(),
            ));
        }
        ctx.ensure_active()?;
        let seed = ctx.seed_or(p.seed);
        let threads = ctx.thread_budget();
        let exec = ctx.exec();
        let mut clock = StageClock::start();
        let half = (p.dimension / 2).max(1);
        // Symmetrize: work on the undirected version of the graph (AROPE is
        // undirected-only; the NRP paper feeds it the undirected projection).
        let undirected = symmetrize(graph)?;
        clock.lap("symmetrize");
        let op = AdjacencyOperator::new(&undirected);
        // Top eigenpairs of the symmetric adjacency via a randomized range
        // basis followed by a small projected eigenproblem (Rayleigh–Ritz).
        let sketch_rank = (half + p.oversample).min(undirected.num_nodes());
        let svd = RandomizedSvd::new(sketch_rank)
            .oversample(p.oversample)
            .iterations(p.iterations)
            .method(RandomizedSvdMethod::BlockKrylov)
            .seed(seed)
            .exec(exec.clone())
            .compute(&op)?;
        clock.lap_parallel("eigensolve", threads);
        ctx.ensure_active()?;
        // Rayleigh–Ritz on the orthonormal basis U: T = Uᵀ A U (small), then
        // eigenvectors of T rotated back give signed eigenpairs of A.
        let basis = &svd.u;
        let au = op.apply_exec(basis, &exec)?;
        let projected = basis.transpose_matmul(&au)?;
        let eig = symmetric_eigen(&projected)?;
        // Select the `half` eigenvalues with the largest |f(λ)| and scale by
        // ±|f(λ)|^(1/2) (shared Ritz machinery with the spectral baseline).
        let f: Vec<f64> = eig
            .values
            .iter()
            .map(|&l| polynomial(&p.order_weights, l))
            .collect();
        let (forward, backward) = crate::ritz::signed_ritz_embedding(basis, &eig, &f, half)?;
        let embedding = Embedding::new(forward, backward, self.name())?;
        clock.lap("reweight_eigenvalues");
        Ok(EmbedOutput::new(embedding, self.config(), seed, ctx, clock))
    }
}

fn polynomial(weights: &[f64], lambda: f64) -> f64 {
    let mut power = lambda;
    let mut total = 0.0;
    for &w in weights {
        total += w * power;
        power *= lambda;
    }
    total
}

/// Projects a graph onto its undirected version (each arc becomes an edge).
fn symmetrize(graph: &Graph) -> Result<Graph> {
    if !graph.kind().is_directed() {
        return Ok(graph.clone());
    }
    let edges: Vec<(u32, u32)> = graph.arcs().collect();
    Graph::from_edges(graph.num_nodes(), &edges, nrp_graph::GraphKind::Undirected)
        .map_err(NrpError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;

    fn small_params(seed: u64) -> AropeParams {
        AropeParams {
            dimension: 16,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn reconstructs_first_order_proximity() {
        // With weights = [1] the target proximity is the adjacency matrix itself.
        let (g, _) =
            stochastic_block_model(&[20, 20], 0.3, 0.02, GraphKind::Undirected, 1).unwrap();
        let params = AropeParams {
            dimension: 32,
            order_weights: vec![1.0],
            ..small_params(1)
        };
        let e = Arope::new(params).embed_default(&g).unwrap();
        let mut edge_mean = 0.0;
        let mut non_edge_mean = 0.0;
        let (mut ce, mut cn) = (0, 0);
        for u in 0..40u32 {
            for v in 0..40u32 {
                if u == v {
                    continue;
                }
                if g.has_arc(u, v) {
                    edge_mean += e.score(u, v);
                    ce += 1;
                } else {
                    non_edge_mean += e.score(u, v);
                    cn += 1;
                }
            }
        }
        assert!(edge_mean / ce as f64 > non_edge_mean / cn as f64 + 0.1);
    }

    #[test]
    fn polynomial_evaluation() {
        // weights [2, 3] -> 2λ + 3λ².
        assert!((polynomial(&[2.0, 3.0], 2.0) - 16.0).abs() < 1e-12);
        assert!((polynomial(&[1.0], -2.0) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn handles_directed_input_by_symmetrizing() {
        let (g, _) = stochastic_block_model(&[15, 15], 0.25, 0.03, GraphKind::Directed, 2).unwrap();
        let e = Arope::new(small_params(2)).embed_default(&g).unwrap();
        assert_eq!(e.num_nodes(), 30);
        assert!(e.is_finite());
    }

    #[test]
    fn invalid_params_rejected() {
        let (g, _) =
            stochastic_block_model(&[10, 10], 0.3, 0.05, GraphKind::Undirected, 3).unwrap();
        assert!(Arope::new(AropeParams {
            dimension: 1,
            ..small_params(3)
        })
        .embed_default(&g)
        .is_err());
        assert!(Arope::new(AropeParams {
            order_weights: vec![],
            ..small_params(3)
        })
        .embed_default(&g)
        .is_err());
    }

    #[test]
    fn negative_eigenvalues_are_handled() {
        // A bipartite-ish graph has large negative eigenvalues; embeddings must stay finite
        // and the score X·Yᵀ must still approximate the (signed) proximity.
        let g = nrp_graph::generators::simple::star(20).unwrap();
        let e = Arope::new(AropeParams {
            dimension: 8,
            order_weights: vec![1.0],
            ..small_params(4)
        })
        .embed_default(&g)
        .unwrap();
        assert!(e.is_finite());
        // Star: hub-leaf pairs are edges, leaf-leaf pairs are not.
        assert!(e.score(0, 5) > e.score(3, 5));
    }
}
