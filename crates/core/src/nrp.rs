//! The complete NRP algorithm (paper Algorithm 3).
//!
//! `NRP = ApproxPPR factors + node reweighting + per-node scaling`:
//!
//! ```text
//! k' ← k / 2
//! [X, Y] ← ApproxPPR(A, D⁻¹, P, α, k', ℓ1, ε)        (Algorithm 1)
//! w⃗_v ← dout(v), w⃖_v ← 1                             (initialization)
//! repeat ℓ2 times:
//!     w⃖ ← updateBwdWeights(...)                       (Algorithm 2)
//!     w⃗ ← updateFwdWeights(...)                       (Algorithm 4)
//! X_v ← w⃗_v · X_v,  Y_v ← w⃖_v · Y_v
//! ```
//!
//! Overall `O(k(m + kn) log n)` time and `O(m + nk)` space.

use nrp_graph::Graph;
use nrp_linalg::{DanglingPolicy, RandomizedSvdMethod};

use crate::approx_ppr::{ApproxPpr, ApproxPprParams};
use crate::config::MethodConfig;
use crate::context::{EmbedContext, EmbedOutput, StageClock};
use crate::embedding::{Embedder, Embedding};
use crate::reweight::{learn_weights_with, NodeWeights, ReweightConfig};
use crate::{NrpError, Result};

/// Parameters of the full NRP pipeline (paper defaults in parentheses).
#[derive(Debug, Clone)]
pub struct NrpParams {
    /// Total per-node embedding budget `k` (128); each side gets `k/2`.
    pub dimension: usize,
    /// Random-walk decay factor `α` (0.15).
    pub alpha: f64,
    /// Number of PPR series terms `ℓ1` (20).
    pub num_hops: usize,
    /// Number of reweighting epochs `ℓ2` (10). `0` disables reweighting and
    /// degenerates to ApproxPPR — the paper's Fig. 8(d) ablation.
    pub reweight_epochs: usize,
    /// SVD relative-error target `ε` (0.2).
    pub epsilon: f64,
    /// Ridge regularization `λ` of the reweighting objective (10).
    pub lambda: f64,
    /// Randomized SVD variant (block Krylov).
    pub svd_method: RandomizedSvdMethod,
    /// Use the exact `b₁` term instead of the paper's Eq. (14) approximation.
    pub exact_b1: bool,
    /// How the transition matrix treats dangling nodes (self-loop by
    /// default, matching the paper's walk semantics).
    pub dangling: DanglingPolicy,
    /// RNG seed for the SVD sketch and the coordinate-descent order.
    pub seed: u64,
}

impl Default for NrpParams {
    fn default() -> Self {
        Self {
            dimension: 128,
            alpha: 0.15,
            num_hops: 20,
            reweight_epochs: 10,
            epsilon: 0.2,
            lambda: 10.0,
            svd_method: RandomizedSvdMethod::BlockKrylov,
            exact_b1: false,
            dangling: DanglingPolicy::SelfLoop,
            seed: 0,
        }
    }
}

impl NrpParams {
    /// Starts a builder with paper defaults.
    pub fn builder() -> NrpParamsBuilder {
        NrpParamsBuilder {
            params: NrpParams::default(),
        }
    }

    /// The parameters of an `NRP` [`MethodConfig`], unvalidated, or `None`
    /// for any other method.  The only place the variant's fields are
    /// copied into `NrpParams`.
    pub fn from_config(config: &MethodConfig) -> Option<NrpParams> {
        match config {
            MethodConfig::Nrp {
                dimension,
                alpha,
                num_hops,
                reweight_epochs,
                epsilon,
                lambda,
                svd_method,
                exact_b1,
                dangling,
                seed,
            } => Some(NrpParams {
                dimension: *dimension,
                alpha: *alpha,
                num_hops: *num_hops,
                reweight_epochs: *reweight_epochs,
                epsilon: *epsilon,
                lambda: *lambda,
                svd_method: *svd_method,
                exact_b1: *exact_b1,
                dangling: *dangling,
                seed: *seed,
            }),
            _ => None,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.dimension < 2 {
            return Err(NrpError::InvalidParameter(format!(
                "dimension must be at least 2 (got {})",
                self.dimension
            )));
        }
        if !self.dimension.is_multiple_of(2) {
            return Err(NrpError::InvalidParameter(format!(
                "dimension must be even so it splits into forward/backward halves (got {})",
                self.dimension
            )));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(NrpError::InvalidParameter(format!(
                "alpha must be in (0,1), got {}",
                self.alpha
            )));
        }
        if self.num_hops == 0 {
            return Err(NrpError::InvalidParameter(
                "num_hops (ℓ1) must be at least 1".into(),
            ));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(NrpError::InvalidParameter(format!(
                "epsilon must be in (0,1), got {}",
                self.epsilon
            )));
        }
        if self.lambda < 0.0 {
            return Err(NrpError::InvalidParameter(format!(
                "lambda must be non-negative, got {}",
                self.lambda
            )));
        }
        Ok(())
    }

    fn approx_ppr_params(&self, seed: u64) -> ApproxPprParams {
        ApproxPprParams {
            half_dimension: self.dimension / 2,
            alpha: self.alpha,
            num_hops: self.num_hops,
            epsilon: self.epsilon,
            svd_method: self.svd_method,
            dangling: self.dangling,
            seed,
        }
    }

    fn reweight_config(&self, seed: u64) -> ReweightConfig {
        ReweightConfig {
            epochs: self.reweight_epochs,
            lambda: self.lambda,
            exact_b1: self.exact_b1,
            seed: seed.wrapping_add(0x5eed),
        }
    }
}

/// Fluent builder for [`NrpParams`].
#[derive(Debug, Clone)]
pub struct NrpParamsBuilder {
    params: NrpParams,
}

impl NrpParamsBuilder {
    /// Sets the total embedding dimension `k`.
    pub fn dimension(mut self, k: usize) -> Self {
        self.params.dimension = k;
        self
    }

    /// Sets the decay factor `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.params.alpha = alpha;
        self
    }

    /// Sets the number of PPR hops `ℓ1`.
    pub fn num_hops(mut self, l1: usize) -> Self {
        self.params.num_hops = l1;
        self
    }

    /// Sets the number of reweighting epochs `ℓ2`.
    pub fn reweight_epochs(mut self, l2: usize) -> Self {
        self.params.reweight_epochs = l2;
        self
    }

    /// Sets the SVD error target `ε`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.params.epsilon = epsilon;
        self
    }

    /// Sets the ridge regularizer `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.params.lambda = lambda;
        self
    }

    /// Sets the randomized SVD variant.
    pub fn svd_method(mut self, method: RandomizedSvdMethod) -> Self {
        self.params.svd_method = method;
        self
    }

    /// Enables the exact-`b₁` ablation.
    pub fn exact_b1(mut self, exact: bool) -> Self {
        self.params.exact_b1 = exact;
        self
    }

    /// Sets the dangling-node policy of the transition matrix.
    pub fn dangling(mut self, policy: DanglingPolicy) -> Self {
        self.params.dangling = policy;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Validates and returns the parameters.
    pub fn build(self) -> Result<NrpParams> {
        self.params.validate()?;
        Ok(self.params)
    }
}

/// The NRP embedder (paper Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct Nrp {
    params: NrpParams,
}

impl Nrp {
    /// Creates an NRP embedder with the given parameters.
    pub fn new(params: NrpParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &NrpParams {
        &self.params
    }

    /// Runs the full pipeline but also returns the learned node weights
    /// (useful for diagnostics and the reweighting ablation benches).
    pub fn embed_with_weights(&self, graph: &Graph) -> Result<(Embedding, NodeWeights)> {
        let (embedding, weights, _) =
            self.run_pipeline(graph, &EmbedContext::default(), &mut StageClock::start())?;
        Ok((embedding, weights))
    }

    fn run_pipeline(
        &self,
        graph: &Graph,
        ctx: &EmbedContext,
        clock: &mut StageClock,
    ) -> Result<(Embedding, NodeWeights, u64)> {
        self.params.validate()?;
        ctx.ensure_active()?;
        let seed = ctx.seed_or(self.params.seed);
        let approx = ApproxPpr::new(self.params.approx_ppr_params(seed));
        let (mut x, mut y) = approx.factorize_with(graph, ctx)?;
        clock.lap_parallel("approx_ppr", ctx.thread_budget());
        let weights = if self.params.reweight_epochs > 0 {
            learn_weights_with(graph, &x, &y, &self.params.reweight_config(seed), ctx)?
        } else {
            NodeWeights::initialize(graph)
        };
        clock.lap("reweight");
        if self.params.reweight_epochs > 0 {
            x.scale_rows(&weights.forward).map_err(NrpError::Linalg)?;
            y.scale_rows(&weights.backward).map_err(NrpError::Linalg)?;
        }
        let embedding = Embedding::new(x, y, self.name())?;
        clock.lap("scale");
        Ok((embedding, weights, seed))
    }
}

impl Embedder for Nrp {
    fn name(&self) -> &'static str {
        "NRP"
    }

    fn config(&self) -> MethodConfig {
        let p = &self.params;
        MethodConfig::Nrp {
            dimension: p.dimension,
            alpha: p.alpha,
            num_hops: p.num_hops,
            reweight_epochs: p.reweight_epochs,
            epsilon: p.epsilon,
            lambda: p.lambda,
            svd_method: p.svd_method,
            exact_b1: p.exact_b1,
            dangling: p.dangling,
            seed: p.seed,
        }
    }

    fn embed(&self, graph: &Graph, ctx: &EmbedContext) -> Result<EmbedOutput> {
        let mut clock = StageClock::start();
        let (embedding, _, seed) = self.run_pipeline(graph, ctx, &mut clock)?;
        Ok(EmbedOutput::new(embedding, self.config(), seed, ctx, clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_graph::generators::example::{example_graph, V2, V4, V7, V9};
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;

    fn small_params(k: usize, seed: u64) -> NrpParams {
        NrpParams::builder()
            .dimension(k)
            .reweight_epochs(8)
            .lambda(1.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_match_paper() {
        let p = NrpParams::default();
        assert_eq!(p.dimension, 128);
        assert_eq!(p.num_hops, 20);
        assert_eq!(p.reweight_epochs, 10);
        assert!((p.alpha - 0.15).abs() < 1e-12);
        assert!((p.epsilon - 0.2).abs() < 1e-12);
        assert!((p.lambda - 10.0).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(NrpParams::builder().dimension(0).build().is_err());
        assert!(NrpParams::builder().dimension(7).build().is_err());
        assert!(NrpParams::builder().alpha(1.5).build().is_err());
        assert!(NrpParams::builder().num_hops(0).build().is_err());
        assert!(NrpParams::builder().epsilon(0.0).build().is_err());
        assert!(NrpParams::builder().lambda(-1.0).build().is_err());
        assert!(NrpParams::builder().dimension(16).build().is_ok());
    }

    #[test]
    fn embedding_has_expected_shape() {
        let (g, _) =
            stochastic_block_model(&[25, 25], 0.2, 0.02, GraphKind::Undirected, 3).unwrap();
        let e = Nrp::new(small_params(16, 3)).embed_default(&g).unwrap();
        assert_eq!(e.num_nodes(), 50);
        assert_eq!(e.dimension(), 16);
        assert_eq!(e.half_dimension(), 8);
        assert!(e.is_finite());
        assert_eq!(e.method(), "NRP");
    }

    #[test]
    fn reweighting_fixes_the_fig1_counterexample() {
        // The paper's motivating claim: vanilla PPR ranks (v9, v7) above
        // (v2, v4), but after node reweighting the order flips because v2 and
        // v4 sit in the dense cluster with higher degrees.
        let g = example_graph();
        let nrp = Nrp::new(
            NrpParams::builder()
                .dimension(8)
                .num_hops(30)
                .reweight_epochs(10)
                .lambda(0.1)
                .seed(1)
                .build()
                .unwrap(),
        );
        let e = nrp.embed_default(&g).unwrap();
        assert!(
            e.score(V2, V4) > e.score(V9, V7),
            "NRP should rank (v2,v4) above (v9,v7): {} vs {}",
            e.score(V2, V4),
            e.score(V9, V7)
        );
    }

    #[test]
    fn zero_epochs_equals_approx_ppr() {
        let g = example_graph();
        let params = NrpParams::builder()
            .dimension(8)
            .reweight_epochs(0)
            .seed(5)
            .build()
            .unwrap();
        let nrp_embedding = Nrp::new(params.clone()).embed_default(&g).unwrap();
        let approx = crate::approx_ppr::ApproxPpr::new(ApproxPprParams {
            half_dimension: 4,
            alpha: params.alpha,
            num_hops: params.num_hops,
            epsilon: params.epsilon,
            svd_method: params.svd_method,
            dangling: params.dangling,
            seed: params.seed,
        })
        .embed_default(&g)
        .unwrap();
        for u in 0..9 {
            for v in 0..9 {
                assert!((nrp_embedding.score(u, v) - approx.score(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weights_returned_match_scaling() {
        let g = example_graph();
        let nrp = Nrp::new(small_params(8, 9));
        let (embedding, weights) = nrp.embed_with_weights(&g).unwrap();
        // Recompute the unweighted factors and check the scaling.
        let (x, _) =
            crate::approx_ppr::ApproxPpr::new(nrp.params.approx_ppr_params(nrp.params.seed))
                .factorize(&g)
                .unwrap();
        for u in 0..g.num_nodes() {
            for c in 0..x.cols() {
                let expected = x.get(u, c) * weights.forward[u];
                assert!((embedding.forward().get(u, c) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn directed_embeddings_preserve_asymmetry() {
        let (g, _) =
            stochastic_block_model(&[30, 30], 0.12, 0.01, GraphKind::Directed, 11).unwrap();
        let e = Nrp::new(small_params(16, 11)).embed_default(&g).unwrap();
        let mut asymmetric = 0;
        let mut total = 0;
        for (u, v) in g.arcs().take(100) {
            if !g.has_arc(v, u) {
                total += 1;
                if e.score(u, v) > e.score(v, u) {
                    asymmetric += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            asymmetric * 3 > total * 2,
            "{asymmetric}/{total} one-way arcs scored higher forward"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) =
            stochastic_block_model(&[20, 20], 0.2, 0.02, GraphKind::Undirected, 7).unwrap();
        let a = Nrp::new(small_params(8, 42)).embed_default(&g).unwrap();
        let b = Nrp::new(small_params(8, 42)).embed_default(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn edge_scores_exceed_non_edge_scores_on_average() {
        let (g, _) =
            stochastic_block_model(&[30, 30], 0.25, 0.02, GraphKind::Undirected, 19).unwrap();
        let e = Nrp::new(small_params(16, 19)).embed_default(&g).unwrap();
        let mut edge_score = 0.0;
        let mut edge_count = 0usize;
        for (u, v) in g.edges() {
            edge_score += e.score(u, v);
            edge_count += 1;
        }
        let mut non_edge_score = 0.0;
        let mut non_edge_count = 0usize;
        for u in 0..60u32 {
            for v in 0..60u32 {
                if u != v && !g.has_arc(u, v) {
                    non_edge_score += e.score(u, v);
                    non_edge_count += 1;
                }
            }
        }
        let edge_mean = edge_score / edge_count as f64;
        let non_edge_mean = non_edge_score / non_edge_count as f64;
        assert!(
            edge_mean > non_edge_mean,
            "edges should score higher on average: {edge_mean} vs {non_edge_mean}"
        );
    }
}
