//! DeepWalk (Perozzi et al., KDD 2014): truncated uniform random walks fed to
//! skip-gram with negative sampling.  Produces one vector per node
//! (symmetric scoring).

use nrp_core::{
    EmbedContext, EmbedOutput, Embedder, Embedding, MethodConfig, NrpError, Result, StageClock,
};
use nrp_graph::Graph;

use crate::sgns::{train_sgns, walk_frequencies, SgnsConfig};
use crate::walks::{uniform_walks_exec, window_pairs};

/// DeepWalk hyper-parameters.
#[derive(Debug, Clone)]
pub struct DeepWalkParams {
    /// Total per-node embedding budget `k` (a single `k`-dimensional vector).
    pub dimension: usize,
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Length of each walk.
    pub walk_length: usize,
    /// Skip-gram window size.
    pub window: usize,
    /// SGNS epochs.
    pub epochs: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepWalkParams {
    fn default() -> Self {
        Self {
            dimension: 128,
            walks_per_node: 10,
            walk_length: 40,
            window: 5,
            epochs: 2,
            negatives: 5,
            learning_rate: 0.05,
            seed: 0,
        }
    }
}

/// The DeepWalk embedder.
#[derive(Debug, Clone, Default)]
pub struct DeepWalk {
    params: DeepWalkParams,
}

impl DeepWalk {
    /// Creates a DeepWalk embedder.
    pub fn new(params: DeepWalkParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DeepWalkParams {
        &self.params
    }
}

impl Embedder for DeepWalk {
    fn name(&self) -> &'static str {
        "DeepWalk"
    }

    fn config(&self) -> MethodConfig {
        let p = &self.params;
        MethodConfig::DeepWalk {
            dimension: p.dimension,
            walks_per_node: p.walks_per_node,
            walk_length: p.walk_length,
            window: p.window,
            epochs: p.epochs,
            negatives: p.negatives,
            learning_rate: p.learning_rate,
            seed: p.seed,
        }
    }

    fn embed(&self, graph: &Graph, ctx: &EmbedContext) -> Result<EmbedOutput> {
        let p = &self.params;
        if p.dimension == 0 {
            return Err(NrpError::InvalidParameter(
                "DeepWalk needs dimension >= 1".into(),
            ));
        }
        ctx.ensure_active()?;
        let seed = ctx.seed_or(p.seed);
        let threads = ctx.thread_budget();
        let mut clock = StageClock::start();
        // Per-node RNG streams keep the walks bitwise identical for any
        // thread budget.
        let walks = uniform_walks_exec(graph, p.walks_per_node, p.walk_length, seed, &ctx.exec());
        let pairs = window_pairs(&walks, p.window);
        let freq = walk_frequencies(graph.num_nodes(), &walks);
        clock.lap_parallel("walks", threads);
        ctx.ensure_active()?;
        let config = SgnsConfig {
            dimension: p.dimension,
            epochs: p.epochs,
            negatives: p.negatives,
            learning_rate: p.learning_rate,
            seed,
        };
        let model = train_sgns(graph.num_nodes(), &pairs, &freq, &config, ctx)?;
        clock.lap("sgns");
        let embedding = Embedding::symmetric(model.center, self.name());
        Ok(EmbedOutput::new(embedding, self.config(), seed, ctx, clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;

    fn small_params(seed: u64) -> DeepWalkParams {
        DeepWalkParams {
            dimension: 16,
            walks_per_node: 6,
            walk_length: 20,
            window: 4,
            epochs: 2,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn produces_symmetric_finite_embedding() {
        let (g, _) =
            stochastic_block_model(&[20, 20], 0.25, 0.02, GraphKind::Undirected, 1).unwrap();
        let e = DeepWalk::new(small_params(1)).embed_default(&g).unwrap();
        assert_eq!(e.num_nodes(), 40);
        assert!(e.is_finite());
        assert_eq!(
            e.score(3, 7),
            e.score(7, 3),
            "symmetric method must score symmetrically"
        );
    }

    #[test]
    fn within_community_pairs_score_higher() {
        let (g, community) =
            stochastic_block_model(&[25, 25], 0.3, 0.01, GraphKind::Undirected, 2).unwrap();
        let e = DeepWalk::new(small_params(2)).embed_default(&g).unwrap();
        let mut within = 0.0;
        let mut across = 0.0;
        let mut count_w = 0;
        let mut count_a = 0;
        for u in 0..50u32 {
            for v in 0..50u32 {
                if u == v {
                    continue;
                }
                if community[u as usize] == community[v as usize] {
                    within += e.score(u, v);
                    count_w += 1;
                } else {
                    across += e.score(u, v);
                    count_a += 1;
                }
            }
        }
        assert!(within / count_w as f64 > across / count_a as f64);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) =
            stochastic_block_model(&[15, 15], 0.3, 0.02, GraphKind::Undirected, 3).unwrap();
        let a = DeepWalk::new(small_params(5)).embed_default(&g).unwrap();
        let b = DeepWalk::new(small_params(5)).embed_default(&g).unwrap();
        assert_eq!(a, b);
    }
}
