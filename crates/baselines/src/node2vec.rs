//! node2vec (Grover & Leskovec, KDD 2016): second-order biased random walks
//! fed to skip-gram with negative sampling.

use nrp_core::{
    EmbedContext, EmbedOutput, Embedder, Embedding, MethodConfig, NrpError, Result, StageClock,
};
use nrp_graph::Graph;

use crate::sgns::{train_sgns, walk_frequencies, SgnsConfig};
use crate::walks::{node2vec_walks_exec, window_pairs};

/// node2vec hyper-parameters.
#[derive(Debug, Clone)]
pub struct Node2VecParams {
    /// Total per-node embedding budget `k`.
    pub dimension: usize,
    /// Return parameter `p` (small `p` keeps walks local).
    pub p: f64,
    /// In-out parameter `q` (large `q` keeps walks close to the start).
    pub q: f64,
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

impl Default for Node2VecParams {
    fn default() -> Self {
        Self {
            dimension: 128,
            p: 1.0,
            q: 1.0,
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

/// The node2vec embedder.
#[derive(Debug, Clone, Default)]
pub struct Node2Vec {
    params: Node2VecParams,
}

impl Node2Vec {
    /// Creates a node2vec embedder.
    pub fn new(params: Node2VecParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &Node2VecParams {
        &self.params
    }
}

impl Embedder for Node2Vec {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn config(&self) -> MethodConfig {
        let p = &self.params;
        MethodConfig::Node2Vec {
            dimension: p.dimension,
            p: p.p,
            q: p.q,
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
                "node2vec needs dimension >= 1".into(),
            ));
        }
        if p.p <= 0.0 || p.q <= 0.0 {
            return Err(NrpError::InvalidParameter(format!(
                "node2vec p and q must be positive (got p={}, q={})",
                p.p, p.q
            )));
        }
        ctx.ensure_active()?;
        let seed = ctx.seed_or(p.seed);
        let threads = ctx.thread_budget();
        let mut clock = StageClock::start();
        // Per-node RNG streams keep the walks bitwise identical for any
        // thread budget.
        let walks = node2vec_walks_exec(
            graph,
            p.walks_per_node,
            p.walk_length,
            p.p,
            p.q,
            seed,
            &ctx.exec(),
        );
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

    fn small_params(seed: u64) -> Node2VecParams {
        Node2VecParams {
            dimension: 16,
            walks_per_node: 6,
            walk_length: 20,
            window: 4,
            p: 0.5,
            q: 2.0,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn produces_finite_embedding_of_right_size() {
        let (g, _) =
            stochastic_block_model(&[20, 20], 0.25, 0.02, GraphKind::Undirected, 1).unwrap();
        let e = Node2Vec::new(small_params(1)).embed_default(&g).unwrap();
        assert_eq!(e.num_nodes(), 40);
        assert_eq!(e.half_dimension(), 16);
        assert!(e.is_finite());
    }

    #[test]
    fn community_structure_is_captured() {
        let (g, community) =
            stochastic_block_model(&[25, 25], 0.3, 0.01, GraphKind::Undirected, 2).unwrap();
        let e = Node2Vec::new(small_params(2)).embed_default(&g).unwrap();
        let mut within = 0.0;
        let mut across = 0.0;
        let mut count_w = 0;
        let mut count_a = 0;
        for u in 0..50u32 {
            for v in 0..50u32 {
                if u != v {
                    if community[u as usize] == community[v as usize] {
                        within += e.score(u, v);
                        count_w += 1;
                    } else {
                        across += e.score(u, v);
                        count_a += 1;
                    }
                }
            }
        }
        assert!(within / count_w as f64 > across / count_a as f64);
    }

    #[test]
    fn invalid_p_q_rejected() {
        let (g, _) =
            stochastic_block_model(&[10, 10], 0.3, 0.05, GraphKind::Undirected, 3).unwrap();
        let params = Node2VecParams {
            p: 0.0,
            ..small_params(3)
        };
        assert!(Node2Vec::new(params).embed_default(&g).is_err());
        let params = Node2VecParams {
            q: -1.0,
            ..small_params(3)
        };
        assert!(Node2Vec::new(params).embed_default(&g).is_err());
    }
}
