//! A self-contained graph + embedding fixture, shared by the serve tests
//! and the `nrp_serve --fixture` mode of the CI smoke job — both of which
//! need a realistic-but-small workload with no data files.

use nrp_core::{Embedding, Nrp, NrpParams};
use nrp_graph::{generators, Graph, GraphKind};

/// Builds a Barabási–Albert graph of `nodes` nodes (power-law degrees, so
/// hot-source caching has something to be hot about) and trains a small NRP
/// embedding over it.  Fully deterministic in `seed`.
pub fn fixture(nodes: usize, seed: u64) -> (Graph, Embedding) {
    let graph = generators::barabasi_albert(nodes, 3, GraphKind::Directed, seed)
        .expect("fixture graph generates");
    let params = NrpParams::builder()
        .dimension(16)
        .num_hops(4)
        .reweight_epochs(3)
        .seed(seed)
        .build()
        .expect("fixture params validate");
    let (embedding, _weights) = Nrp::new(params)
        .embed_with_weights(&graph)
        .expect("fixture embedding trains");
    (graph, embedding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let (g1, e1) = fixture(120, 7);
        let (g2, e2) = fixture(120, 7);
        assert_eq!(g1.num_nodes(), 120);
        assert_eq!(g1.num_arcs(), g2.num_arcs());
        assert_eq!(e1.dimension(), 16);
        for u in [0u32, 5, 60] {
            for v in [1u32, 40, 119] {
                assert_eq!(e1.score(u, v).to_bits(), e2.score(u, v).to_bits());
            }
        }
    }
}
