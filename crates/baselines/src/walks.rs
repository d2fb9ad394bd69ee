//! Random-walk engines shared by the walk-based baselines.
//!
//! * [`uniform_walks_exec`] — DeepWalk-style truncated uniform random walks.
//! * [`node2vec_walks_exec`] — second-order biased walks with return parameter `p`
//!   and in-out parameter `q`.
//! * [`ppr_terminal`] — samples the terminal node of an α-decaying walk, i.e.
//!   a sample from the PPR distribution of the start node (used by VERSE and
//!   APP).
//!
//! Walk generation is data-parallel over start nodes with **per-node RNG
//! streams**: node `u` draws from `ChaCha8Rng::seed_from_u64(seed ^ u)`, so
//! a walk's randomness depends only on `(seed, u)` — never on which worker
//! generated it or in what order.  Output walks are ordered by start node
//! (all of a node's walks consecutively), making the result bitwise
//! identical for every thread budget, including 1.

use nrp_graph::{Graph, NodeId};
use nrp_linalg::parallel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Start nodes per parallel work chunk.  Fixed (never derived from the
/// thread budget) so chunk boundaries are stable; the value only trades
/// scheduling overhead against load balancing.
const NODE_CHUNK: usize = 64;

/// The independent RNG stream of start node `node` under `seed`.
fn node_stream(seed: u64, node: NodeId) -> ChaCha8Rng {
    // seed_from_u64 expands through SplitMix64, so the xor'd keys decorrelate.
    ChaCha8Rng::seed_from_u64(seed ^ node as u64)
}

/// Generates `walks_per_node` uniform random walks of length `walk_length`
/// from every node (walks stop early at dangling nodes), under an
/// [`parallel::Exec`] policy.
///
/// Walks are returned grouped by start node in ascending order; each node's
/// walks come from its own RNG stream, so the output is bitwise identical
/// for every thread budget and execution policy.
pub fn uniform_walks_exec(
    graph: &Graph,
    walks_per_node: usize,
    walk_length: usize,
    seed: u64,
    exec: &parallel::Exec,
) -> Vec<Vec<NodeId>> {
    let n = graph.num_nodes();
    parallel::par_chunk_map_exec(n, NODE_CHUNK, exec, |range| {
        let mut walks = Vec::with_capacity(range.len() * walks_per_node);
        for start in range {
            let start = start as NodeId;
            let mut rng = node_stream(seed, start);
            for _ in 0..walks_per_node {
                let mut walk = Vec::with_capacity(walk_length);
                walk.push(start);
                let mut current = start;
                for _ in 1..walk_length {
                    let neighbors = graph.out_neighbors(current);
                    if neighbors.is_empty() {
                        break;
                    }
                    current = neighbors[rng.gen_range(0..neighbors.len())];
                    walk.push(current);
                }
                walks.push(walk);
            }
        }
        walks
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Generates node2vec walks with return parameter `p` and in-out parameter
/// `q` (Grover & Leskovec 2016), under an [`parallel::Exec`] policy.
/// Transition weights from `prev -> current -> next` are `1/p` if `next ==
/// prev`, `1` if `next` is a neighbour of `prev`, and `1/q` otherwise;
/// weights are sampled by rejection-free normalization per step (the graphs
/// here are small enough that building per-step weight vectors is cheaper
/// than precomputing alias tables for every edge pair).
///
/// Ordering and determinism follow [`uniform_walks_exec`]: per-node RNG streams,
/// walks grouped by ascending start node, bitwise identical for every thread
/// budget and execution policy.
pub fn node2vec_walks_exec(
    graph: &Graph,
    walks_per_node: usize,
    walk_length: usize,
    p: f64,
    q: f64,
    seed: u64,
    exec: &parallel::Exec,
) -> Vec<Vec<NodeId>> {
    let n = graph.num_nodes();
    parallel::par_chunk_map_exec(n, NODE_CHUNK, exec, |range| {
        let mut walks = Vec::with_capacity(range.len() * walks_per_node);
        let mut weights: Vec<f64> = Vec::new();
        for start in range {
            let start = start as NodeId;
            let mut rng = node_stream(seed, start);
            for _ in 0..walks_per_node {
                let mut walk = Vec::with_capacity(walk_length);
                walk.push(start);
                let mut prev: Option<NodeId> = None;
                let mut current = start;
                for _ in 1..walk_length {
                    let neighbors = graph.out_neighbors(current);
                    if neighbors.is_empty() {
                        break;
                    }
                    let next = match prev {
                        None => neighbors[rng.gen_range(0..neighbors.len())],
                        Some(prev_node) => {
                            weights.clear();
                            weights.reserve(neighbors.len());
                            for &cand in neighbors {
                                let w = if cand == prev_node {
                                    1.0 / p
                                } else if graph.has_arc(prev_node, cand) {
                                    1.0
                                } else {
                                    1.0 / q
                                };
                                weights.push(w);
                            }
                            let total: f64 = weights.iter().sum();
                            let mut draw = rng.gen::<f64>() * total;
                            let mut chosen = neighbors[neighbors.len() - 1];
                            for (&cand, &w) in neighbors.iter().zip(&weights) {
                                if draw < w {
                                    chosen = cand;
                                    break;
                                }
                                draw -= w;
                            }
                            chosen
                        }
                    };
                    walk.push(next);
                    prev = Some(current);
                    current = next;
                }
                walks.push(walk);
            }
        }
        walks
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Samples the terminal node of an α-decaying random walk from `start`, i.e.
/// one draw from the PPR distribution `π(start, ·)`.  Dangling nodes absorb
/// the walk.
pub fn ppr_terminal<R: Rng>(graph: &Graph, start: NodeId, alpha: f64, rng: &mut R) -> NodeId {
    let mut current = start;
    loop {
        if rng.gen::<f64>() < alpha {
            return current;
        }
        let neighbors = graph.out_neighbors(current);
        if neighbors.is_empty() {
            return current;
        }
        current = neighbors[rng.gen_range(0..neighbors.len())];
    }
}

/// Extracts (center, context) skip-gram pairs from walks with the given
/// window size.
pub fn window_pairs(walks: &[Vec<NodeId>], window: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for walk in walks {
        for (i, &center) in walk.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(walk.len());
            for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                if i != j {
                    pairs.push((center, context));
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_graph::generators::simple::{cycle, directed_path, star};
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;
    use nrp_linalg::parallel::{Exec, WorkerPool};
    use std::sync::Arc;

    fn pooled(threads: usize) -> Exec {
        Exec::pooled(Arc::new(WorkerPool::new(threads)), threads)
    }

    #[test]
    fn uniform_walks_have_requested_shape() {
        let g = cycle(10).unwrap();
        let walks = uniform_walks_exec(&g, 3, 8, 1, &Exec::sequential());
        assert_eq!(walks.len(), 30);
        assert!(walks.iter().all(|w| w.len() == 8));
        // Every consecutive pair must be an arc.
        for walk in &walks {
            for pair in walk.windows(2) {
                assert!(g.has_arc(pair[0], pair[1]));
            }
        }
        // Walks are grouped by start node in ascending order.
        for (i, walk) in walks.iter().enumerate() {
            assert_eq!(walk[0], (i / 3) as NodeId);
        }
    }

    #[test]
    fn uniform_walks_are_bitwise_invariant_across_thread_counts() {
        let (g, _) =
            stochastic_block_model(&[40, 40], 0.2, 0.03, GraphKind::Undirected, 9).unwrap();
        let reference = uniform_walks_exec(&g, 4, 12, 7, &Exec::sequential());
        for threads in [2usize, 3, 8] {
            assert_eq!(
                uniform_walks_exec(&g, 4, 12, 7, &pooled(threads)),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn node2vec_walks_are_bitwise_invariant_across_thread_counts() {
        let (g, _) = stochastic_block_model(&[35, 35], 0.2, 0.03, GraphKind::Directed, 11).unwrap();
        let reference = node2vec_walks_exec(&g, 3, 10, 0.5, 2.0, 13, &Exec::sequential());
        for threads in [2usize, 4] {
            assert_eq!(
                node2vec_walks_exec(&g, 3, 10, 0.5, 2.0, 13, &pooled(threads)),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn walks_stop_at_dangling_nodes() {
        let g = directed_path(4).unwrap();
        let walks = uniform_walks_exec(&g, 1, 10, 2, &Exec::sequential());
        // The walk starting at node 3 (dangling) has length 1.
        let w3 = walks.iter().find(|w| w[0] == 3).unwrap();
        assert_eq!(w3.len(), 1);
        // No walk exceeds 4 nodes on a 4-node path.
        assert!(walks.iter().all(|w| w.len() <= 4));
    }

    #[test]
    fn node2vec_low_p_returns_often() {
        // With p << 1 the walk frequently returns to the previous node.
        let g = cycle(20).unwrap();
        let walks = node2vec_walks_exec(&g, 2, 30, 0.05, 1.0, 3, &Exec::sequential());
        let mut returns = 0usize;
        let mut steps = 0usize;
        for walk in &walks {
            for w in walk.windows(3) {
                steps += 1;
                if w[0] == w[2] {
                    returns += 1;
                }
            }
        }
        let return_rate_low_p = returns as f64 / steps as f64;
        let walks = node2vec_walks_exec(&g, 2, 30, 20.0, 1.0, 3, &Exec::sequential());
        let mut returns_high = 0usize;
        let mut steps_high = 0usize;
        for walk in &walks {
            for w in walk.windows(3) {
                steps_high += 1;
                if w[0] == w[2] {
                    returns_high += 1;
                }
            }
        }
        let return_rate_high_p = returns_high as f64 / steps_high as f64;
        assert!(
            return_rate_low_p > return_rate_high_p + 0.1,
            "low p should return more often: {return_rate_low_p} vs {return_rate_high_p}"
        );
    }

    #[test]
    fn node2vec_walks_follow_arcs() {
        let (g, _) = stochastic_block_model(&[15, 15], 0.3, 0.05, GraphKind::Directed, 5).unwrap();
        let walks = node2vec_walks_exec(&g, 1, 6, 1.0, 2.0, 5, &pooled(2));
        for walk in &walks {
            for pair in walk.windows(2) {
                assert!(g.has_arc(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn ppr_terminal_prefers_nearby_nodes() {
        let g = star(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut at_center = 0usize;
        let samples = 20_000;
        for _ in 0..samples {
            if ppr_terminal(&g, 1, 0.15, &mut rng) == 0 {
                at_center += 1;
            }
        }
        // From a leaf, the walk passes through the hub constantly; the hub's
        // PPR value is far above 1/n.
        let frac = at_center as f64 / samples as f64;
        assert!(frac > 0.3, "hub fraction {frac}");
    }

    #[test]
    fn ppr_terminal_matches_exact_distribution_roughly() {
        let g = cycle(6).unwrap();
        let alpha = 0.2;
        let exact = nrp_core::ppr::single_source_ppr(&g, 0, alpha, 1e-12).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let samples = 30_000;
        let mut counts = [0usize; 6];
        for _ in 0..samples {
            counts[ppr_terminal(&g, 0, alpha, &mut rng) as usize] += 1;
        }
        for v in 0..6 {
            let empirical = counts[v] as f64 / samples as f64;
            assert!(
                (empirical - exact[v]).abs() < 0.02,
                "node {v}: empirical {empirical}, exact {}",
                exact[v]
            );
        }
    }

    #[test]
    fn window_pairs_count_and_symmetry() {
        let walks = vec![vec![0u32, 1, 2, 3]];
        let pairs = window_pairs(&walks, 1);
        // Interior nodes contribute 2 pairs, endpoints 1: total 6.
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 0)));
        assert!(!pairs.contains(&(0, 2)));
    }

    #[test]
    fn window_pairs_respects_window_size() {
        let walks = vec![vec![0u32, 1, 2, 3, 4]];
        let pairs = window_pairs(&walks, 2);
        assert!(pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(0, 3)));
    }
}
