//! The method roster shared by the figure harnesses — built from
//! [`MethodConfig::all_defaults`], so the harnesses sweep exactly the
//! methods a declarative `MethodConfig` document can name.

use nrp_core::{Embedder, MethodConfig};

/// The configurations behind [`roster`]: every method at paper
/// defaults, with the dimension and seed applied uniformly and the sampling
/// budgets of the walk-based methods reduced so a full sweep completes in
/// reasonable time (the relative ordering of the methods is unaffected).
pub fn roster_configs(dimension: usize, seed: u64) -> Vec<MethodConfig> {
    MethodConfig::all_defaults()
        .into_iter()
        .map(|mut config| {
            config.set_dimension(dimension);
            config.set_seed(seed);
            match &mut config {
                MethodConfig::DeepWalk {
                    walks_per_node,
                    walk_length,
                    ..
                } => {
                    *walks_per_node = 5;
                    *walk_length = 30;
                }
                MethodConfig::Node2Vec {
                    walks_per_node,
                    walk_length,
                    p,
                    q,
                    ..
                } => {
                    *walks_per_node = 5;
                    *walk_length = 30;
                    *p = 0.5;
                    *q = 2.0;
                }
                MethodConfig::Line { samples, .. } => *samples = 100_000,
                MethodConfig::Verse {
                    samples_per_node, ..
                } => *samples_per_node = 20,
                MethodConfig::App {
                    samples_per_node, ..
                } => *samples_per_node = 20,
                _ => {}
            }
            config
        })
        .collect()
}

/// The full roster evaluated by the figure harnesses: NRP, ApproxPPR and one
/// representative per competitor family, built from [`roster_configs`].
pub fn roster(dimension: usize, seed: u64) -> Vec<Box<dyn Embedder>> {
    roster_configs(dimension, seed)
        .iter()
        .map(|config| nrp_baselines::build(config).expect("roster methods are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_contains_nrp_and_all_families() {
        let names: Vec<&str> = roster(16, 1).iter().map(|m| m.name()).collect();
        for expected in [
            "NRP",
            "ApproxPPR",
            "STRAP",
            "AROPE",
            "RandNE",
            "Spectral",
            "DeepWalk",
            "node2vec",
            "LINE",
            "VERSE",
            "APP",
        ] {
            assert!(names.contains(&expected), "roster missing {expected}");
        }
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn roster_is_built_from_all_defaults() {
        let configs = roster_configs(32, 9);
        let default_names: Vec<&str> = MethodConfig::all_defaults()
            .iter()
            .map(|c| c.method_name())
            .collect();
        let roster_names: Vec<&str> = configs.iter().map(|c| c.method_name()).collect();
        assert_eq!(roster_names, default_names);
        for config in &configs {
            assert_eq!(config.dimension(), 32, "{}", config.method_name());
            assert_eq!(config.seed(), 9, "{}", config.method_name());
        }
    }

    #[test]
    fn every_roster_method_is_json_constructible_and_runs() {
        use nrp_graph::generators::stochastic_block_model;
        use nrp_graph::GraphKind;

        let (graph, _) =
            stochastic_block_model(&[12, 12], 0.4, 0.05, GraphKind::Undirected, 3).unwrap();
        for config in roster_configs(8, 3) {
            // Round-trip through JSON, then build and embed: proves a JSON
            // document can drive every method.
            let json = config
                .to_json()
                .unwrap_or_else(|_| panic!("{}", config.method_name()));
            let parsed: MethodConfig =
                serde_json::from_str(&json).unwrap_or_else(|_| panic!("{}", config.method_name()));
            assert_eq!(parsed, config);
            let embedder = nrp_baselines::build(&parsed)
                .unwrap_or_else(|_| panic!("{}", config.method_name()));
            let embedding = embedder
                .embed_default(&graph)
                .unwrap_or_else(|_| panic!("{}", config.method_name()));
            assert_eq!(embedding.num_nodes(), 24, "{}", config.method_name());
            assert!(embedding.is_finite(), "{}", config.method_name());
        }
    }
}
