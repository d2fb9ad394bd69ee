//! # nrp-baselines
//!
//! Re-implementations of the competitor families the paper evaluates NRP
//! against (Section 5.1).  One faithful representative is provided per
//! family; all of them implement [`nrp_core::Embedder`], so they plug into
//! the same evaluation and benchmark pipelines as NRP:
//!
//! | Family | Methods here |
//! |---|---|
//! | Factorization-based | [`arope::Arope`], [`randne::RandNe`], [`spectral::SpectralEmbedding`] |
//! | PPR-factorization | [`strap::Strap`] (plus `ApproxPpr` in `nrp-core`) |
//! | Random-walk learning | [`deepwalk::DeepWalk`], [`node2vec::Node2Vec`], [`line::Line`] |
//! | PPR-based walk learning | [`verse::Verse`], [`app::App`] |
//!
//! The neural-network family (DNGR, GAE, GraphGAN, …) is intentionally not
//! reproduced: the paper's own evaluation shows those methods do not scale to
//! the graphs of interest, and they would require a deep-learning substrate
//! orthogonal to this reproduction (see DESIGN.md).
//!
//! Shared machinery lives in [`alias`] (O(1) weighted sampling), [`walks`]
//! (uniform and node2vec-biased random walks, α-decay PPR walks) and
//! [`sgns`] (skip-gram with negative sampling).
//!
//! [`build`] turns any [`nrp_core::MethodConfig`] — NRP and ApproxPPR
//! included — into its boxed embedder, with one `match` arm per method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod app;
pub mod arope;
mod config;
pub mod deepwalk;
pub mod line;
pub mod node2vec;
pub mod randne;
mod ritz;
pub mod sgns;
pub mod spectral;
pub mod strap;
pub mod verse;
pub mod walks;

pub use app::App;
pub use arope::Arope;
pub use config::build;
pub use deepwalk::DeepWalk;
pub use line::Line;
pub use node2vec::Node2Vec;
pub use randne::RandNe;
pub use spectral::SpectralEmbedding;
pub use strap::Strap;
pub use verse::Verse;

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_core::{Embedder, MethodConfig};
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;

    /// Every method of the roster at paper defaults, built at `dimension`
    /// and `seed`.
    fn roster(dimension: usize, seed: u64) -> Vec<Box<dyn Embedder>> {
        MethodConfig::all_defaults()
            .into_iter()
            .map(|mut config| {
                config.set_dimension(dimension);
                config.set_seed(seed);
                build(&config).unwrap_or_else(|e| panic!("{}: {e}", config.method_name()))
            })
            .collect()
    }

    #[test]
    fn all_baselines_produce_finite_embeddings() {
        let (g, _) =
            stochastic_block_model(&[20, 20], 0.25, 0.03, GraphKind::Undirected, 1).unwrap();
        for embedder in roster(8, 7) {
            let e = embedder
                .embed_default(&g)
                .unwrap_or_else(|_| panic!("{}", embedder.name()));
            assert_eq!(e.num_nodes(), 40, "{}", embedder.name());
            assert!(
                e.is_finite(),
                "{} produced non-finite values",
                embedder.name()
            );
        }
    }

    #[test]
    fn baseline_names_are_unique() {
        let names: Vec<&str> = roster(8, 0).iter().map(|b| b.name()).collect();
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn build_makes_every_method_from_its_config() {
        for name in MethodConfig::method_names() {
            let config = MethodConfig::default_for(name).expect("known method");
            let embedder = build(&config).expect(name);
            assert_eq!(embedder.name(), *name);
            // The embedder echoes exactly the config it was built from, which
            // also pins the `MethodConfig` paper defaults to the per-method
            // `*Params::default()` values.
            assert_eq!(embedder.config(), config, "{name} config echo");
        }
    }

    /// Replaces every field of a serialized config with a non-default value
    /// that stays inside each parameter's valid range: ints `+2` (keeps
    /// dimensions even), floats halved (keeps `(0,1)` ranges inside `(0,1)`),
    /// bools flipped, the SVD-method and dangling-policy strings toggled,
    /// arrays halved per element.
    fn perturb(value: &serde_json::Value) -> serde_json::Value {
        use serde_json::{Number, Value};
        match value {
            Value::Number(Number::PosInt(v)) => Value::Number(Number::PosInt(v + 2)),
            Value::Number(Number::Float(v)) => Value::Number(Number::Float(v / 2.0)),
            Value::Bool(b) => Value::Bool(!b),
            Value::String(s) if s == "block-krylov" => Value::String("subspace-iteration".into()),
            Value::String(s) if s == "subspace-iteration" => Value::String("block-krylov".into()),
            Value::String(s) if s == "self-loop" => Value::String("teleport".into()),
            Value::Array(items) => Value::Array(items.iter().map(perturb).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn builders_copy_every_field() {
        // Drift guard for `build` and `NrpParams::from_config`: build each
        // method from a config where EVERY field is non-default and check the
        // embedder echoes it exactly — an arm that drops or miscopies a field
        // fails this for that field.
        for name in MethodConfig::method_names() {
            let default = MethodConfig::default_for(name).expect("known method");
            let serde_json::Value::Object(object) = serde_json::to_value(&default) else {
                panic!("configs serialize to objects");
            };
            let mut perturbed_object = serde_json::Map::new();
            for (key, value) in object.iter() {
                let new_value = if key == "method" {
                    value.clone()
                } else {
                    perturb(value)
                };
                perturbed_object.insert(key, new_value);
            }
            let perturbed: MethodConfig =
                serde_json::from_value(&serde_json::Value::Object(perturbed_object)).expect(name);
            assert_ne!(perturbed, default, "{name}: perturbation had no effect");
            let embedder = build(&perturbed).expect(name);
            assert_eq!(
                embedder.config(),
                perturbed,
                "{name}: builder dropped a field"
            );
        }
    }

    #[test]
    fn default_configs_match_params_defaults() {
        // Guards against drift between the literals in nrp-core's
        // `MethodConfig` defaults and each baseline's `Default` impl.
        let defaults: Vec<Box<dyn Embedder>> = vec![
            Box::new(Strap::new(strap::StrapParams::default())),
            Box::new(Arope::new(arope::AropeParams::default())),
            Box::new(RandNe::new(randne::RandNeParams::default())),
            Box::new(SpectralEmbedding::new(spectral::SpectralParams::default())),
            Box::new(DeepWalk::new(deepwalk::DeepWalkParams::default())),
            Box::new(Node2Vec::new(node2vec::Node2VecParams::default())),
            Box::new(Line::new(line::LineParams::default())),
            Box::new(Verse::new(verse::VerseParams::default())),
            Box::new(App::new(app::AppParams::default())),
        ];
        for embedder in defaults {
            let expected = MethodConfig::default_for(embedder.name()).expect("known method");
            assert_eq!(embedder.config(), expected, "{}", embedder.name());
        }
    }
}
