//! Building the embedder a [`MethodConfig`] describes.

use nrp_core::{
    ApproxPpr, ApproxPprParams, Embedder, MethodConfig, Nrp, NrpError, NrpParams, Result,
};

use crate::{
    app, arope, deepwalk, line, node2vec, randne, spectral, strap, verse, App, Arope, DeepWalk,
    Line, Node2Vec, RandNe, SpectralEmbedding, Strap, Verse,
};

/// Builds the embedder `config` describes, echoing it exactly from
/// [`Embedder::config`].
///
/// One arm per [`MethodConfig`] variant and no wildcard, so a method added
/// to the enum without a builder here does not compile.  NRP and ApproxPPR
/// validate their parameters here; the other methods reject bad values
/// when they run.
pub fn build(config: &MethodConfig) -> Result<Box<dyn Embedder>> {
    let embedder: Box<dyn Embedder> = match config.clone() {
        MethodConfig::Nrp { .. } => {
            let params = NrpParams::from_config(config).expect("an NRP config has NRP params");
            params.validate()?;
            Box::new(Nrp::new(params))
        }
        MethodConfig::ApproxPpr {
            dimension,
            alpha,
            num_hops,
            epsilon,
            svd_method,
            dangling,
            seed,
        } => {
            // Reject rather than round: silently mapping e.g. dimension 0 or
            // 9 to a different half-dimension would make the echoed config
            // disagree with the request.
            if dimension < 2 || !dimension.is_multiple_of(2) {
                return Err(NrpError::InvalidParameter(format!(
                    "ApproxPPR dimension must be an even number >= 2 (got {dimension})"
                )));
            }
            let params = ApproxPprParams {
                half_dimension: dimension / 2,
                alpha,
                num_hops,
                epsilon,
                svd_method,
                dangling,
                seed,
            };
            params.validate()?;
            Box::new(ApproxPpr::new(params))
        }
        MethodConfig::Strap {
            dimension,
            alpha,
            delta,
            iterations,
            dangling,
            seed,
        } => Box::new(Strap::new(strap::StrapParams {
            dimension,
            alpha,
            delta,
            iterations,
            dangling,
            seed,
        })),
        MethodConfig::Arope {
            dimension,
            order_weights,
            oversample,
            iterations,
            seed,
        } => Box::new(Arope::new(arope::AropeParams {
            dimension,
            order_weights,
            oversample,
            iterations,
            seed,
        })),
        MethodConfig::RandNe {
            dimension,
            order_weights,
            seed,
        } => Box::new(RandNe::new(randne::RandNeParams {
            dimension,
            order_weights,
            seed,
        })),
        MethodConfig::Spectral {
            dimension,
            oversample,
            iterations,
            seed,
        } => Box::new(SpectralEmbedding::new(spectral::SpectralParams {
            dimension,
            oversample,
            iterations,
            seed,
        })),
        MethodConfig::DeepWalk {
            dimension,
            walks_per_node,
            walk_length,
            window,
            epochs,
            negatives,
            learning_rate,
            seed,
        } => Box::new(DeepWalk::new(deepwalk::DeepWalkParams {
            dimension,
            walks_per_node,
            walk_length,
            window,
            epochs,
            negatives,
            learning_rate,
            seed,
        })),
        MethodConfig::Node2Vec {
            dimension,
            p,
            q,
            walks_per_node,
            walk_length,
            window,
            epochs,
            negatives,
            learning_rate,
            seed,
        } => Box::new(Node2Vec::new(node2vec::Node2VecParams {
            dimension,
            p,
            q,
            walks_per_node,
            walk_length,
            window,
            epochs,
            negatives,
            learning_rate,
            seed,
        })),
        MethodConfig::Line {
            dimension,
            samples,
            negatives,
            learning_rate,
            seed,
        } => Box::new(Line::new(line::LineParams {
            dimension,
            samples,
            negatives,
            learning_rate,
            seed,
        })),
        MethodConfig::Verse {
            dimension,
            alpha,
            samples_per_node,
            epochs,
            negatives,
            learning_rate,
            seed,
        } => Box::new(Verse::new(verse::VerseParams {
            dimension,
            alpha,
            samples_per_node,
            epochs,
            negatives,
            learning_rate,
            seed,
        })),
        MethodConfig::App {
            dimension,
            alpha,
            samples_per_node,
            epochs,
            negatives,
            learning_rate,
            seed,
        } => Box::new(App::new(app::AppParams {
            dimension,
            alpha,
            samples_per_node,
            epochs,
            negatives,
            learning_rate,
            seed,
        })),
    };
    Ok(embedder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_graph::generators::stochastic_block_model;
    use nrp_graph::GraphKind;

    #[test]
    fn core_methods_build_without_registration() {
        for name in ["NRP", "ApproxPPR"] {
            let embedder = build(&MethodConfig::default_for(name).unwrap()).unwrap();
            assert_eq!(embedder.name(), name);
        }
    }

    #[test]
    fn invalid_core_config_fails_to_build() {
        let mut config = MethodConfig::default_for("NRP").unwrap();
        if let MethodConfig::Nrp { alpha, .. } = &mut config {
            *alpha = 2.0;
        }
        assert!(matches!(build(&config), Err(NrpError::InvalidParameter(_))));
    }

    #[test]
    fn approx_ppr_rejects_zero_and_odd_dimensions() {
        for bad in [0usize, 1, 9] {
            let mut config = MethodConfig::default_for("ApproxPPR").unwrap();
            config.set_dimension(bad);
            assert!(build(&config).is_err(), "dimension {bad} must be rejected");
        }
        // Even dimensions still build, and the echo matches the request.
        let mut config = MethodConfig::default_for("ApproxPPR").unwrap();
        config.set_dimension(10);
        let embedder = build(&config).unwrap();
        assert_eq!(embedder.config(), config);
    }

    #[test]
    fn every_method_rejects_dimension_zero() {
        let (graph, _) =
            stochastic_block_model(&[10, 10], 0.4, 0.05, GraphKind::Undirected, 1).unwrap();
        for name in MethodConfig::method_names() {
            let mut config = MethodConfig::default_for(name).unwrap();
            config.set_dimension(0);
            match build(&config).and_then(|e| e.embed_default(&graph)) {
                Err(NrpError::InvalidParameter(_)) => {}
                Err(other) => panic!("{name}: wrong error for dimension 0: {other}"),
                Ok(e) => panic!("{name}: dimension 0 ran ({} columns)", e.dimension()),
            }
        }
    }
}
