//! Cross-crate integration tests: graph generation → embedding → evaluation,
//! exercising the public API exactly as the examples and benchmark harnesses
//! do.

use nrp::prelude::*;
use nrp_core::approx_ppr::ApproxPprParams;

fn labelled_sbm(seed: u64) -> (Graph, Vec<Vec<u32>>) {
    let (graph, community) =
        generators::stochastic_block_model(&[60, 60, 60], 0.2, 0.008, GraphKind::Undirected, seed)
            .expect("valid SBM parameters");
    let labels = generators::planted_labels(&community, 3, 0.05, 0.1, seed);
    (graph, labels)
}

fn nrp(dimension: usize, seed: u64) -> Nrp {
    Nrp::new(
        NrpParams::builder()
            .dimension(dimension)
            .reweight_epochs(8)
            .lambda(1.0)
            .seed(seed)
            .build()
            .expect("valid parameters"),
    )
}

#[test]
fn nrp_link_prediction_beats_chance_and_matches_approx_ppr() {
    let (graph, _) = labelled_sbm(1);
    let task = LinkPrediction::new(LinkPredictionConfig {
        seed: 1,
        ..Default::default()
    });
    let nrp_auc = task
        .evaluate(&graph, &nrp(16, 1))
        .expect("NRP evaluation")
        .auc;
    let approx = ApproxPpr::new(ApproxPprParams {
        half_dimension: 8,
        seed: 1,
        ..Default::default()
    });
    let approx_auc = task
        .evaluate(&graph, &approx)
        .expect("ApproxPPR evaluation")
        .auc;
    assert!(nrp_auc > 0.75, "NRP AUC {nrp_auc}");
    assert!(
        nrp_auc >= approx_auc - 0.03,
        "NRP {nrp_auc} vs ApproxPPR {approx_auc}"
    );
}

#[test]
fn full_pipeline_classification_recovers_communities() {
    let (graph, labels) = labelled_sbm(2);
    let report = NodeClassification::new(ClassificationConfig {
        train_ratio: 0.5,
        seed: 2,
        ..Default::default()
    })
    .evaluate(&graph, &labels, &nrp(16, 2))
    .expect("classification evaluation");
    assert!(report.micro_f1 > 0.6, "micro-F1 {}", report.micro_f1);
}

#[test]
fn reconstruction_precision_high_at_small_k() {
    let (graph, _) = labelled_sbm(3);
    let outcome = GraphReconstruction::new(ReconstructionConfig {
        sample_pairs: None,
        k_values: vec![10, 100],
        seed: 3,
    })
    .evaluate(&graph, &nrp(16, 3))
    .expect("reconstruction evaluation");
    assert!(
        outcome.precision[0].precision >= 0.8,
        "precision@10 {}",
        outcome.precision[0].precision
    );
}

#[test]
fn directed_graph_round_trip_through_io_and_embedding() {
    let (graph, _) =
        generators::stochastic_block_model(&[50, 50], 0.15, 0.01, GraphKind::Directed, 4)
            .expect("valid SBM parameters");
    // Write the graph to disk, read it back, embed both, and check the
    // embeddings agree (the round trip must preserve the structure exactly).
    let dir = std::env::temp_dir();
    let path = dir.join("nrp_integration_graph.txt");
    nrp::graph::io::write_edge_list(&graph, &path).expect("write edge list");
    let reloaded =
        nrp::graph::io::read_edge_list(&path, GraphKind::Directed).expect("read edge list");
    assert_eq!(reloaded.num_arcs(), graph.num_arcs());
    let a = nrp(8, 4).embed_default(&graph).expect("embed original");
    let b = nrp(8, 4).embed_default(&reloaded).expect("embed reloaded");
    for u in 0..graph.num_nodes() as u32 {
        for v in 0..graph.num_nodes() as u32 {
            assert!((a.score(u, v) - b.score(u, v)).abs() < 1e-9);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_method_in_the_roster_beats_random_on_an_easy_graph() {
    // An easy, dense SBM: every reasonable embedding method should beat
    // chance at link prediction by a clear margin.
    let (graph, _) =
        generators::stochastic_block_model(&[40, 40], 0.3, 0.02, GraphKind::Undirected, 5)
            .expect("valid SBM parameters");
    let task = LinkPrediction::new(LinkPredictionConfig {
        seed: 5,
        ..Default::default()
    });
    for mut config in MethodConfig::all_defaults() {
        config.set_dimension(16);
        config.set_seed(5);
        let method = build(&config).unwrap_or_else(|e| panic!("{}: {e}", config.method_name()));
        let auc = task
            .evaluate(&graph, method.as_ref())
            .unwrap_or_else(|_| panic!("{}", method.name()))
            .auc;
        assert!(
            auc > 0.55,
            "{} AUC {auc} is not better than chance",
            method.name()
        );
    }
}

#[test]
fn embedding_serialization_round_trip_preserves_scores() {
    let (graph, _) = labelled_sbm(6);
    let embedding = nrp(16, 6).embed_default(&graph).expect("embedding");
    let json = embedding.to_json().expect("serialize");
    let restored = Embedding::from_json(&json).expect("deserialize");
    assert_eq!(restored, embedding);
}

#[test]
fn reweighting_changes_scores_but_preserves_dimensions() {
    let (graph, _) = labelled_sbm(7);
    let with = nrp(16, 7).embed_default(&graph).expect("with reweighting");
    let without = Nrp::new(
        NrpParams::builder()
            .dimension(16)
            .reweight_epochs(0)
            .seed(7)
            .build()
            .expect("params"),
    )
    .embed_default(&graph)
    .expect("without reweighting");
    assert_eq!(with.dimension(), without.dimension());
    let mut differs = false;
    for u in 0..10u32 {
        for v in 0..10u32 {
            if (with.score(u, v) - without.score(u, v)).abs() > 1e-9 {
                differs = true;
            }
        }
    }
    assert!(differs, "reweighting should change at least some scores");
}
