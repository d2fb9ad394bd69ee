//! Integration tests of the declarative API: JSON/TOML-described methods are
//! built with `nrp::build`, run under an `EmbedContext`, and their outputs
//! and metadata behave as documented — the contract a config-file-driven
//! experiment harness relies on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nrp::prelude::*;

fn small_graph() -> Graph {
    generators::stochastic_block_model(&[12, 12], 0.4, 0.05, GraphKind::Undirected, 3)
        .expect("valid SBM parameters")
        .0
}

/// Per-method JSON documents with budgets small enough for a fast sweep.
/// Only `method` is mandatory — everything omitted takes paper defaults.
fn fast_configs() -> Vec<&'static str> {
    vec![
        r#"{"method": "NRP", "dimension": 8, "reweight_epochs": 4, "seed": 7}"#,
        r#"{"method": "ApproxPPR", "dimension": 8, "seed": 7}"#,
        r#"{"method": "STRAP", "dimension": 8, "seed": 7}"#,
        r#"{"method": "AROPE", "dimension": 8, "seed": 7}"#,
        r#"{"method": "RandNE", "dimension": 8, "seed": 7}"#,
        r#"{"method": "Spectral", "dimension": 8, "seed": 7}"#,
        r#"{"method": "DeepWalk", "dimension": 8, "walks_per_node": 4, "walk_length": 15, "seed": 7}"#,
        r#"{"method": "node2vec", "dimension": 8, "walks_per_node": 4, "walk_length": 15, "p": 0.5, "q": 2.0, "seed": 7}"#,
        r#"{"method": "LINE", "dimension": 8, "samples": 20000, "seed": 7}"#,
        r#"{"method": "VERSE", "dimension": 8, "samples_per_node": 10, "epochs": 2, "seed": 7}"#,
        r#"{"method": "APP", "dimension": 8, "samples_per_node": 10, "epochs": 2, "seed": 7}"#,
    ]
}

#[test]
fn every_method_runs_from_a_json_document() {
    let graph = small_graph();
    let mut names = Vec::new();
    for json in fast_configs() {
        let config: MethodConfig = serde_json::from_str(json).expect(json);
        let embedder = build(&config).expect(json);
        let output = embedder
            .embed(&graph, &EmbedContext::default())
            .expect(json);
        assert_eq!(output.embedding().num_nodes(), graph.num_nodes(), "{json}");
        assert!(output.embedding().is_finite(), "{json}");
        // The metadata echoes the effective configuration and records stages.
        assert_eq!(output.metadata().config, config, "{json}");
        assert_eq!(output.metadata().seed, 7, "{json}");
        assert!(!output.metadata().stages.is_empty(), "{json}");
        assert!(
            output.metadata().total >= output.metadata().stages[0].duration,
            "{json}"
        );
        names.push(embedder.name());
    }
    assert_eq!(names.len(), 11);
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), 11, "all eleven methods distinct: {names:?}");
}

#[test]
fn fixed_seed_runs_are_deterministic_and_seed_override_wins() {
    let graph = small_graph();
    let config = MethodConfig::from_json(r#"{"method": "NRP", "dimension": 8, "seed": 5}"#)
        .expect("valid config");
    let embedder = build(&config).expect("NRP builds");

    let a = embedder.embed_default(&graph).expect("run a");
    let b = embedder.embed_default(&graph).expect("run b");
    assert_eq!(a, b, "same seed, same embedding");

    // A context seed override takes precedence over the configured seed and
    // is echoed back in the metadata.
    let ctx = EmbedContext::new().with_seed(99);
    let overridden = embedder.embed(&graph, &ctx).expect("override run");
    assert_eq!(overridden.metadata().seed, 99);
    assert_eq!(overridden.metadata().config.seed(), 99);
    assert_ne!(
        *overridden.embedding(),
        a,
        "different seed, different embedding"
    );

    let again = embedder.embed(&graph, &ctx).expect("override run again");
    assert_eq!(*overridden.embedding(), again.into_embedding());
}

#[test]
fn thread_budget_does_not_change_results() {
    let graph = small_graph();
    let config = MethodConfig::from_json(r#"{"method": "NRP", "dimension": 8, "seed": 11}"#)
        .expect("valid config");
    let embedder = build(&config).expect("NRP builds");
    let single = embedder
        .embed(&graph, &EmbedContext::new().with_threads(1))
        .expect("1 thread");
    let multi = embedder
        .embed(&graph, &EmbedContext::new().with_threads(4))
        .expect("4 threads");
    assert_eq!(single.embedding(), multi.embedding());
    assert_eq!(multi.metadata().threads, 4);
}

#[test]
fn pre_cancelled_context_aborts_the_run() {
    let graph = small_graph();
    let flag = Arc::new(AtomicBool::new(true));
    let ctx = EmbedContext::new().with_cancel_flag(Arc::clone(&flag));
    let embedder = build(&MethodConfig::default_for("NRP").expect("known")).expect("builds");
    match embedder.embed(&graph, &ctx) {
        Err(NrpError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Lowering the flag lets the same context run to completion.
    flag.store(false, Ordering::Relaxed);
    let config = MethodConfig::from_json(r#"{"method": "ApproxPPR", "dimension": 8}"#)
        .expect("valid config");
    let embedder = build(&config).expect("builds");
    assert!(embedder.embed(&graph, &ctx).is_ok());
}

#[test]
fn json_and_toml_round_trips_agree() {
    for config in MethodConfig::all_defaults() {
        let via_json =
            MethodConfig::from_json(&config.to_json().expect("to json")).expect("json round trip");
        let via_toml = MethodConfig::from_toml(&config.to_toml()).expect("toml round trip");
        assert_eq!(via_json, config, "{}", config.method_name());
        assert_eq!(via_toml, config, "{}", config.method_name());
    }
}

#[test]
fn embedding_save_load_round_trip() {
    let graph = small_graph();
    let config = MethodConfig::from_json(r#"{"method": "NRP", "dimension": 8, "seed": 2}"#)
        .expect("valid config");
    let embedding = build(&config)
        .expect("builds")
        .embed_default(&graph)
        .expect("embeds");
    let dir = tempfile::tempdir().expect("temp dir");
    let path = dir.path().join("embedding.json");
    embedding.save(&path).expect("save");
    let restored = Embedding::load(&path).expect("load");
    assert_eq!(restored, embedding);
    assert_eq!(restored.method(), "NRP");
    for u in 0..graph.num_nodes() as u32 {
        for v in 0..graph.num_nodes() as u32 {
            assert_eq!(restored.score(u, v), embedding.score(u, v));
        }
    }
}
