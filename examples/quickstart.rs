//! Quickstart: describe a method as data, build it with `nrp::build`, embed
//! a small graph, and inspect scores and run metadata.
//!
//! Run with: `cargo run --release --example quickstart`

use nrp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a graph.  Here: the 9-node example of the paper's Fig. 1;
    //    for real use, load an edge list with `nrp::graph::io::read_edge_list`.
    let graph = generators::example::example_graph();
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. Describe the method as data.  Anything not specified takes the
    //    paper's defaults (k = 128, alpha = 0.15, l1 = 20, l2 = 10,
    //    epsilon = 0.2, lambda = 10); we shrink the dimension for this tiny
    //    graph.  The same JSON could live in an experiment file on disk —
    //    `MethodConfig::from_toml` parses a TOML flavour of it as well.
    let config: MethodConfig = serde_json::from_str(
        r#"{"method": "NRP", "dimension": 8, "num_hops": 30, "lambda": 0.1, "seed": 42}"#,
    )?;
    println!("running: {}", config.to_json()?);

    // 3. Build and run under an execution context.  `nrp::build` accepts any
    //    of the eleven methods (NRP, ApproxPPR and the nine baselines).  The
    //    context can override the seed, grant a thread budget, or carry a
    //    cancellation flag.  The thread budget is purely a performance
    //    knob: every parallel stage (SVD block matmuls, PPR propagations,
    //    STRAP pushes, walk generation) is bitwise deterministic, so any
    //    budget produces the exact same embedding.  A multi-thread context
    //    owns a persistent worker pool, created on the first parallel stage
    //    and reused by every subsequent stage and run — keep the context
    //    around (or clone it) across embeddings so thread spawning is paid
    //    only once.
    let embedder = nrp::build(&config)?;
    let ctx = EmbedContext::new().with_threads(2);
    let output = embedder.embed(&graph, &ctx)?;
    assert!(ctx.worker_pool().is_some(), "pool created and retained");
    let embedding = output.embedding();
    println!(
        "embedded {} nodes into {} dimensions ({} per side)",
        embedding.num_nodes(),
        embedding.dimension(),
        embedding.half_dimension()
    );
    for stage in &output.metadata().stages {
        println!(
            "  stage {:<12} {:?} ({} thread{})",
            stage.name,
            stage.duration,
            stage.threads,
            if stage.threads == 1 { "" } else { "s" }
        );
    }
    let single_thread = embedder.embed(&graph, &EmbedContext::new().with_threads(1))?;
    assert_eq!(
        single_thread.embedding(),
        embedding,
        "thread budgets never change the result, only the wall clock"
    );

    // 4. Score node pairs.  The score X_u · Y_v approximates the reweighted
    //    personalized PageRank w⃗_u · π(u, v) · w⃖_v.
    use nrp::graph::generators::example::{V2, V4, V7, V9};
    println!(
        "score(v2, v4) = {:.4}  (three common neighbours)",
        embedding.score(V2, V4)
    );
    println!(
        "score(v9, v7) = {:.4}  (one common neighbour)",
        embedding.score(V9, V7)
    );
    assert!(
        embedding.score(V2, V4) > embedding.score(V9, V7),
        "after reweighting, the well-connected pair must score higher"
    );

    // 5. Scale up: the same declarative configs drive whole benchmark
    //    sweeps.  A `configs/*.json` (or `.toml`) file lists sweep-level
    //    fields (scale, datasets, seeds, repeats, thread budgets) plus a
    //    `methods` array of documents like the one above, and every
    //    `nrp-bench` binary accepts it via `--config`:
    //
    //        cargo run --release -p nrp-bench --bin fig7_running_time -- \
    //            --scale tiny --config configs/fig7.json
    //
    //    streams one CSV record of RunMetadata (per-stage wall clock
    //    included) per run.

    // 6. Persist the embedding for downstream use.
    let path = std::env::temp_dir().join("nrp_quickstart_embedding.json");
    embedding.save(&path)?;
    let reloaded = Embedding::load(&path)?;
    assert_eq!(reloaded.num_nodes(), embedding.num_nodes());
    println!(
        "embedding saved to {} and reloaded successfully",
        path.display()
    );
    Ok(())
}
