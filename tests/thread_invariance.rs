//! Thread-invariance contract tests: for every method whose heavy stages are
//! data-parallel (ApproxPPR's SVD and propagations, STRAP's per-source
//! pushes and SVD, DeepWalk/node2vec walk generation, NRP end to end, RandNE
//! propagation, Spectral/AROPE eigensolves), the embedding produced under
//! `with_threads(1)` must be **bitwise identical** to the one produced under
//! any other thread budget.
//!
//! The comparison budget defaults to 4 and can be overridden with the
//! `NRP_TEST_THREADS` environment variable, which CI uses to run a 2-thread
//! and an 8-thread matrix leg — a determinism regression in any chunked
//! kernel fails fast on at least one leg.

use nrp::prelude::*;

/// The thread budget compared against the sequential run.
fn test_threads() -> usize {
    std::env::var("NRP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t: &usize| t >= 2)
        .unwrap_or(4)
}

fn test_graph(kind: GraphKind, seed: u64) -> Graph {
    generators::stochastic_block_model(&[30, 30, 30], 0.15, 0.02, kind, seed)
        .expect("valid SBM parameters")
        .0
}

/// Methods with parallelized stages, as fast JSON configurations.
fn parallel_method_configs() -> Vec<&'static str> {
    vec![
        r#"{"method": "ApproxPPR", "dimension": 16, "seed": 3}"#,
        r#"{"method": "NRP", "dimension": 16, "reweight_epochs": 4, "seed": 3}"#,
        r#"{"method": "STRAP", "dimension": 16, "delta": 0.001, "seed": 3}"#,
        r#"{"method": "DeepWalk", "dimension": 16, "walks_per_node": 4, "walk_length": 12, "epochs": 1, "seed": 3}"#,
        r#"{"method": "node2vec", "dimension": 16, "walks_per_node": 4, "walk_length": 12, "p": 0.5, "q": 2.0, "epochs": 1, "seed": 3}"#,
        r#"{"method": "RandNE", "dimension": 16, "seed": 3}"#,
        r#"{"method": "Spectral", "dimension": 16, "seed": 3}"#,
        r#"{"method": "AROPE", "dimension": 16, "seed": 3}"#,
    ]
}

#[test]
fn embeddings_are_bitwise_identical_across_thread_budgets() {
    let threads = test_threads();
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        let graph = test_graph(kind, 17);
        for json in parallel_method_configs() {
            let embedder = build(&MethodConfig::from_json(json).expect(json)).expect(json);
            let single = embedder
                .embed(&graph, &EmbedContext::new().with_threads(1))
                .expect(json);
            let pooled_ctx = EmbedContext::new().with_threads(threads);
            let multi = embedder.embed(&graph, &pooled_ctx).expect(json);
            assert!(
                pooled_ctx.worker_pool().is_some(),
                "{json}: a multi-thread run must create the context's pool"
            );
            assert_eq!(
                single.embedding(),
                multi.embedding(),
                "{json} differs between 1 and {threads} threads on {kind:?}"
            );
            assert_eq!(multi.metadata().threads, threads, "{json}");
        }
    }
}

#[test]
fn one_pool_reused_across_embeddings_and_methods() {
    // The pool's whole point: one set of threads across many runs.  Two
    // different methods and two repeat runs all share the context's pool,
    // and every result stays bitwise identical to the sequential reference.
    let threads = test_threads();
    let graph = test_graph(GraphKind::Undirected, 37);
    let ctx = EmbedContext::new().with_threads(threads);
    for json in [
        r#"{"method": "ApproxPPR", "dimension": 16, "seed": 3}"#,
        r#"{"method": "STRAP", "dimension": 16, "delta": 0.001, "seed": 3}"#,
    ] {
        let embedder = build(&MethodConfig::from_json(json).expect(json)).expect(json);
        let reference = embedder
            .embed(&graph, &EmbedContext::new().with_threads(1))
            .expect(json);
        let first = embedder.embed(&graph, &ctx).expect(json);
        let second = embedder.embed(&graph, &ctx).expect(json);
        assert_eq!(first.embedding(), reference.embedding(), "{json} run 1");
        assert_eq!(second.embedding(), reference.embedding(), "{json} run 2");
    }
    // The same pool instance served every run.
    let pool = ctx.worker_pool().expect("pool created on first use");
    assert_eq!(pool.capacity(), threads);
    // An explicitly shared pool works across distinct contexts too.
    let shared = std::sync::Arc::clone(pool);
    let other_ctx = EmbedContext::new()
        .with_threads(threads)
        .with_worker_pool(shared);
    let config = MethodConfig::from_json(r#"{"method": "RandNE", "dimension": 16, "seed": 3}"#)
        .expect("valid config");
    let embedder = build(&config).expect("RandNE builds");
    let pooled = embedder.embed(&graph, &other_ctx).expect("RandNE runs");
    let reference = embedder
        .embed(&graph, &EmbedContext::new().with_threads(1))
        .expect("RandNE runs");
    assert_eq!(pooled.embedding(), reference.embedding());
}

#[test]
fn stage_metadata_records_the_granted_thread_budget() {
    let graph = test_graph(GraphKind::Undirected, 23);
    let config = MethodConfig::from_json(r#"{"method": "STRAP", "dimension": 8, "seed": 1}"#)
        .expect("valid config");
    let embedder = build(&config).expect("STRAP builds");
    let output = embedder
        .embed(&graph, &EmbedContext::new().with_threads(3))
        .expect("STRAP runs");
    let stages = &output.metadata().stages;
    for name in ["proximity", "svd"] {
        let stage = stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert_eq!(stage.threads, 3, "stage {name} should record the budget");
    }
    // The sequential scaling stage is recorded as single-threaded.
    let scale = stages
        .iter()
        .find(|s| s.name == "scale")
        .expect("scale stage");
    assert_eq!(scale.threads, 1);
}

#[test]
fn every_exec_kernel_is_bitwise_thread_invariant() {
    // The roster below is the contract `nrp-lint` rule A002 enforces: every
    // `pub fn *_exec` kernel in the workspace must appear — and prove
    // bitwise invariance — here.  Adding a kernel without extending this
    // test fails `cargo run -p nrp-lint -- --workspace --deny`.
    use nrp::baselines::walks::{node2vec_walks_exec, uniform_walks_exec};
    use nrp::linalg::parallel::{
        par_chunk_map_exec, par_fill_rows_exec, par_reduce_exec, try_par_chunk_map_exec, Exec,
    };
    use nrp::linalg::qr::orthonormalize_exec;
    use nrp::linalg::{SparseMatrix, WorkerPool};

    let threads = test_threads();
    let sequential = Exec::sequential();
    let parallel = Exec::pooled(std::sync::Arc::new(WorkerPool::new(threads)), threads);

    // par_chunk_map_exec: chunk results concatenate in ascending order.
    let seq = par_chunk_map_exec(97, 8, &sequential, |r| r.sum::<usize>());
    let par = par_chunk_map_exec(97, 8, &parallel, |r| r.sum::<usize>());
    assert_eq!(seq, par, "par_chunk_map_exec");

    // try_par_chunk_map_exec: same contract through the fallible variant.
    let seq = try_par_chunk_map_exec(97, 8, &sequential, |r| Ok::<_, String>(r.len()));
    let par = try_par_chunk_map_exec(97, 8, &parallel, |r| Ok::<_, String>(r.len()));
    assert_eq!(seq, par, "try_par_chunk_map_exec");

    // par_reduce_exec: floats fold in ascending chunk order, so even a
    // non-associative reduction is bitwise stable.
    let map = |r: std::ops::Range<usize>| r.map(|i| 1.0 / (i as f64 + 1.0)).sum::<f64>();
    let fold = |a: f64, b: f64| a + b;
    let seq = par_reduce_exec(1003, 16, &sequential, map, fold).expect("non-empty");
    let par = par_reduce_exec(1003, 16, &parallel, map, fold).expect("non-empty");
    assert_eq!(seq.to_bits(), par.to_bits(), "par_reduce_exec");

    // par_fill_rows_exec: disjoint row blocks of one output buffer.
    let fill = |i: usize, row: &mut [f64]| {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = ((i * 31 + j) as f64).sin();
        }
    };
    let seq = par_fill_rows_exec(40, 7, &sequential, fill);
    let par = par_fill_rows_exec(40, 7, &parallel, fill);
    assert_eq!(seq, par, "par_fill_rows_exec");

    // Dense kernels: matmul_exec / transpose_matmul_exec / gram_exec.  The
    // row count spans three reduction chunks and many row chunks, so the
    // pooled path really splits, and no width is a multiple of the 4- or
    // 8-wide register tiles, so every tile remainder runs too.
    let bits =
        |m: &nrp::linalg::DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let rows = 2 * nrp::linalg::parallel::REDUCE_CHUNK + 77;
    let a = nrp::linalg::random::gaussian_matrix(rows, 13, 7);
    let b = nrp::linalg::random::gaussian_matrix(13, 11, 8);
    let seq = a.matmul_exec(&b, &sequential).expect("shapes agree");
    let par = a.matmul_exec(&b, &parallel).expect("shapes agree");
    assert_eq!(bits(&seq), bits(&par), "matmul_exec");
    let c = nrp::linalg::random::gaussian_matrix(rows, 9, 9);
    let seq = a
        .transpose_matmul_exec(&c, &sequential)
        .expect("shapes agree");
    let par = a
        .transpose_matmul_exec(&c, &parallel)
        .expect("shapes agree");
    assert_eq!(bits(&seq), bits(&par), "transpose_matmul_exec");
    assert_eq!(
        bits(&a.gram_exec(&sequential)),
        bits(&a.gram_exec(&parallel)),
        "gram_exec"
    );

    // Sparse kernel: matmul_dense_exec.
    let triplets: Vec<(usize, usize, f64)> = (0..200)
        .map(|k| ((k * 7) % 25, (k * 11) % 12, (k as f64 + 1.0).recip()))
        .collect();
    let sparse = SparseMatrix::from_triplets(25, 12, &triplets).expect("valid triplets");
    let dense = nrp::linalg::random::gaussian_matrix(12, 6, 10);
    let seq = sparse
        .matmul_dense_exec(&dense, &sequential)
        .expect("shapes agree");
    let par = sparse
        .matmul_dense_exec(&dense, &parallel)
        .expect("shapes agree");
    assert_eq!(seq.data(), par.data(), "matmul_dense_exec");

    // QR kernel: orthonormalize_exec.
    let tall = nrp::linalg::random::gaussian_matrix(48, 6, 11);
    let seq = orthonormalize_exec(&tall, &sequential).expect("full rank");
    let par = orthonormalize_exec(&tall, &parallel).expect("full rank");
    assert_eq!(seq.data(), par.data(), "orthonormalize_exec");
    // The blocked path: several 32-column panels and several REDUCE_CHUNK
    // row chunks, with column 70 (third panel) a combination of columns 5
    // and 40 (first and second panels), which both policies must drop.
    let mut wide = nrp::linalg::random::gaussian_matrix(9000, 100, 12);
    for r in 0..wide.rows() {
        let v = wide.get(r, 5) - 3.0 * wide.get(r, 40);
        wide.set(r, 70, v);
    }
    let seq = orthonormalize_exec(&wide, &sequential).expect("non-empty");
    let par = orthonormalize_exec(&wide, &parallel).expect("non-empty");
    assert_eq!(seq.shape(), (9000, 99), "dependent column dropped");
    assert_eq!(seq.data(), par.data(), "orthonormalize_exec, multi-panel");

    // Walk kernels: uniform_walks_exec / node2vec_walks_exec.
    let graph = test_graph(GraphKind::Undirected, 41);
    let seq = uniform_walks_exec(&graph, 3, 10, 13, &sequential);
    let par = uniform_walks_exec(&graph, 3, 10, 13, &parallel);
    assert_eq!(seq, par, "uniform_walks_exec");
    let seq = node2vec_walks_exec(&graph, 3, 10, 0.5, 2.0, 13, &sequential);
    let par = node2vec_walks_exec(&graph, 3, 10, 0.5, 2.0, 13, &parallel);
    assert_eq!(seq, par, "node2vec_walks_exec");
}

#[test]
fn strap_proximity_matrix_is_thread_invariant() {
    // Below the Embedder surface: the assembled sparse proximity matrix
    // itself (triplet order included) must not depend on the budget.
    use nrp::baselines::strap::{Strap, StrapParams};
    let graph = test_graph(GraphKind::Directed, 29);
    let strap = Strap::new(StrapParams {
        dimension: 8,
        delta: 1e-3,
        seed: 5,
        ..Default::default()
    });
    let reference = strap
        .proximity_matrix_with(&graph, &EmbedContext::new().with_threads(1))
        .expect("sequential proximity");
    for threads in [2usize, test_threads()] {
        let parallel = strap
            .proximity_matrix_with(&graph, &EmbedContext::new().with_threads(threads))
            .expect("parallel proximity");
        assert_eq!(parallel, reference, "threads = {threads}");
    }
}
