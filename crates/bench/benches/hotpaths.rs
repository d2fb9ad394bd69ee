//! Criterion micro-benchmarks of the three performance-substrate hot paths:
//!
//! * **pooled vs. sequential dispatch** — many tiny chunk maps, the shape of
//!   an embedding's kernel stream (propagation hops × Krylov iterations ×
//!   CGS2 passes): the persistent [`WorkerPool`] pays thread spawn once and
//!   a dispatch per call, against running every chunk on the caller.
//! * **push workspace reuse** — per-source forward push with a reused
//!   [`PushWorkspace`] (epoch-stamped sparse reset, zero allocation) vs. a
//!   fresh workspace per source (three `O(n)` allocations each).
//! * **CSR assembly** — `from_triplets` counting sort (`O(nnz)`) vs. the
//!   comparison-sort reference (`O(nnz log nnz)`).
//!
//! `cargo run -p nrp-bench --bin bench_hotpaths` runs the same measurements
//! headlessly and emits `BENCH_hotpaths.json` for the perf trajectory.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use nrp_bench::hotpaths::{assembly_triplets, kernel_stream, push_sweep};
use nrp_core::parallel::{Exec, WorkerPool};
use nrp_core::push::PushWorkspace;
use nrp_graph::generators::erdos_renyi_nm;
use nrp_graph::{Graph, GraphKind};
use nrp_linalg::SparseMatrix;

fn graph(nodes: usize, edges: usize) -> Graph {
    erdos_renyi_nm(nodes, edges, GraphKind::Directed, 7).expect("valid ER parameters")
}

fn bench_pool_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let threads = 4;
    let calls = 200;
    let n = 1024;
    group.bench_function(BenchmarkId::new("sequential", 1), |b| {
        let exec = Exec::sequential();
        b.iter(|| black_box(kernel_stream(&exec, calls, n)));
    });
    group.bench_function(BenchmarkId::new("pooled", threads), |b| {
        let pool = Arc::new(WorkerPool::new(threads));
        let exec = Exec::pooled(pool, threads);
        b.iter(|| black_box(kernel_stream(&exec, calls, n)));
    });
    group.finish();
}

fn bench_push_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_push");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let g = graph(20_000, 100_000);
    let sources = 256u32;
    group.bench_function("fresh_workspace", |b| {
        b.iter(|| black_box(push_sweep(&g, sources, None)));
    });
    group.bench_function("reused_workspace", |b| {
        let mut ws = PushWorkspace::with_capacity(g.num_nodes());
        b.iter(|| black_box(push_sweep(&g, sources, Some(&mut ws))));
    });
    group.finish();
}

fn bench_csr_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_assembly");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let rows = 20_000;
    let cols = 20_000;
    let triplets = assembly_triplets(500_000, rows, cols);
    group.bench_function("counting_sort", |b| {
        b.iter(|| {
            black_box(SparseMatrix::from_triplets(rows, cols, &triplets).expect("valid triplets"))
        });
    });
    group.bench_function("comparison_sort", |b| {
        b.iter(|| {
            black_box(
                SparseMatrix::from_triplets_comparison(rows, cols, &triplets)
                    .expect("valid triplets"),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pool_vs_sequential,
    bench_push_workspace,
    bench_csr_assembly
);
criterion_main!(benches);
