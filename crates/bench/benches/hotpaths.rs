//! Criterion micro-benchmarks of two performance-substrate hot paths:
//!
//! * **pooled vs. sequential dispatch** — many tiny chunk maps, the shape of
//!   an embedding's kernel stream (propagation hops × Krylov iterations ×
//!   CGS2 passes): the persistent [`WorkerPool`] pays thread spawn once and
//!   a dispatch per call, against running every chunk on the caller.
//! * **push workspace reuse** — per-source forward push with a reused
//!   [`PushWorkspace`] (epoch-stamped sparse reset, zero allocation) vs. a
//!   fresh workspace per source (three `O(n)` allocations each).

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use nrp_core::parallel::{self, Exec, WorkerPool};
use nrp_core::push::{forward_push_into, PushWorkspace};
use nrp_core::DanglingPolicy;
use nrp_graph::generators::erdos_renyi_nm;
use nrp_graph::{Graph, GraphKind, NodeId};

fn graph(nodes: usize, edges: usize) -> Graph {
    erdos_renyi_nm(nodes, edges, GraphKind::Directed, 7).expect("valid ER parameters")
}

/// One micro-stage stream: `calls` chunk maps over `n` items with a small
/// amount of real work per chunk — dispatch overhead dominates, which is
/// exactly what the persistent pool amortizes.
fn kernel_stream(exec: &Exec, calls: usize, n: usize) -> f64 {
    let mut acc = 0.0;
    for round in 0..calls {
        let partials = parallel::par_chunk_map_exec(n, 64, exec, |range| {
            range.map(|i| ((i * 31 + round) % 97) as f64).sum::<f64>()
        });
        acc += partials.into_iter().sum::<f64>();
    }
    acc
}

/// Forward pushes from the first `sources` nodes, either reusing the given
/// workspace (the zero-allocation hot path) or allocating a fresh one per
/// source.  Returns the total push count.
fn push_sweep(graph: &Graph, sources: u32, mut reuse: Option<&mut PushWorkspace>) -> usize {
    let mut total = 0usize;
    for source in 0..sources {
        let mut fresh;
        let ws = match reuse.as_deref_mut() {
            Some(ws) => ws,
            None => {
                fresh = PushWorkspace::new();
                &mut fresh
            }
        };
        total += forward_push_into(
            graph,
            source as NodeId,
            0.15,
            1e-4,
            DanglingPolicy::SelfLoop,
            ws,
        )
        .expect("push succeeds")
        .num_pushes;
    }
    total
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

criterion_group!(benches, bench_pool_vs_sequential, bench_push_workspace);
criterion_main!(benches);
