//! Regenerates the paper's Fig. 10: NRP construction time on Erdős–Rényi
//! graphs as the number of nodes (with edges fixed) and the number of edges
//! (with nodes fixed) are varied — the paper's own scalability protocol,
//! scaled down by `--scale`.
//!
//! The printed ratio column makes the near-linear growth visible: time
//! roughly doubles when the varied quantity doubles.
//!
//! A third table sweeps the `EmbedContext` thread budget on the largest
//! generated graph for the parallelized heavy stages (ApproxPPR's
//! SVD + propagation, STRAP's per-source pushes + SVD, NRP end to end),
//! printing the speedup over the single-thread run.  Thanks to the
//! workspace-wide determinism contract the embeddings are bitwise identical
//! across the sweep — only the wall clock moves.

use nrp_baselines::build;
use nrp_baselines::strap::{Strap, StrapParams};
use nrp_bench::report::fmt_secs;
use nrp_bench::{HarnessArgs, Scale, Table};
use nrp_core::{EmbedContext, Embedder, MethodConfig, Nrp};
use nrp_graph::generators::erdos_renyi_nm;
use nrp_graph::{Graph, GraphKind};

fn factor(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1,
        Scale::Small => 4,
        Scale::Medium => 16,
        Scale::Large => 64,
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    let f = factor(args.scale);
    // Paper: n ∈ {2e5..1e6} with m = 1e7; m ∈ {2e7..1e8} with n = 1e6.
    // Scaled down: base n = 5k·f, base m = 25k·f.
    let base_nodes = 5_000 * f;
    let base_edges = 25_000 * f;

    let mut by_nodes = Table::new(
        format!("Fig. 10(a) — NRP time vs number of nodes (m = {base_edges} edges fixed)"),
        &["nodes", "edges", "seconds", "ratio vs previous"],
    );
    let mut previous: Option<f64> = None;
    for step in 1..=5usize {
        let n = base_nodes * step;
        let graph = erdos_renyi_nm(n, base_edges, GraphKind::Directed, args.seed)
            .expect("valid ER parameters");
        let output = Nrp::new(args.nrp_base_params())
            .embed(&graph, &EmbedContext::new().with_threads(args.threads))
            .expect("NRP on ER graph");
        let total = output.metadata().total;
        let secs = total.as_secs_f64();
        let ratio = previous
            .map(|p| format!("{:.2}", secs / p))
            .unwrap_or_else(|| "-".into());
        by_nodes.add_row(vec![
            n.to_string(),
            base_edges.to_string(),
            fmt_secs(total),
            ratio,
        ]);
        previous = Some(secs);
    }
    by_nodes.print();

    let mut by_edges = Table::new(
        format!("Fig. 10(b) — NRP time vs number of edges (n = {base_nodes} nodes fixed)"),
        &["nodes", "edges", "seconds", "ratio vs previous"],
    );
    let mut previous: Option<f64> = None;
    for step in 1..=5usize {
        let m = base_edges * step;
        let graph = erdos_renyi_nm(base_nodes, m, GraphKind::Directed, args.seed)
            .expect("valid ER parameters");
        let output = Nrp::new(args.nrp_base_params())
            .embed(&graph, &EmbedContext::new().with_threads(args.threads))
            .expect("NRP on ER graph");
        let total = output.metadata().total;
        let secs = total.as_secs_f64();
        let ratio = previous
            .map(|p| format!("{:.2}", secs / p))
            .unwrap_or_else(|| "-".into());
        by_edges.add_row(vec![
            base_nodes.to_string(),
            m.to_string(),
            fmt_secs(total),
            ratio,
        ]);
        previous = Some(secs);
    }
    by_edges.print();

    thread_sweep(&args, base_nodes, base_edges);
}

/// A named timing closure: runs a method on a graph under a context and
/// returns the wall-clock seconds.
type TimedMethod<'a> = (&'a str, Box<dyn Fn(&Graph, &EmbedContext) -> f64>);

/// Sweeps the thread budget on the largest generated graph and reports the
/// wall-clock speedup of each parallelized method over its 1-thread run.
fn thread_sweep(args: &HarnessArgs, base_nodes: usize, base_edges: usize) {
    // The largest graph of the by-nodes sweep: 5x nodes, fixed edge count.
    let n = base_nodes * 5;
    let graph =
        erdos_renyi_nm(n, base_edges, GraphKind::Directed, args.seed).expect("valid ER parameters");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if cores < 4 {
        println!(
            "note: only {cores} hardware core(s) available — thread budgets beyond that \
             multiplex on the same core(s), so speedups below reflect scheduling overhead, \
             not the parallel fan-out"
        );
    }
    let mut table = Table::new(
        format!(
            "Fig. 10(c) — thread-budget sweep on the largest graph \
             (n = {n}, m = {base_edges}, {cores} hardware cores)"
        ),
        &["method", "threads", "seconds", "speedup vs first budget"],
    );
    let methods: Vec<TimedMethod> = vec![
        (
            "ApproxPPR",
            Box::new({
                let mut config = MethodConfig::default_for("ApproxPPR").expect("known method");
                config.set_dimension(args.dimension);
                config.set_seed(args.seed);
                let approx_ppr = build(&config).expect("valid ApproxPPR config");
                move |g: &Graph, ctx: &EmbedContext| {
                    let output = approx_ppr.embed(g, ctx).expect("ApproxPPR runs");
                    output.metadata().total.as_secs_f64()
                }
            }),
        ),
        (
            "STRAP",
            Box::new({
                let (dim, seed) = (args.dimension, args.seed);
                move |g: &Graph, ctx: &EmbedContext| {
                    // δ = 1e-3 keeps the per-source push budget sensible at
                    // bench scale while leaving the parallel fan-out dominant.
                    let strap = Strap::new(StrapParams {
                        dimension: dim,
                        delta: 1e-3,
                        seed,
                        ..Default::default()
                    });
                    let output = strap.embed(g, ctx).expect("STRAP runs");
                    output.metadata().total.as_secs_f64()
                }
            }),
        ),
        (
            "NRP",
            Box::new({
                let params = args.nrp_base_params();
                move |g: &Graph, ctx: &EmbedContext| {
                    let output = Nrp::new(params.clone()).embed(g, ctx).expect("NRP runs");
                    output.metadata().total.as_secs_f64()
                }
            }),
        ),
    ];
    // The budgets come from the `--config` document when it declares any;
    // the paper's 1/2/4/8 ladder otherwise.
    let budgets: Vec<usize> = args
        .config
        .as_ref()
        .filter(|spec| !spec.threads.is_empty())
        .map(|spec| spec.threads.clone())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    for (name, run) in &methods {
        let mut single: Option<f64> = None;
        for &threads in &budgets {
            let ctx = EmbedContext::new().with_threads(threads);
            let secs = run(&graph, &ctx);
            let baseline = *single.get_or_insert(secs);
            table.add_row(vec![
                name.to_string(),
                threads.to_string(),
                fmt_secs(std::time::Duration::from_secs_f64(secs)),
                format!("{:.2}x", baseline / secs),
            ]);
        }
    }
    table.print();
}
