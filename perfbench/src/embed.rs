//! `embed-sbm`: `Nrp::embed` on a seeded stochastic block model, with
//! held-out link prediction as the quality guard.

use nrp_core::reweight::{learn_weights_with, ReweightConfig};
use nrp_core::{ApproxPpr, ApproxPprParams, EmbedContext, Embedder, Embedding, Nrp, NrpParams};
use nrp_eval::link_prediction::{LinkPrediction, LinkPredictionConfig, ScoringStrategy};
use nrp_eval::split::{link_prediction_split, LinkSplit};
use nrp_graph::generators::stochastic_block_model;
use nrp_graph::{Graph, GraphKind};
use nrp_linalg::parallel::Exec;
use nrp_linalg::qr::{orthogonality_defect, orthonormalize_exec};
use nrp_linalg::random::gaussian_matrix;
use nrp_linalg::{
    eig::symmetric_eigen, AdjacencyOperator, DanglingPolicy, DenseMatrix, LinearOperator,
    RandomizedSvd, RandomizedSvdMethod, TransitionOperator,
};
use nrp_obs::clock;

use crate::report::{median, nproc, peak_rss_mb, Report, WorkDir};
use crate::Args;

const NODES: usize = 10_000;
const BLOCKS: usize = 50;
/// Expected within-block and cross-block degree: mean degree 10, 80% of the
/// edges inside blocks.
const DEGREE_IN: f64 = 8.0;
const DEGREE_OUT: f64 = 2.0;
const DIMENSION: usize = 64;
const HOLDOUT: f64 = 0.3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// Accepted held-out AUC band.  Measured AUCs on this workload sit at
/// 0.796-0.826 over 27 seeds; a change that lowers quality by about five
/// points fails the run.
const AUC_BAND: (f64, f64) = (0.75, 1.0);
/// Timed calls each of `factorize_with` and `RandomizedSvd::compute` in the
/// traced run.
const TIMED_CALLS: usize = 3;
/// Oversampling of `RandomizedSvd::new` (its default), needed to rebuild
/// the sketch width in the traced replay.
const OVERSAMPLE: usize = 8;

fn params(seed: u64) -> Result<NrpParams, String> {
    NrpParams::builder()
        .dimension(DIMENSION)
        .alpha(0.15)
        .num_hops(20)
        .reweight_epochs(10)
        .epsilon(0.2)
        .lambda(10.0)
        .svd_method(RandomizedSvdMethod::BlockKrylov)
        .seed(seed)
        .build()
        .map_err(|e| format!("NRP parameters: {e}"))
}

/// The seeded input graph, written as an edge list.
fn generate(seed: u64, work: &WorkDir) -> Result<std::path::PathBuf, String> {
    let block = NODES / BLOCKS;
    let p_in = DEGREE_IN / (block - 1) as f64;
    let p_out = DEGREE_OUT / (NODES - block) as f64;
    let (graph, _) =
        stochastic_block_model(&[block; BLOCKS], p_in, p_out, GraphKind::Undirected, seed)
            .map_err(|e| format!("SBM generation: {e}"))?;
    let path = work.file("sbm.edges");
    nrp_graph::io::write_edge_list(&graph, &path).map_err(|e| format!("edge list: {e}"))?;
    Ok(path)
}

/// Set-up as a user pays it: read the edge list, then hold out 30% of the
/// edges.  Returns the split and the (read, split) times of every repeat.
fn setup(path: &std::path::Path, seed: u64) -> Result<(LinkSplit, Vec<f64>, Vec<f64>), String> {
    let mut reads = Vec::new();
    let mut splits = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = clock::now();
        let graph = nrp_graph::io::read_edge_list(path, GraphKind::Undirected)
            .map_err(|e| format!("read edge list: {e}"))?;
        reads.push(t.elapsed().as_secs_f64());
        let t = clock::now();
        let split = link_prediction_split(&graph, HOLDOUT, split_seed(seed))
            .map_err(|e| format!("link split: {e}"))?;
        splits.push(t.elapsed().as_secs_f64());
        last = Some(split);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), reads, splits))
}

fn split_seed(seed: u64) -> u64 {
    seed ^ 0x5917
}

fn embed_timed(nrp: &Nrp, graph: &Graph, ctx: &EmbedContext) -> Result<(Embedding, f64), String> {
    let t = clock::now();
    let out = nrp
        .embed(graph, ctx)
        .map_err(|e| format!("Nrp::embed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((out.into_embedding(), secs))
}

fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_embedding(a: &Embedding, b: &Embedding) -> bool {
    same_bits(a.forward(), b.forward()) && same_bits(a.backward(), b.backward())
}

fn link_auc(split: &LinkSplit, embedding: &Embedding, seed: u64) -> Result<f64, String> {
    let outcome = LinkPrediction::new(LinkPredictionConfig {
        remove_ratio: HOLDOUT,
        scoring: ScoringStrategy::InnerProduct,
        seed: split_seed(seed),
    })
    .evaluate_pairs(
        &split.train_graph,
        embedding,
        &split.positive_pairs,
        &split.negative_pairs,
    )
    .map_err(|e| format!("link prediction: {e}"))?;
    let auc = outcome.auc;
    if !(AUC_BAND.0..=AUC_BAND.1).contains(&auc) {
        return Err(format!(
            "link AUC {auc} outside the accepted band [{}, {}]",
            AUC_BAND.0, AUC_BAND.1
        ));
    }
    Ok(auc)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create(&format!("embed-sbm-{}", args.seed))?;
    let path = generate(args.seed, &work)?;
    let (split, reads, splits) = setup(&path, args.seed)?;
    let setups: Vec<f64> = reads.iter().zip(&splits).map(|(r, s)| r + s).collect();
    let nrp = Nrp::new(params(args.seed)?);
    let threads = nproc();
    let mut report = Report::default();
    report.note(format!(
        "embed-sbm: n={} train edges={} held-out={} k={DIMENSION} threads={threads}",
        split.train_graph.num_nodes(),
        split.train_graph.num_edges(),
        split.positive_pairs.len()
    ));
    if args.trace {
        traced(args, &nrp, &split, threads, &reads, &splits, &mut report)?;
    } else {
        untraced(args, &nrp, &split, threads, &setups, &mut report)?;
    }
    Ok(report)
}

/// End-to-end run: embeds alternately on `nproc` threads and on one thread
/// until `--seconds` have passed (at least once each), checking every
/// embedding against the first bit for bit.
fn untraced(
    args: &Args,
    nrp: &Nrp,
    split: &LinkSplit,
    threads: usize,
    setups: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let parallel_ctx = EmbedContext::new().with_threads(threads);
    let serial_ctx = EmbedContext::new();
    let start = clock::now();
    let mut parallel_times = Vec::new();
    let mut serial_times = Vec::new();
    let mut reference: Option<Embedding> = None;
    loop {
        for (ctx, times) in [
            (&parallel_ctx, &mut parallel_times),
            (&serial_ctx, &mut serial_times),
        ] {
            let (embedding, secs) = embed_timed(nrp, &split.train_graph, ctx)?;
            times.push(secs);
            report.attempted += 1;
            match &reference {
                None => {
                    if !embedding.is_finite() {
                        return Err("embedding has non-finite entries".into());
                    }
                    reference = Some(embedding);
                }
                Some(r) if !same_embedding(r, &embedding) => {
                    return Err(format!(
                        "embedding on {} thread(s) differs from the first embedding",
                        ctx.thread_budget()
                    ));
                }
                Some(_) => {}
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let reference = reference.expect("at least one embedding ran");
    let auc = link_auc(split, &reference, args.seed)?;
    let embed_s = median(&parallel_times);
    let serial_s = median(&serial_times);
    let rss = peak_rss_mb("self")?;
    report.note(format!(
        "setup_s = {} s (median of {})",
        median(setups),
        setups.len()
    ));
    report.note(format!(
        "embed_s = {embed_s} s on {threads} threads (median of {}); {serial_s} s on 1 thread (median of {})",
        parallel_times.len(),
        serial_times.len()
    ));
    report.note(format!("link_auc = {auc}"));
    report.note(format!("peak_rss_mb = {rss} MB"));
    report.note(format!("failed_ratio = 0 (0 of {})", report.attempted));
    report.set("setup_s", median(setups));
    report.set("peak_rss_mb", rss);
    report.set("ok_ratio", 1.0);
    report.set("latency_ms", embed_s * 1e3);
    report.set("stressed_latency_ms", serial_s * 1e3);
    report.set(
        "throughput_per_s",
        split.train_graph.num_nodes() as f64 / embed_s,
    );
    report.set("quality", auc);
    Ok(())
}

/// Traced run: the same pipeline timed stage by stage from outside, plus
/// the randomized SVD replayed kernel by kernel through `nrp-linalg`'s
/// public functions.  Each decomposition is checked bit for bit against the
/// undecomposed call.
fn traced(
    args: &Args,
    nrp: &Nrp,
    split: &LinkSplit,
    threads: usize,
    reads: &[f64],
    splits: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let graph = &split.train_graph;
    let p = nrp.params().clone();
    let ctx = EmbedContext::new().with_threads(threads);

    // Untraced reference (also warms the context's worker pool).
    let (reference, untraced_s) = embed_timed(nrp, graph, &ctx)?;
    report.attempted += 1;
    if !reference.is_finite() {
        return Err("embedding has non-finite entries".into());
    }
    link_auc(split, &reference, args.seed)?;

    // Nrp::embed composed from its layers: factorize, reweight, scale.
    let approx = ApproxPpr::new(ApproxPprParams {
        half_dimension: p.dimension / 2,
        alpha: p.alpha,
        num_hops: p.num_hops,
        epsilon: p.epsilon,
        svd_method: p.svd_method,
        dangling: p.dangling,
        seed: p.seed,
    });
    let reweight = ReweightConfig {
        epochs: p.reweight_epochs,
        lambda: p.lambda,
        exact_b1: p.exact_b1,
        seed: p.seed.wrapping_add(0x5eed),
    };
    let t0 = clock::now();
    let (mut x, mut y) = approx
        .factorize_with(graph, &ctx)
        .map_err(|e| format!("factorize_with: {e}"))?;
    let t1 = clock::now();
    let weights = learn_weights_with(graph, &x, &y, &reweight, &ctx)
        .map_err(|e| format!("learn_weights_with: {e}"))?;
    let t2 = clock::now();
    let x_raw = x.clone();
    x.scale_rows(&weights.forward).map_err(|e| e.to_string())?;
    y.scale_rows(&weights.backward).map_err(|e| e.to_string())?;
    let composed = Embedding::new(x, y, "NRP").map_err(|e| e.to_string())?;
    let t3 = clock::now();
    report.attempted += 1;
    if !same_embedding(&composed, &reference) {
        return Err(
            "factorize_with + learn_weights_with + scale_rows differs from Nrp::embed".into(),
        );
    }
    let approx_s = (t1 - t0).as_secs_f64();
    let reweight_s = (t2 - t1).as_secs_f64();
    let scale_s = (t3 - t2).as_secs_f64();
    let traced_s = (t3 - t0).as_secs_f64();

    // ApproxPPR decomposed: RandomizedSvd::compute, then the ℓ1 - 1
    // propagation hops.  factorize_with and compute alternate until each
    // has run `TIMED_CALLS` times, and the fastest call of each is kept,
    // so that host noise between separate ~9 s calls does not read as a gap
    // in the decomposition.
    let exec = ctx.exec();
    let n = graph.num_nodes();
    let iterations = RandomizedSvd::iterations_for_epsilon(n, p.epsilon);
    let rank = p.dimension / 2;
    let adjacency = AdjacencyOperator::new(graph);
    let compute = || {
        let t = clock::now();
        let svd = RandomizedSvd::new(rank)
            .iterations(iterations)
            .method(p.svd_method)
            .seed(p.seed)
            .exec(exec.clone())
            .compute(&adjacency)
            .map_err(|e| format!("RandomizedSvd::compute: {e}"))?;
        Ok::<_, String>((svd, t.elapsed().as_secs_f64()))
    };
    let (svd, first_svd_s) = compute()?;
    let (x_hops, propagate_s) = propagate(graph, &svd, p.alpha, p.num_hops, p.dangling, &exec)?;
    report.attempted += 1;
    if !same_bits(&x_hops, &x_raw) {
        return Err("RandomizedSvd::compute + propagation differs from factorize_with".into());
    }
    let mut approx_calls = vec![approx_s];
    let mut svd_calls = vec![first_svd_s];
    while svd_calls.len() < TIMED_CALLS {
        let t = clock::now();
        let (x_again, _) = approx
            .factorize_with(graph, &ctx)
            .map_err(|e| format!("factorize_with: {e}"))?;
        approx_calls.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if !same_bits(&x_again, &x_raw) {
            return Err("a repeated factorize_with differs from the first".into());
        }
        svd_calls.push(compute()?.1);
    }
    let fastest = |calls: &[f64]| calls.iter().copied().fold(f64::INFINITY, f64::min);
    let svd_s = fastest(&svd_calls);
    let approx_fastest_s = fastest(&approx_calls);

    // The SVD replayed kernel by kernel.
    let kernels = replay_svd(
        &adjacency,
        graph.num_arcs(),
        rank,
        iterations,
        p.seed,
        &exec,
    )?;
    report.attempted += 1;
    if !(same_bits(&kernels.u, &svd.u)
        && same_bits(&kernels.v, &svd.v)
        && kernels.singular_values == svd.singular_values)
    {
        return Err("kernel-by-kernel SVD replay differs from RandomizedSvd::compute".into());
    }

    // One-thread embedding: bitwise check and parallel speed-up.
    let (serial, serial_s) = embed_timed(nrp, graph, &EmbedContext::new())?;
    report.attempted += 1;
    if !same_embedding(&serial, &reference) {
        return Err("1-thread embedding differs from the nproc-thread embedding".into());
    }

    report.note(format!(
        "embed_s untraced = {untraced_s} s, traced = {traced_s} s, 1 thread = {serial_s} s"
    ));
    report.note(format!(
        "approx_ppr = svd {svd_s} s + propagate {propagate_s} s (fastest of factorize_with \
         {approx_calls:?} s and compute {svd_calls:?} s); reweight {reweight_s} s; scale {scale_s} s"
    ));
    report.note(format!(
        "svd kernels: orthonormalize {} s, spmm {} s, gram {} s, eig {} s, matmul {} s, hstack {} s \
         (FLOP and byte counts computed from shapes, not measured)",
        kernels.orthonormalize_s,
        kernels.spmm_s,
        kernels.gram_s,
        kernels.eig_s,
        kernels.matmul_s,
        kernels.hstack_s
    ));
    report.set("graph.io.read_s", median(reads));
    report.set("eval.split_s", median(splits));
    report.set("core.approx_ppr_s", approx_fastest_s);
    report.set("core.reweight_s", reweight_s);
    report.set("core.scale_s", scale_s);
    report.set("linalg.svd_s", svd_s);
    report.set("linalg.propagate_s", propagate_s);
    report.set("linalg.eig_s", kernels.eig_s);
    report.set("linalg.eig.gflops", kernels.eig_flops / kernels.eig_s / 1e9);
    report.set("linalg.orthonormalize_s", kernels.orthonormalize_s);
    report.set(
        "linalg.orthonormalize.gflops",
        kernels.orthonormalize_flops / kernels.orthonormalize_s / 1e9,
    );
    report.set("linalg.gram_s", kernels.gram_s);
    report.set(
        "linalg.gram.gflops",
        kernels.gram_flops / kernels.gram_s / 1e9,
    );
    report.set("linalg.matmul_s", kernels.matmul_s);
    report.set(
        "linalg.matmul.gflops",
        kernels.matmul_flops / kernels.matmul_s / 1e9,
    );
    report.set("linalg.spmm_s", kernels.spmm_s);
    report.set(
        "linalg.spmm.gbytes_s",
        kernels.spmm_bytes / kernels.spmm_s / 1e9,
    );
    report.set("linalg.hstack_s", kernels.hstack_s);
    report.set("linalg.svd.krylov_width", kernels.krylov_width as f64);
    report.set("linalg.orthogonality_defect", kernels.orthogonality_defect);
    report.set("parallel.speedup", serial_s / untraced_s);
    report.set("embed.traced_s", traced_s);
    report.set("trace.overhead_ratio", traced_s / untraced_s);
    report.set("trace.coverage.embed", (approx_s + reweight_s) / traced_s);
    report.set(
        "trace.coverage.approx_ppr",
        (svd_s + propagate_s) / approx_fastest_s,
    );
    Ok(())
}

/// Steps 2-4 of ApproxPPR from an SVD, timing only the `ℓ1 - 1` calls to
/// `TransitionOperator::apply_exec`.
fn propagate(
    graph: &Graph,
    svd: &nrp_linalg::SvdResult,
    alpha: f64,
    hops: usize,
    dangling: DanglingPolicy,
    exec: &Exec,
) -> Result<(DenseMatrix, f64), String> {
    let sqrt_sigma: Vec<f64> = svd
        .singular_values
        .iter()
        .map(|s| s.max(0.0).sqrt())
        .collect();
    let transition = TransitionOperator::with_policy(graph, dangling);
    let mut x1 = svd.u.clone();
    x1.scale_cols(&sqrt_sigma).map_err(|e| e.to_string())?;
    x1.scale_rows(transition.inverse_out_degrees())
        .map_err(|e| e.to_string())?;
    let mut x = x1.clone();
    let mut secs = 0.0;
    for _ in 2..=hops {
        let t = clock::now();
        let mut next = transition
            .apply_exec(&x, exec)
            .map_err(|e| format!("TransitionOperator::apply_exec: {e}"))?;
        secs += t.elapsed().as_secs_f64();
        next.scale(1.0 - alpha);
        next.axpy(1.0, &x1).map_err(|e| e.to_string())?;
        x = next;
    }
    x.scale(alpha * (1.0 - alpha));
    Ok((x, secs))
}

/// Per-kernel time and computed work of one replayed randomized SVD.
struct SvdKernels {
    u: DenseMatrix,
    v: DenseMatrix,
    singular_values: Vec<f64>,
    krylov_width: usize,
    orthogonality_defect: f64,
    orthonormalize_s: f64,
    orthonormalize_flops: f64,
    spmm_s: f64,
    spmm_bytes: f64,
    gram_s: f64,
    gram_flops: f64,
    eig_s: f64,
    eig_flops: f64,
    matmul_s: f64,
    matmul_flops: f64,
    hstack_s: f64,
}

/// `RandomizedSvd::compute` (block Krylov) rebuilt from the public kernels
/// it calls, each call timed.  Work counts are computed from shapes:
/// CGS2 `4·n·w²` flops, Gram `2·n·w²`, matmul `2·m·k·p`, the eigensolver
/// the `9·w³` of a dense symmetric eigendecomposition with vectors, and an
/// adjacency product reading the CSR structure plus one `c`-wide row per
/// arc and writing the `n × c` result.
fn replay_svd(
    op: &AdjacencyOperator<'_>,
    nnz: usize,
    rank: usize,
    iterations: usize,
    seed: u64,
    exec: &Exec,
) -> Result<SvdKernels, String> {
    let n = op.nrows();
    let e = |err: nrp_linalg::LinalgError| err.to_string();
    let mut k = SvdKernels {
        u: DenseMatrix::zeros(0, 0),
        v: DenseMatrix::zeros(0, 0),
        singular_values: Vec::new(),
        krylov_width: 0,
        orthogonality_defect: 0.0,
        orthonormalize_s: 0.0,
        orthonormalize_flops: 0.0,
        spmm_s: 0.0,
        spmm_bytes: 0.0,
        gram_s: 0.0,
        gram_flops: 0.0,
        eig_s: 0.0,
        eig_flops: 0.0,
        matmul_s: 0.0,
        matmul_flops: 0.0,
        hstack_s: 0.0,
    };
    let spmm_bytes = |c: usize| (8 * (n + 1) + 4 * nnz + 8 * nnz * c + 8 * n * c) as f64;
    let cgs2_flops = |rows: usize, w: usize| 4.0 * rows as f64 * (w * w) as f64;

    let sketch = (rank + OVERSAMPLE).min(n).max(1);
    let omega = gaussian_matrix(op.ncols(), sketch, seed.wrapping_add(1));
    let spmm = |x: &DenseMatrix, transpose: bool, k: &mut SvdKernels| {
        let t = clock::now();
        let out = if transpose {
            op.apply_transpose_exec(x, exec)
        } else {
            op.apply_exec(x, exec)
        };
        k.spmm_s += t.elapsed().as_secs_f64();
        k.spmm_bytes += spmm_bytes(x.cols());
        out.map_err(e)
    };
    let orth = |a: &DenseMatrix, k: &mut SvdKernels| {
        let t = clock::now();
        let q = orthonormalize_exec(a, exec);
        k.orthonormalize_s += t.elapsed().as_secs_f64();
        k.orthonormalize_flops += cgs2_flops(a.rows(), a.cols());
        q.map_err(e)
    };
    let first = spmm(&omega, false, &mut k)?;
    let mut block = orth(&first, &mut k)?;
    let mut krylov = block.clone();
    for _ in 0..iterations {
        let z = spmm(&block, true, &mut k)?;
        let az = spmm(&z, false, &mut k)?;
        block = orth(&az, &mut k)?;
        let t = clock::now();
        krylov = krylov.hstack(&block).map_err(e)?;
        k.hstack_s += t.elapsed().as_secs_f64();
    }
    let q = orth(&krylov, &mut k)?;
    k.krylov_width = q.cols();
    let w = spmm(&q, true, &mut k)?;
    let t = clock::now();
    let gram = w.gram_exec(exec);
    k.gram_s = t.elapsed().as_secs_f64();
    let width = w.cols() as f64;
    k.gram_flops = 2.0 * w.rows() as f64 * width * width;
    let t = clock::now();
    let eig = symmetric_eigen(&gram).map_err(e)?;
    k.eig_s = t.elapsed().as_secs_f64();
    k.eig_flops = 9.0 * width * width * width;
    let keep = rank.min(eig.values.len());
    let basis = eig.vectors.truncate_cols(keep);
    k.singular_values = eig.values[..keep]
        .iter()
        .map(|&l| l.max(0.0).sqrt())
        .collect();
    let t = clock::now();
    let u = q.matmul_exec(&basis, exec).map_err(e)?;
    let mut v = w.matmul_exec(&basis, exec).map_err(e)?;
    k.matmul_s = t.elapsed().as_secs_f64();
    k.matmul_flops = 2.0 * (q.rows() + w.rows()) as f64 * width * keep as f64;
    let inv: Vec<f64> = k
        .singular_values
        .iter()
        .map(|&s| if s > 1e-300 { 1.0 / s } else { 0.0 })
        .collect();
    v.scale_cols(&inv).map_err(e)?;
    k.u = u;
    k.v = v;
    k.orthogonality_defect = orthogonality_defect(&q);
    Ok(k)
}
