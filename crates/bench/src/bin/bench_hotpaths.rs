//! Headless hot-path benchmark harness: measures the three perf-substrate
//! claims (persistent-pool dispatch vs. sequential, push-workspace reuse vs. fresh
//! allocation, counting-sort vs. comparison-sort CSR assembly) and emits the
//! results as `BENCH_hotpaths.json`, so the perf trajectory of future PRs
//! starts from a measured baseline in this container.
//!
//! ```text
//! cargo run --release -p nrp-bench --bin bench_hotpaths -- [--fast] [--out FILE]
//! ```
//!
//! `--fast` shrinks the workloads for CI smoke runs; `--out` defaults to
//! `BENCH_hotpaths.json` in the working directory.  Every scenario reports
//! the median of its samples; the JSON also records the host parallelism so
//! numbers from different containers are comparable.

use nrp_obs::clock;
use std::sync::Arc;

use nrp_bench::hotpaths::{assembly_triplets, kernel_stream, push_sweep};
use nrp_core::parallel::{Exec, WorkerPool};
use nrp_core::push::PushWorkspace;
use nrp_graph::generators::erdos_renyi_nm;
use nrp_graph::GraphKind;
use nrp_linalg::SparseMatrix;

struct Options {
    fast: bool,
    out: String,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        fast: false,
        out: "BENCH_hotpaths.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => options.fast = true,
            "--out" => {
                options.out = args
                    .next()
                    .ok_or_else(|| "--out requires a file path".to_owned())?;
            }
            other => return Err(format!("unknown flag `{other}` (expected --fast, --out)")),
        }
    }
    Ok(options)
}

/// Median wall-clock seconds of `samples` runs of `f` (after one warm-up).
fn measure<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = clock::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn json_number(value: f64) -> String {
    format!("{value:.9}")
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("bench_hotpaths: {message}");
            std::process::exit(2);
        }
    };
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let samples = if options.fast { 3 } else { 7 };

    // --- 1. Pooled vs. sequential dispatch ------------------------------
    // Many tiny chunk maps: the per-call dispatch overhead dominates, which
    // is the regime an embedding's kernel stream lives in.  A speedup below
    // 1 is that overhead, paid by the pool on every kernel call.
    let threads = 4usize;
    let calls = if options.fast { 50 } else { 300 };
    let stream_n = 1024usize;
    eprintln!("[1/3] dispatch: {calls} kernel calls, budget {threads} (host has {host_threads})");
    let pool = Arc::new(WorkerPool::new(threads));
    let pooled_exec = Exec::pooled(pool, threads);
    let pooled_secs = measure(samples, || {
        std::hint::black_box(kernel_stream(&pooled_exec, calls, stream_n));
    });
    let sequential_exec = Exec::sequential();
    let sequential_secs = measure(samples, || {
        std::hint::black_box(kernel_stream(&sequential_exec, calls, stream_n));
    });
    eprintln!(
        "      pooled {pooled_secs:.6}s  sequential {sequential_secs:.6}s  (pool speedup vs sequential: {:.2}x)",
        sequential_secs / pooled_secs
    );

    // --- 2. Push workspace reuse ----------------------------------------
    let (nodes, edges, sources) = if options.fast {
        (5_000usize, 25_000usize, 128u32)
    } else {
        (50_000, 250_000, 512)
    };
    eprintln!("[2/3] forward push: n={nodes} m={edges}, {sources} sources");
    let graph = erdos_renyi_nm(nodes, edges, GraphKind::Directed, 7).expect("valid ER parameters");
    let fresh_secs = measure(samples, || {
        std::hint::black_box(push_sweep(&graph, sources, None));
    });
    let mut workspace = PushWorkspace::with_capacity(nodes);
    let reused_secs = measure(samples, || {
        std::hint::black_box(push_sweep(&graph, sources, Some(&mut workspace)));
    });
    eprintln!(
        "      fresh {fresh_secs:.6}s  reused {reused_secs:.6}s  (speedup: {:.2}x)",
        fresh_secs / reused_secs
    );

    // --- 3. CSR assembly -------------------------------------------------
    let (rows, nnz) = if options.fast {
        (10_000usize, 100_000usize)
    } else {
        (50_000, 1_000_000)
    };
    eprintln!("[3/3] CSR assembly: {rows}x{rows}, nnz={nnz}");
    let triplets = assembly_triplets(nnz, rows, rows);
    let counting_secs = measure(samples, || {
        std::hint::black_box(
            SparseMatrix::from_triplets(rows, rows, &triplets).expect("valid triplets"),
        );
    });
    let comparison_secs = measure(samples, || {
        std::hint::black_box(
            SparseMatrix::from_triplets_comparison(rows, rows, &triplets).expect("valid triplets"),
        );
    });
    eprintln!(
        "      counting {counting_secs:.6}s  comparison {comparison_secs:.6}s  (speedup: {:.2}x)",
        comparison_secs / counting_secs
    );

    // --- Emit ------------------------------------------------------------
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"hotpaths\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"samples_per_scenario\": {samples},\n",
            "  \"host\": {{ \"available_parallelism\": {host} }},\n",
            "  \"pool_vs_sequential\": {{\n",
            "    \"kernel_calls\": {calls},\n",
            "    \"items_per_call\": {stream_n},\n",
            "    \"thread_budget\": {threads},\n",
            "    \"pooled_secs\": {pooled},\n",
            "    \"sequential_secs\": {sequential},\n",
            "    \"pooled_speedup_vs_sequential\": {dispatch_speedup}\n",
            "  }},\n",
            "  \"push_workspace\": {{\n",
            "    \"nodes\": {nodes},\n",
            "    \"edges\": {edges},\n",
            "    \"sources\": {sources},\n",
            "    \"fresh_secs\": {fresh},\n",
            "    \"reused_secs\": {reused},\n",
            "    \"reused_speedup\": {push_speedup}\n",
            "  }},\n",
            "  \"csr_assembly\": {{\n",
            "    \"rows\": {rows},\n",
            "    \"nnz\": {nnz},\n",
            "    \"counting_sort_secs\": {counting},\n",
            "    \"comparison_sort_secs\": {comparison},\n",
            "    \"counting_speedup\": {csr_speedup}\n",
            "  }}\n",
            "}}\n",
        ),
        mode = if options.fast { "fast" } else { "full" },
        samples = samples,
        host = host_threads,
        calls = calls,
        stream_n = stream_n,
        threads = threads,
        pooled = json_number(pooled_secs),
        sequential = json_number(sequential_secs),
        dispatch_speedup = json_number(sequential_secs / pooled_secs),
        nodes = nodes,
        edges = edges,
        sources = sources,
        fresh = json_number(fresh_secs),
        reused = json_number(reused_secs),
        push_speedup = json_number(fresh_secs / reused_secs),
        rows = rows,
        nnz = nnz,
        counting = json_number(counting_secs),
        comparison = json_number(comparison_secs),
        csr_speedup = json_number(comparison_secs / counting_secs),
    );
    std::fs::write(&options.out, &json).expect("writing the benchmark report");
    eprintln!("wrote {}", options.out);
}
