//! # nrp — Reweighted Personalized PageRank network embedding
//!
//! Umbrella crate re-exporting the workspace's public API.  This is the crate
//! downstream users depend on; the individual `nrp-*` crates can also be used
//! directly for finer-grained dependencies.
//!
//! The primary API is declarative: describe a method as a
//! [`MethodConfig`](nrp_core::config::MethodConfig) (directly, or parsed from
//! JSON/TOML), turn it into an embedder with [`build`] — any of the eleven
//! methods: NRP, ApproxPPR and the nine baselines — and run it under an
//! [`EmbedContext`](nrp_core::context::EmbedContext) that controls seed,
//! thread budget and cancellation.  See the
//! [`quickstart`](../examples/quickstart.rs) example for a tour.
//!
//! ```
//! use nrp::prelude::*;
//!
//! // Build a tiny graph and embed it with a config that could equally have
//! // come from a JSON or TOML experiment file. Unspecified fields take the
//! // paper's defaults.
//! let graph = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], GraphKind::Undirected).unwrap();
//! let config: MethodConfig =
//!     serde_json::from_str(r#"{"method": "NRP", "dimension": 8, "seed": 7}"#).unwrap();
//! let embedder = nrp::build(&config).unwrap();
//!
//! let output = embedder.embed(&graph, &EmbedContext::new().with_threads(2)).unwrap();
//! assert_eq!(output.embedding().num_nodes(), 5);
//! assert_eq!(output.metadata().config.method_name(), "NRP");
//! assert!(output.metadata().stage("approx_ppr").is_some());
//! ```
//!
//! ## Parallelism & determinism
//!
//! [`EmbedContext::with_threads`](nrp_core::context::EmbedContext::with_threads)
//! grants a thread budget that every heavy stage spends: the randomized
//! block-Krylov SVD (block matmuls, Krylov basis construction, projection),
//! the PPR propagations of ApproxPPR/NRP/RandNE, STRAP's per-source forward
//! pushes, and DeepWalk/node2vec walk generation.  The contract is strict:
//! **the embedding is bitwise identical for every budget, including 1, and
//! with or without AVX2** — threads and vector width only move the wall
//! clock.  Four mechanisms deliver this (the first three built on
//! [`nrp_core::parallel`], re-exported from `nrp-linalg`):
//!
//! * work is split into chunks whose boundaries depend only on the problem
//!   size, merged in ascending chunk order, so floating-point sums are always
//!   grouped the same way;
//! * each output row/chunk is computed by exactly one worker with a fixed
//!   inner iteration order;
//! * random-walk generation uses **per-node RNG streams**
//!   (`ChaCha8 seeded with seed ⊕ node_id`), so a walk's randomness depends
//!   only on the seed and its start node, never on scheduling;
//! * the register-tiled dense kernels behind `matmul_exec`, `gram_exec` and
//!   `orthonormalize_exec` run a portable and an AVX2 copy of one body that
//!   performs the same IEEE multiplies and adds in the same order, and never
//!   fuse them into an FMA (nrp-lint rule D004), so the instruction set
//!   cannot change a bit either.
//!
//! [`RunMetadata`](nrp_core::context::RunMetadata) records the thread count
//! of each stage alongside its wall-clock time.
//!
//! These contracts are machine-enforced: the `nrp-lint` pass
//! (`cargo run -p nrp-lint -- --workspace --deny`, rules D001–D004 and
//! A001/A002) rejects nondeterministic hash iteration, unseeded RNGs, fused
//! multiply-add in `nrp-linalg` and Exec kernels missing from the
//! thread-invariance roster — see the
//! "Project lints" section of `CONTRIBUTING.md`.
//!
//! ## Performance
//!
//! Three substrate pieces keep the constants small (micro-benchmarks of
//! the first two: `cargo bench -p nrp-bench --bench hotpaths`):
//!
//! * **Persistent worker pool.**  A multi-thread
//!   [`EmbedContext`](nrp_core::context::EmbedContext) owns a
//!   [`WorkerPool`](nrp_core::parallel::WorkerPool), created lazily on the
//!   first parallel stage and reused by *every* kernel call of every run
//!   under that context — an embedding issues thousands of small stages
//!   (ℓ1 = 20 propagation hops × block-Krylov iterations × CGS2 passes), and
//!   the pool pays thread spawn once instead of per call.  Pooled and
//!   single-thread runs are bitwise identical; share one pool across
//!   contexts with
//!   [`EmbedContext::with_worker_pool`](nrp_core::context::EmbedContext::with_worker_pool)
//!   (e.g. for a whole benchmark sweep).  Every kernel has one threaded
//!   entry point, `*_exec`, taking an [`Exec`](nrp_core::parallel::Exec)
//!   policy: sequential, or a thread budget on a pool.
//!
//! * **Allocation-free forward push.**  STRAP's per-source pushes run
//!   through a [`PushWorkspace`](nrp_core::push::PushWorkspace) (one per
//!   worker, in thread-local storage): epoch-stamped sparse resets over a
//!   touched-node list make the per-source cost `O(nodes touched)` instead
//!   of `O(n)`, with **zero heap allocation once warm** — enforced by a
//!   counting-allocator test.  Allocation happens only when a workspace
//!   first grows to a graph's size (or up front via
//!   `PushWorkspace::with_capacity`).  Fresh and reused workspaces produce
//!   identical results.
//!
//! * **O(nnz) CSR assembly.**  `SparseMatrix::from_triplets` is a two-pass
//!   stable counting sort (by column, then row) with in-place duplicate
//!   compaction, and `transpose` is a direct CSR→CSC counting pass — no
//!   comparison sort, no triplet round-trip.  Unit tests pin it bitwise
//!   against a comparison-sort reference assembly.
//!
//! The raw-pointer tricks these fast paths lean on are confined to one
//! allowlisted module and every `unsafe` site carries its `// SAFETY:`
//! argument — enforced by `nrp-lint` rules U001/U002 (see the "Project
//! lints" section of `CONTRIBUTING.md`), which also emit a machine-readable
//! unsafe-inventory artifact in CI.
//!
//! **Dangling nodes** (out-degree zero) follow an explicit
//! [`DanglingPolicy`](nrp_core::DanglingPolicy): by default a random walk
//! that reaches one terminates *there* (the node carries an implicit
//! self-loop), so every PPR row sums to 1 and no probability mass leaks out
//! of the truncated series; `DanglingPolicy::Teleport` jumps to a uniformly
//! random node instead (the PageRank classic, also mass-conserving), and the
//! literal zero-row matrix remains available as `DanglingPolicy::ZeroRow`.
//! The policy is part of the NRP/ApproxPPR configuration — a JSON or TOML
//! document selects it with `"dangling": "self-loop" | "teleport" |
//! "zero-row"`.
//!
//! ## Config-file-driven benchmark sweeps
//!
//! The paper's evaluation is a (method × dataset × hyper-parameter) grid;
//! `nrp-bench` makes that grid a *data* change.  Every `fig*`/`table*`
//! binary accepts `--config <file.json|file.toml>` pointing at a
//! `SweepSpec` document: sweep-level fields (`name`, `scale`, `datasets`,
//! `dimension`, `seeds`, `repeats`, `threads`) plus a `methods` list of
//! [`MethodConfig`](nrp_core::MethodConfig) entries that replaces the bin's
//! hard-coded roster.  `fig7_running_time --config …` runs the full grid
//! through the shared `SweepRunner` and streams one
//! [`RunMetadata`](nrp_core::RunMetadata) record per run as RFC-4180 CSV
//! (method, effective config as JSON, seed, thread budget, per-stage wall
//! clock, total).  Checked-in samples live under `configs/`:
//! `fig7.json`/`fig7.toml` reproduce the Fig. 7 roster (including the
//! reduced walk budgets of the sampling-based competitors), `fig10.json`
//! the thread-budget ladder, and `smoke.json` the tiny sweep CI runs.
//!
//! ```text
//! cargo run --release -p nrp-bench --bin fig7_running_time -- \
//!     --scale tiny --config configs/fig7.json
//! ```
//!
//! Explicit flags (`--scale`, `--dim`, `--seed`, `--threads`) win over the
//! corresponding sweep-level fields; unknown or malformed flags print a
//! usage message naming the flag and exit non-zero.
//!
//! Sweeps writing to a file (`--out results.csv`) are **resumable**: cells
//! already recorded as `ok` in an existing file are skipped and new records
//! appended, so an interrupted grid picks up exactly where it left off
//! (failed `err:` cells and a truncated trailing record are retried).
//!
//! **Cancellation** is cooperative and fine-grained: besides stage
//! boundaries, the SGNS/NCE training loops (DeepWalk, node2vec, LINE, VERSE,
//! APP) check the flag every 1024 SGD steps, so even a single enormous epoch
//! aborts in milliseconds, and STRAP's push fan-out checks it before every
//! source (latency bounded by one forward-push pair).  With
//! [`EmbedContext::with_partial_results`](nrp_core::context::EmbedContext::with_partial_results)
//! a raised flag returns the *best embedding so far* instead of an error:
//! ApproxPPR keeps the hops already folded (a shorter truncated series is
//! still a valid embedding), reweighting keeps the completed epochs'
//! weights, and SGNS training ends at the current step.  Cancellation
//! before any work has produced an embedding still errors with
//! `NrpError::Cancelled`.
//!
//! ## Serving
//!
//! `nrp-serve` is the *online* half of the system: a long-lived process
//! that loads a graph and a precomputed
//! [`Embedding`](nrp_core::embedding::Embedding) (saved with
//! `Embedding::save`), keeps a warm worker pool, and answers queries over
//! HTTP/1.1 — hand-rolled on `std::net`, zero external dependencies.
//!
//! * `GET /ppr?source=…[&alpha=…&r_max=…&mode=push|exact&top=…]` —
//!   single-source PPR.  A slab-backed **LRU hot-source cache**, keyed by
//!   the exact bit patterns of the parameters, answers hits on the
//!   connection thread; concurrent misses **coalesce into one batched
//!   multi-source dispatch** over the shared worker pool (reusing
//!   per-worker push workspaces), and their answers land in the cache.
//!   An answer is bitwise identical whether it came from the cache, a
//!   coalesced batch, or a direct
//!   [`forward_push`](nrp_core::push::forward_push) /
//!   [`single_source_ppr`](nrp_core::ppr::single_source_ppr) call — floats
//!   survive the JSON wire via shortest-round-trip formatting.
//! * `GET /knn?source=…&k=…` / `GET /recommend?source=…&k=…` — top-K by
//!   embedding score (`/recommend` restricts to unlinked candidates, the
//!   link-prediction serving path).
//! * `GET /healthz` / `GET /stats` — liveness, cache hit/miss counters,
//!   batch coalescing counters, per-endpoint request counts and latency
//!   quantiles.
//! * `GET /metrics` — Prometheus text exposition of every instrument
//!   (latency histograms, queue depth, pool utilization, cache and
//!   degrade counters).
//! * `GET /debug/traces` — JSONL ring of recent per-request stage
//!   breakdowns; `x-trace: 1` on `/ppr` returns the same breakdown
//!   inline.
//!
//! Quickstart (no data files needed — `--fixture` builds a Barabási–Albert
//! graph and trains a small NRP embedding in-process):
//!
//! ```text
//! cargo run --release -p nrp-serve --bin nrp_serve -- --fixture 500 --threads 4
//! # nrp-serve listening on 127.0.0.1:7878
//! curl 'http://127.0.0.1:7878/ppr?source=3&top=5'
//! curl 'http://127.0.0.1:7878/knn?source=3&k=10'
//! curl 'http://127.0.0.1:7878/stats'
//! echo shutdown | …   # or Ctrl-D: drains in-flight requests, then exits
//! ```
//!
//! Real deployments use `--config configs/serve.json` (graph edge-list
//! path, embedding path, listen address, cache capacity, thread budget).
//! Shutdown is graceful: the listener stops accepting, every connection
//! finishes the request it is serving, the batcher drains its queue.  The
//! repository benchmark (`perfbench/`, workloads `serve-hot` and
//! `serve-cold`) drives the real daemon over TCP and reports latency,
//! throughput and a per-stage breakdown of a served request.
//!
//! ## Robustness
//!
//! The serving layer is engineered to stay up, bounded, and honest under
//! overload; every mechanism below is deterministic enough to be tested
//! exactly (see `crates/serve/tests/chaos_e2e.rs` and CONTRIBUTING.md
//! § "Robustness").
//!
//! **Deadlines.**  A `/ppr` request's deadline is the `x-deadline-ms`
//! header when present, else the configured `deadline_ms` (0 = none).
//! The deadline rides into the batcher: the waiting connection gives up
//! with a `504` when it expires, the dispatcher sheds queued jobs that
//! already missed theirs without computing them, and exact-mode batches
//! propagate the latest waiter deadline into the power iteration through
//! [`EmbedContext`](nrp_core::context::EmbedContext) cancellation, so a
//! worker never burns CPU on an answer nobody is waiting for.
//!
//! **Load shedding.**  Two admission bounds — the batcher queue
//! (`queue_capacity`) and the connection budget (`max_connections`) —
//! turn excess load into *immediate*, well-formed `503` answers carrying
//! `Retry-After`, instead of unbounded queueing.  Shed, timeout, and
//! rejection counters are exported on `/stats` under `resilience`.
//!
//! **Graceful degradation.**  Sustained pressure (shed/timeout events
//! crossing `degrade_threshold` within `degrade_window_ms`) steps the
//! server down a ladder: `normal` → `degraded` (exact-mode `/ppr`
//! downgrades to forward push; answers carry `"degraded": true` and are
//! bitwise identical to a direct
//! [`forward_push`](nrp_core::push::forward_push) call) → `cache-only`
//! (only cached answers serve; the rest shed).  Quiet periods
//! (`degrade_recover_ms`) walk it back one rung at a time; the current
//! rung is visible on `/healthz` and `/stats`.
//!
//! **Client-side resilience.**  `nrp_serve::ResilientClient` wraps the
//! keep-alive `HttpClient` (which transparently redials stale
//! connections, surviving server restarts mid-session) with seeded
//! full-jitter exponential backoff, a retry budget, `Retry-After`
//! honouring, and a consecutive-failure circuit breaker.
//!
//! **Deterministic fault injection.**  `--features failpoints` compiles a
//! seeded failpoint registry (`nrp_serve::fault`) into the serving path:
//! a spec like `conn.read=io-error:0.5:64;batcher.compute=panic:1.0:3`
//! injects socket errors, compute delays, or worker panics as a pure
//! function of `(seed, site, hit)` — the same seed replays the same
//! injection schedule bit for bit, which is what lets the chaos suite
//! assert exact outcomes.  Without the feature the hooks compile away.
//!
//! ## Observability
//!
//! Telemetry lives in `nrp-obs`, a std-only crate below `nrp-linalg`, so
//! every layer instruments itself without new dependencies.  Three pieces:
//!
//! * **Metrics registry** (`nrp_obs::MetricsRegistry` behind a clonable
//!   [`MetricsHandle`](nrp_obs::MetricsHandle)) — counters, gauges, and
//!   log-linear histograms.  Instruments resolve once at startup; the hot
//!   path is a couple of relaxed atomic ops, and a no-op handle
//!   ([`MetricsHandle::noop`](nrp_obs::MetricsHandle::noop), the offline
//!   default of `EmbedContext`) makes every instrument inert.  The server
//!   exports the registry at `GET /metrics` (Prometheus text) and derives
//!   additional families at scrape time from the counters subsystems
//!   already keep.
//! * **Structured traces** (`nrp_obs::{Span, TraceContext, TraceLog}`) —
//!   each `/ppr` request records disjoint stage intervals (parse →
//!   admission → queue wait → batch assembly → kernel compute →
//!   serialize); the sum can never exceed the handler total.  Trace IDs
//!   come from a per-server counter, never a clock or RNG.
//! * **A single clock owner** (`nrp_obs::clock`) — the only non-test code
//!   allowed to call `Instant::now()` directly (lint rule O001); kernel
//!   crates may not read the clock at all (D002).  Timing is
//!   observational only: nothing measured feeds back into answers, cache
//!   keys, or batch decisions, so the bitwise determinism contract is
//!   untouched.  `StageClock` — the per-stage timer every
//!   [`EmbedOutput`](nrp_core::context::EmbedOutput) carries — lives here
//!   too.
//!
//! Worker-pool utilization (`nrp_pool_*`), batcher queue depth and stage
//! histograms (`nrp_batch_*`), per-endpoint latency/shed/timeout series
//! (`nrp_serve_*`), and cache/degrade counters are always wired into the
//! server.

pub use nrp_baselines as baselines;
pub use nrp_core as core;
pub use nrp_eval as eval;
pub use nrp_graph as graph;
pub use nrp_linalg as linalg;
pub use nrp_obs as obs;
pub use nrp_serve as serve;

pub use nrp_baselines::build;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use nrp_baselines::{
        app::App, arope::Arope, build, deepwalk::DeepWalk, line::Line, node2vec::Node2Vec,
        randne::RandNe, spectral::SpectralEmbedding, strap::Strap, verse::Verse,
    };
    pub use nrp_core::{
        approx_ppr::{ApproxPpr, ApproxPprParams},
        config::MethodConfig,
        context::{EmbedContext, EmbedOutput, RunMetadata, StageClock, StageTiming},
        embedding::{Embedder, Embedding},
        error::NrpError,
        nrp::{Nrp, NrpParams},
        ppr::PprMatrix,
    };
    pub use nrp_eval::{
        classification::{ClassificationConfig, NodeClassification},
        link_prediction::{LinkPrediction, LinkPredictionConfig, ScoringStrategy},
        reconstruction::{GraphReconstruction, ReconstructionConfig},
    };
    pub use nrp_graph::{generators, Graph, GraphError, GraphKind, NodeId};
}
