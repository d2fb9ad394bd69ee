//! # nrp-serve — online embedding/PPR serving
//!
//! The offline pipeline (`nrp-core`) produces embeddings; this crate is the
//! *online* half: a long-lived process that loads a graph and a precomputed
//! [`Embedding`](nrp_core::Embedding), keeps a warm worker pool, and
//! answers queries over HTTP/1.1 — hand-rolled on `std::net`, zero
//! external dependencies, matching the workspace's vendored-only policy.
//!
//! ## Endpoints
//!
//! - `GET /ppr?source=…[&alpha=…&r_max=…&mode=push|exact&top=…]` —
//!   single-source PPR from the hot-source cache, or through the request
//!   batcher on a miss.
//! - `GET /knn?source=…&k=…` — top-K neighbours by embedding score.
//! - `GET /recommend?source=…&k=…` — top-K *unlinked* candidates.
//! - `GET /healthz`, `GET /stats` — liveness and counters.
//! - `GET /metrics` — Prometheus text exposition of every instrument.
//! - `GET /debug/traces` — JSONL ring of recent per-request traces.
//!
//! ## Production concerns reproduced here
//!
//! - **Request batching** ([`batcher`]): concurrent `/ppr` cache misses
//!   coalesce into one multi-source dispatch over the shared
//!   [`WorkerPool`](nrp_core::context::EmbedContext), reusing per-worker
//!   push workspaces.
//! - **Hot-source caching** ([`cache`]): slab-backed LRU keyed by the exact
//!   bit patterns of the query parameters, with hit/miss counters; a hit is
//!   answered on the connection thread and never enters the batcher.
//! - **Graceful shutdown** ([`server`]): in-flight requests drain before
//!   [`Server::shutdown`] returns.
//! - **Overload resilience**: per-request deadlines answered with `504`
//!   ([`batcher`]), bounded-queue and connection-limit load shedding with
//!   `503` + `Retry-After` ([`server`]), and graceful degradation under
//!   sustained pressure ([`degrade`]) — exact-mode `/ppr` downgrades to
//!   forward push, then to cache-only answers, with the state visible in
//!   `/healthz` and `/stats`.
//! - **Fault injection** ([`fault`]): a deterministic, seeded failpoint
//!   registry (behind the `failpoints` cargo feature) that the chaos e2e
//!   suite uses to inject delays, I/O errors, and worker panics at named
//!   sites with a reproducible schedule.
//! - **Client resilience** ([`client`]): keep-alive reconnects, jittered
//!   exponential backoff with a retry budget honouring `Retry-After`, and
//!   a circuit breaker.
//! - **Observability** ([`server`], `nrp-obs`): a process-wide metrics
//!   registry (lock-free counters/gauges/histograms) exported at
//!   `/metrics`, per-endpoint latency/shed/timeout attribution in
//!   `/stats`, and structured per-request traces — `x-trace: 1` on
//!   `/ppr` returns the stage breakdown (parse → admission → queue wait
//!   → batch assembly → kernel compute → serialize) inline, and a
//!   bounded ring of recent traces is served at `/debug/traces`.  Trace
//!   IDs come from a counter, never a clock, and timing never feeds back
//!   into answers, so determinism is untouched.
//! - **Determinism**: a `/ppr` answer is bitwise identical whether it came
//!   from the cache, a coalesced batch, or a direct library call — floats
//!   survive the JSON wire via shortest-round-trip formatting.  Shedding,
//!   deadlines, and degradation only ever *redirect or abort* work; they
//!   never alter a value that is returned.
//!
//! The `bench_serve` binary in `nrp-bench` drives this server with a
//! Zipf-skewed closed-loop load (p50/p99 latency and qps) plus an
//! open-loop overload scenario (shed rate, goodput, bounded p99).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod config;
pub mod degrade;
pub mod fault;
pub mod fixture;
pub mod http;
pub mod server;
pub mod sync;

pub use batcher::{Batcher, JobTiming, PprAnswer, SubmitError};
pub use cache::{CacheKey, CacheSnapshot, PprCache};
pub use client::{
    get_json_once, get_text_once, CircuitBreaker, HttpClient, ResilientClient, RetryPolicy,
};
pub use config::ServeConfig;
pub use degrade::{DegradeController, DegradeLevel};
pub use fixture::fixture;
pub use server::{ServeState, Server};
