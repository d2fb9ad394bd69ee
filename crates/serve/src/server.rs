//! The long-lived server: shared state, the endpoint router and the
//! accept loop with graceful drain-on-shutdown.
//!
//! ## Endpoints
//!
//! | Endpoint     | Parameters | Answer |
//! |--------------|------------|--------|
//! | `GET /healthz` | — | liveness + graph size |
//! | `GET /stats` | — | cache/batch/request counters, uptime |
//! | `GET /ppr` | `source` (required), `alpha`, `r_max`, `mode=push\|exact`, `top` | single-source PPR from the cache, or through the batcher on a miss |
//! | `GET /knn` | `source` (required), `k` | top-K nearest neighbours by embedding score |
//! | `GET /recommend` | `source` (required), `k` | top-K *unlinked* candidates (link prediction) |
//! | `GET /metrics` | — | Prometheus text exposition of every instrument family |
//! | `GET /debug/traces` | — | JSONL dump of the most recent per-request traces |
//!
//! `/ppr` also honours two telemetry headers: `x-trace: 1` adds a `trace`
//! block (deterministic trace ID plus per-stage microseconds: parse,
//! admission, queue_wait, batch_assembly, kernel_compute, serialize) to the
//! response, and every `/ppr` request — traced or not — records its stage
//! breakdown into the bounded ring served at `/debug/traces`.  Admission
//! includes the one cache probe, made on the connection thread: a hit is
//! answered there and reports 0 for the three batcher stages, and only a
//! miss waits on the batcher.
//!
//! Every response is JSON.  `/ppr` answers are **bitwise identical** to
//! calling [`forward_push`](nrp_core::push::forward_push) /
//! [`single_source_ppr`](nrp_core::ppr::single_source_ppr) directly,
//! whether they came from the cache, a coalesced batch or a fresh
//! computation — the vendored JSON printer renders finite `f64`s with
//! Rust's shortest-round-trip formatting, so the contract survives the
//! wire.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nrp_core::{EmbedContext, Embedding};
use nrp_graph::{Graph, GraphKind};
use nrp_obs::{
    clock, Counter, FamilySnapshot, Histogram, MetricKind, MetricsHandle, MetricsSnapshot,
    SeriesSnapshot, SeriesValue, Span, TraceContext, TraceIds, TraceLog,
};

use crate::batcher::{Batcher, JobTiming, PprAnswer, SubmitError};
use crate::cache::{CacheKey, PprCache};
use crate::config::ServeConfig;
use crate::degrade::{DegradeController, DegradeLevel};
use crate::http::{read_request, write_response, HttpLimits, Request, Response};
use crate::sync::lock_unpoisoned;

/// How often an idle keep-alive connection polls the shutdown flag.  The
/// socket read timeout is this poll interval, not the configured idle
/// timeout, so shutdown never waits longer than one tick on idle peers.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Per-endpoint request counters.
#[derive(Debug, Default)]
pub struct RequestCounters {
    /// Total requests parsed.
    pub total: AtomicU64,
    /// `/healthz` hits.
    pub healthz: AtomicU64,
    /// `/stats` hits.
    pub stats: AtomicU64,
    /// `/ppr` hits.
    pub ppr: AtomicU64,
    /// `/knn` hits.
    pub knn: AtomicU64,
    /// `/recommend` hits.
    pub recommend: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Requests rejected at the HTTP layer (malformed, oversized, …).
    pub bad_requests: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests shed with `503` (full queue, cache-only miss, shutdown).
    pub shed: AtomicU64,
    /// Requests answered `504` because their deadline expired.
    pub timeouts: AtomicU64,
    /// Exact-mode `/ppr` requests downgraded to forward push.
    pub degraded: AtomicU64,
    /// Responses that carried a `Retry-After` header.
    pub retry_after: AtomicU64,
    /// Connections rejected at the accept loop (in-flight limit).
    pub conn_rejected: AtomicU64,
    /// `/metrics` hits.
    pub metrics: AtomicU64,
    /// `/debug/traces` hits.
    pub traces: AtomicU64,
}

/// One endpoint's registry-backed instruments, resolved once at startup so
/// the request path never touches the registry lock.
struct EndpointMetrics {
    /// This endpoint's wire name (the `endpoint` label value).
    name: &'static str,
    /// End-to-end handler latency, microseconds.
    latency_us: Histogram,
    /// Requests this endpoint answered `503`.
    shed: Counter,
    /// Requests this endpoint answered `504`.
    timeouts: Counter,
}

impl EndpointMetrics {
    fn new(metrics: &MetricsHandle, name: &'static str) -> Self {
        let labels: &[(&str, &str)] = &[("endpoint", name)];
        Self {
            name,
            latency_us: metrics.histogram_with(
                "nrp_serve_request_latency_us",
                "End-to-end handler latency per endpoint, microseconds.",
                labels,
            ),
            shed: metrics.counter_with(
                "nrp_serve_shed_total",
                "Requests answered 503 (load shed), per endpoint.",
                labels,
            ),
            timeouts: metrics.counter_with(
                "nrp_serve_timeouts_total",
                "Requests answered 504 (deadline exceeded), per endpoint.",
                labels,
            ),
        }
    }
}

/// The server's per-endpoint instruments.  Everything else on `/metrics`
/// (cache, batch counters, degrade transitions, request totals) is derived
/// at scrape time from the counters the subsystems already keep.
struct ServeMetrics {
    endpoints: Vec<EndpointMetrics>,
}

impl ServeMetrics {
    fn new(metrics: &MetricsHandle) -> Self {
        Self {
            endpoints: ["/ppr", "/knn", "/recommend", "/healthz", "/stats"]
                .iter()
                .map(|name| EndpointMetrics::new(metrics, name))
                .collect(),
        }
    }

    fn endpoint(&self, path: &str) -> Option<&EndpointMetrics> {
        self.endpoints.iter().find(|e| e.name == path)
    }
}

/// Everything the handlers share: the graph, the (optional) embedding, the
/// cache, the batching dispatcher and the counters.
pub struct ServeState {
    graph: Arc<Graph>,
    embedding: Option<Arc<Embedding>>,
    config: ServeConfig,
    cache: Arc<Mutex<PprCache>>,
    batcher: Batcher,
    counters: RequestCounters,
    degrade: DegradeController,
    /// Connections currently being served (the accept-loop admission gauge).
    inflight: AtomicUsize,
    started: Instant,
    /// The registry handle every subsystem resolved its instruments from.
    metrics: MetricsHandle,
    serve_metrics: ServeMetrics,
    trace_ids: TraceIds,
    trace_log: TraceLog,
}

impl ServeState {
    /// Assembles the state: builds the cache, spawns the batching
    /// dispatcher on a warm [`EmbedContext`] worker pool sized by
    /// `config.threads`, and resolves every telemetry instrument from one
    /// server-scoped registry.
    pub fn new(graph: Graph, embedding: Option<Embedding>, config: ServeConfig) -> Self {
        let graph = Arc::new(graph);
        let cache = Arc::new(Mutex::new(PprCache::new(config.cache_capacity)));
        let metrics = MetricsHandle::enabled();
        let serve_metrics = ServeMetrics::new(&metrics);
        let ctx = EmbedContext::new()
            .with_threads(config.threads)
            .with_metrics(metrics.clone());
        let batcher = Batcher::new(
            Arc::clone(&graph),
            config.dangling,
            ctx,
            Arc::clone(&cache),
            config.max_batch,
            config.queue_capacity,
        );
        let degrade = DegradeController::new(
            config.degrade_threshold,
            config.degrade_window_ms,
            config.degrade_recover_ms,
        );
        let trace_log = TraceLog::new(config.trace_capacity);
        Self {
            graph,
            embedding: embedding.map(Arc::new),
            config,
            cache,
            batcher,
            counters: RequestCounters::default(),
            degrade,
            inflight: AtomicUsize::new(0),
            started: clock::now(),
            metrics,
            serve_metrics,
            trace_ids: TraceIds::new(),
            trace_log,
        }
    }

    /// Milliseconds since this state was built — the clock the degradation
    /// controller runs on.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The degradation level currently in effect.
    pub fn degrade_level(&self) -> DegradeLevel {
        self.degrade.level(self.now_ms())
    }

    /// Pins the degradation level (tests and operator overrides).
    pub fn force_degrade(&self, level: DegradeLevel) {
        self.degrade.force(level, self.now_ms());
    }

    /// The graph being served.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The HTTP parsing limits derived from the configuration.
    pub fn limits(&self) -> HttpLimits {
        HttpLimits {
            max_body: self.config.max_body_bytes,
            ..HttpLimits::default()
        }
    }

    /// Routes one parsed request to its handler, attributing latency and
    /// shed/timeout outcomes to the endpoint that produced them.
    pub fn handle(&self, request: &Request) -> Response {
        let started = clock::now();
        self.counters.total.fetch_add(1, Ordering::Relaxed);
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                self.counters.healthz.fetch_add(1, Ordering::Relaxed);
                self.handle_healthz()
            }
            ("GET", "/stats") => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                self.handle_stats()
            }
            ("GET", "/ppr") => {
                self.counters.ppr.fetch_add(1, Ordering::Relaxed);
                self.handle_ppr(request)
            }
            ("GET", "/knn") => {
                self.counters.knn.fetch_add(1, Ordering::Relaxed);
                self.handle_topk(request, false)
            }
            ("GET", "/recommend") => {
                self.counters.recommend.fetch_add(1, Ordering::Relaxed);
                self.handle_topk(request, true)
            }
            ("GET", "/metrics") => {
                self.counters.metrics.fetch_add(1, Ordering::Relaxed);
                self.handle_metrics()
            }
            ("GET", "/debug/traces") => {
                self.counters.traces.fetch_add(1, Ordering::Relaxed);
                self.handle_traces()
            }
            (
                _,
                "/healthz" | "/stats" | "/ppr" | "/knn" | "/recommend" | "/metrics"
                | "/debug/traces",
            ) => error_response(405, "only GET is supported"),
            _ => error_response(404, &format!("no such endpoint `{}`", request.path)),
        };
        if response.status >= 400 {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        // Central attribution: one place classifies every outcome, so the
        // per-endpoint shed/timeout split cannot drift from the handlers.
        if let Some(endpoint) = self.serve_metrics.endpoint(request.path.as_str()) {
            endpoint.latency_us.observe(clock::micros_since(started));
            match response.status {
                503 => endpoint.shed.inc(),
                504 => endpoint.timeouts.inc(),
                _ => {}
            }
        }
        response
    }

    fn handle_healthz(&self) -> Response {
        let mut object = serde::Map::new();
        object.insert("status", serde::Value::String("ok".into()));
        object.insert(
            "state",
            serde::Value::String(self.degrade_level().as_str().into()),
        );
        object.insert("nodes", serde::Serialize::to_value(&self.graph.num_nodes()));
        object.insert(
            "inflight",
            serde::Serialize::to_value(&self.inflight.load(Ordering::Relaxed)),
        );
        object.insert(
            "uptime_secs",
            serde::Serialize::to_value(&self.started.elapsed().as_secs_f64()),
        );
        json_response(200, serde::Value::Object(object))
    }

    /// `GET /metrics`: the registry's instrument families plus the derived
    /// families (request totals, cache, batch, degrade, process gauges) in
    /// the Prometheus text exposition format.
    fn handle_metrics(&self) -> Response {
        let mut snapshot = self.metrics.snapshot();
        self.append_derived_families(&mut snapshot);
        Response {
            status: 200,
            body: snapshot.render_prometheus().into_bytes(),
            content_type: "text/plain; version=0.0.4",
            keep_alive: true,
            retry_after: None,
        }
    }

    /// `GET /debug/traces`: the trace ring as JSONL, oldest first.
    fn handle_traces(&self) -> Response {
        Response {
            status: 200,
            body: self.trace_log.dump_jsonl().into_bytes(),
            content_type: "application/x-ndjson",
            keep_alive: true,
            retry_after: None,
        }
    }

    /// Families derived from counters that live outside the registry (the
    /// request/cache/batch/degrade atomics predate it and `/stats` still
    /// reads them directly); deriving at scrape time keeps one source of
    /// truth per number.
    fn append_derived_families(&self, snapshot: &mut MetricsSnapshot) {
        let c = &self.counters;
        let per_endpoint: Vec<(&str, u64)> = vec![
            ("/healthz", c.healthz.load(Ordering::Relaxed)),
            ("/stats", c.stats.load(Ordering::Relaxed)),
            ("/ppr", c.ppr.load(Ordering::Relaxed)),
            ("/knn", c.knn.load(Ordering::Relaxed)),
            ("/recommend", c.recommend.load(Ordering::Relaxed)),
            ("/metrics", c.metrics.load(Ordering::Relaxed)),
            ("/debug/traces", c.traces.load(Ordering::Relaxed)),
        ];
        snapshot.push_family(FamilySnapshot {
            name: "nrp_serve_requests_total".into(),
            help: "Requests routed, per endpoint.".into(),
            kind: MetricKind::Counter,
            series: per_endpoint
                .into_iter()
                .map(|(endpoint, v)| SeriesSnapshot {
                    labels: vec![("endpoint".into(), endpoint.into())],
                    value: SeriesValue::Counter(v),
                })
                .collect(),
        });
        for (name, help, value) in [
            (
                "nrp_serve_errors_total",
                "Responses with a 4xx/5xx status.",
                c.errors.load(Ordering::Relaxed),
            ),
            (
                "nrp_serve_bad_requests_total",
                "Requests rejected at the HTTP layer.",
                c.bad_requests.load(Ordering::Relaxed),
            ),
            (
                "nrp_serve_connections_total",
                "Connections accepted.",
                c.connections.load(Ordering::Relaxed),
            ),
            (
                "nrp_serve_conn_rejected_total",
                "Connections rejected at the accept loop (in-flight limit).",
                c.conn_rejected.load(Ordering::Relaxed),
            ),
            (
                "nrp_serve_degraded_total",
                "Exact-mode /ppr requests downgraded to forward push.",
                c.degraded.load(Ordering::Relaxed),
            ),
            (
                "nrp_serve_retry_after_total",
                "Responses that carried a Retry-After header.",
                c.retry_after.load(Ordering::Relaxed),
            ),
            (
                "nrp_degrade_escalations_total",
                "Degrade-ladder rungs stepped up under pressure.",
                self.degrade.escalations(),
            ),
            (
                "nrp_degrade_recoveries_total",
                "Degrade-ladder rungs stepped down after quiet periods.",
                self.degrade.recoveries(),
            ),
        ] {
            snapshot.push_family(unlabeled(name, help, MetricKind::Counter, value));
        }
        // nrp-lint: allow(K003) — resolves to `PprCache::snapshot`, which only copies counters under the cache lock
        let cache = lock_unpoisoned(&self.cache).snapshot();
        for (name, help, value) in [
            ("nrp_cache_hits_total", "Hot-source cache hits.", cache.hits),
            (
                "nrp_cache_misses_total",
                "Hot-source cache misses.",
                cache.misses,
            ),
            (
                "nrp_cache_insertions_total",
                "Hot-source cache insertions.",
                cache.insertions,
            ),
            (
                "nrp_cache_evictions_total",
                "Hot-source cache LRU evictions.",
                cache.evictions,
            ),
        ] {
            snapshot.push_family(unlabeled(name, help, MetricKind::Counter, value));
        }
        snapshot.push_family(unlabeled(
            "nrp_cache_entries",
            "Hot-source cache entries currently resident.",
            MetricKind::Gauge,
            cache.len as u64,
        ));
        let batch = self.batcher.snapshot();
        for (name, help, value) in [
            (
                "nrp_batch_batches_total",
                "Dispatcher wake-ups that processed at least one job.",
                batch.batches,
            ),
            (
                "nrp_batch_jobs_total",
                "Jobs submitted to the batcher.",
                batch.jobs,
            ),
            (
                "nrp_batch_coalesced_total",
                "Jobs that shared a computation with an identical concurrent key.",
                batch.coalesced,
            ),
            (
                "nrp_batch_computed_total",
                "Unique keys computed (coalesced duplicates count once).",
                batch.computed,
            ),
            (
                "nrp_batch_expired_total",
                "Queued jobs shed because their deadline had already passed.",
                batch.expired,
            ),
            (
                "nrp_batch_panics_total",
                "Per-key computations that panicked (caught).",
                batch.panics,
            ),
        ] {
            snapshot.push_family(unlabeled(name, help, MetricKind::Counter, value));
        }
        snapshot.push_family(unlabeled(
            "nrp_degrade_state",
            "Current degrade-ladder rung (0=normal, 1=degraded, 2=cache-only).",
            MetricKind::Gauge,
            self.degrade_level() as u64,
        ));
        snapshot.push_family(unlabeled(
            "nrp_serve_inflight_connections",
            "Connections currently being served.",
            MetricKind::Gauge,
            self.inflight.load(Ordering::Relaxed) as u64,
        ));
        snapshot.push_family(unlabeled(
            "nrp_serve_uptime_seconds",
            "Whole seconds since the server state was built.",
            MetricKind::Gauge,
            self.started.elapsed().as_secs(),
        ));
    }

    fn handle_stats(&self) -> Response {
        // nrp-lint: allow(K003) — resolves to `PprCache::snapshot`, which only copies counters under the cache lock
        let cache = lock_unpoisoned(&self.cache).snapshot();
        let batch = self.batcher.snapshot();
        let c = &self.counters;
        let mut cache_object = serde::Map::new();
        cache_object.insert("hits", serde::Serialize::to_value(&cache.hits));
        cache_object.insert("misses", serde::Serialize::to_value(&cache.misses));
        cache_object.insert("insertions", serde::Serialize::to_value(&cache.insertions));
        cache_object.insert("evictions", serde::Serialize::to_value(&cache.evictions));
        cache_object.insert("len", serde::Serialize::to_value(&cache.len));
        cache_object.insert("capacity", serde::Serialize::to_value(&cache.capacity));
        let mut batch_object = serde::Map::new();
        batch_object.insert("batches", serde::Serialize::to_value(&batch.batches));
        batch_object.insert("jobs", serde::Serialize::to_value(&batch.jobs));
        batch_object.insert("coalesced", serde::Serialize::to_value(&batch.coalesced));
        batch_object.insert("max_batch", serde::Serialize::to_value(&batch.max_batch));
        batch_object.insert("computed", serde::Serialize::to_value(&batch.computed));
        batch_object.insert("expired", serde::Serialize::to_value(&batch.expired));
        batch_object.insert("panics", serde::Serialize::to_value(&batch.panics));
        batch_object.insert(
            "queue_depth",
            serde::Serialize::to_value(&batch.queue_depth),
        );
        let mut requests = serde::Map::new();
        for (name, counter) in [
            ("total", &c.total),
            ("healthz", &c.healthz),
            ("stats", &c.stats),
            ("ppr", &c.ppr),
            ("knn", &c.knn),
            ("recommend", &c.recommend),
            ("metrics", &c.metrics),
            ("traces", &c.traces),
            ("errors", &c.errors),
            ("bad_requests", &c.bad_requests),
            ("connections", &c.connections),
        ] {
            requests.insert(
                name,
                serde::Serialize::to_value(&counter.load(Ordering::Relaxed)),
            );
        }
        let mut graph_object = serde::Map::new();
        graph_object.insert("nodes", serde::Serialize::to_value(&self.graph.num_nodes()));
        graph_object.insert("arcs", serde::Serialize::to_value(&self.graph.num_arcs()));
        graph_object.insert(
            "kind",
            serde::Value::String(
                match self.graph.kind() {
                    GraphKind::Directed => "directed",
                    GraphKind::Undirected => "undirected",
                }
                .into(),
            ),
        );
        let mut embedding_object = serde::Map::new();
        embedding_object.insert("loaded", serde::Value::Bool(self.embedding.is_some()));
        if let Some(embedding) = &self.embedding {
            embedding_object.insert("method", serde::Value::String(embedding.method().into()));
            embedding_object.insert(
                "dimension",
                serde::Serialize::to_value(&embedding.dimension()),
            );
        }
        let mut resilience = serde::Map::new();
        resilience.insert(
            "state",
            serde::Value::String(self.degrade_level().as_str().into()),
        );
        for (name, counter) in [
            ("shed", &c.shed),
            ("timeouts", &c.timeouts),
            ("degraded", &c.degraded),
            ("retry_after", &c.retry_after),
            ("conn_rejected", &c.conn_rejected),
        ] {
            resilience.insert(
                name,
                serde::Serialize::to_value(&counter.load(Ordering::Relaxed)),
            );
        }
        resilience.insert(
            "escalations",
            serde::Serialize::to_value(&self.degrade.escalations()),
        );
        resilience.insert(
            "recoveries",
            serde::Serialize::to_value(&self.degrade.recoveries()),
        );
        // Per-endpoint shed/timeout split, read from the registry counters
        // the router maintains.
        let mut by_endpoint = serde::Map::new();
        for endpoint in &self.serve_metrics.endpoints {
            let mut entry = serde::Map::new();
            entry.insert("shed", serde::Serialize::to_value(&endpoint.shed.value()));
            entry.insert(
                "timeouts",
                serde::Serialize::to_value(&endpoint.timeouts.value()),
            );
            by_endpoint.insert(endpoint.name, serde::Value::Object(entry));
        }
        resilience.insert("by_endpoint", serde::Value::Object(by_endpoint));
        resilience.insert(
            "inflight",
            serde::Serialize::to_value(&self.inflight.load(Ordering::Relaxed)),
        );
        resilience.insert(
            "queue_capacity",
            serde::Serialize::to_value(&self.config.queue_capacity),
        );
        resilience.insert(
            "max_connections",
            serde::Serialize::to_value(&self.config.max_connections),
        );
        // Per-endpoint latency quantiles from the registry histograms.
        let mut latency = serde::Map::new();
        for endpoint in &self.serve_metrics.endpoints {
            let snapshot = endpoint.latency_us.snapshot();
            let mut entry = serde::Map::new();
            entry.insert("count", serde::Serialize::to_value(&snapshot.count()));
            entry.insert(
                "p50_us",
                serde::Serialize::to_value(&snapshot.quantile(0.5)),
            );
            entry.insert(
                "p99_us",
                serde::Serialize::to_value(&snapshot.quantile(0.99)),
            );
            latency.insert(endpoint.name, serde::Value::Object(entry));
        }
        let mut telemetry = serde::Map::new();
        telemetry.insert(
            "trace_capacity",
            serde::Serialize::to_value(&self.config.trace_capacity),
        );
        telemetry.insert(
            "traces_retained",
            serde::Serialize::to_value(&self.trace_log.len()),
        );
        let mut object = serde::Map::new();
        object.insert(
            "uptime_secs",
            serde::Serialize::to_value(&self.started.elapsed().as_secs_f64()),
        );
        object.insert("threads", serde::Serialize::to_value(&self.config.threads));
        object.insert("graph", serde::Value::Object(graph_object));
        object.insert("embedding", serde::Value::Object(embedding_object));
        object.insert("cache", serde::Value::Object(cache_object));
        object.insert("batch", serde::Value::Object(batch_object));
        object.insert("requests", serde::Value::Object(requests));
        object.insert("resilience", serde::Value::Object(resilience));
        object.insert("latency", serde::Value::Object(latency));
        object.insert("telemetry", serde::Value::Object(telemetry));
        json_response(200, serde::Value::Object(object))
    }

    /// `/ppr` with per-request latency attribution: every request records a
    /// stage breakdown (parse → admission → queue_wait → batch_assembly →
    /// kernel_compute → serialize) into the trace ring, and `x-trace: 1`
    /// additionally inlines it into the response.
    fn handle_ppr(&self, request: &Request) -> Response {
        let mut trace = TraceContext::new(self.trace_ids.next_id());
        let result = self.ppr_inner(request, &mut trace);
        let status = match &result {
            Ok(_) => 200,
            Err(response) => response.status,
        };
        let event = trace.finish("/ppr", status);
        let response = match result {
            Ok(mut object) => {
                if request.header("x-trace").map(str::trim) == Some("1") {
                    object.insert("trace", trace_value(&event));
                }
                json_response(200, serde::Value::Object(object))
            }
            Err(response) => response,
        };
        // nrp-lint: allow(R001) — `TraceLog::push` evicts oldest-first: the ring never exceeds its fixed capacity
        self.trace_log.push(event);
        response
    }

    /// The `/ppr` pipeline proper; returns the response object on success
    /// so [`ServeState::handle_ppr`] can inline the trace before
    /// serializing.
    fn ppr_inner(
        &self,
        request: &Request,
        trace: &mut TraceContext,
    ) -> Result<serde::Map, Response> {
        let parse_span = Span::start("parse");
        let params = self.parse_ppr_params(request);
        parse_span.finish(trace);
        let params = params.map_err(|response| *response)?;
        let deadline = (params.deadline_ms > 0)
            .then(|| clock::now() + Duration::from_millis(params.deadline_ms));

        // Graceful degradation: under sustained pressure, exact mode
        // downgrades to forward push (bitwise identical to a direct push
        // call — it takes the ordinary push path end to end), and in
        // cache-only mode uncached answers shed instead of computing.
        let admission_span = Span::start("admission");
        let mut level = self.degrade_level();
        if level >= DegradeLevel::CacheOnly && self.config.cache_capacity == 0 {
            // Cache-only service without a cache would be a total outage,
            // strictly worse than the rung below it; stop the ladder at
            // the push downgrade and let the bounded queue do the shedding.
            level = DegradeLevel::Degraded;
        }
        let mut exact = params.exact;
        let mut downgraded = false;
        if exact && level >= DegradeLevel::Degraded {
            exact = false;
            downgraded = true;
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }

        // One cache probe on this thread: a hit is answered here and never
        // reaches the batcher.  Probe under the lock, answer after it is
        // released (K003).
        let key = CacheKey::new(params.source, params.alpha, params.r_max, exact);
        let cached = {
            let mut cache = lock_unpoisoned(&self.cache);
            cache.get(&key)
        };
        admission_span.finish(trace);
        let (answer, timing) = match cached {
            // A hit spends nothing in the batcher's stages.
            Some(answer) => (answer, JobTiming::default()),
            None if level >= DegradeLevel::CacheOnly => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(self.overloaded_response("serving cached answers only"));
            }
            None => match self.batcher.submit_traced(key, deadline) {
                Ok(traced) => traced,
                Err(SubmitError::QueueFull) => {
                    self.degrade.record_pressure(self.now_ms());
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(self.overloaded_response("request queue is full"));
                }
                Err(SubmitError::DeadlineExceeded) => {
                    self.degrade.record_pressure(self.now_ms());
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(error_response(504, "deadline exceeded"));
                }
                Err(SubmitError::ShuttingDown) => {
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(error_response(503, "server is shutting down"));
                }
                Err(error @ (SubmitError::WorkerPanic | SubmitError::Failed(_))) => {
                    return Err(error_response(500, &error.to_string()));
                }
            },
        };
        trace.record("queue_wait", timing.queue_wait_us);
        trace.record("batch_assembly", timing.assembly_us);
        trace.record("kernel_compute", timing.compute_us);

        let serialize_span = Span::start("serialize");
        let object = self.ppr_object(
            params.source,
            params.alpha,
            params.r_max,
            exact,
            params.top,
            downgraded,
            &answer,
        );
        serialize_span.finish(trace);
        Ok(object)
    }

    /// Parses and validates every `/ppr` parameter.
    fn parse_ppr_params(&self, request: &Request) -> Result<PprParams, Box<Response>> {
        let source = self.parse_source(request)?;
        let alpha = parse_float(request, "alpha", self.config.alpha)?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(Box::new(error_response(
                400,
                &format!("`alpha` must be in (0,1), got {alpha}"),
            )));
        }
        let r_max = parse_float(request, "r_max", self.config.r_max)?;
        if r_max <= 0.0 {
            return Err(Box::new(error_response(
                400,
                &format!("`r_max` must be positive, got {r_max}"),
            )));
        }
        let exact = match request.query_param("mode").unwrap_or("push") {
            "push" => false,
            "exact" => true,
            other => {
                return Err(Box::new(error_response(
                    400,
                    &format!("`mode` must be push|exact, got `{other}`"),
                )))
            }
        };
        let top = match request.query_param("top") {
            None => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(v) => Some(v),
                Err(_) => {
                    return Err(Box::new(error_response(
                        400,
                        &format!("`top` must be a non-negative integer, got `{raw}`"),
                    )))
                }
            },
        };
        // Deadline: the client's `x-deadline-ms` header wins, else the
        // configured default; 0 (either way) means no deadline.
        let deadline_ms = match request.header("x-deadline-ms") {
            None => self.config.deadline_ms,
            Some(raw) => match raw.trim().parse::<u64>() {
                Ok(ms) => ms,
                Err(_) => {
                    return Err(Box::new(error_response(
                        400,
                        &format!("`x-deadline-ms` must be a non-negative integer, got `{raw}`"),
                    )))
                }
            },
        };
        Ok(PprParams {
            source,
            alpha,
            r_max,
            exact,
            top,
            deadline_ms,
        })
    }

    /// `503` + `Retry-After`: the standard shape of every shed answer.
    fn overloaded_response(&self, message: &str) -> Response {
        self.counters.retry_after.fetch_add(1, Ordering::Relaxed);
        error_response(503, message).with_retry_after(self.config.retry_after_secs)
    }

    /// Builds one `/ppr` answer object from a cached or freshly computed
    /// answer, so every path (hit, miss, downgraded exact request) renders
    /// the same bits.  With `top = k`, the `k` highest-scoring entries are
    /// picked by selection ([`top_entries`]), not by a full sort.
    #[allow(clippy::too_many_arguments)]
    fn ppr_object(
        &self,
        source: u32,
        alpha: f64,
        r_max: f64,
        exact: bool,
        top: Option<usize>,
        downgraded: bool,
        answer: &PprAnswer,
    ) -> serde::Map {
        let mut object = serde::Map::new();
        object.insert("source", serde::Serialize::to_value(&source));
        object.insert("alpha", serde::Serialize::to_value(&alpha));
        object.insert("r_max", serde::Serialize::to_value(&r_max));
        object.insert(
            "mode",
            serde::Value::String(if exact { "exact" } else { "push" }.into()),
        );
        if downgraded {
            object.insert("degraded", serde::Value::Bool(true));
        }
        if exact {
            let dense = answer.dense.as_deref().unwrap_or_default();
            match top {
                // The full dense vector: the shortest-round-trip float
                // printer keeps this bitwise faithful.
                None => object.insert("vector", serde::Serialize::to_value(&dense.to_vec())),
                Some(k) => {
                    let entries: Vec<(u32, f64)> = dense
                        .iter()
                        .enumerate()
                        .map(|(v, &p)| (v as u32, p))
                        .collect();
                    object.insert("entries", entries_value(top_entries(entries, k)))
                }
            };
        } else {
            object.insert(
                "residual_mass",
                serde::Serialize::to_value(&answer.residual_mass),
            );
            object.insert("num_pushes", serde::Serialize::to_value(&answer.num_pushes));
            let entries = match top {
                None => entries_value(answer.entries.clone()),
                Some(k) => entries_value(top_entries(answer.entries.clone(), k)),
            };
            object.insert("entries", entries);
        }
        object
    }

    /// `/knn` (`unlinked_only == false`) and `/recommend` (`true`): top-K by
    /// forward·backward score, ties broken by ascending node id.
    fn handle_topk(&self, request: &Request, unlinked_only: bool) -> Response {
        let embedding = match &self.embedding {
            Some(embedding) => embedding,
            None => {
                return error_response(
                    409,
                    "no embedding loaded (start the server with an `embedding` path)",
                )
            }
        };
        let source = match self.parse_source(request) {
            Ok(source) => source,
            Err(response) => return *response,
        };
        let k = match request.query_param("k") {
            None => 10usize,
            Some(raw) => match raw.parse::<usize>() {
                Ok(v) if v > 0 => v,
                _ => {
                    return error_response(
                        400,
                        &format!("`k` must be a positive integer, got `{raw}`"),
                    )
                }
            },
        };
        let n = self.graph.num_nodes();
        let mut scored: Vec<(u32, f64)> = Vec::with_capacity(n.saturating_sub(1));
        for v in 0..n as u32 {
            if v == source {
                continue;
            }
            if unlinked_only && self.graph.has_arc(source, v) {
                continue;
            }
            scored.push((v, embedding.score(source, v)));
        }
        let top = top_entries(scored, k);
        let mut object = serde::Map::new();
        object.insert("source", serde::Serialize::to_value(&source));
        object.insert("k", serde::Serialize::to_value(&k));
        object.insert(
            if unlinked_only {
                "recommendations"
            } else {
                "neighbors"
            },
            entries_value(top),
        );
        json_response(200, serde::Value::Object(object))
    }

    fn parse_source(&self, request: &Request) -> Result<u32, Box<Response>> {
        let raw = request
            .query_param("source")
            .ok_or_else(|| Box::new(error_response(400, "missing required parameter `source`")))?;
        let source: u32 = raw.parse().map_err(|_| {
            Box::new(error_response(
                400,
                &format!("`source` must be a node id, got `{raw}`"),
            ))
        })?;
        let n = self.graph.num_nodes();
        if source as usize >= n {
            return Err(Box::new(error_response(
                400,
                &format!("`source` {source} out of bounds for {n} nodes"),
            )));
        }
        Ok(source)
    }
}

/// Validated `/ppr` query parameters.
struct PprParams {
    source: u32,
    alpha: f64,
    r_max: f64,
    exact: bool,
    top: Option<usize>,
    deadline_ms: u64,
}

/// The inline `trace` block of an `x-trace: 1` response.
fn trace_value(event: &nrp_obs::TraceEvent) -> serde::Value {
    let mut stages = serde::Map::new();
    for (stage, us) in &event.stages {
        stages.insert(*stage, serde::Serialize::to_value(us));
    }
    let mut object = serde::Map::new();
    object.insert("trace_id", serde::Serialize::to_value(&event.trace_id));
    object.insert("total_us", serde::Serialize::to_value(&event.total_us));
    object.insert("stages_us", serde::Value::Object(stages));
    object.insert(
        "stage_sum_us",
        serde::Serialize::to_value(
            &event
                .stages
                .iter()
                .fold(0u64, |acc, (_, us)| acc.saturating_add(*us)),
        ),
    );
    serde::Value::Object(object)
}

/// Parses an optional float query parameter, falling back to `default`.
/// Non-finite values are rejected (they would poison cache keys).
fn parse_float(request: &Request, name: &str, default: f64) -> Result<f64, Box<Response>> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(Box::new(error_response(
                400,
                &format!("`{name}` must be a finite number, got `{raw}`"),
            ))),
        },
    }
}

/// The first `k` of `(node, score)` pairs ordered by score descending,
/// node ascending, in that order.  Scores are finite (embeddings and PPR
/// vectors are finiteness-checked upstream), so `total_cmp` is a plain
/// ordering here, and node ids are unique, so the order is total: selecting
/// the `k`-prefix and sorting only it gives exactly what a full sort and
/// truncate would, in `O(n + k log k)`.
fn top_entries(mut entries: Vec<(u32, f64)>, k: usize) -> Vec<(u32, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let order = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if k < entries.len() {
        entries.select_nth_unstable_by(k - 1, order);
        entries.truncate(k);
    }
    entries.sort_unstable_by(order);
    entries
}

fn entries_value(entries: Vec<(u32, f64)>) -> serde::Value {
    serde::Value::Array(
        entries
            .into_iter()
            .map(|(node, score)| {
                serde::Value::Array(vec![
                    serde::Serialize::to_value(&node),
                    serde::Serialize::to_value(&score),
                ])
            })
            .collect(),
    )
}

fn json_response(status: u16, value: serde::Value) -> Response {
    // Handler-built values always serialize; if one ever does not (a NaN
    // smuggled into a float field, say), answer 500 rather than panic the
    // worker.
    match serde_json::to_string(&value) {
        Ok(body) => Response::json(status, body.into_bytes()),
        Err(_) => Response::json(
            500,
            br#"{"error":"response serialization failed"}"#.to_vec(),
        ),
    }
}

fn error_response(status: u16, message: &str) -> Response {
    let mut object = serde::Map::new();
    object.insert("error", serde::Value::String(message.to_string()));
    json_response(status, serde::Value::Object(object))
}

/// One single-series unlabeled family for the scrape-time derivations.
fn unlabeled(name: &str, help: &str, kind: MetricKind, value: u64) -> FamilySnapshot {
    FamilySnapshot {
        name: name.into(),
        help: help.into(),
        kind,
        series: vec![SeriesSnapshot {
            labels: Vec::new(),
            value: match kind {
                MetricKind::Gauge => SeriesValue::Gauge(value),
                _ => SeriesValue::Counter(value),
            },
        }],
    }
}

/// The running server: an accept loop plus one thread per connection.
///
/// [`Server::shutdown`] is graceful: the listener stops accepting, every
/// connection finishes the request it is currently serving (idle keep-alive
/// peers are closed at the next `IDLE_POLL` tick), the batcher drains its
/// queue, and only then does the call return.
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `state.config().addr` and starts accepting.
    pub fn start(state: ServeState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&state.config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::<JoinHandle<()>>::new()));

        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::Builder::new()
            .name("nrp-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match stream {
                        Ok(stream) => stream,
                        Err(_) => continue,
                    };
                    accept_state
                        .counters
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    // Admission control: at the in-flight limit, shed the
                    // connection with a minimal 503 instead of spawning a
                    // thread for it.  The accept loop itself never blocks
                    // on a slow peer: the rejection write has a short
                    // timeout and failure to deliver it is the peer's
                    // problem, not ours.
                    if accept_state.inflight.load(Ordering::Relaxed)
                        >= accept_state.config.max_connections
                    {
                        accept_state
                            .counters
                            .conn_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        accept_state.degrade.record_pressure(accept_state.now_ms());
                        reject_connection(stream, accept_state.config.retry_after_secs);
                        continue;
                    }
                    accept_state.inflight.fetch_add(1, Ordering::Relaxed);
                    let conn_state = Arc::clone(&accept_state);
                    let conn_shutdown = Arc::clone(&accept_shutdown);
                    let handle = match std::thread::Builder::new()
                        .name("nrp-serve-conn".into())
                        .spawn(move || {
                            // The gauge drops on every exit path, panics
                            // included — a leaked increment would eat the
                            // admission budget forever.
                            let _gauge = InflightGuard(&conn_state.inflight);
                            handle_connection(&conn_state, stream, conn_shutdown);
                        }) {
                        Ok(handle) => handle,
                        // Thread exhaustion: shed this connection (the
                        // stream drops and closes) and keep accepting.
                        // The guard inside the closure never ran, so the
                        // increment is rolled back here.
                        Err(_) => {
                            accept_state.inflight.fetch_sub(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let mut guard = lock_unpoisoned(&accept_connections);
                    // Opportunistically reap finished threads so the list
                    // does not grow with connection count.
                    guard.retain(|h| !h.is_finished());
                    // nrp-lint: allow(R001) — live handles ≤ max_connections (inflight gate above)
                    guard.push(handle);
                }
            })?;

        Ok(Self {
            state,
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters, cache snapshots) for introspection.
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, stop
    /// the batcher, join every thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_unpoisoned(&self.connections));
        for handle in handles {
            let _ = handle.join();
        }
        self.state.batcher.shutdown();
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // `accept` blocks with no timeout; a self-connection wakes it so it
        // can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not shut down) server still stops its threads, just
        // without blocking on the joins it cannot perform here.
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
    }
}

/// Decrements the in-flight connection gauge on drop (any exit path of a
/// connection thread, panics included).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sheds one connection at the accept loop: best-effort minimal `503` with
/// `Retry-After`, then close.  Short write timeout so a slow or dead peer
/// cannot stall accepting.
fn reject_connection(stream: TcpStream, retry_after_secs: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
    let mut response =
        error_response(503, "too many connections").with_retry_after(retry_after_secs);
    response.keep_alive = false;
    let _ = write_response(&mut writer, &response);
}

/// One connection: keep-alive loop reading requests (pipelining falls out
/// of reading exactly one message per iteration) until close, error, idle
/// timeout or shutdown.  Malformed input gets an error *response* where the
/// framing allows one; the thread never panics on wire data.
fn handle_connection(state: &ServeState, stream: TcpStream, shutdown: Arc<AtomicBool>) {
    let limits = state.limits();
    let idle_timeout = Duration::from_millis(state.config.read_timeout_ms.max(1));
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    // Without TCP_NODELAY, Nagle + the peer's delayed ACK turns every
    // response into a ~40ms stall — it dominated p50 before this line.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut idle_deadline = clock::now() + idle_timeout;
    loop {
        match read_request(&mut reader, &limits) {
            Ok(None) => break,
            Ok(Some(request)) => {
                // Failpoint `conn.read`: a socket that dies right after
                // delivering the request bytes.  The peer sees a closed
                // connection and no response — exactly what a reset looks
                // like from the client side.
                if crate::fault::fire("conn.read").is_err() {
                    break;
                }
                let mut response = state.handle(&request);
                // Draining: answer the request in hand, then close.
                response.keep_alive =
                    response.keep_alive && request.keep_alive() && !shutdown.load(Ordering::SeqCst);
                // Failpoint `conn.write`: the socket dies before the
                // response goes out (computed work, lost answer).
                if crate::fault::fire("conn.write").is_err() {
                    break;
                }
                if write_response(&mut writer, &response).is_err() {
                    break;
                }
                if !response.keep_alive {
                    break;
                }
                idle_deadline = clock::now() + idle_timeout;
            }
            Err(error) => {
                if matches!(error, crate::http::HttpError::Idle) {
                    if shutdown.load(Ordering::SeqCst) || clock::now() >= idle_deadline {
                        break;
                    }
                    continue;
                }
                state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                if error.respondable() {
                    let mut response = error_response(error.status(), &error.to_string());
                    response.keep_alive = false;
                    if write_response(&mut writer, &response).is_ok() {
                        // Lingering close: drain whatever the peer is still
                        // sending (e.g. the rest of an oversized header)
                        // before closing, so the kernel does not reset the
                        // connection and destroy the error response in
                        // flight.
                        drain_to_eof(&mut reader);
                    }
                }
                break;
            }
        }
    }
    let _ = writer.flush();
}

/// Reads and discards input until EOF, a hard error, a byte cap, or a short
/// deadline — whichever comes first.  See the lingering-close comment at
/// the call site.
fn drain_to_eof<R: std::io::Read>(reader: &mut R) {
    let mut buffer = [0u8; 4096];
    let mut remaining: usize = 256 * 1024;
    let deadline = clock::now() + Duration::from_millis(500);
    while remaining > 0 && clock::now() < deadline {
        match reader.read(&mut buffer) {
            Ok(0) => break,
            Ok(n) => remaining = remaining.saturating_sub(n),
            // The socket has a short read timeout (IDLE_POLL); keep
            // draining until the overall deadline.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The full-sort reference `top_entries` must reproduce exactly.
    fn sorted_then_truncated(mut entries: Vec<(u32, f64)>, k: usize) -> Vec<(u32, f64)> {
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    #[test]
    fn top_entries_matches_a_full_sort_under_heavy_ties() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        // Few distinct scores, so most comparisons fall through to the node
        // id tie-break; both zeros are included because `total_cmp` orders
        // them.
        let scores = [1.0, 0.5, 0.25, 0.0, -0.0, 1e-300];
        for len in [0usize, 1, 2, 3, 7, 64, 761] {
            for _ in 0..8 {
                let mut nodes: Vec<u32> = (0..len as u32 * 3).step_by(3).collect();
                nodes.shuffle(&mut rng);
                let entries: Vec<(u32, f64)> = nodes
                    .into_iter()
                    .map(|v| (v, scores[rng.gen_range(0..scores.len())]))
                    .collect();
                for k in [0, 1, len.saturating_sub(1), len, len + 3] {
                    let got = top_entries(entries.clone(), k);
                    let want = sorted_then_truncated(entries.clone(), k);
                    let bits = |e: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        e.iter().map(|&(v, p)| (v, p.to_bits())).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "len {len}, k {k}");
                }
            }
        }
    }
}
