//! Request batching: concurrent PPR cache misses coalesce into one
//! multi-source dispatch on the shared worker pool.
//!
//! Connection threads answer cache hits themselves and never compute PPR:
//! on a miss they submit the [`CacheKey`] to the batcher and block on a
//! private reply channel.  A single dispatcher thread drains everything
//! queued at that moment into one batch, deduplicates identical keys (two
//! clients missing on the same source share one computation), computes the
//! *unique* sources with a single `par_chunk_map_exec` dispatch over the
//! context's persistent
//! [`WorkerPool`](nrp_core::parallel::WorkerPool).  Each source's push runs
//! sequentially inside one worker (reusing that worker's thread-local
//! [`PushWorkspace`]), so every per-source result is bitwise identical to a
//! standalone computation — batching moves wall-clock, never values.  The
//! dispatcher inserts each answer into the cache before replying; a key
//! that was inserted between a waiter's probe and the drain is simply
//! computed again, to the same bits.
//!
//! # Overload behaviour
//!
//! The submission queue is **bounded** ([`Batcher::new`] takes its
//! capacity): when the dispatcher falls behind,
//! [`Batcher::submit_traced`] fails fast with [`SubmitError::QueueFull`]
//! instead of queueing unboundedly — the server turns that into `503` +
//! `Retry-After`.  A request may also carry a deadline: the waiter gives
//! up with [`SubmitError::DeadlineExceeded`] when it expires (`504`), the
//! dispatcher sheds queued jobs whose deadline already passed without
//! computing them, and exact-mode batches propagate the waiters' deadline
//! into the power iteration through [`EmbedContext::with_deadline`] so
//! abandoned work stops early.  Aborting never alters values: a computation
//! either completes bitwise-identically or returns no answer at all.
//!
//! Worker panics (real bugs, or injected via the `failpoints` registry at
//! the `batcher.compute` site) are caught per source: the affected key
//! answers [`SubmitError::WorkerPanic`], every other key in the batch is
//! unaffected, and the dispatcher keeps serving.
//!
//! # Telemetry
//!
//! The dispatcher attributes every answered job's latency to three stages
//! ([`JobTiming`]): time queued behind other work, time spent assembling
//! the batch (deadline shedding + dedup), and time inside the PPR kernel.
//! [`Batcher::submit_traced`] returns that breakdown alongside the answer.
//! When the [`EmbedContext`] carries a
//! live [`MetricsHandle`](nrp_obs::MetricsHandle), the same numbers feed
//! the `nrp_batch_*` instrument families (queue depth, batch size,
//! queue-wait and compute histograms).  Timing is observability only: it
//! never enters [`PprAnswer`] or the cache, so answers stay bitwise
//! identical with telemetry on, off, or absent.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use nrp_core::parallel::par_chunk_map_exec;
use nrp_core::ppr::single_source_ppr_ctx;
use nrp_core::push::{forward_push_into, PushWorkspace};
use nrp_core::{DanglingPolicy, EmbedContext, NrpError};
use nrp_obs::{clock, Gauge, Histogram};

use crate::sync::lock_unpoisoned;
use nrp_graph::Graph;

use crate::cache::{CacheKey, PprCache};

std::thread_local! {
    // One push workspace per worker thread (the pool's threads persist, so
    // each warms up once and then pushes allocation-free).
    static PUSH_WORKSPACE: RefCell<PushWorkspace> = RefCell::new(PushWorkspace::new());
}

/// One computed single-source PPR answer, shared between the cache and all
/// waiters via `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct PprAnswer {
    /// Push mode: `(node, estimate)` pairs ascending by node (empty in
    /// exact mode).
    pub entries: Vec<(u32, f64)>,
    /// Exact mode: the dense PPR vector (absent in push mode).
    pub dense: Option<Vec<f64>>,
    /// Residual probability mass left unconverted (0 in exact mode).
    pub residual_mass: f64,
    /// Push operations performed (0 in exact mode).
    pub num_pushes: usize,
}

/// Why a [`Batcher::submit_traced`] returned no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue was full — shed this request
    /// (`503` + `Retry-After`).
    QueueFull,
    /// The request's deadline expired before the answer was ready (`504`).
    DeadlineExceeded,
    /// The batcher is shutting down (`503`).
    ShuttingDown,
    /// The computation for this key panicked; other keys were unaffected
    /// (`500`).
    WorkerPanic,
    /// The computation failed (invalid source, injected I/O error, ...).
    Failed(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::WorkerPanic => write!(f, "worker panicked during computation"),
            SubmitError::Failed(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Where one answered job's wall-clock went, in microseconds.
///
/// Returned by [`Batcher::submit_traced`] next to the answer.  The three
/// stages are disjoint sub-intervals of the waiter's blocking time, so
/// their sum is bounded by the latency the waiter itself measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// From submission until the dispatcher drained this job into a batch.
    pub queue_wait_us: u64,
    /// Batch assembly: deadline shedding and dedup for the batch this job
    /// rode in (shared by every job of the batch).
    pub assembly_us: u64,
    /// Inside the PPR kernel for this job's key.  Coalesced waiters report
    /// the shared computation's time: each of them really did block for it.
    pub compute_us: u64,
}

/// Counter snapshot of the batcher, as served by `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSnapshot {
    /// Dispatcher wake-ups that processed at least one job.
    pub batches: u64,
    /// Jobs submitted in total.
    pub jobs: u64,
    /// Jobs that shared a computation with another job of the same batch
    /// (identical key submitted concurrently).
    pub coalesced: u64,
    /// Largest single batch seen.
    pub max_batch: u64,
    /// Unique keys computed (coalesced duplicates count once).
    pub computed: u64,
    /// Queued jobs shed by the dispatcher because their deadline had
    /// already expired when the batch was drained.
    pub expired: u64,
    /// Per-key computations that panicked (caught; the dispatcher
    /// survived).
    pub panics: u64,
    /// Jobs currently queued, waiting for the dispatcher to drain them.
    pub queue_depth: u64,
}

#[derive(Default)]
struct BatchCounters {
    batches: AtomicU64,
    jobs: AtomicU64,
    coalesced: AtomicU64,
    max_batch: AtomicU64,
    computed: AtomicU64,
    expired: AtomicU64,
    panics: AtomicU64,
    /// Jobs admitted but not yet drained into a batch (mirrors the
    /// `nrp_batch_queue_depth` gauge, which a no-op handle leaves inert).
    depth: AtomicU64,
}

/// The batcher's obs instruments; every handle is a no-op when the context
/// carries a no-op metrics handle, so an update costs one null check.
#[derive(Clone, Default)]
struct BatcherMetrics {
    queue_depth: Gauge,
    batch_size: Histogram,
    queue_wait_us: Histogram,
    compute_us: Histogram,
}

type Reply = Result<Arc<PprAnswer>, SubmitError>;
type TracedReply = Result<(Arc<PprAnswer>, JobTiming), SubmitError>;

struct Job {
    key: CacheKey,
    deadline: Option<Instant>,
    /// When the waiter enqueued this job (queue-wait attribution).
    submitted: Instant,
    reply: SyncSender<TracedReply>,
}

/// The batching dispatcher.  Owns one worker thread for its lifetime;
/// [`Batcher::shutdown`] drains every queued job before the thread exits,
/// so no submitted request is ever dropped unanswered.
pub struct Batcher {
    tx: Mutex<Option<SyncSender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    counters: Arc<BatchCounters>,
    metrics: BatcherMetrics,
}

impl Batcher {
    /// Spawns the dispatcher.  `ctx` supplies the execution policy (thread
    /// budget plus persistent pool) every batch dispatches on; `max_batch`
    /// caps how many queued jobs one dispatch drains; `queue_capacity`
    /// bounds how many jobs may wait — submissions beyond it shed with
    /// [`SubmitError::QueueFull`].
    pub fn new(
        graph: Arc<Graph>,
        policy: DanglingPolicy,
        ctx: EmbedContext,
        cache: Arc<Mutex<PprCache>>,
        max_batch: usize,
        queue_capacity: usize,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity.max(1));
        let counters = Arc::new(BatchCounters::default());
        let worker_counters = Arc::clone(&counters);
        let max_batch = max_batch.max(1);
        // Register the batcher's instrument families on the context's
        // metrics handle (no-op handles yield no-op instruments).
        let obs = ctx.metrics();
        let metrics = BatcherMetrics {
            queue_depth: obs.gauge(
                "nrp_batch_queue_depth",
                "Jobs admitted to the batcher but not yet drained into a batch.",
            ),
            batch_size: obs.histogram(
                "nrp_batch_batch_size",
                "Jobs drained per dispatcher wake-up (before deadline shedding).",
            ),
            queue_wait_us: obs.histogram(
                "nrp_batch_queue_wait_us",
                "Microseconds a job waited in the queue before its batch was drained.",
            ),
            compute_us: obs.histogram(
                "nrp_batch_compute_us",
                "Microseconds one unique key spent inside the PPR kernel.",
            ),
        };
        let worker_metrics = metrics.clone();
        let worker = std::thread::Builder::new()
            .name("nrp-serve-batcher".into())
            .spawn(move || {
                dispatch_loop(
                    rx,
                    graph,
                    policy,
                    ctx,
                    cache,
                    worker_counters,
                    worker_metrics,
                    max_batch,
                )
            })
            // nrp-lint: allow(P001) — startup path, not the request path:
            // `Batcher::new` runs before the listener accepts its first
            // connection, and a process that cannot spawn its one
            // dispatcher thread has nothing to serve.
            .expect("spawning the batcher thread");
        Self {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            counters,
            metrics,
        }
    }

    /// Submits one PPR computation and blocks until its answer is ready
    /// (shared with a coalesced neighbour or freshly computed), returning
    /// it with where the blocking time went ([`JobTiming`]).  The timing
    /// rides next to the answer, never inside it: cached and traced answers
    /// stay bitwise identical.
    ///
    /// With a `deadline`, the waiter gives up with
    /// [`SubmitError::DeadlineExceeded`] once it passes.  The dispatcher may
    /// still finish (and cache) the computation; the answer is simply no
    /// longer delivered to this waiter.
    pub fn submit_traced(&self, key: CacheKey, deadline: Option<Instant>) -> TracedReply {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        // Clone the sender out of the mutex so the channel send happens
        // without holding `tx` (K003).  An in-flight clone keeps the
        // channel connected just long enough for this job to enqueue.
        let tx = lock_unpoisoned(&self.tx)
            .clone()
            .ok_or(SubmitError::ShuttingDown)?;
        // `try_send` is the admission decision: a full queue sheds *now*
        // instead of parking this connection thread behind unbounded work.
        match tx.try_send(Job {
            key,
            deadline,
            submitted: clock::now(),
            reply: reply_tx,
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => return Err(SubmitError::QueueFull),
            Err(TrySendError::Disconnected(_)) => return Err(SubmitError::ShuttingDown),
        }
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        self.counters.depth.fetch_add(1, Ordering::Relaxed);
        self.metrics.queue_depth.add(1);
        match deadline {
            None => reply_rx.recv().unwrap_or(Err(SubmitError::ShuttingDown)),
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(clock::now());
                match reply_rx.recv_timeout(remaining) {
                    Ok(reply) => reply,
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(SubmitError::DeadlineExceeded),
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(SubmitError::ShuttingDown),
                }
            }
        }
    }

    /// The current counters.
    pub fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            batches: self.counters.batches.load(Ordering::Relaxed),
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
            computed: self.counters.computed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            queue_depth: self.counters.depth.load(Ordering::Relaxed),
        }
    }

    /// Stops the dispatcher: new submissions fail fast, every job already
    /// queued is still answered, then the thread exits and is joined.
    pub fn shutdown(&self) {
        let tx = lock_unpoisoned(&self.tx).take();
        drop(tx); // Disconnects the channel once queued jobs drain.
                  // Take the handle in one statement (the guard is a temporary) and
                  // join *after* the lock is released: joining under `worker` would
                  // block every concurrent shutdown for the full drain (K003).
        let worker = lock_unpoisoned(&self.worker).take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-key bookkeeping while a batch is in flight.
struct Pending {
    /// Each waiter's reply channel, paired with the queue wait that waiter
    /// accrued before the drain (per-waiter: two coalesced jobs for the
    /// same key were enqueued at different moments).
    replies: Vec<(SyncSender<TracedReply>, u64)>,
    /// Latest deadline among this key's waiters (the computation is useful
    /// until the *last* waiter gives up).
    deadline: Option<Instant>,
    /// At least one waiter has no deadline, so the computation must run to
    /// completion regardless.
    unbounded: bool,
}

#[allow(clippy::too_many_arguments)]
fn dispatch_loop(
    rx: Receiver<Job>,
    graph: Arc<Graph>,
    policy: DanglingPolicy,
    ctx: EmbedContext,
    cache: Arc<Mutex<PprCache>>,
    counters: Arc<BatchCounters>,
    metrics: BatcherMetrics,
    max_batch: usize,
) {
    // `recv` returns queued jobs even after every sender is dropped, so the
    // shutdown path drains naturally: the loop ends only once the channel is
    // both disconnected and empty.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        counters
            .depth
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
        metrics.queue_depth.sub(batch.len() as u64);
        metrics.batch_size.observe(batch.len() as u64);

        // The drain instant ends every drained job's queue wait and starts
        // the batch-assembly stage.
        let drained_at = clock::now();
        if metrics.queue_wait_us.is_active() {
            for job in &batch {
                metrics.queue_wait_us.observe(clock::duration_as_micros(
                    drained_at.saturating_duration_since(job.submitted),
                ));
            }
        }

        // Shed queued jobs that already missed their deadline: the waiter
        // has (or is about to) time out on its own, and computing the
        // answer would only delay the still-live jobs behind it.
        let mut expired: Vec<SyncSender<TracedReply>> = Vec::with_capacity(batch.len());
        batch.retain(|job| {
            let dead = job.deadline.is_some_and(|d| drained_at >= d);
            if dead {
                expired.push(job.reply.clone());
            }
            !dead
        });
        if !expired.is_empty() {
            counters
                .expired
                .fetch_add(expired.len() as u64, Ordering::Relaxed);
            for reply in expired {
                let _ = reply.send(Err(SubmitError::DeadlineExceeded));
            }
        }
        if batch.is_empty() {
            continue;
        }

        // Group identical keys: first-seen order keeps the dispatch
        // deterministic in batch composition (not that results depend on it).
        let mut unique: Vec<CacheKey> = Vec::with_capacity(batch.len());
        let mut waiters: HashMap<CacheKey, Pending> = HashMap::new();
        for job in batch {
            let entry = waiters.entry(job.key).or_insert_with(|| Pending {
                replies: Vec::new(),
                deadline: None,
                unbounded: false,
            });
            if entry.replies.is_empty() {
                unique.push(job.key);
            } else {
                counters.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            match job.deadline {
                Some(d) => entry.deadline = Some(entry.deadline.map_or(d, |cur| cur.max(d))),
                None => entry.unbounded = true,
            }
            let queue_wait_us =
                clock::duration_as_micros(drained_at.saturating_duration_since(job.submitted));
            // nrp-lint: allow(R001) — one entry per job in the drained batch, ≤ max_batch
            entry.replies.push((job.reply, queue_wait_us));
        }

        // Effective deadline per key: none if any waiter needs the full
        // answer, otherwise the latest waiter deadline.
        let deadlines: Vec<Option<Instant>> = unique
            .iter()
            .map(|key| {
                waiters
                    .get(key)
                    .and_then(|p| if p.unbounded { None } else { p.deadline })
            })
            .collect();

        // Assembly for computed keys ends where the kernel dispatch starts.
        let assembly_us = clock::micros_since(drained_at);

        // One multi-source dispatch over the unique keys.  Chunk size 1:
        // each source is one unit of work, claimed by exactly one pool
        // worker, computed with that worker's thread-local workspace.
        // Each unit is wrapped in `catch_unwind` so a panic (a bug, or the
        // `batcher.compute` failpoint) fails that key alone instead of
        // tearing down a pool worker or this dispatcher.  Each key's kernel
        // time is measured inside its own unit (timing rides next to the
        // answer and never into the cache).
        let exec = ctx.exec();
        let answers: Vec<(Reply, u64)> = par_chunk_map_exec(unique.len(), 1, &exec, |range| {
            let key = &unique[range.start];
            let deadline = deadlines[range.start];
            let compute_start = clock::now();
            let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::fault::fire("batcher.compute")
                    .map_err(|e| SubmitError::Failed(e.to_string()))?;
                compute(&graph, policy, key, &ctx, deadline)
            }))
            .unwrap_or_else(|_| {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::WorkerPanic)
            });
            (answer, clock::micros_since(compute_start))
        });
        counters
            .computed
            .fetch_add(unique.len() as u64, Ordering::Relaxed);
        if metrics.compute_us.is_active() {
            for (_, compute_us) in &answers {
                metrics.compute_us.observe(*compute_us);
            }
        }

        // Fill the cache under the lock, answer the waiters after it is
        // released: `reply_all` sends on (bounded) channels, and a blocking
        // send under the lock would stall every connection thread probing
        // the cache (K003).
        {
            let mut cache = lock_unpoisoned(&cache);
            for (key, (answer, _)) in unique.iter().zip(answers.iter()) {
                if let Ok(answer) = answer {
                    cache.insert(*key, Arc::clone(answer));
                }
            }
        }
        for (key, (answer, compute_us)) in unique.iter().zip(answers) {
            reply_all(&mut waiters, key, answer, assembly_us, compute_us);
        }
    }
}

fn reply_all(
    waiters: &mut HashMap<CacheKey, Pending>,
    key: &CacheKey,
    reply: Reply,
    assembly_us: u64,
    compute_us: u64,
) {
    if let Some(pending) = waiters.remove(key) {
        for (sender, queue_wait_us) in pending.replies {
            let traced = reply.clone().map(|answer| {
                (
                    answer,
                    JobTiming {
                        queue_wait_us,
                        assembly_us,
                        compute_us,
                    },
                )
            });
            // A waiter that gave up (connection died, deadline passed) is
            // not an error.
            let _ = sender.send(traced);
        }
    }
}

/// Computes one single-source answer.  Deterministic in the key alone:
/// exact mode runs the power iteration, push mode runs forward push whose
/// results are independent of workspace reuse by contract.  A deadline only
/// ever *aborts* the exact iteration (mapping to
/// [`SubmitError::DeadlineExceeded`]); it never changes a value that is
/// returned.  Push runs to completion — a single push is the cheap mode and
/// finishes well inside any sane deadline.
fn compute(
    graph: &Graph,
    policy: DanglingPolicy,
    key: &CacheKey,
    ctx: &EmbedContext,
    deadline: Option<Instant>,
) -> Reply {
    if key.exact {
        let key_ctx = match deadline {
            Some(d) => ctx.clone().with_deadline(d),
            None => ctx.clone(),
        };
        let dense = single_source_ppr_ctx(
            graph,
            key.source,
            key.alpha(),
            key.r_max(),
            policy,
            &key_ctx,
        )
        .map_err(|e| match e {
            NrpError::Cancelled => SubmitError::DeadlineExceeded,
            other => SubmitError::Failed(other.to_string()),
        })?;
        return Ok(Arc::new(PprAnswer {
            entries: Vec::new(),
            dense: Some(dense),
            residual_mass: 0.0,
            num_pushes: 0,
        }));
    }
    PUSH_WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        let outcome =
            forward_push_into(graph, key.source, key.alpha(), key.r_max(), policy, &mut ws)
                .map_err(|e| SubmitError::Failed(e.to_string()))?;
        Ok(Arc::new(PprAnswer {
            entries: ws.estimates().to_vec(),
            dense: None,
            residual_mass: outcome.residual_mass,
            num_pushes: outcome.num_pushes,
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrp_core::push::forward_push_with_policy;
    use nrp_graph::generators::barabasi_albert;
    use nrp_graph::GraphKind;

    fn graph() -> Arc<Graph> {
        Arc::new(barabasi_albert(200, 3, GraphKind::Undirected, 11).unwrap())
    }

    /// Submits `key` and drops the stage timing.
    fn submit(batcher: &Batcher, key: CacheKey, deadline: Option<Instant>) -> Reply {
        batcher
            .submit_traced(key, deadline)
            .map(|(answer, _)| answer)
    }

    fn batcher_with(cache: Arc<Mutex<PprCache>>, threads: usize) -> Batcher {
        Batcher::new(
            graph(),
            DanglingPolicy::SelfLoop,
            EmbedContext::new().with_threads(threads),
            cache,
            64,
            1024,
        )
    }

    #[test]
    fn batched_answers_match_direct_computation() {
        let graph = graph();
        let cache = Arc::new(Mutex::new(PprCache::new(16)));
        let batcher = Batcher::new(
            Arc::clone(&graph),
            DanglingPolicy::SelfLoop,
            EmbedContext::new().with_threads(4),
            Arc::clone(&cache),
            64,
            1024,
        );
        for source in [0u32, 5, 17] {
            let key = CacheKey::new(source, 0.15, 1e-4, false);
            let answer = submit(&batcher, key, None).unwrap();
            let direct =
                forward_push_with_policy(&graph, source, 0.15, 1e-4, DanglingPolicy::SelfLoop)
                    .unwrap();
            assert_eq!(answer.entries, direct.estimates, "source {source}");
            assert_eq!(answer.residual_mass, direct.residual_mass);
            assert_eq!(answer.num_pushes, direct.num_pushes);
        }
        batcher.shutdown();
    }

    #[test]
    fn concurrent_identical_queries_coalesce() {
        let cache = Arc::new(Mutex::new(PprCache::new(0))); // no cache: force coalescing to do the sharing
        let batcher = Arc::new(batcher_with(cache, 2));
        let key = CacheKey::new(3, 0.15, 1e-4, false);
        let expected = submit(&batcher, key, None).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || submit(&batcher, key, None).unwrap())
            })
            .collect();
        for handle in handles {
            let answer = handle.join().unwrap();
            assert_eq!(answer.entries, expected.entries);
        }
        let snapshot = batcher.snapshot();
        assert_eq!(snapshot.jobs, 9);
        assert!(snapshot.batches >= 1);
        batcher.shutdown();
    }

    #[test]
    fn traced_submissions_attribute_latency_to_stages() {
        let cache = Arc::new(Mutex::new(PprCache::new(8)));
        let batcher = Batcher::new(
            graph(),
            DanglingPolicy::SelfLoop,
            EmbedContext::new().with_metrics(nrp_obs::MetricsHandle::enabled()),
            Arc::clone(&cache),
            64,
            1024,
        );
        let key = CacheKey::new(6, 0.15, 1e-4, false);
        let started = Instant::now();
        let (answer, timing) = batcher.submit_traced(key, None).unwrap();
        let total_us = started.elapsed().as_micros() as u64;
        assert!(!answer.entries.is_empty());
        assert!(timing.compute_us > 0, "a miss runs the kernel");
        assert!(
            timing.queue_wait_us + timing.assembly_us + timing.compute_us <= total_us,
            "stages are sub-intervals of the waiter's blocking time: {timing:?} vs {total_us}"
        );
        assert_eq!(batcher.snapshot().queue_depth, 0, "queue drained");
        batcher.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let cache = Arc::new(Mutex::new(PprCache::new(8)));
        let batcher = batcher_with(cache, 1);
        batcher.shutdown();
        let err = submit(&batcher, CacheKey::new(0, 0.15, 1e-4, false), None).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn exact_mode_returns_the_dense_vector() {
        let graph = graph();
        let cache = Arc::new(Mutex::new(PprCache::new(8)));
        let batcher = Batcher::new(
            Arc::clone(&graph),
            DanglingPolicy::SelfLoop,
            EmbedContext::new(),
            cache,
            64,
            1024,
        );
        let key = CacheKey::new(4, 0.2, 1e-9, true);
        let answer = submit(&batcher, key, None).unwrap();
        let direct = nrp_core::ppr::single_source_ppr_with_policy(
            &graph,
            4,
            0.2,
            1e-9,
            DanglingPolicy::SelfLoop,
        )
        .unwrap();
        assert_eq!(answer.dense.as_deref(), Some(direct.as_slice()));
        batcher.shutdown();
    }

    #[test]
    fn an_already_expired_deadline_fails_without_computing() {
        let cache = Arc::new(Mutex::new(PprCache::new(8)));
        let batcher = batcher_with(cache, 1);
        let key = CacheKey::new(2, 0.15, 1e-4, false);
        let err = submit(&batcher, key, Some(Instant::now())).unwrap_err();
        assert_eq!(err, SubmitError::DeadlineExceeded);
        // A fresh submission with a generous deadline still works.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let answer = submit(&batcher, key, Some(deadline)).unwrap();
        assert!(!answer.entries.is_empty());
        batcher.shutdown();
    }

    #[test]
    fn deadline_answers_are_bitwise_identical_to_unbounded_ones() {
        let cache = Arc::new(Mutex::new(PprCache::new(0))); // no cache: both calls compute
        let batcher = batcher_with(cache, 1);
        let key = CacheKey::new(7, 0.15, 1e-5, false);
        let unbounded = submit(&batcher, key, None).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let bounded = submit(&batcher, key, Some(deadline)).unwrap();
        assert_eq!(*unbounded, *bounded, "deadlines must never change values");
        batcher.shutdown();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_worker_panics_fail_one_key_and_spare_the_dispatcher() {
        let cache = Arc::new(Mutex::new(PprCache::new(8)));
        let batcher = batcher_with(cache, 1);
        crate::fault::configure("batcher.compute=panic:1.0:1", 42).unwrap();
        let key = CacheKey::new(5, 0.15, 1e-4, false);
        let err = submit(&batcher, key, None).unwrap_err();
        assert_eq!(err, SubmitError::WorkerPanic);
        assert_eq!(batcher.snapshot().panics, 1);
        // The failpoint's trigger limit is spent; the dispatcher survived
        // and the same key now computes normally.
        let answer = submit(&batcher, key, None).unwrap();
        assert!(!answer.entries.is_empty());
        crate::fault::clear();
        batcher.shutdown();
    }
}
