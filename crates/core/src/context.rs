//! Execution context and run metadata for the v2 [`Embedder`] interface.
//!
//! [`EmbedContext`] is how callers influence a run without touching the
//! method's own parameters: override the RNG seed, grant a thread budget, or
//! hand in a cancellation flag that long runs check at stage boundaries.
//! [`EmbedOutput`] is what a run returns: the [`Embedding`] plus
//! [`RunMetadata`] — per-stage wall-clock timings and the effective
//! parameters echoed back as a [`MethodConfig`].
//!
//! [`Embedder`]: crate::embedding::Embedder

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use nrp_linalg::parallel::{Exec, WorkerPool};
use nrp_obs::{clock, MetricsHandle};

// `StageClock` lived here through PR 9; it migrated into `nrp-obs` when that
// crate became the workspace's designated clock owner.  Re-exported so
// `nrp_core::context::{StageClock, StageTiming}` paths (and the umbrella
// prelude) keep working.
pub use nrp_obs::clock::{StageClock, StageTiming};

use crate::config::MethodConfig;
use crate::embedding::Embedding;
use crate::{NrpError, Result};

/// Per-run execution parameters, orthogonal to the method's hyper-parameters.
///
/// The default context (`EmbedContext::default()`) reproduces the method's
/// configured behaviour exactly: no seed override, a single-thread budget and
/// no cancellation.
///
/// ## Worker-pool ownership
///
/// A context with a multi-thread budget owns a persistent
/// [`WorkerPool`], created lazily on the first [`EmbedContext::exec`] call
/// and shared by every stage of every embedding run under this context (and
/// its clones).  Thread-spawn cost is therefore paid **once per context**,
/// not once per kernel invocation — an embedding issues thousands of small
/// parallel stages (propagation hops × Krylov iterations × CGS2 passes).
/// A single-thread budget runs everything on the calling thread and never
/// creates a pool; the result is bitwise identical either way.
#[derive(Debug, Clone, Default)]
pub struct EmbedContext {
    seed: Option<u64>,
    threads: Option<NonZeroUsize>,
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    // The cell itself is behind an `Arc` so clones share the *lazily created*
    // pool too: whichever context (original or clone) runs first initializes
    // the one cell every sibling reads.
    pool: Arc<OnceLock<Arc<WorkerPool>>>,
    partial_results: bool,
    metrics: MetricsHandle,
}

impl EmbedContext {
    /// A context with no overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the method's configured RNG seed for this run.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Grants a thread budget (clamped to at least 1).  Methods use up to
    /// this many threads in their data-parallel stages; the result is
    /// bitwise independent of the budget.
    ///
    /// Multi-thread budgets run on a persistent [`WorkerPool`] owned by this
    /// context (created lazily, reused across stages and runs, and shared
    /// with clones of this context).
    pub fn with_threads(mut self, threads: usize) -> Self {
        let threads = threads.max(1);
        self.threads = NonZeroUsize::new(threads);
        // A pool created for a smaller previous budget would silently clamp
        // the new one (dispatch caps workers at pool capacity), so detach
        // from it and let the next run create a right-sized pool.  Clones
        // holding the old cell keep their pool.
        if self
            .pool
            .get()
            .is_some_and(|pool| pool.capacity() < threads)
        {
            self.pool = Arc::new(OnceLock::new());
        }
        self
    }

    /// Attaches an existing worker pool, sharing it with other contexts
    /// (e.g. one pool across a whole benchmark sweep).  The thread budget is
    /// still set separately via [`EmbedContext::with_threads`] and is
    /// clamped to the pool's capacity at dispatch time.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Arc::new(OnceLock::from(pool));
        self
    }

    /// The context's worker pool, if one has been attached or lazily
    /// created.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.get()
    }

    /// The execution policy embedders hand to every parallel kernel:
    /// sequential for a single-thread budget, otherwise the thread budget
    /// plus this context's persistent [`WorkerPool`] (created on first use).
    /// The policy never affects results — only where worker threads come
    /// from.
    pub fn exec(&self) -> Exec {
        let threads = self.thread_budget();
        if threads <= 1 {
            return Exec::sequential();
        }
        let pool = self
            .pool
            .get_or_init(|| Arc::new(WorkerPool::new_with_metrics(threads, &self.metrics)));
        Exec::pooled(Arc::clone(pool), threads)
    }

    /// Attaches a telemetry handle: the context's lazily created
    /// [`WorkerPool`] reports utilization/dispatch-wait metrics into it, and
    /// embedders may record their own instruments through
    /// [`EmbedContext::metrics`].  The default is a no-op handle — an
    /// uninstrumented run pays one `None` branch per would-be record.
    ///
    /// Telemetry is write-only: nothing read from the handle ever feeds a
    /// computed value, so the bitwise determinism contract is untouched.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        // A pool created before the handle was attached would report
        // nowhere; detach so the next run creates an instrumented one.
        if self.pool.get().is_some() {
            self.pool = Arc::new(OnceLock::new());
        }
        self.metrics = metrics;
        self
    }

    /// The attached telemetry handle (a no-op handle by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Attaches a cooperative cancellation flag.  Setting the flag to `true`
    /// (from any thread) makes the run return [`NrpError::Cancelled`] at its
    /// next stage boundary.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Attaches an absolute deadline.  Once the wall clock passes it, the
    /// context reports itself cancelled — the same cooperative signal as
    /// [`EmbedContext::with_cancel_flag`], so every kernel that already
    /// checks [`EmbedContext::ensure_active`] at its loop boundaries honours
    /// deadlines for free.  Like the cancel flag, an expired deadline only
    /// ever *aborts* work (with [`NrpError::Cancelled`]); it never alters a
    /// computed value, so the determinism contract is untouched.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True if the attached deadline (if any) has passed.  The clock is
    /// read through the designated owner (`nrp_obs::clock`); an expired
    /// deadline only ever aborts work, it never feeds a computed value.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| clock::now() >= d)
    }

    /// Opts into **partial results** on cancellation: instead of failing
    /// with [`NrpError::Cancelled`], iterative refinement stages stop early
    /// and the run returns the best embedding computed so far.
    ///
    /// Concretely, a raised cancel flag makes the ApproxPPR propagation stop
    /// at the current hop (a shorter truncated PPR series — still a valid
    /// embedding), the NRP reweighting return the weights of the completed
    /// epochs, and SGNS/NCE training (DeepWalk, node2vec, LINE, VERSE, APP)
    /// end at the current SGD step.  Work cancelled *before* any embedding
    /// exists (e.g. during the initial SVD sketch) still returns
    /// [`NrpError::Cancelled`] — there is nothing partial to hand back.
    pub fn with_partial_results(mut self) -> Self {
        self.partial_results = true;
        self
    }

    /// True if cancellation should yield the best result so far instead of
    /// [`NrpError::Cancelled`] (see [`EmbedContext::with_partial_results`]).
    pub fn allows_partial(&self) -> bool {
        self.partial_results
    }

    /// True if the run was cancelled *and* the context asks for the best
    /// result so far — the "stop refining now" signal iterative loops check
    /// to break instead of erroring.
    pub fn should_stop_early(&self) -> bool {
        self.partial_results && self.is_cancelled()
    }

    /// The seed override, if any.
    pub fn seed_override(&self) -> Option<u64> {
        self.seed
    }

    /// The effective seed: the override if present, else `configured`.
    pub fn seed_or(&self, configured: u64) -> u64 {
        self.seed.unwrap_or(configured)
    }

    /// The thread budget (at least 1).
    pub fn thread_budget(&self) -> usize {
        self.threads.map(NonZeroUsize::get).unwrap_or(1)
    }

    /// True if the attached cancellation flag has been raised or the
    /// attached deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
            || self.deadline_expired()
    }

    /// Errors with [`NrpError::Cancelled`] if the run has been cancelled —
    /// the check embedders place at stage boundaries.
    pub fn ensure_active(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(NrpError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Everything known about a completed embedding run besides the vectors.
#[derive(Debug, Clone)]
pub struct RunMetadata {
    /// The effective parameters of the run (seed override already applied),
    /// serializable via `serde_json` for experiment logs.
    pub config: MethodConfig,
    /// The effective RNG seed.
    pub seed: u64,
    /// The granted thread budget.
    pub threads: usize,
    /// Per-stage wall-clock timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// Total wall-clock time of the run.
    pub total: Duration,
}

impl RunMetadata {
    /// The duration of stage `name`, if it was recorded.
    pub fn stage(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration)
    }

    /// The column names of [`RunMetadata::csv_row`], in order.
    pub fn csv_header() -> &'static [&'static str] {
        &[
            "method",
            "config",
            "seed",
            "threads",
            "stages",
            "total_secs",
        ]
    }

    /// Renders the run as one CSV record: the method name, the effective
    /// configuration as compact JSON, the effective seed, the granted thread
    /// budget, the per-stage wall clock (`name:secs@threads` entries joined
    /// by `;`) and the total wall-clock seconds.
    ///
    /// Cells are returned *unescaped* — the `config` cell in particular
    /// contains commas and double quotes, so writers must apply RFC-4180
    /// quoting (as `nrp-bench`'s CSV layer does) before joining with `,`.
    pub fn csv_row(&self) -> Vec<String> {
        let stages = self
            .stages
            .iter()
            .map(|s| format!("{}:{:.6}@{}", s.name, s.duration.as_secs_f64(), s.threads))
            .collect::<Vec<_>>()
            .join(";");
        vec![
            self.config.method_name().to_string(),
            self.config
                .to_json()
                .expect("method configs serialize to JSON"),
            self.seed.to_string(),
            self.threads.to_string(),
            stages,
            format!("{:.6}", self.total.as_secs_f64()),
        ]
    }
}

/// The result of a v2 [`Embedder::embed`](crate::embedding::Embedder::embed)
/// run: the embedding plus run metadata.
#[derive(Debug, Clone)]
pub struct EmbedOutput {
    embedding: Embedding,
    metadata: RunMetadata,
}

impl EmbedOutput {
    /// Assembles the output of a run.  `config` is the embedder's configured
    /// parameters; the effective `seed` is stamped into the echoed config so
    /// the metadata alone reproduces the run.
    pub fn new(
        embedding: Embedding,
        mut config: MethodConfig,
        seed: u64,
        ctx: &EmbedContext,
        clock: StageClock,
    ) -> Self {
        config.set_seed(seed);
        let total = clock.elapsed();
        Self {
            embedding,
            metadata: RunMetadata {
                config,
                seed,
                threads: ctx.thread_budget(),
                stages: clock.into_stages(),
                total,
            },
        }
    }

    /// The embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Consumes the output, keeping only the embedding.
    pub fn into_embedding(self) -> Embedding {
        self.embedding
    }

    /// The run metadata.
    pub fn metadata(&self) -> &RunMetadata {
        &self.metadata
    }

    /// Splits the output into its parts.
    pub fn into_parts(self) -> (Embedding, RunMetadata) {
        (self.embedding, self.metadata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_has_no_overrides() {
        let ctx = EmbedContext::default();
        assert_eq!(ctx.seed_override(), None);
        assert_eq!(ctx.seed_or(9), 9);
        assert_eq!(ctx.thread_budget(), 1);
        assert!(!ctx.is_cancelled());
        assert!(ctx.ensure_active().is_ok());
    }

    #[test]
    fn overrides_apply() {
        let ctx = EmbedContext::new().with_seed(3).with_threads(4);
        assert_eq!(ctx.seed_or(9), 3);
        assert_eq!(ctx.thread_budget(), 4);
        assert_eq!(EmbedContext::new().with_threads(0).thread_budget(), 1);
    }

    #[test]
    fn exec_policies_follow_the_context_configuration() {
        // Single-thread budgets never create a pool.
        let ctx = EmbedContext::new();
        assert!(!ctx.exec().is_parallel());
        assert!(ctx.worker_pool().is_none());
        // Multi-thread budgets lazily create one pool and reuse it.
        let ctx = EmbedContext::new().with_threads(3);
        assert!(ctx.worker_pool().is_none(), "pool is lazy");
        let first = ctx.exec();
        assert_eq!(first.threads(), 3);
        let pool = first.pool().expect("pooled exec").clone();
        assert_eq!(pool.capacity(), 3);
        let second = ctx.exec();
        assert!(
            Arc::ptr_eq(second.pool().expect("pooled exec"), &pool),
            "same pool across exec() calls"
        );
        // Clones share the already-created pool.
        let clone = ctx.clone();
        assert!(
            Arc::ptr_eq(clone.exec().pool().expect("pooled exec"), &pool),
            "clone shares the pool"
        );
        // Clones taken *before* the pool exists share the lazy cell too:
        // whichever side runs first creates the one pool both use.
        let fresh = EmbedContext::new().with_threads(2);
        let fresh_clone = fresh.clone();
        let created = fresh_clone.exec().pool().expect("pooled exec").clone();
        assert!(
            Arc::ptr_eq(fresh.exec().pool().expect("pooled exec"), &created),
            "pre-creation clones share one pool"
        );
        // Raising the budget past a stale pool's capacity detaches from it
        // instead of silently clamping parallelism.
        let raised = fresh.with_threads(6);
        let raised_pool = raised.exec().pool().expect("pooled exec").clone();
        assert!(!Arc::ptr_eq(&raised_pool, &created), "stale pool replaced");
        assert_eq!(raised_pool.capacity(), 6);
        // Lowering (or keeping) the budget reuses the existing pool.
        let lowered = raised.with_threads(2);
        assert!(
            Arc::ptr_eq(lowered.exec().pool().expect("pooled exec"), &raised_pool),
            "a large-enough pool is kept"
        );
        assert_eq!(lowered.exec().threads(), 2);
        // A single-thread budget stays sequential even with a pool created.
        let single = lowered.with_threads(1);
        assert!(!single.exec().is_parallel());
        assert!(single.exec().pool().is_none());
        // An attached pool is used as-is.
        let shared = Arc::new(WorkerPool::new(2));
        let ctx = EmbedContext::new()
            .with_threads(2)
            .with_worker_pool(Arc::clone(&shared));
        assert!(Arc::ptr_eq(
            ctx.exec().pool().expect("pooled exec"),
            &shared
        ));
    }

    #[test]
    fn cancellation_flag_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = EmbedContext::new().with_cancel_flag(Arc::clone(&flag));
        assert!(ctx.ensure_active().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(ctx.is_cancelled());
        assert!(matches!(ctx.ensure_active(), Err(NrpError::Cancelled)));
    }

    #[test]
    fn stage_clock_records_laps_in_order() {
        let mut clock = StageClock::start();
        clock.lap("a");
        clock.lap_parallel("b", 4);
        clock.lap_parallel("c", 0);
        assert_eq!(clock.stages().len(), 3);
        assert_eq!(clock.stages()[0].name, "a");
        assert_eq!(clock.stages()[0].threads, 1);
        assert_eq!(clock.stages()[1].name, "b");
        assert_eq!(clock.stages()[1].threads, 4);
        assert_eq!(clock.stages()[2].threads, 1, "thread counts clamp to >= 1");
        assert!(clock.elapsed() >= clock.stages()[0].duration);
    }

    #[test]
    fn metadata_lookup_by_stage_name() {
        let meta = RunMetadata {
            config: MethodConfig::default_for("NRP").expect("known method"),
            seed: 1,
            threads: 2,
            stages: vec![StageTiming {
                name: "x",
                duration: Duration::from_millis(5),
                threads: 2,
            }],
            total: Duration::from_millis(6),
        };
        assert_eq!(meta.stage("x"), Some(Duration::from_millis(5)));
        assert_eq!(meta.stage("y"), None);
    }

    #[test]
    fn csv_row_matches_header_and_encodes_stages() {
        let meta = RunMetadata {
            config: MethodConfig::default_for("NRP").expect("known method"),
            seed: 9,
            threads: 4,
            stages: vec![
                StageTiming {
                    name: "approx_ppr",
                    duration: Duration::from_millis(250),
                    threads: 4,
                },
                StageTiming {
                    name: "reweight",
                    duration: Duration::from_millis(125),
                    threads: 1,
                },
            ],
            total: Duration::from_millis(400),
        };
        let row = meta.csv_row();
        assert_eq!(row.len(), RunMetadata::csv_header().len());
        assert_eq!(row[0], "NRP");
        assert!(row[1].contains(r#""method": "NRP""#) || row[1].contains(r#""method":"NRP""#));
        assert_eq!(row[2], "9");
        assert_eq!(row[3], "4");
        assert_eq!(row[4], "approx_ppr:0.250000@4;reweight:0.125000@1");
        assert_eq!(row[5], "0.400000");
        // The config cell round-trips back into the same configuration.
        let parsed = MethodConfig::from_json(&row[1]).unwrap();
        assert_eq!(parsed, meta.config);
    }
}
