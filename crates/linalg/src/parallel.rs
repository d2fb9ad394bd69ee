//! Deterministic data-parallel execution primitives.
//!
//! Every heavy stage in the workspace — the randomized SVD's block matmuls,
//! STRAP's per-source forward pushes, random-walk generation — parallelizes
//! through the helpers in this module, and they all share one contract:
//!
//! > **The result is bitwise identical for every thread budget, including 1,
//! > and with or without AVX2** (see the dense-kernel dispatch below).
//!
//! Three rules make that true:
//!
//! 1. Work is split into *chunks* whose boundaries depend only on the problem
//!    size (never on the thread count), so floating-point accumulations are
//!    always grouped the same way.
//! 2. Each chunk's result is computed by exactly one worker with a fixed
//!    internal iteration order, so a chunk's value does not depend on which
//!    worker ran it or when.
//! 3. Chunk results are merged (concatenated or folded) in ascending chunk
//!    order on the calling thread.
//!
//! Workers pull chunk indices from an atomic counter: dynamic load balancing
//! (for skewed work such as per-source PPR pushes) that keeps rules 2 and 3.
//!
//! ## Execution policy: sequential or the persistent [`WorkerPool`]
//!
//! *Where* the workers come from is orthogonal to the contract above and is
//! captured by [`Exec`]: either [`Exec::sequential`] (the calling thread
//! alone) or [`Exec::pooled`], which dispatches the fixed chunk grid to a
//! long-lived [`WorkerPool`] so thread creation is paid **once per pool**,
//! not once per kernel invocation.  `EmbedContext` in `nrp-core` owns such a
//! pool and hands a pooled `Exec` to every stage.
//!
//! Each kernel has exactly one threaded entry point, `*_exec(.., &Exec)`;
//! `Exec::sequential()` is its single-thread reference.  There is no
//! per-call spawning policy: an embedding issues thousands of small kernel
//! calls (propagation hops × block-Krylov iterations × CGS2 passes), and
//! paying a spawn/join round trip on each of them is what the pool avoids.
//! Because the chunk grid, the one-worker-per-chunk rule and the in-order
//! merge do not depend on the policy, **pooled and sequential execution
//! produce bitwise identical results** — the pool only moves the wall clock.

// Pool jobs hand lifetime-erased pointers to long-lived workers, fill-rows
// writes disjoint row blocks through a shared pointer, and kernel dispatch
// calls AVX2 code once the CPU is known to have it.  Each `unsafe` is narrow
// and documented (dispatch waits for every worker; chunk indices are unique;
// AVX2 is detected first); everything else in this crate is safe code.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use nrp_obs::{clock, Counter, Gauge, Histogram, MetricsHandle};

/// Chunk size used by the dense row-parallel kernels.  Any value works; this
/// one keeps scheduling overhead negligible while still splitting matrices of
/// a few thousand rows across a typical core count.
pub const ROW_CHUNK: usize = 128;

/// Chunk size used by the deterministic reductions (`transpose_matmul_exec`,
/// `gram_exec`).  Must stay fixed across calls: it defines the grouping of
/// the floating-point partial sums.
pub const REDUCE_CHUNK: usize = 4096;

/// Clamps a requested thread budget to something sensible for `work_items`
/// units of work (at least 1, at most one thread per item).
pub fn effective_threads(threads: usize, work_items: usize) -> usize {
    threads.max(1).min(work_items.max(1))
}

/// Splits `0..n` into ranges of `chunk_size` (the last may be shorter).
fn chunk_ranges(n: usize, chunk_size: usize) -> Vec<Range<usize>> {
    let chunk_size = chunk_size.max(1);
    (0..n.div_ceil(chunk_size))
        .map(|c| c * chunk_size..n.min((c + 1) * chunk_size))
        .collect()
}

std::thread_local! {
    /// True while the current thread is executing chunks of a pool job (as a
    /// pool worker *or* as the dispatching thread).  A nested dispatch from
    /// inside a chunk falls back to sequential execution instead of
    /// deadlocking on the single job slot.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

/// A lifetime-erased pool job: the chunk closure, the shared chunk counter
/// and the chunk count.
///
/// The `'static` lifetimes are a fiction established by the dispatcher, which
/// guarantees (via [`DispatchGuard`]) that no worker holds these references
/// after `WorkerPool::run` returns — including when the dispatching closure
/// unwinds.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    next: &'static AtomicUsize,
    num_chunks: usize,
}

struct Slot {
    /// Bumped once per dispatched job so sleeping workers can tell a new job
    /// from the one they already completed.
    epoch: u64,
    /// The job of the current epoch, cleared by the dispatcher as soon as the
    /// chunk counter is exhausted so late-waking workers skip it.
    job: Option<Job>,
    /// How many more pool workers may still join the current job (enforces
    /// the dispatcher's thread budget).
    open_slots: usize,
    /// Workers currently executing chunks of the current job.
    outstanding: usize,
    /// A dispatch is in progress; concurrent dispatchers queue on `free`.
    busy: bool,
    /// A worker panicked while running the current job.
    panicked: bool,
    shutdown: bool,
}

/// Pool telemetry, resolved once at construction (no-ops unless the pool
/// was built via [`WorkerPool::new_with_metrics`] with an enabled handle).
/// Durations flow one way — into the instruments — so the determinism
/// contract is untouched.
#[derive(Default)]
struct PoolMetrics {
    /// Workers engaged in the current job, dispatcher included (0 idle).
    busy: Gauge,
    /// The pool's maximum parallelism.
    capacity: Gauge,
    /// Total jobs dispatched through the pool.
    dispatches: Counter,
    /// Time a dispatcher spent waiting for the single job slot, in µs.
    dispatch_wait_us: Histogram,
}

struct PoolShared {
    /// Every acquisition recovers from poisoning via
    /// `unwrap_or_else(PoisonError::into_inner)` rather than panicking: the
    /// critical sections below touch only `Slot`'s plain integers and flags
    /// (job closures run *outside* the lock, wrapped in `catch_unwind`), so
    /// a poisoned mutex cannot leave `Slot` in a torn state and the serving
    /// path must not die over one.
    slot: Mutex<Slot>,
    /// Workers wait here for a new job epoch.
    work: Condvar,
    /// The dispatcher waits here for `outstanding` to return to zero.
    done: Condvar,
    /// Concurrent dispatchers wait here for the job slot to free up.
    free: Condvar,
    metrics: PoolMetrics,
}

/// A persistent pool of worker threads executing deterministic chunk grids.
///
/// The pool exists purely to amortize thread creation: a job is the same
/// `(chunk grid, closure)` pair sequential execution runs in order, handed
/// out through an atomic chunk counter, so results are bitwise identical to
/// sequential execution.  Create one pool per long-running computation (an
/// embedding, a sweep) and reuse it for every kernel call.
///
/// A pool created with [`WorkerPool::new`]`(capacity)` spawns `capacity - 1`
/// helper threads; the dispatching thread itself is always the remaining
/// worker, so `capacity` is the maximum parallelism of a job.  Dispatches are
/// serialized: if the pool is already running a job, the next dispatcher
/// blocks until the slot frees (and a *nested* dispatch from inside a running
/// chunk degrades to sequential execution instead of deadlocking).
///
/// Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with the given total parallelism (clamped to at least
    /// 1).  `capacity - 1` helper threads are spawned immediately; the
    /// dispatching thread supplies the final unit of parallelism.
    ///
    /// A helper thread that fails to spawn (resource exhaustion) is simply
    /// not part of the pool: [`WorkerPool::capacity`] reports what was
    /// actually obtained, and a smaller pool runs every job correctly —
    /// results never depend on the worker count.
    pub fn new(capacity: usize) -> Self {
        Self::new_with_metrics(capacity, &MetricsHandle::noop())
    }

    /// Like [`WorkerPool::new`], but reporting utilization into `metrics`:
    /// a `nrp_pool_workers_busy` gauge (workers engaged in the current job),
    /// `nrp_pool_capacity`, a `nrp_pool_dispatches_total` counter, and a
    /// `nrp_pool_dispatch_wait_us` histogram of the time dispatchers spend
    /// queued on the single job slot.  With a disabled handle this is
    /// exactly [`WorkerPool::new`].
    pub fn new_with_metrics(capacity: usize, metrics: &MetricsHandle) -> Self {
        let helpers = capacity.max(1) - 1;
        let pool_metrics = PoolMetrics {
            busy: metrics.gauge(
                "nrp_pool_workers_busy",
                "Workers engaged in the current pool job (dispatcher included).",
            ),
            capacity: metrics.gauge(
                "nrp_pool_capacity",
                "Maximum parallelism of the worker pool.",
            ),
            dispatches: metrics.counter(
                "nrp_pool_dispatches_total",
                "Jobs dispatched through the worker pool.",
            ),
            dispatch_wait_us: metrics.histogram(
                "nrp_pool_dispatch_wait_us",
                "Time a dispatcher waited for the pool's job slot, in microseconds.",
            ),
        };
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                open_slots: 0,
                outstanding: 0,
                busy: false,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            free: Condvar::new(),
            metrics: pool_metrics,
        });
        let handles: Vec<JoinHandle<()>> = (0..helpers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nrp-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        shared.metrics.capacity.set(handles.len() as u64 + 1);
        Self { shared, handles }
    }

    /// The maximum parallelism of a job: helper threads plus the dispatcher.
    pub fn capacity(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(c)` for every chunk index `c` in `0..num_chunks`, using up to
    /// `extra_workers` pool threads alongside the calling thread.
    ///
    /// Each chunk index is handed to exactly one worker by an atomic counter;
    /// the call returns only after every chunk has completed.  Panics from
    /// `f` are re-raised on the calling thread (the pool itself survives).
    fn run(&self, extra_workers: usize, num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let extra = extra_workers.min(self.handles.len());
        if extra == 0 || num_chunks <= 1 || IN_POOL_JOB.with(Cell::get) {
            for c in 0..num_chunks {
                f(c);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let job = Job {
            // SAFETY: lifetime erasure only.  The reference handed to workers
            // is valid for the whole dispatch because `DispatchGuard` (dropped
            // below, also on unwind) clears the job slot and blocks until
            // `outstanding == 0` — no worker can touch `f` after that.
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            },
            // SAFETY: same erasure, same guarantee — `next` lives on this
            // stack frame until `DispatchGuard` has drained every worker.
            next: unsafe { std::mem::transmute::<&AtomicUsize, &'static AtomicUsize>(&next) },
            num_chunks,
        };
        // Telemetry only: how long this dispatcher queued on the job slot.
        // The clock is read through the designated owner (`nrp_obs::clock`)
        // and the value flows one way into the histogram, never into results.
        let wait_start = self
            .shared
            .metrics
            .dispatch_wait_us
            .is_active()
            .then(clock::now);
        {
            let mut slot = self
                .shared
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while slot.busy {
                slot = self
                    .shared
                    .free
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            slot.busy = true;
            slot.panicked = false;
            slot.epoch = slot.epoch.wrapping_add(1);
            slot.open_slots = extra;
            slot.job = Some(job);
            self.shared.work.notify_all();
        }
        if let Some(started) = wait_start {
            self.shared
                .metrics
                .dispatch_wait_us
                .observe(clock::micros_since(started));
        }
        self.shared.metrics.dispatches.inc();
        self.shared.metrics.busy.set(extra as u64 + 1);
        let guard = DispatchGuard {
            shared: &self.shared,
        };
        IN_POOL_JOB.with(|flag| flag.set(true));
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                break;
            }
            f(c);
        }
        // Normal or unwinding, the guard clears the job, waits for the
        // workers, frees the slot and propagates any worker panic.
        drop(guard);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = self
                .shared
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Ends a dispatch: clears the job slot, waits for every participating
/// worker to finish (so the lifetime-erased borrows in [`Job`] are dead),
/// releases the slot to queued dispatchers and re-raises worker panics.
/// Runs from `Drop` so an unwinding dispatch closure cannot leave workers
/// holding dangling references.
struct DispatchGuard<'p> {
    shared: &'p PoolShared,
}

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|flag| flag.set(false));
        let mut slot = self
            .shared
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.job = None;
        while slot.outstanding > 0 {
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panicked = slot.panicked;
        slot.busy = false;
        self.shared.free.notify_one();
        drop(slot);
        self.shared.metrics.busy.set(0);
        if panicked && !std::thread::panicking() {
            panic!("worker pool job panicked");
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if let Some(job) = slot.job {
                        if slot.open_slots > 0 {
                            slot.open_slots -= 1;
                            slot.outstanding += 1;
                            break job;
                        }
                    }
                    // Job already cleared or fully staffed: skip this epoch.
                    continue;
                }
                slot = shared
                    .work
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Catch panics so one bad chunk closure cannot kill the pool; the
        // dispatcher re-raises via the `panicked` flag.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            IN_POOL_JOB.with(|flag| flag.set(true));
            loop {
                let c = job.next.fetch_add(1, Ordering::Relaxed);
                if c >= job.num_chunks {
                    break;
                }
                (job.f)(c);
            }
        }));
        IN_POOL_JOB.with(|flag| flag.set(false));
        let mut slot = shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if result.is_err() {
            slot.panicked = true;
        }
        slot.outstanding -= 1;
        if slot.outstanding == 0 {
            shared.done.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Exec
// ---------------------------------------------------------------------------

/// An execution policy: either the calling thread alone, or a thread budget
/// spent on a persistent [`WorkerPool`].
///
/// `Exec` is cheap to clone (the pool is behind an `Arc`) and is what the
/// `*_exec` kernels take.  The policy never affects results — only where the
/// worker threads come from:
///
/// * [`Exec::sequential`] — everything on the calling thread; the reference
///   every threaded run is bitwise identical to.
/// * [`Exec::pooled`] — dispatch to a long-lived pool, paying thread-spawn
///   cost once per pool instead of once per call.
#[derive(Clone, Debug, Default)]
pub struct Exec {
    threads: usize,
    pool: Option<Arc<WorkerPool>>,
}

impl Exec {
    /// Runs everything on the calling thread.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            pool: None,
        }
    }

    /// Dispatches kernel calls to `pool`, using up to `threads` workers
    /// (clamped to the pool's capacity at dispatch time).
    pub fn pooled(pool: Arc<WorkerPool>, threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pool: Some(pool),
        }
    }

    /// The thread budget (at least 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// True if this policy can use more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Runs `f(c)` for every `c in 0..num_chunks` under this policy.  Each
    /// chunk is executed by exactly one worker; the call returns after all
    /// chunks completed.
    fn run_chunks(&self, num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = effective_threads(self.threads(), num_chunks);
        match &self.pool {
            Some(pool) if workers > 1 => pool.run(workers - 1, num_chunks, f),
            _ => (0..num_chunks).for_each(f),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked primitives
// ---------------------------------------------------------------------------

/// Maps `f` over fixed chunks of `0..n` under `exec` and returns the
/// per-chunk results **in ascending chunk order**.
///
/// `chunk_size` must not be derived from the thread budget — callers pass a
/// constant (or a pure function of `n`) so the chunk grid, and therefore any
/// order-sensitive computation downstream, is identical for every budget.
pub fn par_chunk_map_exec<T, F>(n: usize, chunk_size: usize, exec: &Exec, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n, chunk_size);
    let num_chunks = ranges.len();
    if !exec.is_parallel() || num_chunks <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..num_chunks).map(|_| OnceLock::new()).collect();
    let slots_ref = &slots;
    let ranges_ref = &ranges;
    let f_ref = &f;
    exec.run_chunks(num_chunks, &|c| {
        // The counter hands each index to exactly one worker, so the slot is
        // always empty here.
        let _ = slots_ref[c].set(f_ref(ranges_ref[c].clone()));
    });
    slots
        .into_iter()
        // nrp-lint: allow(P004) — cannot fire: run_chunks returns only after DispatchGuard drained every worker, and the atomic counter hands each chunk index to exactly one worker, which fills that slot
        .map(|slot| slot.into_inner().expect("every chunk produces a result"))
        .collect()
}

/// Fallible variant of [`par_chunk_map_exec`]: the first error **in chunk
/// order** is returned (workers still run every chunk, so side effects must
/// be idempotent; all callers here are pure).
pub fn try_par_chunk_map_exec<T, E, F>(
    n: usize,
    chunk_size: usize,
    exec: &Exec,
    f: F,
) -> std::result::Result<Vec<T>, E>
where
    T: Send + Sync,
    E: Send + Sync,
    F: Fn(Range<usize>) -> std::result::Result<T, E> + Sync,
{
    par_chunk_map_exec(n, chunk_size, exec, f)
        .into_iter()
        .collect()
}

/// Deterministic chunked map-reduce under `exec`: maps fixed chunks of
/// `0..n` in parallel, then folds the chunk results **in ascending chunk
/// order** on the calling thread.  Returns `None` for `n == 0`.
pub fn par_reduce_exec<T, F, G>(
    n: usize,
    chunk_size: usize,
    exec: &Exec,
    map: F,
    fold: G,
) -> Option<T>
where
    T: Send + Sync,
    F: Fn(Range<usize>) -> T + Sync,
    G: FnMut(T, T) -> T,
{
    par_chunk_map_exec(n, chunk_size, exec, map)
        .into_iter()
        .reduce(fold)
}

/// A raw base pointer that may cross thread boundaries.  Only used to carve
/// **disjoint** row blocks out of one output buffer; see the safety argument
/// in [`par_fill_rows_exec`].
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: the pointer is only dereferenced through disjoint, uniquely-owned
// sub-slices (one per chunk index), and the dispatching call blocks until all
// workers finished.
unsafe impl Send for SendPtr {}
// SAFETY: shared access is only ever the `Copy` of the base address itself;
// every dereference goes through the per-chunk disjoint sub-slices described
// above, so concurrent `&SendPtr` use cannot alias a write.
unsafe impl Sync for SendPtr {}

/// Fills a `rows x cols` row-major buffer where **each row is computed
/// independently** by `fill(row_index, row_slice)`, under `exec`.
///
/// Because a row's value never depends on the chunking, the output is bitwise
/// identical for every thread budget, and also identical to the plain
/// sequential loop `for i in 0..rows { fill(i, row_i) }`.  Work is handed out
/// as fixed [`ROW_CHUNK`]-row blocks through the same lock-free chunk counter
/// as every other kernel (no queue, no mutex).
pub fn par_fill_rows_exec<F>(rows: usize, cols: usize, exec: &Exec, fill: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let mut data = vec![0.0; rows * cols];
    if rows == 0 || cols == 0 {
        return data;
    }
    let num_chunks = rows.div_ceil(ROW_CHUNK);
    if !exec.is_parallel() || num_chunks <= 1 {
        for (i, row) in data.chunks_mut(cols).enumerate() {
            fill(i, row);
        }
        return data;
    }
    let base = SendPtr(data.as_mut_ptr());
    let fill_ref = &fill;
    exec.run_chunks(num_chunks, &move |c| {
        // Capture the whole `SendPtr` (not the raw pointer field) so the
        // closure stays `Sync` under edition-2021 disjoint capture.
        let base = base;
        let start_row = c * ROW_CHUNK;
        let end_row = rows.min(start_row + ROW_CHUNK);
        // SAFETY: chunk `c` owns rows `start_row..end_row` exclusively — the
        // chunk counter hands each index to exactly one worker, the blocks of
        // different chunks are disjoint, and `run_chunks` returns (keeping
        // `data` alive and un-aliased) only after every chunk completed.
        let block = unsafe {
            std::slice::from_raw_parts_mut(
                base.0.add(start_row * cols),
                (end_row - start_row) * cols,
            )
        };
        for (offset, row) in block.chunks_mut(cols).enumerate() {
            fill_ref(start_row + offset, row);
        }
    });
    data
}

// ---------------------------------------------------------------------------
// Instruction-set dispatch for the dense micro-kernels
// ---------------------------------------------------------------------------
//
// The dense micro-kernels under `matmul_exec`, `gram_exec` and
// `orthonormalize_exec` run one `#[inline(always)]` body either as compiled
// for the baseline target or as compiled a second time with AVX2 enabled,
// picked once per process by CPU detection.  Both copies perform the same
// IEEE multiplies and adds in the same order (FMA is never enabled —
// nrp-lint rule D004), so the module's contract holds in full: bitwise
// identical for every thread budget *and* with or without AVX2.

/// A dense micro-kernel call (see `crate::kernels`): safe code whose `run`
/// is `#[inline(always)]`, so [`run_kernel`] can compile it a second time
/// with AVX2 enabled.
pub(crate) trait Kernel {
    /// Performs the call.
    fn run(self);
}

/// True when the CPU supports AVX2.  Detected once per process.
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `kernel`, through its AVX2 copy when the CPU has AVX2.
///
/// Both copies perform the same IEEE operations in the same order — AVX2
/// only widens the vectors, and fused multiply-add is never enabled — so
/// the choice never changes a bit.
#[inline]
pub(crate) fn run_kernel<K: Kernel>(kernel: K) {
    run_kernel_on(kernel, true);
}

/// [`run_kernel`], with the AVX2 copy allowed only when `use_avx2` is set
/// (the portable copy otherwise), so tests can pin either path.
#[inline]
pub(crate) fn run_kernel_on<K: Kernel>(kernel: K, use_avx2: bool) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && avx2_detected() {
        // SAFETY: `run_avx2`'s only precondition is that the CPU supports
        // AVX2, which `avx2_detected` has just confirmed at run time.  The
        // kernel itself is safe code.
        unsafe { run_avx2(kernel) };
        return;
    }
    let _ = use_avx2;
    kernel.run();
}

/// `kernel.run()` compiled with AVX2 (and without FMA, which would fuse
/// the kernels' separate multiplies and adds and change their bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled(threads: usize) -> Exec {
        Exec::pooled(Arc::new(WorkerPool::new(threads)), threads)
    }

    #[test]
    fn chunk_map_preserves_order_for_any_thread_count() {
        let expected: Vec<Vec<usize>> = chunk_ranges(37, 5)
            .into_iter()
            .map(|r| r.collect())
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let got = par_chunk_map_exec(37, 5, &pooled(threads), |r| r.collect::<Vec<usize>>());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn reduce_is_bitwise_invariant_across_thread_counts_and_policies() {
        // Sum of many values whose naive total depends on grouping; with the
        // fixed chunk grid every budget must agree bit-for-bit.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 1e-3 + 1e9)
            .collect();
        let sum = |exec: &Exec| {
            par_reduce_exec(
                values.len(),
                REDUCE_CHUNK,
                exec,
                |r| r.map(|i| values[i]).fold(0.0_f64, |a, b| a + b),
                |a, b| a + b,
            )
            .unwrap()
        };
        let reference = sum(&Exec::sequential());
        for threads in [2usize, 3, 7] {
            assert_eq!(
                sum(&pooled(threads)).to_bits(),
                reference.to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fill_rows_matches_sequential_loop() {
        let rows = 301;
        let cols = 7;
        let fill = |i: usize, row: &mut [f64]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * cols + j) as f64 * 0.5 - 3.0;
            }
        };
        let mut sequential = vec![0.0; rows * cols];
        for (i, row) in sequential.chunks_mut(cols).enumerate() {
            fill(i, row);
        }
        for exec in [Exec::sequential(), pooled(2), pooled(4), pooled(16)] {
            assert_eq!(
                par_fill_rows_exec(rows, cols, &exec, fill),
                sequential,
                "threads = {}",
                exec.threads()
            );
        }
    }

    #[test]
    fn try_chunk_map_returns_first_error_in_chunk_order() {
        let result: std::result::Result<Vec<usize>, usize> =
            try_par_chunk_map_exec(100, 10, &pooled(4), |r| {
                if r.start >= 30 {
                    Err(r.start)
                } else {
                    Ok(r.start)
                }
            });
        assert_eq!(result, Err(30));
        let ok: std::result::Result<Vec<usize>, usize> =
            try_par_chunk_map_exec(40, 10, &pooled(2), |r| Ok::<usize, usize>(r.start));
        assert_eq!(ok.unwrap(), vec![0, 10, 20, 30]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(par_chunk_map_exec(0, 4, &pooled(3), |r| r.len()).is_empty());
        assert_eq!(
            par_reduce_exec(0, 4, &pooled(2), |_| 1usize, |a, b| a + b),
            None
        );
        assert!(par_fill_rows_exec(0, 5, &pooled(4), |_, _| {}).is_empty());
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(16, 3), 3);
    }

    #[test]
    fn pool_survives_many_small_dispatches() {
        // The point of the pool: thousands of tiny jobs against one set of
        // threads.  Every dispatch must complete and agree with sequential.
        let pool = Arc::new(WorkerPool::new(4));
        let exec = Exec::pooled(Arc::clone(&pool), 4);
        for round in 0..500usize {
            let got = par_chunk_map_exec(23, 4, &exec, |r| r.start + round);
            let want: Vec<usize> = chunk_ranges(23, 4)
                .iter()
                .map(|r| r.start + round)
                .collect();
            assert_eq!(got, want, "round {round}");
        }
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn pool_is_shared_safely_across_dispatching_threads() {
        // Two threads dispatching into one pool serialize on the job slot
        // and both complete correctly.
        let pool = Arc::new(WorkerPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..2 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let exec = Exec::pooled(pool, 3);
                    for _ in 0..100 {
                        let sums = par_chunk_map_exec(64, 8, &exec, |r| r.sum::<usize>());
                        let want: Vec<usize> = chunk_ranges(64, 8)
                            .iter()
                            .map(|r| r.clone().sum())
                            .collect();
                        assert_eq!(sums, want, "dispatcher {t}");
                    }
                });
            }
        });
    }

    #[test]
    fn nested_dispatch_degrades_to_sequential_instead_of_deadlocking() {
        let pool = Arc::new(WorkerPool::new(2));
        let exec = Exec::pooled(Arc::clone(&pool), 2);
        let inner_exec = exec.clone();
        let got = par_chunk_map_exec(8, 2, &exec, move |r| {
            // A chunk that itself fans out: must run (sequentially) rather
            // than deadlock on the single job slot.
            par_chunk_map_exec(4, 1, &inner_exec, |inner| inner.start)
                .into_iter()
                .sum::<usize>()
                + r.start
        });
        assert_eq!(got, vec![6, 8, 10, 12]);
    }

    #[test]
    fn pool_worker_panic_propagates_and_pool_survives() {
        let pool = Arc::new(WorkerPool::new(4));
        let exec = Exec::pooled(Arc::clone(&pool), 4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_chunk_map_exec(32, 1, &exec, |r| {
                if r.start == 17 {
                    panic!("boom");
                }
                r.start
            })
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // The pool remains usable afterwards.
        let got = par_chunk_map_exec(8, 2, &exec, |r| r.start);
        assert_eq!(got, vec![0, 2, 4, 6]);
    }

    #[test]
    fn pooled_budget_is_clamped_to_pool_capacity() {
        let pool = Arc::new(WorkerPool::new(2));
        let exec = Exec::pooled(pool, 64);
        let got = par_chunk_map_exec(100, 7, &exec, |r| r.len());
        let want: Vec<usize> = chunk_ranges(100, 7).iter().map(|r| r.len()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_capacity_pool_runs_jobs_on_the_caller() {
        let pool = Arc::new(WorkerPool::new(1));
        assert_eq!(pool.capacity(), 1);
        let exec = Exec::pooled(pool, 8);
        let got = par_chunk_map_exec(10, 3, &exec, |r| r.start);
        assert_eq!(got, vec![0, 3, 6, 9]);
    }

    #[test]
    fn pool_reports_utilization_metrics() {
        use nrp_obs::SeriesValue;
        let handle = MetricsHandle::enabled();
        let pool = Arc::new(WorkerPool::new_with_metrics(3, &handle));
        let exec = Exec::pooled(Arc::clone(&pool), 3);
        for _ in 0..5 {
            let got = par_chunk_map_exec(64, 4, &exec, |r| r.len());
            assert_eq!(got.len(), 16);
        }
        let snap = handle.snapshot();
        let value = |name: &str| {
            let family = snap
                .families
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("family {name} registered"));
            match &family.series[0].value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => *v,
                SeriesValue::Histogram(h) => h.count(),
            }
        };
        assert_eq!(value("nrp_pool_capacity"), 3);
        assert_eq!(value("nrp_pool_workers_busy"), 0, "idle after the job");
        assert_eq!(value("nrp_pool_dispatches_total"), 5);
        assert_eq!(
            value("nrp_pool_dispatch_wait_us"),
            5,
            "one wait observation per dispatch"
        );
        // A metrics-less pool still works and records nothing.
        let plain = Arc::new(WorkerPool::new(2));
        let got = par_chunk_map_exec(10, 2, &Exec::pooled(plain, 2), |r| r.start);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn exec_accessors() {
        assert_eq!(Exec::sequential().threads(), 1);
        assert!(!Exec::sequential().is_parallel());
        assert!(Exec::sequential().pool().is_none());
        assert_eq!(Exec::default().threads(), 1);
        assert!(!Exec::default().is_parallel());
        let exec = Exec::pooled(Arc::new(WorkerPool::new(2)), 0);
        assert_eq!(exec.threads(), 1);
        assert!(exec.pool().is_some());
        let exec = pooled(2);
        assert_eq!(exec.threads(), 2);
        assert!(exec.pool().is_some());
        assert!(exec.is_parallel());
    }
}
