//! Asserts the zero-allocation contract of the forward-push hot path: with a
//! warmed [`PushWorkspace`], `forward_push_into` performs **no heap
//! allocation at all**, for any source.
//!
//! The proof is a counting global allocator: every `alloc`/`realloc` bumps a
//! counter of the allocating thread, and the assertion window around the
//! pushes must observe zero bumps on the test's own thread.  The counter is
//! per thread because the test harness runs this binary's tests in parallel:
//! a global counter would also count the other tests' allocations.
//! `forward_push_into` runs entirely on the calling thread, so the
//! per-thread count is exactly the pushes' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nrp_core::push::{forward_push_into, PushWorkspace};
use nrp_core::DanglingPolicy;
use nrp_graph::generators::stochastic_block_model;
use nrp_graph::{Graph, GraphKind, NodeId};

thread_local! {
    // Const-initialized and drop-free, so reading it never allocates and
    // stays valid during thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the `System` allocator; the
// counter is a side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards to `System::alloc` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout pair to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's arguments to `System::realloc` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System::alloc_zeroed` with the layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn test_graph() -> Graph {
    stochastic_block_model(&[60, 60], 0.1, 0.02, GraphKind::Directed, 5)
        .expect("valid SBM parameters")
        .0
}

#[test]
fn warm_workspace_pushes_allocate_nothing() {
    let graph = test_graph();
    let n = graph.num_nodes();
    // Pre-sizing for the graph makes even the first push allocation-free;
    // the warm-up sweep below additionally covers the lazily-grown path.
    let mut ws = PushWorkspace::with_capacity(n);
    for source in 0..n as NodeId {
        forward_push_into(
            &graph,
            source,
            0.15,
            1e-4,
            DanglingPolicy::SelfLoop,
            &mut ws,
        )
        .expect("push succeeds");
    }

    // The measured window: one full sweep over every source with the warm
    // workspace must not touch the allocator.
    let mut total_pushes = 0usize;
    let before = allocations();
    for source in 0..n as NodeId {
        let outcome = forward_push_into(
            &graph,
            source,
            0.15,
            1e-4,
            DanglingPolicy::SelfLoop,
            &mut ws,
        )
        .expect("push succeeds");
        total_pushes += outcome.num_pushes;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "forward_push_into allocated {} times across {n} warm-workspace sources",
        after - before
    );
    assert!(total_pushes > 0, "the sweep did real work");
    assert!(ws.estimates().iter().any(|&(_, p)| p > 0.0));
}

#[test]
fn workspace_grown_from_a_smaller_graph_is_also_allocation_free() {
    // The lazily-grown path: warm the workspace on a small graph first, let
    // `ensure` grow it to the big graph, then assert the grown buffers
    // really hold the full sweep without reallocating (reserve must target
    // capacity n, not `n - old_capacity` more).
    let small = stochastic_block_model(&[10, 10], 0.2, 0.05, GraphKind::Directed, 3)
        .expect("valid SBM parameters")
        .0;
    let graph = test_graph();
    let n = graph.num_nodes();
    let mut ws = PushWorkspace::new();
    forward_push_into(&small, 0, 0.15, 1e-4, DanglingPolicy::SelfLoop, &mut ws)
        .expect("push succeeds");
    for source in 0..n as NodeId {
        forward_push_into(
            &graph,
            source,
            0.15,
            1e-4,
            DanglingPolicy::SelfLoop,
            &mut ws,
        )
        .expect("push succeeds");
    }
    let before = allocations();
    for source in 0..n as NodeId {
        forward_push_into(
            &graph,
            source,
            0.15,
            1e-4,
            DanglingPolicy::SelfLoop,
            &mut ws,
        )
        .expect("push succeeds");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "grown-then-warm workspace allocated {} times",
        after - before
    );
}

#[test]
fn pre_sized_workspace_first_push_allocates_nothing() {
    let graph = test_graph();
    let n = graph.num_nodes();
    let mut ws = PushWorkspace::with_capacity(n);
    let before = allocations();
    forward_push_into(&graph, 7, 0.15, 1e-4, DanglingPolicy::SelfLoop, &mut ws)
        .expect("push succeeds");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "with_capacity({n}) must make even the first push allocation-free"
    );
}
