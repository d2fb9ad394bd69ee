//! Cancellation-latency tests: the SGNS/NCE training loops check the
//! cooperative flag every `CANCEL_CHECK_INTERVAL` SGD steps — not just once
//! per epoch — so even a run configured as a *single* enormous epoch aborts
//! promptly when the flag is raised from another thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nrp::prelude::*;

fn small_graph() -> Graph {
    generators::stochastic_block_model(&[12, 12], 0.4, 0.05, GraphKind::Undirected, 3)
        .expect("valid SBM parameters")
        .0
}

/// Runs `json` with a flag raised ~50ms in, expecting a prompt `Cancelled`.
///
/// Each configuration is sized so a full run takes far longer than the
/// raise delay even on a fast machine, which makes the assertion two-sided:
/// an `Ok` means the workload finished implausibly fast, an over-long run
/// means the mid-epoch check is gone.  The latency bound is deliberately
/// generous (30s vs a sub-millisecond expected latency) so the test cannot
/// flake on slow CI hardware.
fn assert_cancels_mid_epoch(json: &str) {
    let graph = small_graph();
    let embedder = build(&MethodConfig::from_json(json).expect(json)).expect(json);
    let flag = Arc::new(AtomicBool::new(false));
    let ctx = EmbedContext::new().with_cancel_flag(Arc::clone(&flag));
    let raiser = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::Relaxed);
        })
    };
    let started = Instant::now();
    let result = embedder.embed(&graph, &ctx);
    let elapsed = started.elapsed();
    raiser.join().expect("raiser thread");
    match result {
        Err(NrpError::Cancelled) => {}
        Ok(_) => panic!("{json}: run completed before the 50ms cancellation"),
        Err(other) => panic!("{json}: expected Cancelled, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "{json}: cancellation took {elapsed:?}"
    );
}

#[test]
fn line_cancels_inside_a_single_epoch() {
    // One pass of 40M edge samples: hours of work if the per-step check were
    // missing, aborted in milliseconds with it.
    assert_cancels_mid_epoch(
        r#"{"method": "LINE", "dimension": 16, "samples": 40000000, "seed": 1}"#,
    );
}

#[test]
fn verse_cancels_inside_a_single_epoch() {
    assert_cancels_mid_epoch(
        r#"{"method": "VERSE", "dimension": 16, "samples_per_node": 100000, "epochs": 1, "seed": 1}"#,
    );
}

#[test]
fn app_cancels_inside_a_single_epoch() {
    assert_cancels_mid_epoch(
        r#"{"method": "APP", "dimension": 16, "samples_per_node": 100000, "epochs": 1, "seed": 1}"#,
    );
}

#[test]
fn deepwalk_cancels_inside_a_single_sgns_epoch() {
    // 200 walks of length 80 per node with window 10 yield ~7.5M skip-gram
    // pairs (~45M SGNS updates with 5 negatives); one epoch over them is two
    // orders of magnitude beyond the 50ms raise even on fast hardware.
    assert_cancels_mid_epoch(
        r#"{"method": "DeepWalk", "dimension": 16, "walks_per_node": 200, "walk_length": 80, "window": 10, "epochs": 1, "seed": 1}"#,
    );
}
