//! Chaos tests: the server under deterministic, seeded fault injection
//! (`--features failpoints`).  Each test drives real TCP traffic while the
//! `fault` registry injects worker panics, socket resets, or compute
//! delays, and asserts the resilience contract: the accept loop never
//! dies, shed requests get well-formed 503s, a retrying client completes
//! its workload exactly once, and the same seed reproduces the same
//! injection schedule.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use nrp_serve::{
    fault, fixture, CircuitBreaker, HttpClient, ResilientClient, RetryPolicy, ServeConfig,
    ServeState, Server,
};

const FIXTURE_NODES: usize = 120;
const FIXTURE_SEED: u64 = 11;

/// The failpoint registry is process-global, so tests that configure it
/// must not interleave.  The guard also clears the registry on drop —
/// panics included — so one failing test cannot poison the others.
static GATE: Mutex<()> = Mutex::new(());

struct FaultScope<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl FaultScope<'_> {
    fn install(spec: &str, seed: u64) -> Self {
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        fault::configure(spec, seed).expect("valid failpoint spec");
        FaultScope { _guard: guard }
    }
}

impl Drop for FaultScope<'_> {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn start_server(config: ServeConfig) -> Server {
    let (graph, embedding) = fixture(FIXTURE_NODES, FIXTURE_SEED);
    Server::start(ServeState::new(graph, Some(embedding), config)).expect("server starts")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        read_timeout_ms: 500,
        ..ServeConfig::default()
    }
}

fn resilient(server: &Server) -> ResilientClient {
    // Breaker threshold above any injected failure streak in these tests:
    // the breaker's own transitions are unit-tested; here it must only not
    // get in the way of the retry loop.
    ResilientClient::new(
        server.addr(),
        RetryPolicy::default(),
        CircuitBreaker::new(8, 100),
        0xC0FFEE,
    )
}

#[test]
fn worker_panics_spare_the_dispatcher_and_retries_complete_the_workload_once() {
    // The first three computes panic, deterministically.  The dispatcher
    // must catch each one (failing only that key), and the retrying client
    // must converge: 20 requests, 20 unique successes, exactly 3 retries.
    let _scope = FaultScope::install("batcher.compute=panic:1.0:3", 7);
    let server = start_server(test_config());
    let mut client = resilient(&server);

    for source in 0..20u32 {
        let response = client
            .get(&format!("/ppr?source={source}&top=4"))
            .expect("request converges");
        assert_eq!(response.status, 200, "source {source}");
    }
    let stats = client.stats();
    assert_eq!(stats.ok, 20, "every workload item completed exactly once");
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.retries, 3,
        "one retry per injected panic, none after the limit"
    );
    assert_eq!(fault::triggered("batcher.compute"), 3);

    // The dispatcher survived all three panics.
    let health = nrp_serve::get_json_once(server.addr(), "/healthz").expect("healthz");
    let stats_page = nrp_serve::get_json_once(server.addr(), "/stats").expect("stats");
    assert_eq!(
        health
            .as_object()
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("ok")
    );
    let panics = stats_page
        .as_object()
        .and_then(|o| o.get("batch"))
        .and_then(|v| v.as_object())
        .and_then(|o| o.get("panics"))
        .and_then(|v| v.as_u64());
    assert_eq!(panics, Some(3), "server counted the caught panics");
    server.shutdown();
}

#[test]
fn socket_faults_never_kill_the_accept_loop() {
    // Six injected connection faults (reads and writes), then clean air.
    // Every request must still converge through retries, and the accept
    // loop must be alive and serving afterwards.
    let _scope = FaultScope::install("conn.read=io-error:1.0:4;conn.write=io-error:1.0:2", 3);
    let server = start_server(test_config());
    let mut client = resilient(&server);

    for source in 0..10u32 {
        let response = client
            .get(&format!("/ppr?source={source}&top=4"))
            .expect("request converges despite socket faults");
        assert_eq!(response.status, 200, "source {source}");
    }
    assert_eq!(client.stats().ok, 10);
    assert_eq!(client.stats().failed, 0);
    assert_eq!(fault::triggered("conn.read"), 4);
    assert_eq!(fault::triggered("conn.write"), 2);

    // Fresh connection, no faults left: the accept loop is healthy.
    let mut fresh = HttpClient::new(server.addr());
    let (status, _) = fresh.get("/healthz").expect("accept loop alive");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn a_deadline_expiring_mid_compute_becomes_a_504() {
    // A 250ms injected compute delay against a 60ms request deadline: the
    // waiter must give up at its deadline with a 504 long before the
    // compute finishes, and the server must count the timeout.  The second
    // request (fault budget spent) proves the worker came back clean.
    let _scope = FaultScope::install("batcher.compute=delay(250):1.0:1", 5);
    let server = start_server(ServeConfig {
        cache_capacity: 0,
        ..test_config()
    });
    let mut client = HttpClient::new(server.addr());

    let response = client
        .get_full("/ppr?source=0&top=4", &[("x-deadline-ms", "60")])
        .expect("a response either way");
    assert_eq!(response.status, 504);
    let text = std::str::from_utf8(&response.body).expect("JSON body");
    assert!(text.contains("deadline"), "{text}");

    let stats = nrp_serve::get_json_once(server.addr(), "/stats").expect("stats");
    let timeouts = stats
        .as_object()
        .and_then(|o| o.get("resilience"))
        .and_then(|v| v.as_object())
        .and_then(|o| o.get("timeouts"))
        .and_then(|v| v.as_u64());
    assert_eq!(timeouts, Some(1), "the server counted the expired deadline");

    let (status, _) = client
        .get("/ppr?source=1&top=4")
        .expect("service resumes once the fault budget is spent");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn queue_saturation_sheds_with_well_formed_503s() {
    // One slot of queue and a 150ms delay on the first two computes: the
    // burst below must split into a few successes and fast, well-formed
    // 503 sheds (or 504s past the deadline) — never hangs, never malformed
    // responses, and every answer well inside twice the request deadline.
    const DEADLINE_MS: u64 = 500;
    let _scope = FaultScope::install("batcher.compute=delay(150):1.0:2", 1);
    let server = start_server(ServeConfig {
        queue_capacity: 1,
        cache_capacity: 0,
        retry_after_secs: 2,
        ..test_config()
    });

    let outcomes: Vec<(u16, Option<u64>, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u32)
            .map(|source| {
                let addr = server.addr();
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let sent = std::time::Instant::now();
                    let response = client
                        .get_full(
                            &format!("/ppr?source={source}&top=4"),
                            &[("x-deadline-ms", &DEADLINE_MS.to_string())],
                        )
                        .expect("a response: success, shed or timeout");
                    let elapsed = sent.elapsed();
                    assert!(
                        elapsed <= std::time::Duration::from_millis(2 * DEADLINE_MS),
                        "status {} took {elapsed:?}, over twice the deadline",
                        response.status
                    );
                    (response.status, response.retry_after, response.body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst worker"))
            .collect()
    });

    let ok = outcomes.iter().filter(|(s, _, _)| *s == 200).count();
    let shed: Vec<_> = outcomes.iter().filter(|(s, _, _)| *s == 503).collect();
    let timed_out: Vec<_> = outcomes.iter().filter(|(s, _, _)| *s == 504).collect();
    assert!(ok >= 1, "someone got through: {outcomes:?}");
    assert!(
        !shed.is_empty(),
        "the 1-slot queue shed someone: {outcomes:?}"
    );
    assert_eq!(
        ok + shed.len() + timed_out.len(),
        outcomes.len(),
        "only 200s, 503s and 504s"
    );
    for (_, _, body) in &timed_out {
        let text = std::str::from_utf8(body).expect("JSON body");
        assert!(text.contains("deadline"), "{text}");
    }
    for (_, retry_after, body) in &shed {
        assert_eq!(
            *retry_after,
            Some(2),
            "every shed carries the configured Retry-After"
        );
        let text = std::str::from_utf8(body).expect("JSON body");
        assert!(
            text.contains("\"error\""),
            "shed body is the documented error shape: {text}"
        );
    }

    let health = nrp_serve::get_json_once(server.addr(), "/healthz").expect("healthz after burst");
    assert_eq!(
        health
            .as_object()
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("ok")
    );
    // The computes that did run left kernel-time samples in /metrics.
    let metrics = nrp_serve::get_text_once(server.addr(), "/metrics").expect("/metrics");
    let compute_samples = metrics
        .lines()
        .find_map(|line| line.strip_prefix("nrp_batch_compute_us_count "))
        .and_then(|count| count.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no nrp_batch_compute_us_count in:\n{metrics}"));
    assert!(compute_samples > 0, "no kernel-compute samples");
    server.shutdown();
}

#[test]
fn the_same_seed_reproduces_the_same_injection_schedule() {
    // Two identical runs, same seed, fresh server each: the per-request
    // status sequence and the trigger count must match bit for bit.  A
    // third run with a different seed must diverge (the schedule really is
    // seed-driven, not vacuously all-or-nothing).
    let run = |seed: u64| -> (Vec<u16>, u64) {
        let _scope = FaultScope::install("batcher.compute=io-error:0.5:64", seed);
        let server = start_server(ServeConfig {
            cache_capacity: 0,
            ..test_config()
        });
        let mut client = HttpClient::new(server.addr());
        let statuses: Vec<u16> = (0..24u32)
            .map(|source| {
                client
                    .get_full(&format!("/ppr?source={source}&top=4"), &[])
                    .expect("a response either way")
                    .status
            })
            .collect();
        let triggered = fault::triggered("batcher.compute");
        server.shutdown();
        (statuses, triggered)
    };

    let (first, first_triggered) = run(0xDEAD_BEEF);
    let (second, second_triggered) = run(0xDEAD_BEEF);
    assert_eq!(first, second, "same seed, same schedule");
    assert_eq!(first_triggered, second_triggered);
    assert!(first_triggered > 0, "the schedule injected something");
    assert!(first.contains(&200), "the schedule let something through");

    let (other, _) = run(0xFEED_FACE);
    assert_ne!(first, other, "a different seed reschedules");
}

#[test]
fn a_warm_key_answers_while_the_batcher_is_held_and_the_queue_is_full() {
    // The batcher is held inside a long injected compute and its one queue
    // slot is taken, so any further miss sheds.  A cached key must still
    // answer 200: hits are served on the connection thread and never enter
    // the queue.
    // No failpoint yet: the warming miss below must run undelayed.
    let _scope = FaultScope::install("", 9);
    let server = start_server(ServeConfig {
        queue_capacity: 1,
        ..test_config()
    });
    let addr = server.addr();
    let mut client = HttpClient::new(addr);
    let (status, _) = client.get("/ppr?source=0&top=4").expect("warming miss");
    assert_eq!(status, 200);

    let batch_stat = |name: &str| -> u64 {
        nrp_serve::get_json_once(addr, "/stats")
            .expect("stats")
            .as_object()
            .and_then(|o| o.get("batch"))
            .and_then(|v| v.as_object())
            .and_then(|o| o.get(name))
            .and_then(|v| v.as_u64())
            .expect("batch counter")
    };
    // Polls until `ready` holds, failing after a generous bound.
    let wait_for = |what: &str, ready: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !ready() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };

    fault::configure("batcher.compute=delay(1500):1.0:1", 9).expect("valid failpoint spec");
    std::thread::scope(|scope| {
        let held = scope.spawn(|| HttpClient::new(addr).get("/ppr?source=1&top=4"));
        // The failpoint triggers once the dispatcher has drained this miss
        // and entered its compute, just before the injected sleep.
        wait_for("the held compute", &|| {
            fault::triggered("batcher.compute") == 1
        });
        let queued = scope.spawn(|| HttpClient::new(addr).get("/ppr?source=2&top=4"));
        wait_for("the queued miss", &|| batch_stat("queue_depth") == 1);

        let shed = HttpClient::new(addr)
            .get_full("/ppr?source=3&top=4", &[])
            .expect("a shed response");
        assert_eq!(shed.status, 503, "the queue is full");
        let (status, _) = client.get("/ppr?source=0&top=4").expect("warm key");
        assert_eq!(status, 200, "a hit does not wait for the held batcher");
        assert_eq!(batch_stat("queue_depth"), 1, "the hit did not queue");

        assert_eq!(held.join().expect("held request").expect("answer").0, 200);
        assert_eq!(
            queued.join().expect("queued request").expect("answer").0,
            200
        );
    });
    assert_eq!(fault::triggered("batcher.compute"), 1);
    server.shutdown();
}
