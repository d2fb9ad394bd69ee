//! End-to-end tests over real TCP: HTTP parser abuse (the accept loop must
//! survive anything a confused or hostile client sends), the bitwise
//! determinism contract for `/ppr`, endpoint semantics, and graceful
//! shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use nrp_core::ppr::single_source_ppr_with_policy;
use nrp_core::push::forward_push_with_policy;
use nrp_serve::{fixture, HttpClient, ServeConfig, ServeState, Server};

const FIXTURE_NODES: usize = 120;
const FIXTURE_SEED: u64 = 11;

fn fixture_parts() -> &'static (nrp_graph::Graph, nrp_core::Embedding) {
    static FIXTURE: OnceLock<(nrp_graph::Graph, nrp_core::Embedding)> = OnceLock::new();
    FIXTURE.get_or_init(|| fixture(FIXTURE_NODES, FIXTURE_SEED))
}

fn start_server(config: ServeConfig) -> Server {
    let (graph, embedding) = fixture_parts().clone();
    Server::start(ServeState::new(graph, Some(embedding), config)).expect("server starts")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        // Short idle timeout so tests that wait for server-side closes
        // finish quickly.
        read_timeout_ms: 500,
        ..ServeConfig::default()
    }
}

/// Writes `payload` raw, then reads until the server closes the connection.
fn raw_exchange(server: &Server, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Writes and the half-close may race a server-side close (it stops
    // reading as soon as it decides to reject); losing that race is fine —
    // the response, if owed, is still readable below.
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

fn status_of(response: &[u8]) -> &str {
    let text = std::str::from_utf8(response).expect("response is UTF-8");
    let mut parts = text.split_ascii_whitespace();
    assert_eq!(parts.next(), Some("HTTP/1.1"), "response: {text:?}");
    parts.next().expect("status code")
}

#[test]
fn malformed_input_never_kills_the_accept_loop() {
    let server = start_server(test_config());

    // 1. Garbage request line -> 400.
    let response = raw_exchange(&server, b"COMPLETE NONSENSE\r\n\r\n");
    assert_eq!(status_of(&response), "400");

    // 2. Unsupported method -> 405.
    let response = raw_exchange(&server, b"BREW /coffee HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&response), "405");

    // 3. Oversized header line -> 431.
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nx-padding: {}\r\n\r\n",
        "a".repeat(32 * 1024)
    );
    let response = raw_exchange(&server, huge.as_bytes());
    assert_eq!(status_of(&response), "431");

    // 4. Too many headers -> 431.
    let mut many = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..200 {
        many.push_str(&format!("x-h{i}: v\r\n"));
    }
    many.push_str("\r\n");
    let response = raw_exchange(&server, many.as_bytes());
    assert_eq!(status_of(&response), "431");

    // 5. Declared body larger than the cap -> 413.
    let response = raw_exchange(
        &server,
        b"POST /ppr HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status_of(&response), "413");

    // 6. Truncated body: the peer promises 50 bytes, sends 5 and closes.
    // No response is owed on a half-delivered message; the server must
    // just close without panicking.
    let _ = raw_exchange(
        &server,
        b"POST /ppr HTTP/1.1\r\ncontent-length: 50\r\n\r\nhello",
    );

    // 7. Connection dropped mid-request-line.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"GET /heal").expect("write");
        drop(stream);
    }

    // 8. Pipelined requests: two messages in one write, two responses back.
    let double = b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
    let response = raw_exchange(&server, &double[..]);
    let text = std::str::from_utf8(&response).unwrap();
    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        2,
        "both pipelined requests answered: {text:?}"
    );

    // After all of the abuse the server still serves normal traffic.
    let health = nrp_serve::get_json_once(server.addr(), "/healthz").expect("healthz");
    assert_eq!(
        health
            .as_object()
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("ok")
    );
    server.shutdown();
}

#[test]
fn hostile_payloads_and_connection_churn_survive() {
    // Beyond protocol mistakes: actively hostile bytes.  None of these may
    // panic a worker (the panic-freedom contract, nrp-lint rules P001-P003)
    // and the server must answer real traffic afterwards.
    let server = start_server(test_config());

    // 1. Binary garbage flood — several KiB of non-UTF-8 noise.
    let garbage: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
        .collect();
    let _ = raw_exchange(&server, &garbage);

    // 2. NUL bytes inside the request line and headers.
    let _ = raw_exchange(&server, b"GET /hea\x00lthz HTTP/1.1\r\nx\x00y: z\r\n\r\n");

    // 3. A header line with no colon.
    let response = raw_exchange(&server, b"GET /healthz HTTP/1.1\r\nnocolonhere\r\n\r\n");
    assert_eq!(status_of(&response), "400");

    // 4. Query-string abuse: duplicate, empty, overlong and numeric-edge
    // parameters must come back as 4xx JSON, never a panic.
    // Duplicate parameters are defined behavior (one of them wins), but the
    // answer must still be a well-formed HTTP response.
    let response = raw_exchange(
        &server,
        b"GET /ppr?source=0&source=1&source=2 HTTP/1.1\r\n\r\n",
    );
    assert!(!status_of(&response).is_empty());
    for target in [
        "/ppr?source=",
        "/ppr?source=18446744073709551616", // u64::MAX + 1
        "/ppr?source=-1",
        "/ppr?source=0&alpha=NaN",
        "/ppr?source=0&r_max=inf",
        "/knn?source=0&k=99999999999999999999",
    ] {
        let request = format!("GET {target} HTTP/1.1\r\n\r\n");
        let response = raw_exchange(&server, request.as_bytes());
        let status = status_of(&response);
        assert!(
            status.starts_with('4'),
            "{target} answered {status}, expected 4xx"
        );
    }

    // 5. Connection churn: open-and-slam sockets interleaved with real
    // requests, from several threads at once.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..25 {
                    if let Ok(stream) = TcpStream::connect(server.addr()) {
                        drop(stream);
                    }
                }
            });
        }
        scope.spawn(|| {
            let mut client = HttpClient::new(server.addr());
            for _ in 0..10 {
                client.get_json("/healthz").expect("healthz during churn");
            }
        });
    });

    // The server is still healthy and still computes correct answers.
    let answer = nrp_serve::get_json_once(server.addr(), "/ppr?source=1&top=4").expect("ppr");
    assert!(answer.as_object().and_then(|o| o.get("entries")).is_some());
    server.shutdown();
}

/// The acceptance criterion: a cached `/ppr` answer is bitwise identical to
/// an uncached direct `single_source_ppr` call, through the JSON wire.
#[test]
fn exact_ppr_is_bitwise_identical_to_direct_call_cached_or_not() {
    let server = start_server(test_config());
    let (graph, _) = fixture_parts();
    let config = server.state().config().clone();
    let mut client = HttpClient::new(server.addr());

    for source in [0u32, 7, 63] {
        let fetch = |client: &mut HttpClient| -> Vec<f64> {
            let answer = client
                .get_json(&format!("/ppr?source={source}&mode=exact"))
                .expect("/ppr exact");
            let vector = answer
                .as_object()
                .and_then(|o| o.get("vector"))
                .and_then(|v| v.as_array())
                .expect("exact answers carry the dense vector");
            vector
                .iter()
                .map(|v| v.as_f64().expect("vector entries are numbers"))
                .collect()
        };
        // First call computes and fills the cache; the second must hit it.
        let uncached = fetch(&mut client);
        let cached = fetch(&mut client);
        let direct = single_source_ppr_with_policy(
            graph,
            source,
            config.alpha,
            config.r_max,
            config.dangling,
        )
        .expect("direct PPR");
        assert_eq!(direct.len(), uncached.len());
        for v in 0..direct.len() {
            assert_eq!(
                direct[v].to_bits(),
                uncached[v].to_bits(),
                "uncached bitwise mismatch at source {source}, node {v}"
            );
            assert_eq!(
                direct[v].to_bits(),
                cached[v].to_bits(),
                "cached bitwise mismatch at source {source}, node {v}"
            );
        }
    }
    let stats = client.get_json("/stats").expect("/stats");
    let hits = stats
        .as_object()
        .and_then(|o| o.get("cache"))
        .and_then(|v| v.as_object())
        .and_then(|o| o.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(hits >= 3, "second fetches were cache hits (hits = {hits})");
    server.shutdown();
}

/// Every `/ppr` push answer is bitwise equal to a direct
/// `forward_push_with_policy` call, for every cell of {1, 4} server threads
/// × {no cache, warm cache} under concurrent keep-alive clients: no request
/// errors, and each request is counted exactly once as a cache hit or miss.
#[test]
fn push_ppr_matches_forward_push_exactly() {
    const CLIENTS: usize = 4;
    const PASSES: usize = 2;
    let (graph, _) = fixture_parts();
    let sources: Vec<u32> = (0..16).map(|i| i * 7 % FIXTURE_NODES as u32).collect();
    let defaults = test_config();
    let direct: Vec<_> = sources
        .iter()
        .map(|&source| {
            forward_push_with_policy(
                graph,
                source,
                defaults.alpha,
                defaults.r_max,
                defaults.dangling,
            )
            .expect("direct push")
        })
        .collect();

    for threads in [1, 4] {
        for cache_capacity in [0, 4096] {
            let cell = format!("{threads} threads, cache {cache_capacity}");
            let server = start_server(ServeConfig {
                threads,
                cache_capacity,
                ..test_config()
            });
            let addr = server.addr();
            std::thread::scope(|scope| {
                for client_id in 0..CLIENTS {
                    let (sources, direct, cell) = (&sources, &direct, &cell);
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr);
                        // Each client walks the sources from its own offset,
                        // so concurrent clients overlap on keys.
                        for step in 0..PASSES * sources.len() {
                            let i = (client_id * 5 + step) % sources.len();
                            let source = sources[i];
                            let answer = client
                                .get_json(&format!("/ppr?source={source}"))
                                .unwrap_or_else(|e| panic!("{cell}: {e}"));
                            assert_push_answer_matches(&answer, &direct[i], cell);
                        }
                    });
                }
            });
            let mut client = HttpClient::new(addr);
            let probes = stat(&mut client, "cache", "hits") + stat(&mut client, "cache", "misses");
            assert_eq!(
                probes,
                (CLIENTS * PASSES * sources.len()) as u64,
                "{cell}: every /ppr request probes the cache exactly once"
            );
            server.shutdown();
        }
    }
}

/// Asserts a `/ppr` push answer carries exactly `direct`'s bits.
fn assert_push_answer_matches(
    answer: &serde::Value,
    direct: &nrp_core::push::PushResult,
    cell: &str,
) {
    let object = answer.as_object().unwrap();
    let entries: Vec<(u32, f64)> = object
        .get("entries")
        .and_then(|v| v.as_array())
        .expect("push answers carry entries")
        .iter()
        .map(|pair| {
            let pair = pair.as_array().expect("entry is a [node, value] pair");
            (
                pair[0].as_u64().expect("node id") as u32,
                pair[1].as_f64().expect("estimate"),
            )
        })
        .collect();
    assert_eq!(entries.len(), direct.estimates.len(), "{cell}");
    for (served, expected) in entries.iter().zip(direct.estimates.iter()) {
        assert_eq!(served.0, expected.0, "{cell}");
        assert_eq!(served.1.to_bits(), expected.1.to_bits(), "{cell}");
    }
    assert_eq!(
        object.get("num_pushes").and_then(|v| v.as_u64()),
        Some(direct.num_pushes as u64),
        "{cell}"
    );
    let served_residual = object
        .get("residual_mass")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert_eq!(
        served_residual.to_bits(),
        direct.residual_mass.to_bits(),
        "{cell}"
    );
}

#[test]
fn knn_and_recommend_follow_the_embedding() {
    let server = start_server(test_config());
    let (graph, embedding) = fixture_parts();
    let mut client = HttpClient::new(server.addr());

    let source = 3u32;
    let knn = client
        .get_json(&format!("/knn?source={source}&k=5"))
        .expect("/knn");
    let neighbors: Vec<(u32, f64)> = knn
        .as_object()
        .and_then(|o| o.get("neighbors"))
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|pair| {
            let pair = pair.as_array().unwrap();
            (pair[0].as_u64().unwrap() as u32, pair[1].as_f64().unwrap())
        })
        .collect();
    assert_eq!(neighbors.len(), 5);
    assert!(
        neighbors.windows(2).all(|w| w[0].1 >= w[1].1),
        "scores descend: {neighbors:?}"
    );
    for &(v, score) in &neighbors {
        assert_ne!(v, source);
        assert_eq!(score.to_bits(), embedding.score(source, v).to_bits());
    }

    let rec = client
        .get_json(&format!("/recommend?source={source}&k=5"))
        .expect("/recommend");
    let recommended: Vec<u32> = rec
        .as_object()
        .and_then(|o| o.get("recommendations"))
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|pair| pair.as_array().unwrap()[0].as_u64().unwrap() as u32)
        .collect();
    for &v in &recommended {
        assert!(
            !graph.has_arc(source, v),
            "recommendation {v} is already linked"
        );
    }

    // Parameter validation surfaces as 4xx JSON errors, not panics.
    for bad in [
        "/ppr",
        "/ppr?source=abc",
        "/ppr?source=999999",
        "/ppr?source=0&alpha=2.0",
        "/ppr?source=0&mode=sideways",
        "/knn?source=0&k=0",
        "/nope",
    ] {
        let err = client.get_json(bad).expect_err("bad request is rejected");
        assert!(err.contains("status 4"), "{bad}: {err}");
    }
    server.shutdown();
}

#[test]
fn server_without_embedding_rejects_knn_but_serves_ppr() {
    let (graph, _) = fixture_parts().clone();
    let server = Server::start(ServeState::new(graph, None, test_config())).expect("server starts");
    let mut client = HttpClient::new(server.addr());
    let err = client.get_json("/knn?source=0").expect_err("no embedding");
    assert!(err.contains("status 409"), "{err}");
    client.get_json("/ppr?source=0&top=4").expect("ppr works");
    server.shutdown();
}

#[test]
fn a_stale_keep_alive_connection_reconnects_transparently() {
    // The server idle-closes keep-alive connections after read_timeout_ms.
    // A client holding such a stale stream must transparently redial on the
    // next request instead of surfacing the dead socket to the caller.
    let server = start_server(ServeConfig {
        read_timeout_ms: 100,
        ..test_config()
    });
    let mut client = HttpClient::new(server.addr());
    let (status, _) = client.get("/healthz").expect("first request");
    assert_eq!(status, 200);

    // Wait well past the idle timeout so the server closes the connection.
    std::thread::sleep(std::time::Duration::from_millis(400));

    let (status, _) = client
        .get("/healthz")
        .expect("stale connection reconnects transparently");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn the_client_survives_a_server_restart_on_the_same_address() {
    // Satellite regression for the keep-alive staleness fix: a client
    // session spans a full server restart on the same address.  The client
    // returns its connection before the restart (a client-initiated close
    // leaves no server-side TIME_WAIT socket holding the port hostage).
    let server = start_server(test_config());
    let addr = server.addr();
    let mut client = HttpClient::new(addr);
    let (status, _) = client.get("/healthz").expect("request to first server");
    assert_eq!(status, 200);

    client.disconnect();
    // Give the first server a beat to reap the closed connection, then
    // take it down completely.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown();

    // Restart on the exact same address.  The bind can transiently lose a
    // race with socket teardown, so retry briefly rather than flake.
    let config = ServeConfig {
        addr: addr.to_string(),
        ..test_config()
    };
    let mut restarted = None;
    for _ in 0..40 {
        let (graph, embedding) = fixture_parts().clone();
        match Server::start(ServeState::new(graph, Some(embedding), config.clone())) {
            Ok(server) => {
                restarted = Some(server);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let restarted = restarted.expect("rebind the same address after restart");
    assert_eq!(restarted.addr(), addr, "same address across the restart");

    // The same client object keeps working against the new process
    // generation — and real answers flow, not just health checks.
    let (status, _) = client.get("/healthz").expect("request after restart");
    assert_eq!(status, 200);
    client
        .get_json("/ppr?source=0&top=4")
        .expect("ppr after restart");
    restarted.shutdown();
}

#[test]
fn deadline_headers_validate_and_permissive_deadlines_pass() {
    let server = start_server(test_config());
    let mut client = HttpClient::new(server.addr());

    // Malformed header -> 400 naming the header.
    let response = client
        .get_full("/ppr?source=0&top=4", &[("x-deadline-ms", "soonish")])
        .expect("response");
    assert_eq!(response.status, 400);
    let text = std::str::from_utf8(&response.body).unwrap();
    assert!(text.contains("x-deadline-ms"), "{text}");

    // 0 means "no deadline", and a generous deadline is plainly met.
    for value in ["0", "10000"] {
        let response = client
            .get_full("/ppr?source=0&top=4", &[("x-deadline-ms", value)])
            .expect("response");
        assert_eq!(response.status, 200, "x-deadline-ms: {value}");
    }
    server.shutdown();
}

#[test]
fn excess_connections_are_rejected_with_503_and_retry_after() {
    let server = start_server(ServeConfig {
        max_connections: 1,
        retry_after_secs: 3,
        ..test_config()
    });

    // Occupy the single connection slot with a live keep-alive client.
    let mut first = HttpClient::new(server.addr());
    let (status, _) = first.get("/healthz").expect("first connection");
    assert_eq!(status, 200);

    // The second connection must be turned away at the door: a well-formed
    // 503 with the configured Retry-After, then close.
    let mut second = HttpClient::new(server.addr());
    let response = second
        .get_full("/healthz", &[])
        .expect("rejection is a well-formed response");
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(3));
    let text = std::str::from_utf8(&response.body).unwrap();
    assert!(text.contains("too many connections"), "{text}");

    // The occupant still works and the rejection was counted.
    let stats = first.get_json("/stats").expect("/stats");
    let resilience = stats
        .as_object()
        .and_then(|o| o.get("resilience"))
        .and_then(|v| v.as_object())
        .expect("resilience block");
    assert!(
        resilience
            .get("conn_rejected")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(
        resilience.get("max_connections").and_then(|v| v.as_u64()),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn degraded_exact_answers_are_bitwise_identical_to_direct_push() {
    // The acceptance criterion for graceful degradation: a downgraded
    // `mode=exact` request takes the ordinary push path end to end, so its
    // answer is bitwise identical to a direct `forward_push_with_policy`
    // call — the response is honest about it via `"degraded": true`.
    let server = start_server(test_config());
    let (graph, _) = fixture_parts();
    let config = server.state().config().clone();
    let mut client = HttpClient::new(server.addr());
    let source = 9u32;

    server
        .state()
        .force_degrade(nrp_serve::DegradeLevel::Degraded);
    let answer = client
        .get_json(&format!("/ppr?source={source}&mode=exact"))
        .expect("degraded exact request");
    let object = answer.as_object().unwrap();
    assert_eq!(
        object.get("degraded").and_then(|v| v.as_bool()),
        Some(true),
        "the answer declares the downgrade"
    );
    assert_eq!(
        object.get("mode").and_then(|v| v.as_str()),
        Some("push"),
        "exact was downgraded to push"
    );
    let direct =
        forward_push_with_policy(graph, source, config.alpha, config.r_max, config.dangling)
            .expect("direct push");
    let entries = object
        .get("entries")
        .and_then(|v| v.as_array())
        .expect("push answers carry entries");
    assert_eq!(entries.len(), direct.estimates.len());
    for (served, expected) in entries.iter().zip(direct.estimates.iter()) {
        let pair = served.as_array().unwrap();
        assert_eq!(pair[0].as_u64().unwrap() as u32, expected.0);
        assert_eq!(
            pair[1].as_f64().unwrap().to_bits(),
            expected.1.to_bits(),
            "degraded answer is bitwise identical to the direct push"
        );
    }

    // The degraded state is visible on /healthz and /stats …
    let health = client.get_json("/healthz").expect("/healthz");
    assert_eq!(
        health
            .as_object()
            .and_then(|o| o.get("state"))
            .and_then(|v| v.as_str()),
        Some("degraded")
    );
    let stats = client.get_json("/stats").expect("/stats");
    let resilience = stats
        .as_object()
        .and_then(|o| o.get("resilience"))
        .and_then(|v| v.as_object())
        .expect("resilience block");
    assert_eq!(
        resilience.get("state").and_then(|v| v.as_str()),
        Some("degraded")
    );
    assert_eq!(
        resilience.get("degraded").and_then(|v| v.as_u64()),
        Some(1),
        "one downgraded request counted"
    );
    for counter in ["shed", "timeouts", "retry_after", "conn_rejected"] {
        assert!(
            resilience.get(counter).and_then(|v| v.as_u64()).is_some(),
            "resilience exposes `{counter}`"
        );
    }
    assert!(
        stats
            .as_object()
            .and_then(|o| o.get("uptime_secs"))
            .and_then(|v| v.as_f64())
            .is_some(),
        "stats exposes uptime"
    );

    // … and at the cache-only rung, warm keys still serve (bitwise, from
    // the push answer cached above) while cold keys shed with Retry-After.
    server
        .state()
        .force_degrade(nrp_serve::DegradeLevel::CacheOnly);
    let warm = client
        .get_json(&format!("/ppr?source={source}&mode=exact"))
        .expect("warm key serves from cache");
    let warm_entries = warm
        .as_object()
        .and_then(|o| o.get("entries"))
        .and_then(|v| v.as_array())
        .unwrap();
    for (served, expected) in warm_entries.iter().zip(direct.estimates.iter()) {
        let pair = served.as_array().unwrap();
        assert_eq!(pair[1].as_f64().unwrap().to_bits(), expected.1.to_bits());
    }
    let cold = client
        .get_full("/ppr?source=42&mode=exact", &[])
        .expect("cold key answers");
    assert_eq!(cold.status, 503, "cache-only sheds uncached keys");
    assert!(cold.retry_after.is_some());

    // Back to normal: exact service resumes with the dense vector.
    server
        .state()
        .force_degrade(nrp_serve::DegradeLevel::Normal);
    let normal = client
        .get_json(&format!("/ppr?source={source}&mode=exact"))
        .expect("normal exact request");
    let object = normal.as_object().unwrap();
    assert_eq!(object.get("mode").and_then(|v| v.as_str()), Some("exact"));
    assert!(object.get("degraded").is_none());
    assert!(object.get("vector").is_some());
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let server = start_server(test_config());
    let addr = server.addr();
    let mut client = HttpClient::new(addr);
    client.get_json("/healthz").expect("pre-shutdown request");
    server.shutdown();
    // After shutdown() returns every thread has been joined; a fresh
    // request must fail (refused, reset, or EOF — anything but an answer).
    assert!(HttpClient::new(addr).get_json("/healthz").is_err());
}

// ---- Telemetry end-to-end ---------------------------------------------

#[test]
fn traced_ppr_reports_stage_breakdown() {
    let server = start_server(test_config());
    let mut client = HttpClient::new(server.addr());

    // Untraced requests carry no trace block.
    let plain = client.get_json("/ppr?source=3&top=8").expect("plain /ppr");
    assert!(plain.as_object().unwrap().get("trace").is_none());

    // `x-trace: 1` adds the per-stage breakdown.
    let traced = client
        .get_full("/ppr?source=4&top=8", &[("x-trace", "1")])
        .expect("traced /ppr");
    assert_eq!(traced.status, 200);
    let body: serde::Value =
        serde_json::from_str(std::str::from_utf8(&traced.body).unwrap()).expect("JSON body");
    let object = body.as_object().unwrap();
    let trace = object
        .get("trace")
        .and_then(|v| v.as_object())
        .expect("traced response has a trace block");
    assert!(trace.get("trace_id").and_then(|v| v.as_u64()).unwrap() >= 1);
    let total_us = trace.get("total_us").and_then(|v| v.as_u64()).unwrap();
    let stage_sum_us = trace.get("stage_sum_us").and_then(|v| v.as_u64()).unwrap();
    let stages = trace
        .get("stages_us")
        .and_then(|v| v.as_object())
        .expect("stages_us object");
    for stage in [
        "parse",
        "admission",
        "queue_wait",
        "batch_assembly",
        "kernel_compute",
        "serialize",
    ] {
        assert!(
            stages.get(stage).and_then(|v| v.as_u64()).is_some(),
            "stage {stage} missing from {stages:?}"
        );
    }
    // The stages are disjoint sub-intervals of the handler, so their sum
    // cannot exceed the handler-measured total.
    assert!(
        stage_sum_us <= total_us,
        "stage sum {stage_sum_us}µs > total {total_us}µs"
    );

    // Tracing is observational only: the traced answer for a key is
    // bitwise identical to the untraced one.
    let again = client.get_json("/ppr?source=4&top=8").expect("same key");
    let entries = |v: &serde::Value| {
        serde_json::to_string(v.as_object().unwrap().get("entries").unwrap()).unwrap()
    };
    assert_eq!(entries(&body), entries(&again));
    server.shutdown();
}

/// One `/stats` counter, `section.name`.
fn stat(client: &mut HttpClient, section: &str, name: &str) -> u64 {
    client
        .get_json("/stats")
        .expect("/stats")
        .as_object()
        .and_then(|o| o.get(section))
        .and_then(|v| v.as_object())
        .and_then(|o| o.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("/stats lacks {section}.{name}"))
}

/// Cache hits are answered on the connection thread: they never reach the
/// batcher, each counts exactly once as a hit, their trace still lists all
/// six stages (the batcher's three at zero), and they serve the same bits
/// as the kernel.
#[test]
fn cache_hits_bypass_the_batcher_and_serve_the_kernel_bits() {
    const HITS: u64 = 5;
    let server = start_server(test_config());
    let (graph, _) = fixture_parts();
    let config = server.state().config().clone();
    let mut client = HttpClient::new(server.addr());
    let source = 9u32;
    let target = format!("/ppr?source={source}");
    client.get_json(&target).expect("warming miss");

    let counters = |client: &mut HttpClient| {
        [
            stat(client, "batch", "jobs"),
            stat(client, "batch", "batches"),
            stat(client, "cache", "hits"),
            stat(client, "cache", "misses"),
        ]
    };
    let before = counters(&mut client);
    let direct =
        forward_push_with_policy(graph, source, config.alpha, config.r_max, config.dangling)
            .expect("direct push");
    for i in 0..HITS {
        let headers: &[(&str, &str)] = if i == 0 { &[("x-trace", "1")] } else { &[] };
        let response = client.get_full(&target, headers).expect("/ppr hit");
        assert_eq!(response.status, 200);
        let body: serde::Value =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).expect("JSON");
        let object = body.as_object().unwrap();
        let entries: Vec<(u32, u64)> = object
            .get("entries")
            .and_then(|v| v.as_array())
            .expect("push answers carry entries")
            .iter()
            .map(|pair| {
                let pair = pair.as_array().expect("[node, value] pair");
                (
                    pair[0].as_u64().expect("node id") as u32,
                    pair[1].as_f64().expect("estimate").to_bits(),
                )
            })
            .collect();
        let expected: Vec<(u32, u64)> = direct
            .estimates
            .iter()
            .map(|&(v, p)| (v, p.to_bits()))
            .collect();
        assert_eq!(entries, expected, "hit {i} differs from the kernel");
        assert_eq!(
            object
                .get("residual_mass")
                .and_then(|v| v.as_f64())
                .map(f64::to_bits),
            Some(direct.residual_mass.to_bits())
        );
        assert_eq!(
            object.get("num_pushes").and_then(|v| v.as_u64()),
            Some(direct.num_pushes as u64)
        );
        if let Some(trace) = object.get("trace").and_then(|v| v.as_object()) {
            let stages = trace.get("stages_us").and_then(|v| v.as_object()).unwrap();
            for stage in [
                "parse",
                "admission",
                "queue_wait",
                "batch_assembly",
                "kernel_compute",
                "serialize",
            ] {
                let us = stages.get(stage).and_then(|v| v.as_u64());
                assert!(us.is_some(), "stage {stage} missing from {stages:?}");
                if matches!(stage, "queue_wait" | "batch_assembly" | "kernel_compute") {
                    assert_eq!(us, Some(0), "a hit spends nothing in {stage}");
                }
            }
            let total_us = trace.get("total_us").and_then(|v| v.as_u64()).unwrap();
            let stage_sum_us = trace.get("stage_sum_us").and_then(|v| v.as_u64()).unwrap();
            assert!(stage_sum_us <= total_us, "{stage_sum_us}µs > {total_us}µs");
        } else {
            assert_ne!(i, 0, "the traced hit carries a trace block");
        }
    }
    let after = counters(&mut client);
    assert_eq!(after[0], before[0], "hits submit no batcher jobs");
    assert_eq!(after[1], before[1], "hits wake no batches");
    assert_eq!(after[2], before[2] + HITS, "each hit counted once");
    assert_eq!(after[3], before[3], "no misses");
    server.shutdown();
}

#[test]
fn metrics_endpoint_exposes_core_families() {
    let server = start_server(test_config());
    let mut client = HttpClient::new(server.addr());
    // Force real work so the pool, batcher and cache all have samples.
    for source in 0..4 {
        client
            .get_json(&format!("/ppr?source={source}&top=8"))
            .expect("/ppr");
    }
    client.get_json("/knn?source=0&k=3").expect("/knn");

    let text = nrp_serve::get_text_once(server.addr(), "/metrics").expect("/metrics");
    for family in [
        "# TYPE nrp_serve_request_latency_us histogram",
        "# TYPE nrp_serve_requests_total counter",
        "# TYPE nrp_batch_queue_wait_us histogram",
        "# TYPE nrp_batch_compute_us histogram",
        "# TYPE nrp_pool_dispatches_total counter",
        "# TYPE nrp_cache_misses_total counter",
        "# TYPE nrp_degrade_state gauge",
        "nrp_serve_request_latency_us_count{endpoint=\"/ppr\"}",
        "nrp_serve_requests_total{endpoint=\"/ppr\"} 4",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    server.shutdown();
}

/// `/debug/traces` serves one JSONL line per retained `/ppr` request, and
/// `trace_capacity: 0` retains nothing.
#[test]
fn debug_traces_returns_recent_jsonl() {
    for (trace_capacity, retained) in [(256, 3), (0, 0)] {
        let server = start_server(ServeConfig {
            trace_capacity,
            ..test_config()
        });
        let mut client = HttpClient::new(server.addr());
        for source in 0..3 {
            client
                .get_json(&format!("/ppr?source={source}&top=4"))
                .expect("/ppr");
        }
        let text = nrp_serve::get_text_once(server.addr(), "/debug/traces").expect("/debug/traces");
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(
            lines.len(),
            retained,
            "trace_capacity {trace_capacity}:\n{text}"
        );
        for line in lines {
            let event: serde::Value = serde_json::from_str(line).expect("JSONL line parses");
            let object = event.as_object().unwrap();
            assert_eq!(
                object.get("endpoint").and_then(|v| v.as_str()),
                Some("/ppr")
            );
            assert_eq!(object.get("status").and_then(|v| v.as_u64()), Some(200));
            assert!(object.get("trace_id").and_then(|v| v.as_u64()).unwrap() >= 1);
            assert!(object.get("stages_us").is_some());
        }
        server.shutdown();
    }
}

#[test]
fn stats_reports_queue_depth_latency_and_endpoint_split() {
    let server = start_server(test_config());
    let mut client = HttpClient::new(server.addr());
    for source in 0..3 {
        client
            .get_json(&format!("/ppr?source={source}&top=4"))
            .expect("/ppr");
    }
    let stats = client.get_json("/stats").expect("/stats");
    let object = stats.as_object().unwrap();

    let section = |name: &str| {
        object
            .get(name)
            .and_then(|v| v.as_object())
            .unwrap_or_else(|| panic!("/stats has a {name} object"))
    };
    assert_eq!(
        section("batch").get("queue_depth").and_then(|v| v.as_u64()),
        Some(0),
        "queue drains between requests"
    );
    let ppr_latency = section("latency")
        .get("/ppr")
        .and_then(|v| v.as_object())
        .expect("latency has a /ppr entry");
    assert!(ppr_latency.get("count").and_then(|v| v.as_u64()).unwrap() >= 3);
    let p50 = ppr_latency.get("p50_us").and_then(|v| v.as_u64()).unwrap();
    let p99 = ppr_latency.get("p99_us").and_then(|v| v.as_u64()).unwrap();
    assert!(p50 > 0 && p50 <= p99, "p50 {p50}µs, p99 {p99}µs");
    let by_endpoint = section("resilience")
        .get("by_endpoint")
        .and_then(|v| v.as_object())
        .expect("resilience has by_endpoint");
    let ppr_split = by_endpoint
        .get("/ppr")
        .and_then(|v| v.as_object())
        .expect("by_endpoint has /ppr");
    assert_eq!(ppr_split.get("shed").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(ppr_split.get("timeouts").and_then(|v| v.as_u64()), Some(0));
    let telemetry = section("telemetry");
    assert!(
        telemetry
            .get("traces_retained")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 3
    );
    server.shutdown();
}
