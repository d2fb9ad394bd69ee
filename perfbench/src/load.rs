//! Open-loop HTTP load generator and a small keep-alive client.
//!
//! Requests are due on a fixed schedule (`rate` per second, evenly spaced)
//! whether or not earlier answers have arrived; HTTP/1.1 pipelining keeps
//! several in flight on one keep-alive connection.  Two threads drive it: a
//! sender that sleeps until each request is due and writes it, and the
//! calling thread, which reads the answers as they arrive.
//!
//! Each request's latency runs from its *scheduled* send time, so a stall
//! also charges the wait it imposes on later requests.  A request that is
//! answered with a status other than 200, whose connection fails, or that
//! is still unanswered when the drain window closes is failed: it counts
//! against the attempts and its latency reads as [`FAILED_LATENCY_S`],
//! above every limit.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nrp_obs::clock;

use crate::report::quantile;

/// How long the generator waits for answers after the last request is due.
pub const DRAIN: Duration = Duration::from_secs(3);
/// The latency charged to a failed request: longer than any request that
/// could still have been answered.
pub const FAILED_LATENCY_S: f64 = 10.0;

/// One open-loop phase.
pub struct Phase<'a> {
    pub rate: f64,
    pub duration: Duration,
    /// Raw request bytes; request `i` sends `requests[i % len]`.
    pub requests: &'a [Vec<u8>],
    /// Keep the body of every `keep_every`-th answer (0 keeps none).
    pub keep_every: usize,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Per attempted request, seconds from its scheduled send to its answer
    /// ([`FAILED_LATENCY_S`] when failed), in schedule order.
    pub latencies: Vec<f64>,
    /// Per sent request, seconds the generator sent it after its schedule.
    pub lags: Vec<f64>,
    /// `(request index, body)` of the kept answers (200s only).
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// Seconds from the first scheduled send to the last answer.
    pub span_s: f64,
}

impl Outcome {
    /// Latency quantile in milliseconds, failures included.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        quantile(&self.latencies, q) * 1e3
    }

    /// Attempts answered 200 within `limit_s`.
    pub fn within(&self, limit_s: f64) -> usize {
        self.latencies.iter().filter(|&&l| l <= limit_s).count()
    }

    /// The 99th-percentile generator lag in milliseconds.
    pub fn lag_p99_ms(&self) -> f64 {
        quantile(&self.lags, 0.99) * 1e3
    }
}

/// One complete HTTP/1.1 response at the front of `buf`:
/// `(status, body range, bytes consumed)`.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then_some((status, head_end..end, end))
}

fn open(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

/// Open-loop driver over one keep-alive connection, reused across phases
/// so that no phase pays connection set-up.
pub struct Generator {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Generator {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: open(addr),
        }
    }

    /// Runs one open-loop phase to completion (schedule plus drain).
    pub fn run(&mut self, phase: &Phase<'_>) -> Outcome {
        let total = (phase.rate * phase.duration.as_secs_f64()).round().max(1.0) as usize;
        let period = Duration::from_secs_f64(1.0 / phase.rate);
        let mut out = Outcome {
            attempted: total,
            latencies: vec![FAILED_LATENCY_S; total],
            ..Outcome::default()
        };
        let stream = self.stream.take().or_else(|| open(self.addr));
        // The write timeout bounds how long a sender blocked on a daemon
        // that stopped reading can hold the phase open.
        let Some((mut reader, mut writer)) = stream.and_then(|s| {
            s.set_write_timeout(Some(DRAIN)).ok()?;
            Some((s.try_clone().ok()?, s))
        }) else {
            out.failed = total;
            return out;
        };
        let start = clock::now() + Duration::from_millis(1);
        let due = move |i: usize| start + period * i as u32;
        let deadline = due(total - 1) + DRAIN;
        let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant)>();
        let mut answered = 0usize;
        let mut ok = 0usize;
        let mut last_answer = start;
        let healthy = std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let mut lags = Vec::with_capacity(total);
                for i in 0..total {
                    let wait = due(i).saturating_duration_since(clock::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let sent = clock::now();
                    // Announce before writing, so the answer always finds
                    // its request; stop once the reader has given up.
                    if sent_tx.send((i, due(i))).is_err()
                        || writer
                            .write_all(&phase.requests[i % phase.requests.len()])
                            .is_err()
                    {
                        break;
                    }
                    lags.push((sent - due(i)).as_secs_f64());
                }
                lags
            });
            let mut buf = Vec::new();
            let mut chunk = vec![0u8; 1 << 16];
            let healthy = 'read: loop {
                if answered == total {
                    break true;
                }
                let now = clock::now();
                if now >= deadline || reader.set_read_timeout(Some(deadline - now)).is_err() {
                    break false;
                }
                let n = match reader.read(&mut chunk) {
                    Ok(0) => break false,
                    Ok(n) => n,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        continue
                    }
                    Err(_) => break false,
                };
                let at = clock::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some((status, body, used)) = parse_response(&buf) {
                    let Ok((i, due)) = sent_rx.try_recv() else {
                        break 'read false;
                    };
                    answered += 1;
                    if status == 200 {
                        ok += 1;
                        out.latencies[i] = (at - due).as_secs_f64();
                        last_answer = at;
                        if phase.keep_every > 0 && i % phase.keep_every == 0 {
                            out.bodies.push((i, buf[body].to_vec()));
                        }
                    }
                    buf.drain(..used);
                }
            };
            drop(sent_rx);
            out.lags = sender.join().expect("the sender thread does not panic");
            healthy
        });
        // A connection left with unanswered requests is closed, so that
        // late answers cannot be attributed to the next phase.
        if healthy {
            self.stream = Some(reader);
        }
        out.failed = total - ok;
        out.span_s = (last_answer - start).as_secs_f64();
        out
    }
}

/// A blocking keep-alive client for control requests (`/healthz`, `/stats`,
/// `/knn`) outside the timed load.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let open = || -> std::io::Result<TcpStream> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            Ok(stream)
        };
        Ok(Self {
            addr,
            stream: open().map_err(|e| format!("connect to {addr}: {e}"))?,
            buf: Vec::new(),
        })
    }

    /// Sends `GET target` and returns `(status, body)`.  A connection the
    /// server closed while idle is reopened once.
    pub fn get(&mut self, target: &str) -> Result<(u16, Vec<u8>), String> {
        match self.exchange(target) {
            Ok(answer) => Ok(answer),
            Err(_) => {
                *self = Self::connect(self.addr)?;
                self.exchange(target)
            }
        }
    }

    fn exchange(&mut self, target: &str) -> Result<(u16, Vec<u8>), String> {
        let request = format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n");
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("GET {target}: {e}"))?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some((status, body, used)) = parse_response(&self.buf) {
                let body = self.buf[body].to_vec();
                self.buf.drain(..used);
                return Ok((status, body));
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("GET {target}: {e}"))?;
            if n == 0 {
                return Err(format!("GET {target}: connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET target` that must answer 200 with a JSON body.
    pub fn get_json(&mut self, target: &str) -> Result<serde::Value, String> {
        let (status, body) = self.get(target)?;
        if status != 200 {
            return Err(format!("GET {target} answered {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| format!("GET {target}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("GET {target}: {e}"))
    }
}

/// Raw bytes of `GET target`, with `x-trace: 1` when `traced`.
pub fn request_bytes(target: &str, traced: bool) -> Vec<u8> {
    format!(
        "GET {target} HTTP/1.1\r\nhost: perfbench\r\n{}\r\n",
        if traced { "x-trace: 1\r\n" } else { "" }
    )
    .into_bytes()
}
