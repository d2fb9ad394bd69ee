//! `serve-hot` and `serve-cold`: the `nrp_serve` daemon, booted from files,
//! under open-loop `GET /ppr?source=s&top=20` traffic.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use nrp_core::push::{forward_push_into, forward_push_with_policy, PushWorkspace};
use nrp_core::{DanglingPolicy, Embedding};
use nrp_graph::generators::barabasi_albert;
use nrp_graph::{Graph, GraphKind};
use nrp_linalg::random::gaussian_matrix;
use nrp_obs::clock;
use nrp_serve::http::Request;
use nrp_serve::{ServeConfig, ServeState};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::load::{self, Client, Generator, Outcome, Phase};
use crate::report::{mean, median, nproc, peak_rss_mb, quantile, Report, WorkDir};
use crate::Args;

const NODES: usize = 50_000;
const ATTACH: usize = 5;
const HALF_DIMENSION: usize = 64;
const HOT_NODES: usize = 512;
const TOP: usize = 20;
const CACHE_CAPACITY: usize = 1024;
const ALPHA: f64 = 0.15;
/// Daemon boots per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 3;
/// Answers per phase read back from the wire and checked bit for bit.
const CHECKED_PER_PHASE: usize = 16;
/// Interleaved rounds of `lo`, `hi` and overload windows per run.
const ROUNDS: usize = 10;
/// Requests timed in process (`ServeState::handle`, `forward_push_into`).
const IN_PROCESS_REQUESTS: usize = 2000;

/// One serving workload: traffic shape plus its frozen rates and limit.
pub struct Spec {
    pub name: &'static str,
    /// Zipf(1.0) over [`HOT_NODES`] nodes, else uniform over every node.
    hot: bool,
    r_max: f64,
    /// The two fixed offered rates (requests per second).
    lo_rate: f64,
    hi_rate: f64,
    /// Offered rate of the capacity probes, about twice what the daemon
    /// answers, so that the answer rate is the daemon's capacity.
    overload_rate: f64,
    /// Latency limit on each request, in milliseconds.
    limit_ms: f64,
}

// Rates are frozen at about 20% (`lo`) and 50% (`hi`) of the capacity
// measured when the benchmark was defined over one connection on a 2-vCPU
// host (hot ≈ 7,200 and cold ≈ 3,200 answers per second); the probes offer
// about twice that.
pub const HOT: Spec = Spec {
    name: "serve-hot",
    hot: true,
    r_max: 1e-5,
    lo_rate: 1500.0,
    hi_rate: 3500.0,
    overload_rate: 14000.0,
    limit_ms: 5.0,
};

pub const COLD: Spec = Spec {
    name: "serve-cold",
    hot: false,
    r_max: 1e-6,
    lo_rate: 700.0,
    hi_rate: 1600.0,
    overload_rate: 6500.0,
    limit_ms: 20.0,
};

/// The generated input files.
struct Inputs {
    graph: PathBuf,
    embedding: PathBuf,
    config: PathBuf,
}

fn generate(spec: &Spec, seed: u64, work: &WorkDir) -> Result<Inputs, String> {
    let graph = barabasi_albert(NODES, ATTACH, GraphKind::Directed, seed)
        .map_err(|e| format!("BA generation: {e}"))?;
    let graph_path = work.file("graph.edges");
    nrp_graph::io::write_edge_list(&graph, &graph_path).map_err(|e| format!("edge list: {e}"))?;
    let mut forward = gaussian_matrix(NODES, HALF_DIMENSION, seed ^ 0xf0);
    let mut backward = gaussian_matrix(NODES, HALF_DIMENSION, seed ^ 0xb0);
    forward.scale(0.1);
    backward.scale(0.1);
    let embedding_path = work.file("embedding.json");
    Embedding::new(forward, backward, "NRP")
        .and_then(|e| e.save(&embedding_path))
        .map_err(|e| format!("embedding file: {e}"))?;
    // Flush the inputs to disk now, so that write-back of the 126 MB
    // embedding does not compete with the timed phases.
    for path in [&graph_path, &embedding_path] {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", path.display()))?;
    }
    let absolute = |p: &Path| {
        std::fs::canonicalize(p)
            .map(|p| p.display().to_string())
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: nproc(),
        cache_capacity: CACHE_CAPACITY,
        alpha: ALPHA,
        r_max: spec.r_max,
        graph: Some(absolute(&graph_path)?),
        graph_kind: GraphKind::Directed,
        embedding: Some(absolute(&embedding_path)?),
        ..ServeConfig::default()
    };
    let config_path = work.file("serve.json");
    std::fs::write(&config_path, config.to_json_pretty())
        .map_err(|e| format!("serve config: {e}"))?;
    Ok(Inputs {
        graph: graph_path,
        embedding: embedding_path,
        config: config_path,
    })
}

/// Builds the `nrp_serve` binary from the repository's workspace and
/// returns its path.
fn build_daemon() -> Result<PathBuf, String> {
    if !Path::new("crates/serve/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/serve is missing)".into());
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "nrp-serve",
            "--bin",
            "nrp_serve",
        ])
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building nrp_serve failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("nrp_serve");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// A running `nrp_serve` process, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    /// Spawn to the first `200` from `/healthz`, in seconds.
    ready_s: f64,
}

impl Daemon {
    fn boot(bin: &Path, config: &Path) -> Result<Self, String> {
        let start = clock::now();
        let mut child = Command::new(bin)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Self {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("nrp_serve exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("nrp-serve listening on ") {
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
                break;
            }
        }
        let mut client = Client::connect(daemon.addr)?;
        let (status, _) = client.get("/healthz")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        daemon.ready_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful stop: `shutdown` on stdin, then wait (killing after 20 s).
    fn stop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = clock::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if clock::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The node ids requested by one phase, drawn from the workload's source
/// distribution with a per-phase stream of the seed.
fn sources(spec: &Spec, seed: u64, phase: u64, count: usize) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(phase));
    if !spec.hot {
        return (0..count).map(|_| rng.gen_range(0..NODES) as u32).collect();
    }
    let hot = hot_nodes(seed);
    let mut cdf = Vec::with_capacity(HOT_NODES);
    let mut total = 0.0;
    for rank in 0..HOT_NODES {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            hot[cdf.partition_point(|&c| c < u).min(HOT_NODES - 1)]
        })
        .collect()
}

/// The hot set: [`HOT_NODES`] distinct nodes chosen by the seed.
fn hot_nodes(seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x407);
    let mut ids: Vec<u32> = (0..NODES as u32).collect();
    for i in 0..HOT_NODES {
        let j = rng.gen_range(i..NODES);
        ids.swap(i, j);
    }
    ids.truncate(HOT_NODES);
    ids
}

fn ppr_target(source: u32) -> String {
    format!("/ppr?source={source}&top={TOP}")
}

/// The request stream of one run: the workload, its seed, and whether
/// requests ask for the `x-trace: 1` stage breakdown.
struct Traffic<'a> {
    spec: &'a Spec,
    seed: u64,
    traced: bool,
}

impl Traffic<'_> {
    /// Runs open-loop phase `id` for `seconds` at `rate`, keeping about
    /// `keep` answer bodies; returns the outcome and the requested sources.
    fn phase(
        &self,
        generator: &mut Generator,
        id: u64,
        rate: f64,
        seconds: f64,
        keep: usize,
    ) -> (Outcome, Vec<u32>) {
        let count = (rate * seconds).round().max(1.0) as usize;
        let ids = sources(self.spec, self.seed, id, count);
        let requests: Vec<Vec<u8>> = ids
            .iter()
            .map(|&s| load::request_bytes(&ppr_target(s), self.traced))
            .collect();
        let outcome = generator.run(&Phase {
            rate,
            duration: Duration::from_secs_f64(seconds),
            requests: &requests,
            keep_every: count.checked_div(keep).map_or(0, |every| every.max(1)),
        });
        (outcome, ids)
    }
}

/// Checks kept answers, read back from the JSON wire, bit for bit against
/// direct `forward_push_with_policy` calls.  Returns how many were checked.
fn verify(graph: &Graph, spec: &Spec, outcome: &Outcome, ids: &[u32]) -> Result<usize, String> {
    let mut checked = 0;
    for (i, body) in outcome.bodies.iter().take(CHECKED_PER_PHASE) {
        let text = std::str::from_utf8(body).map_err(|e| format!("/ppr body: {e}"))?;
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("/ppr body: {e}"))?;
        let source = ids[*i];
        let field = |name: &str| {
            value
                .as_object()
                .and_then(|o| o.get(name))
                .ok_or_else(|| format!("/ppr answer lacks `{name}`"))
        };
        if field("source")?.as_u64() != Some(u64::from(source)) {
            return Err(format!(
                "/ppr answer for request {i} names the wrong source"
            ));
        }
        let expected =
            forward_push_with_policy(graph, source, ALPHA, spec.r_max, DanglingPolicy::SelfLoop)
                .map_err(|e| format!("forward_push_with_policy: {e}"))?;
        let mut top = expected.estimates.clone();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(TOP);
        let entries = field("entries")?
            .as_array()
            .ok_or("`entries` is not an array")?;
        let wire: Vec<(Option<u64>, Option<f64>)> = entries
            .iter()
            .map(|e| {
                let pair = e.as_array().unwrap_or_default();
                (
                    pair.first().and_then(|v| v.as_u64()),
                    pair.get(1).and_then(|v| v.as_f64()),
                )
            })
            .collect();
        let same_entries = wire.len() == top.len()
            && wire.iter().zip(&top).all(|(&(node, score), &(v, p))| {
                node == Some(u64::from(v)) && score.map(f64::to_bits) == Some(p.to_bits())
            });
        let same_mass = field("residual_mass")?.as_f64().map(f64::to_bits)
            == Some(expected.residual_mass.to_bits());
        let same_pushes = field("num_pushes")?.as_u64() == Some(expected.num_pushes as u64);
        if !(same_entries && same_mass && same_pushes) {
            return Err(format!(
                "/ppr answer for source {source} differs from forward_push_with_policy"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Counters read from `/stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    hits: f64,
    misses: f64,
    evictions: f64,
    batches: f64,
    jobs: f64,
    coalesced: f64,
    shed: f64,
    timeouts: f64,
}

fn stats(client: &mut Client) -> Result<Stats, String> {
    let value = client.get_json("/stats")?;
    let get = |section: &str, name: &str| -> Result<f64, String> {
        value
            .as_object()
            .and_then(|o| o.get(section))
            .and_then(|s| s.as_object())
            .and_then(|s| s.get(name))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("/stats lacks {section}.{name}"))
    };
    Ok(Stats {
        hits: get("cache", "hits")?,
        misses: get("cache", "misses")?,
        evictions: get("cache", "evictions")?,
        batches: get("batch", "batches")?,
        jobs: get("batch", "jobs")?,
        coalesced: get("batch", "coalesced")?,
        shed: get("resilience", "shed")?,
        timeouts: get("resilience", "timeouts")?,
    })
}

/// Brings the daemon to the state timing starts from: every hot source
/// cached (`serve-hot`), or code paths and connections warm (`serve-cold`).
fn warm(generator: &mut Generator, daemon: &Daemon, traffic: &Traffic<'_>) -> Result<(), String> {
    if traffic.spec.hot {
        let mut client = Client::connect(daemon.addr)?;
        for source in hot_nodes(traffic.seed) {
            client.get_json(&ppr_target(source))?;
        }
    }
    traffic.phase(generator, 99, traffic.spec.lo_rate, 0.5, 0);
    Ok(())
}

pub fn run(args: &Args, spec: &Spec) -> Result<Report, String> {
    let work = WorkDir::create(&format!("{}-{}", spec.name, args.seed))?;
    let inputs = generate(spec, args.seed, &work)?;
    let bin = build_daemon()?;
    let graph = nrp_graph::io::read_edge_list(&inputs.graph, GraphKind::Directed)
        .map_err(|e| format!("read edge list: {e}"))?;
    let mut report = Report::default();
    report.note(format!(
        "{}: n={} arcs={} r_max={} lo={} qps hi={} qps overload={} qps limit={} ms; \
         daemon threads={}, one pipelined connection",
        spec.name,
        graph.num_nodes(),
        graph.num_arcs(),
        spec.r_max,
        spec.lo_rate,
        spec.hi_rate,
        spec.overload_rate,
        spec.limit_ms,
        nproc()
    ));
    if args.trace {
        traced(args, spec, &inputs, &bin, &graph, &mut report)?;
    } else {
        untraced(args, spec, &inputs, &bin, &graph, &mut report)?;
    }
    Ok(report)
}

/// Traffic at one offered rate, measured as windows interleaved with the
/// other rates over the whole run.  Statistics are medians over windows,
/// so a host stall that spans less than half of the run moves them little.
struct Windows {
    rate: f64,
    windows: Vec<Outcome>,
}

impl Windows {
    fn new(rate: f64) -> Self {
        Self {
            rate,
            windows: Vec::new(),
        }
    }

    fn attempted(&self) -> usize {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.windows.iter().map(|w| w.failed).sum()
    }

    /// Median over windows of a per-window statistic.
    fn median_of(&self, stat: impl Fn(&Outcome) -> f64) -> f64 {
        median(&self.windows.iter().map(stat).collect::<Vec<_>>())
    }

    /// Latency quantile in ms over every request of every window.
    fn pooled_ms(&self, q: f64) -> f64 {
        let all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies.iter().copied())
            .collect();
        quantile(&all, q) * 1e3
    }

    /// Share of attempts answered `200` within `limit_s`, median over
    /// windows.
    fn slo_ratio(&self, limit_s: f64) -> f64 {
        self.median_of(|w| w.within(limit_s) as f64 / w.attempted as f64)
    }

    fn note(&self, name: &str, limit_s: f64) -> String {
        let n = self.attempted();
        format!(
            "{name} = {} qps over {} windows: p50_ms.{name} = {} p90_ms.{name} = {} (window medians); \
             pooled p50 {} p90 {} p99_ms.{name} = {} (n={n}, {} beyond p99); slo_ratio.{name} = {} \
             (limit {} ms); failed {} of {n}; client.lag_ms p99 {}",
            self.rate,
            self.windows.len(),
            self.median_of(|w| w.percentile_ms(0.5)),
            self.median_of(|w| w.percentile_ms(0.9)),
            self.pooled_ms(0.5),
            self.pooled_ms(0.9),
            self.pooled_ms(0.99),
            n / 100,
            self.slo_ratio(limit_s),
            limit_s * 1e3,
            self.failed(),
            self.median_of(Outcome::lag_p99_ms),
        )
    }
}

/// End-to-end run: boots the daemon [`SETUP_BOOTS`] times, then runs
/// [`ROUNDS`] rounds of a `lo` window, a `hi` window (a fortieth of
/// `--seconds` each) and an overload probe (an eightieth).
fn untraced(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    bin: &Path,
    graph: &Graph,
    report: &mut Report,
) -> Result<(), String> {
    let mut ready = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_BOOTS {
        // Dropping the previous daemon stops it before the next boots.
        drop(daemon.take());
        let booted = Daemon::boot(bin, &inputs.config)?;
        ready.push(booted.ready_s);
        daemon = Some(booted);
    }
    let daemon = daemon.expect("SETUP_BOOTS > 0");
    let traffic = Traffic {
        spec,
        seed: args.seed,
        traced: false,
    };
    let mut generator = Generator::new(daemon.addr);
    warm(&mut generator, &daemon, &traffic)?;
    let limit_s = spec.limit_ms / 1e3;
    let window = args.seconds / (4.0 * ROUNDS as f64);
    let mut lo = Windows::new(spec.lo_rate);
    let mut hi = Windows::new(spec.hi_rate);
    let mut overload = Windows::new(spec.overload_rate);
    let mut checked = 0;
    for round in 0..ROUNDS as u64 {
        for (rate, id, seconds) in [
            (&mut lo, 100 + round, window),
            (&mut hi, 200 + round, window),
            (&mut overload, 300 + round, window / 2.0),
        ] {
            let (outcome, ids) = traffic.phase(&mut generator, id, rate.rate, seconds, 2);
            checked += verify(graph, spec, &outcome, &ids)?;
            rate.windows.push(outcome);
        }
    }
    let capacity = overload.median_of(|w| (w.attempted - w.failed) as f64 / w.span_s);
    let rss = peak_rss_mb(&daemon.pid())?;
    drop(generator);
    drop(daemon);

    let attempted = lo.attempted() + hi.attempted();
    let failed = lo.failed() + hi.failed();
    report.attempted = attempted as u64;
    report.failed = failed as u64;
    report.note(format!(
        "setup_s = {} s (median of {})",
        median(&ready),
        ready.len()
    ));
    report.note(lo.note("lo", limit_s));
    report.note(hi.note("hi", limit_s));
    report.note(format!(
        "capacity_qps = {capacity} (answers per second offered {} qps, median of {} probes)",
        spec.overload_rate,
        overload.windows.len()
    ));
    report.note(format!(
        "failed_ratio = {} ({failed} of {attempted} at lo and hi)",
        failed as f64 / attempted as f64
    ));
    report.note(format!(
        "peak_rss_mb = {rss} MB; {checked} answers checked bit for bit"
    ));
    report.set("setup_s", median(&ready));
    report.set("peak_rss_mb", rss);
    report.set("ok_ratio", 1.0 - failed as f64 / attempted as f64);
    report.set("latency_ms", lo.median_of(|w| w.percentile_ms(0.5)));
    report.set(
        "stressed_latency_ms",
        hi.median_of(|w| w.percentile_ms(0.5)),
    );
    report.set("throughput_per_s", capacity);
    report.set("quality", hi.slo_ratio(limit_s));
    Ok(())
}

/// Traced run: set-up split into its layers, the request path split into
/// transport, in-process handling, the server's own `x-trace: 1` stages and
/// the push kernel, plus cache and batcher counters from `/stats`.
fn traced(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    bin: &Path,
    graph: &Graph,
    report: &mut Report,
) -> Result<(), String> {
    let mut reads = Vec::new();
    for _ in 0..3 {
        let t = clock::now();
        nrp_graph::io::read_edge_list(&inputs.graph, GraphKind::Directed)
            .map_err(|e| format!("read edge list: {e}"))?;
        reads.push(t.elapsed().as_secs_f64());
    }
    let mut loads = Vec::new();
    let mut embedding = None;
    for _ in 0..2 {
        let t = clock::now();
        embedding =
            Some(Embedding::load(&inputs.embedding).map_err(|e| format!("Embedding::load: {e}"))?);
        loads.push(t.elapsed().as_secs_f64());
    }
    let file_mb = std::fs::metadata(&inputs.embedding)
        .map_err(|e| e.to_string())?
        .len() as f64
        / (1024.0 * 1024.0);

    let daemon = Daemon::boot(bin, &inputs.config)?;
    let ready_s = daemon.ready_s;
    let mut client = Client::connect(daemon.addr)?;
    let mut rtts = Vec::new();
    for _ in 0..500 {
        let t = clock::now();
        let (status, _) = client.get("/healthz")?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
    }
    let mut generator = Generator::new(daemon.addr);
    let stream = Traffic {
        spec,
        seed: args.seed,
        traced: true,
    };
    warm(&mut generator, &daemon, &stream)?;
    let before = stats(&mut client)?;
    let (traffic, ids) = stream.phase(&mut generator, 2, spec.hi_rate, args.seconds / 2.0, 4000);
    drop(generator);
    let after = stats(&mut client)?;
    let checked = verify(graph, spec, &traffic, &ids)?;
    let mut stages: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (_, body) in &traffic.bodies {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let trace = value
            .as_object()
            .and_then(|o| o.get("trace"))
            .and_then(|t| t.as_object())
            .and_then(|t| t.get("stages_us"))
            .and_then(|s| s.as_object())
            .ok_or("x-trace answer lacks trace.stages_us")?;
        for (stage, us) in trace.iter() {
            stages
                .entry(stage.to_string())
                .or_default()
                .push(us.as_f64().unwrap_or(0.0));
        }
    }
    let mut knn = Vec::new();
    for source in sources(spec, args.seed, 3, 20) {
        let t = clock::now();
        client.get_json(&format!("/knn?source={source}&k=10"))?;
        knn.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    drop(daemon);

    // In process: the same request sequence through ServeState::handle (no
    // TCP) and through the push kernel alone.
    let config = ServeConfig::from_path(&inputs.config)?;
    let state = ServeState::new(graph.clone(), embedding, config);
    let in_process: Vec<u32> = ids.iter().copied().take(IN_PROCESS_REQUESTS).collect();
    let request = |source: u32| Request {
        method: "GET".into(),
        path: "/ppr".into(),
        query: vec![
            ("source".into(), source.to_string()),
            ("top".into(), TOP.to_string()),
        ],
        headers: Vec::new(),
        body: Vec::new(),
        http11: true,
    };
    if spec.hot {
        for source in hot_nodes(args.seed) {
            state.handle(&request(source));
        }
    }
    let mut handle_us = Vec::new();
    for &source in &in_process {
        let req = request(source);
        let t = clock::now();
        let response = state.handle(&req);
        handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        if response.status != 200 {
            return Err(format!("ServeState::handle answered {}", response.status));
        }
    }
    drop(state);
    let mut ws = PushWorkspace::with_capacity(graph.num_nodes());
    let (mut push_us, mut touched, mut pushes) = (Vec::new(), Vec::new(), Vec::new());
    for &source in &in_process {
        let t = clock::now();
        let outcome = forward_push_into(
            graph,
            source,
            ALPHA,
            spec.r_max,
            DanglingPolicy::SelfLoop,
            &mut ws,
        )
        .map_err(|e| format!("forward_push_into: {e}"))?;
        push_us.push(t.elapsed().as_secs_f64() * 1e6);
        touched.push(ws.touched() as f64);
        pushes.push(outcome.num_pushes as f64);
    }

    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    let batches = after.batches - before.batches;
    report.attempted = traffic.attempted as u64;
    report.failed = traffic.failed as u64;
    report.note(format!(
        "traced traffic at {} qps: {} attempted, {} failed, {} trace samples, {checked} answers checked",
        spec.hi_rate,
        traffic.attempted,
        traffic.failed,
        traffic.bodies.len()
    ));
    let stage = |name: &str| mean(stages.get(name).map_or(&[][..], |v| v.as_slice()));
    report.set("graph.io.read_s", median(&reads));
    report.set("core.embedding.load_s", median(&loads));
    report.set("core.embedding.file_mb", file_mb);
    report.set("serve.ready_s", ready_s);
    report.set("serve.http.healthz_rtt_us", median(&rtts));
    report.set("serve.handle_ppr_us", median(&handle_us));
    report.set("serve.stage.parse_us", stage("parse"));
    report.set("serve.stage.queue_wait_us", stage("queue_wait"));
    report.set("serve.stage.batch_assembly_us", stage("batch_assembly"));
    report.set("serve.stage.kernel_compute_us", stage("kernel_compute"));
    report.set("serve.stage.serialize_us", stage("serialize"));
    report.set(
        "serve.cache.hit_ratio",
        if lookups > 0.0 {
            (after.hits - before.hits) / lookups
        } else {
            0.0
        },
    );
    report.set("serve.cache.evictions", after.evictions - before.evictions);
    report.set(
        "serve.batch.mean_size",
        if batches > 0.0 {
            (after.jobs - before.jobs) / batches
        } else {
            0.0
        },
    );
    report.set("serve.batch.coalesced", after.coalesced - before.coalesced);
    report.set("core.push_us", median(&push_us));
    report.set("core.push.touched", mean(&touched));
    report.set("core.push.pushes", mean(&pushes));
    report.set("serve.shed", after.shed - before.shed);
    report.set("serve.timeouts", after.timeouts - before.timeouts);
    report.set("serve.knn_us", median(&knn));
    report.set("client.lag_ms", traffic.lag_p99_ms());
    report.set("client.samples", traffic.bodies.len() as f64);
    Ok(())
}
