//! The `nrp_serve` daemon.
//!
//! ```text
//! nrp_serve --config configs/serve.json      # serve a real graph
//! nrp_serve --fixture 500 --addr 127.0.0.1:0 # self-contained demo graph
//! ```
//!
//! Runs until stdin reaches EOF or a line reading `shutdown` arrives, then
//! drains in-flight requests and exits — so `echo shutdown | nrp_serve …`
//! and closing the pipe both stop it cleanly.

use std::path::Path;
use std::process::ExitCode;

use nrp_core::Embedding;
use nrp_serve::{fixture, ServeConfig, ServeState, Server};

const USAGE: &str = "usage: nrp_serve [--config <serve.json>] [--fixture <nodes>] \
[--addr <host:port>] [--threads <n>]";

struct Options {
    config: Option<String>,
    fixture_nodes: Option<usize>,
    addr: Option<String>,
    threads: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        config: None,
        fixture_nodes: None,
        addr: None,
        threads: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--config" => options.config = Some(value("--config")?),
            "--fixture" => {
                let raw = value("--fixture")?;
                options.fixture_nodes = Some(
                    raw.parse()
                        .map_err(|_| format!("--fixture expects a node count, got `{raw}`"))?,
                );
            }
            "--addr" => options.addr = Some(value("--addr")?),
            "--threads" => {
                let raw = value("--threads")?;
                options.threads = Some(
                    raw.parse()
                        .map_err(|_| format!("--threads expects an integer, got `{raw}`"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args)?;

    let mut config = match &options.config {
        Some(path) => ServeConfig::from_path(Path::new(path))?,
        None => ServeConfig::default(),
    };
    if let Some(addr) = options.addr {
        config.addr = addr;
    }
    if let Some(threads) = options.threads {
        config.threads = threads;
    }
    config.validate()?;

    let (graph, embedding) = match (options.fixture_nodes, &config.graph) {
        (Some(nodes), _) => {
            eprintln!("building fixture graph ({nodes} nodes) and embedding…");
            let (graph, embedding) = fixture(nodes, 42);
            (graph, Some(embedding))
        }
        (None, Some(path)) => {
            let graph = nrp_graph::io::read_edge_list(path, config.graph_kind)
                .map_err(|e| format!("cannot load graph `{path}`: {e}"))?;
            let embedding = match &config.embedding {
                Some(embedding_path) => {
                    let embedding = Embedding::load(embedding_path)
                        .map_err(|e| format!("cannot load embedding `{embedding_path}`: {e}"))?;
                    if embedding.num_nodes() != graph.num_nodes() {
                        return Err(format!(
                            "embedding `{embedding_path}` covers {} nodes but graph `{path}` \
                             has {}: they must describe the same node set",
                            embedding.num_nodes(),
                            graph.num_nodes()
                        ));
                    }
                    Some(embedding)
                }
                None => None,
            };
            (graph, embedding)
        }
        (None, None) => {
            return Err(format!(
                "no graph to serve: pass --fixture <nodes> or a config with a `graph` path\n{USAGE}"
            ))
        }
    };

    eprintln!(
        "serving {} nodes / {} arcs ({} embedding) on {} threads",
        graph.num_nodes(),
        graph.num_arcs(),
        if embedding.is_some() { "with" } else { "no" },
        config.threads,
    );
    eprintln!(
        "resilience: deadline {}ms, queue {}, max-conn {}, degrade {} (window {}ms, recover {}ms)",
        config.deadline_ms,
        config.queue_capacity,
        config.max_connections,
        if config.degrade_threshold > 0 {
            format!("after {} sheds", config.degrade_threshold)
        } else {
            "off".into()
        },
        config.degrade_window_ms,
        config.degrade_recover_ms,
    );
    let server = Server::start(ServeState::new(graph, embedding, config))
        .map_err(|e| format!("cannot start server: {e}"))?;
    // The load generator and smoke scripts scrape this exact line for the
    // bound (possibly ephemeral) port.
    println!("nrp-serve listening on {}", server.addr());

    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    eprintln!("shutting down (draining in-flight requests)…");
    server.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
