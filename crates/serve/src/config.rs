//! Declarative server configuration, loadable from JSON (see
//! `configs/serve.json` at the repository root for a checked-in sample).

use std::path::Path;

use nrp_core::DanglingPolicy;
use nrp_graph::GraphKind;

/// Everything the server needs to start, with production-sane defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (the bound address is
    /// printed at startup and exposed via `Server::addr`).
    pub addr: String,
    /// Worker-pool thread budget for batched PPR dispatches.
    pub threads: usize,
    /// Hot-source cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Default PPR decay factor for `/ppr` queries without `alpha=`.
    pub alpha: f64,
    /// Default push residue threshold for `/ppr` queries without `r_max=`.
    pub r_max: f64,
    /// Dangling-node policy applied to every PPR computation.
    pub dangling: DanglingPolicy,
    /// Edge-list path to serve (absent when the caller passes a graph
    /// programmatically, e.g. the fixture mode of `nrp_serve`).
    pub graph: Option<String>,
    /// How to interpret the edge list.
    pub graph_kind: GraphKind,
    /// Path of an embedding saved by `Embedding::save` (enables `/knn` and
    /// `/recommend`).
    pub embedding: Option<String>,
    /// Maximum jobs one batch dispatch drains.
    pub max_batch: usize,
    /// Keep-alive idle timeout per connection, milliseconds.
    pub read_timeout_ms: u64,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Default `/ppr` deadline in milliseconds (0 = none); the
    /// `x-deadline-ms` request header overrides it per request.  Expired
    /// requests answer 504.
    pub deadline_ms: u64,
    /// Bounded batcher queue depth; a full queue sheds with 503.
    pub queue_capacity: usize,
    /// Maximum in-flight connections; excess accepts shed with 503.
    pub max_connections: usize,
    /// `Retry-After` seconds advertised on shed (503) answers.
    pub retry_after_secs: u64,
    /// Pressure events (sheds + timeouts) within one window that trigger a
    /// degradation step (0 disables degradation entirely).
    pub degrade_threshold: u64,
    /// Width of the degradation pressure window, milliseconds.
    pub degrade_window_ms: u64,
    /// Quiet time after which the server recovers one degradation level,
    /// milliseconds.
    pub degrade_recover_ms: u64,
    /// Ring-buffer capacity of the per-request trace log served at
    /// `GET /debug/traces` (0 disables trace retention; `/ppr` responses
    /// can still opt into an inline trace via the `x-trace: 1` header).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            threads: 1,
            cache_capacity: 1024,
            alpha: 0.15,
            r_max: 1e-5,
            dangling: DanglingPolicy::SelfLoop,
            graph: None,
            graph_kind: GraphKind::Directed,
            embedding: None,
            max_batch: 256,
            read_timeout_ms: 5_000,
            max_body_bytes: 1024 * 1024,
            deadline_ms: 0,
            queue_capacity: 1024,
            max_connections: 256,
            retry_after_secs: 1,
            degrade_threshold: 32,
            degrade_window_ms: 1_000,
            degrade_recover_ms: 2_000,
            trace_capacity: 256,
        }
    }
}

impl ServeConfig {
    /// Loads a config from a JSON file.
    pub fn from_path(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read serve config `{}`: {e}", path.display()))?;
        Self::from_json(&text)
            .map_err(|e| format!("invalid serve config `{}`: {e}", path.display()))
    }

    /// Parses the JSON form, rejecting unknown fields by name.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let object = value
            .as_object()
            .ok_or_else(|| format!("expected a config object, got {}", value.kind()))?;
        const FIELDS: &[&str] = &[
            "addr",
            "threads",
            "cache_capacity",
            "alpha",
            "r_max",
            "dangling",
            "graph",
            "graph_kind",
            "embedding",
            "max_batch",
            "read_timeout_ms",
            "max_body_bytes",
            "deadline_ms",
            "queue_capacity",
            "max_connections",
            "retry_after_secs",
            "degrade_threshold",
            "degrade_window_ms",
            "degrade_recover_ms",
            "trace_capacity",
        ];
        for (key, _) in object.iter() {
            if !FIELDS.contains(&key) {
                return Err(format!(
                    "unknown serve field `{key}` (expected one of: {})",
                    FIELDS.join(", ")
                ));
            }
        }
        let mut config = ServeConfig::default();
        if let Some(v) = object.get("addr") {
            config.addr = string_field(v, "addr")?;
        }
        if let Some(v) = object.get("threads") {
            config.threads =
                serde::Deserialize::from_value(v).map_err(|e| format!("`threads`: {e}"))?;
        }
        if let Some(v) = object.get("cache_capacity") {
            config.cache_capacity =
                serde::Deserialize::from_value(v).map_err(|e| format!("`cache_capacity`: {e}"))?;
        }
        if let Some(v) = object.get("alpha") {
            config.alpha =
                serde::Deserialize::from_value(v).map_err(|e| format!("`alpha`: {e}"))?;
        }
        if let Some(v) = object.get("r_max") {
            config.r_max =
                serde::Deserialize::from_value(v).map_err(|e| format!("`r_max`: {e}"))?;
        }
        if let Some(v) = object.get("dangling") {
            config.dangling =
                serde::Deserialize::from_value(v).map_err(|e| format!("`dangling`: {e}"))?;
        }
        if let Some(v) = object.get("graph") {
            config.graph = Some(string_field(v, "graph")?);
        }
        if let Some(v) = object.get("graph_kind") {
            let text = string_field(v, "graph_kind")?;
            config.graph_kind = match text.as_str() {
                "directed" => GraphKind::Directed,
                "undirected" => GraphKind::Undirected,
                other => {
                    return Err(format!(
                        "`graph_kind` must be directed|undirected, got `{other}`"
                    ))
                }
            };
        }
        if let Some(v) = object.get("embedding") {
            config.embedding = Some(string_field(v, "embedding")?);
        }
        if let Some(v) = object.get("max_batch") {
            config.max_batch =
                serde::Deserialize::from_value(v).map_err(|e| format!("`max_batch`: {e}"))?;
        }
        if let Some(v) = object.get("read_timeout_ms") {
            config.read_timeout_ms =
                serde::Deserialize::from_value(v).map_err(|e| format!("`read_timeout_ms`: {e}"))?;
        }
        if let Some(v) = object.get("max_body_bytes") {
            config.max_body_bytes =
                serde::Deserialize::from_value(v).map_err(|e| format!("`max_body_bytes`: {e}"))?;
        }
        if let Some(v) = object.get("deadline_ms") {
            config.deadline_ms =
                serde::Deserialize::from_value(v).map_err(|e| format!("`deadline_ms`: {e}"))?;
        }
        if let Some(v) = object.get("queue_capacity") {
            config.queue_capacity =
                serde::Deserialize::from_value(v).map_err(|e| format!("`queue_capacity`: {e}"))?;
        }
        if let Some(v) = object.get("max_connections") {
            config.max_connections =
                serde::Deserialize::from_value(v).map_err(|e| format!("`max_connections`: {e}"))?;
        }
        if let Some(v) = object.get("retry_after_secs") {
            config.retry_after_secs = serde::Deserialize::from_value(v)
                .map_err(|e| format!("`retry_after_secs`: {e}"))?;
        }
        if let Some(v) = object.get("degrade_threshold") {
            config.degrade_threshold = serde::Deserialize::from_value(v)
                .map_err(|e| format!("`degrade_threshold`: {e}"))?;
        }
        if let Some(v) = object.get("degrade_window_ms") {
            config.degrade_window_ms = serde::Deserialize::from_value(v)
                .map_err(|e| format!("`degrade_window_ms`: {e}"))?;
        }
        if let Some(v) = object.get("degrade_recover_ms") {
            config.degrade_recover_ms = serde::Deserialize::from_value(v)
                .map_err(|e| format!("`degrade_recover_ms`: {e}"))?;
        }
        if let Some(v) = object.get("trace_capacity") {
            config.trace_capacity =
                serde::Deserialize::from_value(v).map_err(|e| format!("`trace_capacity`: {e}"))?;
        }
        config.validate()?;
        Ok(config)
    }

    /// Checks the numeric ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(format!("`alpha` must be in (0,1), got {}", self.alpha));
        }
        if self.r_max <= 0.0 {
            return Err(format!("`r_max` must be positive, got {}", self.r_max));
        }
        if self.threads == 0 {
            return Err("`threads` must be at least 1".into());
        }
        if self.max_batch == 0 {
            return Err("`max_batch` must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("`queue_capacity` must be at least 1".into());
        }
        if self.max_connections == 0 {
            return Err("`max_connections` must be at least 1".into());
        }
        if self.degrade_threshold > 0 && self.degrade_window_ms == 0 {
            return Err("`degrade_window_ms` must be positive when degradation is enabled".into());
        }
        Ok(())
    }

    /// Serializes the config as pretty JSON (sample generation and tests).
    pub fn to_json_pretty(&self) -> String {
        let mut object = serde::Map::new();
        object.insert("addr", serde::Value::String(self.addr.clone()));
        object.insert("threads", serde::Serialize::to_value(&self.threads));
        object.insert(
            "cache_capacity",
            serde::Serialize::to_value(&self.cache_capacity),
        );
        object.insert("alpha", serde::Serialize::to_value(&self.alpha));
        object.insert("r_max", serde::Serialize::to_value(&self.r_max));
        object.insert("dangling", serde::Serialize::to_value(&self.dangling));
        if let Some(graph) = &self.graph {
            object.insert("graph", serde::Value::String(graph.clone()));
        }
        object.insert(
            "graph_kind",
            serde::Value::String(
                match self.graph_kind {
                    GraphKind::Directed => "directed",
                    GraphKind::Undirected => "undirected",
                }
                .into(),
            ),
        );
        if let Some(embedding) = &self.embedding {
            object.insert("embedding", serde::Value::String(embedding.clone()));
        }
        object.insert("max_batch", serde::Serialize::to_value(&self.max_batch));
        object.insert(
            "read_timeout_ms",
            serde::Serialize::to_value(&self.read_timeout_ms),
        );
        object.insert(
            "max_body_bytes",
            serde::Serialize::to_value(&self.max_body_bytes),
        );
        object.insert("deadline_ms", serde::Serialize::to_value(&self.deadline_ms));
        object.insert(
            "queue_capacity",
            serde::Serialize::to_value(&self.queue_capacity),
        );
        object.insert(
            "max_connections",
            serde::Serialize::to_value(&self.max_connections),
        );
        object.insert(
            "retry_after_secs",
            serde::Serialize::to_value(&self.retry_after_secs),
        );
        object.insert(
            "degrade_threshold",
            serde::Serialize::to_value(&self.degrade_threshold),
        );
        object.insert(
            "degrade_window_ms",
            serde::Serialize::to_value(&self.degrade_window_ms),
        );
        object.insert(
            "degrade_recover_ms",
            serde::Serialize::to_value(&self.degrade_recover_ms),
        );
        object.insert(
            "trace_capacity",
            serde::Serialize::to_value(&self.trace_capacity),
        );
        serde_json::to_string_pretty(&serde::Value::Object(object))
            .expect("serve configs serialize to JSON")
    }
}

fn string_field(value: &serde::Value, name: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{name}` must be a string, got {}", value.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let config = ServeConfig::default();
        assert!(config.validate().is_ok());
        assert_eq!(config.alpha, 0.15);
        assert_eq!(config.cache_capacity, 1024);
    }

    #[test]
    fn parses_every_field() {
        let config = ServeConfig::from_json(
            r#"{
                "addr": "127.0.0.1:0",
                "threads": 4,
                "cache_capacity": 64,
                "alpha": 0.2,
                "r_max": 1e-4,
                "dangling": "teleport",
                "graph": "data/graph.txt",
                "graph_kind": "undirected",
                "embedding": "data/embedding.json",
                "max_batch": 32,
                "read_timeout_ms": 250,
                "max_body_bytes": 4096,
                "deadline_ms": 150,
                "queue_capacity": 8,
                "max_connections": 12,
                "retry_after_secs": 3,
                "degrade_threshold": 5,
                "degrade_window_ms": 400,
                "degrade_recover_ms": 900,
                "trace_capacity": 32
            }"#,
        )
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.threads, 4);
        assert_eq!(config.cache_capacity, 64);
        assert_eq!(config.alpha, 0.2);
        assert_eq!(config.dangling, DanglingPolicy::Teleport);
        assert_eq!(config.graph.as_deref(), Some("data/graph.txt"));
        assert_eq!(config.graph_kind, GraphKind::Undirected);
        assert_eq!(config.max_batch, 32);
        assert_eq!(config.deadline_ms, 150);
        assert_eq!(config.queue_capacity, 8);
        assert_eq!(config.max_connections, 12);
        assert_eq!(config.retry_after_secs, 3);
        assert_eq!(config.degrade_threshold, 5);
        assert_eq!(config.degrade_window_ms, 400);
        assert_eq!(config.degrade_recover_ms, 900);
        assert_eq!(config.trace_capacity, 32);
    }

    #[test]
    fn round_trips_through_pretty_json() {
        let config = ServeConfig {
            graph: Some("g.txt".into()),
            embedding: Some("e.json".into()),
            ..ServeConfig::default()
        };
        let rendered = config.to_json_pretty();
        assert_eq!(ServeConfig::from_json(&rendered).unwrap(), config);
    }

    #[test]
    fn checked_in_sample_config_parses() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/serve.json");
        let config = ServeConfig::from_path(&path).expect("configs/serve.json stays valid");
        assert_eq!(config.threads, 4);
        assert_eq!(config.graph.as_deref(), Some("data/graph.edges"));
    }

    #[test]
    fn rejects_unknown_and_invalid_fields() {
        let err = ServeConfig::from_json(r#"{"adrr": "x"}"#).unwrap_err();
        assert!(err.contains("adrr"), "{err}");
        let err = ServeConfig::from_json(r#"{"alpha": 1.5}"#).unwrap_err();
        assert!(err.contains("alpha"), "{err}");
        let err = ServeConfig::from_json(r#"{"graph_kind": "sideways"}"#).unwrap_err();
        assert!(err.contains("sideways"), "{err}");
        let err = ServeConfig::from_json(r#"{"threads": 0}"#).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        let err = ServeConfig::from_json(r#"{"queue_capacity": 0}"#).unwrap_err();
        assert!(err.contains("queue_capacity"), "{err}");
        let err = ServeConfig::from_json(r#"{"max_connections": 0}"#).unwrap_err();
        assert!(err.contains("max_connections"), "{err}");
        let err = ServeConfig::from_json(r#"{"degrade_window_ms": 0}"#).unwrap_err();
        assert!(err.contains("degrade_window_ms"), "{err}");
        // The metrics registry is always live, so `metrics_enabled` is not a
        // setting: a config naming it fails by name, not silently.
        let err = ServeConfig::from_json(r#"{"metrics_enabled": false}"#).unwrap_err();
        assert!(
            err.contains("unknown serve field `metrics_enabled`"),
            "{err}"
        );
        assert!(ServeConfig::from_json("not json").is_err());
    }
}
