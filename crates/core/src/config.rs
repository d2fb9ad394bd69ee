//! Declarative method configuration.
//!
//! [`MethodConfig`] describes any of the workspace's eleven embedding methods
//! as plain data: one enum variant per method, internally tagged by the
//! `method` field when serialized, with missing fields filled from the
//! paper's defaults.  An experiment is therefore a JSON (or TOML) document:
//!
//! ```
//! use nrp_core::config::MethodConfig;
//! let config: MethodConfig =
//!     serde_json::from_str(r#"{"method": "NRP", "dimension": 16, "seed": 7}"#).unwrap();
//! assert_eq!(config.method_name(), "NRP");
//! assert_eq!(config.dimension(), 16);
//! ```
//!
//! Turning a configuration into an embedder is `nrp_baselines::build` (also
//! re-exported by the umbrella crate as `nrp::build`): one exhaustive `match`
//! over every variant, so a method added here without a builder there fails
//! to compile.  It lives downstream because the nine baselines do, and
//! `nrp-baselines` depends on this crate, not the other way round.

use nrp_linalg::{DanglingPolicy, RandomizedSvdMethod};

use crate::{NrpError, Result};

/// Generates the `MethodConfig` enum plus its name table, defaults and
/// (de)serialization from one declaration of `tag => Variant { field: type =
/// paper_default }` entries, keeping the four in lockstep.
macro_rules! method_configs {
    ($( $tag:literal => $variant:ident { $( $field:ident : $ty:ty = $default:expr ),* $(,)? } )*) => {
        /// Declarative configuration of one embedding method.
        ///
        /// Serialized form is internally tagged: `{"method": "NRP", ...}`.
        /// Fields omitted from a document take the paper's default values, so
        /// `{"method": "DeepWalk"}` is a complete configuration.
        #[derive(Debug, Clone, PartialEq)]
        pub enum MethodConfig {
            $(
                #[doc = concat!("Parameters of the `", $tag, "` method.")]
                $variant {
                    $(
                        #[doc = concat!("The method's `", stringify!($field), "` parameter.")]
                        $field: $ty,
                    )*
                },
            )*
        }

        impl MethodConfig {
            /// The method's name — the value of the serialized `method`
            /// tag.
            pub fn method_name(&self) -> &'static str {
                match self {
                    $( MethodConfig::$variant { .. } => $tag, )*
                }
            }

            /// Every method name, in the paper's roster order.
            pub fn method_names() -> &'static [&'static str] {
                &[$($tag),*]
            }

            /// The paper-default configuration for `name` (case-sensitive),
            /// or `None` if the name is unknown.
            pub fn default_for(name: &str) -> Option<MethodConfig> {
                match name {
                    $( $tag => Some(MethodConfig::$variant { $( $field: $default, )* }), )*
                    _ => None,
                }
            }

            /// The RNG seed of any variant.
            pub fn seed(&self) -> u64 {
                match self {
                    $( MethodConfig::$variant { seed, .. } => *seed, )*
                }
            }

            /// Sets the RNG seed of any variant.
            pub fn set_seed(&mut self, value: u64) {
                match self {
                    $( MethodConfig::$variant { seed, .. } => *seed = value, )*
                }
            }

            /// The per-node embedding budget `k` of any variant.
            pub fn dimension(&self) -> usize {
                match self {
                    $( MethodConfig::$variant { dimension, .. } => *dimension, )*
                }
            }

            /// Sets the per-node embedding budget `k` of any variant.
            pub fn set_dimension(&mut self, value: usize) {
                match self {
                    $( MethodConfig::$variant { dimension, .. } => *dimension = value, )*
                }
            }

            fn from_object(
                tag: &str,
                object: &serde::Map,
            ) -> std::result::Result<MethodConfig, serde::Error> {
                match tag {
                    $( $tag => {
                        // Reject unknown keys: in a declarative experiment
                        // file a misspelled hyper-parameter must fail loudly,
                        // not silently run with the paper default.
                        const FIELDS: &[&str] = &[$(stringify!($field)),*];
                        for (key, _) in object.iter() {
                            if key != "method" && !FIELDS.contains(&key) {
                                return Err(serde::Error::custom(format!(
                                    "unknown field `{key}` for method `{}` (expected one of: {})",
                                    $tag,
                                    FIELDS.join(", ")
                                )));
                            }
                        }
                        Ok(MethodConfig::$variant {
                            $( $field: match object.get(stringify!($field)) {
                                Some(value) => serde::Deserialize::from_value(value).map_err(|e| {
                                    serde::Error::custom(format!(
                                        "{}.{}: {}",
                                        $tag,
                                        stringify!($field),
                                        e
                                    ))
                                })?,
                                None => $default,
                            }, )*
                        })
                    } )*
                    other => Err(serde::Error::custom(format!(
                        "unknown method `{other}` (known methods: {})",
                        MethodConfig::method_names().join(", ")
                    ))),
                }
            }
        }

        impl serde::Serialize for MethodConfig {
            fn to_value(&self) -> serde::Value {
                match self {
                    $( MethodConfig::$variant { $( $field, )* } => {
                        let mut object = serde::Map::new();
                        object.insert("method", serde::Value::String($tag.to_owned()));
                        $( object.insert(stringify!($field), serde::Serialize::to_value($field)); )*
                        serde::Value::Object(object)
                    } )*
                }
            }
        }

        impl serde::Deserialize for MethodConfig {
            fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
                let object = value.as_object().ok_or_else(|| {
                    serde::Error::custom(format!(
                        "expected a method-config object, got {}",
                        value.kind()
                    ))
                })?;
                let tag = object
                    .get("method")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| serde::Error::custom("missing `method` tag"))?;
                MethodConfig::from_object(tag, object)
            }
        }
    };
}

method_configs! {
    "NRP" => Nrp {
        dimension: usize = 128,
        alpha: f64 = 0.15,
        num_hops: usize = 20,
        reweight_epochs: usize = 10,
        epsilon: f64 = 0.2,
        lambda: f64 = 10.0,
        svd_method: RandomizedSvdMethod = RandomizedSvdMethod::BlockKrylov,
        exact_b1: bool = false,
        dangling: DanglingPolicy = DanglingPolicy::SelfLoop,
        seed: u64 = 0,
    }
    "ApproxPPR" => ApproxPpr {
        dimension: usize = 128,
        alpha: f64 = 0.15,
        num_hops: usize = 20,
        epsilon: f64 = 0.2,
        svd_method: RandomizedSvdMethod = RandomizedSvdMethod::BlockKrylov,
        dangling: DanglingPolicy = DanglingPolicy::SelfLoop,
        seed: u64 = 0,
    }
    "STRAP" => Strap {
        dimension: usize = 128,
        alpha: f64 = 0.15,
        delta: f64 = 1e-4,
        iterations: usize = 6,
        dangling: DanglingPolicy = DanglingPolicy::SelfLoop,
        seed: u64 = 0,
    }
    "AROPE" => Arope {
        dimension: usize = 128,
        order_weights: Vec<f64> = vec![1.0, 0.1, 0.01],
        oversample: usize = 8,
        iterations: usize = 8,
        seed: u64 = 0,
    }
    "RandNE" => RandNe {
        dimension: usize = 128,
        order_weights: Vec<f64> = vec![1.0, 1e2, 1e4, 1e5],
        seed: u64 = 0,
    }
    "Spectral" => Spectral {
        dimension: usize = 128,
        oversample: usize = 8,
        iterations: usize = 8,
        seed: u64 = 0,
    }
    "DeepWalk" => DeepWalk {
        dimension: usize = 128,
        walks_per_node: usize = 10,
        walk_length: usize = 40,
        window: usize = 5,
        epochs: usize = 2,
        negatives: usize = 5,
        learning_rate: f64 = 0.05,
        seed: u64 = 0,
    }
    "node2vec" => Node2Vec {
        dimension: usize = 128,
        p: f64 = 1.0,
        q: f64 = 1.0,
        walks_per_node: usize = 10,
        walk_length: usize = 40,
        window: usize = 5,
        epochs: usize = 2,
        negatives: usize = 5,
        learning_rate: f64 = 0.05,
        seed: u64 = 0,
    }
    "LINE" => Line {
        dimension: usize = 128,
        samples: usize = 200_000,
        negatives: usize = 5,
        learning_rate: f64 = 0.05,
        seed: u64 = 0,
    }
    "VERSE" => Verse {
        dimension: usize = 128,
        alpha: f64 = 0.15,
        samples_per_node: usize = 40,
        epochs: usize = 3,
        negatives: usize = 3,
        learning_rate: f64 = 0.05,
        seed: u64 = 0,
    }
    "APP" => App {
        dimension: usize = 128,
        alpha: f64 = 0.15,
        samples_per_node: usize = 80,
        epochs: usize = 5,
        negatives: usize = 5,
        learning_rate: f64 = 0.15,
        seed: u64 = 0,
    }
}

impl MethodConfig {
    /// The paper-default configuration of every method, in roster order
    /// (NRP and ApproxPPR first, then one method per competitor family).
    pub fn all_defaults() -> Vec<MethodConfig> {
        Self::method_names()
            .iter()
            .map(|name| Self::default_for(name).expect("method_names entries are known"))
            .collect()
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NrpError::Serialization(e.to_string()))
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| NrpError::Serialization(e.to_string()))
    }

    /// Parses a JSON document (missing fields take paper defaults).
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| NrpError::Serialization(e.to_string()))
    }

    /// Renders the configuration as a flat TOML table.
    ///
    /// Every config is a flat set of scalar (or float-array) keys, so the
    /// rendered document is a sequence of `key = value` lines starting with
    /// `method = "..."`.
    pub fn to_toml(&self) -> String {
        let value = serde::Serialize::to_value(self);
        let object = value.as_object().expect("configs serialize to objects");
        let mut out = String::new();
        for (key, field) in object.iter() {
            out.push_str(key);
            out.push_str(" = ");
            write_toml_value(&mut out, field);
            out.push('\n');
        }
        out
    }

    /// Parses the flat TOML form produced by [`MethodConfig::to_toml`]
    /// (comments with `#` and blank lines are allowed; missing fields take
    /// paper defaults).
    pub fn from_toml(text: &str) -> Result<Self> {
        let object = flat_toml_to_value(text)?;
        serde::Deserialize::from_value(&object).map_err(|e| NrpError::Serialization(e.to_string()))
    }
}

/// Parses a flat TOML table (`key = value` lines with scalar or array
/// values; `#` comments and blank lines allowed) into a
/// [`serde::Value::Object`].  This is the grammar [`MethodConfig::from_toml`]
/// accepts; it is public so downstream crates (the bench sweep loader)
/// can parse sweep-level TOML sections with the same rules.
pub fn flat_toml_to_value(text: &str) -> Result<serde::Value> {
    let mut object = serde::Map::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = strip_toml_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let (key, value_text) = line.split_once('=').ok_or_else(|| {
            NrpError::Serialization(format!("TOML line {}: expected `key = value`", line_no + 1))
        })?;
        let key = key.trim();
        // TOML forbids duplicate keys, and overwriting would silently run
        // with the later value.
        if object.get(key).is_some() {
            return Err(NrpError::Serialization(format!(
                "TOML line {}: duplicate key `{key}`",
                line_no + 1
            )));
        }
        let value = parse_toml_value(value_text.trim())
            .map_err(|e| NrpError::Serialization(format!("TOML line {}: {e}", line_no + 1)))?;
        object.insert(key, value);
    }
    Ok(serde::Value::Object(object))
}

fn write_toml_value(out: &mut String, value: &serde::Value) {
    match value {
        serde::Value::Bool(true) => out.push_str("true"),
        serde::Value::Bool(false) => out.push_str("false"),
        serde::Value::Number(n) => {
            let rendered = n.to_string();
            out.push_str(&rendered);
            // TOML distinguishes integer and float types; keep floats floats.
            if matches!(n, serde::Number::Float(_)) && !rendered.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        serde::Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        serde::Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_toml_value(out, item);
            }
            out.push(']');
        }
        serde::Value::Null | serde::Value::Object(_) => {
            unreachable!("method configs are flat scalar/array tables")
        }
    }
}

/// Removes a trailing `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str) -> std::result::Result<serde::Value, String> {
    if text == "true" {
        return Ok(serde::Value::Bool(true));
    }
    if text == "false" {
        return Ok(serde::Value::Bool(false));
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let body = stripped.strip_suffix('"').ok_or("unterminated string")?;
        let mut s = String::new();
        let mut escape = false;
        for c in body.chars() {
            if escape {
                s.push(c);
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else {
                s.push(c);
            }
        }
        return Ok(serde::Value::String(s));
    }
    if let Some(stripped) = text.strip_prefix('[') {
        let body = stripped.strip_suffix(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_toml_value(part)?);
        }
        return Ok(serde::Value::Array(items));
    }
    // TOML permits underscores in numbers.
    let numeric: String = text.chars().filter(|&c| c != '_').collect();
    if !numeric.contains(['.', 'e', 'E']) {
        if let Ok(v) = numeric.parse::<u64>() {
            return Ok(serde::Value::Number(serde::Number::PosInt(v)));
        }
        if let Ok(v) = numeric.parse::<i64>() {
            return Ok(serde::Value::Number(serde::Number::NegInt(v)));
        }
    }
    numeric
        .parse::<f64>()
        .map(|v| serde::Value::Number(serde::Number::Float(v)))
        .map_err(|_| format!("invalid value `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_methods_in_roster_order() {
        let names = MethodConfig::method_names();
        assert_eq!(names.len(), 11);
        assert_eq!(names[0], "NRP");
        assert_eq!(names[1], "ApproxPPR");
        assert_eq!(MethodConfig::all_defaults().len(), 11);
        for (config, &name) in MethodConfig::all_defaults().iter().zip(names) {
            assert_eq!(config.method_name(), name);
            assert_eq!(config.dimension(), 128, "{name} paper default k");
            assert_eq!(config.seed(), 0, "{name} default seed");
        }
    }

    #[test]
    fn json_round_trip_preserves_every_default() {
        for config in MethodConfig::all_defaults() {
            let json = config.to_json().unwrap();
            let back = MethodConfig::from_json(&json).unwrap();
            assert_eq!(back, config, "{}", config.method_name());
        }
    }

    #[test]
    fn missing_fields_take_paper_defaults() {
        let config = MethodConfig::from_json(r#"{"method": "NRP", "dimension": 16}"#).unwrap();
        let MethodConfig::Nrp {
            dimension,
            alpha,
            num_hops,
            lambda,
            ..
        } = config
        else {
            panic!("expected an NRP config");
        };
        assert_eq!(dimension, 16);
        assert_eq!(alpha, 0.15);
        assert_eq!(num_hops, 20);
        assert_eq!(lambda, 10.0);
        // A bare tag is a complete config.
        let bare = MethodConfig::from_json(r#"{"method": "VERSE"}"#).unwrap();
        assert_eq!(bare, MethodConfig::default_for("VERSE").unwrap());
    }

    #[test]
    fn unknown_method_and_bad_fields_are_rejected() {
        assert!(MethodConfig::from_json(r#"{"method": "GCN"}"#).is_err());
        assert!(MethodConfig::from_json(r#"{"dimension": 16}"#).is_err());
        let err = MethodConfig::from_json(r#"{"method": "NRP", "alpha": "high"}"#).unwrap_err();
        assert!(err.to_string().contains("alpha"), "{err}");
        assert!(
            MethodConfig::from_json(r#"{"method": "NRP", "svd_method": "power-method"}"#).is_err()
        );
    }

    #[test]
    fn misspelled_fields_are_rejected_not_defaulted() {
        let err = MethodConfig::from_json(r#"{"method": "NRP", "dimention": 16}"#).unwrap_err();
        assert!(err.to_string().contains("dimention"), "{err}");
        assert!(
            err.to_string().contains("dimension"),
            "should list valid fields: {err}"
        );
        // A field that exists on another method is still unknown here.
        assert!(MethodConfig::from_json(r#"{"method": "LINE", "alpha": 0.2}"#).is_err());
        // Same strictness through the TOML path.
        assert!(MethodConfig::from_toml("method = \"NRP\"\nepislon = 0.05\n").is_err());
        // A repeated key is an error, not a silent overwrite.
        let err = MethodConfig::from_toml("method = \"NRP\"\ndimension = 16\ndimension = 64\n")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "serialization error: TOML line 3: duplicate key `dimension`"
        );
    }

    #[test]
    fn seed_and_dimension_accessors_cover_every_variant() {
        for mut config in MethodConfig::all_defaults() {
            config.set_seed(42);
            config.set_dimension(64);
            assert_eq!(config.seed(), 42, "{}", config.method_name());
            assert_eq!(config.dimension(), 64, "{}", config.method_name());
        }
    }

    #[test]
    fn toml_round_trip_preserves_every_default() {
        for config in MethodConfig::all_defaults() {
            let toml = config.to_toml();
            assert!(toml.starts_with("method = \""), "{toml}");
            let back = MethodConfig::from_toml(&toml).unwrap();
            assert_eq!(back, config, "{}", config.method_name());
        }
    }

    #[test]
    fn toml_accepts_comments_and_defaults() {
        let config = MethodConfig::from_toml(
            "# an experiment\nmethod = \"AROPE\"\ndimension = 32 # override\n\norder_weights = [1.0, 0.5]\n",
        )
        .unwrap();
        let MethodConfig::Arope {
            dimension,
            order_weights,
            oversample,
            ..
        } = config
        else {
            panic!("expected an AROPE config");
        };
        assert_eq!(dimension, 32);
        assert_eq!(order_weights, vec![1.0, 0.5]);
        assert_eq!(oversample, 8);
        assert!(MethodConfig::from_toml("method \"NRP\"").is_err());
    }

    #[test]
    fn strap_dangling_policy_parses_and_round_trips() {
        // STRAP's dangling knob reaches its forward pushes (the embedder
        // echo is covered by the baselines crate, which owns the builder).
        let parsed =
            MethodConfig::from_json(r#"{"method": "STRAP", "dangling": "teleport"}"#).unwrap();
        assert!(matches!(
            parsed,
            MethodConfig::Strap {
                dangling: DanglingPolicy::Teleport,
                ..
            }
        ));
        let json = parsed.to_json().unwrap();
        assert_eq!(MethodConfig::from_json(&json).unwrap(), parsed);
        let toml = parsed.to_toml();
        assert_eq!(MethodConfig::from_toml(&toml).unwrap(), parsed);
        assert!(MethodConfig::from_json(r#"{"method": "STRAP", "dangling": "nope"}"#).is_err());
    }

    #[test]
    fn dangling_policy_round_trips_through_json_and_toml() {
        for name in ["NRP", "ApproxPPR"] {
            for policy in [
                DanglingPolicy::SelfLoop,
                DanglingPolicy::ZeroRow,
                DanglingPolicy::Teleport,
            ] {
                let mut config = MethodConfig::default_for(name).unwrap();
                match &mut config {
                    MethodConfig::Nrp { dangling, .. }
                    | MethodConfig::ApproxPpr { dangling, .. } => *dangling = policy,
                    _ => unreachable!(),
                }
                let json = config.to_json().unwrap();
                assert!(json.contains(policy.as_str()), "{json}");
                assert_eq!(MethodConfig::from_json(&json).unwrap(), config);
                let toml = config.to_toml();
                assert!(toml.contains(policy.as_str()), "{toml}");
                assert_eq!(MethodConfig::from_toml(&toml).unwrap(), config);
            }
        }
        // Documents parse the policy by name, and bad names fail loudly.
        let parsed =
            MethodConfig::from_json(r#"{"method": "NRP", "dangling": "teleport"}"#).unwrap();
        assert!(matches!(
            parsed,
            MethodConfig::Nrp {
                dangling: DanglingPolicy::Teleport,
                ..
            }
        ));
        assert!(MethodConfig::from_json(r#"{"method": "NRP", "dangling": "uniform"}"#).is_err());
    }
}
