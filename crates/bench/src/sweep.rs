//! Config-file-driven benchmark sweeps.
//!
//! A [`SweepSpec`] is a declarative experiment: a list of
//! [`MethodConfig`] documents plus sweep-level fields
//! (dataset scale and filter, seeds, repeats, thread budgets, a uniform
//! dimension override).  Every harness binary accepts `--config <file>`
//! pointing at one, so the paper's (method × dataset × hyper-parameter) grid
//! is a *data* change, not a code change.
//!
//! JSON form:
//!
//! ```json
//! {
//!   "name": "fig7-roster",
//!   "scale": "small",
//!   "datasets": ["sbm-directed"],
//!   "dimension": 32,
//!   "seeds": [7, 8],
//!   "repeats": 1,
//!   "threads": [1, 2],
//!   "methods": [
//!     {"method": "NRP"},
//!     {"method": "DeepWalk", "walks_per_node": 5}
//!   ]
//! }
//! ```
//!
//! TOML form: the sweep-level fields as flat `key = value` lines followed by
//! one `[[methods]]` section per entry, each section using the flat grammar
//! of [`MethodConfig::from_toml`].
//!
//! [`SweepRunner`] executes the grid through the method registry under an
//! [`EmbedContext`] and streams one [`RunMetadata`] record per run as
//! RFC-4180 CSV (dataset, repeat, method, config, seed, threads, per-stage
//! wall clock, total, status).

use std::collections::HashSet;
use std::io::Write;
use std::path::Path;

use nrp_core::{flat_toml_to_value, EmbedContext, MethodConfig, RunMetadata};

use crate::datasets::{suite, BenchDataset, Scale};
use crate::report::{csv_line, parse_csv_record};
use crate::HarnessArgs;

/// Identity of one sweep cell: (dataset, repeat, method, seed, threads).
/// The `config` column is derived from (method, seed, dimension), so it is
/// not part of the identity.
pub type SweepCell = (String, usize, String, u64, usize);

/// A declarative sweep: sweep-level execution fields plus the method roster.
///
/// Every field except `methods` is optional; absent fields fall back to the
/// harness defaults (or flags) at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name, echoed in logs.
    pub name: Option<String>,
    /// Dataset scale (overridden by an explicit `--scale` flag).
    pub scale: Option<Scale>,
    /// Case-sensitive substrings selecting datasets of the suite by name;
    /// empty selects the whole suite.
    pub datasets: Vec<String>,
    /// Uniform dimension applied to every method entry (overridden by an
    /// explicit `--dim` flag).
    pub dimension: Option<usize>,
    /// Seeds to sweep; empty means the harness seed.
    pub seeds: Vec<u64>,
    /// Repeats per (dataset, method, seed, threads) cell; at least 1.
    pub repeats: usize,
    /// Thread budgets to sweep; empty means the harness budget.
    pub threads: Vec<usize>,
    /// The method roster (non-empty).
    pub methods: Vec<MethodConfig>,
}

impl SweepSpec {
    /// Loads a spec from a `.json` or `.toml` file, dispatching on the
    /// extension.
    pub fn from_path(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read sweep config `{}`: {e}", path.display()))?;
        let parsed = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json(&text),
            Some("toml") => Self::from_toml(&text),
            _ => Err("expected a `.json` or `.toml` extension".to_string()),
        };
        parsed.map_err(|e| format!("invalid sweep config `{}`: {e}", path.display()))
    }

    /// Parses the JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&value)
    }

    /// Parses the TOML form: flat sweep-level `key = value` lines followed
    /// by one `[[methods]]` section per method entry.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let mut sections = text.split("[[methods]]");
        let head = sections.next().unwrap_or_default();
        let head_value = flat_toml_to_value(head).map_err(|e| e.to_string())?;
        let serde::Value::Object(head_object) = head_value else {
            unreachable!("flat_toml_to_value returns objects");
        };
        let mut object = head_object;
        let methods: Vec<serde::Value> = sections
            .map(|section| {
                MethodConfig::from_toml(section)
                    .map(|config| serde::Serialize::to_value(&config))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, String>>()?;
        object.insert("methods", serde::Value::Array(methods));
        Self::from_value(&serde::Value::Object(object))
    }

    /// Builds a spec from its parsed value tree, rejecting unknown fields.
    pub fn from_value(value: &serde::Value) -> Result<Self, String> {
        let object = value
            .as_object()
            .ok_or_else(|| format!("expected a sweep object, got {}", value.kind()))?;
        const FIELDS: &[&str] = &[
            "name",
            "scale",
            "datasets",
            "dimension",
            "seeds",
            "repeats",
            "threads",
            "methods",
        ];
        for (key, _) in object.iter() {
            if !FIELDS.contains(&key) {
                return Err(format!(
                    "unknown sweep field `{key}` (expected one of: {})",
                    FIELDS.join(", ")
                ));
            }
        }
        let name = match object.get("name") {
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| format!("`name` must be a string, got {}", v.kind()))?
                    .to_string(),
            ),
            None => None,
        };
        let scale = match object.get("scale") {
            Some(v) => {
                let text = v
                    .as_str()
                    .ok_or_else(|| format!("`scale` must be a string, got {}", v.kind()))?;
                Some(Scale::parse(text).ok_or_else(|| {
                    format!("`scale` must be tiny|small|medium|large, got `{text}`")
                })?)
            }
            None => None,
        };
        let datasets: Vec<String> = match object.get("datasets") {
            Some(v) => serde::Deserialize::from_value(v).map_err(|e| format!("`datasets`: {e}"))?,
            None => Vec::new(),
        };
        let dimension = match object.get("dimension") {
            Some(v) => {
                Some(serde::Deserialize::from_value(v).map_err(|e| format!("`dimension`: {e}"))?)
            }
            None => None,
        };
        let seeds: Vec<u64> = match object.get("seeds") {
            Some(v) => serde::Deserialize::from_value(v).map_err(|e| format!("`seeds`: {e}"))?,
            None => Vec::new(),
        };
        let repeats: usize = match object.get("repeats") {
            Some(v) => serde::Deserialize::from_value(v).map_err(|e| format!("`repeats`: {e}"))?,
            None => 1,
        };
        if repeats == 0 {
            return Err("`repeats` must be at least 1".into());
        }
        let threads: Vec<usize> = match object.get("threads") {
            Some(v) => serde::Deserialize::from_value(v).map_err(|e| format!("`threads`: {e}"))?,
            None => Vec::new(),
        };
        if threads.contains(&0) {
            return Err("`threads` entries must be positive".into());
        }
        let methods_value = object.get("methods").ok_or("missing `methods` list")?;
        let methods_array = methods_value
            .as_array()
            .ok_or_else(|| format!("`methods` must be an array, got {}", methods_value.kind()))?;
        let methods: Vec<MethodConfig> = methods_array
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                serde::Deserialize::from_value(entry).map_err(|e| format!("methods[{i}]: {e}"))
            })
            .collect::<Result<_, String>>()?;
        if methods.is_empty() {
            return Err("`methods` must not be empty".into());
        }
        Ok(SweepSpec {
            name,
            scale,
            datasets,
            dimension,
            seeds,
            repeats,
            threads,
            methods,
        })
    }

    /// Serializes the spec back to pretty JSON (used to generate the sample
    /// configs and in round-trip tests).
    pub fn to_json_pretty(&self) -> String {
        let mut object = serde::Map::new();
        if let Some(name) = &self.name {
            object.insert("name", serde::Value::String(name.clone()));
        }
        if let Some(scale) = self.scale {
            object.insert("scale", serde::Value::String(scale.as_str().to_string()));
        }
        if !self.datasets.is_empty() {
            object.insert("datasets", serde::Serialize::to_value(&self.datasets));
        }
        if let Some(dimension) = self.dimension {
            object.insert("dimension", serde::Serialize::to_value(&dimension));
        }
        if !self.seeds.is_empty() {
            object.insert("seeds", serde::Serialize::to_value(&self.seeds));
        }
        if self.repeats != 1 {
            object.insert("repeats", serde::Serialize::to_value(&self.repeats));
        }
        if !self.threads.is_empty() {
            object.insert("threads", serde::Serialize::to_value(&self.threads));
        }
        object.insert(
            "methods",
            serde::Value::Array(
                self.methods
                    .iter()
                    .map(serde::Serialize::to_value)
                    .collect(),
            ),
        );
        serde_json::to_string_pretty(&serde::Value::Object(object))
            .expect("sweep specs serialize to JSON")
    }
}

/// One executed cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Dataset name the run embedded.
    pub dataset: String,
    /// Zero-based repeat index.
    pub repeat: usize,
    /// Method name of the entry.
    pub method: String,
    /// Run metadata on success.
    pub metadata: Option<RunMetadata>,
    /// The failure message on error.
    pub error: Option<String>,
}

/// Executes a [`SweepSpec`] over the synthetic dataset suite, streaming one
/// CSV record per run.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    spec: SweepSpec,
}

impl SweepRunner {
    /// Creates a runner for a spec.
    pub fn new(spec: SweepSpec) -> Self {
        Self { spec }
    }

    /// The spec being executed.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The CSV column names emitted by [`SweepRunner::run`], in order:
    /// sweep-level columns, then [`RunMetadata::csv_header`], then `status`.
    pub fn csv_header() -> Vec<&'static str> {
        let mut header = vec!["dataset", "repeat"];
        header.extend_from_slice(RunMetadata::csv_header());
        header.push("status");
        header
    }

    /// Runs every (dataset × method × seed × threads × repeat) cell of the
    /// grid, writing the header line and one RFC-4180 CSV record per run to
    /// `out` as soon as the run finishes (flushed per line, so progress is
    /// visible while the sweep executes).  Harness-level fields absent from
    /// the spec fall back to `defaults`.
    ///
    /// A run that fails to build or embed is recorded with an `err:` status
    /// instead of aborting the sweep.
    pub fn run(
        &self,
        defaults: &HarnessArgs,
        out: &mut dyn Write,
    ) -> Result<Vec<SweepRecord>, String> {
        self.run_with_skip(defaults, out, &HashSet::new(), true)
    }

    /// Parses the completed cells out of a previously written sweep CSV.
    ///
    /// A cell counts as completed only when its `status` column is exactly
    /// `ok`: failed runs (`err:…`), the header line, and any truncated
    /// trailing record (a sweep killed mid-write) are all ignored, so a
    /// resumed sweep retries them.
    pub fn completed_cells(text: &str) -> HashSet<SweepCell> {
        let mut cells = HashSet::new();
        for line in text.lines() {
            let Ok(record) = parse_csv_record(line) else {
                continue;
            };
            // dataset, repeat, method, config, seed, threads, stages, total, status
            if record.len() != Self::csv_header().len() || record[8] != "ok" {
                continue;
            }
            let (Ok(repeat), Ok(seed), Ok(threads)) = (
                record[1].parse::<usize>(),
                record[4].parse::<u64>(),
                record[5].parse::<usize>(),
            ) else {
                continue;
            };
            cells.insert((record[0].clone(), repeat, record[2].clone(), seed, threads));
        }
        cells
    }

    /// Resumable variant of [`SweepRunner::run`] writing to a file: cells
    /// already recorded as `ok` in an existing `path` are skipped, and new
    /// records are appended after the existing ones.  A missing (or empty)
    /// file behaves exactly like a fresh [`SweepRunner::run`].
    ///
    /// Returns the records actually executed in this call — resuming a
    /// finished sweep returns an empty list and leaves the file untouched.
    pub fn run_resumable(
        &self,
        defaults: &HarnessArgs,
        path: &Path,
    ) -> Result<Vec<SweepRecord>, String> {
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read sweep CSV `{}`: {e}", path.display())),
        };
        let done = Self::completed_cells(&existing);
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open sweep CSV `{}`: {e}", path.display()))?;
        if !existing.is_empty() && !existing.ends_with('\n') {
            // A truncated trailing record (no newline) must not have the
            // first resumed record glued onto it.
            writeln!(out).map_err(|e| format!("cannot write sweep CSV: {e}"))?;
        }
        self.run_with_skip(defaults, &mut out, &done, existing.is_empty())
    }

    fn run_with_skip(
        &self,
        defaults: &HarnessArgs,
        out: &mut dyn Write,
        skip: &HashSet<SweepCell>,
        write_header: bool,
    ) -> Result<Vec<SweepRecord>, String> {
        nrp_baselines::register_baselines();
        let spec = &self.spec;
        let scale = spec.scale.unwrap_or(defaults.scale);
        let seeds = if spec.seeds.is_empty() {
            vec![defaults.seed]
        } else {
            spec.seeds.clone()
        };
        let thread_budgets = if spec.threads.is_empty() {
            vec![defaults.threads.max(1)]
        } else {
            spec.threads.clone()
        };
        let suite = suite(scale, defaults.seed);
        let selected: Vec<&BenchDataset> = suite
            .iter()
            .filter(|d| {
                spec.datasets.is_empty() || spec.datasets.iter().any(|f| d.name.contains(f))
            })
            .collect();
        if selected.is_empty() {
            return Err(format!(
                "dataset filter {:?} matches nothing in the suite ({})",
                spec.datasets,
                suite.iter().map(|d| d.name).collect::<Vec<_>>().join(", ")
            ));
        }
        let io_err = |e: std::io::Error| format!("cannot write sweep CSV: {e}");
        if write_header {
            writeln!(out, "{}", csv_line(&Self::csv_header())).map_err(io_err)?;
        }
        let mut records = Vec::new();
        for dataset in &selected {
            for method in &spec.methods {
                for &seed in &seeds {
                    for &threads in &thread_budgets {
                        for repeat in 0..spec.repeats {
                            let cell = (
                                dataset.name.to_string(),
                                repeat,
                                method.method_name().to_string(),
                                seed,
                                threads,
                            );
                            if skip.contains(&cell) {
                                continue;
                            }
                            let mut config = method.clone();
                            if let Some(dimension) = spec.dimension {
                                config.set_dimension(dimension);
                            }
                            config.set_seed(seed);
                            let outcome = config.build().and_then(|embedder| {
                                let ctx = EmbedContext::new().with_seed(seed).with_threads(threads);
                                embedder.embed(&dataset.graph, &ctx)
                            });
                            let record = match outcome {
                                Ok(output) => {
                                    let metadata = output.metadata().clone();
                                    let mut cells =
                                        vec![dataset.name.to_string(), repeat.to_string()];
                                    cells.extend(metadata.csv_row());
                                    cells.push("ok".into());
                                    writeln!(out, "{}", csv_line(&cells)).map_err(io_err)?;
                                    SweepRecord {
                                        dataset: dataset.name.to_string(),
                                        repeat,
                                        method: config.method_name().to_string(),
                                        metadata: Some(metadata),
                                        error: None,
                                    }
                                }
                                Err(err) => {
                                    // The stream is read line-by-line, so
                                    // keep every record on one physical line
                                    // even if an error Display ever grows a
                                    // line break.
                                    let message = err.to_string().replace(['\n', '\r'], " ");
                                    let cells = vec![
                                        dataset.name.to_string(),
                                        repeat.to_string(),
                                        config.method_name().to_string(),
                                        config.to_json().unwrap_or_default(),
                                        seed.to_string(),
                                        threads.to_string(),
                                        String::new(),
                                        String::new(),
                                        format!("err:{message}"),
                                    ];
                                    writeln!(out, "{}", csv_line(&cells)).map_err(io_err)?;
                                    SweepRecord {
                                        dataset: dataset.name.to_string(),
                                        repeat,
                                        method: config.method_name().to_string(),
                                        metadata: None,
                                        error: Some(message),
                                    }
                                }
                            };
                            out.flush().map_err(io_err)?;
                            records.push(record);
                        }
                    }
                }
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> &'static str {
        r#"{
            "name": "unit",
            "scale": "tiny",
            "seeds": [3, 4],
            "threads": [1, 2],
            "repeats": 2,
            "dimension": 8,
            "methods": [{"method": "NRP"}, {"method": "ApproxPPR"}]
        }"#
    }

    #[test]
    fn json_spec_parses_every_field() {
        let spec = SweepSpec::from_json(minimal_json()).unwrap();
        assert_eq!(spec.name.as_deref(), Some("unit"));
        assert_eq!(spec.scale, Some(Scale::Tiny));
        assert_eq!(spec.seeds, vec![3, 4]);
        assert_eq!(spec.threads, vec![1, 2]);
        assert_eq!(spec.repeats, 2);
        assert_eq!(spec.dimension, Some(8));
        assert_eq!(spec.methods.len(), 2);
        assert_eq!(spec.methods[0].method_name(), "NRP");
    }

    #[test]
    fn toml_spec_matches_the_json_form() {
        let toml = "name = \"unit\"\nscale = \"tiny\"\nseeds = [3, 4]\n\
                    threads = [1, 2]\nrepeats = 2\ndimension = 8\n\
                    [[methods]]\nmethod = \"NRP\"\n\
                    [[methods]]\nmethod = \"ApproxPPR\"\n";
        assert_eq!(
            SweepSpec::from_toml(toml).unwrap(),
            SweepSpec::from_json(minimal_json()).unwrap()
        );
    }

    #[test]
    fn spec_round_trips_through_pretty_json() {
        let spec = SweepSpec::from_json(minimal_json()).unwrap();
        let rendered = spec.to_json_pretty();
        assert_eq!(SweepSpec::from_json(&rendered).unwrap(), spec);
    }

    #[test]
    fn bad_specs_are_rejected_with_field_names() {
        let err = SweepSpec::from_json(r#"{"methods": []}"#).unwrap_err();
        assert!(err.contains("methods"), "{err}");
        let err = SweepSpec::from_json(r#"{"mehtods": [{"method": "NRP"}]}"#).unwrap_err();
        assert!(err.contains("mehtods"), "{err}");
        let err = SweepSpec::from_json(r#"{"scale": "galactic", "methods": [{"method": "NRP"}]}"#)
            .unwrap_err();
        assert!(err.contains("galactic"), "{err}");
        let err =
            SweepSpec::from_json(r#"{"repeats": 0, "methods": [{"method": "NRP"}]}"#).unwrap_err();
        assert!(err.contains("repeats"), "{err}");
        let err = SweepSpec::from_json(r#"{"methods": [{"method": "NRP", "dimention": 4}]}"#)
            .unwrap_err();
        assert!(
            err.contains("methods[0]") && err.contains("dimention"),
            "{err}"
        );
        assert!(SweepSpec::from_json("not json").is_err());
    }

    #[test]
    fn runner_header_extends_run_metadata() {
        let header = SweepRunner::csv_header();
        assert_eq!(header[0], "dataset");
        assert_eq!(header[1], "repeat");
        assert_eq!(&header[2..header.len() - 1], RunMetadata::csv_header());
        assert_eq!(*header.last().unwrap(), "status");
    }

    fn resumable_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{
                "scale": "tiny",
                "datasets": ["sbm-directed"],
                "seeds": [3],
                "threads": [1],
                "repeats": 2,
                "dimension": 8,
                "methods": [{"method": "ApproxPPR"}, {"method": "NRP"}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn resume_of_half_written_sweep_runs_only_missing_cells() {
        let runner = SweepRunner::new(resumable_spec());
        let defaults = HarnessArgs::default();

        // Reference run: the full 4-cell grid (2 methods × 2 repeats).
        let mut full = Vec::new();
        let records = runner.run(&defaults, &mut full).unwrap();
        assert_eq!(records.len(), 4);
        let full_text = String::from_utf8(full).unwrap();
        assert_eq!(SweepRunner::completed_cells(&full_text).len(), 4);

        // Simulate a sweep killed mid-write: header, one complete record,
        // and a second record truncated halfway through the line.
        let lines: Vec<&str> = full_text.lines().collect();
        let half_written = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() / 2]
        );
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("sweep.csv");
        std::fs::write(&path, &half_written).unwrap();

        // The resume must re-run everything but the one complete cell.
        let resumed = runner.run_resumable(&defaults, &path).unwrap();
        assert_eq!(resumed.len(), 3, "one cell was already complete");
        let finished = std::fs::read_to_string(&path).unwrap();
        assert!(finished.starts_with(&half_written), "resume appends");
        assert_eq!(
            SweepRunner::completed_cells(&finished).len(),
            4,
            "all cells complete after the resume"
        );

        // Resuming a finished sweep is a no-op.
        let again = runner.run_resumable(&defaults, &path).unwrap();
        assert!(again.is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), finished);
    }

    #[test]
    fn completed_cells_ignores_errors_and_junk() {
        let header = csv_line(&SweepRunner::csv_header());
        let text = format!(
            "{header}\n\
             sbm-directed,0,NRP,cfg,3,1,,1.5,ok\n\
             sbm-directed,1,NRP,cfg,3,1,,,err:boom\n\
             not,a,valid,row\n\
             sbm-directed,0,NRP,cfg,notanumber,1,,1.5,ok\n"
        );
        let cells = SweepRunner::completed_cells(&text);
        assert_eq!(cells.len(), 1);
        assert!(cells.contains(&("sbm-directed".to_string(), 0, "NRP".to_string(), 3, 1)));
    }

    #[test]
    fn dataset_filter_that_matches_nothing_errors() {
        let mut spec = SweepSpec::from_json(minimal_json()).unwrap();
        spec.datasets = vec!["no-such-dataset".into()];
        let mut sink = Vec::new();
        let err = SweepRunner::new(spec)
            .run(&HarnessArgs::default(), &mut sink)
            .unwrap_err();
        assert!(err.contains("no-such-dataset"), "{err}");
    }
}
