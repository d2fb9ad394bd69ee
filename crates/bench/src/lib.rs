//! # nrp-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 5 and Appendix C) on the synthetic dataset suite.
//!
//! Each `src/bin/*.rs` binary corresponds to one table or figure and prints a
//! CSV-style table with the same rows/series the paper plots; see
//! `EXPERIMENTS.md` at the repository root for the full index and for the
//! paper-vs-measured comparison.
//!
//! Binaries accept `--scale tiny|small|medium|large` (default `small`) so CI
//! can run quickly while users can push towards the paper's regimes,
//! `--dim <k>` to override the embedding dimensionality, `--seed <s>`,
//! `--threads <t>` for the [`EmbedContext`](nrp_core::EmbedContext) budget,
//! and `--config <file.json|file.toml>` pointing at a [`SweepSpec`] document
//! — a declarative list of [`MethodConfig`] entries
//! plus sweep-level fields (scale, datasets, seeds, repeats, thread budgets)
//! that replaces each binary's hard-coded method roster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod hotpaths;
pub mod methods;
pub mod report;
pub mod serveload;
pub mod sweep;

pub use datasets::{BenchDataset, Scale};
pub use report::Table;
pub use sweep::{SweepRecord, SweepRunner, SweepSpec};

use nrp_core::{Embedder, MethodConfig};

/// Parses `--scale`, `--dim`, `--seed`, `--threads` and `--config` from
/// command-line arguments.
///
/// Explicit flags win over the sweep file: a field also declared in the
/// `--config` document is used only when the corresponding flag is absent.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset scale.
    pub scale: Scale,
    /// Embedding dimensionality `k`.
    pub dimension: usize,
    /// RNG seed shared by generators and methods.
    pub seed: u64,
    /// Thread budget granted to each embedding run.
    pub threads: usize,
    /// The sweep specification loaded from `--config`, if given.  Its
    /// sweep-level fields are already overridden by any explicit flags, so
    /// reading `scale`/`dimension`/`seeds`/`threads` from here honours the
    /// flags-win precedence.
    pub config: Option<SweepSpec>,
    /// Output CSV path for config-driven sweeps (`--out`).  When the file
    /// already holds records from an interrupted run, the sweep resumes:
    /// completed cells are skipped and new records are appended.
    pub out: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            dimension: 32,
            seed: 7,
            threads: 1,
            config: None,
            out: None,
        }
    }
}

impl HarnessArgs {
    /// The usage message shared by every harness binary.
    pub const USAGE: &'static str = "usage: <bin> [--scale tiny|small|medium|large] [--dim K] \
                                     [--seed S] [--threads T] [--config FILE.json|FILE.toml] \
                                     [--out FILE.csv]";

    /// Parses the process arguments.  On `--help`/`-h` the usage message is
    /// printed and the process exits 0; on any malformed or unknown flag an
    /// error naming that flag is printed to stderr together with the usage
    /// message and the process exits with a non-zero status.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => {
                println!("{}", Self::USAGE);
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list.  Returns `Ok(None)` when `--help`/`-h` was
    /// requested, and `Err` with a message naming the offending flag for
    /// unknown flags, missing values and malformed values.
    pub fn parse(args: &[String]) -> Result<Option<Self>, String> {
        let mut scale: Option<Scale> = None;
        let mut dimension: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut threads: Option<usize> = None;
        let mut config_path: Option<String> = None;
        let mut out_path: Option<String> = None;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value_of = |flag: &str| -> Result<&String, String> {
                iter.next()
                    .ok_or_else(|| format!("flag `{flag}` expects a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    let value = value_of("--scale")?;
                    scale = Some(Scale::parse(value).ok_or_else(|| {
                        format!("`--scale` expects tiny|small|medium|large, got `{value}`")
                    })?);
                }
                "--dim" => {
                    let value = value_of("--dim")?;
                    dimension = Some(value.parse().map_err(|_| {
                        format!("`--dim` expects a positive integer, got `{value}`")
                    })?);
                }
                "--seed" => {
                    let value = value_of("--seed")?;
                    seed = Some(value.parse().map_err(|_| {
                        format!("`--seed` expects an unsigned integer, got `{value}`")
                    })?);
                }
                "--threads" => {
                    let value = value_of("--threads")?;
                    let parsed: usize = value.parse().map_err(|_| {
                        format!("`--threads` expects a positive integer, got `{value}`")
                    })?;
                    if parsed == 0 {
                        return Err("`--threads` expects a positive integer, got `0`".into());
                    }
                    threads = Some(parsed);
                }
                "--config" => {
                    config_path = Some(value_of("--config")?.clone());
                }
                "--out" => {
                    out_path = Some(value_of("--out")?.clone());
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let mut config = match config_path {
            Some(path) => Some(SweepSpec::from_path(std::path::Path::new(&path))?),
            None => None,
        };
        // Push explicit flags down into the spec so consumers that iterate
        // its seed/thread lists (the SweepRunner, fig10's budget ladder) see
        // the same precedence as the resolved scalar fields below: an
        // explicit flag always beats the sweep file.
        if let Some(spec) = config.as_mut() {
            if let Some(scale) = scale {
                spec.scale = Some(scale);
            }
            if let Some(dimension) = dimension {
                spec.dimension = Some(dimension);
            }
            if let Some(seed) = seed {
                spec.seeds = vec![seed];
            }
            if let Some(threads) = threads {
                spec.threads = vec![threads];
            }
        }
        let spec = config.as_ref();
        let defaults = HarnessArgs::default();
        Ok(Some(HarnessArgs {
            scale: scale
                .or_else(|| spec.and_then(|s| s.scale))
                .unwrap_or(defaults.scale),
            dimension: dimension
                .or_else(|| spec.and_then(|s| s.dimension))
                .unwrap_or(defaults.dimension),
            seed: seed
                .or_else(|| spec.and_then(|s| s.seeds.first().copied()))
                .unwrap_or(defaults.seed),
            threads: threads
                .or_else(|| spec.and_then(|s| s.threads.first().copied()))
                .unwrap_or(defaults.threads),
            config,
            out: out_path,
        }))
    }

    /// The method configurations the harness should sweep at dimension
    /// `dimension`: the `--config` document's entries when present (with the
    /// dimension and harness seed applied uniformly, like the hard-coded
    /// roster), else [`methods::roster_configs`].
    pub fn roster_configs_at(&self, dimension: usize) -> Vec<MethodConfig> {
        match &self.config {
            Some(spec) => spec
                .methods
                .iter()
                .cloned()
                .map(|mut config| {
                    config.set_dimension(dimension);
                    config.set_seed(self.seed);
                    config
                })
                .collect(),
            None => methods::roster_configs(dimension, self.seed),
        }
    }

    /// [`HarnessArgs::roster_configs_at`] at the harness dimension.
    pub fn roster_configs(&self) -> Vec<MethodConfig> {
        self.roster_configs_at(self.dimension)
    }

    /// Builds the effective roster at dimension `dimension`, exiting with a
    /// message on an invalid `--config` entry (a harness binary has nothing
    /// better to do with one).
    pub fn roster_at(&self, dimension: usize) -> Vec<Box<dyn Embedder>> {
        self.roster_configs_at(dimension)
            .iter()
            .map(|config| {
                nrp_baselines::build(config).unwrap_or_else(|err| {
                    eprintln!(
                        "error: cannot build `{}` at dimension {dimension}: {err}",
                        config.method_name()
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// [`HarnessArgs::roster_at`] at the harness dimension.
    pub fn roster(&self) -> Vec<Box<dyn Embedder>> {
        self.roster_at(self.dimension)
    }

    /// The NRP parameters the NRP-only sweep bins (Figs. 8, 10, 11) anchor
    /// their per-parameter sweeps at: the `--config` document's first `NRP`
    /// entry when present, else paper defaults, with the harness dimension
    /// and seed applied either way.  Exits with a message on invalid
    /// parameters (a harness binary has nothing better to do with them).
    pub fn nrp_base_params(&self) -> nrp_core::NrpParams {
        let mut params = self
            .config
            .as_ref()
            .and_then(|spec| {
                spec.methods
                    .iter()
                    .find_map(nrp_core::NrpParams::from_config)
            })
            .unwrap_or_default();
        params.dimension = self.dimension;
        params.seed = self.seed;
        if let Err(err) = params.validate() {
            eprintln!("error: invalid NRP base parameters: {err}");
            std::process::exit(2);
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let args = HarnessArgs::default();
        assert_eq!(args.dimension, 32);
        assert_eq!(args.threads, 1);
        assert!(matches!(args.scale, Scale::Small));
        assert!(args.config.is_none());
    }

    #[test]
    fn parse_reads_every_flag() {
        let args = HarnessArgs::parse(&strings(&[
            "--scale",
            "tiny",
            "--dim",
            "16",
            "--seed",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap()
        .unwrap();
        assert!(matches!(args.scale, Scale::Tiny));
        assert_eq!(args.dimension, 16);
        assert_eq!(args.seed, 3);
        assert_eq!(args.threads, 2);
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(HarnessArgs::parse(&strings(&["--help"])).unwrap().is_none());
        assert!(HarnessArgs::parse(&strings(&["-h"])).unwrap().is_none());
    }

    #[test]
    fn unknown_flags_are_named_in_the_error() {
        // Regression: unknown flags used to panic with an opaque message and
        // missing values turned into empty strings with a confusing parse
        // panic.
        let err = HarnessArgs::parse(&strings(&["--sclae", "tiny"])).unwrap_err();
        assert!(err.contains("--sclae"), "{err}");
    }

    #[test]
    fn missing_values_are_reported_not_defaulted() {
        let err = HarnessArgs::parse(&strings(&["--scale"])).unwrap_err();
        assert!(
            err.contains("--scale") && err.contains("expects a value"),
            "{err}"
        );
        let err = HarnessArgs::parse(&strings(&["--dim"])).unwrap_err();
        assert!(err.contains("--dim"), "{err}");
    }

    #[test]
    fn malformed_values_name_the_flag_and_value() {
        let err = HarnessArgs::parse(&strings(&["--dim", "sixteen"])).unwrap_err();
        assert!(err.contains("--dim") && err.contains("sixteen"), "{err}");
        let err = HarnessArgs::parse(&strings(&["--scale", "giant"])).unwrap_err();
        assert!(err.contains("giant"), "{err}");
        let err = HarnessArgs::parse(&strings(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn missing_config_file_is_an_error() {
        let err = HarnessArgs::parse(&strings(&["--config", "/no/such/file.json"])).unwrap_err();
        assert!(err.contains("/no/such/file.json"), "{err}");
    }

    #[test]
    fn roster_configs_fall_back_to_the_hard_coded_roster() {
        let args = HarnessArgs::default();
        let configs = args.roster_configs();
        assert_eq!(configs.len(), 11);
        for config in &configs {
            assert_eq!(config.dimension(), args.dimension);
            assert_eq!(config.seed(), args.seed);
        }
    }
}
