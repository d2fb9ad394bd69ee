//! Metric catalogue, statistics helpers and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics: every workload reports every one of them, each with
/// its workload's meaning (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("latency_ms", "ms"),
    ("stressed_latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality", "ratio"),
];

/// Per-layer metrics of the traced run.  A layer a workload does not call
/// reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // embed-sbm
    ("graph.io.read_s", "s"),
    ("eval.split_s", "s"),
    ("core.approx_ppr_s", "s"),
    ("core.reweight_s", "s"),
    ("core.scale_s", "s"),
    ("linalg.svd_s", "s"),
    ("linalg.propagate_s", "s"),
    ("linalg.eig_s", "s"),
    ("linalg.eig.gflops", "GFLOP/s"),
    ("linalg.orthonormalize_s", "s"),
    ("linalg.orthonormalize.gflops", "GFLOP/s"),
    ("linalg.gram_s", "s"),
    ("linalg.gram.gflops", "GFLOP/s"),
    ("linalg.matmul_s", "s"),
    ("linalg.matmul.gflops", "GFLOP/s"),
    ("linalg.spmm_s", "s"),
    ("linalg.spmm.gbytes_s", "GB/s"),
    ("linalg.hstack_s", "s"),
    ("linalg.svd.krylov_width", "count"),
    ("linalg.orthogonality_defect", "ratio"),
    ("parallel.speedup", "ratio"),
    ("embed.traced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage.embed", "ratio"),
    ("trace.coverage.approx_ppr", "ratio"),
    // serve-hot / serve-cold
    ("core.embedding.load_s", "s"),
    ("core.embedding.file_mb", "MB"),
    ("serve.ready_s", "s"),
    ("serve.http.healthz_rtt_us", "us"),
    ("serve.handle_ppr_us", "us"),
    ("serve.stage.parse_us", "us"),
    ("serve.stage.queue_wait_us", "us"),
    ("serve.stage.batch_assembly_us", "us"),
    ("serve.stage.kernel_compute_us", "us"),
    ("serve.stage.serialize_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.batch.mean_size", "count"),
    ("serve.batch.coalesced", "count"),
    ("core.push_us", "us"),
    ("core.push.touched", "count"),
    ("core.push.pushes", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.knn_us", "us"),
    ("client.lag_ms", "ms"),
    ("client.samples", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (embeddings, or HTTP requests).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    notes: Vec<String>,
}

impl Report {
    /// Records one catalogued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line (the issue-level metric names, sample
    /// counts and the like) printed ahead of the result line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes and then, as the last line of standard output, the
    /// result object with the metrics of `catalogue`.  Metrics of layers the
    /// run did not touch read 0 in the per-layer catalogue; a missing
    /// end-to-end metric is an error.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for line in &self.notes {
            println!("# {line}");
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        Ok(())
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB (2^20 bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed VmHWM line `{line}`"))?;
    Ok(kb / 1024.0)
}

/// Threads the workloads may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory for one run's generated inputs, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench_work/<tag>-<pid>` under the current directory.
    pub fn create(tag: &str) -> Result<Self, String> {
        let path = Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// A file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Only succeeds when no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}
