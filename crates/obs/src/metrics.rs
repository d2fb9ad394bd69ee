//! Metrics registry: named counters, gauges, and log-linear histograms.
//!
//! The design splits into a **hot path** and a **cold path**:
//!
//! * Hot path — [`Counter::inc`], [`Gauge::set`], [`Histogram::observe`] are
//!   single relaxed atomic operations on pre-resolved `Arc`s.  No lock, no
//!   allocation, no branch beyond the no-op check.  Instruments are resolved
//!   once at subsystem construction (server startup, pool creation), never
//!   per request.
//! * Cold path — registration and [`MetricsRegistry::snapshot`] take the
//!   registry mutex.  Snapshots read every atomic exactly once and hand back
//!   plain-data structs, so rendering (Prometheus text, `/stats` JSON) works
//!   on an immutable copy.
//!
//! Every instrument has a **no-op form** (`Counter::noop()` etc. — the
//! `Default`): recording into it is a branch on `None` and nothing else.
//! This is how telemetry is disabled wholesale — hand out a disabled
//! [`MetricsHandle`] and the entire subsystem records into no-ops.
//!
//! ## Histogram bucketing
//!
//! Histograms use **log-linear** buckets: values `0..4` get exact buckets,
//! and every power-of-two octave above that is split into 4 linear
//! sub-buckets, capping the relative quantile error at 25%.  The scheme is
//! value-agnostic but every histogram in this workspace records
//! **microseconds**.  Values at or above `2^32` land in one overflow bucket
//! rendered as `+Inf`.
//!
//! ## Determinism
//!
//! Registries order families and label sets with `BTreeMap`s, so exports are
//! byte-stable for a given set of recorded values — no hash-order iteration
//! (lint rule D001 applies to this crate like everywhere else).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: 4 exact buckets for values `0..4`, then 30
/// octaves × 4 linear sub-buckets covering `4..2^32`, then one overflow
/// bucket (rendered as `+Inf`).
pub const HIST_BUCKETS: usize = 125;

const SUB: u64 = 4;
const SUB_SHIFT: u32 = 2;

/// Maps a recorded value to its bucket index (always `< HIST_BUCKETS`).
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = (msb - SUB_SHIFT) as usize;
    let sub = ((value >> (msb - SUB_SHIFT)) - SUB) as usize;
    (SUB as usize + octave * SUB as usize + sub).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `index`, or `None` for the overflow
/// (`+Inf`) bucket.  Bounds are strictly increasing in `index`.
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    if index >= HIST_BUCKETS - 1 {
        return None;
    }
    let i = index as u64;
    if i < SUB {
        return Some(i);
    }
    let octave = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    Some(((SUB + sub + 1) << octave) - 1)
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.  Cloning shares the underlying cell;
/// the `Default` is a no-op instrument that records nothing.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An instrument that silently discards every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// True if updates are recorded anywhere (false for no-ops).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op instrument).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a value that can go up and down.  Cloning shares the underlying
/// cell; the `Default` is a no-op instrument.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// An instrument that silently discards every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// True if updates are recorded anywhere (false for no-ops).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.0 {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        }
    }

    /// The current value (0 for a no-op instrument).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A log-linear-bucket histogram (see the module docs for the bucketing
/// scheme).  Cloning shares the underlying cells; the `Default` is a no-op
/// instrument.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// An instrument that silently discards every update.
    pub fn noop() -> Self {
        Self(None)
    }

    /// A live histogram not attached to any registry (snapshots work, but it
    /// is never exported).  Used by tests and as the kind-mismatch fallback.
    pub fn detached() -> Self {
        Self(Some(Arc::new(HistogramCore::new())))
    }

    /// True if updates are recorded anywhere (false for no-ops).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// A consistent copy of the current bucket counts and sum (empty for a
    /// no-op instrument).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |core| core.snapshot())
    }
}

/// Plain-data copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }

    /// Per-bucket (non-cumulative) observation counts, `HIST_BUCKETS` long.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Adds every bucket of `other` into `self` (the merge of two
    /// histograms observes the union of their samples).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the nearest-rank sample.  Returns 0 with no
    /// observations and `u64::MAX` when the rank lands in the overflow
    /// bucket.  The bucketing bounds the relative error at 25%.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Value that can go up and down.
    Gauge,
    /// Log-linear-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum SeriesCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<Vec<(String, String)>, SeriesCell>,
}

/// A process- or server-scoped collection of named metric families.
///
/// Registration is **idempotent**: asking twice for the same
/// `(name, labels)` returns instruments sharing one cell, so independent
/// subsystems may resolve the same metric.  Registering an existing name
/// with a *different kind* is a programming error; rather than panicking
/// (the serving path must stay panic-free) the registry hands back a live
/// but detached instrument that is never exported.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared registry (created on first use).  Servers
    /// normally scope a registry per instance instead so tests stay
    /// isolated; the global exists for offline binaries that want one
    /// ambient sink.
    pub fn global() -> Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
    }

    /// Registers (or resolves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or resolves) a counter with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Counter,
            series: BTreeMap::new(),
        });
        if family.kind != MetricKind::Counter {
            return Counter(Some(Arc::new(AtomicU64::new(0))));
        }
        let cell = family
            .series
            .entry(owned_labels(labels))
            .or_insert_with(|| SeriesCell::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            SeriesCell::Counter(c) => Counter(Some(Arc::clone(c))),
            _ => Counter(Some(Arc::new(AtomicU64::new(0)))),
        }
    }

    /// Registers (or resolves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or resolves) a gauge with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Gauge,
            series: BTreeMap::new(),
        });
        if family.kind != MetricKind::Gauge {
            return Gauge(Some(Arc::new(AtomicU64::new(0))));
        }
        let cell = family
            .series
            .entry(owned_labels(labels))
            .or_insert_with(|| SeriesCell::Gauge(Arc::new(AtomicU64::new(0))));
        match cell {
            SeriesCell::Gauge(c) => Gauge(Some(Arc::clone(c))),
            _ => Gauge(Some(Arc::new(AtomicU64::new(0)))),
        }
    }

    /// Registers (or resolves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or resolves) a histogram with the given label pairs.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Histogram,
            series: BTreeMap::new(),
        });
        if family.kind != MetricKind::Histogram {
            return Histogram::detached();
        }
        let cell = family
            .series
            .entry(owned_labels(labels))
            .or_insert_with(|| SeriesCell::Histogram(Arc::new(HistogramCore::new())));
        match cell {
            SeriesCell::Histogram(c) => Histogram(Some(Arc::clone(c))),
            _ => Histogram::detached(),
        }
    }

    /// A consistent plain-data copy of every registered family, ordered by
    /// family name and then label set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            families: families
                .iter()
                .map(|(name, family)| FamilySnapshot {
                    name: name.clone(),
                    help: family.help.clone(),
                    kind: family.kind,
                    series: family
                        .series
                        .iter()
                        .map(|(labels, cell)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match cell {
                                SeriesCell::Counter(c) => {
                                    // nrp-lint: allow(K003) — `AtomicU64::load`, not a workspace `load`: lock-free
                                    SeriesValue::Counter(c.load(Ordering::Relaxed))
                                }
                                SeriesCell::Gauge(c) => {
                                    // nrp-lint: allow(K003) — `AtomicU64::load`, not a workspace `load`: lock-free
                                    SeriesValue::Gauge(c.load(Ordering::Relaxed))
                                }
                                SeriesCell::Histogram(c) => {
                                    // nrp-lint: allow(K001) — `HistogramCore::snapshot` reads atomics only; not a re-entrant registry snapshot
                                    // nrp-lint: allow(K003) — `HistogramCore::snapshot` reads atomics only; it cannot block
                                    SeriesValue::Histogram(c.snapshot())
                                }
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// A cheap, clonable, possibly-disabled reference to a [`MetricsRegistry`].
///
/// This is the type threaded through constructors (`EmbedContext`, the
/// worker pool, the batcher): subsystems resolve their instruments from it
/// once at startup.  A disabled handle (`MetricsHandle::default()` /
/// [`MetricsHandle::noop`]) resolves every instrument to a no-op, so the
/// telemetry cost of an uninstrumented run is one `None` branch per record.
#[derive(Clone, Debug, Default)]
pub struct MetricsHandle {
    registry: Option<Arc<MetricsRegistry>>,
}

impl MetricsHandle {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Self::default()
    }

    /// A handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Self {
            registry: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// A handle backed by an existing registry.
    pub fn from_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// A handle backed by the process-wide registry.
    pub fn global() -> Self {
        Self::from_registry(MetricsRegistry::global())
    }

    /// The backing registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Registers (or resolves) an unlabeled counter; no-op when disabled.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or resolves) a labeled counter; no-op when disabled.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry
            .as_ref()
            .map_or_else(Counter::noop, |r| r.counter_with(name, help, labels))
    }

    /// Registers (or resolves) an unlabeled gauge; no-op when disabled.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or resolves) a labeled gauge; no-op when disabled.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.registry
            .as_ref()
            .map_or_else(Gauge::noop, |r| r.gauge_with(name, help, labels))
    }

    /// Registers (or resolves) an unlabeled histogram; no-op when disabled.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or resolves) a labeled histogram; no-op when disabled.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.registry
            .as_ref()
            .map_or_else(Histogram::noop, |r| r.histogram_with(name, help, labels))
    }

    /// A snapshot of the backing registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |r| r.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Snapshots and Prometheus rendering
// ---------------------------------------------------------------------------

/// One series' current value inside a [`FamilySnapshot`].
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One labeled series of a family.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The series' value at snapshot time.
    pub value: SeriesValue,
}

/// Plain-data copy of one metric family.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family name (e.g. `nrp_serve_request_latency_us`).
    pub name: String,
    /// One-line description for `# HELP`.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// The family's series.
    pub series: Vec<SeriesSnapshot>,
}

/// Plain-data copy of a whole registry, plus any families a caller derives
/// from other sources (e.g. the server's request counters) before rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The families, ordered by name.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Appends a derived family (callers should re-sort via
    /// [`MetricsSnapshot::render_prometheus`], which orders by name).
    pub fn push_family(&mut self, family: FamilySnapshot) {
        self.families.push(family);
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`).  Families are emitted sorted by name;
    /// histogram `le` lines are emitted only for non-empty buckets (plus the
    /// mandatory `+Inf`), keeping scrapes proportional to the distinct
    /// magnitudes actually observed.
    pub fn render_prometheus(&self) -> String {
        let mut order: Vec<usize> = (0..self.families.len()).collect();
        order.sort_by(|&a, &b| {
            let name_a = self.families.get(a).map(|f| f.name.as_str()).unwrap_or("");
            let name_b = self.families.get(b).map(|f| f.name.as_str()).unwrap_or("");
            name_a.cmp(name_b)
        });
        let mut out = String::new();
        for idx in order {
            let Some(family) = self.families.get(idx) else {
                continue;
            };
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for series in &family.series {
                match &series.value {
                    SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                        out.push_str(&family.name);
                        push_labelset(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SeriesValue::Histogram(hist) => {
                        render_histogram(&mut out, &family.name, &series.labels, hist);
                    }
                }
            }
        }
        out
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    hist: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, count) in hist.buckets().iter().enumerate() {
        cumulative += count;
        if *count == 0 {
            continue;
        }
        if let Some(le) = bucket_upper_bound(i) {
            out.push_str(name);
            out.push_str("_bucket");
            push_labelset(out, labels, Some(&le.to_string()));
            out.push(' ');
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
    }
    let total = hist.count();
    out.push_str(name);
    out.push_str("_bucket");
    push_labelset(out, labels, Some("+Inf"));
    out.push(' ');
    out.push_str(&total.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum");
    push_labelset(out, labels, None);
    out.push(' ');
    out.push_str(&hist.sum().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    push_labelset(out, labels, None);
    out.push(' ');
    out.push_str(&total.to_string());
    out.push('\n');
}

fn push_labelset(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Exact buckets for small values.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), Some(v));
        }
        // Every bucket's bounds map back to the bucket itself: the inclusive
        // upper bound, and one-past the previous bucket's bound.
        let mut prev_le = None;
        for i in 0..HIST_BUCKETS - 1 {
            let le = bucket_upper_bound(i).expect("finite bucket");
            assert_eq!(bucket_index(le), i, "upper bound of bucket {i}");
            if let Some(prev) = prev_le {
                assert!(le > prev, "bounds strictly increase at {i}");
                assert_eq!(bucket_index(prev + 1), i, "lower edge of bucket {i}");
            }
            prev_le = Some(le);
        }
        // Values past the last finite bound land in the overflow bucket.
        let last = bucket_upper_bound(HIST_BUCKETS - 2).expect("finite bucket");
        assert_eq!(last, u64::from(u32::MAX));
        assert_eq!(bucket_index(last + 1), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // The log-linear scheme promises <= 25% relative error: the bucket
        // containing v has width <= v/4 for v >= 4.
        for v in [4u64, 7, 9, 100, 1023, 65_536, 1_000_000, 4_000_000_000] {
            let i = bucket_index(v);
            let le = bucket_upper_bound(i).expect("finite");
            let lower = if i == 0 {
                0
            } else {
                bucket_upper_bound(i - 1).map_or(0, |p| p + 1)
            };
            assert!(lower <= v && v <= le, "bucket {i} contains {v}");
            assert!(
                (le - lower) as f64 <= (v as f64) * 0.25 + 1.0,
                "bucket width {} too wide for value {v}",
                le - lower
            );
        }
    }

    #[test]
    fn histogram_observe_merge_and_quantiles() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        for v in [1u64, 2, 3, 100] {
            a.observe(v);
        }
        // 5e12 is far past the last finite bucket bound (2^32 - 1), so it
        // exercises the overflow bucket without overflowing the sum.
        for v in [1_000u64, 50_000, 5_000_000_000_000] {
            b.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum(), 106 + 51_000 + 5_000_000_000_000u64);
        // Merged bucket counts equal the sum of the parts, bucket by bucket.
        let (sa, sb) = (a.snapshot(), b.snapshot());
        for i in 0..HIST_BUCKETS {
            assert_eq!(merged.buckets()[i], sa.buckets()[i] + sb.buckets()[i]);
        }
        // Quantiles: rank math over cumulative buckets.
        assert_eq!(
            merged.quantile(0.0),
            bucket_upper_bound(bucket_index(1)).unwrap()
        );
        assert!(merged.quantile(0.5) >= 3);
        assert_eq!(merged.quantile(1.0), u64::MAX, "max lands in overflow");
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), 0);
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("nrp_test_concurrent_total", "Concurrency test.");
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), threads * per_thread);
        // A second resolution of the same name sees the same cell.
        let again = registry.counter("nrp_test_concurrent_total", "Concurrency test.");
        assert_eq!(again.value(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_observations_are_exact() {
        let hist = Histogram::detached();
        let threads = 4;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = hist.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        hist.observe(t * per_thread + i);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count(), threads * per_thread);
    }

    #[test]
    fn noop_instruments_record_nothing() {
        let counter = Counter::noop();
        counter.inc();
        counter.add(5);
        assert_eq!(counter.value(), 0);
        let gauge = Gauge::noop();
        gauge.set(3);
        gauge.add(2);
        gauge.sub(1);
        assert_eq!(gauge.value(), 0);
        let hist = Histogram::noop();
        hist.observe(42);
        assert_eq!(hist.snapshot().count(), 0);
        let handle = MetricsHandle::noop();
        assert!(handle.registry().is_none());
        assert_eq!(handle.counter("x", "y").value(), 0);
        assert!(handle.snapshot().families.is_empty());
    }

    #[test]
    fn gauge_set_add_sub() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("nrp_test_gauge", "Gauge test.");
        gauge.set(10);
        gauge.add(5);
        gauge.sub(3);
        assert_eq!(gauge.value(), 12);
        gauge.sub(100);
        assert_eq!(gauge.value(), 0, "sub saturates at zero");
    }

    #[test]
    fn kind_mismatch_returns_detached_instruments() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("nrp_test_family", "First registration wins.");
        counter.inc();
        // Same name, different kind: live but unexported instruments.
        let gauge = registry.gauge("nrp_test_family", "Mismatch.");
        gauge.set(99);
        let hist = registry.histogram("nrp_test_family", "Mismatch.");
        hist.observe(1);
        let snap = registry.snapshot();
        assert_eq!(snap.families.len(), 1);
        match &snap.families[0].series[0].value {
            SeriesValue::Counter(v) => assert_eq!(*v, 1),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_text_format_golden() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with(
                "nrp_test_requests_total",
                "Total requests.",
                &[("endpoint", "ppr")],
            )
            .add(3);
        registry
            .counter_with(
                "nrp_test_requests_total",
                "Total requests.",
                &[("endpoint", "knn")],
            )
            .add(1);
        registry
            .gauge("nrp_test_queue_depth", "Jobs waiting.")
            .set(7);
        let hist =
            registry.histogram_with("nrp_test_latency_us", "Latency.", &[("endpoint", "ppr")]);
        for v in [0u64, 1, 4, 9, 1_000_000] {
            hist.observe(v);
        }
        let text = registry.snapshot().render_prometheus();
        let expected = "\
# HELP nrp_test_latency_us Latency.
# TYPE nrp_test_latency_us histogram
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"0\"} 1
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"1\"} 2
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"4\"} 3
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"9\"} 4
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"1048575\"} 5
nrp_test_latency_us_bucket{endpoint=\"ppr\",le=\"+Inf\"} 5
nrp_test_latency_us_sum{endpoint=\"ppr\"} 1000014
nrp_test_latency_us_count{endpoint=\"ppr\"} 5
# HELP nrp_test_queue_depth Jobs waiting.
# TYPE nrp_test_queue_depth gauge
nrp_test_queue_depth 7
# HELP nrp_test_requests_total Total requests.
# TYPE nrp_test_requests_total counter
nrp_test_requests_total{endpoint=\"knn\"} 1
nrp_test_requests_total{endpoint=\"ppr\"} 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_and_help_escaping() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with(
                "nrp_test_escapes",
                "Line\nbreak \\ slash.",
                &[("path", "a\"b\\c\nd")],
            )
            .inc();
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# HELP nrp_test_escapes Line\\nbreak \\\\ slash."));
        assert!(text.contains("nrp_test_escapes{path=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn derived_families_render_alongside_registry_families() {
        let registry = MetricsRegistry::new();
        registry
            .counter("nrp_test_zzz", "Last alphabetically.")
            .inc();
        let mut snap = registry.snapshot();
        snap.push_family(FamilySnapshot {
            name: "nrp_test_aaa".to_string(),
            help: "Derived.".to_string(),
            kind: MetricKind::Gauge,
            series: vec![SeriesSnapshot {
                labels: Vec::new(),
                value: SeriesValue::Gauge(5),
            }],
        });
        let text = snap.render_prometheus();
        let aaa = text.find("nrp_test_aaa").expect("derived family present");
        let zzz = text.find("nrp_test_zzz").expect("registry family present");
        assert!(aaa < zzz, "families are sorted by name");
    }
}
