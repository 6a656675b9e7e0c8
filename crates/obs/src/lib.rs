//! `cobra-obs` — observability primitives for the Cobra VDBMS.
//!
//! The paper's query pre-processor "picks the cheapest/most accurate
//! method using cost & quality models", which presupposes the system can
//! *measure* its own costs.  This crate supplies the measurement
//! substrate used by every level of the stack:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotonic counts and levels,
//! * [`Histogram`] — log-scaled (power-of-two bucket) latency histogram
//!   with p50/p95/p99 readouts and associative merge,
//! * [`Registry`] — a labeled metric namespace with cheap `Arc` handles,
//!   consistent snapshots and snapshot deltas,
//! * [`SpanNode`] — per-query span trees backing the `PROFILE <query>` /
//!   `EXPLAIN <query>` surface at the conceptual level.
//!
//! All hot-path types are wait-free on record (a relaxed atomic add);
//! locks are only taken when resolving a handle by name or when
//! snapshotting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cobra_faults::Recover;

/// Number of log-scaled histogram buckets: bucket `i` holds values whose
/// bit length is `i` (bucket 0 holds exactly the value 0), so the full
/// `u64` range is covered with ~2x relative resolution.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Default cap on distinct label sets per metric name; see
/// [`Registry::with_label_cap`].
pub const DEFAULT_LABEL_CAP: usize = 64;

/// Label set recorded when a metric name exceeds its label-cardinality
/// cap: the overflowing series are folded into this sentinel.
pub const OVERFLOW_LABELS: [(&str, &str); 1] = [("overflow", "true")];

// ---------------------------------------------------------------------------
// Counter & gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free signed level (e.g. in-flight queries, configured threads).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket index for a recorded value: its bit length, clamped to the
/// last bucket. 0 -> 0, 1 -> 1, 2..=3 -> 2, 4..=7 -> 3, ...
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound reported for bucket `i`; percentiles quote this
/// bound, which keeps them monotone in the requested quantile.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-scaled latency histogram: 64 power-of-two buckets, wait-free
/// record, exact total sum. Values are typically nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Approximate percentile (see [`HistogramSnapshot::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }
}

/// An immutable copy of a [`Histogram`]'s buckets, supporting percentile
/// readout, associative merge and delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Approximate percentile `p` in `[0, 1]`: the inclusive upper bound
    /// of the bucket containing the `ceil(p * count)`-th observation.
    /// Returns 0 on an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile shorthand.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Bucket-wise merge. Associative and commutative, so partial
    /// histograms from worker threads can be combined in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
        }
    }

    /// Bucket-wise difference `self - earlier` (saturating), for
    /// interval readouts between two snapshots.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// JSON readout: count, sum and the quartile summary.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "count": (self.count() as f64),
            "sum": (self.sum as f64),
            "mean": (self.mean()),
            "p50": (self.p50() as f64),
            "p95": (self.p95() as f64),
            "p99": (self.p99() as f64),
        })
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A metric identity: name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name, e.g. `"mil.op_ns"`.
    pub name: String,
    /// Sorted `(key, value)` labels, e.g. `[("op", "join")]`.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels for a canonical identity.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Canonical rendering: `name` or `name{k=v,k2=v2}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push('}');
        out
    }
}

/// A labeled metric namespace. Handles are `Arc`s resolved once and then
/// recorded to lock-free; `snapshot` gives a consistent point-in-time
/// copy of every series.
///
/// Per metric name at most `label_cap` distinct label sets are created;
/// further label sets fold into the [`OVERFLOW_LABELS`] sentinel series
/// so an unbounded label domain (e.g. video names) cannot leak memory.
#[derive(Debug)]
pub struct Registry {
    label_cap: usize,
    counters: RwLock<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_label_cap(DEFAULT_LABEL_CAP)
    }
}

fn resolve<T: Default>(
    map: &RwLock<BTreeMap<MetricKey, Arc<T>>>,
    label_cap: usize,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let key = MetricKey::new(name, labels);
    if let Some(found) = map.read().recover().get(&key) {
        return Arc::clone(found);
    }
    let mut map = map.write().recover();
    if let Some(found) = map.get(&key) {
        return Arc::clone(found);
    }
    let cardinality = map.keys().filter(|k| k.name == name).count();
    let key = if cardinality >= label_cap {
        MetricKey::new(name, &OVERFLOW_LABELS)
    } else {
        key
    };
    Arc::clone(map.entry(key).or_default())
}

impl Registry {
    /// Creates a registry with the default label-cardinality cap.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates a registry capping each metric name at `label_cap`
    /// distinct label sets (minimum 1; the sentinel series rides on top).
    pub fn with_label_cap(label_cap: usize) -> Self {
        Registry {
            label_cap: label_cap.max(1),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Resolves (creating on first use) a counter handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        resolve(&self.counters, self.label_cap, name, labels)
    }

    /// Resolves (creating on first use) a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        resolve(&self.gauges, self.label_cap, name, labels)
    }

    /// Resolves (creating on first use) a histogram handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        resolve(&self.histograms, self.label_cap, name, labels)
    }

    /// Point-in-time copy of the histogram series called `name` only,
    /// in label order: what attributing one metric over an interval
    /// needs, at the cost of those series instead of the whole registry.
    pub fn histograms_named(&self, name: &str) -> Vec<(MetricKey, HistogramSnapshot)> {
        self.histograms
            .read()
            .recover()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Point-in-time copy of every series.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .recover()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .recover()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .recover()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A consistent point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by key.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauge levels by key.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Histogram copies by key.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value for an exact key, 0 if the series does not exist.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge level for an exact key, 0 if the series does not exist.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        self.gauges
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram copy for an exact key, if the series exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    /// All series of a given metric name, in label order.
    pub fn histograms_named(&self, name: &str) -> Vec<(&MetricKey, &HistogramSnapshot)> {
        self.histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .collect()
    }

    /// Interval readout `self - earlier`: counters and histograms are
    /// subtracted (saturating), gauges keep their current level. Series
    /// absent from `earlier` are reported whole.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(prev) => (k.clone(), h.delta(prev)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// JSON readout keyed by the canonical series rendering. Key order
    /// is deterministic (sorted), so the output is stable across runs.
    pub fn to_json(&self) -> serde_json::Value {
        let mut counters = BTreeMap::new();
        for (k, v) in &self.counters {
            counters.insert(k.render(), serde_json::Value::Number(*v as f64));
        }
        let mut gauges = BTreeMap::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.render(), serde_json::Value::Number(*v as f64));
        }
        let mut histograms = BTreeMap::new();
        for (k, h) in &self.histograms {
            histograms.insert(k.render(), h.to_json());
        }
        serde_json::json!({
            "counters": (serde_json::Value::Object(counters)),
            "gauges": (serde_json::Value::Object(gauges)),
            "histograms": (serde_json::Value::Object(histograms)),
        })
    }
}

// ---------------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------------

/// One node of a query span tree: a named stage with its wall time,
/// metadata and nested children. Backs `PROFILE <query>` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name, e.g. `"mil.eval"`.
    pub name: String,
    /// Wall time spent in this stage (including children), nanoseconds.
    pub elapsed_ns: u64,
    /// Free-form `(key, value)` annotations (program text, row counts).
    pub meta: Vec<(String, String)>,
    /// Nested stages.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Creates a zero-duration node.
    pub fn new(name: &str) -> Self {
        SpanNode {
            name: name.to_string(),
            elapsed_ns: 0,
            meta: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates a leaf with a recorded duration.
    pub fn leaf(name: &str, elapsed_ns: u64) -> Self {
        SpanNode {
            elapsed_ns,
            ..SpanNode::new(name)
        }
    }

    /// Adds a metadata annotation; returns `self` for chaining.
    pub fn with_meta(mut self, key: &str, value: impl Into<String>) -> Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// Appends a child node; returns `self` for chaining.
    pub fn with_child(mut self, child: SpanNode) -> Self {
        self.children.push(child);
        self
    }

    /// A copy with every duration zeroed — the *shape* of the tree,
    /// used by `EXPLAIN` and by golden-file tests.
    pub fn zeroed(&self) -> SpanNode {
        SpanNode {
            name: self.name.clone(),
            elapsed_ns: 0,
            meta: self.meta.clone(),
            children: self.children.iter().map(SpanNode::zeroed).collect(),
        }
    }

    /// Indented tree of stage names only (no timings, no metadata) —
    /// the contract-tested profile shape.
    pub fn shape(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&node.name);
            out.push('\n');
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }

    /// Human-readable rendering with timings and metadata.
    pub fn render(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let ms = node.elapsed_ns as f64 / 1e6;
            let _ = write!(out, "{} {ms:.3}ms", node.name);
            for (k, v) in &node.meta {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }

    /// JSON rendering of the full tree.
    pub fn to_json(&self) -> serde_json::Value {
        let meta: BTreeMap<String, serde_json::Value> = self
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
            .collect();
        serde_json::json!({
            "name": (self.name.clone()),
            "elapsed_ns": (self.elapsed_ns as f64),
            "meta": (serde_json::Value::Object(meta)),
            "children": (serde_json::Value::Array(
                self.children.iter().map(SpanNode::to_json).collect()
            )),
        })
    }

    /// Decodes a tree produced by [`to_json`](Self::to_json). Meta keys
    /// come back sorted (JSON objects are ordered maps here); timings
    /// and structure round-trip exactly. Returns `None` on shape
    /// mismatch — wire data is untrusted.
    pub fn from_json(v: &serde_json::Value) -> Option<SpanNode> {
        let name = v.get("name")?.as_str()?.to_string();
        let elapsed_ns = v.get("elapsed_ns")?.as_u64()?;
        let meta = v
            .get("meta")?
            .as_object()?
            .iter()
            .map(|(k, val)| Some((k.clone(), val.as_str()?.to_string())))
            .collect::<Option<Vec<_>>>()?;
        let children = v
            .get("children")?
            .as_array()?
            .iter()
            .map(SpanNode::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(SpanNode {
            name,
            elapsed_ns,
            meta,
            children,
        })
    }

    /// Depth-first search for the first node with the given name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1106);
        assert!(s.p50() >= 2);
        assert!(s.p99() >= 1000);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    #[test]
    fn histogram_merge_and_delta() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(500);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), 505);
        let before = a.snapshot();
        a.record(9);
        let delta = a.snapshot().delta(&before);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.sum(), 9);
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("x", &[("k", "v")]);
        let b = reg.counter("x", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x", &[("k", "v")]), 2);
    }

    #[test]
    fn registry_label_cap_folds_overflow() {
        let reg = Registry::with_label_cap(2);
        for i in 0..10 {
            reg.counter("c", &[("i", &i.to_string())]).inc();
        }
        let snap = reg.snapshot();
        let series: Vec<_> = snap.counters.keys().filter(|k| k.name == "c").collect();
        // 2 real series plus the sentinel.
        assert_eq!(series.len(), 3);
        assert_eq!(snap.counter("c", &OVERFLOW_LABELS), 8);
    }

    #[test]
    fn snapshot_delta_and_json() {
        let reg = Registry::new();
        reg.counter("n", &[]).add(3);
        reg.histogram("h", &[("op", "join")]).record(7);
        let before = reg.snapshot();
        reg.counter("n", &[]).add(2);
        reg.histogram("h", &[("op", "join")]).record(9);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counter("n", &[]), 2);
        let h = delta.histogram("h", &[("op", "join")]).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 9);
        // The one-metric readout agrees with the whole snapshot.
        reg.histogram("other", &[]).record(1);
        let named = reg.histograms_named("h");
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].0, MetricKey::new("h", &[("op", "join")]));
        assert_eq!(named[0].1.sum(), 16);
        let json = reg.snapshot().to_json().to_string();
        assert!(json.contains("\"h{op=join}\""));
        assert!(json.contains("\"counters\""));
    }

    #[test]
    fn span_tree_shape_and_zeroing() {
        let node = SpanNode::leaf("query", 20)
            .with_meta("video", "german")
            .with_child(SpanNode::leaf("conceptual.parse", 10))
            .with_child(SpanNode::new("mil.eval").with_child(SpanNode::leaf("kernel.op.join", 5)));
        assert!(node.find("kernel.op.join").is_some());
        let zeroed = node.zeroed();
        assert_eq!(zeroed.elapsed_ns, 0);
        assert_eq!(zeroed.children[1].children[0].elapsed_ns, 0);
        assert_eq!(
            node.shape(),
            "query\n  conceptual.parse\n  mil.eval\n    kernel.op.join\n"
        );
        assert!(node.render().contains("kernel.op.join"));
        assert!(node.to_json().to_string().contains("conceptual.parse"));
    }
}
