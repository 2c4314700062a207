//! A shared observability registry with Prometheus-style exposition.
//!
//! Every subsystem that wants to surface operational numbers — the
//! [`crate::KernelCache`]'s build/hit counters, a fleet's throughput, a
//! network gateway's admission counters, a pipeline stage's
//! latency distribution — registers [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s in one [`Telemetry`] registry and updates them through
//! lock-free atomic handles. [`Telemetry::render`] serialises the whole
//! registry in the Prometheus text exposition format, so the server, the
//! benches and the examples all report through one path instead of
//! ad-hoc `println!` plumbing.
//!
//! Histograms use a **fixed log-spaced bucket layout** (1 µs first
//! bound, ×2 growth, 32 finite buckets — covering 1 µs to ≈ 4295 s):
//! the layout is decided at compile time, every cell is an atomic, and
//! recording a sample is a bucket scan plus two atomic updates — no
//! locks, no allocation, safe to call from the per-window hot paths the
//! `hot-path-alloc` analyzer rule guards.

use crate::sync::lock_unpoisoned;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a metric family measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically reported event count.
    Counter,
    /// A point-in-time value that can move both ways.
    Gauge,
    /// A distribution of observed values in log-spaced buckets.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' storage: a scalar atomic for counters/gauges, the bucket
/// array for histograms.
#[derive(Clone, Debug)]
enum Cell {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// One metric family: a help string, a kind, and one cell per label set.
#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Rendered label block (e.g. `{stream="3"}`, empty for no labels)
    /// → the value cell.
    series: BTreeMap<String, Cell>,
}

#[derive(Debug, Default)]
struct Registry {
    families: BTreeMap<String, Family>,
}

/// A shared metric registry; see the module docs.
///
/// Cloning yields another handle to the **same** registry, so one
/// `Telemetry` can be threaded through a gateway, its fleet scheduler and
/// a metrics endpoint at once.
///
/// # Examples
///
/// ```
/// use hrv_core::Telemetry;
///
/// let telemetry = Telemetry::new();
/// let windows = telemetry.counter("hrv_windows_total", "windows emitted");
/// windows.add(3);
/// let latency = telemetry.histogram("hrv_stage_seconds", "stage latency");
/// latency.observe(0.004);
/// let text = telemetry.render();
/// assert!(text.contains("# TYPE hrv_windows_total counter"));
/// assert!(text.contains("# TYPE hrv_stage_seconds histogram"));
/// assert!(text.contains("hrv_stage_seconds_count 1"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
}

/// A monotonically increasing event counter (u64).
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the count — for republishing a counter maintained
    /// elsewhere (e.g. [`crate::KernelCache::builds`]).
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement (f64, stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Upper bound of the first histogram bucket (seconds): 1 µs.
const HIST_FIRST_BOUND: f64 = 1e-6;
/// Per-bucket bound growth factor.
const HIST_GROWTH: f64 = 2.0;
/// Finite buckets per histogram; one more (+Inf) catches the overflow.
/// 1 µs × 2³¹ ≈ 2147 s upper finite bound — wider than any latency this
/// pipeline can legitimately produce.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The upper bound (`le`) of finite bucket `i`.
fn bucket_bound(i: usize) -> f64 {
    // 32 multiplications at most; exact powers of two keep the bounds
    // bit-stable across platforms.
    let mut bound = HIST_FIRST_BOUND;
    for _ in 0..i {
        bound *= HIST_GROWTH;
    }
    bound
}

/// The atomic storage of one histogram series: per-bucket counts
/// (non-cumulative; rendered cumulatively) plus the running sum.
#[derive(Debug)]
struct HistogramCore {
    /// `counts[HISTOGRAM_BUCKETS]` is the +Inf bucket.
    counts: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    /// Σ observed values, as f64 bits (CAS-accumulated).
    sum_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn observe(&self, value: f64) {
        if value.is_nan() {
            // A NaN observation would poison the sum forever and fits no
            // bucket; drop it rather than corrupt the series.
            return;
        }
        let mut index = HISTOGRAM_BUCKETS;
        let mut bound = HIST_FIRST_BOUND;
        for i in 0..HISTOGRAM_BUCKETS {
            if value <= bound {
                index = i;
                break;
            }
            bound *= HIST_GROWTH;
        }
        self.counts[index].fetch_add(1, Ordering::Relaxed);
        // Lock-free f64 accumulation: CAS on the bit pattern.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// A point-in-time copy of the bucket counts (last slot = +Inf).
    fn snapshot(&self) -> [u64; HISTOGRAM_BUCKETS + 1] {
        let mut counts = [0u64; HISTOGRAM_BUCKETS + 1];
        for (slot, cell) in counts.iter_mut().zip(&self.counts) {
            *slot = cell.load(Ordering::Relaxed);
        }
        counts
    }

    fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) by log-linear
    /// interpolation inside the covering bucket. Returns 0 for an empty
    /// histogram; samples in the +Inf bucket report the last finite
    /// bound (a lower bound on the truth).
    fn quantile(&self, q: f64) -> f64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let target = ((clamped * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative < target {
                continue;
            }
            if i >= HISTOGRAM_BUCKETS {
                return bucket_bound(HISTOGRAM_BUCKETS - 1);
            }
            let upper = bucket_bound(i);
            let lower = if i == 0 { 0.0 } else { bucket_bound(i - 1) };
            let below = cumulative - count;
            let fraction = if count == 0 {
                1.0
            } else {
                (target - below) as f64 / count as f64
            };
            return lower + (upper - lower) * fraction;
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// A latency/size distribution in fixed log-spaced buckets.
///
/// Recording ([`Histogram::observe`]) is lock-free and allocation-free:
/// a bucket scan plus two relaxed atomic updates. Quantiles are
/// estimated from the bucket layout
/// ([`Histogram::quantile`] and the p50/p95/p99 shorthands).
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation (seconds, by convention of the `_seconds`
    /// metric names). NaN observations are dropped.
    pub fn observe(&self, value: f64) {
        self.core.observe(value);
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, elapsed: std::time::Duration) {
        self.core.observe(elapsed.as_secs_f64());
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.core.count()
    }

    /// Sum of every observed value.
    pub fn sum(&self) -> f64 {
        self.core.sum()
    }

    /// Estimated `q`-quantile; see the module docs for the estimator.
    pub fn quantile(&self, q: f64) -> f64 {
        self.core.quantile(q)
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// `true` for names matching the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Renders a label set as `{k1="v1",k2="v2"}` (empty string for none),
/// escaping `\`, `"` and newlines in values as the exposition format
/// requires.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(valid_name(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// Splices an `le="…"` label into a rendered label block.
fn with_le(labels: &str, le: &str) -> String {
    match labels.strip_suffix('}') {
        Some(rest) => format!("{rest},le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    }
}

/// Formats an f64 sample value the way the Prometheus text format
/// requires: `+Inf`/`-Inf`/`NaN` for the non-finite values (Rust's
/// `Display` would print `inf`/`NaN`, which Prometheus parsers reject
/// for the infinities).
fn format_sample(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".into()
    } else if value == f64::NEG_INFINITY {
        "-Inf".into()
    } else if value.is_nan() {
        "NaN".into()
    } else {
        format!("{value}")
    }
}

/// Validates a Prometheus text exposition: every sample line must parse
/// (`name[{labels}] value`), every family needs `# HELP` + `# TYPE`
/// headers, and every `histogram` family must expose `_bucket` series
/// with **cumulative, monotone** counts ending in a `+Inf` bucket that
/// equals its `_count`, plus a parseable `_sum`.
///
/// Shared by the exposition-conformance tests, the service loopback
/// smoke and the load generator, so wire-level and in-process renderings
/// are held to the same grammar.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    // name → ordered (le, cumulative count) pairs seen, per label prefix.
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !valid_name(name) {
                return Err(format!("TYPE line with invalid metric name: {line}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown TYPE {kind} for {name}"));
            }
            typed.insert(name.to_string(), kind.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            if !valid_name(name) {
                return Err(format!("HELP line with invalid metric name: {line}"));
            }
            helped.insert(name.to_string(), true);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without value: {line}"))?;
        let parsed = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            _ => value
                .parse::<f64>()
                .map_err(|_| format!("unparseable sample value in: {line}"))?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("unterminated label block in: {line}"));
                }
                (name, &labels[..labels.len() - 1])
            }
            None => (series, ""),
        };
        if !valid_name(name) {
            return Err(format!("invalid metric name in sample: {line}"));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !typed.contains_key(family) {
            return Err(format!("sample without a TYPE header: {line}"));
        }
        if typed.get(family).map(String::as_str) == Some("histogram") {
            // Key bucket groups by family + labels-without-le so labeled
            // histogram series validate independently.
            let others: Vec<&str> = labels
                .split(',')
                .filter(|l| !l.is_empty() && !l.starts_with("le="))
                .collect();
            let key = format!("{family}{{{}}}", others.join(","));
            if name.ends_with("_bucket") {
                let le = labels
                    .split(',')
                    .find_map(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("_bucket without le label: {line}"))?;
                let le = match le {
                    "+Inf" => f64::INFINITY,
                    _ => le
                        .parse::<f64>()
                        .map_err(|_| format!("unparseable le in: {line}"))?,
                };
                buckets.entry(key).or_default().push((le, parsed as u64));
            } else if name.ends_with("_count") {
                counts.insert(key, parsed as u64);
            } else if name.ends_with("_sum") {
                sums.insert(key, parsed);
            } else {
                return Err(format!("bare sample of a histogram family: {line}"));
            }
        }
    }
    for (name, _) in typed.iter() {
        if !helped.contains_key(name) {
            return Err(format!("family {name} has TYPE but no HELP"));
        }
    }
    for (key, series) in &buckets {
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = 0u64;
        for &(le, count) in series {
            if le <= last_le {
                return Err(format!("{key}: le values not increasing"));
            }
            if count < last_count {
                return Err(format!("{key}: bucket counts not cumulative/monotone"));
            }
            last_le = le;
            last_count = count;
        }
        let Some(&(last, inf_count)) = series.last() else {
            continue;
        };
        if last != f64::INFINITY {
            return Err(format!("{key}: no +Inf bucket"));
        }
        match counts.get(key) {
            Some(&count) if count == inf_count => {}
            Some(&count) => {
                return Err(format!("{key}: _count {count} != +Inf bucket {inf_count}"))
            }
            None => return Err(format!("{key}: histogram without _count")),
        }
        if !sums.contains_key(key) {
            return Err(format!("{key}: histogram without _sum"));
        }
    }
    Ok(())
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-fetches) the cell of one series. Registration is
    /// idempotent: asking for the same name + labels again returns a
    /// handle to the same cell.
    fn series(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> Cell {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let block = label_block(labels);
        let mut registry = lock_unpoisoned(&self.inner);
        let family = registry
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        assert_eq!(
            family.kind, kind,
            "metric {name} already registered as {:?}",
            family.kind
        );
        family
            .series
            .entry(block)
            .or_insert_with(|| match kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    Cell::Scalar(Arc::new(AtomicU64::new(0)))
                }
                MetricKind::Histogram => Cell::Histogram(Arc::new(HistogramCore::default())),
            })
            .clone()
    }

    fn scalar_series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicU64> {
        match self.series(name, help, kind, labels) {
            Cell::Scalar(cell) => cell,
            // Unreachable: `series` creates the cell shape from `kind`.
            Cell::Histogram(_) => unreachable!("scalar metric {name} holds histogram storage"),
        }
    }

    /// Registers (or re-fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-fetches) a counter with labels.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or when `name` is already
    /// registered as another kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            cell: self.scalar_series(name, help, MetricKind::Counter, labels),
        }
    }

    /// Registers (or re-fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-fetches) a gauge with labels.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or when `name` is already
    /// registered as another kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        // A fresh cell holds raw 0u64, which is also the bit pattern of
        // 0.0 — a never-set gauge reads as zero.
        Gauge {
            cell: self.scalar_series(name, help, MetricKind::Gauge, labels),
        }
    }

    /// Registers (or re-fetches) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or re-fetches) a histogram with labels.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, or when `name` is already
    /// registered as another kind.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels) {
            Cell::Histogram(core) => Histogram { core },
            // Reaching the Scalar arm means `name` was registered as a
            // counter/gauge — the kind assertion in `series` fires first.
            Cell::Scalar(_) => unreachable!("histogram {name} holds scalar storage"),
        }
    }

    /// Every series of histogram family `name`, as (label block, handle)
    /// pairs in deterministic label order — how the load generator walks
    /// the per-kernel window-compute series without knowing the label
    /// values up front. Empty when the family is absent or not a
    /// histogram.
    pub fn histogram_series(&self, name: &str) -> Vec<(String, Histogram)> {
        let registry = lock_unpoisoned(&self.inner);
        let Some(family) = registry.families.get(name) else {
            return Vec::new();
        };
        family
            .series
            .iter()
            .filter_map(|(labels, cell)| match cell {
                Cell::Histogram(core) => Some((
                    labels.clone(),
                    Histogram {
                        core: Arc::clone(core),
                    },
                )),
                Cell::Scalar(_) => None,
            })
            .collect()
    }

    /// Drops one labelled series (e.g. a gauge whose label value was
    /// retired). Returns `true` when the series existed. Unlabelled
    /// series use an empty label slice.
    pub fn remove_series(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let block = label_block(labels);
        let mut registry = lock_unpoisoned(&self.inner);
        registry
            .families
            .get_mut(name)
            .is_some_and(|family| family.series.remove(&block).is_some())
    }

    /// Serialises every registered series in the Prometheus text
    /// exposition format (families and series in lexicographic order, so
    /// the output is deterministic). Histogram families render
    /// cumulative `_bucket{le=…}` series (ending in `+Inf`), `_sum` and
    /// `_count`; non-finite gauge values render as `+Inf`/`-Inf`/`NaN`
    /// as the format requires.
    pub fn render(&self) -> String {
        let registry = lock_unpoisoned(&self.inner);
        let mut out = String::new();
        for (name, family) in &registry.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition_name());
            for (labels, cell) in &family.series {
                match (family.kind, cell) {
                    (MetricKind::Counter, Cell::Scalar(cell)) => {
                        let _ = writeln!(out, "{name}{labels} {}", cell.load(Ordering::Relaxed));
                    }
                    (MetricKind::Gauge, Cell::Scalar(cell)) => {
                        let value = f64::from_bits(cell.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}{labels} {}", format_sample(value));
                    }
                    (_, Cell::Histogram(core)) => {
                        let counts = core.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &count) in counts.iter().take(HISTOGRAM_BUCKETS).enumerate() {
                            cumulative += count;
                            let le = format_sample(bucket_bound(i));
                            let block = with_le(labels, &le);
                            let _ = writeln!(out, "{name}_bucket{block} {cumulative}");
                        }
                        cumulative += counts[HISTOGRAM_BUCKETS];
                        let block = with_le(labels, "+Inf");
                        let _ = writeln!(out, "{name}_bucket{block} {cumulative}");
                        let _ = writeln!(out, "{name}_sum{labels} {}", format_sample(core.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {cumulative}");
                    }
                    // A family's cells are created from its kind; a
                    // mismatch cannot be constructed through the API.
                    (kind, _) => unreachable!("family {name} kind {kind:?} / cell shape mismatch"),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let t = Telemetry::new();
        let c = t.counter("events_total", "events seen");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = t.gauge("depth", "queue depth");
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let t = Telemetry::new();
        let a = t.counter("hits_total", "hits");
        let b = t.clone().counter("hits_total", "hits");
        a.add(2);
        assert_eq!(b.get(), 2, "clones and re-registrations share the cell");
    }

    #[test]
    fn render_is_prometheus_shaped_and_sorted() {
        let t = Telemetry::new();
        t.counter("b_total", "second").add(7);
        t.gauge_with("a_value", "first", &[("stream", "1")])
            .set(1.5);
        t.gauge_with("a_value", "first", &[("stream", "0")])
            .set(0.5);
        let text = t.render();
        let a = text.find("# TYPE a_value gauge").expect("a family");
        let b = text.find("# TYPE b_total counter").expect("b family");
        assert!(a < b, "families sorted by name");
        let s0 = text.find("a_value{stream=\"0\"} 0.5").expect("series 0");
        let s1 = text.find("a_value{stream=\"1\"} 1.5").expect("series 1");
        assert!(s0 < s1, "series sorted by label block");
        assert!(text.contains("b_total 7"));
        assert!(text.contains("# HELP b_total second"));
        validate_exposition(&text).expect("conformant");
    }

    #[test]
    fn non_finite_gauges_render_conformantly() {
        // Regression: Rust's Display prints `inf`/`-inf`, which the
        // Prometheus text format rejects — the exposition must say
        // `+Inf`/`-Inf`/`NaN`.
        let t = Telemetry::new();
        t.gauge_with("edge", "edges", &[("k", "pos")])
            .set(f64::INFINITY);
        t.gauge_with("edge", "edges", &[("k", "neg")])
            .set(f64::NEG_INFINITY);
        t.gauge_with("edge", "edges", &[("k", "nan")]).set(f64::NAN);
        let text = t.render();
        assert!(text.contains("edge{k=\"pos\"} +Inf"), "got:\n{text}");
        assert!(text.contains("edge{k=\"neg\"} -Inf"), "got:\n{text}");
        assert!(text.contains("edge{k=\"nan\"} NaN"), "got:\n{text}");
        assert!(!text.contains(" inf"), "Rust float formatting leaked");
        validate_exposition(&text).expect("conformant");
    }

    #[test]
    fn histogram_buckets_sum_count_and_exposition() {
        let t = Telemetry::new();
        let h = t.histogram("stage_seconds", "stage latency");
        h.observe(0.5e-6); // bucket 0 (le 1e-6)
        h.observe(3e-6); // le 4e-6
        h.observe(3e-6);
        h.observe(1e9); // +Inf
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (0.5e-6 + 6e-6 + 1e9)).abs() < 1e-3);
        let text = t.render();
        assert!(text.contains("# TYPE stage_seconds histogram"));
        assert!(text.contains("stage_seconds_bucket{le=\"0.000001\"} 1"));
        assert!(text.contains("stage_seconds_bucket{le=\"0.000004\"} 3"));
        assert!(text.contains("stage_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("stage_seconds_count 4"));
        validate_exposition(&text).expect("conformant");
    }

    #[test]
    fn labeled_histograms_merge_le_into_the_block() {
        let t = Telemetry::new();
        let h = t.histogram_with("compute_seconds", "compute", &[("kernel", "split-radix")]);
        h.observe(2e-6);
        let text = t.render();
        assert!(
            text.contains("compute_seconds_bucket{kernel=\"split-radix\",le=\"0.000002\"} 1"),
            "got:\n{text}"
        );
        assert!(text.contains("compute_seconds_count{kernel=\"split-radix\"} 1"));
        validate_exposition(&text).expect("conformant");
        let series = t.histogram_series("compute_seconds");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, "{kernel=\"split-radix\"}");
        assert_eq!(series[0].1.count(), 1);
        assert!(t.histogram_series("absent").is_empty());
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let t = Telemetry::new();
        let h = t.histogram("q_seconds", "quantile fodder");
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        // 100 samples in the (2e-6, 4e-6] bucket.
        for _ in 0..100 {
            h.observe(3e-6);
        }
        let p50 = h.p50();
        assert!(
            (2e-6..=4e-6).contains(&p50),
            "p50 {p50} inside the covering bucket"
        );
        assert!(h.p99() >= p50);
        assert!(h.p95() <= h.p99() + 1e-12);
        // One huge outlier lands in +Inf: p100 reports the last finite
        // bound as a lower bound.
        h.observe(1e12);
        assert_eq!(h.quantile(1.0), bucket_bound(HISTOGRAM_BUCKETS - 1));
        // NaN observations are dropped, not recorded.
        h.observe(f64::NAN);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn remove_series_drops_only_that_label_set() {
        let t = Telemetry::new();
        t.gauge_with("depth", "d", &[("stream", "1")]).set(1.0);
        t.gauge_with("depth", "d", &[("stream", "2")]).set(2.0);
        assert!(t.remove_series("depth", &[("stream", "1")]));
        assert!(!t.remove_series("depth", &[("stream", "1")]));
        let text = t.render();
        assert!(!text.contains("stream=\"1\""));
        assert!(text.contains("stream=\"2\""));
    }

    #[test]
    fn label_values_are_escaped() {
        let t = Telemetry::new();
        t.gauge_with("g", "g", &[("k", "a\"b\\c\nd")]).set(1.0);
        assert!(t.render().contains("g{k=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_rejected() {
        Telemetry::new().counter("0bad name", "nope");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_rejected() {
        let t = Telemetry::new();
        t.counter("x_total", "x");
        t.histogram("x_total", "x");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (text, why) in [
            ("metric_without_type 1\n", "sample without TYPE"),
            ("# TYPE m gauge\nm not_a_number\n", "unparseable value"),
            ("# TYPE m weird\nm 1\n", "unknown kind"),
            ("# TYPE m gauge\nm 1\n", "TYPE without HELP"),
            (
                "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "no +Inf bucket",
            ),
            (
                "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\n\
                 h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
                "non-monotone buckets",
            ),
            (
                "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\n\
                 h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
                "_count mismatch",
            ),
        ] {
            assert!(validate_exposition(text).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }
}
