//! A registry of named counters, gauges, and histograms with a
//! Prometheus text-format snapshot exporter.
//!
//! Handles are cheap to clone and safe to use from worker threads:
//! counters are atomics, gauges are atomics holding f64 bit patterns,
//! and histograms take a per-instrument mutex only on record. Like
//! [`crate::Tracer`], a default-constructed registry is *disabled* and
//! every operation on it is a no-op behind one branch, so instrumented
//! code never needs `if metrics.is_enabled()` checks.
//!
//! Names follow Prometheus conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`,
//! counters suffixed `_total`); registration order does not matter
//! because snapshots render in sorted name order, which is what makes
//! metrics output deterministic under parallel runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A live counter that belongs to no registry: it counts and reads
    /// back, but no snapshot renders it.
    pub fn standalone() -> Counter {
        Counter {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled registry's counters).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a last-write-wins f64.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled registry's gauges).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A histogram handle; records go to a shared exact-quantile
/// [`Histogram`] rendered as a Prometheus summary.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    cell: Option<Arc<Mutex<Histogram>>>,
}

impl HistogramHandle {
    /// Records one sample, in seconds.
    pub fn record(&self, secs: f64) {
        if let Some(cell) = &self.cell {
            cell.lock().unwrap_or_else(|e| e.into_inner()).record(secs);
        }
    }

    /// Merges an already-filled histogram (e.g. a per-worker local one)
    /// into this instrument.
    pub fn merge_from(&self, other: &Histogram) {
        if let Some(cell) = &self.cell {
            cell.lock().unwrap_or_else(|e| e.into_inner()).merge(other);
        }
    }

    /// A copy of the current samples.
    pub fn snapshot(&self) -> Histogram {
        self.cell.as_ref().map_or_else(Histogram::new, |c| {
            c.lock().unwrap_or_else(|e| e.into_inner()).clone()
        })
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

/// A shared metrics registry; cloning is cheap and all clones feed the
/// same instruments. `MetricsRegistry::default()` is *disabled*.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsRegistry(disabled)"),
            Some(inner) => {
                let counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
                let gauges = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
                let hists = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
                write!(
                    f,
                    "MetricsRegistry(counters: {}, gauges: {}, histograms: {})",
                    counters.len(),
                    gauges.len(),
                    hists.len()
                )
            }
        }
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// A disabled registry: handles it vends are inert.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// An enabled registry.
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// `true` when this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
        // get-then-insert rather than entry(): the hit path (every
        // lookup after the first) must not allocate the name.
        let cell = match counters.get(name) {
            Some(cell) => cell.clone(),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                counters.insert(name.to_string(), cell.clone());
                cell
            }
        };
        Counter { cell: Some(cell) }
    }

    /// The counter named `name` when the registry is enabled, otherwise
    /// a [`Counter::standalone`] one — for counts the caller reads back
    /// whether or not metrics are on. Resolve it once and keep the
    /// handle: the lookup locks the registry.
    pub fn live_counter(&self, name: &str) -> Counter {
        if self.is_enabled() {
            self.counter(name)
        } else {
            Counter::standalone()
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut gauges = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
        let cell = match gauges.get(name) {
            Some(cell) => cell.clone(),
            None => {
                let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
                gauges.insert(name.to_string(), cell.clone());
                cell
            }
        };
        Gauge { cell: Some(cell) }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let Some(inner) = &self.inner else {
            return HistogramHandle::default();
        };
        let mut hists = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
        let cell = match hists.get(name) {
            Some(cell) => cell.clone(),
            None => {
                let cell = Arc::new(Mutex::new(Histogram::new()));
                hists.insert(name.to_string(), cell.clone());
                cell
            }
        };
        HistogramHandle { cell: Some(cell) }
    }

    /// All counters as `name -> value`, sorted by name. This is the
    /// deterministic core of a snapshot: counter values under a
    /// parallel run depend only on the work done, not on scheduling.
    pub fn snapshot_counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(inner) => {
                let counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
                counters
                    .iter()
                    .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                    .collect()
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// counters and gauges as-is, histograms as summaries with
    /// `quantile` labels plus `_sum`/`_count` series. Output is fully
    /// ordered (by instrument kind, then name), so two snapshots of
    /// equal registries are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else {
            return out;
        };
        {
            let counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            for (name, cell) in counters.iter() {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
            }
        }
        {
            let gauges = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
            for (name, cell) in gauges.iter() {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(
                    out,
                    "{name} {}",
                    fmt_f64(f64::from_bits(cell.load(Ordering::Relaxed)))
                );
            }
        }
        {
            let hists = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
            for (name, cell) in hists.iter() {
                let mut h = cell.lock().unwrap_or_else(|e| e.into_inner()).clone();
                let _ = writeln!(out, "# TYPE {name} summary");
                for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (1.0, "1")] {
                    if let Some(v) = h.quantile(q) {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", fmt_f64(v));
                    }
                }
                let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
                let _ = writeln!(out, "{name}_count {}", h.len());
            }
        }
        out
    }

    /// Writes [`MetricsRegistry::render_prometheus`] to `path`.
    pub fn export_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render_prometheus())
    }
}

/// Formats an f64 the way Prometheus expects: finite numbers in plain
/// or scientific notation, non-finite as `NaN`/`+Inf`/`-Inf`.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Schema-validates a Prometheus text snapshot: every sample line must
/// be `name[{labels}] value` with a legal metric name and a parsable
/// value, and every sample's family must have been declared by a
/// preceding `# TYPE` comment. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !valid_name(name) {
                return Err(format!("line {}: bad family name {name:?}", lineno + 1));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram") {
                return Err(format!("line {}: bad family type {kind:?}", lineno + 1));
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value", lineno + 1))?;
        let name = series.split('{').next().unwrap_or_default().trim();
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let family_ok = declared.iter().any(|family| {
            name == family
                || name
                    .strip_prefix(family.as_str())
                    .is_some_and(|suffix| matches!(suffix, "_sum" | "_count" | "_bucket"))
        });
        if !family_ok {
            return Err(format!(
                "line {}: sample {name:?} has no preceding # TYPE declaration",
                lineno + 1
            ));
        }
        if value != "NaN" && value != "+Inf" && value != "-Inf" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value {value:?}", lineno + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let m = MetricsRegistry::disabled();
        let c = m.counter("x_total");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = m.gauge("g");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = m.histogram("h_secs");
        h.record(1.0);
        assert!(h.snapshot().is_empty());
        assert_eq!(m.render_prometheus(), "");
    }

    #[test]
    fn live_counters_count_with_or_without_a_registry() {
        let off = MetricsRegistry::disabled().live_counter("x_total");
        off.add(2);
        assert_eq!(off.get(), 2);
        let m = MetricsRegistry::enabled();
        let on = m.live_counter("x_total");
        on.inc();
        assert_eq!(
            m.counter("x_total").get(),
            1,
            "the registry renders the same cell"
        );
    }

    #[test]
    fn handles_share_state_across_clones() {
        let m = MetricsRegistry::enabled();
        let a = m.counter("jobs_total");
        let b = m.clone().counter("jobs_total");
        a.add(2);
        b.inc();
        assert_eq!(m.counter("jobs_total").get(), 3);
        m.gauge("threads").set(4.0);
        assert_eq!(m.gauge("threads").get(), 4.0);
        m.histogram("lat_secs").record(0.5);
        assert_eq!(m.histogram("lat_secs").snapshot().len(), 1);
    }

    #[test]
    fn prometheus_render_is_sorted_and_valid() {
        let m = MetricsRegistry::enabled();
        m.counter("z_total").inc();
        m.counter("a_total").add(5);
        m.gauge("threads").set(2.5);
        let h = m.histogram("lat_secs");
        for i in 1..=4 {
            h.record(i as f64);
        }
        let text = m.render_prometheus();
        let a = text.find("a_total 5").unwrap();
        let z = text.find("z_total 1").unwrap();
        assert!(a < z, "families sorted by name:\n{text}");
        assert!(text.contains("lat_secs{quantile=\"0.5\"} 2"));
        assert!(text.contains("lat_secs_sum 10"));
        assert!(text.contains("lat_secs_count 4"));
        let samples = validate_prometheus(&text).unwrap();
        assert_eq!(samples, 8);
        assert_eq!(text, m.render_prometheus(), "snapshot is deterministic");
    }

    #[test]
    fn empty_histogram_renders_zero_count() {
        let m = MetricsRegistry::enabled();
        m.histogram("idle_secs");
        let text = m.render_prometheus();
        assert!(text.contains("idle_secs_count 0"));
        assert!(!text.contains("quantile"));
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_snapshots() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("orphan 1\n")
            .unwrap_err()
            .contains("# TYPE"));
        assert!(validate_prometheus("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE 9bad counter\n").is_err());
        validate_prometheus("# TYPE x counter\nx 1\n").unwrap();
    }

    #[test]
    fn counter_snapshot_is_name_keyed() {
        let m = MetricsRegistry::enabled();
        m.counter("b_total").add(2);
        m.counter("a_total").inc();
        let snap = m.snapshot_counters();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a_total", "b_total"]);
        assert_eq!(snap["b_total"], 2);
    }
}
