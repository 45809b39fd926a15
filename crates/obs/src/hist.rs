//! Exact-quantile histograms.
//!
//! The framework measures per-decision latencies and per-phase training
//! costs at volumes where keeping every sample is cheap, so quantiles
//! are computed by nearest rank on the sorted samples — actual observed
//! values, not bucket interpolations. This type started life as
//! `etsc_eval::histogram::LatencyHistogram` (streaming decision
//! latencies) and was generalised here so the metrics registry, the
//! serving replay, and the evaluation runner all share one recorder.

/// An exact-quantile sample recorder.
///
/// Samples are stored in seconds. Quantiles use the nearest-rank method
/// on the sorted samples, so `p50`/`p99` are actual observed values, not
/// interpolations.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    over_deadline: usize,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample, in seconds.
    pub fn record(&mut self, secs: f64) {
        self.samples.push(secs);
        self.sorted = false;
    }

    /// Records one sample against a decision deadline: the sample is
    /// kept like [`Histogram::record`], and when it exceeds `deadline`
    /// the breach is counted so degraded-mode events stay visible in
    /// the reported latency figures. Returns `true` on a breach.
    pub fn record_with_deadline(&mut self, secs: f64, deadline: f64) -> bool {
        self.record(secs);
        let breached = secs > deadline;
        if breached {
            self.over_deadline += 1;
        }
        breached
    }

    /// Number of samples that exceeded their deadline at record time.
    pub fn over_deadline(&self) -> usize {
        self.over_deadline
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.over_deadline += other.over_deadline;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean of the samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() / self.samples.len() as f64)
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank; `None` when
    /// empty. `q` outside the unit interval is clamped.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Median; `None` when empty.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th percentile; `None` when empty.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn quantiles_are_observed_values() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.p50(), Some(50.0));
        assert_eq!(h.p99(), Some(99.0));
        assert_eq!(h.max(), Some(100.0));
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.sum(), 5050.0);
    }

    #[test]
    fn recording_after_a_query_resorts() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.p50(), Some(5.0));
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.p50(), Some(2.0));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), Some(3.0));
    }

    #[test]
    fn deadline_breaches_are_counted_and_merged() {
        let mut a = Histogram::new();
        assert!(!a.record_with_deadline(0.5, 1.0));
        assert!(a.record_with_deadline(2.0, 1.0));
        assert_eq!(a.over_deadline(), 1);
        assert_eq!(a.len(), 2, "breaching samples are still recorded");
        let mut b = Histogram::new();
        assert!(b.record_with_deadline(3.0, 1.0));
        a.merge(&b);
        assert_eq!(a.over_deadline(), 2);
        assert_eq!(a.len(), 3);
    }
}
