//! EDSC — Early Distinctive Shapelet Classification (Xing et al. 2011).
//!
//! Shapelet-based (Section 3.3). Candidate subseries are harvested from
//! the training set; each gets a distance threshold from Chebyshev's
//! inequality over its distances to *other-class* series (the paper's
//! CHE method with `k = 3`), a utility score combining precision with an
//! earliness-weighted recall, and the top-ranked shapelets are greedily
//! selected until the training set is covered. An incoming prefix is
//! classified by the first selected shapelet that matches within its
//! threshold.
//!
//! The full method enumerates `O(N · L²)` candidates, each costing
//! `O(N · L · len)` to evaluate — the blow-up that stops the reference
//! implementation on "Wide" datasets within the paper's 48-hour budget.
//! The candidate count is bounded by [`EdscConfig::max_candidates`]
//! (deterministic strided subsampling) and training observes
//! [`EdscConfig::train_budget`], returning
//! [`EtscError::TrainingBudgetExceeded`] exactly like the paper's DNF
//! entries.

use std::time::{Duration, Instant};

use etsc_data::{Dataset, Label};

use crate::algos::{equalized, first_value, require_univariate};
use crate::error::EtscError;
use crate::traits::{EarlyClassifier, StreamState};

/// Hyper-parameters for [`Edsc`] (Table 4: CHE, `k = 3`, `minLen = 5`,
/// `maxLen = L/2`).
#[derive(Debug, Clone)]
pub struct EdscConfig {
    /// Chebyshev multiplier `k`.
    pub chebyshev_k: f64,
    /// Minimum shapelet length.
    pub min_len: usize,
    /// Maximum shapelet length as a fraction of the series length.
    pub max_len_frac: f64,
    /// Number of distinct candidate lengths sampled in
    /// `[min_len, max_len]`.
    pub n_lengths: usize,
    /// Upper bound on candidate subseries evaluated.
    pub max_candidates: usize,
    /// Optional training wall-clock budget (the framework's scaled
    /// 48-hour rule).
    pub train_budget: Option<Duration>,
}

impl Default for EdscConfig {
    fn default() -> Self {
        EdscConfig {
            chebyshev_k: 3.0,
            min_len: 5,
            max_len_frac: 0.5,
            n_lengths: 4,
            max_candidates: 1500,
            train_budget: None,
        }
    }
}

/// A learned shapelet.
#[derive(Debug, Clone)]
pub struct Shapelet {
    /// The subseries values.
    pub values: Vec<f64>,
    /// Distance threshold δ (length-normalised distance).
    pub threshold: f64,
    /// The class this shapelet indicates.
    pub class: Label,
    /// Utility score used for ranking.
    pub utility: f64,
}

/// Fitted EDSC model.
pub struct Edsc {
    config: EdscConfig,
    shapelets: Vec<Shapelet>,
    majority: Label,
    fitted: bool,
}

/// Length-normalised minimum distance of a subseries against every
/// alignment inside `series` (up to `series.len()`); `None` when the
/// series is shorter than the subseries.
fn min_distance(sub: &[f64], series: &[f64]) -> Option<f64> {
    if series.len() < sub.len() {
        return None;
    }
    let mut best = f64::INFINITY;
    for start in 0..=(series.len() - sub.len()) {
        let mut d = 0.0;
        for (a, b) in sub.iter().zip(&series[start..start + sub.len()]) {
            d += (a - b) * (a - b);
            if d >= best {
                break;
            }
        }
        best = best.min(d);
    }
    Some((best / sub.len() as f64).sqrt())
}

/// Whether a shapelet matches the equally long `window` within its
/// threshold (length-normalised distance).
fn matches_at(sub: &[f64], threshold: f64, window: &[f64]) -> bool {
    let mut d = 0.0;
    for (a, b) in sub.iter().zip(window) {
        d += (a - b) * (a - b);
    }
    (d / sub.len() as f64).sqrt() <= threshold
}

/// Earliest matching end-position of a shapelet within a series, when it
/// matches at all.
fn earliest_match(sub: &[f64], threshold: f64, series: &[f64]) -> Option<usize> {
    if series.len() < sub.len() {
        return None;
    }
    (sub.len()..=series.len())
        .find(|&end| matches_at(sub, threshold, &series[end - sub.len()..end]))
}

impl Edsc {
    /// Untrained model.
    pub fn new(config: EdscConfig) -> Self {
        Edsc {
            config,
            shapelets: Vec::new(),
            majority: 0,
            fitted: false,
        }
    }

    /// Untrained model with the paper's parameters.
    pub fn with_defaults() -> Self {
        Self::new(EdscConfig::default())
    }

    /// The selected shapelets (empty before fit).
    pub fn shapelets(&self) -> &[Shapelet] {
        &self.shapelets
    }

    /// Serializes the fitted state (model store). The optional training
    /// budget is stored as fractional seconds.
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) {
        e.f64(self.config.chebyshev_k);
        e.usize(self.config.min_len);
        e.f64(self.config.max_len_frac);
        e.usize(self.config.n_lengths);
        e.usize(self.config.max_candidates);
        e.opt_f64(self.config.train_budget.map(|b| b.as_secs_f64()));
        e.usize(self.shapelets.len());
        for s in &self.shapelets {
            e.f64s(&s.values);
            e.f64(s.threshold);
            e.usize(s.class);
            e.f64(s.utility);
        }
        e.usize(self.majority);
        e.bool(self.fitted);
    }

    /// Reconstructs a model written by [`Edsc::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        let config = EdscConfig {
            chebyshev_k: d.f64()?,
            min_len: d.usize()?,
            max_len_frac: d.f64()?,
            n_lengths: d.usize()?,
            max_candidates: d.usize()?,
            train_budget: d.opt_f64()?.map(Duration::from_secs_f64),
        };
        let n = d.usize()?;
        let mut shapelets = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            shapelets.push(Shapelet {
                values: d.f64s()?,
                threshold: d.f64()?,
                class: d.usize()?,
                utility: d.f64()?,
            });
        }
        Ok(Edsc {
            config,
            shapelets,
            majority: d.usize()?,
            fitted: d.bool()?,
        })
    }
}

impl EarlyClassifier for Edsc {
    fn name(&self) -> String {
        "EDSC".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        require_univariate(data)?;
        let (data, len) = equalized(data)?;
        let start_time = Instant::now();
        let series: Vec<&[f64]> = data.instances().iter().map(|s| s.var(0)).collect();
        let labels = data.labels();
        let n = series.len();

        // Candidate lengths spread across [min_len, max_len].
        let max_len = ((len as f64 * self.config.max_len_frac) as usize).max(self.config.min_len);
        let min_len = self.config.min_len.min(len).max(2);
        let max_len = max_len.min(len);
        let k_lens = self.config.n_lengths.max(1);
        let mut lengths: Vec<usize> = (0..k_lens)
            .map(|i| min_len + (max_len - min_len) * i / k_lens.saturating_sub(1).max(1))
            .collect();
        lengths.dedup();

        // Strided enumeration bounded by max_candidates.
        let per_length_budget = (self.config.max_candidates / lengths.len()).max(1);
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new(); // (series, offset, len)
        for &sl in &lengths {
            let positions_per_series = (len - sl + 1).max(1);
            let total = n * positions_per_series;
            let stride = (total / per_length_budget).max(1);
            let mut c = 0usize;
            while c < total {
                let i = c / positions_per_series;
                let off = c % positions_per_series;
                candidates.push((i, off, sl));
                c += stride;
            }
        }

        // Evaluate candidates.
        let mut scored: Vec<Shapelet> = Vec::new();
        // matches[s] will be needed during greedy selection; store covered
        // sets alongside.
        let mut covered_sets: Vec<Vec<usize>> = Vec::new();
        for (ci, &(i, off, sl)) in candidates.iter().enumerate() {
            if ci % 64 == 0 {
                if let Some(budget) = self.config.train_budget {
                    if start_time.elapsed() > budget {
                        return Err(EtscError::TrainingBudgetExceeded { budget });
                    }
                }
            }
            let sub = &series[i][off..off + sl];
            let class = labels[i];
            // Chebyshev threshold from non-target distances.
            let mut nt = Vec::new();
            for (j, s) in series.iter().enumerate() {
                if labels[j] != class {
                    if let Some(d) = min_distance(sub, s) {
                        nt.push(d);
                    }
                }
            }
            if nt.is_empty() {
                continue;
            }
            let mean = nt.iter().sum::<f64>() / nt.len() as f64;
            let std =
                (nt.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / nt.len() as f64).sqrt();
            let threshold = mean - self.config.chebyshev_k * std;
            if threshold <= 0.0 {
                continue;
            }
            // Coverage, precision and earliness-weighted recall.
            let mut covered = Vec::new();
            let mut covered_target = 0usize;
            let mut weighted_recall_sum = 0.0;
            let mut covered_other = 0usize;
            for (j, s) in series.iter().enumerate() {
                if let Some(end) = earliest_match(sub, threshold, s) {
                    if labels[j] == class {
                        covered.push(j);
                        covered_target += 1;
                        weighted_recall_sum += 1.0 - (end as f64 - 1.0) / len as f64;
                    } else {
                        covered_other += 1;
                    }
                }
            }
            if covered_target == 0 {
                continue;
            }
            let n_target = labels.iter().filter(|&&l| l == class).count();
            let precision = covered_target as f64 / (covered_target + covered_other) as f64;
            let w_recall = weighted_recall_sum / n_target as f64;
            let utility = if precision + w_recall > 0.0 {
                2.0 * precision * w_recall / (precision + w_recall)
            } else {
                0.0
            };
            scored.push(Shapelet {
                values: sub.to_vec(),
                threshold,
                class,
                utility,
            });
            covered_sets.push(covered);
        }

        // Greedy selection by utility until the training set is covered.
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            scored[b]
                .utility
                .partial_cmp(&scored[a].utility)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut covered = vec![false; n];
        let mut selected = Vec::new();
        for idx in order {
            if covered_sets[idx].iter().any(|&j| !covered[j]) {
                for &j in &covered_sets[idx] {
                    covered[j] = true;
                }
                selected.push(scored[idx].clone());
            }
            if covered.iter().all(|&c| c) {
                break;
            }
        }

        // Majority-class fallback for never-matching instances.
        let counts = data.class_counts();
        self.majority = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(l, _)| l)
            .unwrap_or(0);
        self.shapelets = selected;
        self.fitted = true;
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if !self.fitted {
            return Err(EtscError::NotFitted);
        }
        Ok(Box::new(EdscStream {
            model: self,
            series: Vec::new(),
            checked: 0,
            hit: None,
        }))
    }
}

/// One incoming series. An undecided stream has already tested every
/// alignment ending at or before `checked` against every shapelet, so
/// each `decide` tests only the alignments that end after it.
struct EdscStream<'a> {
    model: &'a Edsc,
    series: Vec<f64>,
    /// Alignments ending at or before this many points are tested.
    checked: usize,
    /// Lowest-index shapelet that matched a tested alignment; only
    /// shapelets before it can still take over the verdict.
    hit: Option<usize>,
}

impl StreamState for EdscStream<'_> {
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        self.series.push(first_value(row)?);
        Ok(())
    }

    /// The first shapelet, in list order, that matches any alignment of
    /// the prefix: the whole-prefix scan's verdict. Testing alignments
    /// one by one agrees with comparing the shapelet's minimum distance,
    /// except for a `+∞` threshold against alignments that are all NaN;
    /// training with `k ≥ 0` never yields `+∞` (an infinite
    /// `mean − k·std` comes out NaN).
    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        let shapelets = &self.model.shapelets;
        let n = self.series.len();
        let limit = self.hit.unwrap_or(shapelets.len());
        'shapelets: for (k, s) in shapelets[..limit].iter().enumerate() {
            let m = s.values.len();
            for end in (self.checked + 1).max(m)..=n {
                if matches_at(&s.values, s.threshold, &self.series[end - m..end]) {
                    self.hit = Some(k);
                    break 'shapelets;
                }
            }
        }
        self.checked = n;
        match self.hit {
            Some(k) => Ok(Some(shapelets[k].class)),
            None if is_final => Ok(Some(self.model.majority)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    /// Class "spike" has a sharp early bump, class "flat" does not.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..8 {
            let o = (i as f64 * 0.9).sin() * 0.05;
            let mut spike = vec![0.0 + o; 20];
            for (k, v) in [1.0, 3.0, 5.0, 3.0, 1.0].iter().enumerate() {
                spike[4 + k] = *v + o;
            }
            let flat: Vec<f64> = (0..20).map(|t| 0.1 * (t as f64 * 0.4).sin() + o).collect();
            b.push_named(MultiSeries::univariate(Series::new(spike)), "spike");
            b.push_named(MultiSeries::univariate(Series::new(flat)), "flat");
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_discriminative_shapelets() {
        let d = toy();
        let mut edsc = Edsc::with_defaults();
        edsc.fit(&d).unwrap();
        assert!(!edsc.shapelets().is_empty());
        // Thresholds are positive, utilities in (0, 1].
        for s in edsc.shapelets() {
            assert!(s.threshold > 0.0);
            assert!(s.utility > 0.0 && s.utility <= 1.0);
        }
    }

    #[test]
    fn classifies_spike_class_early() {
        let d = toy();
        let mut edsc = Edsc::with_defaults();
        edsc.fit(&d).unwrap();
        let spike_label = d.class_names().iter().position(|c| c == "spike").unwrap();
        let mut correct = 0;
        let mut spikes_early = true;
        for (inst, label) in d.iter() {
            let p = edsc.predict_early(inst).unwrap();
            if p.label == label {
                correct += 1;
            }
            if label == spike_label && p.prefix_len == inst.len() {
                spikes_early = false;
            }
        }
        assert!(
            correct as f64 / d.len() as f64 >= 0.75,
            "{correct}/{}",
            d.len()
        );
        assert!(spikes_early, "spiky instances must match before the end");
    }

    #[test]
    fn budget_exceeded_on_wide_input() {
        // A zero budget reproduces the paper's DNF on Wide datasets.
        let d = toy();
        let mut edsc = Edsc::new(EdscConfig {
            train_budget: Some(Duration::from_nanos(0)),
            ..EdscConfig::default()
        });
        assert!(matches!(
            edsc.fit(&d),
            Err(EtscError::TrainingBudgetExceeded { .. })
        ));
    }

    #[test]
    fn candidate_budget_bounds_work() {
        let d = toy();
        let mut edsc = Edsc::new(EdscConfig {
            max_candidates: 50,
            ..EdscConfig::default()
        });
        edsc.fit(&d).unwrap();
        assert!(edsc.shapelets().len() <= 50);
    }

    #[test]
    fn fallback_is_majority_class() {
        let d = toy();
        let mut edsc = Edsc::with_defaults();
        edsc.fit(&d).unwrap();
        // An instance that matches nothing gets the majority class at the end.
        let odd = MultiSeries::univariate(Series::new(vec![-50.0; 20]));
        let p = edsc.predict_early(&odd).unwrap();
        assert_eq!(p.prefix_len, 20);
    }

    #[test]
    fn min_distance_and_earliest_match_helpers() {
        let sub = [1.0, 2.0];
        let series = [0.0, 1.0, 2.0, 5.0];
        assert!((min_distance(&sub, &series).unwrap() - 0.0).abs() < 1e-12);
        assert_eq!(earliest_match(&sub, 0.1, &series), Some(3));
        assert_eq!(min_distance(&[1.0, 2.0, 3.0, 4.0, 5.0], &series[..2]), None);
        assert_eq!(earliest_match(&sub, 0.1, &[9.0, 9.0, 9.0]), None);
    }

    #[test]
    fn unfitted_error() {
        let edsc = Edsc::with_defaults();
        assert!(matches!(
            edsc.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }
}
