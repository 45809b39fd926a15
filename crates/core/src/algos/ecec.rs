//! ECEC — Effective Confidence-based Early Classification (Lv et al.
//! 2019), Section 3.5.
//!
//! Training truncates the series into `N` overlapping prefixes and fits
//! one WEASEL+logistic pipeline per prefix. A cross-validation pass
//! estimates the per-prefix *reliability* `r_i(ŷ)` — the probability that
//! a prediction `ŷ` made at prefix `i` is correct. At test time the
//! confidence of the current prediction `ŷ` after prefix `i` is
//! `C = 1 − Π_{τ ≤ i, ŷ_τ = ŷ} (1 − r_τ(ŷ))`, and the prediction is
//! accepted once `C ≥ θ`. The threshold θ is selected on the training
//! data from candidate midpoints of the sorted confidence values by
//! minimising `CF(θ) = α·(1 − accuracy) + (1 − α)·earliness` (Table 4:
//! `N = 20`, `α = 0.8`).

// Indexed loops keep the gradient/index math readable here.
#![allow(clippy::needless_range_loop)]
use etsc_data::{Dataset, Label, PrefixBuffer, StratifiedKFold};
use etsc_ml::logistic::LogisticConfig;
use etsc_transforms::weasel::WeaselConfig;

use crate::algos::{equalized, require_univariate};
use crate::error::EtscError;
use crate::full::{WeaselClassifier, WeaselClassifierConfig};
use crate::traits::{EarlyClassifier, FullClassifierTrait, StreamState};

/// Hyper-parameters for [`Ecec`].
#[derive(Debug, Clone)]
pub struct EcecConfig {
    /// Number of prefixes N.
    pub n_prefixes: usize,
    /// Accuracy/earliness trade-off α in the threshold cost.
    pub alpha: f64,
    /// Folds of the internal reliability cross-validation.
    pub cv_folds: usize,
    /// Cap on threshold candidates examined.
    pub max_thresholds: usize,
    /// Bag-of-patterns configuration.
    pub weasel: WeaselConfig,
    /// Logistic-head configuration.
    pub logistic: LogisticConfig,
    /// Seed for the internal cross-validation shuffling.
    pub seed: u64,
}

impl Default for EcecConfig {
    fn default() -> Self {
        EcecConfig {
            n_prefixes: 20,
            alpha: 0.8,
            cv_folds: 5,
            max_thresholds: 64,
            weasel: WeaselConfig::default(),
            logistic: LogisticConfig::default(),
            seed: 43,
        }
    }
}

/// Fitted ECEC model.
pub struct Ecec {
    config: EcecConfig,
    /// Prefix lengths, ascending, last = full length.
    prefix_lengths: Vec<usize>,
    /// One pipeline per prefix.
    pipelines: Vec<WeaselClassifier>,
    /// `reliability[i][label]` = P(correct | predicted `label` at prefix i).
    reliability: Vec<Vec<f64>>,
    /// Selected confidence threshold θ.
    theta: f64,
    len: usize,
}

impl Ecec {
    /// Untrained model.
    pub fn new(config: EcecConfig) -> Self {
        Ecec {
            config,
            prefix_lengths: Vec::new(),
            pipelines: Vec::new(),
            reliability: Vec::new(),
            theta: 0.0,
            len: 0,
        }
    }

    /// Untrained model with the paper's parameters.
    pub fn with_defaults() -> Self {
        Self::new(EcecConfig::default())
    }

    /// The learned threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Prefix lengths in use.
    pub fn prefix_lengths(&self) -> &[usize] {
        &self.prefix_lengths
    }

    fn lengths_for(&self, len: usize) -> Vec<usize> {
        let n = self.config.n_prefixes.max(1);
        let mut out: Vec<usize> = (1..=n)
            .map(|i| ((len * i) as f64 / n as f64).ceil() as usize)
            .map(|l| l.clamp(1, len))
            .collect();
        out.dedup();
        out
    }

    fn pipeline_config(&self) -> WeaselClassifierConfig {
        WeaselClassifierConfig {
            weasel: self.config.weasel.clone(),
            logistic: self.config.logistic.clone(),
        }
    }

    /// Serializes the fitted state (model store).
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) {
        e.usize(self.config.n_prefixes);
        e.f64(self.config.alpha);
        e.usize(self.config.cv_folds);
        e.usize(self.config.max_thresholds);
        self.config.weasel.encode_state(e);
        e.f64(self.config.logistic.l2);
        e.f64(self.config.logistic.learning_rate);
        e.usize(self.config.logistic.max_epochs);
        e.usize(self.config.logistic.batch_size);
        e.f64(self.config.logistic.tolerance);
        e.u64(self.config.logistic.seed);
        e.u64(self.config.seed);
        e.usizes(&self.prefix_lengths);
        e.usize(self.pipelines.len());
        for p in &self.pipelines {
            p.encode_state(e);
        }
        e.f64_rows(&self.reliability);
        e.f64(self.theta);
        e.usize(self.len);
    }

    /// Reconstructs a model written by [`Ecec::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        let config = EcecConfig {
            n_prefixes: d.usize()?,
            alpha: d.f64()?,
            cv_folds: d.usize()?,
            max_thresholds: d.usize()?,
            weasel: WeaselConfig::decode_state(d)?,
            logistic: LogisticConfig {
                l2: d.f64()?,
                learning_rate: d.f64()?,
                max_epochs: d.usize()?,
                batch_size: d.usize()?,
                tolerance: d.f64()?,
                seed: d.u64()?,
            },
            seed: d.u64()?,
        };
        let prefix_lengths = d.usizes()?;
        let n = d.usize()?;
        let mut pipelines = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            pipelines.push(WeaselClassifier::decode_state(d)?);
        }
        Ok(Ecec {
            config,
            prefix_lengths,
            pipelines,
            reliability: d.f64_rows()?,
            theta: d.f64()?,
            len: d.usize()?,
        })
    }

    /// Confidence after observing consistent predictions of `label` whose
    /// reliabilities are given.
    fn confidence(history: &[(usize, Label)], reliability: &[Vec<f64>], label: Label) -> f64 {
        let mut not_correct = 1.0;
        for &(i, pred) in history {
            if pred == label {
                not_correct *= 1.0 - reliability[i][label];
            }
        }
        1.0 - not_correct
    }
}

impl EarlyClassifier for Ecec {
    fn name(&self) -> String {
        "ECEC".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        require_univariate(data)?;
        let (data, len) = equalized(data)?;
        if !(0.0..=1.0).contains(&self.config.alpha) {
            return Err(EtscError::Config(format!(
                "alpha must be in [0,1], got {}",
                self.config.alpha
            )));
        }
        let prefix_lengths = self.lengths_for(len);
        let n_classes = data.n_classes();
        let n = data.len();
        let n_prefix = prefix_lengths.len();

        // --- Cross-validated predictions per prefix ---
        // cv_pred[i][j] = prediction of instance j at prefix i (from the
        // fold where j was held out).
        let folds = StratifiedKFold::new(self.config.cv_folds.max(2), self.config.seed)
            .map_err(EtscError::from)?
            .split(&data)
            .map_err(EtscError::from)?;
        let mut cv_pred = vec![vec![0usize; n]; n_prefix];
        for fold in &folds {
            let train = data.subset(&fold.train);
            for (i, &pl) in prefix_lengths.iter().enumerate() {
                let truncated = train.truncated(pl)?;
                let mut pipe = WeaselClassifier::new(self.pipeline_config());
                pipe.fit(&truncated)?;
                for &j in &fold.test {
                    let prefix = data.instance(j).prefix(pl)?;
                    cv_pred[i][j] = pipe.predict(&prefix)?;
                }
            }
        }

        // --- Reliability per (prefix, predicted label), Laplace-smoothed ---
        let mut reliability = vec![vec![0.5; n_classes]; n_prefix];
        for i in 0..n_prefix {
            let mut correct = vec![0.0; n_classes];
            let mut total = vec![0.0; n_classes];
            for j in 0..n {
                let pred = cv_pred[i][j];
                total[pred] += 1.0;
                if pred == data.label(j) {
                    correct[pred] += 1.0;
                }
            }
            for c in 0..n_classes {
                reliability[i][c] = (correct[c] + 1.0) / (total[c] + 2.0);
            }
        }

        // --- Candidate thresholds from the training confidence values ---
        let mut conf_values = Vec::new();
        let mut trajectories: Vec<Vec<(f64, Label, usize)>> = Vec::with_capacity(n);
        for j in 0..n {
            let mut history: Vec<(usize, Label)> = Vec::new();
            let mut traj = Vec::with_capacity(n_prefix);
            for (i, &pl) in prefix_lengths.iter().enumerate() {
                let pred = cv_pred[i][j];
                history.push((i, pred));
                let c = Self::confidence(&history, &reliability, pred);
                conf_values.push(c);
                traj.push((c, pred, pl));
            }
            trajectories.push(traj);
        }
        conf_values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        conf_values.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut candidates: Vec<f64> = conf_values
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0)
            .collect();
        if candidates.is_empty() {
            candidates.push(0.5);
        }
        if candidates.len() > self.config.max_thresholds {
            let stride = candidates.len() as f64 / self.config.max_thresholds as f64;
            candidates = (0..self.config.max_thresholds)
                .map(|i| candidates[(i as f64 * stride) as usize])
                .collect();
        }

        // --- Pick θ minimising CF(θ) on the training trajectories ---
        let mut best = (f64::INFINITY, 1.0);
        for &theta in &candidates {
            let mut correct = 0usize;
            let mut prefix_sum = 0usize;
            for (j, traj) in trajectories.iter().enumerate() {
                let (pred, pl) = traj
                    .iter()
                    .find(|(c, _, _)| *c >= theta)
                    .map(|&(_, p, l)| (p, l))
                    .unwrap_or_else(|| {
                        let last = traj.last().expect("non-empty trajectory");
                        (last.1, last.2)
                    });
                if pred == data.label(j) {
                    correct += 1;
                }
                prefix_sum += pl;
            }
            let acc = correct as f64 / n as f64;
            let earliness = prefix_sum as f64 / (n * len) as f64;
            let cf = self.config.alpha * (1.0 - acc) + (1.0 - self.config.alpha) * earliness;
            if cf < best.0 {
                best = (cf, theta);
            }
        }
        self.theta = best.1;

        // --- Final pipelines on the full training set ---
        let mut pipelines = Vec::with_capacity(n_prefix);
        for &pl in &prefix_lengths {
            let truncated = data.truncated(pl)?;
            let mut pipe = WeaselClassifier::new(self.pipeline_config());
            pipe.fit(&truncated)?;
            pipelines.push(pipe);
        }
        self.prefix_lengths = prefix_lengths;
        self.pipelines = pipelines;
        self.reliability = reliability;
        self.len = len;
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if self.pipelines.is_empty() {
            return Err(EtscError::NotFitted);
        }
        Ok(Box::new(EcecStream {
            model: self,
            buf: PrefixBuffer::new(),
            next_prefix: 0,
            history: Vec::new(),
        }))
    }
}

struct EcecStream<'a> {
    model: &'a Ecec,
    buf: PrefixBuffer,
    /// Index of the next prefix to evaluate.
    next_prefix: usize,
    history: Vec<(usize, Label)>,
}

impl StreamState for EcecStream<'_> {
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        Ok(self.buf.push(row)?)
    }

    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        let available = self.buf.len().min(m.len);
        while self.next_prefix < m.prefix_lengths.len()
            && m.prefix_lengths[self.next_prefix] <= available
        {
            let i = self.next_prefix;
            let pl = m.prefix_lengths[i];
            let window = self.buf.prefix(pl)?;
            let pred = m.pipelines[i].predict(&window)?;
            self.history.push((i, pred));
            let c = Ecec::confidence(&self.history, &m.reliability, pred);
            let last_prefix = i + 1 == m.prefix_lengths.len();
            if c >= m.theta || last_prefix {
                return Ok(Some(pred));
            }
            self.next_prefix += 1;
        }
        if is_final {
            // Instance shorter than the next prefix: use what we have.
            let i = self.next_prefix.min(m.prefix_lengths.len() - 1);
            let pl = m.prefix_lengths[i].min(available);
            let window = self.buf.prefix(pl)?;
            return Ok(Some(m.pipelines[i].predict(&window)?));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    /// Frequency classes distinguishable from early prefixes.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..10 {
            let phase = i as f64 * 0.23;
            let slow: Vec<f64> = (0..32).map(|t| ((t as f64 * 0.3) + phase).sin()).collect();
            let fast: Vec<f64> = (0..32).map(|t| ((t as f64 * 1.6) + phase).sin()).collect();
            b.push_named(MultiSeries::univariate(Series::new(slow)), "slow");
            b.push_named(MultiSeries::univariate(Series::new(fast)), "fast");
        }
        b.build().unwrap()
    }

    fn fast_config() -> EcecConfig {
        EcecConfig {
            n_prefixes: 5,
            cv_folds: 3,
            ..EcecConfig::default()
        }
    }

    #[test]
    fn accurate_with_reasonable_earliness() {
        let d = toy();
        let mut ecec = Ecec::new(fast_config());
        ecec.fit(&d).unwrap();
        let mut correct = 0;
        let mut prefix_sum = 0;
        for (inst, label) in d.iter() {
            let p = ecec.predict_early(inst).unwrap();
            if p.label == label {
                correct += 1;
            }
            prefix_sum += p.prefix_len;
        }
        assert!(
            correct as f64 / d.len() as f64 > 0.8,
            "{correct}/{}",
            d.len()
        );
        assert!(
            prefix_sum < d.len() * 32,
            "should beat full-length observation"
        );
    }

    #[test]
    fn theta_is_a_probability() {
        let d = toy();
        let mut ecec = Ecec::new(fast_config());
        ecec.fit(&d).unwrap();
        assert!(
            (0.0..=1.0).contains(&ecec.theta()),
            "theta {}",
            ecec.theta()
        );
        assert!(!ecec.prefix_lengths().is_empty());
        assert_eq!(*ecec.prefix_lengths().last().unwrap(), 32);
    }

    #[test]
    fn confidence_grows_with_consistent_predictions() {
        let reliability = vec![vec![0.7, 0.6], vec![0.8, 0.5]];
        let one = Ecec::confidence(&[(0, 1)], &reliability, 1);
        let two = Ecec::confidence(&[(0, 1), (1, 1)], &reliability, 1);
        assert!(two > one);
        // Disagreeing history does not contribute.
        let mixed = Ecec::confidence(&[(0, 0), (1, 1)], &reliability, 1);
        assert!((mixed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let d = toy();
        let mut ecec = Ecec::new(EcecConfig {
            alpha: 1.5,
            ..fast_config()
        });
        assert!(matches!(ecec.fit(&d), Err(EtscError::Config(_))));
    }

    #[test]
    fn unfitted_error() {
        let ecec = Ecec::with_defaults();
        assert!(matches!(
            ecec.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }

    #[test]
    fn commits_at_prefix_boundaries_only() {
        let d = toy();
        let mut ecec = Ecec::new(fast_config());
        ecec.fit(&d).unwrap();
        let p = ecec.predict_early(d.instance(0)).unwrap();
        assert!(
            ecec.prefix_lengths().contains(&p.prefix_len),
            "committed at {} not a prefix boundary {:?}",
            p.prefix_len,
            ecec.prefix_lengths()
        );
    }
}
