//! TEASER — Two-tier Early and Accurate Series classifiER
//! (Schäfer & Leser 2020), Section 3.6.
//!
//! `S` overlapping prefixes each get a WEASEL+logistic *slave* pipeline;
//! a one-class SVM *master* per prefix, trained only on the probability
//! vectors of correctly classified training instances, accepts or
//! rejects the slave's prediction. A prediction is emitted once the same
//! accepted label repeats for `v` consecutive prefixes; `v ∈ {1..5}` is
//! grid-searched on the training data by harmonic mean of accuracy and
//! earliness. If nothing is accepted by the final prefix, the
//! full-length prediction is returned unconditionally.
//!
//! The paper disables TEASER's dataset-level z-normalisation (it assumes
//! knowledge of the full series — unrealistic online); the flag remains
//! available as [`TeaserConfig::z_normalize`].

// Indexed loops keep the gradient/index math readable here.
#![allow(clippy::needless_range_loop)]
use etsc_data::{Dataset, Label, MultiSeries, PrefixBuffer};
use etsc_ml::logistic::LogisticConfig;
use etsc_ml::ocsvm::{OcSvmConfig, OneClassSvm};
use etsc_ml::Matrix;
use etsc_transforms::weasel::WeaselConfig;

use crate::algos::{equalized, require_univariate};
use crate::error::EtscError;
use crate::full::{WeaselClassifier, WeaselClassifierConfig};
use crate::traits::{EarlyClassifier, FullClassifierTrait, StreamState};

/// Hyper-parameters for [`Teaser`] (Table 4: `S = 20` for UCR, `S = 10`
/// for the Biological and Maritime datasets).
#[derive(Debug, Clone)]
pub struct TeaserConfig {
    /// Number of prefixes S.
    pub s_prefixes: usize,
    /// Largest consistency window tried in the grid search.
    pub v_max: usize,
    /// One-class SVM configuration for the master classifiers.
    pub ocsvm: OcSvmConfig,
    /// Bag-of-patterns configuration.
    pub weasel: WeaselConfig,
    /// Logistic-head configuration.
    pub logistic: LogisticConfig,
    /// Apply per-series z-normalisation (paper default: off).
    pub z_normalize: bool,
    /// Folds of the internal calibration cross-validation: the master
    /// one-class SVMs and the `v` grid search are driven by out-of-fold
    /// slave predictions so overfit training probabilities don't trigger
    /// premature commits.
    pub cv_folds: usize,
    /// Seed for the calibration CV shuffling.
    pub seed: u64,
    /// Use the one-class SVM masters (ablation switch: with `false`,
    /// every slave prediction is accepted and only the consistency check
    /// gates commits — the configuration the paper's S-WEASEL comparison
    /// isolates).
    pub use_master: bool,
}

impl Default for TeaserConfig {
    fn default() -> Self {
        TeaserConfig {
            s_prefixes: 20,
            v_max: 5,
            ocsvm: OcSvmConfig::default(),
            weasel: WeaselConfig::default(),
            logistic: LogisticConfig::default(),
            z_normalize: false,
            cv_folds: 3,
            seed: 53,
            use_master: true,
        }
    }
}

/// Fitted TEASER model.
pub struct Teaser {
    config: TeaserConfig,
    prefix_lengths: Vec<usize>,
    slaves: Vec<WeaselClassifier>,
    /// One master per prefix; `None` when that prefix had no correctly
    /// classified instances to train on.
    masters: Vec<Option<OneClassSvm>>,
    /// Selected consistency window.
    v: usize,
    len: usize,
}

/// Master feature vector: class probabilities plus the top-2 margin.
fn master_features(probs: &[f64]) -> Vec<f64> {
    let mut sorted = probs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let margin = if sorted.len() >= 2 {
        sorted[0] - sorted[1]
    } else {
        sorted.first().copied().unwrap_or(0.0)
    };
    let mut out = probs.to_vec();
    out.push(margin);
    out
}

impl Teaser {
    /// Untrained model.
    pub fn new(config: TeaserConfig) -> Self {
        Teaser {
            config,
            prefix_lengths: Vec::new(),
            slaves: Vec::new(),
            masters: Vec::new(),
            v: 1,
            len: 0,
        }
    }

    /// Untrained model with the paper's UCR parameters (S = 20).
    pub fn with_defaults() -> Self {
        Self::new(TeaserConfig::default())
    }

    /// The consistency window selected by the grid search.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Prefix lengths in use.
    pub fn prefix_lengths(&self) -> &[usize] {
        &self.prefix_lengths
    }

    fn normalize(&self, instance: MultiSeries) -> MultiSeries {
        if self.config.z_normalize {
            instance.z_normalized()
        } else {
            instance
        }
    }

    fn pipeline_config(&self) -> WeaselClassifierConfig {
        WeaselClassifierConfig {
            weasel: self.config.weasel.clone(),
            logistic: self.config.logistic.clone(),
        }
    }

    /// Serializes the fitted state (model store).
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) {
        e.usize(self.config.s_prefixes);
        e.usize(self.config.v_max);
        e.f64(self.config.ocsvm.nu);
        e.opt_f64(self.config.ocsvm.gamma);
        e.usize(self.config.ocsvm.max_iters);
        e.f64(self.config.ocsvm.tolerance);
        self.config.weasel.encode_state(e);
        e.f64(self.config.logistic.l2);
        e.f64(self.config.logistic.learning_rate);
        e.usize(self.config.logistic.max_epochs);
        e.usize(self.config.logistic.batch_size);
        e.f64(self.config.logistic.tolerance);
        e.u64(self.config.logistic.seed);
        e.bool(self.config.z_normalize);
        e.usize(self.config.cv_folds);
        e.u64(self.config.seed);
        e.bool(self.config.use_master);
        e.usizes(&self.prefix_lengths);
        e.usize(self.slaves.len());
        for s in &self.slaves {
            s.encode_state(e);
        }
        e.usize(self.masters.len());
        for m in &self.masters {
            match m {
                None => e.bool(false),
                Some(svm) => {
                    e.bool(true);
                    svm.encode_state(e);
                }
            }
        }
        e.usize(self.v);
        e.usize(self.len);
    }

    /// Reconstructs a model written by [`Teaser::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        let config = TeaserConfig {
            s_prefixes: d.usize()?,
            v_max: d.usize()?,
            ocsvm: OcSvmConfig {
                nu: d.f64()?,
                gamma: d.opt_f64()?,
                max_iters: d.usize()?,
                tolerance: d.f64()?,
            },
            weasel: WeaselConfig::decode_state(d)?,
            logistic: LogisticConfig {
                l2: d.f64()?,
                learning_rate: d.f64()?,
                max_epochs: d.usize()?,
                batch_size: d.usize()?,
                tolerance: d.f64()?,
                seed: d.u64()?,
            },
            z_normalize: d.bool()?,
            cv_folds: d.usize()?,
            seed: d.u64()?,
            use_master: d.bool()?,
        };
        let prefix_lengths = d.usizes()?;
        let n_slaves = d.usize()?;
        let mut slaves = Vec::with_capacity(n_slaves.min(1 << 16));
        for _ in 0..n_slaves {
            slaves.push(WeaselClassifier::decode_state(d)?);
        }
        let n_masters = d.usize()?;
        let mut masters = Vec::with_capacity(n_masters.min(1 << 16));
        for _ in 0..n_masters {
            masters.push(if d.bool()? {
                Some(OneClassSvm::decode_state(d)?)
            } else {
                None
            });
        }
        Ok(Teaser {
            config,
            prefix_lengths,
            slaves,
            masters,
            v: d.usize()?,
            len: d.usize()?,
        })
    }

    /// Accepted prediction (if any) of prefix `i` for a normalised
    /// instance prefix.
    fn accepted_prediction(
        &self,
        i: usize,
        window: &MultiSeries,
    ) -> Result<Option<Label>, EtscError> {
        let probs = self.slaves[i].predict_proba(window)?;
        let label = etsc_ml::argmax(&probs);
        match &self.masters[i] {
            Some(master) => {
                if master.accepts(&master_features(&probs))? {
                    Ok(Some(label))
                } else {
                    Ok(None)
                }
            }
            None => Ok(Some(label)),
        }
    }
}

impl EarlyClassifier for Teaser {
    fn name(&self) -> String {
        "TEASER".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        require_univariate(data)?;
        let (data, len) = equalized(data)?;
        if self.config.v_max == 0 {
            return Err(EtscError::Config("v_max must be positive".into()));
        }
        let s = self.config.s_prefixes.max(1);
        let mut prefix_lengths: Vec<usize> = (1..=s)
            .map(|i| ((len * i) as f64 / s as f64).ceil() as usize)
            .map(|l| l.clamp(1, len))
            .collect();
        prefix_lengths.dedup();
        let normalized: Vec<MultiSeries> = data
            .instances()
            .iter()
            .map(|x| self.normalize(x.clone()))
            .collect();
        let norm_data = Dataset::new(
            data.name().to_owned(),
            normalized,
            data.labels().to_vec(),
            data.class_names().to_vec(),
        )?;

        // --- Out-of-fold slave probabilities per prefix (calibration) ---
        // Training-set probabilities of an overfit slave look confident
        // everywhere; the masters and the v grid search must see the
        // generalisation behaviour instead.
        let n = norm_data.len();
        let n_prefix = prefix_lengths.len();
        let folds = etsc_data::StratifiedKFold::new(self.config.cv_folds.max(2), self.config.seed)
            .map_err(EtscError::from)?
            .split(&norm_data)
            .map_err(EtscError::from)?;
        let mut oof_probs: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n]; n_prefix];
        for fold in &folds {
            let fold_train = norm_data.subset(&fold.train);
            for (i, &pl) in prefix_lengths.iter().enumerate() {
                let truncated = fold_train.truncated(pl)?;
                let mut slave = WeaselClassifier::new(self.pipeline_config());
                slave.fit(&truncated)?;
                for &j in &fold.test {
                    let window = norm_data.instance(j).prefix(pl)?;
                    oof_probs[i][j] = slave.predict_proba(&window)?;
                }
            }
        }

        // --- Final slaves on all data + masters on OOF-correct features ---
        let mut slaves = Vec::with_capacity(n_prefix);
        let mut masters = Vec::with_capacity(n_prefix);
        for (i, &pl) in prefix_lengths.iter().enumerate() {
            let truncated = norm_data.truncated(pl)?;
            let mut slave = WeaselClassifier::new(self.pipeline_config());
            slave.fit(&truncated)?;
            let mut rows = Vec::new();
            for j in 0..n {
                let probs = &oof_probs[i][j];
                if etsc_ml::argmax(probs) == norm_data.label(j) {
                    rows.push(master_features(probs));
                }
            }
            let master = if rows.is_empty() || !self.config.use_master {
                None
            } else {
                let x = Matrix::from_rows(&rows)?;
                let mut svm = OneClassSvm::new(self.config.ocsvm.clone());
                svm.fit(&x)?;
                Some(svm)
            };
            slaves.push(slave);
            masters.push(master);
        }
        self.prefix_lengths = prefix_lengths;
        self.slaves = slaves;
        self.masters = masters;
        self.len = len;

        // --- Grid search v on the out-of-fold trajectories ---
        let prefix_lengths = self.prefix_lengths.clone();
        let mut best = (f64::NEG_INFINITY, 1usize);
        for v in 1..=self.config.v_max {
            let mut correct = 0usize;
            let mut prefix_sum = 0usize;
            for j in 0..n {
                let mut streak_label: Option<Label> = None;
                let mut streak = 0usize;
                let mut committed: Option<(Label, usize)> = None;
                for (i, &pl) in prefix_lengths.iter().enumerate() {
                    let probs = &oof_probs[i][j];
                    let label = etsc_ml::argmax(probs);
                    if i + 1 == n_prefix {
                        committed = Some((label, pl));
                        break;
                    }
                    let accepted = match &self.masters[i] {
                        Some(m) => m.accepts(&master_features(probs))?,
                        None => true,
                    };
                    if accepted {
                        if streak_label == Some(label) {
                            streak += 1;
                        } else {
                            streak_label = Some(label);
                            streak = 1;
                        }
                        if streak >= v {
                            committed = Some((label, pl));
                            break;
                        }
                    } else {
                        streak_label = None;
                        streak = 0;
                    }
                }
                let (label, pl) = committed.expect("final prefix always commits");
                if label == norm_data.label(j) {
                    correct += 1;
                }
                prefix_sum += pl;
            }
            let acc = correct as f64 / n as f64;
            let earliness = prefix_sum as f64 / (n * len) as f64;
            let denom = acc + (1.0 - earliness);
            let hm = if denom == 0.0 {
                0.0
            } else {
                2.0 * acc * (1.0 - earliness) / denom
            };
            if hm > best.0 {
                best = (hm, v);
            }
        }
        self.v = best.1;
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if self.slaves.is_empty() {
            return Err(EtscError::NotFitted);
        }
        Ok(Box::new(TeaserStream {
            model: self,
            buf: PrefixBuffer::new(),
            next_prefix: 0,
            streak_label: None,
            streak: 0,
        }))
    }
}

struct TeaserStream<'a> {
    model: &'a Teaser,
    buf: PrefixBuffer,
    next_prefix: usize,
    streak_label: Option<Label>,
    streak: usize,
}

impl StreamState for TeaserStream<'_> {
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        Ok(self.buf.push(row)?)
    }

    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        let available = self.buf.len().min(m.len);
        let due = m
            .prefix_lengths
            .get(self.next_prefix)
            .is_some_and(|&pl| pl <= available);
        if !due && !is_final {
            return Ok(None);
        }
        // Normalisation reads the whole prefix, so it is redone at each
        // evaluation.
        let normalized = m.normalize(self.buf.prefix(self.buf.len())?);
        while self.next_prefix < m.prefix_lengths.len()
            && m.prefix_lengths[self.next_prefix] <= available
        {
            let i = self.next_prefix;
            let pl = m.prefix_lengths[i];
            let window = normalized.prefix(pl)?;
            self.next_prefix += 1;
            let last = i + 1 == m.prefix_lengths.len();
            if last {
                let probs = m.slaves[i].predict_proba(&window)?;
                return Ok(Some(etsc_ml::argmax(&probs)));
            }
            match m.accepted_prediction(i, &window)? {
                Some(label) => {
                    if self.streak_label == Some(label) {
                        self.streak += 1;
                    } else {
                        self.streak_label = Some(label);
                        self.streak = 1;
                    }
                    if self.streak >= m.v {
                        return Ok(Some(label));
                    }
                }
                None => {
                    self.streak_label = None;
                    self.streak = 0;
                }
            }
        }
        if is_final {
            let pl = available.max(1);
            let i = m.prefix_lengths.iter().rposition(|&l| l <= pl).unwrap_or(0);
            let window = normalized.prefix(m.prefix_lengths[i].min(normalized.len()))?;
            let probs = m.slaves[i].predict_proba(&window)?;
            return Ok(Some(etsc_ml::argmax(&probs)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, Series};

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..10 {
            let phase = i as f64 * 0.29;
            let slow: Vec<f64> = (0..32).map(|t| ((t as f64 * 0.3) + phase).sin()).collect();
            let fast: Vec<f64> = (0..32).map(|t| ((t as f64 * 1.6) + phase).sin()).collect();
            b.push_named(MultiSeries::univariate(Series::new(slow)), "slow");
            b.push_named(MultiSeries::univariate(Series::new(fast)), "fast");
        }
        b.build().unwrap()
    }

    fn fast_config() -> TeaserConfig {
        TeaserConfig {
            s_prefixes: 5,
            v_max: 3,
            ..TeaserConfig::default()
        }
    }

    #[test]
    fn accurate_and_early() {
        let d = toy();
        let mut teaser = Teaser::new(fast_config());
        teaser.fit(&d).unwrap();
        assert!((1..=3).contains(&teaser.v()));
        let mut correct = 0;
        let mut prefix_sum = 0;
        for (inst, label) in d.iter() {
            let p = teaser.predict_early(inst).unwrap();
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
        assert!(prefix_sum < d.len() * 32);
    }

    #[test]
    fn master_features_include_margin() {
        let f = master_features(&[0.7, 0.2, 0.1]);
        assert_eq!(f.len(), 4);
        assert!((f[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn commits_at_prefix_boundaries() {
        let d = toy();
        let mut teaser = Teaser::new(fast_config());
        teaser.fit(&d).unwrap();
        let p = teaser.predict_early(d.instance(1)).unwrap();
        assert!(teaser.prefix_lengths().contains(&p.prefix_len));
    }

    #[test]
    fn z_normalization_flag_works() {
        let d = toy();
        let mut teaser = Teaser::new(TeaserConfig {
            z_normalize: true,
            ..fast_config()
        });
        teaser.fit(&d).unwrap();
        let p = teaser.predict_early(d.instance(0)).unwrap();
        assert!(p.prefix_len <= 32);
    }

    #[test]
    fn config_validation_and_unfitted() {
        let d = toy();
        let mut teaser = Teaser::new(TeaserConfig {
            v_max: 0,
            ..fast_config()
        });
        assert!(matches!(teaser.fit(&d), Err(EtscError::Config(_))));
        let teaser = Teaser::with_defaults();
        assert!(matches!(
            teaser.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }

    #[test]
    fn streaming_agrees_with_one_shot() {
        let d = toy();
        let mut teaser = Teaser::new(fast_config());
        teaser.fit(&d).unwrap();
        let inst = d.instance(5);
        let one = teaser.predict_early(inst).unwrap();
        let mut stream = teaser.start_stream().unwrap();
        for l in 1..=inst.len() {
            stream.push(&[inst.at(0, l - 1)]).unwrap();
            if let Some(lab) = stream.decide(l == inst.len()).unwrap() {
                assert_eq!(lab, one.label);
                assert_eq!(l, one.prefix_len);
                return;
            }
        }
        panic!("stream never committed");
    }
}
