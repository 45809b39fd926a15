//! ECONOMY-K (Dachraoui, Bondu & Cornuéjols 2015; Achenchabe et al.
//! 2021) — the model-based, cost-driven early classifier of Section 3.1.
//!
//! Training groups the full-length series into `k` clusters (k-means) and
//! fits one base classifier per prefix length. For every (cluster,
//! prefix) pair a confusion matrix estimates how reliable predictions at
//! that horizon are *within that group*. At test time, a prefix is
//! soft-assigned to the clusters and the algorithm evaluates the expected
//! cost `f_τ` of postponing the decision by `τ` more time points — the
//! expected misclassification cost at horizon `t + τ` plus a linear time
//! cost. It commits as soon as "now" (`τ = 0`) minimises the cost.
//!
//! The paper runs `k ∈ {1, 2, 3}` per dataset (Table 4); `fit` selects
//! the candidate with the best training harmonic mean.

use etsc_data::{Dataset, Label};
use etsc_ml::bayes::GaussianNb;
use etsc_ml::forest::{ForestConfig, RandomForest};
use etsc_ml::gbm::{GbmConfig, GradientBoosting};
use etsc_ml::kmeans::{KMeans, KMeansConfig};
use etsc_ml::{Classifier, Matrix};

use crate::algos::{equalized, first_value, require_univariate};
use crate::error::EtscError;
use crate::traits::{EarlyClassifier, StreamState};

/// The per-time-point base classifier ECONOMY-K trains.
///
/// The reference implementation uses XGBoost; Gaussian naive Bayes is
/// the fast default here, with random forests and gradient boosting as
/// the closer (but costlier) XGBoost stand-ins (DESIGN.md,
/// Substitution 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EconomyBase {
    /// One-pass Gaussian naive Bayes (fast; the default).
    #[default]
    NaiveBayes,
    /// Bagged CART forest with soft voting.
    RandomForest,
    /// Multiclass gradient-boosted trees (closest to XGBoost).
    GradientBoosting,
}

/// Hyper-parameters for [`EconomyK`] (Table 4: `k = {1,2,3}`,
/// `λ = 100`, `cost = 0.001`).
#[derive(Debug, Clone)]
pub struct EconomyKConfig {
    /// Cluster-count candidates; the best by training harmonic mean wins.
    pub k_candidates: Vec<usize>,
    /// Misclassification-cost scale λ.
    pub lambda: f64,
    /// Cost per observed time point.
    pub time_cost: f64,
    /// Seed (k-means init).
    pub seed: u64,
    /// Per-time-point base classifier.
    pub base: EconomyBase,
}

impl Default for EconomyKConfig {
    fn default() -> Self {
        EconomyKConfig {
            k_candidates: vec![1, 2, 3],
            lambda: 100.0,
            time_cost: 0.001,
            seed: 41,
            base: EconomyBase::NaiveBayes,
        }
    }
}

/// One trained candidate (fixed k).
struct Model {
    kmeans: KMeans,
    /// Per-prefix-length base classifier (index `t-1` → prefix length `t`).
    classifiers: Vec<Box<dyn Classifier + Send + Sync>>,
    /// `expected_error[g][t-1]`: within cluster `g`, the probability that
    /// the prefix-`t` classifier mislabels a series (marginalised over the
    /// cluster's class distribution).
    expected_error: Vec<Vec<f64>>,
    len: usize,
}

impl Model {
    /// A candidate whose tables fit `len` and the k centroids.
    ///
    /// # Errors
    /// A description of the mismatch when the tables do not fit `len`
    /// and the k centroids: a fit never builds such a model, so only a
    /// corrupt store reaches this.
    fn new(
        kmeans: KMeans,
        classifiers: Vec<Box<dyn Classifier + Send + Sync>>,
        expected_error: Vec<Vec<f64>>,
        len: usize,
    ) -> Result<Model, String> {
        if expected_error.len() != kmeans.k()
            || expected_error.iter().any(|row| row.len() != len)
            || kmeans.centroids().iter().any(|c| c.len() < len)
            || classifiers.len() != len
        {
            return Err(format!(
                "ECONOMY-K tables do not fit {} centroids and length {len}",
                kmeans.k()
            ));
        }
        Ok(Model {
            kmeans,
            classifiers,
            expected_error,
            len,
        })
    }

    /// Clusters, one membership weight each.
    fn k(&self) -> usize {
        self.expected_error.len()
    }

    /// Expected cost of deciding at `horizon` for a prefix with the
    /// given cluster membership.
    fn cost(&self, membership: &[f64], horizon: usize, lambda: f64, time_cost: f64) -> f64 {
        let err: f64 = membership
            .iter()
            .zip(&self.expected_error)
            .map(|(&p, errors)| p * errors[horizon - 1])
            .sum();
        lambda * err + time_cost * horizon as f64
    }

    /// `true` when deciding at prefix length `t` costs no more than at
    /// any later horizon. The scan stops at the first cheaper one.
    fn decide_now(&self, membership: &[f64], t: usize, lambda: f64, time_cost: f64) -> bool {
        let now = self.cost(membership, t, lambda, time_cost);
        for horizon in t + 1..=self.len {
            if self.cost(membership, horizon, lambda, time_cost) < now {
                return false;
            }
        }
        true
    }
}

/// Soft cluster membership from each centroid's squared distance to the
/// prefix, written to `membership`: weights inverse to the distance, or
/// all on the first centroid the prefix lies on.
fn normalise(squared: &[f64], membership: &mut [f64]) {
    for (m, &s) in membership.iter_mut().zip(squared) {
        *m = s.sqrt();
    }
    if let Some(hit) = membership.iter().position(|&d| d < 1e-12) {
        membership.fill(0.0);
        membership[hit] = 1.0;
        return;
    }
    for m in membership.iter_mut() {
        *m = 1.0 / *m;
    }
    let total: f64 = membership.iter().sum();
    for m in membership.iter_mut() {
        *m /= total;
    }
}

/// Fitted ECONOMY-K model.
pub struct EconomyK {
    config: EconomyKConfig,
    model: Option<Model>,
    chosen_k: usize,
}

impl EconomyK {
    /// Untrained model.
    pub fn new(config: EconomyKConfig) -> Self {
        EconomyK {
            config,
            model: None,
            chosen_k: 0,
        }
    }

    /// Untrained model with the paper's parameters.
    pub fn with_defaults() -> Self {
        Self::new(EconomyKConfig::default())
    }

    /// The cluster count selected during fit (0 before fit).
    pub fn chosen_k(&self) -> usize {
        self.chosen_k
    }

    /// Serializes the fitted state (model store).
    ///
    /// Only the [`EconomyBase::NaiveBayes`] base (the paper-default
    /// configuration) is supported: the forest/GBM bases hold tree
    /// ensembles the binary model format does not cover.
    ///
    /// # Errors
    /// [`EtscError::Config`] for a non-NaiveBayes base.
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) -> Result<(), EtscError> {
        if self.config.base != EconomyBase::NaiveBayes {
            return Err(EtscError::Config(format!(
                "ECONOMY-K persistence supports only the NaiveBayes base, got {:?}",
                self.config.base
            )));
        }
        e.usizes(&self.config.k_candidates);
        e.f64(self.config.lambda);
        e.f64(self.config.time_cost);
        e.u64(self.config.seed);
        match &self.model {
            None => e.bool(false),
            Some(m) => {
                e.bool(true);
                m.kmeans.encode_state(e);
                e.usize(m.classifiers.len());
                for clf in &m.classifiers {
                    clf.as_any()
                        .downcast_ref::<GaussianNb>()
                        .expect("NaiveBayes base holds GaussianNb classifiers")
                        .encode_state(e);
                }
                e.f64_rows(&m.expected_error);
                e.usize(m.len);
            }
        }
        e.usize(self.chosen_k);
        Ok(())
    }

    /// Reconstructs a model written by [`EconomyK::encode_state`]
    /// (always with the NaiveBayes base).
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        let config = EconomyKConfig {
            k_candidates: d.usizes()?,
            lambda: d.f64()?,
            time_cost: d.f64()?,
            seed: d.u64()?,
            base: EconomyBase::NaiveBayes,
        };
        let model = if d.bool()? {
            let kmeans = KMeans::decode_state(d)?;
            let n = d.usize()?;
            let mut classifiers: Vec<Box<dyn Classifier + Send + Sync>> =
                Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                classifiers.push(Box::new(GaussianNb::decode_state(d)?));
            }
            let expected_error = d.f64_rows()?;
            let len = d.usize()?;
            Some(
                Model::new(kmeans, classifiers, expected_error, len)
                    .map_err(|detail| etsc_data::CodecError::Corrupt { detail })?,
            )
        } else {
            None
        };
        Ok(EconomyK {
            config,
            model,
            chosen_k: d.usize()?,
        })
    }

    fn train_candidate(&self, data: &Dataset, k: usize, len: usize) -> Result<Model, EtscError> {
        let n = data.len();
        let n_classes = data.n_classes();
        // Cluster full-length series.
        let rows: Vec<Vec<f64>> = data.instances().iter().map(|s| s.var(0).to_vec()).collect();
        let x_full = Matrix::from_rows(&rows)?;
        let mut kmeans = KMeans::new(KMeansConfig {
            k,
            seed: self.config.seed,
            ..KMeansConfig::default()
        });
        kmeans.fit(&x_full)?;
        let assignment: Vec<usize> = (0..n)
            .map(|i| kmeans.assign(x_full.row(i)))
            .collect::<Result<_, _>>()?;
        let n_groups = kmeans.k();

        // One base classifier per prefix length.
        let mut classifiers = Vec::with_capacity(len);
        let mut expected_error = vec![vec![0.0; len]; n_groups];
        for t in 1..=len {
            let prefix_rows: Vec<Vec<f64>> = rows.iter().map(|r| r[..t].to_vec()).collect();
            let xt = Matrix::from_rows(&prefix_rows)?;
            let mut clf: Box<dyn Classifier + Send + Sync> = match self.config.base {
                EconomyBase::NaiveBayes => Box::new(GaussianNb::new()),
                EconomyBase::RandomForest => Box::new(RandomForest::new(ForestConfig {
                    n_trees: 15,
                    seed: self.config.seed,
                    ..ForestConfig::default()
                })),
                EconomyBase::GradientBoosting => Box::new(GradientBoosting::new(GbmConfig {
                    n_rounds: 15,
                    ..GbmConfig::default()
                })),
            };
            clf.fit(&xt, data.labels(), n_classes)?;
            // Per-cluster expected error at this horizon (Laplace-smoothed).
            let mut wrong = vec![0.0; n_groups];
            let mut total = vec![0.0; n_groups];
            for i in 0..n {
                let pred = clf.predict(xt.row(i))?;
                total[assignment[i]] += 1.0;
                if pred != data.label(i) {
                    wrong[assignment[i]] += 1.0;
                }
            }
            for g in 0..n_groups {
                expected_error[g][t - 1] = (wrong[g] + 1.0) / (total[g] + 2.0);
            }
            classifiers.push(clf);
        }
        Ok(Model::new(kmeans, classifiers, expected_error, len)
            .expect("a fit builds one error row and one classifier per horizon"))
    }

    /// Training harmonic mean of a candidate (accuracy vs 1 − earliness),
    /// used to pick `k`.
    fn score_candidate(&self, model: &Model, data: &Dataset) -> Result<f64, EtscError> {
        let len = model.len;
        let mut correct = 0usize;
        let mut total_prefix = 0usize;
        for (inst, label) in data.iter() {
            let mut stream = EconomyStream::new(model, self.config.lambda, self.config.time_cost);
            let mut committed = None;
            for (t, x) in inst.var(0).iter().enumerate() {
                stream.push(std::slice::from_ref(x))?;
                if let Some(pred) = stream.decide(false)? {
                    committed = Some((pred, t + 1));
                    break;
                }
            }
            let (pred, t) = committed.expect("a stream commits at the model length");
            if pred == label {
                correct += 1;
            }
            total_prefix += t;
        }
        let acc = correct as f64 / data.len() as f64;
        let earliness = total_prefix as f64 / (data.len() * len) as f64;
        let denom = acc + (1.0 - earliness);
        Ok(if denom == 0.0 {
            0.0
        } else {
            2.0 * acc * (1.0 - earliness) / denom
        })
    }
}

impl EarlyClassifier for EconomyK {
    fn name(&self) -> String {
        "ECO-K".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        require_univariate(data)?;
        let (data, len) = equalized(data)?;
        if self.config.k_candidates.is_empty() {
            return Err(EtscError::Config("k_candidates must be non-empty".into()));
        }
        let mut best: Option<(f64, usize, Model)> = None;
        for &k in &self.config.k_candidates {
            if k == 0 {
                return Err(EtscError::Config("k must be positive".into()));
            }
            let model = self.train_candidate(&data, k, len)?;
            let score = self.score_candidate(&model, &data)?;
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, k, model));
            }
        }
        let (_, k, model) = best.expect("at least one candidate");
        self.chosen_k = k;
        self.model = Some(model);
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        let model = self.model.as_ref().ok_or(EtscError::NotFitted)?;
        Ok(Box::new(EconomyStream::new(
            model,
            self.config.lambda,
            self.config.time_cost,
        )))
    }
}

/// A delta-fed ECONOMY-K stream: each row folds one squared distance
/// per centroid into running sums, in time order, so a decision costs
/// O(k) plus the horizon scan instead of a pass over the whole prefix.
struct EconomyStream<'a> {
    model: &'a Model,
    lambda: f64,
    time_cost: f64,
    /// Everything the stream keeps, in the one allocation a stream of
    /// pushed values alone would take: `[..k]`, each centroid's squared
    /// distance to the series, summed in time order; `[k..2k]`, the
    /// membership `decide`
    /// normalises those sums into; `[2k..]`, the pushed values, up to
    /// the model length.
    state: Vec<f64>,
}

impl<'a> EconomyStream<'a> {
    fn new(model: &'a Model, lambda: f64, time_cost: f64) -> EconomyStream<'a> {
        let mut state = Vec::with_capacity(2 * model.k() + model.len);
        state.resize(2 * model.k(), 0.0);
        EconomyStream {
            model,
            lambda,
            time_cost,
            state,
        }
    }

    /// The values pushed so far, up to the model length.
    fn series(&self) -> &[f64] {
        &self.state[2 * self.model.k()..]
    }

    /// The soft cluster membership of the series pushed so far.
    fn membership(&mut self) -> &[f64] {
        let k = self.model.k();
        let (squared, membership) = self.state[..2 * k].split_at_mut(k);
        normalise(squared, membership);
        membership
    }
}

impl StreamState for EconomyStream<'_> {
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        let x = first_value(row)?;
        let t = self.series().len();
        if t < self.model.len {
            let centroids = self.model.kmeans.centroids();
            for (sum, c) in self.state.iter_mut().zip(centroids) {
                let d = x - c[t];
                *sum += d * d;
            }
            self.state.push(x);
        }
        Ok(())
    }

    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        let t = self.series().len();
        if t == 0 {
            return Ok(None);
        }
        if t < m.len && !is_final {
            let (lambda, time_cost) = (self.lambda, self.time_cost);
            if !m.decide_now(self.membership(), t, lambda, time_cost) {
                return Ok(None);
            }
        }
        let pred = m.classifiers[t - 1].predict(self.series())?;
        Ok(Some(pred))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    /// Classes diverge from t=3 of 8.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..10 {
            let o = (i as f64 * 0.7).sin() * 0.2;
            let mut up = vec![0.0 + o, 0.1, 0.2];
            up.extend([3.0 + o, 3.3, 3.5, 3.4, 3.6]);
            let mut down = vec![0.05 + o, 0.12, 0.18];
            down.extend([-3.0 - o, -3.2, -3.4, -3.3, -3.5]);
            b.push_named(MultiSeries::univariate(Series::new(up)), "up");
            b.push_named(MultiSeries::univariate(Series::new(down)), "down");
        }
        b.build().unwrap()
    }

    #[test]
    fn accurate_and_earlier_than_full_length() {
        let d = toy();
        let mut eco = EconomyK::with_defaults();
        eco.fit(&d).unwrap();
        assert!(eco.chosen_k() >= 1);
        let mut correct = 0;
        let mut total_prefix = 0;
        for (inst, label) in d.iter() {
            let p = eco.predict_early(inst).unwrap();
            if p.label == label {
                correct += 1;
            }
            total_prefix += p.prefix_len;
        }
        assert!(
            correct as f64 / d.len() as f64 > 0.9,
            "{correct}/{}",
            d.len()
        );
        assert!(
            (total_prefix as f64) < (d.len() * 8) as f64,
            "should not always wait for the full series"
        );
    }

    #[test]
    fn k_selection_is_reported() {
        let d = toy();
        let mut eco = EconomyK::new(EconomyKConfig {
            k_candidates: vec![2],
            ..EconomyKConfig::default()
        });
        eco.fit(&d).unwrap();
        assert_eq!(eco.chosen_k(), 2);
    }

    #[test]
    fn config_validation() {
        let d = toy();
        let mut eco = EconomyK::new(EconomyKConfig {
            k_candidates: vec![],
            ..EconomyKConfig::default()
        });
        assert!(matches!(eco.fit(&d), Err(EtscError::Config(_))));
        let mut eco = EconomyK::new(EconomyKConfig {
            k_candidates: vec![0],
            ..EconomyKConfig::default()
        });
        assert!(eco.fit(&d).is_err());
    }

    #[test]
    fn unfitted_error() {
        let eco = EconomyK::with_defaults();
        assert!(matches!(
            eco.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }

    #[test]
    fn high_time_cost_forces_early_decisions() {
        let d = toy();
        let mut eager = EconomyK::new(EconomyKConfig {
            time_cost: 1000.0, // waiting overwhelmingly dominates the error term
            k_candidates: vec![2],
            ..EconomyKConfig::default()
        });
        eager.fit(&d).unwrap();
        let p = eager.predict_early(d.instance(0)).unwrap();
        assert_eq!(p.prefix_len, 1, "extreme time cost must decide immediately");
    }

    /// Whole-prefix membership as computed before streams were
    /// delta-fed, kept verbatim as the reference.
    fn reference_membership(m: &Model, prefix: &[f64]) -> Vec<f64> {
        let t = prefix.len();
        let dists: Vec<f64> = m
            .kmeans
            .centroids()
            .iter()
            .map(|c| {
                prefix
                    .iter()
                    .zip(&c[..t])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        if let Some(hit) = dists.iter().position(|&d| d < 1e-12) {
            let mut p = vec![0.0; dists.len()];
            p[hit] = 1.0;
            return p;
        }
        let inv: Vec<f64> = dists.iter().map(|&d| 1.0 / d).collect();
        let total: f64 = inv.iter().sum();
        inv.into_iter().map(|v| v / total).collect()
    }

    /// The decide-now verdict as computed before, over the stored
    /// `expected_error[g][t-1]` layout.
    fn reference_decide_now(m: &Model, prefix: &[f64], lambda: f64, time_cost: f64) -> bool {
        let t = prefix.len();
        let membership = reference_membership(m, prefix);
        let cost = |horizon: usize| {
            let err: f64 = membership
                .iter()
                .enumerate()
                .map(|(g, &p)| p * m.expected_error[g][horizon - 1])
                .sum();
            lambda * err + time_cost * horizon as f64
        };
        let now = cost(t);
        for tau in 1..=(m.len - t) {
            if cost(t + tau) < now {
                return false;
            }
        }
        true
    }

    /// The training score as computed before: commit at the first
    /// prefix whose whole-prefix verdict is "now", else at full length.
    fn reference_score(m: &Model, data: &Dataset, lambda: f64, time_cost: f64) -> f64 {
        let mut correct = 0usize;
        let mut total_prefix = 0usize;
        for (inst, label) in data.iter() {
            let series = inst.var(0);
            let t = (1..m.len)
                .find(|&t| reference_decide_now(m, &series[..t], lambda, time_cost))
                .unwrap_or(m.len);
            if m.classifiers[t - 1].predict(&series[..t]).unwrap() == label {
                correct += 1;
            }
            total_prefix += t;
        }
        let acc = correct as f64 / data.len() as f64;
        let earliness = total_prefix as f64 / (data.len() * m.len) as f64;
        2.0 * acc * (1.0 - earliness) / (acc + (1.0 - earliness))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Streamed series for a fitted model: seeded values around the
    /// training range with NaN and ±inf, each centroid exactly (the
    /// one-hot branch), and a centroid that then turns away; every one
    /// runs four rows past the model length.
    fn streamed(m: &Model) -> Vec<Vec<f64>> {
        let mut x = 0x5851_F42D_4C95_7F2Du64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rows = m.len + 4;
        let mut out: Vec<Vec<f64>> = (0..24)
            .map(|_| {
                (0..rows)
                    .map(|_| match next() % 40 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        r => (r as f64 - 21.0) / 4.0,
                    })
                    .collect()
            })
            .collect();
        for c in m.kmeans.centroids() {
            let mut on = c[..m.len].to_vec();
            on.extend([0.5; 4]);
            let mut away = on.clone();
            for v in &mut away[m.len / 2..] {
                *v = -*v - 1.0;
            }
            out.push(on);
            out.push(away);
        }
        out
    }

    #[test]
    fn delta_fed_membership_and_verdict_equal_the_whole_prefix_after_every_row() {
        let d = toy();
        for k in 1..=3 {
            let mut eco = EconomyK::new(EconomyKConfig {
                k_candidates: vec![k],
                ..EconomyKConfig::default()
            });
            eco.fit(&d).unwrap();
            let (lambda, time_cost) = (eco.config.lambda, eco.config.time_cost);
            let m = eco.model.as_ref().unwrap();
            assert_eq!(m.k(), k);
            assert_eq!(
                eco.score_candidate(m, &d).unwrap().to_bits(),
                reference_score(m, &d, lambda, time_cost).to_bits(),
                "k {k}: training score"
            );
            let predict = |prefix: &[f64]| m.classifiers[prefix.len() - 1].predict(prefix).unwrap();
            let mut one_hot = 0;
            for (s, series) in streamed(m).iter().enumerate() {
                let mut stream = EconomyStream::new(m, lambda, time_cost);
                for (i, &x) in series.iter().enumerate() {
                    stream.push(&[x, 9.0]).unwrap();
                    let prefix = &series[..(i + 1).min(m.len)];
                    let t = prefix.len();
                    let want = reference_membership(m, prefix);
                    one_hot += usize::from(want.contains(&1.0) && k > 1);
                    let at = format!("k {k}, series {s}, row {}", i + 1);
                    assert_eq!(bits(stream.membership()), bits(&want), "{at}");
                    let now = reference_decide_now(m, prefix, lambda, time_cost);
                    let verdict = (t >= m.len || now).then(|| predict(prefix));
                    assert_eq!(stream.decide(false).unwrap(), verdict, "{at}");
                    if i == 2 {
                        // A forced decision right after a non-final one.
                        assert_eq!(stream.decide(true).unwrap(), Some(predict(prefix)), "{at}");
                    }
                }
                let prefix = &series[..m.len];
                assert_eq!(stream.decide(true).unwrap(), Some(predict(prefix)));
            }
            if k > 1 {
                assert!(one_hot > 0, "k {k}: no prefix lay on a centroid");
            }
        }
    }
}
#[cfg(test)]
mod base_classifier_tests {
    use super::*;
    use crate::traits::EarlyClassifier;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("base");
        for i in 0..8 {
            let o = (i as f64 * 0.7).sin() * 0.2;
            let up: Vec<f64> = (0..8).map(|t| t as f64 * 0.5 + o).collect();
            let down: Vec<f64> = (0..8).map(|t| 4.0 - t as f64 * 0.5 - o).collect();
            b.push_named(MultiSeries::univariate(Series::new(up)), "up");
            b.push_named(MultiSeries::univariate(Series::new(down)), "down");
        }
        b.build().unwrap()
    }

    #[test]
    fn every_base_classifier_trains_and_predicts() {
        let d = toy();
        for base in [
            EconomyBase::NaiveBayes,
            EconomyBase::RandomForest,
            EconomyBase::GradientBoosting,
        ] {
            let mut eco = EconomyK::new(EconomyKConfig {
                k_candidates: vec![2],
                base,
                ..EconomyKConfig::default()
            });
            eco.fit(&d).unwrap();
            let mut correct = 0;
            for (inst, label) in d.iter() {
                if eco.predict_early(inst).unwrap().label == label {
                    correct += 1;
                }
            }
            assert!(
                correct as f64 / d.len() as f64 > 0.8,
                "{base:?}: {correct}/{}",
                d.len()
            );
        }
    }
}
