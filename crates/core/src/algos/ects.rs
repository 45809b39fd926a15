//! ECTS — Early Classification on Time Series (Xing, Pei & Yu 2012).
//!
//! Prefix-based and 1-NN driven (Section 3.2). Training computes, for
//! every prefix length, the nearest-neighbour and reverse-nearest-
//! neighbour (RNN) sets of every training series. A series' **Minimum
//! Prediction Length** (MPL) is the prefix length from which its RNN set
//! stays stable up to the full length — from that point on, its
//! neighbourhood is the same as with complete information, so it can act
//! as a 1-NN predictor for incoming prefixes. Agglomerative hierarchical
//! clustering then lowers MPLs: a label-pure cluster gets its own MPL
//! from joint 1-NN + RNN consistency, and members inherit the minimum.
//!
//! At test time a prefix of length `l` is matched to its nearest training
//! series at that length; a prediction is emitted once `l ≥ MPL(nn)`.

use etsc_data::{Dataset, Label};
use etsc_ml::hclust::{average_linkage, pairwise_euclidean};
use etsc_ml::knn::PrefixNnTable;
use etsc_ml::MlError;

use crate::algos::{equalized, first_value, require_univariate};
use crate::error::EtscError;
use crate::traits::{EarlyClassifier, StreamState};

/// Hyper-parameters for [`Ects`] (Table 4: `support = 0`).
#[derive(Debug, Clone, Default)]
pub struct EctsConfig {
    /// Minimum RNN support a series needs (at full length) to receive an
    /// MPL below the full series length.
    pub support: usize,
}

/// Fitted ECTS model.
///
/// ```
/// use etsc_core::{EarlyClassifier, Ects};
/// use etsc_data::{DatasetBuilder, MultiSeries, Series};
///
/// let mut b = DatasetBuilder::new("toy");
/// for i in 0..4 {
///     let o = i as f64 * 0.01;
///     b.push_named(MultiSeries::univariate(Series::new(vec![o, 5.0, 5.1, 5.2])), "up");
///     b.push_named(MultiSeries::univariate(Series::new(vec![o, -5.0, -5.1, -5.2])), "down");
/// }
/// let data = b.build().unwrap();
/// let mut ects = Ects::with_defaults();
/// ects.fit(&data).unwrap();
/// let p = ects.predict_early(data.instance(0)).unwrap();
/// assert_eq!(p.label, data.label(0));
/// assert!(p.prefix_len <= 4);
/// ```
pub struct Ects {
    config: EctsConfig,
    /// Training series at equalised length.
    train: Vec<Vec<f64>>,
    labels: Vec<Label>,
    /// Per-series minimum prediction length.
    mpl: Vec<usize>,
    len: usize,
}

impl Ects {
    /// Untrained model.
    pub fn new(config: EctsConfig) -> Self {
        Ects {
            config,
            train: Vec::new(),
            labels: Vec::new(),
            mpl: Vec::new(),
            len: 0,
        }
    }

    /// Untrained model with the paper's parameters.
    pub fn with_defaults() -> Self {
        Self::new(EctsConfig::default())
    }

    /// Per-training-series MPLs (empty before fit).
    pub fn mpls(&self) -> &[usize] {
        &self.mpl
    }

    /// Serializes the fitted state (model store).
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) {
        e.usize(self.config.support);
        e.f64_rows(&self.train);
        e.usizes(&self.labels);
        e.usizes(&self.mpl);
        e.usize(self.len);
    }

    /// Reconstructs a model written by [`Ects::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        Ok(Ects {
            config: EctsConfig {
                support: d.usize()?,
            },
            train: d.f64_rows()?,
            labels: d.usizes()?,
            mpl: d.usizes()?,
            len: d.usize()?,
        })
    }
}

/// Stable comparison of RNN sets (both sorted by construction).
fn same_set(a: &[usize], b: &[usize]) -> bool {
    a == b
}

impl EarlyClassifier for Ects {
    fn name(&self) -> String {
        "ECTS".into()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        require_univariate(data)?;
        let (data, len) = equalized(data)?;
        let n = data.len();
        if n < 2 {
            return Err(EtscError::Config("ECTS needs at least 2 instances".into()));
        }
        let series: Vec<Vec<f64>> = data.instances().iter().map(|s| s.var(0).to_vec()).collect();
        let refs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let table = PrefixNnTable::build(&refs)?;

        // All RNN sets per prefix length.
        let rnn_per_l: Vec<Vec<Vec<usize>>> = (1..=len).map(|l| table.rnn_sets(l)).collect();
        let rnn_full = &rnn_per_l[len - 1];

        // --- Per-series MPL from RNN stability ---
        let mut mpl: Vec<usize> = vec![len; n];
        for i in 0..n {
            if rnn_full[i].len() <= self.config.support {
                continue; // not enough support: can only predict at full length
            }
            let mut candidate = 1usize;
            for (l0, rnn_l) in rnn_per_l.iter().enumerate() {
                if !same_set(&rnn_l[i], &rnn_full[i]) {
                    candidate = l0 + 2; // stable only after this prefix
                }
            }
            mpl[i] = candidate.min(len);
        }

        // --- Clustering phase: label-pure clusters lower their members'
        // MPLs via joint 1-NN + RNN consistency ---
        let dist = pairwise_euclidean(&refs);
        let dendro = average_linkage(&dist, n)?;
        let labels = data.labels();
        for merge in &dendro.merges {
            let members = &dendro.members[merge.into];
            let first_label = labels[members[0]];
            if !members.iter().all(|&m| labels[m] == first_label) {
                continue; // mixed cluster cannot predict
            }
            let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
            // Cluster RNN at full length: everyone whose NN is in the cluster.
            let cluster_rnn_full: Vec<usize> = (0..n)
                .filter(|&j| member_set.contains(&table.nn(len, j)))
                .collect();
            if cluster_rnn_full.len() <= self.config.support {
                continue;
            }
            let mut candidate = 1usize;
            for l in 1..=len {
                // 1-NN consistency: every member's NN stays inside.
                let nn_ok = members
                    .iter()
                    .all(|&m| member_set.contains(&table.nn(l, m)));
                // RNN consistency: the cluster attracts the same outside set.
                let cluster_rnn_l: Vec<usize> = (0..n)
                    .filter(|&j| member_set.contains(&table.nn(l, j)))
                    .collect();
                if !nn_ok || !same_set(&cluster_rnn_l, &cluster_rnn_full) {
                    candidate = l + 1;
                }
            }
            if candidate <= len {
                for &m in members {
                    mpl[m] = mpl[m].min(candidate);
                }
            }
        }

        self.train = series;
        self.labels = labels.to_vec();
        self.mpl = mpl;
        self.len = len;
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if self.train.is_empty() {
            return Err(EtscError::NotFitted);
        }
        Ok(Box::new(EctsStream {
            model: self,
            query: Vec::with_capacity(self.len),
            dist: vec![0.0; self.train.len()],
            folded: 0,
        }))
    }
}

/// One incoming series: the squared distance of its prefix to every
/// training series, extended by each pushed row instead of recomputed.
struct EctsStream<'a> {
    model: &'a Ects,
    /// Pushed values, up to the model length (later ones are ignored,
    /// as the nearest-neighbour match truncates to that length).
    query: Vec<f64>,
    /// `dist[j]` = squared distance of `query[..folded]` to training
    /// series `j`, summed in time order.
    dist: Vec<f64>,
    folded: usize,
}

impl StreamState for EctsStream<'_> {
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        let x = first_value(row)?;
        if self.query.len() < self.model.len {
            self.query.push(x);
        }
        Ok(())
    }

    /// Picks the first training series with the strictly smallest
    /// distance. This is `etsc_ml::knn::nearest_prefix` on the whole
    /// prefix, bit for bit: its early abandon only skips sums that
    /// cannot win, the winner's sum is accumulated in the same order,
    /// and a NaN sum never wins in either.
    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        let l = self.query.len();
        if l == 0 {
            return Ok(None);
        }
        for (t, &x) in self.query.iter().enumerate().skip(self.folded) {
            for (d, s) in self.dist.iter_mut().zip(&m.train) {
                if let Some(&a) = s.get(t) {
                    *d += (a - x) * (a - x);
                }
            }
        }
        self.folded = l;
        let mut nn = (0usize, f64::INFINITY);
        for (j, (s, &d)) in m.train.iter().zip(&self.dist).enumerate() {
            if s.len() < l {
                return Err(MlError::DimensionMismatch {
                    expected: l,
                    got: s.len(),
                }
                .into());
            }
            if d < nn.1 {
                nn = (j, d);
            }
        }
        let nn = nn.0;
        if l >= m.mpl[nn] || is_final || l >= m.len {
            return Ok(Some(m.labels[nn]));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    /// Two classes that separate from t=2 onward.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..8 {
            let o = i as f64 * 0.02;
            // Both classes start at ~0 and then diverge.
            b.push_named(
                MultiSeries::univariate(Series::new(vec![0.0 + o, 0.1, 5.0 + o, 5.2, 5.1, 5.3])),
                "up",
            );
            b.push_named(
                MultiSeries::univariate(Series::new(vec![
                    0.05 + o,
                    0.12,
                    -5.0 - o,
                    -5.1,
                    -5.2,
                    -5.3,
                ])),
                "down",
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn classifies_correctly_and_early() {
        let d = toy();
        let mut ects = Ects::with_defaults();
        ects.fit(&d).unwrap();
        let mut total_prefix = 0;
        for (inst, label) in d.iter() {
            let p = ects.predict_early(inst).unwrap();
            assert_eq!(p.label, label);
            total_prefix += p.prefix_len;
        }
        let mean_earliness = total_prefix as f64 / (d.len() * 6) as f64;
        assert!(mean_earliness < 1.0, "should beat full-length observation");
    }

    #[test]
    fn mpls_are_within_bounds() {
        let d = toy();
        let mut ects = Ects::with_defaults();
        ects.fit(&d).unwrap();
        assert!(ects.mpls().iter().all(|&m| (1..=6).contains(&m)));
        // The strong separation from t=3 means some MPL < full length.
        assert!(ects.mpls().iter().any(|&m| m < 6));
    }

    #[test]
    fn support_parameter_raises_mpls() {
        let d = toy();
        let mut strict = Ects::new(EctsConfig { support: 50 });
        strict.fit(&d).unwrap();
        // Impossible support: every series predicts only at full length.
        assert!(strict.mpls().iter().all(|&m| m == 6));
    }

    #[test]
    fn rejects_multivariate_and_unfitted() {
        let mut b = DatasetBuilder::new("mv");
        b.push_named(
            MultiSeries::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            "a",
        );
        b.push_named(
            MultiSeries::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap(),
            "b",
        );
        let mv = b.build().unwrap();
        let mut ects = Ects::with_defaults();
        assert!(matches!(
            ects.fit(&mv),
            Err(EtscError::UnivariateOnly { .. })
        ));
        let ects = Ects::with_defaults();
        assert!(matches!(
            ects.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }

    #[test]
    fn final_observation_forces_prediction() {
        let d = toy();
        let mut ects = Ects::with_defaults();
        ects.fit(&d).unwrap();
        let mut stream = ects.start_stream().unwrap();
        // Feed a weird instance unlike training: must still commit at end.
        let odd = MultiSeries::univariate(Series::new(vec![9.0; 6]));
        let mut got = None;
        for l in 1..=6 {
            stream.push(&[odd.at(0, l - 1)]).unwrap();
            if let Some(lab) = stream.decide(l == 6).unwrap() {
                got = Some(lab);
                break;
            }
        }
        assert!(got.is_some());
    }

    #[test]
    fn short_training_row_is_an_error_not_a_panic() {
        let d = toy();
        let mut ects = Ects::with_defaults();
        ects.fit(&d).unwrap();
        ects.train[1].truncate(2);
        let mut stream = ects.start_stream().unwrap();
        for t in 0..2 {
            stream.push(&[d.instance(0).at(0, t)]).unwrap();
            stream.decide(false).unwrap();
        }
        stream.push(&[0.0]).unwrap();
        assert!(matches!(
            stream.decide(true),
            Err(EtscError::Ml(MlError::DimensionMismatch {
                expected: 3,
                got: 2
            }))
        ));
        assert!(stream.push(&[]).is_err());
    }

    #[test]
    fn streaming_agrees_with_one_shot() {
        let d = toy();
        let mut ects = Ects::with_defaults();
        ects.fit(&d).unwrap();
        let inst = d.instance(3);
        let one = ects.predict_early(inst).unwrap();
        let mut stream = ects.start_stream().unwrap();
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
