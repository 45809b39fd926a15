//! The `EarlyClassifier` interface, mirroring the framework's Python
//! `EarlyClassifier` abstract class (Section 5.5) with an additional
//! streaming session type for online operation.

use etsc_data::{Dataset, Label, MultiSeries};

use crate::error::EtscError;

/// The outcome of an early classification: the predicted label and how
/// many time points were consumed to produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyPrediction {
    /// Predicted dense class label.
    pub label: Label,
    /// Number of time points observed before committing (`≤` the
    /// instance length). Earliness = `prefix_len / instance_len`.
    pub prefix_len: usize,
}

/// A per-instance streaming session, fed one observation at a time.
///
/// The caller [`push`](StreamState::push)es each row as it arrives and
/// calls [`decide`](StreamState::decide) whenever it wants the prefix
/// pushed so far evaluated: after every row, or only at batch
/// boundaries. `push` appends, at amortised O(vars), folding the row
/// into at most a constant-size running state (ECO-K's k centroid
/// distances); the model's work happens in `decide`, so an
/// implementation can keep incremental state and pay for each row once
/// instead of rescanning the prefix on every evaluation.
pub trait StreamState {
    /// Appends one observation: one value per variable, in variable
    /// order. Univariate algorithms read the first value.
    ///
    /// # Errors
    /// [`EtscError::IncompatibleInstance`] or [`EtscError::Data`] on a
    /// row whose variable count the stream cannot take.
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError>;

    /// Evaluates everything pushed so far.
    ///
    /// Returns `Some(label)` when the algorithm commits to a prediction.
    /// With `is_final = true` (the last time point has arrived, or the
    /// caller forces a verdict on the prefix it has) an implementation
    /// **must** return a label once at least one row was pushed — every
    /// algorithm in the paper falls back to its full-length prediction.
    ///
    /// # Errors
    /// Propagates model failures; implementations must not panic on
    /// short prefixes.
    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError>;
}

/// An early time-series classifier.
pub trait EarlyClassifier {
    /// Algorithm display name (paper spelling, e.g. `"ECEC"`).
    fn name(&self) -> String;

    /// Trains on a labelled dataset.
    ///
    /// # Errors
    /// Validation, model, or budget failures.
    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError>;

    /// Starts a streaming session for one incoming instance.
    ///
    /// # Errors
    /// [`EtscError::NotFitted`] before `fit`.
    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError>;

    /// Classifies one (complete) test instance early: internally replays
    /// it as a stream and stops at the first committed prediction.
    ///
    /// # Errors
    /// Propagates `start_stream` / `push` / `decide` failures.
    fn predict_early(&self, instance: &MultiSeries) -> Result<EarlyPrediction, EtscError> {
        let mut stream = self.start_stream()?;
        let len = instance.len();
        let mut row = Vec::with_capacity(instance.vars());
        for t in 0..len {
            row.clear();
            row.extend((0..instance.vars()).map(|v| instance.at(v, t)));
            stream.push(&row)?;
            if let Some(label) = stream.decide(t + 1 == len)? {
                return Ok(EarlyPrediction {
                    label,
                    prefix_len: t + 1,
                });
            }
        }
        Err(EtscError::IncompatibleInstance(
            "stream returned no label at the final time point".into(),
        ))
    }

    /// `true` when the algorithm natively consumes multivariate input
    /// (otherwise it must be wrapped in [`crate::voting::VotingAdapter`]
    /// for multivariate datasets).
    fn supports_multivariate(&self) -> bool {
        false
    }
}

/// A classifier for complete (full-length) time-series, as consumed by
/// STRUT (Section 4).
pub trait FullClassifierTrait {
    /// Display name (e.g. `"MiniROCKET"`).
    fn name(&self) -> String;

    /// Trains on a labelled dataset (instances may already be truncated
    /// by the caller).
    ///
    /// # Errors
    /// Validation or model failures.
    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError>;

    /// Predicts the label of one instance whose length matches the
    /// training length.
    ///
    /// # Errors
    /// [`EtscError::NotFitted`] / incompatibility failures.
    fn predict(&self, instance: &MultiSeries) -> Result<Label, EtscError>;

    /// Class-probability vector for one instance, as consumed by
    /// decision triggers ([`crate::triggered::TriggeredClassifier`]).
    ///
    /// The default degrades a hard classifier to a one-hot vector —
    /// maximally confident in its single prediction — so every full
    /// classifier is trigger-compatible; models with real probability
    /// heads override this.
    ///
    /// # Errors
    /// Same failures as [`FullClassifierTrait::predict`].
    fn predict_proba(&self, instance: &MultiSeries) -> Result<Vec<f64>, EtscError> {
        let label = self.predict(instance)?;
        let mut probs = vec![0.0; label + 1];
        probs[label] = 1.0;
        Ok(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, Series};

    /// A trivial classifier that commits at a fixed prefix length.
    struct FixedPoint {
        at: usize,
        label: Label,
    }

    struct FixedStream {
        at: usize,
        label: Label,
        seen: usize,
    }

    impl StreamState for FixedStream {
        fn push(&mut self, _row: &[f64]) -> Result<(), EtscError> {
            self.seen += 1;
            Ok(())
        }

        fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
            if self.seen >= self.at || is_final {
                Ok(Some(self.label))
            } else {
                Ok(None)
            }
        }
    }

    impl EarlyClassifier for FixedPoint {
        fn name(&self) -> String {
            "Fixed".into()
        }
        fn fit(&mut self, _data: &Dataset) -> Result<(), EtscError> {
            Ok(())
        }
        fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
            Ok(Box::new(FixedStream {
                at: self.at,
                label: self.label,
                seen: 0,
            }))
        }
    }

    fn instance(len: usize) -> MultiSeries {
        MultiSeries::univariate(Series::new(vec![0.0; len]))
    }

    #[test]
    fn predict_early_stops_at_first_commit() {
        let clf = FixedPoint { at: 3, label: 1 };
        let p = clf.predict_early(&instance(10)).unwrap();
        assert_eq!(
            p,
            EarlyPrediction {
                label: 1,
                prefix_len: 3
            }
        );
    }

    #[test]
    fn predict_early_forces_at_final() {
        let clf = FixedPoint { at: 99, label: 0 };
        let p = clf.predict_early(&instance(5)).unwrap();
        assert_eq!(p.prefix_len, 5);
    }

    #[test]
    fn fit_and_defaults() {
        let mut clf = FixedPoint { at: 1, label: 0 };
        let mut b = DatasetBuilder::new("d");
        b.push_named(instance(4), "a");
        clf.fit(&b.build().unwrap()).unwrap();
        assert!(!clf.supports_multivariate());
    }
}
