//! Per-series streaming sessions.
//!
//! A [`StreamSession`] owns the server-side state of one incoming time
//! series: the observations buffered so far, the algorithm's
//! [`StreamState`], and the latency of every re-evaluation. Observations
//! arrive one multivariate row at a time and are pushed straight into
//! the stream; the session asks it to decide either per point or per
//! prefix batch — ECEC and TEASER only re-evaluate once a whole `L/N`
//! batch has arrived, the same batch credit [`etsc_eval::online`]
//! grants them in Figure 13.

use std::time::{Duration, Instant};

use etsc_core::{EarlyClassifier, EarlyPrediction, EtscError, StreamState};
use etsc_obs::Histogram as LatencyHistogram;

/// Streaming state for one time series being classified early.
pub struct StreamSession<'m> {
    stream: Box<dyn StreamState + 'm>,
    /// Buffered observations, one inner vector per variable (what
    /// [`StreamSession::series`] hands to feedback refits; the stream
    /// keeps its own state).
    values: Vec<Vec<f64>>,
    expected_len: usize,
    batch: usize,
    decided: Option<EarlyPrediction>,
    evals: usize,
    latency: LatencyHistogram,
    deadline: Option<Duration>,
    /// Answers a deadline-forced decision whose evaluation abstained.
    prior_label: usize,
    forced: bool,
    deadline_breaches: usize,
    truth: Option<usize>,
}

impl<'m> StreamSession<'m> {
    /// Opens a session against a fitted model.
    ///
    /// `vars` is the number of variables per observation, `expected_len`
    /// the full series length (so the final observation can force a
    /// decision), and `batch` the re-evaluation granularity in points
    /// (1 = per point; [`crate::store::ModelMeta::algo`]'s
    /// `decision_batch` for ECEC/TEASER).
    ///
    /// # Errors
    /// [`EtscError::NotFitted`] when the model has not been trained.
    pub fn new(
        model: &'m dyn EarlyClassifier,
        vars: usize,
        expected_len: usize,
        batch: usize,
    ) -> Result<StreamSession<'m>, EtscError> {
        Ok(StreamSession {
            stream: model.start_stream()?,
            values: vec![Vec::with_capacity(expected_len); vars.max(1)],
            expected_len: expected_len.max(1),
            batch: batch.max(1),
            decided: None,
            evals: 0,
            latency: LatencyHistogram::new(),
            deadline: None,
            prior_label: 0,
            forced: false,
            deadline_breaches: 0,
            truth: None,
        })
    }

    /// Arms (or disarms) the per-evaluation decision deadline. Breaches
    /// are counted in the session's latency histogram, and a breach
    /// before the final observation forces a decision on the observed
    /// prefix (see [`StreamSession::force_decide`]); `prior_label`
    /// answers only when that forced evaluation abstains.
    pub fn set_deadline(&mut self, deadline: Option<Duration>, prior_label: usize) {
        self.deadline = deadline;
        self.prior_label = prior_label;
    }

    /// `true` when the committed decision was forced — by a deadline
    /// breach or [`StreamSession::force_decide`] — rather than the
    /// algorithm's own trigger.
    pub fn forced(&self) -> bool {
        self.forced
    }

    /// Evaluations that exceeded the armed deadline.
    pub fn deadline_breaches(&self) -> usize {
        self.deadline_breaches
    }

    /// Points observed so far.
    pub fn observed(&self) -> usize {
        self.values[0].len()
    }

    /// The committed prediction, once the trigger has fired.
    pub fn decision(&self) -> Option<EarlyPrediction> {
        self.decided
    }

    /// `true` once a prediction has been committed; later observations
    /// are ignored.
    pub fn is_done(&self) -> bool {
        self.decided.is_some()
    }

    /// Number of re-evaluations performed.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Per-re-evaluation decision latencies (seconds).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The buffered observations, one inner slice per variable — what
    /// an adaptation layer captures as a labeled refit example once
    /// ground truth arrives.
    pub fn series(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Reports the ground-truth label after the fact (label feedback:
    /// the true class became known once the stream completed). Returns
    /// whether the committed decision was correct, or `None` while the
    /// session is still undecided — feedback only grades a decision
    /// that was actually made.
    pub fn feedback(&mut self, truth: usize) -> Option<bool> {
        let decided = self.decided?;
        self.truth = Some(truth);
        Some(decided.label == truth)
    }

    /// The fed-back ground truth, once reported.
    pub fn truth(&self) -> Option<usize> {
        self.truth
    }

    /// Whether the committed decision matched the fed-back truth;
    /// `None` until both exist.
    pub fn correct(&self) -> Option<bool> {
        let decided = self.decided?;
        Some(decided.label == self.truth?)
    }

    /// Feeds one observation (one value per variable) and re-evaluates
    /// when the batch boundary — or the final point — is reached.
    ///
    /// Returns the prediction when this observation triggered the
    /// commit; afterwards the session is done and further observations
    /// are no-ops.
    ///
    /// # Errors
    /// [`EtscError::IncompatibleInstance`] on a wrong-arity observation;
    /// otherwise whatever the algorithm's `push` or `decide` propagates.
    pub fn push(&mut self, observation: &[f64]) -> Result<Option<EarlyPrediction>, EtscError> {
        self.push_with_delay(observation, None)
    }

    /// [`StreamSession::push`] with an artificial evaluation delay
    /// injected *inside* the timed region — the fault-injection hook
    /// used by chaos testing to make a fast algorithm miss its
    /// deadline on demand.
    ///
    /// # Errors
    /// See [`StreamSession::push`].
    pub fn push_with_delay(
        &mut self,
        observation: &[f64],
        injected_delay: Option<Duration>,
    ) -> Result<Option<EarlyPrediction>, EtscError> {
        if self.decided.is_some() {
            return Ok(None);
        }
        if observation.len() != self.values.len() {
            return Err(EtscError::IncompatibleInstance(format!(
                "observation has {} variables, session expects {}",
                observation.len(),
                self.values.len()
            )));
        }
        for (var, &x) in self.values.iter_mut().zip(observation) {
            var.push(x);
        }
        self.stream.push(observation)?;
        let t = self.values[0].len();
        let is_final = t >= self.expected_len;
        if !t.is_multiple_of(self.batch) && !is_final {
            return Ok(None);
        }
        let started = Instant::now();
        if let Some(delay) = injected_delay {
            std::thread::sleep(delay);
        }
        let label = self.stream.decide(is_final)?;
        let breached = self.record_eval(started.elapsed().as_secs_f64(), self.deadline);
        // Deadline breach: the budget expired, so the consumer is owed a
        // decision now, made on the observed prefix — the breaching
        // evaluation's own label when it produced one. The final
        // observation is exempt: `decide(true)` already was the forced
        // evaluation and the stream is over.
        if breached && !is_final {
            // One breach per session: the forced evaluation answering
            // it is not checked against the deadline again.
            return self.commit_forced(label, self.prior_label, None).map(Some);
        }
        if let Some(label) = label {
            return Ok(Some(self.commit(label, t, false)));
        }
        Ok(None)
    }

    /// Forces a decision on the prefix observed so far — the graceful-
    /// drain path: the stream is shutting down before the series
    /// completed, so the algorithm is asked for its current best,
    /// falling back to `prior_label` when the forced evaluation yields
    /// nothing (or nothing was observed at all). Idempotent: an
    /// already-decided session returns its committed prediction.
    ///
    /// # Errors
    /// Whatever the algorithm's forced `decide` propagates.
    pub fn force_decide(&mut self, prior_label: usize) -> Result<EarlyPrediction, EtscError> {
        if let Some(p) = self.decided {
            return Ok(p);
        }
        self.commit_forced(None, prior_label, self.deadline)
    }

    /// The one forced-decision path: commits `current` (a label the
    /// caller's evaluation already produced) or else the algorithm's
    /// forced verdict on the observed prefix, timed against `deadline`,
    /// falling back to `prior_label` when even that abstains or nothing
    /// was observed.
    fn commit_forced(
        &mut self,
        current: Option<usize>,
        prior_label: usize,
        deadline: Option<Duration>,
    ) -> Result<EarlyPrediction, EtscError> {
        let label = match current {
            Some(label) => label,
            None if self.observed() == 0 => prior_label,
            None => {
                let started = Instant::now();
                let forced = self.stream.decide(true)?;
                self.record_eval(started.elapsed().as_secs_f64(), deadline);
                forced.unwrap_or(prior_label)
            }
        };
        Ok(self.commit(label, self.observed(), true))
    }

    /// Records one evaluation latency (against `deadline`, if any) and
    /// reports whether it breached.
    fn record_eval(&mut self, secs: f64, deadline: Option<Duration>) -> bool {
        self.evals += 1;
        match deadline {
            Some(deadline) => {
                let breached = self
                    .latency
                    .record_with_deadline(secs, deadline.as_secs_f64());
                if breached {
                    self.deadline_breaches += 1;
                }
                breached
            }
            None => {
                self.latency.record(secs);
                false
            }
        }
    }

    fn commit(&mut self, label: usize, prefix_len: usize, forced: bool) -> EarlyPrediction {
        let prediction = EarlyPrediction { label, prefix_len };
        self.decided = Some(prediction);
        self.forced = forced;
        prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
    use etsc_eval::experiment::{AlgoSpec, RunConfig};

    fn synthetic() -> Dataset {
        let mut b = DatasetBuilder::new("synthetic");
        for i in 0..12 {
            let (class, base) = if i % 2 == 0 {
                ("up", 1.0)
            } else {
                ("down", -1.0)
            };
            let values: Vec<f64> = (0..20)
                .map(|t| base * (t as f64 + i as f64 * 0.1))
                .collect();
            b.push_named(MultiSeries::univariate(Series::new(values)), class);
        }
        b.build().unwrap()
    }

    #[test]
    fn session_matches_predict_early() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        for inst in data.instances() {
            let offline = model.predict_early(inst).unwrap();
            let mut session = StreamSession::new(&*model, inst.vars(), inst.len(), 1).unwrap();
            let mut live = None;
            for t in 0..inst.len() {
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                if let Some(p) = session.push(&row).unwrap() {
                    live = Some(p);
                    break;
                }
            }
            assert_eq!(live, Some(offline));
            assert!(session.is_done());
            assert!(session.evals() > 0);
            assert_eq!(session.latency().len(), session.evals());
        }
    }

    #[test]
    fn batched_session_evaluates_fewer_times() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        let run = |batch: usize| {
            let mut s = StreamSession::new(&*model, 1, inst.len(), batch).unwrap();
            for t in 0..inst.len() {
                if s.push(&[inst.at(0, t)]).unwrap().is_some() {
                    break;
                }
            }
            (s.evals(), s.decision())
        };
        let (evals_per_point, d1) = run(1);
        let (evals_batched, d2) = run(5);
        assert!(evals_batched <= evals_per_point);
        assert!(d1.is_some() && d2.is_some());
        // A batched session can only commit on batch boundaries (or the
        // final point).
        let p = d2.unwrap().prefix_len;
        assert!(p % 5 == 0 || p == inst.len(), "prefix_len {p}");
    }

    #[test]
    fn deadline_breach_forces_a_decision_on_the_observed_prefix() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        // The forced verdict on one row: the breaching `decide(false)`'s
        // own label, or else `decide(true)` on the same prefix.
        let mut reference = model.start_stream().unwrap();
        reference.push(&[inst.at(0, 0)]).unwrap();
        let expected = match reference.decide(false).unwrap() {
            Some(label) => label,
            None => reference.decide(true).unwrap().unwrap(),
        };
        // A 20ms injected delay breaches both deadlines. Under 1µs the
        // forced evaluation that answers the breach overruns it too,
        // and must not count as a second breach.
        for deadline in [Duration::from_millis(5), Duration::from_micros(1)] {
            let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
            // A prior no class carries: it must not answer, since the
            // forced evaluation on an observed row yields a label.
            s.set_deadline(Some(deadline), 99);
            let p = s
                .push_with_delay(&[inst.at(0, 0)], Some(Duration::from_millis(20)))
                .unwrap()
                .expect("a breach commits immediately");
            assert_eq!(
                p,
                EarlyPrediction {
                    label: expected,
                    prefix_len: 1
                },
                "deadline {deadline:?}"
            );
            assert!(s.forced());
            assert_eq!(s.deadline_breaches(), 1, "deadline {deadline:?}");
            assert_eq!(s.latency().over_deadline(), 1, "deadline {deadline:?}");
            assert!(s.is_done());
        }
    }

    #[test]
    fn force_decide_commits_on_drain_and_is_idempotent() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        // Nothing observed yet: the drain answers with the prior class.
        let mut empty = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        let p = empty.force_decide(1).unwrap();
        assert_eq!((p.label, p.prefix_len), (1, 0));
        assert!(empty.forced() && empty.is_done());
        // A partially-observed session is forced on its prefix.
        let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        for t in 0..3 {
            if s.push(&[inst.at(0, t)]).unwrap().is_some() {
                break;
            }
        }
        let observed = s.observed();
        let p = s.force_decide(0).unwrap();
        assert!(s.is_done());
        assert_eq!(p.prefix_len, observed);
        // Idempotent: a second drain returns the committed prediction.
        assert_eq!(s.force_decide(0).unwrap(), p);
    }

    #[test]
    fn wrong_arity_is_rejected_and_done_sessions_ignore_input() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        assert!(s.push(&[1.0, 2.0]).is_err());
        for t in 0..inst.len() {
            s.push(&[inst.at(0, t)]).unwrap();
        }
        assert!(s.is_done());
        let evals = s.evals();
        assert_eq!(s.push(&[0.0]).unwrap(), None);
        assert_eq!(s.evals(), evals);
    }
}
