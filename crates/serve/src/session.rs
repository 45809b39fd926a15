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

/// What a session does when a re-evaluation misses its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Count the breach but keep waiting for the algorithm's own
    /// trigger — latency-tolerant consumers accept a late result.
    Wait,
    /// Commit the training prior class immediately: the cheapest
    /// always-available baseline verdict. A genuine label the breaching
    /// evaluation produces late is discarded — the consumer was already
    /// answered when the budget expired.
    PriorClass,
    /// Force the algorithm to decide on the data seen so far (its
    /// current best — the "last confident prediction" it would commit
    /// if the stream ended now); falls back to the prior class when
    /// even a forced evaluation yields nothing.
    DecideNow,
}

/// Per-evaluation decision deadline and the degraded-mode behaviour
/// applied on a breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// Budget for one re-evaluation.
    pub deadline: Duration,
    /// What to do when the budget is exceeded.
    pub policy: FallbackPolicy,
    /// Dense label committed by [`FallbackPolicy::PriorClass`] (and by
    /// [`FallbackPolicy::DecideNow`] when the forced evaluation stays
    /// undecided). [`crate::replay_dataset`] fills this with the stored
    /// model's training prior.
    pub prior_label: usize,
}

/// Why a committed decision was a degraded-mode fallback rather than
/// the algorithm's own trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackKind {
    /// Deadline breach answered with the training prior class.
    DeadlinePrior,
    /// Deadline breach answered by forcing the algorithm to decide on
    /// the observed prefix.
    DeadlineForced,
    /// Graceful drain answered with the training prior class because
    /// the forced evaluation yielded nothing (or nothing was observed).
    DrainPrior,
    /// Graceful drain answered by forcing the algorithm to decide on
    /// the observed prefix.
    DrainForced,
}

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
    deadline: Option<DeadlineConfig>,
    fallback: Option<FallbackKind>,
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
            fallback: None,
            deadline_breaches: 0,
            truth: None,
        })
    }

    /// Arms (or disarms) the per-evaluation decision deadline. Breaches
    /// are counted in the session's latency histogram and answered
    /// according to the configured [`FallbackPolicy`].
    pub fn set_deadline(&mut self, deadline: Option<DeadlineConfig>) {
        self.deadline = deadline;
    }

    /// Why the committed decision was a fallback, when it was one.
    pub fn fallback(&self) -> Option<FallbackKind> {
        self.fallback
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
        let breached = self.record_eval(started.elapsed().as_secs_f64());
        // Deadline breach: the consumer was answered per policy at the
        // moment the budget expired, so a genuine label arriving late
        // cannot un-send that verdict — it is discarded (`PriorClass`)
        // or adopted as the forced current-best (`DecideNow`). Only
        // `Wait` accepts the late result. The final observation never
        // falls back — `decide(true)` was already the forced
        // evaluation and the stream is over.
        if let (true, false, Some(cfg)) = (breached, is_final, self.deadline) {
            match cfg.policy {
                FallbackPolicy::Wait => {}
                FallbackPolicy::PriorClass => {
                    return Ok(Some(self.commit(
                        cfg.prior_label,
                        t,
                        Some(FallbackKind::DeadlinePrior),
                    )));
                }
                FallbackPolicy::DecideNow => {
                    // The breaching evaluation itself may already have
                    // produced the algorithm's current best.
                    return self.commit_forced(label, cfg.prior_label, false).map(Some);
                }
            }
        }
        if let Some(label) = label {
            return Ok(Some(self.commit(label, t, None)));
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
        if self.observed() == 0 {
            return Ok(self.commit(prior_label, 0, Some(FallbackKind::DrainPrior)));
        }
        self.commit_forced(None, prior_label, true)
    }

    /// The one forced-decision path: commits `current` (a label the
    /// caller's evaluation already produced) or else the algorithm's
    /// forced verdict on the observed prefix, falling back to
    /// `prior_label` when even that abstains. `drain` picks the
    /// `Drain*` kinds over the `Deadline*` ones.
    fn commit_forced(
        &mut self,
        current: Option<usize>,
        prior_label: usize,
        drain: bool,
    ) -> Result<EarlyPrediction, EtscError> {
        let label = match current {
            Some(label) => Some(label),
            None => {
                let started = Instant::now();
                let forced = self.stream.decide(true)?;
                self.record_eval(started.elapsed().as_secs_f64());
                forced
            }
        };
        let (label, kind) = match (label, drain) {
            (Some(label), false) => (label, FallbackKind::DeadlineForced),
            (Some(label), true) => (label, FallbackKind::DrainForced),
            (None, false) => (prior_label, FallbackKind::DeadlinePrior),
            (None, true) => (prior_label, FallbackKind::DrainPrior),
        };
        Ok(self.commit(label, self.observed(), Some(kind)))
    }

    /// Records one evaluation latency (against the armed deadline, if
    /// any) and reports whether it breached.
    fn record_eval(&mut self, secs: f64) -> bool {
        self.evals += 1;
        match self.deadline {
            Some(cfg) => {
                let breached = self
                    .latency
                    .record_with_deadline(secs, cfg.deadline.as_secs_f64());
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

    fn commit(
        &mut self,
        label: usize,
        prefix_len: usize,
        fallback: Option<FallbackKind>,
    ) -> EarlyPrediction {
        let prediction = EarlyPrediction { label, prefix_len };
        self.decided = Some(prediction);
        self.fallback = fallback;
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
    fn injected_delay_breaches_deadline_and_prior_fallback_commits() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        s.set_deadline(Some(DeadlineConfig {
            deadline: Duration::from_micros(1),
            policy: FallbackPolicy::PriorClass,
            prior_label: 1,
        }));
        // A 20ms injected delay against a 1µs deadline must breach.
        let p = s
            .push_with_delay(&[inst.at(0, 0)], Some(Duration::from_millis(20)))
            .unwrap()
            .expect("prior-class fallback commits immediately");
        assert_eq!(p.label, 1);
        assert_eq!(p.prefix_len, 1);
        assert_eq!(s.fallback(), Some(FallbackKind::DeadlinePrior));
        assert_eq!(s.deadline_breaches(), 1);
        assert_eq!(s.latency().over_deadline(), 1);
        assert!(s.is_done());
    }

    #[test]
    fn decide_now_fallback_forces_the_algorithms_current_best() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        // The offline decision on the full series = the forced verdict
        // ceiling; forcing early must still yield a valid label.
        let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        s.set_deadline(Some(DeadlineConfig {
            deadline: Duration::from_micros(1),
            policy: FallbackPolicy::DecideNow,
            prior_label: 0,
        }));
        let p = s
            .push_with_delay(&[inst.at(0, 0)], Some(Duration::from_millis(20)))
            .unwrap()
            .expect("decide-now fallback commits");
        assert!(matches!(
            s.fallback(),
            Some(FallbackKind::DeadlineForced | FallbackKind::DeadlinePrior)
        ));
        assert_eq!(p.prefix_len, 1);
        assert!(s.is_done());
    }

    #[test]
    fn wait_policy_only_counts_breaches() {
        let data = synthetic();
        let mut model = AlgoSpec::Ects.build(&data, &RunConfig::fast());
        model.fit(&data).unwrap();
        let inst = data.instance(0);
        let mut s = StreamSession::new(&*model, 1, inst.len(), 1).unwrap();
        s.set_deadline(Some(DeadlineConfig {
            deadline: Duration::from_micros(1),
            policy: FallbackPolicy::Wait,
            prior_label: 0,
        }));
        let p = s
            .push_with_delay(&[inst.at(0, 0)], Some(Duration::from_millis(5)))
            .unwrap();
        // ECTS does not commit on a single point of this series; Wait
        // keeps the session open despite the breach.
        if p.is_none() {
            assert!(!s.is_done());
        }
        assert!(s.deadline_breaches() >= 1);
        // Wait never commits a fallback verdict.
        assert_eq!(s.fallback(), None);
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
        assert_eq!(empty.fallback(), Some(FallbackKind::DrainPrior));
        assert!(empty.is_done());
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
