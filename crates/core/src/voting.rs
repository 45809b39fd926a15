//! The univariate-on-multivariate voting adapter (Section 6.1).
//!
//! For every variable of a multivariate dataset, one instance of the
//! wrapped univariate algorithm is trained on that variable alone. At
//! test time each voter produces an early prediction and a
//! [`VotingScheme`] combines them.
//!
//! The paper's scheme ([`VotingScheme::Majority`]) takes the majority
//! label (ties → the first/lowest class label) with the **worst** voter's
//! earliness — the decision isn't available until the last voter commits.
//! The paper's future work asks for "the performance of alternative
//! voting schemes"; two are provided: [`VotingScheme::Earliest`] (commit
//! with the first voter that decides) and
//! [`VotingScheme::WeightedAccuracy`] (votes weighted by each voter's
//! training accuracy). The ablation harness compares all three.

use etsc_data::{Dataset, Label, MultiSeries};

use crate::error::EtscError;
use crate::traits::{EarlyClassifier, EarlyPrediction, StreamState};

/// How per-variable votes combine into one early prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VotingScheme {
    /// Majority label, worst-voter earliness (the paper's Section 6.1).
    #[default]
    Majority,
    /// The first committing voter decides alone — minimal earliness,
    /// no cross-variable corroboration.
    Earliest,
    /// Majority vote weighted by each voter's training accuracy, worst
    /// earliness; down-weights uninformative variables.
    WeightedAccuracy,
}

impl VotingScheme {
    /// Scheme display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            VotingScheme::Majority => "majority",
            VotingScheme::Earliest => "earliest",
            VotingScheme::WeightedAccuracy => "weighted-accuracy",
        }
    }
}

/// Wraps a univariate [`EarlyClassifier`] into a multivariate one.
pub struct VotingAdapter<C: EarlyClassifier> {
    /// Factory creating a fresh untrained voter.
    make: Box<dyn Fn() -> C + Send + Sync>,
    scheme: VotingScheme,
    voters: Vec<C>,
    /// Per-voter weight (training accuracy for the weighted scheme,
    /// 1.0 otherwise).
    weights: Vec<f64>,
    n_classes: usize,
    /// Thread budget for [`EarlyClassifier::fit`]: 1 = sequential
    /// (default), 0 = the machine's parallelism, n = at most n voter
    /// threads. Runners that already parallelise across matrix cells
    /// set this to their per-cell share so nested fits cannot
    /// oversubscribe the machine.
    fit_threads: usize,
}

impl<C: EarlyClassifier> VotingAdapter<C> {
    /// Creates an adapter with the paper's majority scheme.
    pub fn new(make: impl Fn() -> C + Send + Sync + 'static) -> Self {
        Self::with_scheme(make, VotingScheme::Majority)
    }

    /// Creates an adapter with an explicit voting scheme.
    pub fn with_scheme(make: impl Fn() -> C + Send + Sync + 'static, scheme: VotingScheme) -> Self {
        VotingAdapter {
            make: Box::new(make),
            scheme,
            voters: Vec::new(),
            weights: Vec::new(),
            n_classes: 0,
            fit_threads: 1,
        }
    }

    /// Sets the thread budget used by [`EarlyClassifier::fit`]: `1`
    /// trains voters sequentially (the default), `0` uses the machine's
    /// full parallelism, and any other `n` caps voter training at `n`
    /// concurrent threads. The fitted model is identical in all cases —
    /// every voter sees only its own variable and its own
    /// deterministic seed path.
    pub fn with_fit_threads(mut self, fit_threads: usize) -> Self {
        self.fit_threads = fit_threads;
        self
    }

    /// The configured fit thread budget (see
    /// [`VotingAdapter::with_fit_threads`]).
    pub fn fit_threads(&self) -> usize {
        self.fit_threads
    }

    /// Rebuilds an adapter from already-fitted voters — the model-store
    /// path, where voters are deserialized rather than trained. `make` is
    /// retained only for a potential refit.
    pub fn from_fitted(
        make: impl Fn() -> C + Send + Sync + 'static,
        scheme: VotingScheme,
        voters: Vec<C>,
        weights: Vec<f64>,
        n_classes: usize,
    ) -> Self {
        VotingAdapter {
            make: Box::new(make),
            scheme,
            voters,
            weights,
            n_classes,
            fit_threads: 1,
        }
    }

    /// Number of trained voters (= variables), 0 before fit.
    pub fn n_voters(&self) -> usize {
        self.voters.len()
    }

    /// The trained voters (empty before fit); exposed for serialization.
    pub fn voters(&self) -> &[C] {
        &self.voters
    }

    /// Class count seen at fit time (0 before fit).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The active voting scheme.
    pub fn scheme(&self) -> VotingScheme {
        self.scheme
    }

    /// Per-voter weights after fit (training accuracies for
    /// [`VotingScheme::WeightedAccuracy`], all 1.0 otherwise).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Computes a voter's weight under the active scheme.
    fn voter_weight(&self, voter: &C, projected: &Dataset) -> Result<f64, EtscError> {
        voter_weight_for(self.scheme, voter, projected)
    }

    fn combine(&self, votes: &[(Label, usize)]) -> EarlyPrediction {
        match self.scheme {
            VotingScheme::Earliest => {
                let &(label, prefix_len) = votes
                    .iter()
                    .min_by_key(|&&(_, l)| l)
                    .expect("at least one voter");
                EarlyPrediction { label, prefix_len }
            }
            VotingScheme::Majority | VotingScheme::WeightedAccuracy => {
                let labels: Vec<Label> = votes.iter().map(|&(l, _)| l).collect();
                let label = weighted_majority(&labels, &self.weights, self.n_classes);
                let prefix_len = votes.iter().map(|&(_, l)| l).max().expect("non-empty");
                EarlyPrediction { label, prefix_len }
            }
        }
    }
}

/// Weight of one voter under a scheme: its training accuracy for
/// [`VotingScheme::WeightedAccuracy`] (floored at a small epsilon so no
/// voter is silenced completely), 1.0 otherwise.
fn voter_weight_for<C: EarlyClassifier>(
    scheme: VotingScheme,
    voter: &C,
    projected: &Dataset,
) -> Result<f64, EtscError> {
    if scheme != VotingScheme::WeightedAccuracy {
        return Ok(1.0);
    }
    let mut correct = 0usize;
    for (inst, label) in projected.iter() {
        if voter.predict_early(inst)?.label == label {
            correct += 1;
        }
    }
    Ok((correct as f64 / projected.len() as f64).max(1e-3))
}

/// Weighted majority with ties resolved to the lowest label (the paper's
/// "in the case of equal votes, we select the first class label").
pub(crate) fn weighted_majority(votes: &[Label], weights: &[f64], n_classes: usize) -> Label {
    let space = n_classes.max(votes.iter().max().map_or(0, |&m| m + 1));
    let mut scores = vec![0.0f64; space];
    for (i, &v) in votes.iter().enumerate() {
        let w = weights.get(i).copied().unwrap_or(1.0);
        scores[v] += w;
    }
    let mut best = 0;
    for (label, &s) in scores.iter().enumerate() {
        if s > scores[best] + 1e-12 {
            best = label;
        }
    }
    best
}

/// Unweighted majority (all weights 1); test helper.
#[cfg(test)]
pub(crate) fn majority(votes: &[Label], n_classes: usize) -> Label {
    weighted_majority(votes, &vec![1.0; votes.len()], n_classes)
}

/// The machine's parallelism, 1 when it cannot be determined.
fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl<C: EarlyClassifier + Send> VotingAdapter<C> {
    /// Like [`EarlyClassifier::fit`], but trains the per-variable voters
    /// on parallel threads capped by the machine's parallelism. The
    /// result is identical to the sequential fit — every voter sees
    /// only its own variable and its own deterministic seed path.
    ///
    /// # Errors
    /// The first voter failure, as in the sequential fit.
    pub fn fit_parallel(&mut self, data: &Dataset) -> Result<(), EtscError> {
        self.fit_parallel_capped(data, machine_parallelism())
    }

    /// [`VotingAdapter::fit_parallel`] with an explicit thread cap:
    /// at most `max_threads` worker threads train the voters, each
    /// walking the variables with stride `max_threads`. Runners that
    /// already parallelise across matrix cells pass their per-cell
    /// thread share here so nested parallelism cannot oversubscribe
    /// the machine (one thread per variable, the previous behaviour,
    /// multiplied by a worker pool).
    ///
    /// # Errors
    /// The first voter failure, as in the sequential fit.
    pub fn fit_parallel_capped(
        &mut self,
        data: &Dataset,
        max_threads: usize,
    ) -> Result<(), EtscError> {
        self.n_classes = data.n_classes();
        self.voters.clear();
        self.weights.clear();
        let vars = data.vars();
        let workers = max_threads.max(1).min(vars.max(1));
        type Slot<C> = parking_lot::Mutex<Option<Result<(C, f64), EtscError>>>;
        let slots: Vec<Slot<C>> = (0..vars).map(|_| parking_lot::Mutex::new(None)).collect();
        let make = &self.make;
        let scheme = self.scheme;
        crossbeam::thread::scope(|scope| {
            for w in 0..workers {
                let slots = &slots;
                scope.spawn(move |_| {
                    let mut v = w;
                    while v < vars {
                        let projected = data.project_variable(v);
                        let mut voter = (make)();
                        let result = voter
                            .fit(&projected)
                            .and_then(|()| voter_weight_for(scheme, &voter, &projected))
                            .map(|wt| (voter, wt));
                        *slots[v].lock() = Some(result);
                        v += workers;
                    }
                });
            }
        })
        .map_err(|payload| crate::error::EtscError::from_panic(payload.as_ref()))?;
        for slot in slots {
            let (voter, weight) = slot.into_inner().ok_or_else(|| EtscError::Panicked {
                message: "voter thread exited without reporting a result".to_owned(),
            })??;
            self.voters.push(voter);
            self.weights.push(weight);
        }
        Ok(())
    }
}

impl<C: EarlyClassifier + Send> EarlyClassifier for VotingAdapter<C> {
    fn name(&self) -> String {
        match self.voters.first() {
            Some(v) => v.name(),
            None => ((self.make)()).name(),
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        let cap = match self.fit_threads {
            0 => machine_parallelism(),
            n => n,
        };
        if cap > 1 && data.vars() > 1 {
            return self.fit_parallel_capped(data, cap);
        }
        self.n_classes = data.n_classes();
        self.voters.clear();
        self.weights.clear();
        for v in 0..data.vars() {
            let projected = data.project_variable(v);
            let mut voter = (self.make)();
            voter.fit(&projected)?;
            let weight = self.voter_weight(&voter, &projected)?;
            self.voters.push(voter);
            self.weights.push(weight);
        }
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if self.voters.is_empty() {
            return Err(EtscError::NotFitted);
        }
        let streams = self
            .voters
            .iter()
            .map(|v| v.start_stream())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(VotingStream {
            adapter: self,
            streams,
            committed: vec![None; self.voters.len()],
            len: 0,
        }))
    }

    fn predict_early(&self, instance: &MultiSeries) -> Result<EarlyPrediction, EtscError> {
        if self.voters.is_empty() {
            return Err(EtscError::NotFitted);
        }
        if instance.vars() != self.voters.len() {
            return Err(EtscError::IncompatibleInstance(format!(
                "instance has {} variables, adapter trained on {}",
                instance.vars(),
                self.voters.len()
            )));
        }
        let mut votes = Vec::with_capacity(self.voters.len());
        for (v, voter) in self.voters.iter().enumerate() {
            let uni = MultiSeries::univariate(instance.to_univariate(v));
            let p = voter.predict_early(&uni)?;
            votes.push((p.label, p.prefix_len));
        }
        Ok(self.combine(&votes))
    }

    fn supports_multivariate(&self) -> bool {
        true
    }
}

struct VotingStream<'a, C: EarlyClassifier> {
    adapter: &'a VotingAdapter<C>,
    streams: Vec<Box<dyn StreamState + 'a>>,
    committed: Vec<Option<(Label, usize)>>,
    /// Rows pushed so far.
    len: usize,
}

impl<C: EarlyClassifier> StreamState for VotingStream<'_, C> {
    /// Pushes variable `v` into voter `v`; a voter that has committed
    /// takes no more rows.
    fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
        if row.len() != self.streams.len() {
            return Err(EtscError::IncompatibleInstance(format!(
                "observation has {} variables, adapter trained on {}",
                row.len(),
                self.streams.len()
            )));
        }
        for ((stream, committed), x) in self.streams.iter_mut().zip(&self.committed).zip(row) {
            if committed.is_none() {
                stream.push(std::slice::from_ref(x))?;
            }
        }
        self.len += 1;
        Ok(())
    }

    fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
        for (stream, committed) in self.streams.iter_mut().zip(&mut self.committed) {
            if committed.is_some() {
                continue;
            }
            if let Some(label) = stream.decide(is_final)? {
                *committed = Some((label, self.len));
            }
        }
        let done = self.committed.iter().filter(|c| c.is_some()).count();
        let ready = match self.adapter.scheme {
            VotingScheme::Earliest => done >= 1,
            _ => done == self.streams.len(),
        };
        if ready || is_final {
            let votes: Vec<(Label, usize)> = self.committed.iter().flatten().copied().collect();
            if votes.is_empty() {
                return Err(EtscError::IncompatibleInstance(
                    "no voter committed at the final time point".into(),
                ));
            }
            return Ok(Some(self.adapter.combine(&votes).label));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, Series};

    /// Test voter: commits once the prefix mean exceeds a threshold
    /// learned as the midpoint of the class means at fit time.
    #[derive(Clone)]
    struct MeanVoter {
        threshold: f64,
        commit_at: usize,
        fitted: bool,
    }

    impl MeanVoter {
        fn new(commit_at: usize) -> Self {
            MeanVoter {
                threshold: 0.0,
                commit_at,
                fitted: false,
            }
        }
    }

    struct MeanStream {
        threshold: f64,
        commit_at: usize,
        values: Vec<f64>,
    }

    impl StreamState for MeanStream {
        fn push(&mut self, row: &[f64]) -> Result<(), EtscError> {
            assert_eq!(row.len(), 1, "voters see one variable");
            self.values.push(row[0]);
            Ok(())
        }

        fn decide(&mut self, is_final: bool) -> Result<Option<Label>, EtscError> {
            if self.values.len() >= self.commit_at || is_final {
                let mean: f64 = self.values.iter().sum::<f64>() / self.values.len() as f64;
                Ok(Some(usize::from(mean > self.threshold)))
            } else {
                Ok(None)
            }
        }
    }

    impl EarlyClassifier for MeanVoter {
        fn name(&self) -> String {
            "MeanVoter".into()
        }
        fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
            let mut means = vec![Vec::new(); data.n_classes()];
            for (inst, l) in data.iter() {
                means[l].push(inst.var(0).iter().sum::<f64>() / inst.len() as f64);
            }
            let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
            self.threshold = (avg(&means[0]) + avg(&means[1])) / 2.0;
            self.fitted = true;
            Ok(())
        }
        fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
            if !self.fitted {
                return Err(EtscError::NotFitted);
            }
            Ok(Box::new(MeanStream {
                threshold: self.threshold,
                commit_at: self.commit_at,
                values: Vec::new(),
            }))
        }
    }

    fn mv_dataset() -> Dataset {
        let mut b = DatasetBuilder::new("mv");
        for i in 0..8 {
            let o = i as f64 * 0.01;
            b.push_named(
                MultiSeries::from_rows(vec![vec![0.0 + o; 6], vec![0.1 + o; 6], vec![0.2; 6]])
                    .unwrap(),
                "low",
            );
            b.push_named(
                MultiSeries::from_rows(vec![vec![5.0 + o; 6], vec![5.1; 6], vec![5.2 - o; 6]])
                    .unwrap(),
                "high",
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn majority_tie_breaks_low() {
        assert_eq!(majority(&[0, 1], 2), 0);
        assert_eq!(majority(&[1, 1, 0], 2), 1);
        assert_eq!(majority(&[2, 2, 0, 0, 1], 3), 0);
    }

    #[test]
    fn weighted_majority_respects_weights() {
        // One strong voter beats two weak ones.
        assert_eq!(weighted_majority(&[1, 0, 0], &[0.9, 0.1, 0.1], 2), 1);
        // Equal weights reduce to plain majority.
        assert_eq!(weighted_majority(&[1, 0, 0], &[0.5, 0.5, 0.5], 2), 0);
    }

    #[test]
    fn fit_trains_one_voter_per_variable() {
        let d = mv_dataset();
        let mut a = VotingAdapter::new(|| MeanVoter::new(2));
        a.fit(&d).unwrap();
        assert_eq!(a.n_voters(), 3);
        assert!(a.supports_multivariate());
        assert_eq!(a.scheme(), VotingScheme::Majority);
        assert_eq!(a.weights(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn predicts_majority_with_worst_earliness() {
        let d = mv_dataset();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let mut a = VotingAdapter::new(move || {
            let k = counter.fetch_add(1, Ordering::SeqCst);
            MeanVoter::new(2 + k * 2) // commit at 2, 4, 6
        });
        a.fit(&d).unwrap();
        let p = a.predict_early(d.instance(1)).unwrap();
        assert_eq!(d.label(1), p.label);
        assert_eq!(p.prefix_len, 6, "earliness is the worst voter's");
    }

    #[test]
    fn earliest_scheme_commits_with_first_voter() {
        let d = mv_dataset();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let mut a = VotingAdapter::with_scheme(
            move || {
                let k = counter.fetch_add(1, Ordering::SeqCst);
                MeanVoter::new(2 + k * 2)
            },
            VotingScheme::Earliest,
        );
        a.fit(&d).unwrap();
        let p = a.predict_early(d.instance(0)).unwrap();
        assert_eq!(p.prefix_len, 2, "earliest scheme uses the first commit");
        assert_eq!(p.label, d.label(0));
    }

    #[test]
    fn weighted_scheme_computes_training_accuracies() {
        let d = mv_dataset();
        let mut a =
            VotingAdapter::with_scheme(|| MeanVoter::new(2), VotingScheme::WeightedAccuracy);
        a.fit(&d).unwrap();
        assert_eq!(a.weights().len(), 3);
        // All variables are informative here: weights near 1.
        assert!(a.weights().iter().all(|&w| w > 0.9), "{:?}", a.weights());
        let p = a.predict_early(d.instance(2)).unwrap();
        assert_eq!(p.label, d.label(2));
    }

    #[test]
    fn streaming_matches_one_shot_for_all_schemes() {
        let d = mv_dataset();
        for scheme in [
            VotingScheme::Majority,
            VotingScheme::Earliest,
            VotingScheme::WeightedAccuracy,
        ] {
            let mut a = VotingAdapter::with_scheme(|| MeanVoter::new(3), scheme);
            a.fit(&d).unwrap();
            let inst = d.instance(0);
            let one_shot = a.predict_early(inst).unwrap();
            let mut stream = a.start_stream().unwrap();
            let mut streamed = None;
            for l in 1..=inst.len() {
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, l - 1)).collect();
                stream.push(&row).unwrap();
                if let Some(label) = stream.decide(l == inst.len()).unwrap() {
                    streamed = Some((label, l));
                    break;
                }
            }
            let (label, l) = streamed.unwrap();
            assert_eq!(label, one_shot.label, "{scheme:?}");
            assert_eq!(l, one_shot.prefix_len, "{scheme:?}");
        }
    }

    #[test]
    fn unfitted_and_mismatch_errors() {
        let a = VotingAdapter::new(|| MeanVoter::new(1));
        assert!(matches!(a.start_stream().err(), Some(EtscError::NotFitted)));
        let d = mv_dataset();
        let mut a = VotingAdapter::new(|| MeanVoter::new(1));
        a.fit(&d).unwrap();
        let wrong = MultiSeries::univariate(Series::new(vec![0.0; 6]));
        assert!(a.predict_early(&wrong).is_err());
        let mut stream = a.start_stream().unwrap();
        assert!(matches!(
            stream.push(&[0.0]),
            Err(EtscError::IncompatibleInstance(_))
        ));
    }

    /// Voter that records the peak number of concurrently running fits.
    #[derive(Clone)]
    struct TrackingVoter {
        inner: MeanVoter,
        active: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        peak: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl EarlyClassifier for TrackingVoter {
        fn name(&self) -> String {
            "TrackingVoter".into()
        }
        fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
            use std::sync::atomic::Ordering;
            let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(15));
            let result = self.inner.fit(data);
            self.active.fetch_sub(1, Ordering::SeqCst);
            result
        }
        fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
            self.inner.start_stream()
        }
    }

    #[test]
    fn capped_parallel_fit_respects_thread_budget_and_matches_sequential() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let d = mv_dataset();
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (a2, p2) = (active.clone(), peak.clone());
        let mut capped = VotingAdapter::new(move || TrackingVoter {
            inner: MeanVoter::new(2),
            active: a2.clone(),
            peak: p2.clone(),
        });
        capped.fit_parallel_capped(&d, 2).unwrap();
        let observed = peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            (1..=2).contains(&observed),
            "3 variables under a budget of 2 threads ran {observed} fits at once"
        );
        let mut seq = VotingAdapter::new(|| MeanVoter::new(2));
        seq.fit(&d).unwrap();
        assert_eq!(capped.n_voters(), seq.n_voters());
        for i in 0..d.len() {
            assert_eq!(
                capped.predict_early(d.instance(i)).unwrap(),
                seq.predict_early(d.instance(i)).unwrap(),
                "capped parallel fit must be prediction-identical to sequential"
            );
        }
    }

    #[test]
    fn fit_threads_budget_routes_trait_fit_through_parallel_path() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let d = mv_dataset();
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (a2, p2) = (active.clone(), peak.clone());
        let mut a = VotingAdapter::new(move || TrackingVoter {
            inner: MeanVoter::new(2),
            active: a2.clone(),
            peak: p2.clone(),
        })
        .with_fit_threads(2);
        assert_eq!(a.fit_threads(), 2);
        a.fit(&d).unwrap();
        assert_eq!(a.n_voters(), 3);
        assert!(
            peak.load(std::sync::atomic::Ordering::SeqCst) <= 2,
            "trait fit must honour the configured thread budget"
        );
        let p = a.predict_early(d.instance(0)).unwrap();
        assert_eq!(p.label, d.label(0));
    }

    #[test]
    fn parallel_fit_surfaces_voter_panic_as_error() {
        let d = mv_dataset();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let mut a = VotingAdapter::new(move || {
            if counter.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected voter failure");
            }
            MeanVoter::new(2)
        });
        let err = a.fit_parallel(&d).unwrap_err();
        match err {
            EtscError::Panicked { message } => {
                assert!(message.contains("injected voter failure"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(VotingScheme::Majority.name(), "majority");
        assert_eq!(VotingScheme::Earliest.name(), "earliest");
        assert_eq!(VotingScheme::WeightedAccuracy.name(), "weighted-accuracy");
    }
}
