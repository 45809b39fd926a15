//! The trigger axis of the evaluation matrix: (dataset × base
//! classifier × trigger) cells.
//!
//! The paper's grid (Figures 9–13) fixes each algorithm's built-in
//! stopping rule; this axis decouples them. Every cell wraps one of
//! the probability-emitting full classifiers in an
//! [`etsc_core::TriggeredClassifier`] driven by an
//! [`etsc_trigger::TriggerSpec`], and reports the same
//! accuracy/earliness/harmonic-mean metrics as the algorithm axis so
//! trigger families are directly comparable to the paper's built-in
//! rules. Runs go through [`crate::runner::MatrixRunner::run_triggered`]
//! to inherit the supervisor (panic isolation, retries, worker pool,
//! observability); journaling is disabled on this axis because journal
//! keys do not carry the trigger dimension.

use etsc_core::full::{MiniRocketClassifierConfig, MlstmClassifierConfig, WeaselClassifierConfig};
use etsc_core::{
    EarlyClassifier, EtscError, MiniRocketClassifier, MlstmClassifier, TriggeredBase,
    TriggeredClassifier, TriggeredConfig, WeaselClassifier,
};
use etsc_data::Dataset;
use etsc_obs::Obs;
use etsc_trigger::TriggerSpec;

use crate::experiment::{run_cell_inner, AlgoSpec, RunConfig, RunResult};
use crate::metrics::Metrics;
use crate::supervisor::CellOutcome;

/// The pseudo algorithm slot a base occupies when the trigger axis
/// rides on the algorithm-axis machinery (injective per base; the slot
/// only labels supervisor events, never results).
pub(crate) fn pseudo_algo(base: TriggeredBase) -> AlgoSpec {
    match base {
        TriggeredBase::MiniRocket => AlgoSpec::SMini,
        TriggeredBase::Weasel => AlgoSpec::SWeasel,
        TriggeredBase::Mlstm => AlgoSpec::SMlstm,
    }
}

/// Inverse of [`pseudo_algo`].
pub(crate) fn base_of(algo: AlgoSpec) -> TriggeredBase {
    match algo {
        AlgoSpec::SMini => TriggeredBase::MiniRocket,
        AlgoSpec::SMlstm => TriggeredBase::Mlstm,
        _ => TriggeredBase::Weasel,
    }
}

/// The snapshot-checkpoint configuration derived from a run profile.
pub fn triggered_config(config: &RunConfig) -> TriggeredConfig {
    TriggeredConfig {
        seed: config.seed,
        ..TriggeredConfig::default()
    }
}

/// Builds an untrained trigger-wrapped classifier for one cell, with
/// the base hyper-parameters taken from the run profile (the same
/// derivations the algorithm axis uses for the STRUT substrates).
pub fn build_triggered_cell(
    base: TriggeredBase,
    spec: &TriggerSpec,
    config: &RunConfig,
) -> Box<dyn EarlyClassifier> {
    let tcfg = triggered_config(config);
    let c = config.clone();
    match base {
        TriggeredBase::MiniRocket => Box::new(TriggeredClassifier::new(
            base.name(),
            tcfg,
            spec.clone(),
            move || {
                MiniRocketClassifier::new(MiniRocketClassifierConfig {
                    transform: c.minirocket_config(),
                    ..MiniRocketClassifierConfig::default()
                })
            },
        )),
        TriggeredBase::Weasel => Box::new(TriggeredClassifier::new(
            base.name(),
            tcfg,
            spec.clone(),
            move || {
                WeaselClassifier::new(WeaselClassifierConfig {
                    weasel: c.weasel_config(),
                    logistic: c.logistic_config(),
                })
            },
        )),
        TriggeredBase::Mlstm => Box::new(TriggeredClassifier::new(
            base.name(),
            tcfg,
            spec.clone(),
            move || {
                MlstmClassifier::new(MlstmClassifierConfig {
                    network: c.mlstm_config(),
                    lstm_grid: c.mlstm_lstm_grid.clone(),
                })
            },
        )),
    }
}

/// Runs one (base × trigger) cell on one dataset with the same
/// stratified-CV engine, budget handling, and instrumentation as
/// [`crate::experiment::run_cell`].
///
/// # Errors
/// Data/model failures other than budget overruns (which record a DNF).
pub fn run_triggered_cell(
    base: TriggeredBase,
    spec: &TriggerSpec,
    dataset: &Dataset,
    config: &RunConfig,
    obs: &Obs,
) -> Result<RunResult, EtscError> {
    let display = format!("{}+{}", base.name(), spec.kind.name());
    etsc_obs::with_ambient(obs, || {
        run_cell_inner(
            pseudo_algo(base),
            &display,
            &|_d, c| build_triggered_cell(base, spec, c),
            dataset,
            config,
            obs,
        )
    })
}

/// Result of one (dataset × base × trigger) cell, with supervisor
/// failures folded in as data instead of terminating the sweep.
#[derive(Debug, Clone)]
pub struct TriggerCellResult {
    /// Dataset name.
    pub dataset: String,
    /// Base classifier (registry spelling).
    pub base: &'static str,
    /// Canonical trigger spec string.
    pub trigger: String,
    /// Averaged metrics; `None` on DNF or failure.
    pub metrics: Option<Metrics>,
    /// Mean wall-clock training time per fold, seconds.
    pub train_secs: f64,
    /// Mean wall-clock testing time per instance, seconds.
    pub test_secs_per_instance: f64,
    /// `true` when training exceeded the budget.
    pub dnf: bool,
    /// Supervisor-level failure (cell error or panic), if any.
    pub error: Option<String>,
}

impl TriggerCellResult {
    /// Harmonic mean of accuracy and (1 − earliness), when the cell
    /// finished.
    pub fn harmonic_mean(&self) -> Option<f64> {
        self.metrics.as_ref().map(|m| m.harmonic_mean)
    }

    pub(crate) fn from_outcome(
        dataset: &str,
        base: TriggeredBase,
        spec: &TriggerSpec,
        outcome: CellOutcome,
    ) -> TriggerCellResult {
        let mut result = TriggerCellResult {
            dataset: dataset.to_owned(),
            base: base.name(),
            trigger: spec.canonical(),
            metrics: None,
            train_secs: 0.0,
            test_secs_per_instance: 0.0,
            dnf: false,
            error: None,
        };
        match outcome {
            CellOutcome::Finished(r) => {
                result.metrics = r.metrics;
                result.train_secs = r.train_secs;
                result.test_secs_per_instance = r.test_secs_per_instance;
                result.dnf = r.dnf;
            }
            CellOutcome::Failed { error, .. } => result.error = Some(error),
            CellOutcome::Panicked { message, .. } => {
                result.error = Some(format!("panic: {message}"))
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    /// Classes separable from t = 2 of 24, so a correct early halt is
    /// the right answer at every checkpoint.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..14 {
            let phase = i as f64 * 0.37;
            let mut a = vec![0.0; 24];
            let mut c = vec![0.0; 24];
            for t in 0..24 {
                let base = ((t as f64 * 0.8) + phase).sin() * 0.2;
                a[t] = base + if t >= 2 { 2.0 } else { 0.0 };
                c[t] = base - if t >= 2 { 2.0 } else { 0.0 };
            }
            b.push_named(MultiSeries::univariate(Series::new(a)), "up");
            b.push_named(MultiSeries::univariate(Series::new(c)), "down");
        }
        b.build().unwrap()
    }

    #[test]
    fn pseudo_algo_roundtrips() {
        for base in TriggeredBase::ALL {
            assert_eq!(base_of(pseudo_algo(base)), base);
        }
    }

    #[test]
    fn triggered_cell_reports_hm_metrics() {
        let d = toy();
        let spec = TriggerSpec::parse("threshold:0.7").unwrap();
        let r = run_triggered_cell(
            TriggeredBase::Weasel,
            &spec,
            &d,
            &RunConfig::fast(),
            &Obs::disabled(),
        )
        .unwrap();
        assert!(!r.dnf);
        let m = r.metrics.unwrap();
        assert!(m.accuracy > 0.7, "accuracy {}", m.accuracy);
        assert!(m.harmonic_mean > 0.0);
        assert!(m.earliness <= 1.0);
    }

    /// The registry audit: every registered (base × trigger) combo must
    /// construct from its own default spec, fit, and survive one full
    /// streamed series — committing a valid label at some timestamp.
    #[test]
    fn every_registered_combo_survives_a_streamed_series() {
        let d = toy();
        let config = RunConfig::fast();
        for combo in etsc_core::registry::trigger_combos() {
            let base = TriggeredBase::parse(combo.base)
                .unwrap_or_else(|| panic!("unparseable base in registry: {}", combo.base));
            let spec = TriggerSpec::parse(&combo.default_spec)
                .unwrap_or_else(|e| panic!("bad default spec for {}: {e}", combo.name()));
            let mut clf = build_triggered_cell(base, &spec, &config);
            clf.fit(&d)
                .unwrap_or_else(|e| panic!("{} failed to fit: {e}", combo.name()));
            let inst = d.instance(0);
            let mut stream = clf.start_stream().unwrap();
            let mut decided = None;
            for t in 1..=inst.len() {
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t - 1)).collect();
                stream
                    .push(&row)
                    .unwrap_or_else(|e| panic!("{} failed at t={t}: {e}", combo.name()));
                if let Some(label) = stream
                    .decide(t == inst.len())
                    .unwrap_or_else(|e| panic!("{} failed at t={t}: {e}", combo.name()))
                {
                    decided = Some((label, t));
                    break;
                }
            }
            let (label, t) =
                decided.unwrap_or_else(|| panic!("{} never committed a decision", combo.name()));
            assert!(label < d.n_classes(), "{}: label {label}", combo.name());
            assert!(t >= 1 && t <= inst.len(), "{}: halted at {t}", combo.name());
        }
    }

    #[test]
    fn matrix_gains_a_trigger_axis() {
        let d = vec![toy()];
        let specs = vec![
            TriggerSpec::parse("threshold:0.7").unwrap(),
            TriggerSpec::parse("patience:2").unwrap(),
        ];
        let results = crate::runner::MatrixRunner::new(RunConfig::fast())
            .run_triggered(&d, &[TriggeredBase::Weasel], &specs)
            .unwrap();
        assert_eq!(results.len(), 2);
        for (r, spec) in results.iter().zip(&specs) {
            assert_eq!(r.dataset, "toy");
            assert_eq!(r.base, "WEASEL");
            assert_eq!(r.trigger, spec.canonical());
            assert!(r.error.is_none(), "{:?}", r.error);
            assert!(r.harmonic_mean().unwrap() > 0.0);
        }
    }
}
