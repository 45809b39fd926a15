//! The unified evaluation-matrix runner.
//!
//! [`MatrixRunner`] is the single front door to the (dataset ×
//! algorithm) matrix — sequential or pooled execution, supervision,
//! journaling and observability behind one builder:
//!
//! ```no_run
//! use etsc_eval::{AlgoSpec, MatrixRunner, RunConfig, SupervisorOptions};
//! use etsc_obs::Tracer;
//! # let datasets: Vec<etsc_data::Dataset> = vec![];
//! let outcomes = MatrixRunner::new(RunConfig::fast())
//!     .parallel(4)
//!     .supervised(SupervisorOptions { retries: 1, ..SupervisorOptions::default() })
//!     .journal("matrix.jsonl")
//!     .tracer(Tracer::enabled())
//!     .run(&datasets, &AlgoSpec::ALL)
//!     .unwrap();
//! ```
//!
//! Every cell runs isolated behind [`std::panic::catch_unwind`] with
//! bounded retries for transient errors, optional JSONL journaling
//! with resume, and full observability: a `matrix` root span with one
//! `cell` span per executed cell (attributes `cell` — the row-major
//! cell index, which is also the order journal lines are appended in a
//! fresh run — plus `dataset` and `algo`, the join key used by the
//! journal on resume), `cell.queued` / `cell.retry` / `cell.done` /
//! `cell.resumed` lifecycle events, and `matrix_*` counters in the
//! metrics registry. Inside each cell, [`run_cell`] adds per-fold
//! `fold`/`fit`/`predict` spans.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use etsc_core::{panic_message, EtscError};
use etsc_data::Dataset;
use etsc_obs::{with_ambient, MetricsRegistry, Obs, Tracer};

use crate::experiment::{run_cell, AlgoSpec, RunConfig, RunResult};
use crate::journal::{Journal, JournalHeader};
use crate::supervisor::{transient, CellOutcome, CellStatus, SupervisorOptions};
use crate::trigger_axis::{base_of, pseudo_algo, run_triggered_cell, TriggerCellResult};

/// Builder-style runner for the (dataset × algorithm) evaluation
/// matrix; see the [module docs](self) for the full feature set.
#[derive(Debug, Clone)]
pub struct MatrixRunner {
    config: RunConfig,
    options: SupervisorOptions,
    obs: Obs,
}

impl MatrixRunner {
    /// A sequential, unsupervised, uninstrumented runner for `config`.
    pub fn new(config: RunConfig) -> MatrixRunner {
        MatrixRunner {
            config,
            options: SupervisorOptions {
                max_threads: 1,
                ..SupervisorOptions::default()
            },
            obs: Obs::disabled(),
        }
    }

    /// Sets the worker-pool width (1 = sequential).
    pub fn parallel(mut self, max_threads: usize) -> MatrixRunner {
        self.options.max_threads = max_threads.max(1);
        self
    }

    /// Replaces the full supervision options (threads, retries,
    /// journal, resume) at once. Later builder calls still override
    /// individual fields.
    pub fn supervised(mut self, options: SupervisorOptions) -> MatrixRunner {
        self.options = options;
        self
    }

    /// Sets the retry budget for transient (data/model) cell errors.
    pub fn retries(mut self, retries: usize) -> MatrixRunner {
        self.options.retries = retries;
        self
    }

    /// Enables JSONL checkpoint journaling to `path`.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> MatrixRunner {
        self.options.journal = Some(path.into());
        self
    }

    /// Resumes from an existing journal instead of truncating it.
    pub fn resume(mut self, resume: bool) -> MatrixRunner {
        self.options.resume = resume;
        self
    }

    /// Installs a span tracer for this run.
    pub fn tracer(mut self, tracer: Tracer) -> MatrixRunner {
        self.obs.tracer = tracer;
        self
    }

    /// Installs a metrics registry for this run.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> MatrixRunner {
        self.obs.metrics = metrics;
        self
    }

    /// Installs a combined observability context (tracer + metrics).
    pub fn obs(mut self, obs: Obs) -> MatrixRunner {
        self.obs = obs;
        self
    }

    /// The run configuration this runner was built with.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The effective supervision options.
    pub fn options(&self) -> &SupervisorOptions {
        &self.options
    }

    /// Runs the full matrix and returns one [`CellOutcome`] per cell
    /// in row-major order (datasets outer, algorithms inner).
    ///
    /// # Errors
    /// Only infrastructure failures (journal I/O, header mismatch on
    /// resume, a panic escaping the worker pool itself). Per-cell
    /// failures — including panics — are *outcomes*, not errors.
    pub fn run(
        &self,
        datasets: &[Dataset],
        algos: &[AlgoSpec],
    ) -> Result<Vec<CellOutcome>, EtscError> {
        self.run_with(datasets, algos, |algo, dataset, config| {
            run_cell(algo, dataset, config, &etsc_obs::ambient())
        })
    }

    /// Like [`MatrixRunner::run`], but with strict error semantics:
    /// the first failed or panicked cell is reported as an error after
    /// all cells have run, and successful runs come back as plain
    /// [`RunResult`]s.
    ///
    /// # Errors
    /// Infrastructure failures, then the first cell failure or panic.
    pub fn run_results(
        &self,
        datasets: &[Dataset],
        algos: &[AlgoSpec],
    ) -> Result<Vec<RunResult>, EtscError> {
        self.run(datasets, algos)?
            .into_iter()
            .map(|cell| match cell {
                CellOutcome::Finished(result) => Ok(result),
                CellOutcome::Failed { error, .. } => {
                    Err(EtscError::Config(format!("cell failed: {error}")))
                }
                CellOutcome::Panicked { message, .. } => Err(EtscError::Panicked { message }),
            })
            .collect()
    }

    /// Runs the trigger axis of the matrix: every (dataset × base ×
    /// trigger) cell through the same supervised worker pool, one
    /// supervised sweep per trigger spec. Results come back flat in
    /// (spec-major, then dataset-major, then base) order.
    ///
    /// Journaling is disabled for trigger sweeps even when configured:
    /// journal keys are (dataset, algorithm) and do not carry the
    /// trigger dimension, so resume would conflate specs.
    ///
    /// # Errors
    /// Infrastructure failures only; per-cell failures come back inside
    /// [`TriggerCellResult::error`].
    pub fn run_triggered(
        &self,
        datasets: &[Dataset],
        bases: &[etsc_core::TriggeredBase],
        specs: &[etsc_trigger::TriggerSpec],
    ) -> Result<Vec<TriggerCellResult>, EtscError> {
        let mut sub = self.clone();
        sub.options.journal = None;
        sub.options.resume = false;
        let algos: Vec<AlgoSpec> = bases.iter().map(|&b| pseudo_algo(b)).collect();
        let mut results = Vec::with_capacity(datasets.len() * bases.len() * specs.len());
        for spec in specs {
            let outcomes = sub.run_with(datasets, &algos, |algo, dataset, config| {
                run_triggered_cell(base_of(algo), spec, dataset, config, &etsc_obs::ambient())
            })?;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let (d, b) = (i / bases.len(), i % bases.len());
                results.push(TriggerCellResult::from_outcome(
                    datasets[d].name(),
                    bases[b],
                    spec,
                    outcome,
                ));
            }
        }
        Ok(results)
    }

    /// [`MatrixRunner::run`] with an injectable cell runner, used by
    /// tests to exercise panic isolation and retry behaviour without
    /// building a misbehaving classifier. The runner's observability
    /// context is installed [ambiently](etsc_obs::with_ambient) around
    /// every `run` invocation, so instrumented cell bodies (and the
    /// default [`run_cell`] path) pick it up without plumbing.
    ///
    /// # Errors
    /// See [`MatrixRunner::run`].
    pub fn run_with<F>(
        &self,
        datasets: &[Dataset],
        algos: &[AlgoSpec],
        run: F,
    ) -> Result<Vec<CellOutcome>, EtscError>
    where
        F: Fn(AlgoSpec, &Dataset, &RunConfig) -> Result<RunResult, EtscError> + Sync,
    {
        let obs = &self.obs;
        let options = &self.options;
        let config = self.effective_config();

        let cells: Vec<(usize, usize)> = (0..datasets.len())
            .flat_map(|d| (0..algos.len()).map(move |a| (d, a)))
            .collect();

        let mut matrix_span = obs.tracer.span("matrix");
        matrix_span.attr("datasets", &datasets.len().to_string());
        matrix_span.attr("algos", &algos.len().to_string());
        matrix_span.attr("cells", &cells.len().to_string());
        let matrix_id = matrix_span.id();
        obs.metrics
            .counter("matrix_cells_total")
            .add(cells.len() as u64);
        obs.metrics
            .gauge("matrix_threads")
            .set(options.max_threads.max(1) as f64);

        // Journal setup: on resume, previously recorded cells prefill
        // their slots and are skipped by the workers.
        let header = JournalHeader::for_run(&config, datasets.len(), algos.len());
        let mut slots: Vec<Mutex<Option<CellOutcome>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let journal = match (&options.journal, options.resume) {
            (Some(path), true) if path.exists() => {
                let (journal, recorded, warnings) = Journal::open_resume(path, &header)?;
                for warning in warnings {
                    // Ignored on error: a closed stderr must not panic
                    // the run.
                    let _ = writeln!(std::io::stderr(), "warning: {warning}");
                }
                let mut by_key: HashMap<(String, AlgoSpec), CellOutcome> = recorded
                    .into_iter()
                    .map(|c| ((c.dataset().to_owned(), c.algo()), c))
                    .collect();
                for (cell_idx, (slot, &(d, a))) in slots.iter_mut().zip(&cells).enumerate() {
                    let key = (datasets[d].name().to_owned(), algos[a]);
                    if let Some(cell) = by_key.remove(&key) {
                        obs.tracer.event_under(
                            "cell.resumed",
                            matrix_id,
                            &[
                                ("cell", &cell_idx.to_string()),
                                ("dataset", datasets[d].name()),
                                ("algo", algos[a].name()),
                            ],
                        );
                        obs.metrics.counter("matrix_cells_resumed_total").inc();
                        *slot
                            .get_mut()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(cell);
                    }
                }
                Some(journal)
            }
            (Some(path), _) => Some(Journal::create(path, &header)?),
            (None, _) => None,
        };
        let journal = Mutex::new(journal);
        let journal_error: Mutex<Option<EtscError>> = Mutex::new(None);

        // Only cells without a prefilled (resumed) outcome are scheduled.
        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                slot.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .is_none()
            })
            .map(|(i, _)| i)
            .collect();
        for &cell_idx in &pending {
            let (d, a) = cells[cell_idx];
            obs.tracer.event_under(
                "cell.queued",
                matrix_id,
                &[
                    ("cell", &cell_idx.to_string()),
                    ("dataset", datasets[d].name()),
                    ("algo", algos[a].name()),
                ],
            );
        }

        let cell_hist = obs.metrics.histogram("matrix_cell_secs");
        let next = AtomicUsize::new(0);
        let threads = options.max_threads.max(1).min(pending.len().max(1));
        let scope_result = crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&cell_idx) = pending.get(job) else {
                        break;
                    };
                    let (d, a) = cells[cell_idx];
                    let mut cell_span = obs.tracer.span_under("cell", matrix_id);
                    cell_span.attr("cell", &cell_idx.to_string());
                    cell_span.attr("dataset", datasets[d].name());
                    cell_span.attr("algo", algos[a].name());
                    let t0 = Instant::now();
                    let outcome = with_ambient(obs, || {
                        run_supervised_cell(
                            obs,
                            algos[a],
                            &datasets[d],
                            &config,
                            options.retries,
                            &run,
                        )
                    });
                    cell_hist.record(t0.elapsed().as_secs_f64());
                    let status = outcome.status();
                    obs.metrics.counter(status_counter(status)).inc();
                    obs.tracer.event("cell.done", &[("status", status.label())]);
                    drop(cell_span);
                    if let Some(journal) = journal
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .as_mut()
                    {
                        if let Err(e) = journal.append(&outcome) {
                            journal_error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .get_or_insert(e);
                        }
                    }
                    *slots[cell_idx]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                });
            }
        });
        if let Err(payload) = scope_result {
            return Err(EtscError::from_panic(payload.as_ref()));
        }
        if let Some(e) = journal_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }

        Ok(slots
            .into_iter()
            .zip(cells)
            .map(|(slot, (d, a))| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| CellOutcome::Failed {
                        algo: algos[a],
                        dataset: datasets[d].name().to_owned(),
                        error: "cell was never executed".to_owned(),
                        attempts: 0,
                    })
            })
            .collect())
    }

    /// The per-cell configuration: `fit_threads == 0` (auto) resolves
    /// to the machine parallelism divided by the worker-pool width, so
    /// in-cell parallelism (voting-adapter voter training) never
    /// oversubscribes the machine on top of the cell workers.
    fn effective_config(&self) -> RunConfig {
        let mut config = self.config.clone();
        if config.fit_threads == 0 {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            config.fit_threads = (cores / self.options.max_threads.max(1)).max(1);
        }
        config
    }
}

fn status_counter(status: CellStatus) -> &'static str {
    match status {
        CellStatus::Ok => "matrix_cells_ok_total",
        CellStatus::Dnf => "matrix_cells_dnf_total",
        CellStatus::Err => "matrix_cells_err_total",
        CellStatus::Panic => "matrix_cells_panic_total",
    }
}

/// Runs one cell with panic isolation and bounded retries.
fn run_supervised_cell<F>(
    obs: &Obs,
    algo: AlgoSpec,
    dataset: &Dataset,
    config: &RunConfig,
    retries: usize,
    run: &F,
) -> CellOutcome
where
    F: Fn(AlgoSpec, &Dataset, &RunConfig) -> Result<RunResult, EtscError> + Sync,
{
    let mut attempts = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| run(algo, dataset, config))) {
            Ok(Ok(result)) => return CellOutcome::Finished(result),
            Ok(Err(error)) => {
                if transient(&error) && attempts <= retries {
                    obs.metrics.counter("matrix_retries_total").inc();
                    obs.tracer.event(
                        "cell.retry",
                        &[
                            ("attempt", &attempts.to_string()),
                            ("error", &error.to_string()),
                        ],
                    );
                    continue;
                }
                return CellOutcome::Failed {
                    algo,
                    dataset: dataset.name().to_owned(),
                    error: error.to_string(),
                    attempts,
                };
            }
            // Panics are never retried: a panic signals a bug, not a
            // transient condition, and retrying would re-trip it.
            Err(payload) => {
                return CellOutcome::Panicked {
                    algo,
                    dataset: dataset.name().to_owned(),
                    message: panic_message(payload.as_ref()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_datasets::{GenOptions, PaperDataset};
    use etsc_obs::TraceTree;

    fn small_datasets() -> Vec<Dataset> {
        [PaperDataset::PowerCons, PaperDataset::DodgerLoopGame]
            .iter()
            .map(|d| {
                d.generate(GenOptions {
                    height_scale: 0.1,
                    length_scale: 0.15,
                    seed: 5,
                })
            })
            .collect()
    }

    #[test]
    fn runner_traces_cell_lifecycle_and_counts_statuses() {
        let datasets = small_datasets();
        let algos = [AlgoSpec::Ects, AlgoSpec::EcoK];
        let obs = Obs::enabled();
        let outcomes = MatrixRunner::new(RunConfig::fast())
            .parallel(2)
            .obs(obs.clone())
            .run_with(&datasets, &algos, |algo, dataset, _| {
                if algo == AlgoSpec::EcoK && dataset.name().contains("PowerCons") {
                    panic!("injected");
                }
                Ok(RunResult {
                    algo,
                    dataset: dataset.name().to_owned(),
                    metrics: None,
                    train_secs: 0.0,
                    test_secs_per_instance: 0.0,
                    dnf: true,
                })
            })
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        let tree = TraceTree::build(&obs.tracer.records()).unwrap();
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(tree.span(roots[0]).unwrap().name, "matrix");
        let cell_spans = tree.spans_named("cell");
        assert_eq!(cell_spans.len(), 4);
        for span in &cell_spans {
            assert_eq!(span.parent, Some(roots[0]));
            assert!(span.attr("dataset").is_some());
            assert!(span.attr("algo").is_some());
        }
        assert_eq!(tree.events_named("cell.queued").len(), 4);
        assert_eq!(tree.events_named("cell.done").len(), 4);
        let counters = obs.metrics.snapshot_counters();
        assert_eq!(counters["matrix_cells_total"], 4);
        assert_eq!(counters["matrix_cells_dnf_total"], 3);
        assert_eq!(counters["matrix_cells_panic_total"], 1);
    }

    #[test]
    fn retry_events_join_cell_spans() {
        let datasets = small_datasets()[..1].to_vec();
        let algos = [AlgoSpec::Ects];
        let obs = Obs::enabled();
        let calls = AtomicUsize::new(0);
        let outcomes = MatrixRunner::new(RunConfig::fast())
            .retries(2)
            .obs(obs.clone())
            .run_with(&datasets, &algos, |algo, dataset, _| {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(EtscError::Data(etsc_data::DataError::Empty("transient")));
                }
                Ok(RunResult {
                    algo,
                    dataset: dataset.name().to_owned(),
                    metrics: None,
                    train_secs: 0.0,
                    test_secs_per_instance: 0.0,
                    dnf: true,
                })
            })
            .unwrap();
        assert_eq!(outcomes[0].status(), CellStatus::Dnf);
        let tree = TraceTree::build(&obs.tracer.records()).unwrap();
        let retries = tree.events_named("cell.retry");
        assert_eq!(retries.len(), 2);
        let cell = &tree.spans_named("cell")[0];
        for retry in retries {
            assert_eq!(
                retry.span,
                Some(cell.id),
                "retry events join their cell span"
            );
        }
        assert_eq!(obs.metrics.counter("matrix_retries_total").get(), 2);
    }

    #[test]
    fn auto_fit_threads_divides_machine_parallelism() {
        let runner = MatrixRunner::new(RunConfig {
            fit_threads: 0,
            ..RunConfig::fast()
        })
        .parallel(64);
        // 64 workers on any machine leaves at most 1 thread per cell.
        assert_eq!(runner.effective_config().fit_threads, 1);
        let explicit = MatrixRunner::new(RunConfig {
            fit_threads: 3,
            ..RunConfig::fast()
        });
        assert_eq!(explicit.effective_config().fit_threads, 3);
    }

    #[test]
    fn builder_accumulates_options() {
        let runner = MatrixRunner::new(RunConfig::fast())
            .parallel(3)
            .retries(2)
            .journal("/tmp/x.jsonl")
            .resume(true);
        assert_eq!(runner.options().max_threads, 3);
        assert_eq!(runner.options().retries, 2);
        assert!(runner.options().resume);
        assert_eq!(
            runner.options().journal.as_deref(),
            Some(std::path::Path::new("/tmp/x.jsonl"))
        );
        assert_eq!(runner.config().folds, RunConfig::fast().folds);
    }
}
