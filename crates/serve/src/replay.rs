//! Dataset replay: measure the Figure-13 ratio live.
//!
//! [`replay_dataset`] streams every instance of a dataset as a session
//! through a [`SessionTable`] — the same table the network server
//! evaluates its sessions in — and derives the *measured*
//! online-feasibility ratio
//!
//! ```text
//! ratio = mean decision latency / (obs_frequency · batch_len)
//! ```
//!
//! — the same quantity [`etsc_eval::online::online_cell`] computes from
//! offline cross-validation timings, but with the latency actually
//! observed while serving. Both sides share the
//! [`etsc_eval::online::feasible_ratio`] boundary convention (strictly
//! below 1.0), so the live verdict and the heatmap verdict can only
//! disagree when the measured latency itself differs, never on the
//! boundary.
//!
//! Replay is lossless and unqueued: `workers` scoped threads partition
//! the sessions (`s % workers == w`), and each feeds its own table
//! time-major straight from the dataset.

use std::time::{Duration, Instant};

use etsc_core::{panic_message, EarlyClassifier, EarlyPrediction, EtscError};
use etsc_data::{Dataset, MultiSeries};
use etsc_eval::experiment::AlgoSpec;
use etsc_eval::online::feasible_ratio;
use etsc_eval::{FaultPlan, FaultSchedule};
use etsc_obs::{Counter, Histogram as LatencyHistogram, Obs};

use crate::session::StreamSession;
use crate::store::StoredModel;
use crate::table::{SessionTable, Step};

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Seconds between consecutive observations of the stream being
    /// simulated (Figure 13's parenthetical frequency).
    pub obs_frequency_secs: f64,
    /// Re-evaluation granularity in points; use
    /// [`AlgoSpec::decision_batch`] for the paper's ECEC/TEASER batch
    /// credit.
    pub batch: usize,
    /// Threads sharing the sessions (≥ 1); session `s` lives on thread
    /// `s % workers`.
    pub workers: usize,
    /// Per-evaluation decision deadline; `None` serves without one. An
    /// evaluation that misses it forces the session's decision on the
    /// observed prefix.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for chaos testing; `None` in
    /// production.
    pub faults: Option<FaultPlan>,
    /// Observability context: session-lifecycle events (deadline
    /// breach, fallback, worker panic) and `serve_*` metrics are
    /// recorded here. Disabled by default.
    pub obs: Obs,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            obs_frequency_secs: 1.0,
            batch: 1,
            workers: 4,
            deadline: None,
            faults: None,
            obs: Obs::disabled(),
        }
    }
}

/// How one session ended — every session gets exactly one outcome, so
/// faults are attributable instead of silently folded into a count.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// The model committed a genuine early decision.
    Decided(EarlyPrediction),
    /// A deadline breach forced the session's decision on the observed
    /// prefix.
    Fallback(EarlyPrediction),
    /// The session died (model error, or its evaluation panicked).
    Failed(String),
    /// The stream ended with no decision and no error.
    Starved,
}

impl SessionOutcome {
    /// The committed prediction, genuine or fallback.
    pub fn prediction(&self) -> Option<EarlyPrediction> {
        match self {
            SessionOutcome::Decided(p) | SessionOutcome::Fallback(p) => Some(*p),
            SessionOutcome::Failed(_) | SessionOutcome::Starved => None,
        }
    }
}

/// What a replay produced, per session and in aggregate.
#[derive(Debug)]
pub struct ServeReport {
    /// Final prediction per session; `None` when the session never
    /// committed (session failure, or a stream that ended undecided).
    pub decisions: Vec<Option<EarlyPrediction>>,
    /// How each session ended, parallel to
    /// [`ServeReport::decisions`].
    pub outcomes: Vec<SessionOutcome>,
    /// Sessions that ended without a decision.
    pub dropped_decisions: usize,
    /// Total re-evaluations across all sessions.
    pub evals: usize,
    /// Wall-clock latency of each re-evaluation (seconds).
    pub eval_latency: LatencyHistogram,
    /// Wall-clock duration of the whole replay (seconds).
    pub wall_secs: f64,
    /// Sessions that failed.
    pub errors: usize,
    /// The first failed session's error, in session order.
    pub first_error: Option<String>,
    /// Evaluation panics caught (injected or organic); each failed
    /// only its own session.
    pub worker_panics: usize,
    /// Evaluations that exceeded the armed deadline (0 without one).
    pub deadline_breaches: usize,
    /// Sessions answered by a fallback verdict instead of a genuine
    /// decision.
    pub fallbacks: usize,
    /// The exact fault coordinates injected, when a [`FaultPlan`] was
    /// armed — lets callers attribute every degraded cell.
    pub fault_schedule: Option<FaultSchedule>,
}

impl ServeReport {
    /// Committed decisions (genuine or fallback).
    pub fn committed(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }

    /// Sessions that ended [`SessionOutcome::Starved`] — no decision
    /// and no attributable error.
    pub fn starved(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, SessionOutcome::Starved))
            .count()
    }

    /// Decision throughput over the replay wall-clock.
    pub fn decisions_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.committed() as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Everything one replay measured.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Replayed algorithm.
    pub algo: AlgoSpec,
    /// Dataset name.
    pub dataset: String,
    /// Sessions served (= instances replayed).
    pub sessions: usize,
    /// Fraction of sessions whose decision matched the true label.
    pub accuracy: f64,
    /// Mean earliness over committed decisions.
    pub earliness: f64,
    /// Mean decision latency, seconds per re-evaluation.
    pub mean_latency_secs: f64,
    /// Median decision latency, seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile decision latency, seconds.
    pub p99_latency_secs: f64,
    /// Committed decisions per wall-clock second.
    pub decisions_per_sec: f64,
    /// The measured Figure-13 ratio; `None` when nothing was measured
    /// (no evaluations).
    pub measured_ratio: Option<f64>,
    /// Observation interval the ratio was computed against (s/obs).
    pub obs_frequency_secs: f64,
    /// Decision batch length the ratio was computed against.
    pub batch_len: usize,
    /// The per-session report (outcomes, counts, latency histogram).
    pub report: ServeReport,
}

impl ReplayOutcome {
    /// The live feasibility verdict under the shared boundary
    /// convention; `None` when no ratio was measured.
    pub fn feasible(&self) -> Option<bool> {
        self.measured_ratio.map(feasible_ratio)
    }

    /// Plain-text rendering for the CLI.
    pub fn render(&self) -> String {
        let verdict = match self.feasible() {
            Some(true) => "feasible (ratio < 1)",
            Some(false) => "infeasible (ratio >= 1)",
            None => "unmeasured",
        };
        let mut text = format!(
            "{} on {} — {} sessions\n\
             decisions      {} committed, {} dropped\n\
             accuracy       {:.4}\n\
             earliness      {:.4}\n\
             latency        mean {:.3} us, p50 {:.3} us, p99 {:.3} us\n\
             throughput     {:.0} decisions/s\n\
             online ratio   {} at {} s/obs x batch {} -> {}\n",
            self.algo.name(),
            self.dataset,
            self.sessions,
            self.report.committed(),
            self.report.dropped_decisions,
            self.accuracy,
            self.earliness,
            self.mean_latency_secs * 1e6,
            self.p50_latency_secs * 1e6,
            self.p99_latency_secs * 1e6,
            self.decisions_per_sec,
            self.measured_ratio
                .map_or("n/a".to_owned(), |r| format!("{r:.4}")),
            self.obs_frequency_secs,
            self.batch_len,
            verdict,
        );
        let r = &self.report;
        if r.worker_panics + r.deadline_breaches + r.fallbacks > 0 || r.fault_schedule.is_some() {
            text.push_str(&format!(
                "degraded       {} worker panics, {} deadline breaches, {} fallback decisions, {} starved\n",
                r.worker_panics,
                r.deadline_breaches,
                r.fallbacks,
                r.starved(),
            ));
        }
        if let Some(schedule) = &r.fault_schedule {
            text.push_str(&format!(
                "faults         injected {} panics, {} delays, {} NaN points{}\n",
                schedule.injected_panics(),
                schedule.injected_delays(),
                schedule.injected_nans(),
                if schedule.corrupts_model() {
                    ", model corruption"
                } else {
                    ""
                },
            ));
        }
        text
    }
}

/// Replays every instance of `data` through `stored` as concurrent
/// streaming sessions and measures accuracy, latency, and the live
/// Figure-13 ratio.
///
/// `options.workers` scoped threads share the sessions: thread `w` owns
/// sessions `s % workers == w` in its own [`SessionTable`] and feeds
/// them time-major (observation `t` of each of its sessions before
/// observation `t + 1` of any) straight from the dataset, with no queue
/// in between. A panic (injected or organic) fails only the session
/// whose evaluation was in flight.
///
/// # Errors
/// A replay thread that died outside the table's panic containment.
/// Per-session model errors, panics, and degraded decisions are
/// reported in the outcome's [`ServeReport`].
pub fn replay_dataset(
    stored: &StoredModel,
    data: &Dataset,
    options: &ReplayOptions,
) -> Result<ReplayOutcome, EtscError> {
    let instances = data.instances();
    let n = instances.len();
    let workers = options.workers.max(1).min(n.max(1));
    let obs = &options.obs;
    let mut serve_span = obs.tracer.span("serve");
    serve_span.attr("sessions", &n.to_string());
    serve_span.attr("workers", &workers.to_string());
    obs.metrics.gauge("serve_workers").set(workers as f64);
    obs.metrics.counter("serve_sessions_total").add(n as u64);
    let lens: Vec<usize> = instances.iter().map(MultiSeries::len).collect();
    let feed = Feed {
        model: stored.classifier(),
        instances,
        batch: options.batch,
        workers,
        prior_label: stored.meta.prior_label,
        deadline: options.deadline,
        schedule: options.faults.as_ref().map(|plan| plan.schedule(&lens)),
        obs,
        serve_id: serve_span.id(),
        // Per-decision counters are resolved once here: a registry
        // lookup (lock + name clone) per decision would dominate
        // tracer overhead.
        fed: obs.metrics.counter("serve_enqueued_total"),
        decisions: obs.metrics.counter("serve_decisions_total"),
        fallbacks: obs.metrics.counter("serve_fallbacks_total"),
        breaches: obs.metrics.counter("serve_deadline_breaches_total"),
        panics: obs.metrics.counter("serve_worker_panics_total"),
    };
    let started = Instant::now();
    let parts: Vec<_> = std::thread::scope(|scope| {
        let feed = &feed;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || feed.serve(w)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut outcomes = vec![SessionOutcome::Starved; n];
    let mut eval_latency = LatencyHistogram::new();
    let (mut evals, mut worker_panics) = (0, 0);
    for part in parts {
        let part = part.map_err(|payload| EtscError::Panicked {
            message: format!("replay worker died: {}", panic_message(payload.as_ref())),
        })?;
        for (s, outcome) in part.outcomes {
            outcomes[s] = outcome;
        }
        eval_latency.merge(&part.eval_latency);
        evals += part.evals;
        worker_panics += part.panics;
    }
    obs.metrics
        .histogram("serve_eval_latency_secs")
        .merge_from(&eval_latency);
    obs.metrics.counter("serve_evals_total").add(evals as u64);
    let decisions: Vec<Option<EarlyPrediction>> =
        outcomes.iter().map(SessionOutcome::prediction).collect();
    let mut failures = outcomes.iter().filter_map(|o| match o {
        SessionOutcome::Failed(message) => Some(message),
        _ => None,
    });
    let report = ServeReport {
        dropped_decisions: decisions.iter().filter(|d| d.is_none()).count(),
        errors: failures.clone().count(),
        first_error: failures.next().cloned(),
        fallbacks: outcomes
            .iter()
            .filter(|o| matches!(o, SessionOutcome::Fallback(_)))
            .count(),
        decisions,
        outcomes,
        evals,
        deadline_breaches: eval_latency.over_deadline(),
        eval_latency,
        wall_secs,
        worker_panics,
        fault_schedule: feed.schedule,
    };
    let mut correct = 0usize;
    let mut committed = 0usize;
    let mut earliness_sum = 0.0;
    for (i, decision) in report.decisions.iter().enumerate() {
        if let Some(p) = decision {
            committed += 1;
            if p.label == data.label(i) {
                correct += 1;
            }
            earliness_sum += p.prefix_len as f64 / data.instance(i).len().max(1) as f64;
        }
    }
    let mut eval_latency = report.eval_latency.clone();
    let mean = eval_latency.mean().unwrap_or(0.0);
    let measured_ratio = eval_latency
        .mean()
        .map(|m| m / (options.obs_frequency_secs * options.batch.max(1) as f64));
    Ok(ReplayOutcome {
        algo: stored.meta.algo,
        dataset: data.name().to_owned(),
        sessions: data.len(),
        accuracy: if committed > 0 {
            correct as f64 / committed as f64
        } else {
            0.0
        },
        earliness: if committed > 0 {
            earliness_sum / committed as f64
        } else {
            0.0
        },
        mean_latency_secs: mean,
        p50_latency_secs: eval_latency.p50().unwrap_or(0.0),
        p99_latency_secs: eval_latency.p99().unwrap_or(0.0),
        decisions_per_sec: report.decisions_per_sec(),
        measured_ratio,
        obs_frequency_secs: options.obs_frequency_secs,
        batch_len: options.batch.max(1),
        report,
    })
}

/// What every replay thread shares: the model and its training prior,
/// the dataset, the armed deadline and fault schedule, and the resolved
/// instruments.
struct Feed<'a> {
    model: &'a (dyn EarlyClassifier + Sync),
    prior_label: usize,
    instances: &'a [MultiSeries],
    batch: usize,
    workers: usize,
    deadline: Option<Duration>,
    schedule: Option<FaultSchedule>,
    obs: &'a Obs,
    serve_id: Option<u64>,
    fed: Counter,
    decisions: Counter,
    fallbacks: Counter,
    breaches: Counter,
    panics: Counter,
}

/// One replay thread's tallies.
#[derive(Default)]
struct Partition {
    outcomes: Vec<(usize, SessionOutcome)>,
    eval_latency: LatencyHistogram,
    evals: usize,
    panics: usize,
}

impl Partition {
    /// Folds a closed session's evaluation count and latencies in.
    fn retire(&mut self, session: &StreamSession<'_>) {
        self.evals += session.evals();
        self.eval_latency.merge(session.latency());
    }
}

impl Feed<'_> {
    /// Thread `w`'s share of the replay: sessions `s % workers == w`,
    /// fed time-major.
    fn serve(&self, w: usize) -> Partition {
        let mut part = Partition::default();
        let mut table = SessionTable::new(self.model, self.batch, self.prior_label);
        let mine: Vec<usize> = (w..self.instances.len()).step_by(self.workers).collect();
        for &s in &mine {
            let inst = &self.instances[s];
            if let Err(e) = table.open(s as u64, s, inst.vars(), inst.len(), self.deadline) {
                part.outcomes
                    .push((s, SessionOutcome::Failed(e.to_string())));
            }
        }
        let schedule = self.schedule.as_ref();
        let horizon = mine.iter().map(|&s| self.instances[s].len()).max();
        // Counted locally and flushed once: an atomic add per
        // observation is the largest tracer cost otherwise.
        let mut fed = 0u64;
        for t in 0..horizon.unwrap_or(0) {
            for &s in &mine {
                let (inst, id) = (&self.instances[s], s as u64);
                if t >= inst.len() || !table.contains(id) {
                    continue;
                }
                let mut row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                if schedule.is_some_and(|sch| sch.nan_at(s, t + 1)) {
                    // A poisoned sensor reading: every variable NaN.
                    row.fill(f64::NAN);
                }
                fed += 1;
                let breaches =
                    |t: &SessionTable| t.session(id).map_or(0, |x| x.deadline_breaches());
                let before = breaches(&table);
                let Some(step) = table.push(id, &row, schedule) else {
                    continue;
                };
                if breaches(&table) > before {
                    self.breaches.inc();
                    self.event("session.deadline_breach", &[("session", &s.to_string())]);
                }
                let outcome = match step {
                    Step::Pending => continue,
                    Step::Decided(prediction, false) => SessionOutcome::Decided(prediction),
                    Step::Decided(prediction, true) => {
                        self.fallbacks.inc();
                        self.event("session.fallback", &[("session", &s.to_string())]);
                        SessionOutcome::Fallback(prediction)
                    }
                    Step::Failed(e) => SessionOutcome::Failed(e.to_string()),
                    Step::Panicked(message) => {
                        part.panics += 1;
                        self.panics.inc();
                        self.event("worker.panic", &[("message", &message)]);
                        let message = format!("session {s}: {message}");
                        SessionOutcome::Failed(EtscError::Panicked { message }.to_string())
                    }
                };
                if outcome.prediction().is_some() {
                    self.decisions.inc();
                }
                part.outcomes.push((s, outcome));
                if let Some(session) = table.remove(id) {
                    part.retire(&session);
                }
            }
        }
        self.fed.add(fed);
        // A session still open here ended undecided: it stays Starved.
        for (_, session) in table.drain() {
            part.retire(&session);
        }
        part
    }

    fn event(&self, name: &str, attrs: &[(&str, &str)]) {
        self.obs.tracer.event_under(name, self.serve_id, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::fit_model;
    use etsc_datasets::{GenOptions, PaperDataset};
    use etsc_eval::experiment::RunConfig;

    fn stored() -> (StoredModel, Dataset) {
        let data = PaperDataset::PowerCons.generate(GenOptions {
            height_scale: 0.1,
            length_scale: 0.2,
            seed: 5,
        });
        let config = RunConfig::fast();
        let model = fit_model(AlgoSpec::Ects, &data, &config).unwrap();
        (model, data)
    }

    fn replay(model: &StoredModel, data: &Dataset, options: ReplayOptions) -> ServeReport {
        replay_dataset(model, data, &options).unwrap().report
    }

    #[test]
    fn replay_reports_ratio_and_verdict() {
        let (model, data) = stored();
        // Generous observation interval: trivially feasible.
        let slow = replay_dataset(
            &model,
            &data,
            &ReplayOptions {
                obs_frequency_secs: 1000.0,
                workers: 2,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(slow.sessions, data.len());
        assert_eq!(slow.report.dropped_decisions, 0);
        assert_eq!(slow.feasible(), Some(true));
        assert!(slow.accuracy > 0.0);
        let text = slow.render();
        assert!(text.contains("feasible"), "{text}");
        // Sub-microsecond evaluations must not round to nothing: the
        // rendered median is in microseconds with three decimals.
        let p50 = text
            .split("p50 ")
            .nth(1)
            .and_then(|rest| rest.split(" us").next())
            .unwrap_or_else(|| panic!("no p50 in {text}"));
        if slow.p50_latency_secs > 0.0 {
            assert_ne!(p50, "0.000", "{text}");
        }

        // Impossible observation interval: the same latencies are
        // infeasible.
        let fast = replay_dataset(
            &model,
            &data,
            &ReplayOptions {
                obs_frequency_secs: 1e-12,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fast.feasible(), Some(false));
    }

    #[test]
    fn decisions_match_predict_early_for_any_worker_count() {
        let (model, data) = stored();
        let mut evals = None;
        for workers in [1, 2, 4] {
            let report = replay(
                &model,
                &data,
                ReplayOptions {
                    workers,
                    ..ReplayOptions::default()
                },
            );
            assert_eq!(report.dropped_decisions, 0);
            assert_eq!(report.errors, 0, "{:?}", report.first_error);
            assert_eq!((report.worker_panics, report.fallbacks), (0, 0));
            assert_eq!(report.eval_latency.len(), report.evals);
            assert_eq!(*evals.get_or_insert(report.evals), report.evals);
            for (s, outcome) in report.outcomes.iter().enumerate() {
                let offline = model.classifier().predict_early(data.instance(s)).unwrap();
                assert_eq!(*outcome, SessionOutcome::Decided(offline), "session {s}");
            }
        }
    }

    #[test]
    fn faults_fail_or_degrade_only_their_sessions_and_are_traced() {
        let (model, data) = stored();
        let obs = Obs::enabled();
        // One injected panic, and a 20ms delay on half the sessions
        // against a 5ms deadline.
        let report = replay(
            &model,
            &data,
            ReplayOptions {
                workers: 2,
                deadline: Some(Duration::from_millis(5)),
                faults: Some(
                    FaultPlan::parse("seed=7,panics=1,delay-rate=0.5,delay-ms=20").unwrap(),
                ),
                obs: obs.clone(),
                ..ReplayOptions::default()
            },
        );
        let schedule = report.fault_schedule.as_ref().unwrap();
        assert_eq!((report.worker_panics, report.errors), (1, 1));
        assert_eq!(report.starved(), 0);
        assert!(report.fallbacks > 0 && report.deadline_breaches >= report.fallbacks);
        for (s, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                SessionOutcome::Failed(_) => assert!(schedule.touches(s), "session {s}"),
                SessionOutcome::Fallback(prediction) => {
                    // Forced at the delayed step, on the prefix observed
                    // by then: a fresh stream's `decide(false)` on that
                    // prefix, or else its `decide(true)`.
                    let inst = data.instance(s);
                    let breach =
                        (1..=inst.len()).find(|&step| schedule.delay_at(s, step).is_some());
                    assert_eq!(Some(prediction.prefix_len), breach, "session {s}");
                    let mut stream = model.classifier().start_stream().unwrap();
                    for t in 0..prediction.prefix_len {
                        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                        stream.push(&row).unwrap();
                    }
                    let forced = match stream.decide(false).unwrap() {
                        Some(label) => Some(label),
                        None => stream.decide(true).unwrap(),
                    };
                    assert_eq!(Some(prediction.label), forced, "session {s}");
                }
                // Siblings the schedule left alone match the offline run.
                other if !schedule.touches(s) => {
                    let offline = model.classifier().predict_early(data.instance(s)).unwrap();
                    assert_eq!(*other, SessionOutcome::Decided(offline), "session {s}");
                }
                _ => {}
            }
        }
        let tree = etsc_obs::TraceTree::build(&obs.tracer.records()).unwrap();
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(tree.span(roots[0]).unwrap().name, "serve");
        assert_eq!(tree.events_named("worker.panic").len(), 1);
        assert_eq!(
            tree.events_named("session.fallback").len(),
            report.fallbacks
        );
        assert!(!tree.events_named("session.deadline_breach").is_empty());
        for event in tree.events() {
            assert_eq!(event.span, Some(roots[0]), "events join the serve span");
        }
        let counters = obs.metrics.snapshot_counters();
        assert_eq!(counters["serve_sessions_total"] as usize, data.len());
        assert_eq!(counters["serve_worker_panics_total"], 1);
        assert_eq!(
            counters["serve_decisions_total"] as usize,
            report.committed()
        );
        assert_eq!(counters["serve_evals_total"] as usize, report.evals);
        assert_eq!(
            obs.metrics
                .histogram("serve_eval_latency_secs")
                .snapshot()
                .len(),
            report.eval_latency.len()
        );
        etsc_obs::validate_prometheus(&obs.metrics.render_prometheus()).unwrap();
    }
}
