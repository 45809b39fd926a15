//! The session table: the one place a streaming session is opened, fed
//! and forced to decide.
//!
//! [`crate::replay_dataset`] and the network server's connections both
//! keep their sessions in a [`SessionTable`]. The table arms each
//! session's deadline, remembers the arrival number a
//! [`FaultSchedule`] addresses it by, injects the scheduled panic or
//! delay into a push, contains any panic with `catch_unwind`, and
//! classifies what happened as a [`Step`]. Callers keep only their own
//! concerns: ordering, accounting, events and replies. A panic fails
//! only the session whose evaluation was in flight; its siblings keep
//! their state.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use etsc_core::{panic_message, EarlyClassifier, EarlyPrediction, EtscError};
use etsc_eval::FaultSchedule;

use std::time::Duration;

use crate::session::StreamSession;

/// What one push or forced decision did to a session. The session
/// stays in the table either way; the caller removes it once it has
/// read what it needs.
#[derive(Debug)]
pub enum Step {
    /// No decision yet.
    Pending,
    /// A committed decision; `true` when it was forced (a deadline
    /// breach or [`SessionTable::force`]) rather than the algorithm's
    /// own trigger.
    Decided(EarlyPrediction, bool),
    /// The model returned an error.
    Failed(EtscError),
    /// The evaluation panicked; carries the panic message.
    Panicked(String),
}

struct Entry<'m> {
    session: StreamSession<'m>,
    seq: usize,
}

/// Open sessions against one model, keyed by caller-chosen ids.
pub struct SessionTable<'m> {
    model: &'m dyn EarlyClassifier,
    batch: usize,
    prior_label: usize,
    sessions: HashMap<u64, Entry<'m>>,
}

impl<'m> SessionTable<'m> {
    /// An empty table serving `model`, re-evaluating every `batch`
    /// points (the algorithm's decision batch). `prior_label`, the
    /// model's training prior, answers a forced decision whose
    /// evaluation abstains (nothing observed yet).
    pub fn new(
        model: &'m dyn EarlyClassifier,
        batch: usize,
        prior_label: usize,
    ) -> SessionTable<'m> {
        SessionTable {
            model,
            batch,
            prior_label,
            sessions: HashMap::new(),
        }
    }

    /// Opens session `id` (replacing any session under that id). `seq`
    /// is its arrival number, the coordinate a [`FaultSchedule`]
    /// addresses it by; an evaluation slower than `deadline` forces
    /// the session's decision on its observed prefix.
    ///
    /// # Errors
    /// [`EtscError::NotFitted`] when the model has not been trained.
    pub fn open(
        &mut self,
        id: u64,
        seq: usize,
        vars: usize,
        expected_len: usize,
        deadline: Option<Duration>,
    ) -> Result<(), EtscError> {
        let mut session = StreamSession::new(self.model, vars, expected_len, self.batch)?;
        session.set_deadline(deadline, self.prior_label);
        self.sessions.insert(id, Entry { session, seq });
        Ok(())
    }

    /// The open session under `id`.
    pub fn session(&self, id: u64) -> Option<&StreamSession<'m>> {
        self.sessions.get(&id).map(|e| &e.session)
    }

    /// The arrival number session `id` was opened with.
    pub fn seq(&self, id: u64) -> Option<usize> {
        self.sessions.get(&id).map(|e| e.seq)
    }

    /// Whether `id` is open.
    pub fn contains(&self, id: u64) -> bool {
        self.sessions.contains_key(&id)
    }

    /// Open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The ids of every open session, in no particular order.
    pub fn ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// Closes session `id`, handing it back.
    pub fn remove(&mut self, id: u64) -> Option<StreamSession<'m>> {
        self.sessions.remove(&id).map(|e| e.session)
    }

    /// Closes every open session, handing each back.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, StreamSession<'m>)> + '_ {
        self.sessions.drain().map(|(id, e)| (id, e.session))
    }

    /// Feeds one observation to session `id`, first injecting the panic
    /// or delay `faults` schedules for its arrival number at this step.
    /// `None` when `id` is not open.
    pub fn push(&mut self, id: u64, row: &[f64], faults: Option<&FaultSchedule>) -> Option<Step> {
        let entry = self.sessions.get_mut(&id)?;
        let (seq, step) = (entry.seq, entry.session.observed() + 1);
        let (panic_due, delay) = faults.map_or((false, None), |f| {
            (f.panics_at(seq, step), f.delay_at(seq, step))
        });
        Some(evaluate(&mut entry.session, |session| {
            if panic_due {
                panic!("injected fault: worker panic serving session {seq} at step {step}");
            }
            session.push_with_delay(row, delay)
        }))
    }

    /// Forces session `id` to decide on what it has observed, or on
    /// the prior label when the forced evaluation abstains. An
    /// already-decided session returns its decision. `None` when `id`
    /// is not open.
    pub fn force(&mut self, id: u64) -> Option<Step> {
        let prior_label = self.prior_label;
        let session = &mut self.sessions.get_mut(&id)?.session;
        Some(evaluate(session, |s| s.force_decide(prior_label).map(Some)))
    }
}

/// Runs `eval` on `session` under `catch_unwind` and classifies what it
/// did.
fn evaluate<'m>(
    session: &mut StreamSession<'m>,
    eval: impl FnOnce(&mut StreamSession<'m>) -> Result<Option<EarlyPrediction>, EtscError>,
) -> Step {
    match catch_unwind(AssertUnwindSafe(|| eval(session))) {
        Ok(Ok(None)) => Step::Pending,
        Ok(Ok(Some(prediction))) => Step::Decided(prediction, session.forced()),
        Ok(Err(e)) => Step::Failed(e),
        Err(payload) => Step::Panicked(panic_message(payload.as_ref())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_core::{Ects, EctsConfig};
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    #[test]
    fn force_answers_an_open_session_and_unknown_ids_are_none() {
        let mut b = DatasetBuilder::new("synthetic");
        for (i, class) in ["up", "down", "up", "down"].into_iter().enumerate() {
            let sign = if class == "up" { 1.0 } else { -1.0 };
            let values = (0..8).map(|t| sign * (t + i) as f64).collect();
            b.push_named(MultiSeries::univariate(Series::new(values)), class);
        }
        let mut model = Ects::new(EctsConfig { support: 0 });
        model.fit(&b.build().unwrap()).unwrap();
        let mut table = SessionTable::new(&model, 1, 1);
        table.open(7, 0, 1, 8, None).unwrap();
        // Nothing observed yet: the forced decision is the prior, and
        // forcing again returns it unchanged.
        for _ in 0..2 {
            assert!(matches!(
                table.force(7),
                Some(Step::Decided(p, true)) if p.label == 1 && p.prefix_len == 0
            ));
        }
        assert_eq!(table.len(), 1);
        assert!(table.remove(7).is_some() && table.is_empty());
        assert!(table.force(7).is_none() && table.push(7, &[0.0], None).is_none());
    }
}
