//! # etsc-serve
//!
//! The streaming inference service on top of the framework's algorithms:
//! everything Figure 13 predicts *offline* about online feasibility,
//! made *measurable* on a live replay.
//!
//! * [`store`] — a versioned, hand-rolled binary model store so
//!   `etsc train` can persist a fitted model and `etsc serve` /
//!   `etsc predict` can load it without refitting. Floats travel as
//!   IEEE-754 bit patterns, so a loaded model predicts bit-identically
//!   to the in-memory one;
//! * [`session`] — one [`session::StreamSession`] per incoming time
//!   series, pushing each observation into the algorithm's
//!   [`etsc_core::StreamState`] and asking it to decide per point or
//!   per prefix batch (ECEC/TEASER semantics);
//! * [`table`] — the [`SessionTable`] both replay and the network
//!   server evaluate sessions through: it opens sessions with their
//!   deadline and arrival number, injects seeded panics and delays,
//!   contains panics so one fails only its own session, and forces
//!   decisions;
//! * [`replay`] — replays a whole dataset as sessions partitioned over
//!   a few threads, each feeding its own table straight from the
//!   dataset (lossless, unqueued), at the dataset's observation
//!   frequency, and reports the *measured* Figure-13 ratio
//!   (`decision_latency / obs_interval`) next to the offline verdict of
//!   [`etsc_eval::online`].
//!
//! Robustness is first-class: sessions can carry decision deadlines
//! that degrade to a configurable fallback verdict, the model store is
//! crash-consistent (per-section CRC64, `.prev` last-good fallback,
//! quarantine on corruption), and a seeded [`etsc_eval::FaultPlan`] can
//! inject worker panics, decision latency, and poisoned stream points
//! deterministically for chaos testing.

pub mod replay;
pub mod session;
pub mod store;
pub mod table;

pub use replay::{replay_dataset, ReplayOptions, ReplayOutcome, ServeReport, SessionOutcome};
pub use session::{DeadlineConfig, FallbackKind, FallbackPolicy, StreamSession};
pub use store::{
    fit_model, fit_triggered_model, load_resilient, replicate, LoadOutcome, ModelMeta, SavedModel,
    ServeError, StoredModel, TriggerDesc,
};
pub use table::{SessionTable, Step};
