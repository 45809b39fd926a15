//! # etsc-core
//!
//! The early time-series classification algorithms evaluated by the
//! EDBT 2024 framework paper, plus the full-TSC models they build on:
//!
//! * [`algos::economy_k`] — ECONOMY-K (model-based; Dachraoui et al.);
//! * [`algos::ects`] — ECTS (prefix-based; Xing et al. 2012);
//! * [`algos::edsc`] — EDSC (shapelet-based; Xing et al. 2011);
//! * [`algos::ecec`] — ECEC (model-based; Lv et al. 2019);
//! * [`algos::teaser`] — TEASER (prefix-based; Schäfer & Leser 2020);
//! * [`algos::strut`] — STRUT, the paper's proposed selective-truncation
//!   baseline, with the S-WEASEL / S-MINI / S-MLSTM variants;
//! * [`full`] — full time-series classifiers (WEASEL(+MUSE), MiniROCKET,
//!   MLSTM-FCN) consumed by STRUT;
//! * [`triggered`] — the decision-trigger adapter: any full classifier
//!   plus an `etsc-trigger` halting rule becomes an early classifier;
//! * [`voting`] — the univariate-on-multivariate voting adapter
//!   (Section 6.1);
//! * [`registry`] — static algorithm metadata behind Tables 2 and 5.
//!
//! Every algorithm implements [`EarlyClassifier`]: `fit` on a
//! [`etsc_data::Dataset`], then either one-shot [`EarlyClassifier::predict_early`]
//! or a streaming [`StreamState`] session that takes one observation at
//! a time ([`StreamState::push`]) and evaluates what it has on request
//! ([`StreamState::decide`]) — the online mode whose per-decision
//! latency Figure 13 evaluates. ECTS and EDSC keep incremental state, so
//! a row costs them O(training series) and O(Σ shapelet lengths)
//! instead of a rescan of the prefix.

pub mod algos;
pub mod error;
pub mod full;
pub mod registry;
pub mod traits;
pub mod triggered;
pub mod voting;

pub use algos::ecec::{Ecec, EcecConfig};
pub use algos::economy_k::{EconomyBase, EconomyK, EconomyKConfig};
pub use algos::ects::{Ects, EctsConfig};
pub use algos::edsc::{Edsc, EdscConfig};
pub use algos::strut::{Strut, StrutConfig, StrutMetric, TruncationSearch};
pub use algos::teaser::{Teaser, TeaserConfig};
pub use error::{panic_message, EtscError};
pub use full::{FullClassifier, MiniRocketClassifier, MlstmClassifier, WeaselClassifier};
pub use traits::{EarlyClassifier, EarlyPrediction, StreamState};
pub use triggered::{
    build_triggered, decode_calibrator, decode_trigger, encode_calibrator, encode_trigger,
    TriggeredBase, TriggeredClassifier, TriggeredConfig,
};
pub use voting::{VotingAdapter, VotingScheme};
