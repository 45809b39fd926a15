//! # etsc-data
//!
//! Time-series containers and dataset plumbing for the ETSC evaluation
//! framework (EDBT 2024 reproduction).
//!
//! This crate is the substrate every other crate builds on. It provides:
//!
//! * [`Series`] / [`MultiSeries`] — univariate and multivariate time-series
//!   with prefix views, z-normalisation and derivative channels;
//! * [`Dataset`] — a labelled collection of multivariate series with class
//!   bookkeeping, per-variable slicing (for the univariate-voting adapter)
//!   and prefix truncation;
//! * loaders for the framework's `.csv` and `.arff` on-disk formats
//!   ([`loader`]);
//! * gap imputation matching Section 5.1 of the paper ([`impute`]);
//! * seeded stratified K-fold cross-validation and train/validation
//!   splitting ([`cv`]);
//! * T-SMOTE-style minority oversampling for imbalanced benchmarks
//!   ([`augment`]), the paper's named future-work addition;
//! * dataset statistics and the Table 3 category rules ([`stats`]);
//! * the bit-exact binary [`codec`] underlying the persistent model store.
//!
//! Everything stochastic takes an explicit seed so experiments are
//! reproducible bit-for-bit.

pub mod augment;
pub mod codec;
pub mod cv;
pub mod dataset;
pub mod error;
pub mod impute;
pub mod loader;
pub mod series;
pub mod stats;

pub use codec::{CodecError, Decoder, Encoder};
pub use cv::{train_validation_split, Fold, StratifiedKFold};
pub use dataset::{Dataset, DatasetBuilder, Label};
pub use error::DataError;
pub use series::{MultiSeries, PrefixBuffer, Series};
pub use stats::{Category, DatasetStats};
