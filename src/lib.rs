//! # etsc — Early Time-Series Classification framework
//!
//! A Rust reproduction of *"A Framework to Evaluate Early Time-Series
//! Classification Algorithms"* (EDBT 2024): the five evaluated ETSC
//! algorithms (ECEC, ECONOMY-K, ECTS, EDSC, TEASER), the proposed STRUT
//! truncation baseline over three full-TSC models (WEASEL/WEASEL+MUSE,
//! MiniROCKET, MLSTM-FCN), the twelve evaluation datasets as synthetic
//! generators, and the complete evaluation harness (metrics, stratified
//! cross-validation, per-category aggregation, online-feasibility
//! analysis).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`data`] — series/dataset containers, loaders, CV, categories;
//! * [`ml`] — from-scratch classifiers, clusterers and neural layers;
//! * [`transforms`] — DFT, SFA/WEASEL bags, MiniROCKET kernels;
//! * [`datasets`] — the 12 paper datasets as scaled generators;
//! * [`core`] — the ETSC algorithms and full-TSC models;
//! * [`eval`] — the experiment harness behind every table and figure;
//! * [`obs`] — span/event tracing and the metrics registry + exporters;
//! * [`serve`] — streaming inference: model store, sessions, the
//!   session table, and dataset replay;
//! * [`net`] — the network edge: binary wire protocol, TCP server,
//!   client library, and the socketed load generator;
//! * [`adapt`] — online adaptation: label feedback, drift detection,
//!   and hot-swapped refits with rollback.
//!
//! ## Quickstart
//!
//! ```
//! use etsc::core::{EarlyClassifier, Teaser, TeaserConfig};
//! use etsc::datasets::{GenOptions, PaperDataset};
//!
//! // A small PowerCons-like dataset.
//! let data = PaperDataset::PowerCons.generate(GenOptions {
//!     height_scale: 0.12,
//!     length_scale: 0.25,
//!     seed: 7,
//! });
//! let mut teaser = Teaser::new(TeaserConfig { s_prefixes: 5, ..TeaserConfig::default() });
//! teaser.fit(&data).unwrap();
//! let prediction = teaser.predict_early(data.instance(0)).unwrap();
//! assert!(prediction.prefix_len <= data.instance(0).len());
//! ```

pub use etsc_adapt as adapt;
pub use etsc_core as core;
pub use etsc_data as data;
pub use etsc_datasets as datasets;
pub use etsc_eval as eval;
pub use etsc_ml as ml;
pub use etsc_net as net;
pub use etsc_obs as obs;
pub use etsc_serve as serve;
pub use etsc_transforms as transforms;
