//! Streaming smoke test (run as a dedicated CI step): replay 100
//! concurrent sessions of a small synthetic dataset and assert that
//! every session commits a decision — zero dropped decisions, zero
//! starved sessions, zero errors.

use etsc::datasets::{GenOptions, PaperDataset};
use etsc::eval::experiment::{AlgoSpec, RunConfig};
use etsc::serve::{fit_model, replay_dataset, ReplayOptions};

#[test]
fn one_hundred_sessions_commit_without_drops() {
    let data = PaperDataset::PowerCons.generate(GenOptions {
        height_scale: 0.1,
        length_scale: 0.2,
        seed: 13,
    });
    let config = RunConfig::fast();
    let algo = AlgoSpec::Ects;
    let stored = fit_model(algo, &data, &config).expect("ECTS fits");
    // 100 sessions cycling over the dataset's instances.
    let indices: Vec<usize> = (0..100).map(|i| i % data.len()).collect();
    let sessions = data.subset(&indices);
    let outcome = replay_dataset(
        &stored,
        &sessions,
        &ReplayOptions {
            obs_frequency_secs: 1.0,
            batch: algo.decision_batch(sessions.max_len(), &config),
            ..ReplayOptions::default()
        },
    )
    .expect("replay runs");
    assert_eq!(outcome.sessions, 100);
    assert_eq!(outcome.report.committed(), 100, "every session decides");
    assert_eq!(outcome.report.dropped_decisions, 0);
    assert_eq!(outcome.report.starved(), 0, "no session starves");
    assert_eq!(outcome.report.errors, 0, "{:?}", outcome.report.first_error);
}
