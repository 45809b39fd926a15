//! Integration test for the streaming service's online-feasibility
//! verdict: the ratio measured live by `etsc::serve::replay_dataset`
//! must reach the same feasible/infeasible conclusion as the offline
//! Figure-13 cell (`etsc::eval::online::online_cell`) when both are fed
//! the same observation frequency — for at least one feasible and one
//! infeasible pairing.

use etsc::datasets::{GenOptions, PaperDataset};
use etsc::eval::experiment::{AlgoSpec, RunConfig, RunResult};
use etsc::eval::online::online_cell;
use etsc::serve::{fit_model, replay_dataset, ReplayOptions, StoredModel};

fn verdicts(obs_frequency_secs: f64) -> (Option<bool>, bool) {
    let data = PaperDataset::PowerCons.generate(GenOptions {
        height_scale: 0.1,
        length_scale: 0.2,
        seed: 5,
    });
    let config = RunConfig::fast();
    let algo = AlgoSpec::Ects;
    let stored = fit_model(algo, &data, &config).expect("ECTS fits");
    // Serve the persisted artifact, as `etsc serve` would.
    let bytes = stored.to_bytes().expect("model encodes");
    let loaded = StoredModel::from_bytes(&bytes).expect("model decodes");
    let outcome = replay_dataset(
        &loaded,
        &data,
        &ReplayOptions {
            obs_frequency_secs,
            batch: algo.decision_batch(data.max_len(), &config),
            ..ReplayOptions::default()
        },
    )
    .expect("replay runs");
    // Feed the measured per-decision latency back into the offline
    // heatmap computation: both sides must agree on feasibility.
    let offline = online_cell(
        &RunResult {
            algo,
            dataset: data.name().to_owned(),
            metrics: None,
            train_secs: 0.0,
            test_secs_per_instance: outcome.mean_latency_secs,
            dnf: false,
        },
        obs_frequency_secs,
        data.max_len(),
        &config,
    );
    (outcome.feasible(), offline.feasible())
}

#[test]
fn measured_verdict_matches_offline_cell_when_feasible() {
    // Observations arrive every 1000 s: any model keeps up.
    let (live, offline) = verdicts(1000.0);
    assert_eq!(live, Some(true), "slow stream must be feasible");
    assert_eq!(live, Some(offline));
}

#[test]
fn measured_verdict_matches_offline_cell_when_infeasible() {
    // Observations arrive every picosecond: no model keeps up.
    let (live, offline) = verdicts(1e-12);
    assert_eq!(live, Some(false), "picosecond stream must be infeasible");
    assert_eq!(live, Some(offline));
}
