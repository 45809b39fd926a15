//! Streaming inference end to end: train an early classifier, persist
//! it to the versioned model store, load it back in a fresh "serving
//! process", and replay a synthetic dataset as concurrent streaming
//! sessions — reporting accuracy, latency percentiles and the measured
//! Figure-13 online-feasibility ratio.
//!
//! ```text
//! cargo run --release --example streaming_inference
//! ```

use etsc::datasets::{GenOptions, PaperDataset};
use etsc::eval::experiment::{AlgoSpec, RunConfig};
use etsc::serve::{fit_model, replay_dataset, ReplayOptions, StoredModel};

fn main() {
    // 1. A PowerCons-like dataset (reduced size for the example).
    let ds = PaperDataset::PowerCons;
    let data = ds.generate(GenOptions {
        height_scale: 0.2,
        length_scale: 0.4,
        seed: 42,
    });
    println!(
        "dataset: {} — {} instances, {} points each, one observation every {} s",
        data.name(),
        data.len(),
        data.max_len(),
        ds.spec().obs_frequency_secs
    );

    // 2. Train ECTS and persist it, as `etsc train --save` would.
    let config = RunConfig::fast();
    let algo = AlgoSpec::Ects;
    let stored = fit_model(algo, &data, &config).expect("training succeeds");
    let path = std::env::temp_dir().join("streaming_inference_example.etsc");
    stored.save(&path).expect("model saves");
    println!(
        "trained {} and saved it to {} ({} bytes)",
        algo.name(),
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    // 3. A serving process starts later: load the artifact — no refit.
    let loaded = StoredModel::load(&path).expect("model loads");
    println!(
        "loaded {} trained on {} ({} classes)",
        loaded.meta.algo.name(),
        loaded.meta.dataset,
        loaded.meta.class_names.len()
    );

    // 4. Replay every instance as a live session: observations arrive
    //    one time point at a time and four threads share the sessions,
    //    each feeding its own straight from the dataset: nothing is
    //    queued, so no observation is lost.
    let outcome = replay_dataset(
        &loaded,
        &data,
        &ReplayOptions {
            obs_frequency_secs: ds.spec().obs_frequency_secs,
            batch: algo.decision_batch(data.max_len(), &config),
            workers: 4,
            ..ReplayOptions::default()
        },
    )
    .expect("replay succeeds");
    println!("{}", outcome.render());

    std::fs::remove_file(&path).ok();
}
