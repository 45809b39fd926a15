//! Drug-discovery scenario (paper Sections 1, 5.2 and 6.3): large-scale
//! tumour-treatment simulations are expensive; terminating the
//! *non-interesting* ones early frees compute for promising regions of
//! the treatment space.
//!
//! This example trains an early classifier on simulated runs, then
//! monitors a batch of fresh simulations step-by-step, killing each one
//! the moment the classifier (early-)predicts it non-interesting. It
//! reports how much simulated compute the early terminations saved and
//! how many truly interesting runs were killed by mistake.
//!
//! ```text
//! cargo run --release --example drug_simulation
//! ```

use etsc::core::{EarlyClassifier, Ecec, EcecConfig, VotingAdapter};
use etsc::data::train_validation_split;
use etsc::datasets::{GenOptions, PaperDataset};

fn main() {
    let data = PaperDataset::Biological.generate(GenOptions {
        height_scale: 0.5,
        length_scale: 1.0,
        seed: 2024,
    });
    let horizon = data.max_len();
    let non_interesting = data
        .class_names()
        .iter()
        .position(|c| c == "non-interesting")
        .expect("class exists");
    println!(
        "{} simulated treatment runs, {} time points each ({}% interesting)",
        data.len(),
        horizon,
        100 * data.class_counts()[1 - non_interesting] / data.len()
    );

    // Train on a stratified 70%, monitor the held-out 30%.
    let (train_idx, test_idx) = train_validation_split(&data, 0.3, 5).expect("valid split");
    let train = data.subset(&train_idx);
    // The Biological dataset is 3-variate; ECEC is univariate → voting.
    // ECEC's confidence thresholds favour accuracy (alpha = 0.8), which
    // protects interesting runs from premature termination.
    let mut clf = VotingAdapter::new(|| {
        Ecec::new(EcecConfig {
            n_prefixes: 10,
            cv_folds: 3,
            ..EcecConfig::default()
        })
    });
    clf.fit(&train).expect("training succeeds");

    let mut saved_steps = 0usize;
    let mut total_steps = 0usize;
    let mut killed_correctly = 0usize;
    let mut killed_wrongly = 0usize;
    let mut completed = 0usize;
    let mut non_interesting_total = 0usize;

    for &i in &test_idx {
        let inst = data.instance(i);
        let truth = data.label(i);
        if truth == non_interesting {
            non_interesting_total += 1;
        }
        total_steps += horizon;
        // Stream the simulation step by step.
        let mut stream = clf.start_stream().expect("fitted");
        let mut killed_at = None;
        for t in 1..=inst.len() {
            let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t - 1)).collect();
            stream.push(&row).expect("push");
            if let Some(label) = stream.decide(t == inst.len()).expect("decide") {
                if label == non_interesting && t < inst.len() {
                    killed_at = Some(t);
                }
                break;
            }
        }
        match killed_at {
            Some(t) => {
                saved_steps += horizon - t;
                if truth == non_interesting {
                    killed_correctly += 1;
                } else {
                    killed_wrongly += 1;
                }
            }
            None => completed += 1,
        }
    }

    println!("\nmonitored {} fresh simulations:", test_idx.len());
    println!("  terminated early (correctly):   {killed_correctly}");
    println!("  terminated early (wrongly):     {killed_wrongly}");
    println!("  ran to completion:              {completed}");
    println!(
        "  non-interesting identified early: {:.1}% (paper reports 65%)",
        100.0 * killed_correctly as f64 / non_interesting_total.max(1) as f64
    );
    println!(
        "  simulated compute saved:        {:.1}% of {} total steps",
        100.0 * saved_steps as f64 / total_steps as f64,
        total_steps
    );
}
