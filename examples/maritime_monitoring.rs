//! Maritime situational awareness (paper Sections 1 and 5.3): predict,
//! from a vessel's live position stream, whether it will be inside the
//! port of Brest by the end of the 30-minute window — early enough for
//! port authorities to plan berth and traffic operations.
//!
//! The example trains ECTS (wrapped by the voting adapter for the
//! 7-variable AIS signal) and then replays test trajectories one
//! minute-by-minute observation at a time, printing the moment the
//! classifier commits.
//!
//! ```text
//! cargo run --release --example maritime_monitoring
//! ```

use etsc::core::{EarlyClassifier, Ects, EctsConfig, VotingAdapter};
use etsc::data::train_validation_split;
use etsc::datasets::{GenOptions, PaperDataset};

fn main() {
    let data = PaperDataset::Maritime.generate(GenOptions {
        height_scale: 0.004, // ~320 of the 80 591 windows
        length_scale: 1.0,
        seed: 7,
    });
    println!(
        "{} trajectory windows, {} minutes each, classes {:?}",
        data.len(),
        data.max_len(),
        data.class_names()
    );

    // Stratified 80/20 split so both outcomes appear in the test set.
    let (train_idx, test_idx) = train_validation_split(&data, 0.2, 11).expect("valid split");
    let train = data.subset(&train_idx);
    let mut clf = VotingAdapter::new(|| Ects::new(EctsConfig { support: 0 }));
    clf.fit(&train).expect("training succeeds");
    println!("ECTS voting ensemble trained on {} windows\n", train.len());

    let mut correct = 0usize;
    let mut minutes_saved = 0usize;
    let shown = 8.min(test_idx.len());
    for (shown_count, &i) in test_idx.iter().enumerate() {
        let inst = data.instance(i);
        let mut stream = clf.start_stream().expect("fitted");
        let mut committed = None;
        for t in 1..=inst.len() {
            let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t - 1)).collect();
            stream.push(&row).expect("push");
            if let Some(label) = stream.decide(t == inst.len()).expect("decide") {
                committed = Some((label, t));
                break;
            }
        }
        let (label, t) = committed.expect("stream always commits");
        if label == data.label(i) {
            correct += 1;
        }
        minutes_saved += inst.len() - t;
        if shown_count < shown {
            println!(
                "vessel window {i}: {} after {t} min (truth: {}) {}",
                data.class_names()[label],
                data.class_names()[data.label(i)],
                if label == data.label(i) { "✓" } else { "✗" }
            );
        }
    }
    let n_test = test_idx.len();
    println!(
        "\naccuracy {:.3} over {n_test} windows; mean lead time {:.1} minutes",
        correct as f64 / n_test as f64,
        minutes_saved as f64 / n_test as f64
    );
}
