//! `ablation` — targeted studies of the design choices the paper's
//! analysis calls out (and its stated future work):
//!
//! * `teaser-master`  — TEASER with vs without its one-class-SVM master
//!   (Section 6.2.3 credits the master for TEASER beating S-WEASEL);
//! * `teaser-znorm`   — the z-normalisation the paper removes
//!   (Section 6.3 reports a ~5% gap vs the original TEASER);
//! * `strut-search`   — STRUT's exhaustive / fixed-grid / binary-search
//!   truncation strategies (Section 4's "faster approximation");
//! * `ecec-alpha`     — ECEC's accuracy/earliness trade-off parameter α;
//! * `voting-schemes` — the Section 7 future-work item: alternative
//!   voting schemes for univariate algorithms on multivariate data;
//! * `tsmote`         — T-SMOTE-style oversampling of imbalanced
//!   training folds (another Section 7 item);
//! * `all`            — everything above.
//!
//! ```text
//! ablation <study> [--seed N]
//! ```

use std::time::Instant;

use etsc_bench::diag;
use etsc_core::{
    EarlyClassifier, Ecec, EcecConfig, Ects, EctsConfig, Strut, StrutConfig, Teaser, TeaserConfig,
    TruncationSearch, VotingAdapter, VotingScheme,
};
use etsc_data::{Dataset, StratifiedKFold};
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::metrics::{EvalOutcome, Metrics};

fn dataset(ds: PaperDataset, seed: u64) -> Dataset {
    let spec = ds.spec();
    ds.generate(GenOptions {
        height_scale: (120.0 / spec.height as f64).min(1.0),
        length_scale: (64.0 / spec.length as f64).min(1.0),
        seed,
    })
}

/// 3-fold CV of an algorithm factory; returns (metrics, train seconds).
fn evaluate(
    data: &Dataset,
    seed: u64,
    mut make: impl FnMut() -> Box<dyn EarlyClassifier>,
) -> (Metrics, f64) {
    let folds = StratifiedKFold::new(3, seed)
        .expect("valid folds")
        .split(data)
        .expect("splittable");
    let mut outcomes = Vec::new();
    let mut train_secs = 0.0;
    for fold in &folds {
        let train = data.subset(&fold.train);
        let mut clf = make();
        let t0 = Instant::now();
        clf.fit(&train).expect("training succeeds");
        train_secs += t0.elapsed().as_secs_f64();
        for &i in &fold.test {
            let inst = data.instance(i);
            let p = clf.predict_early(inst).expect("prediction succeeds");
            outcomes.push(EvalOutcome {
                truth: data.label(i),
                predicted: p.label,
                prefix_len: p.prefix_len,
                full_len: inst.len(),
            });
        }
    }
    (
        Metrics::compute(&outcomes, data.n_classes()),
        train_secs / folds.len() as f64,
    )
}

fn row(label: &str, m: &Metrics, train_secs: f64) {
    println!(
        "{label:<28}{:>9.3}{:>9.3}{:>11.3}{:>9.3}{:>11.2}",
        m.accuracy, m.f1, m.earliness, m.harmonic_mean, train_secs
    );
}

fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<28}{:>9}{:>9}{:>11}{:>9}{:>11}",
        "Variant", "Acc", "F1", "Earliness", "HM", "Train (s)"
    );
}

fn teaser_master(seed: u64) {
    header("TEASER with vs without the one-class-SVM master");
    for ds in [
        PaperDataset::PowerCons,
        PaperDataset::DodgerLoopGame,
        PaperDataset::Plaid,
    ] {
        let data = dataset(ds, seed);
        for use_master in [true, false] {
            let (m, t) = evaluate(&data, seed, || {
                Box::new(Teaser::new(TeaserConfig {
                    s_prefixes: 8,
                    use_master,
                    ..TeaserConfig::default()
                }))
            });
            let label = format!(
                "{} / {}",
                ds.spec().name,
                if use_master { "master" } else { "no-master" }
            );
            row(&label, &m, t);
        }
    }
}

fn teaser_znorm(seed: u64) {
    header("TEASER z-normalisation (paper removes it for streaming)");
    for ds in [PaperDataset::PowerCons, PaperDataset::HouseTwenty] {
        let data = dataset(ds, seed);
        for z in [false, true] {
            let (m, t) = evaluate(&data, seed, || {
                Box::new(Teaser::new(TeaserConfig {
                    s_prefixes: 8,
                    z_normalize: z,
                    ..TeaserConfig::default()
                }))
            });
            let label = format!("{} / {}", ds.spec().name, if z { "z-norm" } else { "raw" });
            row(&label, &m, t);
        }
    }
}

fn strut_search(seed: u64) {
    header("STRUT truncation-search strategies (S-WEASEL)");
    let data = dataset(PaperDataset::PowerCons, seed);
    let strategies: [(&str, TruncationSearch); 3] = [
        (
            "exhaustive (step 4)",
            TruncationSearch::Exhaustive { step: 4 },
        ),
        (
            "fixed grid (paper)",
            TruncationSearch::FixedGrid(vec![0.05, 0.2, 0.4, 0.6, 0.8, 1.0]),
        ),
        (
            "binary search",
            TruncationSearch::BinarySearch { tolerance: 0.03 },
        ),
    ];
    for (name, search) in strategies {
        let s = search.clone();
        let (m, t) = evaluate(&data, seed, move || {
            Box::new(Strut::s_weasel_with(
                StrutConfig {
                    search: s.clone(),
                    ..StrutConfig::default()
                },
                Default::default(),
            ))
        });
        row(name, &m, t);
    }
}

fn ecec_alpha(seed: u64) {
    header("ECEC accuracy/earliness trade-off (alpha sweep)");
    let data = dataset(PaperDataset::DodgerLoopGame, seed);
    for alpha in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let (m, t) = evaluate(&data, seed, move || {
            Box::new(Ecec::new(EcecConfig {
                n_prefixes: 8,
                cv_folds: 3,
                alpha,
                ..EcecConfig::default()
            }))
        });
        row(&format!("alpha = {alpha}"), &m, t);
    }
}

fn tsmote(seed: u64) {
    header("T-SMOTE oversampling on imbalanced datasets (ECTS voting)");
    use etsc_data::augment::{tsmote_oversample, TsmoteConfig};
    for ds in [PaperDataset::Biological, PaperDataset::DodgerLoopWeekend] {
        let data = dataset(ds, seed);
        for oversample in [false, true] {
            let (m, t) = {
                // Oversampling must only touch the training folds.
                let folds = StratifiedKFold::new(3, seed)
                    .expect("valid folds")
                    .split(&data)
                    .expect("splittable");
                let mut outcomes = Vec::new();
                let mut train_secs = 0.0;
                for fold in &folds {
                    let mut train = data.subset(&fold.train);
                    if oversample {
                        train = tsmote_oversample(&train, &TsmoteConfig::default())
                            .expect("oversampling succeeds");
                    }
                    let mut clf: Box<dyn EarlyClassifier> = if data.vars() > 1 {
                        Box::new(VotingAdapter::new(|| Ects::new(EctsConfig { support: 0 })))
                    } else {
                        Box::new(Ects::new(EctsConfig { support: 0 }))
                    };
                    let t0 = Instant::now();
                    clf.fit(&train).expect("training succeeds");
                    train_secs += t0.elapsed().as_secs_f64();
                    for &i in &fold.test {
                        let inst = data.instance(i);
                        let p = clf.predict_early(inst).expect("prediction succeeds");
                        outcomes.push(etsc_eval::metrics::EvalOutcome {
                            truth: data.label(i),
                            predicted: p.label,
                            prefix_len: p.prefix_len,
                            full_len: inst.len(),
                        });
                    }
                }
                (
                    Metrics::compute(&outcomes, data.n_classes()),
                    train_secs / folds.len() as f64,
                )
            };
            let label = format!(
                "{} / {}",
                ds.spec().name,
                if oversample { "t-smote" } else { "original" }
            );
            row(&label, &m, t);
        }
    }
}

fn voting_schemes(seed: u64) {
    header("Voting schemes for univariate ECTS on multivariate data");
    for ds in [PaperDataset::BasicMotions, PaperDataset::Biological] {
        let data = dataset(ds, seed);
        for scheme in [
            VotingScheme::Majority,
            VotingScheme::Earliest,
            VotingScheme::WeightedAccuracy,
        ] {
            let (m, t) = evaluate(&data, seed, move || {
                Box::new(VotingAdapter::with_scheme(
                    || Ects::new(EctsConfig { support: 0 }),
                    scheme,
                ))
            });
            row(&format!("{} / {}", ds.spec().name, scheme.name()), &m, t);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let study = args.next().unwrap_or_else(|| "all".into());
    let mut seed = 2024u64;
    while let Some(flag) = args.next() {
        if flag == "--seed" {
            seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed);
        }
    }
    match study.as_str() {
        "teaser-master" => teaser_master(seed),
        "teaser-znorm" => teaser_znorm(seed),
        "strut-search" => strut_search(seed),
        "ecec-alpha" => ecec_alpha(seed),
        "voting-schemes" => voting_schemes(seed),
        "tsmote" => tsmote(seed),
        "all" => {
            teaser_master(seed);
            teaser_znorm(seed);
            strut_search(seed);
            ecec_alpha(seed);
            voting_schemes(seed);
            tsmote(seed);
        }
        other => {
            diag(format_args!("unknown study {other:?}"));
            diag(format_args!("studies: teaser-master teaser-znorm strut-search ecec-alpha voting-schemes tsmote all"));
            std::process::exit(2);
        }
    }
}
