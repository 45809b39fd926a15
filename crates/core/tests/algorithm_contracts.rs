//! Cross-algorithm contract tests: every `EarlyClassifier` honours the
//! interface invariants the harness depends on.

use etsc_core::{
    build_triggered, EarlyClassifier, Ecec, EcecConfig, EconomyK, EconomyKConfig, Ects, EctsConfig,
    Edsc, EdscConfig, Strut, StrutConfig, Teaser, TeaserConfig, TriggeredBase, TriggeredConfig,
    TruncationSearch, VotingAdapter,
};
use etsc_data::{Dataset, DatasetBuilder, Label, MultiSeries, Series};
use etsc_trigger::TriggerSpec;

fn toy() -> Dataset {
    let mut b = DatasetBuilder::new("contract");
    for i in 0..12 {
        let phase = i as f64 * 0.31;
        let slow: Vec<f64> = (0..24).map(|t| ((t as f64 * 0.3) + phase).sin()).collect();
        let fast: Vec<f64> = (0..24).map(|t| ((t as f64 * 1.5) + phase).sin()).collect();
        b.push_named(MultiSeries::univariate(Series::new(slow)), "slow");
        b.push_named(MultiSeries::univariate(Series::new(fast)), "fast");
    }
    b.build().unwrap()
}

fn all_algorithms() -> Vec<Box<dyn EarlyClassifier>> {
    vec![
        Box::new(Ects::new(EctsConfig { support: 0 })),
        Box::new(EconomyK::new(EconomyKConfig {
            k_candidates: vec![2],
            ..EconomyKConfig::default()
        })),
        Box::new(Edsc::new(EdscConfig {
            max_candidates: 300,
            ..EdscConfig::default()
        })),
        Box::new(Ecec::new(EcecConfig {
            n_prefixes: 5,
            cv_folds: 3,
            ..EcecConfig::default()
        })),
        Box::new(Teaser::new(TeaserConfig {
            s_prefixes: 5,
            v_max: 3,
            ..TeaserConfig::default()
        })),
        Box::new(Strut::s_weasel_with(
            StrutConfig {
                search: TruncationSearch::FixedGrid(vec![0.5, 1.0]),
                ..StrutConfig::default()
            },
            Default::default(),
        )),
    ]
}

/// Drives a stream by hand, one pushed row and one `decide` per time
/// point, and returns the first committed (label, prefix length).
fn streamed(clf: &dyn EarlyClassifier, inst: &MultiSeries) -> Option<(Label, usize)> {
    let mut stream = clf.start_stream().unwrap();
    for t in 0..inst.len() {
        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
        stream.push(&row).unwrap();
        if let Some(label) = stream.decide(t + 1 == inst.len()).unwrap() {
            return Some((label, t + 1));
        }
    }
    None
}

/// Three-variable slow-vs-fast sines, one phase offset per variable.
fn multivariate() -> Dataset {
    let mut b = DatasetBuilder::new("mv");
    for i in 0..12 {
        let phase = i as f64 * 0.31;
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|v| {
                (0..20)
                    .map(|t| {
                        ((t as f64 * if i % 2 == 0 { 0.3 } else { 1.5 }) + phase + v as f64).sin()
                    })
                    .collect()
            })
            .collect();
        b.push_named(
            MultiSeries::from_rows(rows).unwrap(),
            if i % 2 == 0 { "slow" } else { "fast" },
        );
    }
    b.build().unwrap()
}

#[test]
fn streaming_and_one_shot_agree_for_every_algorithm() {
    let data = toy();
    let train = data.subset(&(0..16).collect::<Vec<_>>());
    let mut algorithms: Vec<Box<dyn EarlyClassifier>> = all_algorithms();
    algorithms.push(build_triggered(
        TriggeredBase::Weasel,
        TriggeredConfig::default(),
        TriggerSpec::parse("threshold:0.8").unwrap(),
    ));
    for mut clf in algorithms {
        clf.fit(&train).unwrap();
        for i in 16..data.len() {
            let inst = data.instance(i);
            let one = clf.predict_early(inst).unwrap();
            let (label, l) = streamed(&*clf, inst).expect("stream commits by the final point");
            assert_eq!(label, one.label, "{} on instance {i}", clf.name());
            assert_eq!(l, one.prefix_len, "{} on instance {i}", clf.name());
        }
    }
    // The voting adapter overrides `predict_early` with per-voter
    // one-shot predictions; its stream must reach the same verdict.
    let mv = multivariate();
    let mv_train = mv.subset(&(0..8).collect::<Vec<_>>());
    let mut voting = VotingAdapter::new(|| Ects::new(EctsConfig { support: 0 }));
    voting.fit(&mv_train).unwrap();
    for i in 8..mv.len() {
        let inst = mv.instance(i);
        let one = voting.predict_early(inst).unwrap();
        assert_eq!(
            streamed(&voting, inst),
            Some((one.label, one.prefix_len)),
            "voting on {i}"
        );
    }
}

#[test]
fn refitting_replaces_the_model() {
    let data = toy();
    // Train on slow-vs-fast, then refit with the labels flipped: the
    // prediction for a training instance must flip too.
    let mut clf = Ects::new(EctsConfig { support: 0 });
    clf.fit(&data).unwrap();
    let before = clf.predict_early(data.instance(0)).unwrap().label;

    let flipped_labels: Vec<usize> = data.labels().iter().map(|&l| 1 - l).collect();
    let flipped = Dataset::new(
        "flipped",
        data.instances().to_vec(),
        flipped_labels,
        data.class_names().to_vec(),
    )
    .unwrap();
    clf.fit(&flipped).unwrap();
    let after = clf.predict_early(data.instance(0)).unwrap().label;
    assert_eq!(after, 1 - before);
}

#[test]
fn fit_is_deterministic_for_every_algorithm() {
    let data = toy();
    for (mut a, mut b) in all_algorithms().into_iter().zip(all_algorithms()) {
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        for i in 0..4 {
            let pa = a.predict_early(data.instance(i)).unwrap();
            let pb = b.predict_early(data.instance(i)).unwrap();
            assert_eq!(pa, pb, "{} not deterministic", a.name());
        }
    }
}

#[test]
fn names_are_paper_spellings() {
    let names: Vec<String> = all_algorithms().iter().map(|a| a.name()).collect();
    assert_eq!(
        names,
        vec!["ECTS", "ECO-K", "EDSC", "ECEC", "TEASER", "S-WEASEL"]
    );
}

#[test]
fn earliness_monotone_under_harder_time_pressure() {
    // ECONOMY-K with a huge time cost must not commit later than with a
    // tiny one.
    let data = toy();
    let mut eager = EconomyK::new(EconomyKConfig {
        time_cost: 10.0,
        k_candidates: vec![2],
        ..EconomyKConfig::default()
    });
    let mut patient = EconomyK::new(EconomyKConfig {
        time_cost: 1e-6,
        k_candidates: vec![2],
        ..EconomyKConfig::default()
    });
    eager.fit(&data).unwrap();
    patient.fit(&data).unwrap();
    let mut eager_sum = 0;
    let mut patient_sum = 0;
    for (inst, _) in data.iter() {
        eager_sum += eager.predict_early(inst).unwrap().prefix_len;
        patient_sum += patient.predict_early(inst).unwrap().prefix_len;
    }
    assert!(
        eager_sum <= patient_sum,
        "eager {eager_sum} vs patient {patient_sum}"
    );
}

#[test]
fn parallel_voting_fit_matches_sequential() {
    let data = multivariate();
    let mut seq = VotingAdapter::new(|| Ects::new(EctsConfig { support: 0 }));
    seq.fit(&data).unwrap();
    let mut par = VotingAdapter::new(|| Ects::new(EctsConfig { support: 0 }));
    par.fit_parallel(&data).unwrap();
    assert_eq!(par.n_voters(), 3);
    for i in 0..data.len() {
        assert_eq!(
            seq.predict_early(data.instance(i)).unwrap(),
            par.predict_early(data.instance(i)).unwrap()
        );
    }
}
