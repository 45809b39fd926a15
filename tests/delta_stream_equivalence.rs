//! Delta-fed stream equivalence: ECTS and EDSC keep incremental state
//! (running distances, the alignments already tested), and after every
//! pushed row their verdict must equal the whole-prefix evaluation bit
//! for bit. ECTS is checked against `etsc_ml::knn::nearest_prefix`,
//! EDSC against a scan of every alignment of the prefix. Inputs are
//! seeded: rows with NaN and ±inf, exactly tied training series,
//! shapelets longer than the prefix, sessions that evaluate every row
//! or every third row, and a forced final decision right after a
//! non-final one (a `DecideNow` deadline breach and `force_decide`).

use std::time::Duration;

use etsc::core::{EarlyClassifier, Ects, EctsConfig, Edsc, EdscConfig};
use etsc::data::{Dataset, DatasetBuilder, Decoder, Encoder, Label, MultiSeries, Series};
use etsc::ml::knn::nearest_prefix;
use etsc::serve::{DeadlineConfig, FallbackKind, FallbackPolicy, StreamSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Training length of the fitted models.
const LEN: usize = 24;
/// Streamed series per model.
const SERIES: usize = 12;

/// A value drawn around `base`, or NaN / ±inf now and then.
fn noisy(rng: &mut StdRng, base: f64) -> f64 {
    match rng.random_range(0..100u32) {
        0..=2 => f64::NAN,
        3..=4 => f64::INFINITY,
        5..=6 => f64::NEG_INFINITY,
        _ => base + rng.random_range(-0.6..0.6),
    }
}

/// Two classes (a bump early or late), with exact duplicates under the
/// other label so that training series tie.
fn training() -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = DatasetBuilder::new("delta");
    let mut kept = Vec::new();
    for i in 0..16 {
        let class = i % 2;
        let at = if class == 0 { 4 } else { 14 };
        let values: Vec<f64> = (0..LEN)
            .map(|t| {
                let bump = if (at..at + 5).contains(&t) { 3.0 } else { 0.0 };
                bump + rng.random_range(-0.3..0.3)
            })
            .collect();
        kept.push(values.clone());
        b.push_named(
            MultiSeries::univariate(Series::new(values)),
            ["early", "late"][class],
        );
    }
    for (values, class) in [(&kept[0], "late"), (&kept[3], "early")] {
        b.push_named(MultiSeries::univariate(Series::new(values.clone())), class);
    }
    b.build().unwrap()
}

/// A streamed series of `len` rows: a training-like shape with noise,
/// NaN and ±inf.
fn series(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let at = rng.random_range(0..LEN);
    (0..len)
        .map(|t| {
            let bump = if (at..at + 5).contains(&t) { 3.0 } else { 0.0 };
            noisy(rng, bump)
        })
        .collect()
}

/// ECTS's fitted state, read back through the store layout.
struct EctsParts {
    train: Vec<Vec<f64>>,
    labels: Vec<Label>,
    mpl: Vec<usize>,
    len: usize,
}

impl EctsParts {
    fn of(model: &Ects) -> EctsParts {
        let mut e = Encoder::new();
        model.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let _support = d.usize().unwrap();
        EctsParts {
            train: d.f64_rows().unwrap(),
            labels: d.usizes().unwrap(),
            mpl: d.usizes().unwrap(),
            len: d.usize().unwrap(),
        }
    }

    fn model(&self) -> Ects {
        let mut e = Encoder::new();
        e.usize(0);
        e.f64_rows(&self.train);
        e.usizes(&self.labels);
        e.usizes(&self.mpl);
        e.usize(self.len);
        Ects::decode_state(&mut Decoder::new(&e.into_bytes())).unwrap()
    }

    /// The whole-prefix verdict: `nearest_prefix` on the prefix cut to
    /// the model length.
    fn reference(&self, prefix: &[f64], is_final: bool) -> Option<Label> {
        let l = prefix.len().min(self.len);
        if l == 0 {
            return None;
        }
        let refs: Vec<&[f64]> = self.train.iter().map(Vec::as_slice).collect();
        let (nn, _) = nearest_prefix(&refs, &prefix[..l]).unwrap();
        (l >= self.mpl[nn] || is_final || l >= self.len).then_some(self.labels[nn])
    }
}

/// EDSC's fitted state, read back through the store layout.
struct EdscParts {
    /// (values, threshold, class) in list order.
    shapelets: Vec<(Vec<f64>, f64, Label)>,
    majority: Label,
}

impl EdscParts {
    fn of(model: &Edsc) -> EdscParts {
        let mut e = Encoder::new();
        model.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let (_k, _min, _frac, _lens, _cands) = (d.f64(), d.usize(), d.f64(), d.usize(), d.usize());
        let _budget = d.opt_f64().unwrap();
        let n = d.usize().unwrap();
        let shapelets = (0..n)
            .map(|_| {
                let values = d.f64s().unwrap();
                let threshold = d.f64().unwrap();
                let class = d.usize().unwrap();
                let _utility = d.f64().unwrap();
                (values, threshold, class)
            })
            .collect();
        EdscParts {
            shapelets,
            majority: d.usize().unwrap(),
        }
    }

    fn model(&self) -> Edsc {
        let mut e = Encoder::new();
        let config = EdscConfig::default();
        e.f64(config.chebyshev_k);
        e.usize(config.min_len);
        e.f64(config.max_len_frac);
        e.usize(config.n_lengths);
        e.usize(config.max_candidates);
        e.opt_f64(None);
        e.usize(self.shapelets.len());
        for (values, threshold, class) in &self.shapelets {
            e.f64s(values);
            e.f64(*threshold);
            e.usize(*class);
            e.f64(1.0);
        }
        e.usize(self.majority);
        e.bool(true);
        Edsc::decode_state(&mut Decoder::new(&e.into_bytes())).unwrap()
    }

    /// The whole-prefix verdict: the first shapelet whose minimum
    /// length-normalised distance over every alignment of the prefix is
    /// within its threshold.
    fn reference(&self, prefix: &[f64], is_final: bool) -> Option<Label> {
        for (values, threshold, class) in &self.shapelets {
            let m = values.len();
            if m > prefix.len() {
                continue;
            }
            let best = (m..=prefix.len())
                .map(|end| {
                    let mut d = 0.0;
                    for (a, b) in values.iter().zip(&prefix[end - m..end]) {
                        d += (a - b) * (a - b);
                    }
                    d
                })
                .fold(f64::INFINITY, f64::min);
            if (best / m as f64).sqrt() <= *threshold {
                return Some(*class);
            }
        }
        is_final.then_some(self.majority)
    }
}

/// Hand-crafted ECTS state: exact ties under different labels, NaN in
/// a training row, and minimum prediction lengths across the range.
fn crafted_ects(rng: &mut StdRng) -> EctsParts {
    let len = 10;
    let mut train: Vec<Vec<f64>> = (0..6)
        .map(|_| (0..len).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    train.push(train[1].clone());
    train.push(train[4].clone());
    train[5][3] = f64::NAN;
    // The duplicates of series 1 and 4 carry other labels.
    let labels = vec![0, 1, 2, 0, 1, 2, 2, 0];
    let mpl = (0..train.len())
        .map(|_| rng.random_range(1..=len))
        .collect();
    EctsParts {
        train,
        labels,
        mpl,
        len,
    }
}

/// Hand-crafted EDSC state: shapelets from length 1 to longer than any
/// streamed series, with thresholds that match now and then.
fn crafted_edsc(rng: &mut StdRng) -> EdscParts {
    let shapelets = (0..8)
        .map(|k| {
            let m = [1, 2, 3, 5, 8, 13, 40, 64][k];
            let values = (0..m).map(|_| rng.random_range(-1.0..4.0)).collect();
            (values, rng.random_range(0.2..1.6), k % 3)
        })
        .collect();
    EdscParts {
        shapelets,
        majority: 2,
    }
}

/// After every pushed row, a non-final `decide` and then a forced one
/// both equal the whole-prefix verdict.
fn check_every_row(
    name: &str,
    model: &dyn EarlyClassifier,
    reference: &dyn Fn(&[f64], bool) -> Option<Label>,
    values: &[f64],
) {
    let mut stream = model.start_stream().unwrap();
    for t in 1..=values.len() {
        stream.push(&values[t - 1..t]).unwrap();
        let prefix = &values[..t];
        let got = stream.decide(false).unwrap();
        assert_eq!(
            got,
            reference(prefix, false),
            "{name}: row {t} of {values:?}"
        );
        let forced = stream.decide(true).unwrap();
        assert_eq!(forced, reference(prefix, true), "{name}: forced at row {t}");
        assert!(
            forced.is_some(),
            "{name}: a forced decision carries a label"
        );
    }
}

/// The decision a session with re-evaluation batch `batch` commits:
/// the first batch boundary (or the final row) whose whole-prefix
/// verdict is a label.
fn expected_session(
    reference: &dyn Fn(&[f64], bool) -> Option<Label>,
    values: &[f64],
    batch: usize,
) -> Option<(Label, usize)> {
    (1..=values.len())
        .filter(|t| t % batch == 0 || *t == values.len())
        .find_map(|t| reference(&values[..t], t == values.len()).map(|label| (label, t)))
}

/// Sessions with batch 1 and 3: the plain decision, a `DecideNow`
/// breach at the `k`-th evaluation, and a drain one row before it.
fn check_sessions(
    name: &str,
    model: &dyn EarlyClassifier,
    reference: &dyn Fn(&[f64], bool) -> Option<Label>,
    values: &[f64],
    k: usize,
) {
    for batch in [1, 3] {
        let mut session = StreamSession::new(model, 1, values.len(), batch).unwrap();
        let mut got = None;
        for &x in values {
            if let Some(p) = session.push(&[x]).unwrap() {
                got = Some((p.label, p.prefix_len));
                break;
            }
        }
        let expected = expected_session(reference, values, batch);
        assert_eq!(got, expected, "{name}: batch {batch} on {values:?}");

        // A deadline breach at evaluation row `at` forces the verdict
        // on the prefix right after the non-final evaluation.
        let at = (k * batch).min(values.len());
        if expected.is_some_and(|(_, t)| t < at) || at == values.len() {
            continue;
        }
        let mut session = StreamSession::new(model, 1, values.len(), batch).unwrap();
        for &x in &values[..at - 1] {
            assert_eq!(session.push(&[x]).unwrap(), None);
        }
        session.set_deadline(Some(DeadlineConfig {
            deadline: Duration::from_micros(1),
            policy: FallbackPolicy::DecideNow,
            prior_label: 99,
        }));
        let p = session
            .push_with_delay(&[values[at - 1]], Some(Duration::from_millis(1)))
            .unwrap()
            .expect("a breach commits");
        let prefix = &values[..at];
        let label = reference(prefix, false)
            .or(reference(prefix, true))
            .unwrap();
        assert_eq!(
            (p.label, p.prefix_len),
            (label, at),
            "{name}: breach at {at}"
        );
        assert_eq!(session.fallback(), Some(FallbackKind::DeadlineForced));

        // A drain after `at - 1` rows, the last of them unevaluated
        // when `batch > 1`.
        let rows = at - 1;
        let mut session = StreamSession::new(model, 1, values.len(), batch).unwrap();
        for &x in &values[..rows] {
            assert_eq!(session.push(&[x]).unwrap(), None);
        }
        let p = session.force_decide(99).unwrap();
        if rows == 0 {
            assert_eq!(session.fallback(), Some(FallbackKind::DrainPrior));
            continue;
        }
        let label = reference(&values[..rows], true).unwrap();
        assert_eq!(
            (p.label, p.prefix_len),
            (label, rows),
            "{name}: drain at {rows}"
        );
        assert_eq!(session.fallback(), Some(FallbackKind::DrainForced));
    }
}

#[test]
fn incremental_ects_matches_nearest_prefix_after_every_row() {
    let data = training();
    let mut fitted = Ects::new(EctsConfig { support: 0 });
    fitted.fit(&data).unwrap();
    let fitted_parts = EctsParts::of(&fitted);
    let mut rng = StdRng::seed_from_u64(41);
    let crafted_parts = crafted_ects(&mut rng);
    let crafted = crafted_parts.model();
    for (name, model, parts) in [
        ("fitted ECTS", &fitted, &fitted_parts),
        ("crafted ECTS", &crafted, &crafted_parts),
    ] {
        let reference = |p: &[f64], f: bool| parts.reference(p, f);
        for i in 0..SERIES {
            // Shorter than, equal to and longer than the model length.
            let len = [parts.len / 2, parts.len, parts.len + 5][i % 3];
            let values = series(&mut rng, len);
            check_every_row(name, model, &reference, &values);
            check_sessions(name, model, &reference, &values, 1 + i % 4);
        }
    }
}

#[test]
fn incremental_edsc_matches_a_scan_of_every_alignment() {
    let data = training();
    let mut fitted = Edsc::new(EdscConfig {
        max_candidates: 300,
        ..EdscConfig::default()
    });
    fitted.fit(&data).unwrap();
    let fitted_parts = EdscParts::of(&fitted);
    assert!(!fitted_parts.shapelets.is_empty());
    let mut rng = StdRng::seed_from_u64(42);
    let crafted_parts = crafted_edsc(&mut rng);
    let crafted = crafted_parts.model();
    for (name, model, parts) in [
        ("fitted EDSC", &fitted, &fitted_parts),
        ("crafted EDSC", &crafted, &crafted_parts),
    ] {
        let reference = |p: &[f64], f: bool| parts.reference(p, f);
        for i in 0..SERIES {
            let len = [LEN / 2, LEN, LEN + 5][i % 3];
            let values = series(&mut rng, len);
            check_every_row(name, model, &reference, &values);
            check_sessions(name, model, &reference, &values, 1 + i % 4);
        }
    }
}
