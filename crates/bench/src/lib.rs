//! Shared harness for the benchmark binaries and criterion benches:
//! scale presets, the full experiment sweep, and renderers for the
//! paper's static tables (2, 4 and 5).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write as _;

use etsc_core::registry::{all_algorithms, AlgoFamily};
use etsc_core::EtscError;
use etsc_data::stats::{Category, DatasetStats};
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{run_cell, AlgoSpec, RunConfig, RunResult};
use etsc_eval::supervisor::{CellOutcome, CellStatus, SupervisorOptions};
use etsc_eval::MatrixRunner;

/// Scale preset for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// CI-speed: heights capped at ~120 instances, lengths at ~64 points.
    Quick,
    /// Paper-shaped evaluation scale: heights ≤ ~300, lengths ≤ ~150.
    Standard,
    /// Full paper sizes (hours of compute; the 48-hour-budget regime).
    Full,
}

impl ScalePreset {
    /// Per-dataset generation options under this preset.
    pub fn options(self, dataset: PaperDataset, seed: u64) -> GenOptions {
        let spec = dataset.spec();
        let (max_h, max_l) = match self {
            ScalePreset::Quick => (120.0, 64.0),
            ScalePreset::Standard => (300.0, 150.0),
            ScalePreset::Full => (f64::INFINITY, f64::INFINITY),
        };
        GenOptions {
            height_scale: (max_h / spec.height as f64).min(1.0),
            length_scale: (max_l / spec.length as f64).min(1.0),
            seed,
        }
    }

    /// The matching run configuration.
    pub fn run_config(self) -> RunConfig {
        match self {
            ScalePreset::Quick => RunConfig::fast(),
            ScalePreset::Standard => RunConfig {
                folds: 5,
                ..RunConfig::fast()
            },
            ScalePreset::Full => RunConfig::default(),
        }
    }

    /// Parses a preset name.
    pub fn parse(s: &str) -> Option<ScalePreset> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(ScalePreset::Quick),
            "standard" => Some(ScalePreset::Standard),
            "full" => Some(ScalePreset::Full),
            _ => None,
        }
    }
}

/// Writes one diagnostic line to stderr. Write errors are ignored: a
/// closed stderr (a pipe whose reader has exited) must not turn a
/// usage error into a panic and exit code 101.
pub fn diag(line: impl Display) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Everything the figure reproductions need from one sweep.
pub struct SweepOutput {
    /// Per (algorithm, dataset) results.
    pub results: Vec<RunResult>,
    /// Dataset name → Table 3 categories (computed from generated data).
    pub categories: BTreeMap<String, Vec<Category>>,
    /// Dataset name → (observation frequency secs, generated length).
    pub dataset_meta: BTreeMap<String, (f64, usize)>,
    /// The run configuration used.
    pub config: RunConfig,
}

/// Runs the full (algorithms × datasets) cross-validated sweep.
///
/// `progress` receives one line per finished (algorithm, dataset) pair.
///
/// # Errors
/// Propagates harness failures (budget overruns are *not* failures; they
/// appear as DNF results, matching the paper).
pub fn run_sweep(
    datasets: &[PaperDataset],
    algos: &[AlgoSpec],
    preset: ScalePreset,
    seed: u64,
    mut progress: impl FnMut(&str),
) -> Result<SweepOutput, EtscError> {
    let config = preset.run_config();
    let mut results = Vec::new();
    let mut categories = BTreeMap::new();
    let mut dataset_meta = BTreeMap::new();
    for &ds in datasets {
        let spec = ds.spec();
        let data = ds.generate(preset.options(ds, seed));
        progress(&format!(
            "dataset {} generated: {} instances x {} vars x {} points",
            spec.name,
            data.len(),
            data.vars(),
            data.max_len()
        ));
        // Categories are pinned to the paper's full-scale Table 3 entry so
        // scaled-down heights don't drop e.g. the Large label.
        categories.insert(spec.name.to_owned(), spec.categories.to_vec());
        dataset_meta.insert(
            spec.name.to_owned(),
            (spec.obs_frequency_secs, data.max_len()),
        );
        for &algo in algos {
            let r = run_cell(algo, &data, &config, &etsc_obs::ambient())?;
            progress(&format!(
                "  {} on {}: {}",
                algo.name(),
                spec.name,
                match &r.metrics {
                    Some(m) => format!(
                        "acc {:.3} f1 {:.3} earliness {:.3} hm {:.3} (train {:.1}s)",
                        m.accuracy, m.f1, m.earliness, m.harmonic_mean, r.train_secs
                    ),
                    None => "DNF (training budget exceeded)".to_owned(),
                }
            ));
            results.push(r);
        }
    }
    Ok(SweepOutput {
        results,
        categories,
        dataset_meta,
        config,
    })
}

/// Renders Table 2 (algorithm characteristics).
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:<16}{:<14}{:<10}{:<12}\n",
        "Algorithm", "Family", "Multivariate", "ETSC", "Ref. impl."
    ));
    for a in all_algorithms() {
        out.push_str(&format!(
            "{:<12}{:<16}{:<14}{:<10}{:<12}\n",
            a.name,
            a.family.label(),
            if a.multivariate { "yes" } else { "no (voting)" },
            if a.early { "early" } else { "full-TSC" },
            a.reference_language,
        ));
    }
    out
}

/// Renders Table 3 (dataset characteristics) from *generated* data at the
/// given preset, with the paper's pinned categories alongside.
pub fn render_table3(preset: ScalePreset, seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24}{:>8}{:>8}{:>6}{:>9}{:>9}{:>8}  {}\n",
        "Dataset", "height", "length", "vars", "classes", "CoV", "CIR", "categories"
    ));
    for ds in PaperDataset::ALL {
        let spec = ds.spec();
        let data = ds.generate(preset.options(ds, seed));
        let stats = DatasetStats::compute(&data);
        let cats: Vec<&str> = spec.categories.iter().map(|c| c.name()).collect();
        out.push_str(&format!(
            "{:<24}{:>8}{:>8}{:>6}{:>9}{:>9.2}{:>8.2}  {}\n",
            spec.name,
            data.len(),
            data.max_len(),
            data.vars(),
            data.n_classes(),
            if stats.cov.is_finite() {
                stats.cov
            } else {
                99.99
            },
            stats.cir,
            cats.join(", ")
        ));
    }
    out
}

/// Renders Table 4 (parameter values actually used at a preset).
pub fn render_table4(preset: ScalePreset) -> String {
    let c = preset.run_config();
    let mut out = String::new();
    out.push_str("Algorithm   Parameter values\n");
    out.push_str(&format!(
        "ECEC        N = {}, alpha = 0.8\n",
        c.ecec_prefixes
    ));
    out.push_str("ECONOMY-K   k = {1, 2, 3}, lambda = 100, cost = 0.001\n");
    out.push_str("ECTS        support = 0\n");
    out.push_str(&format!(
        "EDSC        CHE, k = 3, minLen = 5, maxLen = L/2, budget = {:?}\n",
        c.train_budget
    ));
    out.push_str(&format!(
        "TEASER      S = {} (UCR/UEA), S = {} (Biological, Maritime)\n",
        c.teaser_prefixes_ucr, c.teaser_prefixes_new
    ));
    out.push_str(&format!(
        "S-MLSTM     grid {{0.05, 0.2, 0.4, 0.6, 0.8, 1}} * L, cells {:?}, epochs {}\n",
        c.mlstm_lstm_grid, c.mlstm_epochs
    ));
    out
}

/// Renders Table 5 (worst-case training complexities).
pub fn render_table5() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<12}{}\n", "Algorithm", "Worst-case complexity"));
    for a in all_algorithms() {
        let display = match a.family {
            // The paper lists the STRUT variants by their wrapped model.
            AlgoFamily::Miscellaneous if a.name == "MiniROCKET" => "S-MINI",
            AlgoFamily::Miscellaneous if a.name == "MLSTM" => "S-MLSTM",
            _ if a.name == "WEASEL" => "S-WEASEL",
            _ => a.name,
        };
        out.push_str(&format!("{:<12}{}\n", display, a.complexity));
    }
    out
}

/// The Section 6.3 claim: fraction of truly non-interesting Biological
/// simulations identified (correctly) before their final time point.
///
/// # Errors
/// Propagates harness failures.
pub fn biological_early_savings(preset: ScalePreset, seed: u64) -> Result<f64, EtscError> {
    use etsc_core::{EarlyClassifier, Teaser, TeaserConfig};
    use etsc_data::StratifiedKFold;

    let data = PaperDataset::Biological.generate(preset.options(PaperDataset::Biological, seed));
    let config = preset.run_config();
    let folds = StratifiedKFold::new(config.folds, seed)
        .map_err(EtscError::from)?
        .split(&data)
        .map_err(EtscError::from)?;
    let non_interesting = data
        .class_names()
        .iter()
        .position(|c| c == "non-interesting")
        .expect("biological dataset has the non-interesting class");
    let mut identified_early = 0usize;
    let mut total = 0usize;
    for fold in &folds {
        let train = data.subset(&fold.train);
        // TEASER wrapped for the 3-variable dataset.
        let mut clf = etsc_core::VotingAdapter::new(move || {
            Teaser::new(TeaserConfig {
                s_prefixes: 5,
                ..TeaserConfig::default()
            })
        });
        clf.fit(&train)?;
        for &i in &fold.test {
            if data.label(i) != non_interesting {
                continue;
            }
            total += 1;
            let p = clf.predict_early(data.instance(i))?;
            if p.label == non_interesting && p.prefix_len < data.instance(i).len() {
                identified_early += 1;
            }
        }
    }
    Ok(identified_early as f64 / total.max(1) as f64)
}

/// Parallel variant of [`run_sweep`]: all datasets are generated first,
/// then the (dataset × algorithm) matrix runs on `threads` workers via
/// [`MatrixRunner`]. Faster wall-clock, but CPU contention inflates the
/// per-run train/test timings — prefer the sequential sweep when
/// reproducing Figures 12/13.
///
/// # Errors
/// Propagates harness failures (budget overruns still surface as DNF
/// results).
pub fn run_sweep_parallel(
    datasets: &[PaperDataset],
    algos: &[AlgoSpec],
    preset: ScalePreset,
    seed: u64,
    threads: usize,
    mut progress: impl FnMut(&str),
) -> Result<SweepOutput, etsc_core::EtscError> {
    let config = preset.run_config();
    let mut categories = BTreeMap::new();
    let mut dataset_meta = BTreeMap::new();
    let mut generated = Vec::with_capacity(datasets.len());
    for &ds in datasets {
        let spec = ds.spec();
        let data = ds.generate(preset.options(ds, seed));
        progress(&format!(
            "dataset {} generated: {} instances x {} vars x {} points",
            spec.name,
            data.len(),
            data.vars(),
            data.max_len()
        ));
        categories.insert(spec.name.to_owned(), spec.categories.to_vec());
        dataset_meta.insert(
            spec.name.to_owned(),
            (spec.obs_frequency_secs, data.max_len()),
        );
        generated.push(data);
    }
    progress(&format!(
        "running {} x {} matrix on {} threads",
        generated.len(),
        algos.len(),
        threads
    ));
    let results = MatrixRunner::new(config.clone())
        .parallel(threads)
        .obs(etsc_obs::ambient())
        .run_results(&generated, algos)?;
    Ok(SweepOutput {
        results,
        categories,
        dataset_meta,
        config,
    })
}

/// A sweep run under the fault-tolerant supervisor: per-cell outcomes
/// instead of a flat result list, so a panicking or erroring cell is
/// reported rather than aborting the matrix.
pub struct SupervisedSweepOutput {
    /// Per-cell outcomes in (dataset × algorithm) row-major order.
    pub outcomes: Vec<CellOutcome>,
    /// Dataset name → Table 3 categories.
    pub categories: BTreeMap<String, Vec<Category>>,
    /// Dataset name → (observation frequency secs, generated length).
    pub dataset_meta: BTreeMap<String, (f64, usize)>,
    /// The run configuration used.
    pub config: RunConfig,
}

impl SupervisedSweepOutput {
    /// The finished runs (including DNF cells), for the figure
    /// aggregations; `ERR`/`PANIC` cells are excluded, matching how the
    /// paper's plots omit cells without results.
    pub fn results(&self) -> Vec<RunResult> {
        self.outcomes
            .iter()
            .filter_map(|c| c.run_result().cloned())
            .collect()
    }

    /// (ok, dnf, err, panic) cell counts.
    pub fn status_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for c in &self.outcomes {
            match c.status() {
                CellStatus::Ok => counts.0 += 1,
                CellStatus::Dnf => counts.1 += 1,
                CellStatus::Err => counts.2 += 1,
                CellStatus::Panic => counts.3 += 1,
            }
        }
        counts
    }
}

/// Supervised variant of [`run_sweep_parallel`]: the matrix runs under
/// a supervised [`MatrixRunner`] with panic isolation, bounded retries,
/// an optional training-budget override, and optional journal
/// checkpoint/resume.
///
/// # Errors
/// Only infrastructure failures (journal I/O, resume-header mismatch).
/// Per-cell failures become `ERR`/`PANIC`/`DNF` outcomes.
pub fn run_sweep_supervised(
    datasets: &[PaperDataset],
    algos: &[AlgoSpec],
    preset: ScalePreset,
    seed: u64,
    budget: Option<std::time::Duration>,
    options: &SupervisorOptions,
    mut progress: impl FnMut(&str),
) -> Result<SupervisedSweepOutput, EtscError> {
    let mut config = preset.run_config();
    if let Some(budget) = budget {
        config.train_budget = budget;
    }
    let mut categories = BTreeMap::new();
    let mut dataset_meta = BTreeMap::new();
    let mut generated = Vec::with_capacity(datasets.len());
    for &ds in datasets {
        let spec = ds.spec();
        let data = ds.generate(preset.options(ds, seed));
        progress(&format!(
            "dataset {} generated: {} instances x {} vars x {} points",
            spec.name,
            data.len(),
            data.vars(),
            data.max_len()
        ));
        categories.insert(spec.name.to_owned(), spec.categories.to_vec());
        dataset_meta.insert(
            spec.name.to_owned(),
            (spec.obs_frequency_secs, data.max_len()),
        );
        generated.push(data);
    }
    progress(&format!(
        "supervising {} x {} matrix on {} threads (retries {}, journal {:?})",
        generated.len(),
        algos.len(),
        options.max_threads,
        options.retries,
        options.journal
    ));
    let outcomes = MatrixRunner::new(config.clone())
        .supervised(options.clone())
        .obs(etsc_obs::ambient())
        .run(&generated, algos)?;
    Ok(SupervisedSweepOutput {
        outcomes,
        categories,
        dataset_meta,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_scale() {
        assert_eq!(ScalePreset::parse("quick"), Some(ScalePreset::Quick));
        assert_eq!(ScalePreset::parse("FULL"), Some(ScalePreset::Full));
        assert_eq!(ScalePreset::parse("nope"), None);
        let o = ScalePreset::Quick.options(PaperDataset::Maritime, 1);
        assert!(o.height_scale < 0.01);
        let o = ScalePreset::Full.options(PaperDataset::Maritime, 1);
        assert_eq!(o.height_scale, 1.0);
    }

    #[test]
    fn static_tables_render() {
        let t2 = render_table2();
        assert!(t2.contains("ECEC") && t2.contains("Model-based"));
        let t4 = render_table4(ScalePreset::Quick);
        assert!(t4.contains("TEASER"));
        let t5 = render_table5();
        assert!(t5.contains("S-MINI") && t5.contains("O("));
    }

    #[test]
    fn table3_includes_all_datasets() {
        let t3 = render_table3(ScalePreset::Quick, 3);
        for ds in PaperDataset::ALL {
            assert!(t3.contains(ds.spec().name), "{} missing", ds.spec().name);
        }
    }

    #[test]
    fn supervised_sweep_reports_outcomes_and_budget_override() {
        let options = SupervisorOptions {
            max_threads: 1,
            ..SupervisorOptions::default()
        };
        let out = run_sweep_supervised(
            &[PaperDataset::PowerCons],
            &[AlgoSpec::Ects],
            ScalePreset::Quick,
            5,
            None,
            &options,
            |_| {},
        )
        .unwrap();
        assert_eq!(out.outcomes.len(), 1);
        assert_eq!(out.status_counts(), (1, 0, 0, 0));
        assert_eq!(out.results().len(), 1);

        // A zero-second budget override turns the cell into a DNF.
        let out = run_sweep_supervised(
            &[PaperDataset::PowerCons],
            &[AlgoSpec::Ects],
            ScalePreset::Quick,
            5,
            Some(std::time::Duration::ZERO),
            &options,
            |_| {},
        )
        .unwrap();
        assert_eq!(out.status_counts(), (0, 1, 0, 0));
        assert!(out.results()[0].dnf);
    }

    #[test]
    fn tiny_sweep_produces_results() {
        let out = run_sweep(
            &[PaperDataset::PowerCons],
            &[AlgoSpec::Ects],
            ScalePreset::Quick,
            5,
            |_| {},
        )
        .unwrap();
        assert_eq!(out.results.len(), 1);
        assert!(out.results[0].metrics.is_some());
        assert!(out.categories.contains_key("PowerCons"));
    }
}
