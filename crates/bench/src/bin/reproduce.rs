//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce <target> [--preset quick|standard|full] [--fast] [--seed N]
//!           [--out DIR] [--threads N] [--journal PATH] [--resume]
//!           [--budget-secs N] [--retries N] [--folds N]
//!           [--trace FILE] [--metrics FILE]
//!
//! targets:
//!   table2       algorithm characteristics
//!   table3       dataset characteristics & categories
//!   table4       algorithm parameter values
//!   table5       worst-case training complexities
//!   fig9         accuracy & F1 per dataset category        (sweep)
//!   fig10        earliness per category                    (sweep)
//!   fig11        harmonic mean per category                (sweep)
//!   fig12        training minutes per category             (sweep)
//!   fig13        online-feasibility heatmap                (sweep)
//!   figures      fig9-fig13 from a single shared sweep
//!   bio-savings  Section 6.3: early identification of
//!                non-interesting biological simulations
//!   supplementary  per-dataset results (the paper's supplementary
//!                material layout)                          (sweep)
//!   smoke        small instrumented matrix (3 algorithms x 2
//!                datasets) that validates the emitted trace:
//!                fold/fit/predict span nesting, transform spans
//!                under fits, and phase-duration accounting. The
//!                default target when flags are given without one.
//!   all          everything above
//! ```
//!
//! The shared flags use the canonical spellings from
//! `etsc_eval::opts` (`--threads`; `--parallel` is a deprecated
//! alias). `--fast` pins the quick preset. `--trace`/`--metrics`
//! write a JSONL span trace and a Prometheus metrics snapshot for any
//! target; sweeps and the smoke matrix are instrumented end to end.
//!
//! Sweep targets run the full (8 algorithms × 12 datasets × k-fold CV)
//! experiment at the chosen preset and print the same category × algorithm
//! series the paper plots; CSVs are written next to the text output when
//! `--out` is given.
//!
//! `--journal`, `--resume`, `--budget-secs` and `--retries` route the
//! sweep through the fault-tolerant supervisor: every cell is isolated
//! against panics, transient errors are retried, completed cells are
//! checkpointed to the journal, and `--resume` picks an interrupted
//! sweep up without recomputing finished cells. The matrix status table
//! (OK/DNF/ERR/PANIC per cell) is printed after a supervised sweep.

use etsc_bench::{
    biological_early_savings, diag, render_table2, render_table3, render_table4, render_table5,
    run_sweep, run_sweep_parallel, run_sweep_supervised, ScalePreset, SweepOutput,
};
use etsc_datasets::PaperDataset;
use etsc_eval::aggregate::aggregate_by_category;
use etsc_eval::experiment::AlgoSpec;
use etsc_eval::online::online_cell;
use etsc_eval::report::{
    figure_csv, matrix_status_csv, render_figure, render_matrix_status, render_online_heatmap,
    FigureMetric,
};
use etsc_eval::supervisor::SupervisorOptions;
use etsc_eval::{CommonOpts, MatrixRunner};
use etsc_obs::{Obs, TraceTree};

struct Args {
    target: String,
    preset: ScalePreset,
    out_dir: Option<std::path::PathBuf>,
    /// The shared evaluation options (seed, threads, journal, trace,
    /// metrics, ...) under their canonical spellings.
    opts: CommonOpts,
}

impl Args {
    /// The robustness flags all imply the supervised sweep.
    fn supervised(&self) -> bool {
        self.opts.journal.is_some()
            || self.opts.resume
            || self.opts.budget_secs.is_some()
            || self.opts.retries.unwrap_or(0) > 0
    }

    fn seed(&self) -> u64 {
        self.opts.seed.unwrap_or(2024)
    }

    fn threads(&self) -> usize {
        self.opts.threads.unwrap_or(1)
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `reproduce --fast --trace t.jsonl` with no target runs the smoke
    // matrix; flags always start with '-', targets never do.
    let (target, rest): (String, &[String]) = match argv.first() {
        None => return Err("missing target (try `reproduce all`)".to_owned()),
        Some(first) if first.starts_with('-') => ("smoke".to_owned(), &argv[..]),
        Some(first) => (first.clone(), &argv[1..]),
    };
    let mut preset = ScalePreset::Quick;
    let mut out_dir = None;
    let mut opts = CommonOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        if name == "fast" {
            preset = ScalePreset::Quick;
            continue;
        }
        if name == "resume" {
            opts.resume = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if opts.accept(name, value)? {
            continue;
        }
        match name {
            "preset" => {
                preset = ScalePreset::parse(value).ok_or(format!("unknown preset {value:?}"))?;
            }
            "out" => out_dir = Some(std::path::PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if opts.resume && opts.journal.is_none() {
        return Err("--resume needs --journal PATH".to_owned());
    }
    Ok(Args {
        target,
        preset,
        out_dir,
        opts,
    })
}

fn write_out(dir: &Option<std::path::PathBuf>, name: &str, content: &str) {
    if let Some(dir) = dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            diag(format_args!("warning: cannot create {dir:?}: {e}"));
            return;
        }
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            diag(format_args!("warning: cannot write {path:?}: {e}"));
        } else {
            println!("wrote {path:?}");
        }
    }
}

fn sweep(args: &Args) -> SweepOutput {
    println!(
        "running sweep: 8 algorithms x 12 datasets, preset {:?}, seed {}, threads {}",
        args.preset,
        args.seed(),
        args.threads()
    );
    if args.supervised() {
        let options = args.opts.supervisor_options(SupervisorOptions {
            max_threads: 1,
            ..SupervisorOptions::default()
        });
        let out = run_sweep_supervised(
            &PaperDataset::ALL,
            &AlgoSpec::ALL,
            args.preset,
            args.seed(),
            args.opts.budget_secs.map(std::time::Duration::from_secs),
            &options,
            |line| println!("{line}"),
        )
        .unwrap_or_else(|e| {
            diag(format_args!("supervised sweep failed: {e}"));
            std::process::exit(1);
        });
        let datasets: Vec<String> = out.dataset_meta.keys().cloned().collect();
        println!("\n=== matrix status ===");
        print!("{}", render_matrix_status(&out.outcomes, &datasets));
        write_out(
            &args.out_dir,
            "matrix_status.csv",
            &matrix_status_csv(&out.outcomes),
        );
        return SweepOutput {
            results: out.results(),
            categories: out.categories,
            dataset_meta: out.dataset_meta,
            config: out.config,
        };
    }
    let result = if args.threads() > 1 {
        println!(
            "note: parallel timings include CPU contention; use --threads 1 for Figures 12/13"
        );
        run_sweep_parallel(
            &PaperDataset::ALL,
            &AlgoSpec::ALL,
            args.preset,
            args.seed(),
            args.threads(),
            |line| println!("{line}"),
        )
    } else {
        run_sweep(
            &PaperDataset::ALL,
            &AlgoSpec::ALL,
            args.preset,
            args.seed(),
            |line| println!("{line}"),
        )
    };
    result.unwrap_or_else(|e| {
        diag(format_args!("sweep failed: {e}"));
        std::process::exit(1);
    })
}

fn print_figures(out: &SweepOutput, args: &Args, which: &[&str]) {
    let aggregated = aggregate_by_category(&out.results, &out.categories);
    let figures: [(&str, FigureMetric, &str); 5] = [
        ("fig9", FigureMetric::Accuracy, "fig9_accuracy"),
        ("fig9", FigureMetric::F1, "fig9_f1"),
        ("fig10", FigureMetric::Earliness, "fig10_earliness"),
        ("fig11", FigureMetric::HarmonicMean, "fig11_harmonic_mean"),
        (
            "fig12",
            FigureMetric::TrainMinutes,
            "fig12_training_minutes",
        ),
    ];
    for (fig, metric, file) in figures {
        if !which.contains(&fig) {
            continue;
        }
        println!("\n=== {} ({}) ===", fig, metric.label());
        let table = render_figure(&aggregated, metric);
        println!("{table}");
        write_out(
            &args.out_dir,
            &format!("{file}.csv"),
            &figure_csv(&aggregated, metric),
        );
    }
    if which.contains(&"fig13") {
        println!("\n=== fig13 (online feasibility heatmap) ===");
        let mut cells = Vec::new();
        let mut datasets: Vec<String> = Vec::new();
        for r in &out.results {
            let Some(&(freq, len)) = out.dataset_meta.get(&r.dataset) else {
                continue;
            };
            cells.push(online_cell(r, freq, len, &out.config));
            if !datasets.contains(&r.dataset) {
                datasets.push(r.dataset.clone());
            }
        }
        let heatmap = render_online_heatmap(&cells, &datasets);
        println!("{heatmap}");
        let mut csv = String::from("dataset,algorithm,ratio,feasible\n");
        for c in &cells {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                c.dataset,
                c.algo.name(),
                c.ratio.map(|r| format!("{r:.6e}")).unwrap_or_default(),
                c.feasible()
            ));
        }
        write_out(&args.out_dir, "fig13_online.csv", &csv);
    }
}

/// Per-dataset results in the paper's supplementary-material layout:
/// one block per dataset, one row per algorithm.
fn print_supplementary(out: &SweepOutput, args: &Args) {
    println!("\n=== supplementary: per-dataset results ===");
    let mut csv = String::from(
        "dataset,algorithm,accuracy,f1,earliness,harmonic_mean,train_secs,test_secs,dnf\n",
    );
    let mut datasets: Vec<String> = Vec::new();
    for r in &out.results {
        if !datasets.contains(&r.dataset) {
            datasets.push(r.dataset.clone());
        }
    }
    for ds in &datasets {
        println!("\n{ds}");
        println!(
            "  {:<10}{:>9}{:>9}{:>11}{:>9}{:>11}{:>11}",
            "Algorithm", "Acc", "F1", "Earliness", "HM", "Train (s)", "Test (ms)"
        );
        for r in out.results.iter().filter(|r| &r.dataset == ds) {
            match &r.metrics {
                Some(m) => {
                    println!(
                        "  {:<10}{:>9.3}{:>9.3}{:>11.3}{:>9.3}{:>11.2}{:>11.3}",
                        r.algo.name(),
                        m.accuracy,
                        m.f1,
                        m.earliness,
                        m.harmonic_mean,
                        r.train_secs,
                        r.test_secs_per_instance * 1000.0
                    );
                    csv.push_str(&format!(
                        "{ds},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},false\n",
                        r.algo.name(),
                        m.accuracy,
                        m.f1,
                        m.earliness,
                        m.harmonic_mean,
                        r.train_secs,
                        r.test_secs_per_instance
                    ));
                }
                None => {
                    println!("  {:<10}{:>9}", r.algo.name(), "DNF");
                    csv.push_str(&format!("{ds},{},,,,,,,true\n", r.algo.name()));
                }
            }
        }
    }
    write_out(&args.out_dir, "supplementary.csv", &csv);
}

/// The instrumented smoke matrix: three algorithms (ECTS plus the two
/// transform-backed STRUT variants) on two small datasets, followed by
/// validation of the emitted trace — span nesting, transform
/// attribution, and phase-duration accounting against the reported
/// train times.
fn run_smoke(args: &Args, obs: &Obs) {
    let datasets = [PaperDataset::PowerCons, PaperDataset::DodgerLoopGame];
    let algos = [AlgoSpec::Ects, AlgoSpec::SMini, AlgoSpec::SWeasel];
    let mut config = args.preset.run_config();
    args.opts.apply_config(&mut config);
    let generated: Vec<_> = datasets
        .iter()
        .map(|d| d.generate(args.preset.options(*d, args.seed())))
        .collect();
    println!(
        "smoke matrix: {} algorithms x {} datasets, seed {}, threads {}",
        algos.len(),
        generated.len(),
        args.seed(),
        args.threads()
    );
    let outcomes = MatrixRunner::new(config)
        .parallel(args.threads())
        .obs(obs.clone())
        .run(&generated, &algos)
        .unwrap_or_else(|e| {
            diag(format_args!("smoke matrix failed: {e}"));
            std::process::exit(1);
        });
    let names: Vec<String> = generated.iter().map(|d| d.name().to_owned()).collect();
    print!("{}", render_matrix_status(&outcomes, &names));
    if !obs.is_enabled() {
        println!("note: pass --trace/--metrics to validate the emitted trace");
        return;
    }

    let records = obs.tracer.records();
    let tree = TraceTree::build(&records).unwrap_or_else(|e| {
        diag(format_args!("smoke trace is structurally invalid: {e}"));
        std::process::exit(1);
    });
    let mut checked_cells = 0usize;
    let mut checked_folds = 0usize;
    let mut transform_spans = 0usize;
    for cv in tree.spans_named("cv") {
        let (Some(dataset), Some(algo)) = (cv.attr("dataset"), cv.attr("algo")) else {
            diag(format_args!(
                "cv span {} is missing dataset/algo attributes",
                cv.id
            ));
            std::process::exit(1);
        };
        let result = outcomes
            .iter()
            .filter_map(|o| o.run_result())
            .find(|r| r.dataset == dataset && r.algo.name() == algo)
            .unwrap_or_else(|| {
                diag(format_args!(
                    "cv span for {algo} on {dataset} has no matching result"
                ));
                std::process::exit(1);
            });
        let folds: Vec<_> = tree
            .children(cv.id)
            .iter()
            .filter_map(|&id| tree.span(id))
            .filter(|s| s.name == "fold")
            .collect();
        let mut fit_sum = 0.0;
        for fold in &folds {
            let kids: Vec<_> = tree
                .children(fold.id)
                .iter()
                .filter_map(|&id| tree.span(id))
                .collect();
            let fit = kids.iter().find(|s| s.name == "fit").unwrap_or_else(|| {
                diag(format_args!(
                    "fold {} of {algo} on {dataset} has no fit span",
                    fold.id
                ));
                std::process::exit(1);
            });
            if !kids.iter().any(|s| s.name == "predict") {
                diag(format_args!(
                    "fold {} of {algo} on {dataset} has no predict span",
                    fold.id
                ));
                std::process::exit(1);
            }
            transform_spans += tree
                .children(fit.id)
                .iter()
                .filter_map(|&id| tree.span(id))
                .filter(|s| s.name == "transform")
                .count();
            fit_sum += fit.duration_secs();
            checked_folds += 1;
        }
        // The reported train time is the per-fold average of the timed
        // fit calls; the fit spans wrap exactly those calls, so the
        // two bookkeepings must agree to within 5% (plus a millisecond
        // of slack for span overhead on near-zero cells).
        if !folds.is_empty() {
            let span_avg = fit_sum / folds.len() as f64;
            let tolerance = result.train_secs * 0.05 + 1e-3;
            if (span_avg - result.train_secs).abs() > tolerance {
                diag(format_args!(
                    "phase accounting drift for {algo} on {dataset}: \
                     fit spans average {span_avg:.6}s, train_secs {:.6}s",
                    result.train_secs
                ));
                std::process::exit(1);
            }
        }
        checked_cells += 1;
    }
    if checked_cells == 0 || transform_spans == 0 {
        diag(format_args!(
            "smoke trace incomplete: {checked_cells} cv spans, {transform_spans} transform spans"
        ));
        std::process::exit(1);
    }
    println!(
        "smoke trace validated: {checked_cells} cells, {checked_folds} folds with \
         fit+predict spans, {transform_spans} transform spans nested under fits"
    );
    let counters = obs.metrics.snapshot_counters();
    println!(
        "metrics: {} cells, {} folds, {} spans recorded ({} dropped)",
        counters.get("matrix_cells_total").copied().unwrap_or(0),
        counters.get("eval_folds_total").copied().unwrap_or(0),
        records.len(),
        obs.tracer.dropped()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            diag(format_args!("error: {e}"));
            diag(format_args!("usage: reproduce <table2|table3|table4|table5|fig9|fig10|fig11|fig12|fig13|figures|supplementary|bio-savings|smoke|all> [--preset quick|standard|full] [--fast] [--seed N] [--out DIR] [--threads N] [--journal PATH] [--resume] [--budget-secs N] [--retries N] [--folds N] [--trace FILE] [--metrics FILE]"));
            std::process::exit(2);
        }
    };
    let obs = args.opts.build_obs();
    etsc_obs::with_ambient(&obs, || dispatch(&args, &obs));
    if let Err(e) = args.opts.export(&obs) {
        diag(format_args!("error: {e}"));
        std::process::exit(1);
    }
    if let Some(path) = &args.opts.trace {
        println!(
            "wrote trace {path:?} ({} records)",
            obs.tracer.records().len()
        );
    }
    if let Some(path) = &args.opts.metrics {
        println!("wrote metrics snapshot {path:?}");
    }
}

fn dispatch(args: &Args, obs: &Obs) {
    match args.target.as_str() {
        "smoke" => run_smoke(args, obs),
        "table2" => {
            println!("=== Table 2: algorithm characteristics ===");
            print!("{}", render_table2());
        }
        "table3" => {
            println!(
                "=== Table 3: dataset characteristics (preset {:?}) ===",
                args.preset
            );
            print!("{}", render_table3(args.preset, args.seed()));
        }
        "table4" => {
            println!("=== Table 4: parameter values ===");
            print!("{}", render_table4(args.preset));
        }
        "table5" => {
            println!("=== Table 5: worst-case training complexity ===");
            print!("{}", render_table5());
        }
        "fig9" | "fig10" | "fig11" | "fig12" | "fig13" => {
            let out = sweep(args);
            print_figures(&out, args, &[args.target.as_str()]);
        }
        "supplementary" => {
            let out = sweep(args);
            print_supplementary(&out, args);
        }
        "figures" => {
            let out = sweep(args);
            print_figures(&out, args, &["fig9", "fig10", "fig11", "fig12", "fig13"]);
        }
        "bio-savings" => {
            println!("=== Section 6.3: biological early-termination savings ===");
            match biological_early_savings(args.preset, args.seed()) {
                Ok(fraction) => {
                    println!(
                        "non-interesting simulations identified before completion: {:.1}% (paper: 65%)",
                        fraction * 100.0
                    );
                }
                Err(e) => {
                    diag(format_args!("failed: {e}"));
                    std::process::exit(1);
                }
            }
        }
        "all" => {
            println!("=== Table 2: algorithm characteristics ===");
            print!("{}", render_table2());
            println!(
                "\n=== Table 3: dataset characteristics (preset {:?}) ===",
                args.preset
            );
            print!("{}", render_table3(args.preset, args.seed()));
            println!("\n=== Table 4: parameter values ===");
            print!("{}", render_table4(args.preset));
            println!("\n=== Table 5: worst-case training complexity ===");
            print!("{}", render_table5());
            let out = sweep(args);
            print_figures(&out, args, &["fig9", "fig10", "fig11", "fig12", "fig13"]);
            println!("\n=== Section 6.3: biological early-termination savings ===");
            match biological_early_savings(args.preset, args.seed()) {
                Ok(fraction) => println!(
                    "non-interesting simulations identified before completion: {:.1}% (paper: 65%)",
                    fraction * 100.0
                ),
                Err(e) => diag(format_args!("bio-savings failed: {e}")),
            }
        }
        other => {
            diag(format_args!("unknown target {other:?}"));
            std::process::exit(2);
        }
    }
}
