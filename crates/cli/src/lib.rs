//! Implementation of the `etsc` command-line interface (see `main.rs`
//! for the command grammar). The logic lives in the library so the test
//! suite can drive every command against an in-memory writer.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_core::registry::trigger_combos;
use etsc_core::{EarlyClassifier, TriggeredBase};
use etsc_data::loader::{load_csv, write_csv};
use etsc_data::{train_validation_split, Dataset};
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{run_cell, AlgoSpec, RunConfig};
use etsc_eval::report::render_matrix_status;
use etsc_eval::supervisor::SupervisorOptions;
use etsc_eval::{CommonOpts, FaultPlan, MatrixRunner, TriggerCellResult};
use etsc_net::{
    Backpressure, Client, ClientConfig, Endpoint, NetError, RouterBuilder, ServerBuilder,
};
use etsc_serve::{
    fit_model, fit_triggered_model, load_resilient, replay_dataset, DeadlineConfig, FallbackPolicy,
    ReplayOptions, StoredModel,
};
use etsc_trigger::{CalibrationKind, TriggerKind, TriggerSpec};

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage: etsc <command> [--flag value ...]

shared flags (canonical spellings, accepted by evaluate, matrix,
train, and serve; `reproduce` uses the same names):
  --seed N  --folds N  --threads N  --fit-threads N  --budget-secs N
  --retries N  --journal FILE  --resume  --trace FILE  --metrics FILE
  (--parallel is a deprecated alias for --threads; --trace writes a
  JSONL span trace, --metrics a Prometheus text snapshot)

trigger flags (train, matrix, serve):
  --trigger NAME[:PARAMS]   wrap a probability-emitting base classifier
                            (MiniROCKET | WEASEL | MLSTM) in a decision
                            trigger; families: threshold, patience,
                            cost, calibrated (see list-triggers)
  --calibrate platt|isotonic|none   calibration layer for the trigger's
                            confidence scores
  on matrix, --trigger takes a ';'-separated list of specs and --algos
  names base classifiers; on serve, --trigger re-parameterizes the
  stored trigger without refitting (data-free families only)

commands:
  list-algorithms    the eight evaluated algorithms and their traits
  list-triggers      the trigger families and every registered
                     base-classifier x trigger combination
  list-datasets      the twelve paper datasets and their shapes
  generate           write a generated dataset as interchange CSV
                     --dataset NAME --out FILE
                     [--height-scale S] [--length-scale S] [--seed N]
  evaluate           cross-validated metrics for one algorithm
                     (--dataset NAME | --data FILE --vars K) --algo NAME
                     [--folds N] [--seed N] [--budget-secs N]
                     [--trace FILE] [--metrics FILE]
  matrix             supervised (datasets x algorithms) evaluation:
                     panic isolation, retries, checkpoint/resume
                     [--datasets A,B,..] [--algos X,Y,..] [--folds N]
                     [--seed N] [--budget-secs N] [--retries N]
                     [--threads N] [--fit-threads N] [--journal FILE]
                     [--resume] [--trace FILE] [--metrics FILE]
                     [--height-scale S] [--length-scale S]
  stream             replay one instance point-by-point
                     (--dataset NAME | --data FILE --vars K) --algo NAME
                     [--instance I] [--seed N]
  train              fit one algorithm and persist the model
                     (--dataset NAME | --data FILE --vars K) --algo NAME
                     --save FILE [--seed N] [--budget-secs N]
                     [--height-scale S] [--length-scale S]
  serve              replay a dataset through a saved model as
                     concurrent streaming sessions (lossless and
                     unqueued, partitioned over --workers threads), or
                     (with --listen) serve the model over TCP
                     --model FILE (--replay NAME | --data FILE --vars K)
                     [--sessions N] [--workers N]
                     [--obs-freq SECS] [--height-scale S]
                     [--length-scale S] [--seed N]
                     [--deadline-ms N] [--fallback wait|prior|decide-now]
                     [--faults SPEC] [--trace FILE] [--metrics FILE]
                     network mode: --model FILE --listen ADDR
                     [--max-conns N] [--queue N] [--shed]
                     [--event-loops N] (0 = auto-size to the machine)
                     [--deadline-ms N] [--fallback wait|prior|decide-now]
                     [--faults SPEC --fault-sessions N]
                     [--duration-secs N] (0 = until a client requests
                     shutdown) [--trace FILE] [--metrics FILE]
                     SPEC example: seed=42,panics=1,delay-rate=0.05,
                     delay-ms=50,nan-rate=0.02,corrupt-model=true
                     (network faults: torn-rate, disconnect-rate,
                     loris-rate, loris-ms)
  route              front a fleet of serving shards with a
                     consistent-hash session router (health probes,
                     circuit breakers, migration on shard death)
                     --listen ADDR --shards A,B,C
                     [--max-conns N] [--vnodes N]
                     [--probe-interval-ms N] [--probe-timeout-ms N]
                     [--duration-secs N] (0 = until a client requests
                     shutdown) [--trace FILE] [--metrics FILE]
  replicate          copy a saved model to shard replica paths
                     --model FILE --to F1,F2,..
  predict            classify instances with a saved model, locally or
                     against a remote server
                     --model FILE (--dataset NAME | --data FILE --vars K)
                     [--instance I] [--stream]
                     network mode: --connect ADDR
                     (--dataset NAME | --data FILE --vars K)
                     [--instance I] [--feedback] (report the true label
                     back after the verdict so an adapting server can
                     learn from it)";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; print usage.
    Usage(String),
    /// The command itself failed.
    Runtime(String),
}

type Flags = HashMap<String, String>;

fn parse<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --{name} value {v:?}"))),
    }
}

/// Decodes the canonical shared options (`--seed`, `--threads`,
/// `--trace`, ...) out of the flag map; command-specific flags are left
/// for the command to interpret.
fn common_opts(flags: &Flags) -> Result<CommonOpts, CliError> {
    let mut opts = CommonOpts::default();
    for (name, value) in flags {
        opts.accept(name, value).map_err(CliError::Usage)?;
    }
    Ok(opts)
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("--{name} is required")))
}

/// Loads the dataset named by `--dataset` (generated) or `--data`+`--vars`
/// (CSV file).
fn load_input(flags: &Flags) -> Result<Dataset, CliError> {
    if let Some(name) = flags.get("dataset") {
        let ds = PaperDataset::by_name(name)
            .ok_or_else(|| CliError::Usage(format!("unknown dataset {name:?}")))?;
        let options = GenOptions {
            height_scale: parse(flags, "height-scale", 0.2_f64)?,
            length_scale: parse(flags, "length-scale", 0.5_f64)?,
            seed: parse(flags, "seed", 7_u64)?,
        };
        Ok(ds.generate(options))
    } else if let Some(path) = flags.get("data") {
        let vars = parse(flags, "vars", 1_usize)?;
        load_csv(path, vars).map_err(|e| CliError::Runtime(format!("loading {path:?}: {e}")))
    } else {
        Err(CliError::Usage(
            "provide --dataset NAME or --data FILE [--vars K]".into(),
        ))
    }
}

/// Loads a model through the crash-consistent path: a corrupt file is
/// quarantined and the `.prev` last-good copy served instead, with the
/// degradation reported on `out`.
fn load_model(path: &std::path::Path, out: &mut dyn Write) -> Result<StoredModel, CliError> {
    let outcome = load_resilient(path)
        .map_err(|e| CliError::Runtime(format!("loading {}: {e}", path.display())))?;
    for warning in &outcome.warnings {
        writeln!(out, "warning: {warning}")
            .map_err(|e| CliError::Runtime(format!("write failed: {e}")))?;
    }
    Ok(outcome.model)
}

fn emit(out: &mut dyn Write, s: String) -> Result<(), CliError> {
    out.write_all(s.as_bytes())
        .map_err(|e| CliError::Runtime(format!("write failed: {e}")))
}

/// Decodes `--deadline-ms` + `--fallback` into a [`DeadlineConfig`].
/// The prior label is a placeholder; both serving paths overwrite it
/// with the stored model's majority training class.
fn parse_deadline(flags: &Flags) -> Result<Option<DeadlineConfig>, CliError> {
    if flags.get("deadline-ms").is_none() {
        return Ok(None);
    }
    let ms: u64 = parse(flags, "deadline-ms", 50_u64)?;
    let policy = match flags.get("fallback").map(String::as_str) {
        None | Some("wait") => FallbackPolicy::Wait,
        Some("prior") => FallbackPolicy::PriorClass,
        Some("decide-now") => FallbackPolicy::DecideNow,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "invalid --fallback {other:?} (wait | prior | decide-now)"
            )))
        }
    };
    Ok(Some(DeadlineConfig {
        deadline: Duration::from_millis(ms),
        policy,
        prior_label: 0,
    }))
}

fn parse_faults(flags: &Flags) -> Result<Option<FaultPlan>, CliError> {
    match flags.get("faults") {
        None => Ok(None),
        Some(spec) => FaultPlan::parse(spec)
            .map(Some)
            .map_err(|e| CliError::Usage(format!("invalid --faults: {e}"))),
    }
}

/// Decodes `--trigger NAME[:PARAMS]` (+ optional `--calibrate`) into a
/// [`TriggerSpec`]. `None` when `--trigger` is absent.
fn parse_trigger(flags: &Flags) -> Result<Option<TriggerSpec>, CliError> {
    let spec = match flags.get("trigger") {
        None => {
            if flags.contains_key("calibrate") {
                return Err(CliError::Usage(
                    "--calibrate needs --trigger NAME[:PARAMS]".into(),
                ));
            }
            return Ok(None);
        }
        Some(s) => {
            TriggerSpec::parse(s).map_err(|e| CliError::Usage(format!("invalid --trigger: {e}")))?
        }
    };
    Ok(Some(apply_calibrate(spec, flags)?))
}

/// Applies the `--calibrate` override to one parsed spec.
fn apply_calibrate(spec: TriggerSpec, flags: &Flags) -> Result<TriggerSpec, CliError> {
    match flags.get("calibrate") {
        None => Ok(spec),
        Some(c) => {
            let kind = CalibrationKind::parse(c).ok_or_else(|| {
                CliError::Usage(format!(
                    "invalid --calibrate {c:?} (platt | isotonic | none)"
                ))
            })?;
            if spec.kind == TriggerKind::Calibrated && kind == CalibrationKind::None {
                return Err(CliError::Usage(
                    "the calibrated trigger requires platt or isotonic calibration".into(),
                ));
            }
            Ok(spec.with_calibration(kind))
        }
    }
}

/// Serve-time `--trigger` override: re-parameterizes the stored trigger
/// of a loaded trigger-wrapped model without refitting.
fn apply_trigger_override(stored: &mut StoredModel, flags: &Flags) -> Result<(), CliError> {
    let Some(spec) = parse_trigger(flags)? else {
        return Ok(());
    };
    let prior = stored.model.fitted_trigger().cloned().ok_or_else(|| {
        CliError::Usage(
            "--trigger on serve needs a trigger-wrapped model (train ... --trigger)".into(),
        )
    })?;
    let trigger = spec.refit_from(&prior).map_err(CliError::Usage)?;
    stored.model.install_trigger(trigger);
    if let Some(desc) = &mut stored.meta.trigger {
        desc.spec = spec.canonical();
    }
    Ok(())
}

/// Renders the trigger-axis matrix results as a fixed-width table.
fn render_trigger_cells(results: &[TriggerCellResult]) -> String {
    let mut s = format!(
        "{:<16}{:<12}{:<36}{:>9}{:>11}{:>9}\n",
        "Dataset", "Base", "Trigger", "acc", "earliness", "HM"
    );
    let mut ok = 0;
    for r in results {
        match (&r.metrics, r.dnf, &r.error) {
            (Some(m), _, _) => {
                ok += 1;
                s.push_str(&format!(
                    "{:<16}{:<12}{:<36}{:>9.4}{:>11.4}{:>9.4}\n",
                    r.dataset, r.base, r.trigger, m.accuracy, m.earliness, m.harmonic_mean
                ));
            }
            (None, true, _) => {
                s.push_str(&format!(
                    "{:<16}{:<12}{:<36}{:>29}\n",
                    r.dataset, r.base, r.trigger, "DNF"
                ));
            }
            (None, _, err) => {
                s.push_str(&format!(
                    "{:<16}{:<12}{:<36}  ERR {}\n",
                    r.dataset,
                    r.base,
                    r.trigger,
                    err.as_deref().unwrap_or("unknown")
                ));
            }
        }
    }
    s.push_str(&format!("{ok} OK of {} trigger cells\n", results.len()));
    s
}

fn build_algo(flags: &Flags, data: &Dataset) -> Result<Box<dyn EarlyClassifier>, CliError> {
    let name = required(flags, "algo")?;
    let spec = AlgoSpec::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown algorithm {name:?}")))?;
    Ok(spec.build(data, &RunConfig::fast()))
}

/// Runs one CLI command, writing human-readable output to `out`.
///
/// # Errors
/// [`CliError::Usage`] for bad arguments, [`CliError::Runtime`] for
/// execution failures.
pub fn run(command: &str, flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        "list-algorithms" => {
            let mut s = format!(
                "{:<10}{:<14}{:<22}\n",
                "Name", "Kind", "Multivariate support"
            );
            for a in AlgoSpec::ALL {
                s.push_str(&format!(
                    "{:<10}{:<14}{:<22}\n",
                    a.name(),
                    if a.univariate_only() { "ETSC" } else { "STRUT" },
                    if a.univariate_only() {
                        "via voting adapter"
                    } else {
                        "native"
                    },
                ));
            }
            emit(out, s)
        }
        "list-triggers" => {
            let mut s = String::from("trigger families (--trigger NAME[:PARAMS]):\n");
            for info in etsc_trigger::all_triggers() {
                s.push_str(&format!(
                    "  {:<12}{:<12}{}\n  {:<12}params: {}\n",
                    info.name,
                    if info.myopic { "myopic" } else { "non-myopic" },
                    info.summary,
                    "",
                    info.params,
                ));
            }
            s.push_str("\nregistered base x trigger combos (train/matrix --trigger):\n");
            for combo in trigger_combos() {
                s.push_str(&format!(
                    "  {:<24}default spec: {}\n",
                    combo.name(),
                    combo.default_spec
                ));
            }
            emit(out, s)
        }
        "list-datasets" => {
            let mut s = format!(
                "{:<24}{:>8}{:>8}{:>6}{:>9}  {}\n",
                "Name", "height", "length", "vars", "classes", "frequency (s/obs)"
            );
            for d in PaperDataset::ALL {
                let spec = d.spec();
                s.push_str(&format!(
                    "{:<24}{:>8}{:>8}{:>6}{:>9}  {}\n",
                    spec.name,
                    spec.height,
                    spec.length,
                    spec.vars,
                    spec.n_classes,
                    spec.obs_frequency_secs
                ));
            }
            emit(out, s)
        }
        "generate" => {
            let data = load_input(flags)?;
            let path = required(flags, "out")?;
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Runtime(format!("creating {path:?}: {e}")))?;
            write_csv(&data, std::io::BufWriter::new(file))
                .map_err(|e| CliError::Runtime(format!("writing {path:?}: {e}")))?;
            emit(
                out,
                format!(
                    "wrote {} instances x {} vars x {} points to {path}\n",
                    data.len(),
                    data.vars(),
                    data.max_len()
                ),
            )
        }
        "evaluate" => {
            let data = load_input(flags)?;
            let name = required(flags, "algo")?;
            let spec = AlgoSpec::by_name(name)
                .ok_or_else(|| CliError::Usage(format!("unknown algorithm {name:?}")))?;
            let opts = common_opts(flags)?;
            let mut config = RunConfig {
                folds: 3,
                seed: 2024,
                ..RunConfig::fast()
            };
            opts.apply_config(&mut config);
            let obs = opts.build_obs();
            let result = run_cell(spec, &data, &config, &obs);
            opts.export(&obs)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            let r = result.map_err(|e| CliError::Runtime(format!("evaluation failed: {e}")))?;
            match r.metrics {
                Some(m) => emit(
                    out,
                    format!(
                        "{} on {} ({} folds)\n\
                         accuracy       {:.4}\n\
                         f1 (macro)     {:.4}\n\
                         earliness      {:.4}\n\
                         harmonic mean  {:.4}\n\
                         train          {:.2} s/fold\n\
                         test           {:.3} ms/instance\n",
                        spec.name(),
                        data.name(),
                        config.folds,
                        m.accuracy,
                        m.f1,
                        m.earliness,
                        m.harmonic_mean,
                        r.train_secs,
                        r.test_secs_per_instance * 1000.0
                    ),
                ),
                None => emit(
                    out,
                    format!(
                        "{} on {}: DNF (training budget exceeded)\n",
                        spec.name(),
                        data.name()
                    ),
                ),
            }
        }
        "matrix" => {
            let datasets: Vec<PaperDataset> = match flags.get("datasets") {
                None => PaperDataset::ALL.to_vec(),
                Some(list) => list
                    .split(',')
                    .map(|name| {
                        PaperDataset::by_name(name.trim())
                            .ok_or_else(|| CliError::Usage(format!("unknown dataset {name:?}")))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let opts = common_opts(flags)?;
            let mut config = RunConfig {
                folds: 3,
                seed: 2024,
                ..RunConfig::fast()
            };
            opts.apply_config(&mut config);
            let options = opts.supervisor_options(SupervisorOptions {
                max_threads: 2,
                ..SupervisorOptions::default()
            });
            if options.resume && options.journal.is_none() {
                return Err(CliError::Usage("--resume needs --journal FILE".into()));
            }
            let gen_options = GenOptions {
                height_scale: parse(flags, "height-scale", 0.2_f64)?,
                length_scale: parse(flags, "length-scale", 0.5_f64)?,
                seed: config.seed,
            };
            let generated: Vec<Dataset> =
                datasets.iter().map(|d| d.generate(gen_options)).collect();
            let names: Vec<String> = generated.iter().map(|d| d.name().to_owned()).collect();
            let obs = opts.build_obs();
            // `--trigger` switches the matrix to its trigger axis:
            // `--algos` then names base classifiers and the trigger list
            // is ';'-separated (spec params use ',').
            if let Some(list) = flags.get("trigger") {
                let specs: Vec<TriggerSpec> = list
                    .split(';')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| {
                        let spec = TriggerSpec::parse(s.trim())
                            .map_err(|e| CliError::Usage(format!("invalid --trigger: {e}")))?;
                        apply_calibrate(spec, flags)
                    })
                    .collect::<Result<_, _>>()?;
                if specs.is_empty() {
                    return Err(CliError::Usage("--trigger names no specs".into()));
                }
                let bases: Vec<TriggeredBase> = match flags.get("algos") {
                    None => vec![TriggeredBase::MiniRocket, TriggeredBase::Weasel],
                    Some(list) => list
                        .split(',')
                        .map(|name| {
                            TriggeredBase::parse(name.trim()).ok_or_else(|| {
                                CliError::Usage(format!(
                                    "unknown base classifier {name:?} \
                                     (MiniROCKET | WEASEL | MLSTM)"
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?,
                };
                let results = MatrixRunner::new(config)
                    .supervised(options)
                    .obs(obs.clone())
                    .run_triggered(&generated, &bases, &specs)
                    .map_err(|e| CliError::Runtime(format!("trigger matrix failed: {e}")))?;
                opts.export(&obs)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                return emit(out, render_trigger_cells(&results));
            }
            let algos: Vec<AlgoSpec> = match flags.get("algos") {
                None => AlgoSpec::ALL.to_vec(),
                Some(list) => list
                    .split(',')
                    .map(|name| {
                        AlgoSpec::by_name(name.trim())
                            .ok_or_else(|| CliError::Usage(format!("unknown algorithm {name:?}")))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let outcomes = MatrixRunner::new(config)
                .supervised(options)
                .obs(obs.clone())
                .run(&generated, &algos)
                .map_err(|e| CliError::Runtime(format!("supervised matrix failed: {e}")))?;
            opts.export(&obs)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            emit(out, render_matrix_status(&outcomes, &names))
        }
        "stream" => {
            let data = load_input(flags)?;
            let instance_idx = parse(flags, "instance", 0_usize)?;
            if instance_idx >= data.len() {
                return Err(CliError::Usage(format!(
                    "--instance {instance_idx} out of range (dataset has {})",
                    data.len()
                )));
            }
            let seed = parse(flags, "seed", 2024_u64)?;
            // Train on everything except a stratified quarter containing
            // the chosen instance being held out manually.
            let (mut train_idx, _) = train_validation_split(&data, 0.1, seed)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            train_idx.retain(|&i| i != instance_idx);
            let train = data.subset(&train_idx);
            let mut clf = build_algo(flags, &data)?;
            clf.fit(&train)
                .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
            let inst = data.instance(instance_idx);
            let mut stream = clf
                .start_stream()
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            let mut s = format!(
                "streaming instance {instance_idx} (true class: {})\n",
                data.class_names()[data.label(instance_idx)]
            );
            for t in 1..=inst.len() {
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t - 1)).collect();
                stream
                    .push(&row)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                match stream
                    .decide(t == inst.len())
                    .map_err(|e| CliError::Runtime(e.to_string()))?
                {
                    Some(label) => {
                        s.push_str(&format!(
                            "t={t:>4}: COMMITTED -> {} (earliness {:.3})\n",
                            data.class_names()[label],
                            t as f64 / inst.len() as f64
                        ));
                        return emit(out, s);
                    }
                    None => {
                        if t % (inst.len() / 8).max(1) == 0 {
                            s.push_str(&format!("t={t:>4}: waiting for more data\n"));
                        }
                    }
                }
            }
            Err(CliError::Runtime(
                "stream ended without a decision (algorithm bug)".into(),
            ))
        }
        "train" => {
            let data = load_input(flags)?;
            let name = required(flags, "algo")?;
            let save_path = required(flags, "save")?;
            let opts = common_opts(flags)?;
            let mut config = RunConfig {
                seed: 2024,
                ..RunConfig::fast()
            };
            opts.apply_config(&mut config);
            let stored = match parse_trigger(flags)? {
                // `--trigger` wraps a probability-emitting base
                // classifier instead of training a built-in algorithm.
                Some(spec) => {
                    let base = TriggeredBase::parse(name).ok_or_else(|| {
                        CliError::Usage(format!(
                            "--trigger wraps a base classifier, not an algorithm; \
                             unknown base {name:?} (MiniROCKET | WEASEL | MLSTM)"
                        ))
                    })?;
                    fit_triggered_model(base, &spec, &data, &config)
                }
                None => {
                    let spec = AlgoSpec::by_name(name)
                        .ok_or_else(|| CliError::Usage(format!("unknown algorithm {name:?}")))?;
                    fit_model(spec, &data, &config)
                }
            }
            .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
            stored
                .save(save_path)
                .map_err(|e| CliError::Runtime(format!("saving {save_path:?}: {e}")))?;
            let size = std::fs::metadata(save_path).map(|m| m.len()).unwrap_or(0);
            emit(
                out,
                format!(
                    "saved {} trained on {} ({} instances x {} vars x {} points, {} classes) \
                     to {save_path} ({size} bytes)\n",
                    stored.meta.algo_label(),
                    data.name(),
                    data.len(),
                    data.vars(),
                    data.max_len(),
                    stored.meta.class_names.len(),
                ),
            )
        }
        "serve" => {
            if let Some(addr) = flags.get("listen") {
                return serve_listen(addr, flags, out);
            }
            // The CLI ignores unknown flags, so the queueing flags only
            // `--listen` takes are refused here instead of doing nothing.
            if let Some(flag) = ["queue", "shed", "max-restarts"]
                .into_iter()
                .find(|f| flags.contains_key(*f))
            {
                return Err(CliError::Usage(format!(
                    "--{flag} does not apply to replay: replay is lossless and unqueued \
                     (--queue and --shed size the outbound queue of --listen)"
                )));
            }
            let model_path = required(flags, "model")?;
            let faults = parse_faults(flags)?;
            let mut stored = match &faults {
                // A corrupt-model fault stages a bit-flipped copy (with
                // a pristine `.prev`) in a temp dir and loads it through
                // the resilient path, demonstrating last-good fallback.
                Some(plan) if plan.corrupt_model => {
                    let bytes = std::fs::read(model_path)
                        .map_err(|e| CliError::Runtime(format!("reading {model_path:?}: {e}")))?;
                    if bytes.is_empty() {
                        return Err(CliError::Runtime(format!("{model_path:?} is empty")));
                    }
                    let dir = std::env::temp_dir().join(format!("etsc-chaos-{}", plan.seed));
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| CliError::Runtime(format!("creating {dir:?}: {e}")))?;
                    let staged = dir.join("chaos.model");
                    std::fs::remove_file(dir.join("chaos.model.quarantine")).ok();
                    std::fs::write(dir.join("chaos.model.prev"), &bytes)
                        .map_err(|e| CliError::Runtime(format!("staging last-good copy: {e}")))?;
                    let mut corrupted = bytes;
                    let offset = plan.corruption_offset(corrupted.len());
                    corrupted[offset] ^= 0xff;
                    std::fs::write(&staged, &corrupted)
                        .map_err(|e| CliError::Runtime(format!("staging corrupt copy: {e}")))?;
                    emit(
                        out,
                        format!(
                            "fault: flipped byte {offset} of {} (pristine .prev kept)\n",
                            staged.display()
                        ),
                    )?;
                    load_model(&staged, out)?
                }
                _ => load_model(std::path::Path::new(model_path), out)?,
            };
            apply_trigger_override(&mut stored, flags)?;
            // `--replay NAME` names a generated dataset; `--data` loads a
            // CSV. Either way the stream is replayed at the dataset's (or
            // an overridden) observation frequency.
            let (data, default_freq) = if let Some(name) = flags.get("replay") {
                let ds = PaperDataset::by_name(name)
                    .ok_or_else(|| CliError::Usage(format!("unknown dataset {name:?}")))?;
                let options = GenOptions {
                    height_scale: parse(flags, "height-scale", 0.2_f64)?,
                    length_scale: parse(flags, "length-scale", 0.5_f64)?,
                    seed: parse(flags, "seed", 7_u64)?,
                };
                (ds.generate(options), ds.spec().obs_frequency_secs)
            } else {
                (load_input(flags)?, 1.0)
            };
            if data.vars() != stored.meta.vars {
                return Err(CliError::Usage(format!(
                    "model expects {} variables, dataset has {}",
                    stored.meta.vars,
                    data.vars()
                )));
            }
            let sessions = parse(flags, "sessions", data.len())?;
            if sessions == 0 || data.is_empty() {
                return Err(CliError::Usage("nothing to serve (0 sessions)".into()));
            }
            let indices: Vec<usize> = (0..sessions).map(|i| i % data.len()).collect();
            let data = data.subset(&indices);
            let batch = stored
                .meta
                .decision_batch(data.max_len(), &RunConfig::fast());
            let deadline = parse_deadline(flags)?;
            let opts = common_opts(flags)?;
            let obs = opts.build_obs();
            let options = ReplayOptions {
                obs_frequency_secs: parse(flags, "obs-freq", default_freq)?,
                batch,
                workers: parse(flags, "workers", 4_usize)?,
                deadline,
                faults,
                obs: obs.clone(),
            };
            let outcome = replay_dataset(&stored, &data, &options);
            // Flush the registry BEFORE propagating a replay failure, so
            // a failed run still leaves its counts in the scrape artifact.
            opts.export(&obs)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            let outcome = outcome.map_err(|e| CliError::Runtime(format!("replay failed: {e}")))?;
            let mut rendered = outcome.render();
            if opts.metrics.is_some() {
                // Dump the snapshot into the report too, so the figures
                // and the scrape artifact can be eyeballed side by side.
                rendered.push_str("\nmetrics snapshot:\n");
                rendered.push_str(&obs.metrics.render_prometheus());
            }
            emit(out, rendered)
        }
        "route" => {
            let addr = required(flags, "listen")?;
            route_listen(addr, flags, out)
        }
        "replicate" => {
            let model_path = required(flags, "model")?;
            let to = required(flags, "to")?;
            let dests: Vec<&str> = to.split(',').filter(|s| !s.is_empty()).collect();
            if dests.is_empty() {
                return Err(CliError::Usage("--to needs at least one path".into()));
            }
            let model = etsc_serve::replicate(model_path, &dests)
                .map_err(|e| CliError::Runtime(format!("replicating {model_path:?}: {e}")))?;
            emit(
                out,
                format!(
                    "replicated {} ({} on {}) to {} path{}\n",
                    model_path,
                    model.meta.algo_label(),
                    model.meta.dataset,
                    dests.len(),
                    if dests.len() == 1 { "" } else { "s" },
                ),
            )
        }
        "predict" => {
            if let Some(addr) = flags.get("connect") {
                return predict_connect(addr, flags, out);
            }
            let model_path = required(flags, "model")?;
            let stored = load_model(std::path::Path::new(model_path), out)?;
            let data = load_input(flags)?;
            let instance_idx = parse(flags, "instance", 0_usize)?;
            if instance_idx >= data.len() {
                return Err(CliError::Usage(format!(
                    "--instance {instance_idx} out of range (dataset has {})",
                    data.len()
                )));
            }
            let inst = data.instance(instance_idx);
            let class_name = |label: usize| {
                stored
                    .meta
                    .class_names
                    .get(label)
                    .map_or_else(|| format!("class {label}"), Clone::clone)
            };
            if parse(flags, "stream", false)? {
                // Incremental mode: feed the instance observation by
                // observation through a live session.
                let mut session =
                    etsc_serve::StreamSession::new(stored.classifier(), inst.vars(), inst.len(), 1)
                        .map_err(|e| CliError::Runtime(e.to_string()))?;
                let mut s = format!("streaming instance {instance_idx} through {model_path}\n");
                for t in 0..inst.len() {
                    let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                    match session
                        .push(&row)
                        .map_err(|e| CliError::Runtime(e.to_string()))?
                    {
                        Some(p) => {
                            s.push_str(&format!(
                                "t={:>4}: COMMITTED -> {} (earliness {:.3})\n",
                                t + 1,
                                class_name(p.label),
                                p.prefix_len as f64 / inst.len() as f64
                            ));
                            return emit(out, s);
                        }
                        None => {
                            if (t + 1) % (inst.len() / 8).max(1) == 0 {
                                s.push_str(&format!("t={:>4}: waiting for more data\n", t + 1));
                            }
                        }
                    }
                }
                Err(CliError::Runtime(
                    "stream ended without a decision (algorithm bug)".into(),
                ))
            } else {
                let p = stored
                    .classifier()
                    .predict_early(inst)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
                emit(
                    out,
                    format!(
                        "instance {instance_idx}: {} at prefix {} of {} (earliness {:.3})\n",
                        class_name(p.label),
                        p.prefix_len,
                        inst.len(),
                        p.prefix_len as f64 / inst.len() as f64
                    ),
                )
            }
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// `etsc serve --listen ADDR`: expose a saved model over TCP via the
/// `etsc-net` wire protocol. With `--duration-secs 0` (the default)
/// the server runs until a client sends a Shutdown frame; either way
/// the stop is a graceful drain — in-flight sessions get answers.
fn serve_listen(addr: &str, flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    // The CLI ignores unknown flags, so the removed admission flags are
    // refused here instead of doing nothing.
    if let Some(flag) = [
        "admission",
        "admission-open-rate",
        "codel-target-ms",
        "brownout-high-ms",
        "brownout-tighten-ms",
    ]
    .into_iter()
    .find(|f| flags.contains_key(*f))
    {
        return Err(CliError::Usage(format!(
            "--{flag} no longer exists: the overload control of --listen is each session's \
             deadline, --deadline-ms N --fallback wait|prior|decide-now (or the client's \
             propagated deadline)"
        )));
    }
    let model_path = required(flags, "model")?;
    let faults = parse_faults(flags)?;
    let fault_horizon = parse(flags, "fault-sessions", 0_usize)?;
    if faults.is_some() && fault_horizon == 0 {
        return Err(CliError::Usage(
            "--faults on the network path needs --fault-sessions N".into(),
        ));
    }
    let mut stored = load_model(std::path::Path::new(model_path), out)?;
    apply_trigger_override(&mut stored, flags)?;
    let opts = common_opts(flags)?;
    let obs = opts.build_obs();
    let mut builder = ServerBuilder::new()
        .max_connections(parse(flags, "max-conns", 64_usize)?)
        .max_pending_frames(parse(flags, "queue", 1024_usize)?)
        .backpressure(if parse(flags, "shed", false)? {
            Backpressure::Shed
        } else {
            Backpressure::Block
        })
        // 0 = auto-size to the machine (clamped by the server).
        .event_loop_threads(parse(flags, "event-loops", 0_usize)?)
        .obs(obs.clone());
    if let Some(mut d) = parse_deadline(flags)? {
        d.prior_label = stored.meta.prior_label;
        builder = builder.deadline(d);
    }
    if let Some(plan) = faults {
        builder = builder.faults(plan, fault_horizon);
    }
    let meta = stored.meta.clone();
    let server = Endpoint::serve(Arc::new(stored), addr, builder)
        .map_err(|e| CliError::Runtime(format!("binding {addr}: {e}")))?;
    emit(
        out,
        format!(
            "serving {} trained on {} at {}\n",
            meta.algo_label(),
            meta.dataset,
            server.local_addr()
        ),
    )?;
    out.flush()
        .map_err(|e| CliError::Runtime(format!("write failed: {e}")))?;
    let duration = parse(flags, "duration-secs", 0_u64)?;
    let started = Instant::now();
    while !server.is_draining() {
        if duration > 0 && started.elapsed() >= Duration::from_secs(duration) {
            server.shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = server.join();
    opts.export(&obs)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut s = format!(
        "drained after {:.1} s\n\
         connections    {} accepted, {} shed, {} closed\n\
         sessions       {} opened, {} resumed, {} decided ({} at drain), \
         {} failed, {} abandoned\n\
         frames         {} read, {} written, {} shed\n\
         faults         {} protocol errors, {} worker panics\n\
         overload       {} observations expired\n\
         open sessions at exit: {}\n",
        started.elapsed().as_secs_f64(),
        stats.connections_accepted,
        stats.connections_shed,
        stats.connections_closed,
        stats.sessions_opened,
        stats.sessions_resumed,
        stats.sessions_decided,
        stats.drain_decisions,
        stats.sessions_failed,
        stats.sessions_abandoned,
        stats.frames_read,
        stats.frames_written,
        stats.frames_shed,
        stats.proto_errors,
        stats.worker_panics,
        stats.observations_expired,
        stats.open_sessions(),
    );
    if opts.metrics.is_some() {
        s.push_str("\nmetrics snapshot:\n");
        s.push_str(&obs.metrics.render_prometheus());
    }
    emit(out, s)
}

/// `etsc route --listen ADDR --shards A,B,C`: front a fleet of
/// `etsc serve --listen` shards with the consistent-hash session
/// router. Runs until a client sends a Shutdown frame (or the
/// `--duration-secs` budget elapses), then drains gracefully.
fn route_listen(addr: &str, flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let shards_flag = required(flags, "shards")?;
    let shards: Vec<String> = shards_flag
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err(CliError::Usage(
            "--shards needs at least one address".into(),
        ));
    }
    let opts = common_opts(flags)?;
    let obs = opts.build_obs();
    let builder = RouterBuilder::new()
        .max_connections(parse(flags, "max-conns", 64_usize)?)
        .vnodes(parse(flags, "vnodes", 64_usize)?)
        .probes(
            Duration::from_millis(parse(flags, "probe-interval-ms", 200_u64)?),
            Duration::from_millis(parse(flags, "probe-timeout-ms", 500_u64)?),
        )
        .obs(obs.clone());
    let router = Endpoint::route(addr, &shards, builder)
        .map_err(|e| CliError::Runtime(format!("binding {addr}: {e}")))?;
    emit(
        out,
        format!(
            "routing across {} shard{} at {}\n",
            shards.len(),
            if shards.len() == 1 { "" } else { "s" },
            router.local_addr()
        ),
    )?;
    out.flush()
        .map_err(|e| CliError::Runtime(format!("write failed: {e}")))?;
    let duration = parse(flags, "duration-secs", 0_u64)?;
    let started = Instant::now();
    while !router.is_draining() {
        if duration > 0 && started.elapsed() >= Duration::from_secs(duration) {
            router.shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = router.join();
    opts.export(&obs)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut s = format!(
        "drained after {:.1} s\n\
         connections    {} accepted, {} shed, {} closed\n\
         sessions       {} opened, {} resumed, {} decided, {} failed, \
         {} abandoned\n\
         fleet          {} migrated, {} handoffs, {} planned drains, \
         {} retired\n\
         health         {} probes, {} shard failures, {} recoveries, \
         {} failovers ({:.1} ms recovering)\n\
         open sessions at exit: {}\n",
        started.elapsed().as_secs_f64(),
        stats.connections_accepted,
        stats.connections_shed,
        stats.connections_closed,
        stats.sessions_opened,
        stats.sessions_resumed,
        stats.sessions_decided,
        stats.sessions_failed,
        stats.sessions_abandoned,
        stats.sessions_migrated,
        stats.handoffs_sent,
        stats.planned_drains,
        stats.shards_retired,
        stats.probes_sent,
        stats.shard_failures,
        stats.shard_recoveries,
        stats.failovers,
        stats.failover_ms(),
        stats.open_sessions(),
    );
    if opts.metrics.is_some() {
        s.push_str("\nmetrics snapshot:\n");
        s.push_str(&obs.metrics.render_prometheus());
    }
    emit(out, s)
}

/// `etsc predict --connect ADDR`: stream one instance to a remote
/// server and report its verdict, using the class names the server
/// advertised in its handshake.
fn predict_connect(addr: &str, flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let net = |e: NetError| CliError::Runtime(format!("server {addr}: {e}"));
    let data = load_input(flags)?;
    let instance_idx = parse(flags, "instance", 0_usize)?;
    if instance_idx >= data.len() {
        return Err(CliError::Usage(format!(
            "--instance {instance_idx} out of range (dataset has {})",
            data.len()
        )));
    }
    let mut client = Client::connect(addr, ClientConfig::default())
        .map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))?;
    let meta = client.meta().clone();
    if data.vars() != meta.vars {
        return Err(CliError::Usage(format!(
            "served model ({} on {}) expects {} variables, dataset has {}",
            meta.algo,
            meta.dataset,
            meta.vars,
            data.vars()
        )));
    }
    let inst = data.instance(instance_idx);
    let started = Instant::now();
    let id = client.open_session(inst.len()).map_err(net)?;
    for t in 0..inst.len() {
        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
        client.observe(id, &row).map_err(net)?;
        if client.outcome(id).is_some() {
            break;
        }
        client.poll().map_err(net)?;
    }
    let d = client
        .wait_decision(id, Duration::from_secs(60))
        .map_err(net)?;
    let class = meta
        .classes
        .get(d.label)
        .cloned()
        .unwrap_or_else(|| format!("class {}", d.label));
    let mut s = format!(
        "instance {instance_idx}: {class} at prefix {} of {} \
         (earliness {:.3}, verdict {}, round trip {:.1} ms)\n",
        d.prefix_len,
        inst.len(),
        d.prefix_len as f64 / inst.len().max(1) as f64,
        d.kind.name(),
        started.elapsed().as_secs_f64() * 1e3,
    );
    if parse(flags, "feedback", false)? {
        let truth = data.label(instance_idx);
        client.feedback(id, truth).map_err(net)?;
        s.push_str(&format!(
            "feedback sent: truth {} — prediction was {}\n",
            meta.classes
                .get(truth)
                .cloned()
                .unwrap_or_else(|| format!("class {truth}")),
            if truth == d.label { "correct" } else { "wrong" },
        ));
    }
    emit(out, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    }

    fn run_to_string(command: &str, f: &Flags) -> Result<String, CliError> {
        let mut buf = Vec::new();
        run(command, f, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf-8 output"))
    }

    #[test]
    fn lists_algorithms_and_datasets() {
        let out = run_to_string("list-algorithms", &flags(&[])).unwrap();
        assert!(out.contains("ECEC"));
        assert!(out.contains("S-MLSTM"));
        let out = run_to_string("list-datasets", &flags(&[])).unwrap();
        assert!(out.contains("Maritime"));
        assert!(out.contains("80591"));
    }

    #[test]
    fn evaluate_generated_dataset() {
        let out = run_to_string(
            "evaluate",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.2"),
                ("length-scale", "0.3"),
                ("folds", "3"),
            ]),
        )
        .unwrap();
        assert!(out.contains("accuracy"), "{out}");
        assert!(out.contains("harmonic mean"));
    }

    #[test]
    fn generate_then_evaluate_csv_roundtrip() {
        let dir = std::env::temp_dir().join("etsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("powercons.csv");
        let path_str = path.to_str().unwrap();
        run_to_string(
            "generate",
            &flags(&[
                ("dataset", "PowerCons"),
                ("out", path_str),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
            ]),
        )
        .unwrap();
        let out = run_to_string(
            "evaluate",
            &flags(&[("data", path_str), ("vars", "1"), ("algo", "ECTS")]),
        )
        .unwrap();
        assert!(out.contains("accuracy"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn matrix_runs_supervised_and_resumes_from_journal() {
        let dir = std::env::temp_dir().join("etsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matrix.jsonl");
        std::fs::remove_file(&path).ok();
        let path_str = path.to_str().unwrap().to_owned();
        let base = [
            ("datasets", "PowerCons"),
            ("algos", "ECTS,ECO-K"),
            ("height-scale", "0.15"),
            ("length-scale", "0.3"),
            ("threads", "1"),
            ("journal", path_str.as_str()),
        ];
        let out = run_to_string("matrix", &flags(&base)).unwrap();
        assert!(out.contains("ECTS"), "{out}");
        assert!(
            out.contains("2 OK, 0 DNF, 0 ERR, 0 PANIC of 2 cells"),
            "{out}"
        );
        // Resume from the complete journal: identical status table.
        let mut resumed = base.to_vec();
        resumed.push(("resume", "true"));
        let again = run_to_string("matrix", &flags(&resumed)).unwrap();
        assert_eq!(out, again);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn matrix_writes_trace_and_metrics_artifacts() {
        let dir = std::env::temp_dir().join("etsc-cli-test-obs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("matrix.trace.jsonl");
        let metrics = dir.join("matrix.prom");
        let out = run_to_string(
            "matrix",
            &flags(&[
                ("datasets", "PowerCons"),
                ("algos", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("threads", "1"),
                ("trace", trace.to_str().unwrap()),
                ("metrics", metrics.to_str().unwrap()),
            ]),
        )
        .unwrap();
        assert!(out.contains("1 OK"), "{out}");
        let log = etsc_obs::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let tree = etsc_obs::TraceTree::build(&log.records).unwrap();
        assert!(!tree.spans_named("cell").is_empty());
        assert!(!tree.spans_named("fit").is_empty());
        let text = std::fs::read_to_string(&metrics).unwrap();
        etsc_obs::validate_prometheus(&text).unwrap();
        assert!(text.contains("matrix_cells_ok_total 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_budget_override_yields_dnf_cells() {
        let out = run_to_string(
            "matrix",
            &flags(&[
                ("datasets", "PowerCons"),
                ("algos", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("threads", "1"),
                ("budget-secs", "0"),
            ]),
        )
        .unwrap();
        assert!(
            out.contains("0 OK, 1 DNF, 0 ERR, 0 PANIC of 1 cells"),
            "{out}"
        );
    }

    #[test]
    fn matrix_usage_errors() {
        assert!(matches!(
            run_to_string("matrix", &flags(&[("algos", "nope")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("matrix", &flags(&[("datasets", "nope")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("matrix", &flags(&[("resume", "true")])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stream_commits() {
        let out = run_to_string(
            "stream",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("instance", "3"),
            ]),
        )
        .unwrap();
        assert!(out.contains("COMMITTED"), "{out}");
    }

    #[test]
    fn train_serve_predict_roundtrip() {
        let dir = std::env::temp_dir().join("etsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("powercons-ects.model");
        let model_str = model_path.to_str().unwrap();
        let out = run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("save", model_str),
            ]),
        )
        .unwrap();
        assert!(out.contains("saved ECTS"), "{out}");
        assert!(model_path.exists());

        let out = run_to_string(
            "serve",
            &flags(&[
                ("model", model_str),
                ("replay", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("sessions", "20"),
                ("workers", "2"),
            ]),
        )
        .unwrap();
        assert!(out.contains("20 sessions"), "{out}");
        assert!(out.contains("online ratio"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");

        let out = run_to_string(
            "predict",
            &flags(&[
                ("model", model_str),
                ("dataset", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("instance", "2"),
            ]),
        )
        .unwrap();
        assert!(out.contains("earliness"), "{out}");

        let out = run_to_string(
            "predict",
            &flags(&[
                ("model", model_str),
                ("dataset", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("instance", "2"),
                ("stream", "true"),
            ]),
        )
        .unwrap();
        assert!(out.contains("COMMITTED"), "{out}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn list_triggers_enumerates_families_and_combos() {
        let out = run_to_string("list-triggers", &flags(&[])).unwrap();
        for family in ["threshold", "patience", "cost", "calibrated"] {
            assert!(out.contains(family), "missing {family}: {out}");
        }
        assert!(out.contains("non-myopic"), "{out}");
        assert!(out.contains("WEASEL+calibrated"), "{out}");
        assert!(out.contains("default spec"), "{out}");
    }

    #[test]
    fn train_trigger_serve_roundtrip_and_overrides() {
        let dir = std::env::temp_dir().join("etsc-cli-test-trigger");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("powercons-trig.model");
        let model_str = model_path.to_str().unwrap();
        let gen = [
            ("dataset", "PowerCons"),
            ("height-scale", "0.1"),
            ("length-scale", "0.2"),
        ];
        let mut train = gen.to_vec();
        train.extend([
            ("algo", "WEASEL"),
            ("trigger", "threshold:0.7"),
            ("save", model_str),
        ]);
        let out = run_to_string("train", &flags(&train)).unwrap();
        assert!(out.contains("saved WEASEL+threshold"), "{out}");

        // Replay honors the persisted trigger (decision batch 1).
        let mut serve = gen.to_vec();
        serve.extend([
            ("model", model_str),
            ("replay", "PowerCons"),
            ("sessions", "8"),
            ("workers", "2"),
        ]);
        let out = run_to_string("serve", &flags(&serve)).unwrap();
        assert!(out.contains("8 sessions"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");

        // Serve-time re-parameterization without refitting.
        serve.push(("trigger", "threshold:0.95"));
        let out = run_to_string("serve", &flags(&serve)).unwrap();
        assert!(out.contains("8 sessions"), "{out}");

        let mut predict = gen.to_vec();
        predict.extend([("model", model_str), ("instance", "1")]);
        let out = run_to_string("predict", &flags(&predict)).unwrap();
        assert!(out.contains("earliness"), "{out}");
        std::fs::remove_file(&model_path).ok();
    }

    fn error_message(e: CliError) -> String {
        match e {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }

    #[test]
    fn trigger_usage_errors_are_actionable() {
        // --calibrate without --trigger.
        let err = error_message(
            run_to_string(
                "train",
                &flags(&[
                    ("dataset", "PowerCons"),
                    ("algo", "WEASEL"),
                    ("calibrate", "platt"),
                    ("save", "/tmp/never-written.model"),
                ]),
            )
            .unwrap_err(),
        );
        assert!(err.contains("--calibrate needs --trigger"), "{err}");

        // --trigger with a non-base algorithm name.
        let err = error_message(
            run_to_string(
                "train",
                &flags(&[
                    ("dataset", "PowerCons"),
                    ("algo", "ECTS"),
                    ("trigger", "threshold:0.7"),
                    ("save", "/tmp/never-written.model"),
                ]),
            )
            .unwrap_err(),
        );
        assert!(err.contains("unknown base"), "{err}");

        // --trigger on serve with an untriggered model.
        let dir = std::env::temp_dir().join("etsc-cli-test-trigger-err");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("plain.model");
        let model_str = model_path.to_str().unwrap();
        run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.1"),
                ("length-scale", "0.2"),
                ("save", model_str),
            ]),
        )
        .unwrap();
        let err = error_message(
            run_to_string(
                "serve",
                &flags(&[
                    ("model", model_str),
                    ("replay", "PowerCons"),
                    ("height-scale", "0.1"),
                    ("length-scale", "0.2"),
                    ("trigger", "threshold:0.9"),
                ]),
            )
            .unwrap_err(),
        );
        assert!(err.contains("trigger-wrapped model"), "{err}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn matrix_runs_the_trigger_axis() {
        let out = run_to_string(
            "matrix",
            &flags(&[
                ("datasets", "PowerCons"),
                ("algos", "WEASEL"),
                ("trigger", "threshold:0.7;patience:2"),
                ("height-scale", "0.1"),
                ("length-scale", "0.2"),
                ("threads", "1"),
            ]),
        )
        .unwrap();
        assert!(out.contains("Trigger"), "{out}");
        assert!(out.contains("threshold:"), "{out}");
        assert!(out.contains("patience:k=2"), "{out}");
        assert!(out.contains("2 OK of 2 trigger cells"), "{out}");
    }

    #[test]
    fn serve_with_faults_reports_degraded_mode() {
        let dir = std::env::temp_dir().join("etsc-cli-test-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("chaos-ects.model");
        let model_str = model_path.to_str().unwrap();
        run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("save", model_str),
            ]),
        )
        .unwrap();

        // Injected panic + delays against a deadline with prior-class
        // fallback, plus a corrupted model file recovered from .prev.
        let out = run_to_string(
            "serve",
            &flags(&[
                ("model", model_str),
                ("replay", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("sessions", "20"),
                ("workers", "2"),
                ("deadline-ms", "1"),
                ("fallback", "prior"),
                (
                    "faults",
                    "seed=11,panics=1,delay-rate=0.5,delay-ms=20,corrupt-model=true",
                ),
            ]),
        )
        .unwrap();
        assert!(out.contains("fault: flipped byte"), "{out}");
        assert!(out.contains("serving the last-good model"), "{out}");
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("1 worker panics"), "{out}");
        assert!(out.contains("faults         injected 1 panics"), "{out}");

        assert!(matches!(
            run_to_string(
                "serve",
                &flags(&[
                    ("model", model_str),
                    ("replay", "PowerCons"),
                    ("faults", "seed=abc"),
                ])
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(
                "serve",
                &flags(&[
                    ("model", model_str),
                    ("replay", "PowerCons"),
                    ("deadline-ms", "5"),
                    ("fallback", "nope"),
                ])
            ),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_listen_and_predict_connect_roundtrip() {
        let dir = std::env::temp_dir().join("etsc-cli-test-net");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("net-ects.model");
        let model_str = model_path.to_str().unwrap().to_owned();
        run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("save", &model_str),
            ]),
        )
        .unwrap();
        // The server picks an ephemeral port; grab it from the banner
        // written through the shared pipe-backed buffer.
        let out: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        let server_out = out.clone();
        let server = std::thread::spawn(move || {
            struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
            impl Write for Shared {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            let f = flags(&[("model", model_str.as_str()), ("listen", "127.0.0.1:0")]);
            run("serve", &f, &mut Shared(server_out))
        });
        let addr = loop {
            std::thread::sleep(Duration::from_millis(25));
            let buf = out.lock().unwrap();
            let text = String::from_utf8_lossy(&buf);
            if let Some(rest) = text.split(" at ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    break addr.to_owned();
                }
            }
            drop(buf);
        };
        let predicted = run_to_string(
            "predict",
            &flags(&[
                ("connect", addr.as_str()),
                ("dataset", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("instance", "2"),
                ("feedback", "true"),
            ]),
        )
        .unwrap();
        assert!(predicted.contains("earliness"), "{predicted}");
        assert!(predicted.contains("verdict genuine"), "{predicted}");
        assert!(predicted.contains("feedback sent"), "{predicted}");
        // A second client asks the server to drain; the serve command
        // must then return with its stats report.
        let mut stopper = Client::connect(&addr, ClientConfig::default()).unwrap();
        stopper.shutdown_server().unwrap();
        stopper.wait_drain(Duration::from_secs(10)).unwrap();
        server.join().unwrap().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(text.contains("drained after"), "{text}");
        assert!(text.contains("open sessions at exit: 0"), "{text}");
        std::fs::remove_dir_all(&dir).ok();

        // Usage guards for the network modes.
        assert!(matches!(
            run_to_string(
                "serve",
                &flags(&[
                    ("model", "nope.model"),
                    ("listen", "127.0.0.1:0"),
                    ("faults", "seed=1,torn-rate=0.1"),
                ])
            ),
            Err(CliError::Usage(_))
        ));
        assert!(run_to_string(
            "predict",
            &flags(&[("connect", "127.0.0.1:1"), ("dataset", "PowerCons")])
        )
        .is_err());
    }

    #[test]
    fn route_fronts_replicated_shards_and_drains() {
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        type Running = (
            std::sync::Arc<Mutex<Vec<u8>>>,
            std::thread::JoinHandle<Result<(), CliError>>,
        );
        fn spawn(command: &'static str, f: Flags) -> Running {
            let out: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
            let sink = out.clone();
            let handle = std::thread::spawn(move || run(command, &f, &mut Shared(sink)));
            (out, handle)
        }
        // Both banners ("serving ... at ADDR", "routing across ... at
        // ADDR") carry the bound ephemeral address after " at ".
        fn banner_addr(out: &std::sync::Arc<Mutex<Vec<u8>>>) -> String {
            loop {
                std::thread::sleep(Duration::from_millis(25));
                let buf = out.lock().unwrap();
                let text = String::from_utf8_lossy(&buf);
                if let Some(rest) = text.split(" at ").nth(1) {
                    if let Some(addr) = rest.split_whitespace().next() {
                        return addr.to_owned();
                    }
                }
            }
        }

        let dir = std::env::temp_dir().join("etsc-cli-test-route");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("shard0.model");
        let model_str = model_path.to_str().unwrap().to_owned();
        run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("save", &model_str),
            ]),
        )
        .unwrap();
        // Stage the second shard's copy through the replicate command.
        let replica = dir.join("shard1.model");
        let replica_str = replica.to_str().unwrap().to_owned();
        let replicated = run_to_string(
            "replicate",
            &flags(&[("model", &model_str), ("to", &replica_str)]),
        )
        .unwrap();
        assert!(replicated.contains("replicated"), "{replicated}");
        assert!(replica.exists());

        let (out0, shard0) = spawn(
            "serve",
            flags(&[("model", &model_str), ("listen", "127.0.0.1:0")]),
        );
        let (out1, shard1) = spawn(
            "serve",
            flags(&[("model", &replica_str), ("listen", "127.0.0.1:0")]),
        );
        let (addr0, addr1) = (banner_addr(&out0), banner_addr(&out1));
        let shard_list = format!("{addr0},{addr1}");
        let (rout, router) = spawn(
            "route",
            flags(&[
                ("listen", "127.0.0.1:0"),
                ("shards", &shard_list),
                ("probe-interval-ms", "50"),
            ]),
        );
        let raddr = banner_addr(&rout);
        // A client speaking to the router is indistinguishable from one
        // speaking to a shard: predict --connect just works.
        let predicted = run_to_string(
            "predict",
            &flags(&[
                ("connect", raddr.as_str()),
                ("dataset", "PowerCons"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("instance", "3"),
            ]),
        )
        .unwrap();
        assert!(predicted.contains("earliness"), "{predicted}");

        let mut stopper = Client::connect(&raddr, ClientConfig::default()).unwrap();
        stopper.shutdown_server().unwrap();
        stopper.wait_drain(Duration::from_secs(10)).unwrap();
        router.join().unwrap().unwrap();
        let text = String::from_utf8(rout.lock().unwrap().clone()).unwrap();
        assert!(text.contains("drained after"), "{text}");
        assert!(text.contains("open sessions at exit: 0"), "{text}");

        for addr in [&addr0, &addr1] {
            let mut stop = Client::connect(addr, ClientConfig::default()).unwrap();
            stop.shutdown_server().unwrap();
            stop.wait_drain(Duration::from_secs(10)).unwrap();
        }
        shard0.join().unwrap().unwrap();
        shard1.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Usage guards for the fleet commands.
        assert!(matches!(
            run_to_string("route", &flags(&[("listen", "127.0.0.1:0")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(
                "route",
                &flags(&[("listen", "127.0.0.1:0"), ("shards", "")])
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("replicate", &flags(&[("model", "x.model")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("replicate", &flags(&[("model", "x.model"), ("to", "")])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_rejects_mismatched_model() {
        let dir = std::env::temp_dir().join("etsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("uni.model");
        let model_str = model_path.to_str().unwrap();
        run_to_string(
            "train",
            &flags(&[
                ("dataset", "PowerCons"),
                ("algo", "ECTS"),
                ("height-scale", "0.15"),
                ("length-scale", "0.3"),
                ("save", model_str),
            ]),
        )
        .unwrap();
        // BasicMotions is multivariate; the univariate model must refuse.
        assert!(matches!(
            run_to_string(
                "serve",
                &flags(&[
                    ("model", model_str),
                    ("replay", "BasicMotions"),
                    ("height-scale", "0.25"),
                    ("length-scale", "0.3"),
                ])
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("serve", &flags(&[("replay", "PowerCons")])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(
            run_to_string("evaluate", &flags(&[("algo", "ECTS")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("evaluate", &flags(&[("dataset", "nope"), ("algo", "ECTS")])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(
                "evaluate",
                &flags(&[("dataset", "PowerCons"), ("algo", "nope")])
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string("frobnicate", &flags(&[])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(
                "stream",
                &flags(&[
                    ("dataset", "PowerCons"),
                    ("algo", "ECTS"),
                    ("instance", "999999")
                ])
            ),
            Err(CliError::Usage(_))
        ));
        // Replay is lossless and unqueued: its removed queueing flags
        // are refused, not silently ignored.
        for flag in ["queue", "shed", "max-restarts"] {
            let err = run_to_string(
                "serve",
                &flags(&[("model", "m.etsc"), ("replay", "PowerCons"), (flag, "1")]),
            );
            assert!(
                matches!(&err, Err(CliError::Usage(m)) if m.contains("lossless and unqueued")),
                "--{flag}: {err:?}"
            );
        }
        // The admission flags are refused, naming the session deadline
        // as the overload control.
        for flag in [
            "admission",
            "admission-open-rate",
            "codel-target-ms",
            "brownout-high-ms",
            "brownout-tighten-ms",
        ] {
            let err = run_to_string(
                "serve",
                &flags(&[("model", "m.etsc"), ("listen", "127.0.0.1:0"), (flag, "1")]),
            );
            assert!(
                matches!(&err, Err(CliError::Usage(m)) if m.contains("--deadline-ms")),
                "--{flag}: {err:?}"
            );
        }
    }
}
