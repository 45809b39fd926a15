//! Streaming-service benchmarks: decisions/sec and p50/p99 decision
//! latency for every algorithm replayed through `etsc-serve`,
//! cross-checked against the offline Figure-13 cell.
//!
//! Each algorithm is trained once, persisted through the model store
//! (so the bench exercises the loaded artifact, like a real serving
//! process would), then replayed as concurrent sessions. After the
//! timed section the measured ratio is compared against
//! `etsc_eval::online::online_cell` fed with the same measured
//! latency — the two verdicts must agree by construction, and the
//! printout makes the measured numbers visible in CI logs.
//!
//! The run also seeds the perf trajectory: every algorithm's measured
//! throughput/latency, plus the tracer-overhead ratio (replay with a
//! fully enabled `Obs` context vs. the disabled default), is written to
//! `BENCH_baseline.json` (override the path with the
//! `BENCH_BASELINE_PATH` environment variable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use etsc_bench::ScalePreset;
use etsc_core::TriggeredBase;
use etsc_datasets::PaperDataset;
use etsc_eval::experiment::{AlgoSpec, RunConfig, RunResult};
use etsc_eval::online::online_cell;
use etsc_obs::Obs;
use etsc_serve::{fit_model, fit_triggered_model, replay_dataset, ReplayOptions, StoredModel};
use etsc_trigger::TriggerSpec;

/// One `BENCH_baseline.json` row: the measured serving numbers for one
/// algorithm.
struct BaselineRow {
    algo: &'static str,
    decisions_per_sec: f64,
    /// In-process decision latencies in microseconds: sub-100 ns
    /// medians would print as zero at millisecond scale.
    p50_us: f64,
    p99_us: f64,
    feasible: Option<bool>,
}

/// One `"triggers"` row: the measured serving numbers for one
/// (base classifier × trigger) combination, with earliness reported as
/// a delta against the same base under the fixed-threshold baseline.
struct TriggerRow {
    combo: String,
    spec: String,
    decisions_per_sec: f64,
    accuracy: f64,
    earliness: f64,
    earliness_delta: f64,
    harmonic_mean: f64,
}

/// Harmonic mean of accuracy and (1 − earliness), the paper's combined
/// score.
fn harmonic_mean(accuracy: f64, earliness: f64) -> f64 {
    let e = 1.0 - earliness;
    if accuracy + e == 0.0 {
        0.0
    } else {
        2.0 * accuracy * e / (accuracy + e)
    }
}

/// Sections the loadgen bin appends after the streaming prefix. A
/// re-run of this bench rewrites its own prefix (header, algorithms,
/// triggers) but must carry these forward instead of clobbering them.
const APPENDED_SECTIONS: [&str; 4] = [
    ",\n  \"network\"",
    ",\n  \"fleet\"",
    ",\n  \"adapt\"",
    ",\n  \"overload\"",
];

/// Returns the loadgen-owned tail of an existing baseline file (without
/// the closing brace), or an empty string when there is none.
fn appended_tail(path: &str) -> String {
    let Ok(existing) = std::fs::read_to_string(path) else {
        return String::new();
    };
    let mut base = existing.trim_end().to_owned();
    if base.ends_with('}') {
        base.pop();
        base.truncate(base.trim_end().len());
    }
    APPENDED_SECTIONS
        .iter()
        .filter_map(|key| base.find(key))
        .min()
        .map(|i| base[i..].to_owned())
        .unwrap_or_default()
}

/// Replays `reps` times and returns the total wall-clock seconds. A
/// fresh `Obs` is built per replay — the per-run cost being probed —
/// rather than letting one registry accumulate samples across reps.
fn timed_replays(
    loaded: &StoredModel,
    data: &etsc_data::Dataset,
    options: &ReplayOptions,
    traced: bool,
    reps: usize,
) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        let obs = if traced {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let options = ReplayOptions {
            obs,
            ..options.clone()
        };
        black_box(replay_dataset(loaded, data, &options).expect("replay runs"));
    }
    start.elapsed().as_secs_f64()
}

/// Serialises the measured baseline by hand (the workspace carries no
/// JSON dependency) and writes it where CI expects it.
fn write_baseline(rows: &[BaselineRow], triggers: &[TriggerRow], overhead_pct: f64) {
    let path = std::env::var("BENCH_BASELINE_PATH").unwrap_or_else(|_| {
        // cargo runs benches with the package as CWD; anchor the
        // default at the workspace root so the trajectory file is
        // versioned alongside the code.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json").into()
    });
    let tail = appended_tail(&path);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"streaming_serve\",\n");
    out.push_str("  \"dataset\": \"PowerCons\",\n");
    out.push_str("  \"preset\": \"quick\",\n");
    out.push_str(&format!("  \"tracer_overhead_pct\": {overhead_pct:.3},\n"));
    out.push_str("  \"algorithms\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let feasible = match row.feasible {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        out.push_str(&format!(
            "    {{\"algo\": \"{}\", \"decisions_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"feasible\": {}}}{}\n",
            row.algo,
            row.decisions_per_sec,
            row.p50_us,
            row.p99_us,
            feasible,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"triggers\": [\n");
    for (i, row) in triggers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"combo\": \"{}\", \"spec\": \"{}\", \"decisions_per_sec\": {:.1}, \"accuracy\": {:.4}, \"earliness\": {:.4}, \"earliness_delta\": {:.4}, \"harmonic_mean\": {:.4}}}{}\n",
            row.combo,
            row.spec,
            row.decisions_per_sec,
            row.accuracy,
            row.earliness,
            row.earliness_delta,
            row.harmonic_mean,
            if i + 1 < triggers.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    out.push_str(&tail);
    out.push_str("\n}\n");
    std::fs::write(&path, out).expect("baseline file writable");
    eprintln!("wrote baseline: {path}");
}

/// The trigger corpus the bench sweeps per base: the fixed-threshold
/// baseline first (deltas are computed against it), then one spec from
/// each remaining family.
const TRIGGER_SPECS: [&str; 4] = [
    "threshold:0.8",
    "patience:k=2,threshold=0.7",
    "cost:0.05",
    "calibrated:cal=platt,threshold=0.7",
];

/// Fits, persists, and replays every (base × trigger) combination,
/// benching the replay and collecting the `"triggers"` baseline rows.
fn trigger_benches(
    group: &mut criterion::BenchmarkGroup,
    data: &etsc_data::Dataset,
    config: &RunConfig,
    obs_freq: f64,
) -> Vec<TriggerRow> {
    let mut rows = Vec::new();
    for base in [TriggeredBase::MiniRocket, TriggeredBase::Weasel] {
        let mut baseline_earliness = None;
        for text in TRIGGER_SPECS {
            let spec = TriggerSpec::parse(text).expect("bench spec parses");
            let Ok(stored) = fit_triggered_model(base, &spec, data, config) else {
                continue; // DNF under the tight budget: nothing to serve
            };
            // Round-trip through the store, like the algorithm rows: a
            // real serving process replays the decoded artifact.
            let bytes = stored.to_bytes().expect("persistable model");
            let loaded = StoredModel::from_bytes(&bytes).expect("own bytes decode");
            let options = ReplayOptions {
                obs_frequency_secs: obs_freq,
                batch: loaded.meta.decision_batch(data.max_len(), config),
                ..ReplayOptions::default()
            };
            let combo = format!("{}+{}", base.name(), spec.kind.name());
            group.bench_with_input(BenchmarkId::new(&combo, "PowerCons"), data, |b, data| {
                b.iter(|| black_box(replay_dataset(&loaded, data, &options).expect("replay runs")));
            });
            let outcome = replay_dataset(&loaded, data, &options).expect("replay runs");
            let delta = match baseline_earliness {
                Some(b) => outcome.earliness - b,
                None => {
                    baseline_earliness = Some(outcome.earliness);
                    0.0
                }
            };
            eprintln!(
                "{:<22} {:>8.0} decisions/s  acc {:.4}  earliness {:.4} ({:+.4} vs threshold)  hm {:.4}",
                combo,
                outcome.decisions_per_sec,
                outcome.accuracy,
                outcome.earliness,
                delta,
                harmonic_mean(outcome.accuracy, outcome.earliness),
            );
            rows.push(TriggerRow {
                combo,
                spec: spec.canonical(),
                decisions_per_sec: outcome.decisions_per_sec,
                accuracy: outcome.accuracy,
                earliness: outcome.earliness,
                earliness_delta: delta,
                harmonic_mean: harmonic_mean(outcome.accuracy, outcome.earliness),
            });
        }
    }
    rows
}

fn streaming_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_serve");
    group.sample_size(10);
    let config = RunConfig::fast();
    let ds = PaperDataset::PowerCons;
    let data = ds.generate(ScalePreset::Quick.options(ds, 11));
    let obs_freq = ds.spec().obs_frequency_secs;
    let mut rows = Vec::new();
    let mut overhead_probe = None;
    for algo in AlgoSpec::ALL {
        let Ok(stored) = fit_model(algo, &data, &config) else {
            continue; // DNF under the tight budget: nothing to serve
        };
        // Round-trip through the store: serve the decoded artifact.
        let bytes = stored.to_bytes().expect("persistable model");
        let loaded = StoredModel::from_bytes(&bytes).expect("own bytes decode");
        let options = ReplayOptions {
            obs_frequency_secs: obs_freq,
            batch: algo.decision_batch(data.max_len(), &config),
            ..ReplayOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new(algo.name(), "PowerCons"),
            &data,
            |b, data| {
                b.iter(|| black_box(replay_dataset(&loaded, data, &options).expect("replay runs")));
            },
        );
        // Post-bench cross-check: the live verdict and the offline
        // heatmap verdict agree when fed the same measured latency.
        let outcome = replay_dataset(&loaded, &data, &options).expect("replay runs");
        let offline = online_cell(
            &RunResult {
                algo,
                dataset: data.name().to_owned(),
                metrics: None,
                train_secs: 0.0,
                test_secs_per_instance: outcome.mean_latency_secs,
                dnf: false,
            },
            obs_freq,
            data.max_len(),
            &config,
        );
        assert_eq!(outcome.feasible(), Some(offline.feasible()));
        rows.push(BaselineRow {
            algo: algo.name(),
            decisions_per_sec: outcome.decisions_per_sec,
            p50_us: outcome.p50_latency_secs * 1e6,
            p99_us: outcome.p99_latency_secs * 1e6,
            feasible: outcome.feasible(),
        });
        // Tracer-overhead probe (acceptance: ≤ 3%): replay the first
        // servable model with a fully enabled Obs context and with the
        // disabled default, and compare wall-clock totals.
        if overhead_probe.is_none() {
            // A single Quick replay finishes in ~3 ms, where the fixed
            // per-run cost of a fresh tracer would swamp the per-
            // decision cost actually being probed; replicate the
            // instances 4x so the probe serves a session count closer
            // to a real serving window.
            let indices: Vec<usize> = (0..data.len()).cycle().take(4 * data.len()).collect();
            let probe_data = data.subset(&indices);
            // Traced and untraced replays interleave one-by-one in
            // alternating (ABBA) order, so machine drift at any
            // timescale longer than a single ~10 ms replay cancels out
            // of the summed totals instead of biasing one side.
            // Median of per-pair ratios, not ratio of sums: a single
            // OS preemption inside one ~10 ms replay would dominate a
            // summed total, while the median shrugs off any minority
            // of poisoned pairs.
            const PAIRS: usize = 100;
            timed_replays(&loaded, &probe_data, &options, true, 4); // warm-up
            let mut ratios = Vec::with_capacity(PAIRS);
            for i in 0..PAIRS {
                let (base, traced) = if i % 2 == 0 {
                    let base = timed_replays(&loaded, &probe_data, &options, false, 1);
                    let traced = timed_replays(&loaded, &probe_data, &options, true, 1);
                    (base, traced)
                } else {
                    let traced = timed_replays(&loaded, &probe_data, &options, true, 1);
                    let base = timed_replays(&loaded, &probe_data, &options, false, 1);
                    (base, traced)
                };
                ratios.push(traced / base);
            }
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
            let pct = (median - 1.0) * 100.0;
            eprintln!(
                "tracer overhead: {pct:+.2}% (median of {PAIRS} interleaved \
                 traced/untraced replay pairs)"
            );
            overhead_probe = Some(pct);
        }
        eprintln!(
            "{:<9} {:>8.0} decisions/s  p50 {:>9.3} us  p99 {:>9.3} us  ratio {:>10.4e} ({})",
            algo.name(),
            outcome.decisions_per_sec,
            outcome.p50_latency_secs * 1e6,
            outcome.p99_latency_secs * 1e6,
            outcome.measured_ratio.unwrap_or(f64::NAN),
            if outcome.feasible() == Some(true) {
                "feasible"
            } else {
                "infeasible"
            },
        );
    }
    let trigger_rows = trigger_benches(&mut group, &data, &config, obs_freq);
    group.finish();
    write_baseline(&rows, &trigger_rows, overhead_probe.unwrap_or(f64::NAN));
}

criterion_group!(benches, streaming_benches);
criterion_main!(benches);
