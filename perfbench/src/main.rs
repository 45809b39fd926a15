//! Outside-in end-to-end benchmark of the ETSC serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-wide|wire-direct|wire-fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload makes its inputs from `--seed`, fits its models,
//! computes each streamed instance's in-process `predict_early` as the
//! reference, and counts any served decision that differs from it — or
//! a session that errors, drops or times out — as a failed operation.
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run
//! (spans around every call into the program) with `--trace 1`.
//! See `perfbench/README.md` for why each workload exists.

mod measure;
mod replay;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("obs_per_s", "obs/s"),
    ("decision_p50_us", "us"),
    ("decision_p90_us", "us"),
    ("accuracy", "ratio"),
    ("earliness", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not run a
/// layer reports 0 for it (no sockets or load generator in
/// `replay-wide`, no PLAID models on the wire).
const PER_LAYER: [(&str, &str); 39] = [
    ("serve.push.ects.busy_s", "s"),
    ("serve.push.ects.count", "count"),
    ("serve.push.ects.evals", "count"),
    ("serve.push.edsc.busy_s", "s"),
    ("serve.push.edsc.count", "count"),
    ("serve.push.edsc.evals", "count"),
    ("serve.push.minirocket-threshold.busy_s", "s"),
    ("serve.push.minirocket-threshold.count", "count"),
    ("serve.push.minirocket-threshold.evals", "count"),
    ("core.ects.cost_growth", "ratio"),
    ("core.edsc.cost_growth", "ratio"),
    ("core.minirocket-threshold.cost_growth", "ratio"),
    ("transforms.minirocket.transform_us.cp10", "us"),
    ("transforms.minirocket.transform_us.cp20", "us"),
    ("transforms.minirocket.transform_us.cp40", "us"),
    ("transforms.minirocket.transform_us.cp60", "us"),
    ("transforms.minirocket.transform_us.cp80", "us"),
    ("transforms.minirocket.transform_us.cp100", "us"),
    ("net.client.send_busy_s", "s"),
    ("net.client.recv_busy_s", "s"),
    ("net.server.cpu_s", "s"),
    ("net.server.busy_share", "ratio"),
    ("net.server.paced_busy_share", "ratio"),
    ("net.proto.frames_sent", "count"),
    ("net.proto.bytes_sent", "bytes"),
    ("net.proto.encode_ns", "ns"),
    ("net.proto.decode_ns", "ns"),
    ("serve.push.eco-k.busy_s", "s"),
    ("serve.session.open_us", "us"),
    ("mem.rss_kb_per_1k_sessions", "kB"),
    ("net.router.cpu_s", "s"),
    ("net.router.added_p50_us", "us"),
    ("gen.lateness_p90_us", "us"),
    ("setup.fit_s", "s"),
    ("setup.store_s", "s"),
    ("setup.bind_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("gen.cpu_s", "s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: BTreeMap<String, f64>,
}

impl Run {
    pub fn new(attempted: u64, failed: u64) -> Run {
        Run {
            attempted,
            failed,
            end_to_end: Vec::new(),
            per_layer: BTreeMap::new(),
        }
    }
}

/// Each instance of `test` labelled with `train`'s label for its class
/// (`None` for a class the training draw lacks).
pub fn truth_labels(train: &etsc_data::Dataset, test: &etsc_data::Dataset) -> Vec<Option<usize>> {
    let names = train.class_names();
    (0..test.len())
        .map(|i| {
            let name = &test.class_names()[test.label(i)];
            names.iter().position(|n| n == name)
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// A JSON number: every digit the measurement has (non-finite → 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload replay-wide|wire-direct|wire-fleet --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "replay-wide" => replay::run(&args, &mut tracer),
        "wire-direct" => wire::run(&args, wire::Topology::Direct, &mut tracer),
        "wire-fleet" => wire::run(&args, wire::Topology::Fleet, &mut tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let times = tracer.self_times();
        println!("spans: name, count, total s, self s");
        for t in &times {
            println!(
                "  {:<28} {:>9} {:>12.6} {:>12.6}",
                t.name, t.count, t.total_s, t.self_s
            );
        }
        println!(
            "dropped: net.proto.decisions_per_frame (Client exposes no count of the frames it \
             decodes, and ServerStats is not read)"
        );
        let spans: u64 = times.iter().map(|t| t.count).sum();
        run.per_layer.insert("trace.spans".into(), spans as f64);
        let path = format!(".perfbench/trace-{}.jsonl", args.workload);
        if let Err(e) = tracer.write_jsonl(Path::new(&path)) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace written to {path}");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = run.per_layer.get(name).copied().unwrap_or(0.0);
                (name.to_string(), value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = run
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name.to_string(), value, unit)
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                num(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let at = |key: &str| json.find(key).expect(key);
        let (e2e, layers) = (at("\"end_to_end\""), at("\"per_layer\""));
        for (section, catalogue) in [
            (&json[e2e..layers], &END_TO_END[..]),
            (&json[layers..], &PER_LAYER[..]),
        ] {
            assert_eq!(section.matches("\"name\":").count(), catalogue.len());
            for (name, unit) in catalogue {
                let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
                assert!(section.contains(&entry), "{entry}");
            }
        }
    }
}
