//! `loadgen` — drive a streaming inference server over real sockets
//! and measure what the network edge costs.
//!
//! Two modes:
//!
//! * **Self-hosted** (default): for each requested algorithm, fit a
//!   model on the chosen dataset, bind an `etsc-net` server on an
//!   ephemeral loopback port, replay the dataset as streaming sessions
//!   through `run_loadgen`, then drain the server gracefully and check
//!   that nothing leaked. The measured decisions/sec and end-to-end
//!   p50/p99 are merged into `BENCH_baseline.json` as a `"network"`
//!   section, next to the in-process numbers from the `streaming`
//!   bench (override the path with `BENCH_BASELINE_PATH`).
//! * **External** (`--connect ADDR`): replay against an already
//!   running server — e.g. one started with `etsc serve --model M
//!   --listen ADDR` — and report; with `--shutdown` the run finishes
//!   by requesting a graceful drain. This is the CI smoke path.
//! * **Fleet** (`--shards N`, N ≥ 2): fit one model, replicate it
//!   through the versioned store, stand up N shard servers behind a
//!   session-affine router, and replay through the whole stack while
//!   the fault plan (default: a seeded `kill-shard=1`) kills a shard
//!   mid-stream. Per-shard balance, migrated-session counts, and the
//!   measured failover recovery time are merged into
//!   `BENCH_baseline.json` as a `"fleet"` section.
//! * **Drift** (`--drift`): build a seeded step-drift stream over the
//!   dataset, fit the initial model on its pre-drift head, and serve it
//!   with an `etsc-adapt` [`Adapter`] wired in as the feedback sink and
//!   hot-swap hook. The loadgen replays the stream *with label
//!   feedback* while a poller thread drives refits; a second wave over
//!   the post-drift tail measures recovery on the swapped model. Drift
//!   counts, refit latency, and pre/post/recovered accuracy are merged
//!   into `BENCH_baseline.json` as an `"adapt"` section.
//! * **Overload** (`--overload`): pin the server's capacity with a
//!   seeded per-session evaluation delay, then ramp offered load past
//!   it — a sliding window of 1×, 2×, and 5× the service depth.
//!   Goodput, shed ratio, and p99 at every point form the
//!   goodput-vs-offered-load curve merged into `BENCH_baseline.json`
//!   as an `"overload"` section.
//!
//! ```text
//! loadgen [--algo NAME|all] [--dataset NAME] [--sessions N]
//!         [--connections N] [--rate ROWS_PER_SEC] [--batch N]
//!         [--min-secs S] [--faults SPEC] [--connect ADDR]
//!         [--shutdown] [--shards N] [--drift] [--overload]
//! ```
//!
//! Exits non-zero if any run drops a session, hits an unexpected
//! error, or leaves sessions open server-side.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_adapt::{Adapter, AdapterConfig, DetectorKind};
use etsc_bench::{diag, ScalePreset};
use etsc_data::{Dataset, DatasetBuilder, MultiSeries};
use etsc_datasets::{drift_stream, DriftKind, DriftOptions, PaperDataset};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_eval::FaultPlan;
use etsc_net::{
    run_fleet, run_loadgen, ClientBuilder, Endpoint, FleetOptions, FleetReport, LoadReport,
    LoadgenOptions, ServerBuilder,
};
use etsc_obs::Histogram;
use etsc_serve::{fit_model, replicate, StoredModel};

struct Args {
    algos: Vec<AlgoSpec>,
    dataset: PaperDataset,
    sessions: usize,
    connections: usize,
    rate: f64,
    batch: usize,
    min_secs: f64,
    faults: Option<FaultPlan>,
    connect: Option<String>,
    shutdown: bool,
    shards: usize,
    drift: bool,
    overload: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        if name == "shutdown" || name == "drift" || name == "overload" {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    let algos = match flags.get("algo").map(String::as_str) {
        None | Some("all") => AlgoSpec::ALL.to_vec(),
        Some(name) => {
            vec![AlgoSpec::by_name(name).ok_or_else(|| format!("unknown algorithm {name:?}"))?]
        }
    };
    let dataset_name = flags.get("dataset").map_or("PowerCons", String::as_str);
    let dataset = PaperDataset::by_name(dataset_name)
        .ok_or_else(|| format!("unknown dataset {dataset_name:?}"))?;
    let num = |name: &str, default: f64| -> Result<f64, String> {
        match flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --{name} value {v:?}")),
        }
    };
    let faults = match flags.get("faults") {
        None => None,
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("invalid --faults: {e}"))?),
    };
    Ok(Args {
        algos,
        dataset,
        sessions: num("sessions", 100.0)? as usize,
        connections: num("connections", 4.0)? as usize,
        rate: num("rate", 0.0)?,
        batch: (num("batch", 32.0)? as usize).max(1),
        min_secs: num("min-secs", 0.0)?,
        faults,
        connect: flags.get("connect").cloned(),
        shutdown: flags.contains_key("shutdown"),
        shards: num("shards", 0.0)? as usize,
        drift: flags.contains_key("drift"),
        overload: flags.contains_key("overload"),
    })
}

/// Accumulated numbers for one algorithm across repeated runs.
struct NetRow {
    algo: String,
    decided: usize,
    degraded: usize,
    failed: usize,
    disconnected: usize,
    dropped: usize,
    reconnects: u64,
    rows_sent: u64,
    wall: Duration,
    latency: Histogram,
    errors: Vec<String>,
}

impl NetRow {
    fn new(algo: &str) -> NetRow {
        NetRow {
            algo: algo.to_owned(),
            decided: 0,
            degraded: 0,
            failed: 0,
            disconnected: 0,
            dropped: 0,
            reconnects: 0,
            rows_sent: 0,
            wall: Duration::ZERO,
            latency: Histogram::default(),
            errors: Vec::new(),
        }
    }

    fn absorb(&mut self, r: &LoadReport) {
        self.decided += r.decided;
        self.degraded += r.degraded;
        self.failed += r.failed;
        self.disconnected += r.disconnected;
        self.dropped += r.dropped;
        self.reconnects += r.reconnects;
        self.rows_sent += r.rows_sent;
        self.wall += r.wall;
        self.latency.merge(&r.latency);
        self.errors.extend(r.errors.iter().cloned());
    }

    fn decisions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.decided as f64 / secs
        } else {
            0.0
        }
    }

    fn p50_ms(&self) -> f64 {
        self.latency.clone().p50().unwrap_or(0.0) * 1e3
    }

    fn p99_ms(&self) -> f64 {
        self.latency.clone().p99().unwrap_or(0.0) * 1e3
    }

    fn clean(&self) -> bool {
        self.dropped == 0 && self.errors.is_empty()
    }

    fn render(&self) -> String {
        format!(
            "{:<9} net {:>8.0} decisions/s  p50 {:>7.3} ms  p99 {:>7.3} ms  \
             {} decided ({} degraded, {} failed, {} disconnected, {} dropped) \
             {} rows in {:.2} s",
            self.algo,
            self.decisions_per_sec(),
            self.p50_ms(),
            self.p99_ms(),
            self.decided,
            self.degraded,
            self.failed,
            self.disconnected,
            self.dropped,
            self.rows_sent,
            self.wall.as_secs_f64(),
        )
    }
}

/// Repeats `run_loadgen` until the accumulated wall-clock crosses
/// `min_secs` (at least once), folding every run into one row.
fn run_until(addr: &str, data: &Dataset, opts: &LoadgenOptions, min_secs: f64, row: &mut NetRow) {
    let started = Instant::now();
    loop {
        let report = run_loadgen(addr, data, opts);
        row.absorb(&report);
        if !report.clean() || started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
}

/// The baseline file split into its measured sections. The file is
/// plain hand-rolled JSON (the workspace carries no JSON dependency),
/// so the split is string surgery anchored on the section keys this
/// binary itself appends — always in `network`, `fleet`, `adapt`,
/// `overload` order.
struct Baseline {
    path: String,
    prefix: String,
    network: Option<String>,
    fleet: Option<String>,
    adapt: Option<String>,
    overload: Option<String>,
}

impl Baseline {
    fn load() -> Baseline {
        let path = std::env::var("BENCH_BASELINE_PATH").unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json").into()
        });
        let (prefix, network, fleet, adapt, overload) = match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut base = text.trim_end().to_owned();
                if base.ends_with('}') {
                    base.pop(); // the file's closing brace
                    base.truncate(base.trim_end().len());
                }
                // Sections split off back-to-front so each key's find
                // sees only the text before later sections.
                let overload = base.find(",\n  \"overload\"").map(|i| base.split_off(i));
                let adapt = base.find(",\n  \"adapt\"").map(|i| base.split_off(i));
                let fleet = base.find(",\n  \"fleet\"").map(|i| base.split_off(i));
                let network = base.find(",\n  \"network\"").map(|i| base.split_off(i));
                (base, network, fleet, adapt, overload)
            }
            Err(_) => (
                String::from("{\n  \"bench\": \"streaming_serve\""),
                None,
                None,
                None,
                None,
            ),
        };
        Baseline {
            path,
            prefix,
            network,
            fleet,
            adapt,
            overload,
        }
    }

    fn store(self) {
        let mut out = self.prefix;
        if let Some(s) = self.network {
            out.push_str(&s);
        }
        if let Some(s) = self.fleet {
            out.push_str(&s);
        }
        if let Some(s) = self.adapt {
            out.push_str(&s);
        }
        if let Some(s) = self.overload {
            out.push_str(&s);
        }
        out.push_str("\n}\n");
        std::fs::write(&self.path, out).expect("baseline file writable");
    }
}

/// Merges the measured rows into `BENCH_baseline.json` as a
/// `"network"` section, replacing any previous one and preserving a
/// `"fleet"` section if present.
fn merge_baseline(
    rows: &[NetRow],
    connections: usize,
    sessions: usize,
    batch: usize,
    event_loop_threads: usize,
) {
    let mut baseline = Baseline::load();
    let mut s = String::from(",\n  \"network\": {\n");
    s.push_str("    \"transport\": \"tcp-loopback\",\n");
    s.push_str(&format!("    \"connections\": {connections},\n"));
    s.push_str(&format!("    \"sessions\": {sessions},\n"));
    s.push_str(&format!("    \"batch\": {batch},\n"));
    s.push_str(&format!(
        "    \"event_loop_threads\": {event_loop_threads},\n"
    ));
    s.push_str("    \"algorithms\": [\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"algo\": \"{}\", \"decisions_per_sec\": {:.1}, \"p50_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"degraded\": {}, \"dropped\": {}}}{}\n",
            row.algo,
            row.decisions_per_sec(),
            row.p50_ms(),
            row.p99_ms(),
            row.degraded,
            row.dropped,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  }");
    let path = baseline.path.clone();
    baseline.network = Some(s);
    baseline.store();
    diag(format_args!("merged network section into {path}"));
}

/// Merges a fleet run into `BENCH_baseline.json` as a `"fleet"`
/// section: per-shard balance, migration counts, and the measured
/// failover recovery time.
fn merge_fleet_baseline(
    report: &FleetReport,
    algo: &str,
    plan: &FaultPlan,
    connections: usize,
    batch: usize,
) {
    let mut baseline = Baseline::load();
    let r = &report.router;
    let balance: Vec<String> = report.balance().iter().map(u64::to_string).collect();
    let mut s = String::from(",\n  \"fleet\": {\n");
    s.push_str("    \"transport\": \"tcp-loopback-router\",\n");
    s.push_str(&format!("    \"shards\": {},\n", report.shards.len()));
    s.push_str(&format!("    \"connections\": {connections},\n"));
    s.push_str(&format!("    \"batch\": {batch},\n"));
    s.push_str(&format!("    \"sessions\": {},\n", report.load.sessions));
    s.push_str(&format!("    \"algo\": \"{algo}\",\n"));
    s.push_str(&format!("    \"faults\": \"{}\",\n", plan.render()));
    s.push_str(&format!(
        "    \"decisions_per_sec\": {:.1},\n",
        report.load.decisions_per_sec()
    ));
    s.push_str(&format!(
        "    \"p50_ms\": {:.4},\n    \"p99_ms\": {:.4},\n",
        report.load.latency.clone().p50().unwrap_or(0.0) * 1e3,
        report.load.latency.clone().p99().unwrap_or(0.0) * 1e3,
    ));
    s.push_str(&format!("    \"balance\": [{}],\n", balance.join(", ")));
    s.push_str(&format!(
        "    \"migrated_sessions\": {},\n    \"handoffs\": {},\n",
        r.sessions_migrated, r.handoffs_sent
    ));
    s.push_str(&format!(
        "    \"failovers\": {},\n    \"failover_recovery_ms\": {:.3},\n",
        r.failovers,
        report.failover_ms()
    ));
    s.push_str(&format!(
        "    \"planned_drains\": {},\n    \"dropped\": {}\n",
        r.planned_drains, report.load.dropped
    ));
    s.push_str("  }");
    let path = baseline.path.clone();
    baseline.fleet = Some(s);
    baseline.store();
    diag(format_args!("merged fleet section into {path}"));
}

/// A contiguous slice of a stream as its own dataset, with the full
/// stream's class registry pre-interned so dense labels agree.
fn stream_slice(stream: &Dataset, lo: usize, hi: usize, name: &str) -> Dataset {
    let mut b = DatasetBuilder::new(name);
    for class in stream.class_names() {
        b.class(class);
    }
    for i in lo..hi {
        let inst = stream.instance(i);
        let rows: Vec<Vec<f64>> = (0..inst.vars())
            .map(|v| (0..inst.len()).map(|t| inst.at(v, t)).collect())
            .collect();
        b.push_named(
            MultiSeries::from_rows(rows).expect("stream instance re-assembles"),
            &stream.class_names()[stream.label(i)],
        );
    }
    b.build().expect("stream slice assembles")
}

/// Merges a drift run into `BENCH_baseline.json` as an `"adapt"`
/// section: adaptation activity, refit latency, and the three
/// accuracies that frame recovery (pre-drift, post-drift under the
/// initial model, post-swap on the adapted one).
#[allow(clippy::too_many_arguments)]
fn merge_adapt_baseline(
    algo: &str,
    sessions: usize,
    stats: &etsc_adapt::AdapterStats,
    pre: f64,
    post: f64,
    recovered: f64,
    refit_ms: f64,
    dropped: usize,
) {
    let mut baseline = Baseline::load();
    let mut s = String::from(",\n  \"adapt\": {\n");
    s.push_str("    \"transport\": \"tcp-loopback\",\n");
    s.push_str(&format!("    \"algo\": \"{algo}\",\n"));
    s.push_str(&format!("    \"sessions\": {sessions},\n"));
    s.push_str("    \"drift\": \"step@0.5,rotate=1\",\n");
    s.push_str(&format!(
        "    \"drifts\": {},\n    \"refits\": {},\n    \"swaps\": {},\n    \"rollbacks\": {},\n",
        stats.drifts, stats.refits, stats.swaps, stats.rollbacks
    ));
    s.push_str(&format!(
        "    \"final_generation\": {},\n",
        stats.generation
    ));
    s.push_str(&format!("    \"refit_ms\": {refit_ms:.3},\n"));
    s.push_str(&format!(
        "    \"pre_drift_accuracy\": {pre:.4},\n    \"post_drift_accuracy\": {post:.4},\n",
    ));
    s.push_str(&format!("    \"recovered_accuracy\": {recovered:.4},\n"));
    s.push_str(&format!("    \"dropped\": {dropped}\n"));
    s.push_str("  }");
    let path = baseline.path.clone();
    baseline.adapt = Some(s);
    baseline.store();
    diag(format_args!("merged adapt section into {path}"));
}

/// Drift mode: serve an adapting model through the wire path and
/// measure what online adaptation buys. Wave 1 replays a seeded
/// step-drift stream with label feedback — the adapter's detector sees
/// the error burst, refits on its reservoir, and hot-swaps through the
/// crash-consistent store into the live server. Wave 2 replays the
/// post-drift tail against the swapped model to measure recovery.
fn run_drift_mode(args: &Args, algo: AlgoSpec) -> bool {
    let n = args.sessions.max(40);
    let stream = drift_stream(
        args.dataset,
        &DriftOptions {
            kind: DriftKind::Step { at: 0.5 },
            n,
            rotate: 1,
            gen: ScalePreset::Quick.options(args.dataset, 11),
        },
    );
    let n_train = (n * 3 / 10).max(4);
    let train = stream_slice(&stream, 0, n_train, "drift-train");
    let stored = match fit_model(algo, &train, &RunConfig::fast()) {
        Ok(stored) => Arc::new(stored),
        Err(e) => {
            diag(format_args!("error: {} does not fit: {e}", algo.name()));
            return false;
        }
    };
    let dir = std::env::temp_dir().join("etsc-loadgen-drift");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        diag(format_args!("error: creating model store dir: {e}"));
        return false;
    }
    let model_path = dir.join("adaptive.model");
    let adapter = Adapter::new(
        Arc::clone(&stored),
        Some(model_path),
        AdapterConfig {
            detector: DetectorKind::Ddm,
            reservoir_cap: 256,
            min_refit_examples: 24,
            rollback_window: 24,
            ..AdapterConfig::default()
        },
    );
    let server = match Endpoint::serve(
        stored,
        "127.0.0.1:0",
        ServerBuilder::new().feedback(Arc::new(adapter.clone())),
    ) {
        Ok(server) => Arc::new(server),
        Err(e) => {
            diag(format_args!("error: binding loopback: {e}"));
            return false;
        }
    };
    {
        let server = Arc::clone(&server);
        adapter.set_swap_hook(move |model| {
            if let Err(e) = server.reload(model) {
                diag(format_args!("error: hot-swap reload: {e}"));
            }
        });
    }
    let addr = server.local_addr().to_string();
    let opts = LoadgenOptions {
        connections: args.connections,
        sessions: n,
        rate: args.rate,
        // Per-row frames: feedback grading wants the same cadence the
        // adapter was tuned against.
        batch: 1,
        faults: None,
        client: ClientBuilder::new(),
        wait_timeout: Duration::from_secs(60),
        open_ahead: 0,
        feedback: true,
        send_shutdown: false,
    };

    // Wave 1: the full stream, with a poller driving refits while
    // feedback flows.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let adapter = adapter.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if let Err(e) = adapter.poll() {
                    diag(format_args!("error: adapter poll: {e}"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let wave1 = run_loadgen(&addr, &stream, &opts);
    // Let any drift signalled by the tail of wave 1 finish refitting
    // before recovery is measured.
    for _ in 0..200 {
        if adapter.stats().swaps >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = poller.join();

    // Wave 2: the post-drift tail against the adapted model.
    let tail = stream_slice(&stream, n / 2, n, "drift-tail");
    let wave2 = run_loadgen(
        &addr,
        &tail,
        &LoadgenOptions {
            sessions: n - n / 2,
            ..opts
        },
    );
    adapter.set_swap_hook(|_| {}); // release the server handle
    let mut stopper_ok = true;
    match Endpoint::connect(&addr, ClientBuilder::new()) {
        Ok(mut c) => {
            let _ = c.shutdown_server();
            let _ = c.wait_drain(Duration::from_secs(10));
        }
        Err(e) => {
            diag(format_args!("error: drain connect: {e}"));
            stopper_ok = false;
        }
    }
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server handle still shared"));
    let stats = server.join();
    let a = adapter.stats();
    let pre = wave1.window_accuracy(0, n / 2).unwrap_or(0.0);
    let post = wave1.window_accuracy(n / 2, n).unwrap_or(0.0);
    let recovered = wave2.window_accuracy(0, n).unwrap_or(0.0);
    println!(
        "{:<9} drift {} sessions  drifts {}  refits {} ({:.1} ms)  swaps {}  rollbacks {}  \
         gen {}  accuracy pre {:.3} / post {:.3} / recovered {:.3}",
        algo.name(),
        n,
        a.drifts,
        a.refits,
        a.last_refit_secs * 1e3,
        a.swaps,
        a.rollbacks,
        a.generation,
        pre,
        post,
        recovered,
    );
    for e in wave1.errors.iter().chain(&wave2.errors) {
        diag(format_args!("error: {e}"));
    }
    let mut ok = stopper_ok && wave1.clean() && wave2.clean();
    if stats.open_sessions() != 0 {
        diag(format_args!(
            "error: leaked {} sessions server-side",
            stats.open_sessions()
        ));
        ok = false;
    }
    if a.drifts == 0 {
        diag(format_args!("error: the step drift was never detected"));
        ok = false;
    }
    if a.swaps == 0 {
        diag(format_args!("error: no hot-swap was committed"));
        ok = false;
    }
    if ok {
        merge_adapt_baseline(
            algo.name(),
            n,
            &a,
            pre,
            post,
            recovered,
            a.last_refit_secs * 1e3,
            wave1.dropped + wave2.dropped,
        );
    }
    ok
}

/// One measured point on the goodput-vs-offered-load curve.
struct OverloadPoint {
    /// Offered load as a multiple of the service depth (the sliding
    /// window each connection keeps in flight).
    offered: usize,
    report: LoadReport,
}

impl OverloadPoint {
    fn goodput(&self) -> f64 {
        self.report.decisions_per_sec()
    }

    fn shed_ratio(&self) -> f64 {
        if self.report.sessions > 0 {
            self.report.shed as f64 / self.report.sessions as f64
        } else {
            0.0
        }
    }

    fn p99_ms(&self) -> f64 {
        self.report.latency.clone().p99().unwrap_or(0.0) * 1e3
    }
}

/// Merges an overload ramp into `BENCH_baseline.json` as an
/// `"overload"` section: the calibrated capacity and, per ramp point,
/// goodput, shed ratio, and tail latency.
fn merge_overload_baseline(
    algo: &str,
    connections: usize,
    delay_ms: u64,
    base_goodput: f64,
    points: &[OverloadPoint],
) {
    let mut baseline = Baseline::load();
    let mut s = String::from(",\n  \"overload\": {\n");
    s.push_str("    \"transport\": \"tcp-loopback\",\n");
    s.push_str(&format!("    \"algo\": \"{algo}\",\n"));
    s.push_str(&format!("    \"connections\": {connections},\n"));
    s.push_str(&format!("    \"eval_delay_ms\": {delay_ms},\n"));
    s.push_str(&format!(
        "    \"calibrated_goodput_per_sec\": {base_goodput:.1},\n"
    ));
    s.push_str("    \"ramp\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"offered_x\": {}, \"sessions\": {}, \
             \"goodput_per_sec\": {:.1}, \"shed_ratio\": {:.4}, \"expired\": {}, \
             \"degraded\": {}, \"p99_ms\": {:.4}}}{}\n",
            p.offered,
            p.report.sessions,
            p.goodput(),
            p.shed_ratio(),
            p.report.expired,
            p.report.degraded,
            p.p99_ms(),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  }");
    let path = baseline.path.clone();
    baseline.overload = Some(s);
    baseline.store();
    diag(format_args!("merged overload section into {path}"));
}

/// Overload mode: make server capacity a known quantity by arming a
/// seeded evaluation delay on every session (the server evaluates
/// inline per connection, so capacity is `1000/delay` sessions per
/// second per connection), calibrate goodput with a closed loop of
/// depth 1, then ramp the in-flight window to 1×, 2×, and 5× that
/// depth. Lossless backpressure queues the excess: the tail grows with
/// the window while goodput holds at capacity.
fn run_overload_mode(args: &Args, algo: AlgoSpec, data: &Dataset) -> bool {
    const DELAY_MS: u64 = 10;
    let connections = args.connections.max(1);
    let sessions = args.sessions.max(75 * connections);
    let stored = match fit_model(algo, data, &RunConfig::fast()) {
        Ok(stored) => Arc::new(stored),
        Err(e) => {
            diag(format_args!("error: {} does not fit: {e}", algo.name()));
            return false;
        }
    };
    let plan = FaultPlan {
        seed: 11,
        delay_rate: 1.0,
        delay: Duration::from_millis(DELAY_MS),
        ..FaultPlan::default()
    };

    let mut ok = true;
    let mut run_point = |depth: usize| -> Option<OverloadPoint> {
        let server = match Endpoint::serve(
            Arc::clone(&stored),
            "127.0.0.1:0",
            ServerBuilder::new().faults(plan.clone(), sessions),
        ) {
            Ok(server) => server,
            Err(e) => {
                diag(format_args!("error: binding loopback: {e}"));
                return None;
            }
        };
        let addr = server.local_addr().to_string();
        let report = run_loadgen(
            &addr,
            data,
            &LoadgenOptions {
                connections,
                sessions,
                rate: 0.0,
                // The windowed feed ignores batching; state it anyway.
                batch: 1,
                faults: None,
                // Budget 0: every server refusal is one client-visible
                // shed, so the curve's shed ratio is exact.
                client: ClientBuilder::new().retry_budgets(0, 3),
                wait_timeout: Duration::from_secs(60),
                open_ahead: depth,
                feedback: false,
                send_shutdown: true,
            },
        );
        let stats = server.join();
        if !report.accounted() || report.dropped != 0 || !report.errors.is_empty() {
            diag(format_args!(
                "error: overload point x{depth} lost sessions: \
                 {} dropped, errors: {:?}",
                report.dropped, report.errors
            ));
            ok = false;
        }
        if stats.open_sessions() != 0 {
            diag(format_args!(
                "error: overload point x{depth} leaked {} sessions",
                stats.open_sessions()
            ));
            ok = false;
        }
        Some(OverloadPoint {
            offered: depth,
            report,
        })
    };

    let mut points = Vec::new();
    for depth in [1usize, 2, 5] {
        match run_point(depth) {
            Some(p) => points.push(p),
            None => return false,
        }
    }
    // The depth-1 point is the calibrated capacity: a closed loop
    // exactly as deep as the server's service pipeline.
    let base_goodput = points[0].goodput();
    for p in &points {
        println!(
            "{:<9} overload x{} goodput {:>7.1}/s ({:>5.1}% of capacity)  \
             shed {:>5.1}%  expired {:>3}  degraded {:>3}  p99 {:>8.3} ms",
            algo.name(),
            p.offered,
            p.goodput(),
            if base_goodput > 0.0 {
                p.goodput() / base_goodput * 100.0
            } else {
                0.0
            },
            p.shed_ratio() * 100.0,
            p.report.expired,
            p.report.degraded,
            p.p99_ms(),
        );
    }
    // The resilience claim: at 5× offered load goodput holds at ≥80%
    // of calibrated capacity — queue, don't collapse.
    if let Some(worst) = points.iter().find(|p| p.offered == 5) {
        if worst.goodput() < 0.8 * base_goodput {
            diag(format_args!(
                "error: goodput collapsed under 5x offered load: {:.1}/s vs {:.1}/s calibrated",
                worst.goodput(),
                base_goodput
            ));
            ok = false;
        }
    }
    if ok {
        merge_overload_baseline(algo.name(), connections, DELAY_MS, base_goodput, &points);
    }
    ok
}

/// Fleet mode: fit one model, fan it out through the versioned store
/// (save + replicate + load per shard), stand up `--shards` servers
/// behind a router, and replay the dataset through the whole stack
/// while the fault plan kills a shard mid-stream. Reports per-shard
/// balance, migration counts, and measured failover recovery time,
/// and merges them into the baseline's `"fleet"` section.
fn run_fleet_mode(args: &Args, algo: AlgoSpec, data: &Dataset) -> bool {
    let stored = match fit_model(algo, data, &RunConfig::fast()) {
        Ok(stored) => stored,
        Err(e) => {
            diag(format_args!("error: {} does not fit: {e}", algo.name()));
            return false;
        }
    };
    let dir = std::env::temp_dir().join("etsc-loadgen-fleet");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        diag(format_args!("error: creating model store dir: {e}"));
        return false;
    }
    let paths: Vec<std::path::PathBuf> = (0..args.shards)
        .map(|i| dir.join(format!("shard{i}.model")))
        .collect();
    let models: Result<Vec<Arc<StoredModel>>, String> = (|| {
        stored.save(&paths[0]).map_err(|e| e.to_string())?;
        replicate(&paths[0], &paths[1..]).map_err(|e| e.to_string())?;
        paths
            .iter()
            .map(|p| {
                StoredModel::load(p)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .collect()
    })();
    let models = match models {
        Ok(models) => models,
        Err(e) => {
            diag(format_args!("error: replicating the model store: {e}"));
            return false;
        }
    };
    let plan = args.faults.clone().unwrap_or_else(|| {
        FaultPlan::parse("seed=11,kill-shard=1").expect("default fleet plan parses")
    });
    let report = run_fleet(
        &models,
        data,
        &FleetOptions {
            connections: args.connections,
            sessions: args.sessions,
            rate: args.rate,
            batch: args.batch,
            faults: Some(plan.clone()),
            wait_timeout: Duration::from_secs(60),
            ..FleetOptions::default()
        },
    );
    let r = &report.router;
    println!(
        "{:<9} fleet {} shards {:>8.0} decisions/s  p50 {:>7.3} ms  p99 {:>7.3} ms  \
         balance {:?}  migrated {}  failover {:.3} ms ({} episodes)  planned drains {}",
        algo.name(),
        args.shards,
        report.load.decisions_per_sec(),
        report.load.latency.clone().p50().unwrap_or(0.0) * 1e3,
        report.load.latency.clone().p99().unwrap_or(0.0) * 1e3,
        report.balance(),
        r.sessions_migrated,
        report.failover_ms(),
        r.failovers,
        r.planned_drains,
    );
    for e in &report.load.errors {
        diag(format_args!("error: {e}"));
    }
    let mut ok = report.clean();
    for (i, shard) in report.shards.iter().enumerate() {
        if let Some(stats) = &shard.stats {
            if stats.open_sessions() != 0 {
                diag(format_args!(
                    "error: shard {i} leaked {} sessions",
                    stats.open_sessions()
                ));
                ok = false;
            }
        }
    }
    if plan.kill_shard.is_some() && report.kill_step.is_none() {
        diag(format_args!("error: the armed shard kill never fired"));
        ok = false;
    }
    if ok {
        merge_fleet_baseline(&report, algo.name(), &plan, args.connections, args.batch);
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            diag(format_args!("error: {msg}"));
            return ExitCode::from(2);
        }
    };
    let data = args
        .dataset
        .generate(ScalePreset::Quick.options(args.dataset, 11));
    let opts = LoadgenOptions {
        connections: args.connections,
        sessions: args.sessions,
        rate: args.rate,
        batch: args.batch,
        faults: args.faults.clone(),
        client: ClientBuilder::new(),
        wait_timeout: Duration::from_secs(60),
        open_ahead: 0,
        feedback: false,
        send_shutdown: false,
    };
    let mut ok = true;

    if args.overload && args.connect.is_none() {
        // Overload mode: ramp offered load past a pinned capacity.
        let algo = args.algos.first().copied().unwrap_or(AlgoSpec::Ects);
        ok = run_overload_mode(&args, algo, &data);
    } else if args.drift && args.connect.is_none() {
        // Drift mode: serve an adapting model and measure recovery.
        let algo = args.algos.first().copied().unwrap_or(AlgoSpec::Ects);
        ok = run_drift_mode(&args, algo);
    } else if args.shards >= 2 && args.connect.is_none() {
        // Fleet mode: N shards behind a router, with a seeded
        // shard-kill unless the caller armed their own plan.
        let algo = args.algos.first().copied().unwrap_or(AlgoSpec::Ects);
        ok = run_fleet_mode(&args, algo, &data);
    } else if let Some(addr) = &args.connect {
        // External mode: one server, whatever model it serves.
        let mut row = NetRow::new("remote");
        run_until(addr, &data, &opts, args.min_secs, &mut row);
        if args.shutdown {
            let drain = run_loadgen(
                addr,
                &data,
                &LoadgenOptions {
                    sessions: 1,
                    connections: 1,
                    send_shutdown: true,
                    faults: None,
                    ..opts
                },
            );
            row.absorb(&drain);
            if !drain.drained {
                diag(format_args!("error: server did not acknowledge the drain"));
                ok = false;
            }
        }
        println!("{}", row.render());
        for e in &row.errors {
            diag(format_args!("error: {e}"));
        }
        ok = ok && row.clean();
    } else {
        // Self-hosted mode: fit, bind, measure, drain — per algorithm.
        let config = RunConfig::fast();
        let mut rows = Vec::new();
        let mut event_loops = 0usize;
        for algo in args.algos {
            let stored = match fit_model(algo, &data, &config) {
                Ok(stored) => Arc::new(stored),
                Err(e) => {
                    diag(format_args!("{:<9} skipped: {e}", algo.name()));
                    continue;
                }
            };
            let server = match Endpoint::serve(stored, "127.0.0.1:0", ServerBuilder::new()) {
                Ok(server) => server,
                Err(e) => {
                    diag(format_args!(
                        "error: binding loopback for {}: {e}",
                        algo.name()
                    ));
                    ok = false;
                    continue;
                }
            };
            let addr = server.local_addr().to_string();
            event_loops = server.event_loops();
            let mut row = NetRow::new(algo.name());
            run_until(&addr, &data, &opts, args.min_secs, &mut row);
            server.shutdown();
            let stats = server.join();
            if stats.open_sessions() != 0 {
                diag(format_args!(
                    "error: {} leaked {} sessions server-side",
                    algo.name(),
                    stats.open_sessions()
                ));
                ok = false;
            }
            println!("{}", row.render());
            for e in &row.errors {
                diag(format_args!("error: {e}"));
            }
            ok = ok && row.clean();
            rows.push(row);
        }
        if rows.is_empty() {
            diag(format_args!(
                "error: no algorithm produced a servable model"
            ));
            ok = false;
        } else {
            merge_baseline(
                &rows,
                args.connections,
                args.sessions,
                args.batch,
                event_loops,
            );
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
