//! Chaos suite: the serving stack under deterministic, seeded fault
//! injection (PR 3's acceptance scenario).
//!
//! A 100-session replay runs with a [`FaultPlan`] that injects worker
//! panics, ≥5% artificially delayed decisions against an armed
//! deadline, and NaN stream points — while the model file itself is
//! corrupted and recovered through the crash-consistent store. The
//! invariants:
//!
//! * **zero session drops** — every session ends with an attributable
//!   outcome (decided, fallback, or failed); none starve;
//! * **bounded fallback rate** — fallbacks only happen where delays
//!   were injected, and every fallback shows up in the deadline-breach
//!   counter;
//! * **fault attribution** — sessions untouched by the schedule commit
//!   exactly the offline prediction; accuracy degrades only on
//!   injected cells;
//! * **store recovery** — the corrupted model file is quarantined and
//!   the `.prev` last-good copy serves in its place.

use std::time::Duration;

use etsc::data::Dataset;
use etsc::datasets::{GenOptions, PaperDataset};
use etsc::eval::experiment::{AlgoSpec, RunConfig};
use etsc::eval::FaultPlan;
use etsc::serve::{
    fit_model, load_resilient, replay_dataset, ReplayOptions, SessionOutcome, StoredModel,
};

/// The seeded plan the whole suite runs under (also exercised by the
/// `--faults` CLI flag and the CI chaos step).
const PLAN: &str = "seed=42,panics=2,delay-rate=0.10,delay-ms=30,nan-rate=0.05,corrupt-model=true";

fn hundred_sessions() -> Dataset {
    let data = PaperDataset::PowerCons.generate(GenOptions {
        height_scale: 0.1,
        length_scale: 0.2,
        seed: 13,
    });
    let indices: Vec<usize> = (0..100).map(|i| i % data.len()).collect();
    data.subset(&indices)
}

fn stored_model(data: &Dataset) -> StoredModel {
    fit_model(AlgoSpec::Ects, data, &RunConfig::fast()).expect("ECTS fits")
}

#[test]
fn chaos_replay_zero_session_drops_and_full_attribution() {
    let data = hundred_sessions();
    let stored = stored_model(&data);
    let plan = FaultPlan::parse(PLAN).expect("plan parses");
    let report = replay_dataset(
        &stored,
        &data,
        &ReplayOptions {
            workers: 4,
            deadline: Some(Duration::from_millis(5)),
            faults: Some(plan),
            ..ReplayOptions::default()
        },
    )
    .expect("the replay survives every injected fault")
    .report;
    let schedule = report
        .fault_schedule
        .as_ref()
        .expect("armed plan reports its schedule");

    // The plan's guaranteed injection floor for the acceptance run.
    assert!(schedule.injected_panics() >= 1, "plan injects a panic");
    assert!(
        schedule.injected_delays() >= 5,
        "plan delays >=5% of 100 sessions (got {})",
        schedule.injected_delays()
    );

    // Zero session drops: all 100 accounted for, none starved.
    assert_eq!(report.outcomes.len(), 100);
    assert_eq!(report.starved(), 0, "no session may vanish");

    // Every injected panic fired and was caught.
    assert_eq!(report.worker_panics, schedule.injected_panics());

    // Failures are attributable: a session may only fail where a fault
    // was injected, and each panic kills exactly one session.
    let failed: Vec<usize> = report
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, SessionOutcome::Failed(_)))
        .map(|(s, _)| s)
        .collect();
    assert_eq!(failed.len(), schedule.injected_panics());
    for &s in &failed {
        assert!(schedule.touches(s), "session {s} failed without a fault");
    }

    // Bounded fallback rate: the 30ms injected delay always breaches
    // the 5ms deadline, so fallbacks happen — but only on sessions the
    // schedule touched, and every one is counted as a breach.
    assert!(report.fallbacks >= 1, "delays must provoke fallbacks");
    assert!(
        report.fallbacks <= schedule.injected_delays(),
        "{} fallbacks from {} injected delays",
        report.fallbacks,
        schedule.injected_delays()
    );
    assert!(
        report.deadline_breaches >= report.fallbacks,
        "every fallback is a counted breach"
    );
    for (s, outcome) in report.outcomes.iter().enumerate() {
        if matches!(outcome, SessionOutcome::Fallback(_)) {
            assert!(schedule.touches(s), "session {s} fell back without a fault");
        }
    }

    // Accuracy degrades only on injected cells: every untouched session
    // commits exactly the offline prediction.
    for (s, outcome) in report.outcomes.iter().enumerate() {
        if schedule.touches(s) {
            continue;
        }
        let offline = stored
            .classifier()
            .predict_early(data.instance(s))
            .expect("offline prediction");
        assert_eq!(
            *outcome,
            SessionOutcome::Decided(offline),
            "untouched session {s} diverged from offline"
        );
    }
}

#[test]
fn chaos_corrupted_model_recovers_from_last_good_and_serves() {
    let data = hundred_sessions();
    let stored = stored_model(&data);
    let plan = FaultPlan::parse(PLAN).expect("plan parses");
    assert!(plan.corrupt_model, "the acceptance plan corrupts the store");

    let dir = std::env::temp_dir().join("etsc-chaos-suite");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chaos.model");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(dir.join("chaos.model.prev")).ok();
    std::fs::remove_file(dir.join("chaos.model.quarantine")).ok();

    // Two saves leave a pristine `.prev`; then the plan picks the byte
    // to corrupt in the primary.
    stored.save(&path).expect("first save");
    stored.save(&path).expect("second save");
    let mut bytes = std::fs::read(&path).expect("read model");
    let offset = plan.corruption_offset(bytes.len());
    bytes[offset] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write corrupted model");

    let outcome = load_resilient(&path).expect("resilient load recovers");
    assert!(outcome.recovered_from_prev, "served from last-good copy");
    assert!(
        outcome.quarantined.is_some(),
        "corrupt file preserved as evidence"
    );
    assert!(!outcome.warnings.is_empty(), "degradation is reported");

    // The recovered model serves a clean replay bit-identically to the
    // original artifact.
    let report = replay_dataset(&outcome.model, &data, &ReplayOptions::default())
        .expect("recovered model serves")
        .report;
    assert_eq!(report.starved(), 0);
    assert_eq!(report.errors, 0, "{:?}", report.first_error);
    for (s, decision) in report.decisions.iter().enumerate() {
        let offline = stored
            .classifier()
            .predict_early(data.instance(s))
            .expect("offline prediction");
        assert_eq!(*decision, Some(offline), "session {s}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The network extension of the suite: the same dataset streamed over
/// 100 concurrent loopback connections while seeded faults tear
/// frames, drop connections mid-session, and panic a worker on the
/// server side. Invariants: zero server-side session leaks, and every
/// fault attributable — in the stats, in the report, and in the trace.
#[test]
fn chaos_network_hundred_connections_zero_leaks_full_attribution() {
    use etsc::net::{run_loadgen, Endpoint, LoadgenOptions, ServerBuilder};
    use etsc::obs::{EventRecord, Obs, TraceRecord};
    use std::sync::Arc;

    let data = hundred_sessions();
    let stored = Arc::new(stored_model(&data));
    // Client-side network faults ride the loadgen's schedule; the
    // server draws its own plan for the worker panics so both ends of
    // the wire are exercised.
    let client_plan =
        FaultPlan::parse("seed=7,torn-rate=0.05,disconnect-rate=0.05").expect("client plan");
    let server_plan = FaultPlan::parse("seed=9,panics=2").expect("server plan");

    // One full scenario run. Every invariant below holds on EVERY run;
    // only whether a panic seq lands on an arrival that ever delivers
    // a complete observation is timing-dependent (a tear or disconnect
    // at step 1 kills the arrival before it evaluates), so the caller
    // retries until a panic actually fires.
    let run_once = || -> (u64, Vec<EventRecord>) {
        let obs = Obs::enabled();
        let server = Endpoint::serve(
            stored.clone(),
            "127.0.0.1:0",
            ServerBuilder::new()
                .max_connections(256)
                // Keyed by arrival order; 100 opens are guaranteed, so
                // panic seqs drawn below 100 always have a taker.
                .faults(server_plan.clone(), 100)
                .obs(obs.clone()),
        )
        .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let report = run_loadgen(
            &addr,
            &data,
            &LoadgenOptions {
                connections: 100,
                sessions: 100,
                faults: Some(client_plan.clone()),
                wait_timeout: Duration::from_secs(60),
                ..LoadgenOptions::default()
            },
        );
        server.shutdown();
        let stats = server.join();

        // Nothing silently lost: every session decided, failed with
        // attribution, or was deliberately disconnected.
        assert!(report.clean(), "loadgen errors: {:?}", report.errors);
        assert_eq!(
            report.decided + report.failed + report.disconnected,
            100,
            "{report:?}"
        );
        assert!(report.torn_frames >= 1, "plan tears at least one frame");
        assert!(report.disconnected >= 1, "plan drops at least one session");
        // Every injected tear AND every injected disconnect kills the
        // connection; each recovery is exactly one counted reconnect.
        assert_eq!(
            report.reconnects,
            report.torn_frames + report.disconnected as u64,
            "{report:?}"
        );

        // Zero server-side leaks: opens + resumes all reach a terminal
        // state (decided, failed, or abandoned) even though
        // connections died mid-session.
        assert_eq!(stats.open_sessions(), 0, "leaked sessions: {stats:?}");
        assert_eq!(stats.sessions_opened, 100);
        // Only torn frames resume (a decision racing the tear onto the
        // dying socket can pre-empt the resume, so this is a ceiling).
        assert!(
            stats.sessions_resumed <= report.torn_frames,
            "{stats:?} vs {report:?}"
        );
        // Dying connections abandon their in-flight sessions; a
        // session the server had already answered is counted decided
        // instead.
        assert!(
            stats.sessions_abandoned <= report.disconnected as u64 + report.torn_frames,
            "{stats:?} vs {report:?}"
        );
        assert!(
            stats.sessions_abandoned >= 1,
            "at least one kill lands mid-flight: {stats:?}"
        );

        // Each fired panic failed exactly one session, the loadgen saw
        // exactly those failures, and the trace carries one attributed
        // event per panic.
        assert_eq!(stats.sessions_failed, stats.worker_panics, "{stats:?}");
        assert_eq!(report.failed as u64, stats.worker_panics, "{report:?}");
        let panic_events: Vec<EventRecord> = obs
            .tracer
            .records()
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::Event(e) if e.name == "net.worker.panic" => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(panic_events.len() as u64, stats.worker_panics);
        (stats.worker_panics, panic_events)
    };

    let mut fired = Vec::new();
    for _ in 0..3 {
        let (panics, events) = run_once();
        if panics >= 1 {
            fired = events;
            break;
        }
    }
    assert!(
        !fired.is_empty(),
        "no injected panic fired in three attempts"
    );
    // Full attribution: the trace names the fault and pins it to a
    // connection, session, and arrival seq.
    for event in &fired {
        let attr = |k: &str| {
            event
                .attrs
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("panic event missing {k:?} attr: {:?}", event.attrs))
        };
        assert!(
            attr("panic").contains("injected fault"),
            "{:?}",
            event.attrs
        );
        attr("conn");
        attr("session");
        attr("seq");
    }
}

/// The fleet extension of the suite: 100 sessions streamed through a
/// consistent-hash router over 3 shard servers while the seeded plan
/// kills one shard mid-stream (no drain handshake — its sockets just
/// drop). Invariants: zero lost sessions, exact migration accounting
/// across every layer (router counters, per-shard stats, handoff
/// frames, trace events), and a measured failover recovery time.
#[test]
fn chaos_kill_a_shard_mid_stream_zero_lost_sessions_exact_migration() {
    use etsc::net::{run_fleet, FleetOptions, RouterBuilder};
    use etsc::obs::{Obs, TraceRecord};
    use etsc::serve::replicate;
    use std::sync::Arc;

    let data = hundred_sessions();
    let stored = stored_model(&data);

    // Fan the fitted model out through the versioned store — the same
    // crash-consistent replication path production shards load from.
    let dir = std::env::temp_dir().join("etsc-chaos-fleet");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths: Vec<std::path::PathBuf> = (0..3)
        .map(|i| dir.join(format!("shard{i}.model")))
        .collect();
    stored.save(&paths[0]).expect("save source replica");
    replicate(&paths[0], &paths[1..]).expect("replicate to shard stores");
    let models: Vec<Arc<StoredModel>> = paths
        .iter()
        .map(|p| Arc::new(StoredModel::load(p).expect("load shard replica")))
        .collect();

    let plan = FaultPlan::parse("seed=42,kill-shard=1,kill-at-step=120").expect("plan parses");
    let obs = Obs::enabled();
    let report = run_fleet(
        &models,
        &data,
        &FleetOptions {
            connections: 10,
            sessions: 100,
            faults: Some(plan),
            router: RouterBuilder::new().obs(obs.clone()),
            ..FleetOptions::default()
        },
    );

    // Zero lost sessions: every one of the 100 decided, none dropped,
    // none failed, and no layer still owes an answer.
    assert!(
        report.clean(),
        "unclean fleet run: {:?}",
        report.load.errors
    );
    assert_eq!(report.load.decided, 100, "{:?}", report.load);
    assert_eq!(report.load.failed, 0, "{:?}", report.load);
    assert_eq!(report.load.dropped, 0, "{:?}", report.load);
    let r = &report.router;
    assert_eq!(r.open_sessions(), 0, "router leaked sessions: {r:?}");
    assert_eq!(r.sessions_opened, 100, "{r:?}");

    // The kill fired at the plan's routed-row step, and the shard's
    // resident sessions migrated instead of vanishing.
    assert_eq!(report.kill_step, Some(120), "seeded kill must fire");
    assert!(report.shards[1].killed, "shard 1 is the kill target");
    assert!(
        r.sessions_migrated >= 1,
        "kill mid-stream must migrate: {r:?}"
    );
    assert_eq!(
        r.sessions_migrated, r.handoffs_sent,
        "every migration announces itself with a handoff: {r:?}"
    );
    assert!(
        r.shard_failures >= 1,
        "an unplanned death is a counted failure"
    );

    // Exact cross-layer accounting: the survivors' resume and handoff
    // counters reconcile with the router's migration count (no client
    // faults are armed, so shard-side resumes can only be migrations),
    // and no shard — including the killed one — leaks a session.
    let mut resumed = 0u64;
    let mut handoffs = 0u64;
    for (i, shard) in report.shards.iter().enumerate() {
        let stats = shard.stats.as_ref().expect("real shard has stats");
        assert_eq!(stats.open_sessions(), 0, "shard {i} leaked: {stats:?}");
        resumed += stats.sessions_resumed;
        handoffs += stats.sessions_handoff;
    }
    assert_eq!(resumed, r.sessions_migrated, "resumes reconcile: {r:?}");
    assert_eq!(handoffs, r.handoffs_sent, "handoffs reconcile: {r:?}");

    // Per-shard balance: the ring spread all 100 sessions, every shard
    // took a share, and placements exceed opens by exactly the
    // migrations (a migrated session is placed twice).
    let balance = report.balance();
    assert!(balance.iter().all(|&p| p > 0), "lopsided ring: {balance:?}");
    assert_eq!(
        balance.iter().sum::<u64>(),
        100 + r.sessions_migrated,
        "placements = opens + migrations: {balance:?} vs {r:?}"
    );
    assert_eq!(
        report.shards.iter().map(|s| s.migrated_off).sum::<u64>(),
        r.sessions_migrated,
        "migrated-off per shard sums to the router's total"
    );

    // Failover recovery time is measured and attributed in the trace.
    assert!(r.failovers >= 1, "{r:?}");
    assert!(r.failover_ns_total > 0, "{r:?}");
    assert!(report.failover_ms() > 0.0);
    let failover_events = obs
        .tracer
        .records()
        .into_iter()
        .filter(|rec| matches!(rec, TraceRecord::Event(e) if e.name == "router.failover"))
        .count() as u64;
    assert_eq!(failover_events, r.failovers, "one trace event per failover");
    assert_eq!(
        obs.metrics
            .histogram("router_failover_seconds")
            .snapshot()
            .len() as u64,
        r.failovers,
        "one recovery-time sample per failover"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The store under concurrent replication pressure: one writer saving
/// new model versions through the crash-consistent path while readers
/// hammer [`load_resilient`]. Every read must land on the last-good or
/// the new version — never an error, a torn read, or a degraded
/// recovery — because `save` stages `.prev` by copy and only ever
/// renames complete files over the primary.
#[test]
fn chaos_concurrent_saves_never_starve_a_resilient_reader() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let data = hundred_sessions();
    let mut stored = stored_model(&data);
    let dir = std::env::temp_dir().join("etsc-chaos-store-race");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("race.model");
    stored.meta.dataset = "v0".to_string();
    stored.save(&path).expect("initial save");

    const VERSIONS: usize = 60;
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let path = path.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for i in 1..=VERSIONS {
                stored.meta.dataset = format!("v{i}");
                stored.save(&path).expect("concurrent save");
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let path = path.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let deadline = std::time::Instant::now() + Duration::from_secs(120);
                loop {
                    assert!(std::time::Instant::now() < deadline, "writer stalled");
                    let outcome = etsc::serve::load_resilient(&path)
                        .expect("resilient load never errors mid-save");
                    assert!(
                        outcome.warnings.is_empty(),
                        "no degraded recovery under clean concurrent saves: {:?}",
                        outcome.warnings
                    );
                    assert!(!outcome.recovered_from_prev, "primary always present");
                    let v = &outcome.model.meta.dataset;
                    let num: usize = v
                        .strip_prefix('v')
                        .and_then(|n| n.parse().ok())
                        .unwrap_or_else(|| panic!("torn version string {v:?}"));
                    assert!(num <= VERSIONS, "impossible version {v:?}");
                    reads += 1;
                    if done.load(Ordering::SeqCst) {
                        return reads;
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer survives");
    let total: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader survives"))
        .sum();
    assert!(
        total >= 4,
        "readers actually raced the writer ({total} reads)"
    );

    // After the dust settles: the primary is the final version and the
    // `.prev` last-good copy is intact and loadable too.
    let last = etsc::serve::load_resilient(&path).expect("final load");
    assert_eq!(last.model.meta.dataset, format!("v{VERSIONS}"));
    let prev = StoredModel::load(dir.join("race.model.prev")).expect("prev intact");
    assert!(prev.meta.dataset.starts_with('v'));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_schedule_is_deterministic_across_runs() {
    let plan = FaultPlan::parse(PLAN).expect("plan parses");
    let lens = vec![144usize; 100];
    assert_eq!(plan.schedule(&lens), plan.schedule(&lens));
    assert_eq!(
        plan.corruption_offset(4096),
        plan.corruption_offset(4096),
        "corruption lands on the same byte every run"
    );
}

/// Satellite of the online-adaptation PR: a real [`Adapter`] commits
/// repeated refit + hot-swap cycles through the crash-consistent store
/// while resilient readers hammer the same path. No reader may ever
/// see a torn, absent, or degraded model — the atomic-rename protocol
/// must hold under the adapter's swap cadence exactly as it does under
/// plain concurrent saves.
#[test]
fn chaos_adapter_swap_cycles_never_tear_resilient_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use etsc::adapt::{Adapter, AdapterConfig, LabeledExample};

    let data = hundred_sessions();
    let stored = Arc::new(stored_model(&data));
    let dir = std::env::temp_dir().join("etsc-chaos-adapt-swap");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("adaptive.model");
    stored.save(&path).expect("initial save");

    let adapter = Adapter::new(
        Arc::clone(&stored),
        Some(path.clone()),
        AdapterConfig {
            min_refit_examples: 8,
            ..AdapterConfig::default()
        },
    );
    // Refit training data: real labeled series, seeded once — every
    // cycle retrains on the same sample and swaps the result in.
    adapter.seed_reservoir((0..24).map(|i| {
        let inst = data.instance(i);
        LabeledExample {
            rows: (0..inst.vars())
                .map(|v| (0..inst.len()).map(|t| inst.at(v, t)).collect())
                .collect(),
            class: data.class_names()[data.label(i)].clone(),
        }
    }));

    const SWAPS: u64 = 40;
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let adapter = adapter.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..SWAPS {
                adapter.request_refit();
                adapter.poll().expect("refit trains and swap saves");
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let path = path.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let deadline = std::time::Instant::now() + Duration::from_secs(120);
                loop {
                    assert!(std::time::Instant::now() < deadline, "swapper stalled");
                    let outcome = etsc::serve::load_resilient(&path)
                        .expect("resilient load never errors mid-swap");
                    assert!(
                        outcome.warnings.is_empty(),
                        "no degraded recovery under adapter swaps: {:?}",
                        outcome.warnings
                    );
                    assert!(!outcome.recovered_from_prev, "primary always present");
                    let gen = outcome.model.meta.generation;
                    assert!(
                        (1..=1 + SWAPS).contains(&gen),
                        "impossible generation {gen}"
                    );
                    reads += 1;
                    if done.load(Ordering::SeqCst) {
                        return reads;
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer survives");
    let total: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader survives"))
        .sum();
    assert!(
        total >= 4,
        "readers actually raced the swapper ({total} reads)"
    );

    // Every cycle refitted and swapped; the store's primary holds the
    // final generation and the `.prev` last-good copy is loadable.
    let a = adapter.stats();
    assert_eq!(a.refits, SWAPS);
    assert_eq!(a.swaps, SWAPS);
    assert_eq!(a.generation, 1 + SWAPS);
    let last = etsc::serve::load_resilient(&path).expect("final load");
    assert_eq!(last.model.meta.generation, 1 + SWAPS);
    let prev = StoredModel::load(dir.join("adaptive.model.prev")).expect("prev intact");
    assert_eq!(prev.meta.generation, SWAPS);
    std::fs::remove_dir_all(&dir).ok();
}
