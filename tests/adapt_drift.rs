//! End-to-end online adaptation under concept drift (the `etsc-adapt`
//! acceptance scenario).
//!
//! 100 loopback sessions replay a seeded step-drift stream — label
//! semantics flip halfway — through a real TCP server whose feedback
//! sink is an [`Adapter`] wired to hot-swap refits into the live
//! server. The invariants:
//!
//! * **drift is detected** — the post-change error burst trips the DDM
//!   monitor on the feedback stream;
//! * **refit + atomic hot-swap** — the adapter retrains on its
//!   reservoir and the server serves the new generation without
//!   dropping a session;
//! * **rollback works** — a seeded degraded refit
//!   ([`Adapter::sabotage_next_refit`]) is caught by post-swap
//!   probation and rolled back to the last good generation;
//! * **everything is attributable** — every drift, swap, and rollback
//!   shows up in the shared trace and metrics registry.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc::adapt::{Adapter, AdapterConfig, DetectorKind};
use etsc::datasets::{drift_stream, DriftKind, DriftOptions, GenOptions, PaperDataset};
use etsc::eval::experiment::{AlgoSpec, RunConfig};
use etsc::net::{run_loadgen, ClientBuilder, Endpoint, LoadgenOptions, ServerBuilder};
use etsc::obs::{Obs, SpanRecord, TraceRecord};
use etsc::serve::fit_model;

const SESSIONS: usize = 100;

/// Spins until `done` holds or the budget expires.
fn wait_until(what: &str, adapter: &Adapter, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; adapter stats: {:?}",
            adapter.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn adaptation_under_step_drift_survives_sabotage_and_attributes_everything() {
    let obs = Obs::enabled();
    let stream = drift_stream(
        PaperDataset::PowerCons,
        &DriftOptions {
            kind: DriftKind::Step { at: 0.5 },
            n: SESSIONS,
            rotate: 1,
            gen: GenOptions {
                height_scale: 0.1,
                length_scale: 0.2,
                seed: 13,
            },
        },
    );
    // Train the initial model on the pre-drift head only, so the label
    // flip at the midpoint genuinely invalidates it.
    let head: Vec<usize> = (0..30).collect();
    let train = stream.subset(&head);
    let stored =
        Arc::new(fit_model(AlgoSpec::Ects, &train, &RunConfig::fast()).expect("ECTS fits"));

    let dir = std::env::temp_dir().join(format!("etsc-adapt-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp store dir");
    let adapter = Adapter::new(
        Arc::clone(&stored),
        Some(dir.join("adaptive.model")),
        AdapterConfig {
            detector: DetectorKind::Ddm,
            // Tight recency-biased reservoir: by refit time the
            // post-drift concept dominates the sample, so the refit
            // genuinely learns the flipped labels instead of averaging
            // both concepts into a coin flip.
            reservoir_cap: 24,
            min_refit_examples: 16,
            rollback_window: 12,
            obs: obs.clone(),
            ..AdapterConfig::default()
        },
    );
    let server = Arc::new(
        Endpoint::serve(
            Arc::clone(&stored),
            "127.0.0.1:0",
            ServerBuilder::new()
                .feedback(Arc::new(adapter.clone()))
                .obs(obs.clone()),
        )
        .expect("bind loopback server"),
    );
    {
        let server = Arc::clone(&server);
        adapter.set_swap_hook(move |model| {
            server.reload(model).expect("hot-swap reload");
        });
    }
    let addr = server.local_addr().to_string();

    // One connection keeps the feedback stream in session order — the
    // stream's time axis — so the detector's warm-up sees the clean
    // pre-drift regime. [`Adapter::poll`] (the maintenance tick a
    // deployment would run from a poller thread) is called explicitly
    // between waves to keep the scenario deterministic.
    let opts = LoadgenOptions {
        connections: 1,
        sessions: SESSIONS,
        rate: 0.0,
        faults: None,
        client: ClientBuilder::new(),
        wait_timeout: Duration::from_secs(60),
        open_ahead: 0,
        feedback: true,
        send_shutdown: false,
        // One row per frame: feedback grading below counts on strict
        // session-order arrival, which batching would not change, but
        // the drift replay predates rev 2 and is pinned as-is.
        batch: 1,
    };

    // Wave 1: the full stream, label feedback after every decision.
    // The step drift at session 50 must be detected on the feedback
    // stream alone — no refits have run yet.
    let wave1 = run_loadgen(&addr, &stream, &opts);
    assert!(
        wave1.clean(),
        "wave 1 dropped {} sessions, errors: {:?}",
        wave1.dropped,
        wave1.errors
    );
    assert_eq!(wave1.feedback_sent as usize, wave1.decided);
    wait_until("wave 1 feedback to be graded", &adapter, || {
        adapter.stats().feedbacks >= wave1.feedback_sent
    });
    assert!(
        adapter.stats().drifts >= 1,
        "the step drift was not detected on the feedback stream"
    );

    // First maintenance tick: the pending drift refits on the
    // recency-biased reservoir (post-drift concept by now) and
    // hot-swaps into the live server.
    adapter.poll().expect("drift refit trains and swaps");
    assert!(
        adapter.stats().swaps >= 1,
        "no hot-swap after the drift refit"
    );

    // Wave 2: part of the post-drift tail against the adapted model.
    // These live feedbacks settle the drift swap's probation and leave
    // a healthy accuracy baseline in the rolling window.
    let tail: Vec<usize> = (SESSIONS / 2..SESSIONS).collect();
    let tail_data = stream.subset(&tail);
    let wave2 = run_loadgen(
        &addr,
        &tail_data.subset(&(0..20).collect::<Vec<_>>()),
        &LoadgenOptions {
            sessions: 20,
            ..opts.clone()
        },
    );
    assert!(
        wave2.clean(),
        "wave 2 dropped {} sessions, errors: {:?}",
        wave2.dropped,
        wave2.errors
    );
    wait_until("wave 2 feedback to be graded", &adapter, || {
        adapter.stats().feedbacks >= wave1.feedback_sent + wave2.feedback_sent
    });
    adapter.poll().expect("the drift swap's probation settles");
    assert_eq!(adapter.stats().rollbacks, 0, "a good refit was rolled back");

    // The rollback drill: force a refit whose training labels are
    // deterministically rotated — on this two-class stream, the swapped
    // model is close to the good one inverted.
    adapter.sabotage_next_refit();
    adapter.request_refit();
    adapter.poll().expect("sabotaged refit trains and swaps");
    assert!(
        adapter.stats().swaps >= 2,
        "the sabotaged refit did not hot-swap"
    );

    // Wave 3: the rest of the tail judges the degraded generation —
    // post-swap probation must catch the regression and roll back.
    let wave3 = run_loadgen(
        &addr,
        &tail_data.subset(&(20..tail.len()).collect::<Vec<_>>()),
        &LoadgenOptions {
            sessions: tail.len() - 20,
            ..opts
        },
    );
    assert!(
        wave3.clean(),
        "wave 3 dropped {} sessions, errors: {:?}",
        wave3.dropped,
        wave3.errors
    );
    let fed = wave1.feedback_sent + wave2.feedback_sent + wave3.feedback_sent;
    wait_until("wave 3 feedback to be graded", &adapter, || {
        adapter.stats().feedbacks >= fed
    });
    adapter.poll().expect("probation settles into a rollback");
    assert!(
        adapter.stats().rollbacks >= 1,
        "the sabotaged swap was not rolled back; stats: {:?}",
        adapter.stats()
    );

    // Tear down: release the swap hook's server handle, drain, join.
    adapter.set_swap_hook(|_| {});
    let mut closer = Endpoint::connect(&addr, ClientBuilder::new()).expect("drain connection");
    closer.shutdown_server().expect("drain request");
    closer
        .wait_drain(Duration::from_secs(10))
        .expect("drain ack");
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server handle still shared"));
    let stats = server.join();

    // No session was lost anywhere, and every feedback was graded.
    assert_eq!(stats.open_sessions(), 0, "sessions leaked server-side");
    assert_eq!(stats.feedback_received, fed);

    // The adaptation story: drift seen, refits committed, the
    // sabotaged one rolled back, generation strictly advancing.
    let a = adapter.stats();
    assert!(a.drifts >= 1, "the step drift was never detected");
    assert!(
        a.refits >= 2,
        "expected a drift refit and the sabotaged refit"
    );
    assert!(
        a.swaps >= 3,
        "expected the drift swap, the sabotaged swap, and the rollback swap"
    );
    assert!(
        a.rollbacks >= 1,
        "the sabotaged refit was never rolled back"
    );
    assert_eq!(
        a.generation,
        1 + a.swaps,
        "every swap (rollbacks included) must bump the generation"
    );
    assert_eq!(a.feedbacks, fed);

    // Attribution: every drift, swap, and rollback appears in the
    // trace, and the refit spans carry the sabotage marker. The raw
    // record buffer is inspected directly — the server's drain span can
    // outlive its parent by the join race, which strict tree building
    // rejects.
    let records = obs.tracer.records();
    let events = |name: &str| -> u64 {
        records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Event(e) if e.name == name))
            .count() as u64
    };
    assert!(events("adapt.drift") >= 1);
    assert_eq!(events("adapt.swap"), a.swaps);
    assert_eq!(events("adapt.rollback"), a.rollbacks);
    assert_eq!(events("net.model.swap"), a.swaps);
    assert_eq!(events("net.session.feedback"), fed);
    let refits: Vec<&SpanRecord> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) if s.name == "adapt.refit" => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(refits.len() as u64, a.refits + a.refit_failures);
    assert!(
        refits
            .iter()
            .any(|s| s.attrs.iter().any(|(k, v)| k == "sabotaged" && v == "true")),
        "the sabotaged refit span is not marked"
    );

    // And in the metrics registry.
    let counters = obs.metrics.snapshot_counters();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("adapt_feedback_total"), fed);
    assert_eq!(counter("net_feedback_total"), fed);
    assert_eq!(counter("adapt_drift_total"), a.drifts);
    assert_eq!(counter("adapt_refit_total"), a.refits);
    assert_eq!(counter("adapt_swap_total"), a.swaps);
    assert_eq!(counter("adapt_rollback_total"), a.rollbacks);
    assert_eq!(counter("net_model_swaps_total"), a.swaps);

    let _ = std::fs::remove_dir_all(&dir);
}
