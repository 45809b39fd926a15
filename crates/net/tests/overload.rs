//! Overload chaos: drive a server far past its evaluation capacity and
//! assert exact accounting and no collapse.
//!
//! Capacity is made analytically known with a seeded fault plan: every
//! session's first evaluation sleeps a fixed delay, so one connection's
//! handler can clear at most `1000 / delay_ms` sessions per second. The
//! overload run then keeps several sessions in flight per connection —
//! a multiple of the service depth the handler actually has. Lossless
//! backpressure must queue the excess without losing a session or
//! letting goodput fall; the remaining overload rules — session
//! deadlines that force a decision on the observed prefix, propagated
//! deadlines that discard dead work, and retryable static-cap refusals
//! that client budgets absorb — have a test each.

use std::sync::Arc;
use std::time::Duration;

use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_eval::faults::FaultPlan;
use etsc_net::{run_loadgen, ClientBuilder, DecisionKind, Endpoint, LoadgenOptions, ServerBuilder};
use etsc_obs::Obs;
use etsc_serve::{fit_model, StoredModel};

fn synthetic() -> Dataset {
    let mut b = DatasetBuilder::new("overload");
    for i in 0..12 {
        let (class, base) = if i % 2 == 0 {
            ("up", 1.0)
        } else {
            ("down", -1.0)
        };
        let values: Vec<f64> = (0..20)
            .map(|t| base * (t as f64 + i as f64 * 0.1))
            .collect();
        b.push_named(MultiSeries::univariate(Series::new(values)), class);
    }
    b.build().unwrap()
}

fn model(data: &Dataset) -> Arc<StoredModel> {
    Arc::new(fit_model(AlgoSpec::Ects, data, &RunConfig::fast()).unwrap())
}

/// Every session's first evaluation sleeps `delay_ms` — the knob that
/// pins the server's session-clearing capacity.
fn delay_plan(delay_ms: u64) -> FaultPlan {
    FaultPlan {
        seed: 11,
        delay_rate: 1.0,
        delay: Duration::from_millis(delay_ms),
        ..FaultPlan::default()
    }
}

#[test]
fn overload_5x_loses_nothing_and_keeps_goodput() {
    const DELAY_MS: u64 = 10;
    let data = synthetic();
    let model = model(&data);

    // Calibration: closed-loop depth 1 per connection — offered load
    // equals capacity, nothing queues, nothing should shed. This is
    // the goodput yardstick, measured on this very machine.
    let base_sessions = 120;
    let base_server = Endpoint::serve(
        Arc::clone(&model),
        "127.0.0.1:0",
        ServerBuilder::new().faults(delay_plan(DELAY_MS), base_sessions),
    )
    .unwrap();
    let base = run_loadgen(
        &base_server.local_addr().to_string(),
        &data,
        &LoadgenOptions {
            connections: 4,
            sessions: base_sessions,
            open_ahead: 1,
            wait_timeout: Duration::from_secs(60),
            send_shutdown: true,
            ..LoadgenOptions::default()
        },
    );
    base_server.join();
    assert!(base.clean(), "calibration run dirty: {:?}", base.errors);
    assert_eq!(base.decided, base_sessions, "calibration run shed work");
    let base_goodput = base.decisions_per_sec();
    assert!(base_goodput > 0.0);

    // Overload: five sessions in flight per connection against a
    // service depth of one — 5x capacity, sustained. Retries are
    // disabled so any refusal becomes a visible, counted session
    // outcome instead of eventually squeezing through.
    let obs = Obs::enabled();
    let over_sessions = 300;
    let over_server = Endpoint::serve(
        Arc::clone(&model),
        "127.0.0.1:0",
        ServerBuilder::new()
            .faults(delay_plan(DELAY_MS), over_sessions)
            .obs(obs.clone()),
    )
    .unwrap();
    let over = run_loadgen(
        &over_server.local_addr().to_string(),
        &data,
        &LoadgenOptions {
            connections: 4,
            sessions: over_sessions,
            open_ahead: 5,
            wait_timeout: Duration::from_secs(60),
            client: ClientBuilder::new().retry_budgets(0, 3),
            send_shutdown: true,
            ..LoadgenOptions::default()
        },
    );
    let stats = over_server.join();

    // Every session is accounted for: each opened session has exactly
    // one fate, and under pure overload that fate is a decision — the
    // excess waits in lossless backpressure, it is neither refused nor
    // failed nor dropped.
    assert!(
        over.accounted(),
        "fates {} + {} + {} + {} != sessions {}",
        over.decided,
        over.failed,
        over.disconnected,
        over.dropped,
        over.sessions
    );
    assert_eq!(over.dropped, 0, "sessions vanished: {:?}", over.errors);
    assert_eq!(
        over.failed, 0,
        "sessions failed under overload ({} shed, {} expired)",
        over.shed, over.expired
    );
    assert!(over.errors.is_empty(), "{:?}", over.errors);
    assert_eq!(stats.open_sessions(), 0, "session leak: {stats:?}");

    // No collapse: goodput under 5x offered load stays within 20% of
    // the calibrated capacity (falling far below means queues,
    // retries, or head-of-line blocking ate the machine).
    let goodput = over.decisions_per_sec();
    assert!(
        goodput >= 0.8 * base_goodput,
        "goodput collapsed under overload: {goodput:.1}/s vs calibrated {base_goodput:.1}/s"
    );

    // The queueing telemetry is exported through etsc-obs.
    let prom = obs.metrics.render_prometheus();
    assert!(prom.contains("net_frame_sojourn_seconds"), "{prom}");
}

#[test]
fn propagated_deadline_forces_a_decision_under_a_looser_server_deadline() {
    // The server arms a 1s deadline and the client propagates 5ms at
    // open: the tighter one governs. The seeded 30ms evaluation at step
    // 1 breaches it, so the session is answered at once with a decision
    // forced on the one row observed, whatever rows follow.
    let data = synthetic();
    let model = model(&data);
    let server = Endpoint::serve(
        Arc::clone(&model),
        "127.0.0.1:0",
        ServerBuilder::new()
            .deadline(Duration::from_secs(1))
            .faults(delay_plan(30), 1),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Endpoint::connect(&addr, ClientBuilder::new().deadline_ms(5)).unwrap();
    let inst = data.instance(0);
    let id = client.open_session(inst.len()).unwrap();
    for t in 0..inst.len() {
        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
        client.observe(id, &row).unwrap();
    }
    let d = client.wait_decision(id, Duration::from_secs(20)).unwrap();
    assert_eq!(
        (d.kind, d.prefix_len),
        (DecisionKind::DeadlineForced, 1),
        "{d:?}"
    );
    drop(client);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, 1, "{stats:?}");
    assert_eq!(stats.open_sessions(), 0, "session leak: {stats:?}");
}

#[test]
fn expired_deadlines_skip_dead_work() {
    // Two clients against a server whose first evaluation per session
    // sleeps 30ms, both propagating a 5ms per-row budget. The deadline
    // is measured from when a frame's bytes land: the paced client
    // (whose rows always arrive after the slow evaluation finished)
    // must decide, while the flooding client (whose rows queue behind
    // its own slow evaluation) must be refused with `Expired` instead
    // of getting a stale answer computed.
    let data = synthetic();
    let model = model(&data);
    let obs = Obs::enabled();
    let server = Endpoint::serve(
        Arc::clone(&model),
        "127.0.0.1:0",
        ServerBuilder::new()
            .faults(delay_plan(30), 2)
            .obs(obs.clone()),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let config = ClientBuilder::new().observe_deadline_ms(5);
    let inst = data.instance(0);
    let row = |t: usize| -> Vec<f64> { (0..inst.vars()).map(|v| inst.at(v, t)).collect() };

    // Paced: wait out the slow step-1 evaluation before sending more,
    // so every frame is handled fresh and the budget never lapses.
    let mut paced = Endpoint::connect(&addr, config.clone()).unwrap();
    let paced_id = paced.open_session(inst.len()).unwrap();
    paced.observe(paced_id, &row(0)).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    for t in 1..inst.len() {
        paced.observe(paced_id, &row(t)).unwrap();
        if paced.poll().is_ok() && paced.outcome(paced_id).is_some() {
            break;
        }
    }
    let decision = paced.wait_decision(paced_id, Duration::from_secs(20));
    assert!(
        decision.is_ok(),
        "fresh frames must not expire: {decision:?}"
    );

    // Flooding: every row lands at once, so rows behind the 30ms
    // evaluation are already dead when their turn comes.
    let mut flood = Endpoint::connect(&addr, config).unwrap();
    let flood_id = flood.open_session(inst.len()).unwrap();
    for t in 0..inst.len() {
        flood.observe(flood_id, &row(t)).unwrap();
    }
    match flood.wait_decision(flood_id, Duration::from_secs(20)) {
        Err(etsc_net::NetError::SessionFailed { message, .. }) => {
            // The outcome prefix is what the load generator's expired
            // classification keys on.
            assert!(message.starts_with("[expired]"), "{message}");
        }
        other => panic!("queued-dead rows were still answered: {other:?}"),
    }

    drop(paced);
    drop(flood);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, 1, "{stats:?}");
    assert_eq!(stats.observations_expired, 1, "{stats:?}");
    assert_eq!(stats.open_sessions(), 0, "session leak: {stats:?}");
    let counters = obs.metrics.snapshot_counters();
    assert_eq!(
        counters
            .get("net_observations_expired_total")
            .copied()
            .unwrap_or(0),
        stats.observations_expired
    );
}

#[test]
fn retry_budget_absorbs_session_limit_refusals() {
    // A server holding one open session per connection refuses the
    // second of two back-to-back opens with a retryable `SessionLimit`.
    // A client with budget left must absorb the refusal — sleep the
    // hinted pause, re-open under a fresh id once the first session
    // decided, replay the rows it already sent — and land both
    // decisions.
    let data = synthetic();
    let model = model(&data);
    let server = Endpoint::serve(
        Arc::clone(&model),
        "127.0.0.1:0",
        ServerBuilder::new().max_sessions_per_conn(1),
    )
    .unwrap();
    let mut client = Endpoint::connect(
        &server.local_addr().to_string(),
        ClientBuilder::new().retry_budgets(8, 3),
    )
    .unwrap();
    let row = |inst: &MultiSeries, t: usize| -> Vec<f64> {
        (0..inst.vars()).map(|v| inst.at(v, t)).collect()
    };
    let (a, b) = (data.instance(0), data.instance(1));
    let id_a = client.open_session(a.len()).unwrap();
    let id_b = client.open_session(b.len()).unwrap();
    for t in 0..a.len() {
        client.observe(id_a, &row(a, t)).unwrap();
    }
    for t in 0..b.len() {
        client.observe(id_b, &row(b, t)).unwrap();
    }
    let decided_a = client.wait_decision(id_a, Duration::from_secs(20));
    let decided_b = client.wait_decision(id_b, Duration::from_secs(20));
    assert!(decided_a.is_ok(), "first session: {decided_a:?}");
    assert!(
        decided_b.is_ok(),
        "retry budget failed to absorb the session limit: {decided_b:?}"
    );
    assert!(
        client.stats().session_retries >= 1,
        "no retry was ever needed — the session limit never refused: {:?}",
        client.stats()
    );
    drop(client);
    let stats = server.join();
    assert_eq!(stats.open_sessions(), 0, "session leak: {stats:?}");
}
