//! Router integration tests: real sockets, real shards, one process.
//!
//! Each test stands up genuine `NetServer` shards behind a `Router`
//! and drives them with the real `Client` — placement, breaker
//! trips and recoveries, planned drains, and blue/green swaps are all
//! observed through the wire, not unit-level calls.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_net::{Client, ClientBuilder, Endpoint, NetServer, RouterBuilder, ServerBuilder};
use etsc_serve::{fit_model, StoredModel};

fn synthetic() -> Dataset {
    let mut b = DatasetBuilder::new("synthetic");
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

fn shard(model: &Arc<StoredModel>) -> NetServer {
    Endpoint::serve(Arc::clone(model), "127.0.0.1:0", ServerBuilder::new()).unwrap()
}

/// A router with a test-speed probe cadence.
fn fast_router() -> RouterBuilder {
    RouterBuilder::new().probes(Duration::from_millis(25), Duration::from_millis(250))
}

fn stream_instance(client: &mut Client, data: &Dataset, i: usize) -> etsc_net::Decision {
    let inst = data.instance(i % data.len());
    let id = client.open_session(inst.len()).unwrap();
    for t in 0..inst.len() {
        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
        client.observe(id, &row).unwrap();
        if client.outcome(id).is_some() {
            break;
        }
        client.poll().unwrap();
    }
    client.wait_decision(id, Duration::from_secs(20)).unwrap()
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sessions routed through two shards decide exactly as the offline
/// model does, the handshake metadata passes through, and both the
/// router and every shard account for every session.
#[test]
fn router_places_sessions_and_decisions_match_offline() {
    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let shards = [shard(&model), shard(&model)];
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Endpoint::route("127.0.0.1:0", &addrs, fast_router()).unwrap();

    let mut client =
        Endpoint::connect(&router.local_addr().to_string(), ClientBuilder::new()).unwrap();
    assert_eq!(client.meta().algo, "ECTS", "shard handshake passes through");
    assert_eq!(client.meta().vars, 1);
    let n = 24;
    for i in 0..n {
        let offline = model
            .classifier()
            .predict_early(data.instance(i % data.len()))
            .unwrap();
        let d = stream_instance(&mut client, &data, i);
        assert_eq!(d.label, offline.label, "session {i}");
        assert_eq!(d.prefix_len, offline.prefix_len, "session {i}");
    }
    drop(client);

    let snaps = router.shard_snapshots();
    assert!(
        snaps.iter().all(|s| s.placed > 0),
        "both shards share the load: {snaps:?}"
    );
    assert_eq!(snaps.iter().map(|s| s.placed).sum::<u64>(), n as u64);
    let stats = router.join();
    assert_eq!(stats.sessions_opened, n as u64);
    assert_eq!(stats.sessions_decided, n as u64);
    assert_eq!(stats.open_sessions(), 0, "router leaked: {stats:?}");
    assert_eq!(stats.sessions_migrated, 0);
    let mut decided = 0;
    for s in shards {
        let st = s.join();
        assert_eq!(st.open_sessions(), 0, "shard leaked: {st:?}");
        decided += st.sessions_decided;
    }
    assert_eq!(decided, n as u64, "every decision came from a shard");
}

/// A shard that was never listening trips its breaker through failed
/// probes, traffic routes around it, and when a server finally binds
/// the address the half-open probe closes the breaker again.
#[test]
fn breaker_trips_on_dead_shard_and_recovers_when_it_returns() {
    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let live = shard(&model);
    // Reserve a port, then close the listener: the address is real but
    // dead until the revived server binds it below.
    let reserved = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = reserved.local_addr().unwrap().to_string();
    drop(reserved);

    let addrs = vec![live.local_addr().to_string(), dead_addr.clone()];
    let router = Endpoint::route("127.0.0.1:0", &addrs, fast_router()).unwrap();
    wait_until(
        "dead shard's breaker to open",
        Duration::from_secs(10),
        || router.shard_snapshots()[1].circuit == "open",
    );

    // Every session lands on the live shard while the breaker is open.
    let mut client =
        Endpoint::connect(&router.local_addr().to_string(), ClientBuilder::new()).unwrap();
    for i in 0..8 {
        stream_instance(&mut client, &data, i);
    }
    let snaps = router.shard_snapshots();
    assert_eq!(
        snaps[0].placed, 8,
        "all traffic on the live shard: {snaps:?}"
    );
    assert_eq!(snaps[1].placed, 0, "nothing placed on the dead shard");

    // Revive the shard on the dead address: a half-open probe succeeds
    // and the breaker closes.
    let revived = Endpoint::serve(Arc::clone(&model), &dead_addr, ServerBuilder::new())
        .expect("rebind the reserved port");
    wait_until(
        "revived shard's breaker to close",
        Duration::from_secs(10),
        || router.shard_snapshots()[1].circuit == "closed",
    );
    drop(client);
    let stats = router.join();
    assert!(stats.shard_failures >= 1, "{stats:?}");
    assert!(stats.shard_recoveries >= 1, "{stats:?}");
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
    revived.shutdown();
    revived.join();
    live.shutdown();
    live.join();
}

/// A shard draining gracefully announces `Shutdown` on the wire; the
/// router treats that as planned — its in-flight sessions are answered
/// by drain verdicts, and the breaker takes no penalty.
#[test]
fn planned_drain_answers_sessions_and_skips_the_breaker_penalty() {
    use etsc_obs::{Obs, TraceRecord};

    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let shards = [shard(&model), shard(&model)];
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let obs = Obs::enabled();
    // Slow probes: this test's drains race the probe cadence (a
    // shard's listener closes before its announcement is processed),
    // and probe-vs-drain attribution is not what it pins down.
    let router = Endpoint::route(
        "127.0.0.1:0",
        &addrs,
        RouterBuilder::new()
            .probes(Duration::from_secs(5), Duration::from_millis(250))
            .obs(obs.clone()),
    )
    .unwrap();

    // Open sessions with a single observed row each, so both shards
    // hold undecided residents.
    let mut client =
        Endpoint::connect(&router.local_addr().to_string(), ClientBuilder::new()).unwrap();
    let n = 12;
    let mut ids = Vec::new();
    for i in 0..n {
        let inst = data.instance(i % data.len());
        let id = client.open_session(inst.len()).unwrap();
        let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, 0)).collect();
        client.observe(id, &row).unwrap();
        ids.push(id);
    }
    // Wait for the *shards* to have opened every session (router-side
    // placement alone could leave an OpenSession in flight, which a
    // drain would then have to migrate — not what this test pins).
    wait_until(
        "every session to open on a shard",
        Duration::from_secs(10),
        || {
            client.poll().unwrap();
            shards
                .iter()
                .map(|s| s.stats().sessions_opened)
                .sum::<u64>()
                == n as u64
        },
    );

    // Drain shard 0 gracefully: its resident sessions still get an
    // answer (a drain verdict), relayed through the router, and the
    // `Shutdown` announcement is recorded as planned.
    shards[0].shutdown();
    wait_until(
        "the planned drain to be recorded",
        Duration::from_secs(10),
        || {
            client.poll().unwrap();
            router.stats().planned_drains >= 1
        },
    );
    // Then drain the other shard so every remaining session answers.
    shards[1].shutdown();
    for id in ids {
        client
            .wait_decision(id, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("session {id} lost in drain: {e}"));
    }
    drop(client);
    let stats = router.join();
    assert_eq!(stats.sessions_decided, n as u64, "{stats:?}");
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
    assert_eq!(stats.sessions_migrated, 0, "drained shard answered its own");
    assert_eq!(
        stats.planned_drains, 2,
        "one announcement per shard: {stats:?}"
    );
    // No penalty: a planned drain must never trip a breaker (a lone
    // dial bouncing off the closed listener while the announcement is
    // still in flight is tolerated; a trip is not).
    let trips = obs
        .tracer
        .records()
        .into_iter()
        .filter(|r| matches!(r, TraceRecord::Event(e) if e.name == "router.shard.trip"))
        .count();
    assert_eq!(
        trips, 0,
        "planned drains take no breaker penalty: {stats:?}"
    );
    for s in shards {
        let st = s.join();
        assert_eq!(st.open_sessions(), 0, "shard leaked: {st:?}");
    }
}

/// Blue/green: after a swap, new sessions land only on the new
/// generation, and the old generation is told to drain once idle.
#[test]
fn blue_green_swap_moves_traffic_and_retires_the_old_generation() {
    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let blue = [shard(&model), shard(&model)];
    let blue_addrs: Vec<String> = blue.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Endpoint::route("127.0.0.1:0", &blue_addrs, fast_router()).unwrap();
    assert_eq!(router.generation(), 1);

    let mut client =
        Endpoint::connect(&router.local_addr().to_string(), ClientBuilder::new()).unwrap();
    for i in 0..8 {
        stream_instance(&mut client, &data, i);
    }
    let blue_placed: u64 = router.shard_snapshots().iter().map(|s| s.placed).sum();
    assert_eq!(blue_placed, 8);

    // Swap in the green generation (e.g. serving the next model
    // version): new sessions go green, blue drains once idle.
    let green = [shard(&model), shard(&model)];
    let green_addrs: Vec<String> = green.iter().map(|s| s.local_addr().to_string()).collect();
    router.swap(&green_addrs);
    assert_eq!(router.generation(), 2);
    for i in 0..8 {
        stream_instance(&mut client, &data, i);
    }
    let snaps = router.shard_snapshots();
    assert_eq!(
        snaps.iter().map(|s| s.placed).sum::<u64>(),
        8,
        "post-swap sessions land on the green generation only: {snaps:?}"
    );
    wait_until(
        "the blue generation to retire",
        Duration::from_secs(10),
        || router.stats().shards_retired == 2,
    );
    drop(client);

    // The retire handshake told the blue servers to drain, so their
    // accept loops exit on their own.
    let mut blue_decided = 0;
    for s in blue {
        let st = s.join();
        assert_eq!(st.open_sessions(), 0, "blue shard leaked: {st:?}");
        blue_decided += st.sessions_decided;
    }
    assert_eq!(blue_decided, 8, "blue served all of generation 1");
    let stats = router.join();
    assert_eq!(stats.sessions_opened, 16);
    assert_eq!(stats.sessions_decided, 16);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
    for s in green {
        s.shutdown();
        let st = s.join();
        assert_eq!(st.open_sessions(), 0, "green shard leaked: {st:?}");
    }
}
