//! End-to-end loopback tests: real sockets, real threads, one process.

use std::sync::Arc;
use std::time::Duration;

use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_net::{
    Client, ClientBuilder, DecisionKind, Endpoint, ErrorCode, NetError, NetServer, ServerBuilder,
};
use etsc_serve::fit_model;

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

fn serve_synthetic(config: ServerBuilder) -> (NetServer, Dataset) {
    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let server = Endpoint::serve(model, "127.0.0.1:0", config).unwrap();
    (server, data)
}

fn stream_instance(client: &mut Client, data: &Dataset, i: usize) -> etsc_net::Decision {
    let inst = data.instance(i);
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

#[test]
fn loopback_decisions_match_offline_predictions() {
    let (server, data) = serve_synthetic(ServerBuilder::new());
    let addr = server.local_addr().to_string();
    let model = fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap();
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    assert_eq!(client.meta().algo, "ECTS");
    assert_eq!(client.meta().vars, 1);
    for i in 0..data.len() {
        let offline = model.classifier().predict_early(data.instance(i)).unwrap();
        let d = stream_instance(&mut client, &data, i);
        assert_eq!(d.label, offline.label, "instance {i}");
        assert_eq!(d.prefix_len, offline.prefix_len, "instance {i}");
        assert_eq!(d.kind, DecisionKind::Genuine);
    }
    drop(client);
    let stats = server.join();
    assert_eq!(stats.sessions_opened, data.len() as u64);
    assert_eq!(stats.sessions_decided, data.len() as u64);
    assert_eq!(stats.open_sessions(), 0, "no session leaks: {stats:?}");
    assert_eq!(stats.proto_errors, 0);
}

#[test]
fn torn_frame_reconnect_resumes_and_still_answers() {
    let (server, data) = serve_synthetic(ServerBuilder::new());
    let addr = server.local_addr().to_string();
    let model = fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap();
    let inst = data.instance(0);
    let offline = model.classifier().predict_early(inst).unwrap();
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let id = client.open_session(inst.len()).unwrap();
    let row = |t: usize| -> Vec<f64> { (0..inst.vars()).map(|v| inst.at(v, t)).collect() };
    // Tear the very first observation's frame: the session cannot have
    // decided yet, so the first connection's copy is abandoned and the
    // resumed one must produce the whole answer.
    client.inject_torn_frame(id, &row(0)).unwrap();
    assert_eq!(client.stats().torn_frames, 1);
    assert_eq!(client.stats().reconnects, 1);
    for t in 0..inst.len() {
        client.observe(id, &row(t)).unwrap();
        if client.poll().is_ok() && client.outcome(id).is_some() {
            break;
        }
    }
    let d = client.wait_decision(id, Duration::from_secs(20)).unwrap();
    assert_eq!(d.label, offline.label);
    assert_eq!(d.prefix_len, offline.prefix_len);
    drop(client);
    let stats = server.join();
    // The torn connection's session was abandoned; its resumed
    // incarnation decided. The torn frame itself kills the first
    // connection with a protocol error server-side.
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.sessions_abandoned, 1);
    assert_eq!(stats.sessions_decided, 1);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
}

#[test]
fn accept_cap_sheds_excess_connections() {
    let (server, _data) = serve_synthetic(ServerBuilder::new().max_connections(1));
    let addr = server.local_addr().to_string();
    let _first = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    // Give the accept loop a moment to register the first connection.
    std::thread::sleep(Duration::from_millis(50));
    // No redials on the retryable refusal: the shed count below is
    // exact.
    let second = Endpoint::connect(&addr, ClientBuilder::new().retry_budgets(3, 0));
    match second {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        Err(other) => panic!("expected overloaded shed, got {other:?}"),
        Ok(_) => panic!("expected overloaded shed, got a connection"),
    }
    let stats = server.join();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_shed, 1);
}

#[test]
fn graceful_drain_answers_in_flight_sessions() {
    let (server, data) = serve_synthetic(ServerBuilder::new());
    let addr = server.local_addr().to_string();
    let inst = data.instance(1);
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let id = client.open_session(inst.len()).unwrap();
    // No observations at all: nothing can trigger genuinely, so the
    // drain verdict is deterministic — the training prior at prefix 0.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let d = client.wait_decision(id, Duration::from_secs(20)).unwrap();
    assert_eq!(d.kind, DecisionKind::DrainPrior, "{d:?}");
    assert_eq!(d.prefix_len, 0);
    client.wait_drain(Duration::from_secs(10)).unwrap();
    assert!(client.is_draining());
    let stats = server.join();
    assert_eq!(stats.sessions_decided, 1);
    assert_eq!(stats.drain_decisions, 1);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
    // Draining servers refuse fresh connections outright: the listener
    // is closed, so the dial itself fails.
    assert!(Endpoint::connect(&addr, ClientBuilder::new()).is_err());
}

#[test]
fn version_mismatch_is_refused() {
    use etsc_net::{encode_frame, Frame, FrameDecoder, ProtoError, MAX_FRAME_BYTES};
    use std::io::{Read, Write};

    let (server, _data) = serve_synthetic(ServerBuilder::new());
    let addr = server.local_addr();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let hello = Frame::Hello {
        version: 999,
        minor: 0,
        agent: "time-traveller".to_string(),
        meta: None,
    };
    raw.write_all(&encode_frame(&hello, MAX_FRAME_BYTES).unwrap())
        .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    let reply = loop {
        if let Some(f) = dec.next_frame().unwrap() {
            break f;
        }
        match dec.read_from(&mut raw) {
            Ok(0) => panic!("connection closed without an error frame"),
            Ok(_) => {}
            Err(ProtoError::Io(e)) => panic!("read failed: {e}"),
            Err(e) => panic!("decode failed: {e}"),
        }
    };
    match reply {
        Frame::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("protocol"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    // The server hangs up after the refusal.
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest);
    let stats = server.join();
    assert_eq!(stats.proto_errors, 1);
}
