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

/// The next frame on a raw connection, within five seconds.
fn next_raw_frame(
    raw: &mut std::net::TcpStream,
    dec: &mut etsc_net::FrameDecoder,
) -> etsc_net::Frame {
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    loop {
        if let Some(frame) = dec.next_frame().unwrap() {
            return frame;
        }
        match dec.read_from(raw) {
            Ok(0) => panic!("connection closed while a frame was due"),
            Ok(_) => {}
            Err(e) => panic!("read failed (5 s timeout): {e}"),
        }
    }
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
    use etsc_net::{encode_frame, Frame, FrameDecoder, MAX_FRAME_BYTES};
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
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    match next_raw_frame(&mut raw, &mut dec) {
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

#[test]
fn client_forgets_answers_older_than_its_memory() {
    let (server, data) = serve_synthetic(ServerBuilder::new());
    let addr = server.local_addr().to_string();
    let model = fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap();
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let total = etsc_net::ANSWER_MEMORY + 1;
    let rows = |i: usize| -> Vec<Vec<f64>> {
        let inst = data.instance(i % data.len());
        (0..inst.len())
            .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
            .collect()
    };
    // Sessions in waves of 256, each answered before the next wave
    // opens: one connection answers them in the order they were sent.
    let mut ids = Vec::with_capacity(total);
    for wave in (0..total).collect::<Vec<_>>().chunks(256) {
        let first = ids.len();
        for &i in wave {
            let id = client
                .open_session(data.instance(i % data.len()).len())
                .unwrap();
            client.observe_batch(id, &rows(i)).unwrap();
            ids.push(id);
        }
        for &id in &ids[first..] {
            client.wait_decision(id, Duration::from_secs(20)).unwrap();
        }
    }
    // The oldest answer went when the newest arrived: it reads like an
    // id this client never opened.
    assert!(client.outcome(ids[0]).is_none());
    match client.wait_decision(ids[0], Duration::from_secs(1)) {
        Err(NetError::Closed(_)) => {}
        other => panic!("expected the first answer to be forgotten, got {other:?}"),
    }
    // The newest ANSWER_MEMORY answers all still read back.
    assert!(client.outcome(ids[1]).is_some());
    let newest = total - 1;
    let offline = model
        .classifier()
        .predict_early(data.instance(newest % data.len()))
        .unwrap();
    match client.outcome(ids[newest]) {
        Some(Ok(d)) => assert_eq!((d.label, d.prefix_len), (offline.label, offline.prefix_len)),
        other => panic!("newest answer missing: {other:?}"),
    }
    drop(client);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, total as u64);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
}

#[test]
fn server_refuses_late_frames_older_than_its_record() {
    use etsc_net::{
        encode_frame, Frame, FrameDecoder, MAX_FRAME_BYTES, PRIORITY_NORMAL, PROTO_MINOR,
        PROTO_VERSION,
    };
    use std::io::Write;

    // One open session per connection, so the record of finished
    // sessions holds one id too.
    let (server, data) = serve_synthetic(ServerBuilder::new().max_sessions_per_conn(1));
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    let send = |raw: &mut std::net::TcpStream, frame: Frame| {
        raw.write_all(&encode_frame(&frame, MAX_FRAME_BYTES).unwrap())
            .unwrap();
    };
    send(
        &mut raw,
        Frame::Hello {
            version: PROTO_VERSION,
            minor: PROTO_MINOR,
            agent: "raw".to_string(),
            meta: None,
        },
    );
    assert!(matches!(
        next_raw_frame(&mut raw, &mut dec),
        Frame::Hello { .. }
    ));
    // Sessions 1 and 2 decide one after the other; the whole series
    // goes in one batch, so rows past each decision are late already.
    for id in [1u64, 2] {
        let inst = data.instance(id as usize);
        send(
            &mut raw,
            Frame::OpenSession {
                id,
                vars: inst.vars(),
                expected_len: inst.len(),
                resume: false,
                deadline_ms: 0,
                priority: PRIORITY_NORMAL,
            },
        );
        send(
            &mut raw,
            Frame::ObserveBatch {
                session: id,
                start_step: 1,
                rows: (0..inst.len())
                    .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
                    .collect(),
                deadline_ms: 0,
            },
        );
        match next_raw_frame(&mut raw, &mut dec) {
            Frame::Decision { session, .. } => assert_eq!(session, id),
            other => panic!("expected session {id}'s decision, got {other:?}"),
        }
    }
    // A late row for session 2, decided last, is ignored; one for
    // session 1, evicted from the record by session 2, is refused. The
    // refusal is the first frame back, so session 2's row drew none.
    for session in [2u64, 1] {
        send(
            &mut raw,
            Frame::Observe {
                session,
                step: 99,
                row: vec![0.0],
                deadline_ms: 0,
            },
        );
    }
    match next_raw_frame(&mut raw, &mut dec) {
        Frame::Error { code, session, .. } => {
            assert_eq!((code, session), (ErrorCode::UnknownSession, Some(1)));
        }
        other => panic!("expected UnknownSession for session 1, got {other:?}"),
    }
    drop(raw);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, 2);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
}
