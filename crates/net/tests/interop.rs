//! Wire-revision interop. The server answers a rev-0/rev-1 client at
//! the client's revision — per-row `Decision` frames, never a batch —
//! while this crate's client and router need a rev-2 server and refuse
//! an older one at `Hello`. Rev-2 peers pipeline batch frames end to
//! end, with the decisions the offline model makes.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_net::{
    encode_frame, Client, ClientBuilder, Endpoint, Frame, FrameDecoder, ModelInfo, NetError,
    NetServer, ProtoError, RouterBuilder, ServerBuilder, BATCH_MINOR, MAX_FRAME_BYTES,
    PROTO_VERSION,
};
use etsc_obs::Obs;
use etsc_serve::fit_model;

fn synthetic() -> Dataset {
    let mut b = DatasetBuilder::new("interop");
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

/// The offline (label, prefix_len) of every instance.
fn offline(data: &Dataset) -> Vec<(usize, usize)> {
    let model = fit_model(AlgoSpec::Ects, data, &RunConfig::fast()).unwrap();
    (0..data.len())
        .map(|i| {
            let p = model.classifier().predict_early(data.instance(i)).unwrap();
            (p.label, p.prefix_len)
        })
        .collect()
}

fn serve(obs: &Obs) -> (NetServer, Dataset) {
    let data = synthetic();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let server =
        Endpoint::serve(model, "127.0.0.1:0", ServerBuilder::new().obs(obs.clone())).unwrap();
    (server, data)
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics
        .snapshot_counters()
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// The next frame off a raw socket (read timeout armed), failing the
/// test after 10 s.
fn next_frame(raw: &mut TcpStream, dec: &mut FrameDecoder) -> Frame {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(frame) = dec.next_frame().unwrap() {
            return frame;
        }
        assert!(Instant::now() < deadline, "timed out waiting for a frame");
        match dec.read_from(raw) {
            Ok(0) => panic!("peer hung up"),
            Ok(_) => {}
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("decode failed: {e}"),
        }
    }
}

fn hello(minor: u32, meta: Option<ModelInfo>) -> Vec<u8> {
    let frame = Frame::Hello {
        version: PROTO_VERSION,
        minor,
        agent: format!("rev{minor}-peer"),
        meta,
    };
    encode_frame(&frame, MAX_FRAME_BYTES).unwrap()
}

#[test]
fn rev1_client_gets_per_row_decisions_and_no_batch_frames() {
    let obs = Obs::enabled();
    let (server, data) = serve(&obs);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    raw.write_all(&hello(1, None)).unwrap();
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    match next_frame(&mut raw, &mut dec) {
        Frame::Hello { meta, .. } => assert!(meta.is_some(), "server hello carries the model"),
        other => panic!("expected hello, got {other:?}"),
    }
    // Every session's open and rows in one write: decisions for several
    // sessions land in one read, where a rev-2 connection would
    // coalesce them into a `DecisionBatch`.
    let mut burst = Vec::new();
    for i in 0..data.len() {
        let inst = data.instance(i);
        let id = i as u64 + 1;
        let open = Frame::open(id, inst.vars(), inst.len(), false);
        burst.extend(encode_frame(&open, MAX_FRAME_BYTES).unwrap());
        for t in 0..inst.len() {
            let row = Frame::observe(id, t as u64 + 1, vec![inst.at(0, t)]);
            burst.extend(encode_frame(&row, MAX_FRAME_BYTES).unwrap());
        }
    }
    raw.write_all(&burst).unwrap();
    let mut decided: HashMap<u64, (usize, usize)> = HashMap::new();
    while decided.len() < data.len() {
        match next_frame(&mut raw, &mut dec) {
            Frame::Decision {
                session,
                label,
                prefix_len,
                ..
            } => {
                decided.insert(session, (label as usize, prefix_len as usize));
            }
            other => panic!("a rev-1 connection got a {} frame", other.kind_name()),
        }
    }
    for (i, expect) in offline(&data).into_iter().enumerate() {
        assert_eq!(decided[&(i as u64 + 1)], expect, "instance {i}");
    }
    drop(raw);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, data.len() as u64);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(counter(&obs, "net_frames_read_observe_batch_total"), 0);
    assert!(counter(&obs, "net_frames_read_observe_total") > 0);
}

#[test]
fn rev2_peers_pipeline_batches_end_to_end() {
    let obs = Obs::enabled();
    let (server, data) = serve(&obs);
    let addr = server.local_addr().to_string();
    let mut client: Client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    for (i, expect) in offline(&data).into_iter().enumerate() {
        let inst = data.instance(i);
        let id = client.open_session(inst.len()).unwrap();
        let rows: Vec<Vec<f64>> = (0..inst.len())
            .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
            .collect();
        client.observe_batch(id, &rows).unwrap();
        let d = client.wait_decision(id, Duration::from_secs(20)).unwrap();
        assert_eq!((d.label, d.prefix_len), expect, "instance {i}");
    }
    drop(client);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, data.len() as u64);
    assert_eq!(stats.proto_errors, 0);
    assert!(
        counter(&obs, "net_frames_read_observe_batch_total") >= data.len() as u64,
        "rev-2 peers must coalesce rows into batch frames"
    );
}

/// A server whose `Hello` announces minor 1, to every connection.
fn rev1_server(stop: Arc<AtomicBool>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let meta = ModelInfo {
        algo: "ECTS".into(),
        dataset: "interop".into(),
        vars: 1,
        train_len: 20,
        batch: 1,
        prior_label: 0,
        classes: vec!["up".into(), "down".into()],
        generation: 1,
    };
    let handle = std::thread::spawn(move || {
        let mut held = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.write_all(&hello(1, Some(meta.clone())));
                    held.push(stream);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    (addr, handle)
}

#[test]
fn client_and_router_refuse_a_server_below_rev2() {
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, handle) = rev1_server(Arc::clone(&stop));
    match Endpoint::connect(&addr, ClientBuilder::new()) {
        Err(NetError::Proto(ProtoError::MinorRevision { got, min })) => {
            assert_eq!((got, min), (1, BATCH_MINOR));
        }
        Err(other) => panic!("expected a minor-revision refusal, got {other}"),
        Ok(_) => panic!("connected to a rev-1 server"),
    }
    // The router's probes dial through the same handshake: the rev-1
    // shard fails them and its breaker opens.
    let router = Endpoint::route(
        "127.0.0.1:0",
        std::slice::from_ref(&addr),
        RouterBuilder::new().probes(Duration::from_millis(25), Duration::from_millis(250)),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.shard_snapshots()[0].circuit != "open" {
        assert!(Instant::now() < deadline, "rev-1 shard never tripped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = router.join();
    assert!(stats.shard_failures >= 2, "{stats:?}");
    stop.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
