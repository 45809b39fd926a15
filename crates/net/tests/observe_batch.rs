//! `Client::observe_batch` against a fake rev-2 server that records the
//! opens and steps it receives. A batch larger than one frame is split
//! into chunks that each fit the frame ceiling, counting every row's
//! length prefix; and when a write breaks, the reconnect's replay
//! resends every open session and row once and the client sends neither
//! again after it.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etsc_net::{
    encode_frame, ClientBuilder, Endpoint, Frame, FrameDecoder, ModelInfo, ProtoError,
    MAX_FRAME_BYTES, PROTO_MINOR,
};

/// What the fake server received, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Open { id: u64, resume: bool },
    Step(u64),
}

/// The observation steps among `seen`.
fn steps(seen: &[Seen]) -> Vec<u64> {
    seen.iter()
        .filter_map(|s| match s {
            Seen::Step(step) => Some(*step),
            Seen::Open { .. } => None,
        })
        .collect()
}

/// The next frame from `conn`, or `None` once the client hangs up.
/// Panics on a frame the decoder refuses, such as one over
/// [`MAX_FRAME_BYTES`], and after 10 s without a frame.
fn next_frame(conn: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Frame> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(frame) = dec.next_frame().expect("a well-formed frame") {
            return Some(frame);
        }
        assert!(Instant::now() < deadline, "timed out waiting for a frame");
        match dec.read_from(conn) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// Accepts one connection and answers its `Hello` as a rev-2 server of
/// a `vars`-variable model.
fn accept(listener: &TcpListener, vars: usize) -> (TcpStream, FrameDecoder) {
    let (mut conn, _) = listener.accept().expect("a client dials");
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    match next_frame(&mut conn, &mut dec) {
        Some(Frame::Hello { .. }) => {}
        other => panic!("expected the client's hello, got {other:?}"),
    }
    let meta = ModelInfo {
        algo: "ECO-K".into(),
        dataset: "fake".into(),
        vars,
        train_len: 30,
        batch: 1,
        prior_label: 0,
        classes: vec!["a".into(), "b".into()],
        generation: 1,
    };
    let hello = Frame::Hello {
        version: etsc_net::PROTO_VERSION,
        minor: PROTO_MINOR,
        agent: "fake-rev2-server".into(),
        meta: Some(meta),
    };
    conn.write_all(&encode_frame(&hello, MAX_FRAME_BYTES).expect("hello encodes"))
        .expect("hello written");
    (conn, dec)
}

/// A fake rev-2 server. With `hang_up`, it takes the first connection's
/// handshake and `OpenSession`, hangs up, says so on the returned
/// channel, and records the redial; otherwise it records the first
/// connection. The thread returns what it recorded once the client
/// hangs up.
fn fake_server(vars: usize, hang_up: bool) -> (String, mpsc::Receiver<()>, JoinHandle<Vec<Seen>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address").to_string();
    let (hung_up, on_hang_up) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let (mut conn, mut dec) = accept(&listener, vars);
        if hang_up {
            loop {
                match next_frame(&mut conn, &mut dec) {
                    Some(Frame::OpenSession { .. }) => break,
                    Some(_) => {}
                    None => panic!("client left before opening a session"),
                }
            }
            drop(conn);
            hung_up.send(()).expect("the test is waiting");
            (conn, dec) = accept(&listener, vars);
        }
        let mut seen = Vec::new();
        while let Some(frame) = next_frame(&mut conn, &mut dec) {
            match frame {
                Frame::OpenSession { id, resume, .. } => seen.push(Seen::Open { id, resume }),
                Frame::Observe { step, .. } => seen.push(Seen::Step(step)),
                Frame::ObserveBatch {
                    start_step, rows, ..
                } => seen.extend((start_step..start_step + rows.len() as u64).map(Seen::Step)),
                _ => {}
            }
        }
        seen
    });
    (addr, on_hang_up, handle)
}

fn rows(n: usize, vars: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|t| (0..vars).map(|v| (t * vars + v) as f64).collect())
        .collect()
}

#[test]
fn a_batch_past_one_frame_is_chunked_by_encoded_row_size() {
    // Counting 8 bytes per value and none for the row's length prefix,
    // 100,000 one-variable rows (or 5,000 seven-variable rows) made
    // chunks over the frame ceiling.
    for (vars, n) in [(1, 100_000), (7, 5_000)] {
        let (addr, _, server) = fake_server(vars, false);
        let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
        let id = client.open_session(n).unwrap();
        client.observe_batch(id, &rows(n, vars)).unwrap();
        assert_eq!(client.stats().reconnects, 0);
        drop(client);
        let seen = server.join().expect("every frame fit the ceiling");
        assert_eq!(
            steps(&seen),
            (1..=n as u64).collect::<Vec<_>>(),
            "{vars} vars"
        );
    }
}

#[test]
fn a_broken_write_mid_batch_sends_each_row_once() {
    let n = 100_000;
    let (addr, hung_up, server) = fake_server(1, true);
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let id = client.open_session(n).unwrap();
    hung_up.recv().expect("the server hangs up");
    // A chunk's write fails; the redial replays all n buffered rows, and
    // the chunks not yet written must not follow them.
    client.observe_batch(id, &rows(n, 1)).unwrap();
    assert_eq!(client.stats().reconnects, 1);
    drop(client);
    let seen = server.join().expect("the server recorded the redial");
    assert_eq!(seen[0], Seen::Open { id, resume: true });
    let steps = steps(&seen);
    assert_eq!(steps.len(), n, "every row once, none twice");
    assert_eq!(steps, (1..=n as u64).collect::<Vec<_>>());
}

#[test]
fn a_broken_write_at_open_opens_the_session_once() {
    let (addr, hung_up, server) = fake_server(1, true);
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let first = client.open_session(4).unwrap();
    hung_up.recv().expect("the server hangs up");
    // This write reaches a closed socket, whose reset breaks the next.
    client.observe(first, &[1.0]).unwrap();
    let second = client.open_session(4).unwrap();
    assert_eq!(client.stats().reconnects, 1);
    drop(client);
    // The redial's replay re-opens both sessions; sending the second's
    // open again would make the server refuse it as already open.
    let seen = server.join().expect("the server recorded the redial");
    assert_eq!(
        seen,
        [
            Seen::Open {
                id: first,
                resume: true
            },
            Seen::Step(1),
            Seen::Open {
                id: second,
                resume: true
            },
        ]
    );
}
