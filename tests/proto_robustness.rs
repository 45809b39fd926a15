//! Wire-protocol robustness: a recorded session transcript survives
//! every possible truncation and every single-byte corruption with a
//! structured [`ProtoError`] — never a panic, never a hang, never a
//! silently wrong frame.
//!
//! The transcript is the full frame vocabulary in session order (both
//! Hello directions, open, a stream of observations, the decision,
//! close, an error report, shutdown), so the sweeps cover every
//! payload codec path the protocol has.

use etsc::net::{
    encode_frame, BatchDecision, DecisionKind, ErrorCode, Frame, FrameDecoder, ModelInfo,
    ProtoError, RetryClass, MAX_FRAME_BYTES, PRIORITY_HIGH, PROTO_MINOR, PROTO_VERSION,
};

/// A realistic session transcript covering every frame type.
fn transcript_frames() -> Vec<Frame> {
    let mut frames = vec![
        Frame::Hello {
            version: PROTO_VERSION,
            minor: 0,
            agent: "recorder".to_owned(),
            meta: None,
        },
        Frame::Hello {
            version: PROTO_VERSION,
            minor: PROTO_MINOR,
            agent: "etsc-net-server".to_owned(),
            meta: Some(ModelInfo {
                algo: "ECTS".to_owned(),
                dataset: "PowerCons".to_owned(),
                vars: 1,
                train_len: 96,
                batch: 1,
                prior_label: 0,
                classes: vec!["warm".to_owned(), "cold".to_owned()],
                generation: 1,
            }),
        },
        // Deadline and priority are revision-1 trailing extensions, so
        // the corruption sweeps below also cover the extension bytes.
        Frame::OpenSession {
            id: 1,
            vars: 1,
            expected_len: 96,
            resume: false,
            deadline_ms: 250,
            priority: PRIORITY_HIGH,
        },
    ];
    for t in 0..6u64 {
        frames.push(Frame::Observe {
            session: 1,
            step: t + 1,
            row: vec![t as f64 * 0.25 - 0.5],
            deadline_ms: if t % 2 == 0 { 40 } else { 0 },
        });
    }
    // Revision-2 pipelining frames: a multi-row batch with a deadline,
    // a single-row batch without one (empty batches are corruption by
    // contract, not a degenerate), and the coalesced verdict dual — so
    // the truncation and corruption sweeps below also walk every batch
    // codec path.
    frames.push(Frame::ObserveBatch {
        session: 1,
        start_step: 7,
        rows: vec![vec![1.0], vec![1.25], vec![-0.75]],
        deadline_ms: 80,
    });
    frames.push(Frame::ObserveBatch {
        session: 1,
        start_step: 10,
        rows: vec![vec![2.5]],
        deadline_ms: 0,
    });
    frames.push(Frame::DecisionBatch {
        decisions: vec![
            BatchDecision {
                session: 1,
                label: 1,
                prefix_len: 9,
                kind: DecisionKind::Genuine,
            },
            BatchDecision {
                session: 2,
                label: 0,
                prefix_len: 4,
                kind: DecisionKind::DrainPrior,
            },
        ],
    });
    frames.push(Frame::Decision {
        session: 1,
        label: 1,
        prefix_len: 6,
        kind: DecisionKind::Genuine,
    });
    frames.push(Frame::Feedback {
        session: 1,
        label: 1,
    });
    frames.push(Frame::Handoff {
        session: 1,
        origin: "127.0.0.1:7971".to_owned(),
        replayed: 6,
    });
    frames.push(Frame::CloseSession { session: 1 });
    frames.push(Frame::Error {
        code: ErrorCode::Draining,
        session: None,
        message: "shutting down".to_owned(),
        retry: RetryClass::Retryable { retry_after_ms: 75 },
    });
    frames.push(Frame::Error {
        code: ErrorCode::Shutdown,
        session: None,
        message: "graceful drain".to_owned(),
        retry: RetryClass::Terminal,
    });
    frames.push(Frame::Shutdown);
    frames
}

/// Encodes the transcript and returns the byte stream plus the set of
/// clean frame-boundary offsets (0 and after each frame).
fn transcript_bytes() -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for frame in transcript_frames() {
        bytes.extend_from_slice(&encode_frame(&frame, MAX_FRAME_BYTES).expect("encodes"));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Drains a decoder, asserting strict progress on every pull so a
/// decode loop can never hang. Returns (frames decoded, errors seen).
fn drain(dec: &mut FrameDecoder, context: &str) -> (usize, usize) {
    let mut decoded = 0;
    let mut errors = 0;
    loop {
        let before = dec.buffered();
        match dec.next_frame() {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => break,
            Err(ProtoError::TooLarge { .. }) => {
                // Framing itself is untrusted: terminal by contract.
                errors += 1;
                break;
            }
            Err(_) => errors += 1,
        }
        assert!(
            dec.buffered() < before,
            "decoder made no progress ({context})"
        );
    }
    (decoded, errors)
}

#[test]
fn every_truncation_offset_is_structured() {
    let (bytes, boundaries) = transcript_bytes();
    for cut in 0..=bytes.len() {
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&bytes[..cut]);
        let (decoded, errors) = drain(&mut dec, &format!("truncation at {cut}"));
        // Truncation never corrupts: every complete frame before the
        // cut decodes, and nothing errors.
        assert_eq!(errors, 0, "truncation at {cut} corrupted a frame");
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(decoded, complete, "truncation at {cut}");
        match dec.finish() {
            Ok(()) => assert!(
                boundaries.contains(&cut),
                "offset {cut} is mid-frame but finish() saw a clean end"
            ),
            Err(ProtoError::Truncated { buffered }) => {
                assert!(
                    !boundaries.contains(&cut),
                    "clean boundary {cut} reported torn"
                );
                assert_eq!(
                    buffered,
                    cut - boundaries.iter().filter(|&&b| b <= cut).max().unwrap()
                );
            }
            Err(other) => panic!("truncation at {cut}: unexpected {other}"),
        }
    }
}

#[test]
fn every_single_byte_flip_is_detected_and_structured() {
    let (bytes, _) = transcript_bytes();
    let total = transcript_frames().len();
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xff;
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&mutated);
        let (decoded, errors) = drain(&mut dec, &format!("flip at {pos}"));
        // The corruption must be detected somewhere: as a structured
        // decode error, or as a torn tail when a length field grew and
        // the final frame ran past the end of the stream.
        assert!(
            errors > 0 || dec.finish().is_err(),
            "flip at byte {pos} went undetected ({decoded}/{total} frames decoded)"
        );
        assert!(
            decoded < total,
            "flip at byte {pos} decoded all frames as if untouched"
        );
    }
}

/// A rev-1 peer that sends a rev-2 batch frame anyway must get a
/// structured `Error` reply on the same connection — not a hangup, not
/// a panic — and the connection must keep serving rev-1 traffic.
#[test]
fn rev1_peer_sending_batch_frame_gets_clean_error_reply() {
    use etsc::data::{DatasetBuilder, MultiSeries, Series};
    use etsc::eval::experiment::{AlgoSpec, RunConfig};
    use etsc::net::{Endpoint, ServerBuilder};
    use etsc::serve::fit_model;
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

    let mut b = DatasetBuilder::new("synthetic");
    for i in 0..8 {
        let (class, base) = if i % 2 == 0 {
            ("up", 1.0)
        } else {
            ("down", -1.0)
        };
        let values: Vec<f64> = (0..16)
            .map(|t| base * (t as f64 + i as f64 * 0.1))
            .collect();
        b.push_named(MultiSeries::univariate(Series::new(values)), class);
    }
    let data = b.build().unwrap();
    let model = Arc::new(fit_model(AlgoSpec::Ects, &data, &RunConfig::fast()).unwrap());
    let server = Endpoint::serve(model, "127.0.0.1:0", ServerBuilder::new()).unwrap();
    let addr = server.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let send = |raw: &mut std::net::TcpStream, frame: &Frame| {
        raw.write_all(&encode_frame(frame, MAX_FRAME_BYTES).unwrap())
            .unwrap();
        raw.flush().unwrap();
    };
    // Advertise minor 1: the negotiated revision excludes batching.
    send(
        &mut raw,
        &Frame::Hello {
            version: PROTO_VERSION,
            minor: 1,
            agent: "stuck-in-rev1".to_owned(),
            meta: None,
        },
    );
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    let next = |raw: &mut std::net::TcpStream, dec: &mut FrameDecoder, what: &str| -> Frame {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(f) = dec.next_frame().unwrap() {
                return f;
            }
            assert!(std::time::Instant::now() < deadline, "timed out on {what}");
            match dec.read_from(raw) {
                Ok(0) => panic!("server hung up waiting for {what}"),
                Ok(_) => {}
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("decode failed waiting for {what}: {e}"),
            }
        }
    };
    match next(&mut raw, &mut dec, "hello") {
        Frame::Hello { minor, .. } => assert!(minor >= 1, "server hello advertises its minor"),
        other => panic!("expected hello, got {other:?}"),
    }
    send(
        &mut raw,
        &Frame::OpenSession {
            id: 1,
            vars: 1,
            expected_len: 16,
            resume: false,
            deadline_ms: 0,
            priority: 0,
        },
    );
    // The forbidden frame: a batch on a rev-1 connection.
    send(
        &mut raw,
        &Frame::ObserveBatch {
            session: 1,
            start_step: 1,
            rows: vec![vec![0.5], vec![0.75]],
            deadline_ms: 0,
        },
    );
    match next(&mut raw, &mut dec, "batch refusal") {
        Frame::Error {
            code,
            session,
            message,
            ..
        } => {
            assert_eq!(code, ErrorCode::BadFrame, "{message}");
            assert_eq!(session, Some(1));
            assert!(message.contains("minor revision"), "{message}");
        }
        other => panic!("expected error reply, got {other:?}"),
    }
    // The connection survived the refusal: plain rev-1 observes still
    // stream and the session still decides.
    for t in 0..16u64 {
        send(
            &mut raw,
            &Frame::Observe {
                session: 1,
                step: t + 1,
                row: vec![(t as f64) + 1.0],
                deadline_ms: 0,
            },
        );
    }
    loop {
        match next(&mut raw, &mut dec, "decision") {
            Frame::Decision { session, .. } => {
                assert_eq!(session, 1);
                break;
            }
            Frame::Error { message, .. } => panic!("session failed: {message}"),
            _ => {}
        }
    }
    drop(raw);
    let stats = server.join();
    assert_eq!(stats.sessions_decided, 1);
    assert_eq!(stats.open_sessions(), 0, "{stats:?}");
}

#[test]
fn flipped_frames_never_round_trip_as_different_valid_frames() {
    // Deeper check on a single Observe frame: whatever byte is
    // flipped, the decoder must never hand back a VALID frame whose
    // contents silently differ from the original. CRC-64 catches every
    // single-byte payload change; header flips surface as framing
    // errors or checksum mismatches.
    let frame = Frame::Observe {
        session: 7,
        step: 3,
        row: vec![1.5, -2.25, 0.0],
        deadline_ms: 12,
    };
    let bytes = encode_frame(&frame, MAX_FRAME_BYTES).expect("encodes");
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xff;
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&mutated);
        match dec.next_frame() {
            Ok(Some(decoded)) => panic!("flip at {pos} produced a valid frame: {decoded:?}"),
            Ok(None) => {
                // A grown length field: the frame now claims more
                // bytes than arrived — a torn frame, not a decode.
                assert!(dec.finish().is_err(), "flip at {pos} vanished");
            }
            Err(_) => {}
        }
    }
}
