//! The ETSC wire protocol: versioned, length-prefixed, CRC-protected
//! binary frames.
//!
//! Every frame on the wire is
//!
//! ```text
//! | len: u32 LE | crc: u64 LE | payload (len bytes) |
//! ```
//!
//! where `crc` is the CRC-64/XZ of the payload (the same checksum the
//! model store uses) and the payload is one tag byte followed by the
//! frame body in [`etsc_data::codec`] conventions — all scalars
//! little-endian, floats as IEEE-754 bit patterns, strings and vectors
//! length-prefixed. A connection starts with a [`Frame::Hello`]
//! exchange carrying [`PROTO_VERSION`]; everything after is sessions:
//! `OpenSession` → `Observe`* → `Decision`, with `Error` for per-frame
//! failures and `Shutdown` to request a graceful drain. Two additions
//! serve fleet choreography: [`Frame::Handoff`] announces that the
//! next resume is a router-driven *migration* off a dead or draining
//! shard, and [`ErrorCode::Shutdown`] marks a connection that closed
//! because its server drained on purpose — routers skip the
//! circuit-breaker penalty on that code.
//!
//! Hard limits: a frame advertising more than the decoder's
//! `max_frame` bytes (default [`MAX_FRAME_BYTES`]) is rejected before
//! any allocation, and servers cap the outbound queue per connection
//! at [`MAX_PENDING_FRAMES`] (see `server.rs`). Framing errors are
//! never silent — every malformed input maps to a structured
//! [`ProtoError`].

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use etsc_data::codec::{crc64, CodecError, Decoder, Encoder};

/// Protocol version sent in [`Frame::Hello`]; peers with a different
/// version are refused.
pub const PROTO_VERSION: u32 = 1;

/// Minor protocol revision, advertised in [`Frame::Hello`] as an
/// optional trailing field. Minor revisions only *append* optional
/// fields to existing frames or add new frame types that are only sent
/// once both sides advertised support. Revision 1 adds deadline/priority
/// propagation on `OpenSession`/`Observe` and retry classification on
/// `Error`. Revision 2 adds the pipelined [`Frame::ObserveBatch`] /
/// [`Frame::DecisionBatch`] frames. A server settles on
/// `min(client minor, server minor)`, so a rev-0/rev-1 client never
/// sees a batch frame, and one arriving from it anyway is answered with
/// a structured [`ErrorCode::BadFrame`] reply, not a teardown. This
/// crate's client and router need a server at [`BATCH_MINOR`] or later
/// and refuse an older one with [`ProtoError::MinorRevision`].
pub const PROTO_MINOR: u32 = 2;

/// Lowest minor revision at which the batch frames
/// ([`Frame::ObserveBatch`] / [`Frame::DecisionBatch`]) may be sent.
pub const BATCH_MINOR: u32 = 2;

/// Lowest value of the advisory `OpenSession` priority.
pub const PRIORITY_LOW: u8 = 0;

/// Default `OpenSession` priority, the one this crate's client sends.
pub const PRIORITY_NORMAL: u8 = 1;

/// Highest value of the advisory `OpenSession` priority.
pub const PRIORITY_HIGH: u8 = 2;

/// Bytes of wire framing before the payload: `len: u32` + `crc: u64`.
pub const HEADER_BYTES: usize = 12;

/// Ceiling on a single frame's payload size, in both directions, for
/// the server, router and client alike. Generous for any realistic
/// observation row (a 256 KiB frame holds a 32k-variable row) while
/// bounding what one peer can make the other allocate.
pub const MAX_FRAME_BYTES: usize = 256 * 1024;

/// Default ceiling on encoded frames queued for write on one
/// connection before backpressure pauses its reads.
pub const MAX_PENDING_FRAMES: usize = 1024;

const TAG_HELLO: u8 = 1;
const TAG_OPEN: u8 = 2;
const TAG_OBSERVE: u8 = 3;
const TAG_DECISION: u8 = 4;
const TAG_CLOSE: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_ERROR: u8 = 7;
const TAG_HANDOFF: u8 = 8;
const TAG_FEEDBACK: u8 = 9;
const TAG_OBSERVE_BATCH: u8 = 10;
const TAG_DECISION_BATCH: u8 = 11;

/// Shape of the model a server is exposing, sent in its
/// [`Frame::Hello`] reply so clients (and the load generator) know
/// what to stream without out-of-band coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Algorithm name (`AlgoSpec::name`).
    pub algo: String,
    /// Dataset the model was trained on.
    pub dataset: String,
    /// Variables per observation row.
    pub vars: usize,
    /// Training series length (the natural `expected_len`).
    pub train_len: usize,
    /// Re-evaluation batch granularity (1 = per point).
    pub batch: usize,
    /// Dense training-prior label used for degraded verdicts.
    pub prior_label: usize,
    /// Class names indexed by dense label.
    pub classes: Vec<String>,
    /// Model generation this server (or connection) is pinned to —
    /// bumped by each adaptive hot-swap, so routers and clients can
    /// tell blue from green without out-of-band state.
    pub generation: u64,
}

impl ModelInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.algo);
        enc.str(&self.dataset);
        enc.usize(self.vars);
        enc.usize(self.train_len);
        enc.usize(self.batch);
        enc.usize(self.prior_label);
        enc.usize(self.classes.len());
        for c in &self.classes {
            enc.str(c);
        }
        enc.u64(self.generation);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<ModelInfo, ProtoError> {
        let algo = dec.str()?;
        let dataset = dec.str()?;
        let vars = dec.usize()?;
        let train_len = dec.usize()?;
        let batch = dec.usize()?;
        let prior_label = dec.usize()?;
        let n = dec.usize()?;
        if n > dec.remaining() {
            return Err(ProtoError::Corrupt(format!(
                "model info claims {n} classes but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(dec.str()?);
        }
        let generation = dec.u64()?;
        Ok(ModelInfo {
            algo,
            dataset,
            vars,
            train_len,
            batch,
            prior_label,
            classes,
            generation,
        })
    }
}

/// Why a [`Frame::Decision`] verdict is (or is not) degraded: the
/// algorithm's own trigger, or a decision forced on the observed prefix
/// by a deadline breach or by the graceful drain. Servers send
/// `DeadlinePrior` no more — a breach always forces an evaluation — but
/// it stays decodable for older peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// The algorithm's own trigger fired.
    Genuine,
    /// Deadline breach answered with the training prior.
    DeadlinePrior,
    /// Deadline breach answered by a forced evaluation.
    DeadlineForced,
    /// Graceful drain answered with the training prior.
    DrainPrior,
    /// Graceful drain answered by a forced evaluation.
    DrainForced,
}

impl DecisionKind {
    /// `true` for any verdict that is not the algorithm's own trigger.
    pub fn is_degraded(self) -> bool {
        !matches!(self, DecisionKind::Genuine)
    }

    /// Stable kebab-case label for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Genuine => "genuine",
            DecisionKind::DeadlinePrior => "deadline-prior",
            DecisionKind::DeadlineForced => "deadline-forced",
            DecisionKind::DrainPrior => "drain-prior",
            DecisionKind::DrainForced => "drain-forced",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            DecisionKind::Genuine => 0,
            DecisionKind::DeadlinePrior => 1,
            DecisionKind::DeadlineForced => 2,
            DecisionKind::DrainPrior => 3,
            DecisionKind::DrainForced => 4,
        }
    }

    fn from_u8(v: u8) -> Result<DecisionKind, ProtoError> {
        Ok(match v {
            0 => DecisionKind::Genuine,
            1 => DecisionKind::DeadlinePrior,
            2 => DecisionKind::DeadlineForced,
            3 => DecisionKind::DrainPrior,
            4 => DecisionKind::DrainForced,
            other => {
                return Err(ProtoError::Corrupt(format!(
                    "unknown decision kind {other}"
                )))
            }
        })
    }
}

/// Machine-readable reason carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer sent a frame the receiver could not act on.
    BadFrame,
    /// Observe/Close referenced a session id never opened here.
    UnknownSession,
    /// Per-connection session cap reached.
    SessionLimit,
    /// Accept-time or queue-time shedding: the server is at capacity.
    Overloaded,
    /// The observation shape does not match the served model.
    Incompatible,
    /// The server is draining and refuses new work.
    Draining,
    /// Reader idle too long (slow-loris guard).
    IdleTimeout,
    /// Unexpected server-side failure (e.g. a worker panic).
    Internal,
    /// Planned, graceful shutdown: the connection is closing because
    /// the server is draining on purpose, not because anything broke.
    /// Routers skip the circuit-breaker penalty on this code.
    Shutdown,
    /// The propagated client deadline had already expired when the
    /// server got to the work — the answer would have been dead on
    /// arrival, so it was never computed.
    Expired,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 0,
            ErrorCode::UnknownSession => 1,
            ErrorCode::SessionLimit => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::Incompatible => 4,
            ErrorCode::Draining => 5,
            ErrorCode::IdleTimeout => 6,
            ErrorCode::Internal => 7,
            ErrorCode::Shutdown => 8,
            ErrorCode::Expired => 9,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, ProtoError> {
        Ok(match v {
            0 => ErrorCode::BadFrame,
            1 => ErrorCode::UnknownSession,
            2 => ErrorCode::SessionLimit,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::Incompatible,
            5 => ErrorCode::Draining,
            6 => ErrorCode::IdleTimeout,
            7 => ErrorCode::Internal,
            8 => ErrorCode::Shutdown,
            9 => ErrorCode::Expired,
            other => return Err(ProtoError::Corrupt(format!("unknown error code {other}"))),
        })
    }

    /// The retry classification this code carries unless the sender
    /// overrides it: load-induced refusals are retryable (with a
    /// default backoff hint), everything else is terminal — resending
    /// the same frame cannot succeed.
    pub fn default_retry(self) -> RetryClass {
        match self {
            ErrorCode::Overloaded => RetryClass::Retryable { retry_after_ms: 50 },
            ErrorCode::SessionLimit => RetryClass::Retryable { retry_after_ms: 25 },
            ErrorCode::Draining | ErrorCode::Shutdown => RetryClass::Retryable {
                retry_after_ms: 200,
            },
            ErrorCode::BadFrame
            | ErrorCode::UnknownSession
            | ErrorCode::Incompatible
            | ErrorCode::IdleTimeout
            | ErrorCode::Internal
            | ErrorCode::Expired => RetryClass::Terminal,
        }
    }
}

/// Whether (and when) the peer should retry the work an
/// [`Frame::Error`] refused — the machine-readable half of overload
/// handling: clients and routers back off on `Retryable` and give up
/// immediately on `Terminal` instead of burning their retry budget on
/// errors that can never succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Retrying the same work cannot succeed (bad frame, incompatible
    /// shape, expired deadline, internal failure).
    Terminal,
    /// The refusal was load-induced; the same work may succeed later.
    Retryable {
        /// Sender's backoff hint: earliest useful retry, in
        /// milliseconds (0 = retry whenever convenient).
        retry_after_ms: u64,
    },
}

impl RetryClass {
    /// `true` when the peer is invited to retry.
    pub fn is_retryable(self) -> bool {
        matches!(self, RetryClass::Retryable { .. })
    }

    /// The backoff hint, when one was sent.
    pub fn retry_after(self) -> Option<Duration> {
        match self {
            RetryClass::Terminal => None,
            RetryClass::Retryable { retry_after_ms } => Some(Duration::from_millis(retry_after_ms)),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::SessionLimit => "session-limit",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Incompatible => "incompatible",
            ErrorCode::Draining => "draining",
            ErrorCode::IdleTimeout => "idle-timeout",
            ErrorCode::Internal => "internal",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Expired => "expired",
        };
        f.write_str(s)
    }
}

/// One verdict inside a [`Frame::DecisionBatch`] — the same fields as
/// [`Frame::Decision`], flattened for batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchDecision {
    /// Session id the verdict answers.
    pub session: u64,
    /// Dense class label.
    pub label: u64,
    /// Prefix length the commitment was made at.
    pub prefix_len: u64,
    /// Whether the verdict is genuine or degraded (and how).
    pub kind: DecisionKind,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake. The client sends `meta: None`; the server
    /// replies with the served model's [`ModelInfo`].
    Hello {
        /// Protocol version ([`PROTO_VERSION`]). A mismatch here is
        /// refused.
        version: u32,
        /// Minor revision ([`PROTO_MINOR`]) — advisory: tells the
        /// peer which optional extensions it may expect. Minor
        /// revision 1; older peers report 0.
        minor: u32,
        /// Free-form peer identification for traces and logs.
        agent: String,
        /// Served model shape (server → client only).
        meta: Option<ModelInfo>,
    },
    /// Opens (or, with `resume`, re-opens after a reconnect) a
    /// streaming session. Ids are chosen by the client and scoped to
    /// the connection.
    OpenSession {
        /// Client-chosen session id, unique per connection.
        id: u64,
        /// Variables per observation row.
        vars: usize,
        /// Full series length, so the final row forces a decision.
        expected_len: usize,
        /// `true` when this re-opens a session interrupted by a
        /// disconnect; the client replays buffered observations.
        resume: bool,
        /// Client's per-decision latency budget in milliseconds
        /// (0 = none). The server arms its evaluation deadline with
        /// the tighter of this and its own configuration. Minor
        /// revision 1; absent on older peers.
        deadline_ms: u64,
        /// Scheduling priority ([`PRIORITY_LOW`]..[`PRIORITY_HIGH`]):
        /// advisory: no server policy reads it, and routers forward
        /// what the peer sent. Minor revision 1; older peers default to
        /// [`PRIORITY_NORMAL`].
        priority: u8,
    },
    /// One observation row for an open session. `step` is 1-based and
    /// must advance by exactly one per row.
    Observe {
        /// Session id from [`Frame::OpenSession`].
        session: u64,
        /// 1-based index of this row in the stream.
        step: u64,
        /// One value per variable.
        row: Vec<f64>,
        /// Remaining client budget for acting on this row, in
        /// milliseconds (0 = unbounded). When the budget has already
        /// lapsed by the time the server dequeues the row, the
        /// evaluation is skipped — the caller has given up — and the
        /// session fails with [`ErrorCode::Expired`]. Minor revision
        /// 1; absent on older peers.
        deadline_ms: u64,
    },
    /// Many observation rows for one session in a single frame —
    /// revision 2's pipelining primitive. Semantically identical to
    /// the equivalent run of [`Frame::Observe`] frames with
    /// consecutive steps starting at `start_step`; the server streams
    /// back at most one decision per session regardless of how many
    /// rows a batch carried. Sent only when both peers advertised
    /// minor revision [`BATCH_MINOR`] in the `Hello` exchange.
    ObserveBatch {
        /// Session id from [`Frame::OpenSession`].
        session: u64,
        /// 1-based step of the first row; row `i` lands at
        /// `start_step + i`.
        start_step: u64,
        /// Observation rows, one value per variable each.
        rows: Vec<Vec<f64>>,
        /// Remaining client budget (ms, 0 = unbounded) for acting on
        /// these rows, as in [`Frame::Observe`].
        deadline_ms: u64,
    },
    /// Several committed verdicts in one frame (server → client) —
    /// the write-coalescing dual of [`Frame::ObserveBatch`], sent only
    /// when both peers advertised minor revision [`BATCH_MINOR`].
    DecisionBatch {
        /// The verdicts, in commit order.
        decisions: Vec<BatchDecision>,
    },
    /// The committed verdict for a session (server → client).
    Decision {
        /// Session id the verdict answers.
        session: u64,
        /// Dense class label.
        label: u64,
        /// Prefix length the commitment was made at.
        prefix_len: u64,
        /// Whether the verdict is genuine or degraded (and how).
        kind: DecisionKind,
    },
    /// Abandons a session before its decision (client → server).
    CloseSession {
        /// Session id to abandon.
        session: u64,
    },
    /// Announces that the next `OpenSession { resume: true }` for
    /// `session` is a *migration*: a router is moving the session off a
    /// dead or draining shard and is about to replay its buffered
    /// observation prefix. Advisory — the takeover shard counts it and
    /// records the provenance in its trace, then treats the resume
    /// exactly like a client reconnect.
    Handoff {
        /// Session id (in the receiving connection's namespace) the
        /// migration is about to re-open.
        session: u64,
        /// Address of the shard the session is leaving.
        origin: String,
        /// Observation rows the router will replay.
        replayed: u64,
    },
    /// Ground-truth label reported by the client for a session that
    /// already received its [`Frame::Decision`] — the raw material of
    /// online adaptation: drift detectors consume the
    /// correct/incorrect stream and the adapter's refit reservoir
    /// collects the labeled series. Advisory: a server without an
    /// adaptation sink just counts it.
    Feedback {
        /// Session id the ground truth belongs to.
        session: u64,
        /// True dense class label of the completed series.
        label: u64,
    },
    /// Requests a graceful drain: the server force-decides in-flight
    /// sessions, answers them, and stops accepting.
    Shutdown,
    /// A structured failure, fatal to one session (`session: Some`) or
    /// to the connection (`session: None`).
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Affected session, when the failure is session-scoped.
        session: Option<u64>,
        /// Human-readable detail.
        message: String,
        /// Whether the refused work is worth retrying, and how soon.
        /// Minor revision 1; older peers see [`RetryClass::Terminal`].
        retry: RetryClass,
    },
}

impl Frame {
    /// A `Hello` frame announcing this build's [`PROTO_VERSION`] and
    /// [`PROTO_MINOR`].
    pub fn hello(agent: impl Into<String>, meta: Option<ModelInfo>) -> Frame {
        Frame::Hello {
            version: PROTO_VERSION,
            minor: PROTO_MINOR,
            agent: agent.into(),
            meta,
        }
    }

    /// An `OpenSession` frame with revision-1 fields at their
    /// defaults (no client deadline, normal priority).
    pub fn open(id: u64, vars: usize, expected_len: usize, resume: bool) -> Frame {
        Frame::OpenSession {
            id,
            vars,
            expected_len,
            resume,
            deadline_ms: 0,
            priority: PRIORITY_NORMAL,
        }
    }

    /// An `Observe` frame with no propagated deadline.
    pub fn observe(session: u64, step: u64, row: Vec<f64>) -> Frame {
        Frame::Observe {
            session,
            step,
            row,
            deadline_ms: 0,
        }
    }

    /// An `ObserveBatch` frame with no propagated deadline.
    pub fn observe_batch(session: u64, start_step: u64, rows: Vec<Vec<f64>>) -> Frame {
        Frame::ObserveBatch {
            session,
            start_step,
            rows,
            deadline_ms: 0,
        }
    }

    /// An `Error` frame carrying the code's default retry
    /// classification ([`ErrorCode::default_retry`]).
    pub fn error(code: ErrorCode, session: Option<u64>, message: impl Into<String>) -> Frame {
        Frame::Error {
            code,
            session,
            message: message.into(),
            retry: code.default_retry(),
        }
    }

    /// An `Error` frame with an explicit retryable backoff hint, for
    /// senders that want to spread the retry herd.
    pub fn error_after(
        code: ErrorCode,
        session: Option<u64>,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Frame {
        Frame::Error {
            code,
            session,
            message: message.into(),
            retry: RetryClass::Retryable { retry_after_ms },
        }
    }
    /// Short frame-type name for counters and histograms.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::OpenSession { .. } => "open",
            Frame::Observe { .. } => "observe",
            Frame::ObserveBatch { .. } => "observe_batch",
            Frame::Decision { .. } => "decision",
            Frame::DecisionBatch { .. } => "decision_batch",
            Frame::CloseSession { .. } => "close",
            Frame::Feedback { .. } => "feedback",
            Frame::Shutdown => "shutdown",
            Frame::Error { .. } => "error",
            Frame::Handoff { .. } => "handoff",
        }
    }

    /// Encodes the payload (tag + body) without wire framing.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode_body(&mut enc);
        enc.into_bytes()
    }

    /// Appends the payload (tag + body) to `enc` — the allocation-free
    /// half of [`Frame::encode_payload`] that [`encode_frame`],
    /// [`encode_frame_into`] and the [`BufferPool`] build on.
    pub(crate) fn encode_body(&self, enc: &mut Encoder) {
        match self {
            Frame::Hello {
                version,
                minor,
                agent,
                meta,
            } => {
                enc.tag(TAG_HELLO);
                enc.u64(u64::from(*version));
                enc.str(agent);
                enc.bool(meta.is_some());
                if let Some(meta) = meta {
                    meta.encode(enc);
                }
                if *minor != 0 {
                    enc.u64(u64::from(*minor));
                }
            }
            Frame::OpenSession {
                id,
                vars,
                expected_len,
                resume,
                deadline_ms,
                priority,
            } => {
                enc.tag(TAG_OPEN);
                enc.u64(*id);
                enc.usize(*vars);
                enc.usize(*expected_len);
                enc.bool(*resume);
                // Revision-1 extension, appended only when it carries
                // information so default frames stay byte-identical
                // with revision 0.
                if *deadline_ms != 0 || *priority != PRIORITY_NORMAL {
                    enc.u64(*deadline_ms);
                    enc.tag(*priority);
                }
            }
            Frame::Observe {
                session,
                step,
                row,
                deadline_ms,
            } => write_observe(enc, *session, *step, row, *deadline_ms),
            Frame::ObserveBatch {
                session,
                start_step,
                rows,
                deadline_ms,
            } => write_observe_batch(enc, *session, *start_step, rows, *deadline_ms),
            Frame::Decision {
                session,
                label,
                prefix_len,
                kind,
            } => {
                enc.tag(TAG_DECISION);
                enc.u64(*session);
                enc.u64(*label);
                enc.u64(*prefix_len);
                enc.tag(kind.to_u8());
            }
            Frame::DecisionBatch { decisions } => {
                enc.tag(TAG_DECISION_BATCH);
                enc.usize(decisions.len());
                for d in decisions {
                    enc.u64(d.session);
                    enc.u64(d.label);
                    enc.u64(d.prefix_len);
                    enc.tag(d.kind.to_u8());
                }
            }
            Frame::CloseSession { session } => {
                enc.tag(TAG_CLOSE);
                enc.u64(*session);
            }
            Frame::Feedback { session, label } => {
                enc.tag(TAG_FEEDBACK);
                enc.u64(*session);
                enc.u64(*label);
            }
            Frame::Handoff {
                session,
                origin,
                replayed,
            } => {
                enc.tag(TAG_HANDOFF);
                enc.u64(*session);
                enc.str(origin);
                enc.u64(*replayed);
            }
            Frame::Shutdown => {
                enc.tag(TAG_SHUTDOWN);
            }
            Frame::Error {
                code,
                session,
                message,
                retry,
            } => {
                enc.tag(TAG_ERROR);
                enc.tag(code.to_u8());
                enc.bool(session.is_some());
                enc.u64(session.unwrap_or(0));
                enc.str(message);
                if let RetryClass::Retryable { retry_after_ms } = retry {
                    enc.tag(1);
                    enc.u64(*retry_after_ms);
                }
            }
        }
    }

    /// Decodes a payload (tag + body) produced by
    /// [`Frame::encode_payload`]. For non-extensible frames the whole
    /// payload must be consumed — trailing bytes are corruption. The
    /// extensible frames (`Hello`/`OpenSession`/`Observe`/`Error`)
    /// decode the minor-revision-1 trailing fields when present and
    /// *ignore* any bytes beyond them: that is the forward-compat
    /// contract letting a future minor revision append more fields
    /// without breaking this decoder (the CRC already guards against
    /// actual corruption).
    ///
    /// # Errors
    /// [`ProtoError::UnknownTag`] / [`ProtoError::Codec`] /
    /// [`ProtoError::Corrupt`] on any malformed input.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut dec = Decoder::new(payload);
        let tag = dec.tag()?;
        let extensible = matches!(tag, TAG_HELLO | TAG_OPEN | TAG_OBSERVE | TAG_ERROR);
        let frame = match tag {
            TAG_HELLO => {
                let version = dec.u64()?;
                let version = u32::try_from(version)
                    .map_err(|_| ProtoError::Corrupt(format!("hello version {version}")))?;
                let agent = dec.str()?;
                let meta = if dec.bool()? {
                    Some(ModelInfo::decode(&mut dec)?)
                } else {
                    None
                };
                let minor = if dec.remaining() > 0 {
                    let minor = dec.u64()?;
                    u32::try_from(minor)
                        .map_err(|_| ProtoError::Corrupt(format!("hello minor {minor}")))?
                } else {
                    0
                };
                Frame::Hello {
                    version,
                    minor,
                    agent,
                    meta,
                }
            }
            TAG_OPEN => {
                let id = dec.u64()?;
                let vars = dec.usize()?;
                let expected_len = dec.usize()?;
                let resume = dec.bool()?;
                if vars == 0 || expected_len == 0 {
                    return Err(ProtoError::Corrupt(format!(
                        "open session {id}: vars={vars} expected_len={expected_len}"
                    )));
                }
                let (deadline_ms, priority) = if dec.remaining() > 0 {
                    (dec.u64()?, dec.tag()?)
                } else {
                    (0, PRIORITY_NORMAL)
                };
                if priority > PRIORITY_HIGH {
                    return Err(ProtoError::Corrupt(format!(
                        "open session {id}: priority {priority}"
                    )));
                }
                Frame::OpenSession {
                    id,
                    vars,
                    expected_len,
                    resume,
                    deadline_ms,
                    priority,
                }
            }
            TAG_OBSERVE => {
                let session = dec.u64()?;
                let step = dec.u64()?;
                let row = dec.f64s()?;
                if row.is_empty() {
                    return Err(ProtoError::Corrupt(format!(
                        "observe session {session}: empty row"
                    )));
                }
                let deadline_ms = if dec.remaining() > 0 { dec.u64()? } else { 0 };
                Frame::Observe {
                    session,
                    step,
                    row,
                    deadline_ms,
                }
            }
            TAG_OBSERVE_BATCH => {
                let session = dec.u64()?;
                let start_step = dec.u64()?;
                let n = dec.usize()?;
                // Each row costs at least a length prefix: an insane
                // count is corruption, not an allocation request.
                if n > dec.remaining() {
                    return Err(ProtoError::Corrupt(format!(
                        "observe batch claims {n} rows but only {} bytes remain",
                        dec.remaining()
                    )));
                }
                if n == 0 {
                    return Err(ProtoError::Corrupt(format!(
                        "observe batch for session {session} carries no rows"
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let row = dec.f64s()?;
                    if row.is_empty() {
                        return Err(ProtoError::Corrupt(format!(
                            "observe batch session {session}: empty row"
                        )));
                    }
                    rows.push(row);
                }
                let deadline_ms = dec.u64()?;
                Frame::ObserveBatch {
                    session,
                    start_step,
                    rows,
                    deadline_ms,
                }
            }
            TAG_DECISION => Frame::Decision {
                session: dec.u64()?,
                label: dec.u64()?,
                prefix_len: dec.u64()?,
                kind: DecisionKind::from_u8(dec.tag()?)?,
            },
            TAG_DECISION_BATCH => {
                let n = dec.usize()?;
                if n > dec.remaining() {
                    return Err(ProtoError::Corrupt(format!(
                        "decision batch claims {n} verdicts but only {} bytes remain",
                        dec.remaining()
                    )));
                }
                if n == 0 {
                    return Err(ProtoError::Corrupt(
                        "decision batch carries no verdicts".to_string(),
                    ));
                }
                let mut decisions = Vec::with_capacity(n);
                for _ in 0..n {
                    decisions.push(BatchDecision {
                        session: dec.u64()?,
                        label: dec.u64()?,
                        prefix_len: dec.u64()?,
                        kind: DecisionKind::from_u8(dec.tag()?)?,
                    });
                }
                Frame::DecisionBatch { decisions }
            }
            TAG_CLOSE => Frame::CloseSession {
                session: dec.u64()?,
            },
            TAG_FEEDBACK => Frame::Feedback {
                session: dec.u64()?,
                label: dec.u64()?,
            },
            TAG_HANDOFF => Frame::Handoff {
                session: dec.u64()?,
                origin: dec.str()?,
                replayed: dec.u64()?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_ERROR => {
                let code = ErrorCode::from_u8(dec.tag()?)?;
                let has_session = dec.bool()?;
                let session = dec.u64()?;
                let message = dec.str()?;
                let retry = if dec.remaining() > 0 {
                    match dec.tag()? {
                        0 => RetryClass::Terminal,
                        1 => RetryClass::Retryable {
                            retry_after_ms: dec.u64()?,
                        },
                        other => {
                            return Err(ProtoError::Corrupt(format!("unknown retry class {other}")))
                        }
                    }
                } else {
                    RetryClass::Terminal
                };
                Frame::Error {
                    code,
                    session: has_session.then_some(session),
                    message,
                    retry,
                }
            }
            other => return Err(ProtoError::UnknownTag(other)),
        };
        if !dec.is_exhausted() && !extensible {
            return Err(ProtoError::Corrupt(format!(
                "{} bytes trailing after {} frame",
                dec.remaining(),
                frame.kind_name()
            )));
        }
        Ok(frame)
    }
}

/// Payload bytes of an `ObserveBatch` besides its rows: tag, session,
/// start step, row count and deadline.
const BATCH_ENVELOPE: usize = 1 + 8 + 8 + 8 + 8;

/// Writes an `Observe` payload (tag + body): the one copy of its
/// layout, shared by [`Frame::Observe`] and the client's borrowed rows.
pub(crate) fn write_observe(
    enc: &mut Encoder,
    session: u64,
    step: u64,
    row: &[f64],
    deadline_ms: u64,
) {
    enc.tag(TAG_OBSERVE);
    enc.u64(session);
    enc.u64(step);
    enc.f64s(row);
    if deadline_ms != 0 {
        enc.u64(deadline_ms);
    }
}

/// Writes an `ObserveBatch` payload (tag + body): the one copy of its
/// layout, shared by [`Frame::ObserveBatch`] and the client's borrowed
/// rows.
pub(crate) fn write_observe_batch(
    enc: &mut Encoder,
    session: u64,
    start_step: u64,
    rows: &[Vec<f64>],
    deadline_ms: u64,
) {
    enc.tag(TAG_OBSERVE_BATCH);
    enc.u64(session);
    enc.u64(start_step);
    enc.f64_rows(rows);
    enc.u64(deadline_ms);
}

/// Rows of `width` values that one `ObserveBatch` payload of at most
/// `max_frame` bytes holds (at least one). Each row costs its 8-byte
/// length prefix and 8 bytes per value.
pub(crate) fn batch_capacity(width: usize, max_frame: usize) -> usize {
    (max_frame.saturating_sub(BATCH_ENVELOPE) / (8 + 8 * width)).max(1)
}

/// Appends one frame's wire image to `wire`: the header, then the
/// payload `body` writes, checksummed in place. On
/// [`ProtoError::TooLarge`] `wire` is left as it was.
pub(crate) fn append_frame(
    wire: &mut Vec<u8>,
    max_frame: usize,
    body: impl FnOnce(&mut Encoder),
) -> Result<(), ProtoError> {
    let start = wire.len();
    let mut enc = Encoder::appending(std::mem::take(wire));
    enc.raw(&[0u8; HEADER_BYTES]);
    body(&mut enc);
    *wire = enc.into_bytes();
    let payload = start + HEADER_BYTES;
    let len = wire.len() - payload;
    if len > max_frame {
        wire.truncate(start);
        return Err(ProtoError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let crc = crc64(&wire[payload..]);
    wire[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    wire[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Encodes a frame into its full wire image (header + payload), in
/// one buffer.
///
/// # Errors
/// [`ProtoError::TooLarge`] when the payload exceeds `max_frame`.
pub fn encode_frame(frame: &Frame, max_frame: usize) -> Result<Vec<u8>, ProtoError> {
    // Room for the header and a small frame; row data reserves its own.
    let mut wire = Vec::with_capacity(64);
    append_frame(&mut wire, max_frame, |enc| frame.encode_body(enc))?;
    Ok(wire)
}

/// Encodes a frame into its full wire image, reusing `buf`'s
/// allocation (header and payload land in one buffer, no copy). The
/// returned vector *is* `buf`, cleared and refilled.
///
/// # Errors
/// [`ProtoError::TooLarge`] when the payload exceeds `max_frame`.
pub fn encode_frame_into(
    frame: &Frame,
    max_frame: usize,
    mut buf: Vec<u8>,
) -> Result<Vec<u8>, ProtoError> {
    buf.clear();
    append_frame(&mut buf, max_frame, |enc| frame.encode_body(enc))?;
    Ok(buf)
}

/// A small stack of recycled encode buffers. The event-loop server
/// encodes every outbound frame through one of these, so a steady
/// connection reaches zero allocations per frame once the pool is
/// warm. Single-threaded by design — each event loop owns its own
/// pool; there is no lock to contend on.
#[derive(Debug)]
pub struct BufferPool {
    bufs: Vec<Vec<u8>>,
    max_pooled: usize,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new(64)
    }
}

impl BufferPool {
    /// A pool holding at most `max_pooled` idle buffers.
    pub fn new(max_pooled: usize) -> BufferPool {
        BufferPool {
            bufs: Vec::new(),
            max_pooled,
        }
    }

    /// A cleared buffer — recycled when one is idle, fresh otherwise.
    pub fn take(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool (dropped when the pool is full or
    /// the buffer ballooned past any sane frame size).
    pub fn give(&mut self, buf: Vec<u8>) {
        if self.bufs.len() < self.max_pooled && buf.capacity() <= MAX_FRAME_BYTES + HEADER_BYTES {
            self.bufs.push(buf);
        }
    }

    /// Encodes `frame` through a recycled buffer — see
    /// [`encode_frame_into`].
    ///
    /// # Errors
    /// [`ProtoError::TooLarge`].
    pub fn encode(&mut self, frame: &Frame, max_frame: usize) -> Result<Vec<u8>, ProtoError> {
        encode_frame_into(frame, max_frame, self.take())
    }

    /// Idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.bufs.len()
    }
}

/// Encodes and writes one frame.
///
/// # Errors
/// [`ProtoError::TooLarge`] / [`ProtoError::Io`].
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, max_frame: usize) -> Result<(), ProtoError> {
    let wire = encode_frame(frame, max_frame)?;
    w.write_all(&wire).map_err(ProtoError::Io)?;
    w.flush().map_err(ProtoError::Io)
}

/// Incremental frame decoder: feed raw bytes in arbitrary chunks, pull
/// complete frames out. Byte-stream reassembly and limits live here so
/// both the server reader threads and the client share one
/// implementation — and so the robustness suite can drive it directly.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder enforcing the given per-frame payload ceiling.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends raw bytes from the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so the buffer stays
        // bounded by one frame plus one read chunk.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Reads one chunk from `r` into the decoder.
    ///
    /// Returns the number of bytes read — 0 means clean EOF. Timeouts
    /// (`WouldBlock`/`TimedOut`) are surfaced as `Io` for the caller's
    /// poll loop to classify.
    ///
    /// # Errors
    /// [`ProtoError::Io`].
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> Result<usize, ProtoError> {
        let mut chunk = [0u8; 8192];
        let n = r.read(&mut chunk).map_err(ProtoError::Io)?;
        self.feed(&chunk[..n]);
        Ok(n)
    }

    /// Pulls the next complete frame, or `None` when more bytes are
    /// needed.
    ///
    /// Recoverable payload errors (checksum mismatch, undecodable
    /// payload) consume the offending frame, so a test harness can keep
    /// scanning; [`ProtoError::TooLarge`] does not — an oversized
    /// length field means framing itself is untrusted and the
    /// connection must be dropped.
    ///
    /// # Errors
    /// [`ProtoError::TooLarge`] / [`ProtoError::Checksum`] /
    /// [`ProtoError::UnknownTag`] / [`ProtoError::Codec`] /
    /// [`ProtoError::Corrupt`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        if self.buffered() < HEADER_BYTES {
            return Ok(None);
        }
        let b = &self.buf[self.start..];
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if len > self.max_frame {
            return Err(ProtoError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        if self.buffered() < HEADER_BYTES + len {
            return Ok(None);
        }
        let expected = u64::from_le_bytes([b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11]]);
        let payload = &b[HEADER_BYTES..HEADER_BYTES + len];
        let got = crc64(payload);
        let result = if got != expected {
            Err(ProtoError::Checksum { expected, got })
        } else {
            Frame::decode_payload(payload).map(Some)
        };
        self.start += HEADER_BYTES + len;
        result
    }

    /// Declares the byte stream over: any bytes still buffered are a
    /// torn frame.
    ///
    /// # Errors
    /// [`ProtoError::Truncated`].
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.buffered() > 0 {
            return Err(ProtoError::Truncated {
                buffered: self.buffered(),
            });
        }
        Ok(())
    }
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure (including read timeouts, which poll loops
    /// classify via [`io::Error::kind`]).
    Io(io::Error),
    /// A frame advertised a payload larger than the negotiated cap.
    TooLarge {
        /// Advertised payload length.
        len: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// Payload bytes did not match the frame checksum.
    Checksum {
        /// CRC carried in the header.
        expected: u64,
        /// CRC computed over the received payload.
        got: u64,
    },
    /// The payload's leading tag names no known frame type.
    UnknownTag(u8),
    /// The payload body was undecodable.
    Codec(CodecError),
    /// The payload decoded but violated protocol invariants.
    Corrupt(String),
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes of the torn frame that did arrive.
        buffered: usize,
    },
    /// Handshake version mismatch.
    Version {
        /// Version the peer announced.
        got: u32,
        /// Version this end speaks.
        want: u32,
    },
    /// The server's handshake announced a minor revision older than
    /// this end needs.
    MinorRevision {
        /// Minor revision the server announced.
        got: u32,
        /// Lowest minor revision this end speaks.
        min: u32,
    },
    /// The connection is gone (clean close where a frame was needed).
    Closed,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Checksum { expected, got } => write!(
                f,
                "frame checksum mismatch: header {expected:#018x}, payload {got:#018x}"
            ),
            ProtoError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            ProtoError::Codec(e) => write!(f, "undecodable frame payload: {e}"),
            ProtoError::Corrupt(detail) => write!(f, "corrupt frame: {detail}"),
            ProtoError::Truncated { buffered } => {
                write!(f, "stream ended mid-frame with {buffered} bytes buffered")
            }
            ProtoError::Version { got, want } => {
                write!(f, "peer speaks protocol v{got}, this end v{want}")
            }
            ProtoError::MinorRevision { got, min } => write!(
                f,
                "server speaks minor revision {got}, this end needs at least {min}"
            ),
            ProtoError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> ProtoError {
        ProtoError::Codec(e)
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::hello("test-client", None),
            Frame::hello(
                "test-server",
                Some(ModelInfo {
                    algo: "ects".into(),
                    dataset: "PowerCons".into(),
                    vars: 1,
                    train_len: 144,
                    batch: 1,
                    prior_label: 0,
                    classes: vec!["warm".into(), "cold".into()],
                    generation: 3,
                }),
            ),
            Frame::open(7, 2, 20, true),
            Frame::OpenSession {
                id: 8,
                vars: 2,
                expected_len: 20,
                resume: false,
                deadline_ms: 250,
                priority: PRIORITY_HIGH,
            },
            Frame::observe(7, 3, vec![1.5, -2.25, f64::NAN]),
            Frame::Observe {
                session: 8,
                step: 1,
                row: vec![0.5],
                deadline_ms: 40,
            },
            Frame::Decision {
                session: 7,
                label: 1,
                prefix_len: 9,
                kind: DecisionKind::DrainForced,
            },
            Frame::CloseSession { session: 7 },
            Frame::Feedback {
                session: 7,
                label: 1,
            },
            Frame::Shutdown,
            Frame::error(ErrorCode::Overloaded, Some(7), "queue full"),
            Frame::error_after(ErrorCode::Overloaded, None, "admission shed", 125),
            Frame::error(ErrorCode::Draining, None, ""),
            Frame::error(ErrorCode::Shutdown, None, "graceful drain"),
            Frame::error(ErrorCode::Expired, Some(9), "deadline lapsed in queue"),
            Frame::Handoff {
                session: 7,
                origin: "127.0.0.1:7971".into(),
                replayed: 42,
            },
            Frame::observe_batch(8, 1, vec![vec![0.5, 1.5], vec![2.5, 3.5]]),
            Frame::ObserveBatch {
                session: 9,
                start_step: 17,
                rows: vec![vec![1.0], vec![f64::NAN], vec![-0.25]],
                deadline_ms: 80,
            },
            Frame::DecisionBatch {
                decisions: vec![
                    BatchDecision {
                        session: 8,
                        label: 1,
                        prefix_len: 2,
                        kind: DecisionKind::Genuine,
                    },
                    BatchDecision {
                        session: 9,
                        label: 0,
                        prefix_len: 3,
                        kind: DecisionKind::DeadlinePrior,
                    },
                ],
            },
        ]
    }

    fn frames_equal(a: &Frame, b: &Frame) -> bool {
        // NaN-tolerant comparison for Observe rows.
        match (a, b) {
            (
                Frame::Observe {
                    session: s1,
                    step: t1,
                    row: r1,
                    deadline_ms: d1,
                },
                Frame::Observe {
                    session: s2,
                    step: t2,
                    row: r2,
                    deadline_ms: d2,
                },
            ) => {
                s1 == s2
                    && t1 == t2
                    && d1 == d2
                    && r1.len() == r2.len()
                    && r1.iter().zip(r2).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (
                Frame::ObserveBatch {
                    session: s1,
                    start_step: t1,
                    rows: r1,
                    deadline_ms: d1,
                },
                Frame::ObserveBatch {
                    session: s2,
                    start_step: t2,
                    rows: r2,
                    deadline_ms: d2,
                },
            ) => {
                s1 == s2
                    && t1 == t2
                    && d1 == d2
                    && r1.len() == r2.len()
                    && r1.iter().zip(r2).all(|(x, y)| {
                        x.len() == y.len()
                            && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                    })
            }
            _ => a == b,
        }
    }

    #[test]
    fn frames_roundtrip_through_decoder_in_single_byte_chunks() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f, MAX_FRAME_BYTES).unwrap());
        }
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut out = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        dec.finish().unwrap();
        assert_eq!(out.len(), frames.len());
        for (a, b) in frames.iter().zip(&out) {
            assert!(frames_equal(a, b), "{a:?} != {b:?}");
        }
    }

    #[test]
    fn checksum_flip_is_detected_and_decoder_resyncs() {
        let f1 = Frame::CloseSession { session: 1 };
        let f2 = Frame::Shutdown;
        let mut wire = encode_frame(&f1, MAX_FRAME_BYTES).unwrap();
        let flip = HEADER_BYTES + 2; // corrupt a payload byte of f1
        wire[flip] ^= 0x40;
        wire.extend_from_slice(&encode_frame(&f2, MAX_FRAME_BYTES).unwrap());
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(ProtoError::Checksum { .. })));
        // The corrupt frame was consumed; the next one still decodes.
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
        dec.finish().unwrap();
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_paths() {
        let big = Frame::Observe {
            session: 1,
            step: 1,
            row: vec![0.0; 1024],
            deadline_ms: 0,
        };
        assert!(matches!(
            encode_frame(&big, 64),
            Err(ProtoError::TooLarge { .. })
        ));
        // A length field beyond the cap is rejected before buffering
        // the advertised payload.
        let mut dec = FrameDecoder::new(64);
        let wire = encode_frame(&big, MAX_FRAME_BYTES).unwrap();
        dec.feed(&wire[..HEADER_BYTES]);
        assert!(matches!(
            dec.next_frame(),
            Err(ProtoError::TooLarge { len: _, max: 64 })
        ));
    }

    #[test]
    fn semantic_invariants_are_enforced() {
        // Unknown tag.
        let mut enc = Encoder::new();
        enc.tag(99);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::UnknownTag(99))
        ));
        // Trailing bytes after a valid frame.
        let mut payload = Frame::Shutdown.encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(ProtoError::Corrupt(_))
        ));
        // Zero-variable open and empty observe rows.
        let mut enc = Encoder::new();
        enc.tag(super::TAG_OPEN);
        enc.u64(1);
        enc.usize(0);
        enc.usize(10);
        enc.bool(false);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));
        let mut enc = Encoder::new();
        enc.tag(super::TAG_OBSERVE);
        enc.u64(1);
        enc.u64(1);
        enc.f64s(&[]);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));
        // Truncated payload body.
        let payload = Frame::CloseSession { session: 9 }.encode_payload();
        assert!(matches!(
            Frame::decode_payload(&payload[..payload.len() - 1]),
            Err(ProtoError::Codec(_))
        ));
    }

    #[test]
    fn unknown_tag_consumes_one_frame_and_the_decoder_keeps_going() {
        // Forward compatibility: a frame tag from a newer protocol
        // revision (here: a fictitious tag 42) must cost exactly one
        // frame, not the connection — the decoder consumes it, reports
        // UnknownTag, and decodes the next frame normally. This is the
        // contract the server relies on to answer unknown frames with
        // a structured Error instead of tearing the connection down.
        let mut enc = Encoder::new();
        enc.tag(42);
        enc.u64(123); // arbitrary body a future peer might send
        let future = enc.into_bytes();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(future.len() as u32).to_le_bytes());
        wire.extend_from_slice(&crc64(&future).to_le_bytes());
        wire.extend_from_slice(&future);
        wire.extend_from_slice(&encode_frame(&Frame::Shutdown, MAX_FRAME_BYTES).unwrap());
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(ProtoError::UnknownTag(42))));
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
        dec.finish().unwrap();
    }

    #[test]
    fn revision0_frames_decode_with_defaults() {
        // A revision-0 peer encodes only the base fields. This decoder
        // must accept them and fill the revision-1 fields with their
        // documented defaults — and a default-valued revision-1 frame
        // must encode byte-identically to revision 0, so old decoders
        // keep parsing it.
        let mut enc = Encoder::new();
        enc.tag(TAG_OPEN);
        enc.u64(7);
        enc.usize(2);
        enc.usize(20);
        enc.bool(true);
        let rev0 = enc.into_bytes();
        assert_eq!(Frame::open(7, 2, 20, true).encode_payload(), rev0);
        assert_eq!(
            Frame::decode_payload(&rev0).unwrap(),
            Frame::open(7, 2, 20, true)
        );

        let mut enc = Encoder::new();
        enc.tag(TAG_OBSERVE);
        enc.u64(7);
        enc.u64(3);
        enc.f64s(&[1.0, 2.0]);
        let rev0 = enc.into_bytes();
        assert_eq!(Frame::observe(7, 3, vec![1.0, 2.0]).encode_payload(), rev0);
        assert_eq!(
            Frame::decode_payload(&rev0).unwrap(),
            Frame::observe(7, 3, vec![1.0, 2.0])
        );

        let mut enc = Encoder::new();
        enc.tag(TAG_ERROR);
        enc.tag(ErrorCode::Internal.to_u8());
        enc.bool(false);
        enc.u64(0);
        enc.str("boom");
        let rev0 = enc.into_bytes();
        assert_eq!(
            Frame::error(ErrorCode::Internal, None, "boom").encode_payload(),
            rev0
        );
        match Frame::decode_payload(&rev0).unwrap() {
            Frame::Error { retry, .. } => assert_eq!(retry, RetryClass::Terminal),
            other => panic!("expected error frame, got {other:?}"),
        }

        let mut enc = Encoder::new();
        enc.tag(TAG_HELLO);
        enc.u64(u64::from(PROTO_VERSION));
        enc.str("legacy");
        enc.bool(false);
        match Frame::decode_payload(&enc.into_bytes()).unwrap() {
            Frame::Hello { minor, .. } => assert_eq!(minor, 0),
            other => panic!("expected hello frame, got {other:?}"),
        }
    }

    #[test]
    fn future_extension_bytes_on_extensible_frames_are_ignored() {
        // A future minor revision may append further optional fields
        // after the revision-1 ones; this decoder must not refuse
        // them. Non-extensible frames stay strict (pinned in
        // semantic_invariants_are_enforced).
        let frames = vec![
            Frame::OpenSession {
                id: 1,
                vars: 1,
                expected_len: 5,
                resume: false,
                deadline_ms: 100,
                priority: PRIORITY_LOW,
            },
            Frame::Observe {
                session: 1,
                step: 1,
                row: vec![1.0],
                deadline_ms: 10,
            },
            Frame::error_after(ErrorCode::Overloaded, None, "shed", 30),
            Frame::hello("future", None),
        ];
        for f in frames {
            let mut payload = f.encode_payload();
            payload.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
            assert_eq!(Frame::decode_payload(&payload).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn old_clients_parse_retry_bearing_errors() {
        // Accept-time shed happens before any Hello exchange, so the
        // server cannot know the client's revision: the retry
        // classification must ride as appended extension bytes with
        // the base fields in their revision-0 positions. A revision-0
        // reader stops after `message` and still gets code + session
        // + message.
        let payload =
            Frame::error_after(ErrorCode::Overloaded, None, "connection cap", 50).encode_payload();
        let mut dec = Decoder::new(&payload);
        assert_eq!(dec.tag().unwrap(), TAG_ERROR);
        assert_eq!(
            ErrorCode::from_u8(dec.tag().unwrap()).unwrap(),
            ErrorCode::Overloaded
        );
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.u64().unwrap(), 0);
        assert_eq!(dec.str().unwrap(), "connection cap");
        // ...and the extension is still there for revision-1 readers.
        match Frame::decode_payload(&payload).unwrap() {
            Frame::Error { retry, .. } => {
                assert_eq!(retry, RetryClass::Retryable { retry_after_ms: 50 });
                assert_eq!(retry.retry_after(), Some(Duration::from_millis(50)));
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn retry_classification_defaults_follow_the_code() {
        assert!(ErrorCode::Overloaded.default_retry().is_retryable());
        assert!(ErrorCode::SessionLimit.default_retry().is_retryable());
        assert!(ErrorCode::Draining.default_retry().is_retryable());
        assert!(!ErrorCode::BadFrame.default_retry().is_retryable());
        assert!(!ErrorCode::Incompatible.default_retry().is_retryable());
        assert!(!ErrorCode::Expired.default_retry().is_retryable());
        assert_eq!(RetryClass::Terminal.retry_after(), None);
    }

    #[test]
    fn batch_frames_are_strict_and_guard_their_counts() {
        // Batch frames are revision-2 *new frame types*, not appended
        // fields: they stay strict, so trailing bytes are corruption.
        let batch = Frame::observe_batch(1, 1, vec![vec![1.0]]);
        let mut payload = batch.encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(ProtoError::Corrupt(_))
        ));
        let mut payload = Frame::DecisionBatch {
            decisions: vec![BatchDecision {
                session: 1,
                label: 0,
                prefix_len: 1,
                kind: DecisionKind::Genuine,
            }],
        }
        .encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(ProtoError::Corrupt(_))
        ));

        // Empty batches carry no information: corruption.
        let mut enc = Encoder::new();
        enc.tag(TAG_OBSERVE_BATCH);
        enc.u64(1);
        enc.u64(1);
        enc.usize(0);
        enc.u64(0);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));
        let mut enc = Encoder::new();
        enc.tag(TAG_DECISION_BATCH);
        enc.usize(0);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));

        // An insane row count is rejected before any allocation.
        let mut enc = Encoder::new();
        enc.tag(TAG_OBSERVE_BATCH);
        enc.u64(1);
        enc.u64(1);
        enc.usize(u32::MAX as usize);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));
        let mut enc = Encoder::new();
        enc.tag(TAG_DECISION_BATCH);
        enc.usize(u32::MAX as usize);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));

        // A batch with an empty row inside is corruption too.
        let mut enc = Encoder::new();
        enc.tag(TAG_OBSERVE_BATCH);
        enc.u64(1);
        enc.u64(1);
        enc.f64_rows(&[vec![1.0], vec![]]);
        enc.u64(0);
        assert!(matches!(
            Frame::decode_payload(&enc.into_bytes()),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn pooled_encode_matches_the_allocating_path() {
        let mut pool = BufferPool::new(8);
        for f in sample_frames() {
            let classic = encode_frame(&f, MAX_FRAME_BYTES).unwrap();
            let pooled = pool.encode(&f, MAX_FRAME_BYTES).unwrap();
            assert_eq!(classic, pooled, "{f:?}");
            pool.give(pooled);
        }
        assert_eq!(pool.idle(), 1, "round-tripped buffers should recycle");
        // TooLarge surfaces through the pooled path as well.
        let big = Frame::observe(1, 1, vec![0.0; 1024]);
        assert!(matches!(
            pool.encode(&big, 64),
            Err(ProtoError::TooLarge { .. })
        ));
    }

    #[test]
    fn one_buffer_encode_is_header_then_checksummed_payload() {
        for f in sample_frames() {
            let payload = f.encode_payload();
            let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&crc64(&payload).to_le_bytes());
            wire.extend_from_slice(&payload);
            assert_eq!(encode_frame(&f, MAX_FRAME_BYTES).unwrap(), wire, "{f:?}");
        }
    }

    /// An observation frame's wire image assembled field by field, with
    /// no encoder: the layout both the borrowed and the owned path must
    /// write.
    fn by_hand(
        batch: bool,
        session: u64,
        step: u64,
        rows: &[Vec<f64>],
        deadline_ms: u64,
    ) -> Vec<u8> {
        let mut p = vec![if batch {
            TAG_OBSERVE_BATCH
        } else {
            TAG_OBSERVE
        }];
        p.extend(session.to_le_bytes());
        p.extend(step.to_le_bytes());
        if batch {
            p.extend((rows.len() as u64).to_le_bytes());
        }
        for row in rows {
            p.extend((row.len() as u64).to_le_bytes());
            for v in row {
                p.extend(v.to_bits().to_le_bytes());
            }
        }
        if batch || deadline_ms != 0 {
            p.extend(deadline_ms.to_le_bytes());
        }
        let mut wire = (p.len() as u32).to_le_bytes().to_vec();
        wire.extend(crc64(&p).to_le_bytes());
        wire.extend(p);
        wire
    }

    #[test]
    fn borrowed_rows_encode_as_the_owned_frames() {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|t| vec![t as f64, -0.0, f64::NAN, f64::INFINITY, 1e-300][..1 + t % 5].to_vec())
            .collect();
        let (mut borrowed, mut owned, mut expected) = (Vec::new(), Vec::new(), Vec::new());
        for deadline_ms in [0, 250] {
            for (t, row) in rows.iter().enumerate() {
                let step = t as u64 + 1;
                append_frame(&mut borrowed, MAX_FRAME_BYTES, |enc| {
                    write_observe(enc, 7, step, row, deadline_ms);
                })
                .unwrap();
                let frame = Frame::Observe {
                    session: 7,
                    step,
                    row: row.clone(),
                    deadline_ms,
                };
                owned.extend(encode_frame(&frame, MAX_FRAME_BYTES).unwrap());
                expected.extend(by_hand(
                    false,
                    7,
                    step,
                    std::slice::from_ref(row),
                    deadline_ms,
                ));
            }
            // Chunks of one row, a few rows and all of them.
            for n in [1, 4, rows.len()] {
                append_frame(&mut borrowed, MAX_FRAME_BYTES, |enc| {
                    write_observe_batch(enc, 7, 3, &rows[..n], deadline_ms);
                })
                .unwrap();
                let frame = Frame::ObserveBatch {
                    session: 7,
                    start_step: 3,
                    rows: rows[..n].to_vec(),
                    deadline_ms,
                };
                owned.extend(encode_frame(&frame, MAX_FRAME_BYTES).unwrap());
                expected.extend(by_hand(true, 7, 3, &rows[..n], deadline_ms));
            }
        }
        // Frames appended back to back are the owned frames' images,
        // concatenated, and both are the hand-assembled layout.
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed, expected);
    }

    #[test]
    fn batch_capacity_is_the_last_row_count_under_the_ceiling() {
        for width in [1, 2, 7, 100, 4096] {
            let cap = batch_capacity(width, MAX_FRAME_BYTES);
            let rows = vec![vec![0.5; width]; cap + 1];
            let mut wire = Vec::new();
            append_frame(&mut wire, MAX_FRAME_BYTES, |enc| {
                write_observe_batch(enc, 1, 1, &rows[..cap], 30);
            })
            .unwrap();
            assert!(
                wire.len() - HEADER_BYTES <= MAX_FRAME_BYTES,
                "width {width}"
            );
            let before = wire.clone();
            let over = append_frame(&mut wire, MAX_FRAME_BYTES, |enc| {
                write_observe_batch(enc, 1, 1, &rows, 30);
            });
            assert!(
                matches!(over, Err(ProtoError::TooLarge { .. })),
                "width {width}: {over:?}"
            );
            assert_eq!(wire, before, "a refused frame leaves the buffer as it was");
        }
        // A row wider than a whole frame still gets a chunk of its own,
        // which its encode then refuses.
        assert_eq!(batch_capacity(MAX_FRAME_BYTES, MAX_FRAME_BYTES), 1);
    }

    #[test]
    fn finish_reports_torn_tail() {
        let wire = encode_frame(&Frame::Shutdown, MAX_FRAME_BYTES).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        dec.feed(&wire[..wire.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(matches!(dec.finish(), Err(ProtoError::Truncated { .. })));
    }
}
