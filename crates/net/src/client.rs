//! Blocking client for the ETSC wire protocol.
//!
//! One [`Client`] owns one TCP connection and multiplexes any number
//! of streaming sessions over it. Observations are written eagerly;
//! decisions are pulled by [`Client::poll`] (non-blocking) or
//! [`Client::wait_decision`] (bounded blocking). When the connection
//! dies mid-stream the client dials again and *resumes*: every
//! session still awaiting its answer is re-opened with `resume = true`
//! and its buffered observations replayed, so a transient disconnect
//! costs latency, not answers. Answered sessions leave that table; the
//! newest [`ANSWER_MEMORY`] answers stay readable, so a client that
//! runs forever holds bounded memory.
//!
//! The client is also where the chaos suite's network faults live:
//! [`Client::inject_torn_frame`] (half a frame, then a hard
//! disconnect), [`Client::inject_loris`] (a frame written byte-dribble
//! slow), and [`Client::inject_disconnect`] (drop the connection with
//! a session still open) exercise exactly the failure modes the
//! server's decoder, idle guard, and abandon accounting must contain.

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use etsc_data::Encoder;

use crate::options::ClientBuilder;
use crate::poll::DontWait;
use crate::proto::{
    append_frame, batch_capacity, encode_frame, write_observe, write_observe_batch, DecisionKind,
    ErrorCode, Frame, FrameDecoder, ModelInfo, ProtoError, RetryClass, BATCH_MINOR,
    MAX_FRAME_BYTES, PRIORITY_NORMAL, PROTO_VERSION,
};
use crate::record::Record;

/// Read-timeout granularity for the blocking pump: short enough that
/// bounded waits stay responsive, long enough not to spin.
const READ_POLL: Duration = Duration::from_millis(25);

/// Peer identification this client sends in the handshake.
const AGENT: &str = "etsc-net-client";

/// Budget for the `Hello` exchange.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Redials attempted per broken connection before giving up.
const RECONNECT_ATTEMPTS: usize = 3;

/// Pause before the second dial; later attempts double it, up to
/// [`RECONNECT_BACKOFF_CAP`], and add seeded jitter so a fleet of
/// clients orphaned by one shard death does not thundering-herd the
/// takeover shard.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

/// Ceiling on the exponential portion of the backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Each pause is stretched by up to `1 + RECONNECT_JITTER`.
const RECONNECT_JITTER: f64 = 0.5;

/// Answers a [`Client`] keeps readable: the newest this many sessions'
/// decisions or errors. An older answer reads like an unknown id (see
/// [`Client::outcome`]). The same bound holds the ids a retried
/// session left behind.
pub const ANSWER_MEMORY: usize = 4096;

/// A process-unique jitter seed per client, so concurrent clients
/// spread out without any shared clock.
fn next_jitter_seed() -> u64 {
    static NEXT_SEED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT_SEED.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// SplitMix64: a tiny, high-quality bit mixer. The client uses it for
/// backoff jitter; the router reuses it for ring hashing. No `rand`
/// dependency needed — determinism from the seed is the whole point.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from 53 bits of `splitmix64(x)`.
fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The pause before redial `attempt` (1-based): exponential from
/// [`RECONNECT_BACKOFF`], capped at [`RECONNECT_BACKOFF_CAP`],
/// stretched by up to `1 + RECONNECT_JITTER` using a uniform draw
/// seeded from `jitter_seed ^ attempt`. Deterministic per (seed,
/// attempt); two clients with different seeds spread apart.
fn reconnect_delay(jitter_seed: u64, attempt: usize) -> Duration {
    let attempt = attempt.max(1);
    let exp = RECONNECT_BACKOFF
        .saturating_mul(1u32 << (attempt - 1).min(20))
        .min(RECONNECT_BACKOFF_CAP);
    let u = unit(jitter_seed ^ (attempt as u64).wrapping_mul(0xA5A5_A5A5));
    exp.mul_f64(1.0 + RECONNECT_JITTER * u)
}

/// A committed verdict as seen from the client side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Dense class label.
    pub label: usize,
    /// Prefix length the server committed at.
    pub prefix_len: usize,
    /// Genuine trigger, or a decision forced by a deadline or a drain.
    pub kind: DecisionKind,
    /// End-to-end latency: decision arrival minus the send time of the
    /// observation that triggered it.
    pub latency: Duration,
}

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Wire-protocol or socket failure.
    Proto(ProtoError),
    /// Connection-fatal error frame from the server.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Whether (and roughly when) retrying can succeed.
        retry: RetryClass,
    },
    /// A single session died server-side.
    SessionFailed {
        /// The session that died.
        session: u64,
        /// The server's explanation.
        message: String,
    },
    /// A bounded wait elapsed.
    Timeout(String),
    /// The connection is gone and could not be re-established.
    Closed(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Proto(e) => write!(f, "protocol error: {e}"),
            NetError::Server { code, message, .. } => write!(f, "server error [{code}]: {message}"),
            NetError::SessionFailed { session, message } => {
                write!(f, "session {session} failed: {message}")
            }
            NetError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            NetError::Closed(why) => write!(f, "connection closed: {why}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> NetError {
        NetError::Proto(e)
    }
}

/// Client-side fault and recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful redials (resume replays included).
    pub reconnects: u64,
    /// Torn frames deliberately injected.
    pub torn_frames: u64,
    /// Hard disconnects deliberately injected.
    pub forced_disconnects: u64,
    /// Slow-loris stalls deliberately injected.
    pub loris_stalls: u64,
    /// Sessions automatically re-opened after a retryable refusal.
    pub session_retries: u64,
}

/// One sent row: where its values end in [`SessionState::values`],
/// and when it was sent.
struct SentRow {
    end: usize,
    at: Instant,
}

/// A session that has no answer yet: what a resume replays.
struct SessionState {
    expected_len: usize,
    /// Every row sent so far, back to back.
    values: Vec<f64>,
    /// One entry per row sent, in step order.
    rows: Vec<SentRow>,
    /// Automatic re-opens already spent on this logical session.
    retries: u32,
}

impl SessionState {
    fn new(expected_len: usize) -> SessionState {
        SessionState {
            expected_len,
            values: Vec::new(),
            rows: Vec::new(),
            retries: 0,
        }
    }

    /// Buffers `row`, sent at `at`, for replay; returns its 1-based
    /// step.
    fn push(&mut self, row: &[f64], at: Instant) -> u64 {
        self.values.extend_from_slice(row);
        self.rows.push(SentRow {
            end: self.values.len(),
            at,
        });
        self.rows.len() as u64
    }

    /// The rows sent so far, in step order.
    fn sent(&self) -> impl Iterator<Item = &[f64]> {
        let mut start = 0;
        self.rows.iter().map(move |r| {
            let row = &self.values[start..r.end];
            start = r.end;
            row
        })
    }

    /// Appends the frames that open this session as `id` and resend
    /// every buffered row: what a retry (`resume = false`) or a
    /// reconnect (`resume = true`) writes.
    fn append_replay(
        &self,
        wire: &mut Vec<u8>,
        id: u64,
        resume: bool,
        vars: usize,
        config: &ClientBuilder,
    ) -> Result<(), ProtoError> {
        let open = Frame::OpenSession {
            id,
            vars,
            expected_len: self.expected_len,
            resume,
            deadline_ms: config.deadline_ms,
            priority: PRIORITY_NORMAL,
        };
        append_frame(wire, MAX_FRAME_BYTES, |enc| open.encode_body(enc))?;
        for (i, row) in self.sent().enumerate() {
            append_frame(wire, MAX_FRAME_BYTES, |enc| {
                write_observe(enc, id, i as u64 + 1, row, config.observe_deadline_ms);
            })?;
        }
        Ok(())
    }
}

/// A blocking connection to an [`crate::server::NetServer`],
/// multiplexing many sessions.
pub struct Client {
    addr: String,
    config: ClientBuilder,
    /// Seeds the backoff and retry-hint jitter.
    jitter_seed: u64,
    stream: TcpStream,
    dec: FrameDecoder,
    /// The wire image of the frame being sent, reused from frame to
    /// frame.
    wire: Vec<u8>,
    meta: ModelInfo,
    /// Sessions awaiting their answer; an answered one moves to
    /// `answers`.
    sessions: HashMap<u64, SessionState>,
    /// The newest [`ANSWER_MEMORY`] answers: a decision, or the
    /// server's error message.
    answers: Record<Result<Decision, String>>,
    /// Refused-then-retried session ids, mapped to their replacement
    /// (the newest [`ANSWER_MEMORY`]). Late frames for the refused id
    /// stop resolving to a session; callers holding the original id
    /// are followed to the live one.
    aliases: Record<u64>,
    next_id: u64,
    /// Connection-level retryable errors already answered with a
    /// backoff + reconnect.
    conn_retries: u32,
    draining: bool,
    closed: bool,
    stats: ClientStats,
}

impl Client {
    /// Dials `addr` and performs the Hello exchange; reached through
    /// [`crate::Endpoint::connect`]. Retryable refusals (accept-time
    /// shed, draining) are redialled up to the builder's connect retry
    /// budget, honouring the server's `retry_after_ms` hint under the
    /// usual seeded jitter.
    pub(crate) fn connect(addr: &str, config: ClientBuilder) -> Result<Client, NetError> {
        let jitter_seed = next_jitter_seed();
        let mut attempt: u32 = 0;
        let (stream, dec, meta) = loop {
            match dial(addr, AGENT, HANDSHAKE_TIMEOUT) {
                Ok(x) => break x,
                Err(NetError::Server {
                    code,
                    message,
                    retry,
                }) => {
                    if !retry.is_retryable() || attempt >= config.connect_retry_budget {
                        return Err(NetError::Server {
                            code,
                            message,
                            retry,
                        });
                    }
                    attempt += 1;
                    let hint = retry.retry_after().unwrap_or_default();
                    std::thread::sleep(hint.max(reconnect_delay(jitter_seed, attempt as usize)));
                }
                Err(e) => return Err(e),
            }
        };
        Ok(Client {
            addr: addr.to_string(),
            config,
            jitter_seed,
            stream,
            dec,
            wire: Vec::new(),
            meta,
            sessions: HashMap::new(),
            answers: Record::new(ANSWER_MEMORY),
            aliases: Record::new(ANSWER_MEMORY),
            next_id: 1,
            conn_retries: 0,
            draining: false,
            closed: false,
            stats: ClientStats::default(),
        })
    }

    /// Follows the alias chain from a caller-held session id to the id
    /// currently live on the wire (identity for never-retried ids).
    fn resolve(&self, id: u64) -> u64 {
        if self.aliases.is_empty() {
            return id;
        }
        let mut cur = id;
        // The chain is acyclic by construction (aliases always point at
        // strictly newer ids); the bound is sheer paranoia.
        for _ in 0..64 {
            match self.aliases.get(cur) {
                Some(&next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Shape of the model this server is exposing.
    pub fn meta(&self) -> &ModelInfo {
        &self.meta
    }

    /// Fault and recovery counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// `true` once the server announced a drain.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Opens a streaming session of `expected_len` observations,
    /// returning its id.
    ///
    /// # Errors
    /// [`NetError::Closed`] when the connection is gone for good.
    pub fn open_session(&mut self, expected_len: usize) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let expected_len = expected_len.max(1);
        self.sessions.insert(id, SessionState::new(expected_len));
        let open = Frame::OpenSession {
            id,
            vars: self.meta.vars,
            expected_len,
            resume: false,
            deadline_ms: self.config.deadline_ms,
            priority: PRIORITY_NORMAL,
        };
        // After a broken write, the reconnect's replay re-opened it.
        self.write_frame(|enc| open.encode_body(enc))?;
        Ok(id)
    }

    /// Sends one observation row for session `id`. A no-op once the
    /// session has an outcome.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn observe(&mut self, id: u64, row: &[f64]) -> Result<(), NetError> {
        let id = self.resolve(id);
        let Some(state) = self.sessions.get_mut(&id) else {
            return Ok(());
        };
        let step = state.push(row, Instant::now());
        let deadline_ms = self.config.observe_deadline_ms;
        // After a broken write, the reconnect's replay resent the row.
        self.write_frame(|enc| write_observe(enc, id, step, row, deadline_ms))?;
        Ok(())
    }

    /// Sends many observation rows for session `id` in one shot,
    /// coalesced into `ObserveBatch` frames (chunked so each frame
    /// stays under [`MAX_FRAME_BYTES`]). Every row is buffered for
    /// replay individually — a reconnect mid-batch resumes row by row,
    /// and sends nothing after the replay.
    /// A no-op once the session has an outcome.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn observe_batch(&mut self, id: u64, rows: &[Vec<f64>]) -> Result<(), NetError> {
        if rows.is_empty() {
            return Ok(());
        }
        let id = self.resolve(id);
        let Some(state) = self.sessions.get_mut(&id) else {
            return Ok(());
        };
        let now = Instant::now();
        let start_step = state.rows.len() as u64 + 1;
        for row in rows {
            state.push(row, now);
        }
        // Rows per frame, sized by the widest row's encoding.
        let width = rows.iter().map(Vec::len).max().unwrap_or(0);
        let per_frame = batch_capacity(width, MAX_FRAME_BYTES);
        let deadline_ms = self.config.observe_deadline_ms;
        for (k, chunk) in rows.chunks(per_frame).enumerate() {
            let start = start_step + (k * per_frame) as u64;
            if self.write_frame(|enc| write_observe_batch(enc, id, start, chunk, deadline_ms))? {
                // The reconnect's replay resent every buffered row,
                // this batch's included.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Drains every frame the server has already sent, without
    /// blocking.
    ///
    /// # Errors
    /// [`NetError::Server`] on a connection-fatal error frame,
    /// [`NetError::Closed`] when an EOF could not be healed by
    /// reconnecting.
    pub fn poll(&mut self) -> Result<(), NetError> {
        self.pump_available()
    }

    /// The session's outcome, if it arrived: the decision, or the
    /// server's error message.
    ///
    /// Answers are kept for the newest [`ANSWER_MEMORY`] sessions
    /// answered on this client, however long ago the caller last
    /// looked: read an answer before that many later sessions are
    /// answered. An older answer is forgotten and reads like an
    /// unknown id: `None` here, [`NetError::Closed`] from
    /// [`Client::wait_decision`].
    pub fn outcome(&self, id: u64) -> Option<&Result<Decision, String>> {
        self.answers.get(self.resolve(id))
    }

    /// Blocks (bounded by `timeout`) until session `id` has an
    /// outcome. Reads the same answers as [`Client::outcome`], so an
    /// answer older than the newest [`ANSWER_MEMORY`] is gone.
    ///
    /// # Errors
    /// [`NetError::SessionFailed`] when the server answered with an
    /// error, [`NetError::Timeout`] when nothing arrived in time,
    /// [`NetError::Closed`] when the server drained or the connection
    /// died without answering, or when `id` is neither awaiting an
    /// answer nor among the answers kept (never opened, abandoned, or
    /// answered too long ago).
    pub fn wait_decision(&mut self, id: u64, timeout: Duration) -> Result<Decision, NetError> {
        let started = Instant::now();
        loop {
            // Re-resolve every lap: a retryable refusal handled during
            // the pump below remaps the session to a fresh id.
            let cur = self.resolve(id);
            match self.answers.get(cur) {
                Some(Ok(d)) => return Ok(*d),
                Some(Err(message)) => {
                    return Err(NetError::SessionFailed {
                        session: id,
                        message: message.clone(),
                    })
                }
                None => {}
            }
            if !self.sessions.contains_key(&cur) {
                return Err(NetError::Closed(format!(
                    "session {id} is not open and has no answer on record"
                )));
            }
            if self.closed {
                return Err(NetError::Closed(
                    "connection gone before a decision arrived".to_string(),
                ));
            }
            if self.draining && self.dec.buffered() == 0 {
                // Drain verdicts precede the Shutdown frame, so a
                // missing outcome now will never arrive.
                return Err(NetError::Closed(
                    "server drained without answering".to_string(),
                ));
            }
            if started.elapsed() > timeout {
                return Err(NetError::Timeout(format!("decision for session {id}")));
            }
            self.pump_blocking_once()?;
        }
    }

    /// Abandons a session before its decision.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn close_session(&mut self, id: u64) -> Result<(), NetError> {
        let id = self.resolve(id);
        if self.sessions.remove(&id).is_some() {
            self.send(&Frame::CloseSession { session: id })?;
        }
        Ok(())
    }

    /// Reports the ground-truth label for a decided session so the
    /// server can grade its call and feed online adaptation. Advisory:
    /// the server replies with a structured error (not a teardown) if
    /// it no longer remembers the session.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn feedback(&mut self, id: u64, label: usize) -> Result<(), NetError> {
        let id = self.resolve(id);
        self.send(&Frame::Feedback {
            session: id,
            label: label as u64,
        })
    }

    /// Asks the server to drain gracefully.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.send(&Frame::Shutdown)
    }

    /// Waits (bounded) until the server's `Shutdown` frame — i.e. its
    /// drain finished — or the connection closes.
    ///
    /// # Errors
    /// [`NetError::Timeout`].
    pub fn wait_drain(&mut self, timeout: Duration) -> Result<(), NetError> {
        let started = Instant::now();
        while !self.draining && !self.closed {
            if started.elapsed() > timeout {
                return Err(NetError::Timeout("server drain".to_string()));
            }
            self.pump_blocking_once()?;
        }
        Ok(())
    }

    // -- fault-injection hooks (chaos + loadgen) ----------------------

    /// Writes *half* an `Observe` frame, then hard-disconnects and
    /// reconnects with resume. The row is not buffered — the torn
    /// frame never existed as far as replay is concerned; deliver it
    /// with a normal [`Client::observe`] afterwards.
    ///
    /// # Errors
    /// [`NetError::Closed`] when the reconnect fails.
    pub fn inject_torn_frame(&mut self, id: u64, row: &[f64]) -> Result<(), NetError> {
        let step = self
            .sessions
            .get(&id)
            .map(|s| s.rows.len() as u64 + 1)
            .unwrap_or(1);
        let deadline_ms = self.config.observe_deadline_ms;
        let mut wire = Vec::new();
        append_frame(&mut wire, MAX_FRAME_BYTES, |enc| {
            write_observe(enc, id, step, row, deadline_ms);
        })?;
        let half = wire.len() / 2;
        let _ = self.stream.write_all(&wire[..half]);
        let _ = self.stream.flush();
        self.stats.torn_frames += 1;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.reconnect()
    }

    /// Drops the connection with session `id` still open and *not*
    /// resumed — the server must account it as abandoned. Every other
    /// undecided session is resumed on the new connection.
    ///
    /// # Errors
    /// [`NetError::Closed`] when the reconnect fails.
    pub fn inject_disconnect(&mut self, id: u64) -> Result<(), NetError> {
        self.sessions.remove(&id);
        self.stats.forced_disconnects += 1;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.reconnect()
    }

    /// Sends a real observation slow-loris style: half the frame, a
    /// stall, then the rest. The server's idle guard must tolerate
    /// stalls below its idle budget and the row must still count.
    ///
    /// # Errors
    /// [`NetError::Closed`] / [`NetError::Proto`].
    pub fn inject_loris(&mut self, id: u64, row: &[f64], stall: Duration) -> Result<(), NetError> {
        let Some(state) = self.sessions.get_mut(&id) else {
            return Ok(());
        };
        let step = state.push(row, Instant::now());
        let deadline_ms = self.config.observe_deadline_ms;
        let mut wire = Vec::new();
        append_frame(&mut wire, MAX_FRAME_BYTES, |enc| {
            write_observe(enc, id, step, row, deadline_ms);
        })?;
        self.stats.loris_stalls += 1;
        let half = (wire.len() / 2).max(1);
        let write = (|| -> std::io::Result<()> {
            self.stream.write_all(&wire[..half])?;
            self.stream.flush()?;
            std::thread::sleep(stall);
            self.stream.write_all(&wire[half..])?;
            self.stream.flush()
        })();
        match write {
            Ok(()) => Ok(()),
            // The row is buffered, so a reconnect replays it.
            Err(_) => self.reconnect(),
        }
    }

    // -- internals ----------------------------------------------------

    /// Writes `self.wire`. A broken write heals the connection:
    /// [`Client::reconnect`] re-opens every session awaiting its answer
    /// and resends its buffered rows. Returns whether it did, in which
    /// case `self.wire` was not delivered.
    fn write_wire(&mut self) -> Result<bool, NetError> {
        if self.closed {
            return Err(NetError::Closed("client already closed".to_string()));
        }
        if self
            .stream
            .write_all(&self.wire)
            .and_then(|()| self.stream.flush())
            .is_ok()
        {
            return Ok(false);
        }
        self.reconnect()?;
        Ok(true)
    }

    /// Encodes one frame, whose payload `body` writes, into the reused
    /// buffer and writes it; see [`Client::write_wire`].
    fn write_frame(&mut self, body: impl FnOnce(&mut Encoder)) -> Result<bool, NetError> {
        self.wire.clear();
        append_frame(&mut self.wire, MAX_FRAME_BYTES, body)?;
        self.write_wire()
    }

    /// Sends a frame that no replay covers (close, feedback, shutdown):
    /// after a reconnect it is written once more.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        if self.write_frame(|enc| frame.encode_body(enc))? {
            self.stream
                .write_all(&self.wire)
                .and_then(|()| self.stream.flush())
                .map_err(|e| NetError::Closed(format!("resend after reconnect: {e}")))?;
        }
        Ok(())
    }

    fn pump_available(&mut self) -> Result<(), NetError> {
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => self.dispatch(frame)?,
                Ok(None) => match self.dec.read_from(&mut DontWait(&self.stream)) {
                    Ok(0) => return self.on_eof(),
                    Ok(_) => {}
                    Err(ProtoError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(())
                    }
                    Err(e) => return Err(e.into()),
                },
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One bounded read (the [`READ_POLL`] granularity), then dispatch
    /// whatever arrived.
    fn pump_blocking_once(&mut self) -> Result<(), NetError> {
        match self.dec.read_from(&mut self.stream) {
            Ok(0) => self.on_eof()?,
            Ok(_) => {}
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e.into()),
        }
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => self.dispatch(frame)?,
                Ok(None) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn on_eof(&mut self) -> Result<(), NetError> {
        if self.draining {
            self.closed = true;
            return Ok(());
        }
        self.reconnect()
    }

    fn dispatch(&mut self, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::Decision {
                session,
                label,
                prefix_len,
                kind,
            } => {
                self.on_decision(session, label, prefix_len, kind);
                Ok(())
            }
            Frame::DecisionBatch { decisions } => {
                for d in decisions {
                    self.on_decision(d.session, d.label, d.prefix_len, d.kind);
                }
                Ok(())
            }
            Frame::Error {
                code,
                session: Some(id),
                message,
                retry,
            } => {
                let retryable = self
                    .sessions
                    .get(&id)
                    .is_some_and(|s| s.retries < self.config.open_retry_budget)
                    && retry.is_retryable();
                if retryable {
                    // A refused-but-retryable session (session cap,
                    // overload) re-opens under a fresh id after the
                    // server's hinted pause. Late errors for the old id
                    // no longer resolve to anything.
                    return self.retry_session(id, retry.retry_after().unwrap_or_default());
                }
                // First outcome wins: only a session still awaiting its
                // answer takes one, so an advisory error answering late
                // feedback never clobbers a real decision.
                if self.sessions.remove(&id).is_some() {
                    self.answers.insert(id, Err(format!("[{code}] {message}")));
                }
                Ok(())
            }
            Frame::Error {
                code: ErrorCode::Shutdown,
                session: None,
                ..
            } => {
                // Planned drain, not a failure: the Shutdown frame (and
                // the drain verdicts) precede or follow on this same
                // stream. Mark the drain so a reconnect is not attempted.
                self.draining = true;
                Ok(())
            }
            Frame::Error {
                code,
                session: None,
                message,
                retry,
            } => {
                if retry.is_retryable() && self.conn_retries < self.config.connect_retry_budget {
                    // Connection-level overload: honour the hint, then
                    // heal the connection (resuming open sessions)
                    // instead of surfacing a fatal error.
                    self.conn_retries += 1;
                    std::thread::sleep(self.jittered(retry.retry_after().unwrap_or_default()));
                    return self.reconnect();
                }
                Err(NetError::Server {
                    code,
                    message,
                    retry,
                })
            }
            Frame::Shutdown => {
                self.draining = true;
                Ok(())
            }
            // Duplicate Hello or client-only frames: ignore.
            _ => Ok(()),
        }
    }

    /// Commits one verdict (single frame or batch member) against its
    /// session: compute end-to-end latency from the triggering
    /// observation's send time, then move the session from the ones
    /// awaiting an answer (and its replay buffer) to the answers.
    fn on_decision(&mut self, session: u64, label: u64, prefix_len: u64, kind: DecisionKind) {
        if let Some(state) = self.sessions.remove(&session) {
            let trigger = (prefix_len as usize)
                .saturating_sub(1)
                .min(state.rows.len().saturating_sub(1));
            let latency = state
                .rows
                .get(trigger)
                .map(|r| r.at.elapsed())
                .unwrap_or_default();
            self.answers.insert(
                session,
                Ok(Decision {
                    label: label as usize,
                    prefix_len: prefix_len as usize,
                    kind,
                    latency,
                }),
            );
        }
    }

    /// The duration stretched by up to `1 + RECONNECT_JITTER` (seeded,
    /// deterministic), floored at 1ms and capped at 5s — the pause
    /// before acting on a server's `retry_after_ms` hint.
    fn jittered(&self, hint: Duration) -> Duration {
        let u = unit(self.jitter_seed ^ self.next_id);
        hint.max(Duration::from_millis(1))
            .mul_f64(1.0 + RECONNECT_JITTER * u)
            .min(Duration::from_secs(5))
    }

    /// Re-opens a refused session under a fresh id after the server's
    /// hinted pause, replaying anything already sent. The refused id
    /// becomes an alias of the new one, so stale errors referencing it
    /// fall on the floor while callers keep their handle.
    fn retry_session(&mut self, old: u64, hint: Duration) -> Result<(), NetError> {
        let Some(mut state) = self.sessions.remove(&old) else {
            return Ok(());
        };
        state.retries += 1;
        self.stats.session_retries += 1;
        let new = self.next_id;
        self.next_id += 1;
        self.aliases.insert(old, new);
        std::thread::sleep(self.jittered(hint));
        let now = Instant::now();
        for row in &mut state.rows {
            row.at = now;
        }
        self.wire.clear();
        state.append_replay(&mut self.wire, new, false, self.meta.vars, &self.config)?;
        self.sessions.insert(new, state);
        // After a broken write, the reconnect's replay re-opened it.
        self.write_wire()?;
        Ok(())
    }

    /// Dials again and resumes every session awaiting its answer by
    /// re-opening it with `resume = true` and replaying its buffered
    /// rows.
    fn reconnect(&mut self) -> Result<(), NetError> {
        if self.draining {
            self.closed = true;
            return Err(NetError::Closed("server is draining".to_string()));
        }
        let mut last = String::new();
        for attempt in 0..RECONNECT_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(reconnect_delay(self.jitter_seed, attempt));
            }
            let (mut stream, dec, _meta) = match dial(&self.addr, AGENT, HANDSHAKE_TIMEOUT) {
                Ok(x) => x,
                Err(e) => {
                    last = e.to_string();
                    continue;
                }
            };
            match self.replay_sessions(&mut stream) {
                Ok(()) => {
                    self.stream = stream;
                    self.dec = dec;
                    self.stats.reconnects += 1;
                    return Ok(());
                }
                Err(e) => {
                    last = e.to_string();
                    continue;
                }
            }
        }
        self.closed = true;
        Err(NetError::Closed(format!(
            "reconnect to {} failed: {last}",
            self.addr
        )))
    }

    fn replay_sessions(&mut self, stream: &mut TcpStream) -> Result<(), ProtoError> {
        let now = Instant::now();
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        // Its own buffer: `self.wire` may hold the frame whose broken
        // write led here.
        let mut wire = Vec::new();
        for id in ids {
            let Some(state) = self.sessions.get_mut(&id) else {
                continue;
            };
            wire.clear();
            state.append_replay(&mut wire, id, true, self.meta.vars, &self.config)?;
            stream.write_all(&wire).map_err(ProtoError::Io)?;
            // Latency for replayed rows restarts at the replay — the
            // disconnect's cost shows up in the tail, as it should.
            for row in &mut state.rows {
                row.at = now;
            }
        }
        stream.flush().map_err(ProtoError::Io)
    }
}

/// Dial + Hello exchange as `agent`, bounded by `handshake_timeout`.
/// Returns the connected stream (read timeout armed), its decoder, and
/// the server's model info. A server below wire revision
/// [`BATCH_MINOR`] is refused with [`ProtoError::MinorRevision`]: this
/// end always speaks batch frames. Shared with the router, whose health
/// probes and upstream connections speak the same handshake.
pub(crate) fn dial(
    addr: &str,
    agent: &str,
    handshake_timeout: Duration,
) -> Result<(TcpStream, FrameDecoder, ModelInfo), NetError> {
    let mut stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
    stream.set_nodelay(true).map_err(ProtoError::Io)?;
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(ProtoError::Io)?;
    let hello = encode_frame(&Frame::hello(agent, None), MAX_FRAME_BYTES)?;
    stream
        .write_all(&hello)
        .and_then(|()| stream.flush())
        .map_err(ProtoError::Io)?;
    let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
    let started = Instant::now();
    loop {
        if let Some(frame) = dec.next_frame()? {
            match frame {
                Frame::Hello {
                    version,
                    minor,
                    meta,
                    ..
                } => {
                    if version != PROTO_VERSION {
                        return Err(ProtoError::Version {
                            got: version,
                            want: PROTO_VERSION,
                        }
                        .into());
                    }
                    if minor < BATCH_MINOR {
                        return Err(ProtoError::MinorRevision {
                            got: minor,
                            min: BATCH_MINOR,
                        }
                        .into());
                    }
                    let Some(meta) = meta else {
                        return Err(ProtoError::Corrupt(
                            "server hello carried no model info".to_string(),
                        )
                        .into());
                    };
                    return Ok((stream, dec, meta));
                }
                Frame::Error {
                    code,
                    message,
                    retry,
                    ..
                } => {
                    return Err(NetError::Server {
                        code,
                        message,
                        retry,
                    });
                }
                other => {
                    return Err(ProtoError::Corrupt(format!(
                        "expected hello, got {} frame",
                        other.kind_name()
                    ))
                    .into());
                }
            }
        }
        if started.elapsed() > handshake_timeout {
            return Err(NetError::Timeout("server hello".to_string()));
        }
        match dec.read_from(&mut stream) {
            Ok(0) => return Err(ProtoError::Closed.into()),
            Ok(_) => {}
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential_within_jitter_bounds() {
        for seed in 0..64u64 {
            for attempt in 1..=10usize {
                let exp = RECONNECT_BACKOFF
                    .saturating_mul(1u32 << (attempt as u32 - 1))
                    .min(RECONNECT_BACKOFF_CAP);
                let d = reconnect_delay(seed, attempt);
                assert!(
                    d >= exp && d <= exp.mul_f64(1.0 + RECONNECT_JITTER),
                    "seed {seed} attempt {attempt}: {d:?} outside [{exp:?}, {:?}]",
                    exp.mul_f64(1.0 + RECONNECT_JITTER)
                );
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_spreads_across_seeds() {
        assert_eq!(reconnect_delay(7, 3), reconnect_delay(7, 3));
        // Distinct seeds must not collapse onto one schedule — that
        // would reintroduce the thundering herd the jitter prevents.
        let delays: std::collections::HashSet<Duration> =
            (0..32u64).map(|s| reconnect_delay(s, 1)).collect();
        assert!(
            delays.len() > 16,
            "only {} distinct first-attempt delays from 32 seeds",
            delays.len()
        );
        assert_ne!(next_jitter_seed(), next_jitter_seed());
    }
}
