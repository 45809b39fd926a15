//! Event-driven TCP server bridging the wire protocol into the
//! `etsc-serve` session machinery.
//!
//! Thread model: a small fixed pool of event-loop threads, each owning
//! a [`Poller`] (epoll) and a share of the connections. Loop 0 also
//! owns the listener; accepted sockets are dealt round-robin to the
//! loops through per-loop inboxes plus a poller wake. Every socket is
//! nonblocking: reads pump the frame decoder until `WouldBlock`,
//! writes drain a per-connection outbound queue with vectored writes,
//! arming `EPOLLOUT` only while bytes are pending. A full queue pauses
//! the connection's *reads* until it drains below its cap (lossless,
//! bounded by what was already read). Each connection keeps its
//! sessions in an [`etsc_serve::SessionTable`], the table replay
//! evaluates through too: deadlines (a missed one forces the session's
//! decision on its observed prefix), seeded panic/delay injection and
//! panic containment are the table's. The server adds the network
//! concerns: connection caps with accept-time shedding, a slow-loris
//! idle guard, propagated-deadline expiry, rev-2
//! `ObserveBatch`/`DecisionBatch` pipelining for peers that negotiated
//! it, and a graceful drain that force-decides in-flight sessions
//! before the socket closes.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etsc_adapt::FeedbackEvent;
use etsc_core::{EarlyPrediction, EtscError};
use etsc_eval::experiment::RunConfig;
use etsc_eval::faults::FaultSchedule;
use etsc_obs::{Counter, HistogramHandle, MetricsRegistry};
use etsc_serve::{SessionTable, Step, StoredModel};

use crate::options::ServerBuilder;
use crate::poll::{Event, Poller, WAKE_TOKEN};
use crate::proto::{
    encode_frame, BatchDecision, BufferPool, DecisionKind, ErrorCode, Frame, FrameDecoder,
    ModelInfo, ProtoError, BATCH_MINOR, MAX_FRAME_BYTES, PROTO_MINOR, PROTO_VERSION,
};
use crate::record::Record;

/// Poller token reserved for the listener (loop 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Decisions per `DecisionBatch` frame — keeps the frame comfortably
/// under [`MAX_FRAME_BYTES`] while still coalescing writes.
const MAX_DECISIONS_PER_BATCH: usize = 512;

/// Silence budget per connection: the slow-loris guard.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Resolves [`ServerBuilder::event_loop_threads`]: explicit when
/// nonzero, otherwise one loop per available core capped at four — the
/// loops multiplex sockets, they do not need to scale with load.
fn resolve_event_loops(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map_or(2, std::num::NonZeroUsize::get)
            .clamp(1, 4)
    }
}

/// Monotonic counters snapshotted by [`NetServer::stats`] and returned
/// by [`NetServer::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections refused at accept time (cap reached or draining).
    pub connections_shed: u64,
    /// Connections fully closed.
    pub connections_closed: u64,
    /// Fresh sessions opened.
    pub sessions_opened: u64,
    /// Sessions re-opened by a reconnecting client.
    pub sessions_resumed: u64,
    /// Sessions answered with a decision (including drain verdicts).
    pub sessions_decided: u64,
    /// Sessions that died to an evaluation error or worker panic.
    pub sessions_failed: u64,
    /// Sessions abandoned by the client (close frame, disconnect, or
    /// a fatal connection error).
    pub sessions_abandoned: u64,
    /// Subset of decided sessions answered by the graceful drain.
    pub drain_decisions: u64,
    /// Frames decoded off the wire.
    pub frames_read: u64,
    /// Frames written to the wire.
    pub frames_written: u64,
    /// Connections killed by a wire-protocol violation.
    pub proto_errors: u64,
    /// Injected (or genuine) evaluation panics caught and contained.
    pub worker_panics: u64,
    /// Migration announcements received: sessions a router moved here
    /// off a dead or draining shard (each is followed by a resume).
    pub sessions_handoff: u64,
    /// Ground-truth labels received for decided sessions.
    pub feedback_received: u64,
    /// Frames with a tag this server does not know (newer peer),
    /// answered with a structured error and skipped.
    pub frames_unknown: u64,
    /// Hot-swaps committed by [`NetServer::reload`].
    pub model_swaps: u64,
    /// Observations whose propagated deadline had already lapsed at
    /// handling time: evaluation skipped, session failed `Expired`.
    pub observations_expired: u64,
}

impl ServerStats {
    /// Sessions the server still owes an answer: opened + resumed
    /// minus every terminal outcome. Zero after a clean drain — the
    /// leak check the chaos suite asserts.
    pub fn open_sessions(&self) -> i64 {
        (self.sessions_opened + self.sessions_resumed) as i64
            - (self.sessions_decided + self.sessions_failed + self.sessions_abandoned) as i64
    }
}

/// Every server counter, resolved once at bind: each cell is the one
/// the metrics registry renders and [`NetServer::stats`] reads.
struct Counters {
    connections_accepted: Counter,
    connections_shed: Counter,
    connections_closed: Counter,
    sessions_opened: Counter,
    sessions_resumed: Counter,
    sessions_decided: Counter,
    sessions_failed: Counter,
    sessions_abandoned: Counter,
    drain_decisions: Counter,
    frames_read: Counter,
    frames_written: Counter,
    proto_errors: Counter,
    worker_panics: Counter,
    sessions_handoff: Counter,
    feedback_received: Counter,
    frames_unknown: Counter,
    model_swaps: Counter,
    observations_expired: Counter,
}

impl Counters {
    fn resolve(metrics: &MetricsRegistry) -> Counters {
        Counters {
            connections_accepted: metrics.live_counter("net_connections_total"),
            connections_shed: metrics.live_counter("net_connections_shed_total"),
            connections_closed: metrics.live_counter("net_connections_closed_total"),
            sessions_opened: metrics.live_counter("net_sessions_opened_total"),
            sessions_resumed: metrics.live_counter("net_sessions_resumed_total"),
            sessions_decided: metrics.live_counter("net_sessions_decided_total"),
            sessions_failed: metrics.live_counter("net_sessions_failed_total"),
            sessions_abandoned: metrics.live_counter("net_sessions_abandoned_total"),
            drain_decisions: metrics.live_counter("net_drain_decisions_total"),
            frames_read: metrics.live_counter("net_frames_read_total"),
            frames_written: metrics.live_counter("net_frames_written_total"),
            proto_errors: metrics.live_counter("net_proto_errors_total"),
            worker_panics: metrics.live_counter("net_worker_panics_total"),
            sessions_handoff: metrics.live_counter("net_sessions_handoff_total"),
            feedback_received: metrics.live_counter("net_feedback_total"),
            frames_unknown: metrics.live_counter("net_frames_unknown_total"),
            model_swaps: metrics.live_counter("net_model_swaps_total"),
            observations_expired: metrics.live_counter("net_observations_expired_total"),
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.get(),
            connections_shed: self.connections_shed.get(),
            connections_closed: self.connections_closed.get(),
            sessions_opened: self.sessions_opened.get(),
            sessions_resumed: self.sessions_resumed.get(),
            sessions_decided: self.sessions_decided.get(),
            sessions_failed: self.sessions_failed.get(),
            sessions_abandoned: self.sessions_abandoned.get(),
            drain_decisions: self.drain_decisions.get(),
            frames_read: self.frames_read.get(),
            frames_written: self.frames_written.get(),
            proto_errors: self.proto_errors.get(),
            worker_panics: self.worker_panics.get(),
            sessions_handoff: self.sessions_handoff.get(),
            feedback_received: self.feedback_received.get(),
            frames_unknown: self.frames_unknown.get(),
            model_swaps: self.model_swaps.get(),
            observations_expired: self.observations_expired.get(),
        }
    }
}

/// One immutable serving generation: the model plus everything the
/// wire advertises about it. Hot-swaps replace the *shared* current
/// generation, but each connection pins the generation live at accept
/// time — session stream state borrows into the model, so in-flight
/// connections finish on the generation they started with while the
/// next accepted connection picks up the swap (the same blue/green
/// contract the fleet router's `swap_shards` documents).
struct Generation {
    model: Arc<StoredModel>,
    info: ModelInfo,
    batch: usize,
}

impl Generation {
    fn build(model: Arc<StoredModel>) -> Generation {
        let batch = model
            .meta
            .decision_batch(model.meta.train_len, &RunConfig::fast());
        let info = ModelInfo {
            algo: model.meta.algo_label(),
            dataset: model.meta.dataset.clone(),
            vars: model.meta.vars,
            train_len: model.meta.train_len,
            batch,
            prior_label: model.meta.prior_label,
            classes: model.meta.class_names.clone(),
            generation: model.meta.generation,
        };
        Generation { model, info, batch }
    }
}

struct Shared {
    gen: RwLock<Arc<Generation>>,
    config: ServerBuilder,
    draining: AtomicBool,
    killed: AtomicBool,
    session_seq: AtomicU64,
    /// Live connections across all loops — the accept-time cap.
    active: AtomicU64,
    schedule: Option<FaultSchedule>,
    stats: Counters,
    serve_span: Option<u64>,
    /// One waker per event loop, so state changes (drain, kill,
    /// inbox handoffs) interrupt a parked `epoll_wait`.
    wakers: Vec<Arc<Poller>>,
}

impl Shared {
    fn wake_all(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// The generation new connections will pin.
    fn current_gen(&self) -> Arc<Generation> {
        Arc::clone(&self.gen.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The running TCP server. Dropping the handle does *not* stop it —
/// call [`NetServer::shutdown`] then [`NetServer::join`].
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `model` on a pool of background event loops; reached
    /// through [`crate::Endpoint::serve`], which validates `config`.
    pub(crate) fn bind(
        model: Arc<StoredModel>,
        addr: &str,
        config: ServerBuilder,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut span = config.obs.tracer.span("net.serve");
        span.attr("addr", &addr.to_string());
        span.attr("algo", &model.meta.algo_label());
        span.attr("generation", &model.meta.generation.to_string());
        let serve_span = span.id();
        let generation = Generation::build(model);
        // Pin every scheduled fault to step 1 of its (arrival-ordered)
        // session: the first evaluation of an unlucky session panics or
        // stalls, which is the earliest moment a network fault can hit.
        let schedule = config
            .faults
            .as_ref()
            .filter(|_| config.fault_horizon > 0)
            .map(|plan| plan.schedule(&vec![1; config.fault_horizon]));
        let n_loops = resolve_event_loops(config.event_loop_threads);
        let mut pollers = Vec::with_capacity(n_loops);
        let mut inboxes: Vec<Inbox> = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            pollers.push(Arc::new(Poller::new()?));
            inboxes.push(Arc::new(Mutex::new(Vec::new())));
        }
        let shared = Arc::new(Shared {
            gen: RwLock::new(Arc::new(generation)),
            stats: Counters::resolve(&config.obs.metrics),
            config,
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            session_seq: AtomicU64::new(0),
            active: AtomicU64::new(0),
            schedule,
            serve_span,
            wakers: pollers.clone(),
        });
        let mut loops = Vec::with_capacity(n_loops);
        let mut listener = Some(listener);
        let mut span = Some(span);
        for i in 0..n_loops {
            let shared2 = Arc::clone(&shared);
            let poller = Arc::clone(&pollers[i]);
            let inbox = Arc::clone(&inboxes[i]);
            // Loop 0 owns the listener (and the serve span, dropped
            // when it exits) and deals accepted sockets to every loop.
            let listener = listener.take();
            let span = span.take();
            let peers: Vec<(Inbox, Arc<Poller>)> = if i == 0 {
                inboxes
                    .iter()
                    .cloned()
                    .zip(pollers.iter().cloned())
                    .collect()
            } else {
                Vec::new()
            };
            let spawned = std::thread::Builder::new()
                .name(format!("etsc-net-loop-{i}"))
                .spawn(move || {
                    let mut el = EventLoop {
                        shared: shared2,
                        poller,
                        inbox,
                        listener,
                        peers,
                        next_loop: 0,
                        conn_seq: 0,
                        conns: HashMap::new(),
                    };
                    el.run();
                    drop(span);
                });
            match spawned {
                Ok(handle) => loops.push(handle),
                Err(e) => {
                    // Unwind the loops already running before
                    // propagating the bind failure.
                    shared.draining.store(true, Ordering::SeqCst);
                    shared.wake_all();
                    for h in loops {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(NetServer {
            addr,
            shared,
            loops,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many event-loop threads are multiplexing the connections
    /// (the resolved value of [`ServerBuilder::event_loop_threads`]).
    pub fn event_loops(&self) -> usize {
        self.loops.len()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Generation counter served to *new* connections.
    pub fn model_generation(&self) -> u64 {
        self.shared.current_gen().info.generation
    }

    /// Atomically hot-swaps the serving model. Connections accepted
    /// after this call serve `model`; connections already accepted
    /// finish on the generation they pinned — their sessions hold
    /// stream state borrowed into the old model, which stays alive
    /// until the last pinned connection closes (the router's
    /// blue/green semantics: the old generation keeps answering its
    /// in-flight work). Returns the new generation counter.
    ///
    /// # Errors
    /// When the variable count differs from the serving generation —
    /// every advertised session shape would become a lie mid-protocol.
    pub fn reload(&self, model: Arc<StoredModel>) -> Result<u64, String> {
        let next = Generation::build(model);
        let current = self.shared.current_gen();
        if next.info.vars != current.info.vars {
            return Err(format!(
                "new model expects {} variables, serving generation expects {}",
                next.info.vars, current.info.vars
            ));
        }
        let generation = next.info.generation;
        *self.shared.gen.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        self.shared.stats.model_swaps.inc();
        self.shared.config.obs.tracer.event_under(
            "net.model.swap",
            self.shared.serve_span,
            &[("generation", &generation.to_string())],
        );
        Ok(generation)
    }

    /// `true` once a drain was requested (locally or by a client
    /// `Shutdown` frame).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop accepting, answer in-flight
    /// sessions, close connections. Returns immediately; use
    /// [`NetServer::join`] to wait for completion.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Simulates a shard crash: connections close abruptly with *no*
    /// drain handshake — in-flight sessions are abandoned, not
    /// answered, and no `Shutdown` or reason frame is sent. This is the
    /// chaos suite's kill-shard-at-step-K fault: everything a router
    /// learns about the death, it learns from the dropped sockets.
    /// Returns immediately; use [`NetServer::join`] to reap threads.
    pub fn kill(&self) {
        // Deliberately NOT `draining`: a crash must never be observable
        // as a drain. Were the flag set, a frame handled between this
        // store and the loop's next lap (an `OpenSession` racing the
        // kill) would be answered with a polite retryable `Draining`
        // error — a handshake no crashed process could send — and the
        // client would re-open instead of letting the router migrate.
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Drains (if not already requested) and waits for every event
    /// loop to finish, returning the final counters.
    pub fn join(mut self) -> ServerStats {
        self.shutdown();
        let obs = &self.shared.config.obs;
        let mut drain = obs.tracer.span_under("net.drain", self.shared.serve_span);
        for h in std::mem::take(&mut self.loops) {
            let _ = h.join();
        }
        let stats = self.shared.stats.snapshot();
        drain.attr("drain_decisions", &stats.drain_decisions.to_string());
        drain.attr("open_sessions", &stats.open_sessions().to_string());
        stats
    }
}

/// Refuses a connection at accept time with a best-effort error frame
/// carrying the code's retry classification, so clients know whether
/// (and roughly when) a reconnect is worth attempting.
fn shed_connection(mut stream: TcpStream, code: ErrorCode, why: &str) {
    let frame = Frame::error(code, None, why);
    if let Ok(wire) = encode_frame(&frame, MAX_FRAME_BYTES) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = stream.write_all(&wire);
    }
}

// ---------------------------------------------------------------------
// Event loop: poller, inbox adoption, accept burst, connection table.
// ---------------------------------------------------------------------

type Inbox = Arc<Mutex<Vec<(TcpStream, u64)>>>;

struct EventLoop {
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    /// Sockets dealt to this loop by loop 0's accept burst.
    inbox: Inbox,
    /// Loop 0 only: the listening socket.
    listener: Option<TcpListener>,
    /// Loop 0 only: every loop's (inbox, waker), self included, for
    /// round-robin placement of accepted sockets.
    peers: Vec<(Inbox, Arc<Poller>)>,
    next_loop: usize,
    conn_seq: u64,
    conns: HashMap<u64, Conn>,
}

/// Per-loop instruments, built once per thread.
struct Hists {
    observe: HistogramHandle,
    open: HistogramHandle,
    sojourn: HistogramHandle,
    write: HistogramHandle,
    /// `net_frames_read_<kind>_total`, resolved on a kind's first frame
    /// so later frames neither format its name nor lock the registry.
    frames_read: HashMap<&'static str, Counter>,
}

impl Hists {
    fn frame_read(&mut self, metrics: &MetricsRegistry, kind: &'static str) {
        self.frames_read
            .entry(kind)
            .or_insert_with(|| metrics.counter(&format!("net_frames_read_{kind}_total")))
            .inc();
    }
}

impl EventLoop {
    fn run(&mut self) {
        let metrics = &self.shared.config.obs.metrics;
        let mut hists = Hists {
            observe: metrics.histogram("net_handle_observe_seconds"),
            open: metrics.histogram("net_handle_open_seconds"),
            sojourn: metrics.histogram("net_frame_sojourn_seconds"),
            write: metrics.histogram("net_frame_write_seconds"),
            frames_read: HashMap::new(),
        };
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                .is_err()
            {
                return;
            }
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.adopt_inbox();
            if self.shared.killed.load(Ordering::SeqCst) {
                self.kill_all();
                return;
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                self.drain_all();
                return;
            }
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // epoll_wait failing (other than EINTR, already
                // swallowed) means the poller itself is broken; back
                // off so a persistent failure cannot spin a core.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {} // inbox/flags re-checked at loop top
                    LISTENER_TOKEN => self.accept_burst(),
                    token => self.service_conn(token, ev, &mut hists),
                }
            }
            self.idle_scan();
        }
    }

    /// Registers sockets loop 0 dealt to this loop.
    fn adopt_inbox(&mut self) {
        let handoffs = std::mem::take(&mut *self.inbox.lock().unwrap_or_else(|e| e.into_inner()));
        for (stream, conn_id) in handoffs {
            self.adopt(stream, conn_id);
        }
    }

    /// Accepts until the backlog is empty, shedding over the cap and
    /// dealing admitted sockets round-robin across the loops.
    fn accept_burst(&mut self) {
        let shared = Arc::clone(&self.shared);
        let obs = &shared.config.obs;
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections as u64
                    {
                        shared.stats.connections_shed.inc();
                        obs.tracer.event_under(
                            "net.conn.shed",
                            shared.serve_span,
                            &[("peer", &peer.to_string())],
                        );
                        shed_connection(stream, ErrorCode::Overloaded, "connection cap");
                        continue;
                    }
                    self.conn_seq += 1;
                    let conn_id = self.conn_seq;
                    shared.stats.connections_accepted.inc();
                    obs.tracer.event_under(
                        "net.conn.accept",
                        shared.serve_span,
                        &[("conn", &conn_id.to_string()), ("peer", &peer.to_string())],
                    );
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    let target = self.next_loop % self.peers.len();
                    self.next_loop = self.next_loop.wrapping_add(1);
                    if target == 0 {
                        self.adopt(stream, conn_id);
                    } else {
                        let (inbox, waker) = &self.peers[target];
                        inbox
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((stream, conn_id));
                        waker.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Transient accept errors (ECONNABORTED and friends):
                // the listener stays level-triggered readable while a
                // backlog remains, so simply retry on next readiness.
                Err(_) => return,
            }
        }
    }

    /// Takes ownership of one accepted socket: nonblocking, pinned
    /// generation, registered for readiness under its conn id.
    fn adopt(&mut self, stream: TcpStream, conn_id: u64) {
        let shared = Arc::clone(&self.shared);
        if stream.set_nonblocking(true).is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.stats.connections_closed.inc();
            return;
        }
        let _ = stream.set_nodelay(true);
        // Pin the serving generation for this connection's whole life:
        // sessions borrow stream state into this model, so a concurrent
        // hot-swap must not pull it out from under them.
        let gen_pin = shared.current_gen();
        // SAFETY: `gen` points into the allocation owned by `gen_pin`.
        // `gen_pin` is stored in the same `Conn` and declared *after*
        // every field that borrows from it, so the allocation is alive
        // (and at a stable address — it is behind an `Arc`) for as
        // long as any borrow exists.
        let gen: &'static Generation = unsafe { &*Arc::as_ptr(&gen_pin) };
        if self
            .poller
            .register(stream.as_raw_fd(), conn_id, true, false)
            .is_err()
        {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.stats.connections_closed.inc();
            return;
        }
        let now = Instant::now();
        let cap = shared.config.max_pending_frames.max(1);
        let retired = Record::new(shared.config.max_sessions_per_conn);
        let conn = Conn {
            shared,
            stream,
            dec: FrameDecoder::new(MAX_FRAME_BYTES),
            out: OutBuf {
                queue: VecDeque::new(),
                head_off: 0,
                cap,
                dead: false,
                pool: BufferPool::default(),
            },
            conn_id,
            gen,
            read_at: now,
            read_epoch: now,
            idle: false,
            last_activity: now,
            said_hello: false,
            negotiated: 0,
            pending_drain: false,
            closing: None,
            pending_decisions: Vec::new(),
            table: SessionTable::new(gen.model.classifier(), gen.batch, gen.info.prior_label),
            retired,
            want_read: true,
            want_write: false,
            gen_pin,
        };
        self.conns.insert(conn_id, conn);
    }

    /// One connection's readiness: flush first (freeing queue space
    /// can resume paused reads), then pump the decoder.
    fn service_conn(&mut self, token: u64, ev: Event, hists: &mut Hists) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.writable {
            conn.try_flush(&hists.write);
        }
        if ev.readable || ev.hangup {
            conn.pump(hists);
        }
        // Writes the pump produced go out now if the socket has room.
        if !conn.out.queue.is_empty() && !conn.out.dead {
            conn.try_flush(&hists.write);
        }
        if conn.out.dead && conn.closing.is_none() {
            conn.closing = Some(CloseReason::WriterDead);
        }
        if conn.closing.is_some() {
            self.close_conn(token);
        } else {
            let conn = self.conns.get_mut(&token).expect("conn still present");
            conn.sync_interest(&self.poller);
        }
    }

    /// Evicts connections that stayed silent past the idle budget —
    /// the slow-loris guard, now driven off the poll timeout.
    fn idle_scan(&mut self) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.last_activity.elapsed() > IDLE_TIMEOUT)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.send(Frame::error(
                    ErrorCode::IdleTimeout,
                    None,
                    format!("no frames for {IDLE_TIMEOUT:?}"),
                ));
                conn.closing = Some(CloseReason::IdleTimeout);
                self.close_conn(token);
            }
        }
    }

    /// How long the poller may park: until the nearest idle deadline,
    /// capped so flag changes never wait long even if a wake is lost.
    fn next_timeout(&self) -> Duration {
        let mut timeout = Duration::from_millis(500);
        for conn in self.conns.values() {
            let budget = IDLE_TIMEOUT.saturating_sub(conn.last_activity.elapsed());
            timeout = timeout.min(budget);
        }
        timeout.max(Duration::from_millis(1))
    }

    /// Graceful drain: answer every in-flight session, announce the
    /// shutdown, flush, close.
    fn drain_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.drain();
                conn.closing = Some(CloseReason::Drained);
                self.close_conn(token);
            }
        }
    }

    /// Crash simulation: drop every socket with sessions unanswered
    /// and nothing flushed.
    fn kill_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.out.dead = true; // suppress the teardown flush
                conn.closing = Some(CloseReason::Killed);
                self.close_conn(token);
            }
        }
    }

    /// Removes a connection: deregister, abandon leftovers, flush what
    /// the outbound queue still holds (blocking, bounded), account.
    fn close_conn(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let shared = Arc::clone(&conn.shared);
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let reason = conn.closing.take().unwrap_or(CloseReason::Eof);
        let abandoned = conn.abandon_all();
        conn.teardown_flush();
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.stats.connections_closed.inc();
        let obs = &shared.config.obs;
        obs.tracer.event_under(
            "net.conn.close",
            shared.serve_span,
            &[
                ("conn", &conn.conn_id.to_string()),
                ("reason", reason.name()),
                ("abandoned", &abandoned.to_string()),
            ],
        );
        if let CloseReason::Proto(e) = &reason {
            obs.tracer.event_under(
                "net.conn.proto_error",
                shared.serve_span,
                &[
                    ("conn", &conn.conn_id.to_string()),
                    ("error", &e.to_string()),
                ],
            );
        }
    }
}

// ---------------------------------------------------------------------
// Per-connection state: handshake, session table, evaluation, output.
// ---------------------------------------------------------------------

/// Outbound frame queue: encoded wire images awaiting a writable
/// socket, drained with vectored writes. `head_off` is how much of the
/// front frame already went out on a short write.
struct OutBuf {
    queue: VecDeque<Vec<u8>>,
    head_off: usize,
    cap: usize,
    dead: bool,
    /// Recycles written frame buffers back into the encoder.
    pool: BufferPool,
}

impl OutBuf {
    fn over_cap(&self) -> bool {
        self.queue.len() >= self.cap
    }
}

struct Conn {
    shared: Arc<Shared>,
    stream: TcpStream,
    dec: FrameDecoder,
    out: OutBuf,
    conn_id: u64,
    /// The serving generation pinned at accept time; points into
    /// `gen_pin` (see the SAFETY note at construction).
    gen: &'static Generation,
    /// When the most recent read returned bytes.
    read_at: Instant,
    /// The landing epoch of the bytes being handled: the reference
    /// propagated deadlines (and frame sojourn) are measured from.
    /// Bytes already waiting when the previous batch finished handling
    /// arrived *during* that handling, so they are dated back to the
    /// previous read, not to the moment the loop finally got to them.
    /// Reset to "now" only after a read attempt found the socket
    /// empty. Without this, a row that landed while the loop sat in a
    /// slow evaluation would look fresh, and whether its deadline
    /// lapsed would depend on how the kernel split the client's writes.
    read_epoch: Instant,
    /// Whether the last read attempt found the socket empty.
    idle: bool,
    /// Last time a complete frame arrived — the idle guard's clock
    /// (bytes alone do not count: a drip-feeding loris must still
    /// trip the timeout).
    last_activity: Instant,
    said_hello: bool,
    /// Negotiated minor revision: `min(client minor, ours)`. Batch
    /// frames flow only at [`BATCH_MINOR`] and above.
    negotiated: u32,
    /// A client `Shutdown` frame arrived; the loop drains next lap.
    pending_drain: bool,
    closing: Option<CloseReason>,
    /// Verdicts awaiting coalescing into a `DecisionBatch` (rev-2
    /// peers only), flushed after each pump.
    pending_decisions: Vec<BatchDecision>,
    /// Open sessions, evaluated against the pinned generation.
    table: SessionTable<'static>,
    /// The newest `max_sessions_per_conn` sessions that left `table`
    /// (decided, failed or closed): a late frame for one is ignored
    /// rather than refused with `UnknownSession`, and a decided one
    /// keeps its verdict until late ground truth grades it.
    retired: Record<Option<DecidedInfo>>,
    want_read: bool,
    want_write: bool,
    /// Keeps the pinned generation alive. Declared last so every
    /// borrowing field above drops first. Never read — holding it is
    /// its whole job.
    #[allow(dead_code)]
    gen_pin: Arc<Generation>,
}

/// What feedback needs to know about a decided session.
struct DecidedInfo {
    label: u64,
    prefix_len: u64,
    /// Observed values, one row per variable; empty unless a feedback
    /// sink is configured (no reason to hold series hostage otherwise).
    rows: Vec<Vec<f64>>,
}

enum CloseReason {
    Eof,
    Drained,
    Killed,
    IdleTimeout,
    Proto(ProtoError),
    Io,
    WriterDead,
}

impl CloseReason {
    fn name(&self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::Drained => "drained",
            CloseReason::Killed => "killed",
            CloseReason::IdleTimeout => "idle-timeout",
            CloseReason::Proto(_) => "proto-error",
            CloseReason::Io => "io-error",
            CloseReason::WriterDead => "writer-dead",
        }
    }
}

impl Conn {
    /// Reads until the socket runs dry (or a close condition), decoding
    /// and handling frames after every chunk.
    fn pump(&mut self, hists: &mut Hists) {
        loop {
            if self.closing.is_some() || self.pending_drain || self.out.dead {
                return;
            }
            // Lossless backpressure: a full outbound queue pauses this
            // connection's reads; `sync_interest` disarms EPOLLIN until
            // the flush path drains the queue below its cap.
            if self.out.over_cap() {
                return;
            }
            match self.dec.read_from(&mut self.stream) {
                Ok(0) => {
                    self.closing = Some(CloseReason::Eof);
                    return;
                }
                Ok(_) => {
                    let now = Instant::now();
                    self.read_epoch = if self.idle { now } else { self.read_at };
                    self.read_at = now;
                    self.idle = false;
                    self.process_frames(hists);
                    self.flush_decisions();
                }
                Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.idle = true;
                    return;
                }
                Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closing = Some(CloseReason::Io);
                    return;
                }
            }
        }
    }

    /// Drains every complete frame currently buffered in the decoder.
    fn process_frames(&mut self, hists: &mut Hists) {
        let shared = Arc::clone(&self.shared);
        let obs = &shared.config.obs;
        loop {
            if self.closing.is_some() || self.pending_drain {
                return;
            }
            // A crash (`kill`) stops the world mid-burst: frames still
            // queued behind this check are never handled, exactly as if
            // the process had died before reading them. Answering any
            // of them (even with an error) would be a goodbye no real
            // crash could say, and peers would act on it.
            if shared.killed.load(Ordering::SeqCst) {
                return;
            }
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    self.last_activity = Instant::now();
                    shared.stats.frames_read.inc();
                    hists.frame_read(&obs.metrics, frame.kind_name());
                    let started = Instant::now();
                    match self.handle(frame) {
                        Handled::Ok => {}
                        Handled::Observe => {
                            hists.observe.record(started.elapsed().as_secs_f64());
                            // Sojourn: time since this frame's bytes
                            // landed (landing epoch), including the
                            // wait behind earlier frames of the same
                            // busy period.
                            let sojourn = self.read_epoch.elapsed();
                            hists.sojourn.record(sojourn.as_secs_f64());
                        }
                        Handled::Open => {
                            hists.open.record(started.elapsed().as_secs_f64());
                        }
                        Handled::Drain => {
                            // Flag first, then wake every loop: each
                            // drains its own connections (this one
                            // included) at the top of its next lap.
                            shared.draining.store(true, Ordering::SeqCst);
                            shared.wake_all();
                            self.pending_drain = true;
                            return;
                        }
                        Handled::Fatal(reason) => {
                            self.closing = Some(reason);
                            return;
                        }
                    }
                }
                Ok(None) => return,
                Err(ProtoError::UnknownTag(tag)) => {
                    // Forward compatibility: a newer peer sent a frame
                    // kind this server does not speak. The decoder
                    // already consumed the whole frame, so answer with
                    // a structured error and keep serving instead of
                    // tearing the session table down with the
                    // connection.
                    shared.stats.frames_unknown.inc();
                    self.send(Frame::error(
                        ErrorCode::BadFrame,
                        None,
                        format!("unknown frame tag {tag} (newer protocol?)"),
                    ));
                }
                Err(e) => {
                    shared.stats.proto_errors.inc();
                    self.send(Frame::error(ErrorCode::BadFrame, None, e.to_string()));
                    self.closing = Some(CloseReason::Proto(e));
                    return;
                }
            }
        }
    }

    fn handle(&mut self, frame: Frame) -> Handled {
        let shared = Arc::clone(&self.shared);
        match frame {
            Frame::Hello { version, minor, .. } => {
                if version != PROTO_VERSION {
                    shared.stats.proto_errors.inc();
                    self.send(Frame::error(
                        ErrorCode::BadFrame,
                        None,
                        ProtoError::Version {
                            got: version,
                            want: PROTO_VERSION,
                        }
                        .to_string(),
                    ));
                    return Handled::Fatal(CloseReason::Proto(ProtoError::Version {
                        got: version,
                        want: PROTO_VERSION,
                    }));
                }
                if !self.said_hello {
                    self.said_hello = true;
                    // Outside input: older clients still get served, at
                    // the revision they speak.
                    self.negotiated = minor.min(PROTO_MINOR);
                    self.send(Frame::hello("etsc-net-server", Some(self.gen.info.clone())));
                }
                Handled::Ok
            }
            Frame::OpenSession {
                id,
                vars,
                expected_len,
                resume,
                deadline_ms,
                ..
            } => {
                self.open_session(id, vars, expected_len, resume, deadline_ms);
                Handled::Open
            }
            Frame::Observe {
                session,
                step,
                row,
                deadline_ms,
            } => {
                self.observe(session, step, &row, deadline_ms);
                Handled::Observe
            }
            Frame::ObserveBatch {
                session,
                start_step,
                rows,
                deadline_ms,
            } => {
                if self.negotiated < BATCH_MINOR {
                    // A peer that never negotiated rev 2 sent a batch
                    // frame anyway: refuse it cleanly, keep the
                    // connection — the structured reply is the interop
                    // contract for mismatched minors.
                    shared.stats.proto_errors.inc();
                    self.send(Frame::error(
                        ErrorCode::BadFrame,
                        Some(session),
                        format!(
                            "batch frames need negotiated minor revision {BATCH_MINOR} \
                             (negotiated {})",
                            self.negotiated
                        ),
                    ));
                    return Handled::Ok;
                }
                for (i, row) in rows.iter().enumerate() {
                    // A mid-batch decision (or failure) retires the
                    // session; the remaining rows fall through
                    // `observe`'s late-frame skip.
                    self.observe(session, start_step + i as u64, row, deadline_ms);
                }
                Handled::Observe
            }
            Frame::CloseSession { session } => {
                if self.table.remove(session).is_some() {
                    self.retired.insert(session, None);
                    shared.stats.sessions_abandoned.inc();
                }
                Handled::Ok
            }
            Frame::Handoff {
                session,
                origin,
                replayed,
            } => {
                // Advisory migration announcement from a router: count
                // it and record the provenance; the resume that follows
                // is handled like any client reconnect.
                shared.stats.sessions_handoff.inc();
                shared.config.obs.tracer.event_under(
                    "net.session.handoff",
                    shared.serve_span,
                    &[
                        ("conn", &self.conn_id.to_string()),
                        ("session", &session.to_string()),
                        ("origin", &origin),
                        ("replayed", &replayed.to_string()),
                    ],
                );
                Handled::Ok
            }
            Frame::Feedback { session, label } => {
                self.feedback(session, label);
                Handled::Ok
            }
            Frame::Shutdown => Handled::Drain,
            Frame::Decision { .. } | Frame::DecisionBatch { .. } | Frame::Error { .. } => {
                self.send(Frame::error(
                    ErrorCode::BadFrame,
                    None,
                    "server-only frame from client",
                ));
                Handled::Ok
            }
        }
    }

    fn open_session(
        &mut self,
        id: u64,
        vars: usize,
        expected_len: usize,
        resume: bool,
        deadline_ms: u64,
    ) {
        let shared = Arc::clone(&self.shared);
        if shared.draining.load(Ordering::SeqCst) {
            self.send(Frame::error(
                ErrorCode::Draining,
                Some(id),
                "server is draining",
            ));
            return;
        }
        if self.table.len() >= shared.config.max_sessions_per_conn {
            self.send(Frame::error(
                ErrorCode::SessionLimit,
                Some(id),
                format!("connection already has {} open sessions", self.table.len()),
            ));
            return;
        }
        if vars != self.gen.info.vars {
            self.send(Frame::error(
                ErrorCode::Incompatible,
                Some(id),
                format!(
                    "model expects {} variables, session declares {vars}",
                    self.gen.info.vars
                ),
            ));
            return;
        }
        if self.table.contains(id) {
            self.send(Frame::error(
                ErrorCode::BadFrame,
                Some(id),
                "session id already open",
            ));
            return;
        }
        // A resume makes the id live again.
        self.retired.remove(id);
        let deadline = self.effective_deadline(deadline_ms);
        let seq = shared.session_seq.fetch_add(1, Ordering::SeqCst) as usize;
        if let Err(e) = self.table.open(id, seq, vars, expected_len, deadline) {
            self.send(Frame::error(ErrorCode::Internal, Some(id), e.to_string()));
            return;
        }
        if resume {
            shared.stats.sessions_resumed.inc();
        } else {
            shared.stats.sessions_opened.inc();
        }
    }

    /// The per-decision deadline a new session is armed with: the
    /// tighter of the configured deadline and the client's propagated
    /// `deadline_ms` (0 = none propagated).
    fn effective_deadline(&self, deadline_ms: u64) -> Option<Duration> {
        let configured = self.shared.config.deadline;
        if deadline_ms == 0 {
            return configured;
        }
        let budget = Duration::from_millis(deadline_ms);
        Some(configured.map_or(budget, |d| d.min(budget)))
    }

    fn observe(&mut self, id: u64, step: u64, row: &[f64], deadline_ms: u64) {
        let shared = Arc::clone(&self.shared);
        let Some(session) = self.table.session(id) else {
            // A late frame for a recently retired session is ignored;
            // an id never opened, or retired longer ago than the
            // record reaches, is refused.
            if !self.retired.contains(id) {
                self.send(Frame::error(
                    ErrorCode::UnknownSession,
                    Some(id),
                    format!("observe for session {id}, which is not open on this connection"),
                ));
            }
            return;
        };
        let expected_step = session.observed() as u64 + 1;
        if step != expected_step {
            self.fail_session(
                id,
                ErrorCode::BadFrame,
                &format!("observation step {step} out of order (expected {expected_step})"),
            );
            return;
        }
        // Propagated deadline: the client's remaining budget for this
        // row, measured from when its bytes landed (the landing epoch).
        // Already lapsed means the answer is dead on arrival — skip the
        // evaluation instead of computing it.
        if deadline_ms > 0 && self.read_epoch.elapsed() >= Duration::from_millis(deadline_ms) {
            shared.stats.observations_expired.inc();
            self.fail_session(
                id,
                ErrorCode::Expired,
                &format!("deadline of {deadline_ms}ms lapsed before evaluation"),
            );
            return;
        }
        let step = self.table.push(id, row, shared.schedule.as_ref());
        self.settle(id, step, false);
    }

    /// Answers what the session table did to session `id`: a decision
    /// frame, a failure error, or nothing while it is still pending.
    /// `drain` marks decisions forced by the graceful drain.
    fn settle(&mut self, id: u64, step: Option<Step>, drain: bool) {
        match step {
            None | Some(Step::Pending) => {}
            Some(Step::Decided(prediction, forced)) => {
                self.finish_decided(id, prediction, forced, drain);
            }
            Some(Step::Failed(e)) => {
                let code = match &e {
                    EtscError::IncompatibleInstance(_) => ErrorCode::Incompatible,
                    _ => ErrorCode::Internal,
                };
                self.fail_session(id, code, &e.to_string());
            }
            Some(Step::Panicked(msg)) => {
                let shared = Arc::clone(&self.shared);
                shared.stats.worker_panics.inc();
                shared.config.obs.tracer.event_under(
                    "net.worker.panic",
                    shared.serve_span,
                    &[
                        ("conn", &self.conn_id.to_string()),
                        ("session", &id.to_string()),
                        ("seq", &self.seq_of(id)),
                        ("panic", &msg),
                    ],
                );
                self.fail_session(
                    id,
                    ErrorCode::Internal,
                    &format!("evaluation panicked: {msg}"),
                );
            }
        }
    }

    /// Session `id`'s arrival number, as trace events print it.
    fn seq_of(&self, id: u64) -> String {
        self.table
            .seq(id)
            .map_or_else(String::new, |seq| seq.to_string())
    }

    fn finish_decided(&mut self, id: u64, prediction: EarlyPrediction, forced: bool, drain: bool) {
        let shared = Arc::clone(&self.shared);
        let removed = self.table.remove(id);
        let (label, prefix_len) = (prediction.label as u64, prediction.prefix_len as u64);
        let kind = decision_kind(forced, drain, prefix_len);
        // Remember the verdict so late ground truth can be graded; the
        // observed series rides along only when a sink will refit on it.
        let rows = match (&shared.config.feedback, removed) {
            (Some(_), Some(session)) => session.series().to_vec(),
            _ => Vec::new(),
        };
        self.retired.insert(
            id,
            Some(DecidedInfo {
                label,
                prefix_len,
                rows,
            }),
        );
        shared.stats.sessions_decided.inc();
        if drain {
            shared.stats.drain_decisions.inc();
        }
        if self.negotiated >= BATCH_MINOR {
            // Coalesce: verdicts stream out as one `DecisionBatch` (or
            // a lone `Decision`) when the pump finishes this chunk.
            self.pending_decisions.push(BatchDecision {
                session: id,
                label,
                prefix_len,
                kind,
            });
        } else {
            self.send(Frame::Decision {
                session: id,
                label,
                prefix_len,
                kind,
            });
        }
    }

    /// Flushes coalesced verdicts: one lone decision stays a plain
    /// `Decision` frame, several become `DecisionBatch` chunks.
    fn flush_decisions(&mut self) {
        if self.pending_decisions.is_empty() {
            return;
        }
        if self.pending_decisions.len() == 1 {
            let d = self.pending_decisions.remove(0);
            self.send(Frame::Decision {
                session: d.session,
                label: d.label,
                prefix_len: d.prefix_len,
                kind: d.kind,
            });
            return;
        }
        let pending = std::mem::take(&mut self.pending_decisions);
        for chunk in pending.chunks(MAX_DECISIONS_PER_BATCH) {
            self.send(Frame::DecisionBatch {
                decisions: chunk.to_vec(),
            });
        }
    }

    /// Grades late ground truth against the remembered verdict and
    /// forwards it to the configured sink. Feedback is advisory:
    /// unknown or undecided sessions get a structured error, never a
    /// teardown.
    fn feedback(&mut self, id: u64, truth: u64) {
        let shared = Arc::clone(&self.shared);
        if !matches!(self.retired.get(id), Some(Some(_))) {
            self.send(Frame::error(
                ErrorCode::UnknownSession,
                Some(id),
                format!("feedback for session {id} with no decision on this connection"),
            ));
            return;
        }
        let n_classes = self.gen.info.classes.len();
        if truth as usize >= n_classes {
            self.send(Frame::error(
                ErrorCode::BadFrame,
                Some(id),
                format!("feedback label {truth} out of range ({n_classes} classes)"),
            ));
            return;
        }
        // Graded once: the id stays retired, its verdict goes.
        let Some(info) = self.retired.get_mut(id).and_then(Option::take) else {
            return; // unreachable: checked above
        };
        shared.stats.feedback_received.inc();
        let correct = info.label == truth;
        shared.config.obs.tracer.event_under(
            "net.session.feedback",
            shared.serve_span,
            &[
                ("conn", &self.conn_id.to_string()),
                ("session", &id.to_string()),
                ("correct", if correct { "true" } else { "false" }),
            ],
        );
        if let Some(sink) = &shared.config.feedback {
            sink.record(FeedbackEvent {
                key: self.conn_id,
                session: id,
                predicted: info.label as usize,
                truth: truth as usize,
                prefix_len: info.prefix_len as usize,
                generation: self.gen.info.generation,
                class_name: self.gen.info.classes[truth as usize].clone(),
                rows: info.rows,
            });
        }
    }

    fn fail_session(&mut self, id: u64, code: ErrorCode, message: &str) {
        let shared = Arc::clone(&self.shared);
        let seq = self.seq_of(id);
        self.table.remove(id);
        self.retired.insert(id, None);
        shared.stats.sessions_failed.inc();
        shared.config.obs.tracer.event_under(
            "net.session.fail",
            shared.serve_span,
            &[
                ("conn", &self.conn_id.to_string()),
                ("session", &id.to_string()),
                ("seq", &seq),
                ("code", &code.to_string()),
            ],
        );
        self.send(Frame::error(code, Some(id), message));
    }

    /// Answers every in-flight session with a forced drain verdict,
    /// then announces the shutdown. The close path flushes the queue
    /// with a blocking, bounded write.
    fn drain(&mut self) {
        for id in self.table.ids() {
            let step = self.table.force(id);
            self.settle(id, step, true);
        }
        self.flush_decisions();
        // Announce the *reason* before the Shutdown frame: clients and
        // routers that see this code know the close is a planned drain
        // (no reconnect, no circuit-breaker penalty), unlike a crash
        // where the socket just dies.
        self.send(Frame::error(
            ErrorCode::Shutdown,
            None,
            "graceful drain complete",
        ));
        self.send(Frame::Shutdown);
    }

    /// Abandons whatever is still open (disconnect, protocol error,
    /// idle timeout). Returns how many sessions were abandoned.
    fn abandon_all(&mut self) -> usize {
        let shared = Arc::clone(&self.shared);
        let n = self.table.len();
        for _ in self.table.drain() {
            shared.stats.sessions_abandoned.inc();
        }
        n
    }

    /// Enqueues `frame`, past the cap too — losslessly bounded, because
    /// a full queue also pauses this connection's reads.
    fn send(&mut self, frame: Frame) {
        if self.out.dead {
            return;
        }
        if let Ok(wire) = self.out.pool.encode(&frame, MAX_FRAME_BYTES) {
            self.out.queue.push_back(wire);
        }
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// coalescing frames with vectored writes.
    fn try_flush(&mut self, write_hist: &HistogramHandle) {
        if self.out.dead || self.out.queue.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let started = Instant::now();
        while !self.out.queue.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.out.queue.len().min(64));
            for (i, buf) in self.out.queue.iter().take(64).enumerate() {
                let from = if i == 0 { self.out.head_off } else { 0 };
                slices.push(IoSlice::new(&buf[from..]));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    self.out.dead = true;
                    break;
                }
                Ok(mut n) => {
                    while n > 0 {
                        let head_len = self
                            .out
                            .queue
                            .front()
                            .map_or(0, |b| b.len() - self.out.head_off);
                        if head_len == 0 {
                            break;
                        }
                        if n >= head_len {
                            n -= head_len;
                            self.out.head_off = 0;
                            if let Some(buf) = self.out.queue.pop_front() {
                                self.out.pool.give(buf);
                            }
                            shared.stats.frames_written.inc();
                        } else {
                            self.out.head_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.out.dead = true;
                    break;
                }
            }
        }
        write_hist.record(started.elapsed().as_secs_f64());
    }

    /// Re-arms the poller to match what the connection currently
    /// needs: reads unless paused by backpressure, writes only while
    /// outbound bytes are pending.
    fn sync_interest(&mut self, poller: &Poller) {
        let want_read = !self.pending_drain && self.closing.is_none() && !self.out.over_cap();
        let want_write = !self.out.queue.is_empty() && !self.out.dead;
        if want_read != self.want_read || want_write != self.want_write {
            if poller
                .modify(self.stream.as_raw_fd(), self.conn_id, want_read, want_write)
                .is_err()
            {
                self.closing = Some(CloseReason::Io);
                return;
            }
            self.want_read = want_read;
            self.want_write = want_write;
        }
    }

    /// Final flush at close: whatever the queue still holds is written
    /// with the socket back in blocking mode under a bounded write
    /// timeout — drains and teardown errors must reach the peer even
    /// when it is slow, but never hold the event loop hostage.
    fn teardown_flush(&mut self) {
        if self.out.dead || self.out.queue.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        if self.stream.set_nonblocking(false).is_err() {
            return;
        }
        let _ = self.stream.set_write_timeout(Some(Duration::from_secs(2)));
        while let Some(buf) = self.out.queue.pop_front() {
            let from = self.out.head_off;
            self.out.head_off = 0;
            if self.stream.write_all(&buf[from..]).is_err() {
                self.out.dead = true;
                return;
            }
            shared.stats.frames_written.inc();
        }
        let _ = self.stream.flush();
    }
}

enum Handled {
    Ok,
    Open,
    Observe,
    Drain,
    Fatal(CloseReason),
}

/// The wire kind of a decision: the algorithm's own trigger, or a
/// decision forced by a deadline breach or by the drain — `drain-prior`
/// when the drained session had observed nothing.
fn decision_kind(forced: bool, drain: bool, prefix_len: u64) -> DecisionKind {
    match (forced, drain) {
        (false, _) => DecisionKind::Genuine,
        (true, false) => DecisionKind::DeadlineForced,
        (true, true) if prefix_len == 0 => DecisionKind::DrainPrior,
        (true, true) => DecisionKind::DrainForced,
    }
}
