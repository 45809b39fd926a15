//! `etsc-router`: a session-affine TCP router fronting a fleet of
//! `etsc serve` shards speaking the same wire protocol.
//!
//! A streaming session is stateful — the shard that saw observation 1
//! must see observation 2 — so the router maps every session onto one
//! shard with a consistent-hash ring (virtual nodes per shard, stable
//! under membership churn) and keeps a buffered copy of the session's
//! observation prefix. That buffer is what makes shard death survivable:
//! when an upstream connection dies, the router re-places every
//! undecided session on a surviving shard, announces the move with a
//! [`Frame::Handoff`], re-opens with `resume = true`, and replays the
//! prefix — the client never learns its shard died.
//!
//! Shard health is an explicit state machine. A prober thread dials
//! each shard on a fixed cadence (the `Hello` exchange doubles as the
//! health check); failures trip a per-shard circuit breaker that backs
//! off exponentially and re-probes half-open. Planned drains are *not*
//! failures: a shard that announces [`ErrorCode::Shutdown`] before
//! closing is retiring on purpose, so the breaker is skipped and the
//! death is counted as a planned drain.
//!
//! Model rollout is blue/green: [`Router::swap`] installs a new shard
//! generation for all *new* sessions while the old generation keeps
//! answering its in-flight ones; once the old generation's resident
//! count reaches zero the prober tells those shards to drain.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etsc_obs::{Counter, MetricsRegistry};

use crate::client::{dial, splitmix64, NetError};
use crate::options::RouterBuilder;
use crate::poll::{Event, Poller, WAKE_TOKEN};
use crate::proto::{
    write_frame, ErrorCode, Frame, FrameDecoder, ModelInfo, ProtoError, MAX_FRAME_BYTES,
    PROTO_VERSION,
};
use crate::record::Record;

/// Poller token for the socket a connection thread serves (client side)
/// or the accept loop's listener; upstream tokens start above it.
const CLIENT_TOKEN: u64 = 0;

/// Read-timeout backstop on blocking sockets the pollers drive: reads
/// happen on readiness so they normally never block, but a spurious
/// wakeup must not hang a thread forever.
const READ_BACKSTOP: Duration = Duration::from_millis(100);

/// Peer identification the router sends to shards; its health probes
/// announce themselves as [`PROBE_AGENT`].
const AGENT: &str = "etsc-router";

/// Peer identification of the health prober's dials.
const PROBE_AGENT: &str = "etsc-router-probe";

/// Handshake budget of an upstream session connection.
const UPSTREAM_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Silence budget per client connection.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Budget for collecting shard drain verdicts during a router drain
/// before leftover sessions are failed with attribution.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Consecutive failures before a shard's breaker opens.
const BREAKER_THRESHOLD: u32 = 2;

/// First open interval of a tripped breaker; doubles per failed
/// half-open probe, up to [`BREAKER_BACKOFF_CAP`]. Also the placement
/// pause after an overload signal that carried no hint.
const BREAKER_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling on the breaker's exponential backoff.
const BREAKER_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Monotonic counters snapshotted by [`Router::stats`] and returned by
/// [`Router::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Client connections accepted and served.
    pub connections_accepted: u64,
    /// Client connections refused at accept time.
    pub connections_shed: u64,
    /// Client connections fully closed.
    pub connections_closed: u64,
    /// Fresh sessions placed on a shard.
    pub sessions_opened: u64,
    /// Sessions re-opened by a reconnecting *client* (distinct from
    /// router-initiated migrations).
    pub sessions_resumed: u64,
    /// Sessions answered with a decision forwarded to the client.
    pub sessions_decided: u64,
    /// Sessions that died with an error forwarded (or originated) to
    /// the client.
    pub sessions_failed: u64,
    /// Sessions abandoned by the client (close frame or disconnect).
    pub sessions_abandoned: u64,
    /// Sessions moved off a dead or draining shard and resumed on a
    /// survivor.
    pub sessions_migrated: u64,
    /// [`Frame::Handoff`] announcements sent to takeover shards.
    pub handoffs_sent: u64,
    /// Observation rows forwarded to shards (replays excluded).
    pub rows_routed: u64,
    /// Shard failures recorded (dial failures, dead connections).
    pub shard_failures: u64,
    /// Retryable overload signals from shards — placement cooled for
    /// the hinted backoff without tripping the breaker.
    pub shard_overloads: u64,
    /// Sessions re-placed on another shard after a retryable refusal
    /// (session cap, overload) instead of failing the client.
    pub sessions_requeued: u64,
    /// Shards that came back through a successful half-open probe.
    pub shard_recoveries: u64,
    /// Shard connections that closed with a `Shutdown` reason — planned
    /// drains that skipped the circuit-breaker penalty.
    pub planned_drains: u64,
    /// Health probes dialled.
    pub probes_sent: u64,
    /// Old-generation shards told to drain after a blue/green swap.
    pub shards_retired: u64,
    /// Failover episodes (an unplanned upstream death that migrated at
    /// least one session).
    pub failovers: u64,
    /// Total wall-clock nanoseconds spent in failover episodes, from
    /// death detection to the last replayed row.
    pub failover_ns_total: u64,
    /// Feedback frames forwarded to the shard that decided the session.
    pub feedback_routed: u64,
    /// Model-generation changes observed in shard `Hello` metadata —
    /// a hot-swap on the fleet becoming visible through the router.
    pub generation_changes: u64,
}

impl RouterStats {
    /// Sessions the router still owes an answer. Zero after a clean
    /// drain.
    pub fn open_sessions(&self) -> i64 {
        (self.sessions_opened + self.sessions_resumed) as i64
            - (self.sessions_decided + self.sessions_failed + self.sessions_abandoned) as i64
    }

    /// Mean failover recovery time in milliseconds (0 when no failover
    /// happened).
    pub fn failover_ms(&self) -> f64 {
        if self.failovers == 0 {
            0.0
        } else {
            self.failover_ns_total as f64 / self.failovers as f64 / 1e6
        }
    }
}

/// Every router counter, resolved once at bind: each cell is the one
/// the metrics registry renders and [`Router::stats`] reads.
struct Counters {
    connections_accepted: Counter,
    connections_shed: Counter,
    connections_closed: Counter,
    sessions_opened: Counter,
    sessions_resumed: Counter,
    sessions_decided: Counter,
    sessions_failed: Counter,
    sessions_abandoned: Counter,
    sessions_migrated: Counter,
    handoffs_sent: Counter,
    rows_routed: Counter,
    shard_failures: Counter,
    shard_overloads: Counter,
    sessions_requeued: Counter,
    shard_recoveries: Counter,
    planned_drains: Counter,
    probes_sent: Counter,
    shards_retired: Counter,
    failovers: Counter,
    failover_ns_total: Counter,
    feedback_routed: Counter,
    generation_changes: Counter,
}

impl Counters {
    fn resolve(metrics: &MetricsRegistry) -> Counters {
        Counters {
            connections_accepted: metrics.live_counter("router_connections_total"),
            connections_shed: metrics.live_counter("router_connections_shed_total"),
            connections_closed: metrics.live_counter("router_connections_closed_total"),
            sessions_opened: metrics.live_counter("router_sessions_opened_total"),
            sessions_resumed: metrics.live_counter("router_sessions_resumed_total"),
            sessions_decided: metrics.live_counter("router_sessions_decided_total"),
            sessions_failed: metrics.live_counter("router_sessions_failed_total"),
            sessions_abandoned: metrics.live_counter("router_sessions_abandoned_total"),
            sessions_migrated: metrics.live_counter("router_sessions_migrated_total"),
            handoffs_sent: metrics.live_counter("router_handoffs_total"),
            rows_routed: metrics.live_counter("router_rows_routed_total"),
            shard_failures: metrics.live_counter("router_shard_failures_total"),
            shard_overloads: metrics.live_counter("router_shard_overloads_total"),
            sessions_requeued: metrics.live_counter("router_sessions_requeued_total"),
            shard_recoveries: metrics.live_counter("router_shard_recoveries_total"),
            planned_drains: metrics.live_counter("router_planned_drains_total"),
            probes_sent: metrics.live_counter("router_probes_total"),
            shards_retired: metrics.live_counter("router_shards_retired_total"),
            failovers: metrics.live_counter("router_failovers_total"),
            // Kept out of the registry, which has `router_failover_seconds`.
            failover_ns_total: Counter::standalone(),
            feedback_routed: metrics.live_counter("router_feedback_routed_total"),
            generation_changes: metrics.live_counter("router_generation_changes_total"),
        }
    }

    fn snapshot(&self) -> RouterStats {
        RouterStats {
            connections_accepted: self.connections_accepted.get(),
            connections_shed: self.connections_shed.get(),
            connections_closed: self.connections_closed.get(),
            sessions_opened: self.sessions_opened.get(),
            sessions_resumed: self.sessions_resumed.get(),
            sessions_decided: self.sessions_decided.get(),
            sessions_failed: self.sessions_failed.get(),
            sessions_abandoned: self.sessions_abandoned.get(),
            sessions_migrated: self.sessions_migrated.get(),
            handoffs_sent: self.handoffs_sent.get(),
            rows_routed: self.rows_routed.get(),
            shard_failures: self.shard_failures.get(),
            shard_overloads: self.shard_overloads.get(),
            sessions_requeued: self.sessions_requeued.get(),
            shard_recoveries: self.shard_recoveries.get(),
            planned_drains: self.planned_drains.get(),
            probes_sent: self.probes_sent.get(),
            shards_retired: self.shards_retired.get(),
            failovers: self.failovers.get(),
            failover_ns_total: self.failover_ns_total.get(),
            feedback_routed: self.feedback_routed.get(),
            generation_changes: self.generation_changes.get(),
        }
    }
}

// ---------------------------------------------------------------------
// Shards, circuit breakers, and the consistent-hash ring.
// ---------------------------------------------------------------------

/// Per-shard circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Circuit {
    /// Healthy: eligible for placement and probed on the cadence.
    Closed,
    /// Tripped: no placements until `until`, then half-open.
    Open { until: Instant },
    /// Probation: one probe decides between `Closed` and a longer
    /// `Open`.
    HalfOpen,
}

struct ShardState {
    circuit: Circuit,
    failures: u32,
    backoff: Duration,
    /// Retired by a swap or observed announcing a planned drain: no
    /// new placements, existing sessions keep streaming.
    draining: bool,
    /// Placement pause after a retryable overload signal: the shard is
    /// alive but saturated, so it keeps its sessions and its closed
    /// breaker — it just takes no *new* work until this passes.
    cool_until: Option<Instant>,
}

/// One backend `etsc serve` process as the router sees it.
struct Shard {
    addr: String,
    state: Mutex<ShardState>,
    /// Sessions ever placed here (fresh opens + migrations in).
    placed: AtomicU64,
    /// Currently-open sessions routed here.
    resident: AtomicU64,
    /// Sessions migrated away after this shard died or drained.
    migrated_off: AtomicU64,
}

impl Shard {
    fn new(addr: String) -> Shard {
        Shard {
            addr,
            state: Mutex::new(ShardState {
                circuit: Circuit::Closed,
                failures: 0,
                backoff: BREAKER_BACKOFF,
                draining: false,
                cool_until: None,
            }),
            placed: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            migrated_off: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one failure; returns `true` when this trips (or
    /// re-trips) the breaker.
    fn record_failure(&self) -> bool {
        let mut st = self.lock();
        st.failures = st.failures.saturating_add(1);
        match st.circuit {
            Circuit::Closed if st.failures >= BREAKER_THRESHOLD => {
                st.backoff = BREAKER_BACKOFF;
                st.circuit = Circuit::Open {
                    until: Instant::now() + st.backoff,
                };
                true
            }
            Circuit::HalfOpen => {
                st.backoff = (st.backoff * 2).min(BREAKER_BACKOFF_CAP);
                st.circuit = Circuit::Open {
                    until: Instant::now() + st.backoff,
                };
                true
            }
            _ => false,
        }
    }

    /// Records one success; returns `true` when this closed a tripped
    /// breaker (a recovery).
    fn record_success(&self) -> bool {
        let mut st = self.lock();
        let recovered = st.circuit != Circuit::Closed;
        st.circuit = Circuit::Closed;
        st.failures = 0;
        st.backoff = BREAKER_BACKOFF;
        recovered
    }

    /// Whether a probe is due now; flips an expired `Open` to
    /// `HalfOpen` as a side effect.
    fn probe_due(&self) -> bool {
        let mut st = self.lock();
        if st.draining {
            return false;
        }
        match st.circuit {
            Circuit::Closed | Circuit::HalfOpen => true,
            Circuit::Open { until } => {
                if Instant::now() >= until {
                    st.circuit = Circuit::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Pauses placements for `backoff` without recording a failure:
    /// the shard reported load, not ill health.
    fn cool(&self, backoff: Duration) {
        self.lock().cool_until = Some(Instant::now() + backoff);
    }

    /// Placement eligibility: pass 0 takes healthy shards only, pass 1
    /// also accepts half-open probation.
    fn placeable(&self, pass: usize) -> bool {
        let st = self.lock();
        if st.draining {
            return false;
        }
        if st.cool_until.is_some_and(|t| Instant::now() < t) {
            return false;
        }
        match st.circuit {
            Circuit::Closed => true,
            Circuit::HalfOpen => pass > 0,
            Circuit::Open { .. } => false,
        }
    }

    fn circuit_name(&self) -> &'static str {
        match self.lock().circuit {
            Circuit::Closed => "closed",
            Circuit::Open { .. } => "open",
            Circuit::HalfOpen => "half-open",
        }
    }
}

/// Point-in-time view of one shard, for reports and the CLI.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Backend address.
    pub addr: String,
    /// Sessions ever placed here (fresh opens + migrations in).
    pub placed: u64,
    /// Currently-open sessions.
    pub resident: u64,
    /// Sessions migrated away.
    pub migrated_off: u64,
    /// Breaker state: `closed`, `open`, or `half-open`.
    pub circuit: &'static str,
    /// Retired or observed draining.
    pub draining: bool,
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        splitmix64(h ^ u64::from(b))
    })
}

/// One shard generation: the shards plus their consistent-hash ring.
struct Pool {
    generation: u64,
    shards: Vec<Arc<Shard>>,
    /// Sorted (point, shard index) pairs — `vnodes` points per shard,
    /// derived from the shard *address* so the same fleet always builds
    /// the same ring.
    ring: Vec<(u64, usize)>,
}

impl Pool {
    fn new(generation: u64, addrs: &[String], vnodes: usize) -> Pool {
        let shards: Vec<Arc<Shard>> = addrs
            .iter()
            .map(|a| Arc::new(Shard::new(a.clone())))
            .collect();
        let vnodes = vnodes.max(1) as u64;
        let mut ring = Vec::with_capacity(shards.len() * vnodes as usize);
        for (idx, shard) in shards.iter().enumerate() {
            let base = hash_str(&shard.addr);
            for v in 0..vnodes {
                ring.push((
                    splitmix64(base ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    idx,
                ));
            }
        }
        ring.sort_unstable();
        Pool {
            generation,
            shards,
            ring,
        }
    }

    /// Distinct shard indexes in ring order starting at `key`'s point —
    /// the session's preferred shard first, then its failover order.
    fn candidates(&self, key: u64) -> Vec<usize> {
        if self.ring.is_empty() {
            return Vec::new();
        }
        let h = splitmix64(key);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.shards.len()];
        let mut order = Vec::with_capacity(self.shards.len());
        for i in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + i) % self.ring.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

struct RetiredPool {
    pool: Arc<Pool>,
    drained: bool,
}

// ---------------------------------------------------------------------
// The router proper.
// ---------------------------------------------------------------------

struct RouterShared {
    config: RouterBuilder,
    pool: RwLock<Arc<Pool>>,
    retired: Mutex<Vec<RetiredPool>>,
    meta: Mutex<Option<ModelInfo>>,
    draining: AtomicBool,
    generation: AtomicU64,
    stats: Counters,
    serve_span: Option<u64>,
    /// Wakes the accept loop's poller so a drain interrupts its wait.
    accept_waker: Arc<Poller>,
    /// Parks the prober between probe cadences; notified on drain so
    /// shutdown does not wait out a probe interval.
    prober_park: (Mutex<()>, Condvar),
}

impl RouterShared {
    fn current_pool(&self) -> Arc<Pool> {
        Arc::clone(&self.pool.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn cached_meta(&self) -> Option<ModelInfo> {
        self.meta.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn cache_meta(&self, meta: &ModelInfo) {
        let mut guard = self.meta.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            None => *guard = Some(meta.clone()),
            // A shard announcing a newer generation means an adapter
            // hot-swapped its model; surface it so operators can line
            // fleet visibility up with adaptation events.
            Some(old) if meta.generation > old.generation => {
                let from = old.generation;
                *guard = Some(meta.clone());
                drop(guard);
                self.stats.generation_changes.inc();
                self.config
                    .obs
                    .metrics
                    .gauge("router_model_generation")
                    .set(meta.generation as f64);
                self.config.obs.tracer.event_under(
                    "router.model.generation",
                    self.serve_span,
                    &[
                        ("from", &from.to_string()),
                        ("to", &meta.generation.to_string()),
                    ],
                );
            }
            Some(_) => {}
        }
    }

    /// A health-probe dial: the handshake under the probe budget.
    fn probe(&self, addr: &str) -> Result<(TcpStream, FrameDecoder, ModelInfo), NetError> {
        dial(addr, PROBE_AGENT, self.config.probe_timeout)
    }

    /// The served model's shape, dialling a shard for it if no probe
    /// has cached one yet.
    fn fetch_meta(&self) -> Option<ModelInfo> {
        if let Some(m) = self.cached_meta() {
            return Some(m);
        }
        let pool = self.current_pool();
        for shard in &pool.shards {
            if !shard.placeable(1) {
                continue;
            }
            if let Ok((_stream, _dec, meta)) = self.probe(&shard.addr) {
                self.cache_meta(&meta);
                return Some(meta);
            }
        }
        None
    }
}

/// The running router. Dropping the handle does *not* stop it — call
/// [`Router::shutdown`] then [`Router::join`].
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral) and starts routing sessions
    /// across `shards` (backend addresses) on background threads;
    /// reached through [`crate::Endpoint::route`], which validates
    /// `config`.
    pub(crate) fn bind(
        addr: &str,
        shards: &[String],
        config: RouterBuilder,
    ) -> std::io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut span = config.obs.tracer.span("router.serve");
        span.attr("addr", &addr.to_string());
        span.attr("shards", &shards.len().to_string());
        let serve_span = span.id();
        let pool = Arc::new(Pool::new(1, shards, config.vnodes));
        let accept_waker = Arc::new(Poller::new()?);
        let shared = Arc::new(RouterShared {
            stats: Counters::resolve(&config.obs.metrics),
            config,
            pool: RwLock::new(pool),
            retired: Mutex::new(Vec::new()),
            meta: Mutex::new(None),
            draining: AtomicBool::new(false),
            generation: AtomicU64::new(1),
            serve_span,
            accept_waker,
            prober_park: (Mutex::new(()), Condvar::new()),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("etsc-router-accept".into())
                .spawn(move || {
                    accept_loop(&shared, &listener, &conns);
                    drop(span);
                })?
        };
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("etsc-router-probe".into())
                .spawn(move || prober_loop(&shared))?
        };
        Ok(Router {
            addr,
            shared,
            accept: Some(accept),
            prober: Some(prober),
            conns,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats.snapshot()
    }

    /// Point-in-time view of the *current* shard generation.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shared
            .current_pool()
            .shards
            .iter()
            .map(|s| ShardSnapshot {
                addr: s.addr.clone(),
                placed: s.placed.load(Ordering::Relaxed),
                resident: s.resident.load(Ordering::Relaxed),
                migrated_off: s.migrated_off.load(Ordering::Relaxed),
                circuit: s.circuit_name(),
                draining: s.lock().draining,
            })
            .collect()
    }

    /// The current shard generation number (starts at 1, bumped by
    /// every [`Router::swap`]).
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// Blue/green hot-swap: all *new* sessions go to `shards`; the old
    /// generation keeps answering its in-flight sessions and is told
    /// to drain once its resident count reaches zero.
    pub fn swap(&self, shards: &[String]) {
        let generation = self.shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let new_pool = Arc::new(Pool::new(generation, shards, self.shared.config.vnodes));
        let old = {
            let mut guard = self.shared.pool.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *guard, new_pool)
        };
        for shard in &old.shards {
            shard.lock().draining = true;
        }
        self.shared.config.obs.tracer.event_under(
            "router.swap",
            self.shared.serve_span,
            &[
                ("generation", &generation.to_string()),
                ("shards", &shards.len().to_string()),
            ],
        );
        self.shared
            .retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(RetiredPool {
                pool: old,
                drained: false,
            });
    }

    /// `true` once a drain was requested (locally or by a client
    /// `Shutdown` frame).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop accepting, collect shard drain
    /// verdicts for in-flight sessions, answer clients, close.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.accept_waker.wake();
        self.shared.prober_park.1.notify_all();
    }

    /// Drains (if not already requested) and waits for every thread,
    /// returning the final counters.
    pub fn join(mut self) -> RouterStats {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }
}

fn accept_loop(
    shared: &Arc<RouterShared>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let active = Arc::new(AtomicU64::new(0));
    let mut conn_seq: u64 = 0;
    let poller = Arc::clone(&shared.accept_waker);
    if poller
        .register(listener.as_raw_fd(), CLIENT_TOKEN, true, false)
        .is_err()
    {
        return;
    }
    let mut events: Vec<Event> = Vec::new();
    while !shared.draining.load(Ordering::SeqCst) {
        if poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .is_err()
        {
            // Broken-poller backstop: never spin a core.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nonblocking(false);
                    if active.load(Ordering::SeqCst) >= shared.config.max_connections as u64 {
                        shared.stats.connections_shed.inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                        let mut stream = stream;
                        let _ = write_frame(
                            &mut stream,
                            &Frame::error(ErrorCode::Overloaded, None, "router connection cap"),
                            MAX_FRAME_BYTES,
                        );
                        continue;
                    }
                    conn_seq += 1;
                    let conn_id = conn_seq;
                    shared.stats.connections_accepted.inc();
                    shared.config.obs.tracer.event_under(
                        "router.conn.accept",
                        shared.serve_span,
                        &[("conn", &conn_id.to_string()), ("peer", &peer.to_string())],
                    );
                    active.fetch_add(1, Ordering::SeqCst);
                    let shared2 = Arc::clone(shared);
                    let active2 = Arc::clone(&active);
                    match std::thread::Builder::new()
                        .name(format!("etsc-router-conn-{conn_id}"))
                        .spawn(move || {
                            connection_thread(&shared2, stream, conn_id);
                            active2.fetch_sub(1, Ordering::SeqCst);
                        }) {
                        Ok(handle) => {
                            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                            // Drop the handles of finished threads (which
                            // frees their stacks), so the router keeps one
                            // per live connection, not one per connection
                            // it ever accepted.
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                        Err(_) => {
                            // Thread exhaustion: the closure (and the socket
                            // inside it) is gone, so just undo the accounting.
                            active.fetch_sub(1, Ordering::SeqCst);
                            shared.stats.connections_closed.inc();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept errors: the level-triggered listener
                // stays readable while a backlog remains, so retry on
                // the next readiness instead of spinning here.
                Err(_) => break,
            }
        }
    }
}

/// Health prober: dials every probeable shard on the cadence, drives
/// breaker transitions, and retires swapped-out generations once their
/// resident counts hit zero.
fn prober_loop(shared: &Arc<RouterShared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        let pool = shared.current_pool();
        for shard in &pool.shards {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            if !shard.probe_due() {
                continue;
            }
            shared.stats.probes_sent.inc();
            match shared.probe(&shard.addr) {
                Ok((_stream, _dec, meta)) => {
                    shared.cache_meta(&meta);
                    if shard.record_success() {
                        shared.stats.shard_recoveries.inc();
                        shared.config.obs.tracer.event_under(
                            "router.shard.recover",
                            shared.serve_span,
                            &[("addr", shard.addr.as_str())],
                        );
                    }
                }
                Err(_) => {
                    // A drain announcement may still be in flight when
                    // the dial bounces off the closed listener; once it
                    // lands the shard is draining and owes no penalty.
                    if shard.lock().draining {
                        continue;
                    }
                    shared.stats.shard_failures.inc();
                    if shard.record_failure() {
                        shared.config.obs.tracer.event_under(
                            "router.shard.trip",
                            shared.serve_span,
                            &[("addr", shard.addr.as_str())],
                        );
                    }
                }
            }
        }
        retire_idle_generations(shared);
        // Park until the next cadence; a drain notification cuts the
        // wait short instead of sleep-polling a flag.
        let (lock, cv) = &shared.prober_park;
        let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        let _ = cv.wait_timeout(guard, shared.config.probe_interval);
    }
}

/// Tells every shard of a swapped-out generation to drain once its last
/// in-flight session is answered.
fn retire_idle_generations(shared: &RouterShared) {
    let mut retired = shared.retired.lock().unwrap_or_else(|e| e.into_inner());
    for rp in retired.iter_mut() {
        if rp.drained {
            continue;
        }
        let idle = rp
            .pool
            .shards
            .iter()
            .all(|s| s.resident.load(Ordering::SeqCst) == 0);
        if !idle {
            continue;
        }
        for shard in &rp.pool.shards {
            if let Ok((mut stream, _dec, _meta)) = shared.probe(&shard.addr) {
                let _ = write_frame(&mut stream, &Frame::Shutdown, MAX_FRAME_BYTES);
            }
            shared.stats.shards_retired.inc();
            shared.config.obs.tracer.event_under(
                "router.shard.retire",
                shared.serve_span,
                &[
                    ("addr", shard.addr.as_str()),
                    ("generation", &rp.pool.generation.to_string()),
                ],
            );
        }
        rp.drained = true;
    }
}

// ---------------------------------------------------------------------
// Per-client-connection forwarding loop.
// ---------------------------------------------------------------------

/// One upstream connection from this client connection to one shard.
struct Upstream {
    stream: TcpStream,
    dec: FrameDecoder,
    shard: Arc<Shard>,
    /// Saw `ErrorCode::Shutdown` or a `Shutdown` frame: the coming EOF
    /// is a planned drain, not a crash.
    planned: bool,
    /// This connection's token on the conn thread's poller.
    token: u64,
}

/// One routed client session.
struct Routed {
    /// Address of the shard currently owning the session.
    addr: String,
    shard: Arc<Shard>,
    vars: usize,
    expected_len: usize,
    /// Client-declared session deadline, preserved across migrations.
    deadline_ms: u64,
    /// Client-declared priority, preserved across migrations.
    priority: u8,
    /// Requeue attempts spent on retryable shard refusals.
    retries: u32,
    /// Buffered `(deadline_ms, row)` prefix, replayed on migration.
    rows: Vec<(u64, Vec<f64>)>,
}

/// Finished sessions a router connection remembers: late frames for
/// them are ignored, and late `Feedback` reaches the shard that made
/// the call.
const DECIDED_MEMORY: usize = 1024;

struct RouterConn<'r> {
    shared: &'r RouterShared,
    conn_id: u64,
    client: TcpStream,
    upstreams: HashMap<String, Upstream>,
    sessions: HashMap<u64, Routed>,
    /// The newest [`DECIDED_MEMORY`] sessions that left `sessions`,
    /// with the address of the shard that decided each (`None` for a
    /// failed or abandoned one, or once its feedback was forwarded).
    retired: Record<Option<String>>,
    said_hello: bool,
    /// Drives this thread's sockets: client under [`CLIENT_TOKEN`],
    /// upstreams under the tokens in `tokens`.
    poller: Poller,
    /// Poller token → upstream address.
    tokens: HashMap<u64, String>,
    next_token: u64,
}

enum Flow {
    Continue,
    Drain,
    Fatal(&'static str),
}

fn connection_thread(shared: &Arc<RouterShared>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_BACKSTOP));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(poller) = Poller::new() else {
        shared.stats.connections_closed.inc();
        return;
    };
    let mut conn = RouterConn {
        shared: shared.as_ref(),
        conn_id,
        client: stream,
        upstreams: HashMap::new(),
        sessions: HashMap::new(),
        retired: Record::new(DECIDED_MEMORY),
        said_hello: false,
        poller,
        tokens: HashMap::new(),
        next_token: CLIENT_TOKEN + 1,
    };
    let reason = conn.serve();
    let abandoned = conn.abandon_all();
    shared.stats.connections_closed.inc();
    shared.config.obs.tracer.event_under(
        "router.conn.close",
        shared.serve_span,
        &[
            ("conn", &conn_id.to_string()),
            ("reason", reason),
            ("abandoned", &abandoned.to_string()),
        ],
    );
}

impl<'r> RouterConn<'r> {
    fn serve(&mut self) -> &'static str {
        let mut dec = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut last_activity = Instant::now();
        if self
            .poller
            .register(self.client.as_raw_fd(), CLIENT_TOKEN, true, false)
            .is_err()
        {
            return "io-error";
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                self.drain();
                return "drained";
            }
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => match self.handle_client(frame) {
                        Flow::Continue => {}
                        Flow::Drain => {
                            self.drain();
                            return "drained";
                        }
                        Flow::Fatal(reason) => return reason,
                    },
                    Ok(None) => break,
                    Err(e) => {
                        self.send_client(&Frame::error(ErrorCode::BadFrame, None, e.to_string()));
                        return "proto-error";
                    }
                }
            }
            if last_activity.elapsed() > IDLE_TIMEOUT {
                self.send_client(&Frame::error(
                    ErrorCode::IdleTimeout,
                    None,
                    format!("no frames for {IDLE_TIMEOUT:?}"),
                ));
                return "idle-timeout";
            }
            // Capped so the drain flag (set by another thread with no
            // handle on this poller) is noticed promptly.
            let budget = IDLE_TIMEOUT
                .saturating_sub(last_activity.elapsed())
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            if self.poller.wait(&mut events, Some(budget)).is_err() {
                // Broken-poller backstop: never spin a core.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    CLIENT_TOKEN => match dec.read_from(&mut self.client) {
                        Ok(0) => return "eof",
                        Ok(_) => last_activity = Instant::now(),
                        Err(ProtoError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => return "io-error",
                    },
                    token => self.pump_upstream_token(token),
                }
            }
        }
    }

    fn handle_client(&mut self, frame: Frame) -> Flow {
        match frame {
            Frame::Hello { version, .. } => {
                if version != PROTO_VERSION {
                    self.send_client(&Frame::error(
                        ErrorCode::BadFrame,
                        None,
                        ProtoError::Version {
                            got: version,
                            want: PROTO_VERSION,
                        }
                        .to_string(),
                    ));
                    return Flow::Fatal("proto-error");
                }
                if !self.said_hello {
                    self.said_hello = true;
                    let Some(meta) = self.shared.fetch_meta() else {
                        self.send_client(&Frame::error(
                            ErrorCode::Overloaded,
                            None,
                            "no healthy shard to answer the handshake",
                        ));
                        return Flow::Fatal("no-shard");
                    };
                    self.send_client(&Frame::hello(AGENT, Some(meta)));
                }
                Flow::Continue
            }
            Frame::OpenSession {
                id,
                vars,
                expected_len,
                resume,
                deadline_ms,
                priority,
            } => {
                self.open_session(id, vars, expected_len, resume, deadline_ms, priority);
                Flow::Continue
            }
            Frame::Observe {
                session,
                step,
                row,
                deadline_ms,
            } => {
                self.observe(session, step, row, deadline_ms);
                Flow::Continue
            }
            Frame::ObserveBatch {
                session,
                start_step,
                rows,
                deadline_ms,
            } => {
                self.observe_batch(session, start_step, rows, deadline_ms);
                Flow::Continue
            }
            Frame::CloseSession { session } => {
                if let Some(routed) = self.sessions.remove(&session) {
                    self.retired.insert(session, None);
                    routed.shard.resident.fetch_sub(1, Ordering::SeqCst);
                    self.shared.stats.sessions_abandoned.inc();
                    let addr = routed.addr.clone();
                    if self
                        .send_upstream(&addr, &Frame::CloseSession { session })
                        .is_err()
                    {
                        self.upstream_dead(&addr);
                    }
                }
                Flow::Continue
            }
            Frame::Feedback { session, label } => {
                self.feedback(session, label);
                Flow::Continue
            }
            Frame::Shutdown => {
                self.shared.draining.store(true, Ordering::SeqCst);
                Flow::Drain
            }
            Frame::Decision { .. }
            | Frame::DecisionBatch { .. }
            | Frame::Error { .. }
            | Frame::Handoff { .. } => {
                self.send_client(&Frame::error(
                    ErrorCode::BadFrame,
                    None,
                    "server-only frame from client",
                ));
                Flow::Continue
            }
        }
    }

    fn session_key(&self, id: u64) -> u64 {
        splitmix64((self.conn_id << 32) ^ id)
    }

    fn open_session(
        &mut self,
        id: u64,
        vars: usize,
        expected_len: usize,
        resume: bool,
        deadline_ms: u64,
        priority: u8,
    ) {
        if self.shared.draining.load(Ordering::SeqCst) {
            self.send_client(&Frame::error(
                ErrorCode::Draining,
                Some(id),
                "router is draining",
            ));
            return;
        }
        if self.sessions.contains_key(&id) {
            self.send_client(&Frame::error(
                ErrorCode::BadFrame,
                Some(id),
                "session id already open",
            ));
            return;
        }
        self.retired.remove(id);
        let mut exclude = HashSet::new();
        let Some(addr) = self.pick_and_connect(self.session_key(id), &mut exclude) else {
            self.send_client(&Frame::error(
                ErrorCode::Overloaded,
                Some(id),
                "no healthy shard available",
            ));
            self.shared.stats.sessions_failed.inc();
            self.retired.insert(id, None);
            return;
        };
        let Some(up) = self.upstreams.get(&addr) else {
            // pick_and_connect only returns connected addresses; if the
            // entry is gone anyway, treat it like no shard at all.
            self.send_client(&Frame::error(
                ErrorCode::Overloaded,
                Some(id),
                "no healthy shard available",
            ));
            self.shared.stats.sessions_failed.inc();
            self.retired.insert(id, None);
            return;
        };
        let shard = Arc::clone(&up.shard);
        shard.placed.fetch_add(1, Ordering::SeqCst);
        shard.resident.fetch_add(1, Ordering::SeqCst);
        self.sessions.insert(
            id,
            Routed {
                addr: addr.clone(),
                shard,
                vars,
                expected_len,
                deadline_ms,
                priority,
                retries: 0,
                rows: Vec::new(),
            },
        );
        if resume {
            self.shared.stats.sessions_resumed.inc();
        } else {
            self.shared.stats.sessions_opened.inc();
        }
        if self
            .send_upstream(
                &addr,
                &Frame::OpenSession {
                    id,
                    vars,
                    expected_len,
                    resume,
                    deadline_ms,
                    priority,
                },
            )
            .is_err()
        {
            // The freshly-placed session is migrated with everything
            // else resident on the dead upstream.
            self.upstream_dead(&addr);
        }
    }

    fn observe(&mut self, session: u64, step: u64, row: Vec<f64>, deadline_ms: u64) {
        let Some(routed) = self.sessions.get_mut(&session) else {
            self.refuse_unless_retired(session);
            return;
        };
        routed.rows.push((deadline_ms, row.clone()));
        let addr = routed.addr.clone();
        self.shared.stats.rows_routed.inc();
        if self
            .send_upstream(
                &addr,
                &Frame::Observe {
                    session,
                    step,
                    row,
                    deadline_ms,
                },
            )
            .is_err()
        {
            self.upstream_dead(&addr);
        }
    }

    /// Forwards a client observation batch: recorded row by row in the
    /// migration buffer (replay is always per-row), then sent upstream
    /// as one batch.
    fn observe_batch(
        &mut self,
        session: u64,
        start_step: u64,
        rows: Vec<Vec<f64>>,
        deadline_ms: u64,
    ) {
        if rows.is_empty() {
            return;
        }
        let Some(routed) = self.sessions.get_mut(&session) else {
            self.refuse_unless_retired(session);
            return;
        };
        for row in &rows {
            routed.rows.push((deadline_ms, row.clone()));
        }
        let addr = routed.addr.clone();
        self.shared.stats.rows_routed.add(rows.len() as u64);
        let sent = self.send_upstream(
            &addr,
            &Frame::ObserveBatch {
                session,
                start_step,
                rows,
                deadline_ms,
            },
        );
        if sent.is_err() {
            self.upstream_dead(&addr);
        }
    }

    /// Answers a frame for `session`, which is not open: a late frame
    /// for a recently retired session is ignored; an id never opened,
    /// or retired longer ago than the record reaches, is refused.
    fn refuse_unless_retired(&mut self, session: u64) {
        if !self.retired.contains(session) {
            self.send_client(&Frame::error(
                ErrorCode::UnknownSession,
                Some(session),
                format!("observe for session {session}, which is not open on this connection"),
            ));
        }
    }

    /// Forwards ground truth to the shard that decided the session.
    /// Feedback is advisory: if that shard is gone (or the memory of
    /// who decided has aged out), the frame is dropped with a
    /// structured error, never a teardown.
    fn feedback(&mut self, session: u64, label: u64) {
        // Forwarded once: the id stays retired, its shard address goes.
        let Some(addr) = self.retired.get_mut(session).and_then(Option::take) else {
            self.send_client(&Frame::error(
                ErrorCode::UnknownSession,
                Some(session),
                format!("feedback for session {session} with no decision on this router"),
            ));
            return;
        };
        if self
            .send_upstream(&addr, &Frame::Feedback { session, label })
            .is_err()
        {
            self.upstream_dead(&addr);
            self.send_client(&Frame::error(
                ErrorCode::UnknownSession,
                Some(session),
                "deciding shard is gone; feedback dropped",
            ));
            return;
        }
        self.shared.stats.feedback_routed.inc();
    }

    /// Ring placement + upstream dial, excluding and breaker-penalising
    /// shards whose dial fails. Returns the connected shard's address.
    fn pick_and_connect(&mut self, key: u64, exclude: &mut HashSet<String>) -> Option<String> {
        loop {
            let pool = self.shared.current_pool();
            let order = pool.candidates(key);
            let mut choice: Option<Arc<Shard>> = None;
            'pick: for pass in 0..2 {
                for &idx in &order {
                    let shard = &pool.shards[idx];
                    if exclude.contains(&shard.addr) || !shard.placeable(pass) {
                        continue;
                    }
                    choice = Some(Arc::clone(shard));
                    break 'pick;
                }
            }
            let shard = choice?;
            let addr = shard.addr.clone();
            if self.upstreams.contains_key(&addr) {
                return Some(addr);
            }
            match dial(&addr, AGENT, UPSTREAM_HANDSHAKE_TIMEOUT) {
                Ok((stream, dec, meta)) => {
                    let _ = stream.set_read_timeout(Some(READ_BACKSTOP));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                    self.shared.cache_meta(&meta);
                    let token = self.next_token;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        // Treated like a failed dial: the socket is
                        // useless if its replies cannot wake us.
                        self.shared.stats.shard_failures.inc();
                        shard.record_failure();
                        exclude.insert(addr);
                        continue;
                    }
                    self.next_token += 1;
                    if shard.record_success() {
                        self.shared.stats.shard_recoveries.inc();
                    }
                    self.tokens.insert(token, addr.clone());
                    self.upstreams.insert(
                        addr.clone(),
                        Upstream {
                            stream,
                            dec,
                            shard,
                            planned: false,
                            token,
                        },
                    );
                    return Some(addr);
                }
                Err(_) => {
                    self.shared.stats.shard_failures.inc();
                    shard.record_failure();
                    exclude.insert(addr);
                }
            }
        }
    }

    fn send_upstream(&mut self, addr: &str, frame: &Frame) -> Result<(), ()> {
        let max = MAX_FRAME_BYTES;
        let Some(up) = self.upstreams.get_mut(addr) else {
            return Err(());
        };
        write_frame(&mut up.stream, frame, max).map_err(|_| ())
    }

    fn send_client(&mut self, frame: &Frame) {
        // Best-effort: a dead client surfaces as EOF on the next read.
        let max = MAX_FRAME_BYTES;
        let _ = write_frame(&mut self.client, frame, max);
    }

    /// Reads and dispatches whatever the upstream behind `token` has
    /// sent; a dead upstream triggers migration.
    fn pump_upstream_token(&mut self, token: u64) {
        let Some(addr) = self.tokens.get(&token).cloned() else {
            return;
        };
        // A stale token can outlive its upstream (the address may even
        // have been re-dialled under a new token); serve only the
        // pairing that is still current.
        if self.upstreams.get(&addr).is_none_or(|u| u.token != token) {
            self.tokens.remove(&token);
            return;
        }
        let mut dead = false;
        {
            let Some(up) = self.upstreams.get_mut(&addr) else {
                return;
            };
            match up.dec.read_from(&mut up.stream) {
                Ok(0) => dead = true,
                Ok(_) => {}
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => dead = true,
            }
        }
        if !dead {
            loop {
                let next = {
                    let Some(up) = self.upstreams.get_mut(&addr) else {
                        break;
                    };
                    up.dec.next_frame()
                };
                match next {
                    Ok(Some(frame)) => self.handle_upstream(&addr, frame),
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.upstream_dead(&addr);
        }
    }

    /// Commits one upstream decision (single frame or batch member):
    /// session bookkeeping, decided-shard memory for late feedback,
    /// and the forward to the client — always as a single `Decision`
    /// frame, since the client may predate batch framing.
    fn on_upstream_decision(&mut self, addr: &str, frame: Frame) {
        let Frame::Decision { session, .. } = frame else {
            return;
        };
        let owned = self.sessions.get(&session).is_some_and(|r| r.addr == addr);
        if !owned {
            return;
        }
        if let Some(routed) = self.sessions.remove(&session) {
            routed.shard.resident.fetch_sub(1, Ordering::SeqCst);
        }
        // Remember who decided so late feedback finds the shard whose
        // reservoir should learn from it.
        self.retired.insert(session, Some(addr.to_string()));
        self.shared.stats.sessions_decided.inc();
        self.send_client(&frame);
    }

    fn handle_upstream(&mut self, addr: &str, frame: Frame) {
        match frame {
            Frame::Decision { .. } => self.on_upstream_decision(addr, frame),
            Frame::DecisionBatch { decisions } => {
                // Split toward the client: batch framing is negotiated
                // per connection, and the client's revision may lag the
                // shard's.
                for d in decisions {
                    self.on_upstream_decision(
                        addr,
                        Frame::Decision {
                            session: d.session,
                            label: d.label,
                            prefix_len: d.prefix_len,
                            kind: d.kind,
                        },
                    );
                }
            }
            Frame::Error {
                session: Some(id),
                code,
                retry,
                ..
            } => {
                let owned = self.sessions.get(&id).is_some_and(|r| r.addr == addr);
                if owned {
                    // A load-induced refusal of work the shard never
                    // processed (session cap, overload) is the
                    // router's to absorb: re-place the session on a
                    // sibling shard instead of bouncing the overload
                    // back to the client.
                    let requeueable = retry.is_retryable()
                        && matches!(code, ErrorCode::Overloaded | ErrorCode::SessionLimit)
                        && self.sessions.get(&id).is_some_and(|r| r.retries == 0);
                    if requeueable && self.requeue_session(id, addr) {
                        return;
                    }
                    if let Some(routed) = self.sessions.remove(&id) {
                        routed.shard.resident.fetch_sub(1, Ordering::SeqCst);
                    }
                    self.retired.insert(id, None);
                    self.shared.stats.sessions_failed.inc();
                    self.send_client(&frame);
                }
            }
            Frame::Error {
                code: ErrorCode::Shutdown,
                session: None,
                ..
            }
            | Frame::Shutdown => {
                // Planned drain: the coming EOF must not be penalised,
                // and the shard must not take new placements.
                if let Some(up) = self.upstreams.get_mut(addr) {
                    if !up.planned {
                        up.planned = true;
                        let mut st = up.shard.lock();
                        st.draining = true;
                        // Amnesty: the shard announced a *planned*
                        // exit, so dial failures raced against its
                        // closing listener were noise, not ill health.
                        st.failures = 0;
                        drop(st);
                        self.shared.stats.planned_drains.inc();
                    }
                }
            }
            Frame::Hello { meta, .. } => {
                if let Some(meta) = meta {
                    self.shared.cache_meta(&meta);
                }
            }
            Frame::Error {
                session: None,
                retry,
                ..
            } => {
                if retry.is_retryable() {
                    // Connection-scoped overload signal: the shard is
                    // alive but saturated. Pause placements for the
                    // hinted backoff instead of declaring it dead and
                    // migrating its in-flight sessions.
                    let hint = retry
                        .retry_after()
                        .filter(|d| !d.is_zero())
                        .unwrap_or(BREAKER_BACKOFF);
                    if let Some(up) = self.upstreams.get(addr) {
                        up.shard.cool(hint);
                    }
                    self.shared.stats.shard_overloads.inc();
                    self.shared.config.obs.tracer.event_under(
                        "router.shard.overload",
                        self.shared.serve_span,
                        &[("addr", addr), ("cool_ms", &hint.as_millis().to_string())],
                    );
                } else {
                    // Terminal connection-fatal shard error: treat the
                    // upstream as dead and migrate its sessions.
                    self.upstream_dead(addr);
                }
            }
            // Client-only frames from a server: ignore.
            Frame::OpenSession { .. }
            | Frame::Observe { .. }
            | Frame::ObserveBatch { .. }
            | Frame::CloseSession { .. }
            | Frame::Feedback { .. }
            | Frame::Handoff { .. } => {}
        }
    }

    /// An upstream connection is gone. Unplanned deaths penalise the
    /// shard's breaker and migrate every resident session to a
    /// survivor via handoff + resume + replay; planned drains only
    /// sweep up (the shard answered its sessions before closing).
    fn upstream_dead(&mut self, addr: &str) {
        let Some(up) = self.upstreams.remove(addr) else {
            return;
        };
        let _ = self.poller.deregister(up.stream.as_raw_fd());
        self.tokens.remove(&up.token);
        let planned = up.planned;
        if !planned {
            self.shared.stats.shard_failures.inc();
            if up.shard.record_failure() {
                self.shared.config.obs.tracer.event_under(
                    "router.shard.trip",
                    self.shared.serve_span,
                    &[("addr", addr)],
                );
            }
        }
        let started = Instant::now();
        let mut queue: VecDeque<(u64, String)> = self
            .sessions
            .iter()
            .filter(|(_, r)| r.addr == addr)
            .map(|(&id, r)| (id, r.addr.clone()))
            .collect();
        if queue.is_empty() {
            return;
        }
        if self.shared.draining.load(Ordering::SeqCst) {
            // No migration during a router drain: fail what the shard
            // did not answer, with attribution.
            while let Some((id, _)) = queue.pop_front() {
                self.fail_session(id, ErrorCode::Draining, "shard closed during router drain");
            }
            return;
        }
        let mut migrated = 0u64;
        let mut exclude: HashSet<String> = HashSet::new();
        exclude.insert(addr.to_string());
        while let Some((id, origin)) = queue.pop_front() {
            if !self.sessions.contains_key(&id) {
                continue;
            }
            let Some(new_addr) = self.pick_and_connect(self.session_key(id), &mut exclude) else {
                self.fail_session(
                    id,
                    ErrorCode::Overloaded,
                    "no shard available for migration",
                );
                continue;
            };
            match self.replay_to(id, &origin, &new_addr) {
                Ok(()) => migrated += 1,
                Err(()) => {
                    // The takeover shard died mid-replay: penalise it,
                    // exclude it, and re-queue everything now resident
                    // there (this session included).
                    if let Some(bad) = self.upstreams.remove(&new_addr) {
                        let _ = self.poller.deregister(bad.stream.as_raw_fd());
                        self.tokens.remove(&bad.token);
                        if !bad.planned {
                            self.shared.stats.shard_failures.inc();
                            bad.shard.record_failure();
                        }
                    }
                    exclude.insert(new_addr.clone());
                    for (&sid, r) in &self.sessions {
                        if r.addr == new_addr {
                            queue.push_back((sid, new_addr.clone()));
                        }
                    }
                }
            }
        }
        if migrated > 0 && !planned {
            let elapsed = started.elapsed();
            self.shared.stats.failovers.inc();
            self.shared
                .stats
                .failover_ns_total
                .add(elapsed.as_nanos() as u64);
            self.shared
                .config
                .obs
                .metrics
                .histogram("router_failover_seconds")
                .record(elapsed.as_secs_f64());
            self.shared.config.obs.tracer.event_under(
                "router.failover",
                self.shared.serve_span,
                &[
                    ("conn", &self.conn_id.to_string()),
                    ("origin", addr),
                    ("migrated", &migrated.to_string()),
                    ("ms", &format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
                ],
            );
        }
    }

    /// Re-places a session refused by `refused_by` for load reasons on
    /// a sibling shard, replaying its buffered prefix. Returns `true`
    /// when the session found a new home.
    fn requeue_session(&mut self, id: u64, refused_by: &str) -> bool {
        if let Some(routed) = self.sessions.get_mut(&id) {
            routed.retries += 1;
        }
        let mut exclude = HashSet::new();
        exclude.insert(refused_by.to_string());
        let Some(new_addr) = self.pick_and_connect(self.session_key(id), &mut exclude) else {
            return false;
        };
        if self.replay_to(id, refused_by, &new_addr).is_err() {
            return false;
        }
        self.shared.stats.sessions_requeued.inc();
        self.shared.config.obs.tracer.event_under(
            "router.session.requeue",
            self.shared.serve_span,
            &[
                ("session", &id.to_string()),
                ("from", refused_by),
                ("to", &new_addr),
            ],
        );
        true
    }

    /// Moves session `id` from `origin` to `new_addr`: handoff
    /// announcement, resume open, buffered-prefix replay, accounting.
    fn replay_to(&mut self, id: u64, origin: &str, new_addr: &str) -> Result<(), ()> {
        let (vars, expected_len, deadline_ms, priority, rows, old_shard) = {
            let Some(routed) = self.sessions.get(&id) else {
                // Caller guarantees presence; nothing to move if the
                // session vanished anyway.
                return Ok(());
            };
            (
                routed.vars,
                routed.expected_len,
                routed.deadline_ms,
                routed.priority,
                routed.rows.clone(),
                Arc::clone(&routed.shard),
            )
        };
        self.send_upstream(
            new_addr,
            &Frame::Handoff {
                session: id,
                origin: origin.to_string(),
                replayed: rows.len() as u64,
            },
        )?;
        self.shared.stats.handoffs_sent.inc();
        self.send_upstream(
            new_addr,
            &Frame::OpenSession {
                id,
                vars,
                expected_len,
                resume: true,
                deadline_ms,
                priority,
            },
        )?;
        for (i, (row_deadline_ms, row)) in rows.iter().enumerate() {
            self.send_upstream(
                new_addr,
                &Frame::Observe {
                    session: id,
                    step: i as u64 + 1,
                    row: row.clone(),
                    deadline_ms: *row_deadline_ms,
                },
            )?;
        }
        let Some(new_up) = self.upstreams.get(new_addr) else {
            return Err(());
        };
        let new_shard = Arc::clone(&new_up.shard);
        old_shard.resident.fetch_sub(1, Ordering::SeqCst);
        old_shard.migrated_off.fetch_add(1, Ordering::SeqCst);
        new_shard.placed.fetch_add(1, Ordering::SeqCst);
        new_shard.resident.fetch_add(1, Ordering::SeqCst);
        let Some(routed) = self.sessions.get_mut(&id) else {
            return Ok(());
        };
        routed.addr = new_addr.to_string();
        routed.shard = new_shard;
        self.shared.stats.sessions_migrated.inc();
        self.shared.config.obs.tracer.event_under(
            "router.session.migrate",
            self.shared.serve_span,
            &[
                ("conn", &self.conn_id.to_string()),
                ("session", &id.to_string()),
                ("from", origin),
                ("to", new_addr),
                ("replayed", &rows.len().to_string()),
            ],
        );
        Ok(())
    }

    fn fail_session(&mut self, id: u64, code: ErrorCode, message: &str) {
        let Some(routed) = self.sessions.remove(&id) else {
            return;
        };
        routed.shard.resident.fetch_sub(1, Ordering::SeqCst);
        self.retired.insert(id, None);
        self.shared.stats.sessions_failed.inc();
        self.send_client(&Frame::error(code, Some(id), message));
    }

    /// Router drain: forward the drain to every upstream, pump their
    /// drain verdicts through to the client, fail whatever remains,
    /// and say goodbye with the `Shutdown` reason code so the client
    /// knows the close was planned.
    fn drain(&mut self) {
        let addrs: Vec<String> = self.upstreams.keys().cloned().collect();
        for addr in addrs {
            let _ = self.send_upstream(&addr, &Frame::Shutdown);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut events: Vec<Event> = Vec::new();
        while !self.sessions.is_empty() && !self.upstreams.is_empty() && Instant::now() < deadline {
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let ready: Vec<u64> = events
                .iter()
                .map(|e| e.token)
                .filter(|&t| t != CLIENT_TOKEN && t != WAKE_TOKEN)
                .collect();
            for token in ready {
                self.pump_upstream_token(token);
            }
        }
        let leftover: Vec<u64> = self.sessions.keys().copied().collect();
        for id in leftover {
            self.fail_session(id, ErrorCode::Draining, "router drained without an answer");
        }
        self.send_client(&Frame::error(
            ErrorCode::Shutdown,
            None,
            "router drain complete",
        ));
        self.send_client(&Frame::Shutdown);
    }

    /// Abandons whatever is still open (client disconnect, protocol
    /// error). Returns how many sessions were abandoned.
    fn abandon_all(&mut self) -> usize {
        let n = self.sessions.len();
        for (_, routed) in self.sessions.drain() {
            routed.shard.resident.fetch_sub(1, Ordering::SeqCst);
            self.shared.stats.sessions_abandoned.inc();
        }
        // Dropping the upstream sockets lets each shard see EOF and
        // account its side of the abandonment.
        self.upstreams.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(addrs: &[&str]) -> Pool {
        let addrs: Vec<String> = addrs.iter().map(|s| (*s).to_string()).collect();
        Pool::new(1, &addrs, 64)
    }

    #[test]
    fn ring_spreads_keys_and_is_deterministic() {
        let p = pool(&["a:1", "b:2", "c:3"]);
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            let order = p.candidates(splitmix64(key));
            assert_eq!(order.len(), 3);
            counts[order[0]] += 1;
        }
        for (idx, &n) in counts.iter().enumerate() {
            assert!(
                n > 3000 / 3 / 3,
                "shard {idx} got only {n} of 3000 primary placements"
            );
        }
        // Same key, same preference order — placement is a pure
        // function of (ring, key).
        assert_eq!(p.candidates(42), p.candidates(42));
    }

    #[test]
    fn ring_preference_is_stable_for_surviving_shards() {
        // Removing one shard must not reshuffle sessions between the
        // survivors: every key whose first choice survives keeps it.
        let full = pool(&["a:1", "b:2", "c:3"]);
        let smaller = pool(&["a:1", "c:3"]); // "b:2" died
        for key in 0..500u64 {
            let first_full = full.candidates(key)[0];
            if first_full == 1 {
                continue; // was on the dead shard; must move
            }
            let addr_full = &full.shards[first_full].addr;
            let first_small = smaller.candidates(key)[0];
            assert_eq!(
                addr_full, &smaller.shards[first_small].addr,
                "key {key} moved between surviving shards"
            );
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_half_open() {
        let shard = Shard::new("x:1".to_string());
        assert!(shard.placeable(0));
        assert!(!shard.record_failure());
        assert!(shard.placeable(0), "one failure must not trip");
        assert!(shard.record_failure(), "threshold trips");
        assert!(!shard.placeable(1), "open shard takes no placements");
        std::thread::sleep(BREAKER_BACKOFF + Duration::from_millis(20));
        assert!(shard.probe_due(), "expired open goes half-open");
        assert!(
            !shard.placeable(0) && shard.placeable(1),
            "half-open is probation only"
        );
        // A failed probation doubles the backoff…
        assert!(shard.record_failure());
        assert_eq!(shard.lock().backoff, BREAKER_BACKOFF * 2);
        std::thread::sleep(BREAKER_BACKOFF * 2 + Duration::from_millis(20));
        assert!(shard.probe_due());
        // …and a successful one closes the breaker and resets it.
        assert!(shard.record_success(), "reopening counts as recovery");
        assert!(shard.placeable(0));
        assert_eq!(shard.lock().failures, 0);
        assert!(!shard.record_success(), "steady health is not a recovery");
    }

    #[test]
    fn finished_connection_threads_are_not_retained() {
        let router = Router::bind(
            "127.0.0.1:0",
            &["127.0.0.1:1".to_string()],
            RouterBuilder::new(),
        )
        .unwrap();
        for i in 1..=50 {
            drop(TcpStream::connect(router.local_addr()).unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while router.stats().connections_closed < i {
                assert!(Instant::now() < deadline, "connection {i} never closed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let retained = router.conns.lock().unwrap().len();
        assert!(
            retained <= 3,
            "{retained} handles kept after 50 closed connections"
        );
        router.join();
    }

    #[test]
    fn drained_shards_are_never_placeable() {
        let shard = Shard::new("x:1".to_string());
        shard.lock().draining = true;
        assert!(!shard.placeable(0) && !shard.placeable(1));
        assert!(!shard.probe_due(), "retired shards are not probed");
    }
}
