//! The configuration surface: one validated builder per role, entered
//! through [`Endpoint`].
//!
//! [`ServerBuilder`], [`RouterBuilder`] and [`ClientBuilder`] each own
//! their role's knobs, and the running [`NetServer`], [`Router`] and
//! [`Client`] read them from the builder they were started with, so no
//! field is copied between structs. [`Endpoint`] is the only way to
//! start any of the three. It validates the combination first and
//! refuses one the stack would mishandle silently (a zero connection
//! cap, a zero-vnode ring) with a [`ConfigError`] that names the knob.
//!
//! A knob exists only where something sets it: the CLI, the benchmark
//! binaries, the fleet harness, or a test that cannot do without it.
//! The frame ceiling ([`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES)), the
//! idle budget, the handshake agents and timeouts, the client's
//! reconnect backoff and the router's breaker and drain budgets are
//! constants of the module that uses them.
//!
//! ```no_run
//! use std::sync::Arc;
//! use etsc_net::{ClientBuilder, Endpoint, ServerBuilder};
//! # fn run(model: Arc<etsc_serve::StoredModel>) -> Result<(), Box<dyn std::error::Error>> {
//! let server = Endpoint::serve(model, "127.0.0.1:0", ServerBuilder::new().max_connections(256))?;
//! let addr = server.local_addr().to_string();
//! let client = Endpoint::connect(&addr, ClientBuilder::new().deadline_ms(250))?;
//! # drop(client);
//! # server.join();
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use etsc_adapt::FeedbackSink;
use etsc_eval::faults::FaultPlan;
use etsc_obs::Obs;
use etsc_serve::StoredModel;

use crate::client::{Client, NetError};
use crate::proto::MAX_PENDING_FRAMES;
use crate::router::Router;
use crate::server::NetServer;

/// A config combination the builders refuse. Carries the knob that
/// failed and why, so the fix is one grep away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The builder knob that failed validation.
    pub field: &'static str,
    /// What about its value is unusable.
    pub reason: String,
}

impl ConfigError {
    fn new(field: &'static str, reason: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for std::io::Error {
    fn from(e: ConfigError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
    }
}

fn at_least_one(field: &'static str, n: usize) -> Result<(), ConfigError> {
    if n == 0 {
        return Err(ConfigError::new(field, "must be at least 1"));
    }
    Ok(())
}

/// The shard server's knobs. Start from [`ServerBuilder::new`], chain
/// setters, and hand it to [`Endpoint::serve`].
#[derive(Clone)]
pub struct ServerBuilder {
    pub(crate) max_connections: usize,
    pub(crate) max_sessions_per_conn: usize,
    pub(crate) max_pending_frames: usize,
    pub(crate) deadline: Option<Duration>,
    pub(crate) event_loop_threads: usize,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) fault_horizon: usize,
    pub(crate) feedback: Option<Arc<dyn FeedbackSink>>,
    pub(crate) obs: Obs,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder {
            max_connections: 64,
            max_sessions_per_conn: 1024,
            max_pending_frames: MAX_PENDING_FRAMES,
            deadline: None,
            event_loop_threads: 0,
            faults: None,
            fault_horizon: 0,
            feedback: None,
            obs: Obs::disabled(),
        }
    }
}

impl ServerBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Concurrent connections before accept-time shedding (default 64).
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Open sessions per connection before `SessionLimit` refusals
    /// (default 1024).
    ///
    /// The same number bounds the finished sessions a connection
    /// remembers: the newest `n` decided, failed or closed ids. A late
    /// frame for one of them is ignored, and a decided one keeps its
    /// verdict for late `Feedback`; a frame for an id finished longer
    /// ago is refused with `UnknownSession`, like an id never opened.
    #[must_use]
    pub fn max_sessions_per_conn(mut self, n: usize) -> Self {
        self.max_sessions_per_conn = n;
        self
    }

    /// Outbound frames queued per connection before its reads pause
    /// until the queue drains — lossless backpressure (default
    /// [`MAX_PENDING_FRAMES`]).
    #[must_use]
    pub fn max_pending_frames(mut self, n: usize) -> Self {
        self.max_pending_frames = n;
        self
    }

    /// Per-evaluation decision deadline applied to every session; a
    /// client's propagated `deadline_ms` tightens it. An evaluation
    /// that misses it forces the session's decision on the observed
    /// prefix.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Event-loop threads sharing the connections. 0 (the default) =
    /// one per available core, capped at 4.
    #[must_use]
    pub fn event_loop_threads(mut self, n: usize) -> Self {
        self.event_loop_threads = n;
        self
    }

    /// Arms the seeded server-side fault plan (worker panics,
    /// evaluation delays) over the first `horizon` sessions, in arrival
    /// order.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan, horizon: usize) -> Self {
        self.faults = Some(plan);
        self.fault_horizon = horizon;
        self
    }

    /// Where post-decision ground truth (`Frame::Feedback`) is
    /// delivered — typically an `etsc_adapt::Adapter`. Without a sink
    /// feedback is graded for the counters but nothing is retained.
    #[must_use]
    pub fn feedback(mut self, sink: Arc<dyn FeedbackSink>) -> Self {
        self.feedback = Some(sink);
        self
    }

    /// Tracing + metrics sink.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        at_least_one("max_connections", self.max_connections)?;
        at_least_one("max_sessions_per_conn", self.max_sessions_per_conn)?;
        at_least_one("max_pending_frames", self.max_pending_frames)?;
        if self.event_loop_threads > 64 {
            return Err(ConfigError::new(
                "event_loop_threads",
                "more than 64 loops multiplexing sockets is a misconfiguration",
            ));
        }
        Ok(())
    }
}

/// The client's knobs. Start from [`ClientBuilder::new`], chain
/// setters, and hand it to [`Endpoint::connect`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    pub(crate) deadline_ms: u64,
    pub(crate) observe_deadline_ms: u64,
    pub(crate) open_retry_budget: u32,
    pub(crate) connect_retry_budget: u32,
}

impl Default for ClientBuilder {
    fn default() -> ClientBuilder {
        ClientBuilder {
            deadline_ms: 0,
            observe_deadline_ms: 0,
            open_retry_budget: 3,
            connect_retry_budget: 3,
        }
    }
}

impl ClientBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Per-decision deadline (ms) propagated on every `OpenSession`;
    /// 0 (the default) propagates nothing.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Remaining per-row budget (ms) propagated on every `Observe`;
    /// 0 (the default) propagates nothing. A server whose queue
    /// outlives this budget skips the evaluation instead of computing
    /// a dead answer.
    #[must_use]
    pub fn observe_deadline_ms(mut self, ms: u64) -> Self {
        self.observe_deadline_ms = ms;
        self
    }

    /// Retry budgets (default 3 each): `open` automatic re-opens, under
    /// a fresh id, of a session refused with a retryable error, and
    /// `connect` redials on a retryable refusal of the connection
    /// itself (accept-time shed, draining). Each retry honours the
    /// server's `retry_after_ms` hint.
    #[must_use]
    pub fn retry_budgets(mut self, open: u32, connect: u32) -> Self {
        self.open_retry_budget = open;
        self.connect_retry_budget = connect;
        self
    }
}

/// The router's knobs. Start from [`RouterBuilder::new`], chain
/// setters, and hand it to [`Endpoint::route`].
#[derive(Clone)]
pub struct RouterBuilder {
    pub(crate) max_connections: usize,
    pub(crate) probe_interval: Duration,
    pub(crate) probe_timeout: Duration,
    pub(crate) vnodes: usize,
    pub(crate) obs: Obs,
}

impl Default for RouterBuilder {
    fn default() -> RouterBuilder {
        RouterBuilder {
            max_connections: 64,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            vnodes: 64,
            obs: Obs::disabled(),
        }
    }
}

impl RouterBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> RouterBuilder {
        RouterBuilder::default()
    }

    /// Concurrent client connections before accept-time shedding
    /// (default 64).
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Cadence of the health prober's `Hello` dials and the handshake
    /// budget of each (defaults 200 ms and 500 ms).
    #[must_use]
    pub fn probes(mut self, interval: Duration, timeout: Duration) -> Self {
        self.probe_interval = interval;
        self.probe_timeout = timeout;
        self
    }

    /// Virtual nodes per shard on the hash ring (default 64).
    #[must_use]
    pub fn vnodes(mut self, n: usize) -> Self {
        self.vnodes = n;
        self
    }

    /// Tracing + metrics sink.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        at_least_one("max_connections", self.max_connections)?;
        if self.vnodes == 0 {
            return Err(ConfigError::new(
                "vnodes",
                "a zero-vnode ring places nothing",
            ));
        }
        if self.probe_interval.is_zero() || self.probe_timeout.is_zero() {
            return Err(ConfigError::new(
                "probe_interval",
                "probe cadence and timeout must both be positive",
            ));
        }
        Ok(())
    }
}

/// The one front door for standing up the serving stack: a shard
/// server, a router in front of shards, or a client into either.
pub struct Endpoint;

impl Endpoint {
    /// Validates the builder and binds a [`NetServer`] serving `model`
    /// on `addr` (port 0 for an ephemeral port).
    ///
    /// # Errors
    /// `InvalidInput` wrapping a [`ConfigError`] for a refused builder;
    /// otherwise whatever binding the address or starting the event
    /// loops fails with.
    pub fn serve(
        model: Arc<StoredModel>,
        addr: &str,
        builder: ServerBuilder,
    ) -> std::io::Result<NetServer> {
        builder.validate()?;
        NetServer::bind(model, addr, builder)
    }

    /// Validates the builder and binds a [`Router`] fronting `shards`
    /// (backend addresses) on `addr`.
    ///
    /// # Errors
    /// `InvalidInput` wrapping a [`ConfigError`] for a refused builder;
    /// otherwise whatever binding the address fails with.
    pub fn route(addr: &str, shards: &[String], builder: RouterBuilder) -> std::io::Result<Router> {
        builder.validate()?;
        Router::bind(addr, shards, builder)
    }

    /// Dials a [`Client`] to `addr` and performs the `Hello` exchange.
    ///
    /// # Errors
    /// See [`NetError`]: a server below wire revision
    /// [`BATCH_MINOR`](crate::BATCH_MINOR) is refused with
    /// [`ProtoError::MinorRevision`](crate::ProtoError::MinorRevision).
    pub fn connect(addr: &str, builder: ClientBuilder) -> Result<Client, NetError> {
        Client::connect(addr, builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServerBuilder::new().validate().is_ok());
        assert!(RouterBuilder::new().validate().is_ok());
    }

    #[test]
    fn zero_caps_are_refused_by_name() {
        let err = ServerBuilder::new()
            .max_connections(0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "max_connections");
        let err = ServerBuilder::new()
            .max_pending_frames(0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "max_pending_frames");
        let err = RouterBuilder::new().vnodes(0).validate().unwrap_err();
        assert_eq!(err.field, "vnodes");
    }

    #[test]
    fn endpoint_refuses_an_invalid_builder_before_binding() {
        let err = Endpoint::route(
            "127.0.0.1:0",
            &["127.0.0.1:1".to_string()],
            RouterBuilder::new().probes(Duration::ZERO, Duration::from_millis(1)),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let config = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<ConfigError>())
            .expect("the ConfigError rides inside the io::Error");
        assert_eq!(config.field, "probe_interval");
    }
}
