//! The redesigned configuration surface: validated builders over the
//! flat config structs, sharing one [`NetOptions`] core, unified
//! behind [`Endpoint`].
//!
//! The flat structs ([`ServerConfig`], [`ClientConfig`],
//! [`RouterConfig`]) remain the runtime representation — every field
//! is still public and [`NetServer::bind`] / [`Client::connect`] /
//! [`Router::bind`] still accept them directly — but direct literal
//! construction can assemble combinations the stack then mishandles
//! silently (a frame ceiling too small for a handshake, a zero vnode
//! ring, jitter outside `[0, 1]`). The builders validate the
//! combination once, at `build()`, and return a [`ConfigError`] that
//! names the offending knob instead.
//!
//! Migration from the old surface:
//!
//! ```text
//! // before                                // after
//! let mut c = ServerConfig::default();     let server = Endpoint::serve(
//!     c.max_connections = 256;                 model, addr,
//!     c.read_poll = ...;                       ServerBuilder::new()
//! NetServer::bind(model, addr, c)?;                .max_connections(256))?;
//! ```
//!
//! `read_poll`/`upstream_poll` no longer exist: the readiness poller
//! ([`crate::poll`]) replaced interval polling wholesale. The
//! transitional deprecated shims of those knobs (and the
//! `into_builder` literal-migration path) have been removed.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use etsc_adapt::FeedbackSink;
use etsc_data::Dataset;
use etsc_eval::faults::FaultPlan;
use etsc_obs::Obs;
use etsc_serve::StoredModel;

use crate::client::{Client, ClientConfig, NetError};
use crate::fleet::{run_fleet, FleetOptions, FleetReport};
use crate::proto::{MAX_FRAME_BYTES, PROTO_MINOR};
use crate::router::{Router, RouterConfig};
use crate::server::{NetServer, ServerConfig};

/// A config combination the builders refuse to produce. Carries the
/// knob that failed and why, so the fix is one grep away.
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

/// The smallest frame ceiling the handshake fits under; anything lower
/// deadlocks the Hello exchange by construction.
const MIN_FRAME_BYTES: usize = 256;

/// Knobs every role shares: identification, wire limits, connection
/// caps, the slow-loris budget, and the observability sink. Each
/// builder embeds one of these; the role-specific extras live on the
/// builder itself.
#[derive(Clone)]
pub struct NetOptions {
    /// Peer identification sent in the handshake (client, router) —
    /// servers identify through [`ModelInfo`](crate::ModelInfo).
    pub agent: String,
    /// Per-frame payload ceiling, both directions.
    pub max_frame_bytes: usize,
    /// Concurrent connections before accept-time shedding (server,
    /// router).
    pub max_connections: usize,
    /// Silence budget per connection — the slow-loris guard (server,
    /// router).
    pub idle_timeout: Duration,
    /// Tracing + metrics sink (server, router).
    pub obs: Obs,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            agent: "etsc-net".to_string(),
            max_frame_bytes: MAX_FRAME_BYTES,
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            obs: Obs::disabled(),
        }
    }
}

impl NetOptions {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.agent.is_empty() {
            return Err(ConfigError::new("agent", "must not be empty"));
        }
        if self.max_frame_bytes < MIN_FRAME_BYTES {
            return Err(ConfigError::new(
                "max_frame_bytes",
                format!(
                    "{} is below the {MIN_FRAME_BYTES}-byte handshake floor",
                    self.max_frame_bytes
                ),
            ));
        }
        if self.max_connections == 0 {
            return Err(ConfigError::new("max_connections", "must be at least 1"));
        }
        if self.idle_timeout.is_zero() {
            return Err(ConfigError::new(
                "idle_timeout",
                "must be positive (it is the slow-loris guard, not a disable switch)",
            ));
        }
        Ok(())
    }
}

fn check_minor(minor: u32) -> Result<(), ConfigError> {
    if minor > PROTO_MINOR {
        return Err(ConfigError::new(
            "protocol_minor",
            format!("{minor} is newer than this build speaks (max {PROTO_MINOR})"),
        ));
    }
    Ok(())
}

/// Validated builder for [`ServerConfig`]. Start from
/// [`ServerBuilder::new`], chain knobs, finish with
/// [`build`](ServerBuilder::build) — or hand the builder straight to
/// [`Endpoint::serve`].
#[derive(Clone, Default)]
pub struct ServerBuilder {
    net: NetOptions,
    extras: ServerConfig,
}

impl ServerBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Replaces the whole shared core at once.
    #[must_use]
    pub fn options(mut self, net: NetOptions) -> Self {
        self.net = net;
        self
    }

    /// See [`NetOptions::max_frame_bytes`].
    #[must_use]
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.net.max_frame_bytes = bytes;
        self
    }

    /// See [`NetOptions::max_connections`].
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.net.max_connections = n;
        self
    }

    /// See [`NetOptions::idle_timeout`].
    #[must_use]
    pub fn idle_timeout(mut self, budget: Duration) -> Self {
        self.net.idle_timeout = budget;
        self
    }

    /// See [`NetOptions::obs`].
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.net.obs = obs;
        self
    }

    /// See [`ServerConfig::max_sessions_per_conn`].
    #[must_use]
    pub fn max_sessions_per_conn(mut self, n: usize) -> Self {
        self.extras.max_sessions_per_conn = n;
        self
    }

    /// See [`ServerConfig::max_pending_frames`].
    #[must_use]
    pub fn max_pending_frames(mut self, n: usize) -> Self {
        self.extras.max_pending_frames = n;
        self
    }

    /// See [`ServerConfig::deadline`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.extras.deadline = Some(deadline);
        self
    }

    /// See [`ServerConfig::event_loop_threads`]. 0 = one per available
    /// core, capped at 4.
    #[must_use]
    pub fn event_loop_threads(mut self, n: usize) -> Self {
        self.extras.event_loop_threads = n;
        self
    }

    /// See [`ServerConfig::protocol_minor`] — interop tests lower this
    /// to impersonate an older peer.
    #[must_use]
    pub fn protocol_minor(mut self, minor: u32) -> Self {
        self.extras.protocol_minor = minor;
        self
    }

    /// Arms the seeded server-side fault plan over the first `horizon`
    /// sessions (see [`ServerConfig::faults`]).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan, horizon: usize) -> Self {
        self.extras.faults = Some(plan);
        self.extras.fault_horizon = horizon;
        self
    }

    /// See [`ServerConfig::feedback`].
    #[must_use]
    pub fn feedback(mut self, sink: Arc<dyn FeedbackSink>) -> Self {
        self.extras.feedback = Some(sink);
        self
    }

    /// Validates the combination and produces the runtime config.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.net.validate()?;
        check_minor(self.extras.protocol_minor)?;
        if self.extras.max_sessions_per_conn == 0 {
            return Err(ConfigError::new(
                "max_sessions_per_conn",
                "must be at least 1",
            ));
        }
        if self.extras.max_pending_frames == 0 {
            return Err(ConfigError::new("max_pending_frames", "must be at least 1"));
        }
        if self.extras.event_loop_threads > 64 {
            return Err(ConfigError::new(
                "event_loop_threads",
                "more than 64 loops multiplexing sockets is a misconfiguration",
            ));
        }
        let mut config = self.extras;
        config.max_frame_bytes = self.net.max_frame_bytes;
        config.max_connections = self.net.max_connections;
        config.idle_timeout = self.net.idle_timeout;
        config.obs = self.net.obs;
        Ok(config)
    }
}

/// Validated builder for [`ClientConfig`].
#[derive(Clone)]
pub struct ClientBuilder {
    net: NetOptions,
    extras: ClientConfig,
}

impl Default for ClientBuilder {
    fn default() -> ClientBuilder {
        let extras = ClientConfig::default();
        let net = NetOptions {
            agent: extras.agent.clone(),
            ..NetOptions::default()
        };
        ClientBuilder { net, extras }
    }
}

impl ClientBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Replaces the whole shared core at once.
    #[must_use]
    pub fn options(mut self, net: NetOptions) -> Self {
        self.net = net;
        self
    }

    /// See [`NetOptions::agent`].
    #[must_use]
    pub fn agent(mut self, agent: impl Into<String>) -> Self {
        self.net.agent = agent.into();
        self
    }

    /// See [`NetOptions::max_frame_bytes`].
    #[must_use]
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.net.max_frame_bytes = bytes;
        self
    }

    /// See [`ClientConfig::protocol_minor`].
    #[must_use]
    pub fn protocol_minor(mut self, minor: u32) -> Self {
        self.extras.protocol_minor = minor;
        self
    }

    /// See [`ClientConfig::handshake_timeout`].
    #[must_use]
    pub fn handshake_timeout(mut self, budget: Duration) -> Self {
        self.extras.handshake_timeout = budget;
        self
    }

    /// Redial budget and backoff shape, in one call (see
    /// [`ClientConfig::reconnect_attempts`] /
    /// [`ClientConfig::reconnect_backoff`] /
    /// [`ClientConfig::reconnect_backoff_cap`]).
    #[must_use]
    pub fn reconnect(mut self, attempts: usize, backoff: Duration, cap: Duration) -> Self {
        self.extras.reconnect_attempts = attempts;
        self.extras.reconnect_backoff = backoff;
        self.extras.reconnect_backoff_cap = cap;
        self
    }

    /// See [`ClientConfig::reconnect_jitter`] and
    /// [`ClientConfig::jitter_seed`].
    #[must_use]
    pub fn jitter(mut self, fraction: f64, seed: u64) -> Self {
        self.extras.reconnect_jitter = fraction;
        self.extras.jitter_seed = seed;
        self
    }

    /// See [`ClientConfig::deadline_ms`].
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.extras.deadline_ms = ms;
        self
    }

    /// See [`ClientConfig::observe_deadline_ms`].
    #[must_use]
    pub fn observe_deadline_ms(mut self, ms: u64) -> Self {
        self.extras.observe_deadline_ms = ms;
        self
    }

    /// Retry budgets for refused opens and refused dials (see
    /// [`ClientConfig::open_retry_budget`] /
    /// [`ClientConfig::connect_retry_budget`]).
    #[must_use]
    pub fn retry_budgets(mut self, open: u32, connect: u32) -> Self {
        self.extras.open_retry_budget = open;
        self.extras.connect_retry_budget = connect;
        self
    }

    /// Validates the combination and produces the runtime config.
    pub fn build(self) -> Result<ClientConfig, ConfigError> {
        self.net.validate()?;
        check_minor(self.extras.protocol_minor)?;
        if self.extras.handshake_timeout.is_zero() {
            return Err(ConfigError::new("handshake_timeout", "must be positive"));
        }
        if !(0.0..=1.0).contains(&self.extras.reconnect_jitter) {
            return Err(ConfigError::new(
                "reconnect_jitter",
                format!("{} is outside [0, 1]", self.extras.reconnect_jitter),
            ));
        }
        if self.extras.reconnect_backoff > self.extras.reconnect_backoff_cap {
            return Err(ConfigError::new(
                "reconnect_backoff",
                "base backoff exceeds its cap",
            ));
        }
        let mut config = self.extras;
        config.agent = self.net.agent;
        config.max_frame_bytes = self.net.max_frame_bytes;
        Ok(config)
    }

    /// Builds and dials in one step.
    pub fn connect(self, addr: &str) -> Result<Client, NetError> {
        let config = self.build().map_err(|e| NetError::Config(e.to_string()))?;
        Client::connect(addr, config)
    }
}

/// Validated builder for [`RouterConfig`].
#[derive(Clone)]
pub struct RouterBuilder {
    net: NetOptions,
    extras: RouterConfig,
}

impl Default for RouterBuilder {
    fn default() -> RouterBuilder {
        let extras = RouterConfig::default();
        let net = NetOptions {
            agent: extras.agent.clone(),
            ..NetOptions::default()
        };
        RouterBuilder { net, extras }
    }
}

impl RouterBuilder {
    /// A builder carrying every default.
    #[must_use]
    pub fn new() -> RouterBuilder {
        RouterBuilder::default()
    }

    /// Replaces the whole shared core at once.
    #[must_use]
    pub fn options(mut self, net: NetOptions) -> Self {
        self.net = net;
        self
    }

    /// See [`NetOptions::agent`].
    #[must_use]
    pub fn agent(mut self, agent: impl Into<String>) -> Self {
        self.net.agent = agent.into();
        self
    }

    /// See [`NetOptions::max_frame_bytes`].
    #[must_use]
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.net.max_frame_bytes = bytes;
        self
    }

    /// See [`NetOptions::max_connections`].
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.net.max_connections = n;
        self
    }

    /// See [`NetOptions::idle_timeout`].
    #[must_use]
    pub fn idle_timeout(mut self, budget: Duration) -> Self {
        self.net.idle_timeout = budget;
        self
    }

    /// See [`NetOptions::obs`].
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.net.obs = obs;
        self
    }

    /// See [`RouterConfig::drain_timeout`].
    #[must_use]
    pub fn drain_timeout(mut self, budget: Duration) -> Self {
        self.extras.drain_timeout = budget;
        self
    }

    /// Health-probe cadence and per-probe handshake budget (see
    /// [`RouterConfig::probe_interval`] /
    /// [`RouterConfig::probe_timeout`]).
    #[must_use]
    pub fn probes(mut self, interval: Duration, timeout: Duration) -> Self {
        self.extras.probe_interval = interval;
        self.extras.probe_timeout = timeout;
        self
    }

    /// Circuit-breaker shape (see [`RouterConfig::breaker_threshold`]
    /// / [`RouterConfig::breaker_backoff`] /
    /// [`RouterConfig::breaker_backoff_cap`]).
    #[must_use]
    pub fn breaker(mut self, threshold: u32, backoff: Duration, cap: Duration) -> Self {
        self.extras.breaker_threshold = threshold;
        self.extras.breaker_backoff = backoff;
        self.extras.breaker_backoff_cap = cap;
        self
    }

    /// See [`RouterConfig::vnodes`].
    #[must_use]
    pub fn vnodes(mut self, n: usize) -> Self {
        self.extras.vnodes = n;
        self
    }

    /// Validates the combination and produces the runtime config.
    pub fn build(self) -> Result<RouterConfig, ConfigError> {
        self.net.validate()?;
        if self.extras.vnodes == 0 {
            return Err(ConfigError::new(
                "vnodes",
                "a zero-vnode ring places nothing",
            ));
        }
        if self.extras.breaker_threshold == 0 {
            return Err(ConfigError::new("breaker_threshold", "must be at least 1"));
        }
        if self.extras.probe_interval.is_zero() || self.extras.probe_timeout.is_zero() {
            return Err(ConfigError::new(
                "probe_interval",
                "probe cadence and timeout must both be positive",
            ));
        }
        if self.extras.breaker_backoff > self.extras.breaker_backoff_cap {
            return Err(ConfigError::new(
                "breaker_backoff",
                "base backoff exceeds its cap",
            ));
        }
        if self.extras.drain_timeout.is_zero() {
            return Err(ConfigError::new("drain_timeout", "must be positive"));
        }
        let mut config = self.extras;
        config.agent = self.net.agent;
        config.max_frame_bytes = self.net.max_frame_bytes;
        config.max_connections = self.net.max_connections;
        config.idle_timeout = self.net.idle_timeout;
        config.obs = self.net.obs;
        Ok(config)
    }
}

/// The one front door for standing up the serving stack: a shard
/// server, a router in front of shards, a client into either, or the
/// whole single-process fleet harness.
pub struct Endpoint;

impl Endpoint {
    /// Validates the builder and binds a [`NetServer`] on `addr`.
    pub fn serve(
        model: Arc<StoredModel>,
        addr: &str,
        builder: ServerBuilder,
    ) -> std::io::Result<NetServer> {
        NetServer::bind(model, addr, builder.build()?)
    }

    /// Validates the builder and binds a [`Router`] fronting `shards`
    /// on `addr`.
    pub fn route(addr: &str, shards: &[String], builder: RouterBuilder) -> std::io::Result<Router> {
        Router::bind(addr, shards, builder.build()?)
    }

    /// Validates the builder and dials a [`Client`] to `addr`.
    pub fn connect(addr: &str, builder: ClientBuilder) -> Result<Client, NetError> {
        builder.connect(addr)
    }

    /// Runs the single-process fleet harness (shards + router + load
    /// generator) — a thin alias for [`run_fleet`].
    pub fn fleet(models: &[Arc<StoredModel>], data: &Dataset, opts: &FleetOptions) -> FleetReport {
        run_fleet(models, data, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_clean() {
        assert!(ServerBuilder::new().build().is_ok());
        assert!(ClientBuilder::new().build().is_ok());
        assert!(RouterBuilder::new().build().is_ok());
    }

    #[test]
    fn shared_core_lands_in_every_config() {
        let net = NetOptions {
            agent: "probe".into(),
            max_frame_bytes: 4096,
            max_connections: 7,
            idle_timeout: Duration::from_secs(3),
            obs: Obs::disabled(),
        };
        let s = ServerBuilder::new().options(net.clone()).build().unwrap();
        assert_eq!(s.max_frame_bytes, 4096);
        assert_eq!(s.max_connections, 7);
        assert_eq!(s.idle_timeout, Duration::from_secs(3));
        let c = ClientBuilder::new().options(net.clone()).build().unwrap();
        assert_eq!(c.agent, "probe");
        assert_eq!(c.max_frame_bytes, 4096);
        let r = RouterBuilder::new().options(net).build().unwrap();
        assert_eq!(r.agent, "probe");
        assert_eq!(r.max_frame_bytes, 4096);
        assert_eq!(r.max_connections, 7);
        assert_eq!(r.idle_timeout, Duration::from_secs(3));
    }

    #[test]
    fn tiny_frame_ceiling_is_refused() {
        let err = ServerBuilder::new()
            .max_frame_bytes(16)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.field, "max_frame_bytes");
    }

    #[test]
    fn future_minor_is_refused() {
        let err = ClientBuilder::new()
            .protocol_minor(PROTO_MINOR + 1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.field, "protocol_minor");
        let err = ServerBuilder::new()
            .protocol_minor(PROTO_MINOR + 1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.field, "protocol_minor");
    }

    #[test]
    fn wild_jitter_is_refused() {
        let err = ClientBuilder::new()
            .jitter(1.5, 1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.field, "reconnect_jitter");
    }

    #[test]
    fn zero_vnode_ring_is_refused() {
        let err = RouterBuilder::new()
            .vnodes(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.field, "vnodes");
    }
}
