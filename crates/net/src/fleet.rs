//! Fleet harness: N shard servers behind one [`Router`], driven by the
//! load generator, with seeded shard-level faults.
//!
//! This is the single-process laboratory for the serving fleet: it
//! binds every shard on a loopback ephemeral port, fronts them with a
//! router, replays a dataset through the whole stack, and — when the
//! [`FaultPlan`] arms them — injects the shard-level faults the router
//! exists to survive:
//!
//! * `kill-shard=K,kill-at-step=S` — drop shard `K`'s sockets (no
//!   drain handshake) once the router has forwarded `S` observation
//!   rows; its resident sessions must migrate, not vanish;
//! * `blackhole-shard=K` — shard `K` accepts TCP connections but never
//!   answers a byte; the router's probes must time it out and route
//!   around it;
//! * `slow-shard=K,slow-shard-ms=D` — shard `K` answers, slowly; the
//!   latency shows up in the tail, attributably.
//!
//! The [`FleetReport`] carries the load report, the router's counters
//! (balance, migrations, failover recovery time), and every real
//! shard's final [`ServerStats`] so a chaos test can do exact
//! session accounting across the whole fleet.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etsc_data::Dataset;
use etsc_eval::faults::FaultPlan;
use etsc_serve::StoredModel;

use crate::loadgen::{run_loadgen, LoadReport, LoadgenOptions};
use crate::options::{ClientBuilder, Endpoint, RouterBuilder, ServerBuilder};
use crate::router::{Router, RouterStats, ShardSnapshot};
use crate::server::{NetServer, ServerStats};

/// Tuning knobs for [`run_fleet`].
#[derive(Clone)]
pub struct FleetOptions {
    /// Concurrent client connections into the router.
    pub connections: usize,
    /// Total sessions, distributed round-robin across connections.
    pub sessions: usize,
    /// Target observation rate per connection (rows/sec); 0 = unpaced.
    pub rate: f64,
    /// Rows per `ObserveBatch` frame on the client→router edge (see
    /// [`LoadgenOptions::batch`]).
    pub batch: usize,
    /// Seeded faults: client-side kinds feed the load generator,
    /// shard-level kinds (`kill-shard`, `blackhole-shard`,
    /// `slow-shard`) are applied to the fleet itself.
    pub faults: Option<FaultPlan>,
    /// Template for every real shard's server.
    pub server: ServerBuilder,
    /// The router in front of the shards.
    pub router: RouterBuilder,
    /// The load generator's clients.
    pub client: ClientBuilder,
    /// Budget for collecting outstanding decisions after the feed.
    pub wait_timeout: Duration,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            connections: 4,
            sessions: 100,
            rate: 0.0,
            batch: 1,
            faults: None,
            server: ServerBuilder::new(),
            router: RouterBuilder::new(),
            client: ClientBuilder::new(),
            wait_timeout: Duration::from_secs(30),
        }
    }
}

/// One shard's contribution to the [`FleetReport`].
#[derive(Debug)]
pub struct ShardReport {
    /// The shard's bound address.
    pub addr: String,
    /// Sessions the router placed here (fresh opens + migrations in).
    pub placed: u64,
    /// Sessions migrated away after death or drain.
    pub migrated_off: u64,
    /// The shard server's final counters (`None` for a blackholed
    /// shard, which never runs a real server).
    pub stats: Option<ServerStats>,
    /// Killed mid-stream by the fault plan.
    pub killed: bool,
    /// Blackholed by the fault plan.
    pub blackholed: bool,
    /// Slowed by the fault plan.
    pub slow: bool,
}

/// What a fleet run achieved, across every layer.
#[derive(Debug)]
pub struct FleetReport {
    /// The client-side view (decisions, latency, drops).
    pub load: LoadReport,
    /// The router's final counters.
    pub router: RouterStats,
    /// Per-shard accounting, in shard-index order.
    pub shards: Vec<ShardReport>,
    /// The routed-row count the kill fired at (when a kill was armed
    /// and fired).
    pub kill_step: Option<u64>,
}

impl FleetReport {
    /// Sessions placed per shard, in shard-index order — the balance
    /// the consistent-hash ring achieved.
    pub fn balance(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.placed).collect()
    }

    /// Mean failover recovery time in milliseconds (0 when nothing
    /// failed over).
    pub fn failover_ms(&self) -> f64 {
        self.router.failover_ms()
    }

    /// `true` when no session was lost anywhere: the load run is
    /// clean, and the router owes no answers.
    pub fn clean(&self) -> bool {
        self.load.clean() && self.router.open_sessions() == 0
    }
}

/// A shard that accepts TCP connections and then never answers a byte.
struct Blackhole {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Blackhole {
    fn bind() -> std::io::Result<Blackhole> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("etsc-fleet-blackhole".into())
            .spawn(move || {
                let held: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
                while !stop2.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Hold the socket open, read nothing, write
                            // nothing: the probe's handshake must time
                            // out, not error.
                            held.lock().unwrap_or_else(|e| e.into_inner()).push(stream);
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .expect("spawn blackhole thread");
        Ok(Blackhole { addr, stop, handle })
    }

    fn close(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}

enum ShardHandle {
    Real(Arc<NetServer>),
    Blackhole(Blackhole),
}

/// Builds the fleet — one shard per stored model, router in front —
/// replays `data` through it with [`run_loadgen`], applies the plan's
/// shard-level faults, drains everything, and reports.
///
/// Shard `i` serves `models[i]`; a blackholed index still consumes its
/// model slot so indices in the fault plan stay aligned. Every shard
/// must serve the same model shape (replicas of one versioned store
/// entry in production).
pub fn run_fleet(models: &[Arc<StoredModel>], data: &Dataset, opts: &FleetOptions) -> FleetReport {
    let plan = opts.faults.clone().unwrap_or_default();
    let sessions = opts.sessions.max(1);
    let mut shards: Vec<ShardHandle> = Vec::with_capacity(models.len());
    let mut addrs: Vec<String> = Vec::with_capacity(models.len());
    for (i, model) in models.iter().enumerate() {
        if plan.blackhole_shard == Some(i) {
            let hole = Blackhole::bind().expect("bind blackhole shard");
            addrs.push(hole.addr.clone());
            shards.push(ShardHandle::Blackhole(hole));
            continue;
        }
        // Router conns (one upstream per shard each) + probes + drain.
        let conns = opts.server.max_connections.max(opts.connections + 16);
        let mut config = opts.server.clone().max_connections(conns);
        if plan.slow_shard == Some(i) {
            let slow = FaultPlan {
                seed: plan.seed,
                delay_rate: 1.0,
                delay: plan.slow_shard_delay,
                ..FaultPlan::default()
            };
            config = config.faults(slow, sessions);
        }
        let server =
            Endpoint::serve(Arc::clone(model), "127.0.0.1:0", config).expect("bind shard server");
        addrs.push(server.local_addr().to_string());
        shards.push(ShardHandle::Real(Arc::new(server)));
    }

    let router =
        Arc::new(Endpoint::route("127.0.0.1:0", &addrs, opts.router.clone()).expect("bind router"));
    wait_for_health(&router, &plan, models.len());

    // The seeded shard kill: fire at the first poll where the router
    // has forwarded the plan's routed-row count and the target shard
    // still holds undecided sessions, so its death has sessions to
    // migrate.
    let total_rows: u64 = (0..sessions)
        .map(|s| data.instance(s % data.len()).len() as u64)
        .sum();
    let kill_step = plan.kill_shard.map(|_| plan.kill_step(total_rows));
    let kill_fired = Arc::new(AtomicBool::new(false));
    let stop_killer = Arc::new(AtomicBool::new(false));
    let killer: Option<JoinHandle<()>> = match plan.kill_shard {
        Some(k) if k < shards.len() => {
            let target = match &shards[k] {
                ShardHandle::Real(server) => Some(Arc::clone(server)),
                ShardHandle::Blackhole(_) => None, // already dead enough
            };
            target.map(|server| {
                let router = Arc::clone(&router);
                let step = kill_step.expect("kill step derived");
                let fired = Arc::clone(&kill_fired);
                let stop = Arc::clone(&stop_killer);
                std::thread::Builder::new()
                    .name("etsc-fleet-killer".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if router.stats().rows_routed >= step
                                && router.shard_snapshots()[k].resident > 0
                            {
                                server.kill();
                                fired.store(true, Ordering::SeqCst);
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                    .expect("spawn killer thread")
            })
        }
        _ => None,
    };

    let load = run_loadgen(
        &router.local_addr().to_string(),
        data,
        &LoadgenOptions {
            connections: opts.connections,
            sessions,
            rate: opts.rate,
            batch: opts.batch,
            faults: opts.faults.clone(),
            client: opts.client.clone(),
            wait_timeout: opts.wait_timeout,
            open_ahead: 0,
            feedback: false,
            // Draining the router drains the whole fleet behind it.
            send_shutdown: true,
        },
    );

    stop_killer.store(true, Ordering::SeqCst);
    if let Some(h) = killer {
        let _ = h.join();
    }
    let snapshots: Vec<ShardSnapshot> = router.shard_snapshots();
    let router_stats = Arc::try_unwrap(router)
        .unwrap_or_else(|_| panic!("router handle still shared"))
        .join();

    let mut reports = Vec::with_capacity(shards.len());
    for (i, handle) in shards.into_iter().enumerate() {
        let snap = &snapshots[i];
        let (stats, blackholed) = match handle {
            ShardHandle::Real(server) => {
                let server =
                    Arc::try_unwrap(server).unwrap_or_else(|_| panic!("shard handle still shared"));
                (Some(server.join()), false)
            }
            ShardHandle::Blackhole(hole) => {
                hole.close();
                (None, true)
            }
        };
        reports.push(ShardReport {
            addr: snap.addr.clone(),
            placed: snap.placed,
            migrated_off: snap.migrated_off,
            stats,
            killed: plan.kill_shard == Some(i) && kill_fired.load(Ordering::SeqCst),
            blackholed,
            slow: plan.slow_shard == Some(i),
        });
    }
    FleetReport {
        load,
        router: router_stats,
        shards: reports,
        kill_step: kill_step.filter(|_| kill_fired.load(Ordering::SeqCst)),
    }
}

/// Blocks until the router has a model handshake cached and every
/// blackholed shard's breaker is open, so the load run starts against
/// a fleet whose health state is settled (bounded wait).
fn wait_for_health(router: &Router, plan: &FaultPlan, shards: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let snaps = router.shard_snapshots();
        let holes_tripped = plan
            .blackhole_shard
            .filter(|&k| k < shards)
            .is_none_or(|k| snaps[k].circuit == "open");
        if holes_tripped {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
