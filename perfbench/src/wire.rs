//! `wire-direct` and `wire-fleet`: Maritime-shaped sessions (7
//! variables, L = 30) served over loopback TCP by ECO-K through the
//! voting adapter, about 1 µs of model work per row, so framing, the
//! event loop, session open/close churn and per-frame work dominate.
//!
//! One load thread drives `nproc` connections through the same traffic
//! in two phases:
//! * paced — an open loop at a fixed 20k rows/s, each row its own
//!   `Observe` frame, round-robin over 64 open vessels, with every
//!   thread on one CPU; decision latency runs from the scheduled send
//!   time of a session's last row until the client reads the decision;
//! * saturated — a closed loop with 64 sessions in flight and 8-row
//!   rev-2 `ObserveBatch` frames; this phase gives `obs_per_s`.
//!
//! `wire-direct` talks to one server with one event loop;
//! `wire-fleet` sends the same traffic through the router in front of
//! two such shards, so the router hop is the only difference. Every
//! session sends rows up to its reference decision point, so rows,
//! frames and bytes repeat exactly for a seed, whatever the timing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsc_core::EarlyPrediction;
use etsc_data::Dataset;
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_net::{
    encode_frame, Client, ClientBuilder, Endpoint, Frame, FrameDecoder, NetServer, Router,
    RouterBuilder, ServerBuilder, MAX_FRAME_BYTES, PRIORITY_NORMAL,
};
use etsc_serve::{fit_model, StoredModel, StreamSession};

use crate::measure::{
    affinity, cpu_between, fast_rate, fast_time, main_thread_cpu, median, nproc, percentile,
    set_affinity, status_kb, thread_cpu, CpuSet, Digest, Latencies,
};
use crate::trace::{SpanId, Tracer};
use crate::{truth_labels, Args, Run};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Direct,
    Fleet,
}

/// ECO-K trains on 201 Maritime-shaped instances drawn with a fixed
/// seed, so every run serves the same model; `--seed` draws the 128
/// streamed instances. Both at full length, L = 30.
const TRAIN_SEED: u64 = 2024;
const TRAIN_HEIGHT_SCALE: f64 = 0.0025;
const STREAM_HEIGHT_SCALE: f64 = 0.00159;
const SERIES_LEN: usize = 30;
const PACED_ROWS_PER_S: f64 = 20_000.0;
/// Open vessels the paced phase sends to round-robin.
const VESSELS: usize = 64;
/// Sessions in flight in the saturated phase, over all connections.
const IN_FLIGHT: usize = 64;
const BATCH_ROWS: usize = 8;
/// Shares of `--seconds` for the paced phase and (at the rate measured
/// when the benchmark was introduced) the saturated phase.
const PACED_SHARE: f64 = 0.4;
const SATURATED_SHARE: f64 = 0.6;
/// Saturated sessions per second of `SATURATED_SHARE`, fixed when the
/// benchmark was introduced; the work is fixed, its duration is not.
const SATURATED_SESSIONS_PER_S: f64 = 12_000.0;
/// Measured rounds per second of `--seconds`; each round is a paced
/// window of about 0.17 s (111 sessions) then a saturated one of about
/// 0.13 s, short enough that some rounds fall between the host's
/// contention episodes.
const ROUNDS_PER_S: f64 = 2.4;
/// Untimed closed-loop sessions before the measured phases.
const WARMUP_SESSIONS: usize = 512;
/// Full setups per run; `setup_s` is their fastest tenth.
const SETUP_REPS: usize = 15;
/// A session without a decision this long after its last row failed.
const DECISION_TIMEOUT: Duration = Duration::from_secs(10);
const SHARDS: usize = 2;

/// The model, its inputs and reference decisions.
struct Data {
    model: Arc<StoredModel>,
    test: Dataset,
    /// Each streamed instance's class as a training label.
    truth: Vec<Option<usize>>,
    /// `rows[instance][t]` — one value per variable.
    rows: Vec<Vec<Vec<f64>>>,
    reference: Vec<EarlyPrediction>,
}

/// Servers, router and client connections of one setup.
struct Stack {
    servers: Vec<NetServer>,
    router: Option<Router>,
    conns: Vec<Conn>,
}

impl Stack {
    fn close(self) {
        drop(self.conns);
        if let Some(router) = self.router {
            router.join();
        }
        for server in self.servers {
            server.join();
        }
    }
}

struct Conn {
    client: Client,
    /// Sessions whose last row is sent: (session, client id, due).
    pending: Vec<(usize, u64, Instant)>,
    dead: bool,
}

struct SetupTimes {
    fit_s: f64,
    store_s: f64,
    bind_s: f64,
}

fn data(seed: u64, tracer: &mut Tracer, root: SpanId) -> Result<(Data, f64, f64), String> {
    let draw = |height_scale, seed| {
        PaperDataset::Maritime.generate(GenOptions {
            height_scale,
            length_scale: 1.0,
            seed,
        })
    };
    let (train, test) = (
        draw(TRAIN_HEIGHT_SCALE, TRAIN_SEED),
        draw(STREAM_HEIGHT_SCALE, seed),
    );
    let truth = truth_labels(&train, &test);
    let started = Instant::now();
    let fitted = tracer
        .time("fit_model", root, 0, || {
            fit_model(AlgoSpec::EcoK, &train, &RunConfig::fast())
        })
        .map_err(|e| format!("fit ECO-K: {e}"))?;
    let fit_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let bytes = tracer
        .time("store.to_bytes", root, 0, || fitted.to_bytes())
        .map_err(|e| format!("store: {e}"))?;
    let model = tracer
        .time("store.from_bytes", root, 0, || {
            StoredModel::from_bytes(&bytes)
        })
        .map_err(|e| format!("load: {e}"))?;
    let store_s = started.elapsed().as_secs_f64();
    let clf = model.classifier();
    let mut reference = Vec::with_capacity(test.len());
    for (i, inst) in test.instances().iter().enumerate() {
        let p = tracer
            .time("core.predict_early", root, i as u64, || {
                clf.predict_early(inst)
            })
            .map_err(|e| format!("reference: {e}"))?;
        reference.push(p);
    }
    let rows = test
        .instances()
        .iter()
        .map(|inst| {
            (0..inst.len())
                .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
                .collect()
        })
        .collect();
    let data = Data {
        model: Arc::new(model),
        test,
        truth,
        rows,
        reference,
    };
    Ok((data, fit_s, store_s))
}

/// Binds the servers (and the router) and connects `nproc` clients.
fn bind(
    topology: Topology,
    model: &Arc<StoredModel>,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<Stack, String> {
    let server = |tracer: &mut Tracer| {
        tracer
            .time("Endpoint::serve", root, 0, || {
                Endpoint::serve(
                    Arc::clone(model),
                    "127.0.0.1:0",
                    ServerBuilder::new().event_loop_threads(1),
                )
            })
            .map_err(|e| format!("serve: {e}"))
    };
    let (servers, router, addr) = match topology {
        Topology::Direct => {
            let s = server(tracer)?;
            let addr = s.local_addr().to_string();
            (vec![s], None, addr)
        }
        Topology::Fleet => {
            let shards = (0..SHARDS)
                .map(|_| server(tracer))
                .collect::<Result<Vec<_>, _>>()?;
            let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
            let router = tracer
                .time("Endpoint::route", root, 0, || {
                    Endpoint::route("127.0.0.1:0", &addrs, RouterBuilder::new())
                })
                .map_err(|e| format!("route: {e}"))?;
            let addr = router.local_addr().to_string();
            (shards, Some(router), addr)
        }
    };
    let mut conns = Vec::new();
    for _ in 0..nproc() {
        let client = tracer
            .time("Endpoint::connect", root, 0, || {
                Endpoint::connect(&addr, ClientBuilder::new())
            })
            .map_err(|e| format!("connect: {e}"))?;
        conns.push(Conn {
            client,
            pending: Vec::new(),
            dead: false,
        });
    }
    Ok(Stack {
        servers,
        router,
        conns,
    })
}

/// One session of a phase: which streamed instance it replays, how many
/// rows it sends (its reference decision point) and its connection.
struct Planned {
    inst: usize,
    rows: usize,
    conn: usize,
}

/// The work of one phase, fixed before timing.
struct Plan {
    /// Number of the phase's first session.
    first: usize,
    sessions: Vec<Planned>,
    /// Paced send order: (session, step).
    schedule: Vec<(usize, usize)>,
    rows: usize,
    frames: usize,
    bytes: usize,
}

impl Plan {
    /// `count` sessions from session number `first` on: session `g`
    /// replays streamed instance `g % n` of the `n` drawn.
    fn new(data: &Data, first: usize, count: usize, conns: usize, paced: bool) -> Plan {
        let vars = data.test.vars();
        let mut sessions: Vec<Planned> = (first..first + count)
            .map(|g| {
                let inst = g % data.test.len();
                Planned {
                    inst,
                    rows: data.reference[inst].prefix_len,
                    conn: g % conns,
                }
            })
            .collect();
        let mut schedule = Vec::new();
        if paced {
            // Round-robin over the open vessels; a vessel whose session
            // sent its last row takes the next session, on its own
            // connection, until none are left.
            let mut next = 0;
            let mut slots: Vec<Option<(usize, usize)>> = (0..VESSELS)
                .map(|_| {
                    (next < count).then(|| {
                        next += 1;
                        (next - 1, 0)
                    })
                })
                .collect();
            while slots.iter().any(Option::is_some) {
                for (v, slot) in slots.iter_mut().enumerate() {
                    let Some((g, step)) = *slot else { continue };
                    if step == 0 {
                        sessions[g].conn = v % conns;
                    }
                    schedule.push((g, step));
                    *slot = if step + 1 < sessions[g].rows {
                        Some((g, step + 1))
                    } else if next < count {
                        next += 1;
                        Some((next - 1, 0))
                    } else {
                        None
                    };
                }
            }
        }
        let open = frame_len(&open_frame(0, vars));
        let row = frame_len(&observe_frame(0, 1, &vec![0.0; vars]));
        let rows: usize = sessions.iter().map(|s| s.rows).sum();
        let (frames, bytes) = if paced {
            (count + rows, count * open + rows * row)
        } else {
            let batch = |n: usize| frame_len(&batch_frame(0, 1, &vec![vec![0.0; vars]; n]));
            sessions.iter().fold((count, count * open), |(f, b), s| {
                let full = s.rows / BATCH_ROWS;
                let rest = s.rows % BATCH_ROWS;
                let tail = if rest > 0 { (1, batch(rest)) } else { (0, 0) };
                (f + full + tail.0, b + full * batch(BATCH_ROWS) + tail.1)
            })
        };
        Plan {
            first,
            sessions,
            schedule,
            rows,
            frames,
            bytes,
        }
    }
}

// The frames `Client` sends for these calls, rebuilt for the byte
// counts and the offline codec leg.
fn open_frame(id: u64, vars: usize) -> Frame {
    Frame::OpenSession {
        id,
        vars,
        expected_len: SERIES_LEN,
        resume: false,
        deadline_ms: 0,
        priority: PRIORITY_NORMAL,
    }
}

fn observe_frame(session: u64, step: u64, row: &[f64]) -> Frame {
    Frame::Observe {
        session,
        step,
        row: row.to_vec(),
        deadline_ms: 0,
    }
}

fn batch_frame(session: u64, start_step: u64, rows: &[Vec<f64>]) -> Frame {
    Frame::ObserveBatch {
        session,
        start_step,
        rows: rows.to_vec(),
        deadline_ms: 0,
    }
}

fn frame_len(frame: &Frame) -> usize {
    encode_frame(frame, MAX_FRAME_BYTES).map_or(0, |w| w.len())
}

/// What one phase received.
struct Outcome {
    /// (label, prefix_len) per session, `None` when it failed.
    decisions: Vec<Option<(usize, usize)>>,
    /// Client id of every session, for the offline codec leg.
    ids: Vec<u64>,
    /// Scheduled-row-to-decision latency per decided session (µs).
    latency_us: Vec<f64>,
    /// Send time minus scheduled time per row (µs).
    lateness_us: Vec<f64>,
    wall_s: f64,
    send_s: f64,
    recv_s: f64,
}

impl Outcome {
    fn new(n: usize) -> Outcome {
        Outcome {
            decisions: vec![None; n],
            ids: vec![0; n],
            latency_us: Vec::with_capacity(n),
            lateness_us: Vec::new(),
            wall_s: 0.0,
            send_s: 0.0,
            recv_s: 0.0,
        }
    }
}

/// Moves every answered session of `conn` into `out`; returns how many.
/// A session answered with an error, or not at all within the timeout,
/// stays `None`.
fn collect(conn: &mut Conn, plan: &Plan, data: &Data, out: &mut Outcome, now: Instant) -> usize {
    let mut done = 0;
    let mut i = 0;
    while i < conn.pending.len() {
        let (g, id, due) = conn.pending[i];
        let answer = match conn.client.outcome(id) {
            Some(Ok(d)) => Some(Some((d.label, d.prefix_len))),
            Some(Err(_)) => Some(None),
            None if now.saturating_duration_since(due) > DECISION_TIMEOUT || conn.dead => {
                Some(None)
            }
            None => None,
        };
        let Some(answer) = answer else {
            i += 1;
            continue;
        };
        if let Some((label, prefix_len)) = answer {
            let expected = data.reference[plan.sessions[g].inst];
            if (label, prefix_len) == (expected.label, expected.prefix_len) {
                out.decisions[g] = answer;
                out.latency_us
                    .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            }
        }
        conn.pending.swap_remove(i);
        done += 1;
    }
    done
}

/// Polls `conn` and collects what it answered. Only polls that deliver
/// decisions become spans; the empty polls of the spin loop are timed
/// into `recv_s` alone.
fn poll(
    conn: &mut Conn,
    plan: &Plan,
    data: &Data,
    out: &mut Outcome,
    tracer: &mut Tracer,
    parent: SpanId,
) -> usize {
    let started = Instant::now();
    if !conn.dead && conn.client.poll().is_err() {
        conn.dead = true;
    }
    let now = Instant::now();
    out.recv_s += (now - started).as_secs_f64();
    let done = collect(conn, plan, data, out, now);
    if done > 0 {
        tracer.record("Client::poll", parent, 0, started, now);
    }
    done
}

/// Opens session `g` on its connection, timing the call.
fn open(
    conn: &mut Conn,
    g: usize,
    out: &mut Outcome,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Option<u64> {
    if conn.dead {
        return None;
    }
    let t0 = Instant::now();
    let id = conn.client.open_session(SERIES_LEN);
    let t1 = Instant::now();
    tracer.record("Client::open_session", parent, g as u64, t0, t1);
    out.send_s += (t1 - t0).as_secs_f64();
    match id {
        Ok(id) => {
            out.ids[g] = id;
            Some(id)
        }
        Err(_) => {
            conn.dead = true;
            None
        }
    }
}

/// The paced phase: row `j` of the schedule is due at `start + j/rate`,
/// whatever the replies do.
fn paced(conns: &mut [Conn], data: &Data, plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(plan.sessions.len());
    out.lateness_us.reserve(plan.schedule.len());
    let phase = tracer.open("phase.paced", SpanId::NONE, 0);
    let period_ns = 1e9 / PACED_ROWS_PER_S;
    let start = Instant::now() + Duration::from_millis(1);
    let due = |j: usize| start + Duration::from_nanos((j as f64 * period_ns) as u64);
    let mut next = 0;
    loop {
        let mut busy = false;
        while next < plan.schedule.len() && due(next) <= Instant::now() {
            let (g, step) = plan.schedule[next];
            let s = &plan.sessions[g];
            let conn = &mut conns[s.conn];
            let id = if step == 0 {
                open(conn, g, &mut out, tracer, phase)
            } else {
                Some(out.ids[g])
            };
            if let Some(id) = id.filter(|_| !conn.dead) {
                let t0 = Instant::now();
                let sent = conn.client.observe(id, &data.rows[s.inst][step]);
                let t1 = Instant::now();
                tracer.record("Client::observe", phase, g as u64, t0, t1);
                out.send_s += (t1 - t0).as_secs_f64();
                out.lateness_us
                    .push(t0.saturating_duration_since(due(next)).as_secs_f64() * 1e6);
                if sent.is_err() {
                    conn.dead = true;
                }
            }
            if step + 1 == s.rows {
                conn.pending.push((g, out.ids[g], due(next)));
            }
            next += 1;
            busy = true;
        }
        for conn in conns.iter_mut().filter(|c| !c.pending.is_empty()) {
            busy |= poll(conn, plan, data, &mut out, tracer, phase) > 0;
        }
        if next == plan.schedule.len() && conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if !busy {
            std::thread::yield_now();
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    tracer.close(phase);
    out
}

/// Runs `f` with every thread of this process on the load thread's
/// first CPU, then gives each thread back the CPUs it had. The paced
/// phase runs so: a row then wakes the server's event loop by a context
/// switch on that CPU, not by waking an idle virtual CPU through the
/// hypervisor, whose delay follows the load of the host's other tenants
/// (paced p50 22-32 us on two CPUs against 16-18 us on one, in
/// alternating runs).
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let saved: Vec<(u64, CpuSet)> = thread_cpu()
        .keys()
        .filter_map(|&tid| Some((tid, affinity(tid)?)))
        .collect();
    let load = u64::from(std::process::id());
    if let Some(one) = saved
        .iter()
        .find(|(tid, _)| *tid == load)
        .and_then(|(_, set)| set.first())
    {
        for (tid, _) in &saved {
            set_affinity(*tid, &one);
        }
    }
    let out = f();
    for (tid, set) in &saved {
        set_affinity(*tid, set);
    }
    out
}

/// The saturated phase: each connection keeps its share of `IN_FLIGHT`
/// sessions open, sending each session's rows at once as 8-row batches
/// and opening the next session when one is answered.
fn saturated(
    conns: &mut [Conn],
    data: &Data,
    plan: &Plan,
    tracer: &mut Tracer,
    name: &'static str,
) -> Outcome {
    let mut out = Outcome::new(plan.sessions.len());
    let phase = tracer.open(name, SpanId::NONE, 0);
    let per_conn = (IN_FLIGHT / conns.len()).max(1);
    let mut queues: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); conns.len()];
    for (g, s) in plan.sessions.iter().enumerate() {
        queues[s.conn].push_back(g);
    }
    let started = Instant::now();
    let launch = |conn: &mut Conn, g: usize, out: &mut Outcome, tracer: &mut Tracer| {
        let s = &plan.sessions[g];
        let Some(id) = open(conn, g, out, tracer, phase) else {
            return;
        };
        for rows in data.rows[s.inst][..s.rows].chunks(BATCH_ROWS) {
            let t0 = Instant::now();
            let sent = conn.client.observe_batch(id, rows);
            let t1 = Instant::now();
            tracer.record("Client::observe_batch", phase, g as u64, t0, t1);
            out.send_s += (t1 - t0).as_secs_f64();
            if sent.is_err() {
                conn.dead = true;
                break;
            }
        }
        conn.pending.push((g, id, Instant::now()));
    };
    loop {
        let mut busy = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            while conn.pending.len() < per_conn {
                let Some(g) = queues[c].pop_front() else {
                    break;
                };
                launch(conn, g, &mut out, tracer);
                busy = true;
            }
        }
        if queues.iter().all(|q| q.is_empty()) {
            break;
        }
        for conn in conns.iter_mut() {
            busy |= poll(conn, plan, data, &mut out, tracer, phase) > 0;
        }
        if !busy {
            std::thread::yield_now();
        }
    }
    // Every session is sent: wait for the last answers in order.
    for conn in conns.iter_mut() {
        while let Some(&(g, id, sent)) = conn.pending.first() {
            if !conn.dead {
                let left = DECISION_TIMEOUT.saturating_sub(sent.elapsed());
                let t0 = Instant::now();
                let waited = conn.client.wait_decision(id, left);
                let t1 = Instant::now();
                tracer.record("Client::wait_decision", phase, g as u64, t0, t1);
                out.recv_s += (t1 - t0).as_secs_f64();
                if matches!(
                    waited,
                    Err(etsc_net::NetError::Proto(_) | etsc_net::NetError::Closed(_))
                ) {
                    conn.dead = true;
                }
            }
            collect(conn, plan, data, &mut out, Instant::now());
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    tracer.close(phase);
    out
}

/// Offline: encodes and decodes the frames the measured phases sent;
/// returns (ns per frame encoded, ns per frame decoded).
fn codec_ns(data: &Data, phases: &[(&Plan, &Outcome, bool)], tracer: &mut Tracer) -> (f64, f64) {
    let parent = tracer.open("offline.proto", SpanId::NONE, 0);
    let vars = data.test.vars();
    let mut frames: Vec<Frame> = Vec::new();
    let (mut encode_ns, mut decode_ns, mut count) = (0u128, 0u128, 0usize);
    let mut flush = |frames: &mut Vec<Frame>, tracer: &mut Tracer| {
        let t0 = Instant::now();
        let wires: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| encode_frame(f, MAX_FRAME_BYTES).unwrap_or_default())
            .collect();
        let t1 = Instant::now();
        tracer.record("encode_frame", parent, 0, t0, t1);
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        for w in &wires {
            decoder.feed(w);
        }
        let t2 = Instant::now();
        while let Ok(Some(f)) = decoder.next_frame() {
            std::hint::black_box(f);
        }
        let t3 = Instant::now();
        tracer.record("FrameDecoder::next_frame", parent, 0, t2, t3);
        encode_ns += (t1 - t0).as_nanos();
        decode_ns += (t3 - t2).as_nanos();
        count += frames.len();
        frames.clear();
    };
    for &(plan, outcome, paced) in phases {
        for (g, s) in plan.sessions.iter().enumerate() {
            let id = outcome.ids[g];
            let rows = &data.rows[s.inst][..s.rows];
            frames.push(open_frame(id, vars));
            if paced {
                for (t, row) in rows.iter().enumerate() {
                    frames.push(observe_frame(id, t as u64 + 1, row));
                }
            } else {
                for (k, chunk) in rows.chunks(BATCH_ROWS).enumerate() {
                    frames.push(batch_frame(id, (k * BATCH_ROWS) as u64 + 1, chunk));
                }
            }
            if frames.len() >= 4096 {
                flush(&mut frames, tracer);
            }
        }
    }
    flush(&mut frames, tracer);
    tracer.close(parent);
    let per = |ns: u128| ns as f64 / count.max(1) as f64;
    (per(encode_ns), per(decode_ns))
}

/// Offline: the measured phases' sessions pushed in-process; returns
/// (push seconds, median `StreamSession::new` µs).
fn push_offline(data: &Data, plans: &[&Plan], tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let parent = tracer.open("offline.push", SpanId::NONE, 0);
    let clf = data.model.classifier();
    let len = data.test.max_len();
    let (mut busy, mut opens) = (0.0, Vec::new());
    for plan in plans {
        for (g, s) in plan.sessions.iter().enumerate() {
            let t0 = Instant::now();
            let mut session = StreamSession::new(clf, data.test.vars(), len, 1)
                .map_err(|e| format!("open session: {e}"))?;
            let t1 = Instant::now();
            opens.push((t1 - t0).as_secs_f64() * 1e6);
            for row in &data.rows[s.inst][..s.rows] {
                let t0 = Instant::now();
                let pushed = session.push(row);
                busy += t0.elapsed().as_secs_f64();
                pushed.map_err(|e| format!("push: {e}"))?;
            }
            // One span per session: a span per push here would dwarf
            // the measured phases' trace.
            tracer.record("offline.session", parent, g as u64, t0, Instant::now());
            if session.decision() != Some(data.reference[s.inst]) {
                return Err(format!("in-process session {g} missed its reference"));
            }
        }
    }
    tracer.close(parent);
    Ok((busy, median(&opens)))
}

/// CPU seconds of the server loops, the router and the load thread
/// across the windows of one phase.
#[derive(Default)]
struct Cpu {
    server: f64,
    router: f64,
    gen: f64,
}

impl Cpu {
    fn add(&mut self, tracer: &Tracer, start: &str, end: &str) {
        if let (Some(a), Some(b)) = (tracer.cpu_at(start), tracer.cpu_at(end)) {
            self.server += cpu_between(&a.threads, &b.threads, "etsc-net-loop");
            self.router += cpu_between(&a.threads, &b.threads, "etsc-router");
            self.gen += main_thread_cpu(&a.threads, &b.threads);
        }
    }
}

/// The measured rounds: a paced window then a saturated window, each a
/// fixed amount of work; a burst of host noise then moves some rounds,
/// not the fastest ones the metrics are read from.
struct Rounds {
    paced: Vec<(Plan, Outcome)>,
    saturated: Vec<(Plan, Outcome)>,
    /// Traced runs only: each saturated window's obs/s run untraced
    /// just before it, to price the tracing under the same host load.
    untraced: Vec<f64>,
    paced_cpu: Cpu,
    sat_cpu: Cpu,
    rss_growth_kb: f64,
}

fn plans(data: &Data, first: usize, seconds: f64, nconn: usize) -> Vec<(Plan, Plan)> {
    let count = ((seconds * ROUNDS_PER_S).round() as usize).max(1);
    let paced = (PACED_ROWS_PER_S * PACED_SHARE / ROUNDS_PER_S / SERIES_LEN as f64).round();
    let sat = (SATURATED_SESSIONS_PER_S * SATURATED_SHARE / ROUNDS_PER_S).round();
    let (paced, sat) = (paced as usize, sat as usize);
    (0..count)
        .map(|r| {
            let at = first + r * (paced + sat);
            (
                Plan::new(data, at, paced, nconn, true),
                Plan::new(data, at + paced, sat, nconn, false),
            )
        })
        .collect()
}

fn measure(
    conns: &mut [Conn],
    data: &Data,
    plans: Vec<(Plan, Plan)>,
    tracer: &mut Tracer,
    twins: bool,
) -> Rounds {
    let mut rounds = Rounds {
        paced: Vec::new(),
        saturated: Vec::new(),
        untraced: Vec::new(),
        paced_cpu: Cpu::default(),
        sat_cpu: Cpu::default(),
        rss_growth_kb: 0.0,
    };
    for (paced_plan, sat_plan) in plans {
        tracer.cpu_sample("paced.start");
        let out = on_one_cpu(|| paced(conns, data, &paced_plan, tracer));
        tracer.cpu_sample("paced.end");
        rounds.paced_cpu.add(tracer, "paced.start", "paced.end");
        rounds.paced.push((paced_plan, out));
        if twins {
            let twin = Plan::new(
                data,
                sat_plan.first,
                sat_plan.sessions.len(),
                conns.len(),
                false,
            );
            let out = saturated(conns, data, &twin, &mut Tracer::new(false), "untraced");
            rounds.untraced.push(twin.rows as f64 / out.wall_s);
        }
        let rss_before = status_kb("VmRSS");
        tracer.cpu_sample("saturated.start");
        let out = saturated(conns, data, &sat_plan, tracer, "phase.saturated");
        tracer.cpu_sample("saturated.end");
        rounds
            .sat_cpu
            .add(tracer, "saturated.start", "saturated.end");
        rounds.rss_growth_kb += status_kb("VmRSS").saturating_sub(rss_before) as f64;
        rounds.saturated.push((sat_plan, out));
    }
    rounds
}

pub fn run(args: &Args, topology: Topology, tracer: &mut Tracer) -> Result<Run, String> {
    let name = match topology {
        Topology::Direct => "wire-direct",
        Topology::Fleet => "wire-fleet",
    };
    let reps = if tracer.on() { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut built: Option<(Data, Stack, SetupTimes)> = None;
    for _ in 0..reps {
        if let Some((_, stack, _)) = built.take() {
            stack.close();
        }
        let started = Instant::now();
        let root = tracer.open("setup", SpanId::NONE, 0);
        let (data, fit_s, store_s) = data(args.seed, tracer, root)?;
        let bound = Instant::now();
        let stack = bind(topology, &data.model, tracer, root)?;
        let bind_s = bound.elapsed().as_secs_f64();
        tracer.close(root);
        setup_times.push(started.elapsed().as_secs_f64());
        built = Some((
            data,
            stack,
            SetupTimes {
                fit_s,
                store_s,
                bind_s,
            },
        ));
    }
    let (data, mut stack, times) = built.expect("at least one setup");
    let nconn = stack.conns.len();
    let seconds = args.seconds as f64;
    let warm = Plan::new(&data, 0, WARMUP_SESSIONS, nconn, false);
    let round_plans = plans(&data, WARMUP_SESSIONS, seconds, nconn);

    println!(
        "{name}: Maritime-shaped L={}, vars {}, {} streamed instances, ECO-K voting, seed {}",
        data.test.max_len(),
        data.test.vars(),
        data.test.len(),
        args.seed
    );
    println!(
        "  load: nproc {}, 1 load thread, {nconn} connections, {} server(s) x 1 event loop{}; paced windows on one CPU",
        nproc(),
        stack.servers.len(),
        if stack.router.is_some() {
            ", router (default config, no fault plan)"
        } else {
            ""
        }
    );
    let total = |pick: fn(&(Plan, Plan)) -> &Plan| {
        round_plans
            .iter()
            .map(pick)
            .fold((0, 0, 0, 0), |(s, r, f, b), p| {
                (s + p.sessions.len(), r + p.rows, f + p.frames, b + p.bytes)
            })
    };
    let (paced_total, sat_total) = (total(|p| &p.0), total(|p| &p.1));
    for (what, (s, r, f, b)) in [("paced", paced_total), ("saturated", sat_total)] {
        println!(
            "  plan {what:<9} {} rounds: sessions {s:>6}  rows {r:>7}  frames {f:>7}  bytes {b:>9}",
            round_plans.len()
        );
    }

    let mut off = Tracer::new(false);
    saturated(&mut stack.conns, &data, &warm, &mut off, "warmup");
    let rounds = measure(&mut stack.conns, &data, round_plans, tracer, tracer.on());
    stack.close();

    let mut digest = Digest::new();
    let (mut failed, mut correct, mut earliness, mut decided) = (0u64, 0u64, 0.0, 0u64);
    for (plan, out) in rounds.paced.iter().chain(&rounds.saturated) {
        for (s, d) in plan.sessions.iter().zip(&out.decisions) {
            match d {
                Some((label, prefix_len)) => {
                    decided += 1;
                    correct += u64::from(data.truth[s.inst] == Some(*label));
                    earliness += *prefix_len as f64 / data.test.max_len() as f64;
                    digest.add(*label as u64);
                    digest.add(*prefix_len as u64);
                }
                None => {
                    failed += 1;
                    digest.add(u64::MAX);
                }
            }
        }
    }
    let attempted = (paced_total.0 + sat_total.0) as u64;
    let per_round: Vec<Latencies> = rounds
        .paced
        .iter()
        .map(|(_, o)| Latencies::of(&o.latency_us))
        .collect();
    let pooled: Vec<f64> = rounds
        .paced
        .iter()
        .flat_map(|(_, o)| o.latency_us.clone())
        .collect();
    let round_p50: Vec<f64> = per_round.iter().map(|l| l.p50).collect();
    let round_p90: Vec<f64> = per_round.iter().map(|l| l.p90).collect();
    let round_rate: Vec<f64> = rounds
        .saturated
        .iter()
        .map(|(p, o)| p.rows as f64 / o.wall_s)
        .collect();
    let (p50, p90) = (fast_time(&round_p50), fast_time(&round_p90));
    let obs_per_s = fast_rate(&round_rate);
    for (what, values, scale) in [
        ("paced p50 us", &round_p50, 1.0),
        ("paced p90 us", &round_p90, 1.0),
        ("saturated kobs/s", &round_rate, 1e-3),
    ] {
        let values: Vec<String> = values.iter().map(|v| format!("{:.0}", v * scale)).collect();
        println!("  {what} by round: {}", values.join(" "));
    }
    let sat_wall: f64 = rounds.saturated.iter().map(|(_, o)| o.wall_s).sum();
    let paced_wall: f64 = rounds.paced.iter().map(|(_, o)| o.wall_s).sum();
    println!(
        "  paced {} rows in {paced_wall:.3} s; saturated {} rows in {sat_wall:.3} s, fastest tenth of rounds {obs_per_s:.0} obs/s",
        paced_total.1, sat_total.1
    );
    println!("  paced decision latency, fastest tenth of rounds: p50 {p50:.1} us, p90 {p90:.1} us");
    println!(
        "{}",
        Latencies::of(&pooled).line("  paced decision latency, pooled")
    );
    println!(
        "  decisions {decided} of {attempted}, {failed} failed, digest {:016x}",
        digest.value()
    );

    let mut run = Run::new(attempted, failed);
    run.end_to_end = vec![
        ("obs_per_s", obs_per_s),
        ("decision_p50_us", p50),
        ("decision_p90_us", p90),
        ("accuracy", correct as f64 / decided.max(1) as f64),
        ("earliness", earliness / decided.max(1) as f64),
        ("setup_s", fast_time(&setup_times)),
        ("peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0),
    ];
    if !tracer.on() {
        return Ok(run);
    }

    let send_s: f64 = rounds.saturated.iter().map(|(_, o)| o.send_s).sum();
    let recv_s: f64 = rounds.saturated.iter().map(|(_, o)| o.recv_s).sum();
    let lateness: Vec<f64> = rounds
        .paced
        .iter()
        .flat_map(|(_, o)| o.lateness_us.clone())
        .collect();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    layers.insert("net.client.send_busy_s".into(), send_s);
    layers.insert("net.client.recv_busy_s".into(), recv_s);
    layers.insert("net.server.cpu_s".into(), rounds.sat_cpu.server);
    layers.insert(
        "net.server.busy_share".into(),
        rounds.sat_cpu.server / sat_wall,
    );
    layers.insert(
        "net.server.paced_busy_share".into(),
        rounds.paced_cpu.server / paced_wall,
    );
    layers.insert("gen.cpu_s".into(), rounds.sat_cpu.gen);
    layers.insert(
        "net.proto.frames_sent".into(),
        (paced_total.2 + sat_total.2) as f64,
    );
    layers.insert(
        "net.proto.bytes_sent".into(),
        (paced_total.3 + sat_total.3) as f64,
    );
    layers.insert("gen.lateness_p90_us".into(), percentile(&lateness, 0.9));
    layers.insert(
        "mem.rss_kb_per_1k_sessions".into(),
        rounds.rss_growth_kb / (sat_total.0 as f64 / 1000.0),
    );
    layers.insert("setup.fit_s".into(), times.fit_s);
    layers.insert("setup.store_s".into(), times.store_s);
    layers.insert("setup.bind_s".into(), times.bind_s);
    let base = fast_rate(&rounds.untraced);
    layers.insert(
        "trace.overhead_pct".into(),
        (base - obs_per_s) / base * 100.0,
    );

    // Offline legs, outside the timed phases.
    let phases: Vec<(&Plan, &Outcome, bool)> = rounds
        .paced
        .iter()
        .map(|(p, o)| (p, o, true))
        .chain(rounds.saturated.iter().map(|(p, o)| (p, o, false)))
        .collect();
    let (encode_ns, decode_ns) = codec_ns(&data, &phases, tracer);
    layers.insert("net.proto.encode_ns".into(), encode_ns);
    layers.insert("net.proto.decode_ns".into(), decode_ns);
    let sent: Vec<&Plan> = phases.iter().map(|&(p, _, _)| p).collect();
    let (push_s, open_us) = push_offline(&data, &sent, tracer)?;
    layers.insert("serve.push.eco-k.busy_s".into(), push_s);
    layers.insert("serve.session.open_us".into(), open_us);
    // The other topology back-to-back in this process, so that the
    // router's numbers come with every traced wire run: the router's
    // CPU in the saturated windows and the paced p50 its hop adds.
    let other = match topology {
        Topology::Direct => Topology::Fleet,
        Topology::Fleet => Topology::Direct,
    };
    let root = tracer.open("offline.other_topology", SpanId::NONE, 0);
    let mut stack = bind(other, &data.model, &mut off, root)?;
    saturated(&mut stack.conns, &data, &warm, &mut off, "warmup");
    let again = plans(&data, WARMUP_SESSIONS, seconds, nconn);
    let leg = measure(
        &mut stack.conns,
        &data,
        again,
        &mut Tracer::new(true),
        false,
    );
    stack.close();
    tracer.close(root);
    let leg_p50 = fast_time(
        &leg.paced
            .iter()
            .map(|(_, o)| Latencies::of(&o.latency_us).p50)
            .collect::<Vec<_>>(),
    );
    let (fleet, direct_p50, fleet_p50) = match topology {
        Topology::Direct => (&leg, p50, leg_p50),
        Topology::Fleet => (&rounds, leg_p50, p50),
    };
    layers.insert("net.router.cpu_s".into(), fleet.sat_cpu.router);
    layers.insert("net.router.added_p50_us".into(), fleet_p50 - direct_p50);
    run.per_layer = layers;
    Ok(run)
}
