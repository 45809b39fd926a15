//! Load-generator core: replay dataset streams against a live server
//! over N connections and measure what actually comes back.
//!
//! This is the socketed counterpart of `etsc-serve`'s in-process
//! replay: the same time-major feeding discipline (observation `t` of
//! every session, then `t+1`), but through the full wire path —
//! framing, checksums, kernel buffers, reader/writer threads, queue
//! backpressure. The report carries achieved decisions/sec and
//! end-to-end p50/p99 latency, the numbers `BENCH_baseline.json`
//! places next to the in-process ones so the cost of the network edge
//! is a measured quantity, not a guess.
//!
//! The same core drives the chaos suite: a seeded [`FaultPlan`] makes
//! chosen sessions tear a frame, stall slow-loris, or drop their
//! connection mid-stream, with the injected counts reported for
//! attribution.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use etsc_data::Dataset;
use etsc_eval::faults::{FaultPlan, FaultSchedule};
use etsc_obs::Histogram;

use crate::client::{Client, NetError};
use crate::options::{ClientBuilder, Endpoint};

/// Tuning knobs for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total sessions, distributed round-robin across connections.
    pub sessions: usize,
    /// Target observation rate per connection (rows/sec); 0 = unpaced.
    pub rate: f64,
    /// Rows per `ObserveBatch` frame in the unpaced, fault-free wave
    /// feed: the time axis is walked in chunks of this many steps and
    /// each session's chunk ships as one frame. 1 (or a paced/faulted
    /// run, where per-row timing matters) = one `Observe` per row.
    pub batch: usize,
    /// Seeded client-side network faults (torn frames, disconnects,
    /// slow-loris stalls), scheduled over all sessions.
    pub faults: Option<FaultPlan>,
    /// The clients' knobs, one client per connection.
    pub client: ClientBuilder,
    /// Budget for collecting outstanding decisions after the feed.
    pub wait_timeout: Duration,
    /// Sessions each connection keeps in flight at once (0 = every
    /// assigned session opens up front, the time-major batch replay).
    /// A non-zero window opens a replacement the moment an outcome
    /// lands — mid-stream, while the server is still busy with the
    /// rest of the window — so session opens arrive against the real
    /// backlog, the arrival pattern of an overload ramp.
    pub open_ahead: usize,
    /// Report each session's true label back after its decision, so a
    /// server running online adaptation can detect drift and refit.
    pub feedback: bool,
    /// Ask the server to drain gracefully once everything is
    /// collected, and wait for its Shutdown frame.
    pub send_shutdown: bool,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            connections: 4,
            sessions: 100,
            rate: 0.0,
            batch: 1,
            faults: None,
            client: ClientBuilder::new(),
            wait_timeout: Duration::from_secs(30),
            open_ahead: 0,
            feedback: false,
            send_shutdown: false,
        }
    }
}

/// What a load run achieved and what it cost.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Sessions the run opened.
    pub sessions: usize,
    /// Sessions answered with a decision.
    pub decided: usize,
    /// Decided sessions whose verdict was the algorithm's own trigger.
    pub genuine: usize,
    /// Decided sessions answered by a forced (non-genuine) decision.
    pub degraded: usize,
    /// Sessions the server failed (evaluation error, worker panic, or
    /// an overload refusal — the `shed`/`expired` sub-counts below).
    pub failed: usize,
    /// Of the failed sessions, those refused for load (session cap,
    /// overload) after the client's retry budget ran out. Overload
    /// turned away with attribution, not work lost.
    pub shed: usize,
    /// Of the failed sessions, those whose propagated deadline lapsed
    /// before evaluation — the server skipped dead work instead of
    /// computing an answer nobody would read.
    pub expired: usize,
    /// Sessions transparently re-opened after a retryable refusal (the
    /// client's retry budget absorbing overload before it fails).
    pub session_retries: u64,
    /// Sessions deliberately killed by an injected disconnect (the
    /// server must account these as abandoned, not leak them).
    pub disconnected: usize,
    /// Sessions that got no answer within the wait budget — zero on a
    /// healthy run.
    pub dropped: usize,
    /// Torn frames injected.
    pub torn_frames: u64,
    /// Slow-loris stalls injected.
    pub loris_stalls: u64,
    /// Client reconnects (each replays its open sessions).
    pub reconnects: u64,
    /// Observation rows delivered.
    pub rows_sent: u64,
    /// Feedback frames sent (with [`LoadgenOptions::feedback`]).
    pub feedback_sent: u64,
    /// Per-session (session index, prediction was correct) pairs,
    /// recorded when feedback is on. Sorted by session index, which is
    /// the stream's time axis — windowed accuracy over this sequence
    /// is how drift impact and post-swap recovery are measured.
    pub correctness: Vec<(usize, bool)>,
    /// Wall-clock for the whole run.
    pub wall: Duration,
    /// End-to-end decision latency (seconds).
    pub latency: Histogram,
    /// Whether the server acknowledged the drain (when requested).
    pub drained: bool,
    /// Errors encountered, one line each.
    pub errors: Vec<String>,
}

impl LoadReport {
    /// Decisions per wall-clock second.
    pub fn decisions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.decided as f64 / secs
        } else {
            0.0
        }
    }

    /// Median end-to-end latency, milliseconds (0 when nothing was
    /// decided).
    pub fn p50_ms(&self) -> f64 {
        self.latency.clone().p50().unwrap_or(0.0) * 1e3
    }

    /// Tail end-to-end latency, milliseconds (0 when nothing was
    /// decided).
    pub fn p99_ms(&self) -> f64 {
        self.latency.clone().p99().unwrap_or(0.0) * 1e3
    }

    /// `true` when every non-disconnected session was answered or
    /// failed with attribution — nothing silently dropped.
    pub fn clean(&self) -> bool {
        self.dropped == 0 && self.errors.is_empty()
    }

    /// `true` when every opened session has exactly one recorded fate:
    /// decided, failed (shed and expired included), disconnected, or
    /// dropped. The overload chaos test's "every rejected request is
    /// accounted for" invariant.
    pub fn accounted(&self) -> bool {
        self.decided + self.failed + self.disconnected + self.dropped == self.sessions
    }

    /// Accuracy over the sessions with indexes in `[lo, hi)` — a
    /// window along the stream's time axis. `None` when feedback was
    /// off or the window is empty.
    pub fn window_accuracy(&self, lo: usize, hi: usize) -> Option<f64> {
        let mut correct = 0usize;
        let mut total = 0usize;
        for &(s, ok) in &self.correctness {
            if s >= lo && s < hi {
                total += 1;
                correct += usize::from(ok);
            }
        }
        (total > 0).then(|| correct as f64 / total as f64)
    }
}

/// Replays `data`'s instances as streaming sessions against the server
/// at `addr`. Session `s` streams instance `s % data.len()`; sessions
/// are spread round-robin over the connections and fed time-major.
/// Failures are folded into [`LoadReport::errors`] rather than
/// aborting the run — a load generator's job includes surviving the
/// faults it injects.
pub fn run_loadgen(addr: &str, data: &Dataset, opts: &LoadgenOptions) -> LoadReport {
    let connections = opts.connections.max(1);
    let sessions = opts.sessions.max(1);
    let lens: Vec<usize> = (0..sessions)
        .map(|s| data.instance(s % data.len()).len())
        .collect();
    let schedule = opts.faults.as_ref().map(|plan| plan.schedule(&lens));
    let started = Instant::now();
    let report = Mutex::new(LoadReport {
        sessions,
        ..LoadReport::default()
    });
    std::thread::scope(|scope| {
        for conn_idx in 0..connections {
            let report = &report;
            let schedule = schedule.as_ref();
            let mine: Vec<usize> = (conn_idx..sessions).step_by(connections).collect();
            if mine.is_empty() {
                continue;
            }
            scope.spawn(move || {
                let partial = feed_connection(addr, data, opts, &mine, schedule);
                merge(
                    &mut report.lock().unwrap_or_else(|e| e.into_inner()),
                    partial,
                );
            });
        }
    });
    let mut report = report.into_inner().unwrap_or_else(|e| e.into_inner());
    if opts.send_shutdown {
        match drain_server(addr, &opts.client, opts.wait_timeout) {
            Ok(()) => report.drained = true,
            Err(e) => report.errors.push(format!("drain: {e}")),
        }
    }
    report.wall = started.elapsed();
    report
}

/// Everything one connection contributes to the final report.
#[derive(Default)]
struct Partial {
    decided: usize,
    genuine: usize,
    degraded: usize,
    failed: usize,
    shed: usize,
    expired: usize,
    session_retries: u64,
    disconnected: usize,
    dropped: usize,
    torn_frames: u64,
    loris_stalls: u64,
    reconnects: u64,
    rows_sent: u64,
    feedback_sent: u64,
    correctness: Vec<(usize, bool)>,
    latency: Histogram,
    errors: Vec<String>,
}

fn merge(report: &mut LoadReport, p: Partial) {
    report.decided += p.decided;
    report.genuine += p.genuine;
    report.degraded += p.degraded;
    report.failed += p.failed;
    report.shed += p.shed;
    report.expired += p.expired;
    report.session_retries += p.session_retries;
    report.disconnected += p.disconnected;
    report.dropped += p.dropped;
    report.torn_frames += p.torn_frames;
    report.loris_stalls += p.loris_stalls;
    report.reconnects += p.reconnects;
    report.rows_sent += p.rows_sent;
    report.feedback_sent += p.feedback_sent;
    report.correctness.extend(p.correctness);
    report.correctness.sort_unstable();
    report.latency.merge(&p.latency);
    report.errors.extend(p.errors);
}

fn feed_connection(
    addr: &str,
    data: &Dataset,
    opts: &LoadgenOptions,
    mine: &[usize],
    schedule: Option<&FaultSchedule>,
) -> Partial {
    let mut p = Partial::default();
    let mut client = match Endpoint::connect(addr, opts.client.clone()) {
        Ok(c) => c,
        Err(e) => {
            p.errors.push(format!("connect: {e}"));
            p.dropped = mine.len();
            return p;
        }
    };
    if client.meta().vars != data.vars() {
        p.errors.push(format!(
            "model expects {} variables, dataset has {}",
            client.meta().vars,
            data.vars()
        ));
        p.dropped = mine.len();
        return p;
    }
    if opts.open_ahead > 0 {
        feed_windowed(&mut client, data, opts, mine, schedule, &mut p);
    } else {
        feed_wave(&mut client, data, opts, mine, schedule, &mut p);
    }
    let stats = client.stats();
    p.torn_frames = stats.torn_frames;
    p.loris_stalls = stats.loris_stalls;
    p.reconnects = stats.reconnects;
    p.session_retries = stats.session_retries;
    p
}

/// Opens one wave of sessions, feeds it time-major, and collects every
/// decision the wave is owed before the caller opens the next wave.
fn feed_wave(
    client: &mut Client,
    data: &Dataset,
    opts: &LoadgenOptions,
    mine: &[usize],
    schedule: Option<&FaultSchedule>,
    p: &mut Partial,
) {
    let mut ids: HashMap<usize, u64> = HashMap::new();
    for &s in mine {
        match client.open_session(data.instance(s % data.len()).len()) {
            Ok(id) => {
                ids.insert(s, id);
            }
            Err(e) => {
                p.errors.push(format!("open session {s}: {e}"));
                p.dropped += 1;
            }
        }
    }
    let interval = if opts.rate > 0.0 {
        Duration::from_secs_f64(1.0 / opts.rate)
    } else {
        Duration::ZERO
    };
    let max_len = mine
        .iter()
        .map(|&s| data.instance(s % data.len()).len())
        .max()
        .unwrap_or(0);
    // The batched fast path: chunk the time axis and ship each
    // session's chunk as one ObserveBatch. Pacing and fault injection
    // both need per-row timing, so they keep the row-at-a-time loop.
    if opts.batch > 1 && interval == Duration::ZERO && schedule.is_none() {
        let batch = opts.batch;
        'batched: for t0 in (0..max_len).step_by(batch) {
            for &s in mine {
                let Some(&id) = ids.get(&s) else { continue };
                let inst = data.instance(s % data.len());
                if t0 >= inst.len() || client.outcome(id).is_some() {
                    continue;
                }
                let hi = (t0 + batch).min(inst.len());
                let rows: Vec<Vec<f64>> = (t0..hi)
                    .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
                    .collect();
                let n = rows.len() as u64;
                if let Err(e) = client.observe_batch(id, &rows) {
                    p.errors
                        .push(format!("session {s} steps {}..{hi}: {e}", t0 + 1));
                    break 'batched;
                }
                p.rows_sent += n;
            }
            if let Err(e) = client.poll() {
                p.errors.push(format!("poll at step {}: {e}", t0 + 1));
                break 'batched;
            }
        }
        for &s in mine {
            let Some(&id) = ids.get(&s) else { continue };
            collect_outcome(client, data, opts, s, id, p);
        }
        return;
    }
    let mut next_send = Instant::now();
    let mut disconnected: HashSet<usize> = HashSet::new();
    'feed: for t in 0..max_len {
        let step = t + 1;
        for &s in mine {
            if disconnected.contains(&s) {
                continue;
            }
            let Some(&id) = ids.get(&s) else { continue };
            let inst = data.instance(s % data.len());
            if t >= inst.len() || client.outcome(id).is_some() {
                continue;
            }
            let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
            let sent = if let Some(sched) = schedule {
                if sched.disconnects_at(s, step) {
                    if let Err(e) = client.inject_disconnect(id) {
                        p.errors.push(format!("session {s} disconnect: {e}"));
                        break 'feed;
                    }
                    p.disconnected += 1;
                    disconnected.insert(s);
                    continue;
                }
                if sched.tears_at(s, step) {
                    if let Err(e) = client.inject_torn_frame(id, &row) {
                        p.errors.push(format!("session {s} torn frame: {e}"));
                        break 'feed;
                    }
                }
                if let Some(stall) = sched.loris_at(s, step) {
                    client.inject_loris(id, &row, stall)
                } else {
                    client.observe(id, &row)
                }
            } else {
                client.observe(id, &row)
            };
            if let Err(e) = sent {
                p.errors.push(format!("session {s} step {step}: {e}"));
                break 'feed;
            }
            p.rows_sent += 1;
            if interval > Duration::ZERO {
                next_send += interval;
                let now = Instant::now();
                if next_send > now {
                    std::thread::sleep(next_send - now);
                }
            }
        }
        if let Err(e) = client.poll() {
            p.errors.push(format!("poll at step {step}: {e}"));
            break 'feed;
        }
    }
    // Collect everything still owed.
    for &s in mine {
        if disconnected.contains(&s) {
            continue;
        }
        let Some(&id) = ids.get(&s) else { continue };
        collect_outcome(client, data, opts, s, id, p);
    }
}

/// Waits out one session's fate and folds it into the partial report.
fn collect_outcome(
    client: &mut Client,
    data: &Dataset,
    opts: &LoadgenOptions,
    s: usize,
    id: u64,
    p: &mut Partial,
) {
    match client.wait_decision(id, opts.wait_timeout) {
        Ok(d) => {
            p.decided += 1;
            if d.kind.is_degraded() {
                p.degraded += 1;
            } else {
                p.genuine += 1;
            }
            p.latency.record(d.latency.as_secs_f64());
            if opts.feedback {
                let truth = data.label(s % data.len());
                match client.feedback(id, truth) {
                    Ok(()) => {
                        p.feedback_sent += 1;
                        p.correctness.push((s, d.label == truth));
                    }
                    Err(e) => p.errors.push(format!("session {s} feedback: {e}")),
                }
            }
        }
        Err(NetError::SessionFailed { message, .. }) => {
            p.failed += 1;
            // The outcome string is "[{code}] {detail}" — classify
            // overload refusals and expired deadlines so rejected
            // work is attributed, not lumped in with crashes.
            if message.starts_with("[overloaded]") || message.starts_with("[session-limit]") {
                p.shed += 1;
            } else if message.starts_with("[expired]") {
                p.expired += 1;
            }
        }
        Err(e) => {
            p.dropped += 1;
            p.errors.push(format!("session {s}: {e}"));
        }
    }
}

/// The sliding-window feed behind [`LoadgenOptions::open_ahead`]:
/// at most `open_ahead` sessions in flight, rows dealt round-robin
/// across the window, outcomes collected (and the window refilled)
/// the moment they land. Opens therefore arrive while earlier
/// sessions still occupy the server: genuine overload, not a batch
/// the server sees all at once.
fn feed_windowed(
    client: &mut Client,
    data: &Dataset,
    opts: &LoadgenOptions,
    mine: &[usize],
    schedule: Option<&FaultSchedule>,
    p: &mut Partial,
) {
    struct InFlight {
        s: usize,
        id: u64,
        next_t: usize,
        /// Fate already assigned (injected disconnect): drop from the
        /// window without collecting an outcome.
        abandoned: bool,
    }
    let interval = if opts.rate > 0.0 {
        Duration::from_secs_f64(1.0 / opts.rate)
    } else {
        Duration::ZERO
    };
    let mut next_send = Instant::now();
    let mut pending = mine.iter().copied();
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut exhausted = false;
    let mut fatal = false;
    // Refreshed whenever anything moves; a stall this long with
    // sessions still in flight means the server stopped answering.
    let mut give_up = Instant::now() + opts.wait_timeout;
    'window: loop {
        while !fatal && !exhausted && inflight.len() < opts.open_ahead {
            match pending.next() {
                Some(s) => match client.open_session(data.instance(s % data.len()).len()) {
                    Ok(id) => inflight.push(InFlight {
                        s,
                        id,
                        next_t: 0,
                        abandoned: false,
                    }),
                    Err(e) => {
                        p.errors.push(format!("open session {s}: {e}"));
                        p.dropped += 1;
                    }
                },
                None => exhausted = true,
            }
        }
        if inflight.is_empty() && (exhausted || fatal) {
            break 'window;
        }
        // One row per in-flight session: time-major across the window.
        let mut sent_any = false;
        if !fatal {
            for f in inflight.iter_mut() {
                let inst = data.instance(f.s % data.len());
                if f.next_t >= inst.len() || client.outcome(f.id).is_some() {
                    continue;
                }
                let t = f.next_t;
                f.next_t += 1;
                let step = t + 1;
                let s = f.s;
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                let sent = if let Some(sched) = schedule {
                    if sched.disconnects_at(s, step) {
                        if let Err(e) = client.inject_disconnect(f.id) {
                            p.errors.push(format!("session {s} disconnect: {e}"));
                            fatal = true;
                            break;
                        }
                        p.disconnected += 1;
                        f.abandoned = true;
                        continue;
                    }
                    if sched.tears_at(s, step) {
                        if let Err(e) = client.inject_torn_frame(f.id, &row) {
                            p.errors.push(format!("session {s} torn frame: {e}"));
                            fatal = true;
                            break;
                        }
                    }
                    if let Some(stall) = sched.loris_at(s, step) {
                        client.inject_loris(f.id, &row, stall)
                    } else {
                        client.observe(f.id, &row)
                    }
                } else {
                    client.observe(f.id, &row)
                };
                if let Err(e) = sent {
                    p.errors.push(format!("session {s} step {step}: {e}"));
                    fatal = true;
                    break;
                }
                p.rows_sent += 1;
                sent_any = true;
                if interval > Duration::ZERO {
                    next_send += interval;
                    let now = Instant::now();
                    if next_send > now {
                        std::thread::sleep(next_send - now);
                    }
                }
            }
        }
        if !fatal {
            if let Err(e) = client.poll() {
                p.errors.push(format!("poll: {e}"));
                fatal = true;
            }
        }
        // Collect what landed; each collection frees a window slot.
        let mut collected = false;
        let mut i = 0;
        while i < inflight.len() {
            let f = &inflight[i];
            if f.abandoned {
                inflight.swap_remove(i);
                collected = true;
            } else if fatal || client.outcome(f.id).is_some() {
                // On a dead connection wait_decision resolves (or
                // times out) each remaining fate with attribution.
                let f = inflight.swap_remove(i);
                collect_outcome(client, data, opts, f.s, f.id, p);
                collected = true;
            } else {
                i += 1;
            }
        }
        if collected || sent_any {
            give_up = Instant::now() + opts.wait_timeout;
        } else {
            if Instant::now() > give_up {
                for f in &inflight {
                    p.errors
                        .push(format!("session {} timed out in flight", f.s));
                    p.dropped += 1;
                }
                inflight.clear();
                break 'window;
            }
            // Everything is fed and nothing has landed yet: yield
            // instead of spinning on poll().
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    // Sessions never opened have no fate: account them as dropped so
    // the run's arithmetic still closes.
    for s in pending {
        p.errors
            .push(format!("session {s} never opened (feed aborted)"));
        p.dropped += 1;
    }
}

/// Opens a throwaway connection to request and await the drain.
fn drain_server(addr: &str, config: &ClientBuilder, timeout: Duration) -> Result<(), NetError> {
    let mut client = Endpoint::connect(addr, config.clone())?;
    client.shutdown_server()?;
    client.wait_drain(timeout)
}
