//! Overload-admission primitives: token buckets, CoDel-style sojourn
//! control, and the brownout degradation ladder.
//!
//! Static backpressure is a binary — block the producer or shed the
//! work. Neither answers the question production serving actually
//! asks under sustained over-capacity load: *how much* work should be
//! refused, and *how gracefully* can the rest degrade before anything
//! is refused at all. This module supplies the three controllers that
//! replace the binary:
//!
//! * [`TokenBucket`] — per-client rate limiting, so one aggressive
//!   client cannot starve the rest before global controls engage;
//! * [`CodelController`] — adaptive admission keyed on measured queue
//!   *sojourn time* (the CoDel insight: queue length lies, time spent
//!   waiting does not). While the minimum sojourn over a control
//!   interval stays above target, admission sheds at an accelerating
//!   `interval/√count` cadence until the queue drains back under
//!   target;
//! * [`BrownoutController`] — a hysteresis ladder over degradation
//!   modes: full evaluation → tightened per-decision deadline →
//!   decide-now/prior fallback → shed lowest-priority sessions. The
//!   ETSC cost model makes the middle rungs natural: an early-decided
//!   verdict is cheaper *and still an answer*, so the ladder trades
//!   earliness/accuracy for survival before it trades availability.
//!
//! All three are deterministic given an explicit clock — every method
//! takes `now: Instant` — so their invariants (refill monotonicity,
//! sojourn-target convergence, no per-step oscillation) are pinned by
//! property tests rather than wall-clock luck.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A token bucket: `rate` tokens per second refill up to `burst`
/// capacity; each admitted unit of work takes one token.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Option<Instant>,
}

impl TokenBucket {
    /// A bucket refilling `rate` tokens/sec with `burst` capacity
    /// (both clamped to be at least a trickle, so a mis-configured
    /// zero rate refuses work instead of dividing by zero).
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        let rate = if rate.is_finite() && rate > 0.0 {
            rate
        } else {
            f64::MIN_POSITIVE
        };
        let burst = if burst.is_finite() && burst >= 1.0 {
            burst
        } else {
            1.0
        };
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: None,
        }
    }

    fn refill(&mut self, now: Instant) {
        if let Some(last) = self.last {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
        self.last = Some(now);
    }

    /// Tokens currently available (after the last refill).
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Takes one token if available; refills first.
    pub fn try_acquire(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// How long until one token will be available at the current fill
    /// level — the `retry_after` hint a refusal should carry.
    pub fn retry_after(&self) -> Duration {
        if self.tokens >= 1.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(((1.0 - self.tokens) / self.rate).min(60.0))
        }
    }
}

/// Tuning for [`CodelController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodelConfig {
    /// Acceptable standing queue sojourn. Sojourns persistently above
    /// this mean the queue holds more work than the service can clear.
    pub target: Duration,
    /// How long sojourn must stay above target before shedding starts,
    /// and the base period of the shedding control law.
    pub interval: Duration,
}

impl Default for CodelConfig {
    fn default() -> CodelConfig {
        CodelConfig {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(100),
        }
    }
}

/// CoDel-style adaptive admission: dequeues report sojourn via
/// [`CodelController::record_sojourn`]; enqueues ask
/// [`CodelController::admit`]. While sojourn has stayed above
/// `target` for a full `interval`, the controller enters its shedding
/// state and refuses one enqueue every `interval/count`, shedding
/// faster the longer the overload persists — and stops the moment a
/// dequeue observes sojourn back under target.
#[derive(Debug, Clone)]
pub struct CodelController {
    config: CodelConfig,
    first_above: Option<Instant>,
    dropping: bool,
    shed_next: Option<Instant>,
    count: u32,
}

impl CodelController {
    /// A controller in the admitting state.
    pub fn new(config: CodelConfig) -> CodelController {
        CodelController {
            config,
            first_above: None,
            dropping: false,
            shed_next: None,
            count: 0,
        }
    }

    /// `true` while the controller is in its shedding state.
    pub fn is_shedding(&self) -> bool {
        self.dropping
    }

    /// Total enqueues refused so far.
    pub fn shed_count(&self) -> u32 {
        self.count
    }

    /// Reports the queue sojourn of one dequeued item.
    pub fn record_sojourn(&mut self, sojourn: Duration, now: Instant) {
        if sojourn < self.config.target {
            // Back under target: leave the shedding state, but decay
            // rather than reset the count so a quick relapse resumes
            // near the old shedding cadence (the CoDel re-entry rule).
            self.first_above = None;
            if self.dropping {
                self.dropping = false;
                self.shed_next = None;
                self.count /= 2;
            }
            return;
        }
        if self.dropping {
            return;
        }
        match self.first_above {
            None if self.count > 0 => {
                // Recent shedding memory: a relapse re-engages at once
                // instead of tolerating another full interval of
                // standing queue.
                self.dropping = true;
                self.shed_next = Some(now);
            }
            None => self.first_above = Some(now + self.config.interval),
            Some(t) if now >= t => {
                self.dropping = true;
                self.count = self.count.max(1);
                self.shed_next = Some(now);
            }
            Some(_) => {}
        }
    }

    /// Whether to admit one unit of work arriving now. Refusals follow
    /// the control law: at most one per `interval/count`, with `count`
    /// growing while the overload lasts. (Canonical CoDel paces drops
    /// at `interval/√count` to nudge congestion-controlled senders;
    /// admission has no cooperating sender, so the cadence accelerates
    /// linearly until shedding matches the excess arrival rate.)
    pub fn admit(&mut self, now: Instant) -> bool {
        if !self.dropping {
            return true;
        }
        match self.shed_next {
            Some(t) if now >= t => {
                self.count += 1;
                let gap = self.config.interval.as_secs_f64() / f64::from(self.count);
                self.shed_next = Some(now + Duration::from_secs_f64(gap));
                false
            }
            _ => true,
        }
    }
}

/// The rungs of the brownout degradation ladder, cheapest service
/// first to be sacrificed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full evaluation, client-configured deadlines only.
    Normal,
    /// Per-decision deadlines tightened: late evaluations commit the
    /// configured fallback instead of waiting.
    Tightened,
    /// Sessions are asked to decide *now* on the prefix observed so
    /// far — an early, cheaper verdict instead of continued
    /// evaluation.
    DecideNow,
    /// New lowest-priority sessions are shed outright (with a retry
    /// hint); existing work continues in decide-now mode.
    ShedLowPriority,
}

impl BrownoutLevel {
    /// All rungs, mildest first.
    pub const LADDER: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::Tightened,
        BrownoutLevel::DecideNow,
        BrownoutLevel::ShedLowPriority,
    ];

    /// Stable kebab-case name for metrics and traces.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::Tightened => "tightened",
            BrownoutLevel::DecideNow => "decide-now",
            BrownoutLevel::ShedLowPriority => "shed-low-priority",
        }
    }

    /// Rung index (0 = normal), the value exported as a gauge.
    pub fn as_u8(self) -> u8 {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::Tightened => 1,
            BrownoutLevel::DecideNow => 2,
            BrownoutLevel::ShedLowPriority => 3,
        }
    }

    /// The rung for a gauge value (saturating: unknown values clamp
    /// to the deepest rung).
    pub fn from_u8(v: u8) -> BrownoutLevel {
        match v {
            0 => BrownoutLevel::Normal,
            1 => BrownoutLevel::Tightened,
            2 => BrownoutLevel::DecideNow,
            _ => BrownoutLevel::ShedLowPriority,
        }
    }
}

/// Tuning for [`BrownoutController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Pressure (peak queue sojourn per sample tick) at or above which
    /// a sample votes to escalate.
    pub high_water: Duration,
    /// Pressure at or below which a sample votes to recover. Must sit
    /// below `high_water`; the dead band between the two is the
    /// hysteresis that stops flapping.
    pub low_water: Duration,
    /// Consecutive escalation votes required to climb one rung.
    pub up_after: u32,
    /// Consecutive recovery votes required to descend one rung —
    /// deliberately larger than `up_after`: degrade fast, recover
    /// cautiously.
    pub down_after: u32,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            high_water: Duration::from_millis(20),
            low_water: Duration::from_millis(5),
            up_after: 2,
            down_after: 8,
        }
    }
}

/// Hysteresis controller walking the [`BrownoutLevel`] ladder one rung
/// at a time. Feed it one pressure sample per tick; it escalates after
/// `up_after` consecutive samples at or above `high_water`, recovers
/// after `down_after` consecutive samples at or below `low_water`, and
/// holds position otherwise. Every transition resets both streaks, so
/// a single sample can never move the level more than one rung and an
/// alternating pressure signal moves it not at all.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    config: BrownoutConfig,
    level: BrownoutLevel,
    high_streak: u32,
    low_streak: u32,
}

impl BrownoutController {
    /// A controller at [`BrownoutLevel::Normal`].
    pub fn new(config: BrownoutConfig) -> BrownoutController {
        BrownoutController {
            config: BrownoutConfig {
                up_after: config.up_after.max(1),
                down_after: config.down_after.max(1),
                ..config
            },
            level: BrownoutLevel::Normal,
            high_streak: 0,
            low_streak: 0,
        }
    }

    /// The current rung.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Feeds one pressure sample; returns `Some((from, to))` when the
    /// ladder moved this tick.
    pub fn observe(&mut self, pressure: Duration) -> Option<(BrownoutLevel, BrownoutLevel)> {
        if pressure >= self.config.high_water {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if pressure <= self.config.low_water {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        let from = self.level;
        let idx = from.as_u8();
        if self.high_streak >= self.config.up_after && idx < 3 {
            self.level = BrownoutLevel::from_u8(idx + 1);
        } else if self.low_streak >= self.config.down_after && idx > 0 {
            self.level = BrownoutLevel::from_u8(idx - 1);
        } else {
            return None;
        }
        self.high_streak = 0;
        self.low_streak = 0;
        Some((from, self.level))
    }
}

/// Lock-free pressure sensor shared between the threads that *feel*
/// queueing delay (the connection event loops) and the
/// brownout loop that samples it: records keep the peak sojourn since
/// the last [`PressureSensor::drain`].
#[derive(Debug, Default)]
pub struct PressureSensor {
    peak_ns: AtomicU64,
}

impl PressureSensor {
    /// A sensor reading zero pressure.
    pub fn new() -> PressureSensor {
        PressureSensor::default()
    }

    /// Records one observed queue sojourn.
    pub fn record(&self, sojourn: Duration) {
        let ns = u64::try_from(sojourn.as_nanos()).unwrap_or(u64::MAX);
        self.peak_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// The peak sojourn since the previous drain, resetting the peak.
    pub fn drain(&self) -> Duration {
        Duration::from_nanos(self.peak_ns.swap(0, Ordering::Relaxed))
    }

    /// The peak sojourn since the previous drain, without resetting.
    pub fn peek(&self) -> Duration {
        Duration::from_nanos(self.peak_ns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let start = t0();
        let mut b = TokenBucket::new(10.0, 3.0);
        // Burst drains first...
        assert!(b.try_acquire(start));
        assert!(b.try_acquire(start));
        assert!(b.try_acquire(start));
        assert!(!b.try_acquire(start));
        assert!(b.retry_after() > Duration::ZERO);
        // ...then the refill rate governs: 100ms at 10/s buys one.
        assert!(b.try_acquire(start + Duration::from_millis(100)));
        assert!(!b.try_acquire(start + Duration::from_millis(101)));
        // A long idle period refills to burst, never beyond.
        let later = start + Duration::from_secs(60);
        for _ in 0..3 {
            assert!(b.try_acquire(later));
        }
        assert!(!b.try_acquire(later));
    }

    #[test]
    fn token_bucket_survives_degenerate_configs() {
        let start = t0();
        let mut zero = TokenBucket::new(0.0, 0.0);
        assert!(zero.try_acquire(start));
        assert!(!zero.try_acquire(start));
        assert!(zero.retry_after() <= Duration::from_secs(60));
        let mut nan = TokenBucket::new(f64::NAN, f64::NAN);
        assert!(nan.try_acquire(start));
    }

    #[test]
    fn codel_stays_quiet_under_target_and_sheds_above() {
        let cfg = CodelConfig::default();
        let mut c = CodelController::new(cfg);
        let start = t0();
        // Sojourns under target never shed, no matter how many.
        for i in 0..1000 {
            let now = start + Duration::from_millis(i);
            c.record_sojourn(Duration::from_millis(1), now);
            assert!(c.admit(now));
        }
        assert!(!c.is_shedding());
        // Sojourn above target must persist a full interval first...
        let now = start + Duration::from_secs(10);
        c.record_sojourn(Duration::from_millis(50), now);
        assert!(c.admit(now), "no shed before the interval elapses");
        // ...then shedding engages.
        let later = now + cfg.interval + Duration::from_millis(1);
        c.record_sojourn(Duration::from_millis(50), later);
        assert!(c.is_shedding());
        assert!(!c.admit(later));
        // And a sojourn back under target disengages immediately.
        c.record_sojourn(Duration::from_millis(1), later + Duration::from_millis(5));
        assert!(!c.is_shedding());
        assert!(c.admit(later + Duration::from_millis(5)));
    }

    #[test]
    fn codel_shed_cadence_accelerates_while_overloaded() {
        let cfg = CodelConfig::default();
        let mut c = CodelController::new(cfg);
        let start = t0();
        c.record_sojourn(Duration::from_millis(50), start);
        let engaged = start + cfg.interval + Duration::from_millis(1);
        c.record_sojourn(Duration::from_millis(50), engaged);
        assert!(c.is_shedding());
        // Walk forward 1ms at a time, recording every gap between
        // refusals; the control law says gaps never grow.
        let mut gaps = Vec::new();
        let mut last_shed: Option<u64> = None;
        for ms in 0..2000u64 {
            let now = engaged + Duration::from_millis(ms);
            c.record_sojourn(Duration::from_millis(50), now);
            if !c.admit(now) {
                if let Some(prev) = last_shed {
                    gaps.push(ms - prev);
                }
                last_shed = Some(ms);
            }
        }
        assert!(gaps.len() >= 3, "expected several sheds, got {gaps:?}");
        for pair in gaps.windows(2) {
            assert!(pair[1] <= pair[0] + 1, "cadence slowed: {gaps:?}");
        }
    }

    #[test]
    fn codel_converges_to_the_sojourn_target() {
        // Closed-loop simulation: a queue served at 1 item/ms receives
        // 3 offered items/ms. Without admission the queue (and its
        // sojourn) grows without bound; with the controller in the
        // loop the sojourn must converge to the neighbourhood of the
        // target instead of diverging.
        let cfg = CodelConfig {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(20),
        };
        let mut c = CodelController::new(cfg);
        let start = t0();
        let mut queue: u64 = 0;
        let mut peak_tail = Duration::ZERO;
        for ms in 0..4000u64 {
            let now = start + Duration::from_millis(ms);
            for j in 0..3u32 {
                // Arrivals spread inside the tick, as on a real wire.
                if c.admit(now + Duration::from_micros(u64::from(j) * 333)) {
                    queue += 1;
                }
            }
            if queue > 0 {
                queue -= 1;
                // Sojourn of the item leaving now ≈ queue length at
                // service rate 1/ms.
                let sojourn = Duration::from_millis(queue);
                c.record_sojourn(sojourn, now);
                if ms >= 3000 {
                    peak_tail = peak_tail.max(sojourn);
                }
            }
        }
        assert!(
            peak_tail <= cfg.target * 4,
            "sojourn failed to converge: tail peak {peak_tail:?} vs target {:?}",
            cfg.target
        );
        assert!(c.shed_count() > 0);
    }

    #[test]
    fn brownout_requires_a_full_streak_per_rung() {
        let cfg = BrownoutConfig {
            high_water: Duration::from_millis(20),
            low_water: Duration::from_millis(5),
            up_after: 3,
            down_after: 4,
        };
        let mut b = BrownoutController::new(cfg);
        let high = Duration::from_millis(50);
        let low = Duration::from_millis(1);
        assert_eq!(b.observe(high), None);
        assert_eq!(b.observe(high), None);
        assert_eq!(
            b.observe(high),
            Some((BrownoutLevel::Normal, BrownoutLevel::Tightened))
        );
        // The streak reset: two more highs are not enough again.
        assert_eq!(b.observe(high), None);
        assert_eq!(b.observe(high), None);
        assert_eq!(
            b.observe(high),
            Some((BrownoutLevel::Tightened, BrownoutLevel::DecideNow))
        );
        // Recovery needs its own full streak.
        for _ in 0..3 {
            assert_eq!(b.observe(low), None);
        }
        assert_eq!(
            b.observe(low),
            Some((BrownoutLevel::DecideNow, BrownoutLevel::Tightened))
        );
    }

    #[test]
    fn brownout_saturates_at_the_ladder_ends() {
        let mut b = BrownoutController::new(BrownoutConfig {
            up_after: 1,
            down_after: 1,
            ..BrownoutConfig::default()
        });
        let high = Duration::from_millis(500);
        let low = Duration::ZERO;
        for _ in 0..10 {
            b.observe(high);
        }
        assert_eq!(b.level(), BrownoutLevel::ShedLowPriority);
        for _ in 0..10 {
            b.observe(low);
        }
        assert_eq!(b.level(), BrownoutLevel::Normal);
        assert_eq!(b.observe(low), None);
    }

    #[test]
    fn pressure_sensor_keeps_the_peak_and_drains() {
        let s = PressureSensor::new();
        s.record(Duration::from_millis(3));
        s.record(Duration::from_millis(9));
        s.record(Duration::from_millis(1));
        assert_eq!(s.peek(), Duration::from_millis(9));
        assert_eq!(s.drain(), Duration::from_millis(9));
        assert_eq!(s.drain(), Duration::ZERO);
    }
}
