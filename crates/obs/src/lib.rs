//! # etsc-obs
//!
//! Dependency-free observability for the ETSC framework: the paper's
//! headline numbers are *timing* numbers (Table 6 training costs,
//! Figure 13 online-feasibility ratios), so every runner and the
//! streaming replay report through this crate instead of ad-hoc
//! `Instant` bookkeeping.
//!
//! * [`trace`] — a lock-cheap span/event tracer: RAII spans with
//!   thread-local parentage, monotonic microsecond timestamps, a
//!   bounded ring buffer, JSONL export/parse, and a validated
//!   [`TraceTree`] view for tests and tooling;
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   exact-quantile histograms with a deterministic Prometheus
//!   text-format snapshot;
//! * [`hist`] — the exact-quantile [`Histogram`] both of the above
//!   share (formerly `etsc_eval::histogram::LatencyHistogram`).
//!
//! The two handle types and the combined [`Obs`] context are
//! `Option<Arc<…>>` under the hood: a default-constructed (disabled)
//! context makes every instrumentation point a no-op behind a single
//! branch, which is what keeps tracer overhead within the ≤3% budget
//! on the streaming bench.
//!
//! ## Ambient context
//!
//! Deep call sites (transform fits, fold phases) would need an `Obs`
//! threaded through many signatures; instead, runners install their
//! context for the current thread with [`with_ambient`] and leaf code
//! emits through [`ambient_span`] / [`ambient`]. The ambient context
//! is thread-local and does **not** cross `std::thread::spawn` — code
//! that fans out re-installs it (see `MatrixRunner`) or captures span
//! ids and uses [`Tracer::span_under`].

pub mod hist;
pub mod json;
pub mod metrics;
pub mod trace;

pub use hist::Histogram;
pub use metrics::{validate_prometheus, Counter, Gauge, HistogramHandle, MetricsRegistry};
pub use trace::{
    parse_jsonl, EventRecord, SpanGuard, SpanRecord, TraceLog, TraceRecord, TraceTree, Tracer,
    DEFAULT_TRACE_CAPACITY,
};

use std::cell::RefCell;

/// A combined observability context: one tracer plus one metrics
/// registry, passed (or installed ambiently) as a unit. Cloning is
/// cheap; clones share the same buffers.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The span/event tracer.
    pub tracer: Tracer,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// A fully disabled context (the default): all operations no-op.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// A fully enabled context with the default trace capacity.
    pub fn enabled() -> Obs {
        Obs {
            tracer: Tracer::enabled(),
            metrics: MetricsRegistry::enabled(),
        }
    }

    /// `true` when either half records anything.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled() || self.metrics.is_enabled()
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `obs` installed as this thread's ambient context.
/// Nests (the previous context is restored afterwards) and is
/// panic-safe (the context is popped during unwind).
pub fn with_ambient<R>(obs: &Obs, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            AMBIENT.with(|a| {
                a.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|a| a.borrow_mut().push(obs.clone()));
    let _guard = PopGuard;
    f()
}

/// This thread's ambient context; disabled when none is installed.
pub fn ambient() -> Obs {
    AMBIENT
        .with(|a| a.borrow().last().cloned())
        .unwrap_or_default()
}

/// Opens a span on the ambient tracer (a no-op guard when no enabled
/// context is installed).
pub fn ambient_span(name: &str) -> SpanGuard {
    ambient().tracer.span(name)
}

/// Emits an event on the ambient tracer.
pub fn ambient_event(name: &str, attrs: &[(&str, &str)]) {
    ambient().tracer.event(name, attrs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_defaults_to_disabled() {
        assert!(!ambient().is_enabled());
        let sp = ambient_span("x");
        assert!(!sp.is_recording());
    }

    #[test]
    fn ambient_nests_and_restores() {
        let outer = Obs::enabled();
        let inner = Obs::enabled();
        with_ambient(&outer, || {
            {
                let _root = ambient_span("outer_root");
                with_ambient(&inner, || {
                    let _sp = ambient_span("inner_root");
                });
            }
            assert_eq!(
                ambient().tracer.records().len(),
                outer.tracer.records().len()
            );
        });
        assert!(!ambient().is_enabled());
        let outer_tree = TraceTree::build(&outer.tracer.records()).unwrap();
        assert_eq!(outer_tree.spans_named("outer_root").len(), 1);
        assert!(outer_tree.spans_named("inner_root").is_empty());
        let inner_tree = TraceTree::build(&inner.tracer.records()).unwrap();
        assert_eq!(inner_tree.spans_named("inner_root").len(), 1);
    }

    #[test]
    fn ambient_pops_on_panic() {
        let obs = Obs::enabled();
        let result = std::panic::catch_unwind(|| {
            with_ambient(&obs, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!ambient().is_enabled(), "panic unwound the ambient stack");
    }

    #[test]
    fn obs_enabled_flags() {
        assert!(Obs::enabled().is_enabled());
        assert!(!Obs::disabled().is_enabled());
        let half = Obs {
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::enabled(),
        };
        assert!(half.is_enabled());
    }
}
