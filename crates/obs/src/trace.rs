//! A lock-cheap span/event tracer with JSONL export.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** A [`Tracer`] is an
//!    `Option<Arc<…>>`; the disabled tracer never reads the clock,
//!    touches thread-locals, or takes a lock, so instrumented hot
//!    paths (the streaming replay, transform fits) pay one branch.
//! 2. **Cheap when enabled.** Timestamps are microseconds relative to
//!    the tracer's creation instant (one monotonic clock read per span
//!    edge), span parentage comes from a thread-local stack (no lock),
//!    and finished records go into a bounded ring buffer guarded by a
//!    single mutex taken once per span *completion*, not per lookup.
//! 3. **Bounded memory.** The ring buffer drops the oldest records
//!    once `capacity` is reached and counts the drops, so a runaway
//!    trace degrades to a suffix window instead of an OOM.
//!
//! Spans are RAII: [`Tracer::span`] returns a [`SpanGuard`] that
//! records the span when dropped. Cross-thread parentage (a worker
//! executing a cell queued by the coordinator) uses
//! [`Tracer::span_under`] with an explicitly captured parent id.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, JsonValue};

/// Default ring-buffer capacity: enough for a full `--preset standard`
/// matrix (every fold × phase span) with headroom.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense ids for threads; `std::thread::ThreadId` has no
    /// stable integer accessor.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Stack of open spans on this thread, keyed by tracer identity so
    /// two tracers interleaved on one thread do not adopt each other's
    /// children.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// One completed span: a named interval with a parent, a thread, and
/// free-form string attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id, allocated at span open in monotonically increasing
    /// order (so a parent's id is always smaller than its children's).
    pub id: u64,
    /// Enclosing span, when one was open on the same thread (or was
    /// passed explicitly via [`Tracer::span_under`]).
    pub parent: Option<u64>,
    /// Span name, e.g. `"fold"` or `"fit"`.
    pub name: String,
    /// Dense per-process thread id.
    pub thread: u64,
    /// Open timestamp, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Close timestamp, microseconds since the tracer's epoch.
    pub end_us: u64,
    /// Attributes attached while the span was open, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.end_us.saturating_sub(self.start_us)) as f64 / 1e6
    }

    /// First attribute value under `key`.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One point-in-time event, attached to the span open on its thread at
/// emission time (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Unique id, from the same sequence as span ids.
    pub id: u64,
    /// Span open on the emitting thread, if any.
    pub span: Option<u64>,
    /// Event name, e.g. `"cell.retry"`.
    pub name: String,
    /// Dense per-process thread id.
    pub thread: u64,
    /// Timestamp, microseconds since the tracer's epoch.
    pub at_us: u64,
    /// Attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl EventRecord {
    /// First attribute value under `key`.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A finished trace record: span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A completed span.
    Span(SpanRecord),
    /// A point event.
    Event(EventRecord),
}

struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    ring: Mutex<Ring>,
}

/// A handle to a shared trace buffer; cloning is cheap and all clones
/// feed the same ring. `Tracer::default()` is the *disabled* tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => {
                let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
                write!(
                    f,
                    "Tracer(records: {}, dropped: {})",
                    ring.records.len(),
                    ring.dropped
                )
            }
        }
    }
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op behind one branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with the default ring capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer whose ring keeps at most `capacity` records
    /// (older records are dropped and counted).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    records: VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            })),
        }
    }

    /// `true` when this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &TracerInner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    fn key(inner: &Arc<TracerInner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    /// Opens a span named `name`, parented under the span currently
    /// open on this thread (if any). The span is recorded when the
    /// returned guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let parent = SPAN_STACK.with(|s| {
            let key = Tracer::key(inner);
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, id)| *id)
        });
        self.open(inner.clone(), name, parent)
    }

    /// Opens a span with an explicit parent (pass `None` for a root),
    /// for cross-thread parentage where the thread-local stack cannot
    /// see the logical parent.
    pub fn span_under(&self, name: &str, parent: Option<u64>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        self.open(inner.clone(), name, parent)
    }

    fn open(&self, inner: Arc<TracerInner>, name: &str, parent: Option<u64>) -> SpanGuard {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = Tracer::now_us(&inner);
        SPAN_STACK.with(|s| s.borrow_mut().push((Tracer::key(&inner), id)));
        SpanGuard {
            state: Some(OpenSpan {
                inner,
                record: SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    thread: thread_id(),
                    start_us,
                    end_us: start_us,
                    attrs: Vec::new(),
                },
            }),
        }
    }

    /// The id of the span currently open on this thread for this
    /// tracer, if any — capture it before handing work to another
    /// thread, then parent the remote span with [`Tracer::span_under`].
    pub fn current_span_id(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let key = Tracer::key(inner);
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, id)| *id)
        })
    }

    /// Emits a point event attached to the current thread's open span.
    pub fn event(&self, name: &str, attrs: &[(&str, &str)]) {
        self.event_under(name, self.current_span_id(), attrs);
    }

    /// Emits a point event under an explicit span id.
    pub fn event_under(&self, name: &str, span: Option<u64>, attrs: &[(&str, &str)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let record = EventRecord {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            span,
            name: name.to_string(),
            thread: thread_id(),
            at_us: Tracer::now_us(inner),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        let mut ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.push(TraceRecord::Event(record));
    }

    /// A snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
                ring.records.iter().cloned().collect()
            }
        }
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.ring.lock().unwrap_or_else(|e| e.into_inner()).dropped,
        }
    }

    /// Writes the buffered trace as JSONL: one meta line, then one
    /// line per record in buffer order.
    pub fn export_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        let dropped = self.dropped();
        writeln!(
            w,
            "{{\"kind\":\"meta\",\"version\":1,\"dropped\":{dropped}}}"
        )?;
        for record in self.records() {
            let mut line = String::new();
            match &record {
                TraceRecord::Span(s) => {
                    line.push_str("{\"kind\":\"span\",\"id\":");
                    let _ = write!(line, "{}", s.id);
                    line.push_str(",\"parent\":");
                    match s.parent {
                        Some(p) => {
                            let _ = write!(line, "{p}");
                        }
                        None => line.push_str("null"),
                    }
                    line.push_str(",\"name\":");
                    json::write_escaped(&mut line, &s.name);
                    let _ = write!(
                        line,
                        ",\"thread\":{},\"start_us\":{},\"end_us\":{},\"attrs\":",
                        s.thread, s.start_us, s.end_us
                    );
                    write_attrs(&mut line, &s.attrs);
                    line.push('}');
                }
                TraceRecord::Event(e) => {
                    line.push_str("{\"kind\":\"event\",\"id\":");
                    let _ = write!(line, "{}", e.id);
                    line.push_str(",\"span\":");
                    match e.span {
                        Some(p) => {
                            let _ = write!(line, "{p}");
                        }
                        None => line.push_str("null"),
                    }
                    line.push_str(",\"name\":");
                    json::write_escaped(&mut line, &e.name);
                    let _ = write!(
                        line,
                        ",\"thread\":{},\"at_us\":{},\"attrs\":",
                        e.thread, e.at_us
                    );
                    write_attrs(&mut line, &e.attrs);
                    line.push('}');
                }
            }
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Writes the trace to `path` (see [`Tracer::export_jsonl`]).
    pub fn export_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.export_jsonl(&mut file)?;
        file.flush()
    }
}

fn write_attrs(out: &mut String, attrs: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, k);
        out.push(':');
        json::write_escaped(out, v);
    }
    out.push('}');
}

struct OpenSpan {
    inner: Arc<TracerInner>,
    record: SpanRecord,
}

/// RAII handle to an open span; the span is recorded when this drops.
#[must_use = "a span guard records its span on drop; binding it to _ closes it immediately"]
pub struct SpanGuard {
    state: Option<OpenSpan>,
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        SpanGuard { state: None }
    }

    /// `true` when this guard belongs to an enabled tracer.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// This span's id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.record.id)
    }

    /// Attaches a string attribute to the span.
    pub fn attr(&mut self, key: &str, value: &str) {
        if let Some(open) = &mut self.state {
            open.record.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.state.take() else {
            return;
        };
        open.record.end_us = Tracer::now_us(&open.inner);
        let key = Arc::as_ptr(&open.inner) as usize;
        let id = open.record.id;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(k, i)| k == key && i == id) {
                stack.remove(pos);
            }
        });
        let mut ring = open.inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.push(TraceRecord::Span(open.record));
    }
}

/// A parsed JSONL trace: the meta header plus all records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Records evicted from the ring before export.
    pub dropped: u64,
    /// All exported records, in buffer order.
    pub records: Vec<TraceRecord>,
}

/// Parses a JSONL trace previously written by [`Tracer::export_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
    let mut log = TraceLog {
        dropped: 0,
        records: Vec::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("trace line {}: missing kind", lineno + 1))?;
        match kind {
            "meta" => {
                log.dropped = value
                    .get("dropped")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
            }
            "span" => {
                let s = SpanRecord {
                    id: req_u64(&value, "id", lineno)?,
                    parent: opt_u64(&value, "parent"),
                    name: req_str(&value, "name", lineno)?,
                    thread: req_u64(&value, "thread", lineno)?,
                    start_us: req_u64(&value, "start_us", lineno)?,
                    end_us: req_u64(&value, "end_us", lineno)?,
                    attrs: parse_attrs(&value),
                };
                log.records.push(TraceRecord::Span(s));
            }
            "event" => {
                let e = EventRecord {
                    id: req_u64(&value, "id", lineno)?,
                    span: opt_u64(&value, "span"),
                    name: req_str(&value, "name", lineno)?,
                    thread: req_u64(&value, "thread", lineno)?,
                    at_us: req_u64(&value, "at_us", lineno)?,
                    attrs: parse_attrs(&value),
                };
                log.records.push(TraceRecord::Event(e));
            }
            other => {
                return Err(format!("trace line {}: unknown kind {other:?}", lineno + 1));
            }
        }
    }
    Ok(log)
}

fn req_u64(value: &JsonValue, key: &str, lineno: usize) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("trace line {}: missing integer {key:?}", lineno + 1))
}

fn opt_u64(value: &JsonValue, key: &str) -> Option<u64> {
    value.get(key).and_then(JsonValue::as_u64)
}

fn req_str(value: &JsonValue, key: &str, lineno: usize) -> Result<String, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("trace line {}: missing string {key:?}", lineno + 1))
}

fn parse_attrs(value: &JsonValue) -> Vec<(String, String)> {
    match value.get("attrs") {
        Some(JsonValue::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect(),
        _ => Vec::new(),
    }
}

/// An indexed, validated view over a set of trace records.
#[derive(Debug)]
pub struct TraceTree {
    spans: BTreeMap<u64, SpanRecord>,
    children: BTreeMap<u64, Vec<u64>>,
    roots: Vec<u64>,
    events: Vec<EventRecord>,
}

impl TraceTree {
    /// Indexes `records` and checks structural invariants: unique span
    /// ids, parents that exist and temporally contain their children,
    /// non-negative durations, and events that reference live spans.
    pub fn build(records: &[TraceRecord]) -> Result<TraceTree, String> {
        let mut spans: BTreeMap<u64, SpanRecord> = BTreeMap::new();
        let mut events = Vec::new();
        for record in records {
            match record {
                TraceRecord::Span(s) => {
                    if s.end_us < s.start_us {
                        return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
                    }
                    if spans.insert(s.id, s.clone()).is_some() {
                        return Err(format!("duplicate span id {}", s.id));
                    }
                }
                TraceRecord::Event(e) => events.push(e.clone()),
            }
        }
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots = Vec::new();
        for span in spans.values() {
            match span.parent {
                None => roots.push(span.id),
                Some(parent_id) => {
                    let parent = spans.get(&parent_id).ok_or_else(|| {
                        format!(
                            "span {} ({}) has unknown parent {parent_id}",
                            span.id, span.name
                        )
                    })?;
                    if parent_id >= span.id {
                        return Err(format!(
                            "span {} ({}) has parent {} with a non-smaller id",
                            span.id, span.name, parent_id
                        ));
                    }
                    if span.start_us < parent.start_us || span.end_us > parent.end_us {
                        return Err(format!(
                            "span {} ({}) [{}..{}] escapes parent {} ({}) [{}..{}]",
                            span.id,
                            span.name,
                            span.start_us,
                            span.end_us,
                            parent.id,
                            parent.name,
                            parent.start_us,
                            parent.end_us
                        ));
                    }
                    children.entry(parent_id).or_default().push(span.id);
                }
            }
        }
        for event in &events {
            if let Some(span_id) = event.span {
                if !spans.contains_key(&span_id) {
                    return Err(format!(
                        "event {} ({}) references unknown span {span_id}",
                        event.id, event.name
                    ));
                }
            }
        }
        Ok(TraceTree {
            spans,
            children,
            roots,
            events,
        })
    }

    /// Ids of spans with no parent, ascending.
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// The span with this id.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.get(&id)
    }

    /// Ids of this span's direct children, ascending.
    pub fn children(&self, id: u64) -> &[u64] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All spans named `name`, ascending by id.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.values().filter(|s| s.name == name).collect()
    }

    /// All events named `name`, in record order.
    pub fn events_named(&self, name: &str) -> Vec<&EventRecord> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// All events, in record order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Number of spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut sp = t.span("root");
            sp.attr("k", "v");
            t.event("ev", &[]);
        }
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.current_span_id(), None);
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let t = Tracer::enabled();
        {
            let root = t.span("root");
            let root_id = root.id().unwrap();
            {
                let child = t.span("child");
                assert_eq!(t.current_span_id(), child.id());
                t.event("inside", &[("k", "v")]);
            }
            assert_eq!(t.current_span_id(), Some(root_id));
        }
        let tree = TraceTree::build(&t.records()).unwrap();
        assert_eq!(tree.roots().len(), 1);
        let root = tree.span(tree.roots()[0]).unwrap();
        assert_eq!(root.name, "root");
        let kids = tree.children(root.id);
        assert_eq!(kids.len(), 1);
        assert_eq!(tree.span(kids[0]).unwrap().name, "child");
        let events = tree.events_named("inside");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span, Some(kids[0]));
        assert_eq!(events[0].attr("k"), Some("v"));
    }

    #[test]
    fn span_under_parents_across_threads() {
        let t = Tracer::enabled();
        let root = t.span("root");
        let root_id = root.id();
        let t2 = t.clone();
        std::thread::spawn(move || {
            let mut sp = t2.span_under("remote", root_id);
            sp.attr("where", "worker");
        })
        .join()
        .unwrap();
        drop(root);
        let tree = TraceTree::build(&t.records()).unwrap();
        let remote = tree.spans_named("remote");
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].parent, root_id);
        assert_ne!(
            remote[0].thread,
            tree.spans_named("root")[0].thread,
            "worker span carries its own thread id"
        );
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            let mut sp = t.span("s");
            sp.attr("i", &i.to_string());
        }
        let records = t.records();
        assert_eq!(records.len(), 4);
        assert_eq!(t.dropped(), 6);
        match &records[0] {
            TraceRecord::Span(s) => assert_eq!(s.attr("i"), Some("6")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_records() {
        let t = Tracer::enabled();
        {
            let mut root = t.span("root \"quoted\"\n");
            root.attr("dataset", "gun\tpoint");
            let _child = t.span("child");
            t.event("cell.retry", &[("attempt", "2")]);
        }
        let mut buf = Vec::new();
        t.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let log = parse_jsonl(&text).unwrap();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.records, t.records());
        TraceTree::build(&log.records).unwrap();
    }

    #[test]
    fn tree_rejects_orphans_and_time_travel() {
        let span = |id, parent, start, end| {
            TraceRecord::Span(SpanRecord {
                id,
                parent,
                name: "s".into(),
                thread: 1,
                start_us: start,
                end_us: end,
                attrs: Vec::new(),
            })
        };
        assert!(TraceTree::build(&[span(2, Some(1), 0, 1)])
            .unwrap_err()
            .contains("unknown parent"));
        assert!(TraceTree::build(&[span(1, None, 5, 4)])
            .unwrap_err()
            .contains("ends before"));
        assert!(
            TraceTree::build(&[span(1, None, 0, 10), span(2, Some(1), 5, 20)])
                .unwrap_err()
                .contains("escapes parent")
        );
        let err = TraceTree::build(&[span(1, None, 0, 10), span(1, None, 0, 10)]).unwrap_err();
        assert!(err.contains("duplicate"));
    }
}
