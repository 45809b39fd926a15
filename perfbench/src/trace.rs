//! Spans recorded in the benchmark's own memory around each call it
//! makes into a layer's public function, plus per-thread CPU samples at
//! phase boundaries. The untraced run keeps a disabled tracer, whose
//! calls return at once; the traced run writes everything as JSONL at
//! exit and reports each span name's count, total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use crate::measure::{thread_cpu, ThreadCpu};

/// Handle of a recorded span; `NONE` is the root (and every handle of a
/// disabled tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    session: u64,
}

/// Per-thread CPU sampled at a named phase boundary.
pub struct CpuSample {
    pub label: &'static str,
    pub at_ns: u64,
    pub threads: ThreadCpu,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cpu: Vec<CpuSample>,
}

/// Count, total and self time of every span with one name.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cpu: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: SpanId, session: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.push(name, parent, session, start_ns, start_ns)
    }

    pub fn close(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id.0 as usize - 1].end_ns = end_ns;
    }

    /// Records a finished call whose bounds the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        session: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, parent, session, s, e);
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        session: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, session);
        let out = f();
        self.close(id);
        out
    }

    fn push(&mut self, name: &'static str, parent: SpanId, session: u64, s: u64, e: u64) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            session,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Samples every thread's CPU time at a phase boundary.
    pub fn cpu_sample(&mut self, label: &'static str) {
        if self.on {
            let at_ns = self.ns(Instant::now());
            self.cpu.push(CpuSample {
                label,
                at_ns,
                threads: thread_cpu(),
            });
        }
    }

    /// The last CPU sample taken under `label`.
    pub fn cpu_at(&self, label: &str) -> Option<&CpuSample> {
        self.cpu.iter().rev().find(|s| s.label == label)
    }

    /// Per span name: count, total time and self time (span time minus
    /// the part of it that its child spans cover).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent.0 as usize].push((s.start_ns, s.end_ns));
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &mut children[i + 1];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            let entry = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            entry.count += 1;
            entry.total_s += total as f64 / 1e9;
            entry.self_s += total.saturating_sub(covered) as f64 / 1e9;
        }
        by_name.into_values().collect()
    }

    /// Writes every span and CPU sample as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = writeln!(
                line,
                r#"{{"kind":"span","id":{},"parent":{},"name":"{}","session":{},"start_ns":{},"end_ns":{}}}"#,
                i + 1,
                s.parent.0,
                s.name,
                s.session,
                s.start_ns,
                s.end_ns
            );
            out.write_all(line.as_bytes())?;
        }
        for sample in &self.cpu {
            for (tid, (name, ns)) in &sample.threads {
                line.clear();
                let _ = writeln!(
                    line,
                    r#"{{"kind":"cpu","phase":"{}","at_ns":{},"tid":{tid},"thread":"{}","cpu_ns":{ns}}}"#,
                    sample.label,
                    sample.at_ns,
                    name.replace(['"', '\\'], "_")
                );
                out.write_all(line.as_bytes())?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        let base = t.epoch;
        let at = |us: u64| base + std::time::Duration::from_micros(us);
        let parent = t.push("phase", SpanId::NONE, 0, 0, 100_000);
        t.record("push", parent, 1, at(10), at(30));
        t.record("push", parent, 2, at(20), at(40)); // overlaps the first
        t.record("push", parent, 3, at(50), at(60));
        let times = t.self_times();
        let phase = times.iter().find(|s| s.name == "phase").unwrap();
        let push = times.iter().find(|s| s.name == "push").unwrap();
        assert_eq!(push.count, 3);
        assert!((push.total_s - 50e-6).abs() < 1e-12);
        assert!((phase.self_s - 60e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", SpanId::NONE, 0);
        t.close(id);
        assert_eq!(t.time("y", id, 0, || 7), 7);
        assert!(t.self_times().is_empty());
    }
}
