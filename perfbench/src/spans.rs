//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span has a name whose prefix before the first `.` is its layer (the
//! crate it calls into, e.g. `core.fit`), a start and end on one
//! monotonic clock, the span that caused it, and the id of the operation
//! it belongs to (one trace's evaluation, one served request). Spans are
//! kept in memory and written out once, when the run ends. With tracing
//! off every call runs the closure directly and records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::measure::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, or 0 for a root.
    pub parent: u64,
    /// The operation this span belongs to.
    pub op: u64,
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span attaches: its parent span and operation.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: u64,
    op: u64,
}

impl Tracer {
    /// A recorder; when `enabled` is false it records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A root context (no parent) for a new operation.
    pub fn root(&self) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: 0,
            op: self.next_op.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Nanoseconds since the tracer was made (every span's clock).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Removes and returns every span recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.lock());
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }
}

impl<'a> Ctx<'a> {
    /// The same parent, but a fresh operation id (one per fan-out task).
    pub fn new_op(&self) -> Ctx<'a> {
        Ctx {
            op: self.tracer.next_op.fetch_add(1, Ordering::Relaxed),
            ..*self
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the context its own
    /// child spans attach to.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> T) -> T {
        if !self.tracer.enabled {
            return f(*self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.elapsed_ns();
        let out = f(Ctx {
            tracer: self.tracer,
            parent: id,
            op: self.op,
        });
        let span = Span {
            id,
            parent: self.parent,
            op: self.op,
            name,
            start_ns,
            end_ns: self.tracer.elapsed_ns(),
        };
        self.tracer.lock().push(span);
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Nanoseconds of `[0, end_ns)` that some root span (one without a
/// parent) covers.
pub fn root_coverage_ns(spans: &[Span], end_ns: u64) -> u64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered(roots, 0, end_ns)
}

/// Per-name and per-layer totals over a set of spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Total duration of each span name, seconds.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Number of spans of each name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Self time of each layer, seconds: each span's duration minus the
    /// part of it its children cover.
    pub self_by_layer: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Summarizes `spans`.
    pub fn of(spans: &[Span]) -> Self {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = Summary::default();
        for s in spans {
            *out.by_name.entry(s.name).or_default() += s.secs();
            *out.counts.entry(s.name).or_default() += 1;
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            let busy = covered(kids, s.start_ns, s.end_ns);
            *out.self_by_layer.entry(s.layer()).or_default() +=
                (s.end_ns - s.start_ns - busy) as f64 * 1e-9;
        }
        out
    }

    /// Total seconds of spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Writes `spans` as one JSON object per line, after a header line
/// holding `header`.
pub fn write_spans(path: &std::path::Path, header: &Json, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", header.render())?;
    for s in spans {
        let line = Json::obj()
            .with("id", Json::Int(s.id))
            .with("parent", Json::Int(s.parent))
            .with("op", Json::Int(s.op))
            .with("name", Json::Str(s.name.to_string()))
            .with("start_ns", Json::Int(s.start_ns))
            .with("end_ns", Json::Int(s.end_ns));
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns, name| Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        };
        // Parent 0..100 with overlapping children 10..40 and 30..60.
        let spans = [
            span(1, 0, 0, 100, "bench.pass"),
            span(2, 1, 10, 40, "core.fit"),
            span(3, 1, 30, 60, "core.fit"),
        ];
        let summary = Summary::of(&spans);
        assert!((summary.self_by_layer["bench"] - 50e-9).abs() < 1e-15);
        assert!((summary.self_by_layer["core"] - 60e-9).abs() < 1e-15);
        assert_eq!(summary.count("core.fit"), 2);
    }

    #[test]
    fn root_coverage_counts_roots_only_up_to_the_end() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 1,
            name: "bench.check",
            start_ns,
            end_ns,
        };
        // Roots 10..30 and 20..50 overlap; the child 60..70 is not a root;
        // the root 90..120 is clipped at the end, 100.
        let spans = [
            span(1, 0, 10, 30),
            span(2, 0, 20, 50),
            span(3, 2, 60, 70),
            span(4, 0, 90, 120),
        ];
        assert_eq!(root_coverage_ns(&spans, 100), 40 + 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer
            .root()
            .span("core.fit", |c| c.span("dram.replay", |_| 7));
        assert_eq!(v, 7);
        assert!(tracer.take().is_empty());
    }
}
