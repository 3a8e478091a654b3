//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the crates is
//! instrumented. Each span keeps its name, start, end, parent span,
//! operation id and recording thread. At the end of a traced run the
//! spans are written as Chrome trace-event JSON (loads in Perfetto or
//! `about:tracing`) and folded into per-layer self times.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// A small per-thread id, so the trace viewer gets one lane per thread.
fn thread_id() -> u32 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// The root scope of operation `op`: spans opened from it have no
    /// parent.
    pub fn op(&self, op: u64) -> Scope<'_> {
        Scope {
            tracer: self,
            parent: None,
            op,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes the spans as Chrome trace-event JSON (complete `X`
    /// events, microsecond timestamps, one lane per thread).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                parent,
                s.op,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Where new spans attach: a tracer, the enclosing span and the
/// operation they belong to. `Copy` and `Sync`, so worker threads can
/// open child spans of a span their parent thread holds open.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'t> {
    tracer: &'t Tracer,
    parent: Option<u64>,
    op: u64,
}

impl<'t> Scope<'t> {
    /// Runs `f` inside a span named `name`; `f` gets the span's scope
    /// for opening children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Scope<'t>) -> T) -> T {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(Scope {
            tracer: self.tracer,
            parent: Some(id),
            op: self.op,
        });
        let end_ns = self.tracer.now_ns();
        self.tracer
            .spans
            .lock()
            .expect("span list lock")
            .push(Span {
                id,
                parent: self.parent,
                op: self.op,
                name,
                start_ns,
                end_ns,
                tid: thread_id(),
            });
        out
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per span name and operation, in seconds: each span's
/// duration minus the part of it its child spans cover. Children run on
/// worker threads may overlap each other; their union is subtracted
/// once.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<(u64, &'static str), f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<(u64, &'static str), f64> = BTreeMap::new();
    for s in spans {
        let covered_ns = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        *out.entry((s.op, s.name)).or_default() += (s.duration_ns() - covered_ns) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 7,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
            tid: 1,
        };
        // Root 0..100 with children 10..40 and 30..60 (overlapping, as
        // two workers would be) and 80..90.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 80, 90),
        ];
        let ns = |name| (self_seconds(&spans)[&(7, name)] * 1e9).round();
        assert_eq!(ns("root"), 40.0);
        assert_eq!(ns("child"), 70.0);
    }

    #[test]
    fn nested_scopes_record_parents_and_threads() {
        let tracer = Tracer::default();
        tracer.op(3).span("outer", |s| {
            s.span("inner", |_| ());
            std::thread::scope(|t| {
                t.spawn(|| s.span("worker", |_| ()));
            });
        });
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert!(outer.parent.is_none());
        for name in ["inner", "worker"] {
            let child = spans.iter().find(|s| s.name == name).expect("child");
            assert_eq!(child.parent, Some(outer.id));
            assert_eq!(child.op, 3);
        }
        let worker = spans.iter().find(|s| s.name == "worker").expect("worker");
        assert_ne!(worker.tid, outer.tid);
    }
}
