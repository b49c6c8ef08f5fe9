//! The benchmark's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer:
//! name, start, end, parent span, and the id of the operation (one synth
//! pass, one exploration, one stream, one served request) they belong to.
//! They are kept in memory and written when the run ends, as JSON lines
//! and as Chrome trace-event JSON (which Perfetto and chrome://tracing
//! open directly). A disabled tracer reads no clock and records nothing.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The operation this span belongs to; shared by all its spans.
    pub op: u64,
    /// Layer name (`"dfg.parse"`, `"ilp.solve"`, …) or operation name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Small per-thread index, for the Chrome export.
    pub thread: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: its operation and parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Operation id.
    pub op: u64,
    /// Parent span id (`None` for an operation's root span).
    pub parent: Option<u64>,
}

/// The in-memory span store.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    THREAD_INDEX.with(|cell| {
        if cell.get() == 0 {
            // relaxed-ok: a label counter; no other memory is published
            // through it.
            cell.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    })
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing at all.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new operation: a fresh operation id with no parent.
    pub fn op(&self) -> Ctx {
        Ctx {
            op: if self.enabled {
                // relaxed-ok: an id counter; no other memory is published
                // through it.
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context its own child spans should use.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(ctx);
        }
        // relaxed-ok: as in `op`.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(Ctx {
            op: ctx.op,
            parent: Some(id),
        });
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name,
            start_ns: u64::try_from(start.as_nanos()).unwrap_or(u64::MAX),
            end_ns: u64::try_from(end.as_nanos()).unwrap_or(u64::MAX),
            thread: thread_index(),
        };
        self.spans.lock().expect("span store").push(span);
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of their intervals, so concurrent
/// children are not counted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"thread\":{}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0),
            s.thread
        );
    }
    out
}

/// The spans as a Chrome trace-event document (complete `X` events,
/// microsecond timestamps).
pub fn to_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"sparcs\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.op
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50), // overlaps child 2
            span(4, Some(2), 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn spans_nest_under_their_operation() {
        let tracer = Tracer::new(true);
        let op = tracer.op();
        tracer.span(op, "outer", |ctx| tracer.span(ctx, "inner", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.op, outer.op);
        assert!(to_chrome(&spans).starts_with("{\"traceEvents\":["));
        assert_eq!(to_json_lines(&spans).lines().count(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let op = tracer.op();
        assert_eq!(tracer.span(op, "x", |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
