//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions — never inside the library crates. Each span keeps
//! its name, start, end, parent and the run id; all of them stay in
//! memory until [`write_jsonl`] dumps them when the run ends. Recording
//! is off unless [`set_enabled`] turns it on, so untraced runs pay one
//! relaxed atomic load per would-be span.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id within the run (from 1).
    pub id: u64,
    /// The span that was open when this one started, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, such as `hpc.measure`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    if on {
        tracer();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread, if any.
pub fn current() -> Option<u64> {
    CURRENT.with(Cell::get)
}

/// An open span; records itself when dropped.
#[must_use = "a span times the scope it is bound to"]
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    restore: Option<u64>,
    // A span ends on the thread that opened it: the parent stack is
    // thread-local.
    _not_send: PhantomData<*const ()>,
}

impl Guard {
    /// This span's id, for children opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        let t = tracer();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start.duration_since(t.origin).as_nanos() as u64,
            end_ns: end.duration_since(t.origin).as_nanos() as u64,
        };
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(rec);
        }
        CURRENT.with(|c| c.set(self.restore));
    }
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &'static str) -> Option<Guard> {
    span_under(name, None)
}

/// Opens a span under this thread's innermost open span, or under
/// `fallback` when none is open — the way a worker thread attaches its
/// spans to the span that spawned its work.
pub fn span_under(name: &'static str, fallback: Option<u64>) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let restore = current();
    CURRENT.with(|c| c.set(Some(id)));
    Some(Guard {
        id,
        parent: restore.or(fallback),
        name,
        start: Instant::now(),
        restore,
        _not_send: PhantomData,
    })
}

/// Records a span that does not nest on one thread — such as a job
/// that is in flight between a write and a read while others are too.
pub fn record(name: &'static str, parent: Option<u64>, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let t = tracer();
    let rec = SpanRec {
        id: t.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns: start.saturating_duration_since(t.origin).as_nanos() as u64,
        end_ns: end.saturating_duration_since(t.origin).as_nanos() as u64,
    };
    if let Ok(mut spans) = t.spans.lock() {
        spans.push(rec);
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<SpanRec> {
    tracer().spans.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Per-name totals: `(count, total_ns, self_ns)`, where a span's self
/// time is its duration minus the part of it its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes the run's spans — the benchmark's own and any picked up from
/// the library's recorder — as one JSON object per line.
pub fn write_jsonl(
    path: &Path,
    run_id: &str,
    spans: &[SpanRec],
    library: &[scnn_obs::SpanRecord],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"source\":\"bench\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    for s in library {
        writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"source\":\"scnn-obs\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.start_ns + s.duration_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover [10, 70).
        let spans = [
            rec(1, None, "campaign", 0, 100),
            rec(2, Some(1), "measure", 10, 60),
            rec(3, Some(1), "measure", 20, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["campaign"], (1, 100, 40));
        assert_eq!(t["measure"], (2, 100, 100));
    }
}
