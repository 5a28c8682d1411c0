//! The benchmark's own span recorder, used only in traced runs.
//!
//! Spans wrap calls into the public functions of each layer, from the
//! benchmark's side of the call. Each span keeps its name, start, end,
//! parent and run id (the record or dataset it belongs to); spans stay in
//! memory until [`finish`] drains them. The program's own `wym-obs`
//! recorder stays off throughout.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval covered by its child spans. Children on worker threads may
//! overlap each other, so coverage is the length of the union of their
//! intervals.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub run: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Σ over traced `par` spans of wall time × worker threads.
static PAR_SLOT_NS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Parent for spans opened with an empty stack (set on worker threads).
    static ADOPTED: Cell<Option<u32>> = const { Cell::new(None) };
    static RUN: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(u64::from(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
        }
        t.get()
    })
}

/// Starts recording. Spans opened before this call are not kept.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` under the innermost open span of this thread
/// (or under the span adopted with [`adopt`]). A no-op while recording is
/// off.
pub fn span(name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().or_else(|| ADOPTED.with(Cell::get));
        s.push(id);
        parent
    });
    Some(Span {
        id,
        parent,
        name,
        start_ns: now_ns(),
    })
}

impl Span {
    /// The span's id, for [`adopt`] on worker threads.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            run: RUN.with(Cell::get),
            thread: thread_id(),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(record);
        }
    }
}

/// Times `f` inside a span named `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

/// Makes `parent` the parent of the spans this thread opens with an empty
/// stack: worker threads call it so their spans nest under the caller's.
pub fn adopt(parent: Option<u32>) {
    ADOPTED.with(|a| a.set(parent));
}

/// Sets the run id (record or dataset index) stamped on the spans this
/// thread closes from now on.
pub fn set_run(run: u64) {
    RUN.with(|r| r.set(run));
}

/// `wym_par::map_indexed` inside a `par` span, with the workers' spans
/// nested under it.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let span = span("par");
    let parent = span.as_ref().map(Span::id);
    let t0 = Instant::now();
    let out = wym_par::map_indexed(items, threads, |i, item| {
        adopt(parent);
        f(i, item)
    });
    if span.is_some() {
        let resolved = wym_par::resolve_threads(threads);
        let width = if resolved <= 1 || items.len() < 2 {
            1
        } else {
            resolved.min(items.len())
        };
        let slots = t0.elapsed().as_nanos() as u64 * width as u64;
        PAR_SLOT_NS.fetch_add(slots, Ordering::Relaxed);
    }
    out
}

/// Σ over traced `par` spans of wall seconds × worker threads: the
/// capacity that `par.efficiency` divides the workers' busy time by.
pub fn par_slots_s() -> f64 {
    PAR_SLOT_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Stops recording and hands back every recorded span, ordered by id.
pub fn finish() -> Vec<SpanRecord> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Per-name totals of a finished trace.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// Σ self time in seconds, by span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Σ duration in seconds, by span name.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Σ duration in seconds of the direct children of spans, by the
    /// parent's name.
    pub child_s: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn children_of(&self, name: &str) -> f64 {
        self.child_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time and duration of every span, summed by name.
pub fn layer_times(spans: &[SpanRecord]) -> LayerTimes {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = LayerTimes::default();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let kids_ns: u64 = kids.iter().map(|(a, b)| b.saturating_sub(*a)).sum();
        *out.child_s.entry(s.name).or_default() += kids_ns as f64 * 1e-9;
        let self_ns = dur - covered(kids, s.start_ns, s.end_ns);
        *out.self_s.entry(s.name).or_default() += self_ns as f64 * 1e-9;
        *out.total_s.entry(s.name).or_default() += dur as f64 * 1e-9;
    }
    out
}

/// Writes the spans as tab-separated lines: id, parent, name, run, thread,
/// start and end in nanoseconds.
pub fn write_tsv(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::from("id\tparent\tname\trun\tthread\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.name, s.run, s.thread, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(vec![(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered(vec![(0, 200)], 50, 100), 50);
        assert_eq!(covered(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = |id, parent, name, start_ns, end_ns| SpanRecord {
            id,
            parent,
            name,
            run: 0,
            thread: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 10, 40),
            rec(3, Some(1), "b", 30, 60),
            rec(4, Some(2), "c", 10, 20),
        ];
        let t = layer_times(&spans);
        assert!((t.self_of("root") - 50e-9).abs() < 1e-15);
        assert!((t.self_of("a") - 20e-9).abs() < 1e-15);
        assert!((t.total_of("b") - 30e-9).abs() < 1e-15);
    }
}
