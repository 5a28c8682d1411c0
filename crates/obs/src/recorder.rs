//! The recorder: thread-safe aggregation of spans and metrics.
//!
//! All state lives behind one mutex, keyed by `BTreeMap` so snapshots come
//! out in a deterministic order. Instrumentation points only take the lock
//! when recording is enabled — the disabled fast path is a single relaxed
//! atomic load (see the crate docs). Lock traffic while enabled is one
//! uncontended acquisition per *record-level* event (a span close, a
//! counter add), not per token or per matrix element: hot loops aggregate
//! locally and report once.

use crate::hist::{default_bounds, Histogram};
use crate::prof::MemStat;
use crate::window::Windowed;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Full `/`-separated path (`fit/discover/pair`).
    pub path: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Shortest single entry, in nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, in nanoseconds.
    pub max_ns: u64,
    /// Allocator activity charged to this span's own extent (children
    /// excluded — they charge their own cells). Present only when memory
    /// profiling was on; counts/bytes sum across entries, the peak takes
    /// the max.
    pub mem: Option<MemStat>,
}

impl SpanStat {
    /// Mean nanoseconds per entry (0 when never entered).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Depth in the span tree (number of `/` separators).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Last path segment (the span's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

#[derive(Default)]
struct State {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    stages: BTreeSet<String>,
    /// Windowed-metrics ring; `None` until [`Recorder::enable_windows`].
    /// Lives under the same lock as the lifetime aggregates so a counter
    /// increment and its window copy are atomic together.
    windows: Option<Windowed>,
}

/// A thread-safe span/metric aggregator. Most code uses the process-global
/// recorder through the crate-level free functions; tests and embedders can
/// hold their own.
pub struct Recorder {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Recorder {
        Recorder { enabled: AtomicBool::new(false), state: Mutex::new(State::default()) }
    }

    /// A recorder that starts enabled (test convenience).
    pub fn new_enabled() -> Recorder {
        let r = Recorder::new();
        r.set_enabled(true);
        r
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned lock only means a panic while holding it; the counters
        // themselves are still coherent, so keep going.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one closed span into the aggregate for `path`.
    pub fn record_span(&self, path: &str, ns: u64) {
        self.record_span_mem(path, ns, None);
    }

    /// Folds one closed span with its memory charge into the aggregate for
    /// `path`. `mem` is `None` when profiling was off for this entry.
    pub fn record_span_mem(&self, path: &str, ns: u64, mem: Option<MemStat>) {
        let mut st = self.lock();
        let stat = st.spans.entry(path.to_string()).or_insert_with(|| SpanStat {
            path: path.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            mem: None,
        });
        stat.count += 1;
        stat.total_ns += ns;
        stat.min_ns = stat.min_ns.min(ns);
        stat.max_ns = stat.max_ns.max(ns);
        if let Some(m) = mem {
            stat.mem.get_or_insert_with(MemStat::default).merge(&m);
        }
    }

    /// Adds `n` to counter `name` (and to the current window frame when
    /// windowed metrics are enabled).
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut st = self.lock();
        *st.counters.entry(name.to_string()).or_insert(0) += n;
        if let Some(w) = st.windows.as_mut() {
            w.counter_add(name, n);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.lock().gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name`; `bounds` applies only when the
    /// histogram is created by this call (`None` = default bounds).
    pub fn hist_observe(&self, name: &str, bounds: Option<&[f64]>, v: f64) {
        let mut st = self.lock();
        let windows_on = st.windows.is_some();
        let h = st.hists.entry(name.to_string()).or_insert_with(|| match bounds {
            Some(b) => Histogram::new(b),
            None => Histogram::new(&default_bounds()),
        });
        h.observe(v);
        // Reuse the lifetime histogram's boundaries in the window copy so
        // the same name never ends up bucketed two ways (which would make
        // window merges panic).
        let lifetime_bounds = windows_on.then(|| h.bounds().to_vec());
        if let (Some(w), Some(b)) = (st.windows.as_mut(), lifetime_bounds) {
            w.hist_observe(name, Some(&b), v);
        }
    }

    /// Turns on windowed metrics with a ring of `capacity` frames,
    /// replacing any existing ring. Works while recording is disabled, like
    /// stage registration.
    pub fn enable_windows(&self, capacity: usize) {
        self.lock().windows = Some(Windowed::new(capacity));
    }

    /// Seals the current window frame and opens the next (no-op until
    /// [`Recorder::enable_windows`]).
    pub fn advance_window(&self) {
        if let Some(w) = self.lock().windows.as_mut() {
            w.advance();
        }
    }

    /// Registers a pipeline stage (see [`crate::register_stage`]).
    pub fn register_stage(&self, name: &str) {
        self.lock().stages.insert(name.to_string());
    }

    /// A deterministic snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let st = self.lock();
        let spans: Vec<SpanStat> = st.spans.values().cloned().collect();
        let stages = st
            .stages
            .iter()
            .map(|stage| {
                let count = spans
                    .iter()
                    .filter(|s| s.path.split('/').any(|seg| seg == stage))
                    .map(|s| s.count)
                    .sum();
                (stage.clone(), count)
            })
            .collect();
        Snapshot {
            spans,
            counters: st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: st.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            stages,
            memory: None,
            windows: st.windows.clone(),
        }
    }

    /// Drops all recorded spans and metrics; keeps the stage registry and
    /// the enabled flag. An enabled window ring restarts empty at the same
    /// capacity.
    pub fn reset(&self) {
        let mut st = self.lock();
        st.spans.clear();
        st.counters.clear();
        st.gauges.clear();
        st.hists.clear();
        if let Some(w) = st.windows.as_mut() {
            *w = Windowed::new(w.capacity());
        }
    }
}

/// Process-level memory numbers attached to a snapshot when profiling is
/// on: everything the per-span cells could not attribute, plus the global
/// live-byte track.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemorySection {
    /// Allocator activity outside any span (the `(unattributed)` root).
    pub unattributed: MemStat,
    /// Live heap bytes (allocated minus freed) since profiling was enabled.
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: i64,
}

/// A point-in-time copy of a recorder's aggregates, ordered by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Registered pipeline stages with their span counts — a stage's count
    /// is the summed count of every span whose path contains the stage name
    /// as a segment; 0 flags a stage that never ran.
    pub stages: Vec<(String, u64)>,
    /// Process-level memory numbers; `None` when profiling was off.
    pub memory: Option<MemorySection>,
    /// Windowed-metrics ring; `None` unless windows were enabled.
    pub windows: Option<Windowed>,
}

impl Snapshot {
    /// Value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Entry count of the span at exactly `path` (0 when absent).
    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.iter().find(|s| s.path == path).map_or(0, |s| s.count)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// The snapshot as a JSON tree — the schema of `results/OBS_*.json`:
    /// `spans` (array), `counters` / `gauges` (objects), `histograms`
    /// (objects with `bounds` / `counts` / stats), `stages` (object,
    /// zero-valued for registered-but-never-run stages), and — when memory
    /// profiling was on — per-span `mem` objects plus a top-level `memory`
    /// section. Version-2 files written by [`crate::JsonFileSink`] prefix
    /// all of this with a `manifest` header (see [`crate::Manifest`]);
    /// version-1 files have neither manifest nor memory keys, and
    /// [`Snapshot::from_json`] accepts both.
    pub fn to_json(&self) -> Value {
        let spans = Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("path", s.path.to_value()),
                        ("count", s.count.to_value()),
                        ("total_ns", s.total_ns.to_value()),
                        ("mean_ns", s.mean_ns().to_value()),
                        ("min_ns", s.min_ns.to_value()),
                        ("max_ns", s.max_ns.to_value()),
                    ];
                    if let Some(m) = &s.mem {
                        fields.push(("mem", mem_to_json(m)));
                    }
                    Value::object(fields)
                })
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json_with_stats())).collect(),
        );
        let mut sections = vec![
            ("spans", spans),
            ("counters", named(&self.counters)),
            ("gauges", named(&self.gauges)),
            ("histograms", histograms),
            ("stages", named(&self.stages)),
        ];
        if let Some(mem) = &self.memory {
            sections.push((
                "memory",
                Value::object([
                    ("unattributed", mem_to_json(&mem.unattributed)),
                    ("live_bytes", mem.live_bytes.to_value()),
                    ("peak_live_bytes", mem.peak_live_bytes.to_value()),
                ]),
            ));
        }
        if let Some(w) = &self.windows {
            // Additive optional section, like `memory`: readers that
            // predate windows ignore it, so the file schema version stays
            // put (the same tolerance the artifact container grants
            // unknown sections).
            sections.push(("windows", w.to_json()));
        }
        Value::object(sections)
    }

    /// Parses a snapshot back out of its [`Snapshot::to_json`] form (the
    /// body of an `OBS_*.json` file, with or without a `manifest` header).
    /// Tolerant of version-1 files: missing `memory` keys and span `mem`
    /// objects simply come back as `None`, and unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<Snapshot, String> {
        if !matches!(v, Value::Object(_)) {
            return Err("snapshot JSON must be an object".to_string());
        }
        let mut snap = Snapshot::default();
        if let Some(Value::Array(spans)) = v.get("spans") {
            for s in spans {
                snap.spans.push(span_from_json(s)?);
            }
        }
        if let Some(Value::Object(counters)) = v.get("counters") {
            for (k, v) in counters {
                snap.counters.push((k.clone(), v.as_u64().ok_or("bad counter value")?));
            }
        }
        if let Some(Value::Object(gauges)) = v.get("gauges") {
            for (k, v) in gauges {
                snap.gauges.push((k.clone(), v.as_f64().ok_or("bad gauge value")?));
            }
        }
        if let Some(Value::Object(hists)) = v.get("histograms") {
            for (k, v) in hists {
                snap.histograms.push((k.clone(), Histogram::from_json(v)?));
            }
        }
        if let Some(Value::Object(stages)) = v.get("stages") {
            for (k, v) in stages {
                snap.stages.push((k.clone(), v.as_u64().ok_or("bad stage count")?));
            }
        }
        if let Some(mem @ Value::Object(_)) = v.get("memory") {
            let int = |name: &str| mem.get(name).and_then(Value::as_i64).unwrap_or(0);
            snap.memory = Some(MemorySection {
                unattributed: mem
                    .get("unattributed")
                    .map(mem_from_json)
                    .transpose()?
                    .unwrap_or_default(),
                live_bytes: int("live_bytes"),
                peak_live_bytes: int("peak_live_bytes"),
            });
        }
        if let Some(w) = v.get("windows") {
            snap.windows = Some(Windowed::from_json(w)?);
        }
        Ok(snap)
    }

    /// Human-readable rendering: an indented span tree followed by metric
    /// tables. This is what [`crate::sink::StderrSink`] prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("── spans ─────────────────────────────────────────────\n");
        if self.spans.is_empty() {
            out.push_str("(none)\n");
        }
        for s in &self.spans {
            let indent = "  ".repeat(s.depth());
            let label = format!("{indent}{}", s.name());
            let mem = s
                .mem
                .as_ref()
                .map(|m| {
                    format!("  [{} allocs, {} self]", m.allocs, fmt_bytes(m.alloc_bytes))
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "{label:<34} {:>8} × {:>10}  (total {}){mem}\n",
                s.count,
                fmt_ns(s.mean_ns()),
                fmt_ns(s.total_ns)
            ));
        }
        if let Some(mem) = &self.memory {
            out.push_str("── memory ────────────────────────────────────────────\n");
            out.push_str(&format!(
                "{:<34} {:>8} allocs, {} ({} freed)\n",
                crate::prof::UNATTRIBUTED_NAME,
                mem.unattributed.allocs,
                fmt_bytes(mem.unattributed.alloc_bytes),
                fmt_bytes(mem.unattributed.free_bytes),
            ));
            out.push_str(&format!(
                "live {} / peak {}\n",
                fmt_bytes(mem.live_bytes.max(0) as u64),
                fmt_bytes(mem.peak_live_bytes.max(0) as u64),
            ));
        }
        if !self.stages.is_empty() {
            out.push_str("── stages ────────────────────────────────────────────\n");
            for (stage, count) in &self.stages {
                let marker = if *count == 0 { "  ⚠ zero spans" } else { "" };
                out.push_str(&format!("{stage:<34} {count:>8}{marker}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ──────────────────────────────────────────\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<34} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("── gauges ────────────────────────────────────────────\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<34} {v:>12.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("── histograms ────────────────────────────────────────\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{name:<34} n={} mean={:.4} min={:.4} max={:.4}\n",
                    h.count(),
                    h.mean(),
                    if h.count() == 0 { 0.0 } else { h.min() },
                    if h.count() == 0 { 0.0 } else { h.max() },
                ));
            }
        }
        out
    }
}

/// Name-sorted `(name, value)` pairs as a JSON object.
fn named<T: Serialize>(pairs: &[(String, T)]) -> Value {
    Value::Object(pairs.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
}

/// A [`MemStat`] as the JSON object stored under a span's `mem` key.
fn mem_to_json(m: &MemStat) -> Value {
    Value::object([
        ("allocs", m.allocs.to_value()),
        ("frees", m.frees.to_value()),
        ("alloc_bytes", m.alloc_bytes.to_value()),
        ("free_bytes", m.free_bytes.to_value()),
        ("peak_net_bytes", m.peak_net_bytes.to_value()),
    ])
}

fn mem_from_json(v: &Value) -> Result<MemStat, String> {
    if !matches!(v, Value::Object(_)) {
        return Err("mem must be an object".to_string());
    }
    let uint = |name: &str| v.get(name).and_then(Value::as_u64).unwrap_or(0);
    Ok(MemStat {
        allocs: uint("allocs"),
        frees: uint("frees"),
        alloc_bytes: uint("alloc_bytes"),
        free_bytes: uint("free_bytes"),
        peak_net_bytes: v.get("peak_net_bytes").and_then(Value::as_i64).unwrap_or(0),
    })
}

fn span_from_json(v: &Value) -> Result<SpanStat, String> {
    let Some(path) = v.get("path").and_then(Value::as_str) else {
        return Err("span is missing its path".to_string());
    };
    let uint = |name: &str| v.get(name).and_then(Value::as_u64);
    Ok(SpanStat {
        path: path.to_string(),
        count: uint("count").ok_or("span missing count")?,
        total_ns: uint("total_ns").unwrap_or(0),
        min_ns: uint("min_ns").unwrap_or(0),
        max_ns: uint("max_ns").unwrap_or(0),
        mem: v.get("mem").map(mem_from_json).transpose()?,
    })
}

/// Pretty-prints nanoseconds at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Pretty-prints a byte count at a human scale.
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_aggregation_tracks_count_total_min_max() {
        let r = Recorder::new_enabled();
        r.record_span("a/b", 10);
        r.record_span("a/b", 30);
        let snap = r.snapshot();
        let s = &snap.spans[0];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 40, 10, 30));
        assert_eq!(s.mean_ns(), 20);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.name(), "b");
    }

    #[test]
    fn snapshot_orders_by_name() {
        let r = Recorder::new_enabled();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.record_span("beta", 1);
        r.record_span("alpha", 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "a");
        assert_eq!(snap.spans[0].path, "alpha");
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let r = Recorder::new_enabled();
        r.register_stage("pair");
        r.record_span("fit/pair", 5);
        r.counter_add("c", 1);
        r.gauge_set("g", 0.5);
        r.hist_observe("h", None, 1.0);
        let json = serde_json::to_string_pretty(&r.snapshot().to_json()).unwrap();
        for key in ["\"spans\"", "\"counters\"", "\"gauges\"", "\"histograms\"", "\"stages\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"pair\": 1"));
    }

    #[test]
    fn text_rendering_flags_zero_span_stages() {
        let r = Recorder::new_enabled();
        r.register_stage("explain");
        let text = r.snapshot().render_text();
        assert!(text.contains("zero spans"), "{text}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
