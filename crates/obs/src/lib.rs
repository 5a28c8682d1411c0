//! `wym-obs` — observability substrate for the WYM pipeline.
//!
//! The paper's claim is interpretability of *decisions*; this crate is the
//! operational counterpart — interpretability of the *system*. It provides
//! three primitives:
//!
//! 1. **Spans** ([`span`]) — hierarchical wall-clock regions with
//!    nanosecond timing. A span's path is its name prefixed by the names of
//!    the spans open on the current thread (`fit/discover/pair`). Paths
//!    cross thread boundaries through [`capture`] / [`in_context`], which
//!    `wym-par` workers use so their spans aggregate under the logical
//!    parent instead of becoming orphan roots.
//! 2. **Metrics** — monotonically increasing counters ([`counter_add`]),
//!    last-value gauges ([`gauge_set`]), and fixed-bucket histograms
//!    ([`hist_observe`] / [`hist_observe_with`], see [`Histogram`] for the
//!    bucket-boundary contract).
//! 3. **Sinks** ([`sink`]) — a human-readable stderr summary and a
//!    machine-readable JSON file export. Recording itself
//!    is off by default: every instrumentation point first checks
//!    [`enabled`], so an un-traced run pays one thread-local read plus one
//!    relaxed atomic load per call site and allocates nothing.
//!
//! Recording goes to the *active* [`Recorder`]: a thread-local override
//! installed by [`with_recorder`] (used by tests to isolate themselves from
//! concurrently running instrumented code), falling back to a process-wide
//! global. Aggregation is deterministic in totals — span counts, counter
//! values, and histogram bucket counts are identical for any thread count —
//! while nanosecond totals naturally vary run to run.
//!
//! Every JSON document the crate writes or reads — snapshots, manifests,
//! drift sketches, audit records, Chrome traces — is a vendored
//! [`serde::Value`] tree printed and parsed by the vendored `serde_json`,
//! the same codec the rest of the workspace uses. The crate depends on
//! nothing else.

pub mod audit;
pub mod chrome;
pub mod diff;
pub mod export;
pub mod flame;
pub mod hist;
pub mod manifest;
pub mod prof;
pub mod recorder;
pub mod ring;
pub mod sink;
pub mod sketch;
pub mod window;

pub use audit::{AuditLog, AuditOptions, DecisionCost, DecisionRecord};
pub use export::prometheus_text;
pub use hist::Histogram;
pub use manifest::Manifest;
pub use prof::{MemStat, TrackingAlloc};
pub use recorder::{MemorySection, Recorder, Snapshot, SpanStat};
pub use ring::{Flight, FlightDump};
pub use sink::{pretty_json, JsonFileSink, StderrSink};
pub use sketch::{DriftReport, ModelSketch, DRIFT_TRIP_PSI};
pub use window::{WindowFrame, Windowed};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// The process-wide default recorder (disabled until [`set_enabled`]).
pub fn global() -> &'static Arc<Recorder> {
    static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Recorder::new()))
}

thread_local! {
    /// Per-thread recorder override (tests, propagated worker contexts).
    static LOCAL: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Names of the spans currently open on this thread, root first.
    static PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The recorder instrumentation points write to on this thread, if it is
/// enabled; `None` otherwise. This is the common fast-path gate: one
/// thread-local read plus one relaxed atomic load.
fn active() -> Option<Arc<Recorder>> {
    LOCAL.with(|l| {
        let local = l.borrow();
        let rec = local.as_ref().unwrap_or_else(|| global());
        if rec.is_enabled() {
            Some(Arc::clone(rec))
        } else {
            None
        }
    })
}

/// Whether the active recorder is currently recording.
pub fn enabled() -> bool {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).is_enabled()
    })
}

/// Turns the active recorder on or off.
pub fn set_enabled(on: bool) {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).set_enabled(on);
    });
}

/// Runs `f` with `rec` as this thread's recorder (restored afterwards, even
/// on panic). Lets tests record into a private recorder while unrelated
/// instrumented code on other threads keeps hitting the (disabled) global.
pub fn with_recorder<R>(rec: Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    let _restore = install(Some(rec));
    f()
}

/// A snapshot of this thread's observability context: active recorder
/// override, open span path, and (when memory profiling is on) the span's
/// memory charge target. Hand it to worker threads via [`in_context`] so
/// their spans, metrics, and allocations land under the logical parent.
#[derive(Clone)]
pub struct ObsContext {
    rec: Option<Arc<Recorder>>,
    path: Vec<String>,
    mem: Option<Arc<prof::MemCell>>,
    audit: Option<Arc<AuditLog>>,
    flight: Option<Arc<Flight>>,
}

/// Captures the current thread's recorder override, span path, memory
/// charge target, audit-log override, and flight-recorder override.
pub fn capture() -> ObsContext {
    ObsContext {
        rec: LOCAL.with(|l| l.borrow().clone()),
        path: PATH.with(|p| p.borrow().clone()),
        mem: prof::current_arc(),
        audit: audit::capture_local(),
        flight: ring::capture_local(),
    }
}

/// Runs `f` under a captured context (recorder override + span path +
/// memory charge target + audit-log and flight overrides), restoring the
/// thread's previous context afterwards, even on panic.
pub fn in_context<R>(ctx: &ObsContext, f: impl FnOnce() -> R) -> R {
    let _restore_rec = install(ctx.rec.clone());
    let prev_path = PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), ctx.path.clone()));
    let _restore_path = PathRestore(prev_path);
    let _restore_mem = prof::CellScope::install(ctx.mem.clone());
    let _restore_audit = audit::install_local(ctx.audit.clone());
    let _restore_flight = ring::install_local(ctx.flight.clone());
    f()
}

/// RAII restore of the thread-local recorder override.
fn install(rec: Option<Arc<Recorder>>) -> RecorderRestore {
    RecorderRestore(LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), rec)))
}

struct RecorderRestore(Option<Arc<Recorder>>);

impl Drop for RecorderRestore {
    fn drop(&mut self) {
        let prev = self.0.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
    }
}

struct PathRestore(Vec<String>);

impl Drop for PathRestore {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.0);
        PATH.with(|p| *p.borrow_mut() = prev);
    }
}

/// An open span; records its wall-clock duration (and, when memory
/// profiling is on, its allocator activity) under its path on drop.
/// Inert (no clock read, no allocation) when recording is disabled at open.
///
/// The guard manipulates thread-local state on open and drop, so it is
/// deliberately `!Send`: close it on the thread that opened it.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct SpanGuard {
    rec: Option<Arc<Recorder>>,
    start: Option<Instant>,
    path: String,
    /// Memory charge target installed for this span's extent; present only
    /// while profiling is enabled. The scope restores the parent's cell
    /// before the cell's totals are read, so the recorder's own bookkeeping
    /// allocations charge the parent, not the closing span.
    mem: Option<(Arc<prof::MemCell>, prof::CellScope)>,
    /// The flight-recorder lane this span's enter event landed in, if a
    /// flight is enabled; drop records the matching exit event. Independent
    /// of `rec`: the black box keeps recording when tracing is off.
    flight: Option<Arc<ring::ThreadRing>>,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

/// Opens a span named `name`, nested under the spans currently open on this
/// thread. Spans must be closed (dropped) in LIFO order — the natural order
/// of scope-bound guards.
pub fn span(name: &str) -> SpanGuard {
    let flight = ring::span_enter(name);
    let Some(rec) = active() else {
        return SpanGuard {
            rec: None,
            start: None,
            path: String::new(),
            mem: None,
            flight,
            _thread_bound: std::marker::PhantomData,
        };
    };
    let path = PATH.with(|p| {
        let mut p = p.borrow_mut();
        p.push(name.to_string());
        p.join("/")
    });
    let mem = prof::enabled().then(|| {
        let cell = Arc::new(prof::MemCell::new());
        let scope = prof::CellScope::install(Some(Arc::clone(&cell)));
        (cell, scope)
    });
    SpanGuard {
        rec: Some(rec),
        start: Some(Instant::now()),
        path,
        mem,
        flight,
        _thread_bound: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(ring) = self.flight.take() {
            ring.exit_span();
        }
        if let Some(rec) = self.rec.take() {
            let ns = self.start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            let mem = self.mem.take().map(|(cell, scope)| {
                drop(scope); // restore the parent's charge target first
                cell.stat()
            });
            rec.record_span_mem(&self.path, ns, mem);
            PATH.with(|p| {
                p.borrow_mut().pop();
            });
        }
    }
}

/// Adds `n` to the counter `name`. No-op when recording is disabled
/// (though an enabled flight recorder still logs the delta as an event).
pub fn counter_add(name: &str, n: u64) {
    ring::counter_event(name, n);
    if let Some(rec) = active() {
        rec.counter_add(name, n);
    }
}

/// Sets the gauge `name` to `v` (last write wins). No-op when disabled.
pub fn gauge_set(name: &str, v: f64) {
    if let Some(rec) = active() {
        rec.gauge_set(name, v);
    }
}

/// Records `v` into histogram `name` with the default bucket boundaries
/// (see [`hist::default_bounds`]). No-op when disabled.
pub fn hist_observe(name: &str, v: f64) {
    if let Some(rec) = active() {
        rec.hist_observe(name, None, v);
    }
}

/// Records `v` into histogram `name`, creating it with `bounds` on first
/// use (later calls ignore `bounds`). No-op when disabled.
pub fn hist_observe_with(name: &str, bounds: &[f64], v: f64) {
    if let Some(rec) = active() {
        rec.hist_observe(name, Some(bounds), v);
    }
}

/// Registers `name` as a pipeline stage. Registered stages always appear in
/// snapshots with their span count (0 when never entered), so a smoke check
/// can catch silently-skipped stages. Registration works even while
/// recording is disabled.
pub fn register_stage(name: &str) {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).register_stage(name);
    });
}

/// Registers several pipeline stages at once.
pub fn register_stages(names: &[&str]) {
    for name in names {
        register_stage(name);
    }
}

/// Snapshot of the active recorder's aggregated spans and metrics. When
/// memory profiling is on, the snapshot additionally carries the process
/// [`MemorySection`]: the `(unattributed)` root and the live/peak track.
pub fn snapshot() -> Snapshot {
    let mut snap = LOCAL.with(|l| l.borrow().as_ref().unwrap_or_else(|| global()).snapshot());
    if prof::enabled() {
        snap.memory = Some(MemorySection {
            unattributed: prof::unattributed(),
            live_bytes: prof::live_bytes(),
            peak_live_bytes: prof::peak_live_bytes(),
        });
    }
    snap
}

/// Clears the active recorder's spans and metrics (registered stages and
/// the enabled flag survive).
pub fn reset() {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).reset();
    });
}

/// Turns on windowed metrics on the active recorder: a ring of `capacity`
/// frames that every counter increment and histogram observation also
/// lands in (see [`Windowed`]). Works while recording is disabled, like
/// stage registration — the ring starts filling once recording is on.
pub fn window_enable(capacity: usize) {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).enable_windows(capacity);
    });
}

/// Seals the active recorder's current window frame and opens the next.
/// Callers rotate on logical progress (every K records, every batch) —
/// never wall time — so frame contents stay deterministic.
pub fn window_advance() {
    LOCAL.with(|l| {
        l.borrow().as_ref().unwrap_or_else(|| global()).advance_window();
    });
}

// ── Flight recorder installation (panic hook + stall watchdog) ──────────

/// Configuration for [`flight_install`]. [`FlightOptions::default`] reads
/// the environment: `WYM_FLIGHT_CAPACITY` (events per lane),
/// `WYM_STALL_MS` (watchdog threshold; `0` disables the watchdog), and
/// names dumps after the binary (`argv[0]` stem).
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Per-lane ring capacity in events.
    pub capacity: usize,
    /// Watchdog stall threshold in milliseconds; `0` disables the
    /// watchdog thread entirely.
    pub stall_ms: u64,
    /// Directory dump files are written into.
    pub dump_dir: String,
    /// Dump file stem: `FLIGHT_<stem>_<tag>.{txt,trace.json}`.
    pub stem: String,
}

impl Default for FlightOptions {
    fn default() -> FlightOptions {
        let capacity = std::env::var("WYM_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c: &usize| c > 0)
            .unwrap_or(ring::DEFAULT_CAPACITY);
        let stall_ms = std::env::var("WYM_STALL_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30_000);
        let stem = std::env::args()
            .next()
            .as_deref()
            .and_then(|a| {
                std::path::Path::new(a).file_stem().map(|s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "run".to_string());
        FlightOptions { capacity, stall_ms, dump_dir: "results".to_string(), stem }
    }
}

/// One-shot process-wide flight install guard.
static FLIGHT_INIT: Once = Once::new();
/// Dump-once latches: the first panic (a re-raised worker panic fires the
/// hook twice) and the first stall each produce exactly one dump pair.
static PANIC_DUMPED: AtomicBool = AtomicBool::new(false);
static STALL_DUMPED: AtomicBool = AtomicBool::new(false);
/// Where the hook and watchdog write dumps: `(dir, stem)`.
static DUMP_TARGET: Mutex<Option<(String, String)>> = Mutex::new(None);

/// Installs the process-wide flight recorder: an always-on event ring per
/// thread (see [`ring`]), a chained panic hook that dumps the recent-event
/// tail before the default backtrace, and (unless `opts.stall_ms` is 0) a
/// watchdog thread that warns — and dumps once — when a thread's innermost
/// open span exceeds the stall threshold.
///
/// Binaries call this once at startup; later calls are no-ops. Setting
/// `WYM_FLIGHT=off` (or `0`) skips installation entirely, restoring the
/// one-relaxed-load disabled fast path everywhere.
pub fn flight_install(opts: FlightOptions) {
    if std::env::var("WYM_FLIGHT").is_ok_and(|v| v == "off" || v == "0") {
        return;
    }
    FLIGHT_INIT.call_once(|| {
        *DUMP_TARGET.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((opts.dump_dir.clone(), opts.stem.clone()));
        let flight = Arc::new(ring::Flight::new_enabled(opts.capacity));
        ring::install_global(Arc::clone(&flight));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_DUMPED.swap(true, Ordering::SeqCst) {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let loc = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                if let Some((txt, json)) =
                    write_flight_dump("panic", &format!("panic: {msg}{loc}"))
                {
                    eprintln!("flight: panic dump written to {txt} and {json}");
                }
            }
            prev(info);
        }));
        if opts.stall_ms > 0 {
            let stall_ms = opts.stall_ms;
            let _ = std::thread::Builder::new()
                .name("wym-flight-watchdog".to_string())
                .spawn(move || watchdog_loop(&flight, stall_ms));
        }
    });
}

/// Scans for stalled innermost spans every quarter threshold (clamped to
/// 25–250 ms), warning once per stalled span instance and dumping on the
/// first stall seen. Long-lived *outer* spans (a whole `fit`) never trip
/// this — only a leaf making no progress does.
fn watchdog_loop(flight: &ring::Flight, stall_ms: u64) {
    let poll = Duration::from_millis((stall_ms / 4).clamp(25, 250));
    let mut warned: Vec<(u64, u64)> = Vec::new();
    loop {
        std::thread::sleep(poll);
        for s in flight.stalled_spans(stall_ms) {
            if warned.contains(&(s.tid, s.enter_ts_ns)) {
                continue;
            }
            warned.push((s.tid, s.enter_ts_ns));
            eprintln!(
                "flight: stall watchdog: span \"{}\" open {} ms on lane {} [{}] \
                 (threshold {} ms)",
                s.name, s.open_ms, s.tid, s.label, stall_ms
            );
            if !STALL_DUMPED.swap(true, Ordering::SeqCst) {
                let reason = format!(
                    "stall: span \"{}\" open {} ms (threshold {} ms)",
                    s.name, s.open_ms, stall_ms
                );
                if let Some((txt, json)) = write_flight_dump("stall", &reason) {
                    eprintln!("flight: stall dump written to {txt} and {json}");
                }
            }
        }
    }
}

/// Dumps the installed global flight to the configured target. `None`
/// when no flight or target is installed; write errors are reported to
/// stderr rather than propagated (the panic hook cannot recover anyway).
fn write_flight_dump(tag: &str, reason: &str) -> Option<(String, String)> {
    let flight = ring::global_flight()?;
    let (dir, stem) = DUMP_TARGET.lock().unwrap_or_else(|e| e.into_inner()).clone()?;
    let dump = flight.dump(reason);
    match chrome::write_dump_files(&dir, &stem, tag, &dump) {
        Ok(paths) => Some(paths),
        Err(e) => {
            eprintln!("flight: failed to write {tag} dump: {e}");
            None
        }
    }
}

/// Exports the installed global flight's current contents as a Chrome
/// trace-event JSON file at `path` (the `--chrome-trace` flag). Returns
/// the number of trace events written.
pub fn flight_write_chrome(path: &str) -> Result<usize, String> {
    let flight = ring::global_flight()
        .ok_or_else(|| "no flight recorder installed in this process".to_string())?;
    let dump = flight.dump("full-run export");
    chrome::write_chrome_file(std::path::Path::new(path), &dump)
        .map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local() -> Arc<Recorder> {
        Arc::new(Recorder::new_enabled())
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let rec = local();
        with_recorder(Arc::clone(&rec), || {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
        });
        let snap = rec.snapshot();
        let paths: Vec<(&str, u64)> =
            snap.spans.iter().map(|s| (s.path.as_str(), s.count)).collect();
        assert_eq!(paths, vec![("outer", 1), ("outer/inner", 3)]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Arc::new(Recorder::new()); // disabled
        with_recorder(Arc::clone(&rec), || {
            let _s = span("ghost");
            counter_add("ghost.counter", 5);
            gauge_set("ghost.gauge", 1.0);
            hist_observe("ghost.hist", 0.5);
        });
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let rec = local();
        with_recorder(Arc::clone(&rec), || {
            counter_add("c", 2);
            counter_add("c", 3);
            gauge_set("g", 1.0);
            gauge_set("g", -2.5);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(-2.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn context_carries_path_and_recorder_across_threads() {
        let rec = local();
        let ctx = with_recorder(Arc::clone(&rec), || {
            let _root = span("root");
            let ctx = capture();
            // Worker thread: no local recorder of its own, inherits via ctx.
            std::thread::scope(|s| {
                s.spawn(|| {
                    in_context(&ctx, || {
                        let _w = span("work");
                    });
                })
                .join()
                .unwrap();
            });
            ctx
        });
        assert_eq!(ctx.path, vec!["root".to_string()]);
        let snap = rec.snapshot();
        assert_eq!(snap.span_count("root/work"), 1);
    }

    #[test]
    fn with_recorder_restores_previous_recorder() {
        let a = local();
        let b = local();
        with_recorder(Arc::clone(&a), || {
            with_recorder(Arc::clone(&b), || counter_add("x", 1));
            counter_add("x", 10);
        });
        assert_eq!(a.snapshot().counter("x"), Some(10));
        assert_eq!(b.snapshot().counter("x"), Some(1));
    }

    #[test]
    fn reset_clears_data_but_keeps_stage_registry() {
        let rec = local();
        with_recorder(Arc::clone(&rec), || {
            register_stage("tokenize");
            let _s = span("tokenize");
            counter_add("c", 1);
        });
        rec.reset();
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snap.stages, vec![("tokenize".to_string(), 0)]);
        assert!(rec.is_enabled(), "reset must not disable the recorder");
    }

    #[test]
    fn stage_counts_match_any_path_segment() {
        let rec = local();
        with_recorder(Arc::clone(&rec), || {
            register_stages(&["pair", "score"]);
            let _fit = span("fit");
            {
                let _p = span("pair");
            }
            {
                let _p = span("pair");
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.stages, vec![("pair".to_string(), 2), ("score".to_string(), 0)]);
    }
}
