//! Flight recorder: per-thread fixed-capacity event ring buffers.
//!
//! Everything else in `wym-obs` is an *aggregate* rendered after a run
//! completes; a process that hangs or panics mid-fit leaves those
//! aggregates unwritten and the operator blind. The flight recorder is the
//! in-process black box: every span enter/exit, counter delta, audit
//! decision, and explicit mark also lands in a small per-thread ring of
//! timestamped [`Event`]s, so the *recent* history of every thread is
//! always available for a post-mortem dump — from the panic hook, from the
//! stall watchdog, or on demand (see [`crate::flight_install`] and
//! [`crate::chrome`] for the dump writers).
//!
//! **Cost model.** With no flight installed the instrumentation points pay
//! one thread-local read plus one relaxed atomic load — the same disabled
//! fast path as the [`crate::Recorder`], pinned by the `components_bench`
//! obs group. With a flight enabled, each event is one uncontended
//! per-thread mutex lock and a bounded `VecDeque` push; when the ring is
//! full the oldest event is evicted and counted in
//! [`ThreadDump::dropped`].
//!
//! **Lanes, not threads.** `wym-par` spawns fresh scoped workers per call,
//! so rings are pooled: a thread acquires the first free *lane* and its
//! RAII thread-local handle releases the lane at thread exit. The registry
//! therefore stays bounded by peak concurrency while lane history persists
//! across worker generations (a lane's ring may interleave events from
//! successive short-lived workers — the dump labels lanes, not OS thread
//! ids, for exactly this reason).
//!
//! **Determinism contract.** Events carry wall-clock timestamps and are
//! inherently nondeterministic, so flight dumps are *never* part of
//! `obs_diff` scope and the recorder's deterministic aggregates are never
//! written to from this module. Ring bookkeeping allocations are charged
//! to the `(unattributed)` memory root so per-span memory attribution in
//! committed OBS baselines stays byte-identical whether or not a flight is
//! installed.
//!
//! **Installation** mirrors the audit log: a thread-local override
//! ([`with_flight`], captured into [`crate::ObsContext`] so `wym-par`
//! workers inherit it) over a process-wide slot ([`install_global`],
//! normally filled once by [`crate::flight_install`]).

use crate::prof;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default per-lane ring capacity (events). Overridable per install via
/// [`crate::FlightOptions::capacity`] / `WYM_FLIGHT_CAPACITY`.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What one ring event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; `value` is 0.
    Enter,
    /// A span closed; `value` is its duration in nanoseconds.
    Exit,
    /// A counter increment; `value` is the delta.
    Counter,
    /// An audit decision; `value` is the calibrated score.
    Decision,
    /// A free-form instant marker (worker panics, injections).
    Mark,
}

impl EventKind {
    /// Short stable tag used in text dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Counter => "counter",
            EventKind::Decision => "decision",
            EventKind::Mark => "mark",
        }
    }
}

/// One timestamped flight event. `ts_ns` is nanoseconds since the owning
/// [`Flight`]'s creation instant (one epoch per flight, so lanes merge on a
/// common axis).
#[derive(Debug, Clone)]
pub struct Event {
    /// Nanoseconds since the flight epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Span, counter, decision, or marker name.
    pub name: String,
    /// Kind-dependent payload (see [`EventKind`]).
    pub value: f64,
}

/// A span currently open on a lane (tracked for stall detection and for
/// dumps: an evicted `Enter` event must not hide an in-flight span).
#[derive(Debug)]
struct OpenSpan {
    name: String,
    ts_ns: u64,
    since: Instant,
}

/// A span that was open when a dump was captured.
#[derive(Debug, Clone)]
pub struct OpenSpanDump {
    /// Span name.
    pub name: String,
    /// Enter time, nanoseconds since the flight epoch.
    pub ts_ns: u64,
    /// How long the span had been open at capture, in milliseconds.
    pub open_ms: u64,
}

/// An innermost open span that exceeded the watchdog threshold.
#[derive(Debug, Clone)]
pub struct StallInfo {
    /// Lane id.
    pub tid: u64,
    /// Lane label (thread name at acquisition).
    pub label: String,
    /// Stalled span name.
    pub name: String,
    /// How long it has been open, in milliseconds.
    pub open_ms: u64,
    /// Enter time, nanoseconds since the flight epoch (identifies the span
    /// *instance*, so the watchdog warns once per stall, not once per poll).
    pub enter_ts_ns: u64,
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<Event>,
    open: Vec<OpenSpan>,
    dropped: u64,
    in_use: bool,
    label: String,
}

/// One lane's ring buffer. Obtained via the thread-local cache in
/// `span_enter` / `counter_event`; exposed so [`crate::SpanGuard`] can
/// hold a reference for its exit event.
#[derive(Debug)]
pub struct ThreadRing {
    tid: u64,
    epoch: Instant,
    capacity: usize,
    state: Mutex<RingState>,
}

impl ThreadRing {
    fn new(tid: u64, epoch: Instant, capacity: usize, label: String) -> ThreadRing {
        ThreadRing {
            tid,
            epoch,
            capacity,
            state: Mutex::new(RingState { in_use: true, label, ..RingState::default() }),
        }
    }

    /// Lane id (stable for the flight's lifetime; reused across workers).
    pub fn tid(&self) -> u64 {
        self.tid
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Poisoning-tolerant lock: a panicking thread leaves at worst a
    /// complete-or-absent event, and the panic hook reads rings *after* a
    /// panic, so poison must not make the black box unreadable.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push_locked(state: &mut RingState, capacity: usize, ev: Event) {
        if state.events.len() >= capacity.max(1) {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(ev);
    }

    pub(crate) fn enter(&self, name: &str) {
        let _unattr = prof::CellScope::install(None);
        let ts_ns = self.now_ns();
        let since = Instant::now();
        let mut state = self.lock();
        Self::push_locked(
            &mut state,
            self.capacity,
            Event { ts_ns, kind: EventKind::Enter, name: name.to_string(), value: 0.0 },
        );
        state.open.push(OpenSpan { name: name.to_string(), ts_ns, since });
    }

    pub(crate) fn exit_span(&self) {
        let _unattr = prof::CellScope::install(None);
        let ts_ns = self.now_ns();
        let mut state = self.lock();
        let Some(open) = state.open.pop() else { return };
        let dur_ns = open.since.elapsed().as_nanos() as u64;
        Self::push_locked(
            &mut state,
            self.capacity,
            Event { ts_ns, kind: EventKind::Exit, name: open.name, value: dur_ns as f64 },
        );
    }

    pub(crate) fn event(&self, kind: EventKind, name: &str, value: f64) {
        let _unattr = prof::CellScope::install(None);
        let ts_ns = self.now_ns();
        let mut state = self.lock();
        Self::push_locked(
            &mut state,
            self.capacity,
            Event { ts_ns, kind, name: name.to_string(), value },
        );
    }

    fn release(&self) {
        self.lock().in_use = false;
    }

    fn snapshot(&self) -> ThreadDump {
        let _unattr = prof::CellScope::install(None);
        let state = self.lock();
        ThreadDump {
            tid: self.tid,
            label: state.label.clone(),
            dropped: state.dropped,
            events: state.events.iter().cloned().collect(),
            open: state
                .open
                .iter()
                .map(|o| OpenSpanDump {
                    name: o.name.clone(),
                    ts_ns: o.ts_ns,
                    open_ms: o.since.elapsed().as_millis() as u64,
                })
                .collect(),
        }
    }
}

/// One lane's contribution to a [`FlightDump`].
#[derive(Debug, Clone)]
pub struct ThreadDump {
    /// Lane id.
    pub tid: u64,
    /// Lane label (thread name at acquisition).
    pub label: String,
    /// Events evicted from the ring since the flight was created.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Spans open at capture, outermost first.
    pub open: Vec<OpenSpanDump>,
}

/// A point-in-time capture of every lane's recent history — what the panic
/// hook, the stall watchdog, and `--chrome-trace` serialize (see
/// [`crate::chrome`]).
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (`panic: …`, `stall: …`, `full-run export`).
    pub reason: String,
    /// Capture time, nanoseconds since the flight epoch.
    pub captured_ts_ns: u64,
    /// Capture time, milliseconds since the Unix epoch (wall clock; the
    /// one deliberately nondeterministic field family in `wym-obs`).
    pub captured_unix_ms: u64,
    /// Per-lane ring capacity the flight was created with.
    pub capacity: usize,
    /// Per-lane captures, lane id order.
    pub threads: Vec<ThreadDump>,
}

/// The flight recorder: a pool of per-thread event rings sharing one time
/// epoch and one enabled flag.
#[derive(Debug)]
pub struct Flight {
    enabled: AtomicBool,
    capacity: usize,
    epoch: Instant,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl Flight {
    /// A disabled flight with per-lane ring capacity `capacity`.
    pub fn new(capacity: usize) -> Flight {
        Flight {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// An enabled flight (tests and [`crate::flight_install`]).
    pub fn new_enabled(capacity: usize) -> Flight {
        let f = Flight::new(capacity);
        f.set_enabled(true);
        f
    }

    /// Turns recording on or off. Disabled flights record nothing and cost
    /// the instrumentation points one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the flight is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Per-lane ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock_rings(&self) -> MutexGuard<'_, Vec<Arc<ThreadRing>>> {
        self.rings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of lanes ever created — bounded by peak thread concurrency,
    /// not by total threads spawned (lanes are pooled and reused).
    pub fn lanes(&self) -> usize {
        self.lock_rings().len()
    }

    fn acquire_ring(&self) -> Arc<ThreadRing> {
        let _unattr = prof::CellScope::install(None);
        let label = std::thread::current().name().unwrap_or("worker").to_string();
        let mut rings = self.lock_rings();
        for ring in rings.iter() {
            let mut state = ring.lock();
            if !state.in_use {
                state.in_use = true;
                state.label = label;
                return Arc::clone(ring);
            }
        }
        let ring =
            Arc::new(ThreadRing::new(rings.len() as u64, self.epoch, self.capacity, label));
        rings.push(Arc::clone(&ring));
        ring
    }

    /// Captures every lane's recent history.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let _unattr = prof::CellScope::install(None);
        let captured_ts_ns = self.epoch.elapsed().as_nanos() as u64;
        let captured_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let threads = self.lock_rings().iter().map(|r| r.snapshot()).collect();
        FlightDump {
            reason: reason.to_string(),
            captured_ts_ns,
            captured_unix_ms,
            capacity: self.capacity,
            threads,
        }
    }

    /// The innermost open span of every lane whose age exceeds
    /// `threshold_ms` — the watchdog's "what is this thread actually doing
    /// right now" question. Outer spans legitimately stay open for a whole
    /// fit; a stalled *leaf* means no progress.
    pub fn stalled_spans(&self, threshold_ms: u64) -> Vec<StallInfo> {
        let _unattr = prof::CellScope::install(None);
        let mut out = Vec::new();
        for ring in self.lock_rings().iter() {
            let state = ring.lock();
            if let Some(leaf) = state.open.last() {
                let open_ms = leaf.since.elapsed().as_millis() as u64;
                if open_ms >= threshold_ms {
                    out.push(StallInfo {
                        tid: ring.tid,
                        label: state.label.clone(),
                        name: leaf.name.clone(),
                        open_ms,
                        enter_ts_ns: leaf.ts_ns,
                    });
                }
            }
        }
        out
    }
}

/// Whether a global flight is installed — the one relaxed load the
/// disabled fast path pays (avoids locking the global slot per event).
static ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<Flight>>> = Mutex::new(None);

thread_local! {
    /// Per-thread flight override (tests, propagated worker contexts).
    static LOCAL: RefCell<Option<Arc<Flight>>> = const { RefCell::new(None) };
    /// This thread's acquired lane, released (pooled) on thread exit.
    static RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
}

struct RingHandle {
    flight: Arc<Flight>,
    ring: Arc<ThreadRing>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        self.ring.release();
    }
}

fn global_slot() -> Option<Arc<Flight>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs `flight` as the process-wide flight recorder (returns the
/// previous one). Normally called once, by [`crate::flight_install`].
pub fn install_global(flight: Arc<Flight>) -> Option<Arc<Flight>> {
    let prev = GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).replace(flight);
    ARMED.store(true, Ordering::Relaxed);
    prev
}

/// The process-wide flight, if one is installed.
pub fn global_flight() -> Option<Arc<Flight>> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    global_slot()
}

/// The flight events on this thread land in, if one is installed and
/// enabled: the thread-local override, else the process-wide slot. An
/// installed-but-disabled override shadows the global (same semantics as
/// the recorder override).
pub fn active() -> Option<Arc<Flight>> {
    if let Some(f) = LOCAL.with(|l| l.borrow().clone()) {
        return f.is_enabled().then_some(f);
    }
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    global_slot().filter(|f| f.is_enabled())
}

/// Runs `f` with `flight` as this thread's flight recorder (restored
/// afterwards, even on panic). The test-isolation twin of
/// [`crate::with_recorder`].
pub fn with_flight<R>(flight: Arc<Flight>, f: impl FnOnce() -> R) -> R {
    let _restore = install_local(Some(flight));
    f()
}

/// Captures this thread's override for [`crate::ObsContext`].
pub(crate) fn capture_local() -> Option<Arc<Flight>> {
    LOCAL.with(|l| l.borrow().clone())
}

/// RAII-installs a thread-local override (for [`crate::in_context`]).
pub(crate) fn install_local(flight: Option<Arc<Flight>>) -> LocalRestore {
    LocalRestore(LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), flight)))
}

pub(crate) struct LocalRestore(Option<Arc<Flight>>);

impl Drop for LocalRestore {
    fn drop(&mut self) {
        let prev = self.0.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
    }
}

/// This thread's lane in `flight`, acquired (or revalidated) through the
/// thread-local handle so repeated events skip the flight-wide registry
/// lock.
fn thread_ring(flight: &Arc<Flight>) -> Arc<ThreadRing> {
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(h) = slot.as_ref() {
            if Arc::ptr_eq(&h.flight, flight) {
                return Arc::clone(&h.ring);
            }
        }
        let _unattr = prof::CellScope::install(None);
        let ring = flight.acquire_ring();
        *slot = Some(RingHandle { flight: Arc::clone(flight), ring: Arc::clone(&ring) });
        ring
    })
}

/// Records a span enter on this thread's lane (called by [`crate::span`]
/// *before* the recorder gate, so untraced runs still feed the black box).
/// Returns the lane for the guard's exit event. Fault injections armed for
/// `name` fire here, after the ring lock is released.
pub(crate) fn span_enter(name: &str) -> Option<Arc<ThreadRing>> {
    let flight = active()?;
    let ring = thread_ring(&flight);
    ring.enter(name);
    maybe_inject(name);
    Some(ring)
}

/// Records a counter delta on this thread's lane.
pub(crate) fn counter_event(name: &str, n: u64) {
    if let Some(flight) = active() {
        thread_ring(&flight).event(EventKind::Counter, name, n as f64);
    }
}

/// Records an audit-decision summary on this thread's lane (called by
/// [`crate::AuditLog::emit`] for sampled decisions).
pub(crate) fn decision_event(kind: &str, verdict: bool, score: f32) {
    if let Some(flight) = active() {
        let name =
            format!("decision.{kind}.{}", if verdict { "match" } else { "nonmatch" });
        thread_ring(&flight).event(EventKind::Decision, &name, score as f64);
    }
}

/// Records a free-form instant marker on this thread's lane (`wym-par`
/// stamps worker panics with this so the dump shows *which* item blew up).
pub fn mark(name: &str) {
    if let Some(flight) = active() {
        thread_ring(&flight).event(EventKind::Mark, name, 0.0);
    }
}

// ── Fault injection (smoke-gate hooks) ──────────────────────────────────

/// A deterministic fault armed by the hidden `--inject-panic` /
/// `--inject-stall` experiment flags so CI can exercise the panic-hook and
/// watchdog dump paths on demand.
#[derive(Debug, Clone)]
pub enum Injection {
    /// Panic when a span with this name is entered.
    Panic(String),
    /// Sleep this many milliseconds when a span with this name is entered
    /// (every time it is entered).
    Stall(String, u64),
}

static INJECT_ARMED: AtomicBool = AtomicBool::new(false);
static INJECTION: Mutex<Option<Injection>> = Mutex::new(None);

/// Arms a fault. The trigger fires at span enter, after the ring lock is
/// released (the dump writers must never find the lock held by a sleeping
/// or unwinding thread).
pub fn set_injection(inj: Injection) {
    *INJECTION.lock().unwrap_or_else(|e| e.into_inner()) = Some(inj);
    INJECT_ARMED.store(true, Ordering::Relaxed);
}

/// Disarms any armed fault (tests).
pub fn clear_injection() {
    INJECT_ARMED.store(false, Ordering::Relaxed);
    *INJECTION.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a fault is armed. The experiment harness's `save_json`
/// consults this so fault-injection runs never write results files.
pub fn injection_armed() -> bool {
    INJECT_ARMED.load(Ordering::Relaxed)
}

fn maybe_inject(name: &str) {
    if !INJECT_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let inj = INJECTION.lock().unwrap_or_else(|e| e.into_inner()).clone();
    match inj {
        Some(Injection::Panic(span)) if span == name => {
            mark(&format!("inject.panic {name}"));
            panic!("flight: injected panic in span \"{name}\"");
        }
        Some(Injection::Stall(span, ms)) if span == name => {
            mark(&format!("inject.stall {name} {ms}ms"));
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_per_lane_with_durations() {
        let flight = Arc::new(Flight::new_enabled(64));
        with_flight(Arc::clone(&flight), || {
            let ring = span_enter("outer").unwrap();
            counter_event("c", 3);
            ring.exit_span();
        });
        let dump = flight.dump("test");
        assert_eq!(dump.threads.len(), 1);
        let kinds: Vec<EventKind> = dump.threads[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Enter, EventKind::Counter, EventKind::Exit]);
        let exit = &dump.threads[0].events[2];
        assert_eq!(exit.name, "outer");
        assert!(exit.value >= 0.0, "exit value is a duration in ns");
        assert!(dump.threads[0].open.is_empty());
    }

    #[test]
    fn disabled_flight_records_nothing() {
        let flight = Arc::new(Flight::new(64)); // disabled
        with_flight(Arc::clone(&flight), || {
            assert!(span_enter("ghost").is_none());
            counter_event("ghost", 1);
            mark("ghost");
        });
        let dump = flight.dump("test");
        assert!(dump.threads.is_empty(), "no lane should even be acquired");
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_dropped() {
        let flight = Arc::new(Flight::new_enabled(4));
        with_flight(Arc::clone(&flight), || {
            for i in 0..10 {
                counter_event(&format!("c{i}"), 1);
            }
        });
        let t = &flight.dump("test").threads[0];
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events[0].name, "c6", "oldest events evicted first");
    }

    #[test]
    fn open_spans_survive_eviction_and_report_age() {
        let flight = Arc::new(Flight::new_enabled(2));
        with_flight(Arc::clone(&flight), || {
            let _ring = span_enter("long_running").unwrap();
            for i in 0..8 {
                counter_event(&format!("c{i}"), 1);
            }
            std::thread::sleep(std::time::Duration::from_millis(15));
            let dump = flight.dump("test");
            let t = &dump.threads[0];
            assert_eq!(t.open.len(), 1, "enter evicted, open span still tracked");
            assert_eq!(t.open[0].name, "long_running");
            assert!(t.open[0].open_ms >= 10);
        });
    }

    #[test]
    fn stalled_spans_report_the_innermost_open_span() {
        let flight = Arc::new(Flight::new_enabled(64));
        with_flight(Arc::clone(&flight), || {
            let _outer = span_enter("outer").unwrap();
            let _inner = span_enter("inner_leaf").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let stalls = flight.stalled_spans(10);
            assert_eq!(stalls.len(), 1);
            assert_eq!(stalls[0].name, "inner_leaf", "leaf, not outer");
            assert!(stalls[0].open_ms >= 10);
            assert!(flight.stalled_spans(60_000).is_empty());
        });
    }

    #[test]
    fn lanes_are_pooled_across_thread_generations() {
        let flight = Arc::new(Flight::new_enabled(64));
        for _ in 0..4 {
            let f = Arc::clone(&flight);
            std::thread::spawn(move || {
                with_flight(f, || {
                    let ring = span_enter("worker_span").unwrap();
                    ring.exit_span();
                });
            })
            .join()
            .unwrap();
        }
        assert_eq!(flight.lanes(), 1, "sequential threads reuse one lane");
        let t = &flight.dump("test").threads[0];
        assert_eq!(t.events.len(), 8, "lane history persists across workers");
    }

    #[test]
    fn injected_panic_fires_at_enter_and_leaves_span_open() {
        let flight = Arc::new(Flight::new_enabled(64));
        set_injection(Injection::Panic("ring_test_inject_target".to_string()));
        assert!(injection_armed());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_flight(Arc::clone(&flight), || {
                let _ring = span_enter("ring_test_inject_target");
            });
        }));
        clear_injection();
        assert!(result.is_err(), "injection must panic");
        assert!(!injection_armed());
        let t = &flight.dump("test").threads[0];
        assert_eq!(t.open.len(), 1, "panic at enter leaves the span open");
        assert_eq!(t.open[0].name, "ring_test_inject_target");
        assert!(t.events.iter().any(|e| {
            e.kind == EventKind::Mark && e.name.contains("inject.panic")
        }));
    }

    #[test]
    fn local_override_shadows_even_when_disabled() {
        let global_like = Arc::new(Flight::new_enabled(64));
        let disabled = Arc::new(Flight::new(64));
        with_flight(global_like, || {
            with_flight(Arc::clone(&disabled), || {
                assert!(active().is_none(), "disabled override must shadow");
            });
            assert!(active().is_some());
        });
    }
}
