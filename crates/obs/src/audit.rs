//! Decision audit log.
//!
//! The paper's promise is that every match verdict is explainable; this
//! module makes every verdict *accountable*: each `classify`/`explain`
//! emits a structured [`DecisionRecord`] — trace id, verdict, calibrated
//! score, distance-to-threshold margin, top-k unit impacts, model
//! fingerprint, optional wall/alloc cost — into the installed [`AuditLog`],
//! which serializes to append-only JSONL.
//!
//! **Determinism.** The log's ordering key is the *sequence number*, which
//! callers pin to input order via [`scope_seq`] around each item (that is
//! what `wym-par` workers run under, so a parallel classify emits the same
//! log as a sequential one). Serialization sorts by sequence, sampling is
//! `seq % sample_every == 0` (modular, never random), and wall/alloc cost —
//! the only nondeterministic fields — stay `None` unless
//! [`AuditOptions::include_cost`] opts in. Result: with cost off, the JSONL
//! bytes and their FNV checksum are bit-identical across kernels and thread
//! counts, which the smoke gate asserts.
//!
//! **Installation** mirrors the recorder: a thread-local override
//! ([`with_audit`], captured into [`crate::ObsContext`] so workers inherit
//! it) over a process-wide slot ([`install_global`]). Emission with no log
//! installed is a no-op costing one thread-local read.
//!
//! **One record per decision.** `explain` computes its verdict without
//! going through the classify path, so a decision never double-logs: it
//! emits one record of kind `explain`, with impacts.

use crate::manifest::fnv1a;
use serde::{Serialize, Value};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Decision kinds emitted by the pipeline.
pub const KIND_CLASSIFY: &str = "classify";
/// See [`KIND_CLASSIFY`].
pub const KIND_EXPLAIN: &str = "explain";

/// How many unit impacts a record retains (largest `|impact|` first).
pub const TOP_K_IMPACTS: usize = 3;

/// Measured cost of one decision. Wall time and allocation are inherently
/// run-dependent, so cost is only recorded under
/// [`AuditOptions::include_cost`] — never in bit-identity-checked logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionCost {
    /// Wall-clock nanoseconds spent producing the decision.
    pub wall_ns: u64,
    /// Bytes allocated while producing it (0 when profiling is off).
    pub alloc_bytes: u64,
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Caller-assigned input position; the deterministic ordering key.
    pub seq: u64,
    /// FNV-1a over `model_fnv ‖ seq ‖ record_id` — stable across runs of
    /// the same model over the same input, unique within a run.
    pub trace: u64,
    /// The classified pair's record id.
    pub record_id: u64,
    /// [`KIND_CLASSIFY`] or [`KIND_EXPLAIN`].
    pub kind: String,
    /// The match verdict.
    pub verdict: bool,
    /// Calibrated match probability.
    pub score: f32,
    /// Distance to the 0.5 decision threshold (`score − 0.5`); the sign
    /// restates the verdict, the magnitude says how close the call was.
    pub margin: f32,
    /// Total decision units for the pair.
    pub units: u32,
    /// How many of those units paired.
    pub paired_units: u32,
    /// Up to [`TOP_K_IMPACTS`] `(attribute, impact)` pairs, largest
    /// `|impact|` first. Empty for bare classify decisions.
    pub top_impacts: Vec<(String, f32)>,
    /// Content fingerprint of the deciding model.
    pub model_fnv: u64,
    /// Optional measured cost (see [`DecisionCost`]).
    pub cost: Option<DecisionCost>,
}

impl DecisionRecord {
    /// The record as one JSONL object. `f32` fields widen to `f64`
    /// (exactly) and render shortest-exact, so serialization is
    /// bit-faithful and deterministic.
    pub fn to_json(&self) -> Value {
        let impacts = self.top_impacts.iter().map(|(attr, impact)| {
            Value::object([("attribute", attr.to_value()), ("impact", impact.to_value())])
        });
        let mut fields = vec![
            ("seq", self.seq.to_value()),
            ("trace", format!("{:016x}", self.trace).to_value()),
            ("record_id", self.record_id.to_value()),
            ("kind", self.kind.to_value()),
            ("verdict", self.verdict.to_value()),
            ("score", self.score.to_value()),
            ("margin", self.margin.to_value()),
            ("units", self.units.to_value()),
            ("paired_units", self.paired_units.to_value()),
            ("top_impacts", Value::Array(impacts.collect())),
            ("model_fnv", format!("{:016x}", self.model_fnv).to_value()),
        ];
        if let Some(cost) = &self.cost {
            fields.push((
                "cost",
                Value::object([
                    ("wall_ns", cost.wall_ns.to_value()),
                    ("alloc_bytes", cost.alloc_bytes.to_value()),
                ]),
            ));
        }
        Value::object(fields)
    }
}

/// Runs `f` and measures its cost: wall time always, allocator activity
/// when memory profiling is enabled (0 otherwise). The helper emitters use
/// under [`AuditOptions::include_cost`]; the measurement itself is why
/// cost-bearing logs are not bit-comparable.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, DecisionCost) {
    let cell = crate::prof::enabled().then(|| {
        let cell = Arc::new(crate::prof::MemCell::new());
        let scope = crate::prof::CellScope::install(Some(Arc::clone(&cell)));
        (cell, scope)
    });
    let t0 = std::time::Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let alloc_bytes = cell.map_or(0, |(cell, scope)| {
        drop(scope); // restore the parent's charge target before reading
        cell.stat().alloc_bytes
    });
    (out, DecisionCost { wall_ns, alloc_bytes })
}

/// The deterministic per-decision trace id.
pub fn trace_id(model_fnv: u64, seq: u64, record_id: u64) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&model_fnv.to_le_bytes());
    bytes[8..16].copy_from_slice(&seq.to_le_bytes());
    bytes[16..].copy_from_slice(&record_id.to_le_bytes());
    fnv1a(&bytes)
}

/// Audit-log configuration.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Keep decisions whose `seq % sample_every == 0`. 1 keeps everything;
    /// 0 is treated as 1. Modular sampling keeps the retained set
    /// deterministic — the same decisions survive in every run.
    pub sample_every: u64,
    /// Record wall/alloc cost per decision. Off by default because cost is
    /// the one run-dependent field: logs meant to be compared bit-for-bit
    /// across kernels and thread counts must leave this off.
    pub include_cost: bool,
    /// Content fingerprint of the model making the decisions (stamped into
    /// every record and folded into trace ids).
    pub model_fnv: u64,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions { sample_every: 1, include_cost: false, model_fnv: 0 }
    }
}

/// An in-memory decision log, shared by reference between the emitting
/// pipeline (possibly many threads) and whoever flushes it.
pub struct AuditLog {
    opts: AuditOptions,
    records: Mutex<Vec<DecisionRecord>>,
    /// Sequence source for emissions outside any [`scope_seq`] — a plain
    /// arrival counter, deterministic only for sequential callers.
    fallback_seq: AtomicU64,
}

impl AuditLog {
    /// An empty log under `opts`.
    pub fn new(opts: AuditOptions) -> AuditLog {
        AuditLog { opts, records: Mutex::new(Vec::new()), fallback_seq: AtomicU64::new(0) }
    }

    /// The log's configuration.
    pub fn opts(&self) -> &AuditOptions {
        &self.opts
    }

    /// Poisoning-tolerant lock: a worker that panicked mid-push left at
    /// worst a complete-or-absent record (push is not partial), so the data
    /// stays usable — same policy as the metrics recorder.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<DecisionRecord>> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emits one decision. No-op when the sequence number is sampled out. The sequence comes from the ambient
    /// [`scope_seq`] when one is active, else from an arrival counter.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        kind: &str,
        record_id: u64,
        verdict: bool,
        score: f32,
        units: u32,
        paired_units: u32,
        top_impacts: Vec<(String, f32)>,
        cost: Option<DecisionCost>,
    ) {
        let seq = SEQ.with(|s| match s.get() {
            Some(pinned) => pinned,
            None => self.fallback_seq.fetch_add(1, Ordering::Relaxed),
        });
        let every = self.opts.sample_every.max(1);
        if !seq.is_multiple_of(every) {
            return;
        }
        // Mirror the decision into the flight recorder's event ring (a
        // wall-clocked summary; the deterministic record below is the one
        // the bit-identity gate checks).
        crate::ring::decision_event(kind, verdict, score);
        let record = DecisionRecord {
            seq,
            trace: trace_id(self.opts.model_fnv, seq, record_id),
            record_id,
            kind: kind.to_string(),
            verdict,
            score,
            margin: score - 0.5,
            units,
            paired_units,
            top_impacts,
            model_fnv: self.opts.model_fnv,
            cost: if self.opts.include_cost { cost } else { None },
        };
        self.lock().push(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained records sorted by sequence number — the deterministic
    /// order, whatever interleaving the emitting threads ran in.
    pub fn sorted(&self) -> Vec<DecisionRecord> {
        let mut records = self.lock().clone();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// The log as JSONL (one compact object per line, sequence order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.sorted() {
            let line = serde_json::to_string(&record.to_json());
            out.push_str(&line.expect("a Value tree always prints"));
            out.push('\n');
        }
        out
    }

    /// FNV-1a checksum of [`AuditLog::to_jsonl`] — the value the smoke gate
    /// compares across kernels and thread counts.
    pub fn checksum(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }

    /// Appends the log as JSONL to `path` (created if absent, never
    /// truncated — the sink is append-only so restarts extend history).
    /// Returns the number of records written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let jsonl = self.to_jsonl();
        let n = jsonl.lines().count();
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(jsonl.as_bytes())?;
        Ok(n)
    }
}

static GLOBAL: Mutex<Option<Arc<AuditLog>>> = Mutex::new(None);

thread_local! {
    /// Per-thread audit-log override (tests, propagated worker contexts).
    static LOCAL: RefCell<Option<Arc<AuditLog>>> = const { RefCell::new(None) };
    /// Sequence number pinned by the innermost [`scope_seq`], if any.
    static SEQ: Cell<Option<u64>> = const { Cell::new(None) };
}

fn global_slot() -> Option<Arc<AuditLog>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The audit log emissions on this thread go to, if one is installed:
/// the thread-local override, else the process-wide slot.
pub fn active() -> Option<Arc<AuditLog>> {
    LOCAL.with(|l| l.borrow().clone()).or_else(global_slot)
}

/// Installs `log` as the process-wide audit log (returns the previous one).
pub fn install_global(log: Arc<AuditLog>) -> Option<Arc<AuditLog>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).replace(log)
}

/// Clears the process-wide audit log (returns it).
pub fn clear_global() -> Option<Arc<AuditLog>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// Runs `f` with `log` as this thread's audit log (restored afterwards,
/// even on panic). The test-isolation twin of [`crate::with_recorder`].
pub fn with_audit<R>(log: Arc<AuditLog>, f: impl FnOnce() -> R) -> R {
    let _restore = install_local(Some(log));
    f()
}

/// Captures this thread's override for [`crate::ObsContext`].
pub(crate) fn capture_local() -> Option<Arc<AuditLog>> {
    LOCAL.with(|l| l.borrow().clone())
}

/// RAII-installs a thread-local override (for [`crate::in_context`]).
pub(crate) fn install_local(log: Option<Arc<AuditLog>>) -> LocalRestore {
    LocalRestore(LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), log)))
}

pub(crate) struct LocalRestore(Option<Arc<AuditLog>>);

impl Drop for LocalRestore {
    fn drop(&mut self) {
        let prev = self.0.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
    }
}

/// Pins the audit sequence number for the extent of the returned guard.
/// Callers that know an item's input position (a batch loop, a `wym-par`
/// worker closure) wrap each item so emitted records order by input, not by
/// thread arrival. Nests; the previous pin is restored on drop.
#[must_use = "the pin lasts only while the guard lives"]
pub fn scope_seq(seq: u64) -> SeqScope {
    SeqScope { prev: SEQ.with(|s| s.replace(Some(seq))), _thread_bound: std::marker::PhantomData }
}

/// Guard of [`scope_seq`].
pub struct SeqScope {
    prev: Option<u64>,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl Drop for SeqScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        SEQ.with(|s| s.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_plain(log: &AuditLog, seq: u64, record_id: u64, score: f32) {
        let _pin = scope_seq(seq);
        log.emit(KIND_CLASSIFY, record_id, score >= 0.5, score, 4, 2, Vec::new(), None);
    }

    #[test]
    fn records_sort_by_sequence_not_arrival() {
        let log = AuditLog::new(AuditOptions::default());
        for seq in [3u64, 0, 2, 1] {
            emit_plain(&log, seq, 100 + seq, 0.9);
        }
        let seqs: Vec<u64> = log.sorted().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // The JSONL checksum is therefore arrival-order independent.
        let twin = AuditLog::new(AuditOptions::default());
        for seq in [0u64, 1, 2, 3] {
            emit_plain(&twin, seq, 100 + seq, 0.9);
        }
        assert_eq!(log.checksum(), twin.checksum());
    }

    #[test]
    fn modular_sampling_keeps_the_same_decisions_every_run() {
        let log = AuditLog::new(AuditOptions { sample_every: 3, ..AuditOptions::default() });
        for seq in 0..10u64 {
            emit_plain(&log, seq, seq, 0.7);
        }
        let seqs: Vec<u64> = log.sorted().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 3, 6, 9]);
        // sample_every 0 behaves as 1 (keep everything) instead of
        // dividing by zero.
        let all = AuditLog::new(AuditOptions { sample_every: 0, ..AuditOptions::default() });
        emit_plain(&all, 5, 5, 0.7);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn margin_and_trace_are_derived_deterministically() {
        let opts = AuditOptions { model_fnv: 0xabcd, ..AuditOptions::default() };
        let log = AuditLog::new(opts);
        {
            let _pin = scope_seq(7);
            log.emit(KIND_EXPLAIN, 42, true, 0.75, 6, 3, vec![("title".into(), 1.5)], None);
        }
        let rec = &log.sorted()[0];
        assert_eq!(rec.margin, 0.75f32 - 0.5f32);
        assert_eq!(rec.trace, trace_id(0xabcd, 7, 42));
        assert_eq!(rec.model_fnv, 0xabcd);
        let line = serde_json::to_string(&rec.to_json()).unwrap();
        for needle in ["\"seq\":7", "\"kind\":\"explain\"", "\"attribute\":\"title\""] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(!line.contains("cost"), "cost must be absent unless opted in");
    }

    #[test]
    fn cost_is_dropped_unless_opted_in() {
        let cost = DecisionCost { wall_ns: 123, alloc_bytes: 456 };
        let off = AuditLog::new(AuditOptions::default());
        {
            let _pin = scope_seq(0);
            off.emit(KIND_CLASSIFY, 1, true, 0.9, 1, 1, Vec::new(), Some(cost.clone()));
        }
        assert_eq!(off.sorted()[0].cost, None);
        let on = AuditLog::new(AuditOptions { include_cost: true, ..AuditOptions::default() });
        {
            let _pin = scope_seq(0);
            on.emit(KIND_CLASSIFY, 1, true, 0.9, 1, 1, Vec::new(), Some(cost.clone()));
        }
        assert_eq!(on.sorted()[0].cost, Some(cost));
    }

    #[test]
    fn fallback_sequence_counts_arrivals() {
        let log = AuditLog::new(AuditOptions::default());
        log.emit(KIND_CLASSIFY, 10, true, 0.9, 1, 1, Vec::new(), None);
        log.emit(KIND_CLASSIFY, 11, false, 0.1, 1, 0, Vec::new(), None);
        let seqs: Vec<u64> = log.sorted().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn with_audit_scopes_the_active_log() {
        assert!(active().is_none() || global_slot().is_some());
        let log = Arc::new(AuditLog::new(AuditOptions::default()));
        with_audit(Arc::clone(&log), || {
            assert!(active().is_some());
            active().unwrap().emit(KIND_CLASSIFY, 1, true, 0.8, 1, 1, Vec::new(), None);
        });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn write_jsonl_appends_rather_than_truncates() {
        let dir = std::env::temp_dir().join(format!("wym_audit_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = AuditLog::new(AuditOptions::default());
        emit_plain(&log, 0, 0, 0.6);
        log.write_jsonl(&path).unwrap();
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "second write must append");
        let _ = std::fs::remove_file(&path);
    }
}
