//! Cross-thread determinism of the decision audit log under `map_indexed`:
//! workers emit records in whatever interleaving the scheduler produces,
//! but the sequence-pinned sink must render byte-identical JSONL for any
//! thread count — and stay usable when a worker panics mid-map.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wym_obs::audit::{scope_seq, with_audit, KIND_CLASSIFY};
use wym_obs::{AuditLog, AuditOptions};
use wym_par::map_indexed;

fn emit_item(log: &AuditLog, i: usize) {
    // Pin the ambient sequence to the item index — the trace id and sort
    // order then depend only on the input position, never the scheduler.
    let _seq = scope_seq(i as u64);
    log.emit(
        KIND_CLASSIFY,
        1000 + i as u64,
        i.is_multiple_of(2),
        (i as f32 / 64.0).min(1.0),
        4,
        3,
        Vec::new(),
        None,
    );
}

#[test]
fn audit_jsonl_is_byte_identical_across_thread_counts() {
    let items: Vec<usize> = (0..64).collect();
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4, 7] {
        let log = Arc::new(AuditLog::new(AuditOptions {
            model_fnv: 0xabad1dea,
            ..Default::default()
        }));
        // The map captures the ambient obs context — including the audit
        // log — and re-installs it inside every worker.
        with_audit(Arc::clone(&log), || {
            let active = wym_obs::audit::active().expect("log installed");
            map_indexed(&items, threads, |i, _| emit_item(&active, i));
        });
        assert_eq!(log.len(), items.len(), "thread count {threads}");
        outputs.push((threads, log.to_jsonl(), log.checksum()));
    }
    let (_, ref baseline, baseline_sum) = outputs[0];
    for (threads, jsonl, sum) in &outputs {
        assert_eq!(jsonl, baseline, "thread count {threads} reordered the log");
        assert_eq!(*sum, baseline_sum, "thread count {threads} checksum");
    }
}

#[test]
fn workers_see_the_callers_audit_log_through_context_propagation() {
    // The worker closure asks for the *ambient* log itself (as the real
    // pipeline does) instead of capturing an Arc — this only works if
    // `map_indexed` propagates the audit slot with the obs context.
    let log = Arc::new(AuditLog::new(AuditOptions::default()));
    let items: Vec<usize> = (0..16).collect();
    with_audit(Arc::clone(&log), || {
        map_indexed(&items, 4, |i, _| {
            let ambient = wym_obs::audit::active().expect("context must carry the log");
            emit_item(&ambient, i);
        });
    });
    let seqs: Vec<u64> = log.sorted().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..16).collect::<Vec<u64>>());
}

#[test]
fn worker_panic_leaves_the_log_sorted_and_usable() {
    let log = Arc::new(AuditLog::new(AuditOptions::default()));
    let items: Vec<usize> = (0..64).collect();
    let result = with_audit(Arc::clone(&log), || {
        catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 4, |i, _| {
                let ambient = wym_obs::audit::active().expect("log installed");
                emit_item(&ambient, i);
                if i == 20 {
                    panic!("poisoned record");
                }
            })
        }))
    });
    assert!(result.is_err(), "the map must re-raise the worker panic");
    // Which items ran before the abort is scheduling-dependent, but every
    // record that made it in is complete and the sink still sorts, renders,
    // and checksums — a panicking worker cannot wedge the audit trail.
    let records = log.sorted();
    assert!(!records.is_empty(), "item 20 itself emitted before panicking");
    assert!(records.windows(2).all(|w| w[0].seq < w[1].seq), "strictly ordered");
    for r in &records {
        assert_eq!(r.record_id, 1000 + r.seq);
    }
    assert_eq!(log.to_jsonl().lines().count(), records.len());
    let _ = log.checksum();
}
