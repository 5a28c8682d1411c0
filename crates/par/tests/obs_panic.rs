//! Observability-context behaviour of `map_indexed` when workers panic,
//! with the tracking allocator really installed: a dying worker must not
//! leak its memory charge target onto the caller, and nothing — spans,
//! counters, or bytes — may be double-counted while the map aborts.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wym_obs::Recorder;
use wym_par::map_indexed;

wym_obs::install_tracking_alloc!();

/// Allocates and frees `n` heap bytes the optimizer can't elide.
fn churn(n: usize) {
    let v: Vec<u8> = black_box(vec![0x5Au8; n]);
    drop(black_box(v));
}

#[test]
fn worker_panic_keeps_memory_attribution_consistent() {
    wym_obs::prof::set_enabled(true);
    let rec = Arc::new(Recorder::new_enabled());
    wym_obs::with_recorder(Arc::clone(&rec), || {
        let _outer = wym_obs::span("outer");
        let items: Vec<u32> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 4, |_, &x| {
                churn(10_000); // charged to outer through the captured context
                if x == 7 {
                    panic!("poisoned record");
                }
                x
            })
        }));
        assert!(result.is_err(), "the map must re-raise the worker panic");
        // The caller's charge target survives the aborted map: allocations
        // made after it still land on `outer`, not on `(unattributed)`.
        churn(123_456);
    });
    let snap = rec.snapshot();
    assert_eq!(snap.span_count("outer"), 1, "outer span recorded exactly once");
    let outer_mem = snap
        .spans
        .iter()
        .find(|s| s.path == "outer")
        .and_then(|s| s.mem)
        .expect("outer carries memory attribution");
    assert!(
        outer_mem.alloc_bytes >= 123_456,
        "post-panic allocation missing from outer: {}B",
        outer_mem.alloc_bytes
    );
    assert_eq!(snap.counter("par.worker_panics"), Some(1), "one panic, counted once");
}

#[test]
fn aborted_map_never_double_counts_spans_or_counters() {
    wym_obs::prof::set_enabled(true);
    let rec = Arc::new(Recorder::new_enabled());
    wym_obs::with_recorder(Arc::clone(&rec), || {
        let _outer = wym_obs::span("outer");
        let items: Vec<u32> = (0..64).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 4, |_, &x| {
                let _s = wym_obs::span("item");
                wym_obs::counter_add("items_entered", 1);
                if x == 20 {
                    panic!("boom");
                }
                x
            })
        }));
    });
    let snap = rec.snapshot();
    // How many items ran before the abort is scheduling-dependent, but the
    // span count and the counter must agree exactly — each entered item
    // recorded once, including the panicking one (its guard drops during
    // unwind), and none twice.
    let entered = snap.counter("items_entered").expect("some items ran");
    assert_eq!(snap.span_count("outer/item"), entered, "span/counter mismatch");
    assert!((1..=64).contains(&entered));
    assert_eq!(
        snap.spans.iter().filter(|s| s.path.contains("item")).count(),
        1,
        "no orphan-root item spans: {:?}",
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
}

#[test]
fn worker_allocations_aggregate_deterministically_across_thread_counts() {
    wym_obs::prof::set_enabled(true);
    // Fixed per-item allocation: the bytes charged to the caller's span
    // must cover items × size for every thread count (exact equality is
    // impossible process-wide — the runtime allocates too — but the lower
    // bound pins that no worker's traffic was dropped).
    for threads in [1, 2, 4] {
        let rec = Arc::new(Recorder::new_enabled());
        wym_obs::with_recorder(Arc::clone(&rec), || {
            let _outer = wym_obs::span("outer");
            let items: Vec<u32> = (0..20).collect();
            let got = map_indexed(&items, threads, |_, &x| {
                churn(50_000);
                x
            });
            assert_eq!(got.len(), 20);
        });
        let snap = rec.snapshot();
        let mem = snap
            .spans
            .iter()
            .find(|s| s.path == "outer")
            .and_then(|s| s.mem)
            .expect("outer carries memory attribution");
        assert!(
            mem.alloc_bytes >= 20 * 50_000,
            "thread count {threads}: only {}B attributed",
            mem.alloc_bytes
        );
    }
}
