//! Deterministic work-stealing parallelism for the WYM pipeline.
//!
//! The one primitive everything builds on is [`map_indexed`]: a parallel
//! map over a slice whose output is **identical to the sequential map for
//! any thread count**. Workers claim items one at a time from a shared
//! atomic counter (work stealing), so a few expensive records — common with
//! skewed entity descriptions — cannot straggle a whole pre-assigned chunk
//! the way static chunking does. Each worker keeps `(index, result)` pairs
//! locally; after the scope joins, results are merged into their input
//! positions. No locks, no channels, no ordering sensitivity.
//!
//! Workers run under the caller's observability context (`wym_obs::capture`
//! / `in_context`), so spans opened inside `f` aggregate beneath the span
//! that was open when `map_indexed` was called instead of becoming orphan
//! roots — totals stay deterministic for any thread count.
//!
//! A panic inside `f` aborts the map (other workers stop claiming items)
//! and is re-raised on the calling thread with the index of the failing
//! item, so a poisoned record is identifiable instead of surfacing as an
//! anonymous `worker thread panicked`. Panics are also counted on the
//! `par.worker_panics` obs counter and stamped into the flight recorder
//! (`wym_obs::ring`) as a `par.worker_panic item {i}` mark before the
//! worker's ring is last touched, so a post-mortem dump names the failing
//! item even when the enriched panic message is lost. The flight override
//! itself rides in the captured `ObsContext`, so worker events land in the
//! caller's rings for any thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads implied by a configured thread count:
/// `0` means "use all available cores", anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        configured
    }
}

/// Wraps a panic payload with the index of the item whose closure panicked.
fn panic_with_index(i: usize, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    panic!("wym-par worker panicked on item {i}: {msg}");
}

/// Maps `f` over `items` on `n_threads` workers, returning results in input
/// order. Output is identical to `items.iter().enumerate().map(f)` for any
/// thread count; `n_threads` of 0 or 1 (or tiny inputs) run sequentially.
///
/// # Panics
/// If `f` panics for some item, the panic is re-raised on the calling
/// thread as `wym-par worker panicked on item {i}: {message}`. When several
/// items panic concurrently, the first panic observed wins.
pub fn map_indexed<T, R, F>(items: &[T], n_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n_threads = resolve_threads(n_threads).min(items.len().max(1));
    if n_threads <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => r,
                Err(payload) => {
                    wym_obs::ring::mark(&format!("par.worker_panic item {i}"));
                    wym_obs::counter_add("par.worker_panics", 1);
                    panic_with_index(i, payload);
                }
            })
            .collect();
    }

    let ctx = wym_obs::capture();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // The first panic wins: (item index, payload) parked here and re-raised
    // on the calling thread after the scope joins.
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    wym_obs::in_context(&ctx, || {
                        let mut local = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                                Ok(r) => local.push((i, r)),
                                Err(payload) => {
                                    abort.store(true, Ordering::Relaxed);
                                    wym_obs::ring::mark(&format!("par.worker_panic item {i}"));
                                    wym_obs::counter_add("par.worker_panics", 1);
                                    let mut slot =
                                        first_panic.lock().unwrap_or_else(|e| e.into_inner());
                                    if slot.is_none() {
                                        *slot = Some((i, payload));
                                    }
                                    break;
                                }
                            }
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked outside the item closure"))
            .collect()
    });

    if let Some((i, payload)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        // Preserve &str/String payloads in the enriched message; anything
        // else propagates unchanged.
        if payload.is::<&str>() || payload.is::<String>() {
            panic_with_index(i, payload);
        }
        resume_unwind(payload);
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for chunk in per_worker {
        for (i, r) in chunk {
            debug_assert!(slots[i].is_none(), "item {i} claimed twice");
            slots[i] = Some(r);
        }
    }
    slots.into_iter().map(|s| s.expect("every item claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in 0..=8 {
            let got = map_indexed(&items, threads, |_, x| x * x + 1);
            assert_eq!(got, expected, "thread count {threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = map_indexed(&items, 3, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn skewed_workloads_complete() {
        // One item 1000× more expensive than the rest: work stealing keeps
        // the other workers busy instead of idling behind a static chunk.
        let items: Vec<usize> = (0..64).collect();
        let got = map_indexed(&items, 4, |_, &x| {
            let reps = if x == 0 { 100_000 } else { 100 };
            (0..reps).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        });
        assert_eq!(got.len(), items.len());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert_eq!(map_indexed(&empty, 4, |_, x| *x), Vec::<u32>::new());
        assert_eq!(map_indexed(&[9u32], 4, |_, x| *x), vec![9]);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn panic_propagates_with_item_index_parallel() {
        let items: Vec<u32> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 4, |_, &x| {
                if x == 13 {
                    panic!("bad record");
                }
                x
            })
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("item 13") && msg.contains("bad record"),
            "panic message must name the failing item: {msg}"
        );
    }

    #[test]
    fn panic_propagates_with_item_index_sequential() {
        let items: Vec<u32> = (0..4).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 1, |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("item 2") && msg.contains("boom"), "{msg}");
    }

    #[test]
    fn panic_increments_obs_counter() {
        let rec = Arc::new(wym_obs::Recorder::new_enabled());
        wym_obs::with_recorder(Arc::clone(&rec), || {
            let items: Vec<u32> = (0..2).collect();
            let _ = catch_unwind(AssertUnwindSafe(|| {
                map_indexed(&items, 1, |_, _| panic!("x"))
            }));
        });
        assert_eq!(rec.snapshot().counter("par.worker_panics"), Some(1));
    }

    #[test]
    fn worker_spans_aggregate_under_callers_span_deterministically() {
        // Span *totals* must be identical for any thread count: every item
        // contributes exactly one `outer/item` span under the caller's path.
        for threads in [1, 2, 4, 7] {
            let rec = Arc::new(wym_obs::Recorder::new_enabled());
            wym_obs::with_recorder(Arc::clone(&rec), || {
                let _outer = wym_obs::span("outer");
                let items: Vec<u32> = (0..50).collect();
                let got = map_indexed(&items, threads, |_, &x| {
                    let _s = wym_obs::span("item");
                    wym_obs::counter_add("items_seen", 1);
                    x + 1
                });
                assert_eq!(got.len(), 50);
            });
            let snap = rec.snapshot();
            assert_eq!(snap.span_count("outer/item"), 50, "thread count {threads}");
            assert_eq!(snap.counter("items_seen"), Some(50), "thread count {threads}");
            assert_eq!(
                snap.spans.iter().filter(|s| s.path.contains("item")).count(),
                1,
                "no orphan-root item spans for thread count {threads}: {:?}",
                snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
            );
        }
    }
}
