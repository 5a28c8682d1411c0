//! A `wym-par` worker panic must still produce a parseable flight dump
//! containing the panicking span: the post-mortem guarantee the flight
//! recorder exists for, exercised through the real worker machinery
//! (scoped threads, context propagation, catch/re-raise) without relying
//! on the process-global panic hook.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wym_obs::ring::{self, EventKind, Flight};
use wym_obs::Recorder;
use wym_par::map_indexed;

#[test]
fn worker_panic_leaves_a_parseable_dump_with_the_panicking_span() {
    let rec = Arc::new(Recorder::new_enabled());
    let flight = Arc::new(Flight::new_enabled(1024));
    let items: Vec<u32> = (0..16).collect();

    let result = wym_obs::with_recorder(Arc::clone(&rec), || {
        ring::with_flight(Arc::clone(&flight), || {
            catch_unwind(AssertUnwindSafe(|| {
                map_indexed(&items, 4, |i, &x| {
                    let _s = wym_obs::span("panicky_work");
                    if i == 7 {
                        panic!("poisoned record");
                    }
                    x + 1
                })
            }))
        })
    });
    assert!(result.is_err(), "the worker panic must re-raise on the caller");

    // The dump is taken *after* the panic — exactly what the panic hook
    // does — and must still be complete and serializable.
    let dump = flight.dump("test: worker panic");
    let all_events: Vec<_> = dump.threads.iter().flat_map(|t| t.events.iter()).collect();
    assert!(
        all_events.iter().any(|e| e.kind == EventKind::Enter && e.name == "panicky_work"),
        "the panicking span must appear in the dump"
    );
    assert!(
        all_events
            .iter()
            .any(|e| e.kind == EventKind::Mark && e.name == "par.worker_panic item 7"),
        "the worker panic mark must name the failing item; events: {:?}",
        all_events.iter().map(|e| &e.name).collect::<Vec<_>>()
    );

    // Chrome trace round trip: written JSON parses and names the span.
    let dir = std::env::temp_dir().join(format!("wym_par_flight_{}", std::process::id()));
    let (_txt, json_path) =
        wym_obs::chrome::write_dump_files(dir.to_str().unwrap(), "par", "panic", &dump)
            .expect("dump files written");
    let text = std::fs::read_to_string(&json_path).unwrap();
    let summary = wym_obs::chrome::summarize_file(std::path::Path::new(&json_path))
        .expect("trace JSON must parse and summarize");
    assert!(text.contains("panicky_work"));
    assert!(summary.contains("par.worker_panic item 7"), "summary:\n{summary}");
    let _ = std::fs::remove_dir_all(&dir);

    // The aggregate side still recorded the panic counter.
    assert_eq!(rec.snapshot().counter("par.worker_panics"), Some(1));
}

#[test]
fn sequential_fallback_panic_also_marks_the_flight() {
    let flight = Arc::new(Flight::new_enabled(256));
    let items: Vec<u32> = (0..3).collect();
    let result = ring::with_flight(Arc::clone(&flight), || {
        catch_unwind(AssertUnwindSafe(|| {
            map_indexed(&items, 1, |i, &x| {
                if i == 1 {
                    panic!("seq boom");
                }
                x
            })
        }))
    });
    assert!(result.is_err());
    let dump = flight.dump("test");
    assert!(dump
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .any(|e| e.kind == EventKind::Mark && e.name == "par.worker_panic item 1"));
}
