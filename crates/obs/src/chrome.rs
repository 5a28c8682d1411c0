//! Chrome trace-event export and flight-dump summarization.
//!
//! A [`FlightDump`] (see [`crate::ring`]) serializes two ways:
//!
//! - **Text** ([`render_text`]) — the human-readable post-mortem: per-lane
//!   event tails, spans open at capture, drop counts.
//! - **Chrome trace-event JSON** ([`to_chrome_json`]) — the object format
//!   of the [Trace Event spec] that `chrome://tracing` and Perfetto load
//!   directly: `B`/`E` duration events per span, `C` counter samples, `i`
//!   instants for decisions and marks, and `M` metadata naming each lane.
//!   Timestamps are microseconds since the flight epoch; dump provenance
//!   (reason, capture wall time, open spans whose `B` may have been
//!   evicted) rides in the top-level `metadata` object.
//!
//! [`summarize`] is the reader side: `wym obs flight <dump>` parses a
//! written trace back with `serde_json` and prints the tail summary, so a
//! dump is useful even without a trace viewer at hand.
//!
//! Dumps carry wall-clock timestamps and are inherently nondeterministic —
//! they are never written into `obs_diff`-checked snapshots, and
//! `FLIGHT_*` artifacts are not baseline-managed.
//!
//! [Trace Event spec]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::ring::{EventKind, FlightDump};
use serde::{Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How many trailing events per lane the summaries show.
const TAIL_EVENTS: usize = 8;
/// How many trailing decision events the summaries show.
const TAIL_DECISIONS: usize = 5;

fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Enter => "B",
        EventKind::Exit => "E",
        EventKind::Counter => "C",
        EventKind::Decision | EventKind::Mark => "i",
    }
}

/// Microseconds since the flight epoch, the trace-event time unit.
fn ts_us(ts_ns: u64) -> Value {
    (ts_ns as f64 / 1000.0).to_value()
}

/// The dump as a Chrome trace-event JSON object
/// (`{"traceEvents": [...], "metadata": {...}}`).
pub fn to_chrome_json(dump: &FlightDump) -> Value {
    let mut events = Vec::new();
    let mut thread_meta = Vec::new();
    for t in &dump.threads {
        events.push(Value::object([
            ("name", "thread_name".to_value()),
            ("ph", "M".to_value()),
            ("pid", 1u64.to_value()),
            ("tid", t.tid.to_value()),
            ("args", Value::object([("name", format!("lane {} [{}]", t.tid, t.label).to_value())])),
        ]));
        for e in &t.events {
            let mut fields = vec![
                ("name", e.name.to_value()),
                ("ph", phase(e.kind).to_value()),
                ("pid", 1u64.to_value()),
                ("tid", t.tid.to_value()),
                ("ts", ts_us(e.ts_ns)),
            ];
            let arg = |key: &str| Value::object([(key, e.value.to_value())]);
            match e.kind {
                EventKind::Enter => {}
                EventKind::Exit => fields.push(("args", arg("dur_ns"))),
                EventKind::Counter => fields.push(("args", arg("value"))),
                EventKind::Decision => {
                    fields.push(("s", "t".to_value()));
                    fields.push(("args", arg("score")));
                }
                EventKind::Mark => fields.push(("s", "t".to_value())),
            }
            events.push(Value::object(fields));
        }
        let open = t.open.iter().map(|o| {
            Value::object([
                ("name", o.name.to_value()),
                ("ts", ts_us(o.ts_ns)),
                ("open_ms", o.open_ms.to_value()),
            ])
        });
        thread_meta.push(Value::object([
            ("tid", t.tid.to_value()),
            ("label", t.label.to_value()),
            ("events", t.events.len().to_value()),
            ("dropped", t.dropped.to_value()),
            ("open", Value::Array(open.collect())),
        ]));
    }
    Value::object([
        ("displayTimeUnit", "ms".to_value()),
        ("traceEvents", Value::Array(events)),
        (
            "metadata",
            Value::object([
                ("tool", "wym-obs flight recorder".to_value()),
                ("reason", dump.reason.to_value()),
                ("captured_unix_ms", dump.captured_unix_ms.to_value()),
                ("captured_ts_us", ts_us(dump.captured_ts_ns)),
                ("ring_capacity", dump.capacity.to_value()),
                ("threads", Value::Array(thread_meta)),
            ]),
        ),
    ])
}

fn fmt_ts_ms(ts_ns: u64) -> String {
    format!("{:>12.3}ms", ts_ns as f64 / 1e6)
}

fn fmt_event(e: &crate::ring::Event) -> String {
    let detail = match e.kind {
        EventKind::Enter => String::new(),
        EventKind::Exit => format!("  ({:.3}ms)", e.value / 1e6),
        EventKind::Counter => format!("  +{}", e.value),
        EventKind::Decision => format!("  score={:.4}", e.value),
        EventKind::Mark => String::new(),
    };
    format!("{} {:>8}  {}{}", fmt_ts_ms(e.ts_ns), e.kind.as_str(), e.name, detail)
}

/// The dump as a human-readable post-mortem report.
pub fn render_text(dump: &FlightDump) -> String {
    let mut out = String::new();
    out.push_str("── flight dump ───────────────────────────────────────\n");
    out.push_str(&format!("reason:    {}\n", dump.reason));
    out.push_str(&format!(
        "captured:  unix {} ms, {:.3} ms after flight start\n",
        dump.captured_unix_ms,
        dump.captured_ts_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "lanes:     {} (ring capacity {} events each)\n",
        dump.threads.len(),
        dump.capacity
    ));
    for t in &dump.threads {
        out.push_str(&format!(
            "\nlane {} [{}] — {} events retained, {} dropped\n",
            t.tid,
            t.label,
            t.events.len(),
            t.dropped
        ));
        if !t.open.is_empty() {
            out.push_str("  open at capture (outermost first):\n");
            for o in &t.open {
                out.push_str(&format!(
                    "    {}  open {} ms (entered {})\n",
                    o.name,
                    o.open_ms,
                    fmt_ts_ms(o.ts_ns).trim_start()
                ));
            }
        }
        let tail = t.events.len().saturating_sub(TAIL_EVENTS);
        if tail > 0 {
            out.push_str(&format!("  … {tail} earlier events retained in the trace\n"));
        }
        for e in &t.events[tail..] {
            out.push_str(&format!("  {}\n", fmt_event(e)));
        }
    }
    let mut decisions: Vec<(u64, String)> = dump
        .threads
        .iter()
        .flat_map(|t| {
            t.events
                .iter()
                .filter(|e| e.kind == EventKind::Decision)
                .map(|e| (e.ts_ns, fmt_event(e)))
        })
        .collect();
    decisions.sort_by_key(|(ts, _)| *ts);
    if !decisions.is_empty() {
        out.push_str(&format!("\ndecision tail (last {TAIL_DECISIONS}):\n"));
        for (_, line) in decisions.iter().rev().take(TAIL_DECISIONS).rev() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

/// Writes the dump as `FLIGHT_<stem>_<tag>.txt` and
/// `FLIGHT_<stem>_<tag>.trace.json` under `dir` (created if absent).
/// Returns the two paths. Used by the panic hook and stall watchdog;
/// `FLIGHT_*` artifacts are nondeterministic and never baseline-managed.
pub fn write_dump_files(
    dir: &str,
    stem: &str,
    tag: &str,
    dump: &FlightDump,
) -> std::io::Result<(String, String)> {
    std::fs::create_dir_all(dir)?;
    let txt_path = PathBuf::from(dir).join(format!("FLIGHT_{stem}_{tag}.txt"));
    let json_path = PathBuf::from(dir).join(format!("FLIGHT_{stem}_{tag}.trace.json"));
    std::fs::File::create(&txt_path)?.write_all(render_text(dump).as_bytes())?;
    write_chrome_file(&json_path, dump)?;
    Ok((txt_path.display().to_string(), json_path.display().to_string()))
}

/// Writes the dump as Chrome trace-event JSON to `path`. Returns the
/// number of trace events written (including lane-name metadata events).
pub fn write_chrome_file(path: &Path, dump: &FlightDump) -> std::io::Result<usize> {
    let trace = to_chrome_json(dump);
    let n = match trace.get("traceEvents") {
        Some(Value::Array(events)) => events.len(),
        _ => 0,
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::File::create(path)?.write_all(crate::pretty_json(&trace).as_bytes())?;
    Ok(n)
}

// ── Summarization (the `wym obs flight` reader) ─────────────────────────

/// Summarizes a parsed Chrome trace written by this module: dump
/// provenance, last events per lane, spans open at capture, and the
/// decision tail. Errors describe what made the input unreadable.
pub fn summarize(trace: &Value) -> Result<String, String> {
    let events = match trace.get("traceEvents") {
        Some(Value::Array(events)) => events,
        _ => return Err("no traceEvents array — not a Chrome trace-event file".to_string()),
    };
    let meta = trace.get("metadata");
    let mut out = String::new();
    out.push_str("── flight dump summary ───────────────────────────────\n");
    if let Some(meta) = meta {
        if let Some(reason) = meta.get("reason").and_then(Value::as_str) {
            out.push_str(&format!("reason:    {reason}\n"));
        }
        if let Some(ms) = meta.get("captured_unix_ms").and_then(Value::as_u64) {
            out.push_str(&format!("captured:  unix {ms} ms\n"));
        }
        if let Some(cap) = meta.get("ring_capacity").and_then(Value::as_u64) {
            out.push_str(&format!("capacity:  {cap} events per lane\n"));
        }
    }
    out.push_str(&format!("trace:     {} events\n", events.len()));

    // Lane labels from M metadata events; real events grouped per lane.
    let mut lanes: Vec<(u64, String, Vec<&Value>)> = Vec::new();
    for e in events {
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let lane = match lanes.iter_mut().find(|(t, _, _)| *t == tid) {
            Some(lane) => lane,
            None => {
                lanes.push((tid, format!("lane {tid}"), Vec::new()));
                lanes.last_mut().expect("just pushed")
            }
        };
        if ph == "M" {
            if let Some(name) =
                e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str)
            {
                lane.1 = name.to_string();
            }
        } else {
            lane.2.push(e);
        }
    }
    lanes.sort_by_key(|(tid, _, _)| *tid);

    for (tid, label, lane_events) in &lanes {
        out.push_str(&format!("\n{label} — {} events\n", lane_events.len()));
        if let Some(meta) = meta {
            let lane_meta = match meta.get("threads") {
                Some(Value::Array(threads)) => threads
                    .iter()
                    .find(|t| t.get("tid").and_then(Value::as_u64) == Some(*tid)),
                _ => None,
            };
            if let Some(lm) = lane_meta {
                if let Some(dropped) = lm.get("dropped").and_then(Value::as_u64) {
                    if dropped > 0 {
                        out.push_str(&format!("  dropped:  {dropped} evicted events\n"));
                    }
                }
                if let Some(Value::Array(open)) = lm.get("open") {
                    if !open.is_empty() {
                        out.push_str("  open at capture:\n");
                        for o in open {
                            let name = o.get("name").and_then(Value::as_str).unwrap_or("?");
                            let open_ms = o.get("open_ms").and_then(Value::as_u64).unwrap_or(0);
                            out.push_str(&format!("    {name}  open {open_ms} ms\n"));
                        }
                    }
                }
            }
        }
        let tail = lane_events.len().saturating_sub(TAIL_EVENTS);
        out.push_str(&format!("  last {} events:\n", lane_events.len() - tail));
        for e in &lane_events[tail..] {
            let name = e.get("name").and_then(Value::as_str).unwrap_or("?");
            let ph = e.get("ph").and_then(Value::as_str).unwrap_or("?");
            let ts = e.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!("    {:>12.3}ms {ph} {name}\n", ts / 1000.0));
        }
    }

    let mut decisions: Vec<(f64, String)> = lanes
        .iter()
        .flat_map(|(_, _, lane_events)| lane_events.iter())
        .filter_map(|e| {
            let name = e.get("name").and_then(Value::as_str)?;
            if !name.starts_with("decision.") {
                return None;
            }
            let ts = e.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            let score = e.get("args")
                .and_then(|a| a.get("score"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            Some((ts, format!("{:>12.3}ms {name}  score={score:.4}", ts / 1000.0)))
        })
        .collect();
    decisions.sort_by(|a, b| a.0.total_cmp(&b.0));
    if !decisions.is_empty() {
        out.push_str(&format!("\ndecision tail (last {TAIL_DECISIONS}):\n"));
        for (_, line) in decisions.iter().rev().take(TAIL_DECISIONS).rev() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    Ok(out)
}

/// Reads and summarizes a trace file written by [`write_chrome_file`] /
/// [`write_dump_files`].
pub fn summarize_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    summarize(&trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{with_flight, Flight};
    use std::sync::Arc;

    fn sample_dump() -> FlightDump {
        let flight = Arc::new(Flight::new_enabled(64));
        with_flight(Arc::clone(&flight), || {
            let outer = crate::span("chrome_outer");
            {
                let _inner = crate::span("chrome_inner");
                crate::counter_add("chrome.counter", 7);
            }
            crate::ring::mark("chrome.marker");
            std::mem::forget(outer); // leave one span open at capture
        });
        flight.dump("test: sample")
    }

    #[test]
    fn chrome_json_has_phases_and_metadata() {
        let dump = sample_dump();
        let trace = to_chrome_json(&dump);
        let text = crate::pretty_json(&trace);
        let parsed: Value = serde_json::from_str(&text).expect("written trace must parse");
        let Some(Value::Array(events)) = parsed.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Value::as_str)).collect();
        for needed in ["M", "B", "E", "C", "i"] {
            assert!(phases.contains(&needed), "missing phase {needed} in {phases:?}");
        }
        let meta = parsed.get("metadata").expect("metadata");
        assert_eq!(meta.get("reason").and_then(Value::as_str), Some("test: sample"));
        assert!(text.contains("chrome_inner") && text.contains("thread_name"));
    }

    #[test]
    fn summarize_reports_open_spans_and_tails() {
        let dump = sample_dump();
        let summary = summarize(&to_chrome_json(&dump)).expect("summarizable");
        assert!(summary.contains("reason:    test: sample"), "summary:\n{summary}");
        assert!(summary.contains("open at capture"), "summary:\n{summary}");
        assert!(summary.contains("chrome_outer"), "summary:\n{summary}");
        assert!(summary.contains("chrome.marker"), "summary:\n{summary}");
    }

    #[test]
    fn summarize_rejects_non_trace_json() {
        let err = summarize(&Value::object([("spans", Value::Array(Vec::new()))]))
            .expect_err("not a trace");
        assert!(err.contains("traceEvents"));
    }

    #[test]
    fn dump_files_round_trip_through_summarize_file() {
        let dir = std::env::temp_dir().join(format!("wym_flight_test_{}", std::process::id()));
        let dump = sample_dump();
        let (txt, json_path) =
            write_dump_files(dir.to_str().unwrap(), "unit", "test", &dump).unwrap();
        assert!(txt.ends_with("FLIGHT_unit_test.txt"));
        let text = std::fs::read_to_string(&txt).unwrap();
        assert!(text.contains("chrome_outer") && text.contains("open at capture"));
        let summary = summarize_file(Path::new(&json_path)).expect("file summarizable");
        assert!(summary.contains("chrome_inner"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
