//! Prometheus text-format exposition.
//!
//! [`prometheus_text`] renders a [`Snapshot`] in the Prometheus text
//! exposition format (version 0.0.4) — the lingua franca every scraper,
//! agent, and dashboard already speaks — so a resident WYM process only
//! needs to serve this string on an HTTP endpoint to be monitorable.
//!
//! Mapping:
//!
//! * counters → `wym_<name>_total` (type `counter`);
//! * gauges → `wym_<name>` (type `gauge`);
//! * histograms → `wym_<name>_bucket{le="…"}` with cumulative counts and
//!   the canonical `le="+Inf"` terminal, plus `_sum` / `_count`;
//! * spans → `wym_span_seconds_sum{path="…"}` / `wym_span_seconds_count`
//!   (wall time converted to seconds, the Prometheus base unit);
//! * memory (when profiled) → `wym_mem_live_bytes` / `wym_mem_peak_bytes`.
//!
//! Metric names sanitize to `[a-zA-Z0-9_]` (dots become underscores);
//! label values escape backslash, quote, and newline per the format spec.
//! Output order follows the snapshot's sorted maps, so the exposition is
//! deterministic like every other serialization in this crate.

use crate::recorder::Snapshot;

/// Renders `snap` in the Prometheus text exposition format.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();

    for (name, v) in &snap.counters {
        let metric = format!("wym_{}_total", sanitize(name));
        type_line(&mut out, &metric, "counter");
        out.push_str(&format!("{metric} {v}\n"));
    }

    for (name, v) in &snap.gauges {
        let metric = format!("wym_{}", sanitize(name));
        type_line(&mut out, &metric, "gauge");
        out.push_str(&format!("{metric} {}\n", fmt_f64(*v)));
    }

    for (name, h) in &snap.histograms {
        let metric = format!("wym_{}", sanitize(name));
        type_line(&mut out, &metric, "histogram");
        let mut cum = 0u64;
        for (i, &c) in h.counts().iter().enumerate() {
            cum += c;
            let le = if i < h.bounds().len() {
                fmt_f64(h.bounds()[i])
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!("{metric}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!("{metric}_sum {}\n", fmt_f64(h.sum())));
        out.push_str(&format!("{metric}_count {}\n", h.count()));
    }

    if !snap.spans.is_empty() {
        type_line(&mut out, "wym_span_seconds", "summary");
        for s in &snap.spans {
            let path = escape_label(&s.path);
            out.push_str(&format!(
                "wym_span_seconds_sum{{path=\"{path}\"}} {}\n",
                fmt_f64(s.total_ns as f64 / 1e9)
            ));
            out.push_str(&format!(
                "wym_span_seconds_count{{path=\"{path}\"}} {}\n",
                s.count
            ));
        }
    }

    if let Some(mem) = &snap.memory {
        type_line(&mut out, "wym_mem_live_bytes", "gauge");
        out.push_str(&format!("wym_mem_live_bytes {}\n", mem.live_bytes));
        type_line(&mut out, "wym_mem_peak_bytes", "gauge");
        out.push_str(&format!("wym_mem_peak_bytes {}\n", mem.peak_live_bytes));
    }

    out
}

fn type_line(out: &mut String, metric: &str, kind: &str) {
    out.push_str(&format!("# TYPE {metric} {kind}\n"));
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; we map everything else
/// (dots, dashes, slashes) to `_` and prefix a leading digit.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Label-value escaping per the text-format spec.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus accepts the usual float spellings; reuse the workspace's
/// shortest-exact JSON rendering for consistency, special-casing the
/// infinities and NaN it cannot carry.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        serde_json::to_string(&v).expect("a finite float always prints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::new_enabled();
        rec.counter_add("classify.records", 42);
        rec.counter_add("obs.drift.trips", 1);
        rec.gauge_set("obs.drift.score.psi", 0.25);
        rec.hist_observe("decision.margin", Some(&[0.1, 0.25]), 0.05);
        rec.hist_observe("decision.margin", Some(&[0.1, 0.25]), 0.3);
        rec.snapshot()
    }

    #[test]
    fn counters_become_totals_and_names_sanitize() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE wym_classify_records_total counter"), "{text}");
        assert!(text.contains("wym_classify_records_total 42\n"));
        assert!(text.contains("wym_obs_drift_trips_total 1\n"));
        assert!(text.contains("wym_obs_drift_score_psi 0.25\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf_terminal() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("wym_decision_margin_bucket{le=\"0.1\"} 1\n"), "{text}");
        assert!(text.contains("wym_decision_margin_bucket{le=\"0.25\"} 1\n"));
        assert!(text.contains("wym_decision_margin_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("wym_decision_margin_count 2\n"));
    }

    #[test]
    fn spans_export_seconds_with_escaped_path_labels() {
        let mut snap = sample_snapshot();
        snap.spans.push(crate::recorder::SpanStat {
            path: "fit/score\"q\"".to_string(),
            count: 2,
            total_ns: 1_500_000_000,
            min_ns: 0,
            max_ns: 0,
            mem: None,
        });
        let text = prometheus_text(&snap);
        assert!(text.contains("wym_span_seconds_sum{path=\"fit/score\\\"q\\\"\"} 1.5\n"), "{text}");
        assert!(text.contains("wym_span_seconds_count{path=\"fit/score\\\"q\\\"\"} 2\n"));
    }

    #[test]
    fn leading_digit_names_get_prefixed() {
        assert_eq!(sanitize("2pass.rate"), "_2pass_rate");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(prometheus_text(&Snapshot::default()), "");
    }
}
