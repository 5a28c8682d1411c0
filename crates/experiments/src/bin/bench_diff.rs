//! `bench_diff` — timing-regression sentinel with report, warn, and gate
//! modes.
//!
//! Compares the most recent `BENCH_timing.json` rows against the previous
//! run recorded in `BENCH_history.jsonl` (same source, same dataset) and
//! prints a per-stage table of relative wall-time changes. Because timings
//! are machine- and load-dependent, a fixed tolerance is always wrong on
//! some box — so each stage's tolerance is *learned from the ledger*:
//! twice the median run-to-run relative change observed across that
//! dataset's recent history, floored by `--rel`. A noisy stage earns a
//! wide band, a stable one a tight band.
//!
//! ```text
//! bench_diff [options]
//!   --current PATH   timing report to check    (default results/BENCH_timing.json)
//!   --history PATH   history log to scan       (default results/BENCH_history.jsonl)
//!   --source NAME    history source to match   (default "timing")
//!   --rel F          threshold floor           (default 0.3)
//!   --mode M         report | warn | gate      (default report)
//! ```
//!
//! Modes: `report` prints the table and always exits 0 (the historical
//! behaviour); `warn` additionally prints one prominent `WARNING` line per
//! flagged stage but still exits 0 — this is what `run_experiments.sh
//! --smoke` wires in; `gate` exits 1 when any stage regresses, for
//! machines stable enough to enforce. Usage and file errors exit 2.
//! Missing history is reported and exits 0 — the first run of a fresh
//! checkout has nothing to compare against.

use serde::Value;
use std::process::ExitCode;

/// Per-record pipeline stages compared between runs, in display order.
/// Keys absent from either row (older history entries predate newer
/// fields) are skipped silently.
const STAGE_KEYS: &[&str] = &[
    "fit_s",
    "embed_fit_s",
    "discover_fit_s",
    "score_train_s",
    "pool_fit_s",
    "tokenize_s",
    "embed_s",
    "discover_s",
    "score_s",
    "score_batch_s",
    "predict_s",
    "impact_s",
];

/// How many trailing history entries per dataset feed the learned
/// per-stage thresholds.
const THRESHOLD_WINDOW: usize = 8;

fn usage() -> &'static str {
    "usage: bench_diff [--current PATH] [--history PATH] [--source NAME] [--rel F] \
     [--mode report|warn|gate]"
}

/// Loads the current timing report: a JSON array of per-dataset rows.
fn load_current(path: &str) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))? {
        Value::Array(rows) => Ok(rows),
        _ => Err(format!("{path}: expected a JSON array of timing rows")),
    }
}

/// Loads history rows matching `source`, oldest first. Lines that fail to
/// parse are skipped with a warning rather than aborting: the log is
/// append-only across versions and a single bad line should not disable
/// the sentinel.
fn load_history(path: &str, source: &str) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: Value = match serde_json::from_str(line) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("warning: {path}:{}: skipping unparsable line: {e}", idx + 1);
                continue;
            }
        };
        if entry.get("source").and_then(Value::as_str) != Some(source) {
            continue;
        }
        if let Some(row) = entry.get("row") {
            rows.push(row.clone());
        }
    }
    Ok(rows)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Report,
    Warn,
    Gate,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Report => "report",
            Mode::Warn => "warn",
            Mode::Gate => "gate",
        }
    }
}

struct Options {
    current: String,
    history: String,
    source: String,
    rel: f64,
    mode: Mode,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        current: "results/BENCH_timing.json".to_string(),
        history: "results/BENCH_history.jsonl".to_string(),
        source: "timing".to_string(),
        rel: 0.3,
        mode: Mode::Report,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--current" => opts.current = value("--current")?,
            "--history" => opts.history = value("--history")?,
            "--source" => opts.source = value("--source")?,
            "--rel" => {
                let raw = value("--rel")?;
                opts.rel = raw
                    .parse::<f64>()
                    .map_err(|_| format!("--rel: not a number: {raw}"))?;
                if !opts.rel.is_finite() || opts.rel <= 0.0 {
                    return Err("--rel must be a positive number".to_string());
                }
            }
            "--mode" => {
                opts.mode = match value("--mode")?.as_str() {
                    "report" => Mode::Report,
                    "warn" => Mode::Warn,
                    "gate" => Mode::Gate,
                    other => return Err(format!("--mode: unknown mode: {other}\n{}", usage())),
                };
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument: {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// The learned tolerance for one stage: twice the median run-to-run
/// relative |change| over the trailing history window, floored by `floor`.
/// Falls back to the floor when the ledger holds fewer than three usable
/// consecutive pairs — a young ledger has not earned a custom band yet.
fn ledger_threshold(series: &[f64], floor: f64) -> f64 {
    let mut spreads: Vec<f64> = series
        .windows(2)
        .filter(|w| w[0] > 0.0 && w[1] >= 0.0)
        .map(|w| ((w[1] - w[0]) / w[0]).abs())
        .filter(|r| r.is_finite())
        .collect();
    if spreads.len() < 3 {
        return floor;
    }
    spreads.sort_by(f64::total_cmp);
    (2.0 * spreads[spreads.len() / 2]).max(floor)
}

/// One flagged stage, for the warn/gate summaries.
struct Regression {
    dataset: String,
    stage: &'static str,
    change: f64,
    threshold: f64,
}

/// Compares one current row against its previous history entry, learning
/// per-stage thresholds from `prior` (the dataset's history, oldest first,
/// *excluding* the entry for the current run). Flags into `out`.
fn diff_row(
    dataset: &str,
    current: &Value,
    prior: &[&Value],
    floor: f64,
    out: &mut Vec<Regression>,
) {
    let previous = prior.last().expect("caller guarantees prior history");
    let window_start = prior.len().saturating_sub(THRESHOLD_WINDOW);
    println!("dataset {dataset}:");
    println!(
        "  {:<16} {:>12} {:>12} {:>9} {:>10}",
        "stage", "previous_s", "current_s", "change", "threshold"
    );
    for key in STAGE_KEYS {
        let (Some(prev), Some(cur)) = (
            previous.get(key).and_then(Value::as_f64),
            current.get(key).and_then(Value::as_f64),
        )
        else {
            continue;
        };
        let series: Vec<f64> =
            prior[window_start..].iter().filter_map(|h| h.get(key)?.as_f64()).collect();
        let threshold = ledger_threshold(&series, floor);
        // Sub-microsecond stages are noise-dominated; compare but never flag.
        let negligible = prev < 1e-6 && cur < 1e-6;
        let change = if prev > 0.0 { (cur - prev) / prev } else { f64::INFINITY };
        let flag = if !negligible && prev > 0.0 && change > threshold {
            out.push(Regression {
                dataset: dataset.to_string(),
                stage: key,
                change,
                threshold,
            });
            "  REGRESSION"
        } else {
            ""
        };
        let shown = if prev > 0.0 { format!("{:+.1}%", change * 100.0) } else { "n/a".to_string() };
        println!(
            "  {:<16} {:>12.6} {:>12.6} {:>9} {:>9.0}%{flag}",
            key,
            prev,
            cur,
            shown,
            threshold * 100.0
        );
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    let current = load_current(&opts.current)?;
    let history = load_history(&opts.history, &opts.source)?;

    let mut regressions: Vec<Regression> = Vec::new();
    let mut compared = 0;
    for row in &current {
        let dataset = row.get("dataset").and_then(Value::as_str).unwrap_or("?");
        // The timing binary appends its own run to the history log before
        // we get here, so the current run is the last matching entry and
        // "previous" is the one before it.
        let matches: Vec<&Value> = history
            .iter()
            .filter(|h| h.get("dataset").and_then(Value::as_str) == Some(dataset))
            .collect();
        if matches.len() < 2 {
            println!("dataset {dataset}: no prior history entry; nothing to compare");
            continue;
        }
        let prior = &matches[..matches.len() - 1];
        diff_row(dataset, row, prior, opts.rel, &mut regressions);
        compared += 1;
    }

    if compared == 0 {
        println!("bench_diff: no datasets with prior history (first run?)");
    } else if regressions.is_empty() {
        println!(
            "bench_diff: OK — {compared} dataset(s), no stage over its ledger threshold \
             (floor +{:.0}%, mode {})",
            opts.rel * 100.0,
            opts.mode.label()
        );
    } else {
        if opts.mode != Mode::Report {
            for r in &regressions {
                println!(
                    "bench_diff WARNING: {} {} regressed {:+.1}% (threshold +{:.0}%)",
                    r.dataset,
                    r.stage,
                    r.change * 100.0,
                    r.threshold * 100.0
                );
            }
        }
        let consequence = match opts.mode {
            Mode::Report => "report-only; timings are machine-dependent",
            Mode::Warn => "warn mode: non-fatal, investigate before trusting timings",
            Mode::Gate => "gate mode: failing",
        };
        println!(
            "bench_diff: {} stage(s) over their ledger thresholds ({consequence})",
            regressions.len()
        );
    }
    Ok(opts.mode == Mode::Gate && !regressions.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::FAILURE,
        Ok(false) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}
