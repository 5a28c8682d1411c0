//! Metric names, the per-run outcome, and the statistics behind them.

use crate::host::HostClock;
use std::collections::BTreeMap;
use wym_data::RecordPair;

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`. Each
/// workload gives each of them its own meaning; see `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("quality", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tokenize.busy_s", "s"),
    ("tokenize.tokens", "count"),
    ("embed_fit.busy_s", "s"),
    ("embed.busy_s", "s"),
    ("embed.tokens", "count"),
    ("pair.busy_s", "s"),
    ("pair.sim_entries", "count"),
    ("pair.sim_entries_max", "count"),
    ("pair.units", "count"),
    ("pair.paired_share", "fraction"),
    ("pair.screen_floor_share", "fraction"),
    ("pair.gflop", "GFLOP"),
    ("discover.wall_s", "s"),
    ("score_train.busy_s", "s"),
    ("score_train.rows", "count"),
    ("score_train.epochs", "count"),
    ("score_train.gflop", "GFLOP"),
    ("score_train.gflop_per_s", "GFLOP/s"),
    ("score.busy_s", "s"),
    ("score.rows", "count"),
    ("score.calls", "count"),
    ("score.gflop", "GFLOP"),
    ("pool_fit.busy_s", "s"),
    ("pool_fit.classifiers", "count"),
    ("predict.busy_s", "s"),
    ("impact.busy_s", "s"),
    ("explanation.busy_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    ("data.busy_s", "s"),
    ("par.efficiency", "fraction"),
    ("obs.busy_s", "s"),
    ("obs.flight_recorder", "flag"),
    ("block.index.busy_s", "s"),
    ("block.lexical.busy_s", "s"),
    ("block.ann_index.busy_s", "s"),
    ("block.ann.busy_s", "s"),
    ("block.merge.busy_s", "s"),
    ("block.candidates_per_record", "count"),
    ("block.ann_new_share", "fraction"),
    ("unattributed_share", "fraction"),
    ("trace_overhead_share", "fraction"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`, and reports the
    /// first few failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                let msg = what();
                eprintln!("check failed: {msg}");
                self.lines.push(format!("check failed: {msg}"));
            }
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the usual tail percentiles with at least ten of `n`
/// samples beyond it, as `(label, q)`.
pub fn tail_percentile(n: usize) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9)]
        .into_iter()
        .find(|(_, q)| (n as f64) * (1.0 - q) >= 10.0)
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds, scaled to the nominal host (see [`crate::host`]),
/// and a report line with the raw median.
pub fn timed_setup<T>(
    clock: &mut HostClock,
    times: usize,
    mut setup: impl FnMut(usize) -> T,
) -> (T, f64, String) {
    let mut ops = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times.max(1) {
        let (value, op) = clock.time(|| setup(i));
        last = Some(value);
        ops.push(op);
    }
    let (scaled, raw) = clock.medians(&ops);
    let line = format!(
        "setup: median of {} set-ups {scaled} s scaled, {raw} s raw",
        ops.len()
    );
    (last.expect("setup ran at least once"), scaled, line)
}

/// A JSON number with every digit Rust prints; non-finite values become 0
/// (`main` has already counted them as failed checks).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Whose memory [`peak_rss_mb`] reports.
pub enum Who {
    /// This process.
    Me,
    /// The largest child process waited for so far.
    Children,
}

/// Peak resident set size in MiB, from `getrusage`.
pub fn peak_rss_mb(who: Who) -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let who = match who {
        Who::Me => 0,
        Who::Children => -1,
    };
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out like Linux's
    // `struct rusage` on 64-bit targets (two timevals then 14 longs), which
    // is all getrusage writes.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.maxrss as f64 / 1024.0
}

/// FNV-1a fold of `bytes` into `h` (start from [`FNV_OFFSET`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Traffic summary of a workload's inputs: tokens per side and
/// similarity-matrix entries per record.
#[derive(Default)]
pub struct Traffic {
    pub tokens_per_side: Vec<f64>,
    pub entries: Vec<f64>,
    pub screened: usize,
}

impl Traffic {
    /// Adds one record whose sides tokenize to `left` and `right` tokens,
    /// embedded at `dim` dimensions.
    pub fn add(&mut self, left: usize, right: usize, dim: usize) {
        self.tokens_per_side.push(left as f64);
        self.tokens_per_side.push(right as f64);
        let entries = left * right;
        self.entries.push(entries as f64);
        self.screened += usize::from(wym_core::pairing::worth_i8_screening(dim, entries));
    }

    /// Adds one record pair as `tok` tokenizes it.
    pub fn add_pair(&mut self, tok: &wym_tokenize::Tokenizer, pair: &RecordPair, dim: usize) {
        let n = |values: &[String]| -> usize {
            tok.tokenize_attributes(values).iter().map(Vec::len).sum()
        };
        self.add(n(&pair.left.values), n(&pair.right.values), dim);
    }

    /// Share of records big enough for the int8-screened similarity fill.
    pub fn screen_share(&self) -> f64 {
        self.screened as f64 / self.entries.len().max(1) as f64
    }

    pub fn render(&self, pairs: usize) -> String {
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        format!(
            "traffic: pairs={pairs} tokens_per_side p50={} max={} sim_entries p50={} max={} \
             pair.screen_floor_share={}",
            median(&self.tokens_per_side),
            max(&self.tokens_per_side),
            median(&self.entries),
            max(&self.entries),
            self.screen_share()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(tail_percentile(1000), Some(("p99", 0.99)));
        assert_eq!(tail_percentile(10_000), Some(("p99.9", 0.999)));
        assert_eq!(tail_percentile(5), None);
    }
}
