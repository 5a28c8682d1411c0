//! Drift sentinels: training-time sketches and PSI divergence.
//!
//! A model frozen at train time embodies a distribution — of calibrated
//! scores, of how many units actually pair, of which attributes contribute
//! units. When live traffic departs from that distribution the model's
//! calibration is no longer trustworthy, and the monitoring loop should say
//! so *before* accuracy metrics (which need labels nobody has online) can.
//!
//! [`ModelSketch`] is the compact summary both sides use: a fixed-bucket
//! score histogram, a pairing hit-rate histogram, and a categorical
//! unit-class mix. The trainer freezes one into the WYMA artifact as the
//! `sketch` section; a serving loop builds another over live decisions and
//! calls [`ModelSketch::compare`], which computes a Population Stability
//! Index per component:
//!
//! ```text
//! PSI = Σ_i (p_i − q_i) · ln(p_i / q_i)
//! ```
//!
//! with half-a-count (Jeffreys) smoothing so empty buckets never divide by
//! zero and small samples don't alarm spuriously. The
//! conventional reading: `< 0.1` stable, `0.1–0.2` drifting, `> 0.2` act —
//! [`DRIFT_TRIP_PSI`] uses 0.2. [`DriftReport::publish`] mirrors the result
//! into `obs.drift.*` gauges and alert counters so the exposition layer
//! (Prometheus text, `obs_diff` baselines) sees exactly what the report
//! says.
//!
//! Everything here is integer bucket counts over bit-identical scores, so
//! sketches — and therefore PSI values — are deterministic across kernels
//! and thread counts like the rest of the workspace.

use crate::hist::Histogram;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// PSI at or above this trips the sentinel (the conventional 0.2 "act"
/// threshold).
pub const DRIFT_TRIP_PSI: f64 = 0.2;

/// Smoothing mass added to every bucket count (Jeffreys prior) so PSI
/// stays finite — and *calibrated* — when one side has an empty bucket the
/// other populates. A vanishing epsilon would make such buckets contribute
/// `p·ln(p/ε)` ≈ 14·p, tripping the sentinel on routine small-sample
/// wobble; half a count keeps the log-ratio bounded by the actual sample
/// sizes.
const PSI_SMOOTH: f64 = 0.5;

/// Score-histogram boundaries: 0.05 steps over the probability range, so
/// twenty buckets resolve calibration shifts near either margin.
pub fn score_bounds() -> Vec<f64> {
    (1..20).map(|i| i as f64 * 0.05).collect()
}

/// Pairing hit-rate boundaries: 0.1 steps over the unit-pairing fraction.
pub fn pair_rate_bounds() -> Vec<f64> {
    (1..10).map(|i| i as f64 * 0.1).collect()
}

/// A compact streaming summary of a decision stream: score distribution,
/// pairing hit-rate distribution, and unit-class (attribute) mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSketch {
    scores: Histogram,
    pair_rate: Histogram,
    unit_mix: BTreeMap<String, u64>,
    n: u64,
}

impl Default for ModelSketch {
    fn default() -> ModelSketch {
        ModelSketch::new()
    }
}

impl ModelSketch {
    /// An empty sketch over the standard boundaries.
    pub fn new() -> ModelSketch {
        ModelSketch {
            scores: Histogram::new(&score_bounds()),
            pair_rate: Histogram::new(&pair_rate_bounds()),
            unit_mix: BTreeMap::new(),
            n: 0,
        }
    }

    /// Absorbs one decision: its calibrated score, the fraction of its
    /// decision units that paired, and the attribute of every unit.
    pub fn observe<'a>(
        &mut self,
        score: f32,
        paired_frac: f64,
        unit_attrs: impl IntoIterator<Item = &'a str>,
    ) {
        self.scores.observe(score as f64);
        self.pair_rate.observe(paired_frac);
        for attr in unit_attrs {
            *self.unit_mix.entry(attr.to_string()).or_insert(0) += 1;
        }
        self.n += 1;
    }

    /// Number of decisions absorbed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the sketch has absorbed nothing.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The score histogram.
    pub fn scores(&self) -> &Histogram {
        &self.scores
    }

    /// The pairing hit-rate histogram.
    pub fn pair_rate(&self) -> &Histogram {
        &self.pair_rate
    }

    /// Unit count per attribute.
    pub fn unit_mix(&self) -> &BTreeMap<String, u64> {
        &self.unit_mix
    }

    /// Folds `other` into `self` (per-bucket sums, key-wise mix sums).
    pub fn merge(&mut self, other: &ModelSketch) {
        self.scores.merge(&other.scores);
        self.pair_rate.merge(&other.pair_rate);
        for (k, v) in &other.unit_mix {
            *self.unit_mix.entry(k.clone()).or_insert(0) += v;
        }
        self.n += other.n;
    }

    /// PSI of `live` against this baseline, per component. Components in
    /// stable order: `score`, `pair_rate`, `unit_mix`.
    pub fn compare(&self, live: &ModelSketch) -> DriftReport {
        let components = vec![
            (
                "score".to_string(),
                psi(self.scores.counts(), live.scores.counts()),
            ),
            (
                "pair_rate".to_string(),
                psi(self.pair_rate.counts(), live.pair_rate.counts()),
            ),
            (
                "unit_mix".to_string(),
                psi_categorical(&self.unit_mix, &live.unit_mix),
            ),
        ];
        let max_psi = components.iter().map(|(_, p)| *p).fold(0.0f64, f64::max);
        DriftReport {
            tripped: max_psi >= DRIFT_TRIP_PSI,
            baseline_n: self.n,
            live_n: live.n,
            components,
            max_psi,
        }
    }

    /// The sketch as the JSON object stored in the artifact's `sketch`
    /// section and in decision reports.
    pub fn to_json(&self) -> Value {
        let unit_mix = self.unit_mix.iter().map(|(k, v)| (k.clone(), v.to_value()));
        Value::object([
            ("n", self.n.to_value()),
            ("scores", self.scores.to_json()),
            ("pair_rate", self.pair_rate.to_json()),
            ("unit_mix", Value::Object(unit_mix.collect())),
        ])
    }

    /// Parses a sketch back out of its [`ModelSketch::to_json`] form.
    ///
    /// # Errors
    /// Besides malformed JSON, rejects histograms whose bounds are not
    /// [`score_bounds`] / [`pair_rate_bounds`]: [`ModelSketch::compare`]
    /// aligns buckets by position, so a baseline bucketed any other way
    /// would raise false drift alerts.
    pub fn from_json(v: &Value) -> Result<ModelSketch, String> {
        let n = v.get("n").and_then(Value::as_u64).ok_or("sketch missing n")?;
        let hist = |key: &str, bounds: Vec<f64>| -> Result<Histogram, String> {
            let h = Histogram::from_json(v.get(key).ok_or(format!("sketch missing {key}"))?)
                .map_err(|e| format!("sketch {key}: {e}"))?;
            if h.bounds() != bounds.as_slice() {
                return Err(format!("sketch {key} histogram has non-standard bounds"));
            }
            Ok(h)
        };
        let scores = hist("scores", score_bounds())?;
        let pair_rate = hist("pair_rate", pair_rate_bounds())?;
        let mut unit_mix = BTreeMap::new();
        if let Some(Value::Object(mix)) = v.get("unit_mix") {
            for (k, v) in mix {
                unit_mix.insert(k.clone(), v.as_u64().ok_or("bad unit_mix count")?);
            }
        }
        Ok(ModelSketch { scores, pair_rate, unit_mix, n })
    }
}

/// One drift check: PSI per component against a baseline sketch.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// `(component, psi)` in stable order.
    pub components: Vec<(String, f64)>,
    /// Largest component PSI.
    pub max_psi: f64,
    /// Whether `max_psi` crossed [`DRIFT_TRIP_PSI`].
    pub tripped: bool,
    /// Decisions in the baseline sketch.
    pub baseline_n: u64,
    /// Decisions in the live sketch.
    pub live_n: u64,
}

impl DriftReport {
    /// One-line human rendering, e.g.
    /// `ALERT max_psi=0.41 (score=0.41 pair_rate=0.02 unit_mix=0.00; live n=200 vs baseline n=800)`.
    pub fn render(&self) -> String {
        let comps = self
            .components
            .iter()
            .map(|(k, p)| format!("{k}={p:.3}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "{} max_psi={:.3} ({comps}; live n={} vs baseline n={})",
            if self.tripped { "ALERT" } else { "OK" },
            self.max_psi,
            self.live_n,
            self.baseline_n
        )
    }

    /// Mirrors the report into the active recorder: an
    /// `obs.drift.<component>.psi` gauge per component, one
    /// `obs.drift.checks` tick, and an `obs.drift.trips` tick when the
    /// sentinel fired.
    pub fn publish(&self) {
        for (k, p) in &self.components {
            crate::gauge_set(&format!("obs.drift.{k}.psi"), *p);
        }
        crate::counter_add("obs.drift.checks", 1);
        if self.tripped {
            crate::counter_add("obs.drift.trips", 1);
        }
    }
}

/// Smoothed PSI over two aligned count vectors.
fn psi(p_counts: &[u64], q_counts: &[u64]) -> f64 {
    debug_assert_eq!(p_counts.len(), q_counts.len());
    let k = p_counts.len() as f64;
    let tp: u64 = p_counts.iter().sum();
    let tq: u64 = q_counts.iter().sum();
    let (dp, dq) = (tp as f64 + PSI_SMOOTH * k, tq as f64 + PSI_SMOOTH * k);
    p_counts
        .iter()
        .zip(q_counts)
        .map(|(&cp, &cq)| {
            let p = (cp as f64 + PSI_SMOOTH) / dp;
            let q = (cq as f64 + PSI_SMOOTH) / dq;
            (p - q) * (p / q).ln()
        })
        .sum()
}

/// Smoothed PSI over two categorical count maps, aligned on the key union
/// (a class only one side ever saw still contributes divergence).
fn psi_categorical(p: &BTreeMap<String, u64>, q: &BTreeMap<String, u64>) -> f64 {
    let keys: std::collections::BTreeSet<&String> = p.keys().chain(q.keys()).collect();
    if keys.is_empty() {
        return 0.0;
    }
    let pv: Vec<u64> = keys.iter().map(|k| p.get(*k).copied().unwrap_or(0)).collect();
    let qv: Vec<u64> = keys.iter().map(|k| q.get(*k).copied().unwrap_or(0)).collect();
    psi(&pv, &qv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(scores: &[f32], attr: &str) -> ModelSketch {
        let mut s = ModelSketch::new();
        for &v in scores {
            s.observe(v, 0.5, [attr]);
        }
        s
    }

    #[test]
    fn identical_streams_do_not_trip() {
        let base = sketch_of(&[0.1, 0.2, 0.8, 0.9, 0.55], "title");
        let report = base.compare(&base.clone());
        assert!(report.max_psi < 1e-9, "self-PSI must be ~0, got {}", report.max_psi);
        assert!(!report.tripped);
        assert_eq!(report.components.len(), 3);
    }

    #[test]
    fn shifted_scores_trip_the_sentinel() {
        let base = sketch_of(&[0.05, 0.1, 0.12, 0.15, 0.08], "title");
        let live = sketch_of(&[0.85, 0.9, 0.92, 0.95, 0.88], "title");
        let report = base.compare(&live);
        assert!(report.tripped, "opposite score mass must trip: {}", report.render());
        assert_eq!(report.components[0].0, "score");
        assert!(report.components[0].1 >= DRIFT_TRIP_PSI);
    }

    #[test]
    fn unit_mix_shift_is_its_own_component() {
        let base = sketch_of(&[0.5; 20], "title");
        let live = sketch_of(&[0.5; 20], "brand");
        let report = base.compare(&live);
        let mix = report
            .components
            .iter()
            .find(|(k, _)| k == "unit_mix")
            .map(|(_, p)| *p)
            .unwrap();
        assert!(mix >= DRIFT_TRIP_PSI, "disjoint attribute mixes must diverge, got {mix}");
    }

    #[test]
    fn empty_sketches_compare_quietly() {
        let report = ModelSketch::new().compare(&ModelSketch::new());
        assert!(report.max_psi.abs() < 1e-9);
        assert!(!report.tripped);
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut a = sketch_of(&[0.2, 0.4], "title");
        let b = sketch_of(&[0.6, 0.8], "brand");
        a.merge(&b);
        let mut whole = ModelSketch::new();
        for (v, attr) in [(0.2, "title"), (0.4, "title"), (0.6, "brand"), (0.8, "brand")] {
            whole.observe(v, 0.5, [attr]);
        }
        // Bucket counts and mixes match exactly; sums only to rounding
        // (merge associates the f64 additions differently).
        assert_eq!(a.scores().counts(), whole.scores().counts());
        assert_eq!(a.pair_rate().counts(), whole.pair_rate().counts());
        assert_eq!(a.unit_mix(), whole.unit_mix());
        assert_eq!(a.len(), 4);
        assert!((a.scores().sum() - whole.scores().sum()).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip_preserves_counts() {
        let s = sketch_of(&[0.1, 0.6, 0.6, 0.97], "name");
        let json = s.to_json();
        let back = ModelSketch::from_json(&json).unwrap();
        assert_eq!(back.scores().counts(), s.scores().counts());
        assert_eq!(back.unit_mix(), s.unit_mix());
        assert_eq!(back.len(), s.len());
        // PSI against the round-tripped twin is still zero.
        assert!(s.compare(&back).max_psi < 1e-9);
        // And via rendered text, the artifact read path.
        let reparsed = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(ModelSketch::from_json(&reparsed).is_ok());
    }

    #[test]
    fn from_json_rejects_non_standard_bounds() {
        // One observation in a two-bucket score histogram: `compare` aligns
        // buckets by position, so against a live sketch holding the same
        // single observation it would report a false ALERT.
        let mut base = sketch_of(&[0.7], "title");
        base.scores = Histogram::new(&[0.5]);
        base.scores.observe(0.7);
        let err = ModelSketch::from_json(&base.to_json()).unwrap_err();
        assert!(err.contains("scores") && err.contains("non-standard bounds"), "{err}");
        let mut base = sketch_of(&[0.7], "title");
        base.pair_rate = Histogram::new(&[0.1, 0.9]);
        let err = ModelSketch::from_json(&base.to_json()).unwrap_err();
        assert!(err.contains("pair_rate"), "{err}");
    }

    #[test]
    fn render_names_every_component() {
        let base = sketch_of(&[0.1], "a");
        let r = base.compare(&sketch_of(&[0.9], "a")).render();
        for needle in ["score=", "pair_rate=", "unit_mix=", "max_psi="] {
            assert!(r.contains(needle), "missing {needle} in {r}");
        }
    }
}
