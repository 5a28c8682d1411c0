//! Fixed-bucket histograms.
//!
//! A histogram with boundaries `b_0 < b_1 < … < b_{n-1}` has `n + 1`
//! buckets. The bucket contract, which tests assert, is **lower-inclusive,
//! upper-exclusive**:
//!
//! * bucket `0` counts values `v < b_0`;
//! * bucket `i` (for `1 ≤ i < n`) counts values `b_{i-1} ≤ v < b_i`;
//! * the overflow bucket `n` counts values `v ≥ b_{n-1}` (NaN lands here
//!   too — it compares false against every boundary).
//!
//! A value exactly on a boundary therefore always lands in the bucket
//! *above* it.
//!
//! This module also holds the one JSON codec for histograms: the
//! five-key form window frames and drift sketches store
//! ([`Histogram::to_json`]), the seven-key form snapshots store
//! ([`Histogram::to_json_with_stats`]), and one reader for both
//! ([`Histogram::from_json`]) that rejects hostile parts instead of
//! panicking.

use serde::{Serialize, Value};

/// The default bucket boundaries: a log-ish ladder wide enough for the
/// quantities WYM records (ratios, counts per record, losses, seconds).
pub fn default_bounds() -> Vec<f64> {
    vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 1000.0]
}

/// Power-of-two boundaries `1, 2, 4, …, 2^(n-1)` — the natural ladder for
/// size-like counts spanning orders of magnitude (posting-list lengths,
/// bucket occupancies, candidate counts per record).
pub fn pow2_bounds(n: u32) -> Vec<f64> {
    (0..n).map(|e| (1u64 << e) as f64).collect()
}

/// A fixed-bucket histogram with running sum / min / max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (must be strictly increasing).
    ///
    /// # Panics
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        if let Err(e) = check_bounds(bounds) {
            panic!("{e}");
        }
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index `v` falls into under the module-level contract.
    pub fn bucket_index(bounds: &[f64], v: f64) -> usize {
        bounds.iter().position(|&b| v < b).unwrap_or(bounds.len())
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = Self::bucket_index(&self.bounds, v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Rebuilds a histogram from exported parts (the [`Histogram::from_json`]
    /// read path). The total count is derived from the bucket counts, so a
    /// rebuilt histogram always satisfies the per-bucket/total consistency
    /// invariant. `min`/`max` use the empty sentinels (+∞/−∞) when absent.
    ///
    /// # Errors
    /// The parts come from files, so everything [`Histogram::new`] would
    /// panic on is an error here: empty or non-increasing `bounds`. Also
    /// rejects a `counts` slice whose length is not `bounds.len() + 1` and
    /// bucket counts whose total overflows `u64`.
    pub fn from_parts(
        bounds: &[f64],
        counts: &[u64],
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<Histogram, String> {
        check_bounds(bounds)?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram needs {} bucket counts for {} bounds, got {}",
                bounds.len() + 1,
                bounds.len(),
                counts.len()
            ));
        }
        let count = counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .ok_or("histogram bucket counts overflow u64")?;
        Ok(Histogram { bounds: bounds.to_vec(), counts: counts.to_vec(), count, sum, min, max })
    }

    /// The histogram as the five-key JSON object window frames and drift
    /// sketches store: `bounds`, `counts`, `sum`, `min`, `max`. The
    /// extrema are `null` while the histogram is empty.
    pub fn to_json(&self) -> Value {
        self.json(false)
    }

    /// The seven-key JSON object snapshots (`OBS_*.json`) store:
    /// [`Histogram::to_json`] plus the derived `count` (after `counts`)
    /// and `mean` (after `sum`).
    pub fn to_json_with_stats(&self) -> Value {
        self.json(true)
    }

    fn json(&self, stats: bool) -> Value {
        let extremum = |v: f64| if self.count == 0 { Value::Null } else { v.to_value() };
        let mut fields =
            vec![("bounds", self.bounds.to_value()), ("counts", self.counts.to_value())];
        if stats {
            fields.push(("count", self.count.to_value()));
        }
        fields.push(("sum", self.sum.to_value()));
        if stats {
            fields.push(("mean", self.mean().to_value()));
        }
        fields.push(("min", extremum(self.min)));
        fields.push(("max", extremum(self.max)));
        Value::object(fields)
    }

    /// Parses either JSON form back. The derived `count` and `mean` are
    /// ignored; a missing or `null` extremum reads as its empty sentinel.
    ///
    /// # Errors
    /// Rejects missing or non-numeric `bounds` / `counts`, and everything
    /// [`Histogram::from_parts`] rejects.
    pub fn from_json(v: &Value) -> Result<Histogram, String> {
        let Some(Value::Array(bounds)) = v.get("bounds") else {
            return Err("histogram missing bounds".to_string());
        };
        let Some(Value::Array(counts)) = v.get("counts") else {
            return Err("histogram missing counts".to_string());
        };
        let bounds: Vec<f64> =
            bounds.iter().map(|b| b.as_f64().ok_or("bad bound")).collect::<Result<_, _>>()?;
        let counts: Vec<u64> = counts
            .iter()
            .map(|c| c.as_u64().ok_or("bad bucket count"))
            .collect::<Result<_, _>>()?;
        let stat = |key: &str, empty: f64| v.get(key).and_then(Value::as_f64).unwrap_or(empty);
        Histogram::from_parts(
            &bounds,
            &counts,
            stat("sum", 0.0),
            stat("min", f64::INFINITY),
            stat("max", f64::NEG_INFINITY),
        )
    }

    /// Folds `other` into `self`: per-bucket counts, total count, and sum
    /// add; min/max take the extrema. This is how per-thread or per-run
    /// histograms aggregate without losing bucket resolution.
    ///
    /// # Panics
    /// Panics when the two histograms have different bucket boundaries —
    /// merging across bucketings would silently misbin.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket boundaries"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The bucket boundaries.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, overflow last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation inside the bucket that holds the target rank — the
    /// standard fixed-bucket estimator, so the answer is exact only when
    /// the true quantile sits on a bucket edge. The underflow bucket
    /// interpolates up from the observed `min` and the overflow bucket
    /// toward the observed `max`; when those extrema are unavailable
    /// (a histogram rebuilt via [`Histogram::from_parts`] with the empty
    /// sentinels) the adjacent boundary stands in. Returns `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_cum = cum as f64;
            cum += c;
            if cum as f64 >= target {
                let first = self.bounds[0];
                let last = *self.bounds.last().expect("bounds are never empty");
                let lower = if i == 0 {
                    if self.min.is_finite() { self.min.min(first) } else { first }
                } else {
                    self.bounds[i - 1]
                };
                let upper = if i == self.bounds.len() {
                    if self.max.is_finite() { self.max.max(last) } else { last }
                } else {
                    self.bounds[i]
                };
                let frac = ((target - lo_cum) / c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        // Unreachable while count equals the bucket-count sum; be lenient
        // toward hand-built parts instead of panicking.
        Some(self.max)
    }
}

/// Checks the boundary contract: at least one boundary, strictly
/// increasing (which also rules out NaN).
fn check_bounds(bounds: &[f64]) -> Result<(), String> {
    if bounds.is_empty() {
        return Err("histogram needs at least one boundary".to_string());
    }
    if !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("histogram boundaries must be strictly increasing: {bounds:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_land_in_the_upper_bucket() {
        // Bounds [1, 2, 4] → buckets (-∞,1) [1,2) [2,4) [4,∞).
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // bucket 0: below the first bound
        h.observe(1.0); // bucket 1: lower bound is inclusive
        h.observe(1.999); // bucket 1: upper bound is exclusive
        h.observe(2.0); // bucket 2
        h.observe(4.0); // overflow: v ≥ last bound
        h.observe(100.0); // overflow
        assert_eq!(h.counts(), &[1, 2, 1, 2]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn bucket_index_contract() {
        let b = [1.0, 2.0, 4.0];
        assert_eq!(Histogram::bucket_index(&b, 0.99), 0);
        assert_eq!(Histogram::bucket_index(&b, 1.0), 1);
        assert_eq!(Histogram::bucket_index(&b, 2.0), 2);
        assert_eq!(Histogram::bucket_index(&b, 3.99), 2);
        assert_eq!(Histogram::bucket_index(&b, 4.0), 3);
        assert_eq!(Histogram::bucket_index(&b, f64::NAN), 3, "NaN goes to overflow");
    }

    #[test]
    fn stats_track_sum_min_max() {
        let mut h = Histogram::new(&[10.0]);
        h.observe(2.0);
        h.observe(6.0);
        assert_eq!(h.sum(), 8.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 6.0);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn default_bounds_are_valid() {
        let _ = Histogram::new(&default_bounds());
    }

    #[test]
    fn overflow_bucket_catches_everything_at_or_above_the_last_bound() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(10.0); // exactly the last bound
        h.observe(1e300);
        h.observe(f64::INFINITY);
        assert_eq!(h.counts(), &[0, 0, 3]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), f64::INFINITY);
    }

    #[test]
    fn merge_keeps_sum_count_and_bucket_invariants() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        a.observe(1.5);
        let mut b = Histogram::new(&[1.0, 2.0]);
        b.observe(1.5);
        b.observe(3.0);
        b.observe(0.1);
        a.merge(&b);
        // Total count equals the sum of bucket counts (the consistency
        // invariant `from_parts` derives from) and both sides' totals.
        assert_eq!(a.count(), 5);
        assert_eq!(a.counts().iter().sum::<u64>(), a.count());
        assert_eq!(a.counts(), &[2, 2, 1]);
        assert!((a.sum() - (0.5 + 1.5 + 1.5 + 3.0 + 0.1)).abs() < 1e-12);
        assert_eq!(a.min(), 0.1);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn merging_into_empty_is_identity() {
        let mut empty = Histogram::new(&[1.0, 2.0]);
        let mut other = Histogram::new(&[1.0, 2.0]);
        other.observe(1.5);
        empty.merge(&other);
        assert_eq!(empty, other);
    }

    #[test]
    #[should_panic(expected = "different bucket boundaries")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..4 {
            h.observe(1.5);
        }
        for _ in 0..4 {
            h.observe(3.0);
        }
        // Rank 4 of 8 sits exactly on the [1,2)/[2,4) seam.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // Rank 7.2 is 80% into the [2,4) bucket → 2 + 0.8·2.
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 3.6).abs() < 1e-12, "p90 {p90}");
        // q=0 clamps to the lower edge of the first occupied bucket.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
        // The underflow bucket interpolates up from the observed min.
        let mut u = Histogram::new(&[1.0]);
        u.observe(0.5);
        assert_eq!(u.quantile(0.0), Some(0.5));
        // Overflow bucket interpolates toward the observed max.
        let mut o = Histogram::new(&[1.0]);
        o.observe(5.0);
        o.observe(9.0);
        let p = o.quantile(1.0).unwrap();
        assert!((p - 9.0).abs() < 1e-12, "overflow upper edge is max, got {p}");
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_count_arity() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        let back =
            Histogram::from_parts(h.bounds(), h.counts(), h.sum(), h.min(), h.max()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(&[1.0, 2.0], &[1, 2], 0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn json_forms_round_trip_and_keep_their_key_order() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        let keys = |v: &Value| match v {
            Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys(&h.to_json()), ["bounds", "counts", "sum", "min", "max"]);
        assert_eq!(
            keys(&h.to_json_with_stats()),
            ["bounds", "counts", "count", "sum", "mean", "min", "max"]
        );
        for json in [h.to_json(), h.to_json_with_stats()] {
            let text = serde_json::to_string(&json).unwrap();
            let back = Histogram::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, h);
        }
        // An empty histogram writes null extrema and reads back ±∞.
        let empty = Histogram::new(&[1.0]);
        let text = serde_json::to_string(&empty.to_json()).unwrap();
        assert!(text.contains("\"min\":null"), "{text}");
        let back = Histogram::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!((back.min(), back.max()), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn from_json_rejects_hostile_parts_without_panicking() {
        let read = |text: &str| Histogram::from_json(&serde_json::from_str(text).unwrap());
        let err = read(r#"{"bounds": [], "counts": [1]}"#).unwrap_err();
        assert!(err.contains("at least one boundary"), "{err}");
        let err = read(r#"{"bounds": [0.9, 0.1], "counts": [0, 0, 0]}"#).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = read(r#"{"bounds": [0.5], "counts": [18446744073709551615, 1]}"#).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        for bad in [
            r#"[]"#,
            r#"{"counts": [0, 0]}"#,
            r#"{"bounds": [0.5]}"#,
            r#"{"bounds": [0.5, null], "counts": [0, 0, 0]}"#,
            r#"{"bounds": [0.5], "counts": [0, -1]}"#,
            r#"{"bounds": [0.5], "counts": [0]}"#,
        ] {
            assert!(read(bad).is_err(), "{bad} should fail");
        }
    }
}
