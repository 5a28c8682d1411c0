//! Ring-buffer time-windowed metrics.
//!
//! A run-scoped recorder reports lifetime totals; a long-lived process
//! needs *recent* rates and quantiles — requests in the last N windows, not
//! since boot. [`Windowed`] keeps a fixed-capacity ring of
//! [`WindowFrame`]s, each holding its own counters and histograms. The
//! current frame absorbs observations; [`Windowed::advance`] seals it and
//! opens the next, evicting the oldest frame once the ring is full.
//!
//! Rotation is driven by **explicit advance calls, never by wall clock** —
//! a caller rotates every K records (the CLI), every batch (a server
//! micro-batcher), or on a timer thread if it accepts nondeterminism. With
//! record-count rotation, frame contents are bit-identical across kernels
//! and thread counts, which is what lets `obs_diff` gate on them.
//!
//! Frames are identified by their *epoch* (the number of advances when the
//! frame was opened), so two runs can be aligned frame-by-frame even after
//! the ring has wrapped and absolute positions differ from logical ages.

use crate::hist::{default_bounds, Histogram};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One window's worth of metrics. Counters and histograms are keyed by
/// name in `BTreeMap`s so every serialization is deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowFrame {
    /// Number of [`Windowed::advance`] calls when this frame was opened
    /// (the first frame has epoch 0).
    pub epoch: u64,
    /// Per-window counter increments.
    pub counters: BTreeMap<String, u64>,
    /// Per-window histograms.
    pub hists: BTreeMap<String, Histogram>,
}

impl WindowFrame {
    fn new(epoch: u64) -> WindowFrame {
        WindowFrame { epoch, ..WindowFrame::default() }
    }

    /// Whether the frame recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }
}

/// A ring of [`WindowFrame`]s: the newest frame is current and mutable,
/// older frames are sealed, and frames beyond `capacity` are evicted.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    capacity: usize,
    advances: u64,
    /// Front = oldest retained, back = current.
    frames: VecDeque<WindowFrame>,
}

impl Windowed {
    /// An empty ring retaining at most `capacity` frames (including the
    /// current one).
    ///
    /// # Panics
    /// Panics when `capacity` is 0 — a ring that cannot hold even the
    /// current frame has no meaning.
    pub fn new(capacity: usize) -> Windowed {
        assert!(capacity > 0, "windowed metrics need capacity >= 1");
        let mut frames = VecDeque::with_capacity(capacity);
        frames.push_back(WindowFrame::new(0));
        Windowed { capacity, advances: 0, frames }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of [`Windowed::advance`] calls so far. The current
    /// frame's epoch equals this value.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// The retained frames, oldest first; the last one is current.
    pub fn frames(&self) -> impl Iterator<Item = &WindowFrame> {
        self.frames.iter()
    }

    fn current(&mut self) -> &mut WindowFrame {
        self.frames.back_mut().expect("ring always holds the current frame")
    }

    /// Adds `n` to counter `name` in the current frame.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.current().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Records `v` into histogram `name` in the current frame; `bounds`
    /// applies only on first use within the frame (`None` = defaults).
    pub fn hist_observe(&mut self, name: &str, bounds: Option<&[f64]>, v: f64) {
        self.current()
            .hists
            .entry(name.to_string())
            .or_insert_with(|| match bounds {
                Some(b) => Histogram::new(b),
                None => Histogram::new(&default_bounds()),
            })
            .observe(v);
    }

    /// Seals the current frame and opens the next; evicts the oldest frame
    /// when the ring is full. An untouched frame rotates through as an
    /// explicit empty frame — "nothing happened in that window" is data.
    pub fn advance(&mut self) {
        self.advances += 1;
        self.frames.push_back(WindowFrame::new(self.advances));
        while self.frames.len() > self.capacity {
            self.frames.pop_front();
        }
    }

    /// Merges the newest `last_n` retained frames (capped at what the ring
    /// still holds): counters sum, histograms merge per bucket. Returns the
    /// merged frame plus the number of frames actually covered.
    ///
    /// # Panics
    /// Panics when the same histogram name was created with different
    /// bucket boundaries in different frames (the [`Histogram::merge`]
    /// contract — merging across bucketings would silently misbin).
    pub fn merged(&self, last_n: usize) -> (WindowFrame, usize) {
        let covered = last_n.min(self.frames.len());
        if covered == 0 {
            return (WindowFrame::new(self.advances), 0);
        }
        let mut out = WindowFrame::new(self.frames[self.frames.len() - covered].epoch);
        for frame in self.frames.iter().skip(self.frames.len() - covered) {
            for (k, v) in &frame.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &frame.hists {
                out.hists
                    .entry(k.clone())
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
        }
        (out, covered)
    }

    /// Mean per-window increments of counter `name` over the newest
    /// `last_n` frames (0.0 when the counter never fired there).
    pub fn rate(&self, name: &str, last_n: usize) -> f64 {
        let (merged, covered) = self.merged(last_n);
        if covered == 0 {
            return 0.0;
        }
        merged.counters.get(name).copied().unwrap_or(0) as f64 / covered as f64
    }

    /// The `q`-quantile of histogram `name` over the newest `last_n`
    /// frames; `None` when the histogram is absent or empty there.
    pub fn quantile(&self, name: &str, q: f64, last_n: usize) -> Option<f64> {
        let (merged, _) = self.merged(last_n);
        merged.hists.get(name).and_then(|h| h.quantile(q))
    }

    /// The ring as the JSON object stored under a snapshot's `windows` key.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("capacity", self.capacity.to_value()),
            ("advances", self.advances.to_value()),
            ("frames", Value::Array(self.frames.iter().map(frame_to_json).collect())),
        ])
    }

    /// Parses a ring back out of its [`Windowed::to_json`] form. The ring
    /// is sized by the frames actually present, never by the declared
    /// capacity, so a hostile file cannot make it allocate without bound.
    ///
    /// # Errors
    /// Besides malformed JSON, rejects a ring that breaks its own
    /// invariants: zero capacity, more frames than the capacity, or a
    /// newest frame that is not the current one (epoch `advances`).
    pub fn from_json(v: &Value) -> Result<Windowed, String> {
        let capacity = v
            .get("capacity")
            .and_then(|c| usize::try_from(c.as_u64()?).ok())
            .ok_or("windows missing capacity")?;
        if capacity == 0 {
            return Err("windows capacity must be >= 1".to_string());
        }
        let advances = v.get("advances").and_then(Value::as_u64).ok_or("windows missing advances")?;
        let mut frames = VecDeque::new();
        if let Some(Value::Array(arr)) = v.get("frames") {
            for f in arr {
                frames.push_back(frame_from_json(f)?);
            }
        }
        if frames.back().map(|f| f.epoch) != Some(advances) {
            return Err(format!("windows must end with the current frame (epoch {advances})"));
        }
        if frames.len() > capacity {
            return Err(format!(
                "windows hold {} frames but declare capacity {capacity}",
                frames.len()
            ));
        }
        Ok(Windowed { capacity, advances, frames })
    }
}

fn frame_to_json(f: &WindowFrame) -> Value {
    Value::object([
        ("epoch", f.epoch.to_value()),
        (
            "counters",
            Value::Object(f.counters.iter().map(|(k, v)| (k.clone(), v.to_value())).collect()),
        ),
        (
            "histograms",
            Value::Object(f.hists.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
        ),
    ])
}

fn frame_from_json(v: &Value) -> Result<WindowFrame, String> {
    let epoch = v.get("epoch").and_then(Value::as_u64).ok_or("frame missing epoch")?;
    let mut frame = WindowFrame::new(epoch);
    if let Some(Value::Object(counters)) = v.get("counters") {
        for (k, v) in counters {
            frame.counters.insert(k.clone(), v.as_u64().ok_or("bad window counter value")?);
        }
    }
    if let Some(Value::Object(hists)) = v.get("histograms") {
        for (k, v) in hists {
            frame.hists.insert(k.clone(), Histogram::from_json(v)?);
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_current_frame() {
        let mut w = Windowed::new(4);
        w.counter_add("req", 2);
        w.advance();
        w.counter_add("req", 5);
        let frames: Vec<&WindowFrame> = w.frames().collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].counters.get("req"), Some(&2));
        assert_eq!(frames[1].counters.get("req"), Some(&5));
        assert_eq!(frames[0].epoch, 0);
        assert_eq!(frames[1].epoch, 1);
    }

    #[test]
    fn wrap_around_evicts_oldest_and_keeps_epochs() {
        let mut w = Windowed::new(3);
        for i in 0..7u64 {
            w.counter_add("tick", i + 1);
            w.advance();
        }
        // 7 advances on capacity 3: current frame is epoch 7, the two
        // sealed survivors are epochs 5 and 6.
        let epochs: Vec<u64> = w.frames().map(|f| f.epoch).collect();
        assert_eq!(epochs, vec![5, 6, 7]);
        assert_eq!(w.advances(), 7);
        let (merged, covered) = w.merged(10);
        assert_eq!(covered, 3);
        assert_eq!(merged.counters.get("tick"), Some(&(6 + 7)));
    }

    #[test]
    fn empty_windows_rotate_through_explicitly() {
        let mut w = Windowed::new(4);
        w.counter_add("req", 1);
        w.advance(); // frame 1: nothing
        w.advance(); // frame 2: nothing
        w.counter_add("req", 1);
        let empties = w.frames().filter(|f| f.is_empty()).count();
        assert_eq!(empties, 1, "the untouched middle frame must survive as data");
        assert_eq!(w.rate("req", 4), 2.0 / 3.0);
        assert_eq!(w.rate("req", 1), 1.0);
        assert_eq!(w.rate("absent", 4), 0.0);
    }

    #[test]
    fn merged_histograms_cover_overflow_buckets() {
        let mut w = Windowed::new(3);
        w.hist_observe("lat", Some(&[1.0, 10.0]), 0.5);
        w.advance();
        w.hist_observe("lat", Some(&[1.0, 10.0]), 1e9); // overflow bucket
        w.hist_observe("lat", Some(&[1.0, 10.0]), f64::NAN); // overflow too
        let (merged, _) = w.merged(3);
        let h = merged.hists.get("lat").unwrap();
        assert_eq!(h.counts(), &[1, 0, 2]);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_over_last_n_windows() {
        let mut w = Windowed::new(8);
        for v in [1.5, 1.5, 1.5, 1.5] {
            w.hist_observe("lat", Some(&[1.0, 2.0, 4.0]), v);
        }
        w.advance();
        for v in [3.0, 3.0, 3.0, 3.0] {
            w.hist_observe("lat", Some(&[1.0, 2.0, 4.0]), v);
        }
        // Over both windows the upper half sits in [2,4).
        let p90 = w.quantile("lat", 0.9, 8).unwrap();
        assert!((2.0..4.0).contains(&p90), "p90 {p90}");
        // Over only the newest window everything is in [2,4).
        let p50 = w.quantile("lat", 0.5, 1).unwrap();
        assert!((2.0..4.0).contains(&p50), "p50 {p50}");
        assert_eq!(w.quantile("absent", 0.5, 8), None);
    }

    #[test]
    #[should_panic(expected = "different bucket boundaries")]
    fn merge_rejects_rebucketed_histograms() {
        let mut w = Windowed::new(3);
        w.hist_observe("h", Some(&[1.0]), 0.5);
        w.advance();
        w.hist_observe("h", Some(&[2.0]), 0.5);
        let _ = w.merged(3);
    }

    #[test]
    fn json_round_trip_is_faithful() {
        let mut w = Windowed::new(3);
        w.counter_add("req", 3);
        w.hist_observe("lat", Some(&[1.0, 2.0]), 1.5);
        w.advance();
        w.advance(); // leave an empty sealed frame in the ring
        w.counter_add("req", 1);
        let json = w.to_json();
        let back = Windowed::from_json(&json).expect("round trip");
        assert_eq!(back, w);
        // And via text, the way obs_diff reads baselines back.
        let reparsed = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert_eq!(Windowed::from_json(&reparsed).unwrap(), w);
    }

    #[test]
    fn from_json_rejects_inconsistent_rings() {
        assert!(Windowed::from_json(&Value::object([
            ("capacity", Value::I64(0)),
            ("advances", Value::I64(0)),
        ]))
        .is_err());
        let mut w = Windowed::new(2);
        w.advance();
        let mut json = w.to_json();
        if let Value::Object(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "capacity" {
                    *v = Value::I64(1); // fewer than the frames present
                }
            }
        }
        assert!(Windowed::from_json(&json).is_err());
        // The newest frame must be the current one.
        for bad in [
            r#"{"capacity": 4, "advances": 1, "frames": []}"#,
            r#"{"capacity": 4, "advances": 1}"#,
            r#"{"capacity": 4, "advances": 2, "frames": [{"epoch": 0}, {"epoch": 1}]}"#,
        ] {
            let err = Windowed::from_json(&serde_json::from_str(bad).unwrap()).unwrap_err();
            assert!(err.contains("current frame"), "{bad}: {err}");
        }
    }

    #[test]
    fn from_json_sizes_the_ring_by_its_frames_not_the_declared_capacity() {
        // Declared capacities a hostile file may carry: reserving them up
        // front aborts the process (a 56 TB request) or panics with
        // "capacity overflow".
        for capacity in ["1000000000000", "18446744073709551615"] {
            let text = format!(
                r#"{{"capacity": {capacity}, "advances": 1, "frames": [{{"epoch": 1}}]}}"#
            );
            let w = Windowed::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(w.capacity().to_string(), capacity);
            assert_eq!(w.frames().count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = Windowed::new(0);
    }
}
