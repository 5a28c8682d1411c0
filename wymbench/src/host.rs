//! Host-speed reference for the timed runs.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! up to half for minutes at a time as other tenants come and go, so the
//! plain wall time of the same work spreads wider from run to run than any
//! useful bound. Every timed run therefore also times a fixed reference
//! kernel, interleaved with the work: std-only code owned by the benchmark,
//! which no change to the program can make faster or slower. Each timing is
//! reported scaled to a host on which the kernel takes [`NOMINAL_S`]:
//! measured × `NOMINAL_S` ÷ the median kernel time sampled around it. In a
//! 300-second `explain` run on a two-vCPU Xeon VM, scaling cut the
//! interquartile spread of 20-second medians of `WymModel::explain` latency
//! from 0.18 to 0.06 of their median. The raw timings are printed beside
//! the scaled ones.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time on the nominal host.
pub const NOMINAL_S: f64 = 1e-3;
/// Least time between two samples in a loop of short operations.
const INTERVAL_S: f64 = 0.1;
/// Kernel calls per sample.
const BURST: usize = 2;
/// Samples taken up to this long before an operation starts or after it
/// ends scale its time.
const HALF_WINDOW_S: f64 = 0.5;

/// One timed operation, in seconds since the clock started.
#[derive(Clone, Copy)]
pub struct Op {
    pub start: f64,
    pub wall: f64,
}

/// Which reference kernel a workload is scaled by: the one whose work
/// resembles its own, so that the kernel slows down as much as the
/// workload does when the host gets busy.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Dot products, small allocations and short-string hashing, like the
    /// per-record WYM layers and the scorer's training.
    Record,
    /// Posting lists, then a sort of their neighbour pairs, like blocking.
    Index,
}

/// The run's clock, with the reference-kernel samples taken so far.
pub struct HostClock {
    kernel: Kernel,
    start: Instant,
    /// `(time, kernel seconds)`, in time order.
    samples: Vec<(f64, f64)>,
    last_sample: f64,
}

impl HostClock {
    /// Starts the clock with one sample of `kernel`.
    pub fn new(kernel: Kernel) -> Self {
        let mut clock = Self {
            kernel,
            start: Instant::now(),
            samples: Vec::new(),
            last_sample: 0.0,
        };
        clock.sample();
        clock
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times the reference kernel [`BURST`] times.
    pub fn sample(&mut self) {
        for _ in 0..BURST {
            let t0 = self.now();
            match self.kernel {
                Kernel::Record => {
                    black_box(record_kernel(black_box(17)));
                }
                Kernel::Index => {
                    black_box(index_kernel(black_box(17)));
                }
            }
            let t1 = self.now();
            self.samples.push((t1, t1 - t0));
        }
        self.last_sample = self.now();
    }

    /// Samples if [`INTERVAL_S`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.now() - self.last_sample >= INTERVAL_S {
            self.sample();
        }
    }

    /// Runs `f` as one operation, sampling before it when due and after it
    /// when due.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Op) {
        self.tick();
        let start = self.now();
        let value = f();
        let op = Op {
            start,
            wall: self.now() - start,
        };
        self.tick();
        (value, op)
    }

    /// Starts a stretch of work that is not one of the run's operations,
    /// such as the traced run, with a fresh sample.
    pub fn begin(&mut self) -> f64 {
        self.sample();
        self.now()
    }

    /// Ends the stretch begun at `start`, with a fresh sample.
    pub fn end(&mut self, start: f64) -> Op {
        let op = Op {
            start,
            wall: self.now() - start,
        };
        self.sample();
        op
    }

    /// How much slower than nominal the host ran around `op`: the median
    /// kernel time sampled within [`HALF_WINDOW_S`] of it (or the nearest
    /// samples, if none was) ÷ [`NOMINAL_S`].
    pub fn slowdown(&self, op: Op) -> f64 {
        let (lo, hi) = (op.start - HALF_WINDOW_S, op.start + op.wall + HALF_WINDOW_S);
        let mut a = self.samples.partition_point(|s| s.0 < lo);
        let mut b = self.samples.partition_point(|s| s.0 <= hi);
        if a == b {
            a = a.saturating_sub(BURST);
            b = (b + BURST).min(self.samples.len());
        }
        let kernel: Vec<f64> = self.samples[a..b].iter().map(|s| s.1).collect();
        median(&kernel) / NOMINAL_S
    }

    /// `op`'s wall time on the nominal host.
    pub fn scaled(&self, op: Op) -> f64 {
        op.wall / self.slowdown(op)
    }

    /// Medians of `ops`' wall times: scaled to the nominal host, and raw.
    pub fn medians(&self, ops: &[Op]) -> (f64, f64) {
        let scaled: Vec<f64> = ops.iter().map(|&op| self.scaled(op)).collect();
        let raw: Vec<f64> = ops.iter().map(|op| op.wall).collect();
        (median(&scaled), median(&raw))
    }

    /// The report line on the host's speed over the whole run.
    pub fn line(&self) -> String {
        format!(
            "host: reference kernel median {} ms (nominal {} ms) over {} calls; timings are scaled by the kernel time around each",
            self.run_slowdown() * NOMINAL_S * 1e3,
            NOMINAL_S * 1e3,
            self.samples.len()
        )
    }

    /// Median slowdown over the whole run, for the report.
    pub fn run_slowdown(&self) -> f64 {
        let kernel: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&kernel) / NOMINAL_S
    }
}

/// [`Kernel::Record`], about a millisecond on a 2 GHz Xeon core: the kinds
/// of work a record costs the program — f32 dot products through a
/// 128-300-64 multilayer perceptron, small allocations, string formatting
/// and hash-map lookups of short tokens — in code the program does not
/// share.
fn record_kernel(seed: usize) -> f32 {
    use std::collections::HashMap;
    let w1: Vec<f32> = (0..128 * 300)
        .map(|k| ((k * 7919 + seed) % 97) as f32 * 0.01 - 0.48)
        .collect();
    let w2: Vec<f32> = (0..300 * 64)
        .map(|k| ((k * 104_729 + seed) % 89) as f32 * 0.01 - 0.44)
        .collect();
    let mut acc = 0.0f32;
    for r in 0..16 {
        let x: Vec<f32> = (0..128).map(|k| ((k + r) % 13) as f32 * 0.1).collect();
        let h: Vec<f32> = (0..300)
            .map(|j| {
                let row = &w1[j * 128..(j + 1) * 128];
                row.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>().max(0.0)
            })
            .collect();
        acc += (0..64)
            .map(|j| {
                let row = &w2[j * 300..(j + 1) * 300];
                row.iter().zip(&h).map(|(w, v)| w * v).sum::<f32>()
            })
            .sum::<f32>();
    }
    let mut vocab: HashMap<String, usize> = HashMap::new();
    for k in 0..2000usize {
        let token = format!("tok{}", (k * 2_654_435_761 + seed) % 500);
        let next = vocab.len();
        acc += *vocab.entry(token).or_insert(next) as f32 * 1e-6;
    }
    acc
}

/// [`Kernel::Index`], about a millisecond on a 2 GHz Xeon core: posting
/// lists of 14,000 pseudo-random tokens over 2,000 terms, then the sorted,
/// deduplicated pairs of neighbours in each list.
fn index_kernel(seed: usize) -> u64 {
    use std::collections::HashMap;
    let mut postings: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut x = seed as u64 | 1;
    for record in 0..14_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        postings.entry((x % 2000) as u32).or_default().push(record);
    }
    let mut pairs: Vec<u64> = postings
        .values()
        .flat_map(|list| {
            list.windows(2)
                .map(|w| u64::from(w[0]) << 32 | u64::from(w[1]))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.len() as u64 ^ pairs[pairs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_are_scaled_by_the_samples_around_them() {
        let mut clock = HostClock::new(Kernel::Index);
        clock.samples = vec![
            (0.0, 2e-3),
            (0.1, 2e-3),
            (5.0, 1e-3),
            (5.1, 1e-3),
            (9.0, 4e-3),
        ];
        assert_eq!(
            clock.slowdown(Op {
                start: 4.8,
                wall: 0.1
            }),
            1.0
        );
        assert_eq!(
            clock.scaled(Op {
                start: 0.05,
                wall: 0.02
            }),
            0.01
        );
        // No sample within half a second: the nearest ones on either side.
        assert_eq!(
            clock.slowdown(Op {
                start: 7.0,
                wall: 0.1
            }),
            1.0
        );
        assert_eq!(clock.run_slowdown(), 2.0);
    }
}
