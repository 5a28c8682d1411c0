//! Deterministic pseudo-random number generation.
//!
//! Every stochastic step in the reproduction (weight init, mini-batch
//! shuffling, dataset synthesis, perturbation sampling) draws from this
//! generator so that runs are reproducible across machines without relying
//! on platform entropy. The core is splitmix64, which has excellent
//! statistical quality for its size and is trivially seedable.

/// A splitmix64-based deterministic RNG.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    /// Derives an independent child generator; useful to give each record or
    /// worker its own stream that does not depend on evaluation order.
    pub fn fork(&mut self, salt: u64) -> Rng64 {
        let s = self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng64::new(s)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn gen_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) / ((1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.gen_f64().max(1e-12);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i + 1);
            items.swap(i, j);
        }
    }

    /// Uniformly chooses one element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_range(items.len())])
        }
    }

    /// Samples `k` distinct indices from `0..n` (or all of them if `k >= n`).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

/// Stable 64-bit FNV-1a hash of a byte string; used wherever a *value*
/// (a token, a dataset name) must be turned into a reproducible seed.
pub fn hash64(bytes: &[u8]) -> u64 {
    hash64_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`:
/// `hash64_extend(hash64(a), b) == hash64(a ++ b)`, so a feature made of
/// two parts hashes without concatenating them.
pub fn hash64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(5);
        let mut b = Rng64::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_f32_in_unit_interval() {
        let mut rng = Rng64::new(9);
        for _ in 0..10_000 {
            let v = rng.gen_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = Rng64::new(3);
        for _ in 0..1000 {
            assert!(rng.gen_range(7) < 7);
        }
        assert_eq!(rng.gen_range(0), 0);
    }

    #[test]
    fn normal_mean_and_var_are_plausible() {
        let mut rng = Rng64::new(1234);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::new(7);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(8);
        let s = rng.sample_indices(20, 10);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn hash64_stable_and_distinct() {
        assert_eq!(hash64(b"abc"), hash64(b"abc"));
        assert_ne!(hash64(b"abc"), hash64(b"abd"));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng64::new(10);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
