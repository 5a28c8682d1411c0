//! Siamese contrastive projection — the SBERT-substitute trainer.
//!
//! Sentence-BERT fine-tunes BERT with "siamese and triplet network
//! structures" (paper §4.1.1). Our embedding substrate reproduces the same
//! training *shape*: a shared linear projection `P` applied to both sides of
//! a pair, trained with a margin contrastive loss so that representations of
//! matching records move together and non-matching records move apart.
//! Initializing `P` near the identity means an untrained projection degrades
//! gracefully to the static embeddings.

use serde::{Deserialize, Serialize};
use wym_linalg::{kernels, vector, Matrix, Rng64};

/// Configuration of the siamese trainer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiameseConfig {
    /// Margin of the contrastive loss for negative pairs.
    pub margin: f32,
    /// SGD learning rate.
    pub lr: f32,
    /// Training epochs over the pair set.
    pub epochs: usize,
    /// Shuffling / initialization seed.
    pub seed: u64,
    /// Scale of the identity perturbation at init.
    pub init_noise: f32,
}

impl Default for SiameseConfig {
    fn default() -> Self {
        Self { margin: 1.0, lr: 0.05, epochs: 10, seed: 0, init_noise: 0.01 }
    }
}

/// A learned shared projection `v ↦ P v`.
#[derive(Debug, Clone, Serialize)]
pub struct SiameseProjection {
    p: Matrix,
}

impl SiameseProjection {
    /// Identity-plus-noise initialization of dimension `dim`.
    pub fn new(dim: usize, config: &SiameseConfig) -> Self {
        let mut rng = Rng64::new(config.seed);
        let mut p = Matrix::identity(dim);
        let noise = Matrix::randn(dim, dim, config.init_noise, &mut rng);
        p.add_assign(&noise);
        Self { p }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.p.rows()
    }

    /// The learned projection matrix (read-only) — exported verbatim into
    /// model artifacts.
    pub fn matrix(&self) -> &Matrix {
        &self.p
    }

    /// Rebuilds a projection from a stored matrix — the inverse of
    /// [`SiameseProjection::matrix`].
    ///
    /// # Panics
    /// Panics when `p` is not square (projection must map dim → dim).
    pub fn from_matrix(p: Matrix) -> Self {
        assert_eq!(p.rows(), p.cols(), "projection matrix must be square");
        Self { p }
    }

    /// Projects a vector (result is L2-normalized).
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.p.cols()];
        self.project_into(v, &mut out);
        out
    }

    /// [`SiameseProjection::project`] writing into a caller-provided slice:
    /// the one-row case of [`SiameseProjection::project_rows_into`].
    ///
    /// # Panics
    /// Panics on input/output dimension mismatch.
    pub fn project_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.p.rows(), "dimension mismatch");
        assert_eq!(out.len(), self.p.cols(), "output dimension mismatch");
        self.project_rows_into(v, out);
    }

    /// Projects every row of `rows` (row-major, [`dim`](Self::dim) values
    /// each) into the same row of `out` and L2-normalizes it: one
    /// [`kernels::gemm`] call for all rows (the fused embed path projects a
    /// whole entity at once), then one [`vector::normalize`] per row.
    ///
    /// Each output element is `vᵀP`'s column `j`, one `fma` chain over the
    /// input coordinates in ascending order from `+0.0`. The GEMM skips an
    /// aligned group of four steps when all four coefficients are zero and
    /// a zero tail coefficient, but runs a zero coefficient inside a live
    /// group: `fma(0, p, acc)`. That step leaves `acc` unchanged unless `p`
    /// is non-finite or `acc` is `-0.0`, so the result equals a chain that
    /// skips every zero coefficient whenever `P` is finite and no partial
    /// sum is `-0.0`. The chain depends only on its own row, so a row
    /// projects to the same bits alone or in a batch.
    ///
    /// # Panics
    /// Panics when `rows` and `out` differ in length or hold a partial row.
    pub fn project_rows_into(&self, rows: &[f32], out: &mut [f32]) {
        assert_eq!(rows.len(), out.len(), "output dimension mismatch");
        if rows.is_empty() {
            return;
        }
        assert_eq!(rows.len() % self.dim(), 0, "dimension mismatch");
        vt_times(&self.p, rows, out);
        for row in out.chunks_exact_mut(self.dim()) {
            vector::normalize(row);
        }
    }

    /// Trains the projection on `(left, right, is_match)` pairs with the
    /// margin contrastive loss. Returns the mean loss of each epoch.
    pub fn train(
        &mut self,
        pairs: &[(Vec<f32>, Vec<f32>, bool)],
        config: &SiameseConfig,
    ) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let dim = self.dim();
        let mut rng = Rng64::new(config.seed ^ 0xDEAD_BEEF);
        let mut order: Vec<usize> = (0..pairs.len()).collect();

        // Both sides of a pair project in one two-row product; the
        // buffers serve every pair.
        let (mut xy, mut uv) = (vec![0.0f32; 2 * dim], vec![0.0f32; 2 * dim]);
        let mut d = vec![0.0f32; dim];
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f64;
            for &i in &order {
                let (x, y, is_match) = &pairs[i];
                debug_assert_eq!(x.len(), dim);
                // out = Σ_k v_k · row_k(P) = vᵀP, matching Dense's X·W.
                xy[..dim].copy_from_slice(x);
                xy[dim..].copy_from_slice(y);
                vt_times(&self.p, &xy, &mut uv);
                let (u, v) = uv.split_at(dim);
                for ((di, a), b) in d.iter_mut().zip(u).zip(v) {
                    *di = a - b;
                }
                let dist = vector::norm(&d);
                let (loss, scale_u) = if *is_match {
                    // L = dist², dL/du = 2 d
                    (dist * dist, 2.0)
                } else if dist < config.margin && dist > 1e-9 {
                    // L = (m − dist)², dL/du = −2 (m − dist) / dist · d
                    let gap = config.margin - dist;
                    (gap * gap, -2.0 * gap / dist)
                } else {
                    (0.0, 0.0)
                };
                total += loss as f64;
                if scale_u != 0.0 {
                    for di in &mut d {
                        *di *= scale_u;
                    }
                    // SGD on dL/dP = x · dᵀ  +  y · (−d)ᵀ (outer products),
                    // one row of P at a time. `0.0 + g` is the gradient as
                    // a zeroed buffer would hold it: a `-0.0` product
                    // becomes `+0.0`, so a `-0.0` weight keeps its bits.
                    for (k, (&xk, &yk)) in x.iter().zip(y).enumerate() {
                        for (w, &dj) in self.p.row_mut(k).iter_mut().zip(&d) {
                            *w -= config.lr * (0.0 + (xk * dj - yk * dj));
                        }
                    }
                }
            }
            epoch_losses.push((total / pairs.len() as f64) as f32);
        }
        epoch_losses
    }
}

/// `out = V · M` for the row-major rows `V` of `rows` (`m.rows()` values
/// each): the one `vᵀM` routine of projection and training, as one
/// [`kernels::gemm`] call.
fn vt_times(m: &Matrix, rows: &[f32], out: &mut [f32]) {
    let k = m.rows();
    let a = kernels::StridedMat {
        data: rows,
        rows: rows.len().checked_div(k).unwrap_or(0),
        cols: k,
        row_stride: k,
        col_stride: 1,
    };
    kernels::gemm(a, m.as_slice(), m.cols(), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wym_linalg::vector::cosine;

    /// The trainer before the in-place step: each step allocates a zeroed
    /// `dim × dim` gradient, accumulates the outer products into it and
    /// takes an SGD step on the weights (and on a zero bias nothing
    /// reads). Kept as the reference the in-place step must reproduce.
    fn reference_train(
        p: &mut Matrix,
        pairs: &[(Vec<f32>, Vec<f32>, bool)],
        config: &SiameseConfig,
    ) {
        let dim = p.rows();
        let mut rng = Rng64::new(config.seed ^ 0xDEAD_BEEF);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let (mut xy, mut uv) = (vec![0.0f32; 2 * dim], vec![0.0f32; 2 * dim]);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let (x, y, is_match) = &pairs[i];
                xy[..dim].copy_from_slice(x);
                xy[dim..].copy_from_slice(y);
                vt_times(p, &xy, &mut uv);
                let (u, v) = uv.split_at(dim);
                let mut d: Vec<f32> = u.iter().zip(v).map(|(a, b)| a - b).collect();
                let dist = vector::norm(&d);
                let scale_u = if *is_match {
                    2.0
                } else if dist < config.margin && dist > 1e-9 {
                    -2.0 * (config.margin - dist) / dist
                } else {
                    0.0
                };
                if scale_u != 0.0 {
                    for di in &mut d {
                        *di *= scale_u;
                    }
                    let mut dw = Matrix::zeros(dim, dim);
                    for (k, (&xk, &yk)) in x.iter().zip(y).enumerate() {
                        let row = dw.row_mut(k);
                        for (j, &dj) in d.iter().enumerate() {
                            row[j] += xk * dj - yk * dj;
                        }
                    }
                    for (w, g) in p.as_mut_slice().iter_mut().zip(dw.as_slice()) {
                        *w -= config.lr * g;
                    }
                }
            }
        }
    }

    /// The in-place step trains the reference's projection bit for bit on
    /// random pairs whose coordinates include `±0.0` (so some gradient
    /// products are `-0.0`), from a projection with `-0.0` weights.
    #[test]
    fn in_place_step_matches_the_reference_trainer() {
        let mut rng = Rng64::new(5);
        let dim = 6;
        let coordinate = |rng: &mut Rng64| match rng.gen_range(4) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.normal() as f32,
        };
        let pairs: Vec<(Vec<f32>, Vec<f32>, bool)> = (0..40)
            .map(|i| {
                let x = (0..dim).map(|_| coordinate(&mut rng)).collect();
                let y = (0..dim).map(|_| coordinate(&mut rng)).collect();
                (x, y, i % 3 == 0)
            })
            .collect();
        let mut p = Matrix::randn(dim, dim, 0.5, &mut rng);
        for w in p.as_mut_slice().iter_mut().step_by(3) {
            *w = -0.0;
        }
        let config = SiameseConfig { epochs: 4, ..SiameseConfig::default() };
        let mut want = p.clone();
        reference_train(&mut want, &pairs, &config);
        let mut got = SiameseProjection::from_matrix(p);
        got.train(&pairs, &config);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.matrix()), bits(&want));
        let negative_zeros = want.as_slice().iter().filter(|v| v.to_bits() == 0x8000_0000).count();
        assert!(negative_zeros > 0, "some `-0.0` weights must survive training");
    }

    fn unit(v: Vec<f32>) -> Vec<f32> {
        let mut v = v;
        vector::normalize(&mut v);
        v
    }

    #[test]
    fn untrained_projection_is_near_identity() {
        let cfg = SiameseConfig::default();
        let proj = SiameseProjection::new(4, &cfg);
        let v = unit(vec![1.0, 0.0, 0.0, 0.0]);
        let p = proj.project(&v);
        assert!(cosine(&v, &p) > 0.95, "cos {}", cosine(&v, &p));
    }

    #[test]
    fn training_pulls_matches_together_pushes_negatives_apart() {
        // Two clusters along different axes; matches straddle a small
        // perturbation, negatives cross clusters.
        let a1 = unit(vec![1.0, 0.1, 0.0, 0.0]);
        let a2 = unit(vec![1.0, -0.1, 0.05, 0.0]);
        let b1 = unit(vec![0.0, 0.1, 1.0, 0.0]);
        let b2 = unit(vec![0.05, -0.1, 1.0, 0.0]);
        let pairs = vec![
            (a1.clone(), a2.clone(), true),
            (b1.clone(), b2.clone(), true),
            (a1.clone(), b1.clone(), false),
            (a2.clone(), b2.clone(), false),
        ];
        let cfg = SiameseConfig { epochs: 60, lr: 0.05, ..SiameseConfig::default() };
        let mut proj = SiameseProjection::new(4, &cfg);
        let losses = proj.train(&pairs, &cfg);
        assert!(losses.last().unwrap() < &losses[0], "loss should decrease: {losses:?}");

        let pos = cosine(&proj.project(&a1), &proj.project(&a2));
        let neg = cosine(&proj.project(&a1), &proj.project(&b1));
        assert!(pos > neg, "pos {pos} should exceed neg {neg}");
    }

    #[test]
    fn empty_pairs_is_a_noop() {
        let cfg = SiameseConfig::default();
        let mut proj = SiameseProjection::new(3, &cfg);
        let before = proj.project(&[1.0, 2.0, 3.0]);
        assert!(proj.train(&[], &cfg).is_empty());
        assert_eq!(before, proj.project(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn projection_output_is_normalized() {
        let cfg = SiameseConfig::default();
        let proj = SiameseProjection::new(3, &cfg);
        let p = proj.project(&[4.0, -2.0, 7.0]);
        assert!((vector::norm(&p) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SiameseConfig { epochs: 3, ..SiameseConfig::default() };
        let pairs =
            vec![(unit(vec![1.0, 0.0]), unit(vec![0.8, 0.2]), true)];
        let mut p1 = SiameseProjection::new(2, &cfg);
        let mut p2 = SiameseProjection::new(2, &cfg);
        p1.train(&pairs, &cfg);
        p2.train(&pairs, &cfg);
        assert_eq!(p1.project(&[0.3, 0.7]), p2.project(&[0.3, 0.7]));
    }
}
