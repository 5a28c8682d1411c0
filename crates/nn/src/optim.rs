//! The Adam optimizer of the relevance scorer. (The siamese trainer takes
//! its plain SGD step in place; see `siamese`.)

use crate::layer::{Dense, DenseGrad};
use serde::{Deserialize, Serialize};
use wym_linalg::Matrix;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (the paper uses 3e-5 for the scorer).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay applied to weights (not biases).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// Per-layer Adam state.
#[derive(Debug, Clone)]
struct AdamSlot {
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

/// Adam optimizer over a stack of dense layers.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    slots: Vec<AdamSlot>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state matching the given layer stack.
    pub fn new(config: AdamConfig, layers: &[Dense]) -> Self {
        let slots = layers
            .iter()
            .map(|l| AdamSlot {
                mw: Matrix::zeros(l.w.rows(), l.w.cols()),
                vw: Matrix::zeros(l.w.rows(), l.w.cols()),
                mb: vec![0.0; l.b.len()],
                vb: vec![0.0; l.b.len()],
            })
            .collect();
        Self { config, slots, t: 0 }
    }

    /// Applies one Adam step given per-layer gradients.
    ///
    /// # Panics
    /// Panics if `grads.len()` differs from the layer count at construction.
    pub fn step(&mut self, layers: &mut [Dense], grads: &[DenseGrad]) {
        assert_eq!(layers.len(), self.slots.len(), "layer count changed under optimizer");
        assert_eq!(grads.len(), self.slots.len(), "gradient count mismatch");
        self.t += 1;
        let c = self.config;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for ((layer, grad), slot) in layers.iter_mut().zip(grads).zip(&mut self.slots) {
            let w = layer.w.as_mut_slice();
            let (mw, vw) = (slot.mw.as_mut_slice(), slot.vw.as_mut_slice());
            c.update(w, grad.dw.as_slice(), mw, vw, Some(c.weight_decay), bc1, bc2);
            // Biases: no weight decay.
            c.update(&mut layer.b, &grad.db, &mut slot.mb, &mut slot.vb, None, bc1, bc2);
        }
    }
}

impl AdamConfig {
    /// One Adam update of a tensor `p` with gradient `g` and moments
    /// `m`, `v`, as a single zipped pass the compiler vectorises (every
    /// operation is an IEEE add, multiply, divide or square root, so the
    /// lanes round exactly like the scalar loop). `decay` adds
    /// `decay · p` to the gradient.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &self,
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        decay: Option<f32>,
        bc1: f32,
        bc2: f32,
    ) {
        let c = self;
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            let g = match decay {
                Some(wd) => g + wd * *p,
                None => g,
            };
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use wym_linalg::Rng64;

    /// Minimizing f(w) = (w - 3)^2 with Adam should converge near 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut rng = Rng64::new(0);
        let mut layers = vec![Dense::new(1, 1, Activation::Identity, &mut rng)];
        layers[0].w[(0, 0)] = 0.0;
        layers[0].b[0] = 0.0;
        let mut adam = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() }, &layers);
        for _ in 0..500 {
            let w = layers[0].w[(0, 0)];
            let grad = DenseGrad {
                dw: Matrix::from_rows(&[&[2.0 * (w - 3.0)]]),
                db: vec![0.0],
            };
            adam.step(&mut layers, &[grad]);
        }
        assert!((layers[0].w[(0, 0)] - 3.0).abs() < 0.05, "w = {}", layers[0].w[(0, 0)]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Rng64::new(0);
        let mut layers = vec![Dense::new(1, 1, Activation::Identity, &mut rng)];
        layers[0].w[(0, 0)] = 5.0;
        let mut adam = Adam::new(
            AdamConfig { lr: 0.1, weight_decay: 1.0, ..AdamConfig::default() },
            &layers,
        );
        for _ in 0..200 {
            let grad = DenseGrad { dw: Matrix::zeros(1, 1), db: vec![0.0] };
            adam.step(&mut layers, &[grad]);
        }
        assert!(layers[0].w[(0, 0)].abs() < 0.5, "decay should pull weight toward 0");
    }
}
