//! A dense (fully connected) layer with manual backpropagation.

use crate::activation::Activation;
use serde::Serialize;
use wym_linalg::kernels::Relu;
use wym_linalg::{Matrix, Rng64};

/// A dense layer `A = act(X · W + b)` with `W: in × out`.
#[derive(Debug, Clone, Serialize)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias vector, length `out_dim`.
    pub b: Vec<f32>,
    /// Activation applied to the pre-activation.
    pub activation: Activation,
}

/// Gradients of a dense layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrad {
    /// `∂L/∂W`, same shape as `w`.
    pub dw: Matrix,
    /// `∂L/∂b`, same length as `b`.
    pub db: Vec<f32>,
}

impl Dense {
    /// He-initialized dense layer (suited to ReLU hidden units).
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_dim.max(1) as f32).sqrt();
        Self { w: Matrix::randn(in_dim, out_dim, std, rng), b: vec![0.0; out_dim], activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass without caching (inference): the training step's layer
    /// forward, keeping no pre-activation.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut act = Matrix::zeros(0, 0);
        self.forward_into(x, &mut act, None);
        act
    }

    /// The layer forward of training and inference: one GEMM whose store
    /// adds the bias, `Z = X·W + b`, and writes `act = act(Z)` — the ReLU
    /// in that store, another activation in a pass over the output (the
    /// scorer's 1-wide tanh output, a classifier's logit). Training passes
    /// `pre` to keep `Z`, which the backward pass differentiates at; the
    /// same store writes it. Buffers are reshaped to `x.rows() × out_dim`
    /// and reused.
    pub(crate) fn forward_into(&self, x: &Matrix, act: &mut Matrix, pre: Option<&mut Matrix>) {
        let (w, b) = (&self.w, &self.b[..]);
        match (self.activation, pre) {
            (Activation::Relu, None) => x.matmul_bias_into(w, b, act, Relu::InPlace),
            (Activation::Relu, Some(pre)) => {
                act.resize(x.rows(), self.out_dim());
                x.matmul_bias_into(w, b, pre, Relu::Into(act.as_mut_slice()));
            }
            (f, None) => {
                x.matmul_bias_into(w, b, act, Relu::Off);
                act.map_inplace(|z| f.apply(z));
            }
            (f, Some(pre)) => {
                x.matmul_bias_into(w, b, pre, Relu::Off);
                act.resize(pre.rows(), pre.cols());
                for (a, &z) in act.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                    *a = f.apply(z);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Loss, Mlp};
    use crate::train::Step;

    /// Loss, per-layer gradients and `∂L/∂A` buffers of one training step
    /// of `layers` under MSE.
    fn step(layers: &[Dense], x: &Matrix, y: &Matrix) -> (f32, Step) {
        let mlp = Mlp::from_parts(layers.to_vec(), Loss::Mse);
        let mut step = Step::new(&mlp, x.rows());
        step.forward(&mlp, x);
        let loss = step.backward(&mlp, x, y);
        (loss, step)
    }

    fn mse(layer: &Dense, x: &Matrix, y: &Matrix) -> f32 {
        let out = layer.infer(x);
        let d: f64 =
            out.as_slice().iter().zip(y.as_slice()).map(|(a, t)| ((a - t) * (a - t)) as f64).sum();
        d as f32 / x.rows() as f32
    }

    #[test]
    fn forward_known_values() {
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut Rng64::new(0));
        layer.w = Matrix::from_rows(&[&[2.0], &[3.0]]);
        layer.b = vec![1.0];
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]);
        let out = layer.infer(&x);
        assert_eq!(out.row(0), &[6.0]);
        assert_eq!(out.row(1), &[7.0]);
    }

    /// The training step's forward matches inference bit for bit, and both
    /// match the product followed by a separate `z += b; a = act(z)` pass,
    /// for ReLU, Tanh and Identity layers — including pre-activations that
    /// are exactly `-0.0` (a `-0.0` bias on row 0's underflowing product
    /// `1e-25 × -1e-25`), NaN and ±inf. 40 outputs span a two-`zmm` and a
    /// one-`zmm` AVX-512 panel.
    #[test]
    fn infer_matches_training_forward() {
        let mut rng = Rng64::new(1);
        let (rows, out) = (5, 40);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            let mut layer = Dense::new(4, out, act, &mut rng);
            let mut x = Matrix::randn(rows, 4, 1.0, &mut rng);
            x.row_mut(0).copy_from_slice(&[0.0, 0.0, 0.0, 1e-25]);
            for j in 0..out {
                layer.b[j] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, layer.b[j]][j % 5];
                if j % 5 == 0 {
                    layer.w[(3, j)] = -1e-25;
                }
            }
            let (_, step) = step(std::slice::from_ref(&layer), &x, &Matrix::zeros(rows, out));
            let mut want = x.matmul(&layer.w);
            for row in want.as_mut_slice().chunks_mut(out) {
                for (z, b) in row.iter_mut().zip(&layer.b) {
                    *z += b;
                    *z = act.apply(*z);
                }
            }
            assert_eq!(step.pre[0][(0, 0)].to_bits(), (-0.0f32).to_bits(), "{act:?}");
            assert_eq!(bits(&step.act[0]), bits(&want), "{act:?}: training forward");
            assert_eq!(bits(&layer.infer(&x)), bits(&want), "{act:?}: inference");
        }
    }

    #[test]
    fn gradient_check_weights() {
        // Numeric vs analytic gradient of the MSE of a tanh layer.
        let mut rng = Rng64::new(5);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let y = Matrix::randn(4, 2, 1.0, &mut rng);
        let (_, step) = step(std::slice::from_ref(&layer), &x, &y);

        let eps = 1e-3;
        for i in 0..layer.w.rows() {
            for j in 0..layer.w.cols() {
                let orig = layer.w[(i, j)];
                layer.w[(i, j)] = orig + eps;
                let up = mse(&layer, &x, &y);
                layer.w[(i, j)] = orig - eps;
                let down = mse(&layer, &x, &y);
                layer.w[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = step.grads[0].dw[(i, j)];
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{i},{j}]: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_bias_and_input() {
        let mut rng = Rng64::new(6);
        let mut layer = Dense::new(2, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let y = Matrix::randn(3, 2, 1.0, &mut rng);
        let (_, one) = step(std::slice::from_ref(&layer), &x, &y);

        let eps = 1e-3;
        // Bias gradient.
        for j in 0..layer.b.len() {
            let orig = layer.b[j];
            layer.b[j] = orig + eps;
            let up = mse(&layer, &x, &y);
            layer.b[j] = orig - eps;
            let down = mse(&layer, &x, &y);
            layer.b[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!((numeric - one.grads[0].db[j]).abs() < 1e-2, "db[{j}]");
        }
        // Input gradient: behind an identity layer (W = I, b = 0) the
        // layer's input is X, so the ∂L/∂A the step propagates into the
        // identity layer is ∂L/∂X.
        let mut identity = Dense::new(2, 2, Activation::Identity, &mut rng);
        identity.w = Matrix::identity(2);
        identity.b = vec![0.0; 2];
        let (_, two) = step(&[identity, layer.clone()], &x, &y);
        let mut x2 = x.clone();
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let orig = x2[(i, j)];
                x2[(i, j)] = orig + eps;
                let up = mse(&layer, &x2, &y);
                x2[(i, j)] = orig - eps;
                let down = mse(&layer, &x2, &y);
                x2[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!((numeric - two.delta[0][(i, j)]).abs() < 1e-2, "dx[{i},{j}]");
            }
        }
    }
}
