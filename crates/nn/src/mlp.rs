//! Multi-layer perceptron with manual backpropagation.

use crate::activation::{sigmoid, Activation};
use crate::layer::{Dense, DenseGrad};
use crate::train::Step;
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// Training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error over all outputs (regression — the relevance scorer).
    Mse,
    /// Binary cross entropy on a single logit output (classification — the
    /// baseline matchers). The output layer must be `Identity`; the sigmoid
    /// is fused into the loss for numerical stability.
    BceWithLogits,
}

/// Architecture description of an [`Mlp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer widths from input to output, e.g. `[130, 300, 64, 32, 1]` for
    /// the paper's relevance scorer over 130-dimensional unit features.
    pub layer_sizes: Vec<usize>,
    /// Activation of every hidden layer.
    pub hidden: Activation,
    /// Activation of the output layer.
    pub output: Activation,
    /// Loss minimized during training.
    pub loss: Loss,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's relevance-scorer architecture over `in_dim` inputs:
    /// hidden layers 300-64-32 with ReLU, tanh output, MSE loss (§4.2).
    pub fn scorer(in_dim: usize, seed: u64) -> Self {
        Self {
            layer_sizes: vec![in_dim, 300, 64, 32, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed,
        }
    }

    /// A binary classifier head: hidden ReLU layers, single logit output.
    pub fn classifier(layer_sizes: Vec<usize>, seed: u64) -> Self {
        Self {
            layer_sizes,
            hidden: Activation::Relu,
            output: Activation::Identity,
            loss: Loss::BceWithLogits,
            seed,
        }
    }
}

/// A fully connected feed-forward network.
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    loss: Loss,
}

impl Mlp {
    /// Builds the network with He initialization.
    ///
    /// # Panics
    /// Panics if fewer than two layer sizes are given.
    pub fn new(config: &MlpConfig) -> Self {
        assert!(config.layer_sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = Rng64::new(config.seed);
        let n = config.layer_sizes.len() - 1;
        let mut layers = Vec::with_capacity(n);
        for i in 0..n {
            let act = if i + 1 == n { config.output } else { config.hidden };
            layers.push(Dense::new(
                config.layer_sizes[i],
                config.layer_sizes[i + 1],
                act,
                &mut rng,
            ));
        }
        Self { layers, loss: config.loss }
    }

    /// Reassembles a network from an explicit layer stack and loss — the
    /// inverse of [`Mlp::layers`] + [`Mlp::loss_kind`], used by the model
    /// artifact loader to rebuild a trained network from exported tensors.
    ///
    /// # Panics
    /// Panics when `layers` is empty or consecutive layer shapes disagree.
    pub fn from_parts(layers: Vec<Dense>, loss: Loss) -> Self {
        assert!(!layers.is_empty(), "an Mlp needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "consecutive layer shapes must chain"
            );
        }
        Self { layers, loss }
    }

    /// The layer stack (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by the optimizer and the
    /// embedding fine-tuner, which reuses a trained first layer).
    pub fn layers_mut(&mut self) -> &mut Vec<Dense> {
        &mut self.layers
    }

    /// The configured loss.
    pub fn loss_kind(&self) -> Loss {
        self.loss
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass returning raw network outputs (post output-activation):
    /// every layer runs the training step's layer forward
    /// (`Dense::forward_into`, keeping no pre-activation) over two buffers
    /// reused across layers.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (mut act, mut next) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward_into(if l == 0 { x } else { &act }, &mut next, None);
            std::mem::swap(&mut act, &mut next);
        }
        act
    }

    /// Predicted values for single-output networks, applying the sigmoid when
    /// the loss is BCE-with-logits (so the result is a probability).
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        let out = self.forward(x);
        assert_eq!(out.cols(), 1, "predict expects a single-output network");
        match self.loss {
            Loss::Mse => out.col(0),
            Loss::BceWithLogits => out.col(0).into_iter().map(sigmoid).collect(),
        }
    }

    /// Loss and per-layer gradients (averaged over the batch) of one
    /// forward + backward pass over `(x, y)` — the training step of
    /// [`crate::train::fit`], run once on fresh buffers.
    pub fn loss_and_grads(&self, x: &Matrix, y: &Matrix) -> (f32, Vec<DenseGrad>) {
        assert_eq!(x.rows(), y.rows(), "x / y row mismatch");
        let mut step = Step::new(self, x.rows());
        step.forward(self, x);
        let loss = step.backward(self, x, y);
        (loss, step.grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, AdamConfig};
    use crate::train::TrainConfig;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&MlpConfig::scorer(10, 0));
        let x = Matrix::zeros(4, 10);
        let out = mlp.forward(&x);
        assert_eq!(out.shape(), (4, 1));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_degenerate_architecture() {
        let _ = Mlp::new(&MlpConfig {
            layer_sizes: vec![3],
            hidden: Activation::Relu,
            output: Activation::Identity,
            loss: Loss::Mse,
            seed: 0,
        });
    }

    #[test]
    fn mse_gradient_check_end_to_end() {
        let cfg = MlpConfig {
            layer_sizes: vec![3, 4, 1],
            hidden: Activation::Tanh,
            output: Activation::Identity,
            loss: Loss::Mse,
            seed: 3,
        };
        let mut mlp = Mlp::new(&cfg);
        let mut rng = Rng64::new(17);
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let y = Matrix::randn(5, 1, 1.0, &mut rng);
        let (_, grads) = mlp.loss_and_grads(&x, &y);

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for li in 0..mlp.layers.len() {
            for i in 0..mlp.layers[li].w.rows() {
                for j in 0..mlp.layers[li].w.cols() {
                    let orig = mlp.layers[li].w[(i, j)];
                    mlp.layers[li].w[(i, j)] = orig + eps;
                    let (up, _) = mlp.loss_and_grads(&x, &y);
                    mlp.layers[li].w[(i, j)] = orig - eps;
                    let (down, _) = mlp.loss_and_grads(&x, &y);
                    mlp.layers[li].w[(i, j)] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads[li].dw[(i, j)];
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "layer {li} dW[{i},{j}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn bce_gradient_check_end_to_end() {
        let cfg = MlpConfig::classifier(vec![2, 3, 1], 9);
        let mut mlp = Mlp::new(&cfg);
        let mut rng = Rng64::new(23);
        let x = Matrix::randn(6, 2, 1.0, &mut rng);
        let y = Matrix::from_vec(6, 1, vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0]);
        let (_, grads) = mlp.loss_and_grads(&x, &y);
        let eps = 1e-3;
        let li = 0;
        for i in 0..mlp.layers[li].w.rows() {
            for j in 0..mlp.layers[li].w.cols() {
                let orig = mlp.layers[li].w[(i, j)];
                mlp.layers[li].w[(i, j)] = orig + eps;
                let (up, _) = mlp.loss_and_grads(&x, &y);
                mlp.layers[li].w[(i, j)] = orig - eps;
                let (down, _) = mlp.loss_and_grads(&x, &y);
                mlp.layers[li].w[(i, j)] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - grads[li].dw[(i, j)]).abs() < 1e-2,
                    "dW[{i},{j}] numeric {numeric} vs {}",
                    grads[li].dw[(i, j)]
                );
            }
        }
    }

    #[test]
    fn adam_training_reduces_loss_on_xor() {
        // XOR is not linearly separable: passing this requires working
        // hidden-layer backprop, not just a linear fit.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let cfg = MlpConfig::classifier(vec![2, 16, 1], 7);
        let mut mlp = Mlp::new(&cfg);
        let mut adam = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() }, mlp.layers());
        let (initial, _) = mlp.loss_and_grads(&x, &y);
        for _ in 0..400 {
            let (_, grads) = mlp.loss_and_grads(&x, &y);
            adam.step(mlp.layers_mut(), &grads);
        }
        let (fin, _) = mlp.loss_and_grads(&x, &y);
        assert!(fin < initial * 0.2, "loss {initial} -> {fin}");
        let p = mlp.predict(&x);
        assert!(p[0] < 0.5 && p[3] < 0.5 && p[1] > 0.5 && p[2] > 0.5, "{p:?}");
    }

    #[test]
    fn fit_learns_sign_regression() {
        // Regression smoke test through the high-level training loop.
        let mut rng = Rng64::new(31);
        let x = Matrix::randn(256, 4, 1.0, &mut rng);
        let targets: Vec<f32> = x.iter_rows().map(|r| if r[0] > 0.0 { 1.0 } else { -1.0 }).collect();
        let y = Matrix::from_vec(256, 1, targets);
        let cfg = MlpConfig {
            layer_sizes: vec![4, 32, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed: 2,
        };
        let mut mlp = Mlp::new(&cfg);
        let report = crate::train::fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig { epochs: 60, batch_size: 32, lr: 0.01, seed: 5, ..TrainConfig::default() },
        );
        assert!(report.final_loss < 0.2, "final loss {}", report.final_loss);
        let preds = mlp.predict(&x);
        let correct = preds
            .iter()
            .zip(y.col(0))
            .filter(|(p, t)| (p.signum() - t.signum()).abs() < 0.5)
            .count();
        assert!(correct as f32 / 256.0 > 0.95, "accuracy {correct}/256");
    }
}
