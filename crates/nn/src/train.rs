//! Mini-batch training loop.

use crate::activation::{sigmoid, Activation};
use crate::layer::DenseGrad;
use crate::mlp::{Loss, Mlp};
use crate::optim::{Adam, AdamConfig};
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// Mini-batch training configuration.
///
/// Defaults mirror the paper's relevance-scorer recipe (§4.2): 40 epochs,
/// batch size 256. The default learning rate is higher than the paper's
/// 3·10⁻⁵ because that value was tuned for BERT-sized (768-d) inputs; callers
/// reproducing the paper exactly can set `lr: 3e-5`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Stop early when the epoch loss drops below this value.
    pub loss_target: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 256,
            lr: 1e-3,
            weight_decay: 0.0,
            seed: 0,
            loss_target: 0.0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean batch loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Loss of the last completed epoch.
    pub final_loss: f32,
    /// Epochs actually run (may be fewer than configured on early stop).
    pub epochs_run: usize,
}

/// Trains `mlp` on `(x, y)` with shuffled mini-batches and Adam.
///
/// Every mini-batch runs one training step over buffers sized once per fit:
/// the rows are gathered into a reused batch matrix, and the forward,
/// backward and Adam passes write into reused activation, gradient and
/// optimizer buffers, so after the first batch the loop does not allocate.
/// Under tracing, the `nn.gather`, `nn.forward`, `nn.backward` (loss
/// included) and `nn.adam` spans split each batch's time.
///
/// # Panics
/// Panics if `x` and `y` disagree on the number of rows or `x` is empty.
pub fn fit(mlp: &mut Mlp, x: &Matrix, y: &Matrix, config: &TrainConfig) -> TrainReport {
    assert_eq!(x.rows(), y.rows(), "x / y row mismatch");
    assert!(x.rows() > 0, "cannot train on an empty dataset");
    let _span = wym_obs::span("nn_fit");
    let telemetry = wym_obs::enabled();
    let n = x.rows();
    let bs = config.batch_size.clamp(1, n);
    let mut rng = Rng64::new(config.seed);
    let mut adam = Adam::new(
        AdamConfig { lr: config.lr, weight_decay: config.weight_decay, ..AdamConfig::default() },
        mlp.layers(),
    );
    let mut step = Step::new(mlp, bs);
    let (mut bx, mut by) = (Matrix::zeros(bs, x.cols()), Matrix::zeros(bs, y.cols()));

    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let mut grad_sq = 0.0f64;
        for chunk in order.chunks(bs) {
            {
                let _span = wym_obs::span("nn.gather");
                x.select_rows_into(chunk, &mut bx);
                y.select_rows_into(chunk, &mut by);
            }
            {
                let _span = wym_obs::span("nn.forward");
                step.forward(mlp, &bx);
            }
            let loss = {
                let _span = wym_obs::span("nn.backward");
                step.backward(mlp, &bx, &by)
            };
            if telemetry {
                for g in &step.grads {
                    grad_sq +=
                        g.dw.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
                    grad_sq += g.db.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
                }
            }
            {
                let _span = wym_obs::span("nn.adam");
                adam.step(mlp.layers_mut(), &step.grads);
            }
            total += loss as f64;
            batches += 1;
        }
        let epoch_loss = (total / batches.max(1) as f64) as f32;
        epoch_losses.push(epoch_loss);
        if telemetry {
            wym_obs::hist_observe("nn.epoch_loss", epoch_loss as f64);
            // RMS per-batch gradient L2 norm: batch count cancels scale so
            // epochs of different batch counts stay comparable.
            wym_obs::hist_observe(
                "nn.epoch_grad_norm",
                (grad_sq / batches.max(1) as f64).sqrt(),
            );
        }
        if epoch_loss <= config.loss_target {
            break;
        }
    }
    let final_loss = epoch_losses.last().copied().unwrap_or(f32::INFINITY);
    if telemetry {
        wym_obs::gauge_set("nn.final_loss", final_loss as f64);
        wym_obs::counter_add("nn.epochs_run", epoch_losses.len() as u64);
    }
    TrainReport { epochs_run: epoch_losses.len(), epoch_losses, final_loss }
}

/// The buffers of one training step — forward, loss and backward over a
/// mini-batch — sized for a batch of up to `rows` rows and reused by every
/// batch. [`fit`] and [`Mlp::loss_and_grads`] both run through it, so there
/// is one training path.
pub(crate) struct Step {
    /// Per layer, the pre-activation `Z = X·W + b`.
    pub(crate) pre: Vec<Matrix>,
    /// Per layer, the activation `act(Z)` (the next layer's input).
    pub(crate) act: Vec<Matrix>,
    /// Per layer, `∂L/∂A`, turned into `∂L/∂Z` in place by the backward
    /// pass.
    pub(crate) delta: Vec<Matrix>,
    /// Per layer, the parameter gradients of the last backward pass.
    pub(crate) grads: Vec<DenseGrad>,
}

impl Step {
    /// Buffers for `mlp` at batches of up to `rows` rows.
    pub(crate) fn new(mlp: &Mlp, rows: usize) -> Self {
        let layers = mlp.layers();
        let outs = || layers.iter().map(|l| Matrix::zeros(rows, l.out_dim())).collect::<Vec<_>>();
        Self {
            pre: outs(),
            act: outs(),
            delta: outs(),
            grads: layers
                .iter()
                .map(|l| DenseGrad {
                    dw: Matrix::zeros(l.in_dim(), l.out_dim()),
                    db: vec![0.0; l.out_dim()],
                })
                .collect(),
        }
    }

    /// Forward pass over the batch `x`: per layer, the layer forward
    /// shared with inference (`Dense::forward_into`) into
    /// `pre` and `act`.
    pub(crate) fn forward(&mut self, mlp: &Mlp, x: &Matrix) {
        for (l, layer) in mlp.layers().iter().enumerate() {
            let (done, rest) = self.act.split_at_mut(l);
            let input = if l == 0 { x } else { &done[l - 1] };
            layer.forward_into(input, &mut rest[0], Some(&mut self.pre[l]));
        }
    }

    /// Loss of the last [`Step::forward`] against `y`, and the backward
    /// pass filling [`Step::grads`] (averaged over the batch). The input
    /// layer's `∂L/∂X` is never formed: nothing consumes it.
    pub(crate) fn backward(&mut self, mlp: &Mlp, x: &Matrix, y: &Matrix) -> f32 {
        let layers = mlp.layers();
        let last = layers.len() - 1;
        let n = x.rows().max(1) as f32;
        let loss = output_grad(mlp.loss_kind(), &self.act[last], y, &mut self.delta[last], n);
        for l in (0..layers.len()).rev() {
            let layer = &layers[l];
            let delta = &mut self.delta[l];
            mul_derivative(layer.activation, delta, &self.pre[l], &self.act[l]);
            let input = if l == 0 { x } else { &self.act[l - 1] };
            let grad = &mut self.grads[l];
            input.t_matmul_into(delta, &mut grad.dw);
            grad.db.fill(0.0);
            for row in delta.iter_rows() {
                for (s, &v) in grad.db.iter_mut().zip(row) {
                    *s += v;
                }
            }
            if l > 0 {
                let (before, from) = self.delta.split_at_mut(l);
                from[0].matmul_t_into(&layer.w, &mut before[l - 1]);
            }
        }
        loss
    }
}

/// `δ = ∂L/∂Z = ∂L/∂A ⊙ act'(Z)` in place over `delta`, from the layer's
/// stored pre-activation `pre` and activation `a`: every product is
/// `d * act.derivative(z)` bit for bit, but the activation is matched once
/// per layer and nothing is recomputed. ReLU′ is a select on `z > 0`
/// (`z >= 0` would differ at zero), Tanh′ `1 − a·a` and Sigmoid′
/// `a·(1 − a)` read the activation `derivative` would recompute from `z`,
/// and Identity′ = 1 leaves `delta` as it is.
fn mul_derivative(act: Activation, delta: &mut Matrix, pre: &Matrix, a: &Matrix) {
    let delta = delta.as_mut_slice();
    match act {
        Activation::Identity => {}
        Activation::Relu => {
            for (d, &z) in delta.iter_mut().zip(pre.as_slice()) {
                *d *= if z > 0.0 { 1.0 } else { 0.0 };
            }
        }
        Activation::Tanh => {
            for (d, &a) in delta.iter_mut().zip(a.as_slice()) {
                *d *= 1.0 - a * a;
            }
        }
        Activation::Sigmoid => {
            for (d, &a) in delta.iter_mut().zip(a.as_slice()) {
                *d *= a * (1.0 - a);
            }
        }
    }
}

/// The loss over the batch outputs `a` against targets `y`, and `∂L/∂A`
/// (batch-averaged) written to `d`. For BCE-with-logits `d` is `∂L/∂Z`
/// directly (the fused form): the output layer must be `Identity`, whose
/// derivative of 1 leaves it untouched.
fn output_grad(loss: Loss, a: &Matrix, y: &Matrix, d: &mut Matrix, n: f32) -> f32 {
    assert_eq!(a.rows(), y.rows(), "x / y row mismatch");
    d.resize(a.rows(), a.cols());
    let d = d.as_mut_slice();
    match loss {
        Loss::Mse => {
            assert_eq!(a.shape(), y.shape(), "output / target shape mismatch");
            for ((d, &a), &t) in d.iter_mut().zip(a.as_slice()).zip(y.as_slice()) {
                *d = a - t;
            }
            let loss = d.iter().map(|v| (v * v) as f64).sum::<f64>() as f32 / n;
            let scale = 2.0 / n;
            for v in d.iter_mut() {
                *v *= scale;
            }
            loss
        }
        Loss::BceWithLogits => {
            assert_eq!(a.cols(), 1, "BCE expects a single logit output");
            let mut loss = 0.0f64;
            for ((d, &z), &t) in d.iter_mut().zip(a.as_slice()).zip(y.as_slice()) {
                // log(1 + e^z) - t*z, stable form.
                let log1pe = if z > 0.0 { z + (-z).exp().ln_1p() } else { z.exp().ln_1p() };
                loss += (log1pe - t * z) as f64;
                *d = (sigmoid(z) - t) / n;
            }
            loss as f32 / n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = Rng64::new(1);
        let x = Matrix::randn(128, 3, 1.0, &mut rng);
        let y = Matrix::from_vec(128, 1, x.iter_rows().map(|r| r[0] * 0.5 + r[1]).collect());
        let mut mlp = Mlp::new(&MlpConfig {
            layer_sizes: vec![3, 8, 1],
            hidden: crate::Activation::Relu,
            output: crate::Activation::Identity,
            loss: crate::Loss::Mse,
            seed: 0,
        });
        let report = fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig { epochs: 30, batch_size: 16, lr: 0.01, ..TrainConfig::default() },
        );
        assert!(report.final_loss < report.epoch_losses[0] * 0.3);
        assert_eq!(report.epochs_run, 30);
    }

    #[test]
    fn early_stop_on_loss_target() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = x.clone();
        let mut mlp = Mlp::new(&MlpConfig {
            layer_sizes: vec![1, 1],
            hidden: crate::Activation::Identity,
            output: crate::Activation::Identity,
            loss: crate::Loss::Mse,
            seed: 0,
        });
        let report = fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig {
                epochs: 5000,
                batch_size: 4,
                lr: 0.05,
                loss_target: 0.01,
                ..TrainConfig::default()
            },
        );
        assert!(report.epochs_run < 5000, "should stop early, ran {}", report.epochs_run);
        assert!(report.final_loss <= 0.01);
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut rng = Rng64::new(3);
        let x = Matrix::randn(64, 2, 1.0, &mut rng);
        let y = Matrix::from_vec(64, 1, x.iter_rows().map(|r| r[0]).collect());
        let run = |seed| {
            let mut mlp = Mlp::new(&MlpConfig {
                layer_sizes: vec![2, 4, 1],
                hidden: crate::Activation::Relu,
                output: crate::Activation::Identity,
                loss: crate::Loss::Mse,
                seed: 11,
            });
            let r = fit(
                &mut mlp,
                &x,
                &y,
                &TrainConfig { epochs: 5, batch_size: 8, seed, ..TrainConfig::default() },
            );
            r.final_loss
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn telemetry_records_per_epoch_loss_and_grad_norm() {
        use std::sync::Arc;
        let mut rng = Rng64::new(2);
        let x = Matrix::randn(32, 2, 1.0, &mut rng);
        let y = Matrix::from_vec(32, 1, x.iter_rows().map(|r| r[0]).collect());
        let mut mlp = Mlp::new(&MlpConfig {
            layer_sizes: vec![2, 4, 1],
            hidden: crate::Activation::Relu,
            output: crate::Activation::Identity,
            loss: crate::Loss::Mse,
            seed: 0,
        });
        let obs = Arc::new(wym_obs::Recorder::new_enabled());
        let report = wym_obs::with_recorder(Arc::clone(&obs), || {
            fit(
                &mut mlp,
                &x,
                &y,
                &TrainConfig { epochs: 7, batch_size: 8, lr: 0.01, ..TrainConfig::default() },
            )
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counter("nn.epochs_run"), Some(7));
        let losses = snap.histogram("nn.epoch_loss").expect("loss histogram");
        assert_eq!(losses.count(), 7, "one loss observation per epoch");
        assert!((losses.sum()
            - report.epoch_losses.iter().map(|&l| l as f64).sum::<f64>())
        .abs()
            < 1e-6);
        let grads = snap.histogram("nn.epoch_grad_norm").expect("grad-norm histogram");
        assert_eq!(grads.count(), 7);
        assert!(grads.min() > 0.0, "gradients should be nonzero while learning");
        assert_eq!(snap.gauge("nn.final_loss"), Some(report.final_loss as f64));
        assert_eq!(snap.span_count("nn_fit"), 1);
    }

    /// The backward's `∂L/∂Z` is `∂L/∂A ⊙ Activation::derivative(z)` bit
    /// for bit under every activation, on pre-activations of `+0.0`,
    /// `-0.0`, NaN, ±inf, tiny, ordinary and saturating magnitudes. One
    /// 2 → 1 layer with `w = [1, 1e-25]` and a `-0.0` bias makes them: a
    /// row `[z, 0]` gives `Z = z`, `[0, 0]` gives `+0.0`, and `[0, -1e-25]`
    /// an underflowing product, `-0.0`. The targets make `∂L/∂A` nonzero
    /// where the activation is 0.
    #[test]
    fn backward_multiplies_by_the_activation_derivative() {
        let zs = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e-30, 0.5, -0.5, 3.0];
        let zs = zs.into_iter().chain([-3.0, 20.0, -20.0, 100.0, -100.0, 1e30]);
        let mut rows: Vec<[f32; 2]> = zs.map(|z| [z, 0.0]).collect();
        rows.extend([[0.0, 0.0], [0.0, -1e-25]]);
        let x = Matrix::from_row_vecs(rows.iter().map(|r| r.to_vec()).collect());
        let y = Matrix::filled(x.rows(), 1, 0.25);
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            let w = Matrix::from_rows(&[&[1.0], &[1e-25]]);
            let layer = crate::Dense { w, b: vec![-0.0], activation: act };
            let mlp = Mlp::from_parts(vec![layer], Loss::Mse);
            let mut step = Step::new(&mlp, x.rows());
            step.forward(&mlp, &x);
            step.backward(&mlp, &x, &y);
            let pre = step.pre[0].as_slice();
            let zero_bits: Vec<u32> = pre[pre.len() - 2..].iter().map(|z| z.to_bits()).collect();
            assert_eq!(zero_bits, [0.0f32.to_bits(), (-0.0f32).to_bits()], "{act:?}");
            let mut da = Matrix::zeros(0, 0);
            output_grad(Loss::Mse, &step.act[0], &y, &mut da, x.rows() as f32);
            for ((&dz, &da), &z) in step.delta[0].as_slice().iter().zip(da.as_slice()).zip(pre) {
                let want = da * act.derivative(z);
                assert_eq!(dz.to_bits(), want.to_bits(), "{act:?} at z = {z:?}: {dz} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_training_set() {
        let mut mlp = Mlp::new(&MlpConfig::classifier(vec![2, 1], 0));
        let x = Matrix::zeros(0, 2);
        let y = Matrix::zeros(0, 1);
        let _ = fit(&mut mlp, &x, &y, &TrainConfig::default());
    }
}
