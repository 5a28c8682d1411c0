//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (linear output layer).
    Identity,
    /// Rectified linear unit — the hidden activation used by the paper.
    Relu,
    /// Hyperbolic tangent — used as the scorer's output so relevance scores
    /// land in `[-1, 1]` as required by §3.1.2.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, z: f32) -> f32 {
        match self {
            Activation::Identity => z,
            Activation::Relu => wym_linalg::kernels::relu(z),
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => sigmoid(z),
        }
    }

    /// Derivative with respect to the pre-activation, expressed in terms of
    /// the pre-activation `z` (not the output).
    #[inline]
    pub fn derivative(self, z: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = sigmoid(z);
                s * (1.0 - s)
            }
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_bounded() {
        assert!(Activation::Tanh.apply(100.0) <= 1.0);
        assert!(Activation::Tanh.apply(-100.0) >= -1.0);
        assert!((Activation::Tanh.derivative(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(500.0).is_finite());
        assert!(sigmoid(-500.0).is_finite());
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(-500.0) >= 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid]
        {
            for z in [-1.7f32, -0.4, 0.3, 1.9] {
                let numeric = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                let analytic = act.derivative(z);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {z}: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }
}
