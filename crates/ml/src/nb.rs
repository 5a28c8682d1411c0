//! Gaussian Naive Bayes.

use crate::{apply_signs, check_eq, label_correlations, Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};
use wym_linalg::Matrix;

/// Gaussian Naive Bayes with per-class diagonal covariance and variance
/// smoothing (a fraction of the largest feature variance, as in
/// scikit-learn's `var_smoothing`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GaussianNaiveBayes {
    mean: [Vec<f32>; 2],
    var: [Vec<f32>; 2],
    log_prior: [f32; 2],
    signs: Vec<f32>,
}

impl GaussianNaiveBayes {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        for c in 0..2 {
            check_eq(&format!("{field}.mean[{c}].len()"), self.mean[c].len(), n_features)?;
            check_eq(&format!("{field}.var[{c}].len()"), self.var[c].len(), n_features)?;
        }
        check_eq(&format!("{field}.signs.len()"), self.signs.len(), n_features)
    }
}

impl Classifier for GaussianNaiveBayes {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        let d = x.cols();
        let global_var_max =
            x.col_std().into_iter().map(|s| s * s).fold(0.0f32, f32::max).max(1e-9);
        let smoothing = 1e-9f32.max(1e-4 * global_var_max);

        for class in 0..2u8 {
            let idx: Vec<usize> = (0..y.len()).filter(|&i| y[i] == class).collect();
            let c = class as usize;
            if idx.is_empty() {
                self.mean[c] = vec![0.0; d];
                self.var[c] = vec![1.0; d];
                self.log_prior[c] = f32::NEG_INFINITY;
                continue;
            }
            let part = x.select_rows(&idx);
            self.mean[c] = part.col_mean();
            self.var[c] =
                part.col_std().into_iter().map(|s| s * s + smoothing).collect();
            self.log_prior[c] = (idx.len() as f32 / y.len() as f32).ln();
        }
        self.signs = label_correlations(x, y);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert_eq!(x.cols(), self.mean[0].len(), "model fitted on different width");
        x.iter_rows()
            .map(|row| {
                let mut log_like = [0.0f64; 2];
                #[allow(clippy::needless_range_loop)]
                for c in 0..2 {
                    if self.log_prior[c].is_infinite() {
                        log_like[c] = f64::NEG_INFINITY;
                        continue;
                    }
                    let mut ll = self.log_prior[c] as f64;
                    for ((&v, &m), &var) in
                        row.iter().zip(&self.mean[c]).zip(&self.var[c])
                    {
                        let var = var as f64;
                        let diff = (v - m) as f64;
                        ll += -0.5 * ((std::f64::consts::TAU * var).ln() + diff * diff / var);
                    }
                    log_like[c] = ll;
                }
                // Normalized posterior for class 1.
                let max = log_like[0].max(log_like[1]);
                if max.is_infinite() {
                    return 0.5;
                }
                let e0 = (log_like[0] - max).exp();
                let e1 = (log_like[1] - max).exp();
                (e1 / (e0 + e1)) as f32
            })
            .collect()
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::NaiveBayes
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Nb(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        // Importance = standardized mean gap between classes, signed by the
        // correlation direction (they agree by construction; the correlation
        // handles near-zero-variance ties).
        let gaps: Vec<f32> = self.mean[1]
            .iter()
            .zip(&self.mean[0])
            .zip(self.var[0].iter().zip(&self.var[1]))
            .map(|((m1, m0), (v0, v1))| {
                let pooled = (0.5 * (v0 + v1)).sqrt().max(1e-6);
                ((m1 - m0) / pooled).abs()
            })
            .collect();
        apply_signs(&gaps, &self.signs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{blobs, single_feature};

    #[test]
    fn learns_blobs() {
        let (x, y) = blobs(50, 3, 41);
        let mut nb = GaussianNaiveBayes::default();
        nb.fit(&x, &y);
        let acc = nb.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc >= 97, "accuracy {acc}/100");
    }

    #[test]
    fn posterior_confidence_scales_with_distance() {
        let (x, y) = blobs(50, 1, 42);
        let mut nb = GaussianNaiveBayes::default();
        nb.fit(&x, &y);
        let probe = Matrix::from_rows(&[&[0.5], &[4.0]]);
        let p = nb.predict_proba(&probe);
        assert!(p[1] > p[0], "farther into class-1 territory must be more confident: {p:?}");
    }

    #[test]
    fn importance_concentrates_on_informative_feature() {
        let (x, y) = single_feature(600, 4, 43);
        let mut nb = GaussianNaiveBayes::default();
        nb.fit(&x, &y);
        let imp = nb.signed_importance();
        for j in 1..4 {
            assert!(imp[0] > imp[j].abs(), "{imp:?}");
        }
    }

    #[test]
    fn single_class_training_degrades_gracefully() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let mut nb = GaussianNaiveBayes::default();
        nb.fit(&x, &[1, 1]);
        let p = nb.predict_proba(&Matrix::from_rows(&[&[1.5]]));
        assert!(p[0] > 0.99, "all-positive training data: {p:?}");
    }

    #[test]
    fn constant_feature_does_not_produce_nan() {
        let x = Matrix::from_rows(&[&[1.0, 3.0], &[1.0, -3.0], &[1.0, 3.5], &[1.0, -3.5]]);
        let y = vec![1, 0, 1, 0];
        let mut nb = GaussianNaiveBayes::default();
        nb.fit(&x, &y);
        let p = nb.predict_proba(&x);
        assert!(p.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&x), y);
    }
}
