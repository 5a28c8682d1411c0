//! K-nearest-neighbors classifier (brute force).

use crate::{apply_signs, check_eq, label_correlations, Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};
use wym_linalg::vector::dist_sq;
use wym_linalg::Matrix;

/// Brute-force KNN with distance-weighted voting.
///
/// The training matrices in the WYM matcher have a few thousand rows and a
/// few hundred columns, where brute force beats tree indexes in practice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KNearestNeighbors {
    /// Number of neighbors (scikit-learn's default of 5).
    pub k: usize,
    train_x: Matrix,
    train_y: Vec<u8>,
    signs: Vec<f32>,
}

impl Default for KNearestNeighbors {
    fn default() -> Self {
        Self { k: 5, train_x: Matrix::zeros(0, 0), train_y: Vec::new(), signs: Vec::new() }
    }
}

impl KNearestNeighbors {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        let (rows, cols) = self.train_x.shape();
        if cols != n_features || self.train_x.as_slice().len() != rows * cols {
            return Err(format!("`{field}.train_x` is not a {rows} × {n_features} matrix"));
        }
        if rows == 0 {
            return Err(format!("`{field}.train_x` holds no training rows"));
        }
        check_eq(&format!("{field}.train_y.len()"), self.train_y.len(), rows)?;
        check_eq(&format!("{field}.signs.len()"), self.signs.len(), n_features)
    }
}

impl Classifier for KNearestNeighbors {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        self.train_x = x.clone();
        self.train_y = y.to_vec();
        self.signs = label_correlations(x, y);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert_eq!(x.cols(), self.train_x.cols(), "model fitted on different width");
        let k = self.k.min(self.train_y.len()).max(1);
        let mut out = Vec::with_capacity(x.rows());
        // Reusable scratch of (distance², label).
        let mut dists: Vec<(f32, u8)> = Vec::with_capacity(self.train_y.len());
        for query in x.iter_rows() {
            dists.clear();
            for (row, &label) in self.train_x.iter_rows().zip(&self.train_y) {
                dists.push((dist_sq(query, row), label));
            }
            dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
            // Inverse-distance weighting; an exact duplicate dominates.
            let mut pos = 0.0f32;
            let mut total = 0.0f32;
            for &(d2, label) in &dists[..k] {
                let w = 1.0 / (d2.sqrt() + 1e-6);
                total += w;
                if label == 1 {
                    pos += w;
                }
            }
            out.push(if total > 0.0 { pos / total } else { 0.5 });
        }
        out
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::Knn
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Knn(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        // KNN has no parametric importance; expose the point-biserial
        // correlation profile recorded at fit time (unit magnitudes signed).
        apply_signs(&self.signs.iter().map(|s| s.abs()).collect::<Vec<_>>(), &self.signs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{blobs, xor};

    #[test]
    fn learns_blobs() {
        let (x, y) = blobs(40, 3, 31);
        let mut knn = KNearestNeighbors::default();
        knn.fit(&x, &y);
        let acc = knn.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc >= 78, "accuracy {acc}/80");
    }

    #[test]
    fn handles_nonlinear_xor() {
        let (x, y) = xor(300, 32);
        let mut knn = KNearestNeighbors::default();
        knn.fit(&x, &y);
        let acc = knn.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc as f32 / 300.0 > 0.9, "accuracy {acc}/300");
    }

    #[test]
    fn exact_duplicate_dominates_vote() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 5.0], &[5.1, 5.0], &[4.9, 5.0]]);
        let y = vec![1, 0, 0, 0];
        let mut knn = KNearestNeighbors { k: 4, ..KNearestNeighbors::default() };
        knn.fit(&x, &y);
        let p = knn.predict_proba(&Matrix::from_rows(&[&[0.0, 0.0]]));
        assert!(p[0] > 0.9, "duplicate of the positive point: {p:?}");
    }

    #[test]
    fn k_larger_than_training_set_is_clamped() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = vec![0, 1];
        let mut knn = KNearestNeighbors { k: 50, ..KNearestNeighbors::default() };
        knn.fit(&x, &y);
        let p = knn.predict_proba(&Matrix::from_rows(&[&[0.9]]));
        assert!(p[0] > 0.5);
    }
}
