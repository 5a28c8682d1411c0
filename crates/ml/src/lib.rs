//! Classical interpretable classifiers for the WYM explainable matcher.
//!
//! The paper's matcher "relies on a pool of ten interpretable classifiers
//! (Logistic Regression, Linear Discriminant Analysis, KNN, CART, Naive
//! Bayes, Support Vector Machine, AdaBoost, Gradient Boosting, Random
//! Forest, and Extra Tree), and the one obtaining the best F1 score is
//! selected" (§4.3). This crate implements all ten from scratch on top of
//! `wym-linalg`, plus the shared plumbing: a standard scaler, binary
//! classification metrics, and the pool-selection routine.
//!
//! Every model exposes [`Classifier::signed_importance`], a per-feature
//! signed weight (positive ⇒ pushes toward *match*) that the explainable
//! matcher inverts back onto decision units to obtain impact scores.

pub mod boost;
pub mod forest;
pub mod knn;
pub mod lda;
pub mod linear;
pub mod metrics;
pub mod nb;
pub mod scaler;
pub mod select;
pub mod serial;
pub mod tree;

pub use metrics::{f1_score, BinaryConfusion};
pub use scaler::StandardScaler;
pub use select::{ClassifierPool, SelectedModel};
pub use serial::AnyClassifier;

use wym_linalg::Matrix;

/// The ten members of the WYM classifier pool, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ClassifierKind {
    /// Logistic Regression (LR).
    LogisticRegression,
    /// Linear Discriminant Analysis (LDA).
    Lda,
    /// K-Nearest Neighbors (KNN).
    Knn,
    /// CART decision tree (DT in Table 5).
    DecisionTree,
    /// Gaussian Naive Bayes (NB).
    NaiveBayes,
    /// Linear Support Vector Machine (SVM).
    Svm,
    /// AdaBoost over decision stumps (AB).
    AdaBoost,
    /// Gradient Boosting Machine (GBM).
    GradientBoosting,
    /// Random Forest (RF).
    RandomForest,
    /// Extremely randomized trees (ET).
    ExtraTrees,
}

impl ClassifierKind {
    /// All ten kinds in the paper's Table 5 order.
    pub const ALL: [ClassifierKind; 10] = [
        ClassifierKind::LogisticRegression,
        ClassifierKind::Lda,
        ClassifierKind::Knn,
        ClassifierKind::DecisionTree,
        ClassifierKind::NaiveBayes,
        ClassifierKind::Svm,
        ClassifierKind::AdaBoost,
        ClassifierKind::GradientBoosting,
        ClassifierKind::RandomForest,
        ClassifierKind::ExtraTrees,
    ];

    /// The abbreviation used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            ClassifierKind::LogisticRegression => "LR",
            ClassifierKind::Lda => "LDA",
            ClassifierKind::Knn => "KNN",
            ClassifierKind::DecisionTree => "DT",
            ClassifierKind::NaiveBayes => "NB",
            ClassifierKind::Svm => "SVM",
            ClassifierKind::AdaBoost => "AB",
            ClassifierKind::GradientBoosting => "GBM",
            ClassifierKind::RandomForest => "RF",
            ClassifierKind::ExtraTrees => "ET",
        }
    }

    /// Instantiates a fresh, unfitted model of this kind.
    pub fn build(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ClassifierKind::LogisticRegression => {
                Box::new(linear::LogisticRegression::default())
            }
            ClassifierKind::Lda => Box::new(lda::LinearDiscriminantAnalysis::default()),
            ClassifierKind::Knn => Box::new(knn::KNearestNeighbors::default()),
            ClassifierKind::DecisionTree => Box::new(tree::DecisionTree::default()),
            ClassifierKind::NaiveBayes => Box::new(nb::GaussianNaiveBayes::default()),
            ClassifierKind::Svm => Box::new(linear::LinearSvm::default()),
            ClassifierKind::AdaBoost => Box::new(boost::AdaBoost::new(seed)),
            ClassifierKind::GradientBoosting => Box::new(boost::GradientBoosting::new(seed)),
            ClassifierKind::RandomForest => Box::new(forest::RandomForest::new(seed)),
            ClassifierKind::ExtraTrees => Box::new(forest::ExtraTrees::new(seed)),
        }
    }
}

/// A binary classifier over dense feature matrices.
///
/// Labels are `0` (non-match) and `1` (match). Implementations must be
/// deterministic given their construction seed.
pub trait Classifier: Send + Sync {
    /// Fits the model. Panics if `x.rows() != y.len()` or the set is empty.
    fn fit(&mut self, x: &Matrix, y: &[u8]);

    /// Probability of class 1 for each row.
    fn predict_proba(&self, x: &Matrix) -> Vec<f32>;

    /// Hard predictions at the 0.5 threshold.
    fn predict(&self, x: &Matrix) -> Vec<u8> {
        self.predict_proba(x).into_iter().map(|p| u8::from(p >= 0.5)).collect()
    }

    /// Which pool member this is.
    fn kind(&self) -> ClassifierKind;

    /// A serializable snapshot of the fitted model (see [`serial`]).
    fn snapshot(&self) -> serial::AnyClassifier;

    /// Per-feature signed global importance (positive ⇒ pushes toward match).
    ///
    /// Linear models return their coefficients; tree ensembles return
    /// impurity importances signed by the feature's point-biserial
    /// correlation with the label (recorded during `fit`); instance-based
    /// models (KNN, NB) return correlation-based attributions. All vectors
    /// have one entry per training feature.
    fn signed_importance(&self) -> Vec<f32>;
}

/// Signs an unsigned importance vector by the label-correlation signs
/// captured at fit time. Shared by tree ensembles, KNN and NB.
pub(crate) fn apply_signs(importance: &[f32], signs: &[f32]) -> Vec<f32> {
    importance.iter().zip(signs).map(|(m, s)| m * s.signum()).collect()
}

/// `Err` naming `field` unless its value `got` is `want`: the width
/// checks of [`AnyClassifier::check`].
pub(crate) fn check_eq(field: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("`{field}` is {got}, expected {want}"))
    }
}

/// Point-biserial correlation of each feature with the binary label,
/// used as the sign source for models without native coefficients.
pub(crate) fn label_correlations(x: &Matrix, y: &[u8]) -> Vec<f32> {
    let n = x.rows();
    let mut out = vec![0.0f32; x.cols()];
    if n == 0 {
        return out;
    }
    let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
    for (j, o) in out.iter_mut().enumerate() {
        let col = x.col(j);
        *o = wym_linalg::stats::pearson(&col, &yf).unwrap_or(0.0);
    }
    out
}

#[cfg(test)]
pub(crate) mod test_data {
    use wym_linalg::{Matrix, Rng64};

    /// A linearly separable two-cluster task: class 1 near (+2,+2,…),
    /// class 0 near (−2,−2,…); any sane classifier reaches ≥95% accuracy.
    pub fn blobs(n_per_class: usize, dim: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, dim);
        let mut y = Vec::new();
        for class in [0u8, 1u8] {
            let center = if class == 1 { 2.0 } else { -2.0 };
            for _ in 0..n_per_class {
                let row: Vec<f32> =
                    (0..dim).map(|_| center + rng.normal() as f32 * 0.7).collect();
                x.push_row(&row);
                y.push(class);
            }
        }
        (x, y)
    }

    /// A task where only feature 0 matters; features 1.. are noise.
    pub fn single_feature(n: usize, dim: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, dim);
        let mut y = Vec::new();
        for _ in 0..n {
            let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() as f32).collect();
            let label = u8::from(row[0] > 0.0);
            row[0] += if label == 1 { 1.0 } else { -1.0 };
            x.push_row(&row);
            y.push(label);
        }
        (x, y)
    }

    /// XOR of the first two features — requires a non-linear model.
    pub fn xor(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, 2);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.normal() as f32;
            let b = rng.normal() as f32;
            x.push_row(&[a, b]);
            y.push(u8::from((a > 0.0) != (b > 0.0)));
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_data::blobs;

    #[test]
    fn all_ten_kinds_learn_separable_blobs() {
        let (x, y) = blobs(60, 4, 11);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(3);
            model.fit(&x, &y);
            let preds = model.predict(&x);
            let acc =
                preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32;
            assert!(acc >= 0.95, "{} accuracy {acc}", kind.short_name());
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = blobs(40, 3, 5);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(0);
            model.fit(&x, &y);
            for p in model.predict_proba(&x) {
                assert!((0.0..=1.0).contains(&p), "{}: p = {p}", kind.short_name());
            }
        }
    }

    #[test]
    fn signed_importance_length_matches_features() {
        let (x, y) = blobs(30, 5, 7);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(1);
            model.fit(&x, &y);
            assert_eq!(
                model.signed_importance().len(),
                5,
                "{} importance length",
                kind.short_name()
            );
        }
    }

    #[test]
    fn importance_positive_for_positively_correlated_feature() {
        // In blobs every feature is positively correlated with the label.
        let (x, y) = blobs(50, 3, 13);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(2);
            model.fit(&x, &y);
            let imp = model.signed_importance();
            let max = imp.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(max > 0.0, "{}: {imp:?}", kind.short_name());
        }
    }

    #[test]
    fn short_names_match_paper_tables() {
        let names: Vec<&str> = ClassifierKind::ALL.iter().map(|k| k.short_name()).collect();
        assert_eq!(names, vec!["LR", "LDA", "KNN", "DT", "NB", "SVM", "AB", "GBM", "RF", "ET"]);
    }
}
