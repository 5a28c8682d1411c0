//! Serialization of fitted classifiers.
//!
//! The pool hands out `Box<dyn Classifier>`, which cannot be serialized
//! directly; [`AnyClassifier`] is the closed sum of the ten concrete types,
//! produced by [`crate::Classifier::snapshot`] and convertible back into a
//! boxed trait object. `wym-core` uses this to persist fitted WYM models.

use crate::boost::{AdaBoost, GradientBoosting};
use crate::forest::{ExtraTrees, RandomForest};
use crate::knn::KNearestNeighbors;
use crate::lda::LinearDiscriminantAnalysis;
use crate::linear::{LinearSvm, LogisticRegression};
use crate::nb::GaussianNaiveBayes;
use crate::tree::DecisionTree;
use crate::{Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};

/// A serializable snapshot of any pool classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyClassifier {
    /// Logistic regression.
    Lr(LogisticRegression),
    /// Linear discriminant analysis.
    Lda(LinearDiscriminantAnalysis),
    /// K-nearest neighbors (stores its training data).
    Knn(KNearestNeighbors),
    /// CART decision tree.
    Dt(DecisionTree),
    /// Gaussian naive Bayes.
    Nb(GaussianNaiveBayes),
    /// Linear SVM.
    Svm(LinearSvm),
    /// AdaBoost over stumps.
    Ab(AdaBoost),
    /// Gradient boosting.
    Gbm(GradientBoosting),
    /// Random forest.
    Rf(RandomForest),
    /// Extra trees.
    Et(ExtraTrees),
}

impl AnyClassifier {
    /// The pool kind of the snapshot.
    pub fn kind(&self) -> ClassifierKind {
        match self {
            AnyClassifier::Lr(_) => ClassifierKind::LogisticRegression,
            AnyClassifier::Lda(_) => ClassifierKind::Lda,
            AnyClassifier::Knn(_) => ClassifierKind::Knn,
            AnyClassifier::Dt(_) => ClassifierKind::DecisionTree,
            AnyClassifier::Nb(_) => ClassifierKind::NaiveBayes,
            AnyClassifier::Svm(_) => ClassifierKind::Svm,
            AnyClassifier::Ab(_) => ClassifierKind::AdaBoost,
            AnyClassifier::Gbm(_) => ClassifierKind::GradientBoosting,
            AnyClassifier::Rf(_) => ClassifierKind::RandomForest,
            AnyClassifier::Et(_) => ClassifierKind::ExtraTrees,
        }
    }

    /// Checks a deserialized snapshot (named `field` in errors) before it
    /// predicts for a matcher of `n_features` engineered features: every
    /// width is `n_features`, every feature index is below it, every tree
    /// has nodes whose splits point to later nodes inside the list, and
    /// GBM and the forests hold at least one tree and AdaBoost at least
    /// one stump. A snapshot that passes predicts without panicking or
    /// looping.
    pub fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        let coef = |variant: &str, coef: Vec<f32>| {
            crate::check_eq(&format!("{field}.{variant}.coef.len()"), coef.len(), n_features)
        };
        match self {
            AnyClassifier::Lr(m) => coef("Lr", m.signed_importance()),
            AnyClassifier::Lda(m) => coef("Lda", m.signed_importance()),
            AnyClassifier::Svm(m) => coef("Svm", m.signed_importance()),
            AnyClassifier::Knn(m) => m.check(&format!("{field}.Knn"), n_features),
            AnyClassifier::Dt(m) => m.check(&format!("{field}.Dt"), n_features),
            AnyClassifier::Nb(m) => m.check(&format!("{field}.Nb"), n_features),
            AnyClassifier::Ab(m) => m.check(&format!("{field}.Ab"), n_features),
            AnyClassifier::Gbm(m) => m.check(&format!("{field}.Gbm"), n_features),
            AnyClassifier::Rf(m) => m.check(&format!("{field}.Rf"), n_features),
            AnyClassifier::Et(m) => m.check(&format!("{field}.Et"), n_features),
        }
    }

    /// Rehydrates the snapshot into a boxed trait object.
    pub fn into_boxed(self) -> Box<dyn Classifier> {
        match self {
            AnyClassifier::Lr(m) => Box::new(m),
            AnyClassifier::Lda(m) => Box::new(m),
            AnyClassifier::Knn(m) => Box::new(m),
            AnyClassifier::Dt(m) => Box::new(m),
            AnyClassifier::Nb(m) => Box::new(m),
            AnyClassifier::Svm(m) => Box::new(m),
            AnyClassifier::Ab(m) => Box::new(m),
            AnyClassifier::Gbm(m) => Box::new(m),
            AnyClassifier::Rf(m) => Box::new(m),
            AnyClassifier::Et(m) => Box::new(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::blobs;

    #[test]
    fn snapshot_roundtrip_preserves_predictions_for_all_kinds() {
        let (x, y) = blobs(40, 3, 91);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(1);
            model.fit(&x, &y);
            let before = model.predict_proba(&x);
            let snap = model.snapshot();
            assert_eq!(snap.kind(), kind);
            let json = serde_json::to_string(&snap).expect("serialize");
            let back: AnyClassifier = serde_json::from_str(&json).expect("deserialize");
            let restored = back.into_boxed();
            let after = restored.predict_proba(&x);
            assert_eq!(before, after, "{}", kind.short_name());
        }
    }
}
