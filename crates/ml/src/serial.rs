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
    use serde::Value;

    /// Features of the fitted snapshots below.
    const WIDTH: usize = 3;

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

    /// The member of `v` at `path`: object keys, or array indices.
    fn at<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
        for key in path {
            v = match v {
                Value::Object(pairs) => {
                    let member = pairs.iter_mut().find(|(k, _)| k == key);
                    &mut member.unwrap_or_else(|| panic!("no {key}")).1
                }
                Value::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
                other => panic!("no {key} in {other:?}"),
            };
        }
        v
    }

    /// The error of checking a `kind` snapshot fitted on blobs whose
    /// member at `path` is set to `value`.
    fn refusal(kind: ClassifierKind, path: &[&str], value: Value) -> String {
        let (x, y) = blobs(20, WIDTH, 91);
        let mut model = kind.build(1);
        model.fit(&x, &y);
        let mut v = model.snapshot().to_value();
        *at(&mut v, path) = value;
        let snap = AnyClassifier::from_value(&v).expect("the edit parses");
        assert_eq!(snap.kind(), kind);
        snap.check("m", WIDTH).expect_err("the edited snapshot must be refused")
    }

    /// A JSON array of `n` zeros.
    fn zeros(n: usize) -> Value {
        Value::Array(vec![Value::F64(0.0); n])
    }

    /// Asserts that `err` names `field` (with its backticks).
    fn names(err: &str, field: &str) {
        assert!(err.contains(&format!("`{field}`")), "{err} does not name {field}");
    }

    #[test]
    fn fitted_snapshots_pass_the_check() {
        let (x, y) = blobs(20, WIDTH, 91);
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(1);
            model.fit(&x, &y);
            let snap = model.snapshot();
            assert_eq!(snap.check("m", WIDTH), Ok(()), "{}", kind.short_name());
            assert!(snap.check("m", WIDTH + 1).is_err(), "{}", kind.short_name());
        }
    }

    #[test]
    fn linear_coefficient_width_is_checked() {
        use ClassifierKind::{Lda, LogisticRegression, Svm};
        for (kind, tag) in [(LogisticRegression, "Lr"), (Lda, "Lda"), (Svm, "Svm")] {
            let err = refusal(kind, &[tag, "coef"], zeros(WIDTH - 1));
            names(&err, &format!("m.{tag}.coef.len()"));
            assert!(err.contains("is 2, expected 3"), "{err}");
        }
    }

    #[test]
    fn knn_training_set_is_checked() {
        let knn = ClassifierKind::Knn;
        // One value short of rows × cols: predicting used to read past it.
        let (x, _) = blobs(20, WIDTH, 91);
        let short = x.as_slice()[1..].iter().map(|&v| Value::F64(f64::from(v))).collect();
        let err = refusal(knn, &["Knn", "train_x", "data"], Value::Array(short));
        names(&err, "m.Knn.train_x");
        assert!(err.contains("is not a 40 × 3 matrix"), "{err}");

        let empty = Value::object([
            ("rows", Value::U64(0)),
            ("cols", Value::U64(WIDTH as u64)),
            ("data", Value::Array(Vec::new())),
        ]);
        let err = refusal(knn, &["Knn", "train_x"], empty);
        names(&err, "m.Knn.train_x");
        assert!(err.contains("holds no training rows"), "{err}");

        let err = refusal(knn, &["Knn", "train_y"], Value::Array(vec![Value::U64(1); 39]));
        names(&err, "m.Knn.train_y.len()");
        let err = refusal(knn, &["Knn", "signs"], zeros(WIDTH + 1));
        names(&err, "m.Knn.signs.len()");
    }

    #[test]
    fn naive_bayes_widths_are_checked() {
        let nb = ClassifierKind::NaiveBayes;
        let err = refusal(nb, &["Nb", "mean", "0"], zeros(WIDTH - 1));
        names(&err, "m.Nb.mean[0].len()");
        let err = refusal(nb, &["Nb", "var", "1"], zeros(WIDTH + 1));
        names(&err, "m.Nb.var[1].len()");
        let err = refusal(nb, &["Nb", "signs"], zeros(0));
        names(&err, "m.Nb.signs.len()");
    }

    #[test]
    fn adaboost_stumps_are_checked() {
        let ab = ClassifierKind::AdaBoost;
        let err = refusal(ab, &["Ab", "stumps"], Value::Array(Vec::new()));
        names(&err, "m.Ab.stumps");
        assert!(err.contains("is empty"), "{err}");
        let err = refusal(ab, &["Ab", "stumps", "0", "feature"], Value::U64(WIDTH as u64));
        names(&err, "m.Ab.stumps[0].feature");
        assert!(err.contains("is 3, expected below 3"), "{err}");
    }

    #[test]
    fn tree_ensembles_are_checked() {
        use ClassifierKind::{ExtraTrees, GradientBoosting, RandomForest};
        let err = refusal(GradientBoosting, &["Gbm", "trees"], Value::Array(Vec::new()));
        names(&err, "m.Gbm.trees");
        assert!(err.contains("is empty"), "{err}");
        for (kind, tag) in [(RandomForest, "Rf"), (ExtraTrees, "Et")] {
            let err = refusal(kind, &[tag, "ensemble", "trees"], Value::Array(Vec::new()));
            names(&err, &format!("m.{tag}.ensemble.trees"));
            assert!(err.contains("is empty"), "{err}");
            let err = refusal(kind, &[tag, "ensemble"], Value::Null);
            names(&err, &format!("m.{tag}.ensemble"));
            assert!(err.contains("is missing"), "{err}");
        }
    }
}
