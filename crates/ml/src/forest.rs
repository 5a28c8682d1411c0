//! Bagged tree ensembles: Random Forest and Extra Trees.

use crate::tree::{SortedColumns, Tree, TreeParams};
use crate::{apply_signs, check_eq, label_correlations, Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// Shared ensemble configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree depth limit.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Bootstrap-resample the training rows per tree.
    pub bootstrap: bool,
    /// Extra-trees style random thresholds.
    pub random_threshold: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ensemble {
    trees: Vec<Tree>,
    signs: Vec<f32>,
    n_features: usize,
}

impl Ensemble {
    fn fit(x: &Matrix, y: &[u8], params: &ForestParams, seed: u64) -> Self {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let n = y.len();
        let d = x.cols();
        let max_features = ((d as f32).sqrt().ceil() as usize).clamp(1, d);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_split: 2,
            min_samples_leaf: params.min_samples_leaf,
            max_features: Some(max_features),
            random_threshold: params.random_threshold,
        };
        let mut rng = Rng64::new(seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        let sorted = SortedColumns::new(x);
        for t in 0..params.n_trees {
            let mut tree_rng = rng.fork(t as u64);
            let idx: Vec<usize> = if params.bootstrap {
                (0..n).map(|_| tree_rng.gen_range(n)).collect()
            } else {
                (0..n).collect()
            };
            trees.push(Tree::fit_sorted(&sorted, &yf, &idx, &tree_params, &mut tree_rng));
        }
        Self { trees, signs: label_correlations(x, y), n_features: d }
    }

    /// See [`crate::AnyClassifier::check`]; `field` names the model.
    fn check(ensemble: Option<&Self>, field: &str, n_features: usize) -> Result<(), String> {
        let e = ensemble.ok_or_else(|| format!("`{field}.ensemble` is missing"))?;
        let field = format!("{field}.ensemble");
        check_eq(&format!("{field}.n_features"), e.n_features, n_features)?;
        check_eq(&format!("{field}.signs.len()"), e.signs.len(), n_features)?;
        Tree::check_all(&format!("{field}.trees"), &e.trees, n_features)
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "fit must be called before predict");
        let mut acc = vec![0.0f32; x.rows()];
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(tree.predict(x)) {
                *a += p;
            }
        }
        let inv = 1.0 / self.trees.len() as f32;
        acc.into_iter().map(|v| (v * inv).clamp(0.0, 1.0)).collect()
    }

    fn signed_importance(&self) -> Vec<f32> {
        let mut total = vec![0.0f32; self.n_features];
        for tree in &self.trees {
            for (t, i) in total.iter_mut().zip(tree.importances()) {
                *t += i;
            }
        }
        let inv = 1.0 / self.trees.len().max(1) as f32;
        for t in &mut total {
            *t *= inv;
        }
        apply_signs(&total, &self.signs)
    }
}

/// Random Forest (RF): bootstrap rows + √d feature subsampling per split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    /// Ensemble configuration.
    pub params: ForestParams,
    seed: u64,
    ensemble: Option<Ensemble>,
}

impl RandomForest {
    /// A 60-tree forest (seeded).
    pub fn new(seed: u64) -> Self {
        Self {
            params: ForestParams {
                n_trees: 60,
                max_depth: 10,
                min_samples_leaf: 1,
                bootstrap: true,
                random_threshold: false,
            },
            seed,
            ensemble: None,
        }
    }
}

impl RandomForest {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        Ensemble::check(self.ensemble.as_ref(), field, n_features)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        self.ensemble = Some(Ensemble::fit(x, y, &self.params, self.seed));
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.ensemble.as_ref().expect("fit before predict").predict_proba(x)
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::RandomForest
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Rf(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        self.ensemble.as_ref().map(Ensemble::signed_importance).unwrap_or_default()
    }
}

/// Extremely randomized trees (ET): full sample per tree, random split
/// thresholds — lower variance per tree, faster fits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtraTrees {
    /// Ensemble configuration.
    pub params: ForestParams,
    seed: u64,
    ensemble: Option<Ensemble>,
}

impl ExtraTrees {
    /// A 60-tree extra-trees ensemble (seeded).
    pub fn new(seed: u64) -> Self {
        Self {
            params: ForestParams {
                n_trees: 60,
                max_depth: 10,
                min_samples_leaf: 1,
                bootstrap: false,
                random_threshold: true,
            },
            seed,
            ensemble: None,
        }
    }
}

impl ExtraTrees {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        Ensemble::check(self.ensemble.as_ref(), field, n_features)
    }
}

impl Classifier for ExtraTrees {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        self.ensemble = Some(Ensemble::fit(x, y, &self.params, self.seed));
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        self.ensemble.as_ref().expect("fit before predict").predict_proba(x)
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::ExtraTrees
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Et(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        self.ensemble.as_ref().map(Ensemble::signed_importance).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{blobs, single_feature, xor};

    #[test]
    fn rf_learns_xor() {
        let (x, y) = xor(400, 61);
        let mut rf = RandomForest::new(1);
        rf.fit(&x, &y);
        let acc = rf.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc as f32 / 400.0 > 0.93, "accuracy {acc}/400");
    }

    #[test]
    fn et_learns_blobs() {
        let (x, y) = blobs(60, 3, 62);
        let mut et = ExtraTrees::new(2);
        et.fit(&x, &y);
        let acc = et.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc >= 114, "accuracy {acc}/120");
    }

    #[test]
    fn rf_importance_finds_informative_feature() {
        let (x, y) = single_feature(500, 5, 63);
        let mut rf = RandomForest::new(3);
        rf.fit(&x, &y);
        let imp = rf.signed_importance();
        for j in 1..5 {
            assert!(imp[0] > imp[j].abs(), "{imp:?}");
        }
    }

    #[test]
    fn ensembles_are_deterministic_per_seed() {
        let (x, y) = blobs(30, 2, 64);
        let mut a = RandomForest::new(9);
        let mut b = RandomForest::new(9);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let (x, y) = xor(200, 65);
        let mut a = RandomForest::new(1);
        let mut b = RandomForest::new(2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn probabilities_average_trees() {
        let (x, y) = blobs(20, 2, 66);
        let mut rf = RandomForest::new(0);
        rf.params.n_trees = 5;
        rf.fit(&x, &y);
        for p in rf.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
