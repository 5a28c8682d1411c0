//! Boosted ensembles: AdaBoost over stumps and gradient boosting.

use crate::tree::{SortedColumns, Tree, TreeParams};
use crate::{apply_signs, check_eq, label_correlations, Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A decision stump: predict +1 when `polarity * (x[feature] - threshold) > 0`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Stump {
    feature: usize,
    threshold: f32,
    polarity: f32,
    alpha: f32,
}

impl Stump {
    fn predict_one(&self, row: &[f32]) -> f32 {
        if self.polarity * (row[self.feature] - self.threshold) > 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// AdaBoost (discrete SAMME) over exhaustively searched weighted stumps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaBoost {
    /// Number of boosting rounds.
    pub rounds: usize,
    #[allow(dead_code)]
    seed: u64,
    stumps: Vec<Stump>,
    signs: Vec<f32>,
    n_features: usize,
}

impl AdaBoost {
    /// A 50-round booster (seed kept for interface parity; the exhaustive
    /// stump search is deterministic).
    pub fn new(seed: u64) -> Self {
        Self { rounds: 50, seed, stumps: Vec::new(), signs: Vec::new(), n_features: 0 }
    }

    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        check_eq(&format!("{field}.n_features"), self.n_features, n_features)?;
        check_eq(&format!("{field}.signs.len()"), self.signs.len(), n_features)?;
        if self.stumps.is_empty() {
            return Err(format!("`{field}.stumps` is empty"));
        }
        match self.stumps.iter().position(|s| s.feature >= n_features) {
            Some(i) => Err(format!(
                "`{field}.stumps[{i}].feature` is {}, expected below {n_features}",
                self.stumps[i].feature
            )),
            None => Ok(()),
        }
    }

    /// The row order [`AdaBoost::best_stump`] scans for each feature:
    /// feature 0's is the identity sorted stably by `total_cmp`, and each
    /// further feature's is the previous one sorted stably again, so ties
    /// keep the previous feature's order. It depends on `x` alone; a fit
    /// computes it once for all its rounds. Flat: feature `f`'s rows are
    /// `[f * rows..][..rows]`.
    fn feature_orders(x: &Matrix) -> Vec<usize> {
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut orders = Vec::with_capacity(n * x.cols());
        for f in 0..x.cols() {
            order.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
            orders.extend_from_slice(&order);
        }
        orders
    }

    /// Weighted error-minimizing stump over all features and thresholds.
    ///
    /// For each feature, walking the rows in sorted order (`orders`, from
    /// [`AdaBoost::feature_orders`]) lets the weighted error of every
    /// threshold be computed in one scan: start from "predict all +1"
    /// (error = Σ w over negatives) and flip samples as the threshold passes
    /// them.
    fn best_stump(x: &Matrix, orders: &[usize], targets: &[f32], w: &[f32]) -> Stump {
        let n = targets.len();
        let mut best =
            Stump { feature: 0, threshold: f32::NEG_INFINITY, polarity: 1.0, alpha: 0.0 };
        let mut best_err = f32::INFINITY;
        for f in 0..x.cols() {
            let order = &orders[f * n..][..n];
            // err(+1 side right of threshold): threshold below all values
            // means everything predicted +1.
            let mut err_pos: f32 = (0..n).filter(|&i| targets[i] < 0.0).map(|i| w[i]).sum();
            // Evaluate "threshold below everything", then walk upward.
            let eval = |err_pos: f32, thr: f32, best: &mut Stump, best_err: &mut f32, f| {
                // polarity +1: predict +1 above threshold.
                if err_pos < *best_err {
                    *best_err = err_pos;
                    *best = Stump { feature: f, threshold: thr, polarity: 1.0, alpha: 0.0 };
                }
                let err_neg = 1.0 - err_pos; // weights are normalized
                if err_neg < *best_err {
                    *best_err = err_neg;
                    *best = Stump { feature: f, threshold: thr, polarity: -1.0, alpha: 0.0 };
                }
            };
            let first_val = x[(order[0], f)];
            eval(err_pos, first_val - 1.0, &mut best, &mut best_err, f);
            for k in 0..n {
                let i = order[k];
                // Sample i moves from the "+1 side" to the "−1 side".
                if targets[i] > 0.0 {
                    err_pos += w[i];
                } else {
                    err_pos -= w[i];
                }
                let v = x[(i, f)];
                let next = if k + 1 < n { x[(order[k + 1], f)] } else { v + 1.0 };
                if next > v + 1e-12 {
                    eval(err_pos, 0.5 * (v + next), &mut best, &mut best_err, f);
                }
            }
        }
        best
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        let n = y.len();
        self.n_features = x.cols();
        self.signs = label_correlations(x, y);
        self.stumps.clear();
        let targets: Vec<f32> = y.iter().map(|&v| if v == 1 { 1.0 } else { -1.0 }).collect();
        let mut w = vec![1.0 / n as f32; n];
        let orders = Self::feature_orders(x);
        for _ in 0..self.rounds {
            let mut stump = Self::best_stump(x, &orders, &targets, &w);
            let mut err: f32 = 0.0;
            let preds: Vec<f32> = x.iter_rows().map(|r| stump.predict_one(r)).collect();
            for i in 0..n {
                if preds[i] != targets[i] {
                    err += w[i];
                }
            }
            let err = err.clamp(1e-6, 1.0 - 1e-6);
            if err >= 0.5 {
                break; // no better than chance: stop boosting
            }
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            stump.alpha = alpha;
            self.stumps.push(stump);
            // Reweight and normalize.
            let mut total = 0.0f32;
            for i in 0..n {
                w[i] *= (-alpha * targets[i] * preds[i]).exp();
                total += w[i];
            }
            for wi in &mut w {
                *wi /= total;
            }
            if err < 1e-5 {
                break; // perfectly separated
            }
        }
        if self.stumps.is_empty() {
            // Degenerate data: fall back to the prior as a constant stump.
            let pos = y.iter().filter(|&&v| v == 1).count() as f32 / n as f32;
            self.stumps.push(Stump {
                feature: 0,
                threshold: f32::NEG_INFINITY,
                polarity: if pos >= 0.5 { 1.0 } else { -1.0 },
                alpha: 1.0,
            });
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.stumps.is_empty(), "fit before predict");
        let alpha_total: f32 = self.stumps.iter().map(|s| s.alpha).sum();
        let scale = if alpha_total > 0.0 { 2.0 / alpha_total } else { 1.0 };
        x.iter_rows()
            .map(|row| {
                let margin: f32 = self.stumps.iter().map(|s| s.alpha * s.predict_one(row)).sum();
                sigmoid(margin * scale)
            })
            .collect()
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::AdaBoost
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Ab(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        let mut imp = vec![0.0f32; self.n_features];
        for s in &self.stumps {
            if s.threshold.is_finite() {
                imp[s.feature] += s.alpha.abs();
            }
        }
        apply_signs(&imp, &self.signs)
    }
}

/// Gradient boosting on the logistic loss with shallow regression trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoosting {
    /// Boosting rounds.
    pub rounds: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f32,
    /// Depth of each residual tree.
    pub max_depth: usize,
    seed: u64,
    init: f32,
    trees: Vec<Tree>,
    signs: Vec<f32>,
    n_features: usize,
}

impl GradientBoosting {
    /// An 80-round, depth-3, lr-0.1 booster (seeded).
    pub fn new(seed: u64) -> Self {
        Self {
            rounds: 80,
            learning_rate: 0.1,
            max_depth: 3,
            seed,
            init: 0.0,
            trees: Vec::new(),
            signs: Vec::new(),
            n_features: 0,
        }
    }
}

impl GradientBoosting {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        check_eq(&format!("{field}.n_features"), self.n_features, n_features)?;
        check_eq(&format!("{field}.signs.len()"), self.signs.len(), n_features)?;
        Tree::check_all(&format!("{field}.trees"), &self.trees, n_features)
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        let n = y.len();
        self.n_features = x.cols();
        self.signs = label_correlations(x, y);
        self.trees.clear();
        let pos = y.iter().filter(|&&v| v == 1).count() as f32 / n as f32;
        let pos = pos.clamp(1e-4, 1.0 - 1e-4);
        self.init = (pos / (1.0 - pos)).ln();
        let mut f: Vec<f32> = vec![self.init; n];
        let idx: Vec<usize> = (0..n).collect();
        let params = TreeParams {
            max_depth: self.max_depth,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            random_threshold: false,
        };
        let mut rng = Rng64::new(self.seed);
        let mut residual = vec![0.0f32; n];
        // Every round's tree splits the same matrix: sort it once.
        let sorted = SortedColumns::new(x);
        for _ in 0..self.rounds {
            for i in 0..n {
                residual[i] = y[i] as f32 - sigmoid(f[i]);
            }
            let tree = Tree::fit_sorted(&sorted, &residual, &idx, &params, &mut rng);
            let update = tree.predict(x);
            for i in 0..n {
                f[i] += self.learning_rate * update[i];
            }
            self.trees.push(tree);
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "fit before predict");
        let mut f = vec![self.init; x.rows()];
        for tree in &self.trees {
            for (fi, u) in f.iter_mut().zip(tree.predict(x)) {
                *fi += self.learning_rate * u;
            }
        }
        f.into_iter().map(sigmoid).collect()
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::GradientBoosting
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Gbm(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        let mut imp = vec![0.0f32; self.n_features];
        for tree in &self.trees {
            for (t, i) in imp.iter_mut().zip(tree.importances()) {
                *t += i;
            }
        }
        apply_signs(&imp, &self.signs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{blobs, single_feature, xor};

    /// The stump search before [`AdaBoost::feature_orders`]: every call
    /// chains its stable sorts from the identity. Kept as the reference.
    fn reference_best_stump(x: &Matrix, targets: &[f32], w: &[f32]) -> Stump {
        let n = targets.len();
        let mut best =
            Stump { feature: 0, threshold: f32::NEG_INFINITY, polarity: 1.0, alpha: 0.0 };
        let mut best_err = f32::INFINITY;
        let mut order: Vec<usize> = (0..n).collect();
        for f in 0..x.cols() {
            order.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
            let mut err_pos: f32 = (0..n).filter(|&i| targets[i] < 0.0).map(|i| w[i]).sum();
            let mut eval = |err_pos: f32, thr: f32| {
                if err_pos < best_err {
                    best_err = err_pos;
                    best = Stump { feature: f, threshold: thr, polarity: 1.0, alpha: 0.0 };
                }
                let err_neg = 1.0 - err_pos;
                if err_neg < best_err {
                    best_err = err_neg;
                    best = Stump { feature: f, threshold: thr, polarity: -1.0, alpha: 0.0 };
                }
            };
            eval(err_pos, x[(order[0], f)] - 1.0);
            for k in 0..n {
                let i = order[k];
                if targets[i] > 0.0 {
                    err_pos += w[i];
                } else {
                    err_pos -= w[i];
                }
                let v = x[(i, f)];
                let next = if k + 1 < n { x[(order[k + 1], f)] } else { v + 1.0 };
                if next > v + 1e-12 {
                    eval(err_pos, 0.5 * (v + next));
                }
            }
        }
        best
    }

    /// The stumps searched over orders computed once per fit are the
    /// reference's, bit for bit, on a tie-heavy matrix (count columns,
    /// `±0.0`, repeated rows) under many weightings.
    #[test]
    fn fixed_orders_match_the_reference_stump_search() {
        let mut rng = wym_linalg::Rng64::new(23);
        let (n, d) = (40, 6);
        let mut x = Matrix::zeros(0, d);
        for i in 0..n {
            let row: Vec<f32> = if i >= 30 {
                x.row(i - 30).to_vec()
            } else {
                (0..d)
                    .map(|j| match j % 2 {
                        0 => rng.gen_range(3) as f32,
                        _ => [-1.0, -0.0, 0.0, 1.0][rng.gen_range(4)],
                    })
                    .collect()
            };
            x.push_row(&row);
        }
        let targets: Vec<f32> =
            (0..n).map(|_| if rng.gen_range(2) == 1 { 1.0 } else { -1.0 }).collect();
        let orders = AdaBoost::feature_orders(&x);
        let bits = |s: Stump| (s.feature, s.threshold.to_bits(), s.polarity.to_bits());
        for _ in 0..50 {
            let mut w: Vec<f32> = (0..n).map(|_| rng.gen_f32() + 0.01).collect();
            let total: f32 = w.iter().sum();
            w.iter_mut().for_each(|wi| *wi /= total);
            let got = AdaBoost::best_stump(&x, &orders, &targets, &w);
            assert_eq!(bits(got), bits(reference_best_stump(&x, &targets, &w)));
        }
    }

    #[test]
    fn adaboost_learns_blobs() {
        let (x, y) = blobs(50, 3, 71);
        let mut ab = AdaBoost::new(0);
        ab.fit(&x, &y);
        let acc = ab.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc >= 97, "accuracy {acc}/100");
    }

    #[test]
    fn adaboost_improves_on_chance_for_xor() {
        // Discrete AdaBoost over axis-aligned stumps is structurally weak on
        // XOR (every stump is near-chance once reweighted); it should still
        // clearly beat the 50% baseline.
        let (x, y) = xor(400, 72);
        let mut ab = AdaBoost::new(0);
        ab.rounds = 150;
        ab.fit(&x, &y);
        let acc = ab.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc as f32 / 400.0 > 0.65, "accuracy {acc}/400");
    }

    #[test]
    fn adaboost_stops_on_perfect_separation() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let y = vec![0, 0, 1, 1];
        let mut ab = AdaBoost::new(0);
        ab.fit(&x, &y);
        assert!(ab.stumps.len() <= 2, "separable data needs one stump, got {}", ab.stumps.len());
        assert_eq!(ab.predict(&x), y);
    }

    #[test]
    fn adaboost_single_class_degenerate() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let mut ab = AdaBoost::new(0);
        ab.fit(&x, &[1, 1]);
        // Query within the observed range: everything must look positive.
        let p = ab.predict_proba(&Matrix::from_rows(&[&[1.5]]));
        assert!(p[0] > 0.5);
    }

    #[test]
    fn gbm_learns_xor() {
        let (x, y) = xor(400, 73);
        let mut gbm = GradientBoosting::new(0);
        gbm.fit(&x, &y);
        let acc = gbm.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc as f32 / 400.0 > 0.93, "accuracy {acc}/400");
    }

    #[test]
    fn gbm_importance_on_informative_feature() {
        let (x, y) = single_feature(500, 4, 74);
        let mut gbm = GradientBoosting::new(0);
        gbm.fit(&x, &y);
        let imp = gbm.signed_importance();
        for j in 1..4 {
            assert!(imp[0] > imp[j].abs(), "{imp:?}");
        }
    }

    #[test]
    fn gbm_init_reflects_class_prior() {
        let mut x = Matrix::zeros(0, 1);
        let mut y = Vec::new();
        for i in 0..100 {
            x.push_row(&[i as f32]);
            y.push(u8::from(i < 10)); // 10% positive
        }
        let mut gbm = GradientBoosting::new(0);
        gbm.rounds = 1;
        gbm.fit(&x, &y);
        assert!((sigmoid(gbm.init) - 0.1).abs() < 0.01);
    }

    #[test]
    fn boosting_deterministic() {
        let (x, y) = blobs(30, 2, 75);
        let mut a = GradientBoosting::new(4);
        let mut b = GradientBoosting::new(4);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }
}
