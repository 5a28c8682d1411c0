//! CART-style binary trees.
//!
//! One builder serves three pool members: the plain decision tree (DT),
//! the bagged ensembles (RF / ET via `forest`), and the gradient-boosted
//! residual trees (GBM via `boost`). Targets are `f32`; with 0/1 labels the
//! variance criterion is exactly half the Gini impurity, so minimizing MSE
//! reproduces CART's classification splits while also supporting the
//! regression trees that boosting needs.

use crate::{apply_signs, check_eq, label_correlations, Classifier, ClassifierKind};
use serde::{Deserialize, Serialize};
use wym_linalg::{Matrix, Rng64};

/// Hyper-parameters of a single tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Features examined per split (`None` = all).
    pub max_features: Option<usize>,
    /// Extra-trees mode: one uniformly random threshold per feature instead
    /// of an exhaustive scan.
    pub random_threshold: bool,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            random_threshold: false,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf { value: f32 },
    Split { feature: usize, threshold: f32, left: u32, right: u32 },
}

/// A fitted regression tree (classification = regression on 0/1 labels).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    importances: Vec<f32>,
    n_features: usize,
}

impl Tree {
    /// Fits a tree on the rows of `x` indexed by `idx` with targets `y`.
    pub fn fit(x: &Matrix, y: &[f32], idx: &[usize], params: &TreeParams, rng: &mut Rng64) -> Self {
        Self::fit_sorted(&SortedColumns::new(x), y, idx, params, rng)
    }

    /// [`Tree::fit`] on a matrix prepared once by [`SortedColumns::new`]:
    /// the ensembles grow every tree of one fit from the same view.
    pub(crate) fn fit_sorted(
        x: &SortedColumns,
        y: &[f32],
        idx: &[usize],
        params: &TreeParams,
        rng: &mut Rng64,
    ) -> Self {
        assert_eq!(x.rows, y.len(), "x / y length mismatch");
        assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
        assert!(u32::try_from(idx.len()).is_ok(), "too many samples for one tree");
        let mut tree =
            Tree { nodes: Vec::new(), importances: vec![0.0; x.cols], n_features: x.cols };
        let mut indices = idx.to_vec();
        let root_weight = indices.len() as f32;
        // At an identity root a node position is its row, so the view's
        // row orders are the root's orders.
        let presorted = idx.len() == x.rows && idx.iter().enumerate().all(|(p, &i)| p == i);
        tree.build(x, y, &mut indices, 0, params, rng, root_weight, presorted);
        tree
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, *left as usize).max(walk(nodes, *right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Predicted value (mean target of the reached leaf).
    pub fn predict_one(&self, row: &[f32]) -> f32 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left as usize } else { *right as usize };
                }
            }
        }
    }

    /// Predictions for all rows.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        assert_eq!(x.cols(), self.n_features, "tree fitted on different width");
        x.iter_rows().map(|r| self.predict_one(r)).collect()
    }

    /// Impurity-decrease feature importances (unnormalized).
    pub fn importances(&self) -> &[f32] {
        &self.importances
    }

    /// Checks a deserialized tree (named `field` in errors) for a matcher
    /// of `n_features` features: the node list is non-empty, each split's
    /// children come after it and lie inside the list (so
    /// [`Tree::predict_one`] terminates), and every width and feature
    /// index fits.
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        check_eq(&format!("{field}.n_features"), self.n_features, n_features)?;
        check_eq(&format!("{field}.importances.len()"), self.importances.len(), n_features)?;
        let len = self.nodes.len();
        if len == 0 {
            return Err(format!("`{field}.nodes` is empty"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let Node::Split { feature, left, right, .. } = *node else { continue };
            if feature >= n_features {
                return Err(format!(
                    "`{field}.nodes[{i}].feature` is {feature}, expected below {n_features}"
                ));
            }
            for (side, child) in [("left", left), ("right", right)] {
                if child as usize <= i || child as usize >= len {
                    return Err(format!(
                        "`{field}.nodes[{i}].{side}` is {child}, expected a later node in {}..{len}",
                        i + 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// [`Tree::check`] of every tree of an ensemble (named `field`), which
    /// must hold at least one.
    pub(crate) fn check_all(field: &str, trees: &[Tree], n_features: usize) -> Result<(), String> {
        if trees.is_empty() {
            return Err(format!("`{field}` is empty"));
        }
        for (t, tree) in trees.iter().enumerate() {
            tree.check(&format!("{field}[{t}]"), n_features)?;
        }
        Ok(())
    }

    /// Recursively builds the subtree over `idx`, returning its node id.
    /// `root_n` is the root sample count, used to weight impurity decreases;
    /// `presorted` marks an identity root (see [`Tree::fit_sorted`]).
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &SortedColumns,
        y: &[f32],
        idx: &mut [usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut Rng64,
        root_n: f32,
        presorted: bool,
    ) -> u32 {
        let n = idx.len();
        let (mean, var) = mean_var(y, idx);
        let id = self.nodes.len() as u32;
        if depth >= params.max_depth
            || n < params.min_samples_split
            || var <= 1e-12
            || n < 2 * params.min_samples_leaf
        {
            self.nodes.push(Node::Leaf { value: mean });
            return id;
        }

        let split = self.find_best_split(x, y, idx, var, params, rng, presorted);
        let Some((feature, threshold, gain)) = split else {
            self.nodes.push(Node::Leaf { value: mean });
            return id;
        };

        // Partition idx in place. The order this swap loop leaves is the
        // children's node-position order, which fixes their tie order and
        // the summation order of `mean_var`.
        let column = x.column(feature);
        let mut lt = 0usize;
        for i in 0..n {
            if column[idx[i]] <= threshold {
                idx.swap(i, lt);
                lt += 1;
            }
        }
        if lt < params.min_samples_leaf || n - lt < params.min_samples_leaf {
            self.nodes.push(Node::Leaf { value: mean });
            return id;
        }

        self.importances[feature] += gain * n as f32 / root_n;
        // Reserve the split node, then build children.
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let (left_idx, right_idx) = idx.split_at_mut(lt);
        let left = self.build(x, y, left_idx, depth + 1, params, rng, root_n, false);
        let right = self.build(x, y, right_idx, depth + 1, params, rng, root_n, false);
        self.nodes[id as usize] = Node::Split { feature, threshold, left, right };
        id
    }

    /// Finds the best `(feature, threshold, variance_gain)` or `None`;
    /// `parent_var` is the node's target variance.
    #[allow(clippy::too_many_arguments)]
    fn find_best_split(
        &self,
        x: &SortedColumns,
        y: &[f32],
        idx: &[usize],
        parent_var: f32,
        params: &TreeParams,
        rng: &mut Rng64,
        presorted: bool,
    ) -> Option<(usize, f32, f32)> {
        let d = x.cols;
        let features: Vec<usize> = match params.max_features {
            Some(k) if k < d => rng.sample_indices(d, k),
            _ => (0..d).collect(),
        };
        let n = idx.len() as f32;

        let mut best: Option<(usize, f32, f32)> = None;
        // Scratch buffers reused per feature.
        let mut vals: Vec<(f32, f32)> = Vec::with_capacity(idx.len());
        let mut order: Vec<u64> = Vec::with_capacity(idx.len());
        for &f in &features {
            let column = x.column(f);
            vals.clear();
            if params.random_threshold {
                vals.extend(idx.iter().map(|&i| (column[i], y[i])));
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for &(v, _) in &vals {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo <= 1e-12 {
                    continue;
                }
                let threshold = lo + rng.gen_f32() * (hi - lo);
                if let Some(gain) = split_gain(&vals, threshold, parent_var, n, params) {
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((f, threshold, gain));
                    }
                }
            } else {
                // The node's samples in ascending `total_cmp` order, ties
                // in node-position order.
                if presorted {
                    vals.extend(
                        x.row_order(f).iter().map(|&i| (column[i as usize], y[i as usize])),
                    );
                } else {
                    x.node_order(f, idx, &mut order);
                    vals.extend(order.iter().map(|&key| {
                        let i = idx[key as u32 as usize];
                        (column[i], y[i])
                    }));
                }
                // Prefix scan over sorted values.
                let total_sum: f64 = vals.iter().map(|&(_, t)| t as f64).sum();
                let total_sq: f64 = vals.iter().map(|&(_, t)| (t as f64) * (t as f64)).sum();
                let mut left_sum = 0.0f64;
                let mut left_sq = 0.0f64;
                for k in 0..vals.len() - 1 {
                    let (v, t) = vals[k];
                    left_sum += t as f64;
                    left_sq += (t as f64) * (t as f64);
                    let next_v = vals[k + 1].0;
                    if next_v <= v + 1e-12 {
                        continue; // no threshold between equal values
                    }
                    let nl = (k + 1) as f64;
                    let nr = n as f64 - nl;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let var_l = (left_sq - left_sum * left_sum / nl) / nl;
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let var_r = (right_sq - right_sum * right_sum / nr) / nr;
                    let gain =
                        parent_var - ((nl * var_l + nr * var_r) / n as f64) as f32;
                    if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((f, 0.5 * (v + next_v), gain));
                    }
                }
            }
        }
        best
    }
}

/// A training matrix prepared once per fit for split search: every tree
/// of the fit reads it, and it is dropped with the fit.
///
/// It holds the values column by column, each value's `f32::total_cmp`
/// rank as an unsigned key (equal keys are equal bits), and each
/// feature's rows in ascending key order, ties by row. A node orders its
/// samples by sorting `key << 32 | position` (see
/// [`SortedColumns::node_order`]): positions are unique, so that is the
/// order a stable `total_cmp` sort of the node's values gives.
pub(crate) struct SortedColumns {
    rows: usize,
    cols: usize,
    /// `values[f * rows + i]` is `x[(i, f)]`.
    values: Vec<f32>,
    /// `keys[f * rows + i]` is `order_key(x[(i, f)])`.
    keys: Vec<u32>,
    /// `order[f * rows..][..rows]`: the rows by ascending feature `f`.
    order: Vec<u32>,
}

impl SortedColumns {
    /// Transposes `x`, keys every value and sorts each feature once.
    pub(crate) fn new(x: &Matrix) -> Self {
        let (rows, cols) = x.shape();
        assert!(u32::try_from(rows).is_ok(), "too many rows to presort");
        let mut values = Vec::with_capacity(rows * cols);
        for f in 0..cols {
            values.extend(x.iter_rows().map(|row| row[f]));
        }
        let keys: Vec<u32> = values.iter().map(|&v| order_key(v)).collect();
        let identity: Vec<usize> = (0..rows).collect();
        let mut sorted = Vec::with_capacity(rows);
        let mut order = Vec::with_capacity(rows * cols);
        let mut view = SortedColumns { rows, cols, values, keys, order: Vec::new() };
        for f in 0..cols {
            view.node_order(f, &identity, &mut sorted);
            order.extend(sorted.iter().map(|&key| key as u32));
        }
        view.order = order;
        view
    }

    /// Feature `f`'s value of every row.
    fn column(&self, f: usize) -> &[f32] {
        &self.values[f * self.rows..][..self.rows]
    }

    /// Every row, in ascending `total_cmp` order of feature `f`.
    fn row_order(&self, f: usize) -> &[u32] {
        &self.order[f * self.rows..][..self.rows]
    }

    /// Fills `out` with `key << 32 | position` for the samples `idx` of a
    /// node, sorted: ascending `total_cmp` order of feature `f`, ties in
    /// the order of their positions in `idx`. The low 32 bits of each entry
    /// are the position.
    fn node_order(&self, f: usize, idx: &[usize], out: &mut Vec<u64>) {
        let keys = &self.keys[f * self.rows..][..self.rows];
        out.clear();
        out.extend(idx.iter().zip(0u64..).map(|(&i, p)| u64::from(keys[i]) << 32 | p));
        out.sort_unstable();
    }
}

/// An unsigned key that orders like `f32::total_cmp`: negative values
/// (sign bit set) flip every bit, the others set the sign bit.
fn order_key(v: f32) -> u32 {
    let b = v.to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Variance gain of splitting `vals` at `threshold`; `None` if a side is too small.
fn split_gain(
    vals: &[(f32, f32)],
    threshold: f32,
    parent_var: f32,
    n: f32,
    params: &TreeParams,
) -> Option<f32> {
    let (mut ls, mut lq, mut nl) = (0.0f64, 0.0f64, 0usize);
    let (mut rs, mut rq, mut nr) = (0.0f64, 0.0f64, 0usize);
    for &(v, t) in vals {
        let t = t as f64;
        if v <= threshold {
            ls += t;
            lq += t * t;
            nl += 1;
        } else {
            rs += t;
            rq += t * t;
            nr += 1;
        }
    }
    if nl < params.min_samples_leaf || nr < params.min_samples_leaf {
        return None;
    }
    let var_l = (lq - ls * ls / nl as f64) / nl as f64;
    let var_r = (rq - rs * rs / nr as f64) / nr as f64;
    let gain = parent_var - ((nl as f64 * var_l + nr as f64 * var_r) / n as f64) as f32;
    (gain > 1e-12).then_some(gain)
}

/// Mean and population variance of `y` restricted to `idx`.
fn mean_var(y: &[f32], idx: &[usize]) -> (f32, f32) {
    let n = idx.len() as f64;
    let sum: f64 = idx.iter().map(|&i| y[i] as f64).sum();
    let mean = sum / n;
    let var: f64 = idx.iter().map(|&i| (y[i] as f64 - mean).powi(2)).sum::<f64>() / n;
    (mean as f32, var as f32)
}

/// The CART decision-tree pool member (DT in Table 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[derive(Default)]
pub struct DecisionTree {
    /// Tree hyper-parameters.
    pub params: TreeParams,
    tree: Option<Tree>,
    signs: Vec<f32>,
}


impl DecisionTree {
    /// See [`crate::AnyClassifier::check`].
    pub(crate) fn check(&self, field: &str, n_features: usize) -> Result<(), String> {
        let tree = self.tree.as_ref().ok_or_else(|| format!("`{field}.tree` is missing"))?;
        tree.check(&format!("{field}.tree"), n_features)?;
        check_eq(&format!("{field}.signs.len()"), self.signs.len(), n_features)
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        assert_eq!(x.rows(), y.len(), "x / y length mismatch");
        assert!(!y.is_empty(), "cannot fit on an empty dataset");
        let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let idx: Vec<usize> = (0..y.len()).collect();
        // Deterministic: the exhaustive scan ignores the RNG.
        let mut rng = Rng64::new(0);
        self.tree = Some(Tree::fit(x, &yf, &idx, &self.params, &mut rng));
        self.signs = label_correlations(x, y);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        let tree = self.tree.as_ref().expect("fit must be called before predict");
        tree.predict(x).into_iter().map(|v| v.clamp(0.0, 1.0)).collect()
    }

    fn kind(&self) -> ClassifierKind {
        ClassifierKind::DecisionTree
    }

    fn snapshot(&self) -> crate::serial::AnyClassifier {
        crate::serial::AnyClassifier::Dt(self.clone())
    }

    fn signed_importance(&self) -> Vec<f32> {
        match &self.tree {
            Some(t) => apply_signs(t.importances(), &self.signs),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{blobs, single_feature, xor};
    use proptest::prelude::*;

    /// Values with heavy ties, both zeros, both infinities and NaNs of
    /// both signs and two payloads.
    fn tie_value() -> impl Strategy<Value = f32> {
        prop::sample::select(vec![
            -1.5f32,
            -0.0,
            0.0,
            0.5,
            0.5,
            2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A node's order is the permutation a stable `total_cmp` sort of
        /// its values gives (ties by node position), for any index list,
        /// duplicates included; a feature's row order is that of the
        /// identity list.
        #[test]
        fn node_order_is_the_stable_total_cmp_order(
            values in prop::collection::vec(tie_value(), 1..40),
            picks in prop::collection::vec(any::<usize>(), 1..60),
        ) {
            let rows = values.len();
            let sorted = SortedColumns::new(&Matrix::from_vec(rows, 1, values.clone()));
            let idx: Vec<usize> = picks.iter().map(|p| p % rows).collect();
            let mut order = Vec::new();
            sorted.node_order(0, &idx, &mut order);
            let got: Vec<usize> = order.iter().map(|&key| key as u32 as usize).collect();
            let mut want: Vec<usize> = (0..idx.len()).collect();
            want.sort_by(|&a, &b| values[idx[a]].total_cmp(&values[idx[b]]));
            prop_assert_eq!(got, want);

            let got: Vec<usize> = sorted.row_order(0).iter().map(|&i| i as usize).collect();
            let mut want: Vec<usize> = (0..rows).collect();
            want.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            prop_assert_eq!(got, want);
        }
    }

    /// The split search before [`SortedColumns`]: every node sorts
    /// `(value, target)` pairs with a stable `total_cmp` sort. Kept as the
    /// reference the presorted search must reproduce bit for bit.
    fn reference_fit(
        x: &Matrix,
        y: &[f32],
        idx: &[usize],
        params: &TreeParams,
        rng: &mut Rng64,
    ) -> Tree {
        let mut tree =
            Tree { nodes: Vec::new(), importances: vec![0.0; x.cols()], n_features: x.cols() };
        let mut indices = idx.to_vec();
        let root_n = indices.len() as f32;
        reference_build(&mut tree, x, y, &mut indices, 0, params, rng, root_n);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_build(
        tree: &mut Tree,
        x: &Matrix,
        y: &[f32],
        idx: &mut [usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut Rng64,
        root_n: f32,
    ) -> u32 {
        let n = idx.len();
        let (mean, var) = mean_var(y, idx);
        let id = tree.nodes.len() as u32;
        if depth >= params.max_depth
            || n < params.min_samples_split
            || var <= 1e-12
            || n < 2 * params.min_samples_leaf
        {
            tree.nodes.push(Node::Leaf { value: mean });
            return id;
        }
        let Some((feature, threshold, gain)) = reference_split(x, y, idx, params, rng) else {
            tree.nodes.push(Node::Leaf { value: mean });
            return id;
        };
        let mut lt = 0usize;
        for i in 0..n {
            if x[(idx[i], feature)] <= threshold {
                idx.swap(i, lt);
                lt += 1;
            }
        }
        if lt < params.min_samples_leaf || n - lt < params.min_samples_leaf {
            tree.nodes.push(Node::Leaf { value: mean });
            return id;
        }
        tree.importances[feature] += gain * n as f32 / root_n;
        tree.nodes.push(Node::Leaf { value: mean });
        let (left_idx, right_idx) = idx.split_at_mut(lt);
        let left = reference_build(tree, x, y, left_idx, depth + 1, params, rng, root_n);
        let right = reference_build(tree, x, y, right_idx, depth + 1, params, rng, root_n);
        tree.nodes[id as usize] = Node::Split { feature, threshold, left, right };
        id
    }

    fn reference_split(
        x: &Matrix,
        y: &[f32],
        idx: &[usize],
        params: &TreeParams,
        rng: &mut Rng64,
    ) -> Option<(usize, f32, f32)> {
        let d = x.cols();
        let features: Vec<usize> = match params.max_features {
            Some(k) if k < d => rng.sample_indices(d, k),
            _ => (0..d).collect(),
        };
        let n = idx.len() as f32;
        let (_, parent_var) = mean_var(y, idx);
        let mut best: Option<(usize, f32, f32)> = None;
        let mut vals: Vec<(f32, f32)> = Vec::with_capacity(idx.len());
        for &f in &features {
            vals.clear();
            vals.extend(idx.iter().map(|&i| (x[(i, f)], y[i])));
            if params.random_threshold {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for &(v, _) in &vals {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo <= 1e-12 {
                    continue;
                }
                let threshold = lo + rng.gen_f32() * (hi - lo);
                if let Some(gain) = split_gain(&vals, threshold, parent_var, n, params) {
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((f, threshold, gain));
                    }
                }
            } else {
                vals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let total_sum: f64 = vals.iter().map(|&(_, t)| t as f64).sum();
                let total_sq: f64 = vals.iter().map(|&(_, t)| (t as f64) * (t as f64)).sum();
                let mut left_sum = 0.0f64;
                let mut left_sq = 0.0f64;
                for k in 0..vals.len() - 1 {
                    let (v, t) = vals[k];
                    left_sum += t as f64;
                    left_sq += (t as f64) * (t as f64);
                    let next_v = vals[k + 1].0;
                    if next_v <= v + 1e-12 {
                        continue;
                    }
                    let nl = (k + 1) as f64;
                    let nr = n as f64 - nl;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let var_l = (left_sq - left_sum * left_sum / nl) / nl;
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let var_r = (right_sq - right_sum * right_sum / nr) / nr;
                    let gain = parent_var - ((nl * var_l + nr * var_r) / n as f64) as f32;
                    if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((f, 0.5 * (v + next_v), gain));
                    }
                }
            }
        }
        best
    }

    /// Every bit of a tree: its nodes, then its importances.
    fn tree_bits(tree: &Tree) -> Vec<u64> {
        let mut bits = Vec::new();
        for node in &tree.nodes {
            match *node {
                Node::Leaf { value } => bits.push(u64::from(value.to_bits())),
                Node::Split { feature, threshold, left, right } => bits.extend([
                    feature as u64,
                    u64::from(threshold.to_bits()),
                    u64::from(left),
                    u64::from(right),
                ]),
            }
        }
        bits.extend(tree.importances.iter().map(|v| u64::from(v.to_bits())));
        bits
    }

    /// The presorted search grows the reference's trees bit for bit on
    /// tie-heavy matrices (count columns, `±0.0`, repeated rows), for
    /// labels and residual targets, identity, bootstrap and shuffled index
    /// lists, under the DT, GBM, RF and ET parameters, with one view
    /// shared by every fit as the ensembles share it.
    #[test]
    fn presorted_trees_match_the_reference_search() {
        let mut rng = Rng64::new(17);
        let (n, d) = (48, 7);
        let mut x = Matrix::zeros(0, d);
        for i in 0..n {
            let row: Vec<f32> = if i >= 36 {
                x.row(i - 36).to_vec()
            } else {
                (0..d)
                    .map(|j| match j % 3 {
                        0 => rng.gen_range(4) as f32,
                        1 => [-1.0, -0.0, 0.0, 1.0][rng.gen_range(4)],
                        _ => rng.normal() as f32,
                    })
                    .collect()
            };
            x.push_row(&row);
        }
        let sorted = SortedColumns::new(&x);
        let labels: Vec<f32> = (0..n).map(|_| rng.gen_range(2) as f32).collect();
        let residuals: Vec<f32> = labels.iter().map(|l| l - 0.3 * rng.gen_f32()).collect();
        let identity: Vec<usize> = (0..n).collect();
        let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(n)).collect();
        let mut shuffled = identity.clone();
        rng.shuffle(&mut shuffled);
        let params = [
            TreeParams::default(),
            TreeParams {
                max_depth: 3,
                min_samples_split: 4,
                min_samples_leaf: 2,
                ..TreeParams::default()
            },
            TreeParams { max_depth: 10, max_features: Some(3), ..TreeParams::default() },
            TreeParams {
                max_depth: 10,
                max_features: Some(3),
                random_threshold: true,
                ..TreeParams::default()
            },
        ];
        for (p, params) in params.iter().enumerate() {
            for y in [&labels, &residuals] {
                for idx in [&identity, &bootstrap, &shuffled] {
                    let seed = 100 + p as u64;
                    let want = reference_fit(&x, y, idx, params, &mut Rng64::new(seed));
                    let got = Tree::fit_sorted(&sorted, y, idx, params, &mut Rng64::new(seed));
                    assert_eq!(tree_bits(&got), tree_bits(&want), "params {p}");
                    assert!(want.node_count() > 1, "params {p} must split");
                }
            }
        }
    }

    #[test]
    fn perfectly_fits_axis_aligned_split() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let mut dt = DecisionTree::default();
        dt.fit(&x, &y);
        assert_eq!(dt.predict(&x), y);
        let t = dt.tree.as_ref().unwrap();
        assert_eq!(t.depth(), 1, "one split suffices");
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor(400, 51);
        let mut dt = DecisionTree::default();
        dt.fit(&x, &y);
        let acc = dt.predict(&x).iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(acc as f32 / 400.0 > 0.95, "accuracy {acc}/400");
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = blobs(50, 3, 52);
        let mut dt = DecisionTree {
            params: TreeParams { max_depth: 2, ..TreeParams::default() },
            ..DecisionTree::default()
        };
        dt.fit(&x, &y);
        assert!(dt.tree.as_ref().unwrap().depth() <= 2);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let (x, y) = blobs(30, 2, 53);
        let params = TreeParams { min_samples_leaf: 10, ..TreeParams::default() };
        let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let idx: Vec<usize> = (0..y.len()).collect();
        let tree = Tree::fit(&x, &yf, &idx, &params, &mut Rng64::new(0));
        // Every leaf must hold ≥ 10 training rows: verify by counting
        // training rows routed to each leaf value bucket.
        let preds = tree.predict(&x);
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for p in preds {
            *counts.entry(p.to_bits()).or_insert(0) += 1;
        }
        for (_, c) in counts {
            assert!(c >= 10, "leaf with {c} samples");
        }
    }

    #[test]
    fn importance_concentrates_on_informative_feature() {
        let (x, y) = single_feature(500, 4, 54);
        let mut dt = DecisionTree::default();
        dt.fit(&x, &y);
        let imp = dt.signed_importance();
        for j in 1..4 {
            assert!(imp[0] > imp[j].abs(), "{imp:?}");
        }
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = vec![1, 1, 1];
        let mut dt = DecisionTree::default();
        dt.fit(&x, &y);
        assert_eq!(dt.tree.as_ref().unwrap().node_count(), 1);
        assert_eq!(dt.predict(&x), y);
    }

    #[test]
    fn random_threshold_mode_still_learns() {
        let (x, y) = blobs(50, 3, 55);
        let yf: Vec<f32> = y.iter().map(|&v| v as f32).collect();
        let idx: Vec<usize> = (0..y.len()).collect();
        let params = TreeParams { random_threshold: true, ..TreeParams::default() };
        let tree = Tree::fit(&x, &yf, &idx, &params, &mut Rng64::new(7));
        let preds = tree.predict(&x);
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, t)| (u8::from(**p >= 0.5)) == **t)
            .count();
        assert!(acc >= 95, "accuracy {acc}/100");
    }
}
