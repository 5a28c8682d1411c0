//! The explainable matcher (paper §4.3): classifier pool over engineered
//! features, plus the inverse transformation producing impact scores.

use crate::features::{featurize, full_specs, simplified_specs, FeatureSpec, ScopeGroups};
use crate::units::DecisionUnit;
use serde::{Deserialize, Serialize};
use wym_linalg::Matrix;
use wym_ml::select::SavedSelectedModel;
use wym_ml::{ClassifierKind, ClassifierPool, SelectedModel};

/// Matcher configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Use Table 4's simplified 6-feature set instead of the full one.
    pub simplified_features: bool,
    /// Classifier kinds to include in the pool (default: all ten).
    pub kinds: Vec<ClassifierKind>,
    /// Model seed.
    pub seed: u64,
    /// Threads for pool fitting (0 = all cores). [`crate::WymModel::fit`]
    /// overrides this with the pipeline-wide `WymConfig::n_threads`. The
    /// fitted matcher is identical for every value.
    pub n_threads: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            simplified_features: false,
            kinds: ClassifierKind::ALL.to_vec(),
            seed: 0,
            n_threads: 0,
        }
    }
}

/// A fitted explainable matcher.
pub struct ExplainableMatcher {
    specs: Vec<FeatureSpec>,
    selected: SelectedModel,
    /// `selected.raw_signed_importance()`, derived once at fit and at load
    /// and never stored: the coefficients the impacts distribute.
    coefs: Vec<f32>,
}

/// Serializable form of an [`ExplainableMatcher`].
#[derive(Serialize, Deserialize)]
pub struct SavedMatcher {
    /// Engineered feature specs.
    pub specs: Vec<FeatureSpec>,
    /// Snapshot of the selected classifier.
    pub selected: SavedSelectedModel,
}

impl ExplainableMatcher {
    /// A serializable snapshot of the fitted matcher.
    pub fn to_saved(&self) -> SavedMatcher {
        SavedMatcher { specs: self.specs.clone(), selected: self.selected.to_saved() }
    }

    /// Rehydrates a snapshot.
    pub fn from_saved(saved: SavedMatcher) -> ExplainableMatcher {
        ExplainableMatcher::new(saved.specs, SelectedModel::from_saved(saved.selected))
    }

    fn new(specs: Vec<FeatureSpec>, selected: SelectedModel) -> ExplainableMatcher {
        let coefs = selected.raw_signed_importance();
        ExplainableMatcher { specs, selected, coefs }
    }

    /// Fits the pool on per-record `(units, scores, label)` triples and
    /// selects the best member by validation F1.
    ///
    /// # Panics
    /// Panics when `train` is empty.
    pub fn fit(
        config: &MatcherConfig,
        n_attrs: usize,
        train: &[(&[DecisionUnit], &[f32], bool)],
        val: &[(&[DecisionUnit], &[f32], bool)],
    ) -> ExplainableMatcher {
        assert!(!train.is_empty(), "cannot fit the matcher on zero records");
        let _span = wym_obs::span("matcher_fit");
        let specs =
            if config.simplified_features { simplified_specs() } else { full_specs(n_attrs) };
        let build = |rows: &[(&[DecisionUnit], &[f32], bool)]| {
            let mut x = Matrix::zeros(0, specs.len());
            let mut y = Vec::with_capacity(rows.len());
            for (units, scores, label) in rows {
                x.push_row(&featurize(&specs, units, scores));
                y.push(u8::from(*label));
            }
            (x, y)
        };
        let (x_train, y_train) = build(train);
        let (x_val, y_val) = build(val);
        let pool = ClassifierPool {
            kinds: config.kinds.clone(),
            seed: config.seed,
            n_threads: config.n_threads,
        };
        let selected = pool.fit_select(&x_train, &y_train, &x_val, &y_val);
        ExplainableMatcher::new(specs, selected)
    }

    /// The feature specs in use.
    pub fn specs(&self) -> &[FeatureSpec] {
        &self.specs
    }

    /// The winning classifier kind.
    pub fn classifier(&self) -> ClassifierKind {
        self.selected.kind
    }

    /// Validation scores of every pool member (Table 5 rows).
    pub fn pool_scores(&self) -> &[(ClassifierKind, f32)] {
        &self.selected.all_scores
    }

    /// Match probability of one record.
    pub fn predict_proba(&self, units: &[DecisionUnit], scores: &[f32]) -> f32 {
        let _span = wym_obs::span("classify");
        self.proba(&ScopeGroups::new(units, scores))
    }

    /// Match probabilities of many records (one featurize + one model call).
    pub fn predict_proba_batch(&self, rows: &[(&[DecisionUnit], &[f32])]) -> Vec<f32> {
        if rows.is_empty() {
            return Vec::new();
        }
        let _span = wym_obs::span("classify");
        wym_obs::counter_add("classify.records", rows.len() as u64);
        let mut x = Matrix::zeros(0, self.specs.len());
        for (units, scores) in rows {
            x.push_row(&featurize(&self.specs, units, scores));
        }
        self.selected.predict_proba(&x)
    }

    /// Impact score of every unit: the trained coefficients are distributed
    /// back over the contributing units by the inverse feature
    /// transformation, multiplied by the unit's relevance, and averaged
    /// (paper §4.3).
    pub fn impacts(&self, units: &[DecisionUnit], scores: &[f32]) -> Vec<f32> {
        self.impacts_of(&ScopeGroups::new(units, scores), scores)
    }

    /// [`ExplainableMatcher::predict_proba`] and
    /// [`ExplainableMatcher::impacts`] of one record, both read from one
    /// grouping of its units. The `classify` span wraps the probability.
    pub(crate) fn proba_and_impacts(
        &self,
        units: &[DecisionUnit],
        scores: &[f32],
    ) -> (f32, Vec<f32>) {
        let span = wym_obs::span("classify");
        let groups = ScopeGroups::new(units, scores);
        let probability = self.proba(&groups);
        drop(span);
        (probability, self.impacts_of(&groups, scores))
    }

    fn proba(&self, groups: &ScopeGroups) -> f32 {
        let x = Matrix::from_vec(1, self.specs.len(), groups.featurize(&self.specs));
        self.selected.predict_proba(&x)[0]
    }

    fn impacts_of(&self, groups: &ScopeGroups, scores: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; scores.len()];
        let mut n = vec![0u32; scores.len()];
        for (spec, &coef) in self.specs.iter().zip(&self.coefs) {
            if coef == 0.0 {
                continue;
            }
            groups.contribute(spec, |i, w| {
                acc[i] += coef * w;
                n[i] += 1;
            });
        }
        acc.iter()
            .zip(&n)
            .zip(scores)
            .map(|((a, &k), s)| if k == 0 { 0.0 } else { (a / k as f32) * s })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Side, TokenRef};
    use wym_linalg::Rng64;

    /// Synthesizes unit/score rows: matches have several positive-scored
    /// paired units, non-matches negative-scored unpaired units.
    fn synth(n: usize, seed: u64) -> Vec<(Vec<DecisionUnit>, Vec<f32>, bool)> {
        let mut rng = Rng64::new(seed);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2 == 0;
            let n_units = 3 + rng.gen_range(4);
            let mut units = Vec::with_capacity(n_units);
            let mut scores = Vec::with_capacity(n_units);
            for p in 0..n_units {
                let paired = if label { p % 4 != 3 } else { p % 4 == 3 };
                if paired {
                    units.push(DecisionUnit::Paired {
                        left: TokenRef::new(0, p),
                        right: TokenRef::new(0, p),
                        similarity: 0.8,
                    });
                    scores.push(0.4 + 0.5 * rng.gen_f32());
                } else {
                    units.push(DecisionUnit::Unpaired {
                        token: TokenRef::new(0, p),
                        side: Side::Left,
                    });
                    scores.push(-0.4 - 0.5 * rng.gen_f32());
                }
            }
            rows.push((units, scores, label));
        }
        rows
    }

    fn as_refs(
        rows: &[(Vec<DecisionUnit>, Vec<f32>, bool)],
    ) -> Vec<(&[DecisionUnit], &[f32], bool)> {
        rows.iter().map(|(u, s, l)| (u.as_slice(), s.as_slice(), *l)).collect()
    }

    #[test]
    fn matcher_learns_separable_unit_patterns() {
        let train = synth(120, 1);
        let val = synth(40, 2);
        let m = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &as_refs(&train), &as_refs(&val));
        let test = synth(40, 3);
        let mut correct = 0;
        for (units, scores, label) in &test {
            let p = m.predict_proba(units, scores);
            if (p >= 0.5) == *label {
                correct += 1;
            }
        }
        assert!(correct >= 38, "accuracy {correct}/40 with {:?}", m.classifier());
    }

    #[test]
    fn simplified_features_use_six_specs() {
        let train = synth(60, 4);
        let m = ExplainableMatcher::fit(
            &MatcherConfig { simplified_features: true, ..Default::default() },
            1,
            &as_refs(&train),
            &as_refs(&train),
        );
        assert_eq!(m.specs().len(), 6);
    }

    #[test]
    fn impacts_have_unit_length_and_sign_structure() {
        let train = synth(120, 5);
        let m = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &as_refs(&train), &as_refs(&train));
        let (units, scores, _) = &train[0]; // a match row
        let impacts = m.impacts(units, scores);
        assert_eq!(impacts.len(), units.len());
        // Paired positive-relevance units should on average push toward the
        // match more than unpaired negative ones.
        let mean_paired: f32 = impacts
            .iter()
            .zip(units)
            .filter(|(_, u)| u.is_paired())
            .map(|(i, _)| *i)
            .sum::<f32>();
        let mean_unpaired: f32 = impacts
            .iter()
            .zip(units)
            .filter(|(_, u)| !u.is_paired())
            .map(|(i, _)| *i)
            .sum::<f32>();
        assert!(
            mean_paired > mean_unpaired,
            "paired impact {mean_paired} vs unpaired {mean_unpaired}"
        );
    }

    #[test]
    fn pool_scores_cover_all_kinds() {
        let train = synth(60, 6);
        let m = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &as_refs(&train), &as_refs(&train));
        assert_eq!(m.pool_scores().len(), 10);
    }

    #[test]
    fn batch_prediction_matches_single() {
        let train = synth(80, 7);
        let m = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &as_refs(&train), &as_refs(&train));
        let test = synth(10, 8);
        let rows: Vec<(&[DecisionUnit], &[f32])> =
            test.iter().map(|(u, s, _)| (u.as_slice(), s.as_slice())).collect();
        let batch = m.predict_proba_batch(&rows);
        for ((units, scores, _), b) in test.iter().zip(&batch) {
            let single = m.predict_proba(units, scores);
            assert!((single - b).abs() < 1e-6);
        }
    }

    #[test]
    fn shared_grouping_matches_separate_calls() {
        let train = synth(80, 9);
        let m = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &as_refs(&train), &as_refs(&train));
        for (units, scores, _) in &synth(10, 10) {
            let (p, impacts) = m.proba_and_impacts(units, scores);
            assert_eq!(p.to_bits(), m.predict_proba(units, scores).to_bits());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&impacts), bits(&m.impacts(units, scores)));
        }
    }

    #[test]
    #[should_panic(expected = "zero records")]
    fn rejects_empty_training() {
        let _ = ExplainableMatcher::fit(&MatcherConfig::default(), 1, &[], &[]);
    }
}
