//! Feature engineering over relevance scores, with exact provenance for the
//! inverse transformation (paper §4.3).
//!
//! "There are three types of contextual and structural knowledge that we can
//! introduce, by aggregating features and scores per attribute, entity
//! description and record. The functions we apply include simple statistical
//! operators (such as max, min, count, sum, mean, median, and the difference
//! between max and min)."
//!
//! Every engineered feature is described by a [`FeatureSpec`]; the spec both
//! *computes* the feature value and *distributes* a trained coefficient back
//! onto the decision units that fed it ([`contributions`]) — the inverse
//! feature engineering that yields impact scores. Both read a record's units
//! grouped by scope once, not rescanned per feature.

use crate::record::Side;
use crate::units::DecisionUnit;
use serde::{Deserialize, Serialize};
use wym_linalg::vector::{argmax, mean, median};

/// Sign-based grouping of relevance scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Polarity {
    /// All units.
    All,
    /// Units with positive relevance (pushing toward match).
    Positive,
    /// Units with negative relevance (pushing toward non-match).
    Negative,
}

/// Which units a feature aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Units assigned to one schema attribute, split by paired/unpaired.
    Attribute {
        /// Attribute index.
        attr: usize,
        /// Paired (`true`) or unpaired (`false`) units.
        paired: bool,
    },
    /// All units of the record, filtered by score polarity.
    Record {
        /// Polarity filter.
        polarity: Polarity,
    },
    /// Unpaired units of one entity description.
    EntityUnpaired {
        /// Which description.
        side: Side,
    },
}

/// The statistical operator applied to the scores in scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stat {
    /// Number of units in scope.
    Count,
    /// Sum of scores.
    Sum,
    /// Mean score.
    Mean,
    /// Minimum score.
    Min,
    /// Maximum score.
    Max,
    /// Median score.
    Median,
    /// `max − min`.
    Range,
}

/// One engineered feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Aggregation scope.
    pub scope: Scope,
    /// Statistical operator.
    pub stat: Stat,
}

const ATTR_STATS: [Stat; 7] =
    [Stat::Count, Stat::Sum, Stat::Mean, Stat::Min, Stat::Max, Stat::Median, Stat::Range];

/// The full WYM feature set for a schema with `n_attrs` attributes:
/// per-attribute × {paired, unpaired} × 7 stats, record-level × 3 polarities
/// × 7 stats, and per-entity unpaired {count, mean}.
pub fn full_specs(n_attrs: usize) -> Vec<FeatureSpec> {
    let mut specs = Vec::with_capacity(n_attrs * 14 + 25);
    for attr in 0..n_attrs {
        for paired in [true, false] {
            for stat in ATTR_STATS {
                specs.push(FeatureSpec { scope: Scope::Attribute { attr, paired }, stat });
            }
        }
    }
    for polarity in [Polarity::All, Polarity::Positive, Polarity::Negative] {
        for stat in ATTR_STATS {
            specs.push(FeatureSpec { scope: Scope::Record { polarity }, stat });
        }
    }
    for side in [Side::Left, Side::Right] {
        for stat in [Stat::Count, Stat::Mean] {
            specs.push(FeatureSpec { scope: Scope::EntityUnpaired { side }, stat });
        }
    }
    specs
}

/// The simplified 6-feature set of Table 4's "smp. feat." ablation: count
/// and mean over all, positive, and negative relevance scores.
pub fn simplified_specs() -> Vec<FeatureSpec> {
    let mut specs = Vec::with_capacity(6);
    for polarity in [Polarity::All, Polarity::Positive, Polarity::Negative] {
        for stat in [Stat::Count, Stat::Mean] {
            specs.push(FeatureSpec { scope: Scope::Record { polarity }, stat });
        }
    }
    specs
}

/// Evaluates one feature. Empty scopes yield 0.
pub fn evaluate(spec: &FeatureSpec, units: &[DecisionUnit], scores: &[f32]) -> f32 {
    ScopeGroups::new(units, scores).evaluate(spec)
}

/// The full engineered feature vector of a record.
pub fn featurize(specs: &[FeatureSpec], units: &[DecisionUnit], scores: &[f32]) -> Vec<f32> {
    ScopeGroups::new(units, scores).featurize(specs)
}

/// Inverse feature engineering: how a unit contributed to a feature.
///
/// Returns `(unit_index, weight)` pairs such that distributing a trained
/// coefficient `c` gives unit `i` the share `c · weight`:
///
/// * mean/count → `1/N` each (the paper's worked example);
/// * sum → `1` each;
/// * min/max → `1` on the extremal unit;
/// * median → `1` on the median unit (`0.5` each on the two middles);
/// * range → `+1` on the max unit, `−1` on the min unit.
pub fn contributions(
    spec: &FeatureSpec,
    units: &[DecisionUnit],
    scores: &[f32],
) -> Vec<(usize, f32)> {
    let mut out = Vec::new();
    ScopeGroups::new(units, scores).contribute(spec, |i, w| out.push((i, w)));
    out
}

/// Scope slots of a [`ScopeGroups`]: the five record-wide scopes, then the
/// paired and the unpaired slot of each attribute.
const ALL: usize = 0;
const POSITIVE: usize = 1;
const NEGATIVE: usize = 2;
const LEFT_UNPAIRED: usize = 3;
const RIGHT_UNPAIRED: usize = 4;
const FIRST_ATTR: usize = 5;

/// Slot of attribute `attr`'s paired or unpaired units.
fn attr_slot(attr: usize, paired: bool) -> usize {
    FIRST_ATTR + 2 * attr + usize::from(!paired)
}

/// The slots a unit with this score belongs to: [`ALL`], its score's
/// polarity (none for a zero or NaN score), its side's unpaired scope (none
/// for a paired unit) and its attribute's paired or unpaired slot.
fn slots_of(unit: &DecisionUnit, score: f32) -> [Option<usize>; 4] {
    let polarity = if score > 0.0 {
        Some(POSITIVE)
    } else if score < 0.0 {
        Some(NEGATIVE)
    } else {
        None
    };
    let unpaired = match unit {
        DecisionUnit::Paired { .. } => None,
        DecisionUnit::Unpaired { side: Side::Left, .. } => Some(LEFT_UNPAIRED),
        DecisionUnit::Unpaired { side: Side::Right, .. } => Some(RIGHT_UNPAIRED),
    };
    [Some(ALL), polarity, unpaired, Some(attr_slot(unit.attribute(), unit.is_paired()))]
}

/// A record's decision units grouped by feature scope, so that every
/// feature and every contribution list reads its scope's members instead
/// of rescanning the units.
///
/// A counting sort builds the groups: after finding the highest attribute,
/// one pass over the units counts each scope's members and a second places
/// them. Each scope keeps its members in
/// unit order, so every statistic folds the same scores in the same order
/// as a scan of the units would. Grouping costs O(units), a feature vector
/// O(units + features) in all.
pub(crate) struct ScopeGroups {
    /// One past the highest attribute index of the record's units.
    n_attrs: usize,
    /// `starts[s]..starts[s + 1]` are slot `s`'s entries in `members` and
    /// `values`.
    starts: Vec<usize>,
    /// Member unit indices, slot after slot, each slot in unit order.
    members: Vec<usize>,
    /// The members' scores, parallel to `members`.
    values: Vec<f32>,
}

impl ScopeGroups {
    /// Groups `units` (scored by `scores`) by scope.
    pub(crate) fn new(units: &[DecisionUnit], scores: &[f32]) -> ScopeGroups {
        debug_assert_eq!(units.len(), scores.len());
        let n_attrs = units.iter().map(|u| u.attribute() + 1).max().unwrap_or(0);
        // Counts land one slot up, so the prefix sum turns them into starts.
        let mut starts = vec![0usize; FIRST_ATTR + 2 * n_attrs + 1];
        for (unit, &score) in units.iter().zip(scores) {
            for slot in slots_of(unit, score).into_iter().flatten() {
                starts[slot + 1] += 1;
            }
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let total = starts[starts.len() - 1];
        let (mut members, mut values) = (vec![0usize; total], vec![0.0f32; total]);
        let mut next = starts.clone();
        for (i, (unit, &score)) in units.iter().zip(scores).enumerate() {
            for slot in slots_of(unit, score).into_iter().flatten() {
                members[next[slot]] = i;
                values[next[slot]] = score;
                next[slot] += 1;
            }
        }
        ScopeGroups { n_attrs, starts, members, values }
    }

    /// The member unit indices of a scope and their scores (both empty for
    /// an attribute the record has no unit of).
    fn scope(&self, scope: Scope) -> (&[usize], &[f32]) {
        let slot = match scope {
            Scope::Record { polarity: Polarity::All } => ALL,
            Scope::Record { polarity: Polarity::Positive } => POSITIVE,
            Scope::Record { polarity: Polarity::Negative } => NEGATIVE,
            Scope::EntityUnpaired { side: Side::Left } => LEFT_UNPAIRED,
            Scope::EntityUnpaired { side: Side::Right } => RIGHT_UNPAIRED,
            Scope::Attribute { attr, paired } if attr < self.n_attrs => attr_slot(attr, paired),
            Scope::Attribute { .. } => return (&[], &[]),
        };
        let range = self.starts[slot]..self.starts[slot + 1];
        (&self.members[range.clone()], &self.values[range])
    }

    /// The feature vector of `specs`.
    pub(crate) fn featurize(&self, specs: &[FeatureSpec]) -> Vec<f32> {
        specs.iter().map(|s| self.evaluate(s)).collect()
    }

    /// One feature's value; 0 for an empty scope.
    fn evaluate(&self, spec: &FeatureSpec) -> f32 {
        let (idx, vals) = self.scope(spec.scope);
        if idx.is_empty() {
            return 0.0;
        }
        match spec.stat {
            Stat::Count => idx.len() as f32,
            Stat::Sum => vals.iter().sum(),
            Stat::Mean => mean(vals),
            Stat::Min => vals.iter().copied().fold(f32::INFINITY, f32::min),
            Stat::Max => vals.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            Stat::Median => median(vals),
            Stat::Range => {
                let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let min = vals.iter().copied().fold(f32::INFINITY, f32::min);
                max - min
            }
        }
    }

    /// Calls `f(unit_index, weight)` for each of one feature's
    /// [`contributions`], in the order that function lists them.
    pub(crate) fn contribute(&self, spec: &FeatureSpec, mut f: impl FnMut(usize, f32)) {
        let (idx, vals) = self.scope(spec.scope);
        if idx.is_empty() {
            return;
        }
        let argmin = || argmax(&vals.iter().map(|v| -v).collect::<Vec<_>>()).expect("non-empty");
        match spec.stat {
            Stat::Count | Stat::Mean => {
                let w = 1.0 / idx.len() as f32;
                idx.iter().for_each(|&i| f(i, w));
            }
            Stat::Sum => idx.iter().for_each(|&i| f(i, 1.0)),
            Stat::Max => f(idx[argmax(vals).expect("non-empty")], 1.0),
            Stat::Min => f(idx[argmin()], 1.0),
            Stat::Median => {
                let mut order: Vec<usize> = (0..vals.len()).collect();
                order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
                let n = order.len();
                if n % 2 == 1 {
                    f(idx[order[n / 2]], 1.0);
                } else {
                    f(idx[order[n / 2 - 1]], 0.5);
                    f(idx[order[n / 2]], 0.5);
                }
            }
            Stat::Range => {
                let kmax = argmax(vals).expect("non-empty");
                let kmin = argmin();
                if kmax == kmin {
                    f(idx[kmax], 0.0);
                } else {
                    f(idx[kmax], 1.0);
                    f(idx[kmin], -1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TokenRef;

    fn unit_paired(attr: usize, sim: f32) -> DecisionUnit {
        DecisionUnit::Paired {
            left: TokenRef::new(attr, 0),
            right: TokenRef::new(attr, 0),
            similarity: sim,
        }
    }

    fn unit_unpaired(attr: usize, side: Side) -> DecisionUnit {
        DecisionUnit::Unpaired { token: TokenRef::new(attr, 1), side }
    }

    fn sample() -> (Vec<DecisionUnit>, Vec<f32>) {
        let units = vec![
            unit_paired(0, 0.9),
            unit_paired(0, 0.7),
            unit_unpaired(0, Side::Left),
            unit_paired(1, 0.8),
            unit_unpaired(1, Side::Right),
        ];
        let scores = vec![0.8, 0.4, -0.6, 0.5, -0.9];
        (units, scores)
    }

    #[test]
    fn full_specs_counts() {
        // 2 attrs: 2*14 attribute features + 21 record + 4 entity = 53.
        assert_eq!(full_specs(2).len(), 53);
        assert_eq!(simplified_specs().len(), 6);
    }

    #[test]
    fn attribute_scope_selects_correct_units() {
        let (units, scores) = sample();
        let spec = FeatureSpec { scope: Scope::Attribute { attr: 0, paired: true }, stat: Stat::Count };
        assert_eq!(ScopeGroups::new(&units, &scores).scope(spec.scope).0, &[0, 1]);
        assert_eq!(evaluate(&spec, &units, &scores), 2.0);
    }

    #[test]
    fn record_polarity_scopes() {
        let (units, scores) = sample();
        let pos = FeatureSpec { scope: Scope::Record { polarity: Polarity::Positive }, stat: Stat::Count };
        let neg = FeatureSpec { scope: Scope::Record { polarity: Polarity::Negative }, stat: Stat::Count };
        assert_eq!(evaluate(&pos, &units, &scores), 3.0);
        assert_eq!(evaluate(&neg, &units, &scores), 2.0);
    }

    #[test]
    fn entity_scope_counts_unpaired_per_side() {
        let (units, scores) = sample();
        let l = FeatureSpec { scope: Scope::EntityUnpaired { side: Side::Left }, stat: Stat::Count };
        let r = FeatureSpec { scope: Scope::EntityUnpaired { side: Side::Right }, stat: Stat::Count };
        assert_eq!(evaluate(&l, &units, &scores), 1.0);
        assert_eq!(evaluate(&r, &units, &scores), 1.0);
    }

    #[test]
    fn stats_compute_correct_values() {
        let (units, scores) = sample();
        let scope = Scope::Record { polarity: Polarity::All };
        let get = |stat| evaluate(&FeatureSpec { scope, stat }, &units, &scores);
        assert_eq!(get(Stat::Count), 5.0);
        assert!((get(Stat::Sum) - 0.2).abs() < 1e-6);
        assert!((get(Stat::Mean) - 0.04).abs() < 1e-6);
        assert_eq!(get(Stat::Min), -0.9);
        assert_eq!(get(Stat::Max), 0.8);
        assert_eq!(get(Stat::Median), 0.4);
        assert!((get(Stat::Range) - 1.7).abs() < 1e-6);
    }

    #[test]
    fn empty_scope_is_zero_and_contribution_free() {
        let (units, scores) = sample();
        let spec = FeatureSpec { scope: Scope::Attribute { attr: 7, paired: true }, stat: Stat::Mean };
        assert_eq!(evaluate(&spec, &units, &scores), 0.0);
        assert!(contributions(&spec, &units, &scores).is_empty());
    }

    #[test]
    fn mean_contributions_are_one_over_n() {
        let (units, scores) = sample();
        let spec = FeatureSpec { scope: Scope::Record { polarity: Polarity::All }, stat: Stat::Mean };
        let c = contributions(&spec, &units, &scores);
        assert_eq!(c.len(), 5);
        for (_, w) in &c {
            assert!((w - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn extremal_contributions_land_on_extremal_units() {
        let (units, scores) = sample();
        let scope = Scope::Record { polarity: Polarity::All };
        let max_c = contributions(&FeatureSpec { scope, stat: Stat::Max }, &units, &scores);
        assert_eq!(max_c, vec![(0, 1.0)]); // score 0.8
        let min_c = contributions(&FeatureSpec { scope, stat: Stat::Min }, &units, &scores);
        assert_eq!(min_c, vec![(4, 1.0)]); // score −0.9
        let range_c = contributions(&FeatureSpec { scope, stat: Stat::Range }, &units, &scores);
        assert!(range_c.contains(&(0, 1.0)) && range_c.contains(&(4, -1.0)));
    }

    #[test]
    fn median_contribution_splits_even_sets() {
        let (units, scores) = sample();
        let spec = FeatureSpec {
            scope: Scope::Record { polarity: Polarity::Positive },
            stat: Stat::Median,
        };
        // Positive scores: 0.8, 0.4, 0.5 → odd count, single median at 0.5.
        let c = contributions(&spec, &units, &scores);
        assert_eq!(c, vec![(3, 1.0)]);
    }

    #[test]
    fn contribution_mass_is_conserved_for_linear_stats() {
        // Sum: Σ w_i · score_i must equal the feature value.
        let (units, scores) = sample();
        for stat in [Stat::Sum, Stat::Mean] {
            let spec = FeatureSpec { scope: Scope::Record { polarity: Polarity::All }, stat };
            let value = evaluate(&spec, &units, &scores);
            let recon: f32 = contributions(&spec, &units, &scores)
                .iter()
                .map(|(i, w)| w * scores[*i])
                .sum();
            assert!((value - recon).abs() < 1e-5, "{stat:?}: {value} vs {recon}");
        }
    }

    #[test]
    fn featurize_matches_specwise_evaluation() {
        let (units, scores) = sample();
        let specs = full_specs(2);
        let v = featurize(&specs, &units, &scores);
        assert_eq!(v.len(), specs.len());
        for (spec, val) in specs.iter().zip(&v) {
            assert_eq!(*val, evaluate(spec, &units, &scores));
        }
    }
}
