//! Algorithm 1 — `DecisionUnitDiscovery` (paper §4.1.2).
//!
//! Three successively broader search spaces, with increasing thresholds:
//!
//! 1. **Intra-attribute** (`θ`): tokens of matching attributes only — "the
//!    dataset structure guarantees that the found intra-attribute
//!    correspondences describe the same entity property";
//! 2. **Inter-attribute** (`η`): the tokens left unpaired by phase 1, across
//!    all attributes — handles dirty / misaligned data (challenge R2);
//! 3. **One-to-many** (`ε`): remaining unpaired tokens against the
//!    *already paired* tokens of the other entity — builds the chains that
//!    represent repetitions and periphrasis.
//!
//! The output satisfies the §3.1.1 constraints: every token belongs to at
//! least one decision unit, and a token in an unpaired unit belongs to no
//! paired unit.

use crate::pairing::{get_sm_pairs, get_sm_pairs_cached, PairingSim, SimMatrix, SmPair};
use crate::record::{Side, TokenRef, TokenizedRecord};
use crate::units::DecisionUnit;
use serde::{Deserialize, Serialize};

/// Thresholds and options of the decision unit generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Intra-attribute similarity threshold (paper setting: 0.6).
    pub theta: f32,
    /// Inter-attribute similarity threshold (paper setting: 0.65).
    pub eta: f32,
    /// One-to-many similarity threshold (paper setting: 0.7).
    pub epsilon: f32,
    /// Preference measure (embedding cosine vs Jaro–Winkler ablation).
    pub sim: PairingSim,
    /// Product-code domain heuristic (§5.1.1 error analysis).
    pub code_heuristic: bool,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            theta: 0.6,
            eta: 0.65,
            epsilon: 0.7,
            sim: PairingSim::Embedding,
            code_heuristic: false,
        }
    }
}

/// Runs Algorithm 1 on a tokenized record, returning paired units followed
/// by unpaired units.
pub fn discover_units(record: &TokenizedRecord, config: &DiscoveryConfig) -> Vec<DecisionUnit> {
    // All three phases (and their overlapping θ/η/ε probes) read from one
    // similarity matrix computed up front — see [`SimMatrix`]. The §5.1.1
    // code mask is only computed when this config will actually consult it.
    let matrix = if config.code_heuristic {
        SimMatrix::build(record, config.sim)
    } else {
        SimMatrix::build_unmasked(record, config.sim)
    };
    let units = discover_units_cached(record, &matrix, config);
    // The matrix computed entries() similarities once; the θ/η/ε probes
    // asked for lookups() of them. Their ratio is the per-record reuse
    // factor of the similarity cache (> 1 ⇒ the cache saved recomputation).
    if wym_obs::enabled() && matrix.entries() > 0 {
        wym_obs::hist_observe(
            "simmatrix.hit_rate",
            matrix.lookups() as f64 / matrix.entries() as f64,
        );
        wym_obs::counter_add("simmatrix.entries", matrix.entries() as u64);
        wym_obs::counter_add("simmatrix.lookups", matrix.lookups());
    }
    units
}

/// [`discover_units`]; the thread count is ignored. Kept only for the
/// `wymbench` benchmark, which still calls it.
pub fn discover_units_with_threads(
    record: &TokenizedRecord,
    config: &DiscoveryConfig,
    _n_threads: usize,
) -> Vec<DecisionUnit> {
    discover_units(record, config)
}

/// [`discover_units`] over a caller-supplied [`SimMatrix`] (which must have
/// been built from the same record and `config.sim`).
pub fn discover_units_cached(
    record: &TokenizedRecord,
    matrix: &SimMatrix,
    config: &DiscoveryConfig,
) -> Vec<DecisionUnit> {
    discover_units_with(record, config, |left, right, threshold| {
        get_sm_pairs_cached(matrix, left, right, threshold, config.code_heuristic)
    })
}

/// [`discover_units`] with per-lookup similarity — no caching anywhere.
///
/// This is the pre-[`SimMatrix`] implementation, retained so the property
/// suite can assert the cached pipeline is bit-identical to it and so the
/// benches can report the caching speedup against a live baseline. Not for
/// production use.
pub fn discover_units_reference(
    record: &TokenizedRecord,
    config: &DiscoveryConfig,
) -> Vec<DecisionUnit> {
    discover_units_with(record, config, |left, right, threshold| {
        get_sm_pairs(record, left, right, threshold, config.sim, config.code_heuristic)
    })
}

/// The three-phase Algorithm 1 skeleton, parameterized over the stable
/// marriage probe so the cached and reference variants share one body and
/// can only differ in how a similarity is produced.
fn discover_units_with(
    record: &TokenizedRecord,
    config: &DiscoveryConfig,
    probe: impl Fn(&[TokenRef], &[TokenRef], f32) -> Vec<SmPair>,
) -> Vec<DecisionUnit> {
    let _span = wym_obs::span("pair");
    let mut paired: Vec<DecisionUnit> = Vec::new();
    let mut nx: Vec<TokenRef> = Vec::new();
    let mut ny: Vec<TokenRef> = Vec::new();

    // Phase 1 — intra-attribute correspondences (lines 4-8).
    let attrs = record.left.attr_count().min(record.right.attr_count());
    for a in 0..attrs {
        let ex = record.left.attr_refs(a);
        let ey = record.right.attr_refs(a);
        let m = probe(&ex, &ey, config.theta);
        // Match lists are a handful of entries, so linear membership scans
        // beat hashing `TokenRef`s (here and in the phases below).
        nx.extend(ex.into_iter().filter(|t| !m.iter().any(|(l, _, _)| l == t)));
        ny.extend(ey.into_iter().filter(|t| !m.iter().any(|(_, r, _)| r == t)));
        paired.extend(m.into_iter().map(|(left, right, similarity)| DecisionUnit::Paired {
            left,
            right,
            similarity,
        }));
    }
    // Attributes present on only one side (ragged schemas) go straight to
    // the unpaired pools.
    for a in attrs..record.left.attr_count() {
        nx.extend(record.left.attr_refs(a));
    }
    for a in attrs..record.right.attr_count() {
        ny.extend(record.right.attr_refs(a));
    }

    let phase1_units = paired.len();

    // Phase 2 — inter-attribute correspondences (lines 9-12).
    let m = probe(&nx, &ny, config.eta);
    nx.retain(|t| !m.iter().any(|(l, _, _)| l == t));
    ny.retain(|t| !m.iter().any(|(_, r, _)| r == t));
    paired.extend(m.into_iter().map(|(left, right, similarity)| DecisionUnit::Paired {
        left,
        right,
        similarity,
    }));

    let phase2_units = paired.len() - phase1_units;

    // Phase 3 — one-to-many correspondences with already paired tokens
    // (lines 13-17).
    let paired_right: Vec<TokenRef> = paired
        .iter()
        .filter_map(|u| match u {
            DecisionUnit::Paired { right, .. } => Some(*right),
            _ => None,
        })
        .collect();
    let paired_left: Vec<TokenRef> = paired
        .iter()
        .filter_map(|u| match u {
            DecisionUnit::Paired { left, .. } => Some(*left),
            _ => None,
        })
        .collect();
    let mx = probe(&nx, &paired_right, config.epsilon);
    nx.retain(|t| !mx.iter().any(|(l, _, _)| l == t));

    // Symmetric call: unmatched right tokens propose to paired left tokens.
    // The probe is left→right directional, so swap roles at the call site
    // (similarity is symmetric for both measures) and un-swap the result.
    let my: Vec<(TokenRef, TokenRef, f32)> = if ny.is_empty() || paired_left.is_empty() {
        Vec::new()
    } else {
        let reversed = probe(&paired_left, &ny, config.epsilon);
        ny.retain(|t| !reversed.iter().any(|(_, r, _)| r == t));
        reversed
    };
    paired.extend(mx.into_iter().map(|(left, right, similarity)| DecisionUnit::Paired {
        left,
        right,
        similarity,
    }));
    paired.extend(my.into_iter().map(|(left, right, similarity)| DecisionUnit::Paired {
        left,
        right,
        similarity,
    }));

    let phase3_units = paired.len() - phase1_units - phase2_units;

    // N_r = N_x ∪ N_y (line 18).
    let mut units = paired;
    units.extend(nx.into_iter().map(|token| DecisionUnit::Unpaired { token, side: Side::Left }));
    units.extend(ny.into_iter().map(|token| DecisionUnit::Unpaired { token, side: Side::Right }));

    // Phase-by-phase accounting: the three paired-phase counters plus the
    // unpaired counter always sum to `pair.units` (asserted by tests).
    if wym_obs::enabled() {
        let unpaired = units.len() - phase1_units - phase2_units - phase3_units;
        wym_obs::counter_add("pair.phase1_units", phase1_units as u64);
        wym_obs::counter_add("pair.phase2_units", phase2_units as u64);
        wym_obs::counter_add("pair.phase3_units", phase3_units as u64);
        wym_obs::counter_add("pair.unpaired_units", unpaired as u64);
        wym_obs::counter_add("pair.units", units.len() as u64);
        wym_obs::hist_observe("pair.units_per_record", units.len() as f64);
    }
    units
}

/// Verifies the §3.1.1 decision-unit constraints; used by tests and the
/// property suite.
pub fn check_constraints(record: &TokenizedRecord, units: &[DecisionUnit]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut seen: HashMap<(Side, TokenRef), (bool, bool)> = HashMap::new(); // (in_paired, in_unpaired)
    for u in units {
        match u {
            DecisionUnit::Paired { left, right, .. } => {
                seen.entry((Side::Left, *left)).or_default().0 = true;
                seen.entry((Side::Right, *right)).or_default().0 = true;
            }
            DecisionUnit::Unpaired { token, side } => {
                seen.entry((*side, *token)).or_default().1 = true;
            }
        }
    }
    for side in [Side::Left, Side::Right] {
        for t in record.view(side).all_refs() {
            match seen.get(&(side, t)) {
                None => {
                    return Err(format!(
                        "token {side:?} {t:?} ({}) belongs to no unit",
                        record.text(side, t)
                    ))
                }
                Some((true, true)) => {
                    return Err(format!(
                        "token {side:?} {t:?} ({}) is both paired and unpaired",
                        record.text(side, t)
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wym_data::{Entity, RecordPair};
    use wym_embed::Embedder;
    use wym_tokenize::Tokenizer;

    fn record(left: Vec<&str>, right: Vec<&str>) -> TokenizedRecord {
        let pair = RecordPair {
            id: 0,
            label: true,
            left: Entity::new(left),
            right: Entity::new(right),
        };
        TokenizedRecord::from_pair(&pair, &Tokenizer::default(), &Embedder::new_static(48, 0))
    }

    #[test]
    fn constraints_hold_on_running_example() {
        let rec = record(
            vec!["exch srvr external sa eng 39400416", "microsoft licenses", "42166"],
            vec!["39400416 exch svr external sa", "microsoft licenses", "22575"],
        );
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        let paired = units.iter().filter(|u| u.is_paired()).count();
        assert!(paired >= 4, "expected several paired units, got {paired}");
    }

    #[test]
    fn identical_descriptions_pair_everything() {
        let rec = record(vec!["digital camera kit", "sony"], vec!["digital camera kit", "sony"]);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        assert!(units.iter().all(DecisionUnit::is_paired), "{units:?}");
        assert_eq!(units.len(), 4);
    }

    #[test]
    fn disjoint_descriptions_pair_nothing() {
        let rec = record(vec!["zzzz qqqq"], vec!["wwww kkkk"]);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        assert!(units.iter().all(|u| !u.is_paired()));
        assert_eq!(units.len(), 4);
    }

    #[test]
    fn inter_attribute_phase_pairs_misaligned_values() {
        // "sony" sits in the title on the left but in the brand attribute on
        // the right: only phase 2 can pair it.
        let rec = record(vec!["sony camera", ""], vec!["camera", "sony"]);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        let cross = units.iter().any(|u| match u {
            DecisionUnit::Paired { left, right, .. } => left.attr != right.attr,
            _ => false,
        });
        assert!(cross, "expected a cross-attribute pair: {units:?}");
    }

    #[test]
    fn one_to_many_phase_attaches_repetitions() {
        // Left repeats "camera" twice; right has it once. Phase 1 pairs one
        // occurrence; phase 3 should attach the second to the already-paired
        // right token.
        let rec = record(vec!["camera camera"], vec!["camera"]);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        let paired = units.iter().filter(|u| u.is_paired()).count();
        assert_eq!(paired, 2, "{units:?}");
        assert_eq!(units.len(), 2);
    }

    #[test]
    fn empty_sides_are_all_unpaired() {
        let rec = record(vec![""], vec!["camera case"]);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|u| !u.is_paired()));
    }

    #[test]
    fn thresholds_monotonicity_more_units_paired_with_lower_theta() {
        let rec = record(
            vec!["digtal camra lens kit bundle"],
            vec!["digital camera lens pack"],
        );
        let loose = DiscoveryConfig { theta: 0.3, eta: 0.35, epsilon: 0.4, ..Default::default() };
        let strict = DiscoveryConfig { theta: 0.95, eta: 0.95, epsilon: 0.95, ..Default::default() };
        let n_loose =
            discover_units(&rec, &loose).iter().filter(|u| u.is_paired()).count();
        let n_strict =
            discover_units(&rec, &strict).iter().filter(|u| u.is_paired()).count();
        assert!(n_loose >= n_strict, "loose {n_loose} vs strict {n_strict}");
        assert!(n_loose >= 2);
    }

    #[test]
    fn jaro_winkler_generator_variant_works() {
        let rec = record(vec!["exchange server"], vec!["exchang servr"]);
        let cfg = DiscoveryConfig {
            sim: PairingSim::JaroWinkler,
            theta: 0.85,
            eta: 0.9,
            epsilon: 0.92,
            ..Default::default()
        };
        let units = discover_units(&rec, &cfg);
        check_constraints(&rec, &units).unwrap();
        assert_eq!(units.iter().filter(|u| u.is_paired()).count(), 2);
    }

    #[test]
    fn phase_counters_sum_to_total_unit_count() {
        use std::sync::Arc;
        // Mixed record: exercises all three phases plus unpaired leftovers.
        let recs = [
            record(
                vec!["exch srvr external sa eng 39400416", "microsoft licenses", "42166"],
                vec!["39400416 exch svr external sa", "microsoft licenses", "22575"],
            ),
            record(vec!["sony camera camera", ""], vec!["camera", "sony"]),
            record(vec!["zzzz qqqq"], vec!["wwww kkkk"]),
        ];
        let obs = Arc::new(wym_obs::Recorder::new_enabled());
        let total_units: usize = wym_obs::with_recorder(Arc::clone(&obs), || {
            recs.iter()
                .map(|rec| discover_units(rec, &DiscoveryConfig::default()).len())
                .sum()
        });
        let snap = obs.snapshot();
        let phases: u64 = ["pair.phase1_units", "pair.phase2_units", "pair.phase3_units"]
            .iter()
            .map(|c| snap.counter(c).unwrap_or(0))
            .sum();
        let unpaired = snap.counter("pair.unpaired_units").unwrap_or(0);
        assert_eq!(
            phases + unpaired,
            total_units as u64,
            "phase counters must account for every decision unit: {:?}",
            snap.counters
        );
        assert_eq!(snap.counter("pair.units"), Some(total_units as u64));
        assert!(phases > 0, "expected paired units across phases");
        assert_eq!(snap.span_count("pair"), recs.len() as u64);
    }

    #[test]
    fn simmatrix_cache_stats_report_reuse() {
        use std::sync::Arc;
        let rec = record(
            vec!["digital camera lens kit bundle", "sony"],
            vec!["digital camera lens pack", "sony"],
        );
        let obs = Arc::new(wym_obs::Recorder::new_enabled());
        wym_obs::with_recorder(Arc::clone(&obs), || {
            let _ = discover_units(&rec, &DiscoveryConfig::default());
        });
        let snap = obs.snapshot();
        let entries = snap.counter("simmatrix.entries").expect("entries counted");
        let lookups = snap.counter("simmatrix.lookups").expect("lookups counted");
        assert!(entries > 0);
        assert!(
            lookups >= entries,
            "θ/η/ε probes must consult each cached entry at least once \
             on this record (lookups {lookups} vs entries {entries})"
        );
        let h = snap.histogram("simmatrix.hit_rate").expect("hit-rate histogram");
        assert_eq!(h.count(), 1);
        assert!(h.mean() >= 1.0, "reuse factor {}", h.mean());
    }

    #[test]
    fn ragged_attribute_counts_are_tolerated() {
        // Right entity has fewer attributes than left.
        let pair = RecordPair {
            id: 0,
            label: false,
            left: Entity::new(vec!["camera", "sony"]),
            right: Entity::new(vec!["camera"]),
        };
        let rec =
            TokenizedRecord::from_pair(&pair, &Tokenizer::default(), &Embedder::new_static(48, 0));
        let units = discover_units(&rec, &DiscoveryConfig::default());
        check_constraints(&rec, &units).unwrap();
    }
}
