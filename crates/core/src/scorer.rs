//! The decision-unit relevance scorer (paper §4.2).
//!
//! Each unit is described by two symmetric features of its token embeddings
//! — their mean and their absolute difference (challenges R3/R5; the missing
//! side of an unpaired unit is the zero `[UNP]` embedding) — and a
//! supervised regressor maps those features to a relevance score in
//! `[-1, 1]`. Targets follow Eq. 2's label-mismatch correction (challenge
//! R1) and Eq. 3's per-unit averaging across occurrences.

use crate::record::{Side, TokenizedRecord};
use crate::units::{DecisionUnit, UnitKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wym_linalg::{Matrix, Rng64};
use wym_nn::{Mlp, MlpConfig, TrainConfig};

/// Bucket bounds for the `scorer.batch_rows` histogram (rows per forward
/// pass, not nanoseconds — the obs defaults are time-shaped).
const BATCH_ROWS_BOUNDS: &[f64] = &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0];

/// Scorer implementations compared in Table 4's "Scorer" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScorerKind {
    /// The dense feed-forward network (WYM default).
    Neural,
    /// 1 for paired units, 0 for unpaired ("bin. scr." column).
    Binary,
    /// The raw cosine similarity of the unit's embeddings ("cos. sim.").
    CosineSim,
}

/// Relevance-scorer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScorerConfig {
    /// Which scorer to use.
    pub kind: ScorerKind,
    /// Eq. 2 α: similarity above which a paired unit in a *matching* record
    /// gets target 1 (below: 0).
    pub alpha: f32,
    /// Eq. 2 β: similarity below which a paired unit in a *non-matching*
    /// record gets target −1 (above: 0).
    pub beta: f32,
    /// Training recipe for the neural scorer. Defaults to the paper's 40
    /// epochs × batch 256 (the paper's lr 3e-5 was tuned for 768-d BERT
    /// features; 1e-3 plays the same role at our dimensionality).
    pub train: TrainConfig,
    /// Cap on scorer training rows (occurrences); larger sets are
    /// deterministically subsampled.
    pub max_rows: usize,
    /// Seed for subsampling and weight init.
    pub seed: u64,
}

impl Default for ScorerConfig {
    fn default() -> Self {
        Self {
            kind: ScorerKind::Neural,
            alpha: 0.7,
            beta: 0.5,
            train: TrainConfig { epochs: 40, batch_size: 256, lr: 1e-3, ..TrainConfig::default() },
            max_rows: 30_000,
            seed: 0,
        }
    }
}

/// Symmetric feature vector of a decision unit: `[mean(e_l, e_r) ;
/// |e_l − e_r|]`, with the zero vector standing in for the missing side.
pub fn unit_features(record: &TokenizedRecord, unit: &DecisionUnit) -> Vec<f32> {
    let dim = match unit {
        DecisionUnit::Paired { left, .. } => record.embed(Side::Left, *left).len(),
        DecisionUnit::Unpaired { token, side } => record.embed(*side, *token).len(),
    };
    let mut out = vec![0.0f32; 2 * dim];
    unit_features_into(record, unit, &mut out);
    out
}

/// [`unit_features`] into a caller-provided slice — the batched scorer fills
/// feature-matrix rows directly instead of allocating one `Vec` per unit.
///
/// # Panics
/// Panics in debug builds if `out.len() != 2 * embedding_dim`.
pub fn unit_features_into(record: &TokenizedRecord, unit: &DecisionUnit, out: &mut [f32]) {
    match unit {
        DecisionUnit::Paired { left, right, .. } => {
            let el = record.embed(Side::Left, *left);
            let er = record.embed(Side::Right, *right);
            debug_assert_eq!(out.len(), 2 * el.len());
            let (mean, diff) = out.split_at_mut(el.len());
            for i in 0..el.len() {
                mean[i] = 0.5 * (el[i] + er[i]);
                diff[i] = (el[i] - er[i]).abs();
            }
        }
        DecisionUnit::Unpaired { token, side } => {
            let e = record.embed(*side, *token);
            debug_assert_eq!(out.len(), 2 * e.len());
            // mean(e, 0) = e/2 ; |e − 0| = |e|.
            let (mean, diff) = out.split_at_mut(e.len());
            for i in 0..e.len() {
                mean[i] = 0.5 * e[i];
                diff[i] = e[i].abs();
            }
        }
    }
}

/// Eq. 2 (and its unpaired analogue): the raw per-occurrence target.
pub fn eq2_target(unit: &DecisionUnit, label: bool, alpha: f32, beta: f32) -> f32 {
    let sim = unit.similarity();
    match (unit.is_paired(), label) {
        (true, true) => {
            if sim >= alpha {
                1.0
            } else {
                0.0
            }
        }
        (true, false) => {
            if sim < beta {
                -1.0
            } else {
                0.0
            }
        }
        // Unpaired in a matching record: moved from 1 to 0 (neutral).
        (false, true) => 0.0,
        // Unpaired in a non-matching record: consistent evidence, −1.
        (false, false) => -1.0,
    }
}

/// The fitted relevance scorer.
#[derive(Debug, Clone, Serialize)]
pub struct RelevanceScorer {
    config: ScorerConfig,
    model: Option<Mlp>,
}

impl RelevanceScorer {
    /// Fits the scorer on labeled records with their discovered units.
    ///
    /// Only the `Neural` kind trains anything; the ablation kinds are
    /// parameterless.
    pub fn fit(
        config: ScorerConfig,
        records: &[(&TokenizedRecord, &[DecisionUnit])],
    ) -> RelevanceScorer {
        let _span = wym_obs::span("score_train");
        if config.kind != ScorerKind::Neural {
            return RelevanceScorer { config, model: None };
        }
        // Pass 1: Eq. 3 aggregation of Eq. 2 targets by unit key.
        let mut sums: HashMap<UnitKey, (f64, usize)> = HashMap::new();
        for (record, units) in records {
            let Some(label) = record.label else { continue };
            for unit in *units {
                let t = eq2_target(unit, label, config.alpha, config.beta);
                let e = sums.entry(unit.key(record)).or_insert((0.0, 0));
                e.0 += t as f64;
                e.1 += 1;
            }
        }
        // Pass 2: one training row per occurrence, target = aggregated mean.
        let mut rows: Vec<(Vec<f32>, f32)> = Vec::new();
        for (record, units) in records {
            if record.label.is_none() {
                continue;
            }
            for unit in *units {
                let (sum, count) = sums[&unit.key(record)];
                let target = (sum / count as f64) as f32;
                rows.push((unit_features(record, unit), target));
            }
        }
        if rows.is_empty() {
            return RelevanceScorer { config, model: None };
        }
        // Deterministic cap.
        let mut rng = Rng64::new(config.seed ^ 0x5C0E);
        if rows.len() > config.max_rows {
            let keep = rng.sample_indices(rows.len(), config.max_rows);
            let mut kept: Vec<(Vec<f32>, f32)> = Vec::with_capacity(config.max_rows);
            for i in keep {
                kept.push(std::mem::take(&mut rows[i]));
            }
            rows = kept;
        }
        let dim = rows[0].0.len();
        let mut x = Matrix::zeros(0, dim);
        let mut y = Matrix::zeros(0, 1);
        for (f, t) in &rows {
            x.push_row(f);
            y.push_row(&[*t]);
        }
        wym_obs::counter_add("score.train_rows", rows.len() as u64);
        let mut mlp = Mlp::new(&MlpConfig::scorer(dim, config.seed));
        let mut train = config.train.clone();
        train.seed = config.seed;
        wym_nn::train::fit(&mut mlp, &x, &y, &train);
        RelevanceScorer { config, model: Some(mlp) }
    }

    /// The configuration the scorer was built with.
    pub fn config(&self) -> &ScorerConfig {
        &self.config
    }

    /// The trained network, when the kind has one (`Neural` with a
    /// non-empty training set; the ablation kinds are parameterless).
    pub fn model(&self) -> Option<&Mlp> {
        self.model.as_ref()
    }

    /// Reassembles a scorer from its configuration and (optional) trained
    /// network — the inverse of [`RelevanceScorer::config`] +
    /// [`RelevanceScorer::model`], used by the model artifact loader.
    pub fn from_parts(config: ScorerConfig, model: Option<Mlp>) -> RelevanceScorer {
        RelevanceScorer { config, model }
    }

    /// Scores every unit of a record, in `[-1, 1]`.
    ///
    /// One-record convenience over [`Self::score_batch`]; a single forward
    /// pass over one feature matrix either way.
    pub fn score_units(&self, record: &TokenizedRecord, units: &[DecisionUnit]) -> Vec<f32> {
        self.score_batch(&[(record, units)]).pop().unwrap_or_default()
    }

    /// Scores the units of many records through **one** batched forward
    /// pass: all units stack into a single feature matrix, the MLP runs
    /// once, and the score rows split back per record. Because every GEMM
    /// output row depends only on its own input row, the result is
    /// bit-identical to scoring each record separately — batching is purely
    /// a throughput lever (one blocked GEMM at full row count instead of
    /// many short ones). Emits the `scorer.batch_rows` histogram and
    /// `scorer.forward_ns` counter when obs recording is enabled.
    pub fn score_batch(
        &self,
        batch: &[(&TokenizedRecord, &[DecisionUnit])],
    ) -> Vec<Vec<f32>> {
        let _span = wym_obs::span("score");
        let fallback = |units: &[DecisionUnit]| -> Vec<f32> {
            units.iter().map(DecisionUnit::similarity).collect()
        };
        match self.config.kind {
            ScorerKind::Binary => batch
                .iter()
                .map(|(_, units)| {
                    units.iter().map(|u| if u.is_paired() { 1.0 } else { 0.0 }).collect()
                })
                .collect(),
            ScorerKind::CosineSim => batch.iter().map(|(_, units)| fallback(units)).collect(),
            ScorerKind::Neural => {
                let Some(model) = &self.model else {
                    // Untrained fallback: behave like the cosine scorer.
                    return batch.iter().map(|(_, units)| fallback(units)).collect();
                };
                let total: usize = batch.iter().map(|(_, units)| units.len()).sum();
                if total == 0 {
                    return vec![Vec::new(); batch.len()];
                }
                let mut x = Matrix::zeros(total, model.in_dim());
                let mut r = 0;
                for (record, units) in batch {
                    for u in *units {
                        unit_features_into(record, u, x.row_mut(r));
                        r += 1;
                    }
                }
                let obs = wym_obs::enabled();
                if obs {
                    wym_obs::hist_observe_with(
                        "scorer.batch_rows",
                        BATCH_ROWS_BOUNDS,
                        total as f64,
                    );
                }
                let t0 = obs.then(std::time::Instant::now);
                let scores = model.predict(&x);
                if let Some(t0) = t0 {
                    wym_obs::counter_add("scorer.forward_ns", t0.elapsed().as_nanos() as u64);
                }
                let mut out = Vec::with_capacity(batch.len());
                let mut it = scores.into_iter().map(|v| v.clamp(-1.0, 1.0));
                for (_, units) in batch {
                    out.push(it.by_ref().take(units.len()).collect());
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{discover_units, DiscoveryConfig};
    use crate::record::TokenRef;
    use wym_data::{Entity, RecordPair};
    use wym_embed::Embedder;
    use wym_tokenize::Tokenizer;

    fn tokenized(left: &str, right: &str, label: bool) -> TokenizedRecord {
        let pair = RecordPair {
            id: 0,
            label,
            left: Entity::new(vec![left.to_string()]),
            right: Entity::new(vec![right.to_string()]),
        };
        TokenizedRecord::from_pair(&pair, &Tokenizer::default(), &Embedder::new_static(32, 0))
    }

    #[test]
    fn eq2_matches_the_paper_table() {
        let paired_hi = DecisionUnit::Paired {
            left: TokenRef::new(0, 0),
            right: TokenRef::new(0, 0),
            similarity: 0.9,
        };
        let paired_lo = DecisionUnit::Paired {
            left: TokenRef::new(0, 0),
            right: TokenRef::new(0, 0),
            similarity: 0.2,
        };
        let unpaired = DecisionUnit::Unpaired { token: TokenRef::new(0, 0), side: Side::Left };
        // y = 1
        assert_eq!(eq2_target(&paired_hi, true, 0.7, 0.5), 1.0);
        assert_eq!(eq2_target(&paired_lo, true, 0.7, 0.5), 0.0);
        assert_eq!(eq2_target(&unpaired, true, 0.7, 0.5), 0.0);
        // y = 0
        assert_eq!(eq2_target(&paired_hi, false, 0.7, 0.5), 0.0);
        assert_eq!(eq2_target(&paired_lo, false, 0.7, 0.5), -1.0);
        assert_eq!(eq2_target(&unpaired, false, 0.7, 0.5), -1.0);
    }

    #[test]
    fn unit_features_are_symmetric_under_side_swap() {
        // Swapping which side a surface form comes from must not change the
        // feature vector (challenge R3). Build two mirrored records.
        let r1 = tokenized("alpha", "beta", true);
        let r2 = tokenized("beta", "alpha", true);
        let u = DecisionUnit::Paired {
            left: TokenRef::new(0, 0),
            right: TokenRef::new(0, 0),
            similarity: 0.5,
        };
        let f1 = unit_features(&r1, &u);
        let f2 = unit_features(&r2, &u);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn unpaired_features_use_zero_unp_embedding() {
        let rec = tokenized("alpha", "zzz", true);
        let u = DecisionUnit::Unpaired { token: TokenRef::new(0, 0), side: Side::Left };
        let f = unit_features(&rec, &u);
        let e = rec.embed(Side::Left, TokenRef::new(0, 0));
        let dim = e.len();
        for i in 0..dim {
            assert!((f[i] - 0.5 * e[i]).abs() < 1e-6);
            assert!((f[dim + i] - e[i].abs()).abs() < 1e-6);
        }
    }

    #[test]
    fn binary_and_cosine_scorers_are_parameterless() {
        let rec = tokenized("camera lens", "camera", true);
        let units = discover_units(&rec, &DiscoveryConfig::default());
        let bin = RelevanceScorer::fit(
            ScorerConfig { kind: ScorerKind::Binary, ..Default::default() },
            &[],
        );
        let scores = bin.score_units(&rec, &units);
        for (u, s) in units.iter().zip(&scores) {
            assert_eq!(*s, if u.is_paired() { 1.0 } else { 0.0 });
        }
        let cos = RelevanceScorer::fit(
            ScorerConfig { kind: ScorerKind::CosineSim, ..Default::default() },
            &[],
        );
        let scores = cos.score_units(&rec, &units);
        for (u, s) in units.iter().zip(&scores) {
            assert_eq!(*s, u.similarity());
        }
    }

    #[test]
    fn neural_scorer_learns_the_eq2_signal() {
        // Matching records share tokens; non-matching do not. After
        // training, paired units from matches must outscore unpaired units
        // from non-matches.
        let cfg = DiscoveryConfig::default();
        let mut records: Vec<TokenizedRecord> = Vec::new();
        for i in 0..30 {
            records.push(tokenized(
                &format!("camera kit{i} zoom"),
                &format!("camera kit{i} zoom"),
                true,
            ));
            records.push(tokenized(&format!("router modem{i}"), &format!("beer ale{i}"), false));
        }
        let units: Vec<Vec<DecisionUnit>> =
            records.iter().map(|r| discover_units(r, &cfg)).collect();
        let train: Vec<(&TokenizedRecord, &[DecisionUnit])> =
            records.iter().zip(units.iter().map(Vec::as_slice)).collect();
        let scorer = RelevanceScorer::fit(
            ScorerConfig {
                train: TrainConfig { epochs: 25, batch_size: 64, lr: 2e-3, ..Default::default() },
                ..Default::default()
            },
            &train,
        );
        let probe_match = tokenized("camera kit5 zoom", "camera kit5 zoom", true);
        let probe_units = discover_units(&probe_match, &cfg);
        let s_paired = scorer.score_units(&probe_match, &probe_units);
        let probe_non = tokenized("router modem3", "beer ale3", false);
        let n_units = discover_units(&probe_non, &cfg);
        let s_unpaired = scorer.score_units(&probe_non, &n_units);
        let mean_p: f32 = s_paired.iter().sum::<f32>() / s_paired.len() as f32;
        let mean_n: f32 = s_unpaired.iter().sum::<f32>() / s_unpaired.len() as f32;
        assert!(
            mean_p > mean_n + 0.3,
            "paired-in-match {mean_p} must exceed unpaired-in-nonmatch {mean_n}"
        );
        // Range check.
        for s in s_paired.iter().chain(&s_unpaired) {
            assert!((-1.0..=1.0).contains(s));
        }
    }

    #[test]
    fn empty_units_score_empty() {
        let rec = tokenized("a", "b", true);
        let scorer = RelevanceScorer::fit(ScorerConfig::default(), &[]);
        assert!(scorer.score_units(&rec, &[]).is_empty());
    }
}
