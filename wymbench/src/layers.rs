//! Traced calls into the per-record layers (tokenize, embed, pair, score)
//! with the work counts each one does, shared by the traced `fit`,
//! `explain` and `classify` runs.

use crate::report::Traffic;
use crate::trace::{self, LayerTimes};
use std::collections::BTreeMap;
use std::sync::Mutex;
use wym_core::rules::{apply_rules, UnitRule};
use wym_core::scorer::RelevanceScorer;
use wym_core::{discover_units_with_threads, DecisionUnit, DiscoveryConfig, TokenizedRecord};
use wym_data::RecordPair;
use wym_embed::Embedder;
use wym_tokenize::Tokenizer;

/// Multiply-adds per row of one forward pass through the relevance
/// scorer's `in_dim`-300-64-32-1 layers (`in_dim` is 128 at the default
/// 64-d embeddings).
pub fn scorer_macs(in_dim: usize) -> f64 {
    let sizes = [in_dim, 300, 64, 32, 1];
    sizes.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// Work counts of the traced per-record layers.
#[derive(Default)]
pub struct Counters {
    inner: Mutex<Counts>,
}

#[derive(Default)]
struct Counts {
    tokens: u64,
    embedded_tokens: u64,
    traffic: Traffic,
    units: u64,
    paired: u64,
    score_rows: u64,
    score_calls: u64,
    dim: usize,
}

impl Counters {
    fn with(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.inner.lock().expect("counter lock poisoned"));
    }

    /// `Tokenizer::tokenize_attributes` on both sides of `pair`.
    pub fn tokenize(&self, tok: &Tokenizer, pair: &RecordPair) -> [Vec<Vec<String>>; 2] {
        let sides = trace::timed("tokenize", || {
            [
                tok.tokenize_attributes(&pair.left.values),
                tok.tokenize_attributes(&pair.right.values),
            ]
        });
        let n: usize = sides.iter().flatten().map(Vec::len).sum();
        self.with(|c| c.tokens += n as u64);
        sides
    }

    /// `TokenizedRecord::from_tokens`: the fused embedding path.
    pub fn embed(
        &self,
        pair: &RecordPair,
        [left, right]: [Vec<Vec<String>>; 2],
        embedder: &Embedder,
    ) -> TokenizedRecord {
        let record = trace::timed("embed", || {
            TokenizedRecord::from_tokens(pair.id, Some(pair.label), left, right, embedder)
        });
        let n = record.left.token_count() + record.right.token_count();
        self.with(|c| c.embedded_tokens += n as u64);
        record
    }

    /// Algorithm 1 (`discover_units_with_threads`).
    pub fn pair(
        &self,
        record: &TokenizedRecord,
        config: &DiscoveryConfig,
        threads: usize,
    ) -> Vec<DecisionUnit> {
        let units = trace::timed("pair", || {
            discover_units_with_threads(record, config, threads)
        });
        let paired = units.iter().filter(|u| u.is_paired()).count();
        let dim = record.left.embeds.dim();
        self.with(|c| {
            c.traffic
                .add(record.left.token_count(), record.right.token_count(), dim);
            c.units += units.len() as u64;
            c.paired += paired as u64;
            c.dim = dim;
        });
        units
    }

    /// `RelevanceScorer::score_batch` (forward pass only) plus the unit
    /// rules, as the pipeline applies them.
    pub fn score(
        &self,
        scorer: &RelevanceScorer,
        rules: &[UnitRule],
        batch: &[(&TokenizedRecord, &[DecisionUnit])],
    ) -> Vec<Vec<f32>> {
        let scores = trace::timed("score", || {
            let raw = scorer.score_batch(batch);
            batch
                .iter()
                .zip(raw)
                .map(|((record, units), raw)| apply_rules(rules, record, units, &raw))
                .collect::<Vec<_>>()
        });
        let rows: usize = batch.iter().map(|(_, u)| u.len()).sum();
        self.with(|c| {
            c.score_rows += rows as u64;
            c.score_calls += 1;
        });
        scores
    }

    /// Writes the per-layer metrics of the layers above into `out`.
    pub fn fill(&self, times: &LayerTimes, out: &mut BTreeMap<&'static str, f64>) {
        let c = self.inner.lock().expect("counter lock poisoned");
        let entries: f64 = c.traffic.entries.iter().sum();
        let max_entries = c.traffic.entries.iter().copied().fold(0.0, f64::max);
        out.insert("tokenize.busy_s", times.self_of("tokenize"));
        out.insert("tokenize.tokens", c.tokens as f64);
        out.insert("embed.busy_s", times.self_of("embed"));
        out.insert("embed.tokens", c.embedded_tokens as f64);
        out.insert("pair.busy_s", times.self_of("pair"));
        out.insert("pair.sim_entries", entries);
        out.insert("pair.sim_entries_max", max_entries);
        out.insert("pair.units", c.units as f64);
        out.insert("pair.paired_share", c.paired as f64 / c.units.max(1) as f64);
        out.insert("pair.screen_floor_share", c.traffic.screen_share());
        // One multiply-add per dimension per similarity entry.
        out.insert("pair.gflop", entries * 2.0 * c.dim as f64 * 1e-9);
        out.insert("score.busy_s", times.self_of("score"));
        out.insert("score.rows", c.score_rows as f64);
        out.insert("score.calls", c.score_calls as f64);
        out.insert(
            "score.gflop",
            c.score_rows as f64 * 2.0 * scorer_macs(2 * c.dim) * 1e-9,
        );
    }
}

/// Fills `unattributed_share` (the part of the traced root's wall that no
/// layer span covers), `par.efficiency` and `trace_overhead_share` (traced
/// wall against the untraced wall of the same work, `untraced_wall_s`, taken
/// at the host speed of the traced run).
pub fn fill_shares(
    times: &LayerTimes,
    untraced_wall_s: f64,
    out: &mut BTreeMap<&'static str, f64>,
) -> f64 {
    let wall = times.total_of("run");
    let unattributed = times.self_of("run") / wall.max(1e-12);
    out.insert("unattributed_share", unattributed);
    out.insert(
        "trace_overhead_share",
        wall / untraced_wall_s.max(1e-12) - 1.0,
    );
    let slots = trace::par_slots_s();
    if slots > 0.0 {
        out.insert("par.efficiency", times.children_of("par") / slots);
    }
    unattributed
}

/// The human-readable coverage line, with a warning when the layer spans
/// cover less than 95% of the traced wall.
pub fn coverage_line(unattributed: f64) -> String {
    if unattributed > 0.05 {
        format!("warning: unattributed_share={unattributed} is above 0.05; the layer spans miss part of the wall")
    } else {
        format!("stages add up: unattributed_share={unattributed}")
    }
}
