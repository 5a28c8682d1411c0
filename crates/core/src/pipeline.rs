//! End-to-end WYM pipeline: fit on a dataset split, predict, explain.

use crate::algorithm1::{discover_units, DiscoveryConfig};
use crate::explanation::Explanation;
use crate::matcher::{ExplainableMatcher, MatcherConfig, SavedMatcher};
use crate::record::TokenizedRecord;
use crate::rules::{apply_rules, UnitRule};
use crate::scorer::{RelevanceScorer, ScorerConfig};
use crate::units::DecisionUnit;
use serde::{Deserialize, Serialize};
use wym_data::{EmDataset, RecordPair, SplitIndices};
use wym_embed::{Embedder, EmbedderKind};
use wym_ml::{f1_score, ClassifierKind};
use wym_tokenize::Tokenizer;

/// The canonical pipeline stages, in execution order. Each name matches the
/// span the corresponding subsystem opens, so registering them (as
/// [`WymModel::fit`] does) makes every stage appear in observability
/// snapshots — with a span count of 0 when it silently never ran, which is
/// what the smoke check greps for.
pub const PIPELINE_STAGES: &[&str] =
    &["tokenize", "embed", "pair", "score", "classify", "explain"];

/// Records per batched-scoring chunk, in [`WymModel::process_batch`] and in
/// the unit scoring of [`WymModel::fit`]. At the typical 15–40 units a record,
/// a chunk feeds the scorer a few hundred feature rows per forward pass —
/// deep enough to amortize GEMM setup, small enough that work stealing
/// still balances chunks across worker threads. Chunk boundaries never
/// affect output bits (GEMM rows are independent).
pub const SCORE_CHUNK_RECORDS: usize = 16;

/// Full configuration of a WYM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WymConfig {
    /// Embedding variant (Table 4 generator axis; Siamese ≈ SBERT default).
    pub embedder_kind: EmbedderKind,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Decision-unit generator thresholds and options.
    pub discovery: DiscoveryConfig,
    /// Relevance-scorer configuration.
    pub scorer: ScorerConfig,
    /// Explainable-matcher configuration.
    pub matcher: MatcherConfig,
    /// Cap on the records used to fit the trained embedder variants.
    pub max_embed_train_records: usize,
    /// Domain-knowledge rules applied to relevance scores after the scorer
    /// (the paper's §6 "rules on decision units" future-work direction).
    pub rules: Vec<UnitRule>,
    /// Worker threads for the per-record stages of [`WymModel::fit`]
    /// (tokenize → embed → discover → score). `0` = all available cores.
    /// The fitted model is identical for every value — per-record work is
    /// independent and results land in input order.
    pub n_threads: usize,
    /// Global seed.
    pub seed: u64,
}

impl Default for WymConfig {
    fn default() -> Self {
        Self {
            embedder_kind: EmbedderKind::Siamese,
            embed_dim: 64,
            discovery: DiscoveryConfig::default(),
            scorer: ScorerConfig::default(),
            matcher: MatcherConfig::default(),
            max_embed_train_records: 400,
            rules: Vec::new(),
            n_threads: 0,
            seed: 0,
        }
    }
}

impl WymConfig {
    /// Propagates the global seed into every component seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.scorer.seed = seed;
        self.matcher.seed = seed;
        self
    }
}

/// A record carried through tokenization, unit discovery and scoring.
#[derive(Debug, Clone)]
pub struct ProcessedRecord {
    /// Tokenized + embedded record.
    pub record: TokenizedRecord,
    /// Discovered decision units.
    pub units: Vec<DecisionUnit>,
    /// Relevance score per unit.
    pub relevances: Vec<f32>,
}

/// A match prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// `true` = match.
    pub label: bool,
    /// Match probability.
    pub probability: f32,
}

/// Anything that scores a record pair — WYM itself, or one of the baseline
/// matchers. Post-hoc explainers (LIME / Landmark / LEMON) and the
/// evaluation harness are generic over this trait.
pub trait EmPredictor {
    /// Match probability of a record pair.
    fn proba(&self, pair: &RecordPair) -> f32;

    /// Hard prediction at the 0.5 threshold.
    fn predict_label(&self, pair: &RecordPair) -> bool {
        self.proba(pair) >= 0.5
    }

    /// Match probabilities of many pairs. The default loops over
    /// [`Self::proba`]; predictors with a batched inference path (WYM's
    /// single-GEMM scorer) override it. The perturbation-hungry post-hoc
    /// explainers route their sample sets through this.
    fn proba_batch(&self, pairs: &[RecordPair]) -> Vec<f32> {
        pairs.iter().map(|p| self.proba(p)).collect()
    }
}

impl EmPredictor for WymModel {
    fn proba(&self, pair: &RecordPair) -> f32 {
        self.predict(pair).probability
    }

    /// Batched override: [`WymModel::process_batch`] on the calling
    /// thread (one scorer forward pass per [`SCORE_CHUNK_RECORDS`]
    /// records), then the matcher's batch path. Bit-identical to mapping
    /// [`Self::proba`].
    fn proba_batch(&self, pairs: &[RecordPair]) -> Vec<f32> {
        self.probabilities(&self.process_batch(pairs, 1))
    }
}

/// A fitted [`WymModel`] as plain parts; produced by [`WymModel::to_saved`]
/// and consumed by [`WymModel::from_saved`]. It serializes (its JSON bytes
/// compare two models) but is never read back: a model file is a WYMA
/// artifact (`wym-artifact`), whose loader checks every shape before the
/// model is built (see [`crate::state`]).
#[derive(Serialize)]
pub struct SavedWymModel {
    /// Model configuration.
    pub config: WymConfig,
    /// The tokenizer.
    pub tokenizer: Tokenizer,
    /// The fitted embedder (including any trained projection).
    pub embedder: Embedder,
    /// The fitted relevance scorer (including the trained network).
    pub scorer: RelevanceScorer,
    /// The fitted matcher snapshot.
    pub matcher: SavedMatcher,
    /// Schema attribute names.
    pub attr_names: Vec<String>,
}

/// Tokenize → embed → Algorithm 1 for one record pair: a processed record
/// whose relevances are still to be scored (see [`score_chunk`]).
fn discover(
    pair: &RecordPair,
    tokenizer: &Tokenizer,
    embedder: &Embedder,
    discovery: &DiscoveryConfig,
) -> ProcessedRecord {
    let record = TokenizedRecord::from_pair(pair, tokenizer, embedder);
    let units = discover_units(&record, discovery);
    ProcessedRecord { record, units, relevances: Vec::new() }
}

/// The relevances of a chunk of discovered records: one scorer forward
/// pass for all of their units (bit-identical to scoring each record
/// alone, see [`RelevanceScorer::score_batch`]), then the unit rules.
fn score_chunk(
    scorer: &RelevanceScorer,
    rules: &[UnitRule],
    chunk: &[ProcessedRecord],
) -> Vec<Vec<f32>> {
    let batch: Vec<(&TokenizedRecord, &[DecisionUnit])> =
        chunk.iter().map(|p| (&p.record, p.units.as_slice())).collect();
    let raw = scorer.score_batch(&batch);
    chunk.iter().zip(raw).map(|(p, raw)| apply_rules(rules, &p.record, &p.units, &raw)).collect()
}

/// A fitted WYM model.
pub struct WymModel {
    config: WymConfig,
    tokenizer: Tokenizer,
    embedder: Embedder,
    scorer: RelevanceScorer,
    matcher: ExplainableMatcher,
    attr_names: Vec<String>,
}

impl WymModel {
    /// Fits the full pipeline on the train/validation parts of `split`.
    ///
    /// ```no_run
    /// use wym_core::pipeline::{WymConfig, WymModel};
    /// use wym_data::{magellan, split::paper_split};
    ///
    /// let dataset = magellan::generate_by_name("S-FZ", 42).unwrap();
    /// let split = paper_split(&dataset, 0);
    /// let model = WymModel::fit(&dataset, &split, WymConfig::default());
    /// let explanation = model.explain(&dataset.pairs[split.test[0]]);
    /// println!("{explanation}");
    /// ```
    ///
    /// # Panics
    /// Panics when the training split is empty.
    pub fn fit(dataset: &EmDataset, split: &SplitIndices, config: WymConfig) -> WymModel {
        assert!(!split.train.is_empty(), "training split is empty");
        wym_obs::register_stages(PIPELINE_STAGES);
        // Record which kernel implementation this process dispatched to
        // (resolved once from CPUID + `WYM_KERNEL`), so the counter is
        // present in any traced run — the smoke gate asserts it is nonzero.
        wym_obs::counter_add(
            &format!("kernel.dispatch.{}", wym_linalg::kernels::active_name()),
            1,
        );
        let _span = wym_obs::span("fit");
        let tokenizer = Tokenizer::default();

        // 1. Embedder (trained variants see a capped slice of train records).
        let embed_train: Vec<_> = split
            .train
            .iter()
            .take(config.max_embed_train_records)
            .map(|&i| {
                let p = &dataset.pairs[i];
                (
                    tokenizer.tokenize_attributes(&p.left.values),
                    tokenizer.tokenize_attributes(&p.right.values),
                    p.label,
                )
            })
            .collect();
        let embedder =
            Embedder::fit(config.embedder_kind, config.embed_dim, config.seed, &embed_train);

        // 2. Tokenize + discover units for train and validation records.
        // Per-record work is independent, so this fans out over the
        // configured worker threads; results come back in input order.
        let [mut train, mut val] = [&split.train, &split.val].map(|idx| {
            wym_par::map_indexed(idx, config.n_threads, |_, &i| {
                discover(&dataset.pairs[i], &tokenizer, &embedder, &config.discovery)
            })
        });

        // 3. Relevance scorer.
        let scorer_input: Vec<(&TokenizedRecord, &[DecisionUnit])> =
            train.iter().map(|p| (&p.record, p.units.as_slice())).collect();
        let mut scorer_cfg = config.scorer.clone();
        scorer_cfg.seed = config.seed;
        let scorer = RelevanceScorer::fit(scorer_cfg, &scorer_input);

        // 4. Score units in record chunks, 5. fit the matcher.
        for records in [&mut train, &mut val] {
            let chunks: Vec<_> = records.chunks(SCORE_CHUNK_RECORDS).collect();
            let scored = wym_par::map_indexed(&chunks, config.n_threads, |_, chunk| {
                score_chunk(&scorer, &config.rules, chunk)
            });
            for (p, relevances) in records.iter_mut().zip(scored.into_iter().flatten()) {
                p.relevances = relevances;
            }
        }
        let [train_rows, val_rows] = [&train, &val].map(|records| {
            records
                .iter()
                .map(|p| {
                    (p.units.as_slice(), p.relevances.as_slice(), p.record.label.unwrap_or(false))
                })
                .collect::<Vec<_>>()
        });
        let mut matcher_cfg = config.matcher.clone();
        matcher_cfg.n_threads = config.n_threads;
        let matcher =
            ExplainableMatcher::fit(&matcher_cfg, dataset.schema.len(), &train_rows, &val_rows);

        WymModel {
            config,
            tokenizer,
            embedder,
            scorer,
            matcher,
            attr_names: dataset.schema.attributes.clone(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &WymConfig {
        &self.config
    }

    /// The tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The fitted embedder.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// The fitted relevance scorer.
    pub fn scorer(&self) -> &RelevanceScorer {
        &self.scorer
    }

    /// The fitted explainable matcher.
    pub fn matcher(&self) -> &ExplainableMatcher {
        &self.matcher
    }

    /// The winning pool classifier.
    pub fn classifier(&self) -> ClassifierKind {
        self.matcher.classifier()
    }

    /// Attribute names of the fitted schema.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Tokenize → embed → discover → score one record pair, on the calling
    /// thread: a batch of one (see [`Self::process_batch`]).
    pub fn process(&self, pair: &RecordPair) -> ProcessedRecord {
        self.process_batch(std::slice::from_ref(pair), 1).pop().expect("one record in, one out")
    }

    /// Tokenize → embed → discover → score many record pairs on `threads`
    /// worker threads (`0` = all available cores), returned in input order.
    ///
    /// Workers claim [`SCORE_CHUNK_RECORDS`]-record chunks (work stealing).
    /// Each chunk runs inside one `process` span: per-record tokenization
    /// and unit discovery, then one scorer forward pass for all of the
    /// chunk's units, then the unit rules. Chunking and threading never
    /// change a bit of the output: GEMM output rows depend only on their
    /// own input row (see [`RelevanceScorer::score_batch`]).
    pub fn process_batch(&self, pairs: &[RecordPair], threads: usize) -> Vec<ProcessedRecord> {
        let chunks: Vec<_> = pairs.chunks(SCORE_CHUNK_RECORDS).collect();
        wym_par::map_indexed(&chunks, threads, |_, chunk| {
            let _span = wym_obs::span("process");
            let mut records: Vec<ProcessedRecord> = chunk
                .iter()
                .map(|pair| discover(pair, &self.tokenizer, &self.embedder, &self.config.discovery))
                .collect();
            let scored = score_chunk(&self.scorer, &self.config.rules, &records);
            for (p, relevances) in records.iter_mut().zip(scored) {
                p.relevances = relevances;
            }
            records
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Match probabilities of processed records, through the matcher's
    /// batch path.
    fn probabilities(&self, records: &[ProcessedRecord]) -> Vec<f32> {
        let rows: Vec<(&[DecisionUnit], &[f32])> =
            records.iter().map(|p| (p.units.as_slice(), p.relevances.as_slice())).collect();
        self.matcher.predict_proba_batch(&rows)
    }

    /// Emits one decision record into `log` for this processed record.
    fn audit_decision(
        &self,
        log: &wym_obs::AuditLog,
        kind: &str,
        proc: &ProcessedRecord,
        prediction: &Prediction,
        top_impacts: Vec<(String, f32)>,
        cost: Option<wym_obs::DecisionCost>,
    ) {
        let paired = proc.units.iter().filter(|u| u.is_paired()).count() as u32;
        log.emit(
            kind,
            proc.record.id as u64,
            prediction.label,
            prediction.probability,
            proc.units.len() as u32,
            paired,
            top_impacts,
            cost,
        );
    }

    /// Predicts from an already processed record. When an audit log is
    /// installed (see [`wym_obs::audit`]), emits one `classify` decision
    /// record — without impacts; the explain path records those.
    pub fn predict_processed(&self, proc: &ProcessedRecord) -> Prediction {
        let Some(log) = wym_obs::audit::active() else {
            let probability = self.matcher.predict_proba(&proc.units, &proc.relevances);
            return Prediction { label: probability >= 0.5, probability };
        };
        let (prediction, cost) = wym_obs::audit::measure(|| {
            let probability = self.matcher.predict_proba(&proc.units, &proc.relevances);
            Prediction { label: probability >= 0.5, probability }
        });
        self.audit_decision(
            &log,
            wym_obs::audit::KIND_CLASSIFY,
            proc,
            &prediction,
            Vec::new(),
            Some(cost),
        );
        prediction
    }

    /// End-to-end prediction of one record pair.
    pub fn predict(&self, pair: &RecordPair) -> Prediction {
        self.predict_processed(&self.process(pair))
    }

    /// Explains an already processed record: the probability and the unit
    /// impacts come from one grouping of its units (see
    /// [`crate::features`]). When an audit log is installed, emits one
    /// `explain` decision record carrying the top unit impacts — the only
    /// record of the decision.
    pub fn explain_processed(&self, proc: &ProcessedRecord) -> Explanation {
        let _span = wym_obs::span("explain");
        let log = wym_obs::audit::active();
        let (explanation, cost) = wym_obs::audit::measure(|| {
            let (probability, impacts) =
                self.matcher.proba_and_impacts(&proc.units, &proc.relevances);
            Explanation::build(
                &proc.record,
                &self.attr_names,
                &proc.units,
                &proc.relevances,
                &impacts,
                probability >= 0.5,
                probability,
            )
        });
        if let Some(log) = log {
            let top = explanation
                .top_units(wym_obs::audit::TOP_K_IMPACTS)
                .iter()
                .map(|u| (u.attribute.clone(), u.impact))
                .collect();
            let prediction = Prediction {
                label: explanation.prediction,
                probability: explanation.probability,
            };
            self.audit_decision(
                &log,
                wym_obs::audit::KIND_EXPLAIN,
                proc,
                &prediction,
                top,
                Some(cost),
            );
        }
        explanation
    }

    /// End-to-end prediction + explanation of one record pair.
    pub fn explain(&self, pair: &RecordPair) -> Explanation {
        self.explain_processed(&self.process(pair))
    }

    /// Summarizes this model's behaviour on `pairs` into a drift sketch:
    /// calibrated-score distribution, per-record pairing rate, and
    /// unit-class (attribute) mix. Frozen into the artifact at train time
    /// this becomes the baseline that online traffic is compared against
    /// (see [`wym_obs::sketch`]). Uses the batched scoring path and never
    /// emits audit records, so sketching is silent and deterministic.
    pub fn sketch_on(&self, pairs: &[RecordPair]) -> wym_obs::ModelSketch {
        let _span = wym_obs::span("sketch");
        let records = self.process_batch(pairs, 1);
        let mut sketch = wym_obs::ModelSketch::new();
        for (p, probability) in records.iter().zip(self.probabilities(&records)) {
            self.observe_drift(&mut sketch, probability, &p.units);
        }
        sketch
    }

    /// Adds one decision to a drift sketch: its match probability, the
    /// share of its units that are paired, and the attribute of every
    /// unit. The train-time baseline ([`Self::sketch_on`]) and the live
    /// sketch of served traffic must observe records the same way, or the
    /// drift sentinel trips on unchanged traffic, so both go through here.
    pub fn observe_drift(
        &self,
        sketch: &mut wym_obs::ModelSketch,
        probability: f32,
        units: &[DecisionUnit],
    ) {
        let paired = units.iter().filter(|u| u.is_paired()).count();
        let paired_frac = if units.is_empty() { 0.0 } else { paired as f64 / units.len() as f64 };
        let attrs = units.iter().map(|u| self.attr_names[u.attribute()].as_str());
        sketch.observe(probability, paired_frac, attrs);
    }

    /// A serializable snapshot of the fitted model.
    pub fn to_saved(&self) -> SavedWymModel {
        SavedWymModel {
            config: self.config.clone(),
            tokenizer: self.tokenizer.clone(),
            embedder: self.embedder.clone(),
            scorer: self.scorer.clone(),
            matcher: self.matcher.to_saved(),
            attr_names: self.attr_names.clone(),
        }
    }

    /// Rehydrates a snapshot into a working model.
    pub fn from_saved(saved: SavedWymModel) -> WymModel {
        WymModel {
            config: saved.config,
            tokenizer: saved.tokenizer,
            embedder: saved.embedder,
            scorer: saved.scorer,
            matcher: ExplainableMatcher::from_saved(saved.matcher),
            attr_names: saved.attr_names,
        }
    }

    /// F1 of the match class over a set of labeled pairs.
    pub fn f1_on(&self, pairs: &[RecordPair]) -> f32 {
        let probas = self.probabilities(&self.process_batch(pairs, 1));
        let preds: Vec<u8> = probas.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let gold: Vec<u8> = pairs.iter().map(|p| u8::from(p.label)).collect();
        f1_score(&preds, &gold)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::scorer::ScorerKind;
    use wym_data::{magellan, split::paper_split};
    use wym_nn::TrainConfig;

    /// A fast config for tests: small embeddings, few scorer epochs, and a
    /// three-member classifier pool.
    fn fast_config() -> WymConfig {
        let mut cfg = WymConfig::default();
        cfg.embed_dim = 32;
        cfg.embedder_kind = EmbedderKind::Static;
        cfg.scorer.train = TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..Default::default() };
        cfg.matcher.kinds = vec![
            ClassifierKind::LogisticRegression,
            ClassifierKind::RandomForest,
            ClassifierKind::GradientBoosting,
        ];
        cfg
    }

    fn beer_subset() -> EmDataset {
        magellan::generate_by_name("S-BR", 42).unwrap().subsample(200, 0)
    }

    #[test]
    fn fit_predict_explain_end_to_end() {
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config());

        let test_pairs: Vec<RecordPair> =
            split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let f1 = model.f1_on(&test_pairs);
        assert!(f1 > 0.5, "test F1 {f1} with {:?}", model.classifier());

        // Explanations are structurally sound.
        let ex = model.explain(&test_pairs[0]);
        assert_eq!(ex.units.len(), model.process(&test_pairs[0]).units.len());
        assert!(ex.probability >= 0.0 && ex.probability <= 1.0);
    }

    #[test]
    fn matching_records_lean_on_paired_units() {
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config());
        // Aggregate over all test matches: positive impact should come
        // mostly from paired units.
        let mut paired_pos = 0.0f32;
        let mut unpaired_pos = 0.0f32;
        for &i in &split.test {
            let pair = &dataset.pairs[i];
            if !pair.label {
                continue;
            }
            let ex = model.explain(pair);
            for u in &ex.units {
                if u.impact > 0.0 {
                    if u.paired {
                        paired_pos += u.impact;
                    } else {
                        unpaired_pos += u.impact;
                    }
                }
            }
        }
        assert!(
            paired_pos > unpaired_pos,
            "paired {paired_pos} vs unpaired {unpaired_pos} positive impact"
        );
    }

    #[test]
    fn binary_scorer_variant_runs() {
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let mut cfg = fast_config();
        cfg.scorer.kind = ScorerKind::Binary;
        let model = WymModel::fit(&dataset, &split, cfg);
        let test_pairs: Vec<RecordPair> =
            split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let f1 = model.f1_on(&test_pairs);
        assert!(f1 > 0.3, "binary-scorer F1 {f1}");
    }

    #[test]
    fn prediction_is_deterministic() {
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config());
        let pair = &dataset.pairs[split.test[0]];
        let a = model.predict(pair);
        let b = model.predict(pair);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_fit_and_explain_cover_every_pipeline_stage() {
        use std::sync::Arc;
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let obs = Arc::new(wym_obs::Recorder::new_enabled());
        wym_obs::with_recorder(Arc::clone(&obs), || {
            let mut cfg = fast_config();
            cfg.n_threads = 2;
            let model = WymModel::fit(&dataset, &split, cfg);
            let _ = model.explain(&dataset.pairs[split.test[0]]);
        });
        let snap = obs.snapshot();
        for (stage, count) in &snap.stages {
            assert!(*count > 0, "stage {stage} reported zero spans: {:?}", snap.stages);
        }
        assert_eq!(
            snap.stages.len(),
            PIPELINE_STAGES.len(),
            "every canonical stage must be registered"
        );
        // Worker spans nested under fit, not orphaned at the root.
        assert!(snap.span_count("fit") == 1, "{:?}", snap.spans);
        assert!(
            snap.spans.iter().any(|s| s.path.starts_with("fit/") && s.path.ends_with("pair")),
            "pair spans must aggregate under fit: {:?}",
            snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "training split is empty")]
    fn rejects_empty_train_split() {
        let dataset = beer_subset();
        let split = SplitIndices { train: vec![], val: vec![0], test: vec![1] };
        let _ = WymModel::fit(&dataset, &split, fast_config());
    }

    #[test]
    fn audit_log_records_decisions_once_with_margins_and_impacts() {
        use std::sync::Arc;
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config());
        let pair = &dataset.pairs[split.test[0]];

        let log = Arc::new(wym_obs::AuditLog::new(wym_obs::AuditOptions {
            model_fnv: 0xfeed,
            ..Default::default()
        }));
        let (pred, ex) = wym_obs::audit::with_audit(Arc::clone(&log), || {
            let _seq = wym_obs::audit::scope_seq(7);
            (model.predict(pair), model.explain(pair))
        });

        // One classify + one explain record — explain computes its verdict
        // without the classify path, so each user-facing call logs exactly
        // once.
        let records = log.sorted();
        assert_eq!(records.len(), 2, "{records:?}");
        let classify = &records[0];
        let explain = &records[1];
        assert_eq!(classify.kind, wym_obs::audit::KIND_CLASSIFY);
        assert_eq!(explain.kind, wym_obs::audit::KIND_EXPLAIN);
        for r in [classify, explain] {
            assert_eq!(r.seq, 7);
            assert_eq!(r.model_fnv, 0xfeed);
            assert_eq!(r.verdict, pred.label);
            assert_eq!(r.score, pred.probability);
            assert_eq!(r.margin, pred.probability - 0.5);
            assert!(r.paired_units <= r.units);
            assert!(r.cost.is_none(), "cost must be opt-in");
        }
        assert!(classify.top_impacts.is_empty());
        let expect_top = ex
            .top_units(wym_obs::audit::TOP_K_IMPACTS)
            .iter()
            .map(|u| (u.attribute.clone(), u.impact))
            .collect::<Vec<_>>();
        assert_eq!(explain.top_impacts, expect_top);

        // Outside the scope nothing is captured.
        let before = log.len();
        let _ = model.predict(pair);
        assert_eq!(log.len(), before);
    }

    #[test]
    fn sketch_on_is_deterministic_and_observes_every_pair() {
        let dataset = beer_subset();
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config());
        let test_pairs: Vec<RecordPair> =
            split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let a = model.sketch_on(&test_pairs);
        let b = model.sketch_on(&test_pairs);
        assert_eq!(a, b, "sketching must be bit-stable");
        assert_eq!(a.len(), test_pairs.len() as u64);
        assert!(!a.unit_mix().is_empty(), "attribute mix must be populated");
        // A model compared against its own baseline never trips.
        let report = a.compare(&b);
        assert!(!report.tripped, "{}", report.render());
    }
}
