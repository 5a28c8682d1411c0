//! §5.3 — time performance: training and explanation throughput, plus the
//! pipeline breakdown.
//!
//! Paper's takeaways: training ≈ 9 records/s, explanation ≈ 20 records/s
//! (70k+ explanations/hour), with ~40% of the time spent on making the
//! explanations. Absolute numbers differ on CPU with our substrate; the
//! breakdown shape is the reproducible claim.

use serde::{Serialize, Value};
use std::time::Instant;
use wym_core::{discover_units, TokenizedRecord};
use wym_experiments::{fit_wym, print_table, save_json, HarnessOpts};
use wym_obs::{Manifest, Snapshot};
use wym_tokenize::Tokenizer;

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    train_records_per_s: f64,
    explain_records_per_s: f64,
    tokenize_pct: f64,
    embed_pct: f64,
    discover_pct: f64,
    score_pct: f64,
    predict_pct: f64,
    impact_pct: f64,
}

/// Machine-readable per-stage wall-clock record (`results/BENCH_timing.json`)
/// so later perf work has a trajectory to compare against. Training-side
/// stages come from [`wym_core::pipeline::FitTimings`]; inference-side
/// stages are absolute seconds over the explained test slice.
///
/// Each row keeps all of the keys below (old consumers keep working) and
/// additionally carries that dataset's recorded `spans` array and
/// `metrics` object, laid out like the `OBS_*.json` exports.
struct BenchRow {
    dataset: String,
    n_train: usize,
    n_explained: usize,
    /// Total `WymModel::fit` wall-clock.
    fit_s: f64,
    /// Embedder fitting inside `fit`.
    embed_fit_s: f64,
    /// Tokenize + embed + discovery inside `fit`.
    discover_fit_s: f64,
    /// Relevance-scorer training inside `fit`.
    score_train_s: f64,
    /// Unit scoring + classifier-pool fitting inside `fit`.
    pool_fit_s: f64,
    /// Per-record tokenization over the test slice (its own stage since the
    /// fused-embed PR; previously folded into `embed_s`).
    tokenize_s: f64,
    /// Per-record embedding (fused arena path) over the test slice.
    embed_s: f64,
    /// Per-record unit discovery over the test slice.
    discover_s: f64,
    /// Per-record relevance scoring over the test slice.
    score_s: f64,
    /// One batched `score_batch` call over the same records: the speedup
    /// against `score_s` is this PR's end-to-end batching evidence.
    score_batch_s: f64,
    /// Per-record match prediction over the test slice.
    predict_s: f64,
    /// Per-record impact computation over the test slice.
    impact_s: f64,
    /// Bytes allocated embedding the sample through the nested reference
    /// path (`embed_entity`), from the tracking allocator.
    embed_alloc_ref_bytes: u64,
    /// Bytes allocated embedding the same sample through the fused arena
    /// path with matrix recycling — steady-state serving behaviour. The
    /// ratio against `embed_alloc_ref_bytes` is the allocation-churn
    /// evidence.
    embed_alloc_fused_bytes: u64,
}

impl BenchRow {
    /// The row as JSON: the run's provenance `manifest` first, then the
    /// backward-compatible flat keys, then the dataset's observability
    /// snapshot as `spans` / `metrics` sections.
    fn to_json(&self, manifest: &Manifest, snap: &Snapshot) -> Value {
        let (spans, metrics) = wym_experiments::bench_sections(snap);
        Value::object([
            ("manifest", manifest.to_value()),
            ("dataset", self.dataset.to_value()),
            ("kernel", wym_linalg::kernels::active_name().to_value()),
            ("n_train", self.n_train.to_value()),
            ("n_explained", self.n_explained.to_value()),
            ("fit_s", self.fit_s.to_value()),
            ("embed_fit_s", self.embed_fit_s.to_value()),
            ("discover_fit_s", self.discover_fit_s.to_value()),
            ("score_train_s", self.score_train_s.to_value()),
            ("pool_fit_s", self.pool_fit_s.to_value()),
            ("tokenize_s", self.tokenize_s.to_value()),
            ("embed_s", self.embed_s.to_value()),
            ("discover_s", self.discover_s.to_value()),
            ("score_s", self.score_s.to_value()),
            ("score_batch_s", self.score_batch_s.to_value()),
            ("predict_s", self.predict_s.to_value()),
            ("impact_s", self.impact_s.to_value()),
            ("embed_alloc_ref_bytes", self.embed_alloc_ref_bytes.to_value()),
            ("embed_alloc_fused_bytes", self.embed_alloc_fused_bytes.to_value()),
            ("spans", spans),
            ("metrics", metrics),
        ])
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    // The timing binary always records: its whole point is performance
    // telemetry, and the spans/metrics sections of BENCH_timing.json
    // should be populated without requiring --trace.
    wym_obs::set_enabled(true);
    let tokenizer = Tokenizer::default();
    let mut rows_json = Vec::new();
    let mut bench_json: Vec<Value> = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[timing] {}", dataset.name);
        // Per-dataset snapshot: clear metrics from the previous dataset
        // (the stage registry survives). Re-record which kernel
        // implementation this process dispatched to — the smoke gate greps
        // for a nonzero `kernel.dispatch.*` counter in the exported metrics.
        wym_obs::reset();
        wym_obs::counter_add(
            &format!("kernel.dispatch.{}", wym_linalg::kernels::active_name()),
            1,
        );
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let n_train = run.split.train.len() + run.split.val.len();
        let train_tp = n_train as f64 / run.fit_seconds.max(1e-9);

        // Explanation throughput and stage breakdown over the test slice.
        let sample = &run.test[..run.test.len().min(200)];
        let t0 = Instant::now();
        for pair in sample {
            let _ = run.model.explain(pair);
        }
        let explain_tp = sample.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);

        // Per-stage timings. The relevance scores are also folded into a
        // deterministic f64 checksum: `run_experiments.sh --smoke` runs this
        // binary under WYM_KERNEL=scalar and =auto and fails when the two
        // checksums differ, which pins the kernel layer's bit-identity
        // guarantee at the end-to-end level.
        let mut t_tokenize = 0.0f64;
        let mut t_embed = 0.0f64;
        let mut t_discover = 0.0;
        let mut t_score = 0.0;
        let mut t_predict = 0.0;
        let mut t_impact = 0.0;
        let mut score_checksum = 0.0f64;
        let mut processed = Vec::with_capacity(sample.len());
        for pair in sample {
            let s = Instant::now();
            let lt = tokenizer.tokenize_attributes(&pair.left.values);
            let rt = tokenizer.tokenize_attributes(&pair.right.values);
            t_tokenize += s.elapsed().as_secs_f64();
            let s = Instant::now();
            let rec = TokenizedRecord::from_tokens(
                pair.id,
                Some(pair.label),
                lt,
                rt,
                run.model.embedder(),
            );
            t_embed += s.elapsed().as_secs_f64();
            let s = Instant::now();
            let units = discover_units(&rec, &run.model.config().discovery);
            t_discover += s.elapsed().as_secs_f64();
            let s = Instant::now();
            let scores = run.model.scorer().score_units(&rec, &units);
            t_score += s.elapsed().as_secs_f64();
            let s = Instant::now();
            let _ = run.model.matcher().predict_proba(&units, &scores);
            t_predict += s.elapsed().as_secs_f64();
            let s = Instant::now();
            let _ = run.model.matcher().impacts(&units, &scores);
            t_impact += s.elapsed().as_secs_f64();
            score_checksum += scores.iter().map(|&v| v as f64).sum::<f64>();
            processed.push((rec, units));
        }
        wym_obs::gauge_set("scorer.score_checksum", score_checksum);

        // The same records scored again as one batch: a single feature
        // matrix and forward pass instead of `sample.len()` of them.
        let batch: Vec<_> = processed.iter().map(|(r, u)| (r, u.as_slice())).collect();
        let s = Instant::now();
        let _ = run.model.scorer().score_batch(&batch);
        let t_score_batch = s.elapsed().as_secs_f64();

        // Allocation-churn evidence: embed the sample's token lists through
        // the nested reference path and through the fused arena path (with
        // matrix recycling, i.e. steady-state serving), with the tracking
        // allocator attributing bytes to the two spans. Tokenization runs
        // outside both spans so only embedding allocations are compared.
        type AttrTokens = Vec<Vec<String>>;
        let token_lists: Vec<(AttrTokens, AttrTokens)> = sample
            .iter()
            .map(|pair| {
                (
                    tokenizer.tokenize_attributes(&pair.left.values),
                    tokenizer.tokenize_attributes(&pair.right.values),
                )
            })
            .collect();
        wym_obs::prof::set_enabled(true);
        {
            let _span = wym_obs::span("embed_ref");
            for (lt, rt) in &token_lists {
                let _ = run.model.embedder().embed_entity(lt);
                let _ = run.model.embedder().embed_entity(rt);
            }
        }
        {
            let _span = wym_obs::span("embed_fused");
            for (lt, rt) in &token_lists {
                wym_embed::recycle(run.model.embedder().embed_entity_fused(lt));
                wym_embed::recycle(run.model.embedder().embed_entity_fused(rt));
            }
        }
        wym_obs::prof::set_enabled(false);
        // Span memory is attributed to *self* costs, so the embedder's own
        // inner "embed" span holds most of the bytes: sum the whole subtree.
        let alloc_of = |path: &str| {
            let prefix = format!("{path}/");
            wym_obs::snapshot()
                .spans
                .iter()
                .filter(|s| s.path == path || s.path.starts_with(&prefix))
                .filter_map(|s| s.mem.as_ref().map(|m| m.alloc_bytes))
                .sum::<u64>()
        };
        let embed_alloc_ref_bytes = alloc_of("embed_ref");
        let embed_alloc_fused_bytes = alloc_of("embed_fused");

        let total =
            (t_tokenize + t_embed + t_discover + t_score + t_predict + t_impact).max(1e-9);
        let pct = |t: f64| 100.0 * t / total;
        let bench_row = BenchRow {
            dataset: dataset.name.clone(),
            n_train,
            n_explained: sample.len(),
            fit_s: run.fit_seconds,
            embed_fit_s: run.fit_timings.embed_fit_s,
            discover_fit_s: run.fit_timings.discover_s,
            score_train_s: run.fit_timings.score_train_s,
            pool_fit_s: run.fit_timings.pool_fit_s,
            tokenize_s: t_tokenize,
            embed_s: t_embed,
            discover_s: t_discover,
            score_s: t_score,
            score_batch_s: t_score_batch,
            predict_s: t_predict,
            impact_s: t_impact,
            embed_alloc_ref_bytes,
            embed_alloc_fused_bytes,
        };
        bench_json.push(bench_row.to_json(&opts.manifest("timing"), &wym_obs::snapshot()));
        let row = Row {
            dataset: dataset.name.clone(),
            train_records_per_s: train_tp,
            explain_records_per_s: explain_tp,
            tokenize_pct: pct(t_tokenize),
            embed_pct: pct(t_embed),
            discover_pct: pct(t_discover),
            score_pct: pct(t_score),
            predict_pct: pct(t_predict),
            impact_pct: pct(t_impact),
        };
        rows.push(vec![
            row.dataset.clone(),
            format!("{:.1}", row.train_records_per_s),
            format!("{:.1}", row.explain_records_per_s),
            format!("{:.0}%", row.tokenize_pct),
            format!("{:.0}%", row.embed_pct),
            format!("{:.0}%", row.discover_pct),
            format!("{:.0}%", row.score_pct),
            format!("{:.0}%", row.predict_pct),
            format!("{:.0}%", row.impact_pct),
        ]);
        rows_json.push(row);
    }
    print_table(
        "§5.3 — throughput and pipeline breakdown",
        &[
            "Dataset",
            "train rec/s",
            "explain rec/s",
            "tokenize",
            "embed",
            "discover",
            "score",
            "predict",
            "impacts",
        ],
        &rows,
    );
    save_json("timing", &rows_json);
    // BENCH_timing.json uses the OBS_*.json file layout (pretty, with a
    // trailing newline), unlike the plain results files save_json writes.
    let _ = std::fs::create_dir_all("results");
    let bench_path = "results/BENCH_timing.json";
    match std::fs::write(bench_path, wym_obs::pretty_json(&Value::Array(bench_json.clone()))) {
        Ok(()) => println!("\n→ results saved to {bench_path}"),
        Err(e) => eprintln!("warning: could not write {bench_path}: {e}"),
    }
    wym_experiments::append_bench_history("timing", &bench_json);
    opts.flush_obs("timing");
}
