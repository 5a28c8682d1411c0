//! §5.3 — time performance: training and explanation throughput, plus the
//! pipeline breakdown.
//!
//! Paper's takeaways: training ≈ 9 records/s, explanation ≈ 20 records/s
//! (70k+ explanations/hour), with ~40% of the time spent on making the
//! explanations. Absolute numbers differ on CPU with our substrate; the
//! breakdown shape is the reproducible claim.

use serde::Serialize;
use std::time::Instant;
use wym_core::{discover_units, TokenizedRecord};
use wym_experiments::{fit_wym, print_table, HarnessOpts};
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

fn main() {
    let opts = HarnessOpts::from_args();
    let tokenizer = Tokenizer::default();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    // Deterministic f64 checksum of every relevance score of the run, over
    // all datasets: `run_experiments.sh --smoke` runs this binary under
    // each WYM_KERNEL and fails when the checksums differ, which pins the
    // kernel layer's bit-identity guarantee at the end-to-end level.
    let mut score_checksum = 0.0f64;
    for dataset in opts.datasets() {
        eprintln!("[timing] {}", dataset.name);
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

        // Per-stage timings; the relevance scores also fold into the run's
        // score checksum.
        let mut t_tokenize = 0.0f64;
        let mut t_embed = 0.0f64;
        let mut t_discover = 0.0;
        let mut t_score = 0.0;
        let mut t_predict = 0.0;
        let mut t_impact = 0.0;
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
        }
        wym_obs::gauge_set("scorer.score_checksum", score_checksum);

        // Allocation-churn evidence for a recorded run: embed the sample's
        // token lists through the nested reference path and through the
        // fused arena path (with matrix recycling, i.e. steady-state
        // serving), with the tracking allocator attributing bytes to the
        // `embed_ref` and `embed_fused` spans of the exported snapshot.
        // Tokenization runs outside both spans so only embedding
        // allocations are compared.
        if wym_obs::enabled() {
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
            let profiling = wym_obs::prof::enabled();
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
            wym_obs::prof::set_enabled(profiling);
        }

        let total =
            (t_tokenize + t_embed + t_discover + t_score + t_predict + t_impact).max(1e-9);
        let pct = |t: f64| 100.0 * t / total;
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
    opts.save_json("timing", &rows_json);
    opts.flush_obs("timing");
}
