//! `fit` workload: `WymModel::fit` plus test F1 on all twelve synthetic
//! datasets with the harness's training configuration
//! (`HarnessOpts::default().wym_config()`), the paper's training workload.
//!
//! The traced run rebuilds every model from the stage calls that
//! `WymModel::fit_timed` makes, and checks that the result serializes to
//! the same bytes as `WymModel::fit`'s model.

use crate::host::{HostClock, Kernel, Op};
use crate::layers::{self, scorer_macs, Counters};
use crate::report::{self, median, Outcome, Traffic, Who};
use crate::{trace, Args};
use std::collections::HashSet;
use wym_core::matcher::ExplainableMatcher;
use wym_core::pipeline::{SavedWymModel, SCORE_CHUNK_RECORDS};
use wym_core::scorer::RelevanceScorer;
use wym_core::{DecisionUnit, TokenizedRecord, WymConfig, WymModel};
use wym_data::{magellan, split::paper_split, EmDataset, RecordPair, SplitIndices};
use wym_embed::Embedder;
use wym_experiments::HarnessOpts;
use wym_ml::f1_score;
use wym_tokenize::Tokenizer;

/// Pairs kept per dataset. The harness default is 800, and one pass over
/// the twelve datasets at 800 takes about a minute on two cores, longer
/// than a benchmark run may take; training cost scales with the pairs
/// kept, so the smaller cap keeps every dataset and the training recipe.
const CAP: usize = 100;
const TINY_CAP: usize = 40;
/// Pairs per dataset that test F1 is measured on: the split's test part,
/// topped up with pairs outside the capped subsample, so that F1 at the
/// small cap rests on enough matches to be steady.
const EVAL_PAIRS: usize = 500;
const TINY_EVAL_PAIRS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Prepared {
    dataset: EmDataset,
    split: SplitIndices,
    /// Test pairs: the split's test part, then pairs the model never sees.
    test: Vec<RecordPair>,
}

/// `HarnessOpts::datasets` (each dataset generated, then capped), keeping
/// the uncapped remainder for the test pairs.
fn prepare(opts: &HarnessOpts, eval_pairs: usize) -> Vec<Prepared> {
    magellan::all_configs()
        .iter()
        .map(|c| {
            let full = magellan::generate(c, opts.seed);
            let dataset = full.subsample(opts.cap, opts.seed);
            let split = paper_split(&dataset, opts.seed);
            let kept: HashSet<u32> = dataset.pairs.iter().map(|p| p.id).collect();
            let mut test: Vec<RecordPair> = split
                .test
                .iter()
                .map(|&i| dataset.pairs[i].clone())
                .collect();
            let extra = eval_pairs.saturating_sub(test.len());
            test.extend(
                full.pairs
                    .into_iter()
                    .filter(|p| !kept.contains(&p.id))
                    .take(extra),
            );
            Prepared {
                dataset,
                split,
                test,
            }
        })
        .collect()
}

/// The untraced measurements of one dataset: one sample per fit.
#[derive(Default)]
struct Samples {
    /// `WymModel::fit`, then test F1.
    ops: Vec<(Op, Op)>,
    /// Test F1 of the first fit.
    f1: Option<f32>,
    /// The latest model.
    model: Option<WymModel>,
}

/// Σ over datasets of the median over their fits of `time(fit, f1)`.
fn sum_of_medians(samples: &[Samples], time: impl Fn(Op, Op) -> f64) -> f64 {
    samples
        .iter()
        .map(|s| {
            let times: Vec<f64> = s.ops.iter().map(|&(fit, f1)| time(fit, f1)).collect();
            median(&times)
        })
        .sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let opts = HarnessOpts {
        seed: args.seed,
        cap: if args.tiny { TINY_CAP } else { CAP },
        threads: args.threads,
        ..HarnessOpts::default()
    };
    let mut config = opts.wym_config();
    if args.tiny {
        config.scorer.train.epochs = 2;
    }
    let mut out = Outcome::default();
    let eval_pairs = if args.tiny {
        TINY_EVAL_PAIRS
    } else {
        EVAL_PAIRS
    };
    let mut clock = HostClock::new(Kernel::Record);
    let (prepared, setup_s, setup_line) =
        report::timed_setup(&mut clock, SETUPS, |_| prepare(&opts, eval_pairs));

    // Traffic over every pair a pass reads: train, validation and test.
    let mut traffic = Traffic::default();
    let tok = Tokenizer::default();
    let mut train_pairs = 0;
    let mut all_pairs = 0;
    for p in &prepared {
        let fitted = p
            .split
            .train
            .iter()
            .chain(&p.split.val)
            .map(|&i| &p.dataset.pairs[i]);
        for pair in fitted.clone().chain(&p.test) {
            traffic.add_pair(&tok, pair, config.embed_dim);
        }
        train_pairs += fitted.count();
        all_pairs += p.split.train.len() + p.split.val.len() + p.test.len();
    }
    let names: Vec<&str> = prepared.iter().map(|p| p.dataset.name.as_str()).collect();
    out.line(format!(
        "workload: fit — WymModel::fit + test F1 on {} datasets, cap {}, {} test pairs each, {} epochs, {} train+val pairs per pass",
        prepared.len(),
        opts.cap,
        eval_pairs,
        config.scorer.train.epochs,
        train_pairs
    ));
    out.line(traffic.render(all_pairs));
    out.line(setup_line);

    // Datasets are fitted in rotation until the time is up and each was
    // fitted at least once; a pass is the sum of the per-dataset medians.
    let mut samples: Vec<Samples> = prepared.iter().map(|_| Samples::default()).collect();
    let start = clock.now();
    let mut fits = 0;
    while fits < prepared.len() || clock.now() - start < args.seconds {
        let (i, p) = (fits % prepared.len(), &prepared[fits % prepared.len()]);
        let (model, fit_op) = clock.time(|| WymModel::fit(&p.dataset, &p.split, config.clone()));
        let (mut f1, f1_op) = clock.time(|| model.f1_on(&p.test));
        let s = &mut samples[i];
        s.ops.push((fit_op, f1_op));
        if args.corrupt && fits == 0 {
            f1 = f32::NAN;
        }
        let first = *s.f1.get_or_insert(f1);
        out.check(
            f1.is_finite() && (0.0..=1.0).contains(&f1) && f1.to_bits() == first.to_bits(),
            || format!("{}: test F1 {f1} (first fit {first})", names[i]),
        );
        s.model = Some(model);
        fits += 1;
    }
    let fit_s = sum_of_medians(&samples, |fit, _| clock.scaled(fit));
    let pass_s = sum_of_medians(&samples, |fit, f1| clock.scaled(fit) + clock.scaled(f1));
    let raw_fit_s = sum_of_medians(&samples, |fit, _| fit.wall);
    let f1: Vec<f32> = samples
        .iter()
        .map(|s| s.f1.expect("every dataset was fitted"))
        .collect();
    let f1_mean = f1.iter().map(|&v| f64::from(v)).sum::<f64>() / f1.len() as f64;
    let f1_fnv = f1
        .iter()
        .fold(report::FNV_OFFSET, |h, v| report::fnv(h, &v.to_le_bytes()));
    out.line(clock.line());
    out.line(format!(
        "fit_s = {fit_s} s (Σ over {} datasets of the median WymModel::fit wall; {fits} fits; raw {raw_fit_s} s)",
        f1.len()
    ));
    out.line(format!("f1_mean = {f1_mean} fraction (mean test F1)"));
    out.line(format!(
        "train_records_per_s = {} records/s",
        train_pairs as f64 / fit_s
    ));
    let f1_list: Vec<String> = names
        .iter()
        .zip(&f1)
        .map(|(n, v)| format!("{n}:{v:.4}"))
        .collect();
    out.line(format!(
        "fingerprint: f1=[{}] f1_fnv={f1_fnv:016x}",
        f1_list.join(",")
    ));

    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end
        .insert("records_per_s", train_pairs as f64 / fit_s);
    out.end_to_end.insert("latency_p50_ms", pass_s * 1e3);
    out.end_to_end.insert("quality", f1_mean);

    if args.trace {
        traced(
            args, &prepared, &config, &samples, &mut clock, pass_s, &mut out,
        )?;
    }
    out.end_to_end
        .insert("peak_rss_mb", report::peak_rss_mb(Who::Me));
    Ok(out)
}

/// The traced pass: every model rebuilt from its stage calls, checked
/// against the untraced pass's model and F1. `untraced_pass_s` is the
/// untraced pass time, scaled by `clock`.
fn traced(
    args: &Args,
    prepared: &[Prepared],
    config: &WymConfig,
    untraced: &[Samples],
    clock: &mut HostClock,
    untraced_pass_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let counters = Counters::default();
    let traced_from = clock.begin();
    let mut score_train_rows = 0usize;
    trace::enable();
    let results: Vec<(WymModel, f32)> = {
        let _root = trace::span("run");
        prepared
            .iter()
            .enumerate()
            .map(|(i, p)| {
                trace::set_run(i as u64);
                let (model, f1, rows) = fit_traced(p, config, &counters);
                score_train_rows += rows;
                (model, f1)
            })
            .collect()
    };
    let traced_op = clock.end(traced_from);
    let spans = trace::finish();
    let times = trace::layer_times(&spans);
    let _ = trace::write_tsv(&args.out_dir.with_file_name("spans-fit.tsv"), &spans);

    for ((p, (model, f1)), want) in prepared.iter().zip(&results).zip(untraced) {
        let name = &p.dataset.name;
        let want_model = want.model.as_ref().expect("every dataset was fitted");
        let want_f1 = want.f1.expect("every dataset was fitted");
        out.check(saved_bytes(model)? == saved_bytes(want_model)?, || {
            format!("{name}: traced stage composition built a different model")
        });
        out.check(f1.to_bits() == want_f1.to_bits(), || {
            format!("{name}: traced F1 {f1} differs from WymModel::f1_on {want_f1}")
        });
    }

    let l = &mut out.layers;
    counters.fill(&times, l);
    let epochs = config.scorer.train.epochs as f64;
    let score_train_s = times.self_of("score_train");
    // Forward, input-gradient and weight-gradient GEMMs: 3 × 2 flops per
    // multiply-add of every training row in every epoch.
    let gflop = score_train_rows as f64 * epochs * 6.0 * scorer_macs(2 * config.embed_dim) * 1e-9;
    l.insert("embed_fit.busy_s", times.self_of("embed_fit"));
    l.insert("discover.wall_s", times.total_of("discover"));
    l.insert("score_train.busy_s", score_train_s);
    l.insert("score_train.rows", score_train_rows as f64);
    l.insert("score_train.epochs", epochs);
    l.insert("score_train.gflop", gflop);
    l.insert("score_train.gflop_per_s", gflop / score_train_s.max(1e-12));
    l.insert("pool_fit.busy_s", times.self_of("pool_fit"));
    l.insert("pool_fit.classifiers", config.matcher.kinds.len() as f64);
    l.insert("predict.busy_s", times.self_of("predict"));
    let unattributed = layers::fill_shares(&times, untraced_pass_s * clock.slowdown(traced_op), l);
    out.lines.push(layers::coverage_line(unattributed));
    Ok(())
}

fn saved_bytes(model: &WymModel) -> Result<Vec<u8>, String> {
    serde_json::to_vec(&model.to_saved()).map_err(|e| format!("cannot serialize a model: {e}"))
}

/// `WymModel::fit_timed`'s stages as separate traced calls, then
/// `WymModel::f1_on`'s. Returns the model, its test F1 and the scorer's
/// training rows.
fn fit_traced(p: &Prepared, config: &WymConfig, counters: &Counters) -> (WymModel, f32, usize) {
    let (dataset, split) = (&p.dataset, &p.split);
    let tokenizer = Tokenizer::default();

    // 1. Embedder.
    let embed_train: Vec<_> = split
        .train
        .iter()
        .take(config.max_embed_train_records)
        .map(|&i| {
            let pair = &dataset.pairs[i];
            let [l, r] = counters.tokenize(&tokenizer, pair);
            (l, r, pair.label)
        })
        .collect();
    let embedder = trace::timed("embed_fit", || {
        Embedder::fit(
            config.embedder_kind,
            config.embed_dim,
            config.seed,
            &embed_train,
        )
    });

    // 2. Tokenize, embed and discover units of train and validation.
    let process = |idx: &[usize]| -> Vec<(TokenizedRecord, Vec<DecisionUnit>)> {
        trace::par_map(idx, config.n_threads, |_, &i| {
            let pair = &dataset.pairs[i];
            let tokens = counters.tokenize(&tokenizer, pair);
            let rec = counters.embed(pair, tokens, &embedder);
            let units = counters.pair(&rec, &config.discovery, 1);
            (rec, units)
        })
    };
    let (train_proc, val_proc) =
        trace::timed("discover", || (process(&split.train), process(&split.val)));

    // 3. Relevance scorer.
    let scorer_input: Vec<(&TokenizedRecord, &[DecisionUnit])> =
        train_proc.iter().map(|(r, u)| (r, u.as_slice())).collect();
    let labeled_units: usize = scorer_input
        .iter()
        .filter(|(r, _)| r.label.is_some())
        .map(|(_, u)| u.len())
        .sum();
    let mut scorer_cfg = config.scorer.clone();
    scorer_cfg.seed = config.seed;
    let train_rows_used = labeled_units.min(scorer_cfg.max_rows);
    let scorer = trace::timed("score_train", || {
        RelevanceScorer::fit(scorer_cfg, &scorer_input)
    });

    // 4. Score units in chunks, 5. fit the matcher.
    let score_all = |proc: &[(TokenizedRecord, Vec<DecisionUnit>)]| -> Vec<Vec<f32>> {
        let chunks: Vec<_> = proc.chunks(SCORE_CHUNK_RECORDS).collect();
        trace::par_map(&chunks, config.n_threads, |_, chunk| {
            let batch: Vec<(&TokenizedRecord, &[DecisionUnit])> =
                chunk.iter().map(|(r, u)| (r, u.as_slice())).collect();
            counters.score(&scorer, &config.rules, &batch)
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let train_scores = score_all(&train_proc);
    let val_scores = score_all(&val_proc);
    fn rows<'a>(
        proc: &'a [(TokenizedRecord, Vec<DecisionUnit>)],
        scores: &'a [Vec<f32>],
    ) -> Vec<(&'a [DecisionUnit], &'a [f32], bool)> {
        proc.iter()
            .zip(scores)
            .map(|((r, u), s)| (u.as_slice(), s.as_slice(), r.label.unwrap_or(false)))
            .collect()
    }
    let train_rows = rows(&train_proc, &train_scores);
    let val_rows = rows(&val_proc, &val_scores);
    let mut matcher_cfg = config.matcher.clone();
    matcher_cfg.n_threads = config.n_threads;
    let matcher = trace::timed("pool_fit", || {
        ExplainableMatcher::fit(&matcher_cfg, dataset.schema.len(), &train_rows, &val_rows)
    });
    let model = WymModel::from_saved(SavedWymModel {
        config: config.clone(),
        tokenizer,
        embedder,
        scorer,
        matcher: matcher.to_saved(),
        attr_names: dataset.schema.attributes.clone(),
    });

    // `WymModel::f1_on`: per-record processing, one batched forward pass,
    // one batched prediction.
    let proc: Vec<(TokenizedRecord, Vec<DecisionUnit>)> = p
        .test
        .iter()
        .map(|pair| {
            let tokens = counters.tokenize(model.tokenizer(), pair);
            let rec = counters.embed(pair, tokens, model.embedder());
            let units = counters.pair(&rec, &model.config().discovery, 1);
            (rec, units)
        })
        .collect();
    let batch: Vec<(&TokenizedRecord, &[DecisionUnit])> =
        proc.iter().map(|(r, u)| (r, u.as_slice())).collect();
    let scores = counters.score(model.scorer(), &model.config().rules, &batch);
    let f1 = trace::timed("predict", || {
        let rows: Vec<(&[DecisionUnit], &[f32])> = proc
            .iter()
            .zip(&scores)
            .map(|((_, u), s)| (u.as_slice(), s.as_slice()))
            .collect();
        let probas = model.matcher().predict_proba_batch(&rows);
        let preds: Vec<u8> = probas.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let gold: Vec<u8> = p.test.iter().map(|p| u8::from(p.label)).collect();
        f1_score(&preds, &gold)
    });
    (model, f1, train_rows_used)
}
