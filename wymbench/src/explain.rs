//! `explain` workload: one client in a closed loop calls
//! `WymModel::explain` on each pair of the held-out T-AB stream, one pair
//! at a time — the paper's per-record explanation path. Nothing trains
//! after set-up, and the flight recorder stays off.
//!
//! Every run decomposes some records into the layer calls that
//! `WymModel::explain` makes and checks the result bit for bit; the traced
//! run times those calls.

use crate::host::{HostClock, Kernel};
use crate::layers::{self, Counters};
use crate::report::{self, median, quantile, tail_percentile, Outcome, Who};
use crate::served;
use crate::{trace, Args};
use wym_core::{Explanation, WymModel};
use wym_data::RecordPair;

/// Records explained before the timed loop, so that it starts with the
/// artifact's pages mapped and the allocator's heap grown.
const WARMUP_RECORDS: usize = 300;
/// Records the untraced run decomposes for the bit-for-bit check.
const CHECKED_RECORDS: usize = 200;
/// Records the traced run decomposes and times.
const TRACED_RECORDS: usize = 2000;

/// FNV-1a over every field of an explanation, floats by their bits.
fn fingerprint(ex: &Explanation) -> u64 {
    let mut h = report::fnv(report::FNV_OFFSET, &ex.record_id.to_le_bytes());
    h = report::fnv(h, &[u8::from(ex.prediction)]);
    h = report::fnv(h, &ex.probability.to_bits().to_le_bytes());
    for u in &ex.units {
        for text in [&u.left, &u.right, &u.attribute] {
            h = report::fnv(h, text.as_bytes());
            h = report::fnv(h, &[0xff]);
        }
        h = report::fnv(h, &[u8::from(u.paired)]);
        h = report::fnv(h, &u.relevance.to_bits().to_le_bytes());
        h = report::fnv(h, &u.impact.to_bits().to_le_bytes());
    }
    h
}

/// The output invariants of one explanation.
fn valid(ex: &Explanation) -> bool {
    ex.probability.is_finite()
        && (0.0..=1.0).contains(&ex.probability)
        && ex.prediction == (ex.probability >= 0.5)
        && ex
            .units
            .iter()
            .all(|u| u.relevance.is_finite() && u.impact.is_finite())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.line(
        "workload: explain — one closed-loop client, WymModel::explain per held-out T-AB pair"
            .into(),
    );
    let mut clock = HostClock::new(Kernel::Record);
    let served = served::setup(args, &mut clock, &mut out)?;
    let (model, stream) = (&served.model, &served.stream);
    for pair in stream.iter().take(WARMUP_RECORDS) {
        std::hint::black_box(model.explain(pair));
    }

    // Closed loop: the next request goes out when the previous one is back.
    let mut ops = Vec::new();
    let mut first: Vec<u64> = Vec::with_capacity(stream.len());
    let mut verdicts: Vec<bool> = Vec::with_capacity(stream.len());
    // Latest call per stream index: the untraced cost of each record.
    let mut latest = vec![None; stream.len()];
    let start = clock.now();
    while clock.now() - start < args.seconds {
        let i = ops.len() % stream.len();
        let (mut ex, op) = clock.time(|| model.explain(&stream[i]));
        ops.push(op);
        latest[i] = Some(op);
        if args.corrupt && ops.len() == 1 {
            ex.prediction = !ex.prediction;
        }
        let fp = fingerprint(&ex);
        if first.len() == i {
            first.push(fp);
            verdicts.push(ex.prediction);
        }
        let ok = valid(&ex) && fp == first[i];
        out.check(ok, || {
            format!("pair {}: invalid or changed explanation", stream[i].id)
        });
    }
    let n = ops.len();
    let latencies: Vec<f64> = ops.iter().map(|&op| clock.scaled(op)).collect();
    let raw: Vec<f64> = ops.iter().map(|op| op.wall).collect();
    let busy: f64 = latencies.iter().sum();
    let p50_us = median(&latencies) * 1e6;
    out.line(clock.line());
    out.line(format!(
        "explain_records_per_s = {} records/s ({n} records; raw {} records/s)",
        n as f64 / busy,
        n as f64 / raw.iter().sum::<f64>()
    ));
    out.line(format!(
        "explain_p50_us = {p50_us} us (raw {} us)",
        median(&raw) * 1e6
    ));
    if n >= 1000 {
        out.line(format!(
            "explain_p99_us = {} us ({n} samples)",
            quantile(&latencies, 0.99) * 1e6
        ));
    }
    match tail_percentile(n) {
        Some((label, q)) => out.line(format!(
            "explain_{label}_us = {} us (highest percentile with ten samples beyond it, of {n})",
            quantile(&latencies, q) * 1e6
        )),
        None => out.line(format!("explain tail latency: too few samples ({n})")),
    }
    let fp_all = first
        .iter()
        .fold(report::FNV_OFFSET, |h, f| report::fnv(h, &f.to_le_bytes()));
    out.line(format!(
        "fingerprint: explanations_fnv={fp_all:016x} over {} pairs",
        first.len()
    ));

    let k = stream.len().min(if args.trace {
        TRACED_RECORDS
    } else {
        CHECKED_RECORDS
    });
    let counters = Counters::default();
    let traced_from = clock.begin();
    if args.trace {
        trace::enable();
    }
    let decomposed: Vec<Explanation> = {
        let _root = trace::span("run");
        stream[..k]
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                trace::set_run(i as u64);
                explain_decomposed(model, pair, &counters, &mut out)
            })
            .collect()
    };
    for (pair, ex) in stream[..k].iter().zip(&decomposed) {
        let want = model.explain(pair);
        out.check(fingerprint(ex) == fingerprint(&want), || {
            format!(
                "pair {}: decomposed explanation differs from WymModel::explain",
                pair.id
            )
        });
    }

    out.end_to_end.insert("setup_s", served.setup_s);
    out.end_to_end.insert("records_per_s", n as f64 / busy);
    out.end_to_end.insert("latency_p50_ms", p50_us * 1e-3);
    out.end_to_end
        .insert("quality", served::verdict_f1(stream, &verdicts));
    out.end_to_end
        .insert("peak_rss_mb", report::peak_rss_mb(Who::Me));
    if args.trace {
        let spans = trace::finish();
        let times = trace::layer_times(&spans);
        let _ = trace::write_tsv(&args.out_dir.with_file_name("spans-explain.tsv"), &spans);
        let l = &mut out.layers;
        counters.fill(&times, l);
        l.insert("predict.busy_s", times.self_of("predict"));
        l.insert("impact.busy_s", times.self_of("impact"));
        l.insert("explanation.busy_s", times.self_of("explanation"));
        served.fill_layers(false, l);
        let traced_op = clock.end(traced_from);
        let covered: Vec<f64> = latest[..k]
            .iter()
            .flatten()
            .map(|&op| clock.scaled(op))
            .collect();
        let untraced = covered.iter().sum::<f64>() / covered.len().max(1) as f64 * k as f64;
        let unattributed = layers::fill_shares(&times, untraced * clock.slowdown(traced_op), l);
        out.lines.push(layers::coverage_line(unattributed));
    }
    Ok(out)
}

/// `WymModel::explain` = `process` then `explain_processed`, one layer
/// call at a time.
fn explain_decomposed(
    model: &WymModel,
    pair: &RecordPair,
    counters: &Counters,
    out: &mut Outcome,
) -> Explanation {
    let config = model.config();
    let tokens = counters.tokenize(model.tokenizer(), pair);
    let record = counters.embed(pair, tokens, model.embedder());
    let units = counters.pair(&record, &config.discovery, config.n_threads);
    let relevances = counters
        .score(model.scorer(), &config.rules, &[(&record, &units)])
        .remove(0);
    let probability = trace::timed("predict", || {
        model.matcher().predict_proba(&units, &relevances)
    });
    let impacts = trace::timed("impact", || model.matcher().impacts(&units, &relevances));
    out.check(
        impacts.len() == units.len() && relevances.len() == units.len(),
        || {
            format!(
                "pair {}: {} units, {} relevances, {} impacts",
                pair.id,
                units.len(),
                relevances.len(),
                impacts.len()
            )
        },
    );
    trace::timed("explanation", || {
        Explanation::build(
            &record,
            model.attr_names(),
            &units,
            &relevances,
            &impacts,
            probability >= 0.5,
            probability,
        )
    })
}
