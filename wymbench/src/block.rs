//! `block` workload: `wym-block` dedups a seeded synthetic table with gold
//! duplicate pairs (`block_entities` with the default configuration on the
//! benchmark's worker threads). None of the WYM layers run here; without
//! this workload `wym-block` would go unmeasured.
//!
//! The traced run calls the blocking stages one at a time and checks that
//! their merged candidate set has `block_entities`' checksum.

use crate::host::{HostClock, Kernel};
use crate::report::{self, median, Outcome, Who};
use crate::{layers, trace, Args};
use wym_block::{
    block_entities, pair_checksum, recall, AnnIndex, BlockConfig, SynthConfig, TokenIndex,
};
use wym_data::Entity;
use wym_linalg::kernels;

/// Records in the table: small enough that a run holds a score of calls,
/// whose median wall then shrugs off short bursts of load from other
/// tenants of a shared host.
const RECORDS: usize = 20_000;
const TINY_RECORDS: usize = 2_000;
/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// table and makes one warm-up `block_entities` call, so that the timed
/// calls start with the allocator's heap grown. (The table alone takes tens
/// of milliseconds, too short to time steadily on a shared host.)
const SETUPS: usize = 5;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = if args.tiny { TINY_RECORDS } else { RECORDS };
    let synth = SynthConfig {
        n_records: n,
        seed: args.seed,
        ..SynthConfig::default()
    };
    let config = BlockConfig {
        threads: args.threads,
        ..BlockConfig::default()
    };
    let mut clock = HostClock::new(Kernel::Index);
    let (table, setup_s, setup_line) = report::timed_setup(&mut clock, SETUPS, |_| {
        let table = wym_block::generate(&synth);
        std::hint::black_box(block_entities(&table.records, &config));
        table
    });
    let tokens: Vec<f64> = table
        .records
        .iter()
        .map(|r| r.full_text().split_whitespace().count() as f64)
        .collect();
    out.line(format!(
        "workload: block — block_entities on {n} synthetic records ({} gold pairs), {} threads",
        table.gold.len(),
        args.threads
    ));
    out.line(format!(
        "traffic: records={n} tokens_per_record p50={} max={} gold_pairs={}",
        median(&tokens),
        tokens.iter().copied().fold(0.0, f64::max),
        table.gold.len()
    ));

    out.line(setup_line);
    let mut ops = Vec::new();
    let mut first: Option<(u64, f64)> = None;
    let start = clock.now();
    while clock.now() - start < args.seconds {
        let (mut result, op) = clock.time(|| block_entities(&table.records, &config));
        ops.push(op);
        if args.corrupt && ops.len() == 1 {
            result.pairs.remove(0);
        }
        let sorted = result.pairs.windows(2).all(|w| w[0] < w[1])
            && result.pairs.iter().all(|&(i, j)| i < j && (j as usize) < n);
        let checksum = pair_checksum(&result.pairs);
        let got = (checksum, recall(&result.pairs, &table.gold));
        let want = *first.get_or_insert(got);
        out.check(sorted && checksum == result.checksum && got == want, || {
            format!(
                "candidate set changed: checksum {checksum:016x} (first {:016x})",
                want.0
            )
        });
    }
    let (checksum, block_recall) = first.expect("at least one blocking call");
    let (wall, raw_wall) = clock.medians(&ops);
    out.line(clock.line());
    out.line(format!(
        "block_records_per_s = {} records/s (median of {} calls; raw {} records/s)",
        n as f64 / wall,
        ops.len(),
        n as f64 / raw_wall
    ));
    out.line(format!(
        "block_recall = {block_recall} fraction (of all gold pairs)"
    ));
    out.line(format!("fingerprint: block_checksum={checksum:016x}"));
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("records_per_s", n as f64 / wall);
    out.end_to_end.insert("latency_p50_ms", wall * 1e3);
    out.end_to_end.insert("quality", block_recall);
    out.end_to_end
        .insert("peak_rss_mb", report::peak_rss_mb(Who::Me));

    if args.trace {
        let traced_from = clock.begin();
        trace::enable();
        let (pairs, lexical) = {
            let _root = trace::span("run");
            staged(&table.records, &config)
        };
        let traced_op = clock.end(traced_from);
        let spans = trace::finish();
        let times = trace::layer_times(&spans);
        let _ = trace::write_tsv(&args.out_dir.with_file_name("spans-block.tsv"), &spans);
        let staged_checksum = pair_checksum(&pairs);
        out.check(staged_checksum == checksum, || {
            format!("staged checksum {staged_checksum:016x}, block_entities {checksum:016x}")
        });
        let l = &mut out.layers;
        for (metric, span) in [
            ("block.index.busy_s", "block.index"),
            ("block.lexical.busy_s", "block.lexical"),
            ("block.ann_index.busy_s", "block.ann_index"),
            ("block.ann.busy_s", "block.ann"),
            ("block.merge.busy_s", "block.merge"),
        ] {
            l.insert(metric, times.self_of(span));
        }
        l.insert("data.busy_s", times.self_of("data"));
        l.insert("block.candidates_per_record", pairs.len() as f64 / n as f64);
        let mut lexical_pairs: Vec<(u32, u32)> = (0u32..)
            .zip(&lexical)
            .flat_map(|(i, cands)| cands.iter().map(move |&j| (i.min(j), i.max(j))))
            .collect();
        lexical_pairs.sort_unstable();
        lexical_pairs.dedup();
        let ann_new = pairs.len().saturating_sub(lexical_pairs.len());
        l.insert(
            "block.ann_new_share",
            ann_new as f64 / pairs.len().max(1) as f64,
        );
        let unattributed = layers::fill_shares(&times, wall * clock.slowdown(traced_op), l);
        out.lines.push(layers::coverage_line(unattributed));
    }
    Ok(out)
}

/// `block_entities`, one stage at a time: record texts, token index,
/// lexical top-k, ANN index, ANN candidates, and the merge into a sorted,
/// deduplicated pair list. Also returns the lexical candidates.
fn staged(records: &[Entity], config: &BlockConfig) -> (Vec<(u32, u32)>, Vec<Vec<u32>>) {
    let imp = config.kernel.unwrap_or_else(kernels::active);
    let texts: Vec<String> =
        trace::timed("data", || records.iter().map(Entity::full_text).collect());
    let index = trace::timed("block.index", || {
        TokenIndex::build(
            &texts,
            config.max_df_frac,
            config.min_df_cutoff,
            config.threads,
        )
    });
    let lexical = trace::timed("block.lexical", || {
        index.top_candidates(config.lexical_k, config.threads)
    });
    let ann = if config.ann.tables == 0 {
        Vec::new()
    } else {
        let ann_index = trace::timed("block.ann_index", || {
            AnnIndex::build(
                index.vocab(),
                index.all_record_tokens(),
                &config.ann,
                imp,
                config.threads,
            )
        });
        let ann = trace::timed("block.ann", || ann_index.candidates(imp, config.threads));
        trace::timed("block.ann_index", || drop(ann_index));
        ann
    };
    trace::timed("block.index", || drop(index));
    let pairs = trace::timed("block.merge", || {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, cands) in lexical.iter().enumerate() {
            let i = i as u32;
            pairs.extend(cands.iter().map(|&j| (i.min(j), i.max(j))));
        }
        for (i, cands) in ann.iter().enumerate() {
            pairs.extend(cands.iter().map(|&j| (i as u32, j)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    });
    (pairs, lexical)
}
