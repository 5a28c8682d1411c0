//! End-to-end deduplication of two raw entity tables: blocking → WYM
//! matching → explained match report.
//!
//! The paper's benchmarks start from pre-blocked pairs; this example shows
//! the full workflow a practitioner runs on raw tables: generate candidate
//! pairs with `wym-block` (a TF-IDF token index plus an ANN recall pass)
//! over both tables at once, keep the pairs that cross from one table to
//! the other, score them with a fitted WYM model, and inspect the
//! explanations of the accepted matches.
//!
//! Run with:
//! ```sh
//! cargo run --release --example dedup_tables
//! ```

use wym::core::pipeline::{WymConfig, WymModel};
use wym::data::split::paper_split;
use wym::data::{magellan, Entity, RecordPair};
use wym::ml::ClassifierKind;
use wym::nn::TrainConfig;

fn main() {
    // 1. Train WYM on labeled pairs (the supervised step).
    let train_data =
        magellan::generate_by_name("S-FZ", 11).expect("known dataset").subsample(500, 0);
    let split = paper_split(&train_data, 0);
    let mut cfg = WymConfig::default().with_seed(11);
    cfg.scorer.train = TrainConfig { epochs: 12, batch_size: 256, ..TrainConfig::default() };
    cfg.matcher.kinds =
        vec![ClassifierKind::LogisticRegression, ClassifierKind::GradientBoosting];
    let model = WymModel::fit(&train_data, &split, cfg);
    println!("trained on {} labeled pairs", split.train.len() + split.val.len());

    // 2. Build two raw "tables" from a fresh slice of the same domain:
    //    left/right catalog dumps with gold alignment by construction.
    let fresh = magellan::generate_by_name("S-FZ", 99).expect("known dataset").subsample(150, 0);
    let left_table: Vec<Entity> = fresh.pairs.iter().map(|p| p.left.clone()).collect();
    let right_table: Vec<Entity> = fresh.pairs.iter().map(|p| p.right.clone()).collect();
    let gold: Vec<(usize, usize)> = fresh
        .pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.label)
        .map(|(i, _)| (i, i))
        .collect();

    // 3. Blocking: candidate pairs of the two tables stacked into one,
    //    where right entity `j` is record `left_table.len() + j`. A pair
    //    `(i, j)` with `i < j` crosses the tables when only `i` is a left
    //    entity; pairs within one table are dropped.
    let n_left = left_table.len();
    let stacked: Vec<Entity> = left_table.iter().chain(&right_table).cloned().collect();
    let blocked = wym_block::block_entities(&stacked, &wym_block::BlockConfig::default());
    let candidates: Vec<(usize, usize)> = blocked
        .pairs
        .iter()
        .map(|&(i, j)| (i as usize, j as usize))
        .filter(|&(i, j)| i < n_left && j >= n_left)
        .map(|(i, j)| (i, j - n_left))
        .collect();
    let stacked_gold: Vec<(u32, u32)> =
        gold.iter().map(|&(i, j)| (i as u32, (n_left + j) as u32)).collect();
    let recall = wym_block::recall(&blocked.pairs, &stacked_gold);
    println!(
        "blocking: {} candidates out of {} possible pairs ({:.1}% reduction), gold recall {:.2}",
        candidates.len(),
        left_table.len() * right_table.len(),
        100.0 * (1.0 - candidates.len() as f64 / (left_table.len() * right_table.len()) as f64),
        recall
    );

    // 4. Match the candidates and report.
    let mut accepted = Vec::new();
    for (id, &(i, j)) in candidates.iter().enumerate() {
        let pair = RecordPair {
            id: id as u32,
            label: false, // unknown at inference time
            left: left_table[i].clone(),
            right: right_table[j].clone(),
        };
        let p = model.predict(&pair);
        if p.label {
            accepted.push((i, j, p.probability, pair));
        }
    }
    let correct = accepted.iter().filter(|(i, j, _, _)| gold.contains(&(*i, *j))).count();
    println!(
        "matcher accepted {} candidates; {} / {} gold matches found",
        accepted.len(),
        correct,
        gold.len()
    );

    // 5. Explain the most and least confident accepted matches.
    accepted.sort_by(|a, b| b.2.total_cmp(&a.2));
    if let Some((_, _, _, pair)) = accepted.first() {
        println!("\n--- most confident match ---\n{}", model.explain(pair));
    }
    if let Some((_, _, _, pair)) = accepted.last() {
        println!("--- least confident match ---\n{}", model.explain(pair));
    }
}
