//! Figure 4 — average distribution of paired/unpaired decision units per
//! dataset, split by match and non-match records.
//!
//! Expected shape (paper §5): non-matching records carry more units overall
//! and more unpaired than paired; T-AB stands out with a large number of
//! unpaired units caused by periphrasis.

use serde::Serialize;
use wym_core::{discover_units, DiscoveryConfig, TokenizedRecord};
use wym_embed::Embedder;
use wym_experiments::{print_table, HarnessOpts};
use wym_tokenize::Tokenizer;

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    match_paired: f32,
    match_unpaired: f32,
    non_match_paired: f32,
    non_match_unpaired: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let tokenizer = Tokenizer::default();
    let discovery = DiscoveryConfig::default();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        // Unit statistics need no training: a static embedder suffices and
        // keeps this binary fast even at --full.
        let embedder = Embedder::new_static(64, opts.seed);
        let mut sums = [[0.0f64; 2]; 2]; // [label][paired]
        let mut counts = [0usize; 2];
        for pair in &dataset.pairs {
            let rec = TokenizedRecord::from_pair(pair, &tokenizer, &embedder);
            let units = discover_units(&rec, &discovery);
            let label = usize::from(pair.label);
            counts[label] += 1;
            for u in &units {
                sums[label][usize::from(u.is_paired())] += 1.0;
            }
        }
        let avg = |label: usize, paired: usize| {
            if counts[label] == 0 {
                0.0
            } else {
                (sums[label][paired] / counts[label] as f64) as f32
            }
        };
        let row = Row {
            dataset: dataset.name.clone(),
            match_paired: avg(1, 1),
            match_unpaired: avg(1, 0),
            non_match_paired: avg(0, 1),
            non_match_unpaired: avg(0, 0),
        };
        rows.push(vec![
            row.dataset.clone(),
            format!("{:.1}", row.match_paired),
            format!("{:.1}", row.match_unpaired),
            format!("{:.1}", row.non_match_paired),
            format!("{:.1}", row.non_match_unpaired),
        ]);
        rows_json.push(row);
    }
    print_table(
        "Figure 4 — average decision units per record",
        &["Dataset", "match paired", "match unpaired", "non-match paired", "non-match unpaired"],
        &rows,
    );
    opts.save_json("figure4", &rows_json);
    opts.flush_obs("figure4");
}
