//! Figure 5 — learning curves: F1 as the training set grows
//! (500, 1K, 2K, full), using pre-trained (static) embeddings as the paper
//! does for this experiment.
//!
//! The paper omits S-BR, S-IA, S-FZ and D-IA because their training sets
//! are smaller than the sweep; we do the same.

use serde::Serialize;
use wym_core::WymModel;
use wym_data::split::paper_split;
use wym_embed::EmbedderKind;
use wym_experiments::{fmt3, print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

const SKIP: [&str; 4] = ["S-BR", "S-IA", "S-FZ", "D-IA"];

#[derive(Serialize)]
struct Row {
    dataset: String,
    sizes: Vec<usize>,
    f1: Vec<f32>,
}

fn main() {
    let mut opts = HarnessOpts::from_args();
    // The sweep needs at least 2K training records: keep ≥ 3400 pairs so the
    // 60% train split holds 2K (unless the caller already asked for more).
    if !opts.full && opts.cap < 3400 {
        opts.cap = 3400;
    }
    let sweep = [500usize, 1000, 2000, usize::MAX];

    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        if SKIP.contains(&dataset.name.as_str()) {
            continue;
        }
        eprintln!("[figure5] {}", dataset.name);
        let split = paper_split(&dataset, opts.seed);
        let test: Vec<_> = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let mut cfg = opts.wym_config();
        cfg.embedder_kind = EmbedderKind::Static; // per the paper's setup
        let mut sizes = Vec::new();
        let mut f1s = Vec::new();
        for &n in &sweep {
            let mut sub = split.clone();
            if n < sub.train.len() {
                // Deterministic stratified prefix: the split is shuffled
                // already, so a truncation is a stratified subsample.
                sub.train.truncate(n);
            }
            let model = WymModel::fit(&dataset, &sub, cfg.clone());
            sizes.push(sub.train.len());
            f1s.push(model.f1_on(&test));
        }
        rows.push(
            std::iter::once(dataset.name.clone())
                .chain(sizes.iter().zip(&f1s).map(|(n, f)| format!("{} @ {n}", fmt3(*f))))
                .collect(),
        );
        rows_json.push(Row { dataset: dataset.name.clone(), sizes, f1: f1s });
    }
    print_table(
        "Figure 5 — learning curves (F1 @ train size, static embeddings)",
        &["Dataset", "500", "1K", "2K", "full"],
        &rows,
    );
    opts.save_json("figure5", &rows_json);
    opts.flush_obs("figure5");
}
