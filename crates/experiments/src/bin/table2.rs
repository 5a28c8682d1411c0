//! Table 2 — the benchmark datasets: name, type, size, % match.
//!
//! Generates every dataset at full size (this binary ignores `--cap`; the
//! table's whole point is the official sizes) and reports the measured
//! statistics next to the paper's.

use serde::Serialize;
use wym_data::magellan;
use wym_experiments::{print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    dataset_type: String,
    full_name: String,
    size: usize,
    match_pct: f32,
    paper_size: usize,
    paper_match_pct: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for config in magellan::all_configs() {
        let dataset = magellan::generate(&config, opts.seed);
        let row = Row {
            dataset: config.name.to_string(),
            dataset_type: dataset.dataset_type.as_str().to_string(),
            full_name: config.full_name.to_string(),
            size: dataset.len(),
            match_pct: dataset.match_rate_pct(),
            paper_size: config.size,
            paper_match_pct: config.match_pct,
        };
        rows.push(vec![
            row.dataset.clone(),
            row.dataset_type.clone(),
            row.full_name.clone(),
            row.size.to_string(),
            format!("{:.2}", row.match_pct),
            row.paper_size.to_string(),
            format!("{:.2}", row.paper_match_pct),
        ]);
        rows_json.push(row);
    }
    print_table(
        "Table 2 — The Magellan Benchmark (synthetic regeneration)",
        &["Dataset", "Type", "Datasets", "Size", "% Match", "Paper size", "Paper % match"],
        &rows,
    );
    opts.save_json("table2", &rows_json);
    opts.flush_obs("table2");
}
