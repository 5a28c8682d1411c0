//! §5.4 proxy — automated readability comparison of decision-unit vs
//! feature-based explanations.
//!
//! The paper's 15-person study cannot run without human subjects; this
//! binary quantifies the property the raters preferred: decision-unit
//! explanations are smaller and collapse duplicated terms into single
//! scored elements. See DESIGN.md §2.

use serde::Serialize;
use wym_experiments::{fit_wym, print_table, HarnessOpts};
use wym_explain::readability::{mean_readability, readability};

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    mean_tokens: f32,
    mean_units: f32,
    compression_pct: f32,
    mean_duplicated_terms: f32,
    mean_deduplicated_by_units: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[user-study-proxy] {}", dataset.name);
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let sample: Vec<_> = run.test.iter().take(100).cloned().collect();
        let (mean_tokens, mean_units, compression) = mean_readability(&run.model, &sample);
        let n = sample.len().max(1) as f32;
        let stats: Vec<_> = sample.iter().map(|p| readability(&run.model, p)).collect();
        let dup = stats.iter().map(|s| s.duplicated_terms as f32).sum::<f32>() / n;
        let dedup =
            stats.iter().map(|s| s.deduplicated_by_units as f32).sum::<f32>() / n;
        let row = Row {
            dataset: dataset.name.clone(),
            mean_tokens,
            mean_units,
            compression_pct: compression * 100.0,
            mean_duplicated_terms: dup,
            mean_deduplicated_by_units: dedup,
        };
        rows.push(vec![
            row.dataset.clone(),
            format!("{:.1}", row.mean_tokens),
            format!("{:.1}", row.mean_units),
            format!("{:.0}%", row.compression_pct),
            format!("{:.1}", row.mean_duplicated_terms),
            format!("{:.1}", row.mean_deduplicated_by_units),
        ]);
        rows_json.push(row);
    }
    print_table(
        "§5.4 proxy — explanation readability (decision units vs token features)",
        &[
            "Dataset",
            "tokens/expl",
            "units/expl",
            "size reduction",
            "duplicated terms",
            "deduplicated by units",
        ],
        &rows,
    );
    opts.save_json("user_study_proxy", &rows_json);
    opts.flush_obs("user_study_proxy");
}
