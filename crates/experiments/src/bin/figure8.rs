//! Figure 8 — F1 after removing the k most relevant (MoRF), least relevant
//! (LeRF) or random decision units from every test record.
//!
//! Expected shape: MoRF collapses the F1 (up to −60% in the paper), LeRF
//! barely moves it, Random sits in between.

use serde::Serialize;
use wym_experiments::{fit_wym, fmt3, print_table, HarnessOpts};
use wym_explain::perturb::removal_curves;

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    strategy: String,
    k: Vec<usize>,
    f1: Vec<f32>,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let k_max = 5usize;
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[figure8] {}", dataset.name);
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        // Perturbing re-runs the full pipeline per record per k: cap the slice.
        let sample: Vec<_> =
            run.test.iter().take(if opts.full { usize::MAX } else { 120 }).cloned().collect();
        for (strategy, curve) in removal_curves(&run.model, &sample, k_max, opts.seed) {
            rows.push(
                std::iter::once(format!("{} / {}", dataset.name, strategy.as_str()))
                    .chain(curve.iter().map(|v| fmt3(*v)))
                    .collect::<Vec<_>>(),
            );
            rows_json.push(Row {
                dataset: dataset.name.clone(),
                strategy: strategy.as_str().to_string(),
                k: (0..=k_max).collect(),
                f1: curve,
            });
        }
    }
    print_table(
        "Figure 8 — F1 after removing k units (MoRF / LeRF / Random)",
        &["Dataset / strategy", "k=0", "k=1", "k=2", "k=3", "k=4", "k=5"],
        &rows,
    );
    opts.save_json("figure8", &rows_json);
    opts.flush_obs("figure8");
}
