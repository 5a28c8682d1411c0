//! Figure 6 — conciseness of the explanations: Pareto analysis of the
//! cumulative |impact| carried by the top fraction of decision units.
//!
//! Paper's claim: 3% of the units already carry 18-40% of the impact; 20%
//! carry 50-83%.

use serde::Serialize;
use wym_explain::pareto::mean_shares;
use wym_experiments::{fit_wym, print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

const FRACTIONS: [f32; 6] = [0.03, 0.05, 0.10, 0.20, 0.50, 1.00];

#[derive(Serialize)]
struct Row {
    dataset: String,
    fractions: Vec<f32>,
    mean_share: Vec<f32>,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[figure6] {}", dataset.name);
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let explanations: Vec<_> =
            run.test.iter().map(|p| run.model.explain(p)).collect();
        let shares = mean_shares(&explanations, &FRACTIONS);
        rows.push(
            std::iter::once(dataset.name.clone())
                .chain(shares.iter().map(|s| format!("{:.0}%", s * 100.0)))
                .collect(),
        );
        rows_json.push(Row {
            dataset: dataset.name.clone(),
            fractions: FRACTIONS.to_vec(),
            mean_share: shares,
        });
    }
    print_table(
        "Figure 6 — cumulative impact share at top-k% of decision units",
        &["Dataset", "3%", "5%", "10%", "20%", "50%", "100%"],
        &rows,
    );
    opts.save_json("figure6", &rows_json);
    opts.flush_obs("figure6");
}
