//! Extension experiment (not a paper table): sweep of the pairing
//! thresholds θ/η/ε around the paper's setting (0.6 / 0.65 / 0.7).
//!
//! DESIGN.md lists this as an ablation of a design choice the paper fixes
//! "experimentally": the claim that increasing thresholds across the three
//! search spaces beats uniform or decreasing ones.

use serde::Serialize;
use wym_experiments::{fit_wym, fmt3, print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

const SWEEPS: [(&str, f32, f32, f32); 5] = [
    ("paper (0.60/0.65/0.70)", 0.60, 0.65, 0.70),
    ("uniform low (0.50)", 0.50, 0.50, 0.50),
    ("uniform high (0.80)", 0.80, 0.80, 0.80),
    ("decreasing (0.70/0.65/0.60)", 0.70, 0.65, 0.60),
    ("strict (0.75/0.80/0.85)", 0.75, 0.80, 0.85),
];

#[derive(Serialize)]
struct Row {
    dataset: String,
    setting: String,
    theta: f32,
    eta: f32,
    epsilon: f32,
    f1: f32,
}

fn main() {
    let mut opts = HarnessOpts::from_args();
    // A sweep over two representative datasets (one clean, one dirty)
    // unless the caller selects others.
    if opts.datasets.is_none() {
        opts.datasets = Some(vec!["S-BR".into(), "D-WA".into()]);
    }
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        for (name, theta, eta, epsilon) in SWEEPS {
            eprintln!("[threshold-sweep] {} {}", dataset.name, name);
            let mut cfg = opts.wym_config();
            cfg.discovery.theta = theta;
            cfg.discovery.eta = eta;
            cfg.discovery.epsilon = epsilon;
            let run = fit_wym(&dataset, cfg, opts.seed);
            let f1 = run.model.f1_on(&run.test);
            rows.push(vec![dataset.name.clone(), name.to_string(), fmt3(f1)]);
            rows_json.push(Row {
                dataset: dataset.name.clone(),
                setting: name.to_string(),
                theta,
                eta,
                epsilon,
                f1,
            });
        }
    }
    print_table(
        "Threshold sweep — θ/η/ε vs F1",
        &["Dataset", "Setting", "F1"],
        &rows,
    );
    opts.save_json("threshold_sweep", &rows_json);
    opts.flush_obs("threshold_sweep");
}
