//! Extension experiment (paper §6 future work): do decision units help a
//! DL-style EM system? Compares the DITTO proxy against the same proxy
//! extended with WYM unit-summary features.

use serde::Serialize;
use wym_baselines::{BaselineMatcher, Ditto, HybridUnits};
use wym_data::split::paper_split;
use wym_experiments::{fmt3, print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    ditto: f32,
    hybrid: f32,
    delta_pct: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[hybrid-units] {}", dataset.name);
        let split = paper_split(&dataset, opts.seed);
        let test: Vec<_> = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let mut ditto = Ditto::new(opts.seed);
        ditto.fit(&dataset, &split);
        let mut hybrid = HybridUnits::new(opts.seed);
        hybrid.fit(&dataset, &split);
        let fd = ditto.f1_on(&test);
        let fh = hybrid.f1_on(&test);
        rows.push(vec![
            dataset.name.clone(),
            fmt3(fd),
            fmt3(fh),
            format!("{:+.1}", (fh - fd) * 100.0),
        ]);
        rows_json.push(Row {
            dataset: dataset.name.clone(),
            ditto: fd,
            hybrid: fh,
            delta_pct: (fh - fd) * 100.0,
        });
    }
    print_table(
        "Extension — decision units as features for a DL-style matcher",
        &["Dataset", "DITTO", "DITTO+units", "Δ (%)"],
        &rows,
    );
    opts.save_json("hybrid_units", &rows_json);
    opts.flush_obs("hybrid_units");
}
