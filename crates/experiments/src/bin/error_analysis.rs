//! §5.1.1 error analysis: classify WYM's test errors and measure the
//! product-code confusion class, with and without the code heuristic.
//!
//! The paper: "WYM makes a large number of errors in recognizing product
//! codes … we verified an improvement of the F1 score in the T-AB dataset
//! (from 0.645 to 0.754) after the insertion of domain knowledge that
//! allows only equal product codes to belong to the same paired decision
//! units."

use serde::Serialize;
use wym_experiments::{fit_wym, fmt3, print_table, HarnessOpts};
use wym_explain::errors::analyze_errors;

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    f1_plain: f32,
    fp_plain: usize,
    fn_plain: usize,
    fp_code_confusion: usize,
    f1_with_heuristic: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json = Vec::new();
    let mut rows = Vec::new();
    // The code-heavy datasets, where the paper locates this error class.
    for dataset in opts.datasets_or(&["S-AG", "S-WA", "T-AB", "D-WA"]) {
        eprintln!("[error-analysis] {}", dataset.name);
        let plain = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let report = analyze_errors(&plain.model, &plain.test);
        let f1_plain = plain.model.f1_on(&plain.test);

        let mut cfg = opts.wym_config();
        cfg.discovery.code_heuristic = true;
        let guarded = fit_wym(&dataset, cfg, opts.seed);
        let f1_guarded = guarded.model.f1_on(&guarded.test);

        rows.push(vec![
            dataset.name.clone(),
            fmt3(f1_plain),
            report.false_positives.len().to_string(),
            report.false_negatives.len().to_string(),
            report.fp_with_code_confusion.to_string(),
            fmt3(f1_guarded),
        ]);
        rows_json.push(Row {
            dataset: dataset.name.clone(),
            f1_plain,
            fp_plain: report.false_positives.len(),
            fn_plain: report.false_negatives.len(),
            fp_code_confusion: report.fp_with_code_confusion,
            f1_with_heuristic: f1_guarded,
        });
    }
    print_table(
        "§5.1.1 — error analysis and the product-code heuristic",
        &["Dataset", "F1", "FPs", "FNs", "FPs w/ code confusion", "F1 + code heuristic"],
        &rows,
    );
    opts.save_json("error_analysis", &rows_json);
    opts.flush_obs("error_analysis");
}
