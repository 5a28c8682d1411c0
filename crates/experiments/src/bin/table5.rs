//! Table 5 — test F1 of every pool classifier on every dataset, with the
//! per-dataset and per-classifier means and standard deviations.
//!
//! The pipeline (embedder, unit discovery, relevance scorer, feature
//! engineering) is fitted once per dataset; each classifier then trains on
//! the same engineered features, exactly as WYM's pool does internally.

use serde::Serialize;
use wym_core::features::featurize;
use wym_experiments::{fit_wym, fmt3, print_table, HarnessOpts};
use wym_linalg::Matrix;
use wym_ml::{f1_score, ClassifierKind, StandardScaler};

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    f1: Vec<f32>,
    mean: f32,
    std: f32,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let kinds = ClassifierKind::ALL;
    let mut rows_json: Vec<Row> = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[table5] {}", dataset.name);
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let specs = run.model.matcher().specs().to_vec();

        // Engineered features for every split from the fitted pipeline.
        let build = |idx: &[usize]| {
            let mut x = Matrix::zeros(0, specs.len());
            let mut y = Vec::with_capacity(idx.len());
            for &i in idx {
                let proc = run.model.process(&run.dataset.pairs[i]);
                x.push_row(&featurize(&specs, &proc.units, &proc.relevances));
                y.push(u8::from(run.dataset.pairs[i].label));
            }
            (x, y)
        };
        let (x_train, y_train) = build(
            &run.split.train.iter().chain(&run.split.val).copied().collect::<Vec<_>>(),
        );
        let (x_test, y_test) = build(&run.split.test);
        let (scaler, xs_train) = StandardScaler::fit_transform(&x_train);
        let xs_test = scaler.transform(&x_test);

        let mut f1 = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let mut model = kind.build(opts.seed);
            model.fit(&xs_train, &y_train);
            f1.push(f1_score(&model.predict(&xs_test), &y_test));
        }
        let mean = f1.iter().sum::<f32>() / f1.len() as f32;
        let std = (f1.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / f1.len() as f32).sqrt();
        let best = f1.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        rows.push(
            std::iter::once(dataset.name.clone())
                .chain(f1.iter().map(|&v| {
                    if (v - best).abs() < 1e-6 {
                        format!("**{}**", fmt3(v))
                    } else {
                        fmt3(v)
                    }
                }))
                .chain([fmt3(mean), format!("{std:.3}")])
                .collect(),
        );
        rows_json.push(Row { dataset: dataset.name.clone(), f1, mean, std });
    }

    // Per-classifier average and SD rows.
    if !rows_json.is_empty() {
        let n = rows_json.len() as f32;
        let mut avg = vec!["Avg.".to_string()];
        let mut sd = vec!["S.D.".to_string()];
        for k in 0..kinds.len() {
            let m = rows_json.iter().map(|r| r.f1[k]).sum::<f32>() / n;
            let s =
                (rows_json.iter().map(|r| (r.f1[k] - m).powi(2)).sum::<f32>() / n).sqrt();
            avg.push(fmt3(m));
            sd.push(format!("{s:.3}"));
        }
        avg.extend([String::new(), String::new()]);
        sd.extend([String::new(), String::new()]);
        rows.push(avg);
        rows.push(sd);
    }

    let mut headers = vec!["Dataset"];
    headers.extend(kinds.iter().map(|k| k.short_name()));
    headers.extend(["Avg.", "S.D."]);
    print_table("Table 5 — classifier pool (test F1; best per dataset in bold)", &headers, &rows);
    opts.save_json("table5", &rows_json);
    opts.flush_obs("table5");
}
