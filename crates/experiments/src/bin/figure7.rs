//! Figure 7 — sufficiency (post-hoc accuracy, Eq. 4): can the top-v units
//! alone reproduce the model's prediction?
//!
//! Four settings, as in the paper: WYM explained by its own impacts,
//! WYM explained by LIME, the DITTO proxy explained by LIME, and the DITTO
//! proxy explained by LEMON (single-token granularity).

use serde::Serialize;
use wym_baselines::{BaselineMatcher, Ditto};
use wym_experiments::{fit_wym, fmt3, print_table, HarnessOpts};
use wym_explain::sufficiency::{post_hoc_accuracy_tokens_multi, post_hoc_accuracy_wym_multi};
use wym_explain::{LemonLite, LimeText};

wym_obs::install_tracking_alloc!();

const VS: [usize; 5] = [1, 2, 3, 4, 5];

#[derive(Serialize)]
struct Row {
    dataset: String,
    setting: String,
    v: Vec<usize>,
    accuracy: Vec<f32>,
}

fn main() {
    let opts = HarnessOpts::from_args();
    // Perturbation explainers call the model hundreds of times per record;
    // cap the explained sample.
    let n_records = if opts.full { 100 } else { 30 };
    let lime = LimeText { n_samples: if opts.full { 200 } else { 100 }, seed: opts.seed, ..LimeText::default() };
    let lemon = LemonLite {
        n_samples: if opts.full { 150 } else { 80 },
        seed: opts.seed,
        ..LemonLite::default()
    };

    let mut rows_json: Vec<Row> = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[figure7] {}", dataset.name);
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let sample: Vec<_> = run.test.iter().take(n_records).cloned().collect();

        let mut ditto = Ditto::new(opts.seed);
        ditto.fit(&dataset, &run.split);

        let mut push = |setting: &str, accuracy: Vec<f32>| {
            rows.push(
                std::iter::once(format!("{} / {}", dataset.name, setting))
                    .chain(accuracy.iter().map(|a| fmt3(*a)))
                    .collect::<Vec<_>>(),
            );
            rows_json.push(Row {
                dataset: dataset.name.clone(),
                setting: setting.to_string(),
                v: VS.to_vec(),
                accuracy,
            });
        };

        push("WYM+WYM", post_hoc_accuracy_wym_multi(&run.model, &sample, &VS));
        push(
            "WYM+LIME",
            post_hoc_accuracy_tokens_multi(&run.model, &sample, &VS, |p| {
                lime.explain(&run.model, p)
            }),
        );
        push(
            "DITTO+LIME",
            post_hoc_accuracy_tokens_multi(&ditto, &sample, &VS, |p| lime.explain(&ditto, p)),
        );
        push(
            "DITTO+LEMON",
            post_hoc_accuracy_tokens_multi(&ditto, &sample, &VS, |p| lemon.explain(&ditto, p)),
        );
    }
    print_table(
        "Figure 7 — post-hoc accuracy at top-v units/words",
        &["Dataset / setting", "v=1", "v=2", "v=3", "v=4", "v=5"],
        &rows,
    );
    opts.save_json("figure7", &rows_json);
    opts.flush_obs("figure7");
}
