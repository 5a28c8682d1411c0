//! Table 3 — effectiveness (F1) of WYM vs DM+, AutoML, CorDEL and DITTO
//! proxies on every benchmark dataset, with per-dataset ranks, Δ%
//! columns, and the AVG row.

use serde::Serialize;
use wym_baselines::{AutoMl, BaselineMatcher, CorDel, Ditto, DmPlus};
use wym_experiments::{fit_wym, fmt3, print_table, ranks_desc, HarnessOpts};

wym_obs::install_tracking_alloc!();

#[derive(Serialize)]
struct Row {
    dataset: String,
    wym: f32,
    dm_plus: f32,
    automl: f32,
    cordel: f32,
    ditto: f32,
    ranks: Vec<usize>,
    wym_classifier: String,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json: Vec<Row> = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[table3] {} ({} pairs)", dataset.name, dataset.len());
        let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
        let wym_f1 = run.model.f1_on(&run.test);

        let mut baselines: Vec<Box<dyn BaselineMatcher>> = vec![
            Box::new(DmPlus::new(opts.seed)),
            Box::new(AutoMl::new(opts.seed)),
            Box::new(CorDel::new(opts.seed)),
            Box::new(Ditto::new(opts.seed)),
        ];
        let mut scores = vec![wym_f1];
        for b in &mut baselines {
            b.fit(&dataset, &run.split);
            scores.push(b.f1_on(&run.test));
        }
        let ranks = ranks_desc(&scores);
        let delta = |i: usize| format!("{:+.1}", (scores[0] - scores[i]) * 100.0);
        rows.push(vec![
            dataset.name.clone(),
            format!("{} ({})", fmt3(scores[0]), ranks[0]),
            format!("{} ({})", fmt3(scores[1]), ranks[1]),
            format!("{} ({})", fmt3(scores[2]), ranks[2]),
            format!("{} ({})", fmt3(scores[3]), ranks[3]),
            format!("{} ({})", fmt3(scores[4]), ranks[4]),
            delta(1),
            delta(2),
            delta(3),
            delta(4),
        ]);
        rows_json.push(Row {
            dataset: dataset.name.clone(),
            wym: scores[0],
            dm_plus: scores[1],
            automl: scores[2],
            cordel: scores[3],
            ditto: scores[4],
            ranks,
            wym_classifier: format!("{:?}", run.model.classifier()),
        });
    }

    // AVG row (scores and mean rank, as in the paper).
    let n = rows_json.len().max(1) as f32;
    let avg = |f: fn(&Row) -> f32| rows_json.iter().map(f).sum::<f32>() / n;
    let avg_rank = |i: usize| {
        rows_json.iter().map(|r| r.ranks[i] as f32).sum::<f32>() / n
    };
    rows.push(vec![
        "AVG".into(),
        format!("{} ({:.1})", fmt3(avg(|r| r.wym)), avg_rank(0)),
        format!("{} ({:.1})", fmt3(avg(|r| r.dm_plus)), avg_rank(1)),
        format!("{} ({:.1})", fmt3(avg(|r| r.automl)), avg_rank(2)),
        format!("{} ({:.1})", fmt3(avg(|r| r.cordel)), avg_rank(3)),
        format!("{} ({:.1})", fmt3(avg(|r| r.ditto)), avg_rank(4)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);

    print_table(
        "Table 3 — F1 vs comparator proxies (rank in parentheses)",
        &[
            "Dataset", "WYM", "DM+", "AutoML", "CorDEL", "DITTO", "ΔDM+ (%)", "ΔAutoML (%)",
            "ΔCorDEL (%)", "ΔDITTO (%)",
        ],
        &rows,
    );
    opts.save_json("table3", &rows_json);
    opts.flush_obs("table3");
}
