//! Table 4 — component ablations: F1 when swapping the implementation of
//! each WYM component.
//!
//! Columns (matching the paper):
//! * **WYM** — siamese embeddings, neural scorer, full features;
//! * Decision Unit Generator: **j-w dist.** (Jaro–Winkler pairing),
//!   **BERT-pt** (static embeddings), **BERT-ft** (fine-tuned embeddings);
//! * Scorer: **bin. scr.** (1/0), **cos. sim.** (raw cosine),
//!   **bin j-w** (Jaro–Winkler pairing + binary scorer);
//! * Matcher: **smp. feat.** (the simplified 6-feature set).

use serde::Serialize;
use wym_core::pairing::PairingSim;
use wym_core::scorer::ScorerKind;
use wym_core::WymConfig;
use wym_embed::EmbedderKind;
use wym_experiments::{fit_wym, fmt3, print_table, ranks_desc, HarnessOpts};

wym_obs::install_tracking_alloc!();

const VARIANTS: [&str; 8] =
    ["WYM", "j-w dist.", "BERT-pt", "BERT-ft", "bin. scr.", "cos. sim.", "bin j-w", "smp. feat."];

fn variant_config(base: WymConfig, name: &str) -> WymConfig {
    let mut cfg = base;
    // Jaro–Winkler similarities concentrate near 1; the pairing thresholds
    // shift accordingly.
    let jw = |cfg: &mut WymConfig| {
        cfg.discovery.sim = PairingSim::JaroWinkler;
        cfg.discovery.theta = 0.84;
        cfg.discovery.eta = 0.88;
        cfg.discovery.epsilon = 0.90;
    };
    match name {
        "WYM" => {}
        "j-w dist." => jw(&mut cfg),
        "BERT-pt" => cfg.embedder_kind = EmbedderKind::Static,
        "BERT-ft" => cfg.embedder_kind = EmbedderKind::FineTuned,
        "bin. scr." => cfg.scorer.kind = ScorerKind::Binary,
        "cos. sim." => cfg.scorer.kind = ScorerKind::CosineSim,
        "bin j-w" => {
            jw(&mut cfg);
            cfg.scorer.kind = ScorerKind::Binary;
        }
        "smp. feat." => cfg.matcher.simplified_features = true,
        other => panic!("unknown variant {other}"),
    }
    cfg
}

#[derive(Serialize)]
struct Row {
    dataset: String,
    variants: Vec<String>,
    f1: Vec<f32>,
    ranks: Vec<usize>,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows_json: Vec<Row> = Vec::new();
    let mut rows = Vec::new();
    for dataset in opts.datasets() {
        eprintln!("[table4] {}", dataset.name);
        let mut f1 = Vec::with_capacity(VARIANTS.len());
        for name in VARIANTS {
            let cfg = variant_config(opts.wym_config(), name);
            let run = fit_wym(&dataset, cfg, opts.seed);
            f1.push(run.model.f1_on(&run.test));
        }
        let ranks = ranks_desc(&f1);
        rows.push(
            std::iter::once(dataset.name.clone())
                .chain(f1.iter().zip(&ranks).map(|(v, r)| format!("{} ({r})", fmt3(*v))))
                .collect(),
        );
        rows_json.push(Row {
            dataset: dataset.name.clone(),
            variants: VARIANTS.iter().map(|s| s.to_string()).collect(),
            f1,
            ranks,
        });
    }

    // AVG row.
    if !rows_json.is_empty() {
        let n = rows_json.len() as f32;
        let mut avg_row = vec!["AVG".to_string()];
        for k in 0..VARIANTS.len() {
            let mean_f1 = rows_json.iter().map(|r| r.f1[k]).sum::<f32>() / n;
            let mean_rank = rows_json.iter().map(|r| r.ranks[k] as f32).sum::<f32>() / n;
            avg_row.push(format!("{:.2} ({:.1})", mean_f1, mean_rank));
        }
        rows.push(avg_row);
    }

    let headers: Vec<&str> = std::iter::once("Dataset").chain(VARIANTS).collect();
    print_table("Table 4 — component ablations (F1, rank in parentheses)", &headers, &rows);
    opts.save_json("table4", &rows_json);
    opts.flush_obs("table4");
}
