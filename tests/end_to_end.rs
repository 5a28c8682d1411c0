//! Cross-crate integration tests: the full WYM pipeline driven through the
//! umbrella crate's public API, the way a downstream user would.

use wym::core::pipeline::{EmPredictor, WymConfig, WymModel};
use wym::core::scorer::ScorerKind;
use wym::data::split::paper_split;
use wym::data::{magellan, Entity, RecordPair};
use wym::embed::EmbedderKind;
use wym::ml::ClassifierKind;
use wym::nn::TrainConfig;

fn fast_config(seed: u64) -> WymConfig {
    let mut cfg = WymConfig::default().with_seed(seed);
    cfg.embed_dim = 32;
    cfg.embedder_kind = EmbedderKind::Static;
    cfg.scorer.train =
        TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
    cfg.matcher.kinds =
        vec![ClassifierKind::LogisticRegression, ClassifierKind::GradientBoosting];
    cfg
}

#[test]
fn full_pipeline_on_three_dataset_families() {
    // Structured, textual and dirty families all flow through the same API.
    for (name, min_f1) in [("S-FZ", 0.8), ("S-IA", 0.6), ("D-IA", 0.5)] {
        let dataset = magellan::generate_by_name(name, 1).unwrap().subsample(250, 0);
        let split = paper_split(&dataset, 0);
        let model = WymModel::fit(&dataset, &split, fast_config(1));
        let test: Vec<RecordPair> =
            split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        let f1 = model.f1_on(&test);
        assert!(f1 >= min_f1, "{name}: F1 {f1} below {min_f1}");
    }
}

#[test]
fn explanation_is_complete_and_consistent_with_prediction() {
    let dataset = magellan::generate_by_name("S-BR", 2).unwrap().subsample(250, 0);
    let split = paper_split(&dataset, 0);
    let model = WymModel::fit(&dataset, &split, fast_config(2));
    for &i in split.test.iter().take(20) {
        let pair = &dataset.pairs[i];
        let proc = model.process(pair);
        let prediction = model.predict_processed(&proc);
        let ex = model.explain_processed(&proc);
        // One explained unit per decision unit, same prediction.
        assert_eq!(ex.units.len(), proc.units.len());
        assert_eq!(ex.prediction, prediction.label);
        assert!((ex.probability - prediction.probability).abs() < 1e-6);
        // Sorted by |impact|.
        for w in ex.units.windows(2) {
            assert!(w[0].impact.abs() >= w[1].impact.abs());
        }
        // EmPredictor trait agrees with the typed API.
        assert!((model.proba(pair) - prediction.probability).abs() < 1e-6);
    }
}

#[test]
fn every_token_is_covered_by_exactly_one_unit_side() {
    use wym::core::algorithm1::check_constraints;
    let dataset = magellan::generate_by_name("D-WA", 3).unwrap().subsample(150, 0);
    let split = paper_split(&dataset, 0);
    let model = WymModel::fit(&dataset, &split, fast_config(3));
    for &i in split.test.iter().take(30) {
        let proc = model.process(&dataset.pairs[i]);
        check_constraints(&proc.record, &proc.units)
            .unwrap_or_else(|e| panic!("record {i}: {e}"));
    }
}

#[test]
fn relevance_scores_live_in_unit_interval_for_all_scorers() {
    let dataset = magellan::generate_by_name("S-FZ", 4).unwrap().subsample(200, 0);
    let split = paper_split(&dataset, 0);
    for kind in [ScorerKind::Neural, ScorerKind::Binary, ScorerKind::CosineSim] {
        let mut cfg = fast_config(4);
        cfg.scorer.kind = kind;
        let model = WymModel::fit(&dataset, &split, cfg);
        for &i in split.test.iter().take(10) {
            let proc = model.process(&dataset.pairs[i]);
            for &r in &proc.relevances {
                assert!((-1.0..=1.0).contains(&r), "{kind:?}: relevance {r}");
            }
        }
    }
}

#[test]
fn model_handles_degenerate_inputs() {
    let dataset = magellan::generate_by_name("S-FZ", 5).unwrap().subsample(200, 0);
    let split = paper_split(&dataset, 0);
    let model = WymModel::fit(&dataset, &split, fast_config(5));
    // Fully empty record.
    let empty = RecordPair {
        id: 0,
        label: false,
        left: Entity::new(vec!["", "", "", "", ""]),
        right: Entity::new(vec!["", "", "", "", ""]),
    };
    let p = model.predict(&empty);
    assert!(p.probability.is_finite());
    let ex = model.explain(&empty);
    assert!(ex.units.is_empty());
    // One-sided record.
    let one_sided = RecordPair {
        id: 1,
        label: false,
        left: Entity::new(vec!["golden dragon", "12 main st", "boston", "555-123-4567", "thai"]),
        right: Entity::new(vec!["", "", "", "", ""]),
    };
    let ex = model.explain(&one_sided);
    assert!(!ex.units.is_empty());
    assert!(ex.units.iter().all(|u| !u.paired));
}

#[test]
fn seeds_reproduce_models_exactly() {
    let dataset = magellan::generate_by_name("S-BR", 6).unwrap().subsample(200, 0);
    let split = paper_split(&dataset, 0);
    let m1 = WymModel::fit(&dataset, &split, fast_config(9));
    let m2 = WymModel::fit(&dataset, &split, fast_config(9));
    for &i in split.test.iter().take(15) {
        let p1 = m1.predict(&dataset.pairs[i]);
        let p2 = m2.predict(&dataset.pairs[i]);
        assert_eq!(p1.probability, p2.probability, "record {i}");
    }
}

#[test]
fn csv_roundtrip_preserves_model_inputs() {
    let dataset = magellan::generate_by_name("S-IA", 7).unwrap().subsample(100, 0);
    let text = wym::data::csv::to_csv_string(&dataset);
    let back =
        wym::data::csv::from_csv_string(&text, &dataset.name, dataset.dataset_type).unwrap();
    assert_eq!(dataset.pairs, back.pairs);
    assert_eq!(dataset.schema, back.schema);
}

#[test]
fn parallel_processing_matches_serial() {
    let dataset = magellan::generate_by_name("S-FZ", 8).unwrap().subsample(120, 0);
    let split = paper_split(&dataset, 0);
    let model = WymModel::fit(&dataset, &split, fast_config(8));
    let pairs: Vec<RecordPair> = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
    let parallel = model.process_batch(&pairs, 4);
    assert_eq!(parallel.len(), pairs.len());
    for (p, pair) in parallel.iter().zip(&pairs) {
        let serial = model.process(pair);
        assert_eq!(serial.units, p.units);
        assert_eq!(serial.relevances, p.relevances);
    }
}

#[test]
fn unit_rules_adjust_relevances_in_the_pipeline() {
    use wym::core::UnitRule;
    let dataset = magellan::generate_by_name("S-WA", 9).unwrap().subsample(200, 0);
    let split = paper_split(&dataset, 0);
    let mut cfg = fast_config(10);
    cfg.rules = vec![
        UnitRule::EqualCodesAreMatches { score: 1.0 },
        UnitRule::UnpairedCodesAreNonMatches { score: -1.0 },
    ];
    let ruled = WymModel::fit(&dataset, &split, cfg);
    let plain = WymModel::fit(&dataset, &split, fast_config(10));

    // Find a record with an equal-code paired unit and verify the rule
    // pinned its relevance to exactly 1.0 in the ruled model.
    let mut checked = false;
    for &i in split.test.iter() {
        let proc = ruled.process(&dataset.pairs[i]);
        for (u, &r) in proc.units.iter().zip(&proc.relevances) {
            let (l, rtext) = u.texts(&proc.record);
            if u.is_paired() && l == rtext && wym::strsim::looks_like_code(l) {
                assert_eq!(r, 1.0, "rule must pin equal-code relevance");
                checked = true;
            }
        }
        if checked {
            break;
        }
    }
    assert!(checked, "expected at least one equal-code unit in the test split");

    // Both models still work end to end.
    let test: Vec<RecordPair> = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
    assert!(ruled.f1_on(&test) > 0.5);
    assert!(plain.f1_on(&test) > 0.5);
}
