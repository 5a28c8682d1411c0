//! Fitted-model persistence: a WYM model serialized to JSON and rehydrated
//! must reproduce its predictions and explanations exactly. Observability
//! snapshots must survive a read and rewrite byte for byte.

use serde::Value;
use wym::core::pipeline::{SavedWymModel, WymConfig, WymModel};
use wym::data::split::paper_split;
use wym::data::magellan;
use wym::embed::EmbedderKind;
use wym::ml::ClassifierKind;
use wym::nn::TrainConfig;

fn fitted() -> (WymModel, Vec<wym::data::RecordPair>) {
    let dataset = magellan::generate_by_name("S-BR", 21).unwrap().subsample(200, 0);
    let split = paper_split(&dataset, 0);
    let mut cfg = WymConfig::default().with_seed(3);
    cfg.embed_dim = 32;
    cfg.embedder_kind = EmbedderKind::Siamese; // include a trained projection
    cfg.scorer.train =
        TrainConfig { epochs: 6, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
    cfg.matcher.kinds = ClassifierKind::ALL.to_vec(); // any kind may win
    let model = WymModel::fit(&dataset, &split, cfg);
    let test = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
    (model, test)
}

#[test]
fn json_roundtrip_reproduces_predictions_and_explanations() {
    let (model, test) = fitted();
    let json = serde_json::to_string(&model.to_saved()).expect("serialize model");
    let saved: SavedWymModel = serde_json::from_str(&json).expect("deserialize model");
    let restored = WymModel::from_saved(saved);

    assert_eq!(model.classifier(), restored.classifier());
    for pair in test.iter().take(20) {
        let a = model.predict(pair);
        let b = restored.predict(pair);
        assert_eq!(a.probability, b.probability, "record {}", pair.id);
        let ea = model.explain(pair);
        let eb = restored.explain(pair);
        assert_eq!(ea.units.len(), eb.units.len());
        for (ua, ub) in ea.units.iter().zip(&eb.units) {
            assert_eq!(ua.impact, ub.impact);
            assert_eq!(ua.relevance, ub.relevance);
        }
    }
}

#[test]
fn saved_model_file_roundtrip() {
    let (model, test) = fitted();
    let path = std::env::temp_dir().join("wym_model_roundtrip.json");
    std::fs::write(&path, serde_json::to_vec(&model.to_saved()).unwrap()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let restored = WymModel::from_saved(serde_json::from_slice(&bytes).unwrap());
    assert_eq!(
        model.predict(&test[0]).probability,
        restored.predict(&test[0]).probability
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn committed_obs_baselines_rewrite_byte_for_byte() {
    use wym_obs::{JsonFileSink, Manifest, Sink, Snapshot};
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let out = std::env::temp_dir().join(format!("wym_obs_golden_{}.json", std::process::id()));
    for name in ["blocking", "decisions", "smoke", "smoke_scalar"] {
        let path = results.join(format!("OBS_baseline_{name}.json"));
        let committed = std::fs::read(&path).expect("committed baseline");
        let file: Value = serde_json::from_slice(&committed).expect("baseline parses");
        let manifest = Manifest::from_file_json(&file).expect("baseline carries a manifest");
        let snap = Snapshot::from_json(&file).expect("baseline is a snapshot");
        JsonFileSink::new(&out).with_manifest(manifest).emit(&snap).expect("rewrite");
        let rewritten = std::fs::read(&out).unwrap();
        assert!(rewritten == committed, "{} changed on rewrite", path.display());
    }
    let _ = std::fs::remove_file(&out);
}
