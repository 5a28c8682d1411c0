//! Fitted-model persistence: a WYM model saved as a WYMA artifact and
//! loaded back must reproduce its predictions and explanations exactly,
//! and an artifact whose head was edited must be refused with an error
//! naming the field. Observability snapshots must survive a read and
//! rewrite byte for byte.

use serde::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wym::artifact::model::{SECTION_HEAD, TENSOR_PREFIX};
use wym::artifact::{add_manifest, load_model, save_model, ArtifactWriter, LoadMode};
use wym::core::pipeline::{WymConfig, WymModel};
use wym::core::state::WymModelState;
use wym::data::magellan;
use wym::data::split::paper_split;
use wym::embed::EmbedderKind;
use wym::ml::ClassifierKind;
use wym::nn::TrainConfig;
use wym_obs::Manifest;

/// A scratch path unique to this test process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wym-serialization-{}-{name}", std::process::id()))
}

fn manifest() -> Manifest {
    Manifest::new("serialization-tests").with_seed(3)
}

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
fn saved_model_file_roundtrip() {
    let (model, test) = fitted();
    let path = scratch("roundtrip.wyma");
    save_model(&path, &model, &manifest()).expect("save");
    for mode in [LoadMode::Read, LoadMode::Mmap] {
        let restored = load_model(&path, mode).expect("load").model;
        assert_eq!(model.classifier(), restored.classifier());
        for pair in test.iter().take(20) {
            let a = model.predict(pair);
            let b = restored.predict(pair);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "record {}", pair.id);
            let ea = model.explain(pair);
            let eb = restored.explain(pair);
            assert_eq!(ea.units.len(), eb.units.len());
            for (ua, ub) in ea.units.iter().zip(&eb.units) {
                assert_eq!(ua.impact.to_bits(), ub.impact.to_bits(), "record {}", pair.id);
                assert_eq!(ua.relevance.to_bits(), ub.relevance.to_bits(), "record {}", pair.id);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// `model` written as an artifact whose head is its JSON head rewritten
/// by `edit`, then loaded: the error. The writer computes every checksum,
/// so only the head is hostile.
fn load_edited(model: &WymModel, name: &str, edit: impl FnOnce(&str) -> String) -> String {
    let state = WymModelState::from_model(model);
    let head = serde_json::to_string(&state.head).expect("serialize head");
    let edited = edit(&head);
    assert_ne!(edited, head, "{name}: the edit must change the head");
    let mut w = ArtifactWriter::new();
    add_manifest(&mut w, &manifest());
    w.add_json(SECTION_HEAD, edited.as_bytes());
    for t in &state.tensors {
        let (rows, cols) = t.data.shape();
        w.add_f32(&format!("{TENSOR_PREFIX}{}", t.name), rows, cols, t.data.as_slice());
    }
    let path = scratch(name);
    w.write_to(&path).expect("write");
    let loaded = load_model(&path, LoadMode::Read);
    let _ = std::fs::remove_file(&path);
    match loaded {
        Ok(_) => panic!("{name}: the edited artifact loaded"),
        Err(e) => e.to_string(),
    }
}

/// An edit setting the number after the first `prefix` to `value`.
fn set(prefix: &'static str, value: &str) -> impl FnOnce(&str) -> String {
    let value = value.to_string();
    move |json| {
        let at = json.find(prefix).unwrap_or_else(|| panic!("no {prefix} in the head"));
        let start = at + prefix.len();
        let len = json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let mut edited = json.to_string();
        edited.replace_range(start..start + len, &value);
        edited
    }
}

#[test]
fn hostile_model_artifacts_are_refused_naming_the_field() {
    // A trained 24 × 24 projection and a 48-input scorer, so a smaller
    // dimension does not fit them, and a decision tree as the classifier.
    let dataset = magellan::generate_by_name("S-FZ", 42).unwrap().subsample(120, 0);
    let split = paper_split(&dataset, 0);
    let mut cfg =
        WymConfig { embed_dim: 24, embedder_kind: EmbedderKind::Siamese, ..Default::default() };
    cfg.scorer.train = TrainConfig { epochs: 2, batch_size: 128, lr: 2e-3, ..Default::default() };
    cfg.matcher.kinds = vec![ClassifierKind::DecisionTree];
    let model = WymModel::fit(&dataset, &split, cfg);
    let head = serde_json::to_string(&WymModelState::from_model(&model).head).unwrap();
    assert!(head.contains(r#""hashed":{"dim":24,"#), "{head}");
    assert!(head.contains(r#""nodes":[{"Split":"#), "the tree's root is a split");

    // A zero dimension used to load, then divide by zero when the first
    // token was hashed.
    let err = load_edited(&model, "dim0.wyma", set(r#""hashed":{"dim":"#, "0"));
    assert!(err.contains("HashedNgramEmbedder.dim") && err.contains("at least 8, got 0"), "{err}");

    // Half the trained dimension parses, but the weights no longer fit it.
    let err = load_edited(&model, "dim12.wyma", set(r#""hashed":{"dim":"#, "12"));
    assert!(err.contains("scorer.layer0.w") && err.contains("embedding dim 12"), "{err}");

    // The root split's left child pointing back at the root: predicting
    // with it never returned. The load refuses it without predicting.
    let t0 = Instant::now();
    let err = load_edited(&model, "cyclic.wyma", set(r#""left":"#, "0"));
    let tree = "`matcher.selected.model.Dt.tree";
    assert!(err.contains(&format!("{tree}.nodes[0].left` is 0")), "{err}");
    assert!(t0.elapsed() < Duration::from_secs(5), "the load took {:?}", t0.elapsed());

    let err = load_edited(&model, "right.wyma", set(r#""right":"#, "99999"));
    assert!(err.contains(".right` is 99999"), "{err}");
    let err = load_edited(&model, "feature.wyma", set(r#"{"Split":{"feature":"#, "4096"));
    assert!(err.contains(&format!("{tree}.nodes[0].feature` is 4096")), "{err}");
    let n = model.matcher().specs().len();
    let err = load_edited(&model, "width.wyma", set(r#""n_features":"#, &(n + 1).to_string()));
    assert!(err.contains(&format!("{tree}.n_features` is {}, expected {n}", n + 1)), "{err}");
}

#[test]
fn committed_obs_baselines_rewrite_byte_for_byte() {
    use wym_obs::{JsonFileSink, Snapshot};
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
