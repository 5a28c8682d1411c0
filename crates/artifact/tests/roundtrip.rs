//! End-to-end artifact guarantees: randomized container round trips,
//! the full-model save→load bit-identity contract, error paths a serving
//! process must survive (truncation, corruption, version skew), and the
//! registry's LRU/byte-budget semantics.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use wym_artifact::{
    add_manifest, add_quantized, content_fnv, inspect, load_model, read_quantized, read_sketch,
    save_model, save_model_with_sketch, save_state, Artifact, ArtifactWriter, LoadMode,
};
use wym_core::scorer::ScorerKind;
use wym_core::state::WymModelState;
use wym_core::{WymConfig, WymModel};
use wym_data::{magellan, split::paper_split, EmDataset, SplitIndices};
use wym_embed::{EmbedderKind, QuantizedTable};
use wym_ml::ClassifierKind;
use wym_nn::TrainConfig;
use wym_obs::Manifest;

/// A scratch path unique to this test process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wym-artifact-{}-{name}", std::process::id()))
}

/// One small fitted model shared by every test in this binary (fitting
/// dominates test wall-clock; saving/loading is what's under test).
fn fitted() -> &'static (WymModel, EmDataset, SplitIndices) {
    static MODEL: OnceLock<(WymModel, EmDataset, SplitIndices)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dataset = magellan::generate_by_name("S-FZ", 42).unwrap().subsample(120, 0);
        let split = paper_split(&dataset, 0);
        let mut cfg =
            WymConfig { embed_dim: 24, embedder_kind: EmbedderKind::Siamese, ..Default::default() };
        cfg.scorer.train =
            TrainConfig { epochs: 4, batch_size: 128, lr: 2e-3, ..Default::default() };
        cfg.matcher.kinds =
            vec![ClassifierKind::LogisticRegression, ClassifierKind::DecisionTree];
        let model = WymModel::fit(&dataset, &split, cfg);
        (model, dataset, split)
    })
}

fn manifest() -> Manifest {
    Manifest::new("artifact-tests")
        .with_kernel(wym_linalg::kernels::active_name())
        .with_threads(1)
        .with_seed(7)
        .with_config_bytes(b"test config")
        .with_dataset_bytes(b"S-FZ subsample 120")
}

/// Asserts that `loaded` reproduces the shared model's verdicts,
/// probabilities, and impact scores to the bit on the test slice.
fn assert_bit_identical(loaded: &WymModel, tag: &str) {
    let (model, dataset, split) = fitted();
    for &i in split.test.iter().take(25) {
        let pair = &dataset.pairs[i];
        let a = model.explain(pair);
        let b = loaded.explain(pair);
        assert_eq!(a.prediction, b.prediction, "{tag}: verdict of pair {i}");
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{tag}: probability of pair {i}"
        );
        assert_eq!(a.units.len(), b.units.len(), "{tag}: unit count of pair {i}");
        for (ua, ub) in a.units.iter().zip(&b.units) {
            assert_eq!(
                ua.impact.to_bits(),
                ub.impact.to_bits(),
                "{tag}: impact of unit {}/{} in pair {i}",
                ua.left,
                ua.right
            );
        }
    }
}

#[test]
fn saved_model_reloads_bit_identical_under_both_load_modes() {
    let (model, _, _) = fitted();
    let path = scratch("model.wyma");
    let bytes = save_model(&path, model, &manifest()).expect("save");
    assert_eq!(bytes, std::fs::metadata(&path).expect("saved file").len());
    for mode in [LoadMode::Read, LoadMode::Mmap] {
        let loaded = load_model(&path, mode).expect("load");
        assert_eq!(loaded.file_bytes, bytes);
        assert_eq!(loaded.manifest.seed, 7);
        assert_eq!(loaded.manifest.tool, "artifact-tests");
        assert_bit_identical(&loaded.model, &format!("{mode:?}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sketch_section_round_trips_and_is_optional() {
    let (model, dataset, split) = fitted();
    let train_pairs: Vec<_> =
        split.train.iter().take(60).map(|&i| dataset.pairs[i].clone()).collect();
    let baseline = model.sketch_on(&train_pairs);
    assert!(!baseline.is_empty());

    let with = scratch("sketched.wyma");
    let without = scratch("sketchless.wyma");
    save_model_with_sketch(&with, model, &manifest(), Some(&baseline)).expect("save");
    save_model(&without, model, &manifest()).expect("save");

    for mode in [LoadMode::Read, LoadMode::Mmap] {
        let loaded = load_model(&with, mode).expect("load");
        let got = loaded.sketch.as_ref().expect("sketch must survive the round trip");
        assert_eq!(*got, baseline, "{mode:?}");
        // Baseline vs itself is the no-drift fixed point.
        assert!(!baseline.compare(got).tripped);
        assert_bit_identical(&loaded.model, &format!("sketched {mode:?}"));
    }

    // An artifact saved without a sketch (or predating the section) loads
    // with `None` — the section is additive, never required.
    let plain = load_model(&without, LoadMode::Read).expect("load");
    assert!(plain.sketch.is_none());

    // The content fingerprint covers the sketch section but not the
    // manifest: adding a sketch changes it; it matches what inspect folds.
    let a = inspect(&with).expect("inspect");
    let b = inspect(&without).expect("inspect");
    assert_ne!(content_fnv(&a.sections), content_fnv(&b.sections));
    assert!(a.render().contains("drift baseline:"));
    assert!(b.render().contains("drift baseline: none"));

    let _ = std::fs::remove_file(&with);
    let _ = std::fs::remove_file(&without);
}

#[test]
fn model_with_no_tensors_round_trips() {
    // Edge case: a head that promises no network and no projection — the
    // artifact holds only JSON sections, and the loader must not demand a
    // tensor heap. (A `Static` embedder with a parameterless scorer is the
    // real-world shape; here we strip a fitted state down to it.)
    let (model, _, _) = fitted();
    let mut state = WymModelState::from_model(model);
    state.head.scorer_net = None;
    state.head.embedder.kind = EmbedderKind::Static;
    state.head.config.embedder_kind = EmbedderKind::Static;
    state.tensors.clear();
    let path = scratch("headonly.wyma");
    save_state(&path, &state, &manifest()).expect("save head-only state");
    let loaded = load_model(&path, LoadMode::Read).expect("head-only artifact must load");
    assert!(loaded.model.scorer().model().is_none());
    assert!(loaded.model.embedder().projection().is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_artifact_is_an_actionable_error() {
    let (model, _, _) = fitted();
    let path = scratch("trunc.wyma");
    let bytes = save_model(&path, model, &manifest()).expect("save");
    let full = std::fs::read(&path).expect("read back");
    // Cut the file at several depths: inside the prelude, inside a payload,
    // and inside the TOC. Every cut must fail verification with a message
    // that names the file and suggests re-saving.
    for cut in [8, bytes as usize / 2, bytes as usize - 9] {
        std::fs::write(&path, &full[..cut]).expect("write truncated");
        let err = load_model(&path, LoadMode::Read)
            .err()
            .unwrap_or_else(|| panic!("cut at {cut} must fail"))
            .to_string();
        assert!(
            err.contains("corrupt or truncated") && err.contains("--save-model"),
            "cut at {cut}: {err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn future_schema_version_is_refused_with_upgrade_hint() {
    let (model, _, _) = fitted();
    let path = scratch("future.wyma");
    save_model(&path, model, &manifest()).expect("save");
    let mut bytes = std::fs::read(&path).expect("read back");
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write future version");
    let err = load_model(&path, LoadMode::Read)
        .err()
        .expect("future schema version must be refused")
        .to_string();
    assert!(err.contains("schema version 99"), "{err}");
    assert!(err.contains("upgrade the tools"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hostile_sketch_bounds_are_an_error_not_a_panic() {
    // The writer computes every checksum, so the container verifies and
    // only the sketch's content is hostile: its score bounds decrease.
    let mut w = ArtifactWriter::new();
    add_manifest(&mut w, &manifest());
    w.add_json(
        wym_artifact::model::SECTION_SKETCH,
        br#"{"n": 1, "scores": {"bounds": [0.9, 0.1], "counts": [0, 1, 0]},
            "pair_rate": {"bounds": [0.5], "counts": [1, 0]}}"#,
    );
    let path = scratch("hostile_sketch.wyma");
    w.write_to(&path).expect("write");
    let artifact = Artifact::open(&path, LoadMode::Read).expect("checksums are valid");
    let err = read_sketch(&artifact).expect_err("decreasing bounds must be refused").to_string();
    assert!(err.contains("strictly increasing"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_embedding_dimension_is_an_error_not_a_panic() {
    // A Static embedder with the Binary scorer has no tensors, so nothing
    // else in the artifact checks the head's hashed dimension; before it
    // was checked, dim 0 loaded and the first prediction divided by zero.
    let dataset = magellan::generate_by_name("S-FZ", 42)
        .unwrap()
        .subsample(60, 0);
    let split = paper_split(&dataset, 0);
    let mut cfg = WymConfig {
        embed_dim: 16,
        embedder_kind: EmbedderKind::Static,
        ..Default::default()
    };
    cfg.scorer.kind = ScorerKind::Binary;
    cfg.matcher.kinds = vec![ClassifierKind::LogisticRegression];
    let state = WymModelState::from_model(&WymModel::fit(&dataset, &split, cfg));
    assert!(state.tensors.is_empty());
    let head = serde_json::to_string(&state.head).expect("serialize head");
    let edited = head.replace(r#""hashed":{"dim":16"#, r#""hashed":{"dim":0"#);
    assert_ne!(edited, head, "the head names its hashed dim");

    // The writer computes every checksum, so only the head is hostile.
    let mut w = ArtifactWriter::new();
    add_manifest(&mut w, &manifest());
    w.add_json(wym_artifact::model::SECTION_HEAD, edited.as_bytes());
    let path = scratch("dim0.wyma");
    w.write_to(&path).expect("write");
    let err = load_model(&path, LoadMode::Read)
        .err()
        .expect("a zero embedding dimension must be refused")
        .to_string();
    assert!(
        err.contains("dim") && err.contains("at least 8, got 0"),
        "{err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn registry_evicts_least_recently_used_past_byte_budget() {
    use wym_artifact::ModelRegistry;
    let (model, _, _) = fitted();
    let path = scratch("registry.wyma");
    let bytes = save_model(&path, model, &manifest()).expect("save");

    // Budget for two resident copies, not three.
    let mut reg = ModelRegistry::new(2 * bytes + bytes / 2);
    reg.load("a", &path, LoadMode::Read).expect("a");
    reg.load("b", &path, LoadMode::Read).expect("b");
    assert_eq!(reg.names(), vec!["a", "b"]);
    assert_eq!(reg.resident_bytes(), 2 * bytes);

    // Touch "a" so "b" becomes the LRU victim of the next load.
    assert!(reg.get("a").is_some());
    reg.load("c", &path, LoadMode::Read).expect("c");
    assert_eq!(reg.names(), vec!["a", "c"], "b must be evicted, not a");
    assert!(!reg.contains("b"));

    // A hit never touches the filesystem: delete the backing file and the
    // resident entries must still serve.
    std::fs::remove_file(&path).expect("remove backing file");
    let served = reg.load("a", &path, LoadMode::Read).expect("hit without file");
    assert_bit_identical(&served, "registry hit");
    assert!(reg.manifest("a").is_some());

    // A miss now fails (file is gone) without disturbing residents.
    assert!(reg.load("d", &path, LoadMode::Read).is_err());
    assert_eq!(reg.len(), 2);

    assert!(reg.evict("a"));
    assert!(!reg.evict("a"));
    assert_eq!(reg.names(), vec!["c"]);
}

#[test]
fn single_over_budget_model_still_serves() {
    use wym_artifact::ModelRegistry;
    let (model, _, _) = fitted();
    let path = scratch("overbudget.wyma");
    save_model(&path, model, &manifest()).expect("save");
    let mut reg = ModelRegistry::new(1); // absurdly small budget
    let served = reg.load("only", &path, LoadMode::Read).expect("load");
    assert_bit_identical(&served, "over-budget single");
    assert_eq!(reg.len(), 1, "the most recent model is never evicted");
    let _ = std::fs::remove_file(&path);
}

/// Random i8 rows with per-row scales, shaped like a quantized table.
fn quantized_strategy() -> impl Strategy<Value = (usize, Vec<i8>, Vec<f32>)> {
    (1usize..12, 1usize..20).prop_flat_map(|(dim, rows)| {
        (
            Just(dim),
            prop::collection::vec(any::<i8>(), dim * rows..dim * rows + 1),
            prop::collection::vec(1e-6f32..2.0, rows..rows + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Container fuzz: arbitrary f32 bit patterns (including NaNs,
    /// infinities, and negative zero), arbitrary i8 tensors, and arbitrary
    /// JSON payload bytes all round-trip bit-exactly through a file, under
    /// both load modes.
    #[test]
    fn container_round_trips_arbitrary_sections(
        f32_bits in prop::collection::vec(any::<u32>(), 1..300),
        i8_data in prop::collection::vec(any::<i8>(), 1..200),
        json in "[ -~]{0,60}",
        case in any::<u32>(),
    ) {
        let floats: Vec<f32> = f32_bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut w = ArtifactWriter::new();
        w.add_json("meta", json.as_bytes());
        w.add_f32("weights", 1, floats.len(), &floats);
        w.add_i8("codes", 1, i8_data.len(), &i8_data);
        let path = scratch(&format!("prop-{case}.wyma"));
        w.write_to(&path).expect("write");
        for mode in [LoadMode::Read, LoadMode::Mmap] {
            let a = Artifact::open(&path, mode).expect("open");
            prop_assert_eq!(a.json_payload("meta").expect("meta"), json.as_bytes());
            let (_, cols, got) = a.tensor_f32("weights").expect("weights");
            prop_assert_eq!(cols, floats.len());
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got_bits, &f32_bits, "f32 payload must be bit-exact");
            let (_, _, codes) = a.tensor_i8("codes").expect("codes");
            prop_assert_eq!(&codes, &i8_data);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Quantized embedding tables ride along bit-exact: codes and scales
    /// are adopted verbatim on load, never re-quantized.
    #[test]
    fn quantized_table_round_trips_verbatim(
        (dim, codes, scales) in quantized_strategy(),
        case in any::<u32>(),
    ) {
        let table = QuantizedTable::from_raw_parts(dim, codes, scales);
        let mut w = ArtifactWriter::new();
        add_quantized(&mut w, "ann", &table);
        let path = scratch(&format!("quant-{case}.wyma"));
        w.write_to(&path).expect("write");
        let a = Artifact::open(&path, LoadMode::Read).expect("open");
        let back = read_quantized(&a, "ann").expect("read_quantized");
        prop_assert_eq!(back.len(), table.len());
        prop_assert_eq!(back.dim(), table.dim());
        let (da, ca, sa) = table.raw_parts();
        let (db, cb, sb) = back.raw_parts();
        prop_assert_eq!(da, db);
        prop_assert_eq!(ca, cb);
        let sa_bits: Vec<u32> = sa.iter().map(|v| v.to_bits()).collect();
        let sb_bits: Vec<u32> = sb.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sa_bits, sb_bits, "scales must be bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    /// Randomized model perturbations: scribbling over any single byte of a
    /// saved model's payload area must either be caught by a checksum or
    /// land in padding (load still succeeds, bit-identical) — never a
    /// silently different model.
    #[test]
    fn single_byte_corruption_never_loads_silently(
        offset_seed in any::<u64>(),
        xor in 1u8..255,
    ) {
        let (model, _, _) = fitted();
        let path = scratch(&format!("flip-{offset_seed}-{xor}.wyma"));
        save_model(&path, model, &manifest()).expect("save");
        let clean = inspect(&path).expect("inspect clean");
        let mut bytes = std::fs::read(&path).expect("read back");
        let offset = 24 + (offset_seed as usize) % (bytes.len() - 24);
        bytes[offset] ^= xor;
        std::fs::write(&path, &bytes).expect("write corrupted");
        match load_model(&path, LoadMode::Read) {
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("corrupt or truncated"),
                    "byte {offset}: error must be actionable: {msg}"
                );
            }
            Ok(_) => {
                // The flipped byte must have been alignment padding (or the
                // redundant TOC copy of a value re-derivable from it):
                // every section payload must still checksum identically.
                let dirty = inspect(&path).expect("inspect after padding flip");
                for (a, b) in clean.sections.iter().zip(&dirty.sections) {
                    prop_assert_eq!(a.fnv, b.fnv, "byte {} changed section {}", offset, &a.name);
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
