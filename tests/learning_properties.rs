//! Property-based tests over the learning substrates: numeric stability of
//! the neural network under arbitrary data, and structural invariants of
//! the tree learners.

use proptest::prelude::*;
use wym::linalg::{Matrix, Rng64};
use wym::ml::tree::{Tree, TreeParams};
use wym::ml::{ClassifierKind, StandardScaler};
use wym::nn::{Activation, Loss, Mlp, MlpConfig, TrainConfig};

/// Strategy: a small random regression dataset.
fn dataset(max_rows: usize) -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>)> {
    (2..max_rows).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 3), n),
            prop::collection::vec(-1.0f32..1.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Training an MLP on arbitrary bounded data never produces NaN or
    /// infinite weights, and predictions stay finite.
    #[test]
    fn mlp_training_is_numerically_stable((rows, targets) in dataset(24)) {
        let x = Matrix::from_row_vecs(rows.clone());
        let y = Matrix::from_vec(targets.len(), 1, targets.clone());
        let mut mlp = Mlp::new(&MlpConfig {
            layer_sizes: vec![3, 8, 1],
            hidden: Activation::Relu,
            output: Activation::Tanh,
            loss: Loss::Mse,
            seed: 1,
        });
        let report = wym::nn::train::fit(
            &mut mlp,
            &x,
            &y,
            &TrainConfig { epochs: 5, batch_size: 8, lr: 1e-2, ..TrainConfig::default() },
        );
        prop_assert!(report.final_loss.is_finite());
        for p in mlp.predict(&x) {
            prop_assert!(p.is_finite());
            prop_assert!((-1.0..=1.0).contains(&p), "tanh output out of range: {p}");
        }
        for layer in mlp.layers() {
            prop_assert!(!layer.w.has_non_finite());
        }
    }

    /// A regression tree's predictions never leave the range of its
    /// training targets.
    #[test]
    fn tree_predictions_bounded_by_targets((rows, targets) in dataset(24)) {
        let x = Matrix::from_row_vecs(rows);
        let idx: Vec<usize> = (0..targets.len()).collect();
        let tree = Tree::fit(&x, &targets, &idx, &TreeParams::default(), &mut Rng64::new(0));
        let lo = targets.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = targets.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for p in tree.predict(&x) {
            prop_assert!(p >= lo - 1e-5 && p <= hi + 1e-5, "{p} outside [{lo}, {hi}]");
        }
    }

    /// Every pool classifier's probabilities are valid on arbitrary data,
    /// even with degenerate (single-class or constant-feature) inputs.
    #[test]
    fn classifier_probabilities_always_valid(
        (rows, raw_targets) in dataset(16),
        all_same in any::<bool>(),
    ) {
        let x = Matrix::from_row_vecs(rows);
        let y: Vec<u8> = raw_targets
            .iter()
            .map(|&t| if all_same { 1 } else { u8::from(t > 0.0) })
            .collect();
        // A cheap, representative subset of the pool (the full pool is
        // covered by unit tests; proptest multiplies the cost by 24 cases).
        for kind in [
            ClassifierKind::LogisticRegression,
            ClassifierKind::NaiveBayes,
            ClassifierKind::DecisionTree,
            ClassifierKind::Knn,
        ] {
            let mut model = kind.build(0);
            model.fit(&x, &y);
            for p in model.predict_proba(&x) {
                prop_assert!(p.is_finite(), "{}: {p}", kind.short_name());
                prop_assert!((0.0..=1.0).contains(&p), "{}: {p}", kind.short_name());
            }
        }
    }

    /// The scaler transform is invertible information-wise: transformed
    /// data has finite values and applying the stored statistics recovers
    /// the original column means.
    #[test]
    fn scaler_is_stable_and_centered((rows, _) in dataset(20)) {
        let x = Matrix::from_row_vecs(rows);
        let (scaler, scaled) = StandardScaler::fit_transform(&x);
        prop_assert!(!scaled.has_non_finite());
        for m in scaled.col_mean() {
            prop_assert!(m.abs() < 1e-3, "column mean {m}");
        }
        // Reconstruct: x = scaled * σ + μ.
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let recon = scaled[(i, j)] * scaler.scales()[j] + scaler.means()[j];
                prop_assert!((recon - x[(i, j)]).abs() < 1e-3);
            }
        }
    }
}

/// Golden checksum of one relevance-scorer fit: S-FZ at cap 40 under the
/// experiments' `--quick` recipe (32-d static embeddings, 8 epochs, batch
/// 128). The constant is the FNV-1a over every trained weight and bias
/// (layer order, `w` then `b`, little-endian f32 bits); any change to the
/// per-element operation chain of the forward GEMM, the backward GEMMs, the
/// loss or the Adam update moves it. The kernel layer is bit-identical
/// across `WYM_KERNEL`, so the constant holds under every dispatch.
#[test]
fn scorer_fit_reproduces_golden_weights() {
    use wym::core::pipeline::{WymConfig, WymModel};
    use wym::data::magellan;
    use wym::data::split::paper_split;
    use wym::embed::EmbedderKind;

    let dataset = magellan::generate_by_name("S-FZ", 7).unwrap().subsample(40, 7);
    let split = paper_split(&dataset, 7);
    let mut cfg = WymConfig::default().with_seed(7);
    cfg.n_threads = 1;
    cfg.embed_dim = 32;
    cfg.embedder_kind = EmbedderKind::Static;
    cfg.scorer.train =
        TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
    cfg.matcher.kinds = vec![ClassifierKind::LogisticRegression];
    let model = WymModel::fit(&dataset, &split, cfg);
    let mlp = model.scorer().model().expect("the neural scorer trains on S-FZ");
    let mut bytes = Vec::new();
    for layer in mlp.layers() {
        for v in layer.w.as_slice().iter().chain(&layer.b) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let fnv = wym_obs::manifest::fnv1a(&bytes);
    assert_eq!(fnv, 0x7ff9_0a4d_506b_85dc, "trained scorer weights changed: fnv {fnv:016x}");
}
