//! Property-based equivalence tests for this round of performance work:
//! the cached similarity matrix, the blocked GEMM kernels, the
//! runtime-dispatched SIMD kernel layer, the batched scorer, and the
//! work-stealing parallel pipeline must all reproduce the straightforward
//! implementations they replaced.

use std::sync::OnceLock;

use proptest::prelude::*;
use wym::core::algorithm1::{
    discover_units, discover_units_cached, discover_units_reference, discover_units_with_threads,
    DiscoveryConfig,
};
use wym::core::pairing::{
    get_sm_pairs, get_sm_pairs_cached, is_stable, is_stable_cached, PairingSim, SimMatrix,
};
use wym::core::pipeline::{WymConfig, WymModel};
use wym::core::record::{Side, TokenizedRecord};
use wym::core::DecisionUnit;
use wym::data::split::paper_split;
use wym::data::{magellan, Entity, RecordPair};
use wym::embed::{Embedder, EmbedderKind};
use wym::linalg::{Matrix, Rng64};
use wym::ml::ClassifierKind;
use wym::nn::TrainConfig;

/// Strategy: a small vocabulary word (mix of prose and code-like tokens so
/// both sides of the code heuristic get exercised).
fn word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "camera", "digital", "sony", "nikon", "lens", "kit", "case", "zoom", "39400416",
        "dslra200w", "exch", "server", "license", "price", "router",
    ])
    .prop_map(str::to_string)
}

/// Strategy: an entity value of 0..6 words.
fn value() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 0..6).prop_map(|w| w.join(" "))
}

/// Strategy: a record pair over a 2-attribute schema.
fn record_pair() -> impl Strategy<Value = RecordPair> {
    (value(), value(), value(), value(), any::<bool>()).prop_map(|(a, b, c, d, label)| {
        RecordPair {
            id: 0,
            label,
            left: Entity::new(vec![a, b]),
            right: Entity::new(vec![c, d]),
        }
    })
}

fn tokenized(pair: &RecordPair) -> TokenizedRecord {
    let tok = wym::tokenize::Tokenizer::default();
    let emb = Embedder::new_static(32, 0);
    TokenizedRecord::from_pair(pair, &tok, &emb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached similarity matrix reproduces the per-lookup reference
    /// path *bit for bit*: same pairs, same similarity values (`==` on
    /// f32), for both similarity backends, both code-heuristic settings,
    /// and across the three phase thresholds.
    #[test]
    fn cached_sm_pairs_bit_identical_to_reference(
        pair in record_pair(),
        threshold in 0.1f32..0.95,
    ) {
        let rec = tokenized(&pair);
        let left = rec.left.all_refs();
        let right = rec.right.all_refs();
        for sim in [PairingSim::Embedding, PairingSim::JaroWinkler] {
            let matrix = SimMatrix::build(&rec, sim);
            for code_heuristic in [false, true] {
                let reference = get_sm_pairs(&rec, &left, &right, threshold, sim, code_heuristic);
                let cached =
                    get_sm_pairs_cached(&matrix, &left, &right, threshold, code_heuristic);
                prop_assert_eq!(&reference, &cached, "sim {:?}", sim);
                prop_assert!(
                    is_stable(&rec, &left, &right, &reference, threshold, sim)
                        == is_stable_cached(&matrix, &left, &right, &cached, threshold),
                    "stability verdict diverged"
                );
            }
        }
    }

    /// Full three-phase discovery equals the uncached per-lookup reference
    /// implementation exactly, and a prebuilt matrix equals the public
    /// entry point (which builds its own).
    #[test]
    fn cached_discovery_bit_identical(pair in record_pair()) {
        let rec = tokenized(&pair);
        for sim in [PairingSim::Embedding, PairingSim::JaroWinkler] {
            for code_heuristic in [false, true] {
                let config = DiscoveryConfig { sim, code_heuristic, ..Default::default() };
                let cached = discover_units(&rec, &config);
                prop_assert_eq!(&cached, &discover_units_reference(&rec, &config));
                let matrix = SimMatrix::build(&rec, config.sim);
                prop_assert_eq!(&cached, &discover_units_cached(&rec, &matrix, &config));
            }
        }
    }
}

/// In-order reference product: `acc += a[i][p] * b[p][j]` with `p`
/// ascending, exactly the pre-blocking loop order.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                acc += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// The blocked kernels fuse four products per accumulator update, which
/// reorders the float additions, so results are *not* bit-identical to the
/// naive loop. Both orderings are within `k * eps` of the exact sum, so
/// their mutual distance is bounded by ~`2 * k * eps * Σ|a_ip * b_pj|`;
/// with k ≤ 300 and f32 eps ≈ 1.2e-7 a relative tolerance of 1e-6 per unit
/// of absolute-product mass holds with a wide margin in practice.
fn assert_close_to_naive(fast: &Matrix, a: &Matrix, b: &Matrix) {
    let slow = naive_matmul(a, b);
    for i in 0..slow.rows() {
        for j in 0..slow.cols() {
            let mass: f32 = (0..a.cols()).map(|p| (a[(i, p)] * b[(p, j)]).abs()).sum();
            let tol = 1e-6 * mass.max(1.0);
            let (x, y) = (fast[(i, j)], slow[(i, j)]);
            assert!((x - y).abs() <= tol, "({i},{j}): {x} vs {y}, tol {tol}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocked `matmul`, `t_matmul`, and `matmul_t` all agree with the
    /// in-order triple loop to the tolerance justified above. Dimensions
    /// straddle the 4-step unroll and (via 140) the 128-wide panel.
    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..12,
        k in 1usize..140,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng64::new(seed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        assert_close_to_naive(&a.matmul(&b), &a, &b);

        let at = a.transpose();
        assert_close_to_naive(&at.t_matmul(&b), &a, &b);

        let bt = b.transpose();
        assert_close_to_naive(&a.matmul_t(&bt), &a, &b);
    }
}

/// Strategy: a magnitude scale spanning `±1e±6` so the kernel identities
/// are checked on tiny, unit, and huge values (and their mixtures).
fn scale() -> impl Strategy<Value = f32> {
    prop::sample::select(vec![1e-6f32, 1e-3, 1.0, 1e3, 1e6])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The determinism contract of the kernel layer: **every** supported
    /// implementation on this host (AVX-512, AVX2+FMA — whatever the CPU
    /// exposes) returns **bit-identical** f32 to the portable scalar
    /// path, for every kernel, across lengths 0..=64 (every 8- and 16-lane
    /// remainder) and magnitudes from 1e-6 to 1e6. `available()` ignores
    /// `WYM_KERNEL`, so this pins each genuinely distinct code path the
    /// host can run.
    #[test]
    fn kernels_bit_identical_across_dispatch(
        pairs in prop::collection::vec((-1.0f32..1.0, -1.0f32..1.0), 0..65),
        sa in scale(),
        sb in scale(),
        alpha in -2.0f32..2.0,
    ) {
        use wym::linalg::kernels::{
            available, axpy_with, cosine_with, dist_sq_with, dot_with, KernelImpl,
        };
        let a: Vec<f32> = pairs.iter().map(|(x, _)| x * sa).collect();
        let b: Vec<f32> = pairs.iter().map(|(_, y)| y * sb).collect();
        let scalar = KernelImpl::Scalar;
        for imp in available() {
            prop_assert_eq!(
                dot_with(imp, &a, &b).to_bits(),
                dot_with(scalar, &a, &b).to_bits(),
                "dot diverged for {:?} at len {}", imp, a.len()
            );
            prop_assert_eq!(
                dist_sq_with(imp, &a, &b).to_bits(),
                dist_sq_with(scalar, &a, &b).to_bits(),
                "dist_sq diverged for {:?} at len {}", imp, a.len()
            );
            prop_assert_eq!(
                cosine_with(imp, &a, &b).to_bits(),
                cosine_with(scalar, &a, &b).to_bits(),
                "cosine diverged for {:?} at len {}", imp, a.len()
            );
            let mut y_imp = b.clone();
            let mut y_scalar = b.clone();
            axpy_with(imp, alpha, &a, &mut y_imp);
            axpy_with(scalar, alpha, &a, &mut y_scalar);
            for (i, (x, y)) in y_imp.iter().zip(&y_scalar).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "axpy diverged for {:?} at element {}", imp, i
                );
            }
        }
    }

    /// The int8 kernels are exact integer arithmetic, so every supported
    /// implementation must agree with scalar to the last bit (`==` on i32)
    /// on arbitrary i8 contents and every vector-width remainder.
    #[test]
    fn i8_kernels_exact_across_dispatch(
        pairs in prop::collection::vec((any::<i8>(), any::<i8>()), 0..65),
    ) {
        use wym::linalg::kernels::{available, dist_sq_i8_with, dot_i8_with, KernelImpl};
        let a: Vec<i8> = pairs.iter().map(|(x, _)| *x).collect();
        let b: Vec<i8> = pairs.iter().map(|(_, y)| *y).collect();
        for imp in available() {
            prop_assert_eq!(
                dot_i8_with(imp, &a, &b),
                dot_i8_with(KernelImpl::Scalar, &a, &b),
                "dot_i8 diverged for {:?} at len {}", imp, a.len()
            );
            prop_assert_eq!(
                dist_sq_i8_with(imp, &a, &b),
                dist_sq_i8_with(KernelImpl::Scalar, &a, &b),
                "dist_sq_i8 diverged for {:?} at len {}", imp, a.len()
            );
        }
    }

    /// The quantization kernels under every supported implementation:
    /// `max_abs` is an exact max-reduce (order-free), and `quantize_i8`
    /// rounds each element independently with ties-to-even (the SIMD
    /// convert rounding mode), so both must match scalar to the last bit
    /// on finite inputs at every vector-width remainder.
    #[test]
    fn quantize_kernels_exact_across_dispatch(
        vals in prop::collection::vec(-1.0f32..1.0, 0..65),
        s in scale(),
        inv in 0.1f32..300.0,
    ) {
        use wym::linalg::kernels::{available, max_abs_with, quantize_i8_with, KernelImpl};
        let v: Vec<f32> = vals.iter().map(|x| x * s).collect();
        for imp in available() {
            prop_assert_eq!(
                max_abs_with(imp, &v).to_bits(),
                max_abs_with(KernelImpl::Scalar, &v).to_bits(),
                "max_abs diverged for {:?} at len {}", imp, v.len()
            );
            let mut q_imp = vec![0i8; v.len()];
            let mut q_scalar = vec![0i8; v.len()];
            quantize_i8_with(imp, &v, inv, &mut q_imp);
            quantize_i8_with(KernelImpl::Scalar, &v, inv, &mut q_scalar);
            prop_assert_eq!(
                &q_imp, &q_scalar,
                "quantize_i8 diverged for {:?} at len {} inv {}", imp, v.len(), inv
            );
        }
    }

    /// The register-tiled GEMM kernels under every supported
    /// implementation equal a chain-order reference bit for bit: `gemm`
    /// (zero accumulator, aligned four-step `fma` groups skipped when all
    /// four coefficients are zero, zero-skipped tail steps) and `gemm_nt`
    /// (`dot`'s 8 lane chains and `reduce8` tree), on shapes straddling
    /// the row tiles, column panels and lane blocks, with ReLU-style zero
    /// groups and `-0.0` entries.
    #[test]
    fn gemm_tiles_bit_identical_across_dispatch(
        m in 1usize..19,
        k in 0usize..40,
        n in 1usize..40,
        a_vals in prop::collection::vec(-1.0f32..1.0, 19 * 40),
        b_vals in prop::collection::vec(-1.0f32..1.0, 40 * 40),
        zero_groups in prop::collection::vec(any::<bool>(), 19 * 10),
        s in scale(),
    ) {
        use wym::linalg::kernels::{available, gemm_nt_with, gemm_with, StridedMat};
        // ReLU-style operand: whole zero four-groups, plus `-0.0` where the
        // draw lands near zero.
        let a: Vec<f32> = (0..m * k)
            .map(|idx| {
                let (i, p) = (idx / k, idx % k);
                let v = a_vals[i * 40 + p];
                if zero_groups[i * 10 + p / 4] {
                    0.0
                } else if v.abs() < 0.05 {
                    -0.0
                } else {
                    v * s
                }
            })
            .collect();
        let b: Vec<f32> =
            b_vals[..k * n].iter().map(|&v| if v.abs() < 0.05 { -0.0 } else { v * s }).collect();
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in (0..k / 4 * 4).step_by(4) {
                    let c = &a[i * k + p..i * k + p + 4];
                    if c.iter().any(|&v| v != 0.0) {
                        for (q, &cq) in c.iter().enumerate() {
                            acc = cq.mul_add(b[(p + q) * n + j], acc);
                        }
                    }
                }
                for p in k / 4 * 4..k {
                    if a[i * k + p] != 0.0 {
                        acc = a[i * k + p].mul_add(b[p * n + j], acc);
                    }
                }
                want[i * n + j] = acc;
            }
        }
        // `gemm_nt` against `bᵀ` (n rows of length k): the dot recipe.
        let bt: Vec<f32> = (0..n * k).map(|idx| b[(idx % k) * n + idx / k]).collect();
        let mut want_nt = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut l = [0.0f32; 8];
                for p in 0..k {
                    l[p % 8] = a[i * k + p].mul_add(bt[j * k + p], l[p % 8]);
                }
                want_nt[i * n + j] =
                    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lhs = StridedMat { data: &a, rows: m, cols: k, row_stride: k, col_stride: 1 };
        for imp in available() {
            let mut c = vec![f32::NAN; m * n];
            gemm_with(imp, lhs, &b, n, &mut c);
            prop_assert_eq!(
                bits(&c), bits(&want),
                "gemm diverged for {:?} at {}x{}x{}", imp, m, k, n
            );
            gemm_nt_with(imp, &a, m, &bt, n, k, &mut c);
            prop_assert_eq!(
                bits(&c), bits(&want_nt),
                "gemm_nt diverged for {:?} at {}x{}x{}", imp, m, k, n
            );
        }
    }
}

/// Appends one record's decision units to `bytes`: unit count, then per
/// unit its variant, token refs, side and similarity bits (little-endian).
fn push_units(bytes: &mut Vec<u8>, units: &[DecisionUnit]) {
    bytes.extend_from_slice(&(units.len() as u64).to_le_bytes());
    for u in units {
        match u {
            DecisionUnit::Paired { left, right, similarity } => {
                bytes.push(0);
                for t in [left, right] {
                    bytes.extend_from_slice(&t.attr.to_le_bytes());
                    bytes.extend_from_slice(&t.pos.to_le_bytes());
                }
                bytes.extend_from_slice(&similarity.to_bits().to_le_bytes());
            }
            DecisionUnit::Unpaired { token, side } => {
                bytes.push(1);
                bytes.extend_from_slice(&token.attr.to_le_bytes());
                bytes.extend_from_slice(&token.pos.to_le_bytes());
                bytes.push(matches!(side, Side::Right) as u8);
            }
        }
    }
}

/// Golden Algorithm-1 output: the FNV-1a over every discovered unit of
/// (a) the first 40 pairs of each of the 12 synthetic datasets (seed 7,
/// 64-d static embeddings) and (b) one long-description pair built by
/// joining the first 12 T-AB pairs' values into one attribute per side
/// (198 × 200 tokens at 300-d, run at 1 and 4 threads). Input (b) is far
/// past the 400-entry similarity matrices of the datasets themselves. The
/// kernel layer is bit-identical across `WYM_KERNEL`, so both constants
/// hold under every dispatch.
#[test]
fn discovery_reproduces_golden_units() {
    let tok = wym::tokenize::Tokenizer::default();
    let config = DiscoveryConfig::default();

    let emb = Embedder::new_static(64, 0);
    let mut bytes = Vec::new();
    for cfg in magellan::all_configs() {
        let dataset = magellan::generate_by_name(cfg.name, 7).unwrap();
        for pair in dataset.pairs.iter().take(40) {
            let rec = TokenizedRecord::from_pair(pair, &tok, &emb);
            push_units(&mut bytes, &discover_units(&rec, &config));
        }
    }
    let fnv = wym_obs::manifest::fnv1a(&bytes);
    assert_eq!(
        fnv, 0x4d0c_8ef2_58a3_87f4,
        "Algorithm 1 units changed on the datasets: fnv {fnv:016x}"
    );

    let tab = magellan::generate_by_name("T-AB", 7).unwrap();
    let join = |side: fn(&RecordPair) -> &Entity| {
        let values: Vec<&str> = tab.pairs[..12]
            .iter()
            .flat_map(|p| side(p).values.iter().map(String::as_str))
            .collect();
        Entity::new(vec![values.join(" ")])
    };
    let long =
        RecordPair { id: 0, label: true, left: join(|p| &p.left), right: join(|p| &p.right) };
    let rec = TokenizedRecord::from_pair(&long, &tok, &Embedder::new_static(300, 0));
    assert_eq!((rec.left.token_count(), rec.right.token_count()), (198, 200));
    let mut bytes = Vec::new();
    for threads in [1, 4] {
        push_units(&mut bytes, &discover_units_with_threads(&rec, &config, threads));
    }
    let fnv = wym_obs::manifest::fnv1a(&bytes);
    assert_eq!(
        fnv, 0x1528_02cb_5e00_6c19,
        "Algorithm 1 units changed on the long pair: fnv {fnv:016x}"
    );
}

/// One shared fitted model for the parallel-equivalence property — fitting
/// is the expensive part and its determinism is covered by the end-to-end
/// suite, so fit once and probe `process_many_parallel` against it.
fn shared_model() -> &'static (WymModel, Vec<RecordPair>) {
    static MODEL: OnceLock<(WymModel, Vec<RecordPair>)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dataset = magellan::generate_by_name("S-FZ", 31).unwrap().subsample(160, 0);
        let split = paper_split(&dataset, 0);
        let mut cfg = WymConfig::default().with_seed(31);
        cfg.embed_dim = 32;
        cfg.embedder_kind = EmbedderKind::Static;
        cfg.scorer.train =
            TrainConfig { epochs: 4, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
        cfg.matcher.kinds = vec![ClassifierKind::LogisticRegression];
        let model = WymModel::fit(&dataset, &split, cfg);
        let test: Vec<RecordPair> =
            split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
        (model, test)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Work-stealing `process_many_parallel` returns exactly what the
    /// sequential `process_many` returns — same order, same units, same
    /// relevances — for every thread count 1..=8 (0 = auto is the
    /// n-cores special case of the same code path).
    #[test]
    fn parallel_processing_matches_sequential(n_threads in 1usize..9) {
        let (model, test) = shared_model();
        let sequential = model.process_many(test);
        let parallel = model.process_many_parallel(test, n_threads);
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            prop_assert_eq!(&s.units, &p.units);
            prop_assert_eq!(&s.relevances, &p.relevances);
        }
    }

    /// Batched scorer inference is bit-identical to per-record scoring:
    /// `score_batch` over a random prefix of the test set returns exactly
    /// the per-record `score_units` results (GEMM output rows depend only
    /// on their own input row), and the batched process path reproduces the
    /// sequential reference records end to end.
    #[test]
    fn batched_scoring_matches_per_unit(n_records in 1usize..24) {
        let (model, test) = shared_model();
        let take = n_records.min(test.len());
        let pairs = &test[..take];

        let batched = model.process_many_batched(pairs);
        let sequential = model.process_many(pairs);
        prop_assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            prop_assert_eq!(&b.units, &s.units);
            prop_assert_eq!(&b.relevances, &s.relevances);
        }

        // And directly at the scorer: one multi-record forward pass vs one
        // call per record.
        let batch: Vec<_> =
            batched.iter().map(|p| (&p.record, p.units.as_slice())).collect();
        let stacked = model.scorer().score_batch(&batch);
        for ((rec, units), scores) in batch.iter().zip(&stacked) {
            prop_assert_eq!(scores, &model.scorer().score_units(rec, units));
        }
    }
}
