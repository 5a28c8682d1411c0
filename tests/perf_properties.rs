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

    /// The int8 dot kernel is exact integer arithmetic, so every supported
    /// implementation must agree with scalar to the last bit (`==` on i32)
    /// on arbitrary i8 contents and every vector-width remainder.
    #[test]
    fn i8_kernels_exact_across_dispatch(
        pairs in prop::collection::vec((any::<i8>(), any::<i8>()), 0..65),
    ) {
        use wym::linalg::kernels::{available, dot_i8_with, KernelImpl};
        let a: Vec<i8> = pairs.iter().map(|(x, _)| *x).collect();
        let b: Vec<i8> = pairs.iter().map(|(_, y)| *y).collect();
        for imp in available() {
            prop_assert_eq!(
                dot_i8_with(imp, &a, &b),
                dot_i8_with(KernelImpl::Scalar, &a, &b),
                "dot_i8 diverged for {:?} at len {}", imp, a.len()
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
    /// four coefficients are zero, zero-skipped tail steps), `gemm_nt`
    /// (`dot`'s 8 lane chains and `reduce8` tree) and `gemm_bias` with a
    /// separate and an in-place ReLU (the `gemm` reference, then `z += b`
    /// and a ReLU pass, like the scalar body), on shapes straddling the row tiles, column panels and lane
    /// blocks, with ReLU-style zero groups and `-0.0` entries, and
    /// pre-activations of `-0.0` (a `-0.0` bias on the underflowing
    /// `1e-25 × -1e-25`), NaN and ±inf.
    #[test]
    fn gemm_tiles_bit_identical_across_dispatch(
        m in 1usize..19,
        k in 0usize..40,
        n in 1usize..40,
        a_vals in prop::collection::vec(-1.0f32..1.0, 19 * 40),
        b_vals in prop::collection::vec(-1.0f32..1.0, 40 * 40),
        bias_vals in prop::collection::vec(-1.0f32..1.0, 40),
        zero_groups in prop::collection::vec(any::<bool>(), 19 * 10),
        s in scale(),
    ) {
        use wym::linalg::kernels::{
            available, gemm_bias_with, gemm_nt_with, gemm_with, KernelImpl, Relu, StridedMat,
        };
        // ReLU-style operand: whole zero four-groups, plus `-0.0` where the
        // draw lands near zero.
        let mut a: Vec<f32> = (0..m * k)
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
        let mut b: Vec<f32> =
            b_vals[..k * n].iter().map(|&v| if v.abs() < 0.05 { -0.0 } else { v * s }).collect();
        // Epilogue specials, by column mod 5: a `-0.0` bias (row 0's lone
        // product `1e-25 × -1e-25` underflows to a `-0.0` accumulator
        // there), NaN, +inf, -inf, an ordinary value.
        let bias: Vec<f32> = (0..n)
            .map(|j| [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, bias_vals[j] * s][j % 5])
            .collect();
        if k > 0 {
            a[..k].fill(0.0);
            a[k - 1] = 1e-25;
            for j in (0..n).step_by(5) {
                b[(k - 1) * n + j] = -1e-25;
            }
        }
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
        // The layer pass the epilogue replaces: `z += b`, then ReLU as an
        // optimised build computes `f32::max(z, 0.0)` (`-0.0` and NaN give
        // `+0.0`; an unoptimised `max` returns `-0.0` for `-0.0`).
        let want_pre: Vec<f32> =
            want.iter().enumerate().map(|(idx, &z)| z + bias[idx % n]).collect();
        let want_relu: Vec<f32> =
            want_pre.iter().map(|&z| if z > 0.0 { z } else { 0.0 }).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lhs = StridedMat { data: &a, rows: m, cols: k, row_stride: k, col_stride: 1 };
        let mut scalar = [vec![f32::NAN; m * n], vec![f32::NAN; m * n]];
        let [scalar_pre, scalar_relu] = &mut scalar;
        gemm_bias_with(KernelImpl::Scalar, lhs, &b, n, &bias, scalar_pre, Relu::Into(scalar_relu));
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
            let (mut relu, mut in_place) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
            gemm_bias_with(imp, lhs, &b, n, &bias, &mut c, Relu::Into(&mut relu));
            gemm_bias_with(imp, lhs, &b, n, &bias, &mut in_place, Relu::InPlace);
            for (got, scalar, want, what) in [
                (&c, &scalar[0], &want_pre, "pre"),
                (&relu, &scalar[1], &want_relu, "relu"),
                (&in_place, &scalar[1], &want_relu, "in-place relu"),
            ] {
                prop_assert_eq!(
                    bits(got), bits(scalar),
                    "gemm_bias {} diverged from scalar for {:?} at {}x{}x{}", what, imp, m, k, n
                );
                prop_assert_eq!(
                    bits(got), bits(want),
                    "gemm_bias {} diverged from the layer pass for {:?} at {}x{}x{}",
                    what, imp, m, k, n
                );
            }
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

/// Golden text layers: the FNV-1a over every token of every attribute
/// value of the 12 synthetic datasets (seed 7, both sides of every pair;
/// 2,774,965 tokens), each followed by the bits of its 64-d static vector.
/// Recorded with the char-vector tokenizer and the string-building n-gram
/// hasher that the byte paths replaced. A token's vector is a pure
/// function of the token, so each distinct token is embedded once.
#[test]
fn text_layers_reproduce_golden_tokens_and_vectors() {
    use std::collections::HashMap;
    let tok = wym::tokenize::Tokenizer::default();
    let emb = Embedder::new_static(64, 7);
    let mut fnv = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut vector_bytes: HashMap<String, Vec<u8>> = HashMap::new();
    let mut n_tokens = 0usize;
    for cfg in magellan::all_configs() {
        let dataset = magellan::generate_by_name(cfg.name, 7).unwrap();
        for pair in &dataset.pairs {
            for value in pair.left.values.iter().chain(&pair.right.values) {
                for token in tok.tokenize(value) {
                    feed(&(token.len() as u64).to_le_bytes());
                    feed(token.as_bytes());
                    let bits = vector_bytes.entry(token).or_insert_with_key(|t| {
                        emb.embed_token_static(t)
                            .iter()
                            .flat_map(|x| x.to_bits().to_le_bytes())
                            .collect()
                    });
                    feed(bits);
                    n_tokens += 1;
                }
            }
        }
    }
    assert_eq!(
        (n_tokens, fnv),
        (2_774_965, 0xced9_2faa_e8df_db97),
        "tokens or static vectors changed: {n_tokens} tokens, fnv {fnv:016x}"
    );
}

/// One shared fitted model for the `process_batch` equivalence properties —
/// fitting is the expensive part and its determinism is covered by the
/// end-to-end suite, so fit once and probe `process_batch` against it.
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

    /// `process_batch` over any prefix of the test set, on any of 1..=8
    /// worker threads, returns exactly what `process` returns record by
    /// record — same order, tokens, units and relevances — although it
    /// scores 16 records per forward pass (0 = auto is the n-cores special
    /// case of the same code path).
    #[test]
    fn parallel_processing_matches_sequential(
        prefix in any::<usize>(),
        threads in 1usize..9,
    ) {
        let (model, test) = shared_model();
        let pairs = &test[..=prefix % test.len()];
        let batched = model.process_batch(pairs, threads);
        prop_assert_eq!(batched.len(), pairs.len());
        for (b, pair) in batched.iter().zip(pairs) {
            let one = model.process(pair);
            prop_assert_eq!(b.record.id, one.record.id);
            prop_assert_eq!(&b.record.left.tokens, &one.record.left.tokens);
            prop_assert_eq!(&b.record.right.tokens, &one.record.right.tokens);
            prop_assert_eq!(&b.units, &one.units);
            prop_assert_eq!(&b.relevances, &one.relevances);
        }
    }

    /// Batched scorer inference is bit-identical to per-record scoring: one
    /// multi-record `score_batch` forward over a random prefix of the test
    /// set returns exactly the per-record `score_units` results (GEMM output
    /// rows depend only on their own input row).
    #[test]
    fn batched_scoring_matches_per_unit(n_records in 1usize..24) {
        let (model, test) = shared_model();
        let processed = model.process_batch(&test[..n_records.min(test.len())], 1);
        let batch: Vec<_> = processed.iter().map(|p| (&p.record, p.units.as_slice())).collect();
        let stacked = model.scorer().score_batch(&batch);
        prop_assert_eq!(stacked.len(), batch.len());
        for ((rec, units), scores) in batch.iter().zip(&stacked) {
            prop_assert_eq!(scores, &model.scorer().score_units(rec, units));
        }
    }
}

/// The span contract of the one processing path: `process` is a batch of
/// one and opens exactly the per-record subtree that the committed OBS
/// baselines hold, and `process_batch` opens one `process` span per
/// 16-record chunk with its scorer forward inside.
#[test]
fn process_spans_follow_the_chunks() {
    use std::sync::Arc;
    let (model, test) = shared_model();
    // "path:count" of every span the run opens, sorted by path.
    let spans = |run: &dyn Fn()| -> String {
        let obs = Arc::new(wym_obs::Recorder::new_enabled());
        wym_obs::with_recorder(Arc::clone(&obs), run);
        let mut spans = obs.snapshot().spans;
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        spans.iter().map(|s| format!("{}:{}", s.path, s.count)).collect::<Vec<_>>().join(" ")
    };

    let one = spans(&|| {
        let _ = model.process(&test[0]);
    });
    assert_eq!(one, "process:1 process/embed:2 process/pair:1 process/score:1 process/tokenize:2");

    assert!(test.len() >= 20, "the S-FZ test split holds {} pairs", test.len());
    let twenty = spans(&|| {
        let _ = model.process_batch(&test[..20], 1);
    });
    assert_eq!(
        twenty,
        "process:2 process/embed:40 process/pair:20 process/score:2 process/tokenize:40"
    );
}

/// Golden explain-path output: the FNV-1a over
/// (a) the `featurize` row and `impacts` of every test record of S-FZ and
/// T-AB (cap 40, seed 7, the `--quick` scorer recipe with the default
/// `Siamese` embedder) under three matchers fitted on the same processed
/// records — the full pool's winner, a `RandomForest`-only pool and a
/// `GradientBoosting`-only pool (tree winners reach the impacts through
/// their signed importances); and
/// (b) the `embed_entity_fused` rows of both sides of those records, which
/// run through the trained projection.
/// The kernel layer is bit-identical across `WYM_KERNEL`, so the constant
/// holds under every dispatch.
#[test]
fn explain_path_reproduces_golden() {
    use wym::core::features::featurize;
    use wym::core::matcher::{ExplainableMatcher, MatcherConfig};

    let push_f32s = |bytes: &mut Vec<u8>, values: &[f32]| {
        bytes.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    };
    let mut bytes = Vec::new();
    for name in ["S-FZ", "T-AB"] {
        let dataset = magellan::generate_by_name(name, 7).unwrap().subsample(40, 7);
        let split = paper_split(&dataset, 7);
        let mut cfg = WymConfig::default().with_seed(7);
        cfg.n_threads = 1;
        cfg.embed_dim = 32;
        cfg.embedder_kind = EmbedderKind::Siamese;
        cfg.scorer.train =
            TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
        let model = WymModel::fit(&dataset, &split, cfg);

        let pairs = |idx: &[usize]| -> Vec<RecordPair> {
            idx.iter().map(|&i| dataset.pairs[i].clone()).collect()
        };
        let (train, val, test) = (
            model.process_batch(&pairs(&split.train), 1),
            model.process_batch(&pairs(&split.val), 1),
            pairs(&split.test),
        );
        fn rows(proc: &[wym::core::ProcessedRecord]) -> Vec<(&[DecisionUnit], &[f32], bool)> {
            proc.iter()
                .map(|p| (p.units.as_slice(), p.relevances.as_slice(), p.record.label.unwrap_or(false)))
                .collect()
        }
        let (train_rows, val_rows) = (rows(&train), rows(&val));
        let single = |kind| {
            let config =
                MatcherConfig { kinds: vec![kind], seed: 7, n_threads: 1, ..Default::default() };
            ExplainableMatcher::fit(&config, dataset.schema.len(), &train_rows, &val_rows)
        };
        let forest = single(ClassifierKind::RandomForest);
        let boost = single(ClassifierKind::GradientBoosting);

        let processed = model.process_batch(&test, 1);
        for matcher in [model.matcher(), &forest, &boost] {
            for p in &processed {
                push_f32s(&mut bytes, &featurize(matcher.specs(), &p.units, &p.relevances));
                push_f32s(&mut bytes, &matcher.impacts(&p.units, &p.relevances));
            }
        }
        for pair in &test {
            for entity in [&pair.left, &pair.right] {
                let tokens = model.tokenizer().tokenize_attributes(&entity.values);
                let embedded = model.embedder().embed_entity_fused(&tokens);
                for row in embedded.rows() {
                    push_f32s(&mut bytes, row);
                }
            }
        }
    }
    let fnv = wym_obs::manifest::fnv1a(&bytes);
    assert_eq!(fnv, 0xc174_3b49_ba8e_f5a6, "explain-path features, impacts or embeddings changed: fnv {fnv:016x}");
}

/// A 60-row, tie-heavy pool input for [`pool_reproduces_golden_models`]:
/// `style` 0 holds integer-valued count columns, 1 repeats 15 distinct
/// rows four times over (with a few conflicting labels), and 2 mixes
/// `-0.0`, `+0.0` and `±1` in balanced columns. Returns train and
/// validation halves.
fn tie_heavy(style: u64) -> (Matrix, Vec<u8>, Matrix, Vec<u8>) {
    let (n, d) = (60, 10);
    let mut rng = Rng64::new(40 + style);
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f32> = match style {
            0 => (0..d).map(|_| rng.gen_range(4) as f32).collect(),
            1 if i >= 15 => rows[i % 15].clone(),
            1 => (0..d).map(|_| rng.gen_range(3) as f32).collect(),
            _ => (0..d).map(|_| [-1.0, -0.0, 0.0, 1.0][rng.gen_range(4)]).collect(),
        };
        let score = row[0] + row[1] - row[2];
        labels.push(u8::from(score > 0.5) ^ u8::from(rng.gen_range(9) == 0));
        rows.push(row);
    }
    let half = |range: std::ops::Range<usize>| {
        (Matrix::from_row_vecs(rows[range.clone()].to_vec()), labels[range].to_vec())
    };
    let ((xt, yt), (xv, yv)) = (half(0..40), half(40..n));
    (xt, yt, xv, yv)
}

/// Golden classifier pool: the FNV-1a over
/// (a) five pool inputs — the S-FZ and T-AB matcher inputs of
/// [`explain_path_reproduces_golden`] (cap 40, seed 7, the full feature
/// specs over the processed train and validation records) and the three
/// [`tie_heavy`] matrices — each hashed as: the pool's validation F1 of
/// all ten kinds and its winner's validation probabilities and raw signed
/// importances at 1 and 3 threads, then each kind's validation
/// probabilities and signed importances when fitted alone on the raw
/// matrix; and
/// (b) the bits of both trained Siamese projections.
/// Recorded before the tree pool moved to presorted split search and the
/// Siamese trainer to an in-place step. The pool runs no dispatched
/// kernel and the projection runs bit-identical ones, so the constant
/// holds under every `WYM_KERNEL`.
#[test]
fn pool_reproduces_golden_models() {
    use wym::core::features::{featurize, full_specs};
    use wym::ml::ClassifierPool;

    let mut bytes = Vec::new();
    let push_f32s = |bytes: &mut Vec<u8>, values: &[f32]| {
        bytes.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    };
    let mut inputs = Vec::new();
    for name in ["S-FZ", "T-AB"] {
        let dataset = magellan::generate_by_name(name, 7).unwrap().subsample(40, 7);
        let split = paper_split(&dataset, 7);
        let mut cfg = WymConfig::default().with_seed(7);
        cfg.n_threads = 1;
        cfg.embed_dim = 32;
        cfg.embedder_kind = EmbedderKind::Siamese;
        cfg.scorer.train =
            TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
        // The pool below is fitted explicitly; the model's own matcher
        // does not shape its processed records.
        cfg.matcher.kinds = vec![ClassifierKind::LogisticRegression];
        let model = WymModel::fit(&dataset, &split, cfg);
        let projection = model.embedder().projection().expect("Siamese embedder");
        push_f32s(&mut bytes, projection.matrix().as_slice());

        let specs = full_specs(dataset.schema.len());
        let build = |idx: &[usize]| {
            let pairs: Vec<RecordPair> = idx.iter().map(|&i| dataset.pairs[i].clone()).collect();
            let mut x = Matrix::zeros(0, specs.len());
            let mut y = Vec::new();
            for p in model.process_batch(&pairs, 1) {
                x.push_row(&featurize(&specs, &p.units, &p.relevances));
                y.push(u8::from(p.record.label.unwrap_or(false)));
            }
            (x, y)
        };
        let ((xt, yt), (xv, yv)) = (build(&split.train), build(&split.val));
        inputs.push((xt, yt, xv, yv));
    }
    inputs.extend((0..3).map(tie_heavy));

    for (xt, yt, xv, yv) in &inputs {
        for n_threads in [1, 3] {
            let pool = ClassifierPool { seed: 7, n_threads, ..ClassifierPool::default() };
            let selected = pool.fit_select(xt, yt, xv, yv);
            let f1s: Vec<f32> = selected.all_scores.iter().map(|&(_, f1)| f1).collect();
            push_f32s(&mut bytes, &f1s);
            push_f32s(&mut bytes, &selected.predict_proba(xv));
            push_f32s(&mut bytes, &selected.raw_signed_importance());
        }
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(7);
            model.fit(xt, yt);
            push_f32s(&mut bytes, &model.predict_proba(xv));
            push_f32s(&mut bytes, &model.signed_importance());
        }
    }
    let fnv = wym_obs::manifest::fnv1a(&bytes);
    assert_eq!(
        fnv, 0xc244_3b95_3013_d960,
        "pool models or Siamese projections changed: fnv {fnv:016x}"
    );
}

/// Golden candidate sets of `wym-block` on a seed-7, 1,500-record
/// synthetic table, under every available kernel at 1 and 3 threads, for
/// (a) the default configuration and (b) a 6-bit, single-probe ANN layer
/// with a probe cap of 4, whose large buckets force the probe-cap
/// truncation path. Each run pins two checksums: `block_entities`' merged
/// candidate set, and the ANN pass's own candidate lists in the order it
/// returns them (on this table the lexical pass already proposes almost
/// every ANN pair, so the merged set alone would not see the LSH tables).
/// The constants were recorded before the LSH tables and posting lists
/// moved to flat arrays.
#[test]
fn blocking_reproduces_golden_candidates() {
    use std::sync::Arc;
    use wym::linalg::kernels::available;
    use wym_block::{
        block_entities_with_ann, generate, pair_checksum, AnnConfig, BlockConfig, SynthConfig,
    };

    let table = generate(&SynthConfig {
        n_records: 1_500,
        seed: 7,
        ..Default::default()
    });
    let truncating = BlockConfig {
        ann: AnnConfig {
            bits: 6,
            multiprobe: false,
            probe_cap: 4,
            ..AnnConfig::default()
        },
        ..BlockConfig::default()
    };
    for (name, config, want) in [
        (
            "default",
            BlockConfig::default(),
            (0x91c7_e3af_6803_eceb, 0x99d8_72e8_9c32_88d0),
        ),
        (
            "truncating",
            truncating,
            (0x91c7_e3af_6803_eceb, 0xdcd0_f662_1231_79c9),
        ),
    ] {
        for imp in available() {
            for threads in [1, 3] {
                let config = BlockConfig {
                    threads,
                    kernel: Some(imp),
                    ..config.clone()
                };
                let rec = Arc::new(wym_obs::Recorder::new_enabled());
                let (out, ann) = wym_obs::with_recorder(Arc::clone(&rec), || {
                    block_entities_with_ann(&table.records, &config)
                });
                let ann_pairs: Vec<(u32, u32)> = (0u32..)
                    .zip(ann.expect("the ANN pass is on").candidates(imp, threads))
                    .flat_map(|(i, cands)| cands.into_iter().map(move |j| (i, j)))
                    .collect();
                let got = (out.checksum, pair_checksum(&ann_pairs));
                assert_eq!(
                    got, want,
                    "{name} candidates changed under {imp:?} at {threads} threads: \
                     merged {:016x}, ANN {:016x}",
                    got.0, got.1
                );
                if name == "truncating" {
                    let truncated = rec.snapshot().counter("block.ann.probe_truncated");
                    assert!(truncated > Some(0), "config (b) must truncate probe lists");
                }
            }
        }
    }
}
