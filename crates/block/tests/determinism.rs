//! Property tests of the blocking determinism contract: for arbitrary
//! tables, the full candidate set — lexical + quantized-ANN with exact f32
//! re-scoring — is bit-identical across kernel implementations (the paths
//! `WYM_KERNEL=scalar|auto` dispatch to) and thread counts, and the int8
//! quantization stays inside its derived error bound.

use proptest::prelude::*;
use wym_block::{block_table, pair_checksum, AnnConfig, BlockConfig};
use wym_embed::quant::quantize_row;
use wym_linalg::kernels::{self, KernelImpl};

/// A strategy for small random product-ish tables: each record is 2–8
/// tokens drawn from a shared pool plus an occasional unique suffix, so
/// tables mix heavy-overlap, partial-overlap, and disjoint records.
fn table_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec("[a-z]{2,9}", 2..8),
        2..40,
    )
    .prop_map(|records| {
        records
            .into_iter()
            .enumerate()
            .map(|(i, mut tokens)| {
                if i % 3 == 0 {
                    tokens.push(format!("uniq{i}x"));
                }
                tokens.join(" ")
            })
            .collect()
    })
}

fn config(kernel: KernelImpl, threads: usize) -> BlockConfig {
    BlockConfig {
        lexical_k: 5,
        max_df_frac: 0.5,
        min_df_cutoff: 2,
        ann: AnnConfig { dim: 32, tables: 4, bits: 6, threshold: 0.5, ..AnnConfig::default() },
        threads,
        kernel: Some(kernel),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: the pure-f32-deciding pipeline (quantized
    /// pass selects, exact f32 re-score accepts) produces bit-identical
    /// candidate sets under the scalar kernel at 1 thread and the
    /// best-detected kernel (AVX2+FMA where available — what
    /// `WYM_KERNEL=auto` dispatches to) at 4 threads, plus the two cross
    /// combinations.
    #[test]
    fn candidate_set_is_bit_identical_across_kernels_and_threads(
        texts in table_strategy(),
    ) {
        let reference = block_table(&texts, &config(KernelImpl::Scalar, 1));
        let best = kernels::detect_best();
        for imp in [KernelImpl::Scalar, best] {
            for threads in [1usize, 4] {
                let got = block_table(&texts, &config(imp, threads));
                prop_assert_eq!(
                    &got.pairs, &reference.pairs,
                    "kernel {:?} threads {}", imp, threads
                );
                prop_assert_eq!(got.checksum, reference.checksum);
            }
        }
        prop_assert_eq!(reference.checksum, pair_checksum(&reference.pairs));
    }

    /// Symmetric absmax int8 quantization stays inside its per-component
    /// bound `max|v| / 254` (plus float slack), codes never leave
    /// `[-127, 127]`, and requantizing the reconstruction is a fixed point.
    #[test]
    fn quantization_round_trip_respects_error_bound(
        row in prop::collection::vec(-4.0f32..4.0, 1..80),
    ) {
        let (q, scale) = quantize_row(&row);
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        prop_assert!(q.iter().all(|&c| (-127..=127).contains(&c)));
        for (&v, &c) in row.iter().zip(&q) {
            let err = (v - c as f32 * scale).abs();
            prop_assert!(
                err <= max_abs / 254.0 + 1e-5,
                "component {} reconstructs to {} (err {}, bound {})",
                v, c as f32 * scale, err, max_abs / 254.0
            );
        }
        let recon: Vec<f32> = q.iter().map(|&c| c as f32 * scale).collect();
        let (q2, _) = quantize_row(&recon);
        prop_assert_eq!(q, q2, "requantization must be a fixed point");
    }

    /// The int8 kernels are exact integer arithmetic: scalar and
    /// best-detected implementations agree exactly on random vectors of
    /// every length (SIMD blocks plus scalar tails).
    #[test]
    fn int8_kernels_agree_exactly_across_impls(
        a in prop::collection::vec(-127i8..127, 0..100),
    ) {
        let b: Vec<i8> = a.iter().rev().copied().collect();
        let best = kernels::detect_best();
        prop_assert_eq!(
            kernels::dot_i8_with(KernelImpl::Scalar, &a, &b),
            kernels::dot_i8_with(best, &a, &b)
        );
        let c = kernels::cosine_i8_with(KernelImpl::Scalar, &a, &b, 0.013, 0.029);
        let d = kernels::cosine_i8_with(best, &a, &b, 0.013, 0.029);
        prop_assert_eq!(c.to_bits(), d.to_bits(), "fused cosine must match bit-for-bit");
    }
}
