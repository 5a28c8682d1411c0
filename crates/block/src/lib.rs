//! `wym-block` — candidate-pair generation for million-record tables.
//!
//! WYM's matching pipeline scores *pairs*; on a deduplication table of a
//! million records the all-pairs set is ~5·10¹¹ and must be cut to a few
//! million candidates before anything downstream runs. This crate does that
//! in two passes that cover each other's blind spots:
//!
//! 1. **Lexical** ([`index::TokenIndex`]): a TF-IDF-weighted token
//!    inverted index. Catches every duplicate that still shares a rare
//!    token (model codes, unusual words), misses duplicates whose rare
//!    tokens were all corrupted.
//! 2. **ANN recall** ([`ann::AnnIndex`]): hashed-n-gram record embeddings,
//!    int8-quantized, probed through random-hyperplane LSH and re-scored
//!    exactly in f32. Catches typo-corrupted duplicates (character n-grams
//!    survive typos that defeat token equality), at the cost of a
//!    per-record probe budget.
//!
//! Both passes keep their id lists — posting lists by token, LSH buckets
//! by signature — in flat CSR arrays (offsets plus ids) built by a
//! two-pass counting sort, so no lookup hashes and every list holds
//! ascending record ids.
//!
//! The merged candidate set is sorted, deduplicated, and **bit-identical
//! across kernel implementations (`WYM_KERNEL=scalar|auto`) and thread
//! counts** — the quantized pass only *selects* survivors with exact
//! integer arithmetic, and every f32 value that decides acceptance comes
//! from the dispatched kernels, whose scalar and SIMD paths match
//! bit-for-bit by contract. [`pair_checksum`] condenses the set into one
//! u64 so experiment harnesses can assert equality across runs cheaply.

pub mod ann;
mod csr;
pub mod index;
pub mod synth;

pub use ann::{AnnConfig, AnnIndex};
pub use index::TokenIndex;
pub use synth::{generate, SynthConfig, SynthTable};

use wym_data::Entity;
use wym_linalg::kernels::{self, KernelImpl};

/// Observability stage names of the blocking pipeline, in execution order.
/// Pass to `wym_obs::register_stages` before a run so span paths come out
/// in a stable order.
pub const BLOCK_STAGES: &[&str] = &[
    "block_synth",
    "block_index",
    "block_lexical",
    "block_embed",
    "block_ann_index",
    "block_ann",
    "block_merge",
];

/// Configuration of the full blocking pipeline.
#[derive(Debug, Clone)]
pub struct BlockConfig {
    /// Lexical candidates kept per record (top-k by TF-IDF overlap).
    pub lexical_k: usize,
    /// Document-frequency pruning fraction for the inverted index.
    pub max_df_frac: f32,
    /// Pruning cutoff floor — tokens with df at or below this always keep
    /// their posting lists, however small the table.
    pub min_df_cutoff: usize,
    /// The ANN recall layer; `ann.tables = 0` disables the pass entirely.
    pub ann: AnnConfig,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Kernel implementation override; `None` resolves `WYM_KERNEL` via
    /// [`wym_linalg::kernels::active`]. Tests pin both paths explicitly to
    /// prove bit-identity inside one process. An implementation the host
    /// does not support ([`wym_linalg::kernels::supported`]) makes the
    /// blocking call panic.
    pub kernel: Option<KernelImpl>,
}

impl Default for BlockConfig {
    fn default() -> Self {
        Self {
            lexical_k: 10,
            max_df_frac: 0.001,
            min_df_cutoff: 64,
            ann: AnnConfig::default(),
            threads: 0,
            kernel: None,
        }
    }
}

/// The result of one blocking run.
#[derive(Debug, Clone)]
pub struct BlockOutput {
    /// Candidate pairs `(i, j)` with `i < j`, sorted ascending, unique.
    pub pairs: Vec<(u32, u32)>,
    /// FNV-1a over the little-endian pair bytes — the cross-run equality
    /// witness (also published as the `block.checksum` counter).
    pub checksum: u64,
    /// Pairs contributed by the lexical pass (before dedup).
    pub lexical_pairs: usize,
    /// Pairs contributed by the ANN pass (before dedup).
    pub ann_pairs: usize,
}

/// Blocks a deduplication table given one text per record.
///
/// # Panics
/// Panics when `config.kernel` names an implementation the host does not
/// support, or when `config.ann.bits` exceeds 16.
pub fn block_table(texts: &[String], config: &BlockConfig) -> BlockOutput {
    block_table_with_ann(texts, config).0
}

/// Like [`block_table`], but also hands back the built [`AnnIndex`]
/// (`None` when the ANN pass is disabled) so callers can persist its
/// quantized table — e.g. into a WYMA artifact via
/// `wym_artifact::add_quantized` — instead of rebuilding it.
pub fn block_table_with_ann(
    texts: &[String],
    config: &BlockConfig,
) -> (BlockOutput, Option<AnnIndex>) {
    let imp = config.kernel.unwrap_or_else(kernels::active);
    let index = TokenIndex::build(texts, config.max_df_frac, config.min_df_cutoff, config.threads);
    let lexical = index.top_candidates(config.lexical_k, config.threads);
    let (ann, ann_index) = if config.ann.tables == 0 {
        (Vec::new(), None)
    } else {
        let ann_index = AnnIndex::build(
            index.vocab(),
            index.all_record_tokens(),
            &config.ann,
            imp,
            config.threads,
        );
        (ann_index.candidates(imp, config.threads), Some(ann_index))
    };

    let _span = wym_obs::span("block_merge");
    let lexical_pairs: usize = lexical.iter().map(Vec::len).sum();
    let ann_pairs: usize = ann.iter().map(Vec::len).sum();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(lexical_pairs + ann_pairs);
    for (i, cands) in lexical.iter().enumerate() {
        let i = i as u32;
        for &j in cands {
            pairs.push((i.min(j), i.max(j)));
        }
    }
    for (i, cands) in ann.iter().enumerate() {
        let i = i as u32;
        for &j in cands {
            // ANN candidates are already i < j by construction.
            pairs.push((i, j));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let checksum = pair_checksum(&pairs);
    wym_obs::counter_add("block.pairs", pairs.len() as u64);
    wym_obs::counter_add("block.checksum", checksum);
    (BlockOutput { pairs, checksum, lexical_pairs, ann_pairs }, ann_index)
}

/// Blocks a table of [`Entity`] records by their concatenated attributes.
pub fn block_entities(records: &[Entity], config: &BlockConfig) -> BlockOutput {
    block_entities_with_ann(records, config).0
}

/// [`block_entities`] variant that also returns the built [`AnnIndex`];
/// see [`block_table_with_ann`].
pub fn block_entities_with_ann(
    records: &[Entity],
    config: &BlockConfig,
) -> (BlockOutput, Option<AnnIndex>) {
    let texts: Vec<String> = records.iter().map(Entity::full_text).collect();
    block_table_with_ann(&texts, config)
}

/// FNV-1a over the little-endian bytes of the pair list — one u64 that two
/// runs can compare to assert their candidate sets are identical.
pub fn pair_checksum(pairs: &[(u32, u32)]) -> u64 {
    let mut bytes = Vec::with_capacity(pairs.len() * 8);
    for &(i, j) in pairs {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&j.to_le_bytes());
    }
    wym_obs::manifest::fnv1a(&bytes)
}

/// Fraction of `gold` pairs present in `pairs`. Both lists must be sorted
/// ascending with `i < j` per pair (the [`block_table`] and
/// [`synth::generate`] contracts). Empty gold yields 1.0.
pub fn recall(pairs: &[(u32, u32)], gold: &[(u32, u32)]) -> f64 {
    if gold.is_empty() {
        return 1.0;
    }
    let hit = gold.iter().filter(|g| pairs.binary_search(g).is_ok()).count();
    hit as f64 / gold.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> BlockConfig {
        BlockConfig {
            lexical_k: 10,
            max_df_frac: 0.05,
            min_df_cutoff: 8,
            ann: AnnConfig { threshold: 0.7, ..AnnConfig::default() },
            threads: 1,
            kernel: Some(KernelImpl::Scalar),
        }
    }

    fn small_table() -> SynthTable {
        generate(&SynthConfig { n_records: 2_000, dup_frac: 0.2, seed: 3, medium_vocab: 300 })
    }

    #[test]
    fn end_to_end_recall_on_small_table() {
        let table = small_table();
        let out = block_entities(&table.records, &small_config());
        let r = recall(&out.pairs, &table.gold);
        assert!(r >= 0.95, "recall {r} on {} pairs", out.pairs.len());
        // The candidate set must stay far below all-pairs.
        let n = table.records.len() as u64;
        assert!((out.pairs.len() as u64) < n * n / 20, "{} pairs", out.pairs.len());
    }

    #[test]
    fn ann_pass_rescues_typo_corrupted_duplicates() {
        // Pairs (2i, 2i+1) where EVERY token of the duplicate carries one
        // character typo: token equality matches nothing, so the lexical
        // pass is blind to these pairs and only character-n-gram ANN can
        // recover them.
        let mut texts = Vec::new();
        let mut gold = Vec::new();
        for i in 0..40u32 {
            // Deterministic 12-char tokens, unrelated across pairs.
            let tokens: Vec<String> = (0..5u32)
                .map(|k| {
                    (0..12u32)
                        .map(|c| char::from(b'a' + ((i * 31 + k * 7 + c * 13) % 26) as u8))
                        .collect()
                })
                .collect();
            let typod: Vec<String> = tokens
                .iter()
                .map(|t| {
                    let mut cs: Vec<char> = t.chars().collect();
                    cs[5] = char::from(b'a' + ((cs[5] as u8 - b'a' + 1) % 26));
                    cs.into_iter().collect()
                })
                .collect();
            gold.push((2 * i, 2 * i + 1));
            texts.push(tokens.join(" "));
            texts.push(typod.join(" "));
        }
        let config = BlockConfig {
            ann: AnnConfig { bits: 6, threshold: 0.4, ..AnnConfig::default() },
            ..small_config()
        };
        let with_ann = block_table(&texts, &config);
        let without_ann = block_table(
            &texts,
            &BlockConfig { ann: AnnConfig { tables: 0, ..AnnConfig::default() }, ..config.clone() },
        );
        let r_with = recall(&with_ann.pairs, &gold);
        let r_without = recall(&without_ann.pairs, &gold);
        assert_eq!(r_without, 0.0, "no token survives the typo pass: {without_ann:?}");
        assert!(
            r_with >= 0.9,
            "ANN must recover typo-only duplicates: recall {r_with}"
        );
    }

    #[test]
    fn output_is_bit_identical_across_kernels_and_threads() {
        let table = small_table();
        let reference = block_entities(&table.records, &small_config());
        let best = kernels::detect_best();
        for imp in [KernelImpl::Scalar, best] {
            for threads in [1usize, 2, 4] {
                let config =
                    BlockConfig { threads, kernel: Some(imp), ..small_config() };
                let got = block_entities(&table.records, &config);
                assert_eq!(got.pairs, reference.pairs, "imp {imp:?} threads {threads}");
                assert_eq!(got.checksum, reference.checksum);
            }
        }
    }

    #[test]
    fn pairs_are_sorted_unique_and_normalized() {
        let table = small_table();
        let out = block_entities(&table.records, &small_config());
        let mut sorted = out.pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, out.pairs);
        assert!(out.pairs.iter().all(|&(i, j)| i < j));
        assert_eq!(out.checksum, pair_checksum(&out.pairs));
    }

    #[test]
    fn recall_counts_hits_exactly() {
        let pairs = vec![(0, 1), (2, 5), (3, 4)];
        assert_eq!(recall(&pairs, &[(0, 1), (3, 4)]), 1.0);
        assert_eq!(recall(&pairs, &[(0, 1), (9, 10)]), 0.5);
        assert_eq!(recall(&pairs, &[]), 1.0);
        assert_eq!(recall(&[], &[(1, 2)]), 0.0);
    }
}
