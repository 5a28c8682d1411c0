//! The ANN recall layer: int8-quantized record vectors behind
//! random-hyperplane LSH, with exact f32 re-scoring of survivors.
//!
//! Each record gets one unit vector — the normalized mean of its (unique)
//! tokens' hashed-n-gram embeddings, computed once per *vocabulary entry*
//! rather than per token instance. Its LSH signatures (at most 16 bits per
//! table) come from one [`wym_linalg::kernels::gemm_nt_with`] projection
//! per block of `SIGNATURE_BLOCK` = 256 records onto every hyperplane. Each
//! table is a flat CSR array, `2^bits + 1` offsets plus the record ids
//! grouped by signature, so a bucket lookup is two loads and a slice.
//! Candidates come from LSH buckets:
//! records sharing a full signature in any table are probed with the exact
//! integer [`wym_linalg::kernels::dot_i8`] over the quantized table, the
//! top-m per record survive, and survivors are re-scored with the exact f32
//! [`wym_linalg::kernels::cosine_with`] — the quantized pass only *selects*
//! pairs, it never decides a score, so the §11 quantization error bound
//! only affects recall, never the determinism of accepted candidates.
//!
//! Determinism argument, step by step: token embedding is a pure function;
//! record vectors accumulate token vectors in ascending token-id order with
//! kernel `axpy` (bit-identical across implementations); a signature bit is
//! the sign of one `gemm_nt` element, which is [`wym_linalg::kernels::dot`]'s
//! recipe and so bit-identical across implementations; the counting sort
//! keeps each bucket's members in ascending record order; probe lists are
//! deduped in gather order and truncated in ascending id order; the
//! quantized score is an exact integer scaled by two f32 multiplies in a
//! fixed order; survivor selection uses the total order (score desc, id
//! asc); re-scored cosines are bit-identical by the kernel contract. Every
//! step is invariant under thread count and `WYM_KERNEL`.

use crate::csr::Csr;
use std::cell::RefCell;
use std::sync::Mutex;
use wym_embed::{HashedNgramEmbedder, QuantizedTable};
use wym_linalg::kernels::{self, KernelImpl};
use wym_linalg::Rng64;

/// Configuration of the ANN layer.
#[derive(Debug, Clone)]
pub struct AnnConfig {
    /// Embedding dimension of the record vectors (≥ 8).
    pub dim: usize,
    /// Number of LSH tables; more tables raise recall and probe cost.
    pub tables: usize,
    /// Signature bits per table, at most 16 ([`AnnIndex::build`] refuses
    /// more); more bits shrink buckets. Each table holds `2^bits + 1`
    /// offsets, 256 KiB at 16 bits.
    pub bits: u32,
    /// Quantized-pass survivors per record handed to exact re-scoring.
    pub top_m: usize,
    /// Exact-cosine acceptance threshold for a candidate pair.
    pub threshold: f32,
    /// Probe-list cap per record (ascending-id truncation, counted on
    /// `block.ann.probe_truncated`).
    pub probe_cap: usize,
    /// Multi-probe LSH: additionally probe every signature at Hamming
    /// distance 1. Takes per-table hit probability from `p^bits` to
    /// `p^bits + bits·p^(bits−1)·(1−p)` for per-bit agreement `p` — the
    /// difference between ~8% and ~60% recall per table at cosine 0.9.
    pub multiprobe: bool,
    /// Embedder seed.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            tables: 8,
            bits: 16,
            top_m: 8,
            threshold: 0.65,
            probe_cap: 4096,
            multiprobe: true,
            seed: 7,
        }
    }
}

/// Records per signature block: [`AnnIndex::build`] projects this many
/// record vectors onto every hyperplane with one `gemm_nt` call.
const SIGNATURE_BLOCK: usize = 256;

/// A built ANN index over one table.
pub struct AnnIndex {
    config: AnnConfig,
    /// Row-major f32 record vectors (`n × dim`), the exact re-score side.
    vectors: Vec<f32>,
    /// The int8-quantized twin of `vectors`.
    quant: QuantizedTable,
    /// Flattened per-record signatures (`n × tables`, table-major per row).
    signatures: Vec<u16>,
    /// Per table, the record ids grouped by signature, ascending within a
    /// bucket.
    tables: Vec<Csr>,
}

/// Rows per work item of [`fill_rows`].
const FILL_CHUNK: usize = 256;

/// Fills the `dim`-wide rows of `out` on `threads` workers, [`FILL_CHUNK`]
/// rows per work item: `fill(first, rows)` writes the rows from index
/// `first` on. Each chunk's rows are one disjoint slice, locked once by the
/// worker that claims it.
fn fill_rows(out: &mut [f32], dim: usize, threads: usize, fill: impl Fn(usize, &mut [f32]) + Sync) {
    let chunks: Vec<Mutex<&mut [f32]>> = out.chunks_mut(FILL_CHUNK * dim).map(Mutex::new).collect();
    wym_par::map_indexed(&chunks, threads, |c, rows| {
        let mut rows = rows.lock().expect("each chunk is claimed by one worker");
        fill(c * FILL_CHUNK, &mut rows);
    });
}

impl AnnIndex {
    /// Builds record vectors, their quantized twin, and the LSH tables.
    ///
    /// `record_tokens[i]` are record `i`'s sorted unique token ids into
    /// `vocab`; `imp` pins the kernel implementation (tests compare scalar
    /// against the best-detected path).
    ///
    /// # Panics
    /// Panics when `config.bits` exceeds 16, or when the host does not
    /// support `imp` ([`kernels::supported`]).
    pub fn build(
        vocab: &[String],
        record_tokens: &[Vec<u32>],
        config: &AnnConfig,
        imp: KernelImpl,
        threads: usize,
    ) -> AnnIndex {
        assert!(
            config.bits <= 16,
            "AnnConfig::bits is {}, but LSH signatures hold at most 16 bits",
            config.bits
        );
        let dim = config.dim;
        let n = record_tokens.len();
        let (vectors, quant) = {
            let _span = wym_obs::span("block_embed");
            // One embedding per vocabulary entry, not per token instance,
            // into one `vocab × dim` table.
            let embedder = HashedNgramEmbedder::new(dim, config.seed);
            let mut token_vecs = vec![0.0f32; vocab.len() * dim];
            fill_rows(&mut token_vecs, dim, threads, |first, rows| {
                let (mut pad, mut bounds) = (Vec::new(), Vec::new());
                for (token, row) in vocab[first..].iter().zip(rows.chunks_exact_mut(dim)) {
                    embedder.embed_token_into(token, row, &mut pad, &mut bounds);
                }
            });
            wym_obs::counter_add("block.ann.embedded_tokens", vocab.len() as u64);

            let mut vectors = vec![0.0f32; n * dim];
            fill_rows(&mut vectors, dim, threads, |first, rows| {
                for (ids, acc) in record_tokens[first..]
                    .iter()
                    .zip(rows.chunks_exact_mut(dim))
                {
                    for &t in ids {
                        let t = t as usize;
                        kernels::axpy_with(imp, 1.0, &token_vecs[t * dim..(t + 1) * dim], acc);
                    }
                    let norm_sq = kernels::dot_with(imp, acc, acc);
                    let norm = norm_sq.sqrt();
                    if norm > f32::EPSILON {
                        let inv = 1.0 / norm;
                        for v in acc.iter_mut() {
                            *v *= inv;
                        }
                    }
                }
            });
            let rows: Vec<&[f32]> = vectors.chunks_exact(dim).collect();
            let quant = QuantizedTable::from_rows(&rows, dim);
            (vectors, quant)
        };

        let _span = wym_obs::span("block_ann_index");
        let (n_tables, bits) = (config.tables, config.bits as usize);
        // Hyperplanes: a row-major (tables·bits) × dim matrix of seeded
        // normals; plane `t·bits + b` sets bit `b` of table `t`.
        let mut rng = Rng64::new(config.seed ^ 0xB10C_4A11);
        let planes: Vec<f32> = (0..n_tables * bits * dim)
            .map(|_| rng.normal() as f32)
            .collect();
        let starts: Vec<usize> = (0..n).step_by(SIGNATURE_BLOCK).collect();
        let blocks: Vec<Vec<u16>> = wym_par::map_indexed(&starts, threads, |_, &i0| {
            let rows = SIGNATURE_BLOCK.min(n - i0);
            let mut proj = vec![0.0f32; rows * n_tables * bits];
            let block = &vectors[i0 * dim..(i0 + rows) * dim];
            kernels::gemm_nt_with(imp, block, rows, &planes, n_tables * bits, dim, &mut proj);
            // Row `i`'s projections are its `n_tables` signatures' bits in
            // table order.
            (0..rows * n_tables)
                .map(|rt| {
                    let dots = &proj[rt * bits..(rt + 1) * bits];
                    (0..bits)
                        .filter(|&b| dots[b] >= 0.0)
                        .fold(0u16, |sig, b| sig | 1 << b)
                })
                .collect()
        });
        let signatures: Vec<u16> = blocks.concat();
        let tables: Vec<Csr> = (0..n_tables)
            .map(|t| {
                let column = (0..n).map(|i| (signatures[i * n_tables + t] as usize, i as u32));
                Csr::group(1 << bits, column)
            })
            .collect();
        if wym_obs::enabled() {
            let bounds = wym_obs::hist::pow2_bounds(20);
            for len in tables.iter().flat_map(Csr::lens).filter(|&len| len > 0) {
                wym_obs::hist_observe_with("block.ann.bucket_len", &bounds, len as f64);
            }
        }
        AnnIndex {
            config: config.clone(),
            vectors,
            quant,
            signatures,
            tables,
        }
    }

    /// The f32 record vector of record `i`.
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.vectors[i * self.config.dim..(i + 1) * self.config.dim]
    }

    /// The quantized table (benchmarks probe it directly).
    pub fn quantized(&self) -> &QuantizedTable {
        &self.quant
    }

    /// Exact f32 cosine of records `i` and `j` under `imp` — the re-scoring
    /// primitive; bit-identical across kernel implementations.
    ///
    /// # Panics
    /// Panics when the host does not support `imp` ([`kernels::supported`]).
    pub fn exact_cosine(&self, i: usize, j: usize, imp: KernelImpl) -> f32 {
        kernels::cosine_with(imp, self.vector(i), self.vector(j))
    }

    /// Candidate pairs `(i, j)` with `i < j` from the ANN pass: probe
    /// buckets, quantized top-m, exact re-score at the threshold.
    /// Deterministic for any thread count and kernel implementation.
    ///
    /// # Panics
    /// Panics when the host does not support `imp` ([`kernels::supported`]).
    pub fn candidates(&self, imp: KernelImpl, threads: usize) -> Vec<Vec<u32>> {
        let _span = wym_obs::span("block_ann");
        let n = self.quant.len();
        let ids: Vec<u32> = (0..n as u32).collect();
        let out: Vec<Vec<u32>> = wym_par::map_indexed(&ids, threads, |_, &qi| {
            let survivors = self.quantized_survivors(qi);
            // Exact f32 re-score: only pairs passing the threshold on the
            // *exact* cosine become candidates.
            survivors
                .into_iter()
                .filter(|&j| {
                    self.exact_cosine(qi as usize, j as usize, imp) >= self.config.threshold
                })
                .collect()
        });
        if wym_obs::enabled() {
            let total: usize = out.iter().map(Vec::len).sum();
            wym_obs::counter_add("block.ann.accepted", total as u64);
        }
        out
    }

    /// The quantized pass for one record: gather bucket peers with id
    /// `> qi`, dedup, cap, score with the integer kernel, keep top-m.
    ///
    /// Hot-path engineering for the million-record regime: dedup goes
    /// through a per-worker bitset (no sort of the full probe list), and
    /// top-m uses O(len) selection under the strict total order (score
    /// desc, id asc) — the surviving set is unique for any gather order, so
    /// determinism is unaffected.
    pub fn quantized_survivors(&self, qi: u32) -> Vec<u32> {
        thread_local! {
            #[allow(clippy::type_complexity)]
            static SCRATCH: RefCell<(Vec<u32>, Vec<u64>, Vec<(f32, u32)>)> =
                const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|cell| {
            let (probes, seen, scored) = &mut *cell.borrow_mut();
            let words = self.quant.len() / 64 + 1;
            if seen.len() < words {
                seen.resize(words, 0);
            }
            probes.clear();
            for (t, table) in self.tables.iter().enumerate() {
                let sig = self.signatures[qi as usize * self.tables.len() + t];
                let mut gather = |s: u16| {
                    for &j in table.get(s as usize).iter().filter(|&&j| j > qi) {
                        let (word, bit) = (j as usize / 64, 1u64 << (j % 64));
                        if seen[word] & bit == 0 {
                            seen[word] |= bit;
                            probes.push(j);
                        }
                    }
                };
                gather(sig);
                if self.config.multiprobe {
                    for b in 0..self.config.bits {
                        gather(sig ^ (1 << b));
                    }
                }
            }
            for &j in probes.iter() {
                seen[j as usize / 64] &= !(1 << (j % 64));
            }
            if probes.len() > self.config.probe_cap {
                // The cap keeps the lowest record ids, a canonical choice.
                probes.sort_unstable();
                probes.truncate(self.config.probe_cap);
                wym_obs::counter_add("block.ann.probe_truncated", 1);
            }
            wym_obs::counter_add("block.ann.probed", probes.len() as u64);
            let qrow = self.quant.row(qi as usize);
            let qscale = self.quant.scale(qi as usize);
            scored.clear();
            scored.extend(probes.iter().map(|&j| {
                let s = kernels::cosine_i8(
                    qrow,
                    self.quant.row(j as usize),
                    qscale,
                    self.quant.scale(j as usize),
                );
                (s, j)
            }));
            let cmp =
                |a: &(f32, u32), b: &(f32, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
            if scored.len() > self.config.top_m {
                scored.select_nth_unstable_by(self.config.top_m, cmp);
                scored.truncate(self.config.top_m);
            }
            scored.sort_unstable_by(cmp);
            scored.iter().map(|&(_, j)| j).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_vocab_and_records() -> (Vec<String>, Vec<Vec<u32>>) {
        // Four near-duplicate clusters plus singletons: records in a cluster
        // share most token ids, so their mean vectors are close.
        let vocab: Vec<String> = (0..40).map(|i| format!("tok{i}sig")).collect();
        let mut records: Vec<Vec<u32>> = Vec::new();
        for c in 0..4u32 {
            let base: Vec<u32> = (0..6).map(|k| c * 8 + k).collect();
            records.push(base.clone());
            let mut near = base;
            near.pop();
            near.push(c * 8 + 7);
            records.push(near);
        }
        for s in 0..6u32 {
            records.push(vec![32 + s, (s * 3) % 32]);
        }
        for r in &mut records {
            r.sort_unstable();
        }
        (vocab, records)
    }

    fn test_config() -> AnnConfig {
        AnnConfig { dim: 32, tables: 6, bits: 8, top_m: 4, threshold: 0.6, ..AnnConfig::default() }
    }

    #[test]
    fn near_duplicates_are_recovered() {
        let (vocab, records) = toy_vocab_and_records();
        let imp = KernelImpl::Scalar;
        let index = AnnIndex::build(&vocab, &records, &test_config(), imp, 1);
        let cands = index.candidates(imp, 1);
        for c in 0..4usize {
            let (a, b) = (2 * c, 2 * c + 1);
            assert!(
                cands[a].contains(&(b as u32)),
                "cluster {c}: expected pair ({a},{b}) in {cands:?}"
            );
        }
    }

    #[test]
    fn candidates_are_bit_identical_across_kernels_and_threads() {
        let (vocab, records) = toy_vocab_and_records();
        let reference = {
            let index =
                AnnIndex::build(&vocab, &records, &test_config(), KernelImpl::Scalar, 1);
            index.candidates(KernelImpl::Scalar, 1)
        };
        let best = wym_linalg::kernels::detect_best();
        for imp in [KernelImpl::Scalar, best] {
            for threads in [1usize, 2, 4] {
                let index = AnnIndex::build(&vocab, &records, &test_config(), imp, threads);
                let got = index.candidates(imp, threads);
                assert_eq!(got, reference, "imp {imp:?} threads {threads}");
            }
        }
    }

    #[test]
    fn rescore_side_is_exact_f32() {
        let (vocab, records) = toy_vocab_and_records();
        let imp = KernelImpl::Scalar;
        let index = AnnIndex::build(&vocab, &records, &test_config(), imp, 1);
        // exact_cosine must equal the plain kernel cosine of the f32 rows —
        // no quantization residue on the accept/reject side.
        let want = kernels::cosine_with(imp, index.vector(0), index.vector(1));
        assert_eq!(index.exact_cosine(0, 1, imp).to_bits(), want.to_bits());
        // ...while the quantized score is merely close.
        let approx = index.quantized().approx_cosine(0, 1);
        assert!((approx - want).abs() < 0.05, "approx {approx} vs exact {want}");
    }

    #[test]
    fn probe_cap_truncates_by_ascending_id() {
        let (vocab, records) = toy_vocab_and_records();
        let config = AnnConfig { probe_cap: 1, ..test_config() };
        let imp = KernelImpl::Scalar;
        let index = AnnIndex::build(&vocab, &records, &config, imp, 1);
        for qi in 0..records.len() as u32 {
            assert!(index.quantized_survivors(qi).len() <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "at most 16 bits")]
    fn more_than_16_signature_bits_are_refused() {
        let (vocab, records) = toy_vocab_and_records();
        let config = AnnConfig {
            bits: 17,
            ..test_config()
        };
        AnnIndex::build(&vocab, &records, &config, KernelImpl::Scalar, 1);
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        let index =
            AnnIndex::build(&[], &[], &test_config(), KernelImpl::Scalar, 2);
        assert!(index.candidates(KernelImpl::Scalar, 2).is_empty());
    }
}
