//! The lexical pass: a token inverted index with TF-IDF-weighted posting
//! lists in one flat CSR array.
//!
//! Build: records are tokenized in parallel and tokens are interned into a
//! vocabulary. Document frequencies are counted first, and they alone
//! decide pruning and weights: tokens whose document frequency exceeds the
//! pruning cutoff are stop-listed (their posting ranges stay empty);
//! survivors get the weight `idf(t)² = ln(1 + n/df)²`, the self-dot of the
//! binary TF-IDF vector coordinate. A counting sort over the records in
//! ascending order then fills only the kept tokens' ranges, so every
//! posting list holds ascending record ids.
//!
//! Query: each record scores every record sharing at least one surviving
//! token by summed squared IDF, accumulated in a per-worker dense scratch
//! array with a touched list (no hashing, no ordering sensitivity), and
//! keeps its top-k by the stable key (weight desc, record id asc). f32
//! accumulation per (query, candidate) cell happens in ascending token-id
//! order, so scores — and therefore the candidate set — are bit-identical
//! for any thread count.

use crate::csr::Csr;
use std::cell::RefCell;
use std::collections::HashMap;

/// A built lexical index over one table.
pub struct TokenIndex {
    n_records: usize,
    /// Token id → token string (the interned vocabulary).
    vocab: Vec<String>,
    /// Per-record sorted unique token ids.
    record_tokens: Vec<Vec<u32>>,
    /// Token id → ascending record ids. Pruned tokens have empty lists.
    postings: Csr,
    /// Token id → squared IDF weight; 0.0 marks a pruned token.
    weight: Vec<f32>,
    /// Number of tokens dropped by document-frequency pruning.
    pub pruned_tokens: usize,
}

/// Records per tokenizing work item of [`intern_tokens`].
const TOKENIZE_CHUNK: usize = 256;

/// The tokens of one chunk of records: each record's sorted unique tokens
/// as byte ranges of one arena.
struct ChunkTokens {
    arena: String,
    /// `(start, end)` of every token in `arena`, record after record.
    spans: Vec<(usize, usize)>,
    /// Per record, the end of its tokens in `spans`.
    record_ends: Vec<usize>,
}

impl ChunkTokens {
    /// Tokenizes `texts`, then sorts and dedups each record's tokens as
    /// byte strings (the order `String` sorts in).
    fn build(texts: &[String], tokenizer: &wym_tokenize::Tokenizer) -> ChunkTokens {
        let (mut arena, mut spans, mut record_ends) = (String::new(), Vec::new(), Vec::new());
        let (mut buf, mut record) = (String::new(), Vec::new());
        for text in texts {
            record.clear();
            tokenizer.for_each_token(text, &mut buf, |t| {
                let start = arena.len();
                arena.push_str(t);
                record.push((start, arena.len()));
            });
            record.sort_unstable_by(|&a, &b| span(&arena, a).cmp(span(&arena, b)));
            record.dedup_by(|a, b| span(&arena, *a) == span(&arena, *b));
            spans.extend_from_slice(&record);
            record_ends.push(spans.len());
        }
        ChunkTokens {
            arena,
            spans,
            record_ends,
        }
    }
}

/// The token at byte range `(start, end)` of `arena`.
fn span(arena: &str, (start, end): (usize, usize)) -> &str {
    &arena[start..end]
}

/// Tokenizes every record (in parallel, [`TOKENIZE_CHUNK`] records per work
/// item) and interns tokens into ids. Returns per-record sorted unique ids
/// and the id-ordered vocabulary.
///
/// Ids go to tokens in order of first appearance, where a record's tokens
/// appear in sorted order, so they do not depend on the thread count. The
/// interner keys its map by slices of the chunks' arenas and allocates only
/// for new vocabulary entries.
fn intern_tokens(texts: &[String], threads: usize) -> (Vec<Vec<u32>>, Vec<String>) {
    let tokenizer = wym_tokenize::Tokenizer::default();
    let chunks: Vec<&[String]> = texts.chunks(TOKENIZE_CHUNK).collect();
    let chunks: Vec<ChunkTokens> = wym_par::map_indexed(&chunks, threads, |_, texts| {
        ChunkTokens::build(texts, &tokenizer)
    });
    let mut ids_of: HashMap<&str, u32> = HashMap::new();
    let mut vocab: Vec<String> = Vec::new();
    let mut record_tokens = Vec::with_capacity(texts.len());
    for chunk in &chunks {
        let mut first = 0;
        for &end in &chunk.record_ends {
            let mut ids: Vec<u32> = chunk.spans[first..end]
                .iter()
                .map(|&s| {
                    let token = span(&chunk.arena, s);
                    *ids_of.entry(token).or_insert_with(|| {
                        vocab.push(token.to_owned());
                        vocab.len() as u32 - 1
                    })
                })
                .collect();
            ids.sort_unstable();
            record_tokens.push(ids);
            first = end;
        }
    }
    (record_tokens, vocab)
}

impl TokenIndex {
    /// Builds the index over `texts` (one string per record), pruning
    /// tokens with document frequency above `max(min_df_cutoff,
    /// ceil(n · max_df_frac))`.
    pub fn build(
        texts: &[String],
        max_df_frac: f32,
        min_df_cutoff: usize,
        threads: usize,
    ) -> TokenIndex {
        let _span = wym_obs::span("block_index");
        let n = texts.len();
        let (record_tokens, vocab) = intern_tokens(texts, threads);
        let vocab_len = vocab.len();

        // Document frequencies decide pruning and IDF weights before any
        // posting is stored.
        let mut doc_freq = vec![0u32; vocab_len];
        for ids in &record_tokens {
            for &t in ids {
                doc_freq[t as usize] += 1;
            }
        }
        let cutoff = (((n as f32) * max_df_frac).ceil() as usize)
            .max(min_df_cutoff)
            .max(1);
        let mut weight = vec![0.0f32; vocab_len];
        let mut pruned = 0usize;
        let bounds = wym_obs::enabled().then(|| wym_obs::hist::pow2_bounds(24));
        for (t, &df) in doc_freq.iter().enumerate() {
            let df = df as usize;
            if let Some(bounds) = &bounds {
                wym_obs::hist_observe_with("block.index.posting_len", bounds, df as f64);
            }
            if df > cutoff {
                pruned += 1;
            } else if df > 0 {
                let idf = (1.0 + n as f32 / df as f32).ln();
                weight[t] = idf * idf;
            }
        }
        let kept = (0u32..).zip(&record_tokens).flat_map(|(i, ids)| {
            ids.iter()
                .filter(|&&t| weight[t as usize] != 0.0)
                .map(move |&t| (t as usize, i))
        });
        let postings = Csr::group(vocab_len, kept);
        wym_obs::counter_add("block.index.vocab", vocab_len as u64);
        wym_obs::counter_add("block.index.pruned_tokens", pruned as u64);
        TokenIndex { n_records: n, vocab, record_tokens, postings, weight, pruned_tokens: pruned }
    }

    /// Number of records the index covers.
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True when the index covers no records.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// The sorted unique token ids of record `i`.
    pub fn record_tokens(&self, i: usize) -> &[u32] {
        &self.record_tokens[i]
    }

    /// All per-record token-id lists (the ANN layer embeds from these).
    pub fn all_record_tokens(&self) -> &[Vec<u32>] {
        &self.record_tokens
    }

    /// The interned vocabulary, ordered by token id.
    pub fn vocab(&self) -> &[String] {
        &self.vocab
    }

    /// Top-`k` lexical candidates per record: for every record `i`, the
    /// `k` records with the highest TF-IDF overlap weight, under the stable
    /// key (weight desc, record id asc), self excluded. Deterministic for
    /// any thread count.
    pub fn top_candidates(&self, k: usize, threads: usize) -> Vec<Vec<u32>> {
        let _span = wym_obs::span("block_lexical");
        thread_local! {
            static SCRATCH: RefCell<(Vec<f32>, Vec<u32>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        let n = self.n_records;
        let ids: Vec<u32> = (0..n as u32).collect();
        let out = wym_par::map_indexed(&ids, threads, |_, &qi| {
            SCRATCH.with(|cell| {
                let (scores, touched) = &mut *cell.borrow_mut();
                if scores.len() < n {
                    scores.resize(n, 0.0);
                }
                let q = qi as usize;
                for &t in &self.record_tokens[q] {
                    let w = self.weight[t as usize];
                    if w == 0.0 {
                        continue;
                    }
                    for &j in self.postings.get(t as usize) {
                        if j == qi {
                            continue;
                        }
                        let s = &mut scores[j as usize];
                        if *s == 0.0 {
                            touched.push(j);
                        }
                        *s += w;
                    }
                }
                let mut candidates: Vec<(f32, u32)> =
                    touched.iter().map(|&j| (scores[j as usize], j)).collect();
                // Top-k selection, then sort only the keepers: the key
                // (weight desc, id asc) is a strict total order, so the
                // selected set and its order are unique regardless of the
                // accumulation order — and selection is O(len), not
                // O(len log len), which dominates at million-record scale.
                let cmp = |a: &(f32, u32), b: &(f32, u32)| {
                    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
                };
                if candidates.len() > k {
                    candidates.select_nth_unstable_by(k, cmp);
                    candidates.truncate(k);
                }
                candidates.sort_unstable_by(cmp);
                for &j in touched.iter() {
                    scores[j as usize] = 0.0;
                }
                touched.clear();
                // Collect from a borrowed iterator: `into_iter().collect()`
                // would reuse the (f32, u32) buffer in place — sized for
                // every touched record — pinning ~12 KB per record (12 GB
                // live at 10⁶ records) under a k-element result.
                candidates.iter().map(|&(_, j)| j).collect::<Vec<u32>>()
            })
        });
        if wym_obs::enabled() {
            let total: usize = out.iter().map(Vec::len).sum();
            wym_obs::counter_add("block.lexical.candidates", total as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(values: &[&str]) -> Vec<String> {
        values.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn shared_rare_tokens_rank_highest() {
        let t = texts(&[
            "sony camera dsc123 silver",
            "sony camera dsc123",
            "sony printer xp400",
            "canon printer xp400 black",
        ]);
        let index = TokenIndex::build(&t, 1.0, usize::MAX, 1);
        let cands = index.top_candidates(2, 1);
        assert_eq!(cands[0][0], 1, "dsc123 overlap beats brand-only: {cands:?}");
        assert_eq!(cands[3][0], 2, "xp400 overlap: {cands:?}");
    }

    #[test]
    fn df_pruning_drops_ubiquitous_tokens() {
        let t: Vec<String> = (0..50)
            .map(|i| format!("common filler item{i}"))
            .collect();
        let index = TokenIndex::build(&t, 0.1, 1, 1);
        // "common" and "filler" appear in all 50 records (df 50 > cutoff 5);
        // each "item<i>" is unique.
        assert_eq!(index.pruned_tokens, 2);
        let cands = index.top_candidates(5, 1);
        assert!(cands.iter().all(Vec::is_empty), "only pruned tokens shared: {cands:?}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let t: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "brand{} model{} word{} word{} tail{}",
                    i % 7,
                    i % 31,
                    i % 13,
                    (i * 17) % 11,
                    i % 3
                )
            })
            .collect();
        let reference = TokenIndex::build(&t, 0.5, 1, 1).top_candidates(6, 1);
        for threads in [2usize, 4, 7] {
            let got = TokenIndex::build(&t, 0.5, 1, threads).top_candidates(6, threads);
            assert_eq!(got, reference, "thread count {threads}");
        }
    }

    /// The `String` interner that [`intern_tokens`] replaced: owned tokens
    /// per record, sorted and deduped as strings, ids by first appearance.
    fn intern_reference(texts: &[String]) -> (Vec<Vec<u32>>, Vec<String>) {
        let tokenizer = wym_tokenize::Tokenizer::default();
        let mut ids_of: HashMap<String, u32> = HashMap::new();
        let mut vocab: Vec<String> = Vec::new();
        let mut record_tokens = Vec::new();
        for text in texts {
            let mut tokens = tokenizer.tokenize(text);
            tokens.sort_unstable();
            tokens.dedup();
            let mut ids: Vec<u32> = tokens
                .into_iter()
                .map(|t| match ids_of.get(&t) {
                    Some(&id) => id,
                    None => {
                        let id = vocab.len() as u32;
                        ids_of.insert(t.clone(), id);
                        vocab.push(t);
                        id
                    }
                })
                .collect();
            ids.sort_unstable();
            record_tokens.push(ids);
        }
        (record_tokens, vocab)
    }

    #[test]
    fn interning_matches_the_string_interner_at_any_thread_count() {
        // Four tokenizing chunks and a partial fifth; records repeat tokens,
        // list them out of order, and mix case, non-ASCII letters and
        // decimal numbers, so sorted ids differ from appearance order.
        let t: Vec<String> = (0..1_100)
            .map(|i| {
                format!(
                    "Zeta{} model{} the ÜBER{} alpha{} Zeta{} straße{} 1,{:03} émile{} alpha{}",
                    i % 97,
                    i % 13,
                    i % 5,
                    i % 41,
                    i % 97,
                    i % 3,
                    i % 17,
                    i % 29,
                    i % 41
                )
            })
            .collect();
        assert!(t.len() > 4 * TOKENIZE_CHUNK);
        let (want_ids, want_vocab) = intern_reference(&t);
        for threads in [1usize, 2, 3] {
            let index = TokenIndex::build(&t, 1.0, usize::MAX, threads);
            assert_eq!(
                index.vocab(),
                &want_vocab[..],
                "vocabulary at {threads} threads"
            );
            assert_eq!(
                index.all_record_tokens(),
                &want_ids[..],
                "ids at {threads} threads"
            );
        }
    }

    #[test]
    fn ties_break_by_ascending_record_id() {
        // Records 1..=4 each share exactly the token "alpha" with record 0.
        let t = texts(&["alpha", "alpha b1", "alpha b2", "alpha b3", "alpha b4"]);
        let index = TokenIndex::build(&t, 1.0, usize::MAX, 1);
        let cands = index.top_candidates(10, 1);
        assert_eq!(cands[0], vec![1, 2, 3, 4], "equal weights order by id: {cands:?}");
    }

    #[test]
    fn empty_table() {
        let index = TokenIndex::build(&[], 0.5, 1, 4);
        assert!(index.is_empty());
        assert!(index.top_candidates(5, 4).is_empty());
    }
}
