//! `GetSMPairs` — relaxed Gale–Shapley stable marriage over token
//! similarities (paper §4.1.2).
//!
//! Each token is associated with "a preference list defined by the closest
//! embeddings in the BERT embedding space (according to a threshold applied
//! to their cosine similarity)"; with respect to the original problem the
//! lists have variable length and continuous preferences. Left tokens
//! propose, right tokens hold their best proposal — the classic
//! deferred-acceptance algorithm, O(n²) as the paper notes.

use crate::record::{Side, TokenRef, TokenizedRecord};
use serde::{Deserialize, Serialize};
use wym_linalg::kernels;
use wym_linalg::vector::cosine;
use wym_strsim::{jaro_winkler, looks_like_code};

/// Which similarity drives the preference lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairingSim {
    /// Cosine similarity of contextual token embeddings (WYM default).
    Embedding,
    /// Jaro–Winkler over surface forms (Table 4's "j-w dist." ablation).
    JaroWinkler,
}

/// Similarity of a left/right token pair under the chosen measure, with the
/// optional product-code domain heuristic from §5.1.1 (codes only pair when
/// their surface forms are identical).
pub fn token_similarity(
    record: &TokenizedRecord,
    l: TokenRef,
    r: TokenRef,
    sim: PairingSim,
    code_heuristic: bool,
) -> f32 {
    let lt = record.text(Side::Left, l);
    let rt = record.text(Side::Right, r);
    if code_heuristic && (looks_like_code(lt) || looks_like_code(rt)) && lt != rt {
        return 0.0;
    }
    match sim {
        PairingSim::Embedding => cosine(record.embed(Side::Left, l), record.embed(Side::Right, r)),
        PairingSim::JaroWinkler => jaro_winkler(lt, rt),
    }
}

/// One stable assignment `(left, right, similarity)`.
pub type SmPair = (TokenRef, TokenRef, f32);

/// All left×right token similarities of one record, computed once.
///
/// Algorithm 1 probes the same token pairs in up to three discovery passes
/// (θ/η/ε) plus stability checks; recomputing [`token_similarity`] each time
/// costs an O(d) cosine — and three O(d) norms — per probe. The matrix
/// computes every pair once, with per-token norms and `looks_like_code`
/// flags hoisted out of the inner loop.
///
/// Entries are **bit-identical** to [`token_similarity`]: the embedding path
/// evaluates the exact expression of [`wym_linalg::vector::cosine`]
/// (`(dot / (norm_l * norm_r)).clamp(-1, 1)` with the same zero-norm guard),
/// just with the two norms precomputed per token instead of per pair.
/// Embeddings are deliberately *not* pre-normalized into unit vectors —
/// that would reorder the float ops and could flip threshold comparisons.
pub struct SimMatrix {
    n_right: usize,
    left_offsets: Vec<usize>,
    right_offsets: Vec<usize>,
    /// Row-major `[flat_left × flat_right]` measure similarities.
    sims: Vec<f32>,
    /// Pairs suppressed by the §5.1.1 product-code heuristic; empty (= no
    /// pair blocked) when neither side contains a code-like token.
    blocked: Vec<bool>,
    /// Whether `blocked` was computed — [`Self::build_unmasked`] skips it,
    /// which makes `code_heuristic = true` lookups invalid.
    masked: bool,
    /// Similarity lookups served from this matrix (only counted while obs
    /// recording is enabled — see [`Self::note_lookups`]). Relaxed atomic:
    /// the count feeds a cache-reuse metric, never control flow.
    lookups: std::sync::atomic::AtomicU64,
}

impl SimMatrix {
    /// Computes the full similarity matrix of a record under `sim`,
    /// including the §5.1.1 code-heuristic mask (valid for lookups with
    /// either `code_heuristic` setting).
    pub fn build(record: &TokenizedRecord, sim: PairingSim) -> SimMatrix {
        Self::build_impl(record, sim, true)
    }

    /// [`Self::build`] without the §5.1.1 mask. [`Self::sim`] on the result
    /// must be called with `code_heuristic = false`; in exchange the token
    /// surface forms are never scanned. Discovery uses this when its config
    /// has the heuristic off (the default).
    pub fn build_unmasked(record: &TokenizedRecord, sim: PairingSim) -> SimMatrix {
        Self::build_impl(record, sim, false)
    }

    fn build_impl(record: &TokenizedRecord, sim: PairingSim, masked: bool) -> SimMatrix {
        let left_offsets = Self::offsets(&record.left.tokens);
        let right_offsets = Self::offsets(&record.right.tokens);
        let n_left = record.left.token_count();
        let n_right = record.right.token_count();

        let mut sims = vec![0.0f32; n_left * n_right];
        match sim {
            PairingSim::Embedding => {
                let left_emb: Vec<&[f32]> = record.left.embeds.rows().collect();
                let right_emb: Vec<&[f32]> = record.right.embeds.rows().collect();
                // `kernels::cosine` computes `a·b`, `a·a`, and `b·b` in one
                // fused pass, and its self-products are bit-identical to a
                // standalone `kernels::dot(e, e)` (same lane recipe). So
                // hoisting the norms — `dot(e, e).sqrt()` once per token
                // instead of once per pair — and taking only the cross dot
                // in the inner loop reproduces `vector::cosine` bit for bit
                // while the dispatched dot kernel does the O(d) work.
                let left_norm: Vec<f32> =
                    left_emb.iter().map(|e| kernels::dot(e, e).sqrt()).collect();
                let right_norm: Vec<f32> =
                    right_emb.iter().map(|e| kernels::dot(e, e).sqrt()).collect();
                for i in 0..n_left {
                    let (a, norm_a) = (left_emb[i], left_norm[i]);
                    if norm_a <= f32::EPSILON {
                        continue; // cosine defines zero-vector similarity as 0
                    }
                    let row = &mut sims[i * n_right..(i + 1) * n_right];
                    for (j, slot) in row.iter_mut().enumerate() {
                        if right_norm[j] > f32::EPSILON {
                            let ab = kernels::dot(a, right_emb[j]);
                            *slot = (ab / (norm_a * right_norm[j])).clamp(-1.0, 1.0);
                        }
                    }
                }
            }
            PairingSim::JaroWinkler => {
                let left_toks: Vec<&str> =
                    record.left.tokens.iter().flatten().map(String::as_str).collect();
                let right_toks: Vec<&str> =
                    record.right.tokens.iter().flatten().map(String::as_str).collect();
                for i in 0..n_left {
                    let row = &mut sims[i * n_right..(i + 1) * n_right];
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = jaro_winkler(left_toks[i], right_toks[j]);
                    }
                }
            }
        }

        let mut blocked = Vec::new();
        if masked {
            let left_toks: Vec<&str> =
                record.left.tokens.iter().flatten().map(String::as_str).collect();
            let right_toks: Vec<&str> =
                record.right.tokens.iter().flatten().map(String::as_str).collect();
            let left_code: Vec<bool> = left_toks.iter().map(|t| looks_like_code(t)).collect();
            let right_code: Vec<bool> = right_toks.iter().map(|t| looks_like_code(t)).collect();
            if left_code.iter().any(|&c| c) || right_code.iter().any(|&c| c) {
                blocked = vec![false; n_left * n_right];
                for i in 0..n_left {
                    for j in 0..n_right {
                        blocked[i * n_right + j] = (left_code[i] || right_code[j])
                            && left_toks[i] != right_toks[j];
                    }
                }
            }
        }

        SimMatrix {
            n_right,
            left_offsets,
            right_offsets,
            sims,
            blocked,
            masked,
            lookups: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of similarity entries the matrix holds (`|L| × |R|`). Each was
    /// computed exactly once at build time, so `lookups() / entries()` is the
    /// matrix's reuse factor — the quantity the `simmatrix.hit_rate`
    /// histogram tracks per record.
    pub fn entries(&self) -> usize {
        self.sims.len()
    }

    /// Lookups served so far (0 unless obs recording was enabled).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Counts `n` served lookups. Callers gate on [`wym_obs::enabled`] and
    /// report at probe granularity (`|left| × |right|` per stable-marriage
    /// probe), keeping the disabled path free of atomics in inner loops.
    pub fn note_lookups(&self, n: u64) {
        self.lookups.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    fn offsets(tokens: &[Vec<String>]) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(tokens.len());
        let mut acc = 0;
        for attr in tokens {
            offsets.push(acc);
            acc += attr.len();
        }
        offsets
    }

    #[inline]
    fn index(&self, l: TokenRef, r: TokenRef) -> usize {
        let li = self.left_offsets[l.attr as usize] + l.pos as usize;
        let rj = self.right_offsets[r.attr as usize] + r.pos as usize;
        li * self.n_right + rj
    }

    /// Cached similarity of a left/right token pair; identical to
    /// [`token_similarity`] with the same `code_heuristic` setting.
    #[inline]
    pub fn sim(&self, l: TokenRef, r: TokenRef, code_heuristic: bool) -> f32 {
        debug_assert!(
            !code_heuristic || self.masked,
            "code_heuristic lookup on a matrix from build_unmasked"
        );
        let idx = self.index(l, r);
        if code_heuristic && !self.blocked.is_empty() && self.blocked[idx] {
            return 0.0;
        }
        self.sims[idx]
    }
}

/// Always `false`: no similarity fill is int8-screened. Kept only for the
/// `wymbench` benchmark, whose `pair.screen_floor_share` metric calls it.
pub fn worth_i8_screening(_dim: usize, _entries: usize) -> bool {
    false
}

/// Stable marriage between two token sets: pairs with similarity ≥
/// `threshold`, stable w.r.t. the continuous preferences.
///
/// Returns pairs sorted by descending similarity (deterministic given the
/// inputs). Either side may be larger; leftover tokens simply stay single.
pub fn get_sm_pairs(
    record: &TokenizedRecord,
    left: &[TokenRef],
    right: &[TokenRef],
    threshold: f32,
    sim: PairingSim,
    code_heuristic: bool,
) -> Vec<SmPair> {
    sm_pairs_with(left, right, threshold, |l, r| {
        token_similarity(record, l, r, sim, code_heuristic)
    })
}

/// [`get_sm_pairs`] over a precomputed [`SimMatrix`]: identical output,
/// no similarity recomputation.
///
/// Builds the preference lists by walking matrix rows directly — the flat
/// right-token indices are resolved once per call instead of once per
/// (left, right) lookup in the O(|L|·|R|) scan. The list contents (values,
/// candidate order) are exactly what per-lookup [`SimMatrix::sim`] yields.
pub fn get_sm_pairs_cached(
    matrix: &SimMatrix,
    left: &[TokenRef],
    right: &[TokenRef],
    threshold: f32,
    code_heuristic: bool,
) -> Vec<SmPair> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    debug_assert!(
        !code_heuristic || matrix.masked,
        "code_heuristic lookup on a matrix from build_unmasked"
    );
    if wym_obs::enabled() {
        matrix.note_lookups((left.len() * right.len()) as u64);
    }
    // Discovery fires several probes per record; a thread-local scratch
    // keeps their working buffers warm instead of paying ~7 allocations
    // per probe. Every buffer is fully rewritten before use, so results
    // do not depend on what ran before on this thread.
    SM_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let SmScratch { rjs, pref_arena, pref_ranges, next, engaged_to, free } = scratch;
        rjs.clear();
        rjs.extend(
            right.iter().map(|r| matrix.right_offsets[r.attr as usize] + r.pos as usize),
        );
        let masked = code_heuristic && !matrix.blocked.is_empty();
        pref_arena.clear();
        pref_ranges.clear();
        for &l in left {
            let li = matrix.left_offsets[l.attr as usize] + l.pos as usize;
            let row = &matrix.sims[li * matrix.n_right..(li + 1) * matrix.n_right];
            let start = pref_arena.len();
            if masked {
                let brow = &matrix.blocked[li * matrix.n_right..(li + 1) * matrix.n_right];
                for (j, &rj) in rjs.iter().enumerate() {
                    let s = if brow[rj] { 0.0 } else { row[rj] };
                    if s >= threshold {
                        pref_arena.push((j, s));
                    }
                }
            } else {
                for (j, &rj) in rjs.iter().enumerate() {
                    let s = row[rj];
                    if s >= threshold {
                        pref_arena.push((j, s));
                    }
                }
            }
            pref_arena[start..].sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            pref_ranges.push((start, pref_arena.len()));
        }
        sm_pairs_from_prefs(left, right, pref_arena, pref_ranges, next, engaged_to, free)
    })
}

/// Reusable buffers for one stable-marriage probe (see
/// [`get_sm_pairs_cached`]); lives in a thread-local so repeated probes
/// recycle their allocations.
#[derive(Default)]
struct SmScratch {
    rjs: Vec<usize>,
    pref_arena: Vec<(usize, f32)>,
    pref_ranges: Vec<(usize, usize)>,
    next: Vec<usize>,
    engaged_to: Vec<Option<(usize, f32)>>,
    free: Vec<usize>,
}

thread_local! {
    static SM_SCRATCH: std::cell::RefCell<SmScratch> =
        std::cell::RefCell::new(SmScratch::default());
}

/// Deferred acceptance over an arbitrary similarity oracle — the shared
/// core of the cached and uncached entry points, so their outputs agree
/// by construction.
fn sm_pairs_with(
    left: &[TokenRef],
    right: &[TokenRef],
    threshold: f32,
    similarity: impl Fn(TokenRef, TokenRef) -> f32,
) -> Vec<SmPair> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    // Preference lists: candidates above threshold, best first. One flat
    // arena plus per-left ranges instead of a Vec per left token — same
    // lists, one allocation. The sorts are unstable: both comparators break
    // similarity ties by index, i.e. they are total orders over the rows,
    // so the sorted result is identical to a stable sort's.
    let mut pref_arena: Vec<(usize, f32)> = Vec::with_capacity(left.len() * right.len());
    let mut pref_ranges: Vec<(usize, usize)> = Vec::with_capacity(left.len());
    for &l in left {
        let start = pref_arena.len();
        for (j, &r) in right.iter().enumerate() {
            let s = similarity(l, r);
            if s >= threshold {
                pref_arena.push((j, s));
            }
        }
        pref_arena[start..].sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pref_ranges.push((start, pref_arena.len()));
    }
    let (mut next, mut engaged_to, mut free) = (Vec::new(), Vec::new(), Vec::new());
    sm_pairs_from_prefs(
        left,
        right,
        &pref_arena,
        &pref_ranges,
        &mut next,
        &mut engaged_to,
        &mut free,
    )
}

/// Deferred acceptance over already-built preference lists (`pref_arena`
/// segment `pref_ranges[i]` = left token `i`'s candidates, best first).
/// `next`/`engaged_to`/`free` are caller-provided working buffers; their
/// incoming contents are discarded.
fn sm_pairs_from_prefs(
    left: &[TokenRef],
    right: &[TokenRef],
    pref_arena: &[(usize, f32)],
    pref_ranges: &[(usize, usize)],
    next: &mut Vec<usize>,
    engaged_to: &mut Vec<Option<(usize, f32)>>,
    free: &mut Vec<usize>,
) -> Vec<SmPair> {
    let prefs = |i: usize| -> &[(usize, f32)] {
        let (start, end) = pref_ranges[i];
        &pref_arena[start..end]
    };

    // Deferred acceptance: left proposes in preference order.
    next.clear();
    next.resize(left.len(), 0);
    engaged_to.clear();
    engaged_to.resize(right.len(), None);
    free.clear();
    free.extend((0..left.len()).rev());
    while let Some(i) = free.pop() {
        while next[i] < prefs(i).len() {
            let (j, s) = prefs(i)[next[i]];
            next[i] += 1;
            match engaged_to[j] {
                None => {
                    engaged_to[j] = Some((i, s));
                    break;
                }
                Some((other, other_s)) => {
                    // The right token prefers the higher similarity; ties go
                    // to the earlier proposer for determinism.
                    if s > other_s {
                        engaged_to[j] = Some((i, s));
                        free.push(other);
                        break;
                    }
                }
            }
        }
    }

    let mut out: Vec<SmPair> = engaged_to
        .iter()
        .enumerate()
        .filter_map(|(j, e)| e.map(|(i, s)| (left[i], right[j], s)))
        .collect();
    out.sort_unstable_by(|a, b| {
        b.2.total_cmp(&a.2).then(a.0.attr.cmp(&b.0.attr)).then(a.0.pos.cmp(&b.0.pos))
    });
    out
}

/// Checks stability of a matching: no unmatched pair `(l, r)` with
/// similarity above threshold prefers each other to their assigned partners.
/// Exposed for tests and property checks.
pub fn is_stable(
    record: &TokenizedRecord,
    left: &[TokenRef],
    right: &[TokenRef],
    pairs: &[SmPair],
    threshold: f32,
    sim: PairingSim,
) -> bool {
    is_stable_cached(&SimMatrix::build(record, sim), left, right, pairs, threshold)
}

/// [`is_stable`] over a precomputed [`SimMatrix`]. Partner similarities are
/// looked up in hash maps built once, so the check is O(|L|·|R|) instead of
/// O(|L|·|R|·|pairs|) — property tests on larger records stay fast.
pub fn is_stable_cached(
    matrix: &SimMatrix,
    left: &[TokenRef],
    right: &[TokenRef],
    pairs: &[SmPair],
    threshold: f32,
) -> bool {
    // Partner lookups keyed by position in `left`/`right` instead of by
    // hashing `TokenRef`s: the slices are a few dozen tokens at most, so a
    // linear position scan per pair beats SipHash and the verdict is the
    // same — each token appears in at most one pair.
    let mut partner_of_l: Vec<Option<(TokenRef, f32)>> = vec![None; left.len()];
    let mut partner_sim_r: Vec<Option<f32>> = vec![None; right.len()];
    for &(pl, pr, s) in pairs {
        if let Some(i) = left.iter().position(|&l| l == pl) {
            partner_of_l[i] = Some((pr, s));
        }
        if let Some(j) = right.iter().position(|&r| r == pr) {
            partner_sim_r[j] = Some(s);
        }
    }
    for (i, &l) in left.iter().enumerate() {
        for (j, &r) in right.iter().enumerate() {
            let s = matrix.sim(l, r, false);
            if s < threshold {
                continue;
            }
            let l_partner = partner_of_l[i];
            if l_partner.is_some_and(|(pr, _)| pr == r) {
                continue; // already matched to each other
            }
            let l_better = l_partner.is_none_or(|(_, cur)| s > cur + 1e-6);
            let r_better = partner_sim_r[j].is_none_or(|cur| s > cur + 1e-6);
            if l_better && r_better {
                return false; // blocking pair
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use wym_data::{Entity, RecordPair};
    use wym_embed::Embedder;
    use wym_tokenize::Tokenizer;

    fn record(left: &str, right: &str) -> TokenizedRecord {
        let pair = RecordPair {
            id: 0,
            label: true,
            left: Entity::new(vec![left.to_string()]),
            right: Entity::new(vec![right.to_string()]),
        };
        TokenizedRecord::from_pair(&pair, &Tokenizer::default(), &Embedder::new_static(48, 0))
    }

    #[test]
    fn identical_tokens_pair_with_top_similarity() {
        let rec = record("digital camera", "camera case");
        let pairs = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.6,
            PairingSim::Embedding,
            false,
        );
        assert_eq!(pairs.len(), 1);
        let (l, r, s) = pairs[0];
        assert_eq!(rec.text(Side::Left, l), "camera");
        assert_eq!(rec.text(Side::Right, r), "camera");
        assert!(s > 0.9);
    }

    #[test]
    fn threshold_filters_pairs() {
        let rec = record("sony", "panasonic");
        let pairs = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.9,
            PairingSim::Embedding,
            false,
        );
        assert!(pairs.is_empty());
    }

    #[test]
    fn one_to_one_within_a_call() {
        // Two identical left tokens compete for one right token: only one wins.
        let rec = record("camera camera", "camera");
        let pairs = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.5,
            PairingSim::Embedding,
            false,
        );
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn matching_is_stable() {
        let rec = record("exch srvr external sa eng", "exch svr external sa");
        let left = rec.left.all_refs();
        let right = rec.right.all_refs();
        let pairs = get_sm_pairs(&rec, &left, &right, 0.5, PairingSim::Embedding, false);
        assert!(is_stable(&rec, &left, &right, &pairs, 0.5, PairingSim::Embedding));
        assert!(!pairs.is_empty());
    }

    #[test]
    fn jaro_winkler_mode_pairs_surface_variants() {
        let rec = record("exchange server", "exchang srver");
        let pairs = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.8,
            PairingSim::JaroWinkler,
            false,
        );
        assert_eq!(pairs.len(), 2, "{pairs:?}");
    }

    #[test]
    fn code_heuristic_blocks_unequal_codes() {
        let rec = record("39400416", "39400417");
        let without = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.5,
            PairingSim::Embedding,
            false,
        );
        assert_eq!(without.len(), 1, "similar codes pair without the heuristic");
        let with = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.5,
            PairingSim::Embedding,
            true,
        );
        assert!(with.is_empty(), "the heuristic must block unequal codes");
    }

    #[test]
    fn code_heuristic_allows_equal_codes() {
        let rec = record("39400416", "39400416");
        let pairs = get_sm_pairs(
            &rec,
            &rec.left.all_refs(),
            &rec.right.all_refs(),
            0.5,
            PairingSim::Embedding,
            true,
        );
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn empty_sides_yield_no_pairs() {
        let rec = record("a b", "c");
        assert!(get_sm_pairs(&rec, &[], &rec.right.all_refs(), 0.1, PairingSim::Embedding, false)
            .is_empty());
        assert!(get_sm_pairs(&rec, &rec.left.all_refs(), &[], 0.1, PairingSim::Embedding, false)
            .is_empty());
    }

    #[test]
    fn output_is_deterministic() {
        let rec = record("digital camera lens kit", "camera digital kit lens");
        let run = || {
            get_sm_pairs(
                &rec,
                &rec.left.all_refs(),
                &rec.right.all_refs(),
                0.3,
                PairingSim::Embedding,
                false,
            )
        };
        assert_eq!(run(), run());
    }
}
