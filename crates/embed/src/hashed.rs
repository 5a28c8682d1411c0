//! Hashed character-n-gram token embeddings (fastText-style).
//!
//! Each token is decomposed into features — the whole surface form, its
//! boundary-padded character 3- and 4-grams, and its word-piece segments —
//! and every feature is hashed to a `(dimension, sign)` slot. Summing the
//! slots and normalizing yields a deterministic unit vector in which cosine
//! similarity tracks orthographic overlap, exactly the signal WYM's stable
//! marriage pairing consumes.

use serde::{Deserialize, Serialize};
use wym_linalg::rng::{hash64, hash64_extend};
use wym_linalg::vector::normalize;
use wym_tokenize::wordpiece::WordPieceVocab;

/// The smallest embedding dimension [`HashedNgramEmbedder`] accepts.
const MIN_DIM: usize = 8;

/// Deterministic hashed-feature token embedder.
#[derive(Debug, Clone, Serialize)]
pub struct HashedNgramEmbedder {
    dim: usize,
    seed: u64,
    /// Weight of the whole-word feature relative to each n-gram.
    pub word_weight: f32,
    /// Optional word-piece vocabulary contributing subword features.
    pub wordpiece: Option<WordPieceVocab>,
}

/// Reads the derived field layout, and refuses a `dim` below 8 with an
/// error naming the field: a model file is outside input, and a zero
/// dimension would otherwise load and then divide by zero on the first
/// token it embeds.
impl Deserialize for HashedNgramEmbedder {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dim =
            usize::from_value(v.field("dim")).map_err(|e| e.in_field("HashedNgramEmbedder.dim"))?;
        if dim < MIN_DIM {
            return Err(serde::Error::custom(format!(
                "embedding dimension must be at least {MIN_DIM}, got {dim}"
            ))
            .in_field("HashedNgramEmbedder.dim"));
        }
        Ok(Self {
            dim,
            seed: u64::from_value(v.field("seed"))
                .map_err(|e| e.in_field("HashedNgramEmbedder.seed"))?,
            word_weight: f32::from_value(v.field("word_weight"))
                .map_err(|e| e.in_field("HashedNgramEmbedder.word_weight"))?,
            wordpiece: Option::<WordPieceVocab>::from_value(v.field("wordpiece"))
                .map_err(|e| e.in_field("HashedNgramEmbedder.wordpiece"))?,
        })
    }
}

impl HashedNgramEmbedder {
    /// An embedder of dimension `dim` (≥ 8) seeded by `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(
            dim >= MIN_DIM,
            "embedding dimension must be at least {MIN_DIM}, got {dim}"
        );
        Self { dim, seed, word_weight: 2.0, wordpiece: None }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The slot of hash `h`: `h mod dim`, taken as a mask when `dim` is a
    /// power of two (the same index, without a 64-bit division).
    #[inline]
    fn slot(&self, h: u64) -> usize {
        if self.dim.is_power_of_two() {
            (h & (self.dim as u64 - 1)) as usize
        } else {
            (h % self.dim as u64) as usize
        }
    }

    /// Adds one weighted feature, given the FNV-1a hash of its bytes, to
    /// the accumulator.
    #[inline]
    fn add_feature(&self, acc: &mut [f32], fnv: u64, weight: f32) {
        let h = fnv ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        acc[self.slot(h)] += sign * weight;
        // A second slot decorrelates collisions (two hash functions).
        let h2 = hash64(&h.to_le_bytes());
        let sign2 = if (h2 >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        acc[self.slot(h2)] += sign2 * weight * 0.7;
    }

    /// The unit embedding of a token. Deterministic; equal tokens get equal
    /// vectors.
    pub fn embed_token(&self, token: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        let mut pad = Vec::with_capacity(token.len() + 2);
        self.embed_token_into(token, &mut acc, &mut pad, &mut Vec::new());
        acc
    }

    /// [`HashedNgramEmbedder::embed_token`] writing into a caller-provided
    /// slice, with reusable byte buffers: `pad` holds the boundary-padded
    /// token `<token>` and `bounds` the byte offsets of its characters.
    ///
    /// Every feature is hashed from bytes, never from a built string: the
    /// whole word, then every character 3-gram of `pad`, then every 4-gram,
    /// then the word-piece segments (the FNV-1a state of `wp:` continued
    /// over the piece). An n-gram is a window of `n` characters, so a
    /// non-ASCII token's windows end on character boundaries; for ASCII
    /// every byte is one. The hashed bytes, their order and every float
    /// update match the string-building reference of this module's tests,
    /// so the vectors are bit-identical to it.
    ///
    /// # Panics
    /// Panics in debug builds when `acc` is not `dim` long.
    pub fn embed_token_into(
        &self,
        token: &str,
        acc: &mut [f32],
        pad: &mut Vec<u8>,
        bounds: &mut Vec<usize>,
    ) {
        debug_assert_eq!(acc.len(), self.dim);
        acc.fill(0.0);
        if token.is_empty() {
            return;
        }
        pad.clear();
        pad.push(b'<');
        pad.extend_from_slice(token.as_bytes());
        pad.push(b'>');
        self.add_feature(acc, hash64(token.as_bytes()), self.word_weight);
        if token.is_ascii() {
            for n in [3, 4] {
                for gram in pad.windows(n) {
                    self.add_feature(acc, hash64(gram), 1.0);
                }
            }
        } else {
            // Character `k` of `pad` is `pad[bounds[k]..bounds[k + 1]]`.
            bounds.clear();
            bounds.reserve(token.len() + 3);
            bounds.push(0);
            bounds.extend(token.char_indices().map(|(i, _)| i + 1));
            bounds.extend([pad.len() - 1, pad.len()]);
            for n in [3, 4] {
                for w in bounds.windows(n + 1) {
                    self.add_feature(acc, hash64(&pad[w[0]..w[n]]), 1.0);
                }
            }
        }
        if let Some(vocab) = &self.wordpiece {
            let prefix = hash64(b"wp:");
            for piece in vocab.segment(token) {
                self.add_feature(acc, hash64_extend(prefix, piece.as_bytes()), 0.8);
            }
        }
        normalize(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wym_linalg::vector::{cosine, norm};

    /// The string-building hasher that [`HashedNgramEmbedder::embed_token_into`]
    /// replaced, kept as the reference it must reproduce bit for bit.
    fn embed_reference(e: &HashedNgramEmbedder, token: &str) -> Vec<f32> {
        let add_feature = |acc: &mut [f32], feature: &str, weight: f32| {
            let h = hash64(feature.as_bytes()) ^ e.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let idx = (h % e.dim as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            acc[idx] += sign * weight;
            let h2 = hash64(&h.to_le_bytes());
            let idx2 = (h2 % e.dim as u64) as usize;
            let sign2 = if (h2 >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            acc[idx2] += sign2 * weight * 0.7;
        };
        let mut acc = vec![0.0f32; e.dim];
        if token.is_empty() {
            return acc;
        }
        add_feature(&mut acc, token, e.word_weight);
        let mut chars = vec!['<'];
        chars.extend(token.chars());
        chars.push('>');
        for n in [3usize, 4] {
            if chars.len() < n {
                continue;
            }
            for start in 0..=chars.len() - n {
                let gram: String = chars[start..start + n].iter().collect();
                add_feature(&mut acc, &gram, 1.0);
            }
        }
        if let Some(vocab) = &e.wordpiece {
            for piece in vocab.segment(token) {
                add_feature(&mut acc, &format!("wp:{piece}"), 0.8);
            }
        }
        normalize(&mut acc);
        acc
    }

    /// Tokens of 0–7 fragments: ASCII letters and digits, and multi-byte
    /// characters of two, three and four bytes (`é`, `ß`, `ς`, `日`, `𝔸`)
    /// plus a combining mark.
    fn token() -> impl Strategy<Value = String> {
        let fragments = vec![
            "a", "x", "cam", "era", "3", "94", "0", "é", "ß", "ς", "σ", "日本", "𝔸", "e\u{301}",
            "zür", "ich", "ǆ",
        ];
        prop::collection::vec(prop::sample::select(fragments), 0..8).prop_map(|f| f.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn byte_hashing_matches_the_string_hasher(
            tok in token(),
            seed in 0u64..1_000,
            corpus in prop::collection::vec(token(), 1..6),
        ) {
            let (mut pad, mut bounds) = (Vec::new(), Vec::new());
            for dim in [8, 48, 64, 300] {
                let mut e = HashedNgramEmbedder::new(dim, seed);
                for wordpiece in [false, true] {
                    if wordpiece {
                        e.wordpiece =
                            Some(WordPieceVocab::build(corpus.iter().map(String::as_str), 4, 1));
                    }
                    let mut got = vec![f32::NAN; dim];
                    e.embed_token_into(&tok, &mut got, &mut pad, &mut bounds);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(
                        bits(&got),
                        bits(&embed_reference(&e, &tok)),
                        "dim {} wordpiece {} token {:?}", dim, wordpiece, tok
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_and_unit_norm() {
        let e = HashedNgramEmbedder::new(64, 1);
        let a = e.embed_token("camera");
        let b = e.embed_token("camera");
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_token_is_zero_vector() {
        let e = HashedNgramEmbedder::new(16, 0);
        assert!(e.embed_token("").iter().all(|&v| v == 0.0));
    }

    #[test]
    fn orthographic_similarity_orders_cosine() {
        let e = HashedNgramEmbedder::new(64, 2);
        let camera = e.embed_token("camera");
        let cameras = e.embed_token("cameras");
        let license = e.embed_token("license");
        assert!(cosine(&camera, &cameras) > 0.45, "{}", cosine(&camera, &cameras));
        assert!(cosine(&camera, &cameras) > cosine(&camera, &license) + 0.2);
    }

    #[test]
    fn product_codes_differing_in_one_digit_are_similar_not_equal() {
        let e = HashedNgramEmbedder::new(64, 2);
        let a = e.embed_token("39400416");
        let b = e.embed_token("39400417");
        let c = e.embed_token("58110000");
        let sim_ab = cosine(&a, &b);
        assert!(sim_ab > 0.5 && sim_ab < 0.999, "sim {sim_ab}");
        assert!(sim_ab > cosine(&a, &c));
    }

    #[test]
    fn different_seeds_produce_different_spaces() {
        let e1 = HashedNgramEmbedder::new(64, 1);
        let e2 = HashedNgramEmbedder::new(64, 99);
        assert_ne!(e1.embed_token("sony"), e2.embed_token("sony"));
    }

    #[test]
    fn short_tokens_still_embed() {
        let e = HashedNgramEmbedder::new(32, 3);
        let v = e.embed_token("tv");
        assert!((norm(&v) - 1.0).abs() < 1e-5);
        let u = e.embed_token("4k");
        assert!(cosine(&v, &u).abs() < 0.9, "unrelated short tokens should not collide");
    }

    #[test]
    fn wordpiece_features_change_the_vector() {
        let mut e = HashedNgramEmbedder::new(64, 4);
        let before = e.embed_token("camcorder");
        let vocab =
            WordPieceVocab::build(["cam", "corder", "camcorder"], 6, 1);
        e.wordpiece = Some(vocab);
        let after = e.embed_token("camcorder");
        assert_ne!(before, after);
        assert!(cosine(&before, &after) > 0.7, "subword features refine, not replace");
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_tiny_dimensions() {
        let _ = HashedNgramEmbedder::new(4, 0);
    }
}
