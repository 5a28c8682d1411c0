//! Token-embedding substrate — the BERT / SBERT substitute.
//!
//! The paper encodes entity descriptions "with word embeddings generated
//! through the BERT language model" and obtains its best results with a
//! Sentence-BERT fine-tuning (§4.1.1). Reproducing that offline and in pure
//! Rust, this crate provides a stack with the same *interfaces and
//! properties* the rest of WYM relies on:
//!
//! 1. [`hashed::HashedNgramEmbedder`] — deterministic character-n-gram
//!    hashing (fastText-style) gives every token a static vector in which
//!    orthographically similar tokens (`exch`/`exchange`, `39400416`/
//!    `39400416`) have high cosine similarity;
//! 2. [`context::ContextEncoder`] — mixes each token's vector with its
//!    neighbours, its attribute, and the whole record, so the *same* token
//!    embeds differently in different contexts (the paper's challenge R4 and
//!    the "average of hidden layers" behaviour of BERT);
//! 3. [`finetune`] — two trained variants built on the siamese projection of
//!    `wym-nn`: [`EmbedderKind::FineTuned`] (≈ BERT fine-tuned on the EM
//!    task) and [`EmbedderKind::Siamese`] (≈ SBERT, the WYM default).
//!
//! What this substitution preserves: pairing is driven purely by cosine
//! similarity between token vectors, and scoring by symmetric mean/|diff|
//! features — both of which behave the same over this stack as over BERT
//! embeddings. What it does not preserve: absolute F1 values; deep lexical
//! semantics (synonyms with disjoint surfaces score low). DESIGN.md §2
//! documents the trade-off.

pub mod context;
pub mod finetune;
pub mod hashed;
pub mod matrix;
pub mod quant;

pub use context::ContextEncoder;
pub use finetune::{build_centroid_pairs, EntityTokens};
pub use hashed::HashedNgramEmbedder;
pub use matrix::{recycle, EmbedMatrix};
pub use quant::QuantizedTable;

use serde::{Deserialize, Serialize};
use wym_nn::{SiameseConfig, SiameseProjection};

/// Which embedding variant to use — the axis of the paper's Table 4
/// "Decision Unit Generator" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmbedderKind {
    /// Hashed n-grams + context mixing, no training (≈ pre-trained BERT).
    Static,
    /// `Static` plus a projection trained on record centroids with the EM
    /// labels (≈ BERT fine-tuned on the EM task).
    FineTuned,
    /// `Static` plus a projection trained on record *and* attribute
    /// centroids (≈ Sentence-BERT; the WYM default).
    Siamese,
}

/// The full embedding pipeline: static hashing → contextualization →
/// optional trained projection.
#[derive(Debug, Clone, Serialize)]
pub struct Embedder {
    kind: EmbedderKind,
    hashed: HashedNgramEmbedder,
    context: ContextEncoder,
    projection: Option<SiameseProjection>,
}

/// The tensor-free part of an [`Embedder`]: everything except the trained
/// projection matrix. Model artifacts store this head as JSON and the
/// projection as a raw little-endian tensor (so the tensor section can be
/// memory-mapped); [`Embedder::from_parts`] reassembles the two.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedderHead {
    /// The embedding variant.
    pub kind: EmbedderKind,
    /// Character-n-gram hasher (dimension, seed, wordpiece config).
    pub hashed: HashedNgramEmbedder,
    /// Context-mixing weights.
    pub context: ContextEncoder,
}

impl Embedder {
    /// An untrained (static) embedder of the given dimension.
    pub fn new_static(dim: usize, seed: u64) -> Self {
        Self {
            kind: EmbedderKind::Static,
            hashed: HashedNgramEmbedder::new(dim, seed),
            context: ContextEncoder::default(),
            projection: None,
        }
    }

    /// Builds and (if the kind requires it) trains an embedder.
    ///
    /// `records` are `(left, right, is_match)` triples of per-attribute
    /// token lists; only the trained kinds look at them.
    pub fn fit(
        kind: EmbedderKind,
        dim: usize,
        seed: u64,
        records: &[(EntityTokens, EntityTokens, bool)],
    ) -> Self {
        let _span = wym_obs::span("embed_fit");
        wym_obs::counter_add("embed.fit_records", records.len() as u64);
        let mut embedder = Self::new_static(dim, seed);
        embedder.kind = kind;
        match kind {
            EmbedderKind::Static => {}
            EmbedderKind::FineTuned => {
                let pairs = build_centroid_pairs(&embedder, records, false);
                let config = SiameseConfig {
                    epochs: 5,
                    margin: 0.8,
                    lr: 0.03,
                    seed,
                    ..SiameseConfig::default()
                };
                let mut proj = SiameseProjection::new(dim, &config);
                proj.train(&pairs, &config);
                embedder.projection = Some(proj);
            }
            EmbedderKind::Siamese => {
                let pairs = build_centroid_pairs(&embedder, records, true);
                let config = SiameseConfig {
                    epochs: 10,
                    margin: 1.0,
                    lr: 0.05,
                    seed,
                    ..SiameseConfig::default()
                };
                let mut proj = SiameseProjection::new(dim, &config);
                proj.train(&pairs, &config);
                embedder.projection = Some(proj);
            }
        }
        embedder
    }

    /// The embedding variant.
    pub fn kind(&self) -> EmbedderKind {
        self.kind
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.hashed.dim()
    }

    /// Embeds one entity: `attr_tokens[a][t]` is token `t` of attribute `a`;
    /// the result has the same shape with one unit vector per token.
    ///
    /// The vectors are *contextual*: the same token in a different record
    /// (or attribute) gets a different vector.
    pub fn embed_entity(&self, attr_tokens: &[Vec<String>]) -> Vec<Vec<Vec<f32>>> {
        let _span = wym_obs::span("embed");
        if wym_obs::enabled() {
            let n: usize = attr_tokens.iter().map(|a| a.len()).sum();
            wym_obs::counter_add("embed.tokens", n as u64);
        }
        let static_vecs: Vec<Vec<Vec<f32>>> = attr_tokens
            .iter()
            .map(|tokens| tokens.iter().map(|t| self.hashed.embed_token(t)).collect())
            .collect();
        let mut contextual = self.context.contextualize(&static_vecs);
        if let Some(proj) = &self.projection {
            for attr in &mut contextual {
                for vec in attr {
                    *vec = proj.project(vec);
                }
            }
        }
        contextual
    }

    /// The fused twin of [`Embedder::embed_entity`]: same static hashing →
    /// contextualization → optional projection sequence, but every
    /// intermediate lives in this thread's [`matrix::EmbedScratch`] arenas
    /// and the result lands in one flat [`EmbedMatrix`] — at most one data
    /// allocation per entity, zero once [`recycle`] has fed the pool.
    ///
    /// Bit-identity: each stage delegates to an `*_into` variant
    /// ([`HashedNgramEmbedder::embed_token_into`], the flat contextualizer,
    /// [`wym_nn::SiameseProjection::project_rows_into`]) that performs the
    /// identical float operations in the identical order as its allocating
    /// twin — the projection runs each row's chain whether it projects one
    /// row or the whole entity — so
    /// `embed_entity_fused(t).to_nested() == embed_entity(t)` exactly, the
    /// property `fused_embed_bit_identical_to_reference` pins.
    pub fn embed_entity_fused(&self, attr_tokens: &[Vec<String>]) -> EmbedMatrix {
        let _span = wym_obs::span("embed");
        if wym_obs::enabled() {
            let n: usize = attr_tokens.iter().map(|a| a.len()).sum();
            wym_obs::counter_add("embed.tokens", n as u64);
        }
        let dim = self.dim();
        let n_tok: usize = attr_tokens.iter().map(Vec::len).sum();
        matrix::with_scratch(|s| {
            let (mut offsets, mut data) = s.pool.pop().unwrap_or_default();
            offsets.clear();
            offsets.push(0);
            data.clear();
            data.resize(n_tok * dim, 0.0);

            // Stage 1: static hashed vectors into the statics arena.
            s.statics.clear();
            s.statics.resize(n_tok * dim, 0.0);
            let mut r = 0usize;
            for tokens in attr_tokens {
                for t in tokens {
                    self.hashed.embed_token_into(
                        t,
                        &mut s.statics[r * dim..(r + 1) * dim],
                        &mut s.pad,
                        &mut s.bounds,
                    );
                    r += 1;
                }
                offsets.push(r);
            }

            if n_tok > 0 {
                s.centroid.clear();
                s.centroid.resize(dim, 0.0);
                s.attr_centroid.clear();
                s.attr_centroid.resize(dim, 0.0);
                s.nbr.clear();
                s.nbr.resize(dim, 0.0);
                match &self.projection {
                    // Stage 2 (no projection): contextualize straight into
                    // the output rows.
                    None => self.context.contextualize_flat(
                        &s.statics,
                        &offsets,
                        dim,
                        &mut data,
                        &mut s.centroid,
                        &mut s.attr_centroid,
                        &mut s.nbr,
                    ),
                    // Stages 2+3: contextualize into the ctx arena, project
                    // all rows into the output with one GEMM.
                    Some(proj) => {
                        s.ctx.clear();
                        s.ctx.resize(n_tok * dim, 0.0);
                        self.context.contextualize_flat(
                            &s.statics,
                            &offsets,
                            dim,
                            &mut s.ctx,
                            &mut s.centroid,
                            &mut s.attr_centroid,
                            &mut s.nbr,
                        );
                        proj.project_rows_into(&s.ctx, &mut data);
                    }
                }
            }
            EmbedMatrix::from_raw(dim, offsets, data)
        })
    }

    /// Static (context-free) vector of a single token. Used by the scorer's
    /// per-unit aggregation (Eq. 3 keys units by surface form, not context).
    pub fn embed_token_static(&self, token: &str) -> Vec<f32> {
        self.hashed.embed_token(token)
    }

    /// The trained projection, when the kind has one.
    pub fn projection(&self) -> Option<&SiameseProjection> {
        self.projection.as_ref()
    }

    /// Splits off the tensor-free head (see [`EmbedderHead`]).
    pub fn to_head(&self) -> EmbedderHead {
        EmbedderHead {
            kind: self.kind,
            hashed: self.hashed.clone(),
            context: self.context.clone(),
        }
    }

    /// Reassembles an embedder from its head and (optional) projection —
    /// the inverse of [`Embedder::to_head`] + [`Embedder::projection`].
    ///
    /// # Panics
    /// Panics when the projection dimension disagrees with the head's.
    pub fn from_parts(head: EmbedderHead, projection: Option<SiameseProjection>) -> Self {
        if let Some(p) = &projection {
            assert_eq!(
                p.dim(),
                head.hashed.dim(),
                "projection dimension must match embedder dimension"
            );
        }
        Self { kind: head.kind, hashed: head.hashed, context: head.context, projection }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wym_linalg::vector::{cosine, norm};

    fn entity(attrs: &[&[&str]]) -> Vec<Vec<String>> {
        attrs.iter().map(|a| a.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn embed_entity_shape_matches_input() {
        let e = Embedder::new_static(32, 1);
        let out = e.embed_entity(&entity(&[&["digital", "camera"], &["sony"]]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[0][0].len(), 32);
    }

    #[test]
    fn identical_tokens_in_same_context_have_identical_vectors() {
        let e = Embedder::new_static(48, 1);
        let out = e.embed_entity(&entity(&[&["camera", "camera"]]));
        assert_eq!(out[0][0], out[0][1]);
    }

    #[test]
    fn same_token_differs_across_contexts() {
        // Challenge R4: context-awareness.
        let e = Embedder::new_static(48, 1);
        let a = e.embed_entity(&entity(&[&["camera", "sony"]]));
        let b = e.embed_entity(&entity(&[&["camera", "microsoft", "license"]]));
        let sim = cosine(&a[0][0], &b[0][0]);
        assert!(sim < 0.9999, "contextualization must shift the vector, cos = {sim}");
        assert!(sim > 0.7, "…but not beyond recognition, cos = {sim}");
    }

    #[test]
    fn similar_surface_forms_are_close_unrelated_far() {
        let e = Embedder::new_static(64, 1);
        let exch = e.embed_token_static("exch");
        let exchange = e.embed_token_static("exchange");
        let nikon = e.embed_token_static("nikon");
        assert!(
            cosine(&exch, &exchange) > cosine(&exch, &nikon),
            "exch~exchange {} vs exch~nikon {}",
            cosine(&exch, &exchange),
            cosine(&exch, &nikon)
        );
    }

    #[test]
    fn vectors_are_unit_norm() {
        let e = Embedder::new_static(32, 3);
        let out = e.embed_entity(&entity(&[&["sony", "dslra200w"]]));
        for v in &out[0] {
            assert!((norm(v) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn trained_kinds_store_projection() {
        let left = entity(&[&["digital", "camera"]]);
        let right = entity(&[&["digital", "camera", "kit"]]);
        let other = entity(&[&["beer", "ale"]]);
        let records = vec![
            (left.clone(), right.clone(), true),
            (left.clone(), other.clone(), false),
        ];
        let ft = Embedder::fit(EmbedderKind::FineTuned, 32, 5, &records);
        assert!(ft.projection.is_some());
        let sb = Embedder::fit(EmbedderKind::Siamese, 32, 5, &records);
        assert!(sb.projection.is_some());
        // Still unit vectors after projection.
        let out = sb.embed_entity(&left);
        assert!((norm(&out[0][0]) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn static_fit_ignores_records() {
        let e1 = Embedder::fit(EmbedderKind::Static, 32, 7, &[]);
        let e2 = Embedder::new_static(32, 7);
        assert_eq!(e1.embed_token_static("camera"), e2.embed_token_static("camera"));
    }

    #[test]
    fn empty_entity_is_fine() {
        let e = Embedder::new_static(16, 0);
        let out = e.embed_entity(&entity(&[&[]]));
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    /// The fused arena path must reproduce the reference path bit for bit —
    /// every kind (static / trained projection), empty attributes, empty
    /// tokens, lone tokens, and repeated calls through the recycling pool.
    #[test]
    fn fused_embed_bit_identical_to_reference() {
        let cases: Vec<Vec<Vec<String>>> = vec![
            entity(&[&["digital", "camera"], &["sony"]]),
            entity(&[&["camera"]]),
            entity(&[&[], &["dslra200w", "kit", "zoom", "lens"], &[]]),
            entity(&[&["", "camera", ""]]),
            entity(&[&[]]),
            entity(&[]),
        ];
        let left = entity(&[&["digital", "camera"]]);
        let right = entity(&[&["digital", "camera", "kit"]]);
        let records =
            vec![(left.clone(), right, true), (left, entity(&[&["beer", "ale"]]), false)];
        let embedders = vec![
            Embedder::new_static(32, 1),
            Embedder::fit(EmbedderKind::Siamese, 32, 5, &records),
        ];
        for e in &embedders {
            for case in &cases {
                // Twice per case: the second call draws from the pool.
                for round in 0..2 {
                    let reference = e.embed_entity(case);
                    let fused = e.embed_entity_fused(case);
                    assert_eq!(
                        fused.to_nested(),
                        reference,
                        "kind {:?} round {round} case {case:?}",
                        e.kind()
                    );
                    recycle(fused);
                }
            }
        }
    }
}
