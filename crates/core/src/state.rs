//! Serializable model state: the head / tensor split behind model artifacts.
//!
//! A fitted [`WymModel`] decomposes into two kinds of data with very
//! different storage needs:
//!
//! * the **head** — configuration, tokenizer, context-mixing weights,
//!   feature specs, classifier-pool coefficients, and scaler statistics.
//!   Small (kilobytes), irregular, and best kept human-readable: the head
//!   serializes as JSON, which round-trips every `f32`/`f64` bit-exactly
//!   because the workspace JSON writer prints floats shortest-exact.
//! * the **tensors** — the scorer network's dense weight matrices and the
//!   embedder's trained projection. Large, rectangular, and hot at load
//!   time: `wym-artifact` writes them as raw little-endian `f32` in a
//!   page-aligned section so a loader can memory-map them.
//!
//! [`WymModelState::from_model`] performs the split and
//! [`WymModelState::into_model`] reverses it. The round trip is bit-exact:
//! tensors are copied verbatim and nothing is retrained or re-quantized, so
//! a reassembled model reproduces the original's verdicts, impact scores,
//! and `score_checksum` to the last bit (enforced by the artifact round-trip
//! proptests and the smoke gate).

use crate::matcher::SavedMatcher;
use crate::pipeline::{SavedWymModel, WymConfig, WymModel};
use crate::scorer::{RelevanceScorer, ScorerConfig};
use serde::{Deserialize, Serialize};
use wym_embed::{Embedder, EmbedderHead, EmbedderKind};
use wym_linalg::Matrix;
use wym_nn::{Activation, Dense, Loss, Mlp, SiameseProjection};
use wym_tokenize::Tokenizer;

/// A named row-major `f32` tensor destined for the artifact tensor heap.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    /// Stable identifier, e.g. `scorer.layer0.w` or `embed.projection`.
    pub name: String,
    /// The weights. Biases are stored as `1 × n` matrices.
    pub data: Matrix,
}

/// Architecture of the scorer network that is *not* captured by its weight
/// shapes: per-layer activations and the training loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScorerNetSpec {
    /// Activation of each layer, input to output.
    pub activations: Vec<Activation>,
    /// The loss the network was trained with.
    pub loss: Loss,
}

/// The JSON-serializable head of a model (everything but the tensors).
#[derive(Serialize, Deserialize)]
pub struct WymModelHead {
    /// Full pipeline configuration.
    pub config: WymConfig,
    /// The tokenizer.
    pub tokenizer: Tokenizer,
    /// Embedder minus its projection matrix (see [`EmbedderHead`]).
    pub embedder: EmbedderHead,
    /// Relevance-scorer configuration.
    pub scorer_config: ScorerConfig,
    /// Scorer network architecture; `None` for the parameterless ablation
    /// kinds (and for a `Neural` scorer fitted on an empty unit set).
    pub scorer_net: Option<ScorerNetSpec>,
    /// Feature specs + selected pool classifier + scaler.
    pub matcher: SavedMatcher,
    /// Schema attribute names.
    pub attr_names: Vec<String>,
}

/// A fitted model split into head + named tensors.
pub struct WymModelState {
    /// The JSON head.
    pub head: WymModelHead,
    /// The dense tensors, in a fixed order: scorer layers (w then b, input
    /// to output), then the embedding projection when present.
    pub tensors: Vec<NamedTensor>,
}

impl WymModelState {
    /// Splits a fitted model into head and tensors. Pure data movement —
    /// weights are cloned verbatim.
    pub fn from_model(model: &WymModel) -> WymModelState {
        let mut tensors = Vec::new();
        let scorer_net = model.scorer().model().map(|mlp| {
            for (i, layer) in mlp.layers().iter().enumerate() {
                tensors.push(NamedTensor {
                    name: format!("scorer.layer{i}.w"),
                    data: layer.w.clone(),
                });
                tensors.push(NamedTensor {
                    name: format!("scorer.layer{i}.b"),
                    data: Matrix::from_vec(1, layer.b.len(), layer.b.clone()),
                });
            }
            ScorerNetSpec {
                activations: mlp.layers().iter().map(|l| l.activation).collect(),
                loss: mlp.loss_kind(),
            }
        });
        if let Some(proj) = model.embedder().projection() {
            tensors.push(NamedTensor {
                name: "embed.projection".to_string(),
                data: proj.matrix().clone(),
            });
        }
        WymModelState {
            head: WymModelHead {
                config: model.config().clone(),
                tokenizer: model.tokenizer().clone(),
                embedder: model.embedder().to_head(),
                scorer_config: model.scorer().config().clone(),
                scorer_net,
                matcher: model.matcher().to_saved(),
                attr_names: model.attr_names().to_vec(),
            },
            tensors,
        }
    }

    /// Reassembles a working model, validating that every tensor the head
    /// promises is present with a consistent shape. Errors name the missing
    /// or malformed tensor so a truncated artifact is diagnosable.
    pub fn into_model(self) -> Result<WymModel, String> {
        let WymModelState { head, tensors } = self;
        let take = |name: &str| -> Result<&NamedTensor, String> {
            tensors.iter().find(|t| t.name == name).ok_or_else(|| {
                format!(
                    "model state is missing tensor `{name}` (have: {}); \
                     the artifact is truncated or was written by an \
                     incompatible version",
                    tensors.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join(", ")
                )
            })
        };

        let layers = match &head.scorer_net {
            None => None,
            Some(spec) => {
                let mut layers = Vec::with_capacity(spec.activations.len());
                for (i, &activation) in spec.activations.iter().enumerate() {
                    let w = take(&format!("scorer.layer{i}.w"))?.data.clone();
                    let b = take(&format!("scorer.layer{i}.b"))?;
                    if b.data.rows() != 1 {
                        return Err(format!(
                            "tensor `scorer.layer{i}.b` has shape {:?}, expected one row",
                            b.data.shape()
                        ));
                    }
                    layers.push(Dense { w, b: b.data.as_slice().to_vec(), activation });
                }
                Some((layers, spec.loss))
            }
        };
        let projection = match head.embedder.kind {
            EmbedderKind::Static => None,
            EmbedderKind::FineTuned | EmbedderKind::Siamese => {
                Some(take("embed.projection")?.data.clone())
            }
        };
        check_shapes(
            head.embedder.hashed.dim(),
            layers.as_ref().map(|(layers, _)| layers.as_slice()),
            projection.as_ref(),
            &head.matcher,
        )?;
        let scorer_model = layers.map(|(layers, loss)| Mlp::from_parts(layers, loss));
        let projection = projection.map(SiameseProjection::from_matrix);

        Ok(WymModel::from_saved(SavedWymModel {
            config: head.config,
            tokenizer: head.tokenizer,
            embedder: Embedder::from_parts(head.embedder, projection),
            scorer: RelevanceScorer::from_parts(head.scorer_config, scorer_model),
            matcher: head.matcher,
            attr_names: head.attr_names,
        }))
    }
}

/// Checks that a model's weights fit its embedding dimension `dim`, naming
/// the offending tensor: the scorer's layers chain, its first layer reads
/// one `[mean | |diff|]` row of two embeddings per unit (`2 × dim`
/// inputs) and its last emits one relevance logit, and a trained
/// projection is `dim × dim`. The matcher's scaler and selected
/// classifier must read its feature specs' width, and the classifier must
/// predict without panicking or looping (see [`wym_ml::AnyClassifier::check`]);
/// those errors name the field. [`WymModelState::into_model`] runs it
/// before a model is built.
fn check_shapes(
    dim: usize,
    scorer: Option<&[Dense]>,
    projection: Option<&Matrix>,
    matcher: &SavedMatcher,
) -> Result<(), String> {
    if let Some(layers) = scorer {
        let (Some(first), Some(last)) = (layers.first(), layers.last()) else {
            return Err("the scorer network lists no layers".into());
        };
        for (i, layer) in layers.iter().enumerate() {
            if layer.b.len() != layer.w.cols() {
                return Err(format!(
                    "tensor `scorer.layer{i}.b` has {} entries, expected {}",
                    layer.b.len(),
                    layer.w.cols()
                ));
            }
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[1].in_dim() != pair[0].out_dim() {
                return Err(format!(
                    "tensor `scorer.layer{}.w` has {} input rows but layer {i} produces {} outputs",
                    i + 1,
                    pair[1].in_dim(),
                    pair[0].out_dim()
                ));
            }
        }
        if first.in_dim() != 2 * dim {
            return Err(format!(
                "tensor `scorer.layer0.w` has {} input rows, expected {} (2 × embedding dim {dim})",
                first.in_dim(),
                2 * dim
            ));
        }
        if last.out_dim() != 1 {
            return Err(format!(
                "tensor `scorer.layer{}.w` has {} output columns, expected 1",
                layers.len() - 1,
                last.out_dim()
            ));
        }
    }
    if let Some(p) = projection {
        if p.shape() != (dim, dim) {
            return Err(format!(
                "tensor `embed.projection` has shape {:?}, expected ({dim}, {dim})",
                p.shape()
            ));
        }
    }
    let n_features = matcher.specs.len();
    let scaler = &matcher.selected.scaler;
    for (field, len) in [("mean", scaler.means().len()), ("std", scaler.scales().len())] {
        if len != n_features {
            return Err(format!(
                "`matcher.selected.scaler.{field}.len()` is {len}, expected {n_features} \
                 (one per feature spec)"
            ));
        }
    }
    matcher.selected.model.check("matcher.selected.model", n_features)
}

impl WymModelHead {
    /// The selected pool classifier recorded in the head (readable without
    /// rehydrating the model — `model inspect` prints this).
    pub fn classifier_kind(&self) -> wym_ml::ClassifierKind {
        self.matcher.selected.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wym_data::{magellan, split::paper_split};
    use wym_ml::ClassifierKind;
    use wym_nn::TrainConfig;

    fn fitted(kind: EmbedderKind) -> WymModel {
        fitted_with(kind, vec![ClassifierKind::LogisticRegression, ClassifierKind::DecisionTree])
    }

    fn fitted_with(kind: EmbedderKind, classifiers: Vec<ClassifierKind>) -> WymModel {
        let dataset = magellan::generate_by_name("S-FZ", 42).unwrap().subsample(120, 0);
        let split = paper_split(&dataset, 0);
        let mut cfg = WymConfig { embed_dim: 24, embedder_kind: kind, ..Default::default() };
        cfg.scorer.train =
            TrainConfig { epochs: 4, batch_size: 128, lr: 2e-3, ..Default::default() };
        cfg.matcher.kinds = classifiers;
        WymModel::fit(&dataset, &split, cfg)
    }

    #[test]
    fn state_round_trip_reproduces_predictions() {
        let model = fitted(EmbedderKind::Siamese);
        let dataset = magellan::generate_by_name("S-FZ", 42).unwrap().subsample(120, 0);
        let split = paper_split(&dataset, 0);
        let state = WymModelState::from_model(&model);
        assert!(
            state.tensors.iter().any(|t| t.name == "embed.projection"),
            "siamese model must export its projection"
        );
        let back = state.into_model().expect("state must reassemble");
        for &i in split.test.iter().take(20) {
            let pair = &dataset.pairs[i];
            let a = model.predict(pair);
            let b = back.predict(pair);
            assert_eq!(a.label, b.label);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "pair {i}");
        }
    }

    #[test]
    fn static_model_has_no_projection_tensor() {
        let model = fitted(EmbedderKind::Static);
        let state = WymModelState::from_model(&model);
        assert!(state.tensors.iter().all(|t| t.name != "embed.projection"));
        assert!(state.into_model().is_ok());
    }

    #[test]
    fn missing_tensor_is_an_actionable_error() {
        let model = fitted(EmbedderKind::Siamese);
        let mut state = WymModelState::from_model(&model);
        state.tensors.retain(|t| t.name != "embed.projection");
        let err = state.into_model().err().expect("must reject missing tensor");
        assert!(err.contains("embed.projection"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    /// The model's state with its head re-read from its JSON as `edit`
    /// rewrites it (the edit must change it); `Err` when the edited head
    /// does not parse.
    fn edited_state(
        model: &WymModel,
        edit: impl FnOnce(&str) -> String,
    ) -> Result<WymModelState, String> {
        let WymModelState { head, tensors } = WymModelState::from_model(model);
        let json = serde_json::to_string(&head).expect("serialize head");
        let edited = edit(&json);
        assert_ne!(edited, json, "the edit must change the head");
        let head = serde_json::from_str(&edited).map_err(|e| e.to_string())?;
        Ok(WymModelState { head, tensors })
    }

    #[test]
    fn head_with_an_unusable_dimension_is_refused() {
        let model = fitted(EmbedderKind::Siamese);
        let with_dim = |dim: usize| {
            edited_state(&model, |json| {
                json.replace(r#""hashed":{"dim":24"#, &format!(r#""hashed":{{"dim":{dim}"#))
            })
        };

        // A zero dimension used to load, then divide by zero when the
        // first token was hashed.
        let err = with_dim(0).err().expect("dim 0 must not parse");
        assert!(err.contains("dim") && err.contains("at least 8, got 0"), "{err}");

        // Half the trained dimension parses, but the 24 × 24 projection
        // and the 48-input scorer no longer fit it.
        let state = with_dim(12).expect("dim 12 parses");
        let err = state.into_model().err().expect("dim 12 does not fit the weights");
        assert!(err.contains("embedding dim 12"), "{err}");
    }

    #[test]
    fn malformed_classifier_snapshot_is_refused() {
        let model = fitted_with(EmbedderKind::Static, vec![ClassifierKind::DecisionTree]);
        // The state with the number after the first `prefix` of its head
        // set to `value`, reassembled: returns the error.
        let refuse = |prefix: &str, value: &str| -> String {
            let state = edited_state(&model, |json| {
                let at = json.find(prefix).unwrap_or_else(|| panic!("no {prefix} in the head"));
                let start = at + prefix.len();
                let len = json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
                let mut edited = json.to_string();
                edited.replace_range(start..start + len, value);
                edited
            })
            .expect("edit parses");
            state.into_model().err().expect("malformed classifier must be refused")
        };
        let tree = "`matcher.selected.model.Dt.tree";

        // The root split's left child pointing back at the root used to
        // make `predict_proba` loop forever.
        let head = serde_json::to_string(&WymModelState::from_model(&model).head).unwrap();
        assert!(head.contains(r#""nodes":[{"Split":"#), "the tree's root is a split");
        let err = refuse(r#""left":"#, "0");
        assert!(err.contains(&format!("{tree}.nodes[0].left` is 0")), "{err}");
        let err = refuse(r#""right":"#, "99999");
        assert!(err.contains(".right` is 99999"), "{err}");
        let err = refuse(r#"{"Split":{"feature":"#, "4096");
        assert!(err.contains(&format!("{tree}.nodes[0].feature` is 4096")), "{err}");
        let n = model.matcher().specs().len();
        let err = refuse(r#""n_features":"#, &(n + 1).to_string());
        assert!(err.contains(&format!("{tree}.n_features` is {}, expected {n}", n + 1)), "{err}");
        assert!(WymModelState::from_model(&model).into_model().is_ok());
    }

    #[test]
    fn head_with_the_retired_obs_section_still_loads() {
        // Heads saved while `WymConfig` had an `obs` section carry it; the
        // reader skips the key.
        let model = fitted(EmbedderKind::Static);
        let state = edited_state(&model, |json| {
            json.replacen(
                r#"{"config":{"#,
                r#"{"config":{"obs":{"enabled":false,"metrics_out":null},"#,
                1,
            )
        })
        .expect("a head with an obs section parses");
        let back = state.into_model().expect("and reassembles");
        let dataset = magellan::generate_by_name("S-FZ", 42).unwrap().subsample(120, 0);
        for pair in dataset.pairs.iter().take(10) {
            let (a, b) = (model.predict(pair), back.predict(pair));
            assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "pair {}", pair.id);
        }
    }

    #[test]
    fn shape_mismatch_is_an_actionable_error() {
        let model = fitted(EmbedderKind::Siamese);
        // Reshapes the named tensors (to zeros) and returns the load error.
        let reject = |reshape: &[(&str, (usize, usize))]| -> String {
            let mut state = WymModelState::from_model(&model);
            for &(name, (rows, cols)) in reshape {
                let t = state.tensors.iter_mut().find(|t| t.name == name).expect(name);
                t.data = Matrix::zeros(rows, cols);
            }
            state.into_model().err().expect("must reject bad shape")
        };

        let err = reject(&[("embed.projection", (3, 5))]);
        assert!(err.contains("embed.projection") && err.contains("expected"), "{err}");

        // A first layer narrower than the scorer's `2 × dim` feature row.
        let layers = model.scorer().model().expect("trained scorer").layers();
        let dim = model.embedder().dim();
        let err = reject(&[("scorer.layer0.w", (2 * dim - 1, layers[0].out_dim()))]);
        let want = format!("expected {}", 2 * dim);
        assert!(err.contains("scorer.layer0.w") && err.contains(&want), "{err}");

        // A last layer with two outputs (its bias widened to match).
        let last = layers.len() - 1;
        let (w, b) = (format!("scorer.layer{last}.w"), format!("scorer.layer{last}.b"));
        let err = reject(&[(&w, (layers[last].in_dim(), 2)), (&b, (1, 2))]);
        assert!(err.contains(&w) && err.contains("expected 1"), "{err}");
    }
}
