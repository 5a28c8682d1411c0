//! Model ⇄ artifact binding: the section schema of a saved [`WymModel`].
//!
//! A model artifact holds four kinds of sections:
//!
//! | section               | kind  | contents                                  |
//! |-----------------------|-------|-------------------------------------------|
//! | `manifest`            | json  | [`wym_obs::Manifest`] provenance header   |
//! | `head`                | json  | [`WymModelHead`]: configs, tokenizer, pool |
//! | `tensor:<name>`       | f32   | one dense tensor of [`WymModelState`]     |
//! | `<prefix>:codes/scales` | i8/f32 | optional quantized embedding tables   |
//!
//! The JSON head round-trips bit-exactly (the vendored writer prints floats
//! shortest-exact), tensors are raw little-endian bits, and nothing is
//! recomputed on load — which is what makes the saved→loaded equality
//! contract (`score_checksum` and verdict bit-identity) hold by
//! construction rather than by tolerance.

use crate::format::{Artifact, ArtifactWriter};
use crate::{ArtifactError, LoadMode};
use std::path::Path;
use wym_core::pipeline::WymModel;
use wym_core::state::{NamedTensor, WymModelHead, WymModelState};
use wym_embed::QuantizedTable;
use wym_linalg::Matrix;
use serde::{Serialize, Value};
use wym_obs::{pretty_json, Manifest, ModelSketch};

/// Section name of the provenance manifest.
pub const SECTION_MANIFEST: &str = "manifest";
/// Section name of the model head.
pub const SECTION_HEAD: &str = "head";
/// Section name of the train-time drift baseline sketch (optional).
pub const SECTION_SKETCH: &str = "sketch";
/// Prefix of model tensor sections.
pub const TENSOR_PREFIX: &str = "tensor:";

/// A model loaded back from an artifact, with its provenance.
pub struct LoadedModel {
    /// The reassembled model.
    pub model: WymModel,
    /// The provenance header the artifact was saved with.
    pub manifest: Manifest,
    /// The train-time drift baseline, when the artifact carries one.
    pub sketch: Option<ModelSketch>,
    /// Fold of the per-section payload checksums (manifest excluded) —
    /// the model-content fingerprint stamped into audit records.
    pub content_fnv: u64,
    /// Artifact size on disk.
    pub file_bytes: u64,
    /// True when the artifact was memory-mapped rather than read.
    pub mapped: bool,
}

/// Saves a fitted model (with its provenance manifest) to `path`.
/// Returns the artifact size in bytes.
pub fn save_model(
    path: &Path,
    model: &WymModel,
    manifest: &Manifest,
) -> Result<u64, ArtifactError> {
    save_model_with_sketch(path, model, manifest, None)
}

/// Saves a fitted model together with an optional train-time drift
/// baseline sketch (see [`wym_obs::sketch`]). See [`save_model`].
pub fn save_model_with_sketch(
    path: &Path,
    model: &WymModel,
    manifest: &Manifest,
    sketch: Option<&ModelSketch>,
) -> Result<u64, ArtifactError> {
    save_state_with_sketch(path, &WymModelState::from_model(model), manifest, sketch)
}

/// Saves an already-split model state. See [`save_model`].
pub fn save_state(
    path: &Path,
    state: &WymModelState,
    manifest: &Manifest,
) -> Result<u64, ArtifactError> {
    save_state_with_sketch(path, state, manifest, None)
}

/// Saves an already-split model state with an optional drift baseline.
pub fn save_state_with_sketch(
    path: &Path,
    state: &WymModelState,
    manifest: &Manifest,
    sketch: Option<&ModelSketch>,
) -> Result<u64, ArtifactError> {
    let _span = wym_obs::span("artifact_save");
    let mut w = ArtifactWriter::new();
    add_manifest(&mut w, manifest);
    let head = serde_json::to_vec(&state.head)
        .map_err(|e| ArtifactError::format(format!("serializing model head: {e}")))?;
    w.add_json(SECTION_HEAD, &head);
    if let Some(sk) = sketch {
        w.add_json(SECTION_SKETCH, pretty_json(&sk.to_json()).as_bytes());
    }
    for t in &state.tensors {
        w.add_f32(
            &format!("{TENSOR_PREFIX}{}", t.name),
            t.data.rows(),
            t.data.cols(),
            t.data.as_slice(),
        );
    }
    let bytes = w.write_to(path)?;
    wym_obs::counter_add("artifact.saves", 1);
    wym_obs::gauge_set("artifact.saved_bytes", bytes as f64);
    Ok(bytes)
}

/// Appends the `manifest` section: `{"manifest": <manifest>}`, laid out
/// like the `OBS_*.json` files that carry the same header.
pub fn add_manifest(w: &mut ArtifactWriter, manifest: &Manifest) {
    let section = Value::object([("manifest", manifest.to_value())]);
    w.add_json(SECTION_MANIFEST, pretty_json(&section).as_bytes());
}

/// Parses JSON section `name` of an opened artifact into a bare tree.
fn json_section(artifact: &Artifact, name: &str) -> Result<Value, ArtifactError> {
    let bytes = artifact.json_payload(name)?;
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ArtifactError::format(format!("{name} section is not UTF-8")))?;
    serde_json::from_str(text)
        .map_err(|e| ArtifactError::format(format!("{name} section does not parse: {e}")))
}

/// Reads the drift baseline sketch out of an opened artifact, `None` when
/// the artifact predates (or was saved without) one.
pub fn read_sketch(artifact: &Artifact) -> Result<Option<ModelSketch>, ArtifactError> {
    if !artifact.sections().iter().any(|s| s.name == SECTION_SKETCH) {
        return Ok(None);
    }
    ModelSketch::from_json(&json_section(artifact, SECTION_SKETCH)?)
        .map(Some)
        .map_err(|e| ArtifactError::format(format!("sketch section is malformed: {e}")))
}

/// Reads the provenance manifest out of an opened artifact.
pub fn read_manifest(artifact: &Artifact) -> Result<Manifest, ArtifactError> {
    Manifest::from_file_json(&json_section(artifact, SECTION_MANIFEST)?).ok_or_else(|| {
        ArtifactError::format("manifest section has no `manifest` object".to_string())
    })
}

/// Reassembles the head + tensors of an opened artifact into a
/// [`WymModelState`].
pub fn load_state(artifact: &Artifact) -> Result<WymModelState, ArtifactError> {
    let head_bytes = artifact.json_payload(SECTION_HEAD)?;
    let head: WymModelHead = serde_json::from_slice(head_bytes)
        .map_err(|e| ArtifactError::format(format!("model head is malformed: {e}")))?;
    let mut tensors = Vec::new();
    for s in artifact.sections() {
        if let Some(name) = s.name.strip_prefix(TENSOR_PREFIX) {
            let (rows, cols, data) = artifact.tensor_f32(&s.name)?;
            tensors.push(NamedTensor {
                name: name.to_string(),
                data: Matrix::from_vec(rows, cols, data),
            });
        }
    }
    Ok(WymModelState { head, tensors })
}

/// Opens `path`, verifies it, and reassembles the model it holds.
pub fn load_model(path: &Path, mode: LoadMode) -> Result<LoadedModel, ArtifactError> {
    let _span = wym_obs::span("artifact_load");
    let artifact = Artifact::open(path, mode)?;
    let manifest = read_manifest(&artifact)?;
    let sketch = read_sketch(&artifact)?;
    let content_fnv = crate::inspect::content_fnv(artifact.sections());
    let state = load_state(&artifact)?;
    let model = state.into_model().map_err(|e| {
        ArtifactError::format(format!("{}: {e}", path.display()))
    })?;
    wym_obs::counter_add("artifact.loads", 1);
    Ok(LoadedModel {
        model,
        manifest,
        sketch,
        content_fnv,
        file_bytes: artifact.file_bytes(),
        mapped: artifact.is_mapped(),
    })
}

/// Appends a quantized embedding table as `<prefix>:codes` (i8, n × dim)
/// and `<prefix>:scales` (f32, n × 1) sections — the blocking layer's ANN
/// tables ride in the same container as the model that produced them.
pub fn add_quantized(w: &mut ArtifactWriter, prefix: &str, table: &QuantizedTable) {
    let (dim, codes, scales) = table.raw_parts();
    w.add_i8(&format!("{prefix}:codes"), table.len(), dim, codes);
    w.add_f32(&format!("{prefix}:scales"), scales.len(), 1, scales);
}

/// Reads a quantized table written by [`add_quantized`] back, bit-exact
/// (codes and scales are adopted verbatim; nothing is re-quantized).
pub fn read_quantized(
    artifact: &Artifact,
    prefix: &str,
) -> Result<QuantizedTable, ArtifactError> {
    let (n, dim, codes) = artifact.tensor_i8(&format!("{prefix}:codes"))?;
    let (sn, _, scales) = artifact.tensor_f32(&format!("{prefix}:scales"))?;
    if sn != n {
        return Err(ArtifactError::format(format!(
            "quantized table `{prefix}` has {n} code rows but {sn} scales; \
             the artifact is internally inconsistent"
        )));
    }
    Ok(QuantizedTable::from_raw_parts(dim, codes, scales))
}
