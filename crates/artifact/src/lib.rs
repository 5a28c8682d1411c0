//! Versioned binary model artifacts — the train / serve split.
//!
//! The paper's pipeline trains and classifies in one process; a serving
//! system needs the two separated by a durable, fast-loading, *provenanced*
//! model file. This crate provides that file and the machinery around it:
//!
//! * [`mod@format`] — the WYMA container: magic + schema version, an
//!   end-of-file TOC, per-section FNV-1a checksums, JSON sections for the
//!   small irregular state, and page-aligned little-endian `f32`/`i8`
//!   tensor sections that byte-cast straight out of a memory map.
//! * [`blob`] — the two load paths, buffered [`LoadMode::Read`] and
//!   [`LoadMode::Mmap`] (`mmap(2)` via a two-function libc binding; no
//!   external crate).
//! * [`model`] — [`save_model`] / [`load_model`] bridging
//!   [`wym_core::WymModelState`] to the container, plus quantized-table
//!   sections for blocking-layer embeddings.
//! * [`registry`] — [`ModelRegistry`]: several models resident at once
//!   (per-dataset / per-tenant) behind an LRU with byte-budget eviction.
//! * [`mod@inspect`] — [`inspect()`] / [`diff`]
//!   powering the `wym model inspect` / `wym model diff` subcommands.
//!
//! **Determinism contract.** Saving and loading is pure data movement: the
//! head round-trips through the workspace's shortest-exact JSON writer and
//! tensors are copied bit-for-bit, so a reloaded model produces verdicts,
//! impact scores, and `score_checksum` identical to the in-memory model —
//! for either load mode, any `WYM_KERNEL` variant, and any thread count.
//! The smoke gate (`run_experiments.sh --smoke`) and the round-trip
//! proptests in this crate enforce exactly that.
//!
//! **Provenance.** Every artifact embeds a [`wym_obs::Manifest`] (git sha,
//! kernel, threads, seed, config/dataset FNV fingerprints) in its header
//! section, so any artifact can be traced to the run that produced it and
//! two artifacts can be compared field-by-field with `wym model diff`.

pub mod blob;
pub mod format;
pub mod inspect;
pub mod model;
pub mod registry;

pub use blob::{Blob, LoadMode};
pub use format::{Artifact, ArtifactWriter, Section, SectionKind, ARTIFACT_SCHEMA_VERSION};
pub use inspect::{content_fnv, diff, inspect, ArtifactInfo};
pub use model::{
    add_manifest, add_quantized, load_model, load_state, read_quantized, read_sketch, save_model,
    save_model_with_sketch, save_state, save_state_with_sketch, LoadedModel,
};
pub use registry::ModelRegistry;

/// Errors of the artifact layer. Every message is self-contained and names
/// the file plus the recovery action where one exists.
#[derive(Debug)]
pub enum ArtifactError {
    /// An underlying filesystem error, with context.
    Io {
        /// What was being attempted (e.g. `opening results/model.wym`).
        context: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file's contents violate the format (bad magic, unsupported
    /// schema version, checksum mismatch, missing section, bad shape …).
    Format(String),
}

impl ArtifactError {
    pub(crate) fn io(context: &str, source: std::io::Error) -> ArtifactError {
        ArtifactError::Io { context: context.to_string(), source }
    }

    pub(crate) fn format(msg: String) -> ArtifactError {
        ArtifactError::Format(msg)
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { context, source } => write!(f, "{context}: {source}"),
            ArtifactError::Format(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            ArtifactError::Format(_) => None,
        }
    }
}
