//! Dataset substrate: the EM data model, splits, CSV IO, and the synthetic
//! Magellan benchmark generator.
//!
//! The paper evaluates on "12 datasets provided by the Magellan library
//! which are usually considered the reference benchmark for the evaluation
//! of EM tasks" (§5, Table 2). Those datasets cannot be bundled offline, so
//! [`magellan`] regenerates them synthetically with the same names, sizes,
//! match rates, schemas and failure modes — see DESIGN.md §2 for the full
//! substitution argument.

pub mod csv;
pub mod ditto_format;
pub mod magellan;
pub mod model;
pub mod split;

pub use model::{DatasetType, Entity, EmDataset, RecordPair, Schema};
pub use split::{stratified_split, SplitIndices};
