//! Snapshot sinks: where aggregated observability data goes at end of run.

use crate::manifest::Manifest;
use crate::recorder::Snapshot;
use serde::{Serialize, Value};
use std::io::{self, Write};
use std::path::PathBuf;

/// `v` as the text of a JSON file: pretty-printed (2-space indent) and
/// newline-terminated. This is the layout of every `OBS_*.json`,
/// `BENCH_*.json` and flight trace, and of the WYMA `manifest` and
/// `sketch` sections.
pub fn pretty_json(v: &Value) -> String {
    let mut text = serde_json::to_string_pretty(v).expect("a Value tree always prints");
    text.push('\n');
    text
}

/// Prints the human-readable summary (span tree + metric tables) to stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    /// Prints `snap`'s summary.
    pub fn emit(&self, snap: &Snapshot) -> io::Result<()> {
        let mut err = io::stderr().lock();
        err.write_all(snap.render_text().as_bytes())
    }
}

/// Writes the snapshot as pretty-printed JSON to a file, creating parent
/// directories as needed. This is what produces `results/OBS_*.json`.
///
/// With a [`Manifest`] attached (the normal case since schema version 2),
/// the exported object leads with a `manifest` key carrying the run's
/// provenance; without one, the file is a bare version-1 snapshot.
#[derive(Debug)]
pub struct JsonFileSink {
    path: PathBuf,
    manifest: Option<Manifest>,
}

impl JsonFileSink {
    /// A sink writing to `path` without provenance (version-1 layout).
    pub fn new(path: impl Into<PathBuf>) -> JsonFileSink {
        JsonFileSink { path: path.into(), manifest: None }
    }

    /// Attaches the run's provenance header.
    pub fn with_manifest(mut self, manifest: Manifest) -> JsonFileSink {
        self.manifest = Some(manifest);
        self
    }

    /// The destination path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Writes `snap` (after the manifest, when one is attached).
    pub fn emit(&self, snap: &Snapshot) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut out = snap.to_json();
        if let (Some(m), Value::Object(sections)) = (&self.manifest, &mut out) {
            sections.insert(0, ("manifest".to_string(), m.to_value()));
        }
        std::fs::write(&self.path, pretty_json(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn json_file_sink_writes_pretty_json_and_creates_dirs() {
        let rec = Recorder::new_enabled();
        rec.record_span("fit", 1_000);
        rec.counter_add("c", 7);
        let dir = std::env::temp_dir().join("wym_obs_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("OBS_test.json");
        JsonFileSink::new(&path).emit(&rec.snapshot()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"fit\""));
        assert!(text.contains("\"c\": 7"));
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_header_leads_the_exported_object() {
        let rec = Recorder::new_enabled();
        rec.record_span("fit", 1_000);
        let dir = std::env::temp_dir().join("wym_obs_sink_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("OBS_test.json");
        let m = Manifest::new("sink-test").with_seed(9);
        JsonFileSink::new(&path).with_manifest(m.clone()).emit(&rec.snapshot()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(Manifest::from_file_json(&parsed), Some(m));
        // The body still parses as a snapshot.
        let snap = Snapshot::from_json(&parsed).unwrap();
        // `manifest` must be the first key so readers (and humans) see
        // provenance before data.
        let Value::Object(sections) = parsed else { panic!() };
        assert_eq!(sections[0].0, "manifest");
        assert_eq!(snap.span_count("fit"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
