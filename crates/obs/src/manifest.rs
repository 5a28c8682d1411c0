//! Run provenance: the manifest header every version-2 export carries.
//!
//! Two observability snapshots are only comparable if they came from
//! comparable runs. The manifest records what "comparable" means for WYM:
//! the schema version of the file itself, the git commit the binary was
//! built from, a hash of the effective configuration, a fingerprint of the
//! dataset selection, which kernel implementation dispatch resolved to,
//! the worker-thread setting, and the seed. `obs_diff` prints a warning
//! when any of these differ between the two files it compares (and refuses
//! files from a future schema); `schema_version` is how readers tolerate
//! old files — a version-1 `OBS_*.json` simply has no manifest, and every
//! reader treats its provenance fields as unknown.

use serde::{Serialize, Value};

/// The schema version this crate writes. History:
/// 1 — bare snapshot (spans/counters/gauges/histograms/stages), no header;
/// 2 — manifest header, optional per-span `mem` and top-level `memory`.
pub const SCHEMA_VERSION: u32 = 2;

/// Placeholder for provenance fields the producing binary did not know.
pub const UNKNOWN: &str = "unknown";

/// Provenance header of one exported run. Its [`Serialize`] form is the
/// JSON object stored under the `manifest` key: every field, in
/// declaration order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Manifest {
    /// Export schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producing binary (e.g. `timing`, `wym`).
    pub tool: String,
    /// Git commit of the working tree, best-effort (`unknown` outside a
    /// repository); `-dirty` is appended when uncommitted changes exist.
    pub git_sha: String,
    /// Kernel implementation runtime dispatch resolved to (`avx2_fma`,
    /// `scalar`, …).
    pub kernel: String,
    /// Configured worker threads (0 = all cores).
    pub threads: u64,
    /// Global seed of the run.
    pub seed: u64,
    /// FNV-1a hash of the effective configuration, hex-encoded.
    pub config_hash: String,
    /// Fingerprint of the dataset selection (names, caps, seed), hex.
    pub dataset_fingerprint: String,
}

impl Manifest {
    /// A manifest for `tool` at the current schema version, with the git
    /// sha detected from the working directory and every other provenance
    /// field `unknown`/zero until the builder setters fill it in.
    pub fn new(tool: &str) -> Manifest {
        Manifest {
            schema_version: SCHEMA_VERSION,
            tool: tool.to_string(),
            git_sha: detect_git_sha().unwrap_or_else(|| UNKNOWN.to_string()),
            kernel: UNKNOWN.to_string(),
            threads: 0,
            seed: 0,
            config_hash: UNKNOWN.to_string(),
            dataset_fingerprint: UNKNOWN.to_string(),
        }
    }

    /// Sets the dispatched kernel name.
    pub fn with_kernel(mut self, kernel: &str) -> Manifest {
        self.kernel = kernel.to_string();
        self
    }

    /// Sets the configured worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Manifest {
        self.threads = threads as u64;
        self
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Manifest {
        self.seed = seed;
        self
    }

    /// Sets the configuration hash from raw config bytes (serialized
    /// config, CLI args — whatever fully determines behaviour).
    pub fn with_config_bytes(mut self, bytes: &[u8]) -> Manifest {
        self.config_hash = format!("{:016x}", fnv1a(bytes));
        self
    }

    /// Sets the dataset fingerprint from raw identity bytes (names, sizes,
    /// caps, seed).
    pub fn with_dataset_bytes(mut self, bytes: &[u8]) -> Manifest {
        self.dataset_fingerprint = format!("{:016x}", fnv1a(bytes));
        self
    }

    /// Reads the manifest out of a whole exported file. Returns `None` for
    /// version-1 files (no `manifest` key) — the caller decides whether
    /// that is acceptable. Unknown fields are ignored; missing fields fall
    /// back to `unknown`/zero so partially written headers still load.
    pub fn from_file_json(file: &Value) -> Option<Manifest> {
        let m = file.get("manifest")?;
        if !matches!(m, Value::Object(_)) {
            return None;
        }
        let s = |name: &str| m.get(name).and_then(Value::as_str).unwrap_or(UNKNOWN).to_string();
        let u = |name: &str| m.get(name).and_then(Value::as_u64).unwrap_or(0);
        Some(Manifest {
            schema_version: u("schema_version") as u32,
            tool: s("tool"),
            git_sha: s("git_sha"),
            kernel: s("kernel"),
            threads: u("threads"),
            seed: u("seed"),
            config_hash: s("config_hash"),
            dataset_fingerprint: s("dataset_fingerprint"),
        })
    }

    /// The schema version of a whole exported file: the manifest's value,
    /// or 1 for pre-manifest files.
    pub fn file_schema_version(file: &Value) -> u32 {
        Manifest::from_file_json(file).map_or(1, |m| m.schema_version)
    }
}

/// 64-bit FNV-1a — the workspace's convention for cheap stable hashes
/// (deterministic across runs and platforms, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Best-effort git HEAD of the working directory: walks up from the
/// current directory to the first `.git/HEAD`, following one level of
/// `ref:` indirection (covering normal checkouts; packed refs fall back to
/// reading `.git/packed-refs`). No subprocess, no git dependency.
pub fn detect_git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            if let Some(refname) = text.strip_prefix("ref: ") {
                let ref_path = dir.join(".git").join(refname);
                if let Ok(sha) = std::fs::read_to_string(&ref_path) {
                    return Some(sha.trim().to_string());
                }
                // Packed ref: look the name up in .git/packed-refs.
                let packed = std::fs::read_to_string(dir.join(".git").join("packed-refs")).ok()?;
                return packed.lines().find_map(|line| {
                    let (sha, name) = line.split_once(' ')?;
                    (name == refname).then(|| sha.to_string())
                });
            }
            return Some(text.to_string()); // detached HEAD
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_file_json() {
        let m = Manifest::new("timing")
            .with_kernel("avx2_fma")
            .with_threads(4)
            .with_seed(7)
            .with_config_bytes(b"cfg")
            .with_dataset_bytes(b"S-FZ:40");
        let file = Value::object([("manifest", m.to_value()), ("spans", Value::Array(vec![]))]);
        let text = serde_json::to_string_pretty(&file).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = Manifest::from_file_json(&parsed).expect("manifest present");
        assert_eq!(back, m);
        assert_eq!(Manifest::file_schema_version(&parsed), SCHEMA_VERSION);
        // The derived form is the header layout: every field, in order.
        let Value::Object(fields) = m.to_value() else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "tool",
                "git_sha",
                "kernel",
                "threads",
                "seed",
                "config_hash",
                "dataset_fingerprint"
            ]
        );
    }

    #[test]
    fn version1_files_have_no_manifest() {
        let v1: Value = serde_json::from_str(r#"{"spans": [], "counters": {}}"#).unwrap();
        assert!(Manifest::from_file_json(&v1).is_none());
        assert_eq!(Manifest::file_schema_version(&v1), 1);
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"wym"), fnv1a(b"wym"));
    }

    #[test]
    fn detect_git_sha_in_this_repo() {
        // The workspace is a git checkout; the sha must parse as hex.
        if let Some(sha) = detect_git_sha() {
            assert!(sha.len() >= 7, "{sha}");
            assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha}");
        }
    }

    #[test]
    fn config_hash_is_hex_of_fnv() {
        let m = Manifest::new("t").with_config_bytes(b"x");
        assert_eq!(m.config_hash, format!("{:016x}", fnv1a(b"x")));
        assert_eq!(m.dataset_fingerprint, UNKNOWN);
    }
}
