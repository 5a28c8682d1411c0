//! `obs_diff` — regression sentinel over two observability snapshots.
//!
//! ```text
//! obs_diff OLD.json NEW.json [options]
//!   --ignore-wall        skip wall-time comparisons (cross-machine baselines)
//!   --ignore-mem         skip memory comparisons
//!   --wall-rel F         allowed relative span-mean growth   (default 0.5)
//!   --wall-abs-ns N      absolute span-mean growth floor, ns (default 5e6)
//!   --counter-rel F      allowed relative counter drift      (default 0: exact)
//!   --mem-rel F          allowed relative allocation growth  (default 0.25)
//!   --drift-rel F        allowed relative obs.drift.* PSI gauge drift
//!                        (default 1e-6: PSI is deterministic)
//!   --ignore PREFIX      skip metrics with this name prefix (repeatable;
//!                        default: kernel.dispatch.)
//!   --verbose            show passing checks too, not only findings
//! ```
//!
//! Exit status: 0 when the candidate passes, 1 on any regression, 2 on
//! usage or file errors. Both version-1 (no manifest) and version-2 files
//! load; files from a *newer* schema than this binary understands are
//! refused. When both files carry manifests, provenance mismatches
//! (different commit, config, dataset selection, kernel, threads, or seed)
//! print as warnings — the diff still runs, but its verdict is only as
//! comparable as the runs were.

use std::process::ExitCode;
use wym_obs::diff::{diff, DiffConfig};
use wym_obs::manifest::SCHEMA_VERSION;
use wym_obs::{Manifest, Snapshot};

fn usage() -> &'static str {
    "usage: obs_diff OLD.json NEW.json [--ignore-wall] [--ignore-mem] \
     [--wall-rel F] [--wall-abs-ns N] [--counter-rel F] [--mem-rel F] \
     [--drift-rel F] [--ignore PREFIX]... [--verbose]"
}

struct Loaded {
    snap: Snapshot,
    manifest: Option<Manifest>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let version = Manifest::file_schema_version(&json);
    if version > SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema version {version} is newer than this binary understands \
             ({SCHEMA_VERSION}); rebuild obs_diff"
        ));
    }
    let manifest = Manifest::from_file_json(&json);
    let snap = Snapshot::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    Ok(Loaded { snap, manifest })
}

/// Warns about provenance fields that differ between the two runs.
fn check_provenance(old: &Option<Manifest>, new: &Option<Manifest>) {
    let (Some(o), Some(n)) = (old, new) else {
        if old.is_none() || new.is_none() {
            eprintln!(
                "note: comparing against a version-1 file (no manifest); \
                 provenance cannot be checked"
            );
        }
        return;
    };
    let fields: &[(&str, &str, &str)] = &[
        ("git_sha", &o.git_sha, &n.git_sha),
        ("kernel", &o.kernel, &n.kernel),
        ("config_hash", &o.config_hash, &n.config_hash),
        ("dataset_fingerprint", &o.dataset_fingerprint, &n.dataset_fingerprint),
    ];
    for (name, ov, nv) in fields {
        if ov != nv {
            eprintln!("warning: {name} differs between runs ({ov} vs {nv})");
        }
    }
    if o.threads != n.threads {
        eprintln!("warning: threads differs between runs ({} vs {})", o.threads, n.threads);
    }
    if o.seed != n.seed {
        eprintln!("warning: seed differs between runs ({} vs {})", o.seed, n.seed);
    }
}

fn parse_args(args: &[String]) -> Result<(String, String, DiffConfig, bool), String> {
    let mut cfg = DiffConfig::default();
    let mut verbose = false;
    let mut paths = Vec::new();
    let mut i = 0;
    let num = |args: &[String], i: usize, flag: &str| -> Result<f64, String> {
        args.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--ignore-wall" => cfg.ignore_wall = true,
            "--ignore-mem" => cfg.ignore_mem = true,
            "--verbose" => verbose = true,
            "--wall-rel" => {
                i += 1;
                cfg.span_wall_rel = num(args, i, "--wall-rel")?;
            }
            "--wall-abs-ns" => {
                i += 1;
                cfg.span_wall_abs_ns = num(args, i, "--wall-abs-ns")? as u64;
            }
            "--counter-rel" => {
                i += 1;
                cfg.counter_rel = num(args, i, "--counter-rel")?;
            }
            "--mem-rel" => {
                i += 1;
                cfg.mem_rel = num(args, i, "--mem-rel")?;
            }
            "--drift-rel" => {
                i += 1;
                cfg.drift_rel = num(args, i, "--drift-rel")?;
            }
            "--ignore" => {
                i += 1;
                cfg.ignore
                    .push(args.get(i).ok_or("--ignore needs a prefix")?.clone());
            }
            "--help" => return Err(usage().to_string()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => paths.push(path.to_string()),
        }
        i += 1;
    }
    match <[String; 2]>::try_from(paths) {
        Ok([old, new]) => Ok((old, new, cfg, verbose)),
        Err(_) => Err(usage().to_string()),
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (old_path, new_path, cfg, verbose) = parse_args(&args)?;
    let old = load(&old_path)?;
    let new = load(&new_path)?;
    check_provenance(&old.manifest, &new.manifest);
    let report = diff(&old.snap, &new.snap, &cfg);
    print!("{}", report.render_table(verbose));
    // Machine-greppable one-line verdict, mirroring the exit code.
    if report.passed() {
        println!("PASS: {new_path} within thresholds of {old_path}");
    } else {
        println!(
            "FAIL: {} regression(s) in {new_path} vs {old_path}",
            report.regressions().len()
        );
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_paths_and_thresholds() {
        let (old, new, cfg, verbose) = parse_args(&s(&[
            "a.json",
            "--ignore-wall",
            "b.json",
            "--mem-rel",
            "0.5",
            "--ignore",
            "scorer.",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!((old.as_str(), new.as_str()), ("a.json", "b.json"));
        assert!(cfg.ignore_wall);
        assert!(verbose);
        assert_eq!(cfg.mem_rel, 0.5);
        assert!(cfg.ignore.iter().any(|p| p == "scorer."));
        assert!(cfg.ignore.iter().any(|p| p == "kernel.dispatch."));
        let (_, _, cfg, _) =
            parse_args(&s(&["a.json", "b.json", "--drift-rel", "0.25"])).unwrap();
        assert_eq!(cfg.drift_rel, 0.25);
    }

    #[test]
    fn rejects_wrong_arity_and_unknown_flags() {
        assert!(parse_args(&s(&["only.json"])).is_err());
        assert!(parse_args(&s(&["a.json", "b.json", "--bogus"])).is_err());
    }
}
