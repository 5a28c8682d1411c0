//! Artifact round-trip gate: train → save → load → classify must be
//! bit-identical to the in-memory model.
//!
//! The binary fits WYM on the first selected dataset, records the in-memory
//! verdicts, probabilities, impact scores, and the deterministic relevance
//! `score_checksum` over the test slice, saves the model to a `.wyma`
//! artifact, reloads it under both [`LoadMode::Read`] and
//! [`LoadMode::Mmap`], and asserts that every recorded number reproduces
//! **to the bit**. Any mismatch is reported and the process exits nonzero,
//! which is how `run_experiments.sh --smoke` turns the save/load equality
//! contract into a gate.
//!
//! It also prints `artifact model fnv: <hex>` — an FNV-1a fold of the
//! payload checksums of every section except the provenance manifest (which
//! legitimately differs run to run). The smoke script compares this value
//! across `WYM_KERNEL=scalar` and `=auto` runs: equal folds mean the two
//! kernels trained and serialized bit-identical models. The fold covers the
//! `head` section, and the head embeds the full [`wym_core::WymConfig`] —
//! including the `n_threads` execution knob — so cross-run comparisons must
//! pin `--threads` (the tensor payloads themselves are thread-invariant;
//! `wym model diff` on two artifacts shows exactly which section moved).
//!
//! The stdout table reports the artifact size and the save and load
//! (read and mmap) wall times; the gate is the exit status plus the printed
//! fnv.

use std::path::Path;
use std::time::Instant;
use wym_artifact::{self as artifact, LoadMode};
use wym_core::WymModel;
use wym_data::RecordPair;
use wym_experiments::{fit_wym, print_table, HarnessOpts};

wym_obs::install_tracking_alloc!();

/// Everything the in-memory model says about one pair, bit-preserved.
struct Recorded {
    label: bool,
    probability_bits: u32,
    impact_bits: Vec<u32>,
}

/// Runs the model over the sample and records bit-exact outputs plus the
/// relevance checksum (same fold as the timing binary's smoke gate).
fn record(model: &WymModel, sample: &[RecordPair]) -> (Vec<Recorded>, f64) {
    let mut out = Vec::with_capacity(sample.len());
    let mut checksum = 0.0f64;
    for pair in sample {
        let processed = model.process(pair);
        checksum += processed.relevances.iter().map(|&v| v as f64).sum::<f64>();
        let ex = model.explain_processed(&processed);
        out.push(Recorded {
            label: ex.prediction,
            probability_bits: ex.probability.to_bits(),
            impact_bits: ex.units.iter().map(|u| u.impact.to_bits()).collect(),
        });
    }
    (out, checksum)
}

/// Compares a reloaded model's outputs against the in-memory record.
/// Returns the number of mismatching pairs (0 = bit-identical).
fn compare(tag: &str, baseline: &[Recorded], got: &[Recorded], checksums: (f64, f64)) -> usize {
    let mut bad = 0;
    for (i, (a, b)) in baseline.iter().zip(got).enumerate() {
        let ok = a.label == b.label
            && a.probability_bits == b.probability_bits
            && a.impact_bits == b.impact_bits;
        if !ok {
            if bad < 5 {
                eprintln!(
                    "[artifact_roundtrip] {tag}: pair {i} diverged \
                     (label {} vs {}, prob bits {:08x} vs {:08x})",
                    a.label, b.label, a.probability_bits, b.probability_bits
                );
            }
            bad += 1;
        }
    }
    if checksums.0.to_bits() != checksums.1.to_bits() {
        eprintln!(
            "[artifact_roundtrip] {tag}: score_checksum diverged ({} vs {})",
            checksums.0, checksums.1
        );
        bad += 1;
    }
    bad
}

fn main() {
    let opts = HarnessOpts::from_args();
    wym_obs::set_enabled(true);
    let dataset = opts
        .datasets()
        .into_iter()
        .next()
        .expect("at least one dataset selected");
    eprintln!("[artifact_roundtrip] {}", dataset.name);
    let run = fit_wym(&dataset, opts.wym_config(), opts.seed);
    let sample = &run.test[..run.test.len().min(100)];

    let (baseline, base_checksum) = record(&run.model, sample);
    wym_obs::gauge_set("scorer.score_checksum", base_checksum);

    let _ = std::fs::create_dir_all("results");
    let path_s = format!("results/model_{}.wyma", dataset.name);
    let path = Path::new(&path_s);
    let manifest = opts.manifest("artifact_roundtrip");
    let t0 = Instant::now();
    let artifact_bytes = artifact::save_model(path, &run.model, &manifest)
        .unwrap_or_else(|e| panic!("saving {path_s}: {e}"));
    let save_s = t0.elapsed().as_secs_f64();

    // Reload twice — buffered read and memory-mapped — and demand that both
    // reproduce the in-memory outputs bit for bit.
    let mut failures = 0;
    let mut load_s = [0.0f64; 2];
    for (i, mode) in [LoadMode::Read, LoadMode::Mmap].into_iter().enumerate() {
        let t0 = Instant::now();
        let loaded = artifact::load_model(path, mode)
            .unwrap_or_else(|e| panic!("loading {path_s} ({mode:?}): {e}"));
        load_s[i] = t0.elapsed().as_secs_f64();
        let (got, checksum) = record(&loaded.model, sample);
        failures += compare(
            &format!("{mode:?}"),
            &baseline,
            &got,
            (base_checksum, checksum),
        );
    }

    // Model content fingerprint: fold the per-section payload checksums of
    // everything except the manifest (whose config hash differs per run).
    // Bit-identical models ⇒ identical folds, across kernels and threads.
    let info = artifact::inspect(path).expect("saved artifact must inspect");
    let fold = artifact::content_fnv(&info.sections);
    println!("artifact model fnv: {fold:016x}");

    print_table(
        "Artifact round-trip — save/load performance",
        &["Dataset", "pairs", "bytes", "save s", "load(read) s", "load(mmap) s", "mismatches"],
        &[vec![
            dataset.name.clone(),
            sample.len().to_string(),
            artifact_bytes.to_string(),
            format!("{save_s:.4}"),
            format!("{:.4}", load_s[0]),
            format!("{:.4}", load_s[1]),
            failures.to_string(),
        ]],
    );

    opts.flush_obs("artifact_roundtrip");

    if failures > 0 {
        eprintln!("[artifact_roundtrip] FAILED: {failures} divergence(s) after reload");
        std::process::exit(1);
    }
    println!("round-trip OK: saved→loaded model is bit-identical in-memory (read and mmap)");
}
