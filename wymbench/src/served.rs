//! The served model of the `explain` and `classify` workloads: a T-AB model
//! fitted with the harness's training configuration, saved as a WYMA
//! artifact with its drift baseline (as `wym train --save-model` does) and
//! mmap-loaded back, plus a stream of T-AB pairs it never saw.
//!
//! The model is the system under test, so it is the same in every run: it
//! trains on T-AB generated with the harness's default seed. The workload
//! seed generates the stream. (A model trained per seed would pick a
//! different pool classifier from seed to seed, and the cost of `predict`
//! and `impact` with it.)
//!
//! T-AB has the longest records of the twelve datasets, so tokenizing,
//! embedding and pairing do the most work per record there.

use crate::host::HostClock;
use crate::report::{self, Traffic};
use crate::Args;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;
use wym_artifact::{load_model, save_model_with_sketch, LoadMode};
use wym_core::WymModel;
use wym_data::{magellan, split::paper_split, RecordPair};
use wym_experiments::HarnessOpts;

pub const DATASET: &str = "T-AB";
/// Pairs the served model trains on (60/20/20 split). Training cost is set
/// up three times a run, so this stays well under the harness's 800.
const MODEL_CAP: usize = 200;
/// Held-out pairs in the stream: nearly all of T-AB's 9,575, so that the
/// served model's F1 on the stream barely moves from seed to seed.
const STREAM_PAIRS: usize = 9000;
const TINY_MODEL_CAP: usize = 40;
const TINY_STREAM_PAIRS: usize = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Served {
    pub model: WymModel,
    pub stream: Vec<RecordPair>,
    pub artifact: PathBuf,
    pub artifact_bytes: u64,
    /// Median wall of the mmap `load_model` calls.
    pub load_s: f64,
    /// Median set-up time, scaled to the nominal host.
    pub setup_s: f64,
}

impl Served {
    /// The artifact's per-layer metrics, and whether the flight recorder
    /// ran.
    pub fn fill_layers(&self, flight: bool, l: &mut std::collections::BTreeMap<&'static str, f64>) {
        l.insert("artifact.load_s", self.load_s);
        l.insert("artifact.bytes", self.artifact_bytes as f64);
        l.insert("obs.flight_recorder", f64::from(u8::from(flight)));
    }
}

/// Fits, saves and mmap-loads the model [`SETUPS`] times; each set-up must
/// produce an artifact with the same content checksum.
pub fn setup(
    args: &Args,
    clock: &mut HostClock,
    out: &mut report::Outcome,
) -> Result<Served, String> {
    let opts = HarnessOpts {
        cap: if args.tiny { TINY_MODEL_CAP } else { MODEL_CAP },
        threads: args.threads,
        ..HarnessOpts::default()
    };
    let mut config = opts.wym_config();
    if args.tiny {
        config.scorer.train.epochs = 2;
    }
    let stream_pairs = if args.tiny {
        TINY_STREAM_PAIRS
    } else {
        STREAM_PAIRS
    };
    let artifact = args.out_dir.join("model.wyma");
    let mut loads = Vec::new();
    let mut fnvs = Vec::new();
    let (result, setup_s, setup_line) =
        report::timed_setup(clock, SETUPS, |_| -> Result<_, String> {
            let full =
                magellan::generate_by_name(DATASET, opts.seed).expect("T-AB is a known dataset");
            let sub = full.subsample(opts.cap, opts.seed);
            let split = paper_split(&sub, opts.seed);
            let model = WymModel::fit(&sub, &split, config.clone());
            let train: Vec<RecordPair> =
                split.train.iter().map(|&i| sub.pairs[i].clone()).collect();
            let sketch = model.sketch_on(&train);
            let manifest = wym_obs::Manifest::new("wymbench")
                .with_kernel(wym_linalg::kernels::active_name())
                .with_seed(opts.seed);
            let bytes = save_model_with_sketch(&artifact, &model, &manifest, Some(&sketch))
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let loaded = load_model(&artifact, LoadMode::Mmap).map_err(|e| e.to_string())?;
            loads.push(t0.elapsed().as_secs_f64());
            fnvs.push(loaded.content_fnv);
            let seen: HashSet<u32> = sub.pairs.iter().map(|p| p.id).collect();
            Ok((
                loaded.model,
                seen,
                bytes,
                split.train.len() + split.val.len(),
            ))
        });
    let (model, seen, artifact_bytes, train_pairs) = result?;
    // Pairs are numbered by position, so a stream generated with the
    // model's own seed would repeat its training pairs; skip those ids.
    let stream: Vec<RecordPair> = magellan::generate_by_name(DATASET, args.seed)
        .expect("T-AB is a known dataset")
        .pairs
        .into_iter()
        .filter(|p| !seen.contains(&p.id))
        .take(stream_pairs)
        .collect();
    for (i, fnv) in fnvs.iter().enumerate() {
        out.check(*fnv == fnvs[0], || {
            format!(
                "set-up {i} saved a model with content checksum {fnv:016x}, set-up 0 {:016x}",
                fnvs[0]
            )
        });
    }
    let mut traffic = Traffic::default();
    for pair in &stream {
        traffic.add_pair(model.tokenizer(), pair, model.config().embed_dim);
    }
    out.line(format!(
        "model: {DATASET} seed {} cap {} ({train_pairs} train+val pairs), {} epochs, {:?} classifier, artifact {artifact_bytes} bytes, content_fnv {:016x}",
        opts.seed, opts.cap, config.scorer.train.epochs, model.classifier(), fnvs[0]
    ));
    out.line(traffic.render(stream.len()));
    out.line(setup_line);
    Ok(Served {
        model,
        stream,
        artifact,
        artifact_bytes,
        load_s: report::median(&loads),
        setup_s,
    })
}

/// F1 of `verdicts` against the stream's gold labels.
pub fn verdict_f1(stream: &[RecordPair], verdicts: &[bool]) -> f64 {
    let preds: Vec<u8> = verdicts.iter().map(|&v| u8::from(v)).collect();
    let gold: Vec<u8> = stream
        .iter()
        .take(preds.len())
        .map(|p| u8::from(p.label))
        .collect();
    f64::from(wym_ml::f1_score(&preds, &gold))
}
