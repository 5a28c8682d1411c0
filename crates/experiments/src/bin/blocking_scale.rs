//! Million-record blocking at scale (ROADMAP item 2, DESIGN.md §11).
//!
//! Generates a synthetic deduplication table with exact gold pairings
//! (`wym_block::synth`), runs the two-pass blocker — sharded TF-IDF
//! inverted index plus int8-quantized ANN with exact f32 re-scoring — and
//! reports throughput and recall against a seeded gold subsample.
//!
//! The candidate set is bit-identical across `WYM_KERNEL=scalar|auto` and
//! any `--threads`; the `block.checksum` counter in the exported metrics is
//! the equality witness `run_experiments.sh --smoke` compares across kernel
//! runs and against the committed `results/OBS_baseline_blocking.json`.
//!
//! ```text
//! blocking_scale [--records N] [--smoke] [--threads N] [--seed N]
//!                [--subsample N] [--profile-mem] [--trace]
//!                [--metrics-out FILE]
//! ```

use serde::{Serialize, Value};
use std::time::Instant;
use wym_block::{BlockConfig, SynthConfig, BLOCK_STAGES};
use wym_obs::{JsonFileSink, Manifest, Sink, Snapshot};

wym_obs::install_tracking_alloc!();

struct Opts {
    records: usize,
    smoke: bool,
    threads: usize,
    seed: u64,
    subsample: usize,
    profile_mem: bool,
    trace: bool,
    metrics_out: Option<String>,
}

impl Opts {
    fn from_args() -> Opts {
        let mut opts = Opts {
            records: 1_000_000,
            smoke: false,
            threads: 0,
            seed: 7,
            subsample: 10_000,
            profile_mem: false,
            trace: false,
            metrics_out: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let num = |args: &[String], i: usize, flag: &str| -> usize {
            args.get(i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a number"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--smoke" => {
                    opts.smoke = true;
                    opts.records = 20_000;
                    opts.subsample = 2_000;
                }
                "--records" => {
                    i += 1;
                    opts.records = num(&args, i, "--records");
                }
                "--threads" => {
                    i += 1;
                    opts.threads = num(&args, i, "--threads");
                }
                "--seed" => {
                    i += 1;
                    opts.seed = num(&args, i, "--seed") as u64;
                }
                "--subsample" => {
                    i += 1;
                    opts.subsample = num(&args, i, "--subsample");
                }
                "--profile-mem" => opts.profile_mem = true,
                "--trace" => opts.trace = true,
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out =
                        Some(args.get(i).expect("--metrics-out needs a path").clone());
                }
                other => panic!("unknown argument: {other}"),
            }
            i += 1;
        }
        opts
    }

    fn manifest(&self) -> Manifest {
        let config = format!(
            "records={} smoke={} seed={} threads={} subsample={}",
            self.records, self.smoke, self.seed, self.threads, self.subsample
        );
        Manifest::new("blocking_scale")
            .with_kernel(wym_linalg::kernels::active_name())
            .with_threads(self.threads)
            .with_seed(self.seed)
            .with_config_bytes(config.as_bytes())
            .with_dataset_bytes(format!("synth records={} seed={}", self.records, self.seed).as_bytes())
    }
}

/// Writes the quantized ANN table (plus the run's provenance manifest) as
/// a WYMA artifact.
fn save_ann_table(path: &str, table: &wym_embed::QuantizedTable, manifest: &Manifest) {
    let mut w = wym_artifact::ArtifactWriter::new();
    wym_artifact::add_manifest(&mut w, manifest);
    wym_artifact::add_quantized(&mut w, "ann", table);
    if let Err(e) = w.write_to(std::path::Path::new(path)) {
        eprintln!("[blocking_scale] FAILED: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Reopens `path` and asserts the reloaded table matches `original` to the
/// bit — i8 codes byte-for-byte, f32 scales by `to_bits`. Exits nonzero on
/// any divergence: a table that silently re-quantizes on reload would
/// change candidate sets across restarts.
fn assert_ann_reloads_bit_identical(path: &str, original: &wym_embed::QuantizedTable) {
    let artifact =
        wym_artifact::Artifact::open(std::path::Path::new(path), wym_artifact::LoadMode::Read)
            .unwrap_or_else(|e| {
                eprintln!("[blocking_scale] FAILED: cannot reopen {path}: {e}");
                std::process::exit(1);
            });
    let reloaded = wym_artifact::read_quantized(&artifact, "ann").unwrap_or_else(|e| {
        eprintln!("[blocking_scale] FAILED: cannot read ann table from {path}: {e}");
        std::process::exit(1);
    });
    let (dim_a, codes_a, scales_a) = original.raw_parts();
    let (dim_b, codes_b, scales_b) = reloaded.raw_parts();
    let codes_match = dim_a == dim_b && codes_a == codes_b;
    let scales_match = scales_a.len() == scales_b.len()
        && scales_a.iter().zip(scales_b).all(|(a, b)| a.to_bits() == b.to_bits());
    if !codes_match || !scales_match {
        eprintln!(
            "[blocking_scale] FAILED: reloaded ann table diverges from the built one \
             (codes_match={codes_match} scales_match={scales_match})"
        );
        std::process::exit(1);
    }
}

/// Recall over a seeded subsample of the gold pairs: the exact pairing is
/// known from the generator, so this is ground-truth recall, not a proxy.
fn subsample_recall(pairs: &[(u32, u32)], gold: &[(u32, u32)], k: usize, seed: u64) -> (f64, usize) {
    if gold.is_empty() {
        return (1.0, 0);
    }
    let mut idx: Vec<usize> = (0..gold.len()).collect();
    let mut rng = wym_linalg::Rng64::new(seed ^ 0x5EED_CAB5);
    rng.shuffle(&mut idx);
    idx.truncate(k.min(gold.len()));
    let hit = idx.iter().filter(|&&g| pairs.binary_search(&gold[g]).is_ok()).count();
    (hit as f64 / idx.len() as f64, idx.len())
}

fn bench_row(
    opts: &Opts,
    n_pairs: usize,
    recall: f64,
    sampled: usize,
    synth_s: f64,
    block_s: f64,
    snap: &Snapshot,
) -> Value {
    let (spans, metrics) = wym_experiments::bench_sections(snap);
    Value::object([
        ("manifest", opts.manifest().to_value()),
        ("kernel", wym_linalg::kernels::active_name().to_value()),
        ("n_records", opts.records.to_value()),
        ("n_candidate_pairs", n_pairs.to_value()),
        ("recall_subsample", recall.to_value()),
        ("subsample_size", sampled.to_value()),
        ("synth_s", synth_s.to_value()),
        ("block_s", block_s.to_value()),
        ("candidates_per_s", (n_pairs as f64 / block_s.max(1e-9)).to_value()),
        ("records_per_s", (opts.records as f64 / block_s.max(1e-9)).to_value()),
        ("peak_alloc_bytes", wym_obs::prof::peak_live_bytes().to_value()),
        ("spans", spans),
        ("metrics", metrics),
    ])
}

fn main() {
    let opts = Opts::from_args();
    wym_obs::set_enabled(true);
    // Flight recorder: post-mortem rings + stall watchdog for the long
    // index-build phases (dumps to results/FLIGHT_blocking_scale_*).
    wym_obs::flight_install(wym_obs::FlightOptions::default());
    wym_obs::register_stages(BLOCK_STAGES);
    if opts.profile_mem {
        wym_obs::prof::set_enabled(true);
    }
    wym_obs::counter_add(
        &format!("kernel.dispatch.{}", wym_linalg::kernels::active_name()),
        1,
    );

    let synth_config = SynthConfig { n_records: opts.records, seed: opts.seed, ..SynthConfig::default() };
    eprintln!("[blocking_scale] generating {} records (seed {})", opts.records, opts.seed);
    let t0 = Instant::now();
    let table = wym_block::generate(&synth_config);
    let synth_s = t0.elapsed().as_secs_f64();

    let block_config = BlockConfig { threads: opts.threads, ..BlockConfig::default() };
    eprintln!(
        "[blocking_scale] blocking ({} kernel, {} threads)",
        wym_linalg::kernels::active_name(),
        wym_par::resolve_threads(opts.threads),
    );
    let t0 = Instant::now();
    let (out, ann_index) = wym_block::block_entities_with_ann(&table.records, &block_config);
    let block_s = t0.elapsed().as_secs_f64();

    // Persist the quantized ANN table into a WYMA artifact and prove the
    // reload is bit-identical — the blocking layer's tables ride the same
    // container (and the same determinism contract) as model weights.
    if let Some(index) = &ann_index {
        let ann_path = if opts.smoke {
            "results/ann_tables_smoke.wyma"
        } else {
            "results/ann_tables.wyma"
        };
        let _ = std::fs::create_dir_all("results");
        save_ann_table(ann_path, index.quantized(), &opts.manifest());
        assert_ann_reloads_bit_identical(ann_path, index.quantized());
        println!("ann table saved to {ann_path} (reload verified bit-identical)");
    }

    let (recall, sampled) = subsample_recall(&out.pairs, &table.gold, opts.subsample, opts.seed);
    wym_obs::gauge_set("block.recall_subsample", recall);

    println!("\n## Blocking at scale — {} records\n", opts.records);
    println!("| metric | value |");
    println!("|---|---|");
    println!("| records | {} |", opts.records);
    println!("| gold pairs | {} |", table.gold.len());
    println!("| candidate pairs | {} |", out.pairs.len());
    println!("| lexical / ANN contributions | {} / {} |", out.lexical_pairs, out.ann_pairs);
    println!("| recall@{sampled} subsample | {recall:.4} |");
    println!("| synth wall | {synth_s:.2}s |");
    println!("| blocking wall | {block_s:.2}s |");
    println!("| records/s | {:.0} |", opts.records as f64 / block_s.max(1e-9));
    println!("| candidates/s | {:.0} |", out.pairs.len() as f64 / block_s.max(1e-9));
    println!("| candidate checksum | {:016x} |", out.checksum);

    let snap = wym_obs::snapshot();
    // Only a full-scale run writes the committed BENCH_blocking.json row;
    // a smoke run's evidence is its metrics snapshot.
    if !opts.smoke {
        let row = bench_row(&opts, out.pairs.len(), recall, sampled, synth_s, block_s, &snap);
        let bench_path = "results/BENCH_blocking.json";
        let _ = std::fs::create_dir_all("results");
        match std::fs::write(bench_path, wym_obs::pretty_json(&Value::Array(vec![row]))) {
            Ok(()) => println!("\n→ results saved to {bench_path}"),
            Err(e) => eprintln!("warning: could not write {bench_path}: {e}"),
        }
    }

    if opts.trace {
        let _ = wym_obs::StderrSink.emit(&snap);
    }
    if let Some(path) = &opts.metrics_out {
        let mut sink = JsonFileSink::new(path).with_manifest(opts.manifest());
        match sink.emit(&snap) {
            Ok(()) => eprintln!("→ metrics saved to {path}"),
            Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
        }
    }
}
