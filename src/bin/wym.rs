//! `wym` — command-line interface to the WYM entity-matching system.
//!
//! ```text
//! wym generate --dataset S-FZ --out restaurants.csv [--seed 42] [--cap N]
//! wym eval     --data restaurants.csv [--epochs 15] [--seed 42]
//! wym explain  --data restaurants.csv --id 12 [--epochs 15]
//! wym match    --data restaurants.csv --left "a|b|c" --right "x|y|z"
//! wym train    --data restaurants.csv --save-model model.wym
//! wym classify --load-model model.wym --data more.csv [--explain] [--mmap]
//! wym model inspect model.wym
//! wym model diff old.wym new.wym
//! wym datasets
//! wym kernels
//! ```
//!
//! `train --save-model` writes the one saved-model format, a binary WYMA
//! artifact (see `wym-artifact` and DESIGN.md §12): schema-versioned,
//! checksummed, with the provenance manifest embedded and tensors
//! page-aligned for memory-mapped loading. `classify` reloads such an
//! artifact (`--mmap` maps instead of reading), refuses a truncated,
//! newer-version or malformed one with an error naming the fault, and
//! reproduces the in-memory model's verdicts bit-for-bit.
//!
//! Every command additionally accepts `--trace` (print a per-stage span
//! tree and metric summary to stderr at exit), `--metrics-out FILE`
//! (write the machine-readable snapshot there; `--trace` alone defaults to
//! `results/OBS_run.json`), `--flame` (export folded-stack flamegraphs to
//! `results/FLAME_run_*.folded`; implies memory profiling so the alloc
//! weights are populated), and `--profile-mem` (attribute allocator
//! traffic to spans in the export). Exported metrics files carry a
//! `manifest` provenance header (schema version, git sha, config hash,
//! kernel dispatch, seed).
//!
//! Independent of tracing, every run carries the always-on flight
//! recorder (DESIGN.md §15): per-thread event rings, a stall watchdog,
//! and a panic hook that dumps the recent event tail to
//! `results/FLIGHT_wym_*.{txt,trace.json}`. `--chrome-trace FILE` exports
//! the full-run event tail as Chrome trace-event JSON (load in
//! `chrome://tracing` or Perfetto); `wym obs flight <DUMP.trace.json>`
//! summarizes any dump from the terminal. `WYM_FLIGHT=off` disables the
//! recorder, `WYM_STALL_MS` tunes the watchdog threshold.
//!
//! CSV layout: `id,label,left_<attr>…,right_<attr>…` (see `wym::data::csv`).

use std::path::Path;
use std::process::ExitCode;
use wym::artifact;
use wym::core::pipeline::{WymConfig, WymModel, PIPELINE_STAGES};
use wym::data::split::paper_split;
use wym::data::{csv, magellan, DatasetType, EmDataset, Entity, RecordPair};
use wym::nn::TrainConfig;
use wym_obs::{JsonFileSink, StderrSink};

// Route every allocation through the tracking wrapper so `--profile-mem` /
// `--flame` can attribute it; with profiling off the wrapper is one relaxed
// atomic load per alloc (pinned by the `prof` bench group).
wym_obs::install_tracking_alloc!();

/// Flags that never take a value, so a following positional argument (or
/// file name) is not swallowed as their value.
const BOOL_FLAGS: &[&str] =
    &["explain", "trace", "help", "flame", "profile-mem", "mmap", "audit-cost", "shift"];

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if BOOL_FLAGS.contains(&name) {
                    String::new()
                } else {
                    iter.peek()
                        .filter(|v| !v.starts_with("--"))
                        .cloned()
                        .inspect(|_| {
                            iter.next();
                        })
                        .unwrap_or_default() // presence-only flags store ""
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Self { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        match self.get(name) {
            None => Err(format!("missing required flag --{name}")),
            Some("") => Err(format!("flag --{name} needs a value")),
            Some(v) => Ok(v),
        }
    }

    /// Numeric flag with a default; a present-but-unparsable value is an
    /// error rather than a silent fallback.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: flag --{name} needs a number, got {v:?}");
                std::process::exit(2);
            }),
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  wym generate --dataset <NAME> --out <FILE> [--seed N] [--cap N] [--shift]\n  \
     wym eval     --data <FILE> [--epochs N] [--seed N]\n  \
     wym explain  --data <FILE> --id <RECORD_ID> [--epochs N]\n  \
     wym match    --data <FILE> --left \"a|b|c\" --right \"x|y|z\"\n  \
     wym train    --data <FILE> --save-model <OUT.wym> [--epochs N]\n  \
     wym classify --load-model <MODEL.wym> --data <FILE> [--explain] [--mmap] [--threads N]\n           \
     [--audit-log <FILE.jsonl>] [--audit-sample N] [--audit-cost]\n  \
     wym kernels\n  \
     wym model    inspect <MODEL.wym>\n  \
     wym model    diff <A.wym> <B.wym>\n  \
     wym obs      report --audit <FILE.jsonl>\n  \
     wym obs      export --metrics <OBS.json>\n  \
     wym obs      flight <DUMP.trace.json>\n  \
     wym datasets\n\
     every command also accepts: --trace [--metrics-out <FILE>] --flame --profile-mem\n\
     \x20                          --chrome-trace <FILE>  (flight-recorder trace export)"
}

/// Turns recording on when `--trace`, `--metrics-out`, or `--flame` is
/// present (and memory profiling under `--profile-mem` / `--flame`);
/// registers the canonical pipeline stages either way so zero-span stages
/// are visible in the export.
fn obs_setup(args: &Args) -> bool {
    wym_obs::register_stages(PIPELINE_STAGES);
    // The flight recorder is always on (WYM_FLIGHT=off opts out): event
    // rings cost nanoseconds per span and buy a post-mortem trail for
    // every panic or stall, traced or not.
    wym_obs::flight_install(wym_obs::FlightOptions::default());
    let on = args.get("trace").is_some()
        || args.get("metrics-out").is_some()
        || args.get("flame").is_some();
    if on {
        wym_obs::set_enabled(true);
    }
    if args.get("profile-mem").is_some() || args.get("flame").is_some() {
        wym_obs::prof::set_enabled(true);
    }
    on
}

/// The run's provenance header for exported metrics: commit, a hash of
/// the full command line, the dispatched kernel, and the seed.
fn manifest(args: &Args) -> wym_obs::Manifest {
    let cmdline: Vec<String> = std::env::args().skip(1).collect();
    let data = args.get("data").or(args.get("dataset")).unwrap_or("");
    wym_obs::Manifest::new("wym")
        .with_kernel(wym::linalg::kernels::active_name())
        .with_seed(args.num("seed", 42u64))
        .with_config_bytes(cmdline.join(" ").as_bytes())
        .with_dataset_bytes(data.as_bytes())
}

/// Emits the recorded snapshot: span tree to stderr (under `--trace`),
/// the JSON export with its manifest to `--metrics-out` (default
/// `results/OBS_run.json`), and folded flamegraphs under `--flame`.
fn obs_flush(args: &Args) {
    let snap = wym_obs::snapshot();
    if args.get("trace").is_some() {
        let _ = StderrSink.emit(&snap);
    }
    let path = match args.get("metrics-out") {
        Some(p) if !p.is_empty() => p.to_string(),
        _ => "results/OBS_run.json".to_string(),
    };
    match JsonFileSink::new(&path).with_manifest(manifest(args)).emit(&snap) {
        Ok(()) => eprintln!("metrics written to {path}"),
        Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
    }
    if args.get("flame").is_some() {
        use wym_obs::flame::{write_folded, FlameWeight};
        for weight in [FlameWeight::WallNs, FlameWeight::AllocBytes] {
            let flame_path = format!("results/FLAME_run_{}.folded", weight.infix());
            match write_folded(&flame_path, &snap, weight) {
                Ok(lines) => eprintln!("flamegraph ({lines} stacks) written to {flame_path}"),
                Err(e) => eprintln!("warning: cannot write {flame_path}: {e}"),
            }
        }
    }
}

fn load(path: &str) -> Result<EmDataset, String> {
    csv::read_csv(Path::new(path), "user-data", DatasetType::Structured)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

/// Checks that a CSV's attributes are the model's, by name and in order:
/// the model reads each record's values by attribute position.
fn check_schema(csv: &[String], model: &[String]) -> Result<(), String> {
    if csv == model {
        Ok(())
    } else {
        Err(format!(
            "the CSV's attributes [{}] differ from the model's [{}]",
            csv.join(", "),
            model.join(", ")
        ))
    }
}

fn fit(dataset: &EmDataset, args: &Args) -> (WymModel, Vec<RecordPair>) {
    let seed = args.num("seed", 42u64);
    let split = paper_split(dataset, seed);
    let mut cfg = WymConfig::default().with_seed(seed);
    cfg.scorer.train = TrainConfig {
        epochs: args.num("epochs", 15usize),
        batch_size: 256,
        ..TrainConfig::default()
    };
    eprintln!(
        "fitting WYM on {} pairs ({} train / {} val)…",
        dataset.len(),
        split.train.len(),
        split.val.len()
    );
    let model = WymModel::fit(dataset, &split, cfg);
    let test = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
    (model, test)
}

/// `wym obs report` — summarize a decision audit log (JSONL, as written by
/// `classify --audit-log`): decision and verdict counts, margin spread,
/// the attributes that dominated explained decisions, and the model
/// fingerprints seen — the service-side "what has this model been doing"
/// view, built from the log alone.
fn obs_report(args: &Args) -> Result<(), String> {
    use serde::Value;
    let path = args.require("audit")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut total = 0u64;
    let mut matches = 0u64;
    let mut by_kind: std::collections::BTreeMap<String, u64> = Default::default();
    let mut fnvs: std::collections::BTreeSet<String> = Default::default();
    let mut impact_attrs: std::collections::BTreeMap<String, u64> = Default::default();
    let mut margin_min = f64::INFINITY;
    let mut margin_sum = 0.0f64;
    let mut close_calls = 0u64; // |margin| < 0.05: decisions one nudge from flipping
    let mut costed = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if !matches!(record, Value::Object(_)) {
            return Err(format!("{path}:{}: decision record is not an object", lineno + 1));
        }
        let string = |key: &str| record.get(key).and_then(Value::as_str).map(str::to_string);
        total += 1;
        if record.get("verdict") == Some(&Value::Bool(true)) {
            matches += 1;
        }
        if let Some(kind) = string("kind") {
            *by_kind.entry(kind).or_insert(0) += 1;
        }
        if let Some(fnv) = string("model_fnv") {
            fnvs.insert(fnv);
        }
        if let Some(m) = record.get("margin").and_then(Value::as_f64) {
            margin_min = margin_min.min(m.abs());
            margin_sum += m.abs();
            if m.abs() < 0.05 {
                close_calls += 1;
            }
        }
        if let Some(Value::Array(impacts)) = record.get("top_impacts") {
            if let Some(attr) = impacts.first().and_then(|top| top.get("attribute")?.as_str()) {
                *impact_attrs.entry(attr.to_string()).or_insert(0) += 1;
            }
        }
        costed += u64::from(record.get("cost").is_some());
    }
    if total == 0 {
        return Err(format!("{path} holds no decision records"));
    }
    println!("{path}: {total} decisions");
    let kinds = by_kind
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("  kinds       : {kinds}");
    println!(
        "  verdicts    : {matches} match / {} non-match ({:.1}% match)",
        total - matches,
        100.0 * matches as f64 / total as f64
    );
    println!(
        "  margin      : mean |m|={:.3} min |m|={:.3}  close calls (<0.05): {close_calls}",
        margin_sum / total as f64,
        margin_min
    );
    if !impact_attrs.is_empty() {
        let mut ranked: Vec<_> = impact_attrs.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let top = ranked
            .iter()
            .take(5)
            .map(|(a, n)| format!("{a}×{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  top drivers : {top}");
    }
    println!("  models      : {}", fnvs.into_iter().collect::<Vec<_>>().join(", "));
    if costed > 0 {
        println!("  cost fields : {costed} record(s) carry wall/alloc cost");
    }
    Ok(())
}

/// Records per parallel scoring chunk in `classify`: small enough that the
/// windowed metrics rotate a few times per run, large enough to amortize
/// thread hand-off. Chunking never changes output bits (see `wym-par`).
const CLASSIFY_CHUNK: usize = 256;

/// `wym classify` — serve a WYMA artifact over a CSV of pairs, optionally
/// in parallel, with the full telemetry surface: sequence-pinned decision
/// audit log, windowed metrics, and the drift sentinel against the
/// artifact's frozen train-time sketch.
fn classify(args: &Args) -> Result<(), String> {
    let model_path = args.require("load-model")?;
    let mode = if args.get("mmap").is_some() {
        artifact::LoadMode::Mmap
    } else {
        artifact::LoadMode::Read
    };
    let loaded = artifact::load_model(Path::new(model_path), mode).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {model_path} ({} bytes, {}; trained with kernel={} seed={} git={})",
        loaded.file_bytes,
        if loaded.mapped { "mmap" } else { "read" },
        loaded.manifest.kernel,
        loaded.manifest.seed,
        loaded.manifest.git_sha,
    );
    let baseline = loaded.sketch;
    let model_fnv = loaded.content_fnv;
    let model = loaded.model;
    let dataset = load(args.require("data")?)?;
    check_schema(&dataset.schema.attributes, model.attr_names())?;
    let explain = args.get("explain").is_some();
    let threads = args.num("threads", 1usize);

    // The audit sink is installed globally so worker threads (which run
    // under the propagated obs context anyway) and the caller agree on it.
    let audit = match args.get("audit-log").filter(|p| !p.is_empty()) {
        Some(p) => {
            let log = std::sync::Arc::new(wym_obs::AuditLog::new(wym_obs::AuditOptions {
                sample_every: args.num("audit-sample", 1u64),
                include_cost: args.get("audit-cost").is_some(),
                model_fnv,
            }));
            wym_obs::audit::install_global(std::sync::Arc::clone(&log));
            Some((p.to_string(), log))
        }
        None => None,
    };
    // Windowed metrics: one logical tick per scoring chunk, so window
    // rotation depends on record count alone — never wall time.
    wym_obs::window_enable(8);

    let mut predicted_matches = 0usize;
    let mut live = wym_obs::ModelSketch::new();
    let mut offset = 0usize;
    for chunk in dataset.pairs.chunks(CLASSIFY_CHUNK) {
        let base = offset;
        let rows = wym::par::map_indexed(chunk, threads, |i, pair| {
            // Pin the audit sequence to the input position: records sort
            // identically whatever the worker interleaving was.
            let _seq = wym_obs::audit::scope_seq((base + i) as u64);
            let proc = model.process(pair);
            let (line, label, probability) = if explain {
                let ex = model.explain_processed(&proc);
                (ex.to_string(), ex.prediction, ex.probability)
            } else {
                let p = model.predict_processed(&proc);
                let line = format!(
                    "{}\t{}\t{:.4}",
                    pair.id,
                    if p.label { "match" } else { "non-match" },
                    p.probability
                );
                (line, p.label, p.probability)
            };
            (line, label, probability, proc.units)
        });
        for (line, label, probability, units) in rows {
            println!("{line}");
            predicted_matches += usize::from(label);
            if baseline.is_some() {
                model.observe_drift(&mut live, probability, &units);
            }
        }
        offset += chunk.len();
        wym_obs::window_advance();
    }

    if let Some((path, log)) = &audit {
        wym_obs::audit::clear_global();
        let n = log
            .write_jsonl(Path::new(path))
            .map_err(|e| format!("cannot write audit log {path}: {e}"))?;
        eprintln!("audit: {n} decision(s) appended to {path} (checksum {:016x})", log.checksum());
    }
    match &baseline {
        Some(baseline) => {
            let report = baseline.compare(&live);
            report.publish();
            eprintln!("drift: {}", report.render());
        }
        None => eprintln!("drift: no baseline sketch in {model_path} (retrain to freeze one)"),
    }
    eprintln!("{predicted_matches} predicted matches out of {} pairs", dataset.len());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let command = args.positional.first().map(String::as_str).unwrap_or("");
    match command {
        "datasets" => {
            println!("{:<6} {:<20} {:>7} {:>8}  type", "name", "source", "size", "% match");
            for c in magellan::all_configs() {
                println!(
                    "{:<6} {:<20} {:>7} {:>8.2}  {}",
                    c.name,
                    c.full_name,
                    c.size,
                    c.match_pct,
                    c.dataset_type.as_str()
                );
            }
            Ok(())
        }
        "generate" => {
            let name = args.require("dataset")?;
            let out = args.require("out")?;
            let seed = args.num("seed", 42u64);
            let mut dataset = magellan::generate_by_name(name, seed)
                .ok_or_else(|| format!("unknown dataset {name}; see `wym datasets`"))?;
            if let Some(cap) = args.get("cap") {
                let cap: usize = cap.parse().map_err(|_| "--cap needs a number")?;
                dataset = dataset.subsample(cap, seed);
            }
            if args.get("shift").is_some() {
                // Deterministic distribution shift for drift-sentinel
                // exercises: rotate the right-hand entities by half the
                // dataset so pairs stop describing the same real-world
                // entity. Labels become non-matches by construction.
                let n = dataset.pairs.len();
                if n > 1 {
                    let rights: Vec<Entity> =
                        dataset.pairs.iter().map(|p| p.right.clone()).collect();
                    for (i, pair) in dataset.pairs.iter_mut().enumerate() {
                        pair.right = rights[(i + n / 2) % n].clone();
                        pair.label = false;
                    }
                }
                eprintln!("shifted: right entities rotated by {}, labels cleared", n / 2);
            }
            csv::write_csv(&dataset, Path::new(out)).map_err(|e| e.to_string())?;
            println!(
                "wrote {} pairs ({:.1}% matches) to {out}",
                dataset.len(),
                dataset.match_rate_pct()
            );
            Ok(())
        }
        "eval" => {
            let dataset = load(args.require("data")?)?;
            let (model, test) = fit(&dataset, args);
            println!("selected classifier: {:?}", model.classifier());
            println!("pool validation F1:");
            for (kind, f1) in model.matcher().pool_scores() {
                println!("  {:<4} {f1:.3}", kind.short_name());
            }
            println!("test F1: {:.3}", model.f1_on(&test));
            Ok(())
        }
        "explain" => {
            let dataset = load(args.require("data")?)?;
            let id: u32 = args
                .require("id")?
                .parse()
                .map_err(|_| "--id needs a record id".to_string())?;
            let pair = dataset
                .pairs
                .iter()
                .find(|p| p.id == id)
                .ok_or_else(|| format!("no record with id {id}"))?
                .clone();
            let (model, _) = fit(&dataset, args);
            println!("left : {}", pair.left.full_text());
            println!("right: {}", pair.right.full_text());
            println!("gold : {}", if pair.label { "match" } else { "non-match" });
            println!("{}", model.explain(&pair));
            Ok(())
        }
        "match" => {
            let dataset = load(args.require("data")?)?;
            let parse_entity = |s: &str| -> Entity {
                Entity { values: s.split('|').map(str::to_string).collect() }
            };
            let left = parse_entity(args.require("left")?);
            let right = parse_entity(args.require("right")?);
            if left.values.len() != dataset.schema.len()
                || right.values.len() != dataset.schema.len()
            {
                return Err(format!(
                    "entities need {} '|'-separated values (schema: {})",
                    dataset.schema.len(),
                    dataset.schema.attributes.join(", ")
                ));
            }
            let pair = RecordPair { id: u32::MAX, label: false, left, right };
            let (model, _) = fit(&dataset, args);
            println!("{}", model.explain(&pair));
            Ok(())
        }
        "train" => {
            let dataset = load(args.require("data")?)?;
            let out = args.require("save-model")?;
            let (model, test) = fit(&dataset, args);
            println!("test F1: {:.3} ({:?})", model.f1_on(&test), model.classifier());
            // Freeze the train-time behaviour sketch into the artifact:
            // the drift baseline `classify` compares live traffic to.
            let split = paper_split(&dataset, args.num("seed", 42u64));
            let train_pairs: Vec<RecordPair> =
                split.train.iter().map(|&i| dataset.pairs[i].clone()).collect();
            let sketch = model.sketch_on(&train_pairs);
            let bytes = artifact::save_model_with_sketch(
                Path::new(out),
                &model,
                &manifest(args),
                Some(&sketch),
            )
            .map_err(|e| e.to_string())?;
            println!(
                "model artifact saved to {out} ({bytes} bytes, drift baseline over {} pairs)",
                sketch.len()
            );
            Ok(())
        }
        "classify" => classify(args),
        "kernels" => {
            // One implementation name per line, most-preferred first — the
            // smoke suite's kernel-matrix loop greps this to decide which
            // WYM_KERNEL values this host can actually exercise.
            for imp in wym::linalg::kernels::available() {
                println!("{}", imp.name());
            }
            eprintln!("active: {}", wym::linalg::kernels::active_name());
            Ok(())
        }
        "model" => {
            let sub = args.positional.get(1).map(String::as_str).unwrap_or("");
            match sub {
                "inspect" => {
                    let path = args
                        .positional
                        .get(2)
                        .ok_or("usage: wym model inspect <MODEL.wym>")?;
                    let info = artifact::inspect(Path::new(path)).map_err(|e| e.to_string())?;
                    print!("{}", info.render());
                    Ok(())
                }
                "diff" => {
                    let (a, b) = match (args.positional.get(2), args.positional.get(3)) {
                        (Some(a), Some(b)) => (a, b),
                        _ => return Err("usage: wym model diff <A.wym> <B.wym>".into()),
                    };
                    let ia = artifact::inspect(Path::new(a)).map_err(|e| e.to_string())?;
                    let ib = artifact::inspect(Path::new(b)).map_err(|e| e.to_string())?;
                    let lines = artifact::diff(&ia, &ib);
                    if lines.is_empty() {
                        println!("artifacts are identical (same sections, shapes, checksums)");
                        Ok(())
                    } else {
                        for line in &lines {
                            println!("{line}");
                        }
                        Err(format!("{} difference(s)", lines.len()))
                    }
                }
                other => Err(format!("unknown model subcommand {other:?}\n{}", usage())),
            }
        }
        "obs" => {
            let sub = args.positional.get(1).map(String::as_str).unwrap_or("");
            match sub {
                "report" => obs_report(args),
                "flight" => {
                    let path = args
                        .positional
                        .get(2)
                        .ok_or("usage: wym obs flight <DUMP.trace.json>")?;
                    let summary = wym_obs::chrome::summarize_file(Path::new(path))?;
                    print!("{summary}");
                    Ok(())
                }
                "export" => {
                    let path = args.require("metrics")?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    let json: serde::Value =
                        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
                    let snap = wym_obs::Snapshot::from_json(&json)
                        .map_err(|e| format!("{path}: {e}"))?;
                    print!("{}", wym_obs::prometheus_text(&snap));
                    Ok(())
                }
                other => Err(format!("unknown obs subcommand {other:?}\n{}", usage())),
            }
        }
        "" | "help" | "--help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let traced = obs_setup(&args);
    let result = run(&args);
    if traced {
        // Flush even on failure: a partial trace is exactly what you want
        // when diagnosing where a run died.
        obs_flush(&args);
    }
    // Chrome trace export is flight-recorder state, independent of the
    // aggregate tracing above — it works on plain untraced runs too.
    if let Some(path) = args.get("chrome-trace").filter(|p| !p.is_empty()) {
        match wym_obs::flight_write_chrome(path) {
            Ok(n) => eprintln!("chrome trace ({n} events) written to {path}"),
            Err(e) => eprintln!("warning: cannot write chrome trace to {path}: {e}"),
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check_schema;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn schema_check_accepts_only_the_model_attributes_in_order() {
        // A T-AB model against S-FZ, renamed and reordered T-AB schemas.
        let model = names(&["name", "description", "price"]);
        assert_eq!(check_schema(&model, &model), Ok(()));

        let wider = names(&["name", "address", "city", "phone", "type"]);
        let err = check_schema(&wider, &model).unwrap_err();
        assert!(
            err.contains("[name, address, city, phone, type]")
                && err.contains("[name, description, price]"),
            "{err}"
        );

        let renamed = names(&["name", "summary", "price"]);
        let err = check_schema(&renamed, &model).unwrap_err();
        assert!(
            err.contains("[name, summary, price]") && err.contains("[name, description, price]"),
            "{err}"
        );

        let reordered = names(&["price", "description", "name"]);
        assert!(check_schema(&reordered, &model).is_err());
    }
}
