//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They share command-line handling,
//! dataset preparation, the standard WYM configuration, and result output
//! (a Markdown table on stdout plus a JSON file under `results/`).
//!
//! Runtime control: the paper's full benchmark is hours of compute; by
//! default each dataset is label-stratified subsampled to `--cap` pairs
//! (default 800) and the scorer trains for 20 epochs. `--full` lifts the
//! cap and restores the paper's 40 epochs; `--quick` shrinks everything for
//! smoke runs. Smoke runs and runs over a `--datasets` subset write their
//! results to `results/smoke_<name>.json`, so they never overwrite the
//! committed paper results.

use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;
use wym_core::{WymConfig, WymModel};
use wym_data::{magellan, split::paper_split, EmDataset, RecordPair, SplitIndices};
use wym_embed::EmbedderKind;
use wym_ml::ClassifierKind;
use wym_nn::TrainConfig;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Lift subsampling caps and use paper-scale training.
    pub full: bool,
    /// Smoke-run mode: tiny caps, few epochs, reduced pool; results go to
    /// `results/smoke_<name>.json`.
    pub quick: bool,
    /// Per-dataset pair cap (ignored under `--full`).
    pub cap: usize,
    /// Global seed.
    pub seed: u64,
    /// Worker threads for fitting/inference (0 = all cores). Results are
    /// identical for every value; this only trades latency for footprint.
    pub threads: usize,
    /// Restrict to these dataset short names (default: all twelve). A
    /// subset run's results go to `results/smoke_<name>.json`.
    pub datasets: Option<Vec<String>>,
    /// Override the embedding dimensionality (`None` = the config default;
    /// pass 300 for the paper's fastText-scale vectors). `--quick` wins
    /// when both are given.
    pub dim: Option<usize>,
    /// Record spans and metrics; print the stderr summary at exit.
    pub trace: bool,
    /// Where to write the JSON metrics snapshot (`None` = only when
    /// tracing, at `results/OBS_<binary>.json`).
    pub metrics_out: Option<String>,
    /// Export folded-stack flamegraphs (`results/FLAME_<name>_*.folded`).
    /// Implies recording, and memory profiling for the alloc weights.
    pub flame: bool,
    /// Attribute allocator traffic to spans (needs the binary to install
    /// [`wym_obs::TrackingAlloc`], which all experiment binaries do).
    pub profile_mem: bool,
    /// Export the full-run flight-recorder contents as a Chrome
    /// trace-event JSON file at this path (loadable in `chrome://tracing`
    /// or Perfetto). Independent of `--trace`: the flight records even in
    /// untraced runs.
    pub chrome_trace: Option<String>,
    /// Hidden fault injection: panic when entering the named span. Smoke
    /// CI uses this to exercise the panic-hook dump path deterministically.
    pub inject_panic: Option<String>,
    /// Hidden fault injection: sleep `ms` when entering the named span
    /// (`--inject-stall SPAN,MS`) so the stall watchdog trips on demand.
    pub inject_stall: Option<(String, u64)>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            full: false,
            quick: false,
            cap: 800,
            seed: 7,
            threads: 0,
            datasets: None,
            dim: None,
            trace: false,
            metrics_out: None,
            flame: false,
            profile_mem: false,
            chrome_trace: None,
            inject_panic: None,
            inject_stall: None,
        }
    }
}

impl HarnessOpts {
    /// Parses `--full`, `--quick`, `--cap N`, `--seed N`, `--threads N`,
    /// `--dim N`, `--datasets A,B,…`, `--trace`, `--metrics-out FILE` from
    /// `std::env::args`. Enables obs recording when tracing is requested.
    /// Exits with status 2 (see [`usage_error`]) on an unknown flag, a
    /// missing or malformed value, or a `--datasets` name that is not one
    /// of the twelve datasets.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => opts.full = true,
                "--trace" => opts.trace = true,
                "--flame" => opts.flame = true,
                "--profile-mem" => opts.profile_mem = true,
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out = Some(flag_value(&args, i).to_string());
                }
                "--quick" => {
                    opts.quick = true;
                    opts.cap = 300;
                }
                "--cap" => {
                    i += 1;
                    opts.cap = flag_number(&args, i);
                }
                "--seed" => {
                    i += 1;
                    opts.seed = flag_number(&args, i);
                }
                "--threads" => {
                    i += 1;
                    opts.threads = flag_number(&args, i);
                }
                "--datasets" => {
                    i += 1;
                    let list = flag_value(&args, i);
                    opts.datasets =
                        Some(list.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--dim" => {
                    i += 1;
                    opts.dim = Some(flag_number(&args, i));
                }
                "--chrome-trace" => {
                    i += 1;
                    opts.chrome_trace = Some(flag_value(&args, i).to_string());
                }
                "--inject-panic" => {
                    i += 1;
                    opts.inject_panic = Some(flag_value(&args, i).to_string());
                }
                "--inject-stall" => {
                    i += 1;
                    let spec = flag_value(&args, i);
                    let (span, ms) = spec
                        .split_once(',')
                        .and_then(|(s, m)| m.trim().parse().ok().map(|ms| (s.to_string(), ms)))
                        .unwrap_or_else(|| {
                            usage_error(&format!("--inject-stall needs SPAN,MS: {spec}"))
                        });
                    opts.inject_stall = Some((span, ms));
                }
                other => usage_error(&format!(
                    "unknown argument: {other}\nflags: --full --quick --cap N --seed N --threads N \
                     --dim N --datasets A,B,... --trace --metrics-out FILE --flame --profile-mem \
                     --chrome-trace FILE"
                )),
            }
            i += 1;
        }
        if let Some(names) = &opts.datasets {
            if let Err(e) = check_dataset_names(names) {
                usage_error(&e);
            }
        }
        wym_obs::register_stages(wym_core::pipeline::PIPELINE_STAGES);
        if opts.trace || opts.metrics_out.is_some() || opts.flame {
            wym_obs::set_enabled(true);
        }
        if opts.profile_mem || opts.flame {
            wym_obs::prof::set_enabled(true);
        }
        // The flight recorder is always on (WYM_FLIGHT=off opts out): the
        // black box exists precisely for the runs nobody thought to trace.
        wym_obs::flight_install(wym_obs::FlightOptions::default());
        if let Some(span) = &opts.inject_panic {
            wym_obs::ring::set_injection(wym_obs::ring::Injection::Panic(span.clone()));
            eprintln!("flight: fault injection armed: panic at span \"{span}\"");
        }
        if let Some((span, ms)) = &opts.inject_stall {
            wym_obs::ring::set_injection(wym_obs::ring::Injection::Stall(span.clone(), *ms));
            eprintln!("flight: fault injection armed: {ms} ms stall at span \"{span}\"");
        }
        opts
    }

    /// The run's provenance header: commit, effective config, dataset
    /// selection, dispatched kernel, threads, and seed, hashed into a
    /// [`wym_obs::Manifest`] that [`HarnessOpts::flush_obs`] attaches to
    /// every exported metrics file.
    pub fn manifest(&self, name: &str) -> wym_obs::Manifest {
        let config = format!(
            "full={} quick={} cap={} seed={} threads={} dim={}",
            self.full,
            self.quick,
            self.cap,
            self.seed,
            self.threads,
            self.dim.map_or_else(|| "default".to_string(), |d| d.to_string())
        );
        let datasets = match &self.datasets {
            Some(names) => names.join(","),
            None => "all".to_string(),
        };
        wym_obs::Manifest::new(name)
            .with_kernel(wym_linalg::kernels::active_name())
            .with_threads(self.threads)
            .with_seed(self.seed)
            .with_config_bytes(config.as_bytes())
            .with_dataset_bytes(format!("{datasets} cap={} seed={}", self.cap, self.seed).as_bytes())
    }

    /// Emits the recorded observability snapshot: stderr summary under
    /// `--trace`, JSON export (with the run [`wym_obs::Manifest`]) to
    /// `--metrics-out` (default `results/OBS_<name>.json` when tracing),
    /// and folded-stack flamegraphs under `--flame`. Call once at the end
    /// of an experiment binary; a no-op when no obs flag was given.
    pub fn flush_obs(&self, name: &str) {
        use wym_obs::JsonFileSink;
        // The chrome-trace export reads the flight recorder, not the
        // metrics recorder, so it works even for fully untraced runs.
        if let Some(path) = &self.chrome_trace {
            match wym_obs::flight_write_chrome(path) {
                Ok(n) => eprintln!("→ chrome trace ({n} events) saved to {path}"),
                Err(e) => eprintln!("warning: cannot write chrome trace: {e}"),
            }
        }
        if !self.trace && self.metrics_out.is_none() && !self.flame {
            return;
        }
        let snap = wym_obs::snapshot();
        if self.trace {
            let _ = wym_obs::StderrSink.emit(&snap);
        }
        let path = self
            .metrics_out
            .clone()
            .unwrap_or_else(|| format!("results/OBS_{name}.json"));
        let sink = JsonFileSink::new(&path).with_manifest(self.manifest(name));
        match sink.emit(&snap) {
            Ok(()) => eprintln!("→ metrics saved to {path}"),
            Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
        }
        if self.flame {
            write_flames(name, &snap);
        }
    }

    /// The twelve benchmark datasets (or the `--datasets` selection),
    /// generated and capped according to the options.
    pub fn datasets(&self) -> Vec<EmDataset> {
        let all: Vec<&str> = magellan::all_configs().iter().map(|c| c.name).collect();
        self.datasets_or(&all)
    }

    /// The `--datasets` selection, or the datasets named in `default` when
    /// the command line gave none, generated and capped according to the
    /// options. A binary's own default subset is not a `--datasets` run:
    /// [`HarnessOpts::save_json`] still writes `results/<name>.json`.
    pub fn datasets_or(&self, default: &[&str]) -> Vec<EmDataset> {
        magellan::all_configs()
            .iter()
            .filter(|c| match &self.datasets {
                Some(names) => names.iter().any(|n| n == c.name),
                None => default.contains(&c.name),
            })
            .map(|c| {
                let d = magellan::generate(c, self.seed);
                if self.full {
                    d
                } else {
                    d.subsample(self.cap, self.seed)
                }
            })
            .collect()
    }

    /// Whether this run writes smoke results: a `--quick` run, or one
    /// over a `--datasets` subset.
    fn smoke_output(&self) -> bool {
        self.quick || self.datasets.is_some()
    }

    /// Where [`HarnessOpts::save_json`] writes result `name`:
    /// `results/<name>.json`, or `results/smoke_<name>.json` under
    /// `--quick` or `--datasets`, so neither a smoke run nor a subset run
    /// replaces a committed paper result.
    fn results_path(&self, name: &str) -> PathBuf {
        let prefix = if self.smoke_output() { "smoke_" } else { "" };
        PathBuf::from(format!("results/{prefix}{name}.json"))
    }

    /// Writes a JSON result file (creating `results/` on demand) and
    /// reports the path: `results/<name>.json`, or
    /// `results/smoke_<name>.json` under `--quick` or `--datasets`.
    pub fn save_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.results_path(name);
        // Fault-injected runs (--inject-panic / --inject-stall) exist to
        // drill the flight recorder; their timings are poisoned by
        // construction, so they must never write results files.
        if wym_obs::ring::injection_armed() {
            eprintln!("→ fault injection armed; {} not written", path.display());
            return;
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    let note = if self.smoke_output() { " (smoke output)" } else { "" };
                    println!("\n→ results saved to {}{note}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize results: {e}"),
        }
    }

    /// The standard WYM configuration for this run.
    pub fn wym_config(&self) -> WymConfig {
        let mut cfg = WymConfig::default().with_seed(self.seed);
        cfg.n_threads = self.threads;
        if self.quick {
            cfg.embed_dim = 32;
            cfg.embedder_kind = EmbedderKind::Static;
            cfg.scorer.train =
                TrainConfig { epochs: 8, batch_size: 128, lr: 2e-3, ..TrainConfig::default() };
            cfg.matcher.kinds = vec![
                ClassifierKind::LogisticRegression,
                ClassifierKind::GradientBoosting,
                ClassifierKind::RandomForest,
            ];
        } else if self.full {
            cfg.scorer.train =
                TrainConfig { epochs: 40, batch_size: 256, lr: 1e-3, ..TrainConfig::default() };
        } else {
            cfg.scorer.train =
                TrainConfig { epochs: 20, batch_size: 256, lr: 1.5e-3, ..TrainConfig::default() };
        }
        if let Some(d) = self.dim {
            if !self.quick {
                cfg.embed_dim = d;
            }
        }
        cfg
    }
}

/// Reports a command-line mistake the way every experiment binary does:
/// prints `error: {msg}` and exits with status 2 (no panic, no backtrace).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value `args[i]` of the flag `args[i - 1]`; a [`usage_error`] when
/// the command line ends before it.
pub fn flag_value(args: &[String], i: usize) -> &str {
    match args.get(i) {
        Some(value) => value,
        None => usage_error(&format!("{} needs a value", args[i - 1])),
    }
}

/// [`flag_value`] parsed as a number; a [`usage_error`] when it is missing
/// or malformed.
pub fn flag_number<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    let value = flag_value(args, i);
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{} needs a number, got {value:?}", args[i - 1])))
}

/// Checks `--datasets` names against the twelve benchmark datasets, so a
/// mistyped name fails before any work instead of running on nothing.
fn check_dataset_names(names: &[String]) -> Result<(), String> {
    let known: Vec<&str> = magellan::all_configs().iter().map(|c| c.name).collect();
    match names.iter().find(|n| !known.contains(&n.as_str())) {
        Some(unknown) => Err(format!(
            "unknown dataset \"{unknown}\" in --datasets; known datasets: {}",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// Writes the folded-stack flamegraph files for one finished run:
/// `results/FLAME_<name>_wall.folded` always, plus
/// `results/FLAME_<name>_alloc.folded` when the snapshot carries memory
/// attribution. Both load directly into speedscope or
/// `inferno-flamegraph`.
pub fn write_flames(name: &str, snap: &wym_obs::Snapshot) {
    use wym_obs::flame::{write_folded, FlameWeight};
    let mut weights = vec![FlameWeight::WallNs];
    if snap.memory.is_some() || snap.spans.iter().any(|s| s.mem.is_some()) {
        weights.push(FlameWeight::AllocBytes);
    }
    for weight in weights {
        let path = format!("results/FLAME_{name}_{}.folded", weight.infix());
        match write_folded(&path, snap, weight) {
            Ok(lines) => eprintln!("→ flamegraph ({} stacks) saved to {path}", lines),
            Err(e) => eprintln!("warning: cannot write flamegraph to {path}: {e}"),
        }
    }
}

/// A fitted model with its split and test slice.
pub struct FittedRun {
    /// The dataset the model was fitted on.
    pub dataset: EmDataset,
    /// The 60-20-20 split used.
    pub split: SplitIndices,
    /// The fitted model.
    pub model: WymModel,
    /// The test pairs.
    pub test: Vec<RecordPair>,
    /// Wall-clock seconds spent in `WymModel::fit`.
    pub fit_seconds: f64,
}

/// Fits WYM on one dataset with the paper's 60-20-20 split.
pub fn fit_wym(dataset: &EmDataset, config: WymConfig, seed: u64) -> FittedRun {
    let split = paper_split(dataset, seed);
    let start = Instant::now();
    let model = WymModel::fit(dataset, &split, config);
    let fit_seconds = start.elapsed().as_secs_f64();
    let test = split.test.iter().map(|&i| dataset.pairs[i].clone()).collect();
    FittedRun { dataset: dataset.clone(), split, model, test, fit_seconds }
}

/// Prints a Markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// A snapshot as the two sections a BENCH row embeds: the `spans` array,
/// and a `metrics` object holding every other snapshot section in order.
pub fn bench_sections(snap: &wym_obs::Snapshot) -> (Value, Value) {
    let mut spans = Value::Array(Vec::new());
    let mut metrics = Vec::new();
    if let Value::Object(sections) = snap.to_json() {
        for (key, value) in sections {
            if key == "spans" {
                spans = value;
            } else {
                metrics.push((key, value));
            }
        }
    }
    (spans, Value::Object(metrics))
}

/// Formats an F1-like metric to three decimals.
pub fn fmt3(v: f32) -> String {
    format!("{v:.3}")
}

/// Ranks of each column value within a row (1 = best/highest), with ties
/// sharing the smaller rank — the convention of the paper's Table 3.
pub fn ranks_desc(values: &[f32]) -> Vec<usize> {
    values
        .iter()
        .map(|&v| 1 + values.iter().filter(|&&o| o > v + 1e-9).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_handle_ties_like_table3() {
        // Paper convention: 1.0, 1.0 both rank 1; next value ranks 3.
        let r = ranks_desc(&[0.9, 1.0, 1.0, 0.8]);
        assert_eq!(r, vec![3, 1, 1, 4]);
    }

    #[test]
    fn default_opts_cover_all_datasets() {
        let opts = HarnessOpts::default();
        let names: Vec<String> =
            opts.datasets().iter().map(|d| d.name.clone()).collect();
        assert_eq!(names.len(), 12);
        assert!(names.contains(&"S-DG".to_string()));
        for d in opts.datasets() {
            assert!(d.len() <= opts.cap);
        }
    }

    #[test]
    fn dataset_filter_applies() {
        let opts = HarnessOpts {
            datasets: Some(vec!["S-FZ".into(), "S-BR".into()]),
            ..Default::default()
        };
        let ds = opts.datasets();
        assert_eq!(ds.len(), 2);
        // A binary's default subset applies only without `--datasets`.
        assert_eq!(opts.datasets_or(&["T-AB"]).len(), 2);
        let names: Vec<String> = HarnessOpts::default()
            .datasets_or(&["T-AB"])
            .iter()
            .map(|d| d.name.clone())
            .collect();
        assert_eq!(names, ["T-AB"]);
    }

    #[test]
    fn quick_config_is_small() {
        let opts = HarnessOpts { quick: true, cap: 300, ..Default::default() };
        let cfg = opts.wym_config();
        assert_eq!(cfg.embed_dim, 32);
        assert_eq!(cfg.matcher.kinds.len(), 3);
    }

    #[test]
    fn unknown_dataset_names_are_refused() {
        assert!(check_dataset_names(&["S-FZ".into(), "T-AB".into()]).is_ok());
        let err = check_dataset_names(&["S-FZ".into(), "S-XX".into()]).unwrap_err();
        assert!(err.contains("\"S-XX\""), "{err}");
        for config in magellan::all_configs() {
            assert!(err.contains(config.name), "{err} does not list {}", config.name);
        }
    }

    #[test]
    fn quick_results_never_replace_paper_results() {
        let paper = HarnessOpts::default();
        assert_eq!(paper.results_path("table3"), PathBuf::from("results/table3.json"));
        let quick = HarnessOpts { quick: true, cap: 300, ..Default::default() };
        assert_eq!(quick.results_path("table3"), PathBuf::from("results/smoke_table3.json"));
    }

    #[test]
    fn subset_results_never_replace_paper_results() {
        let subset =
            HarnessOpts { datasets: Some(vec!["S-FZ".into()]), ..Default::default() };
        assert_eq!(subset.results_path("table3"), PathBuf::from("results/smoke_table3.json"));
    }
}
