//! `classify` workload: the served model and stream of `explain`, run
//! through the shipped command
//! `wym classify --load-model … --mmap --threads <threads>` as a child
//! process. Records are spread over parallel chunks, artifact load and CSV
//! parsing fall inside the timed wall, the flight recorder is on as
//! shipped, and no explanation is built.
//!
//! Every output line must match an in-process `WymModel::predict`. The
//! traced run mirrors the command's loop in-process, one layer call at a
//! time.

use crate::host::{HostClock, Kernel};
use crate::layers::{self, Counters};
use crate::report::{self, median, Outcome, Who};
use crate::served::{self, Served};
use crate::{trace, Args};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wym_artifact::{load_model, LoadMode};
use wym_data::{csv, DatasetType, EmDataset};

/// Records per parallel chunk, as in `wym classify`.
const CLASSIFY_CHUNK: usize = 256;
/// Pairs per command: the stream is cut into CSV files of this many pairs,
/// classified in rotation, so that a run holds dozens of commands, whose
/// median wall then shrugs off short bursts of load from other tenants of a
/// shared host.
const BATCH: usize = 1500;

/// The line `wym classify` prints for one prediction.
fn verdict_line(id: u32, label: bool, probability: f32) -> String {
    format!(
        "{id}\t{}\t{probability:.4}",
        if label { "match" } else { "non-match" }
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let wym = args
        .wym_bin
        .clone()
        .ok_or("classify needs --wym-bin <path to wym>")?;
    let mut out = Outcome::default();
    out.line(format!(
        "workload: classify — `wym classify --mmap --threads {}` over the held-out T-AB stream",
        args.threads
    ));
    let mut clock = HostClock::new(Kernel::Record);
    let served = served::setup(args, &mut clock, &mut out)?;
    let mut files: Vec<PathBuf> = Vec::new();
    for (k, pairs) in served.stream.chunks(BATCH).enumerate() {
        let path = args.out_dir.join(format!("stream-{k}.csv"));
        let batch = EmDataset {
            name: served::DATASET.into(),
            dataset_type: DatasetType::Textual,
            schema: wym_data::Schema::new(served.model.attr_names().to_vec()),
            pairs: pairs.to_vec(),
        };
        csv::write_csv(&batch, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
    }
    let (expected, verdicts): (Vec<String>, Vec<bool>) =
        wym_par::map_indexed(&served.stream, args.threads, |_, pair| {
            let p = served.model.predict(pair);
            (verdict_line(pair.id, p.label, p.probability), p.label)
        })
        .into_iter()
        .unzip();

    let expected: Vec<&[String]> = expected.chunks(BATCH).collect();
    let classify = |data: &Path| -> Result<Output, String> {
        Command::new(&wym)
            .arg("classify")
            .arg("--load-model")
            .arg(&served.artifact)
            .arg("--data")
            .arg(data)
            .arg("--mmap")
            .arg("--threads")
            .arg(args.threads.to_string())
            .current_dir(&args.out_dir)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", wym.display()))
    };
    // Warm-up: the binary's and the artifact's pages into the page cache.
    classify(&files[0])?;
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut per_record = Vec::new();
    let start = clock.now();
    while clock.now() - start < args.seconds {
        let k = walls.len() % files.len();
        let (output, op) = clock.time(|| classify(&files[k]));
        let output = output?;
        walls.push(clock.scaled(op));
        raw_walls.push(op.wall);
        per_record.push(walls[walls.len() - 1] / expected[k].len() as f64);
        let mut stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        if args.corrupt && walls.len() == 1 {
            stdout = stdout.replacen("\tnon-match\t", "\tmatch\t", 1);
        }
        check_output(&mut out, output.status.success(), &stdout, expected[k]);
    }
    let wall = median(&walls);
    let rate = 1.0 / median(&per_record);
    let n = served.stream.len();
    let checksum = expected
        .iter()
        .flat_map(|e| e.iter())
        .fold(report::FNV_OFFSET, |h, line| {
            report::fnv(report::fnv(h, line.as_bytes()), b"\n")
        });
    out.line(clock.line());
    out.line(format!(
        "classify_records_per_s = {rate} records/s (median of {} runs of the command on {} pairs each; raw {} records/s)",
        walls.len(),
        expected[0].len(),
        expected[0].len() as f64 / median(&raw_walls)
    ));
    out.line(format!(
        "fingerprint: verdict_checksum={checksum:016x} over {n} lines"
    ));
    out.end_to_end.insert("setup_s", served.setup_s);
    out.end_to_end.insert("records_per_s", rate);
    out.end_to_end.insert("latency_p50_ms", wall * 1e3);
    out.end_to_end
        .insert("quality", served::verdict_f1(&served.stream, &verdicts));
    out.end_to_end
        .insert("peak_rss_mb", report::peak_rss_mb(Who::Children));
    if args.trace {
        traced(
            args,
            &served,
            &files[0],
            expected[0],
            &mut clock,
            wall,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Counts every expected line as one operation: it fails when the command
/// failed, or printed a different line in its place.
fn check_output(out: &mut Outcome, success: bool, stdout: &str, expected: &[String]) {
    let got: Vec<&str> = stdout.lines().collect();
    out.check(success && got.len() == expected.len(), || {
        format!(
            "wym classify exited ok={success} with {} lines for {} pairs",
            got.len(),
            expected.len()
        )
    });
    for (i, want) in expected.iter().enumerate() {
        let line = got.get(i).copied().unwrap_or("");
        out.check(success && line == want, || {
            format!("line {i}: got {line:?}, want {want:?}")
        });
    }
}

/// The command's loop, in-process and traced: artifact load, CSV parse,
/// then per chunk the per-record layers on the worker threads and the
/// drift sketch and windowed metrics on the caller. `untraced_s` is the
/// untraced command's median time, scaled by `clock`.
fn traced(
    args: &Args,
    served: &Served,
    data: &Path,
    expected: &[String],
    clock: &mut HostClock,
    untraced_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced_from = clock.begin();
    wym_obs::flight_install(wym_obs::FlightOptions {
        dump_dir: args.out_dir.join("results").to_string_lossy().into_owned(),
        ..wym_obs::FlightOptions::default()
    });
    let counters = Counters::default();
    trace::enable();
    let lines = {
        let _root = trace::span("run");
        let loaded = trace::timed("artifact", || load_model(&served.artifact, LoadMode::Mmap))
            .map_err(|e| e.to_string())?;
        let dataset = trace::timed("data", || {
            csv::read_csv(data, "user-data", DatasetType::Structured)
        })
        .map_err(|e| e.to_string())?;
        let (model, baseline) = (&loaded.model, &loaded.sketch);
        let config = model.config();
        trace::timed("obs", || wym_obs::window_enable(8));
        let mut live = wym_obs::ModelSketch::new();
        let mut lines = Vec::with_capacity(dataset.len());
        for (c, chunk) in dataset.pairs.chunks(CLASSIFY_CHUNK).enumerate() {
            let base = c * CLASSIFY_CHUNK;
            let rows = trace::par_map(chunk, args.threads, |i, pair| {
                trace::set_run((base + i) as u64);
                let _seq = wym_obs::audit::scope_seq((base + i) as u64);
                let tokens = counters.tokenize(model.tokenizer(), pair);
                let record = counters.embed(pair, tokens, model.embedder());
                let units = counters.pair(&record, &config.discovery, config.n_threads);
                let scores = counters
                    .score(model.scorer(), &config.rules, &[(&record, &units)])
                    .remove(0);
                let probability =
                    trace::timed("predict", || model.matcher().predict_proba(&units, &scores));
                let paired = units.iter().filter(|u| u.is_paired()).count();
                let attrs: Vec<usize> = units.iter().map(|u| u.attribute()).collect();
                let line = verdict_line(pair.id, probability >= 0.5, probability);
                (line, probability, paired, attrs)
            });
            trace::timed("obs", || {
                for (line, probability, paired, attrs) in rows {
                    if baseline.is_some() {
                        let frac = if attrs.is_empty() {
                            0.0
                        } else {
                            paired as f64 / attrs.len() as f64
                        };
                        live.observe(
                            probability,
                            frac,
                            attrs.iter().map(|&a| model.attr_names()[a].as_str()),
                        );
                    }
                    lines.push(line);
                }
                wym_obs::window_advance();
            });
        }
        if let Some(baseline) = baseline {
            trace::timed("obs", || baseline.compare(&live).publish());
        }
        lines
    };
    let traced_op = clock.end(traced_from);
    let spans = trace::finish();
    let times = trace::layer_times(&spans);
    let _ = trace::write_tsv(&args.out_dir.with_file_name("spans-classify.tsv"), &spans);
    check_output(out, true, &lines.join("\n"), expected);

    let l = &mut out.layers;
    counters.fill(&times, l);
    l.insert("predict.busy_s", times.self_of("predict"));
    l.insert("data.busy_s", times.self_of("data"));
    l.insert("obs.busy_s", times.self_of("obs"));
    served.fill_layers(true, l);
    let unattributed = layers::fill_shares(&times, untraced_s * clock.slowdown(traced_op), l);
    out.lines.push(layers::coverage_line(unattributed));
    Ok(())
}
