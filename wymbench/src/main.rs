//! WYM benchmark: one command, four workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! bash wymbench/run.sh --workload <fit|explain|classify|block|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own.
//!
//! `run.sh` builds the shipped `wym` binary and this package, then runs
//! this program with `--wym-bin`. Every run checks the program's outputs,
//! prints its provenance, traffic, metrics and output fingerprints, and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! A failed check makes the exit code 1.
//!
//! Hidden options, for `selftest.py`: `--size tiny` shrinks every workload,
//! `--corrupt` falsifies one output before it is checked.

mod block;
mod classify;
mod explain;
mod fit;
mod host;
mod layers;
mod report;
mod served;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["fit", "explain", "classify", "block"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: f64,
    /// Make the traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// The shipped `wym` binary (the `classify` workload runs it).
    pub wym_bin: Option<PathBuf>,
    /// Shrink every workload (benchmark self-test).
    pub tiny: bool,
    /// Falsify one output before the checks (benchmark self-test).
    pub corrupt: bool,
    /// Scratch directory of this run; removed at exit.
    pub out_dir: PathBuf,
    /// Worker threads for the parallel layers: every core but one, which
    /// is left to the host (on two cores a second worker mostly measured
    /// the other tenants of the host).
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        wym_bin: None,
        tiny: false,
        corrupt: false,
        out_dir: PathBuf::new(),
        threads: wym_par::resolve_threads(0).saturating_sub(1).max(1),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--wym-bin" => args.wym_bin = Some(PathBuf::from(value()?)),
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    other => return Err(format!("--size takes tiny or full, not {other:?}")),
                };
            }
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) && args.workload != "all" {
        return Err(format!(
            "--workload must be fit, explain, classify, block or all, not {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Creates this run's scratch directory under `wymbench/out` and moves the
/// process into it, so every relative path the program writes to (the
/// flight recorder's `results/` dumps among them) lands there.
fn enter_out_dir(args: &mut Args) -> Result<(), String> {
    if let Some(bin) = &args.wym_bin {
        let abs = bin
            .canonicalize()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        args.wym_bin = Some(abs);
    }
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = base.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    args.out_dir = dir;
    Ok(())
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wymbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    if let Err(e) = enter_out_dir(&mut args) {
        eprintln!("wymbench: cannot create the run directory: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wymbench workload={} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!(
        "provenance: git={} kernel={} nproc={} threads={} seed={}",
        wym_obs::manifest::detect_git_sha().unwrap_or_else(|| "unknown".into()),
        wym_linalg::kernels::active_name(),
        wym_par::resolve_threads(0),
        args.threads,
        args.seed
    );
    let outcome = match args.workload.as_str() {
        "fit" => fit::run(&args),
        "explain" => explain::run(&args),
        "classify" => classify::run(&args),
        "block" => block::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&args.out_dir);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wymbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let reported = if args.trace {
        outcome.layers.clone()
    } else {
        outcome.end_to_end.clone()
    };
    for (name, value) in reported {
        outcome.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
    print_outcome(&args, &outcome);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process with this process's arguments;
/// fails if any of them does.
fn run_all() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wymbench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let args = argv.iter().map(|a| {
            if a == "all" {
                workload.to_string()
            } else {
                a.clone()
            }
        });
        let ok = std::process::Command::new(&exe)
            .args(args)
            .status()
            .is_ok_and(|status| status.success());
        if !ok {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("wymbench: failed workloads: {}", failed.join(", "));
        ExitCode::from(1)
    }
}

fn print_outcome(args: &Args, o: &Outcome) {
    for line in &o.lines {
        println!("{line}");
    }
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    println!("checks: attempted={} failed={}", o.attempted, o.failed);
    println!("error_rate = {error_rate} fraction");
    for (name, unit) in END_TO_END {
        assert!(
            o.end_to_end.contains_key(name),
            "workload left {name} unset"
        );
        println!("metric {name} = {} {unit}", o.end_to_end[name]);
    }
    let (names, values): (&[(&str, &str)], _) = if args.trace {
        for (name, unit) in PER_LAYER {
            println!(
                "layer {name} = {} {unit}",
                o.layers.get(name).copied().unwrap_or(0.0)
            );
        }
        (PER_LAYER, &o.layers)
    } else {
        (END_TO_END, &o.end_to_end)
    };
    for name in values.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let mut json = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            report::json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
}
