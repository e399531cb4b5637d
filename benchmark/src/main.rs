//! `ed-benchmark` — one benchmark for the attack stack: four named
//! workloads, each run in a child process of its own, every answer
//! checked. See `BENCHMARK.md` for the workloads, metrics and layers.
//!
//! ```text
//! ed-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!              [--runs N] [--json PATH] [--smoke]
//! ed-benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Untraced (`--trace 0`, the default) a run prints every end-to-end
//! metric as `workload metric value unit`; traced (`--trace 1`) every
//! per-layer metric, and `.bench_out/trace_<workload>.json`. With one
//! workload and one run the last line of standard output is the run's
//! result line: `{"correct", "attempted", "failed", "metrics"}`. `--json`
//! appends one record per run for `--compare`. The exit code is 0 only if
//! every run finished and every answer check held.

mod atlas_grid;
mod chain118;
mod common;
mod compare;
mod outcome;
mod probe;
mod scenario;
mod serve_mix;
mod spec;
mod sweep118;

use crate::common::Ctx;
use crate::spec::spec;
use ed_serve::json::{self, Json};
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and its run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
const DEFAULT_SEED: u64 = 20_170_626;
/// The program's environment switches. Children run without them, so
/// every workload measures the production defaults it states.
const ED_SWITCHES: [&str; 7] = [
    "ED_THREADS",
    "ED_PRESOLVE",
    "ED_CERTIFY",
    "ED_TRACE",
    "ED_POOL",
    "ED_WARM",
    "ED_QP_TRACE",
];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    json: Option<String>,
    smoke: bool,
    child: Option<String>,
    compare: Option<(String, String)>,
}

fn usage() -> &'static str {
    "usage: ed-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20                   [--runs N] [--json PATH] [--smoke]\n\
     \x20      ed-benchmark --compare A.jsonl B.jsonl"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec().run_seconds,
        trace: false,
        runs: 1,
        json: None,
        smoke: false,
        child: None,
        compare: None,
    };
    let known = |w: String| {
        if spec().workloads.contains(&w) {
            Ok(w)
        } else {
            Err(format!(
                "unknown workload '{w}' (known: {:?})",
                spec().workloads
            ))
        }
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workloads.push(known(val()?)?),
            "--child" => args.child = Some(known(val()?)?),
            "--seed" => args.seed = val()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val()?.parse().map_err(|e| bad(&e))?,
            "--runs" => args.runs = val()?.parse().map_err(|e| bad(&e))?,
            "--json" => args.json = Some(val()?),
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(&format!("expected 0 or 1, got '{other}'"))),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((val()?, val()?)),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) || args.runs == 0 {
        return Err(format!(
            "--seconds must be >= 0 and --runs >= 1\n{}",
            usage()
        ));
    }
    if args.workloads.is_empty() {
        args.workloads = spec().workloads.clone();
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line.
fn child(workload: &str, args: &Args) -> ExitCode {
    ed_obs::set_enabled(false);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let mut out = match workload {
        "sweep118" => sweep118::run(&ctx),
        "chain118" => chain118::run(&ctx),
        "atlas_grid" => atlas_grid::run(&ctx),
        "serve_mix" => serve_mix::run(&ctx),
        other => unreachable!("workload '{other}' is in BENCHMARK.json but has no implementation"),
    };
    if !ctx.trace {
        match common::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.errors.push("no VmHWM in /proc/self/status".to_string()),
        }
    }
    let line = out.result_line(ctx.trace);
    for e in &out.errors {
        eprintln!("{workload}: check failed: {e}");
    }
    println!("{line}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process; returns whether it exited 0 and
/// the last line it printed.
fn spawn_child(workload: &str, seed: u64, args: &Args) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    for var in ED_SWITCHES {
        cmd.env_remove(var);
    }
    if workload == "sweep118" {
        // Every repetition a first-time scenario: no pooled seed or factors.
        cmd.env("ED_POOL", "0");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                break Err(format!(
                    "{workload} ran past {CHILD_TIMEOUT:?} and was killed"
                ))
            }
            Err(e) => break Err(format!("waiting for {workload}: {e}")),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader.join().unwrap_or_default();
    let status = status?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default()
        .to_string();
    Ok((status.success(), line))
}

/// Runs every selected workload `runs` times, each in its own child.
fn orchestrate(args: &Args) -> ExitCode {
    let mut all_ok = true;
    let mut last_line = None;
    let mut json_file = match &args.json {
        Some(path) => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("ed-benchmark: opening {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    for run in 0..args.runs {
        let seed = args.seed.wrapping_add(run);
        for w in &args.workloads {
            let (exited_ok, line) = match spawn_child(w, seed, args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ed-benchmark: {e}");
                    all_ok = false;
                    continue;
                }
            };
            let Ok(result) = json::parse(&line) else {
                eprintln!("ed-benchmark: {w} printed no result line (last line: {line:?})");
                all_ok = false;
                continue;
            };
            let field = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
            let correct = result.get("correct") == Some(&Json::Bool(true));
            all_ok &= exited_ok && correct;
            println!(
                "# {w} seed {seed}: correct {correct}, attempted {}, failed {}",
                field("attempted"),
                field("failed")
            );
            for m in spec().printed(args.trace) {
                let value = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"));
                match value.and_then(Json::as_f64) {
                    Some(v) => println!("{w} {} {v} {}", m.name, m.unit),
                    None => {
                        eprintln!("ed-benchmark: {w} did not report {}", m.name);
                        all_ok = false;
                    }
                }
            }
            if let Some(f) = json_file.as_mut() {
                let record = format!(
                    "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
                    u8::from(args.trace)
                );
                if let Err(e) = writeln!(f, "{record}") {
                    eprintln!("ed-benchmark: writing the results file: {e}");
                    all_ok = false;
                }
            }
            last_line = Some(line);
        }
    }
    if args.runs == 1 && args.workloads.len() == 1 {
        if let Some(line) = last_line {
            println!("{line}");
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ed-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.child {
        Some(w) => child(w, &args),
        None => orchestrate(&args),
    }
}
