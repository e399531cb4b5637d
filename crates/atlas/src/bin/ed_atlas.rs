//! `ed-atlas` — run (or resume) a crash-tolerant attack-surface sweep.
//!
//! ```text
//! ed-atlas --cases three_bus,six_bus --hours 24 --ed-k 2 --contingencies 2 \
//!          --journal atlas.journal --out atlas_report.json [--resume]
//! ```
//!
//! The journal is the source of truth: `kill -9` this process at any
//! point, rerun with `--resume`, and the final report is byte-identical
//! to an uninterrupted run (absent `--deadline-ms`, which makes tier
//! selection wall-clock-dependent by design). Exit code 0 means every
//! enumerated cell is present in the report — quarantined cells included;
//! they are rows, not failures.

use ed_atlas::{run_atlas, AtlasOptions, AtlasSpec, Tier};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    spec: AtlasSpec,
    journal: PathBuf,
    out: Option<PathBuf>,
    resume: bool,
    threads: usize,
    deadline_ms: Option<u64>,
    fault_cells: Vec<usize>,
    fault_attempts: u32,
    stall_ms: u64,
}

fn usage() -> &'static str {
    "usage: ed-atlas [--cases a,b] [--hours N] [--ed-k K] [--contingencies C]\n\
     \x20               [--tier screen|heuristic|exact] [--node-limit N] [--retries N]\n\
     \x20               [--band LO:HI] [--journal PATH] [--out PATH] [--resume]\n\
     \x20               [--threads N] [--deadline-ms N]\n\
     \x20               [--fault-cells a,b --fault-attempts N] [--stall-ms N]"
}

fn parse_args() -> Result<Args, String> {
    let mut spec = AtlasSpec::default();
    let mut args = Args {
        spec: AtlasSpec::default(),
        journal: PathBuf::from("atlas.journal"),
        out: None,
        resume: false,
        threads: 0,
        deadline_ms: None,
        fault_cells: Vec::new(),
        fault_attempts: 0,
        stall_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--cases" => {
                spec.cases = val("--cases")?.split(',').map(str::to_string).collect();
            }
            "--hours" => spec.hours = val("--hours")?.parse().map_err(|e| format!("--hours: {e}"))?,
            "--ed-k" => spec.ed_k = val("--ed-k")?.parse().map_err(|e| format!("--ed-k: {e}"))?,
            "--contingencies" => {
                spec.contingencies =
                    val("--contingencies")?.parse().map_err(|e| format!("--contingencies: {e}"))?;
            }
            "--tier" => {
                let t = val("--tier")?;
                spec.tier = Tier::parse(&t).ok_or(format!("--tier: unknown tier '{t}'"))?;
            }
            "--node-limit" => {
                spec.node_limit =
                    val("--node-limit")?.parse().map_err(|e| format!("--node-limit: {e}"))?;
            }
            "--retries" => {
                spec.retries = val("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--band" => {
                let v = val("--band")?;
                let (lo, hi) = v.split_once(':').ok_or(format!("--band: expected LO:HI, got '{v}'"))?;
                spec.band = (
                    lo.parse().map_err(|e| format!("--band lo: {e}"))?,
                    hi.parse().map_err(|e| format!("--band hi: {e}"))?,
                );
            }
            "--journal" => args.journal = PathBuf::from(val("--journal")?),
            "--out" => args.out = Some(PathBuf::from(val("--out")?)),
            "--resume" => args.resume = true,
            "--threads" => {
                args.threads = val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    Some(val("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?);
            }
            "--fault-cells" => {
                args.fault_cells = val("--fault-cells")?
                    .split(',')
                    .map(|c| c.parse().map_err(|e| format!("--fault-cells: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--fault-attempts" => {
                args.fault_attempts =
                    val("--fault-attempts")?.parse().map_err(|e| format!("--fault-attempts: {e}"))?;
            }
            "--stall-ms" => {
                args.stall_ms = val("--stall-ms")?.parse().map_err(|e| format!("--stall-ms: {e}"))?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    args.spec = spec;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Cell panics are contained by design (caught, retried, quarantined);
    // one log line each, not a backtrace wall.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("atlas: contained panic: {info}");
    }));
    let opts = AtlasOptions {
        spec: args.spec.clone(),
        journal: args.journal.clone(),
        resume: args.resume,
        threads: args.threads,
        deadline_ms: args.deadline_ms,
        fault_cells: args.fault_cells.clone(),
        fault_attempts: args.fault_attempts,
        stall_ms: args.stall_ms,
    };
    eprintln!(
        "atlas: sweeping cases={:?} hours={} ed_k={} contingencies={} tier={} (journal {:?}{})",
        opts.spec.cases,
        opts.spec.hours,
        opts.spec.ed_k,
        opts.spec.contingencies,
        opts.spec.tier.as_str(),
        opts.journal,
        if opts.resume { ", resuming" } else { "" },
    );
    let report = match run_atlas(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("atlas: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.resume {
        eprintln!("atlas: resumed ({} cells recovered from journal)", report.recovered_cells);
    }
    if let Some(out) = &args.out {
        if let Err(e) = report.write_atomic(out) {
            eprintln!("atlas: error: writing report {out:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("atlas: report written to {out:?}");
    } else {
        print!("{}", report.to_json());
    }
    println!(
        "atlas: complete ({n}/{n} cells, {q} quarantined, 0 silent holes)",
        n = report.rows.len(),
        q = report.quarantined(),
    );
    ExitCode::SUCCESS
}
