//! `ed-soak` — chaos soak harness for `ed-serve`.
//!
//! Starts an in-process server with chaos hooks enabled, fires the
//! seeded hostile request mix at it across increasing concurrency,
//! checks every fail-closed invariant, and prints one summary line per
//! phase. Exits 1 if any response broke an invariant or the server
//! stopped answering; `scripts/verify.sh` runs it with `--requests 120`.
//!
//! ```text
//! ed-soak [--seed N] [--requests N] [--deadline-ms N]
//! ```

use ed_serve::chaos::{self, PhaseConfig};
use ed_serve::handlers::ServerConfig;
use ed_serve::Server;

fn main() {
    let mut seed: u64 = 20_170_626; // DSN'17 paper date
    let mut requests: usize = 120;
    let mut deadline_ms: u64 = 2_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("ed-soak: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => seed = take("--seed").parse().expect("--seed needs a number"),
            "--requests" => requests = take("--requests").parse().expect("--requests needs a number"),
            "--deadline-ms" => {
                deadline_ms = take("--deadline-ms").parse().expect("--deadline-ms needs a number")
            }
            other => {
                eprintln!("ed-soak: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    // Injected panics are part of the storm; keep their logging to one
    // line so the phase summaries stay readable.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("ed-soak: contained panic: {info}");
    }));

    // Small queue + few workers on purpose: the soak must actually hit
    // backpressure and shedding, not just clean solves.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        default_deadline_ms: deadline_ms,
        allow_chaos: true,
        atlas_journal: None,
    };
    let server = Server::start(cfg).expect("soak server failed to bind");
    let addr = server.addr();
    println!("ed-soak: server up on {addr}, seed {seed}, {requests} requests/phase");

    let mut violation_count = 0;
    for (i, concurrency) in [1usize, 2, 4].into_iter().enumerate() {
        let config = PhaseConfig {
            seed: seed.wrapping_add(i as u64),
            requests,
            concurrency,
            deadline_ms,
        };
        let outcome = chaos::run_phase(addr, config);
        println!(
            "ed-soak: phase c={concurrency}: p50={:.2}ms p99={:.2}ms rps={:.1} ok={} degraded={} refused={} shed/rejected={} panics={} transport_errors={} violations={}",
            outcome.percentile_ms(50.0),
            outcome.percentile_ms(99.0),
            outcome.throughput_rps(),
            outcome.tally.ok,
            outcome.tally.degraded,
            outcome.tally.refused,
            outcome.tally.shed_or_rejected,
            outcome.tally.panics,
            outcome.tally.transport_errors,
            outcome.violations.len(),
        );
        for v in outcome.violations.iter().take(5) {
            eprintln!("ed-soak:   violation: {v}");
        }
        violation_count += outcome.violations.len();
    }

    // The server must still be alive and clean after the storm.
    let alive = matches!(
        chaos::exchange(addr, "GET", "/healthz", &[], ""),
        Ok((200, _))
    );
    let drained = server.shutdown();
    println!("ed-soak: server drained ({drained} queued at shutdown), healthz_after_storm={alive}");

    if !alive || violation_count > 0 {
        eprintln!("ed-soak: FAILED (alive={alive}, violations={violation_count})");
        std::process::exit(1);
    }
    println!("ed-soak: PASS — zero process crashes, zero invariant violations");
}
