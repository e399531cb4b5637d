//! `ed-serve` — the fail-closed attack-assessment service binary.
//!
//! ```text
//! ed-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!          [--deadline-ms N] [--chaos] [--atlas-journal PATH]
//! ```
//!
//! Runs until SIGTERM/SIGINT, then drains through [`Server::shutdown`]
//! (every admitted request gets its answer), prints a drain summary, and
//! exits 0.

use ed_serve::handlers::ServerConfig;
use ed_serve::metrics::metrics;
use ed_serve::{signal, Server};

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:8780".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = expect_value(&mut args, "--addr"),
            "--workers" => cfg.workers = parse_num(&mut args, "--workers"),
            "--queue" => cfg.queue_capacity = parse_num(&mut args, "--queue"),
            "--deadline-ms" => cfg.default_deadline_ms = parse_num(&mut args, "--deadline-ms"),
            "--chaos" => cfg.allow_chaos = true,
            "--atlas-journal" => cfg.atlas_journal = Some(expect_value(&mut args, "--atlas-journal")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: ed-serve [--addr HOST:PORT] [--workers N] [--queue N] [--deadline-ms N] [--chaos] [--atlas-journal PATH]"
                );
                return;
            }
            other => {
                eprintln!("ed-serve: unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }

    // Worker panics are contained by design; one log line each, not a
    // backtrace wall.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("ed-serve: contained panic: {info}");
    }));

    signal::install_handlers();
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ed-serve: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!(
        "ed-serve listening on {} (workers={}, queue={}, chaos={})",
        server.addr(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.allow_chaos
    );

    // A signal handler can only store an atomic, so this wait polls it,
    // here on the main thread and off the request path.
    while !signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let drained = server.shutdown();
    println!(
        "ed-serve: shutdown complete, drained {drained} queued request(s); final metrics: {}",
        metrics().to_json()
    );
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("ed-serve: {flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    expect_value(args, flag).parse().unwrap_or_else(|_| {
        eprintln!("ed-serve: {flag} needs a number");
        std::process::exit(2);
    })
}
