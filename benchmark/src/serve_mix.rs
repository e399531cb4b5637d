//! `serve_mix`: an in-process `ed_serve::Server` (2 workers, queue 8)
//! under a closed loop of 2 clients. Each client sends its next request
//! when the previous reply arrives, drawing from a stream seeded by
//! `--seed`: 60% `/dispatch` on three_bus/six_bus, 5% `/dispatch` on
//! ieee118, 15% `/safety-audit`, 10% `/sweep` on three_bus and 10%
//! `/certify`. Each client sends 60 requests per second of the run's
//! seconds: 1200 requests in all for 10 s, so 12 lie beyond p99.

use crate::common::{self, ms, Ctx};
use crate::outcome::Outcome;
use crate::probe::Probe;
use ed_rng::{SeedableRng, StdRng};
use ed_serve::cache::WarmCache;
use ed_serve::chaos::exchange;
use ed_serve::chaos::percentile;
use ed_serve::handlers::{handle_work, AppState, ServerConfig};
use ed_serve::http::Request;
use ed_serve::json::{self, Json};
use ed_serve::Server;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    DispatchSmall,
    Dispatch118,
    Audit,
    Sweep,
    Certify,
}

/// Every class with its metric-name stem and its count in each block of
/// 20 requests. The seed shuffles the order within a block, never the
/// counts, so every seed sends the same share of each class.
const CLASSES: [(Class, &str, usize); 5] = [
    (Class::DispatchSmall, "dispatch_small", 12),
    (Class::Dispatch118, "dispatch118", 1),
    (Class::Audit, "audit", 3),
    (Class::Sweep, "sweep", 2),
    (Class::Certify, "certify", 2),
];

const CLIENTS: u64 = 2;
/// Generous enough that no request is ever shed: a shed is a failure, and
/// this workload measures service time, not deadline policy.
const DEADLINE_MS: u64 = 30_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        default_deadline_ms: DEADLINE_MS,
        allow_chaos: false,
        atlas_journal: None,
    }
}

/// `(path, body)` of one request of `class`.
fn request(class: Class, rng: &mut StdRng) -> (&'static str, String) {
    let small = if rng.next_f64() < 0.5 {
        "three_bus"
    } else {
        "six_bus"
    };
    match class {
        Class::DispatchSmall => ("/dispatch", format!("{{\"case\":\"{small}\"}}")),
        Class::Dispatch118 => ("/dispatch", "{\"case\":\"ieee118\"}".to_string()),
        Class::Audit => {
            // Half plausible, half overloaded set-points: both are answered
            // 200 with the audit's verdict.
            let p = if rng.next_f64() < 0.5 { "[120,180]" } else { "[300,0]" };
            ("/safety-audit", format!("{{\"case\":\"three_bus\",\"p_mw\":{p}}}"))
        }
        Class::Sweep => (
            "/sweep",
            "{\"case\":\"three_bus\",\"bounds\":[100,200],\"true_ratings\":[130,120],\"node_limit\":200}"
                .to_string(),
        ),
        Class::Certify => ("/certify", format!("{{\"case\":\"{small}\"}}")),
    }
}

/// The fail-closed answer check: a 200 whose body says `status: ok`, and
/// on `/dispatch` a passed safety audit.
fn verify(path: &str, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{path}: status {status}: {body}"));
    }
    let v = json::parse(body).map_err(|e| format!("{path}: body is not JSON ({e}): {body}"))?;
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{path}: 200 without status ok: {body}"));
    }
    let passed = v.get("safety").and_then(|s| s.get("passed"));
    if path == "/dispatch" && passed != Some(&Json::Bool(true)) {
        return Err(format!("/dispatch: 200 without safety.passed: {body}"));
    }
    Ok(())
}

struct Sample {
    class: Class,
    ms: f64,
    status: u16,
}

/// The next block of 20 classes in a seeded order (Fisher-Yates).
fn deal(rng: &mut StdRng) -> Vec<Class> {
    let mut deck: Vec<Class> = CLASSES
        .iter()
        .flat_map(|&(c, _, n)| std::iter::repeat_n(c, n))
        .collect();
    for i in (1..deck.len()).rev() {
        let j = (rng.next_f64() * (i + 1) as f64) as usize;
        deck.swap(i, j.min(i));
    }
    deck
}

/// One closed-loop client; returns its samples and what went wrong.
fn client(addr: SocketAddr, seed: u64, requests: usize) -> (Vec<Sample>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let headers = [("x-deadline-ms", DEADLINE_MS.to_string())];
    let (mut samples, mut errors) = (Vec::new(), Vec::new());
    let mut block = Vec::new();
    for _ in 0..requests {
        if block.is_empty() {
            block = deal(&mut rng);
        }
        let class = block.pop().expect("a dealt block is not empty");
        let (path, body) = request(class, &mut rng);
        let t = Instant::now();
        match exchange(addr, "POST", path, &headers, &body) {
            Ok((status, reply)) => {
                samples.push(Sample {
                    class,
                    ms: ms(t.elapsed()),
                    status,
                });
                if let Err(e) = verify(path, status, &reply) {
                    // A refusal is a failed request; a 200 that breaks the
                    // contract is a wrong answer.
                    if status == 200 {
                        errors.push(e);
                    } else {
                        eprintln!("serve_mix: {e}");
                    }
                }
            }
            Err(e) => {
                eprintln!("serve_mix: {path}: transport failure: {e}");
                samples.push(Sample {
                    class,
                    ms: ms(t.elapsed()),
                    status: 0,
                });
            }
        }
    }
    (samples, errors)
}

/// The server's always-on `/metrics` counters.
fn service_counters(addr: SocketAddr) -> Option<Json> {
    let (_, body) = exchange(addr, "GET", "/metrics", &[], "").ok()?;
    json::parse(&body).ok()?.get("service").cloned()
}

/// Starts a server and fills its caches with one request of each class.
fn start(out: &mut Outcome) -> Option<Server> {
    let server = match Server::start(server_config()) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("Server::start: {e}"));
            return None;
        }
    };
    let mut rng = StdRng::seed_from_u64(0);
    for (class, ..) in CLASSES {
        let (path, body) = request(class, &mut rng);
        let reply = exchange(server.addr(), "POST", path, &[], &body);
        let checked = reply.and_then(|(status, reply)| verify(path, status, &reply));
        out.check(checked.is_ok(), || format!("cache fill: {checked:?}"));
    }
    Some(server)
}

/// `handle_work` called in-process on a fresh `AppState`: the median of
/// `calls` calls per class, without HTTP, accept loop or queue. Returns
/// the small-dispatch median.
fn handler_medians(calls: usize, out: &mut Outcome) -> f64 {
    let state = AppState {
        cache: WarmCache::new(),
        cfg: server_config(),
    };
    let mut rng = StdRng::seed_from_u64(0);
    let mut small = f64::NAN;
    for (class, name, _) in CLASSES {
        let (path, body) = request(class, &mut rng);
        let req = Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let mut times = Vec::new();
        for _ in 0..calls {
            let t = Instant::now();
            let resp = handle_work(
                &state,
                &req,
                Instant::now() + Duration::from_millis(DEADLINE_MS),
            );
            times.push(ms(t.elapsed()));
            let checked = verify(path, resp.status, &resp.body);
            out.check(checked.is_ok(), || format!("handler: {checked:?}"));
        }
        let m = percentile(&times, 50.0);
        if class == Class::DispatchSmall {
            small = m;
        }
        out.set(&format!("serve.handler_{name}_ms"), m);
    }
    small
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::new(ctx);
    let server = common::setup(ctx, &mut probe, &mut out, start, |s: Option<Server>| {
        if let Some(s) = s {
            s.shutdown();
        }
    });
    let Some(server) = server else { return out };
    let addr = server.addr();

    let before = service_counters(addr);
    ed_obs::set_enabled(ctx.trace);
    let mark = ed_obs::mark();
    let requests = ctx.reps(1.0 / 60.0, 20);
    let f_before = probe.factor();
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let seed = ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c);
                s.spawn(move || client(addr, seed, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve_mix client panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    // The client threads cannot stop for a probe, so the loop counts as one
    // operation, scaled by the mean of the probes on either side of it.
    let f = 0.5 * (f_before + probe.factor());
    let report = ed_obs::report_since(&mark);
    ed_obs::set_enabled(false);
    let after = service_counters(addr);
    server.shutdown();

    let mut samples = Vec::new();
    for (s, errors) in per_client {
        samples.extend(s);
        out.check_all(errors);
    }
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| s.status != 200).count() as u64;
    let latencies = |class: Option<Class>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.ms)
            .collect()
    };
    if !ctx.trace {
        out.set("latency_p50_ms", percentile(&latencies(None), 50.0) * f);
        out.set("throughput_per_s", samples.len() as f64 / (wall_s * f));
        return out;
    }

    out.set("serve.p99_ms", percentile(&latencies(None), 99.0));
    for (class, name, _) in CLASSES {
        out.set(
            &format!("serve.{name}_p50_ms"),
            percentile(&latencies(Some(class)), 50.0),
        );
    }
    let handler_small = handler_medians(if ctx.smoke { 2 } else { 20 }, &mut out);
    let client_small = percentile(&latencies(Some(Class::DispatchSmall)), 50.0);
    out.set("serve.transport_ms", client_small - handler_small);
    match (before, after) {
        (Some(b), Some(a)) => {
            for (metric, counter) in [
                ("serve.cache_hits", "cache_hits"),
                ("serve.cache_misses", "cache_misses"),
                ("serve.sweep_basis_hits", "sweep_basis_hits"),
                ("serve.refused", "refused"),
                ("serve.shed", "shed_deadline"),
                ("serve.queue_full", "rejected_queue_full"),
            ] {
                let read = |j: &Json| j.get(counter).and_then(Json::as_f64).unwrap_or(0.0);
                out.set(metric, read(&a) - read(&b));
            }
        }
        _ => out.errors.push("GET /metrics did not answer".to_string()),
    }
    common::solver_layers(&mut out, &report);
    common::write_trace(&mut out, "serve_mix", &report);
    out
}
