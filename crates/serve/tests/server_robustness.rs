//! Live-server robustness tests: every fail-closed edge the service
//! claims to handle, exercised over a real socket.
//!
//! Service metrics are process-global, so assertions on counters are
//! monotonic (`>=`) rather than exact — the tests in this binary run
//! concurrently against separate server instances.

use ed_serve::chaos::exchange;
use ed_serve::handlers::ServerConfig;
use ed_serve::json::{self, Json};
use ed_serve::Server;
use std::net::SocketAddr;
use std::time::Duration;

fn start(workers: usize, queue: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        default_deadline_ms: 2_000,
        allow_chaos: true,
        atlas_journal: None,
    })
    .expect("test server failed to bind")
}

fn post(addr: SocketAddr, path: &str, headers: &[(&str, String)], body: &str) -> (u16, Json) {
    let (status, body) = exchange(addr, "POST", path, headers, body).expect("transport");
    let parsed = json::parse(&body).unwrap_or_else(|e| panic!("non-JSON body ({e}): {body}"));
    (status, parsed)
}

fn reason(v: &Json) -> &str {
    v.get("reason").and_then(Json::as_str).unwrap_or("<missing>")
}

#[test]
fn clean_dispatch_passes_the_gate() {
    let server = start(1, 4);
    let (status, v) = post(server.addr(), "/dispatch", &[], "{\"case\":\"three_bus\"}");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        matches!(v.get("safety").and_then(|s| s.get("passed")), Some(Json::Bool(true))),
        "200 dispatch must carry a passing audit: {v:?}"
    );
    let p = v.get("p_mw").and_then(Json::as_f64_array).expect("p_mw");
    assert!((p.iter().sum::<f64>() - 300.0).abs() < 1e-6, "paper case serves 300 MW");
    server.shutdown();
}

#[test]
fn expired_deadline_is_refused_at_admission() {
    let server = start(1, 4);
    let hdr = [("x-deadline-ms", "0".to_string())];
    let (status, v) = post(server.addr(), "/dispatch", &hdr, "{\"case\":\"three_bus\"}");
    assert_eq!(status, 422);
    assert_eq!(reason(&v), "deadline_expired_at_admission");
    // The refusal happened before any solve: a full solve would not fit
    // in 0 ms, so a 200 here would prove the deadline was ignored.
    server.shutdown();
}

#[test]
fn bad_deadline_header_is_typed() {
    let server = start(1, 4);
    let hdr = [("x-deadline-ms", "soon".to_string())];
    let (status, v) = post(server.addr(), "/dispatch", &hdr, "{\"case\":\"three_bus\"}");
    assert_eq!(status, 400);
    assert_eq!(reason(&v), "bad_deadline");
    server.shutdown();
}

#[test]
fn queue_full_is_backpressure_not_silence() {
    // One worker, capacity-1 queue. A 300ms stall occupies the worker;
    // the next stall fills the queue; the third must bounce with 503 +
    // Retry-After.
    let server = start(1, 1);
    let addr = server.addr();
    let spawn_stall = || {
        std::thread::spawn(move || {
            exchange(addr, "POST", "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"stall\"}")
        })
    };
    let first = spawn_stall();
    std::thread::sleep(Duration::from_millis(100)); // worker picks it up
    let second = spawn_stall();
    std::thread::sleep(Duration::from_millis(100)); // sits in the queue
    let (status, v) = post(addr, "/dispatch", &[], "{\"case\":\"three_bus\"}");
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(reason(&v), "queue_full");
    // The displaced requests still complete.
    for h in [first, second] {
        let (status, _) = h.join().expect("client thread").expect("transport");
        assert_eq!(status, 200);
    }
    server.shutdown();
}

#[test]
fn handler_panic_is_a_typed_500_and_the_server_lives() {
    let server = start(1, 4);
    let addr = server.addr();
    let (status, v) = post(addr, "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"panic\"}");
    assert_eq!(status, 500);
    assert_eq!(reason(&v), "worker_panicked");
    // Same worker thread keeps serving afterwards.
    let (status, v) = post(addr, "/dispatch", &[], "{\"case\":\"three_bus\"}");
    assert_eq!(status, 200, "{v:?}");
    server.shutdown();
}

#[test]
fn killed_worker_is_replaced() {
    let server = start(1, 4);
    let addr = server.addr();
    let (status, _) = post(addr, "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"kill_worker\"}");
    assert_eq!(status, 200, "kill_worker answers before dying");
    // The single worker just died; only a replacement can answer this.
    let (status, v) = post(addr, "/dispatch", &[], "{\"case\":\"three_bus\"}");
    assert_eq!(status, 200, "replacement worker must serve: {v:?}");
    server.shutdown();
}

#[test]
fn nan_ratings_request_fails_closed() {
    let server = start(1, 4);
    // json::parse rejects bare NaN, so smuggle the hole in as a string?
    // No — the API takes numbers only; a NaN can only arise from
    // upstream state, which /dispatch models via ratings shorter/longer
    // or corrupt values. Closest wire-level probe: ratings with an
    // out-of-band magnitude from a corrupted read.
    let (status, v) = post(
        server.addr(),
        "/dispatch",
        &[],
        "{\"case\":\"three_bus\",\"ratings_mw\":[1e308,1e308,1e308]}",
    );
    // Either a typed refusal or a gate-audited 200 is acceptable for
    // huge-but-finite ratings; what is not acceptable is an unaudited
    // answer.
    if status == 200 {
        assert!(
            matches!(v.get("safety").and_then(|s| s.get("passed")), Some(Json::Bool(true))),
            "{v:?}"
        );
    } else {
        assert_ne!(reason(&v), "<missing>", "{v:?}");
    }
    // A NaN literal in the body is rejected by the strict parser.
    let (status, v) = post(
        server.addr(),
        "/dispatch",
        &[],
        "{\"case\":\"three_bus\",\"ratings_mw\":[NaN,120,200]}",
    );
    assert_eq!(status, 400);
    assert_eq!(reason(&v), "bad_request");
    // Wrong-shaped ratings must be refused by sanitization, not solved.
    let (status, v) = post(
        server.addr(),
        "/dispatch",
        &[],
        "{\"case\":\"three_bus\",\"ratings_mw\":[130]}",
    );
    assert_ne!(status, 200);
    assert_ne!(reason(&v), "<missing>", "{v:?}");
    server.shutdown();
}

#[test]
fn malformed_json_is_a_400() {
    let server = start(1, 4);
    let (status, v) = post(server.addr(), "/dispatch", &[], "{\"case\": three_bus");
    assert_eq!(status, 400);
    assert_eq!(reason(&v), "bad_request");
    server.shutdown();
}

#[test]
fn unknown_endpoint_and_case_are_typed() {
    let server = start(1, 4);
    let (status, v) = post(server.addr(), "/exploit", &[], "{}");
    assert_eq!(status, 404);
    assert_eq!(reason(&v), "not_found");
    let (status, v) = post(server.addr(), "/dispatch", &[], "{\"case\":\"fourteen_bus\"}");
    assert_eq!(status, 400);
    assert_eq!(reason(&v), "unknown_case");
    server.shutdown();
}

#[test]
fn certify_repairs_an_injected_basis_fault_or_refuses() {
    let server = start(1, 4);
    let (status, v) = post(
        server.addr(),
        "/certify",
        &[("x-deadline-ms", "10000".to_string())],
        "{\"case\":\"three_bus\",\"inject_basis_fault\":7}",
    );
    if status == 200 {
        // Served only because a repair rung earned a certificate.
        let trust = v.get("trust").and_then(Json::as_str).unwrap_or_default();
        assert!(
            trust == "certified" || trust.starts_with("repaired:"),
            "200 certify must be trusted: {v:?}"
        );
    } else {
        assert_eq!(status, 422);
        assert!(
            matches!(reason(&v), "uncertified" | "budget_partial" | "safety_gate"),
            "{v:?}"
        );
    }
    server.shutdown();
}

#[test]
fn safety_audit_flags_an_overloaded_dispatch() {
    let server = start(1, 4);
    let (status, v) = post(
        server.addr(),
        "/safety-audit",
        &[],
        "{\"case\":\"three_bus\",\"p_mw\":[300,0]}",
    );
    assert_eq!(status, 200, "a failing audit is a successful assessment: {v:?}");
    let audit = v.get("audit").expect("audit object");
    assert!(
        matches!(audit.get("passed"), Some(Json::Bool(false))),
        "300 MW through one corner of the 3-bus system must overload: {v:?}"
    );
    // And the honest dispatch passes.
    let (status, v) = post(
        server.addr(),
        "/safety-audit",
        &[],
        "{\"case\":\"three_bus\",\"p_mw\":[120,180]}",
    );
    assert_eq!(status, 200);
    assert!(
        matches!(v.get("audit").and_then(|a| a.get("passed")), Some(Json::Bool(true))),
        "{v:?}"
    );
    server.shutdown();
}

#[test]
fn control_endpoints_answer_under_load() {
    let server = start(1, 1);
    let addr = server.addr();
    // Saturate: one in-flight stall + full queue.
    let h = std::thread::spawn(move || {
        exchange(addr, "POST", "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"stall\"}")
    });
    std::thread::sleep(Duration::from_millis(100));
    let _ = std::thread::spawn(move || {
        exchange(addr, "POST", "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"stall\"}")
    });
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = exchange(addr, "GET", "/healthz", &[], "").expect("healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = exchange(addr, "GET", "/readyz", &[], "").expect("readyz");
    assert_eq!(status, 503, "saturated server must report not-ready: {body}");
    assert!(body.contains("\"ready\":false"), "{body}");
    let (status, body) = exchange(addr, "GET", "/metrics", &[], "").expect("metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"service\""), "{body}");
    let _ = h.join();
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = start(1, 4);
    let addr = server.addr();
    // Two stalls: one in flight, one queued.
    let clients: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                exchange(addr, "POST", "/dispatch", &[], "{\"case\":\"three_bus\",\"chaos\":\"stall\"}")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    // Graceful shutdown must not abandon them.
    server.shutdown();
    for c in clients {
        let (status, body) = c.join().expect("client thread").expect("drained answer");
        assert_eq!(status, 200, "queued request must be answered during drain: {body}");
    }
}

#[test]
fn idle_server_on_an_unspecified_address_shuts_down() {
    // `shutdown` must return promptly for a listener bound to an
    // unspecified address. Run on a helper thread so a shutdown that never
    // returns fails here instead of hanging the suite.
    let server = Server::start(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("test server failed to bind");
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || done.send(server.shutdown()));
    let drained = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown of an idle server did not return within 5 s");
    helper.join().expect("shutdown thread").expect("result sent");
    assert_eq!(drained, 0, "an idle server has nothing queued");
}
