//! Repeat `/sweep`s of one scenario: each computes its own seed, and both
//! answer byte-identically.

use ed_serve::cache::WarmCache;
use ed_serve::handlers::{handle_work, AppState, ServerConfig};
use ed_serve::http::Request;
use ed_serve::json::{self, Json};
use std::time::{Duration, Instant};

const BODY: &str = "{\"case\":\"three_bus\",\"bounds\":[100,200],\"true_ratings\":[130,120]}";

/// One `/sweep` of [`BODY`] through the handler, without HTTP or queue.
fn sweep(state: &AppState) -> (String, Json) {
    let req = Request {
        method: "POST".to_string(),
        path: "/sweep".to_string(),
        headers: Vec::new(),
        body: BODY.as_bytes().to_vec(),
    };
    let resp = handle_work(state, &req, Instant::now() + Duration::from_secs(60));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed =
        json::parse(&resp.body).unwrap_or_else(|e| panic!("non-JSON ({e}): {}", resp.body));
    (resp.body, parsed)
}

#[test]
fn repeat_sweeps_answer_byte_identically() {
    let state = AppState {
        cache: WarmCache::new(),
        cfg: ServerConfig::default(),
    };
    let (first_body, first) = sweep(&state);
    let sweep_counts = first.get("sweep").expect("sweep accounting");
    assert_eq!(
        sweep_counts.get("uncertified").and_then(Json::as_f64),
        Some(0.0),
        "{first_body}"
    );

    let (second_body, second) = sweep(&state);
    for field in ["ucap_pct", "ua_mw", "target"] {
        let (a, b) = (first.get(field), second.get(field));
        assert!(a.is_some(), "{field} missing: {first_body}");
        assert_eq!(
            a, b,
            "{field} differs between the first and the repeat sweep"
        );
    }
    // Byte-identical too: everything before the sweep accounting (status,
    // ucap_pct, overload_mw, ua_mw, target) is the same text.
    let answer = |body: &str| {
        body.split_once(",\"subproblems\":")
            .expect("sweep body")
            .0
            .to_string()
    };
    assert_eq!(answer(&first_body), answer(&second_body));
}
