//! Repeat `/sweep`s of one scenario: the first fully certified sweep pools
//! its seed basis under the scenario fingerprint, the second starts from
//! that seed, and both answer byte-identically.

use ed_core::attack::AttackConfig;
use ed_core::pool::{scenario_fingerprint, SolutionPool};
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
fn repeat_sweep_starts_from_the_pooled_seed_and_answers_identically() {
    let state = AppState {
        cache: WarmCache::new(),
        cfg: ServerConfig::default(),
    };
    // The scenario serve builds from BODY: the case's canonical DLR lines
    // and its own demand vector.
    let net = ed_cases::three_bus();
    let config = AttackConfig::new(ed_cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0])
        .demand(net.demand_vector_mw());
    let key = scenario_fingerprint(&net, &config);
    let pool = SolutionPool::global();
    assert!(pool.lookup(key).is_none(), "no sweep has run yet");

    let (first_body, first) = sweep(&state);
    let sweep_counts = first.get("sweep").expect("sweep accounting");
    assert_eq!(
        sweep_counts.get("uncertified").and_then(Json::as_f64),
        Some(0.0),
        "{first_body}"
    );
    let pooled = pool.lookup(key);
    assert_eq!(
        pooled.is_some(),
        SolutionPool::enabled(),
        "a fully certified sweep pools its seed exactly when pooling is on"
    );

    let (second_body, second) = sweep(&state);
    for field in ["ucap_pct", "ua_mw", "target"] {
        let (a, b) = (first.get(field), second.get(field));
        assert!(a.is_some(), "{field} missing: {first_body}");
        assert_eq!(
            a, b,
            "{field} differs between the cold and the pooled-seed sweep"
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

    // The second sweep kept the pooled seed (an accepted offer is
    // returned unchanged) and deposited it again under the same key.
    if let Some(seed) = pooled {
        let again = pool
            .lookup(key)
            .expect("the repeat sweep kept its pool entry");
        assert_eq!(
            again.basis, seed.basis,
            "the repeat sweep replaced the pooled seed"
        );
        assert_eq!(again.network, seed.network);
    } else {
        assert!(
            pool.lookup(key).is_none(),
            "ED_POOL=0 must leave the pool empty"
        );
    }
}
