//! `/atlas` endpoint tests: the sweep journal's quarantine verdicts must
//! flow back into the warm cache (evicting only the pooled sweep seeds of
//! the quarantined case), and an unconfigured or unreadable journal must
//! be a typed refusal — never a guessed answer.

use ed_atlas::Journal;
use ed_serve::chaos::exchange;
use ed_serve::handlers::ServerConfig;
use ed_serve::json::{self, Json};
use ed_serve::Server;
use std::path::PathBuf;

fn start(atlas_journal: Option<String>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 4,
        default_deadline_ms: 2_000,
        allow_chaos: false,
        atlas_journal,
    })
    .expect("test server failed to bind")
}

fn get_atlas(server: &Server) -> (u16, Json) {
    let (status, body) = exchange(server.addr(), "GET", "/atlas", &[], "").expect("transport");
    let parsed = json::parse(&body).unwrap_or_else(|e| panic!("non-JSON body ({e}): {body}"));
    (status, parsed)
}

fn str_array(v: &Json, key: &str) -> Vec<String> {
    match v.get(key) {
        Some(Json::Arr(items)) => {
            items.iter().filter_map(|j| j.as_str().map(str::to_string)).collect()
        }
        other => panic!("{key} missing or not an array: {other:?}"),
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ed-serve-atlas-{}-{tag}.journal", std::process::id()))
}

#[test]
fn unconfigured_atlas_is_a_typed_refusal() {
    let server = start(None);
    let (status, v) = get_atlas(&server);
    assert_eq!(status, 404, "{v:?}");
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("atlas_not_configured"));
    server.shutdown();
}

#[test]
fn unreadable_journal_is_a_typed_refusal_not_a_guess() {
    let server = start(Some("/nonexistent/atlas.journal".to_string()));
    let (status, v) = get_atlas(&server);
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("atlas_journal_unreadable"));
    server.shutdown();
}

#[test]
fn quarantine_events_evict_the_matching_sweep_basis() {
    use ed_core::pool::{PoolEntry, SolutionPool};
    use ed_optim::lp::{Basis, BasisStatus};
    use ed_powerflow::network_fingerprint;

    // A journal recording a quarantined cell on three_bus.
    let path = temp_journal("evict");
    let j = Journal::create(&path, "deadbeef00000000", 6).unwrap();
    j.claim(0).unwrap();
    j.result(0, "{\"cell\":0,\"outcome\":\"completed\"}").unwrap();
    j.claim(2).unwrap();
    j.result(2, "{\"cell\":2,\"outcome\":\"quarantined\",\"fault\":\"panic\"}").unwrap();
    j.quarantine(2, "three_bus").unwrap();
    drop(j);

    let server = start(Some(path.to_str().unwrap().to_string()));
    // Warm two cases with pooled sweep seeds; only the quarantined case's
    // seed may be evicted.
    let pool = SolutionPool::global();
    let basis = Basis { statuses: vec![BasisStatus::Basic], art_rows: Vec::new() };
    let tainted = server.state.cache.entry("three_bus").unwrap();
    let network = network_fingerprint(&tainted.net);
    pool.store(7, PoolEntry { basis: basis.clone(), network });
    let healthy = server.state.cache.entry("six_bus").unwrap();
    pool.store(9, PoolEntry { basis, network: network_fingerprint(&healthy.net) });
    // With ED_POOL=0 nothing was pooled, so nothing can be evicted.
    let pooling = SolutionPool::enabled();

    let (status, v) = get_atlas(&server);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("completed").and_then(Json::as_f64), Some(2.0));
    assert_eq!(v.get("quarantine_events").and_then(Json::as_f64), Some(1.0));
    let evicted = str_array(&v, "evicted_bases");
    let expected: Vec<String> = if pooling { vec!["three_bus".to_string()] } else { Vec::new() };
    assert_eq!(evicted, expected, "{v:?}");
    assert_eq!(str_array(&v, "quarantined_cases"), vec!["three_bus".to_string()]);

    assert!(pool.lookup(7).is_none(), "quarantined case must lose its pooled sweep seed");
    assert_eq!(
        pool.lookup(9).is_some(),
        pooling,
        "unquarantined case must keep its pooled sweep seed"
    );
    // Both entries stay warm — only the seed is tainted.
    assert_eq!(server.state.cache.len(), 2);

    // A second poll has nothing left to evict: idempotent.
    let (status, v) = get_atlas(&server);
    assert_eq!(status, 200);
    assert!(str_array(&v, "evicted_bases").is_empty(), "{v:?}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
