//! `/atlas` endpoint tests: a configured journal's recovery state is
//! reported as read, without touching the warm cache, and an unconfigured
//! or unreadable journal is a typed refusal — never a guessed answer.

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
fn atlas_reports_the_journal_and_leaves_the_warm_cache_alone() {
    // A journal recording a quarantined cell on three_bus.
    let path = temp_journal("report");
    let j = Journal::create(&path, "deadbeef00000000", 6).unwrap();
    j.claim(0).unwrap();
    j.result(0, "{\"cell\":0,\"outcome\":\"completed\"}").unwrap();
    j.claim(2).unwrap();
    j.result(2, "{\"cell\":2,\"outcome\":\"quarantined\",\"fault\":\"panic\"}").unwrap();
    j.quarantine(2, "three_bus").unwrap();
    drop(j);

    let server = start(Some(path.to_str().unwrap().to_string()));
    // Warm the quarantined case and a healthy one.
    server.state.cache.entry("three_bus").unwrap();
    server.state.cache.entry("six_bus").unwrap();

    let (status, v) = get_atlas(&server);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("completed").and_then(Json::as_f64), Some(2.0));
    assert_eq!(v.get("quarantine_events").and_then(Json::as_f64), Some(1.0));
    assert_eq!(str_array(&v, "quarantined_cases"), vec!["three_bus".to_string()]);
    // The report is the journal's state and nothing else: no eviction list.
    let Json::Obj(fields) = &v else { panic!("not an object: {v:?}") };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "cells",
            "completed",
            "in_flight",
            "journal",
            "quarantine_events",
            "quarantined_cases",
            "spec_fingerprint",
            "status",
            "torn_lines",
        ],
        "{v:?}"
    );
    // Both cases stay warm: a quarantine implicates no cached state.
    assert_eq!(server.state.cache.len(), 2);

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
