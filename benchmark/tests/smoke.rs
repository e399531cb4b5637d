//! Smoke test: every workload at `--smoke` size (a 3-bus sweep, a 6-bus
//! 2-hour chain, a 1-step atlas, 40 serve requests), untraced and traced.
//! Every contract metric must be printed with its unit for every workload,
//! every answer check must hold, and the single-run result line must have
//! the contract's shape.

use ed_serve::json::{self, Json};
use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ed-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("ed-benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "ed-benchmark {args:?} failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn metrics(section: &str) -> Vec<(String, String)> {
    let spec = json::parse(SPEC).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("no {section} in BENCHMARK.json")
    };
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .expect("string field")
            .to_string()
    };
    items
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit_and_every_check_passes() {
    let workloads = ["sweep118", "chain118", "atlas_grid", "serve_mix"];
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&["--smoke", "--trace", trace]);
        for w in workloads {
            assert!(
                stdout.contains(&format!("# {w} seed 20170626: correct true")),
                "{stdout}"
            );
            for (name, unit) in metrics(section) {
                let printed = stdout.lines().any(|l| {
                    let f: Vec<&str> = l.split(' ').collect();
                    f.len() == 4
                        && f[0] == w
                        && f[1] == name
                        && f[2].parse::<f64>().is_ok()
                        && f[3] == unit
                });
                assert!(
                    printed,
                    "{w} did not print `{name} <value> {unit}`:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn single_run_ends_with_the_result_line() {
    let stdout = run(&["--smoke", "--workload", "serve_mix", "--seed", "7"]);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(
        last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{last}"
    );
}
