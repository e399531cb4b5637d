//! `--compare A B`: two sets of untraced runs, judged against the bounds
//! in `BENCHMARK.json`.
//!
//! For each (workload, end-to-end metric) it prints each set's median and
//! quartiles, the change of B's median against A's, and a verdict:
//! `REGRESSION` when B is worse by more than the bound, `UNRESOLVED` when
//! either set's quartile spread is wider than the bound (unless every B
//! run beats every A run), `ok` otherwise.

use crate::spec::spec;
use ed_serve::json::{self, Json};
use std::collections::BTreeMap;

/// Values per (workload, metric) of the untraced runs in a results file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if record.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let Some(Json::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: record without result metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison; returns whether any metric regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}, B = {b_path}; median [q1, q3] per set, change of B against A");
    println!(
        "{:<11} {:<17} {:>5} {:>32} {:>32} {:>8}  verdict",
        "workload", "metric", "bound", "A", "B", "change"
    );
    let mut regressed = false;
    for w in &spec().workloads {
        for m in &spec().end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(xa), quartiles(xb));
            let bound = m.bound.unwrap_or(0.0);
            let change = qb.1 / qa.1 - 1.0;
            let worse = if m.higher_is_better { -change } else { change };
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1;
            let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
            let all_better = xb.iter().all(|&vb| xa.iter().all(|&va| better(vb, va)));
            // Set-up time is judged on its median only.
            let wide = m.name != "setup_s" && (spread(qa) > bound || spread(qb) > bound);
            let verdict = if worse > bound {
                regressed = true;
                "REGRESSION"
            } else if wide && !all_better {
                "UNRESOLVED"
            } else {
                "ok"
            };
            let fmt =
                |q: (f64, f64, f64), n: usize| format!("{:.4} [{:.4}, {:.4}] n={n}", q.1, q.0, q.2);
            println!(
                "{w:<11} {:<17} {:>5} {:>32} {:>32} {:>+7.2}%  {verdict} (spread A {:.1}%, B {:.1}%)",
                m.name,
                format!("{:.0}%", 100.0 * bound),
                fmt(qa, xa.len()),
                fmt(qb, xb.len()),
                100.0 * change,
                100.0 * spread(qa),
                100.0 * spread(qb),
            );
        }
    }
    Ok(regressed)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so spreads printed here match an independent check.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
