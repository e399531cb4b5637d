//! Scalability demo (Section IV-B): run Algorithm 1 on the 118-bus-class
//! network with quadratic costs, comparing the heuristic and the exact
//! MPEC bilevel solver on a single snapshot.
//!
//! The exact sweep runs one branch-and-bound node per subproblem, the node
//! limit of `tests/paper_regression.rs`: larger limits give the same
//! violations on this case, all unproved, at many times the wall clock.
//! Its values are certified KKT points, not proved optima, so the example
//! prints how many subproblems are certified and how many are proved.
//!
//! Run with `cargo run --release --example ieee118_attack`.

use ed_security::core::attack::{optimal_attack_with, AttackConfig, BilevelOptions};
use ed_security::core::dispatch::DcOpf;
use ed_security::powerflow::dc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = ed_security::cases::ieee118_like();
    println!(
        "118-bus-class system: {} buses, {} lines, {} generators, {:.0} MW demand",
        net.num_buses(),
        net.num_lines(),
        net.num_gens(),
        net.total_demand_mw()
    );

    // Pick the most-loaded lines under a proportional dispatch as the
    // DLR-equipped set (DLR goes to congestion-prone lines).
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = dc::solve(&net, &net.injections_mw(&prop))?.flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dlr_lines: Vec<_> = loading.iter().take(3).map(|&(i, _)| ed_security::powerflow::LineId(i)).collect();
    println!(
        "DLR lines (most congestion-prone): {:?}",
        dlr_lines.iter().map(|l| l.0).collect::<Vec<_>>()
    );

    // True DLRs sit at the static rating; manipulations allowed +-
    let u_d: Vec<f64> = dlr_lines.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = u_d.iter().map(|u| 0.8 * u).collect();
    let hi: Vec<f64> = u_d.iter().map(|u| 1.6 * u).collect();
    let config = AttackConfig::new(dlr_lines)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .solver_options(BilevelOptions { node_limit: 1, ..Default::default() });

    // Baseline honest dispatch.
    let honest = DcOpf::new(&net).solve()?;
    println!("honest dispatch cost: {:.0} $/h", honest.cost);

    let t0 = Instant::now();
    let heur = optimal_attack_with(&net, &config, false)?;
    let t_heur = t0.elapsed();
    println!(
        "\nheuristic attack:  {:.2}% violation in {:.2?} ({} (line, direction) records via corner sweep)",
        heur.ucap_pct, t_heur, heur.subproblems.len()
    );

    let t1 = Instant::now();
    let exact = optimal_attack_with(&net, &config, true)?;
    let t_exact = t1.elapsed();
    println!(
        "exact (MPEC) attack: {:.2}% violation in {:.2?} ({} B&B nodes over {} subproblems)",
        exact.ucap_pct,
        t_exact,
        exact.total_nodes,
        exact.subproblems.len()
    );
    let proved = exact.subproblems.iter().filter(|s| s.proved_optimal).count();
    println!(
        "  {} of {} subproblems certified, {proved} proved optimal",
        exact.sweep.certified,
        exact.subproblems.len()
    );
    assert!(exact.ucap_pct >= heur.ucap_pct - 1e-6);
    println!(
        "\nbest certified manipulation u^a = {:?}",
        exact.ua_mw.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
    Ok(())
}
