//! DC-OPF answer pins.
//!
//! Every dispatch entry point is run on the shipped cases and everything it
//! returns is hashed bit for bit with `fnv1a`:
//!
//! - `DcOpf::solve` for `Auto`, `Angle` and `Ptdf`;
//! - `DcOpf::solve_certified`, with its trust and repair count;
//! - a fresh `ResilientDispatcher` under an unlimited budget and under
//!   iteration caps of 0 and 3, with its rung and degradation reasons;
//! - `case300_like` through the ladder, the largest input, which the
//!   active-set rung answers with the dual method.
//!
//! The three small cases and `ieee118_like` run at static and 0.8× static
//! ratings. A dispatch hashes the `to_bits()` of `p_mw`, `flows_mw`,
//! `theta_rad`, `cost` and `lmp`; an error hashes its `Debug` text. Each
//! expected value carries a comment saying what the run returned.
//!
//! These runs are deterministic. Refactors of the dispatch model builder
//! or the fallback ladder must leave every pinned value unchanged.

use ed_security::cases;
use ed_security::core::dispatch::{DcOpf, Dispatch, Formulation, ResilientDispatcher};
use ed_security::core::CoreError;
use ed_security::optim::SolveBudget;
use ed_security::powerflow::{fnv1a, Network};

/// The shipped cases, by label.
fn all_cases() -> Vec<(&'static str, Network)> {
    let quadratic = cases::ThreeBusConfig {
        quadratic: true,
        ..Default::default()
    };
    vec![
        ("three_bus", cases::three_bus()),
        ("three_bus_quadratic", cases::three_bus_with(&quadratic)),
        ("six_bus", cases::six_bus()),
        ("ieee118_like", cases::ieee118_like()),
    ]
}

/// Static ratings and the same ratings scaled by 0.8, by label.
fn ratings(net: &Network) -> [(&'static str, Vec<f64>); 2] {
    let base = net.static_ratings_mva();
    let tight = base.iter().map(|u| 0.8 * u).collect();
    [("static", base), ("0.8x", tight)]
}

/// The bytes of every number a dispatch reports.
fn dispatch_bytes(d: &Dispatch, out: &mut Vec<u8>) {
    let cost = [d.cost];
    for v in [&d.p_mw[..], &d.flows_mw, &d.theta_rad, &cost, &d.lmp] {
        for x in v {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// One pinned run: the hash, and a short summary of what it returned that
/// the printed table carries as a comment.
type Pin = (u64, String);

fn error_pin(e: &CoreError) -> Pin {
    let text = format!("error {e:?}");
    (fnv1a(text.clone().into_bytes()), text)
}

fn solve_pin(r: Result<Dispatch, CoreError>) -> Pin {
    match r {
        Ok(d) => {
            let mut bytes = Vec::new();
            dispatch_bytes(&d, &mut bytes);
            (fnv1a(bytes), "ok".to_string())
        }
        Err(e) => error_pin(&e),
    }
}

fn certified_pin(problem: &DcOpf<'_>) -> Pin {
    match problem.solve_certified(&SolveBudget::unlimited()) {
        Ok(c) => {
            let text = format!("trust {:?} repairs {}", c.trust, c.repairs.len());
            let mut bytes = text.clone().into_bytes();
            if let Some(d) = &c.dispatch {
                dispatch_bytes(d, &mut bytes);
            }
            (fnv1a(bytes), text)
        }
        Err(e) => error_pin(&e),
    }
}

fn ladder_pin(net: &Network, ratings_mw: &[f64], budget: &SolveBudget) -> Pin {
    let demand = net.demand_vector_mw();
    match ResilientDispatcher::new().dispatch(net, &demand, ratings_mw, budget) {
        Ok(r) => {
            let mut bytes =
                format!("rung {:?} degradations {:?}", r.rung, r.degradations).into_bytes();
            dispatch_bytes(&r.dispatch, &mut bytes);
            let text = format!("{:?}, {} degradations", r.rung, r.degradations.len());
            (fnv1a(bytes), text)
        }
        Err(e) => error_pin(&e),
    }
}

/// Compares every computed pin with its expected hash. On any difference
/// it prints this run's whole table, marking each moved pin.
fn assert_pins(got: &[(String, Pin)], expected: &[(&str, u64)]) {
    let pinned = |l: &str, h: u64| expected.contains(&(l, h));
    let table: String = got
        .iter()
        .map(|(l, (h, text))| {
            let mark = if pinned(l, *h) { "" } else { " MOVED" };
            format!("    (\"{l}\", {h:#018x}), // {text}{mark}\n")
        })
        .collect();
    let same = got.len() == expected.len() && got.iter().all(|(l, (h, _))| pinned(l, *h));
    assert!(same, "pins moved; this run's values:\n{table}");
}

#[test]
fn dcopf_solve_bits() {
    let mut got = Vec::new();
    for (case, net) in all_cases() {
        for (rating, u) in ratings(&net) {
            for (form, f) in [
                ("auto", Formulation::Auto),
                ("angle", Formulation::Angle),
                ("ptdf", Formulation::Ptdf),
            ] {
                let r = DcOpf::new(&net).ratings(&u).formulation(f).solve();
                got.push((format!("{case}/{rating}/{form}"), solve_pin(r)));
            }
        }
    }
    assert_pins(&got, DCOPF_SOLVE);
}

#[test]
fn solve_certified_bits() {
    let mut got = Vec::new();
    for (case, net) in all_cases() {
        for (rating, u) in ratings(&net) {
            got.push((
                format!("{case}/{rating}"),
                certified_pin(&DcOpf::new(&net).ratings(&u)),
            ));
        }
    }
    assert_pins(&got, SOLVE_CERTIFIED);
}

#[test]
fn ladder_bits() {
    let mut got = Vec::new();
    for (case, net) in all_cases() {
        for (rating, u) in ratings(&net) {
            for (budget_label, budget) in [
                ("unlimited", SolveBudget::unlimited()),
                ("iter0", SolveBudget::unlimited().max_iterations(0)),
                ("iter3", SolveBudget::unlimited().max_iterations(3)),
            ] {
                got.push((
                    format!("{case}/{rating}/{budget_label}"),
                    ladder_pin(&net, &u, &budget),
                ));
            }
        }
    }
    assert_pins(&got, LADDER);
}

#[test]
fn case300_ladder_bits() {
    let net = cases::case300_like();
    let pin = ladder_pin(&net, &net.static_ratings_mva(), &SolveBudget::unlimited());
    assert_pins(
        &[("case300_like/static/unlimited".to_string(), pin)],
        CASE300_LADDER,
    );
}

const DCOPF_SOLVE: &[(&str, u64)] = &[
    ("three_bus/static/auto", 0x44b8dfeffc556711),  // ok
    ("three_bus/static/angle", 0x44b8dfeffc556711), // ok
    ("three_bus/static/ptdf", 0x44b8dfeffc556711),  // ok
    ("three_bus/0.8x/auto", 0x8d67769b3b2843a3),    // error DispatchInfeasible
    ("three_bus/0.8x/angle", 0x8d67769b3b2843a3),   // error DispatchInfeasible
    ("three_bus/0.8x/ptdf", 0x8d67769b3b2843a3),    // error DispatchInfeasible
    ("three_bus_quadratic/static/auto", 0xc5ca6fe3d7723dba), // ok
    ("three_bus_quadratic/static/angle", 0xc5ca6fe3d7723dba), // ok
    ("three_bus_quadratic/static/ptdf", 0xd47073721018c085), // ok
    ("three_bus_quadratic/0.8x/auto", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("three_bus_quadratic/0.8x/angle", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("three_bus_quadratic/0.8x/ptdf", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("six_bus/static/auto", 0x09f3e11bd3657e03),    // ok
    ("six_bus/static/angle", 0x09f3e11bd3657e03),   // ok
    ("six_bus/static/ptdf", 0x67f4a5ca182143d9),    // ok
    ("six_bus/0.8x/auto", 0x09f3e11bd3657e03),      // ok
    ("six_bus/0.8x/angle", 0x09f3e11bd3657e03),     // ok
    ("six_bus/0.8x/ptdf", 0x67f4a5ca182143d9),      // ok
    ("ieee118_like/static/auto", 0xf1aa31912f763109), // ok
    ("ieee118_like/static/angle", 0x6c1e629cd3dbae07), // ok
    ("ieee118_like/static/ptdf", 0xf1aa31912f763109), // ok
    ("ieee118_like/0.8x/auto", 0x54e6f8b8676262c7), // ok
    ("ieee118_like/0.8x/angle", 0x7e04d749f879055f), // ok
    ("ieee118_like/0.8x/ptdf", 0x54e6f8b8676262c7), // ok
];

const SOLVE_CERTIFIED: &[(&str, u64)] = &[
    ("three_bus/static", 0x6505a344c6f4cfb6), // trust Certified repairs 0
    ("three_bus/0.8x", 0x8d67769b3b2843a3),   // error DispatchInfeasible
    ("three_bus_quadratic/static", 0x0c255426d76e539e), // trust Certified repairs 0
    ("three_bus_quadratic/0.8x", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("six_bus/static", 0xc46b04a75ffac0a6),   // trust Certified repairs 0
    ("six_bus/0.8x", 0xc46b04a75ffac0a6),     // trust Certified repairs 0
    ("ieee118_like/static", 0x39c49e20284dddf3), // trust Certified repairs 0
    ("ieee118_like/0.8x", 0x0c217f7db763249a), // trust Certified repairs 0
];

const LADDER: &[(&str, u64)] = &[
    ("three_bus/static/unlimited", 0x2a7a7a1e016bb30e), // LpApprox, 0 degradations
    ("three_bus/static/iter0", 0xc21ac932ad60336e),     // error BudgetExhausted(Iterations)
    ("three_bus/static/iter3", 0xc21ac932ad60336e),     // error BudgetExhausted(Iterations)
    ("three_bus/0.8x/unlimited", 0x8d67769b3b2843a3),   // error DispatchInfeasible
    ("three_bus/0.8x/iter0", 0xc21ac932ad60336e),       // error BudgetExhausted(Iterations)
    ("three_bus/0.8x/iter3", 0xc21ac932ad60336e),       // error BudgetExhausted(Iterations)
    ("three_bus_quadratic/static/unlimited", 0x1d5bdc3c2dc6be4c), // ActiveSetQp, 0 degradations
    ("three_bus_quadratic/static/iter0", 0xea37c4fcd3c88e75), // ActiveSetQp, 1 degradations
    ("three_bus_quadratic/static/iter3", 0x1d5bdc3c2dc6be4c), // ActiveSetQp, 0 degradations
    ("three_bus_quadratic/0.8x/unlimited", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("three_bus_quadratic/0.8x/iter0", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("three_bus_quadratic/0.8x/iter3", 0x8d67769b3b2843a3), // error DispatchInfeasible
    ("six_bus/static/unlimited", 0xf7305211b455ce71),   // ActiveSetQp, 0 degradations
    ("six_bus/static/iter0", 0xc6a7c1cf26f69735),       // ActiveSetQp, 1 degradations
    ("six_bus/static/iter3", 0xf7305211b455ce71),       // ActiveSetQp, 0 degradations
    ("six_bus/0.8x/unlimited", 0xf7305211b455ce71),     // ActiveSetQp, 0 degradations
    ("six_bus/0.8x/iter0", 0xc6a7c1cf26f69735),         // ActiveSetQp, 1 degradations
    ("six_bus/0.8x/iter3", 0xf7305211b455ce71),         // ActiveSetQp, 0 degradations
    ("ieee118_like/static/unlimited", 0xe78b9d1536f9c5d7), // ActiveSetQp, 0 degradations
    ("ieee118_like/static/iter0", 0x40e2673f2a7338b4),  // ActiveSetQp, 1 degradations
    ("ieee118_like/static/iter3", 0x38c4a9b05dcb5bfc),  // ActiveSetQp, 1 degradations
    ("ieee118_like/0.8x/unlimited", 0x4d67b8a2a320957d), // ActiveSetQp, 0 degradations
    ("ieee118_like/0.8x/iter0", 0x2b955710bf9b8b63),    // ActiveSetQp, 1 degradations
    ("ieee118_like/0.8x/iter3", 0x2c0f4ede0d060f04),    // ActiveSetQp, 1 degradations
];

const CASE300_LADDER: &[(&str, u64)] = &[
    ("case300_like/static/unlimited", 0xee27929b98a5577c), // ActiveSetQp, 0 degradations
];
