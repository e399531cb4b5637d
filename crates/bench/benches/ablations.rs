//! Ablation benchmarks for the design choices called out in DESIGN.md §7:
//!
//! - big-M KKT MILP (the paper's reformulation) vs complementarity
//!   branching (MPEC);
//! - heuristic incumbent seeding on vs off;
//! - angle vs PTDF dispatch formulation;
//! - Dantzig vs Bland simplex pricing;
//! - the active-set QP on a congested 118-bus dispatch (`solvers.rs`'s
//!   `qp_dispatch` times it against the interior-point method on
//!   synthetic dispatch QPs).

use ed_bench::crit::Criterion;
use ed_bench::{criterion_group, criterion_main};
use ed_core::attack::{optimal_attack, AttackConfig, BilevelOptions, BilevelSolver};
use ed_core::dispatch::{DcOpf, Formulation};
use ed_optim::lp::{Pricing, SimplexOptions};
use std::hint::black_box;

fn cfg(solver: BilevelSolver, use_heuristic: bool) -> AttackConfig {
    AttackConfig::new(ed_cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0])
        .solver_options(BilevelOptions {
            solver,
            node_limit: 100_000,
            use_heuristic,
            ..Default::default()
        })
}

fn ablation_bigm_vs_mpec(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bigm_vs_mpec");
    g.sample_size(10);
    let net = ed_cases::three_bus();
    g.bench_function("bigm", |b| {
        let config = cfg(BilevelSolver::BigM { big_m: 1e5 }, true);
        b.iter(|| black_box(optimal_attack(&net, &config).unwrap()))
    });
    g.bench_function("mpec", |b| {
        let config = cfg(BilevelSolver::Mpec, true);
        b.iter(|| black_box(optimal_attack(&net, &config).unwrap()))
    });
    g.finish();
}

fn ablation_incumbent(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_incumbent");
    g.sample_size(10);
    let net = ed_cases::three_bus();
    g.bench_function("with_heuristic", |b| {
        let config = cfg(BilevelSolver::Mpec, true);
        b.iter(|| black_box(optimal_attack(&net, &config).unwrap()))
    });
    g.bench_function("without_heuristic", |b| {
        let config = cfg(BilevelSolver::Mpec, false);
        b.iter(|| black_box(optimal_attack(&net, &config).unwrap()))
    });
    g.finish();
}

fn ablation_formulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_formulation");
    g.sample_size(10);
    let net = ed_cases::ieee118_like();
    for (name, f) in [("angle", Formulation::Angle), ("ptdf", Formulation::Ptdf)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(DcOpf::new(&net).formulation(f).solve().unwrap()))
        });
    }
    g.finish();
}

fn ablation_pricing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pricing");
    g.sample_size(10);
    // A mid-size LP: the six-bus dispatch in LP (linear-cost) form.
    let net = ed_cases::six_bus();
    // Linear-cost clone of the six-bus system.
    use ed_powerflow::{CostCurve, NetworkBuilder};
    let mut builder = NetworkBuilder::new(net.base_mva());
    let mut ids = vec![];
    for bus in net.buses() {
        ids.push(builder.add_bus(&bus.name, bus.kind, bus.demand_mw));
    }
    for l in net.lines() {
        builder.add_line(ids[l.from.0], ids[l.to.0], l.resistance_pu, l.reactance_pu, l.rating_mva);
    }
    for gen in net.gens() {
        builder.add_gen(ids[gen.bus.0], gen.pmin_mw, gen.pmax_mw, CostCurve::linear(gen.cost.b));
    }
    let linear_net = builder.build().unwrap();
    let _ = &net;
    for (name, pricing) in [("dantzig", Pricing::Dantzig), ("bland", Pricing::Bland)] {
        g.bench_function(name, |b| {
            // Route pricing through the LP path by rebuilding the problem
            // directly (DcOpf does not expose simplex options; measure the
            // raw LP instead).
            use ed_optim::lp::Row;
            let mut lp = ed_optim::Model::minimize();
            let base = linear_net.base_mva();
            let p: Vec<_> = linear_net
                .gens()
                .iter()
                .map(|gen| lp.add_var(gen.pmin_mw, gen.pmax_mw, gen.cost.b))
                .collect();
            let th: Vec<_> = (0..linear_net.num_buses())
                .map(|_| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
                .collect();
            let mut rows: Vec<Row> =
                linear_net.buses().iter().map(|bus| Row::eq(bus.demand_mw)).collect();
            for l in linear_net.lines() {
                let w = base * l.susceptance_pu();
                let (f, t) = (l.from.0, l.to.0);
                rows[f] = std::mem::replace(&mut rows[f], Row::eq(0.0))
                    .coef(th[f], -w)
                    .coef(th[t], w);
                rows[t] = std::mem::replace(&mut rows[t], Row::eq(0.0))
                    .coef(th[t], -w)
                    .coef(th[f], w);
            }
            for (gi, gen) in linear_net.gens().iter().enumerate() {
                let bus = gen.bus.0;
                rows[bus] = std::mem::replace(&mut rows[bus], Row::eq(0.0)).coef(p[gi], 1.0);
            }
            for row in rows {
                lp.add_row(row);
            }
            lp.add_row(Row::eq(0.0).coef(th[linear_net.slack().0], 1.0));
            for (l, line) in linear_net.lines().iter().enumerate() {
                let w = base * line.susceptance_pu();
                let (f, t) = (line.from.0, line.to.0);
                let _ = l;
                lp.add_row(Row::le(line.rating_mva).coef(th[f], w).coef(th[t], -w));
                lp.add_row(Row::le(line.rating_mva).coef(th[f], -w).coef(th[t], w));
            }
            let opts = SimplexOptions { pricing, ..Default::default() };
            b.iter(|| black_box(lp.solve_with(&opts).unwrap()))
        });
    }
    g.finish();
}

fn ablation_qp_method(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_qp_method");
    g.sample_size(10);
    let net = ed_cases::ieee118_like();
    // A congested instance (ratings at 0.9×): the PTDF-form dispatch,
    // answered by the dual active-set method.
    let mut ratings = net.static_ratings_mva();
    for r in ratings.iter_mut() {
        *r *= 0.9;
    }
    g.bench_function("active_set", |b| {
        b.iter(|| black_box(DcOpf::new(&net).ratings(&ratings).solve()))
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_bigm_vs_mpec,
    ablation_incumbent,
    ablation_formulation,
    ablation_pricing,
    ablation_qp_method
);
criterion_main!(benches);
