//! Microbenchmarks for the optimization substrate: LP simplex, QP
//! (active-set and interior-point), and branch and bound on integrality
//! marks (MILP) and on complementarity pairs (MPEC).

use ed_bench::crit::{BenchmarkId, Criterion};
use ed_bench::{criterion_group, criterion_main};
use ed_optim::branch_bound::{self, BranchOptions};
use ed_optim::lp::Row;
use ed_optim::{ActiveSetSolver, IpmSolver, Model, SolveBudget, Solver};
use std::hint::black_box;

/// A dense-ish random LP with `n` variables and `n` rows (seeded LCG).
fn random_lp(n: usize, seed: u64) -> Model {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut lp = Model::minimize();
    let vars: Vec<_> = (0..n).map(|_| lp.add_var(0.0, 10.0, next().abs() + 0.1)).collect();
    for _ in 0..n {
        let mut row = Row::ge(next().abs() * 2.0);
        for &v in vars.iter().take(8) {
            row = row.coef(v, next().abs() + 0.05);
        }
        lp.add_row(row);
    }
    lp
}

fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_simplex");
    g.sample_size(20);
    for n in [20usize, 60, 120, 240] {
        let lp = random_lp(n, 0xBEEF ^ n as u64);
        g.bench_with_input(BenchmarkId::from_parameter(n), &lp, |b, lp| {
            b.iter(|| black_box(lp.solve().unwrap()))
        });
    }
    g.finish();
}

/// Economic-dispatch-shaped QP with `n` generators.
fn dispatch_qp(n: usize) -> Model {
    let mut qp = Model::minimize();
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let v = qp.add_var(0.0, 120.0, 10.0 + (i % 7) as f64);
            qp.add_quad(v, v, 0.004 + 0.0002 * (i % 10) as f64);
            v
        })
        .collect();
    qp.add_row(Row::eq(80.0 * n as f64).coefs(vars.into_iter().map(|v| (v, 1.0))));
    qp
}

fn bench_qp(c: &mut Criterion) {
    let mut g = c.benchmark_group("qp_dispatch");
    g.sample_size(20);
    for n in [10usize, 30, 60] {
        let qp = dispatch_qp(n);
        let budget = SolveBudget::unlimited();
        g.bench_with_input(BenchmarkId::new("active_set", n), &qp, |b, qp| {
            b.iter(|| black_box(ActiveSetSolver::default().solve(qp, &budget).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("interior_point", n), &qp, |b, qp| {
            b.iter(|| black_box(IpmSolver::default().solve(qp, &budget).unwrap()))
        });
    }
    g.finish();
}

fn knapsack(n: usize) -> Model {
    let mut lp = Model::maximize();
    let mut vars = vec![];
    for i in 0..n {
        vars.push(lp.add_var(0.0, 1.0, 3.0 + ((i * 7) % 11) as f64));
    }
    let row = vars
        .iter()
        .enumerate()
        .fold(Row::le(1.25 * n as f64), |r, (i, &v)| {
            r.coef(v, 2.0 + ((i * 5) % 7) as f64)
        });
    lp.add_row(row);
    for v in vars {
        lp.set_integer(v);
    }
    lp
}

fn branch_and_bound(m: &Model, options: &BranchOptions) {
    let out = branch_bound::solve(m, options, &SolveBudget::unlimited()).unwrap();
    black_box(out.solved().unwrap());
}

fn bench_milp(c: &mut Criterion) {
    let mut g = c.benchmark_group("milp_knapsack");
    g.sample_size(10);
    for n in [10usize, 16, 22] {
        let m = knapsack(n);
        let options = BranchOptions::integers();
        g.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| branch_and_bound(m, &options))
        });
    }
    g.finish();
}

fn chain_mpec(n: usize) -> Model {
    let mut lp = Model::maximize();
    let vars: Vec<_> = (0..n).map(|_| lp.add_var(0.0, 1.0, 1.0)).collect();
    for w in vars.windows(2) {
        lp.add_pair(w[0], w[1]);
    }
    lp
}

fn bench_mpec(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpec_chain");
    g.sample_size(10);
    for n in [8usize, 16, 32] {
        let m = chain_mpec(n);
        let options = BranchOptions::pairs();
        g.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| branch_and_bound(m, &options))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simplex, bench_qp, bench_milp, bench_mpec);
criterion_main!(benches);
