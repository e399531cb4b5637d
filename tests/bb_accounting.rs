//! Branch-and-bound accounting pins.
//!
//! Seeded MILPs (branching on integrality marks) and MPECs (branching on
//! complementarity pairs) are solved through the branch-and-bound engine,
//! and everything the run reports is pinned exactly: objective and bound
//! bits, nodes, simplex iterations, warm starts, cold restarts, and the
//! `optim.bb.pruned` / `optim.bb.nodes` recorder counters. The cases cover
//! a warm-started root, trees over presolved MPECs (presolved before the
//! search, as Algorithm 1 does), a `max_nodes` limit with and without an
//! incumbent, and a `SolveBudget` node-cap trip.
//!
//! Solver refactors must leave every pinned value unchanged: these runs
//! are deterministic, so any drift means the search itself changed.
//!
//! One more case reads the recorder's spans: a one-thread Algorithm 1
//! sweep runs every stage on its own thread. Another counts the factor
//! hand-offs from parent to child nodes.

use std::sync::{Mutex, MutexGuard};

use ed_rng::{Rng, SeedableRng, StdRng};
use ed_security::core::attack::{optimal_attack, AttackConfig};
use ed_security::obs;
use ed_security::optim::branch_bound::{self, BranchOptions};
use ed_security::optim::lp::{phase1_basis, Basis, Row, SimplexOptions};
use ed_security::optim::model::presolve;
use ed_security::optim::{Model, OptimError, SolveBudget, SolveOutcome};
use ed_security::powerflow::LineId;

/// The recorder is process-global; every case runs under this lock so the
/// counter deltas belong to exactly one branch-and-bound run.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder() -> MutexGuard<'static, ()> {
    let guard = RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::set_enabled(true);
    guard
}

/// Which branching rule a case runs.
#[derive(Clone, Copy)]
enum Rule {
    Integers,
    Pairs,
}

/// Per-run knobs shared by both rules. `presolve` solves the presolved
/// model and maps its objective and bound back by the presolve offset.
struct Knobs {
    max_nodes: Option<usize>,
    presolve: bool,
    warm: bool,
    root: Option<Basis>,
    budget: SolveBudget,
}

impl Knobs {
    fn new(presolve: bool) -> Knobs {
        Knobs {
            max_nodes: None,
            presolve,
            warm: true,
            root: None,
            budget: SolveBudget::unlimited(),
        }
    }
}

/// Everything one run reports, flattened across its finishes into one line:
/// finish, objective and bound bits, nodes, simplex iterations, warm starts,
/// cold restarts, then the `optim.bb.nodes` / `optim.bb.pruned` counters.
fn run(model: &Model, rule: Rule, k: Knobs) -> String {
    let _g = recorder();
    let mark = obs::mark();
    let mut opts = match rule {
        Rule::Integers => BranchOptions::integers(),
        Rule::Pairs => BranchOptions::pairs(),
    };
    opts.warm = k.warm;
    if let Some(n) = k.max_nodes {
        opts.max_nodes = n;
    }
    opts.simplex.warm = k.root;
    let (model, offset) = if k.presolve {
        let pre = presolve::presolve(model).unwrap();
        let offset = pre.postsolve.obj_offset();
        (pre.reduced, offset)
    } else {
        (model.clone(), 0.0)
    };
    let out = branch_bound::solve(&model, &opts, &k.budget).map(|o| {
        o.map(|s| {
            let n = [s.nodes, s.lp_iterations, s.warm_starts, s.cold_restarts];
            (s.objective, s.best_bound, s.proved_optimal, n)
        })
    });
    let report = obs::report_since(&mark);
    let bits = |v: Option<f64>| {
        v.map_or("-".to_string(), |v| format!("{:#018x}", (v + offset).to_bits()))
    };
    let line = |finish: String, objective: Option<f64>, bound: Option<f64>, n: [usize; 4]| {
        format!(
            "{finish} obj={} bound={} nodes={} it={} warm={} cold={} | bb.nodes={} bb.pruned={}",
            bits(objective),
            bits(bound),
            n[0],
            n[1],
            n[2],
            n[3],
            report.counter("optim.bb.nodes"),
            report.counter("optim.bb.pruned"),
        )
    };
    match out {
        Ok(SolveOutcome::Solved((obj, bound, proved, n))) => {
            line(format!("solved proved={proved}"), Some(obj), Some(bound), n)
        }
        Ok(SolveOutcome::Partial(p)) => line(
            format!("partial {:?}", p.tripped),
            p.objective,
            p.bound,
            [p.nodes, p.iterations, p.warm_starts, p.cold_restarts],
        ),
        Err(OptimError::NodeLimit {
            limit,
            incumbent,
            bound,
            lp_iterations,
            warm_starts,
            cold_restarts,
        }) => line(
            "node-limit".into(),
            incumbent,
            Some(bound),
            [limit, lp_iterations, warm_starts, cold_restarts],
        ),
        Err(e) => line(format!("error {e}"), None, None, [0; 4]),
    }
}

/// A minimization over general integers in `[0, 10]` built around a
/// feasible anchor point (rows `a'x <= a'x0 + slack`).
fn seeded_milp(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 6;
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
    let mut m = Model::minimize();
    let vars: Vec<_> = (0..n)
        .map(|_| m.add_var(0.0, 10.0, rng.gen_range(-5.0..5.0)))
        .collect();
    for _ in 0..4 {
        let coefs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let activity: f64 = coefs.iter().zip(&x0).map(|(a, x)| a * x).sum();
        let slack = rng.gen_range(0.0..5.0);
        m.add_row(Row::le(activity + slack).coefs(vars.iter().zip(&coefs).map(|(&v, &c)| (v, c))));
    }
    for &v in &vars {
        m.set_integer(v);
    }
    m
}

/// A maximization over `[0, 4]` variables with consecutive complementarity
/// pairs and two shared capacity rows.
fn seeded_mpec(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 8;
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..n)
        .map(|_| m.add_var(0.0, 4.0, rng.gen_range(0.1..3.0)))
        .collect();
    for _ in 0..2 {
        let coefs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.5)).collect();
        let cap = rng.gen_range(4.0..9.0);
        m.add_row(Row::le(cap).coefs(vars.iter().zip(&coefs).map(|(&v, &c)| (v, c))));
    }
    for w in vars.windows(2) {
        m.add_pair(w[0], w[1]);
    }
    m
}

/// The phase-1 basis (the shared seed Algorithm 1 hands every sibling
/// subproblem), offered to the root.
fn seed_basis(model: &Model) -> Basis {
    let seed = phase1_basis(model, &SimplexOptions::default(), &SolveBudget::unlimited());
    seed.unwrap().unwrap().0
}

fn check(case: &str, got: String, want: &str) {
    assert_eq!(got, want, "{case}: accounting drifted");
}

#[test]
fn milp_cold_and_warm_roots() {
    let cases = [
        (
            0xB801_u64,
            "solved proved=true obj=0xc047a13f70be2819 bound=0xc047a13f70be2819 nodes=5 it=14 warm=4 cold=0 | bb.nodes=5 bb.pruned=2",
            "solved proved=true obj=0xc047a13f70be2819 bound=0xc047a13f70be2819 nodes=5 it=9 warm=5 cold=0 | bb.nodes=5 bb.pruned=2",
        ),
        (
            0xB802,
            "solved proved=true obj=0x4056ae5303f81e6a bound=0x4056ae5303f81e6a nodes=163 it=196 warm=139 cold=0 | bb.nodes=163 bb.pruned=77",
            "solved proved=true obj=0x4056ae5303f81e6a bound=0x4056ae5303f81e6a nodes=163 it=187 warm=140 cold=0 | bb.nodes=163 bb.pruned=77",
        ),
        (
            0xB803,
            "solved proved=true obj=0xc04f4ba46ff931c8 bound=0xc04f4ba46ff931c8 nodes=113 it=118 warm=95 cold=0 | bb.nodes=113 bb.pruned=50",
            "solved proved=true obj=0xc04f4ba46ff931c8 bound=0xc04f4ba46ff931c8 nodes=113 it=113 warm=96 cold=0 | bb.nodes=113 bb.pruned=50",
        ),
    ];
    for (seed, cold, warm) in cases {
        let m = seeded_milp(seed);
        check(
            &format!("milp {seed:#x} cold"),
            run(&m, Rule::Integers, Knobs::new(false)),
            cold,
        );
        let k = Knobs {
            root: Some(seed_basis(&m)),
            ..Knobs::new(false)
        };
        check(
            &format!("milp {seed:#x} warm root"),
            run(&m, Rule::Integers, k),
            warm,
        );
    }

    // A root basis recorded against other dimensions is rejected: the root
    // restarts cold and its children still warm-start from it.
    let k = Knobs {
        root: Some(seed_basis(&seeded_mpec(0xE801))),
        ..Knobs::new(false)
    };
    check(
        "milp 0xb801 stale root",
        run(&seeded_milp(0xB801), Rule::Integers, k),
        "solved proved=true obj=0xc047a13f70be2819 bound=0xc047a13f70be2819 nodes=5 it=14 warm=4 cold=1 | bb.nodes=5 bb.pruned=2",
    );
}

#[test]
fn mpec_cold_and_warm_roots() {
    let cases = [
        (
            0xE801_u64,
            "solved proved=true obj=0x402c52b4d7c46154 bound=0x402c52b4d7c46154 nodes=3 it=6 warm=2 cold=0 | bb.nodes=3 bb.pruned=1",
            "solved proved=true obj=0x402c52b4d7c46154 bound=0x402c52b4d7c46154 nodes=3 it=4 warm=3 cold=0 | bb.nodes=3 bb.pruned=1",
        ),
        (
            0xE802,
            "solved proved=true obj=0x4025bfd530703953 bound=0x4025bfd530703953 nodes=3 it=8 warm=2 cold=0 | bb.nodes=3 bb.pruned=1",
            "solved proved=true obj=0x4025bfd530703953 bound=0x4025bfd530703953 nodes=3 it=5 warm=3 cold=0 | bb.nodes=3 bb.pruned=1",
        ),
        (
            0xE803,
            "solved proved=true obj=0x40365c112340afb1 bound=0x40365c112340afb1 nodes=3 it=10 warm=2 cold=0 | bb.nodes=3 bb.pruned=1",
            "solved proved=true obj=0x40365c112340afb1 bound=0x40365c112340afb1 nodes=3 it=7 warm=3 cold=0 | bb.nodes=3 bb.pruned=1",
        ),
    ];
    for (seed, cold, warm) in cases {
        let m = seeded_mpec(seed);
        check(
            &format!("mpec {seed:#x} cold"),
            run(&m, Rule::Pairs, Knobs::new(false)),
            cold,
        );
        let k = Knobs {
            root: Some(seed_basis(&m)),
            ..Knobs::new(false)
        };
        check(
            &format!("mpec {seed:#x} warm root"),
            run(&m, Rule::Pairs, k),
            warm,
        );
    }
}

/// Each child installs the factor its parent's solve finished with
/// instead of factoring the same basis matrix again: with warm starts on,
/// `optim.bb.factor_handoffs` counts every node but the root; with them
/// off, none.
#[test]
fn children_install_their_parents_factor() {
    let milps =
        [0xB801_u64, 0xB802, 0xB803].map(|s| (s, seeded_milp(s), BranchOptions::integers()));
    let mpecs = [0xE801_u64, 0xE802, 0xE803].map(|s| (s, seeded_mpec(s), BranchOptions::pairs()));
    for (seed, m, base) in milps.into_iter().chain(mpecs) {
        for (warm, root) in [(true, None), (true, Some(seed_basis(&m))), (false, None)] {
            let _g = recorder();
            let mark = obs::mark();
            let opts = BranchOptions {
                warm,
                simplex: SimplexOptions { warm: root, ..SimplexOptions::default() },
                ..base.clone()
            };
            let sol = branch_bound::solve(&m, &opts, &SolveBudget::unlimited())
                .unwrap()
                .solved()
                .unwrap();
            let handoffs = obs::report_since(&mark).counter("optim.bb.factor_handoffs");
            let want = if warm { sol.nodes as u64 - 1 } else { 0 };
            assert_eq!(handoffs, want, "{seed:#x} warm={warm}: {} nodes", sol.nodes);
        }
    }
}

#[test]
fn presolved_tree_accounting() {
    for (seed, want) in [
        (0xE801_u64, "solved proved=true obj=0x402c52b4d7c46154 bound=0x402c52b4d7c46154 nodes=3 it=6 warm=2 cold=0 | bb.nodes=3 bb.pruned=1"),
        (0xE802, "solved proved=true obj=0x4025bfd530703953 bound=0x4025bfd530703953 nodes=3 it=8 warm=2 cold=0 | bb.nodes=3 bb.pruned=1"),
    ] {
        let got = run(&seeded_mpec(seed), Rule::Pairs, Knobs::new(true));
        check(&format!("mpec {seed:#x} presolved"), got, want);
    }
}

#[test]
fn max_nodes_limit_with_and_without_incumbent() {
    // No incumbent within one (warm) node: the typed NodeLimit error.
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..12).map(|_| m.add_var(0.0, 1.0, 1.0)).collect();
    m.add_row(vars.iter().fold(Row::le(5.5), |r, &v| r.coef(v, 1.0)));
    for &v in &vars {
        m.set_integer(v);
    }
    let k = Knobs {
        max_nodes: Some(1),
        root: Some(seed_basis(&m)),
        ..Knobs::new(false)
    };
    check(
        "knapsack root only",
        run(&m, Rule::Integers, k),
        "node-limit obj=- bound=0x4016000000000000 nodes=1 it=0 warm=1 cold=0 | bb.nodes=1 bb.pruned=0",
    );

    for (seed, cap, want) in [
        (0xB801_u64, 3, "solved proved=false obj=0xc047a13f70be2819 bound=0xc048162e7ceebb4c nodes=3 it=12 warm=2 cold=0 | bb.nodes=3 bb.pruned=0"),
        (0xB803, 5, "node-limit obj=- bound=0xc04febbc8ba6091c nodes=5 it=12 warm=3 cold=0 | bb.nodes=5 bb.pruned=1"),
    ] {
        let m = seeded_milp(seed);
        let k = Knobs { max_nodes: Some(cap), ..Knobs::new(false) };
        check(&format!("milp {seed:#x} max_nodes {cap}"), run(&m, Rule::Integers, k), want);
    }
    for (seed, cap, want) in [
        (0xE801_u64, 2, "solved proved=false obj=0x402c52b4d7c46154 bound=0x402d42042b6b126d nodes=2 it=6 warm=1 cold=0 | bb.nodes=2 bb.pruned=0"),
        (0xE803, 4, "solved proved=true obj=0x40365c112340afb1 bound=0x40365c112340afb1 nodes=3 it=10 warm=2 cold=0 | bb.nodes=3 bb.pruned=1"),
    ] {
        let m = seeded_mpec(seed);
        let k = Knobs { max_nodes: Some(cap), ..Knobs::new(false) };
        check(&format!("mpec {seed:#x} max_nodes {cap}"), run(&m, Rule::Pairs, k), want);
    }
}

#[test]
fn solve_budget_node_trip() {
    let budget = |cap| Knobs {
        warm: false,
        budget: SolveBudget::unlimited().max_nodes(cap),
        ..Knobs::new(false)
    };
    for (seed, cap, want) in [
        (0xB801_u64, 3, "partial Nodes obj=0xc047a13f70be2819 bound=0xc048162e7ceebb4c nodes=3 it=30 warm=0 cold=0 | bb.nodes=3 bb.pruned=0"),
        (0xB802, 6, "partial Nodes obj=- bound=0x405634d33fadc70b nodes=6 it=58 warm=0 cold=0 | bb.nodes=6 bb.pruned=0"),
    ] {
        let got = run(&seeded_milp(seed), Rule::Integers, budget(cap));
        check(&format!("milp {seed:#x} node budget {cap}"), got, want);
    }
    for (seed, cap, want) in [
        (0xE801_u64, 2, "partial Nodes obj=0x402c52b4d7c46154 bound=0x402d42042b6b126d nodes=2 it=9 warm=0 cold=0 | bb.nodes=2 bb.pruned=0"),
        (0xE802, 2, "partial Nodes obj=0x4025bfd530703953 bound=0x4027b053dad45fb2 nodes=2 it=12 warm=0 cold=0 | bb.nodes=2 bb.pruned=0"),
    ] {
        let got = run(&seeded_mpec(seed), Rule::Pairs, budget(cap));
        check(&format!("mpec {seed:#x} node budget {cap}"), got, want);
    }
}

/// A node-budget trip keeps the warm-start accounting of the nodes it did
/// explore: children warm-start from their parent's basis before the cap.
#[test]
fn warm_node_budget_trip_keeps_warm_tallies() {
    let k = Knobs {
        budget: SolveBudget::unlimited().max_nodes(3),
        ..Knobs::new(false)
    };
    check(
        "milp 0xb801 warm node budget 3",
        run(&seeded_milp(0xB801), Rule::Integers, k),
        "partial Nodes obj=0xc047a13f70be2819 bound=0xc048162e7ceebb4c nodes=3 it=12 warm=2 cold=0 | bb.nodes=3 bb.pruned=0",
    );
    let k = Knobs {
        root: Some(seed_basis(&seeded_mpec(0xE801))),
        budget: SolveBudget::unlimited().max_nodes(2),
        ..Knobs::new(false)
    };
    check(
        "mpec 0xe801 warm node budget 2",
        run(&seeded_mpec(0xE801), Rule::Pairs, k),
        "partial Nodes obj=0x402c52b4d7c46154 bound=0x402d42042b6b126d nodes=2 it=4 warm=2 cold=0 | bb.nodes=2 bb.pruned=0",
    );
}

/// The same through Algorithm 1: a node budget starves the branching
/// subproblems, and their warm-started roots still count in the sweep's
/// hand-off tallies (every attempted root is offered the shared seed).
#[test]
fn budget_tripped_subproblems_keep_warm_tallies() {
    // Holds the recorder so this sweep's counters stay out of other cases.
    let _g = recorder();
    let net = ed_security::cases::three_bus();
    let mut config = AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0]);
    // Without the heuristic hint the search must branch below the root.
    config.options.use_heuristic = false;
    config.options.warm_start = Some(true);
    config.options.presolve = Some(false);
    config.options.threads = Some(1);
    config.options.budget = SolveBudget::unlimited().max_nodes(1);
    let result = optimal_attack(&net, &config).unwrap();
    let tripped = result
        .subproblems
        .iter()
        .filter(|s| s.fault.is_some())
        .count();
    assert!(tripped > 0, "the node cap must trip some subproblem");
    let sweep = &result.sweep;
    assert!(sweep.warm_starts > 0, "warm starts lost: {sweep:?}");
    assert_eq!(
        sweep.warm_starts + sweep.cold_restarts,
        result.subproblems.len(),
        "every subproblem root was offered the seed: {sweep:?}"
    );
}

/// At one thread the sweep starts no thread: the heuristic, the KKT build,
/// the phase-1 seed and every subproblem record spans whose parent is the
/// sweep's own `attack.sweep` span. Parents are tracked per thread, so a
/// stage run on any other thread would have no parent there.
#[test]
fn single_thread_sweep_runs_every_stage_on_the_sweep_thread() {
    let _g = recorder();
    let net = ed_security::cases::three_bus();
    let mut config = AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0]);
    config.options.threads = Some(1);
    let mark = obs::mark();
    let result = optimal_attack(&net, &config).unwrap();
    let report = obs::report_since(&mark);
    let named = |name: &str| -> Vec<_> { report.spans.iter().filter(|s| s.name == name).collect() };
    let sweeps = named("attack.sweep");
    assert_eq!(sweeps.len(), 1, "one sweep ran: {sweeps:?}");
    let sweep = Some(sweeps[0].id);
    for stage in ["attack.heuristic", "attack.kkt", "attack.seed"] {
        let spans = named(stage);
        assert_eq!(spans.len(), 1, "{stage}: {spans:?}");
        assert_eq!(spans[0].parent, sweep, "{stage} ran off the sweep's thread");
    }
    let subproblems = named("attack.subproblem");
    assert_eq!(subproblems.len(), result.subproblems.len());
    assert!(
        subproblems.iter().all(|s| s.parent == sweep),
        "{subproblems:?}"
    );
}
