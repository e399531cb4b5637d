//! Property-based differential testing of the solver stack.
//!
//! Seeded random feasible LPs and QPs (built the same way
//! [`ed_security::cases`]' synthetic generator builds networks: every byte
//! of randomness comes from one `StdRng` seed) are pushed through
//! *independent* solution paths that must agree:
//!
//! 1. **presolve on vs off** — solving the presolved model and mapping the
//!    answer back through [`Postsolve`] must land on the same optimum as
//!    solving the original model directly;
//! 2. **simplex vs interior point** (and active set vs interior point for
//!    QPs) — algorithmically unrelated methods must report the same
//!    objective;
//! 3. **certification** — every accepted vertex solution passes
//!    [`ed_security::optim::certify`] against the model it solved.
//!
//! On a property violation the harness *shrinks*: it greedily reduces the
//! generator's dimensions (drop a row, drop a variable, drop the quadratic
//! terms) while the failure persists, then panics with the minimal failing
//! `GenParams` — rerunning that exact case is one `check(params)` call.
//!
//! The final test proves the harness has teeth: a deliberately injected
//! basis-memory fault ([`SimplexOptions::inject_basis_fault`]) must be
//! caught by the differential comparison alone, with certification playing
//! no part.
//!
//! [`Postsolve`]: ed_security::optim::Postsolve
//! [`SimplexOptions::inject_basis_fault`]: ed_security::optim::lp::SimplexOptions

use ed_rng::{Rng, SeedableRng, StdRng};
use ed_security::optim::lp::{Basis, BasisStatus, Row, SimplexOptions};
use ed_security::optim::model::presolve;
use ed_security::optim::{
    certify, ActiveSetSolver, IpmSolver, Model, SimplexSolver, Solution, SolveBudget,
    SolveOutcome, Solver, Tolerances,
};

/// Everything the generator needs to rebuild a model byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GenParams {
    seed: u64,
    vars: usize,
    rows: usize,
    quadratic: bool,
}

/// Builds a random *feasible, bounded* model: box-bounded variables, rows
/// anchored on a random interior point (`a'x* + slack` for `<=`, minus for
/// `>=`, exact for `=`), so `x*` is feasible by construction and the box
/// keeps the optimum finite.
fn random_model(p: GenParams) -> Model {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut m = Model::minimize();
    let mut ids = Vec::with_capacity(p.vars);
    for _ in 0..p.vars {
        let ub = rng.gen_range(1.0..50.0);
        let c = rng.gen_range(-10.0..10.0);
        ids.push(m.add_var(0.0, ub, c));
    }
    let x_star: Vec<f64> = ids
        .iter()
        .map(|&v| {
            let (lb, ub) = m.bounds(v);
            lb + rng.gen_range(0.25..0.75) * (ub - lb)
        })
        .collect();
    for _ in 0..p.rows {
        let k = rng.gen_range(2..p.vars.clamp(2, 4) + 1);
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        while picked.len() < k {
            let j = rng.gen_range(0..p.vars);
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        let coefs: Vec<f64> = picked.iter().map(|_| rng.gen_range(-4.0..4.0)).collect();
        let activity: f64 = picked.iter().zip(&coefs).map(|(&j, &c)| c * x_star[j]).sum();
        let slack = rng.gen_range(0.5..5.0);
        let kind = rng.gen_range(0u32..3);
        let mut row = match kind {
            0 => Row::le(activity + slack),
            1 => Row::ge(activity - slack),
            _ => Row::eq(activity),
        };
        for (&j, &c) in picked.iter().zip(&coefs) {
            row = row.coef(ids[j], c);
        }
        m.add_row(row);
    }
    if p.quadratic {
        for &v in &ids {
            m.add_quad(v, v, rng.gen_range(0.1..2.0));
        }
    }
    m
}

fn solved(outcome: SolveOutcome<Solution>) -> Solution {
    match outcome {
        SolveOutcome::Solved(s) => s,
        SolveOutcome::Partial(_) => panic!("an unlimited budget cannot trip"),
    }
}

/// Relative-ish objective agreement: scaled by the magnitude of the values.
fn objectives_agree(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Runs every differential property on one generated model. `Err` carries
/// a human-readable description of the first violated property.
fn check(p: GenParams) -> Result<(), String> {
    let m = random_model(p);
    let budget = SolveBudget::unlimited();
    let vertex: Box<dyn Solver> = if p.quadratic {
        Box::new(ActiveSetSolver::default())
    } else {
        Box::new(SimplexSolver::default())
    };

    // Reference answer: the vertex method on the original model.
    let base = solved(
        vertex.solve(&m, &budget).map_err(|e| format!("direct {} failed: {e}", vertex.name()))?,
    );

    // Property (c): the accepted vertex solution certifies against the
    // model it claims to solve.
    let cert = certify(&m, &base, &Tolerances::default());
    if !cert.passed() {
        return Err(format!("vertex solution failed certification: {:?}", cert.status));
    }

    // Property (a): presolve on vs off.
    let pre = presolve::presolve(&m).map_err(|e| format!("presolve failed: {e}"))?;
    let red = solved(
        vertex
            .solve(&pre.reduced, &budget)
            .map_err(|e| format!("{} on presolved model failed: {e}", vertex.name()))?,
    );
    let x_restored = pre.postsolve.restore_x(&red.x);
    let infeas = m.infeasibility(&x_restored);
    if infeas > 1e-6 {
        return Err(format!("postsolved point violates the original model by {infeas:.3e}"));
    }
    let obj_restored = m.objective_value(&x_restored);
    if !objectives_agree(obj_restored, base.objective, 1e-6) {
        return Err(format!(
            "presolve changed the optimum: {obj_restored:.12} (presolved) vs {:.12} (direct)",
            base.objective
        ));
    }

    // Property (b): an algorithmically unrelated method agrees. The
    // interior-point path shares no code with the simplex or the
    // active-set beyond the model IR itself.
    let ipm = solved(
        IpmSolver::default().solve(&m, &budget).map_err(|e| format!("IPM failed: {e}"))?,
    );
    if !objectives_agree(ipm.objective, base.objective, 1e-5) {
        return Err(format!(
            "interior point disagrees: {:.12} (IPM) vs {:.12} ({})",
            ipm.objective,
            base.objective,
            vertex.name()
        ));
    }
    Ok(())
}

/// Greedy shrink: keep applying the first dimension reduction that still
/// fails, then panic with the minimal failing parameters and its message.
fn shrink_and_report(p: GenParams, first_error: String) -> ! {
    let mut best = (p, first_error);
    loop {
        let cur = best.0;
        let mut candidates: Vec<GenParams> = Vec::new();
        if cur.quadratic {
            candidates.push(GenParams { quadratic: false, ..cur });
        }
        if cur.rows > 1 {
            candidates.push(GenParams { rows: cur.rows - 1, ..cur });
        }
        if cur.vars > 2 {
            candidates.push(GenParams { vars: cur.vars - 1, ..cur });
        }
        let mut improved = false;
        for cand in candidates {
            if let Err(e) = check(cand) {
                best = (cand, e);
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    panic!(
        "differential property failed; minimal failing case {:?}: {}\n\
         reproduce with `check({:?})`",
        best.0, best.1, best.0
    );
}

/// ~50 seeded random models (LPs and QPs alternating, sizes cycling
/// through 2–8 variables and 1–5 rows) through the full differential
/// battery. Failures shrink to and print the responsible seed.
#[test]
fn random_models_agree_across_presolve_methods_and_certification() {
    for i in 0..50u64 {
        let p = GenParams {
            seed: 0xD1FF_0000 + i,
            vars: 2 + (i as usize % 7),
            rows: 1 + (i as usize % 5),
            quadratic: i % 2 == 1,
        };
        if let Err(e) = check(p) {
            shrink_and_report(p, e);
        }
    }
}

/// Warm-vs-cold differential battery over 25 seeded LPs: a warm start —
/// the solver's own optimal basis, a *stale* basis recorded against a
/// different model of the same shape, a *corrupted* basis, or one with
/// outright wrong dimensions — may change pivot counts but never the
/// answer. Each replays the full [`Basis`] hand-off through
/// [`SimplexOptions::warm`]. The invalid offers must be rejected fail-safe:
/// a cold restart whose answer is bit-identical (wrong dims) or
/// optimum-identical (stale/corrupt but installable) to the never-warmed
/// solve.
#[test]
fn warm_started_resolves_agree_with_cold_across_seeded_models() {
    // The even seeds of the 50-model battery, whose odd seeds drew QPs.
    for i in (0..50u64).step_by(2) {
        let p = GenParams {
            seed: 0xBA51_5000 + i,
            vars: 2 + (i as usize % 7),
            rows: 1 + (i as usize % 5),
            quadratic: false,
        };
        let m = random_model(p);
        let cold = m.solve().expect("cold LP solves");
        let basis = cold.basis.clone().expect("direct simplex reports its basis");
        let warm_solve = |warm: Basis| {
            m.solve_with(&SimplexOptions { warm: Some(warm), ..SimplexOptions::default() })
                .expect("warm LP solves")
        };
        let same_bits = |s: &ed_security::optim::lp::LpSolution, label: &str| {
            assert_eq!(
                s.objective.to_bits(),
                cold.objective.to_bits(),
                "seed {:#x}: {label} changed the objective: {:.15} vs {:.15}",
                p.seed,
                s.objective,
                cold.objective
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.x), bits(&cold.x), "seed {:#x}: {label} moved x", p.seed);
        };
        let same_optimum = |s: &ed_security::optim::lp::LpSolution, label: &str| {
            assert!(
                m.infeasibility(&s.x) <= 1e-6,
                "seed {:#x}: {label} returned an infeasible point",
                p.seed
            );
            assert!(
                objectives_agree(s.objective, cold.objective, 1e-9),
                "seed {:#x}: {label} changed the optimum: {:.15} vs {:.15}",
                p.seed,
                s.objective,
                cold.objective
            );
        };

        // (1) Its own optimal basis: accepted, and the canonicalized
        // final basis makes the whole solution bit-identical.
        let own = warm_solve(basis.clone());
        assert!(own.warm_used, "seed {:#x}: optimal basis rejected", p.seed);
        same_bits(&own, "warm restart from own optimal basis");

        // (2) A stale basis — recorded against a *different* model of
        // the same shape. Installation may succeed (the dual simplex
        // then repairs it) or be rejected; either way the optimum
        // stands.
        let stale_src = random_model(GenParams { seed: p.seed ^ 0x57A1_E000, ..p });
        let stale =
            stale_src.solve().expect("stale-source LP solves").basis.expect("direct basis");
        same_optimum(&warm_solve(stale), "stale sibling basis");

        // (3) A corrupted basis: rotate the recorded statuses so they
        // no longer describe the vertex they came from.
        let mut corrupt = basis.clone();
        corrupt.statuses.rotate_left(1);
        same_optimum(&warm_solve(corrupt), "corrupted basis");

        // (4) Wrong dimensions: must be rejected outright, and the
        // cold restart is the cold solve, bit for bit.
        let bad = Basis { statuses: vec![BasisStatus::Basic], art_rows: Vec::new() };
        let rejected = warm_solve(bad);
        assert!(!rejected.warm_used, "seed {:#x}: wrong-dims basis installed", p.seed);
        same_bits(&rejected, "wrong-dimensioned basis");
    }
}

/// Everything needed to rebuild one bounds/rhs/objective perturbation
/// chain byte-for-byte: structure is drawn from `seed` alone, the data of
/// step `k` from `seed ^ f(k)` — so every step shares the exact column
/// pattern and row senses of the base model, presolves to the same reduced
/// shape, and can take the previous step's basis as a warm start.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChainParams {
    seed: u64,
    vars: usize,
    rows: usize,
    steps: usize,
}

/// Builds step `k` of a chain. Structure (which variables each row
/// touches, coefficients, senses, the interior anchor `x*`) comes from a
/// structure RNG seeded by `p.seed` only; bounds, rhs slacks, and
/// objective coefficients come from a data RNG seeded by `p.seed` and `k`.
/// Rows stay anchored on the same `x*` with a fresh positive slack and the
/// upper bounds never shrink below `x*`, so every step of the chain is
/// feasible by construction.
fn chain_model(p: ChainParams, step: usize) -> Model {
    let mut srng = StdRng::seed_from_u64(p.seed);
    let mut drng =
        StdRng::seed_from_u64(p.seed ^ (0xDE17_A000 + (step as u64).wrapping_mul(0x9E37_79B9)));
    let mut m = Model::minimize();
    let mut ids = Vec::with_capacity(p.vars);
    let mut base_ub = Vec::with_capacity(p.vars);
    for _ in 0..p.vars {
        let ub = srng.gen_range(1.0..50.0);
        base_ub.push(ub);
        // Data: the step rescales the box and redraws the cost.
        let ub_k = ub * drng.gen_range(0.85..1.3);
        let c_k = drng.gen_range(-10.0..10.0);
        ids.push(m.add_var(0.0, ub_k, c_k));
    }
    // Anchor inside every step's box: x* <= 0.6 * base_ub <= 0.85 * base_ub.
    let x_star: Vec<f64> =
        base_ub.iter().map(|&ub| srng.gen_range(0.2..0.6) * ub).collect();
    for _ in 0..p.rows {
        let k = srng.gen_range(2..p.vars.clamp(2, 4) + 1);
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        while picked.len() < k {
            let j = srng.gen_range(0..p.vars);
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        let coefs: Vec<f64> = picked.iter().map(|_| srng.gen_range(-4.0..4.0)).collect();
        let activity: f64 = picked.iter().zip(&coefs).map(|(&j, &c)| c * x_star[j]).sum();
        let kind = srng.gen_range(0u32..3);
        // Data: inequality rows redraw their slack each step; equality rows
        // keep rhs = a'x* (x* is step-invariant, so they stay satisfiable).
        let slack = drng.gen_range(0.4..6.0);
        let mut row = match kind {
            0 => Row::le(activity + slack),
            1 => Row::ge(activity - slack),
            _ => Row::eq(activity),
        };
        for (&j, &c) in picked.iter().zip(&coefs) {
            row = row.coef(ids[j], c);
        }
        m.add_row(row);
    }
    m
}

/// Runs one perturbation chain through both re-solve paths. `Err` carries
/// the first violated property.
fn chain_check(p: ChainParams) -> Result<(), String> {
    let tol = Tolerances::default();
    let base = chain_model(p, 0);
    let base_pre = presolve::presolve(&base).map_err(|e| format!("base presolve failed: {e}"))?;
    let base_sol = base_pre.reduced.solve().map_err(|e| format!("base solve failed: {e}"))?;
    let mut warm = base_sol.basis;
    let mut warm_steps = 0usize;
    for step in 1..=p.steps {
        let variant = chain_model(p, step);
        let pre = presolve::presolve(&variant)
            .map_err(|e| format!("step {step}: presolve failed: {e}"))?;

        // Cold reference: cold solve of the fresh reduction + restore.
        let cold_sol =
            pre.reduced.solve().map_err(|e| format!("step {step}: cold solve failed: {e}"))?;
        let cold_x = pre.postsolve.restore_x(&cold_sol.x);
        let cold_obj = variant.objective_value(&cold_x);

        // Delta path: the same fresh reduction solved warm (rank-1-updated
        // dual simplex) from the previous step's basis.
        let options = SimplexOptions { warm: warm.take(), ..SimplexOptions::default() };
        let delta_sol = pre
            .reduced
            .solve_with(&options)
            .map_err(|e| format!("step {step}: warm solve failed: {e}"))?;
        warm_steps += usize::from(delta_sol.warm_used);
        let delta_x = pre.postsolve.restore_x(&delta_sol.x);
        let delta_obj = variant.objective_value(&delta_x);
        warm = delta_sol.basis.clone();

        // The two paths must agree within Tolerances on the original model.
        let infeas = variant.infeasibility(&delta_x);
        if infeas > tol.feas {
            return Err(format!("step {step}: warm point violates the variant by {infeas:.3e}"));
        }
        if !objectives_agree(delta_obj, cold_obj, tol.opt) {
            return Err(format!(
                "step {step}: delta path changed the optimum: {delta_obj:.12} \
                 (warm) vs {cold_obj:.12} (cold)"
            ));
        }
    }
    // Without an accepted warm start the chain compared cold against cold.
    if warm_steps == 0 {
        return Err("no step installed the previous step's basis".to_string());
    }
    Ok(())
}

/// Greedy shrink for chain failures, mirroring [`shrink_and_report`]:
/// shorten the chain first (fewer steps), then drop rows and variables,
/// keeping whichever reduction still fails.
fn shrink_chain_and_report(p: ChainParams, first_error: String) -> ! {
    let mut best = (p, first_error);
    loop {
        let cur = best.0;
        let mut candidates: Vec<ChainParams> = Vec::new();
        if cur.steps > 1 {
            candidates.push(ChainParams { steps: cur.steps - 1, ..cur });
        }
        if cur.rows > 1 {
            candidates.push(ChainParams { rows: cur.rows - 1, ..cur });
        }
        if cur.vars > 2 {
            candidates.push(ChainParams { vars: cur.vars - 1, ..cur });
        }
        let mut improved = false;
        for cand in candidates {
            if let Err(e) = chain_check(cand) {
                best = (cand, e);
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    panic!(
        "perturbation-chain property failed; minimal failing case {:?}: {}\n\
         reproduce with `chain_check({:?})`",
        best.0, best.1, best.0
    );
}

/// 50 seeded random bound/rhs/objective perturbation chains: at every step
/// the variant is presolved afresh and the reduced model solved warm from
/// the previous step's basis (the dual simplex repairing it through rank-1
/// LU updates); the answer must match a cold solve of the same reduction
/// within [`Tolerances`], and every chain must accept at least one warm
/// start. Failures shrink to and print the responsible chain.
#[test]
fn perturbation_chains_patched_warm_resolves_match_cold() {
    for i in 0..50u64 {
        let p = ChainParams {
            seed: 0xDE17_A000 + i,
            vars: 3 + (i as usize % 6),
            rows: 2 + (i as usize % 4),
            steps: 3 + (i as usize % 3),
        };
        if let Err(e) = chain_check(p) {
            shrink_chain_and_report(p, e);
        }
    }
}

/// The harness has teeth: a deliberately injected basis-memory fault
/// (one primal entry corrupted after the solve, objective left stale) is
/// caught by the *differential* comparison alone — certification is never
/// consulted here. Detection = the corrupted point violates the model, or
/// its true objective value disagrees with the independent interior-point
/// answer.
#[test]
fn injected_basis_fault_is_caught_without_certification() {
    let budget = SolveBudget::unlimited();
    for i in 0..8u64 {
        let p = GenParams {
            seed: 0xFA17_0000 + i,
            vars: 3 + (i as usize % 5),
            rows: 2 + (i as usize % 4),
            quadratic: false,
        };
        let m = random_model(p);
        let options =
            SimplexOptions { inject_basis_fault: Some(p.seed), ..SimplexOptions::default() };
        let faulty = m.solve_with(&options).expect("faulted solve still reports success");
        let ipm = solved(IpmSolver::default().solve(&m, &budget).expect("IPM solves"));

        let infeasible = m.infeasibility(&faulty.x) > 1e-6;
        let true_obj_at_point = m.objective_value(&faulty.x);
        let objective_differs = !objectives_agree(true_obj_at_point, ipm.objective, 1e-5);
        assert!(
            infeasible || objective_differs,
            "seed {:#x}: corrupted solution slipped past the differential harness \
             (infeasibility {:.3e}, objective at point {:.9} vs IPM {:.9})",
            p.seed,
            m.infeasibility(&faulty.x),
            true_obj_at_point,
            ipm.objective
        );

        // Sanity: the same model without the fault sails through.
        let clean = m.solve().expect("clean solve");
        assert!(m.infeasibility(&clean.x) <= 1e-6);
        assert!(objectives_agree(m.objective_value(&clean.x), ipm.objective, 1e-5));
    }
}
