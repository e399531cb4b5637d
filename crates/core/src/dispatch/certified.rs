//! Certified economic dispatch: the angle-form LP solved through the
//! independent certification + repair ladder.
//!
//! [`DcOpf::solve`] trusts whichever solver it ran; the paper's threat
//! model is exactly a component that lies convincingly. This path instead
//! routes the dispatch LP through [`CertifiedSolver`]: the primary
//! simplex answer is audited against the model by an independent
//! certificate check (primal/dual feasibility, complementary slackness),
//! and on failure a repair ladder re-solves with tightened tolerances and
//! alternate backends. The caller receives the dispatch *with its
//! provenance* — a [`Trust`] classification, the accepted answer's
//! [`Certificate`], and every repair rung attempted — and an untrusted
//! answer carries no dispatch at all (fail closed), never a silent number.

use crate::dispatch::model::DispatchModel;
use crate::dispatch::{DcOpf, Dispatch, Formulation};
use crate::CoreError;
use ed_optim::budget::{SolveBudget, SolveOutcome};
use ed_optim::lp::{Pricing, SimplexOptions};
use ed_optim::model::{IpmSolver, SimplexSolver};
use ed_optim::{Certificate, CertifiedSolver, RepairStep, Trust};

/// A dispatch with its certification provenance.
#[derive(Debug, Clone)]
pub struct CertifiedDispatch {
    /// The packaged dispatch. `None` when no rung earned trust (an
    /// uncertified or budget-partial answer is refused, not packaged) —
    /// the fail-closed contract of this path.
    pub dispatch: Option<Dispatch>,
    /// Certificate of the accepted answer, when one was produced.
    pub certificate: Option<Certificate>,
    /// Overall trust classification of the solve.
    pub trust: Trust,
    /// Repair rungs attempted, in order; empty for first-try success.
    pub repairs: Vec<RepairStep>,
}

impl DcOpf<'_> {
    /// Solves the dispatch through the certification + repair ladder.
    ///
    /// Quadratic costs are linearized at the midpoint of each generator's
    /// range (exact for all-linear systems), mirroring the resilient
    /// ladder's LP rung — certification needs the LP's exact duals.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidInput`] on malformed demand/ratings vectors.
    /// - [`CoreError::DispatchInfeasible`] when the demand cannot be
    ///   served within the limits.
    /// - [`CoreError::Optim`] when the primary solver fails outright
    ///   (repair-rung failures are recorded, not propagated).
    pub fn solve_certified(&self, budget: &SolveBudget) -> Result<CertifiedDispatch, CoreError> {
        self.solve_certified_with(budget, None)
    }

    /// [`solve_certified`](DcOpf::solve_certified) with an optional
    /// basis-fault injection seed for the primary solver — the chaos hook
    /// the serving layer and the certification tests use to prove that a
    /// corrupted solve is caught and repaired, never served.
    pub fn solve_certified_with(
        &self,
        budget: &SolveBudget,
        inject_basis_fault: Option<u64>,
    ) -> Result<CertifiedDispatch, CoreError> {
        self.validate()?;
        let model = DispatchModel::build(
            self.network(),
            self.demand_mw(),
            self.ratings_mw(),
            Formulation::Angle,
            true,
        )?;

        let primary = SimplexSolver {
            options: SimplexOptions { inject_basis_fault, ..SimplexOptions::default() },
        };
        // Alternates are deliberately fault-free and pivot differently from
        // the primary: Bland pricing walks a different basis path, and the
        // interior-point method shares no pivoting code at all.
        let bland = SimplexSolver {
            options: SimplexOptions { pricing: Pricing::Bland, ..SimplexOptions::default() },
        };
        let ladder = CertifiedSolver::new(Box::new(primary))
            .with_alternate(Box::new(bland))
            .with_alternate(Box::new(IpmSolver::default()));

        let out = ladder.solve_certified(&model.lp, budget)?;
        let trusted = matches!(out.trust, Trust::Certified | Trust::Repaired { .. });
        let dispatch = match (trusted, out.outcome) {
            (true, SolveOutcome::Solved(sol)) => Some(self.package(model.read(&sol))?),
            // Uncertified and partial answers are never packaged: a
            // corrupted x would flow into the DC recompute and come back
            // as plausible-looking flows.
            _ => None,
        };
        Ok(CertifiedDispatch {
            dispatch,
            certificate: out.certificate,
            trust: out.trust,
            repairs: out.repairs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_solve_certifies_first_try() {
        let net = ed_cases::three_bus();
        let out = DcOpf::new(&net).solve_certified(&SolveBudget::unlimited()).unwrap();
        assert_eq!(out.trust, Trust::Certified);
        assert!(out.repairs.is_empty());
        let d = out.dispatch.expect("certified answer carries a dispatch");
        assert!((d.p_mw[0] - 120.0).abs() < 1e-6);
        assert!((d.p_mw[1] - 180.0).abs() < 1e-6);
        assert!(out.certificate.unwrap().passed());
    }

    #[test]
    fn injected_basis_fault_is_caught_and_repaired() {
        let net = ed_cases::three_bus();
        let clean = DcOpf::new(&net).solve().unwrap();
        let out = DcOpf::new(&net)
            .solve_certified_with(&SolveBudget::unlimited(), Some(7))
            .unwrap();
        // The corrupted primary answer must not certify; a repair rung
        // must produce the true dispatch.
        assert!(matches!(out.trust, Trust::Repaired { .. }), "{:?}", out.trust);
        assert!(!out.repairs.is_empty());
        let d = out.dispatch.expect("repaired answer carries a dispatch");
        for (a, b) in d.p_mw.iter().zip(&clean.p_mw) {
            assert!((a - b).abs() < 1e-6, "repaired {a} vs clean {b}");
        }
    }

    #[test]
    fn quadratic_costs_are_linearized_not_rejected() {
        let net = ed_cases::six_bus();
        let out = DcOpf::new(&net).solve_certified(&SolveBudget::unlimited()).unwrap();
        assert!(matches!(out.trust, Trust::Certified | Trust::Repaired { .. }), "{:?}", out.trust);
        let d = out.dispatch.unwrap();
        let total: f64 = d.p_mw.iter().sum();
        let demand: f64 = net.demand_vector_mw().iter().sum();
        assert!((total - demand).abs() < 1e-6);
    }

    #[test]
    fn invalid_input_is_typed_not_panicking() {
        let net = ed_cases::three_bus();
        let err = DcOpf::new(&net)
            .ratings(&[f64::NAN, 160.0, 160.0])
            .solve_certified(&SolveBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }));
    }
}
