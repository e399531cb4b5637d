//! Newton–Raphson solution of the AC power-flow equations.

use crate::ac::flows::{self, AcFlow};
use crate::ac::ybus::ybus;
use crate::{BusKind, Network, PowerflowError};
use ed_linalg::{Lu, Matrix};

/// Convergence tolerance on the mismatch infinity-norm (per unit).
const TOL: f64 = 1e-8;
/// Maximum Newton iterations.
const MAX_ITERATIONS: usize = 50;

/// Solves the AC power flow for a generator dispatch.
///
/// Specified quantities follow bus kinds: the slack bus fixes `V, θ` and
/// absorbs the active/reactive imbalance (losses); PV buses fix `P` (their
/// generators' dispatch minus demand) and `V`; PQ buses fix `P` and `Q`.
/// Dispatch assigned to generators at the slack bus is ignored — the slack
/// supplies whatever balances the system, exactly as in the paper's
/// MATPOWER validation runs.
///
/// # Errors
///
/// - [`PowerflowError::DimensionMismatch`] if `dispatch_mw.len()` differs
///   from the generator count.
/// - [`PowerflowError::AcDiverged`] if Newton fails to converge.
pub fn solve(net: &Network, dispatch_mw: &[f64]) -> Result<AcFlow, PowerflowError> {
    let n = net.num_buses();
    if dispatch_mw.len() != net.num_gens() {
        return Err(PowerflowError::DimensionMismatch {
            expected: format!("{} generator outputs", net.num_gens()),
            found: format!("{}", dispatch_mw.len()),
        });
    }
    let base = net.base_mva();
    let y = ybus(net);
    let g = |i: usize, k: usize| y[i][k].re;
    let b = |i: usize, k: usize| y[i][k].im;

    // Specified injections in per unit.
    let inj_mw = net.injections_mw(dispatch_mw);
    let p_spec: Vec<f64> = inj_mw.iter().map(|p| p / base).collect();
    let q_spec: Vec<f64> = net.buses().iter().map(|bus| -bus.demand_mvar / base).collect();

    // Unknown orderings.
    let slack = net.slack().0;
    let theta_idx: Vec<usize> = (0..n).filter(|&i| i != slack).collect();
    let v_idx: Vec<usize> =
        (0..n).filter(|&i| net.buses()[i].kind == BusKind::Pq).collect();

    // Flat-ish start: setpoint magnitudes, zero angles.
    let mut v: Vec<f64> = net
        .buses()
        .iter()
        .map(|bus| match bus.kind {
            BusKind::Pq => 1.0,
            _ => bus.voltage_setpoint_pu,
        })
        .collect();
    let mut theta = vec![0.0; n];

    let calc = |v: &[f64], theta: &[f64]| -> (Vec<f64>, Vec<f64>) {
        let mut p = vec![0.0; n];
        let mut q = vec![0.0; n];
        for i in 0..n {
            for k in 0..n {
                if y[i][k] == ed_linalg::Complex::ZERO {
                    continue;
                }
                let dt = theta[i] - theta[k];
                let (s, c) = dt.sin_cos();
                p[i] += v[i] * v[k] * (g(i, k) * c + b(i, k) * s);
                q[i] += v[i] * v[k] * (g(i, k) * s - b(i, k) * c);
            }
        }
        (p, q)
    };

    let mut iterations = 0usize;
    let mut mismatch_norm = f64::INFINITY;
    while iterations < MAX_ITERATIONS {
        let (p_calc, q_calc) = calc(&v, &theta);
        // Mismatch vector: ΔP for non-slack, ΔQ for PQ.
        let mut mis = Vec::with_capacity(theta_idx.len() + v_idx.len());
        for &i in &theta_idx {
            mis.push(p_spec[i] - p_calc[i]);
        }
        for &i in &v_idx {
            mis.push(q_spec[i] - q_calc[i]);
        }
        mismatch_norm = ed_linalg::norm_inf(&mis);
        if mismatch_norm < TOL {
            let p_injection_mw: Vec<f64> = p_calc.iter().map(|p| p * base).collect();
            let q_injection_mvar: Vec<f64> = q_calc.iter().map(|q| q * base).collect();
            let line_flows = flows::line_flows(net, &v, &theta);
            return Ok(AcFlow {
                v_pu: v,
                theta_rad: theta,
                p_injection_mw,
                q_injection_mvar,
                line_flows,
                iterations,
            });
        }

        // Jacobian.
        let nt = theta_idx.len();
        let nv = v_idx.len();
        let dim = nt + nv;
        let mut jac = Matrix::zeros(dim, dim);
        for (r, &i) in theta_idx.iter().enumerate() {
            // dP_i/dθ_k
            for (cidx, &k) in theta_idx.iter().enumerate() {
                jac[(r, cidx)] = if i == k {
                    -q_calc[i] - b(i, i) * v[i] * v[i]
                } else {
                    let dt = theta[i] - theta[k];
                    let (s, c) = dt.sin_cos();
                    v[i] * v[k] * (g(i, k) * s - b(i, k) * c)
                };
            }
            // dP_i/dV_k
            for (cidx, &k) in v_idx.iter().enumerate() {
                jac[(r, nt + cidx)] = if i == k {
                    p_calc[i] / v[i] + g(i, i) * v[i]
                } else {
                    let dt = theta[i] - theta[k];
                    let (s, c) = dt.sin_cos();
                    v[i] * (g(i, k) * c + b(i, k) * s)
                };
            }
        }
        for (r, &i) in v_idx.iter().enumerate() {
            // dQ_i/dθ_k
            for (cidx, &k) in theta_idx.iter().enumerate() {
                jac[(nt + r, cidx)] = if i == k {
                    p_calc[i] - g(i, i) * v[i] * v[i]
                } else {
                    let dt = theta[i] - theta[k];
                    let (s, c) = dt.sin_cos();
                    -v[i] * v[k] * (g(i, k) * c + b(i, k) * s)
                };
            }
            // dQ_i/dV_k
            for (cidx, &k) in v_idx.iter().enumerate() {
                jac[(nt + r, nt + cidx)] = if i == k {
                    q_calc[i] / v[i] - b(i, i) * v[i]
                } else {
                    let dt = theta[i] - theta[k];
                    let (s, c) = dt.sin_cos();
                    v[i] * (g(i, k) * s - b(i, k) * c)
                };
            }
        }

        let lu = Lu::factor(&jac).map_err(|_| PowerflowError::AcDiverged {
            iterations,
            mismatch: mismatch_norm,
        })?;
        let dx = lu.solve(&mis)?;
        for (r, &i) in theta_idx.iter().enumerate() {
            theta[i] += dx[r];
        }
        for (r, &i) in v_idx.iter().enumerate() {
            v[i] += dx[nt + r];
        }
        iterations += 1;
    }
    Err(PowerflowError::AcDiverged { iterations, mismatch: mismatch_norm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dc, CostCurve, NetworkBuilder};

    fn paper_three_bus() -> Network {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
        b.set_bus_demand_mvar(b3, 100.0);
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b1, b3, 0.002, 0.05, 160.0);
        b.add_line(b2, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        b.build().unwrap()
    }

    #[test]
    fn converges_and_balances() {
        let net = paper_three_bus();
        let sol = solve(&net, &[120.0, 180.0]).unwrap();
        assert!(sol.iterations > 0 && sol.iterations < 20);
        // The slack covers losses: total injection == losses.
        let total_p: f64 = sol.p_injection_mw.iter().sum();
        assert!((total_p - sol.total_losses_mw()).abs() < 1e-6);
        assert!(sol.total_losses_mw() > 0.0, "resistive network must lose power");
    }

    #[test]
    fn ac_flows_exceed_dc_flows_with_reactive_load() {
        // The paper (Fig. 4b) observes nonlinear apparent flows above the DC
        // active flows because of reactive power.
        let net = paper_three_bus();
        let dcf = dc::solve(&net, &[120.0, 180.0, -300.0]).unwrap();
        let acf = solve(&net, &[120.0, 180.0]).unwrap();
        let ac_app = acf.apparent_flows_mva();
        // Line 2 (2->3) carries reactive power on top of ~160 MW active.
        assert!(
            ac_app[2] > dcf.flow_mw[2].abs(),
            "apparent {} should exceed DC {}",
            ac_app[2],
            dcf.flow_mw[2]
        );
    }

    #[test]
    fn pv_bus_holds_setpoint_and_p() {
        let net = paper_three_bus();
        let sol = solve(&net, &[120.0, 180.0]).unwrap();
        assert!((sol.v_pu[1] - 1.0).abs() < 1e-9);
        assert!((sol.p_injection_mw[1] - 180.0).abs() < 1e-5);
    }

    #[test]
    fn pq_bus_receives_demand() {
        let net = paper_three_bus();
        let sol = solve(&net, &[120.0, 180.0]).unwrap();
        assert!((sol.p_injection_mw[2] + 300.0).abs() < 1e-5);
        assert!((sol.q_injection_mvar[2] + 100.0).abs() < 1e-5);
    }

    #[test]
    fn lossless_limit_matches_dc() {
        // With r = 0 and no reactive demand, AC active flows approach DC.
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
        b.set_bus_demand_mvar(b3, 0.0);
        b.add_line(b1, b2, 0.0, 0.05, 160.0);
        b.add_line(b1, b3, 0.0, 0.05, 160.0);
        b.add_line(b2, b3, 0.0, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        let net = b.build().unwrap();
        let acf = solve(&net, &[120.0, 180.0]).unwrap();
        let dcf = dc::solve(&net, &[120.0, 180.0, -300.0]).unwrap();
        for (lf, fdc) in acf.line_flows.iter().zip(&dcf.flow_mw) {
            // Within a few percent: DC linearizes sin θ ≈ θ.
            assert!(
                (lf.active_from_mw() - fdc).abs() < 0.05 * fdc.abs().max(20.0),
                "AC {} vs DC {}",
                lf.active_from_mw(),
                fdc
            );
        }
        assert!(acf.total_losses_mw().abs() < 1e-6);
    }

    #[test]
    fn dispatch_length_checked() {
        let net = paper_three_bus();
        assert!(matches!(
            solve(&net, &[1.0]),
            Err(PowerflowError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn infeasible_huge_load_diverges_or_collapses() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pq, 50_000.0);
        b.add_line(b1, b2, 0.01, 0.1, 100.0);
        b.add_gen(b1, 0.0, 100_000.0, CostCurve::linear(1.0));
        let net = b.build().unwrap();
        // A 500 pu transfer over a 0.1 pu reactance is far beyond the
        // static transfer limit; Newton must not "converge" silently.
        assert!(solve(&net, &[50_000.0]).is_err());
    }
}
