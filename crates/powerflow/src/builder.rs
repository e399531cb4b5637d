//! Validated construction of [`Network`] values.

use crate::network::{Bus, BusId, BusKind, CostCurve, GenId, Generator, Line, LineId, Network};
use crate::{fnv1a, PowerflowError};

/// Builder for [`Network`] with validation at [`NetworkBuilder::build`].
///
/// Validation enforces: exactly one slack bus, at least one generator,
/// positive reactances and ratings, in-range endpoints, distinct line
/// endpoints, ordered generator limits, and a connected graph.
///
/// # Example
///
/// ```
/// use ed_powerflow::{NetworkBuilder, BusKind, CostCurve};
///
/// # fn main() -> Result<(), ed_powerflow::PowerflowError> {
/// let mut b = NetworkBuilder::new(100.0);
/// let b1 = b.add_bus("gen", BusKind::Slack, 0.0);
/// let b2 = b.add_bus("load", BusKind::Pq, 50.0);
/// b.add_line(b1, b2, 0.01, 0.1, 100.0);
/// b.add_gen(b1, 0.0, 100.0, CostCurve::linear(10.0));
/// let net = b.build()?;
/// assert_eq!(net.num_buses(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    base_mva: f64,
    buses: Vec<Bus>,
    lines: Vec<Line>,
    gens: Vec<Generator>,
}

impl NetworkBuilder {
    /// Starts a builder with the given MVA base (100 MVA is conventional).
    pub fn new(base_mva: f64) -> NetworkBuilder {
        NetworkBuilder { base_mva, buses: Vec::new(), lines: Vec::new(), gens: Vec::new() }
    }

    /// Adds a bus with an active demand (MW); reactive demand defaults to
    /// 1/3 of active (typical 0.95 power factor territory) and can be
    /// overridden with [`NetworkBuilder::set_bus_demand_mvar`].
    pub fn add_bus(&mut self, name: &str, kind: BusKind, demand_mw: f64) -> BusId {
        self.buses.push(Bus {
            name: name.to_string(),
            kind,
            demand_mw,
            demand_mvar: demand_mw / 3.0,
            voltage_setpoint_pu: 1.0,
        });
        BusId(self.buses.len() - 1)
    }

    /// Overrides the reactive demand of a bus.
    ///
    /// # Panics
    ///
    /// Panics if `bus` is not from this builder.
    pub fn set_bus_demand_mvar(&mut self, bus: BusId, demand_mvar: f64) {
        self.buses[bus.0].demand_mvar = demand_mvar;
    }

    /// Overrides the voltage setpoint of a bus.
    ///
    /// # Panics
    ///
    /// Panics if `bus` is not from this builder.
    pub fn set_voltage_setpoint(&mut self, bus: BusId, v_pu: f64) {
        self.buses[bus.0].voltage_setpoint_pu = v_pu;
    }

    /// Adds a line with series impedance `r + jx` (per unit) and a static
    /// rating (MVA). Charging susceptance defaults to zero; override with
    /// [`NetworkBuilder::set_line_charging`].
    pub fn add_line(&mut self, from: BusId, to: BusId, r_pu: f64, x_pu: f64, rating_mva: f64) -> LineId {
        self.lines.push(Line {
            from,
            to,
            resistance_pu: r_pu,
            reactance_pu: x_pu,
            charging_pu: 0.0,
            rating_mva,
        });
        LineId(self.lines.len() - 1)
    }

    /// Overrides the total charging susceptance of a line (per unit).
    ///
    /// # Panics
    ///
    /// Panics if `line` is not from this builder.
    pub fn set_line_charging(&mut self, line: LineId, b_pu: f64) {
        self.lines[line.0].charging_pu = b_pu;
    }

    /// Adds a generator with active limits `[pmin, pmax]` MW; reactive
    /// limits default to `±pmax/2` MVAr.
    pub fn add_gen(&mut self, bus: BusId, pmin_mw: f64, pmax_mw: f64, cost: CostCurve) -> GenId {
        self.gens.push(Generator {
            bus,
            pmin_mw,
            pmax_mw,
            qmin_mvar: -pmax_mw / 2.0,
            qmax_mvar: pmax_mw / 2.0,
            cost,
        });
        GenId(self.gens.len() - 1)
    }

    /// Overrides the reactive limits of a generator.
    ///
    /// # Panics
    ///
    /// Panics if `gen` is not from this builder.
    pub fn set_gen_q_limits(&mut self, gen: GenId, qmin_mvar: f64, qmax_mvar: f64) {
        self.gens[gen.0].qmin_mvar = qmin_mvar;
        self.gens[gen.0].qmax_mvar = qmax_mvar;
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::InvalidNetwork`] describing the first
    /// violated invariant.
    pub fn build(self) -> Result<Network, PowerflowError> {
        let invalid = |what: String| Err(PowerflowError::InvalidNetwork { what });
        // NaN passes every `<= 0.0` style comparison, so finiteness is
        // checked explicitly throughout — a NaN smuggled into a rating or
        // susceptance must die here, not in a solver factorization.
        if !self.base_mva.is_finite() || self.base_mva <= 0.0 {
            return invalid(format!("base MVA must be positive and finite, got {}", self.base_mva));
        }
        if self.buses.is_empty() {
            return invalid("network has no buses".to_string());
        }
        for (i, bus) in self.buses.iter().enumerate() {
            if !bus.demand_mw.is_finite() || !bus.demand_mvar.is_finite() {
                return invalid(format!(
                    "bus {i} has non-finite demand ({}, {})",
                    bus.demand_mw, bus.demand_mvar
                ));
            }
            if !bus.voltage_setpoint_pu.is_finite() || bus.voltage_setpoint_pu <= 0.0 {
                return invalid(format!(
                    "bus {i} has bad voltage setpoint {}",
                    bus.voltage_setpoint_pu
                ));
            }
        }
        let slack_count = self.buses.iter().filter(|b| b.kind == BusKind::Slack).count();
        if slack_count != 1 {
            return invalid(format!("network must have exactly one slack bus, found {slack_count}"));
        }
        if self.gens.is_empty() {
            return invalid("network has no generators".to_string());
        }
        let n = self.buses.len();
        for (i, line) in self.lines.iter().enumerate() {
            if line.from.0 >= n || line.to.0 >= n {
                return invalid(format!("line {i} references a bus out of range"));
            }
            if line.from == line.to {
                return invalid(format!("line {i} is a self-loop at bus {}", line.from.0));
            }
            if !line.reactance_pu.is_finite() || line.reactance_pu <= 0.0 {
                return invalid(format!(
                    "line {i} has non-positive or non-finite reactance {}",
                    line.reactance_pu
                ));
            }
            if !line.resistance_pu.is_finite() || line.resistance_pu < 0.0 {
                return invalid(format!(
                    "line {i} has negative or non-finite resistance {}",
                    line.resistance_pu
                ));
            }
            if !line.rating_mva.is_finite() || line.rating_mva <= 0.0 {
                return invalid(format!(
                    "line {i} has non-positive or non-finite rating {}",
                    line.rating_mva
                ));
            }
            if !line.charging_pu.is_finite() || line.charging_pu < 0.0 {
                return invalid(format!(
                    "line {i} has negative or non-finite charging {}",
                    line.charging_pu
                ));
            }
        }
        for (i, g) in self.gens.iter().enumerate() {
            if g.bus.0 >= n {
                return invalid(format!("generator {i} references a bus out of range"));
            }
            if !g.pmin_mw.is_finite() || !g.pmax_mw.is_finite() || g.pmin_mw > g.pmax_mw {
                return invalid(format!(
                    "generator {i} has bad limits [{}, {}]",
                    g.pmin_mw, g.pmax_mw
                ));
            }
            if !g.qmin_mvar.is_finite() || !g.qmax_mvar.is_finite() || g.qmin_mvar > g.qmax_mvar {
                return invalid(format!(
                    "generator {i} has bad reactive limits [{}, {}]",
                    g.qmin_mvar, g.qmax_mvar
                ));
            }
            let c = &g.cost;
            if !c.a.is_finite() || !c.b.is_finite() || !c.c.is_finite() || c.a < 0.0 {
                return invalid(format!(
                    "generator {i} has bad cost curve ({}, {}, {})",
                    c.a, c.b, c.c
                ));
            }
        }
        // Connectivity (union-find).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for line in &self.lines {
            let (a, b) = (find(&mut parent, line.from.0), find(&mut parent, line.to.0));
            if a != b {
                parent[a] = b;
            }
        }
        let root = find(&mut parent, 0);
        for i in 1..n {
            if find(&mut parent, i) != root {
                return invalid(format!("network is disconnected (bus {i} unreachable from bus 0)"));
            }
        }
        let mut net = Network {
            base_mva: self.base_mva,
            buses: self.buses,
            lines: self.lines,
            gens: self.gens,
            fingerprint: 0,
        };
        net.fingerprint = fingerprint(&net);
        Ok(net)
    }
}

/// FNV-1a over every field that shapes the network's models; see
/// [`Network::fingerprint`].
fn fingerprint(net: &Network) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(64 + 32 * (net.num_buses() + net.num_lines()));
    let push_f64 =
        |bytes: &mut Vec<u8>, v: f64| bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    bytes.extend_from_slice(&net.base_mva().to_bits().to_le_bytes());
    bytes.extend_from_slice(&(net.slack().0 as u64).to_le_bytes());
    for bus in net.buses() {
        push_f64(&mut bytes, bus.demand_mw);
        push_f64(&mut bytes, bus.demand_mvar);
        push_f64(&mut bytes, bus.voltage_setpoint_pu);
    }
    for line in net.lines() {
        bytes.extend_from_slice(&(line.from.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(line.to.0 as u64).to_le_bytes());
        push_f64(&mut bytes, line.resistance_pu);
        push_f64(&mut bytes, line.reactance_pu);
        push_f64(&mut bytes, line.charging_pu);
        push_f64(&mut bytes, line.rating_mva);
    }
    for g in net.gens() {
        bytes.extend_from_slice(&(g.bus.0 as u64).to_le_bytes());
        push_f64(&mut bytes, g.pmin_mw);
        push_f64(&mut bytes, g.pmax_mw);
        push_f64(&mut bytes, g.cost.a);
        push_f64(&mut bytes, g.cost.b);
        push_f64(&mut bytes, g.cost.c);
    }
    fnv1a(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_missing_slack() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Pq, 0.0);
        b.add_gen(b1, 0.0, 1.0, CostCurve::linear(1.0));
        assert!(matches!(b.build(), Err(PowerflowError::InvalidNetwork { .. })));
    }

    #[test]
    fn rejects_two_slacks() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        b.add_bus("b", BusKind::Slack, 0.0);
        b.add_gen(b1, 0.0, 1.0, CostCurve::linear(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, 10.0);
        let b3 = b.add_bus("c", BusKind::Pq, 10.0);
        let b4 = b.add_bus("d", BusKind::Pq, 10.0);
        b.add_line(b1, b2, 0.01, 0.1, 10.0);
        b.add_line(b3, b4, 0.01, 0.1, 10.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        assert!(matches!(b.build(), Err(PowerflowError::InvalidNetwork { what }) if what.contains("disconnected")));
    }

    #[test]
    fn rejects_bad_reactance_and_rating() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, 10.0);
        b.add_line(b1, b2, 0.01, -0.1, 10.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        assert!(b.build().is_err());

        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, 10.0);
        b.add_line(b1, b2, 0.01, 0.1, 0.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_non_finite_rating_and_reactance() {
        // NaN ratings slip through `<= 0.0` comparisons; the builder must
        // catch them explicitly.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = NetworkBuilder::new(100.0);
            let b1 = b.add_bus("a", BusKind::Slack, 0.0);
            let b2 = b.add_bus("b", BusKind::Pq, 10.0);
            b.add_line(b1, b2, 0.01, 0.1, bad);
            b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
            assert!(
                matches!(b.build(), Err(PowerflowError::InvalidNetwork { ref what }) if what.contains("rating")),
                "rating {bad} must be rejected"
            );

            let mut b = NetworkBuilder::new(100.0);
            let b1 = b.add_bus("a", BusKind::Slack, 0.0);
            let b2 = b.add_bus("b", BusKind::Pq, 10.0);
            b.add_line(b1, b2, 0.01, bad, 10.0);
            b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
            assert!(
                matches!(b.build(), Err(PowerflowError::InvalidNetwork { ref what }) if what.contains("reactance")),
                "reactance {bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_nan_demand_and_cost() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, f64::NAN);
        b.add_line(b1, b2, 0.01, 0.1, 10.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        assert!(matches!(b.build(), Err(PowerflowError::InvalidNetwork { ref what }) if what.contains("demand")));

        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, 10.0);
        b.add_line(b1, b2, 0.01, 0.1, 10.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(f64::NAN));
        assert!(matches!(b.build(), Err(PowerflowError::InvalidNetwork { ref what }) if what.contains("cost")));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        b.add_line(b1, b1, 0.01, 0.1, 10.0);
        b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_inverted_gen_limits() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        b.add_gen(b1, 10.0, 5.0, CostCurve::linear(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn builds_valid_network() {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("a", BusKind::Slack, 0.0);
        let b2 = b.add_bus("b", BusKind::Pq, 10.0);
        let l = b.add_line(b1, b2, 0.01, 0.1, 10.0);
        b.set_line_charging(l, 0.02);
        let g = b.add_gen(b1, 0.0, 50.0, CostCurve::linear(1.0));
        b.set_gen_q_limits(g, -10.0, 10.0);
        b.set_voltage_setpoint(b1, 1.05);
        b.set_bus_demand_mvar(b2, 4.0);
        let net = b.build().unwrap();
        assert_eq!(net.bus(b2).demand_mvar, 4.0);
        assert_eq!(net.bus(b1).voltage_setpoint_pu, 1.05);
        assert_eq!(net.line(l).charging_pu, 0.02);
        assert_eq!(net.gen(g).qmax_mvar, 10.0);
    }
}
