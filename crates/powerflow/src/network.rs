//! The transmission-network data model.

/// Zero-based handle to a bus (node) of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BusId(pub usize);

/// Zero-based handle to a transmission line (edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub usize);

/// Zero-based handle to a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenId(pub usize);

/// Role of a bus in the AC power-flow formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// Reference bus: fixed voltage magnitude and angle, absorbs the power
    /// imbalance (losses).
    Slack,
    /// Generator bus: fixed active injection and voltage magnitude.
    Pv,
    /// Load bus: fixed active and reactive injection.
    Pq,
}

/// A network bus.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    /// Human-readable name (e.g. `"B3"` or `"bus-117"`).
    pub name: String,
    /// Role in AC power flow.
    pub kind: BusKind,
    /// Active power demand in MW (positive = consumption).
    pub demand_mw: f64,
    /// Reactive power demand in MVAr.
    pub demand_mvar: f64,
    /// Voltage magnitude setpoint in per unit (used for Slack/PV buses).
    pub voltage_setpoint_pu: f64,
}

/// A transmission line between two buses.
///
/// `rating_mva` is the *static* (nameplate) line rating `u^s` of the paper;
/// dynamic ratings are layered on by the `ed-dlr`/`ed-core` crates and never
/// stored here.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Sending-end bus.
    pub from: BusId,
    /// Receiving-end bus.
    pub to: BusId,
    /// Series resistance in per unit.
    pub resistance_pu: f64,
    /// Series reactance in per unit (must be positive).
    pub reactance_pu: f64,
    /// Total line charging susceptance in per unit.
    pub charging_pu: f64,
    /// Static thermal rating in MVA (`u^s` in the paper).
    pub rating_mva: f64,
}

impl Line {
    /// DC susceptance `β = 1/x` in per unit.
    pub fn susceptance_pu(&self) -> f64 {
        1.0 / self.reactance_pu
    }
}

/// Convex quadratic generation cost `C(p) = a p^2 + b p + c` with `p` in MW
/// (Eq. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCurve {
    /// Quadratic coefficient in $/MW²h.
    pub a: f64,
    /// Linear coefficient in $/MWh.
    pub b: f64,
    /// Constant (no-load) cost in $/h.
    pub c: f64,
}

impl CostCurve {
    /// A purely linear cost `b·p`.
    pub fn linear(b: f64) -> CostCurve {
        CostCurve { a: 0.0, b, c: 0.0 }
    }

    /// A quadratic cost `a·p² + b·p + c`.
    pub fn quadratic(a: f64, b: f64, c: f64) -> CostCurve {
        CostCurve { a, b, c }
    }

    /// Cost at output `p` MW.
    pub fn cost(&self, p_mw: f64) -> f64 {
        self.a * p_mw * p_mw + self.b * p_mw + self.c
    }

    /// `true` if the quadratic coefficient is (strictly) positive.
    pub fn is_strictly_convex(&self) -> bool {
        self.a > 0.0
    }
}

/// A dispatchable generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    /// Bus the unit is connected to.
    pub bus: BusId,
    /// Minimum active output in MW (`p^min` of Eq. 1).
    pub pmin_mw: f64,
    /// Maximum active output in MW (`p^max` of Eq. 1).
    pub pmax_mw: f64,
    /// Minimum reactive output in MVAr.
    pub qmin_mvar: f64,
    /// Maximum reactive output in MVAr.
    pub qmax_mvar: f64,
    /// Generation cost curve.
    pub cost: CostCurve,
}

/// A validated transmission network.
///
/// Construct with [`crate::NetworkBuilder`]; the builder guarantees a single
/// slack bus, positive reactances, in-range indices, and a connected graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    pub(crate) base_mva: f64,
    pub(crate) buses: Vec<Bus>,
    pub(crate) lines: Vec<Line>,
    pub(crate) gens: Vec<Generator>,
}

impl Network {
    /// System MVA base for per-unit conversion.
    pub fn base_mva(&self) -> f64 {
        self.base_mva
    }

    /// Number of buses `n = |V|`.
    pub fn num_buses(&self) -> usize {
        self.buses.len()
    }

    /// Number of lines `|E|`.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of generators `|G|`.
    pub fn num_gens(&self) -> usize {
        self.gens.len()
    }

    /// All buses, indexable by [`BusId`].
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// All lines, indexable by [`LineId`].
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// All generators, indexable by [`GenId`].
    pub fn gens(&self) -> &[Generator] {
        &self.gens
    }

    /// The bus with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids from this network never are).
    pub fn bus(&self, id: BusId) -> &Bus {
        &self.buses[id.0]
    }

    /// The line with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn line(&self, id: LineId) -> &Line {
        &self.lines[id.0]
    }

    /// The generator with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gen(&self, id: GenId) -> &Generator {
        &self.gens[id.0]
    }

    /// Id of the (unique) slack bus.
    pub fn slack(&self) -> BusId {
        BusId(
            self.buses
                .iter()
                .position(|b| b.kind == BusKind::Slack)
                .expect("builder guarantees a slack bus"),
        )
    }

    /// Generators attached to a bus (`G_i` in the paper).
    pub fn gens_at(&self, bus: BusId) -> impl Iterator<Item = (GenId, &Generator)> {
        self.gens
            .iter()
            .enumerate()
            .filter(move |(_, g)| g.bus == bus)
            .map(|(i, g)| (GenId(i), g))
    }

    /// Total active demand in MW (`Σ_j d_j`).
    pub fn total_demand_mw(&self) -> f64 {
        self.buses.iter().map(|b| b.demand_mw).sum()
    }

    /// Total maximum generation capacity in MW.
    pub fn total_pmax_mw(&self) -> f64 {
        self.gens.iter().map(|g| g.pmax_mw).sum()
    }

    /// Active demand vector in MW, indexed by bus.
    pub fn demand_vector_mw(&self) -> Vec<f64> {
        self.buses.iter().map(|b| b.demand_mw).collect()
    }

    /// Static ratings vector in MVA, indexed by line.
    pub fn static_ratings_mva(&self) -> Vec<f64> {
        self.lines.iter().map(|l| l.rating_mva).collect()
    }

    /// Net bus injections in MW for a given generator dispatch:
    /// `P_i = Σ_{k ∈ G_i} p_k − d_i`.
    ///
    /// # Panics
    ///
    /// Panics if `dispatch_mw.len() != num_gens()`.
    pub fn injections_mw(&self, dispatch_mw: &[f64]) -> Vec<f64> {
        assert_eq!(dispatch_mw.len(), self.num_gens(), "dispatch length mismatch");
        let mut inj: Vec<f64> = self.buses.iter().map(|b| -b.demand_mw).collect();
        for (g, &p) in self.gens.iter().zip(dispatch_mw) {
            inj[g.bus.0] += p;
        }
        inj
    }

    /// Total generation cost of a dispatch (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `dispatch_mw.len() != num_gens()`.
    pub fn dispatch_cost(&self, dispatch_mw: &[f64]) -> f64 {
        assert_eq!(dispatch_mw.len(), self.num_gens(), "dispatch length mismatch");
        self.gens
            .iter()
            .zip(dispatch_mw)
            .map(|(g, &p)| g.cost.cost(p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn three_bus() -> Network {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b1, b3, 0.002, 0.05, 160.0);
        b.add_line(b2, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let net = three_bus();
        assert_eq!(net.num_buses(), 3);
        assert_eq!(net.num_lines(), 3);
        assert_eq!(net.num_gens(), 2);
        assert_eq!(net.slack(), BusId(0));
        assert_eq!(net.total_demand_mw(), 300.0);
        assert_eq!(net.total_pmax_mw(), 600.0);
        assert_eq!(net.gens_at(BusId(1)).count(), 1);
    }

    #[test]
    fn injections_and_cost() {
        let net = three_bus();
        let inj = net.injections_mw(&[120.0, 180.0]);
        assert_eq!(inj, vec![120.0, 180.0, -300.0]);
        assert_eq!(net.dispatch_cost(&[120.0, 180.0]), 2.0 * 120.0 + 180.0);
    }

    #[test]
    fn cost_curve_math() {
        let c = CostCurve::quadratic(0.01, 10.0, 5.0);
        assert_eq!(c.cost(100.0), 0.01 * 10_000.0 + 1_000.0 + 5.0);
        assert!(c.is_strictly_convex());
        assert!(!CostCurve::linear(3.0).is_strictly_convex());
    }

    #[test]
    fn susceptance_is_inverse_reactance() {
        let net = three_bus();
        assert!((net.line(LineId(0)).susceptance_pu() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn clone_equality() {
        let net = three_bus();
        assert_eq!(net.clone(), net);
    }
}
