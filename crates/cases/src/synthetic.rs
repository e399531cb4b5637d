//! Seeded generation of meshed synthetic networks.
//!
//! The generator produces connected, meshed transmission systems of any
//! size with realistic parameter ranges: a ring backbone guarantees
//! connectivity, random chords produce the meshing typical of transmission
//! grids, generators are spread around the system with convex quadratic
//! costs, and loads are distributed over the remaining buses.
//!
//! With a fixed seed the output is fully deterministic, which is what the
//! reproduction harness relies on (see [`crate::ieee118_like()`]).

use ed_powerflow::{BusKind, CostCurve, Network, NetworkBuilder, PowerflowError};
use ed_rng::{Rng, SeedableRng, StdRng};

/// Configuration for [`synthetic`].
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of buses.
    pub buses: usize,
    /// Total number of lines (must be ≥ `buses` for the ring + chords).
    pub lines: usize,
    /// Number of generators (≤ `buses`).
    pub gens: usize,
    /// Total system demand in MW.
    pub total_demand_mw: f64,
    /// Ratio of total generation capacity to total demand (reserve margin).
    pub capacity_margin: f64,
    /// RNG seed (same seed ⇒ identical network).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            buses: 30,
            lines: 41,
            gens: 6,
            total_demand_mw: 900.0,
            capacity_margin: 1.6,
            seed: 0xED5E,
        }
    }
}

/// Generates a synthetic meshed network.
///
/// # Errors
///
/// Returns [`PowerflowError::InvalidNetwork`] if the configuration is
/// inconsistent (fewer lines than buses, more generators than buses, or
/// fewer than 3 buses).
pub fn synthetic(config: &SyntheticConfig) -> Result<Network, PowerflowError> {
    let _t = ed_obs::timer("cases.synthetic");
    let n = config.buses;
    if n < 3 {
        return Err(PowerflowError::InvalidNetwork {
            what: format!("synthetic network needs >= 3 buses, got {n}"),
        });
    }
    if config.lines < n {
        return Err(PowerflowError::InvalidNetwork {
            what: format!("need >= {n} lines for a ring over {n} buses, got {}", config.lines),
        });
    }
    let max_edges = n * (n - 1) / 2;
    if config.lines > max_edges {
        return Err(PowerflowError::InvalidNetwork {
            what: format!(
                "{} lines requested but {n} buses admit at most {max_edges} distinct pairs",
                config.lines
            ),
        });
    }
    if config.gens == 0 || config.gens > n {
        return Err(PowerflowError::InvalidNetwork {
            what: format!("generator count {} out of range 1..={n}", config.gens),
        });
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new(100.0);

    // Generator buses: spread evenly around the ring. Bus 0 is the slack.
    let gen_stride = n / config.gens;
    let gen_buses: Vec<usize> = (0..config.gens).map(|g| g * gen_stride).collect();
    let is_gen_bus = |i: usize| gen_buses.contains(&i);

    // Loads on non-generator buses, log-normal-ish spread.
    let load_buses: Vec<usize> = (0..n).filter(|&i| !is_gen_bus(i)).collect();
    let mut weights: Vec<f64> = load_buses.iter().map(|_| rng.gen_range(0.4..1.6)).collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w *= config.total_demand_mw / wsum;
    }

    let mut bus_ids = Vec::with_capacity(n);
    let mut load_iter = weights.iter();
    for i in 0..n {
        let kind = if i == 0 {
            BusKind::Slack
        } else if is_gen_bus(i) {
            BusKind::Pv
        } else {
            BusKind::Pq
        };
        let demand = if is_gen_bus(i) {
            0.0
        } else {
            *load_iter.next().expect("one weight per load bus")
        };
        let id = b.add_bus(&format!("bus-{i}"), kind, demand);
        // Power factor ~0.95 lagging.
        b.set_bus_demand_mvar(id, demand * 0.33);
        bus_ids.push(id);
    }

    // Ring backbone.
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    // Chords: random distinct pairs not already present. Local spans can
    // run out of fresh pairs on small or dense topologies, so the sampler
    // is attempt-bounded with a deterministic sweep as the tail filler —
    // the loop terminates for every configuration that passed validation.
    let mut rejected = 0usize;
    while edges.len() < config.lines {
        let i = rng.gen_range(0..n);
        // Prefer "local" chords like real grids: span 2..n/3 positions.
        let span = rng.gen_range(2..(n / 3).max(3));
        let j = (i + span) % n;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if lo != hi && !edges.contains(&(lo, hi)) && !edges.contains(&(hi, lo)) {
            edges.push((lo, hi));
            rejected = 0;
        } else {
            rejected += 1;
            if rejected > 20 * n {
                'fill: for lo in 0..n {
                    for hi in (lo + 1)..n {
                        if edges.len() >= config.lines {
                            break 'fill;
                        }
                        if !edges.contains(&(lo, hi)) && !edges.contains(&(hi, lo)) {
                            edges.push((lo, hi));
                        }
                    }
                }
            }
        }
    }

    // Line parameters: x in [0.02, 0.20] pu, r = x/10. Ratings are set in
    // a second pass from the base-case flows (below) so the system shows
    // realistic loading levels; placeholders go in first.
    let mut line_params = Vec::with_capacity(edges.len());
    for &(i, j) in &edges {
        let x = rng.gen_range(0.02..0.20);
        let r = x / 10.0;
        let charging = rng.gen_range(0.0..0.04);
        let headroom = rng.gen_range(1.25..2.2);
        line_params.push((i, j, r, x, charging, headroom));
        let l = b.add_line(bus_ids[i], bus_ids[j], r, x, 1.0);
        b.set_line_charging(l, charging);
    }

    // Generators: capacity shares sum to margin * demand; quadratic costs.
    let total_cap = config.capacity_margin * config.total_demand_mw;
    let mut cap_weights: Vec<f64> = gen_buses.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
    let cw: f64 = cap_weights.iter().sum();
    for w in &mut cap_weights {
        *w *= total_cap / cw;
    }
    for (&bus, &cap) in gen_buses.iter().zip(&cap_weights) {
        let a = rng.gen_range(0.002..0.02);
        let bcost = rng.gen_range(8.0..30.0);
        let c = rng.gen_range(0.0..300.0);
        let g = b.add_gen(bus_ids[bus], 0.0, cap, CostCurve::quadratic(a, bcost, c));
        b.set_gen_q_limits(g, -cap * 0.6, cap * 0.6);
    }

    // Second pass: size ratings off the proportional-dispatch base-case
    // flows, so typical loading lands around 45–80% and a few lines are
    // genuinely congestion-prone (the environment DLR — and the attack —
    // exists for). A floor keeps lightly-loaded lines plausible.
    let provisional = b.clone().build()?;
    let dispatch: Vec<f64> = provisional
        .gens()
        .iter()
        .map(|g| g.pmax_mw / (config.capacity_margin * config.total_demand_mw) * config.total_demand_mw)
        .collect();
    let inj = provisional.injections_mw(&dispatch);
    let flows = ed_powerflow::dc::solve(&provisional, &inj)?.flow_mw;
    let floor = 0.05 * config.total_demand_mw / (n as f64).sqrt() + 10.0;
    let mut final_builder = NetworkBuilder::new(100.0);
    let mut ids2 = Vec::with_capacity(n);
    for bus in provisional.buses() {
        let id = final_builder.add_bus(&bus.name, bus.kind, bus.demand_mw);
        final_builder.set_bus_demand_mvar(id, bus.demand_mvar);
        final_builder.set_voltage_setpoint(id, bus.voltage_setpoint_pu);
        ids2.push(id);
    }
    for (k, line) in provisional.lines().iter().enumerate() {
        let (_, _, _, _, _, headroom) = line_params[k];
        let rating = (flows[k].abs() * headroom).max(floor);
        let l = final_builder.add_line(
            ids2[line.from.0],
            ids2[line.to.0],
            line.resistance_pu,
            line.reactance_pu,
            rating,
        );
        final_builder.set_line_charging(l, line.charging_pu);
    }
    for g in provisional.gens() {
        let gid = final_builder.add_gen(ids2[g.bus.0], g.pmin_mw, g.pmax_mw, g.cost);
        final_builder.set_gen_q_limits(gid, g.qmin_mvar, g.qmax_mvar);
    }
    final_builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed_powerflow::dc;

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = SyntheticConfig::default();
        let a = synthetic(&c).unwrap();
        let b = synthetic(&c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic(&SyntheticConfig::default()).unwrap();
        let b = synthetic(&SyntheticConfig { seed: 7, ..Default::default() }).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_requested_dimensions() {
        let c = SyntheticConfig {
            buses: 57,
            lines: 80,
            gens: 7,
            total_demand_mw: 1250.0,
            capacity_margin: 1.5,
            seed: 42,
        };
        let net = synthetic(&c).unwrap();
        assert_eq!(net.num_buses(), 57);
        assert_eq!(net.num_lines(), 80);
        assert_eq!(net.num_gens(), 7);
        assert!((net.total_demand_mw() - 1250.0).abs() < 1e-6);
        assert!((net.total_pmax_mw() - 1875.0).abs() < 1e-6);
    }

    #[test]
    fn dc_solvable_with_proportional_dispatch() {
        let net = synthetic(&SyntheticConfig::default()).unwrap();
        let d = net.total_demand_mw();
        let cap: f64 = net.total_pmax_mw();
        let dispatch: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
        let inj = net.injections_mw(&dispatch);
        let f = dc::solve(&net, &inj).unwrap();
        assert_eq!(f.flow_mw.len(), net.num_lines());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(synthetic(&SyntheticConfig { buses: 2, ..Default::default() }).is_err());
        assert!(synthetic(&SyntheticConfig { buses: 10, lines: 5, ..Default::default() }).is_err());
        assert!(synthetic(&SyntheticConfig { gens: 0, ..Default::default() }).is_err());
        assert!(synthetic(&SyntheticConfig { buses: 5, lines: 6, gens: 9, ..Default::default() })
            .is_err());
        // More lines than distinct bus pairs can never be built.
        assert!(synthetic(&SyntheticConfig { buses: 6, lines: 16, gens: 2, ..Default::default() })
            .is_err());
    }

    #[test]
    fn complete_graph_density_terminates() {
        // 6 buses admit exactly 15 pairs; the local-span sampler alone
        // cannot reach that density (it would spin forever), so this pins
        // the deterministic tail filler.
        let net = synthetic(&SyntheticConfig {
            buses: 6,
            lines: 15,
            gens: 2,
            total_demand_mw: 300.0,
            capacity_margin: 1.4,
            seed: 3,
        })
        .unwrap();
        assert_eq!(net.num_lines(), 15);
        let mut pairs: Vec<(usize, usize)> = net
            .lines()
            .iter()
            .map(|l| {
                let (a, b) = (l.from.0, l.to.0);
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 15, "every line must be a distinct bus pair");
    }
}
