//! `chain118`: the `sweep118` scenario over hours 3, 4 and 5 of the demand
//! profile `0.9 + 0.15·sin(πh/24)`, with production defaults — pools on,
//! and each hour's seed basis handed to the next hour as its warm basis.
//! One chain per run: a chain is the unit of work, and a second chain in
//! the same process would find every hour already pooled.

use crate::common::{self, ms, Ctx};
use crate::outcome::Outcome;
use crate::probe::Probe;
use crate::scenario::{check, failed_subproblems, Pins, Scenario};
use ed_core::attack::optimal_attack;
use ed_powerflow::Network;
use ed_serve::chaos::percentile;
use std::time::Instant;

/// Per-hour pins of the 118-bus chain, from fresh pools-off sweeps of each
/// hour (a warm chain must reproduce the cold answers).
const IEEE118: [(usize, Pins); 3] = [
    (
        3,
        Pins {
            subproblems: &[
                (159, 1, -180.0),
                (159, -1, 1.501266551142),
                (137, 1, -13.619584957122),
                (137, -1, -177.050504691308),
                (32, 1, -12.102539293198),
                (32, -1, -180.0),
            ],
            ucap_pct: 1.501266551142,
            target: Some((159, -1)),
            certified: 6,
        },
    ),
    (
        4,
        Pins {
            subproblems: &[
                (159, 1, -180.0),
                (159, -1, 4.848627982618),
                (137, 1, -9.728320385915),
                (137, -1, -178.817375536619),
                (32, 1, -10.960650300855),
                (32, -1, -180.0),
            ],
            ucap_pct: 4.848627982618,
            target: Some((159, -1)),
            certified: 6,
        },
    ),
    (
        5,
        Pins {
            subproblems: &[
                (159, 1, -180.0),
                (159, -1, 5.742487711977),
                (137, 1, -7.964525078894),
                (137, -1, -180.0),
                (32, 1, -9.778506680673),
                (32, -1, -180.0),
            ],
            ucap_pct: 5.742487711977,
            target: Some((159, -1)),
            certified: 6,
        },
    ),
];

/// Per-hour pins of the 6-bus chain (smoke size), obtained the same way.
const SIX_BUS: [(usize, Pins); 2] = [
    (
        3,
        Pins {
            subproblems: &[
                (4, 1, -44.761183240535),
                (4, -1, -154.837118915055),
                (8, 1, -42.867477340917),
                (8, -1, -155.555555555556),
            ],
            ucap_pct: 0.0,
            target: None,
            certified: 4,
        },
    ),
    (
        4,
        Pins {
            subproblems: &[
                (4, 1, -43.134599985441),
                (4, -1, -155.555555555556),
                (8, 1, -39.630946003874),
                (8, -1, -155.555555555556),
            ],
            ucap_pct: 0.0,
            target: None,
            certified: 4,
        },
    ),
];

fn demand(net: &Network, hour: usize) -> Vec<f64> {
    let f = 0.9 + 0.15 * (std::f64::consts::PI * hour as f64 / 24.0).sin();
    net.buses().iter().map(|b| b.demand_mw * f).collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let build = if ctx.smoke {
        Scenario::six_bus
    } else {
        Scenario::ieee118
    };
    let hours: &[(usize, Pins)] = if ctx.smoke { &SIX_BUS } else { &IEEE118 };
    let mut probe = Probe::new(ctx);
    let s = common::setup(ctx, &mut probe, &mut out, |_| build(), drop);

    ed_obs::set_enabled(ctx.trace);
    let mark = ed_obs::mark();
    let mut handoff = None;
    // Wall time per hour, and the same at the reference speed.
    let (mut walls, mut scaled) = (Vec::new(), Vec::new());
    let (mut warm, mut cold, mut fallbacks, mut seed_iters, mut lp_iters, mut subproblems) =
        (0, 0, 0, 0, 0, 0);
    for (hour, pins) in hours {
        let mut config = s.config.clone().demand(demand(&s.net, *hour));
        config.options.warm_basis = handoff.take();
        // Traced runs keep the production reuse path: an explicit `false`
        // stops the sweep from attaching its own trace and skipping the
        // solution pool, while the recorder still counts every pool hit.
        config.options.trace = Some(false);
        let f = probe.factor();
        let t = Instant::now();
        let r = optimal_attack(&s.net, &config);
        walls.push(ms(t.elapsed()));
        scaled.push(ms(t.elapsed()) * f);
        out.attempted += pins.subproblems.len() as u64;
        subproblems += pins.subproblems.len();
        match r {
            Ok(r) => {
                out.failed += failed_subproblems(&r);
                out.check_all(check(&r, pins, &format!("hour {hour}")));
                warm += r.sweep.warm_starts;
                cold += r.sweep.cold_restarts;
                fallbacks += r.sweep.warm_fallbacks;
                seed_iters += r.sweep.seed_iterations;
                lp_iters += r.sweep.seed_iterations
                    + r.subproblems.iter().map(|p| p.lp_iterations).sum::<usize>();
                handoff = r.seed_basis;
            }
            Err(e) => {
                out.failed += pins.subproblems.len() as u64;
                out.errors.push(format!("hour {hour}: {e}"));
            }
        }
    }
    if !ctx.trace {
        out.set("latency_p50_ms", percentile(&scaled, 50.0));
        out.set(
            "throughput_per_s",
            subproblems as f64 / (scaled.iter().sum::<f64>() / 1e3),
        );
        return out;
    }
    let report = ed_obs::report_since(&mark);
    ed_obs::set_enabled(false);
    out.set("chain.hour_first_s", walls[0] / 1e3);
    out.set("chain.handoff_hour_s", percentile(&walls[1..], 50.0) / 1e3);
    out.set("chain.warm_starts", warm as f64);
    out.set("chain.cold_restarts", cold as f64);
    out.set("chain.warm_fallbacks", fallbacks as f64);
    out.set("chain.seed_iterations", seed_iters as f64);
    out.set("chain.lp_iterations", lp_iters as f64);
    common::solver_layers(&mut out, &report);
    common::write_trace(&mut out, "chain118", &report);
    out
}
