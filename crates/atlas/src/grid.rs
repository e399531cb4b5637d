//! Grid enumeration: the (case × E_D subset × contingency × hour) axes.
//!
//! Everything here is a pure function of the [`AtlasSpec`]: candidate DLR
//! lines and outages are ranked by base-case loading with index
//! tie-breaks, scenarios come from the seeded `ed-dlr` profile
//! generators, and the spec fingerprint pins the whole enumeration so a
//! resumed run refuses a journal written for a different grid.

use crate::cell::Tier;
use crate::engine::AtlasError;
use ed_core::dispatch::DcOpf;
use ed_cases::KNOWN_CASES;
use ed_dlr::{DemandProfile, DlrProfile, Scenario, ScenarioBuilder};
use ed_powerflow::{LineId, Network};

/// The full specification of one atlas grid. Two runs with equal specs
/// enumerate exactly the same cells in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasSpec {
    /// Case families to sweep (see [`KNOWN_CASES`]).
    pub cases: Vec<String>,
    /// Time steps over the 24 h profiles (24 = hourly, 96 = 15-minute).
    pub hours: usize,
    /// Number of top-loaded candidate DLR lines per case; the E_D axis
    /// enumerates each candidate as a singleton plus the full set.
    pub ed_k: usize,
    /// Number of top-loaded single-line outages per case (the base "no
    /// outage" column is always present).
    pub contingencies: usize,
    /// Deepest degradation tier cells may reach.
    pub tier: Tier,
    /// Branch-and-bound node budget per bilevel subproblem.
    pub node_limit: usize,
    /// Retries (beyond the first attempt) before a faulting cell is
    /// quarantined.
    pub retries: u32,
    /// Permissible DLR band as fractions of the static rating:
    /// `u^min = band.0·u^s`, `u^max = band.1·u^s` per line.
    pub band: (f64, f64),
}

impl Default for AtlasSpec {
    fn default() -> AtlasSpec {
        AtlasSpec {
            cases: vec!["three_bus".into()],
            hours: 24,
            ed_k: 2,
            contingencies: 2,
            tier: Tier::Exact,
            node_limit: 20_000,
            retries: 2,
            band: (0.75, 1.25),
        }
    }
}

impl AtlasSpec {
    /// Rejects specs that cannot enumerate a grid.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Grid`] with the offending field.
    pub fn validate(&self) -> Result<(), AtlasError> {
        if self.cases.is_empty() {
            return Err(AtlasError::Grid { what: "no cases to sweep".into() });
        }
        for c in &self.cases {
            if !KNOWN_CASES.contains(&c.as_str()) {
                return Err(AtlasError::Grid {
                    what: format!("unknown case '{c}' (known: {KNOWN_CASES:?})"),
                });
            }
        }
        if self.hours == 0 {
            return Err(AtlasError::Grid { what: "hours must be at least 1".into() });
        }
        if self.ed_k == 0 {
            return Err(AtlasError::Grid { what: "ed_k must be at least 1".into() });
        }
        let (lo, hi) = self.band;
        if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || lo > hi {
            return Err(AtlasError::Grid { what: format!("bad permissible band [{lo}, {hi}]") });
        }
        Ok(())
    }

    /// Stable hex fingerprint of the grid this spec enumerates. Written
    /// into the journal header and the report; a resume with a different
    /// spec is refused instead of silently mixing two grids.
    pub fn fingerprint(&self) -> String {
        let canon = format!(
            "atlas-v1|cases={}|hours={}|ed_k={}|cont={}|tier={}|nodes={}|retries={}|band={}:{}",
            self.cases.join(","),
            self.hours,
            self.ed_k,
            self.contingencies,
            self.tier.as_str(),
            self.node_limit,
            self.retries,
            self.band.0,
            self.band.1,
        );
        format!("{:016x}", ed_powerflow::fnv1a(canon.bytes()))
    }
}

/// The per-case slice of the grid: network, ranked candidates, outage
/// list, and one scenario per E_D subset.
pub struct CaseGrid {
    /// Case name.
    pub case: String,
    /// The intact network.
    pub net: Network,
    /// Static ratings (permissible-band anchors).
    pub static_ratings: Vec<f64>,
    /// Top-`ed_k` candidate DLR lines, in ascending line-index order.
    pub candidates: Vec<usize>,
    /// E_D subsets: each candidate as a singleton, then the full
    /// candidate set (when more than one candidate exists).
    pub ed_subsets: Vec<Vec<usize>>,
    /// Contingency column: `None` (intact) first, then the top-loaded
    /// outages. Bridges and candidate overlaps are *kept* — the cell
    /// layer types them instead of hiding them.
    pub outages: Vec<Option<usize>>,
    /// One 24 h scenario per E_D subset (parallel to `ed_subsets`).
    pub scenarios: Vec<Scenario>,
}

impl CaseGrid {
    /// Builds the grid slice for `case` under `spec`.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Grid`] when the case is unknown or its base-case
    /// dispatch (used for candidate ranking) fails.
    pub fn build(case: &str, spec: &AtlasSpec) -> Result<CaseGrid, AtlasError> {
        let _t = ed_obs::timer("atlas.grid.build");
        let net = ed_cases::by_name(case)
            .ok_or_else(|| AtlasError::Grid { what: format!("unknown case '{case}'") })?;
        let base = DcOpf::new(&net)
            .solve()
            .map_err(|e| AtlasError::Grid { what: format!("base dispatch of '{case}': {e}") })?;
        let static_ratings = net.static_ratings_mva();

        // Rank lines by base-case loading |f|/u^s, descending, ties by
        // index: deterministic and cheap, and the most-loaded lines are
        // both the most interesting DLR targets and the most consequential
        // outages.
        let mut rank: Vec<usize> = (0..net.num_lines()).collect();
        let loading =
            |l: usize| (base.flows_mw[l].abs() / static_ratings[l].max(f64::MIN_POSITIVE), l);
        rank.sort_by(|&a, &b| {
            let (la, _) = loading(a);
            let (lb, _) = loading(b);
            lb.partial_cmp(&la).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });

        let k = spec.ed_k.min(net.num_lines());
        let mut candidates = rank[..k].to_vec();
        candidates.sort_unstable();

        let mut ed_subsets: Vec<Vec<usize>> = candidates.iter().map(|&l| vec![l]).collect();
        if candidates.len() > 1 {
            ed_subsets.push(candidates.clone());
        }

        let mut outages: Vec<Option<usize>> = vec![None];
        outages.extend(rank.iter().take(spec.contingencies.min(net.num_lines())).map(|&l| Some(l)));

        // One scenario per subset: the paper's double-peak demand plus a
        // sinusoidal DLR pattern per line, phased by candidate rank so
        // sibling lines never peak together (Figure 4a's "certain offset
        // between the two").
        let total = net.total_demand_mw();
        let scenarios = ed_subsets
            .iter()
            .map(|subset| {
                let mut sb = ScenarioBuilder::new(&net)
                    .steps(spec.hours)
                    .demand(DemandProfile::double_peak(total));
                for &l in subset {
                    let pos = candidates.iter().position(|&c| c == l).unwrap_or(0);
                    let phase = 24.0 * pos as f64 / k.max(1) as f64;
                    sb = sb.dlr(
                        LineId(l),
                        DlrProfile::sinusoidal(
                            spec.band.0 * static_ratings[l],
                            spec.band.1 * static_ratings[l],
                            phase,
                        ),
                    );
                }
                sb.build()
            })
            .collect();

        Ok(CaseGrid {
            case: case.to_string(),
            net,
            static_ratings,
            candidates,
            ed_subsets,
            outages,
            scenarios,
        })
    }

    /// Cells this grid slice contributes (`subsets × outages × hours`).
    pub fn cell_count(&self, hours: usize) -> usize {
        self.ed_subsets.len() * self.outages.len() * hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_fingerprint_is_stable_and_sensitive() {
        let a = AtlasSpec::default();
        let b = AtlasSpec::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = AtlasSpec { hours: 12, ..AtlasSpec::default() };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// Journal headers written by earlier builds carry this value; a resume
    /// against them must keep matching byte for byte.
    #[test]
    fn default_spec_fingerprint_is_pinned() {
        assert_eq!(AtlasSpec::default().fingerprint(), "ab3227e1fda275bd");
    }

    #[test]
    fn bad_specs_are_typed() {
        for spec in [
            AtlasSpec { cases: vec![], ..AtlasSpec::default() },
            AtlasSpec { cases: vec!["nope".into()], ..AtlasSpec::default() },
            AtlasSpec { hours: 0, ..AtlasSpec::default() },
            AtlasSpec { ed_k: 0, ..AtlasSpec::default() },
            AtlasSpec { band: (0.0, 1.0), ..AtlasSpec::default() },
            AtlasSpec { band: (1.5, 1.0), ..AtlasSpec::default() },
        ] {
            assert!(matches!(spec.validate(), Err(AtlasError::Grid { .. })), "{spec:?}");
        }
        assert!(AtlasSpec::default().validate().is_ok());
    }

    #[test]
    fn grid_is_deterministic_and_well_formed() {
        let spec = AtlasSpec { hours: 4, ..AtlasSpec::default() };
        let g1 = CaseGrid::build("three_bus", &spec).unwrap();
        let g2 = CaseGrid::build("three_bus", &spec).unwrap();
        assert_eq!(g1.candidates, g2.candidates);
        assert_eq!(g1.ed_subsets, g2.ed_subsets);
        assert_eq!(g1.outages, g2.outages);
        // 2 candidates → 2 singletons + 1 pair; base + 2 outages; 4 hours.
        assert_eq!(g1.ed_subsets.len(), 3);
        assert_eq!(g1.outages.len(), 3);
        assert_eq!(g1.cell_count(spec.hours), 3 * 3 * 4);
        assert_eq!(g1.scenarios.len(), g1.ed_subsets.len());
        for s in &g1.scenarios {
            assert_eq!(s.len(), spec.hours);
        }
        // Ratings on DLR lines stay inside the permissible band.
        for (subset, s) in g1.ed_subsets.iter().zip(&g1.scenarios) {
            for step in s.steps() {
                for &l in subset {
                    let (lo, hi) =
                        (0.75 * g1.static_ratings[l], 1.25 * g1.static_ratings[l]);
                    assert!(step.ratings_mw[l] >= lo - 1e-9 && step.ratings_mw[l] <= hi + 1e-9);
                }
            }
        }
    }

    #[test]
    fn ed_k_is_clamped_to_line_count() {
        let spec = AtlasSpec { ed_k: 99, hours: 2, contingencies: 0, ..AtlasSpec::default() };
        let g = CaseGrid::build("three_bus", &spec).unwrap();
        assert_eq!(g.candidates.len(), 3);
        assert_eq!(g.ed_subsets.len(), 4, "3 singletons + full set");
        assert_eq!(g.outages, vec![None]);
    }
}
