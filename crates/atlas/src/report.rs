//! The machine-readable `AtlasReport` — deterministic by construction.
//!
//! Determinism rules, enforced here and relied on by the resume tests:
//!
//! - Rows carry only solver-invariant content: violation, tier reached,
//!   certificate tallies, retries. **No wall-clock anywhere** (timing
//!   lives in the ed-obs `atlas.run` and `atlas.cell` spans only).
//! - A row is serialized exactly once, when the cell completes; the
//!   journal stores that string verbatim and a resumed run re-emits it
//!   byte-for-byte instead of re-serializing.
//! - Rows appear in cell-index order, one per line, and the assembly
//!   refuses any gap — the zero-silent-holes invariant is checked at the
//!   single place every row must pass through.

use crate::cell::{CellFault, Solved, Tier, UntestableReason};
use crate::engine::AtlasError;
use crate::grid::AtlasSpec;
use ed_obs::{escape, num};
use std::io;
use std::path::Path;

/// Coarse row classification (mirrors the `outcome` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// A violation value (possibly proven zero or a labeled bound).
    Completed,
    /// Dispatch infeasible at this operating point.
    Infeasible,
    /// Cell cannot be posed (islanded / outage is a DLR line).
    Untestable,
    /// Faulted repeatedly; quarantined with a typed fault.
    Quarantined,
}

impl RowKind {
    /// Stable lowercase name, matching the row's `"outcome"` field.
    pub fn as_str(self) -> &'static str {
        match self {
            RowKind::Completed => "completed",
            RowKind::Infeasible => "infeasible",
            RowKind::Untestable => "untestable",
            RowKind::Quarantined => "quarantined",
        }
    }

    fn parse(s: &str) -> Option<RowKind> {
        match s {
            "completed" => Some(RowKind::Completed),
            "infeasible" => Some(RowKind::Infeasible),
            "untestable" => Some(RowKind::Untestable),
            "quarantined" => Some(RowKind::Quarantined),
            _ => None,
        }
    }
}

/// One report row: the serialized JSON plus the parsed summary facets.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Global cell index.
    pub cell: usize,
    /// The row JSON, serialized exactly once.
    pub json: String,
    /// Outcome classification.
    pub kind: RowKind,
    /// Tier reached (completed rows only).
    pub tier: Option<Tier>,
    /// Violation value (completed rows only).
    pub violation_pct: Option<f64>,
    /// Whether the violation is only the screening bound.
    pub bound_only: bool,
    /// Retries spent before the row was produced.
    pub retries: u32,
    /// `true` when this row was replayed from the journal (run-local
    /// bookkeeping; never serialized).
    pub recovered: bool,
}

/// Grid coordinates of one cell, for row serialization.
pub struct Coords<'a> {
    /// Case name.
    pub case: &'a str,
    /// E_D subset (base-network line indices).
    pub ed: &'a [usize],
    /// Outage column, `None` = intact.
    pub outage: Option<usize>,
    /// Hour of day of the scenario step.
    pub hour: f64,
}

fn prefix(cell: usize, coords: &Coords<'_>) -> String {
    let ed: Vec<String> = coords.ed.iter().map(usize::to_string).collect();
    let outage = match coords.outage {
        Some(k) => k.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"cell\":{cell},\"case\":\"{}\",\"ed\":[{}],\"outage\":{outage},\"hour\":{}",
        escape(coords.case),
        ed.join(","),
        num(coords.hour),
    )
}

/// Serializes a completed cell.
pub fn completed_record(
    cell: usize,
    coords: &Coords<'_>,
    s: &Solved,
    retries: u32,
) -> CellRecord {
    let target = match s.target {
        Some((l, d)) => format!("{{\"line\":{l},\"direction\":{d}}}"),
        None => "null".to_string(),
    };
    let json = format!(
        "{},\"outcome\":\"completed\",\"tier\":\"{}\",\"violation_pct\":{},\"overload_mw\":{},\
         \"target\":{target},\"proved\":{},\"bound_only\":{},\"certified\":{},\
         \"cert_repaired\":{},\"budget_faults\":{},\"numerical_faults\":{},\
         \"screen_bound_pct\":{},\"retries\":{retries}}}",
        prefix(cell, coords),
        s.tier.as_str(),
        num(s.violation_pct),
        num(s.overload_mw),
        s.proved,
        s.bound_only,
        s.certified,
        s.cert_repaired,
        s.budget_faults,
        s.numerical_faults,
        num(s.screen_bound_pct),
    );
    CellRecord {
        cell,
        json,
        kind: RowKind::Completed,
        tier: Some(s.tier),
        violation_pct: Some(s.violation_pct),
        bound_only: s.bound_only,
        retries,
        recovered: false,
    }
}

/// Serializes an infeasible cell.
pub fn infeasible_record(cell: usize, coords: &Coords<'_>, retries: u32) -> CellRecord {
    let json = format!("{},\"outcome\":\"infeasible\",\"retries\":{retries}}}", prefix(cell, coords));
    CellRecord {
        cell,
        json,
        kind: RowKind::Infeasible,
        tier: None,
        violation_pct: None,
        bound_only: false,
        retries,
        recovered: false,
    }
}

/// Serializes an untestable cell.
pub fn untestable_record(
    cell: usize,
    coords: &Coords<'_>,
    reason: UntestableReason,
) -> CellRecord {
    let json = format!(
        "{},\"outcome\":\"untestable\",\"reason\":\"{}\",\"retries\":0}}",
        prefix(cell, coords),
        reason.as_str(),
    );
    CellRecord {
        cell,
        json,
        kind: RowKind::Untestable,
        tier: None,
        violation_pct: None,
        bound_only: false,
        retries: 0,
        recovered: false,
    }
}

/// Serializes a quarantined cell — a first-class row, never a hole.
pub fn quarantined_record(
    cell: usize,
    coords: &Coords<'_>,
    fault: &CellFault,
    attempts: u32,
) -> CellRecord {
    let (kind, detail) = fault.describe();
    let json = format!(
        "{},\"outcome\":\"quarantined\",\"fault\":\"{kind}\",\"detail\":\"{}\",\"attempts\":{attempts},\"retries\":{}}}",
        prefix(cell, coords),
        escape(&detail),
        attempts.saturating_sub(1),
    );
    CellRecord {
        cell,
        json,
        kind: RowKind::Quarantined,
        tier: None,
        violation_pct: None,
        bound_only: false,
        retries: attempts.saturating_sub(1),
        recovered: false,
    }
}

fn extract_str<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = row.find(&pat)? + pat.len();
    let end = row[start..].find('"')?;
    Some(&row[start..start + end])
}

fn extract_num(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Rehydrates a row recovered verbatim from the journal.
///
/// # Errors
///
/// A description of the malformation, when the journaled row does not
/// carry the fields every row must have (a corrupt journal must surface,
/// not silently produce a hole).
pub fn recovered_record(cell: usize, json: String) -> Result<CellRecord, String> {
    let kind = extract_str(&json, "outcome")
        .and_then(RowKind::parse)
        .ok_or_else(|| format!("journaled row for cell {cell} has no outcome: {json}"))?;
    let recorded_cell = extract_num(&json, "cell").map(|v| v as usize);
    if recorded_cell != Some(cell) {
        return Err(format!(
            "journaled row index mismatch: record says {recorded_cell:?}, journal says {cell}"
        ));
    }
    let tier = extract_str(&json, "tier").and_then(Tier::parse);
    let violation_pct = extract_num(&json, "violation_pct");
    let bound_only = json.contains("\"bound_only\":true");
    let retries = extract_num(&json, "retries").map(|v| v as u32).unwrap_or(0);
    Ok(CellRecord { cell, json, kind, tier, violation_pct, bound_only, retries, recovered: true })
}

/// The assembled atlas: spec echo, per-cell rows, summary.
#[derive(Debug)]
pub struct AtlasReport {
    /// Spec fingerprint (matches the journal header).
    pub spec_fingerprint: String,
    /// The grid spec the report was enumerated from.
    pub spec: AtlasSpec,
    /// All rows, in cell-index order, gap-free.
    pub rows: Vec<CellRecord>,
    /// Rows replayed from the journal in this run (run-local; not
    /// serialized — a resumed and an uninterrupted run must produce the
    /// same bytes). Counted from the rows, so a journaled result for a
    /// cell outside the grid is not counted.
    pub recovered_cells: usize,
}

impl AtlasReport {
    /// Assembles and validates the report: rows must be exactly
    /// `0..rows.len()` in order.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Worker`] naming the first hole or duplicate — this
    /// is the structural zero-silent-holes gate.
    pub fn assemble(
        spec: &AtlasSpec,
        fingerprint: &str,
        rows: Vec<CellRecord>,
    ) -> Result<AtlasReport, AtlasError> {
        for (i, r) in rows.iter().enumerate() {
            if r.cell != i {
                return Err(AtlasError::Worker {
                    what: format!("silent hole: expected cell {i}, found {}", r.cell),
                });
            }
        }
        Ok(AtlasReport {
            spec_fingerprint: fingerprint.to_string(),
            spec: spec.clone(),
            recovered_cells: rows.iter().filter(|r| r.recovered).count(),
            rows,
        })
    }

    /// Quarantined rows.
    pub fn quarantined(&self) -> usize {
        self.rows.iter().filter(|r| r.kind == RowKind::Quarantined).count()
    }

    fn count(&self, kind: RowKind) -> usize {
        self.rows.iter().filter(|r| r.kind == kind).count()
    }

    fn summary_json(&self) -> String {
        let tier_count = |t: Tier| self.rows.iter().filter(|r| r.tier == Some(t)).count();
        let (mut max_v, mut argmax): (f64, Option<usize>) = (0.0, None);
        let mut attackable = 0usize;
        for r in &self.rows {
            if let Some(v) = r.violation_pct {
                if !r.bound_only && v > 1e-9 {
                    attackable += 1;
                    if v > max_v {
                        max_v = v;
                        argmax = Some(r.cell);
                    }
                }
            }
        }
        let retries_total: u64 = self.rows.iter().map(|r| u64::from(r.retries)).sum();
        format!(
            "{{\"cells\":{},\"completed\":{},\"infeasible\":{},\"untestable\":{},\
             \"quarantined\":{},\"tiers\":{{\"screen\":{},\"heuristic\":{},\"exact\":{}}},\
             \"bound_only\":{},\"attackable\":{},\"max_violation_pct\":{},\"argmax_cell\":{},\
             \"retries_total\":{retries_total}}}",
            self.rows.len(),
            self.count(RowKind::Completed),
            self.count(RowKind::Infeasible),
            self.count(RowKind::Untestable),
            self.count(RowKind::Quarantined),
            tier_count(Tier::Screen),
            tier_count(Tier::Heuristic),
            tier_count(Tier::Exact),
            self.rows.iter().filter(|r| r.bound_only).count(),
            attackable,
            num(max_v),
            argmax.map_or("null".to_string(), |c| c.to_string()),
        )
    }

    /// Serializes the full report — one row per line, summary last.
    /// Byte-identical across resumed and uninterrupted runs of the same
    /// spec (without a wall-clock deadline; see DESIGN.md §17).
    pub fn to_json(&self) -> String {
        let cases: Vec<String> =
            self.spec.cases.iter().map(|c| format!("\"{}\"", escape(c))).collect();
        let mut out = format!(
            "{{\"version\":1,\"spec_fingerprint\":\"{}\",\"grid\":{{\"cases\":[{}],\
             \"hours\":{},\"ed_k\":{},\"contingencies\":{},\"tier\":\"{}\",\"node_limit\":{},\
             \"retries\":{},\"band\":[{},{}],\"cells\":{}}},\n\"cells\":[\n",
            self.spec_fingerprint,
            cases.join(","),
            self.spec.hours,
            self.spec.ed_k,
            self.spec.contingencies,
            self.spec.tier.as_str(),
            self.spec.node_limit,
            self.spec.retries,
            num(self.spec.band.0),
            num(self.spec.band.1),
            self.rows.len(),
        );
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&r.json);
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\n\"summary\":");
        out.push_str(&self.summary_json());
        out.push_str("}\n");
        out
    }

    /// Writes the report atomically (temp file + rename), so a crash
    /// during report writing never leaves a half-report at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords() -> Coords<'static> {
        Coords { case: "three_bus", ed: &[1, 2], outage: None, hour: 8.0 }
    }

    fn solved() -> Solved {
        Solved {
            tier: Tier::Exact,
            violation_pct: 33.33333333333333,
            overload_mw: 50.0,
            target: Some((2, 1)),
            proved: true,
            bound_only: false,
            certified: 4,
            cert_repaired: 0,
            budget_faults: 0,
            numerical_faults: 0,
            screen_bound_pct: 33.33333333333333,
            seed_basis: None,
        }
    }

    #[test]
    fn completed_row_roundtrips_through_recovery() {
        let rec = completed_record(7, &coords(), &solved(), 1);
        let back = recovered_record(7, rec.json.clone()).unwrap();
        assert_eq!(back.kind, RowKind::Completed);
        assert_eq!(back.tier, Some(Tier::Exact));
        assert_eq!(back.violation_pct, Some(33.33333333333333));
        assert_eq!(back.retries, 1);
        assert!(back.recovered);
        assert_eq!(back.json, rec.json, "recovery must be byte-preserving");
    }

    #[test]
    fn quarantined_row_is_typed_with_escaped_detail() {
        let fault = CellFault::Panic("injected \"quoted\"\nfault".into());
        let rec = quarantined_record(3, &coords(), &fault, 3);
        assert_eq!(rec.kind, RowKind::Quarantined);
        assert!(rec.json.contains("\"fault\":\"panic\""), "{}", rec.json);
        assert!(rec.json.contains("\\\"quoted\\\"\\n"), "{}", rec.json);
        assert_eq!(rec.retries, 2);
        let back = recovered_record(3, rec.json.clone()).unwrap();
        assert_eq!(back.kind, RowKind::Quarantined);
    }

    #[test]
    fn recovery_refuses_mismatched_or_malformed_rows() {
        let rec = completed_record(7, &coords(), &solved(), 0);
        assert!(recovered_record(8, rec.json).is_err(), "index mismatch must refuse");
        assert!(recovered_record(0, "{\"cell\":0}".to_string()).is_err(), "no outcome");
    }

    #[test]
    fn assembly_rejects_holes() {
        let spec = AtlasSpec::default();
        let r0 = completed_record(0, &coords(), &solved(), 0);
        let r2 = completed_record(2, &coords(), &solved(), 0);
        let err = AtlasReport::assemble(&spec, "f", vec![r0, r2]).unwrap_err();
        assert!(err.to_string().contains("silent hole"), "{err}");
    }

    #[test]
    fn report_json_is_deterministic_and_wall_clock_free() {
        let spec = AtlasSpec::default();
        let rows = vec![
            completed_record(0, &coords(), &solved(), 0),
            infeasible_record(1, &coords(), 0),
            untestable_record(2, &coords(), UntestableReason::Islanded),
        ];
        let a = AtlasReport::assemble(&spec, "fp", rows.clone()).unwrap();
        let replayed = rows.into_iter().map(|r| CellRecord { recovered: true, ..r }).collect();
        let b = AtlasReport::assemble(&spec, "fp", replayed).unwrap();
        assert_eq!((a.recovered_cells, b.recovered_cells), (0, 3));
        // recovered_cells is run-local: it must not leak into the bytes.
        assert_eq!(a.to_json(), b.to_json());
        for banned in ["_ms", "wall", "elapsed", "duration"] {
            assert!(!a.to_json().contains(banned), "wall-clock content in report: {banned}");
        }
    }
}
