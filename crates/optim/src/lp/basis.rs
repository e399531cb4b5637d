//! Typed simplex basis: the reusable hand-off unit for warm starts.
//!
//! A [`Basis`] records where every structural and slack column of a model
//! rested when a simplex solve finished (or when phase 1 ended): basic, at
//! its lower bound, at its upper bound, or free-at-zero. It is a *snapshot*
//! — no factorization is stored; installing a basis into a fresh tableau
//! re-factors the basis matrix from the current model data, so a basis
//! recorded against one model can be replayed against a sibling model that
//! changed only its objective (primal-feasible start) or only its bounds
//! (dual-feasible start, resolved by the dual simplex). Branch and bound
//! alone skips that factorization: beside each node's basis it carries,
//! privately, the factor its parent's solve finished with, which is the
//! factor the install would compute.
//!
//! Installation is **fail-safe**: any mismatch — wrong dimensions, wrong
//! basic count, a bound status pointing at an infinite bound, a singular
//! basis matrix — rejects the warm start and the caller falls back to a
//! cold two-phase solve. Trust semantics never depend on a warm start
//! being valid.

/// Where one column rests in a recorded basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis (value solved from the constraints).
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Free nonbasic column resting at zero.
    FreeZero,
}

/// A recorded simplex basis over a model's structural + slack columns.
///
/// `statuses[j]` covers the structural variables first (`0..n`), then one
/// slack per row (`n..n+m`). Rows whose zero-valued artificial column could
/// not be pivoted out (redundant rows) are listed in `art_rows` so a warm
/// install can recreate exactly the same basis matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Basis {
    /// Status per structural + slack column.
    pub statuses: Vec<BasisStatus>,
    /// `(row, sign)` for rows whose artificial column stayed basic at zero
    /// after phase 1 (redundant rows); `sign` is the artificial column's
    /// ±1 entry.
    pub art_rows: Vec<(u32, i8)>,
}

impl Basis {
    /// Number of basic columns recorded (including basic artificials) —
    /// must equal the row count `m` to be installable.
    pub fn num_basic(&self) -> usize {
        self.statuses.iter().filter(|s| matches!(s, BasisStatus::Basic)).count()
            + self.art_rows.len()
    }

    /// `true` when this basis was recorded against a model with
    /// `n` structural variables and `m` rows.
    pub fn dims_match(&self, n: usize, m: usize) -> bool {
        self.statuses.len() == n + m && self.num_basic() == m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_basic_count() {
        let b = Basis {
            statuses: vec![
                BasisStatus::Basic,
                BasisStatus::AtLower,
                BasisStatus::AtUpper,
                BasisStatus::FreeZero,
                BasisStatus::Basic,
            ],
            art_rows: vec![(2, 1)],
        };
        assert_eq!(b.num_basic(), 3);
        assert!(b.dims_match(2, 3));
        assert!(!b.dims_match(2, 2), "basic count must equal m");
        assert!(!b.dims_match(3, 3), "length must equal n + m");
    }
}
