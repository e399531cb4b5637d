//! Reference-weight (devex) row pricing for the dual simplex.
//!
//! Devex (Harris 1973) approximates steepest-edge pricing without the
//! per-iteration norm recomputation: each candidate keeps a reference
//! weight `w_i >= 1` approximating the squared norm of its edge direction,
//! and selection maximizes `g_i^2 / w_i` for gradient `g_i` (a basic
//! variable's bound violation). After a pivot the weights of the touched
//! basis rows are raised by the standard devex recurrence
//! `w_i = max(w_i, (alpha_i / alpha_p)^2 * w_p)`, read off the entering
//! column. The primal simplex prices by Dantzig's rule, falling back to
//! Bland's on a degenerate run.

/// Devex reference weights over the basis positions.
#[derive(Debug, Clone)]
pub(crate) struct DevexWeights {
    w: Vec<f64>,
}

impl DevexWeights {
    /// Fresh reference framework: every weight 1 (Dantzig-equivalent until
    /// pivots differentiate the weights).
    pub(crate) fn new(len: usize) -> DevexWeights {
        DevexWeights { w: vec![1.0; len] }
    }

    /// Selection score for candidate `i` with gradient `g`.
    pub(crate) fn score(&self, i: usize, g: f64) -> f64 {
        g * g / self.w[i]
    }

    /// Devex update after a pivot at index `p` with pivot element `alpha_p`:
    /// every touched candidate `(i, alpha_i)` has its weight raised to at
    /// least `(alpha_i / alpha_p)^2 * w_p`, and the pivot index itself is
    /// re-weighted to `max(1, w_p / alpha_p^2)` (the leaving candidate's
    /// edge in the new frame).
    pub(crate) fn pivot_update<I>(&mut self, p: usize, alpha_p: f64, touched: I)
    where
        I: Iterator<Item = (usize, f64)>,
    {
        if alpha_p.abs() < 1e-300 {
            return; // degenerate pivot element: leave the frame unchanged
        }
        let wp = self.w[p];
        let inv2 = 1.0 / (alpha_p * alpha_p);
        for (i, alpha_i) in touched {
            if i == p {
                continue;
            }
            let cand = alpha_i * alpha_i * inv2 * wp;
            if cand > self.w[i] {
                self.w[i] = cand;
            }
        }
        self.w[p] = (wp * inv2).max(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_start_uniform_and_update_monotonically() {
        let mut d = DevexWeights::new(3);
        assert_eq!(d.score(0, 2.0), 4.0);
        // Pivot at index 1 with alpha_p = 0.5: index 0 touched with alpha 2.
        d.pivot_update(1, 0.5, [(0, 2.0)].into_iter());
        // w_0 = max(1, (2/0.5)^2 * 1) = 16; w_1 = max(1, 1/0.25) = 4.
        assert_eq!(d.score(0, 2.0), 4.0 / 16.0);
        assert_eq!(d.score(1, 2.0), 1.0);
        // Weights never drop below 1, so scores never exceed g^2.
        d.pivot_update(2, 100.0, std::iter::empty());
        assert!(d.score(2, 1.0) <= 1.0);
    }
}
