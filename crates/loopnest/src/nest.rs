//! The perfectly nested loop model of the paper (§2.1).
//!
//! An algorithm is an `n`-deep perfect nest over a convex iteration space
//! `J^n ⊂ Zⁿ` with uniform constant dependencies `D = {d_1, …, d_q}`. The
//! dependence matrix stores the dependence vectors as columns.

use tilecc_linalg::vecops::is_lex_positive;
use tilecc_linalg::{IMat, Rational};
use tilecc_polytope::{Constraint, LoopNestBounds, Polyhedron, PolytopeError};

/// A perfect loop nest: iteration space plus uniform dependence matrix.
#[derive(Clone, Debug)]
pub struct LoopNest {
    dim: usize,
    space: Polyhedron,
    /// `n × q`: column `i` is dependence vector `d_i`.
    deps: IMat,
}

impl LoopNest {
    /// Create a nest; validates dimensions and that every dependence vector
    /// is lexicographically positive (sequential execution in lexicographic
    /// order is legal).
    pub fn new(space: Polyhedron, deps: IMat) -> Self {
        let dim = space.dim();
        assert_eq!(
            deps.rows(),
            dim,
            "dependence vectors must have the nest's dimension"
        );
        for q in 0..deps.cols() {
            let d = deps.col(q);
            assert!(
                is_lex_positive(&d),
                "dependence vector {d:?} is not lexicographically positive"
            );
        }
        LoopNest { dim, space, deps }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn space(&self) -> &Polyhedron {
        &self.space
    }

    #[inline]
    pub fn deps(&self) -> &IMat {
        &self.deps
    }

    /// Number of dependence vectors `q`.
    #[inline]
    pub fn num_deps(&self) -> usize {
        self.deps.cols()
    }

    /// Apply a unimodular skewing transformation `T`: iterations `j` become
    /// `j' = T·j`, dependence vectors become `T·d`, and the iteration space
    /// constraints are rewritten via `j = T⁻¹·j'`.
    ///
    /// # Panics
    /// Panics if `T` is not unimodular (|det| = 1).
    pub fn skew(&self, t: &IMat) -> LoopNest {
        assert!(
            t.is_square() && t.rows() == self.dim,
            "skewing matrix shape mismatch"
        );
        assert_eq!(t.det().abs(), 1, "skewing matrix must be unimodular");
        let t_inv = t.inverse(); // integral because T is unimodular
        let t_inv_i = t_inv.to_imat();
        let mut space = Polyhedron::universe(self.dim);
        for c in self.space.constraints() {
            // a·j + b ≥ 0 with j = T⁻¹·j'  ⇒  (a·T⁻¹)·j' + b ≥ 0.
            let a: Vec<Rational> = (0..self.dim)
                .map(|col| {
                    let mut acc = Rational::ZERO;
                    for row in 0..self.dim {
                        acc += Rational::from_int(c.coeff(row)) * t_inv[(row, col)];
                    }
                    acc
                })
                .collect();
            space.add(
                Constraint::from_rationals(&a, Rational::from_int(c.constant()))
                    .expect("unimodular skewing keeps coefficients in i64"),
            );
        }
        let deps = t.mul(&self.deps);
        // Sanity: unimodular skewing maps integer points bijectively.
        debug_assert_eq!(t_inv_i.mul(t), IMat::identity(self.dim));
        LoopNest::new(space, deps)
    }

    /// Precompute loop bounds for lexicographic scanning.
    ///
    /// # Panics
    /// Panics on coefficient overflow; plan construction validates the space
    /// through [`LoopNest::try_bounds`] first, so post-plan callers can rely
    /// on this infallible form.
    pub fn bounds(&self) -> LoopNestBounds {
        self.try_bounds()
            .expect("loop bounds overflow: space not validated by plan construction")
    }

    /// Fallible form of [`LoopNest::bounds`], surfacing coefficient overflow
    /// from user-authored spaces as a typed error.
    pub fn try_bounds(&self) -> Result<LoopNestBounds, PolytopeError> {
        LoopNestBounds::new(&self.space)
    }

    /// Inclusive bounding box `(lo, hi)` of the iteration space.
    ///
    /// # Panics
    /// Panics if the space is empty or unbounded, or on coefficient overflow
    /// (see [`LoopNest::try_bounding_box`]).
    pub fn bounding_box(&self) -> (Vec<i64>, Vec<i64>) {
        self.try_bounding_box()
            .expect("bounding box overflow: space not validated by plan construction")
            .expect("iteration space must be non-empty and bounded")
    }

    /// Fallible form of [`LoopNest::bounding_box`]: `Err` on coefficient
    /// overflow, `Ok(None)` if the space is empty or unbounded.
    #[allow(clippy::type_complexity)]
    pub fn try_bounding_box(&self) -> Result<Option<(Vec<i64>, Vec<i64>)>, PolytopeError> {
        self.space.bounding_box()
    }

    /// Total number of integer points, exact: the lengths `h − a + 1` of
    /// the innermost ranges, summed with overflow checks. Walks at most
    /// [`MAX_COUNTED_RANGES`] ranges, so the count of a huge nest is a
    /// typed error, not a hang.
    pub fn num_points(&self) -> Result<u64, CountError> {
        let bounds = self.try_bounds()?;
        let mut runs = bounds.runs();
        let (mut total, mut walked) = (0u64, 0u64);
        while let Some((_, a, h)) = runs.next() {
            walked += 1;
            if walked > MAX_COUNTED_RANGES {
                return Err(CountError::TooManyRanges {
                    limit: MAX_COUNTED_RANGES,
                });
            }
            let len = u64::try_from(i128::from(h) - i128::from(a) + 1)
                .map_err(|_| CountError::Overflow)?;
            total = total.checked_add(len).ok_or(CountError::Overflow)?;
        }
        Ok(total)
    }
}

/// Most innermost ranges [`LoopNest::num_points`] walks before it gives up.
/// The cap bounds the time of the count itself (tens of milliseconds in a
/// release build), not what the nest may do: a nest past it can still be
/// planned and run, so callers that only report the count should carry on
/// without it.
pub const MAX_COUNTED_RANGES: u64 = 1 << 20;

/// Why [`LoopNest::num_points`] could not count a nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The loop bounds overflow `i64` coefficients.
    Polytope(PolytopeError),
    /// The nest has more than `limit` innermost ranges.
    TooManyRanges { limit: u64 },
    /// The point count exceeds `u64`.
    Overflow,
}

impl From<PolytopeError> for CountError {
    fn from(e: PolytopeError) -> Self {
        CountError::Polytope(e)
    }
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::Polytope(e) => write!(f, "{e}"),
            CountError::TooManyRanges { limit } => {
                write!(f, "more than {limit} innermost loop ranges to count")
            }
            CountError::Overflow => write!(f, "iteration count exceeds 2^64"),
        }
    }
}

impl std::error::Error for CountError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_nest() -> LoopNest {
        let space = Polyhedron::from_box(&[1, 1], &[4, 5]);
        let deps = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        LoopNest::new(space, deps)
    }

    #[test]
    fn num_points_of_box() {
        assert_eq!(box_nest().num_points(), Ok(4 * 5));
    }

    #[test]
    fn bounding_box_round_trip() {
        let (lo, hi) = box_nest().bounding_box();
        assert_eq!(lo, vec![1, 1]);
        assert_eq!(hi, vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "lexicographically positive")]
    fn rejects_non_positive_dependence() {
        let space = Polyhedron::from_box(&[0, 0], &[3, 3]);
        let deps = IMat::from_rows(&[&[0, 1], &[-1, 0]]); // (0,-1) is lex-negative
        let _ = LoopNest::new(space, deps);
    }

    #[test]
    fn skew_preserves_point_count_and_transforms_deps() {
        let nest = box_nest();
        let t = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let skewed = nest.skew(&t);
        assert_eq!(skewed.num_points(), nest.num_points());
        // d = (1,0) -> (1,1); d = (0,1) -> (0,1)
        assert_eq!(skewed.deps().col(0), vec![1, 1]);
        assert_eq!(skewed.deps().col(1), vec![0, 1]);
        // The image of an original point is in the skewed space.
        assert!(skewed.space().contains(&[2, 2 + 3])); // (2,3) -> (2,5)
        assert!(!skewed.space().contains(&[2, 2])); // (2,0) not in original
    }

    #[test]
    #[should_panic(expected = "unimodular")]
    fn skew_rejects_non_unimodular() {
        let nest = box_nest();
        let t = IMat::from_rows(&[&[2, 0], &[0, 1]]);
        let _ = nest.skew(&t);
    }
}
