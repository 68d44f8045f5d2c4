#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! Integer lattices and enumeration of lattice points inside boxes.
//!
//! The TTIS of the paper is the image of `Zⁿ` under the integer matrix `H'`,
//! i.e. the column lattice of `H'`, intersected with the box `[0, v)`.
//! Enumerating those points with the right strides and incremental offsets is
//! exactly a forward-substitution walk over the lower-triangular Hermite
//! basis `H̃'` — which is what the paper's generated loops do with
//! `STEP = c_k` and offsets `a_kl` (§2.3, Fig. 2).

use crate::hnf::{column_hnf, is_column_hnf};
use crate::imat::IMat;

/// A full-rank integer lattice in `Zⁿ`, stored via its lower-triangular
/// Hermite basis (columns span the lattice).
#[derive(Clone, Debug)]
pub struct Lattice {
    basis: IMat, // lower triangular, positive diagonal (column HNF)
}

impl Lattice {
    /// The lattice spanned by the columns of `m` (any non-singular square
    /// integer matrix).
    pub fn from_columns(m: &IMat) -> Self {
        let h = column_hnf(m).hnf;
        debug_assert!(is_column_hnf(&h));
        Lattice { basis: h }
    }

    /// The standard lattice `Zⁿ`.
    pub fn standard(n: usize) -> Self {
        Lattice {
            basis: IMat::identity(n),
        }
    }

    /// Lattice dimension.
    pub fn dim(&self) -> usize {
        self.basis.rows()
    }

    /// The stride of coordinate `k`: the diagonal entry `h̃_kk`, i.e. the
    /// paper's loop stride `c_k`.
    pub fn stride(&self, k: usize) -> i64 {
        self.basis[(k, k)]
    }

    /// The lattice index (number of integer points per lattice point).
    pub fn index(&self) -> i64 {
        (0..self.dim()).map(|k| self.basis[(k, k)]).product()
    }

    /// Solve `basis · m = j` by forward substitution. Returns `None` when `j`
    /// is not a lattice point.
    pub fn coordinates(&self, j: &[i64]) -> Option<Vec<i64>> {
        let n = self.dim();
        assert_eq!(j.len(), n, "dimension mismatch");
        let mut m = vec![0i64; n];
        for k in 0..n {
            let mut rem = j[k];
            for l in 0..k {
                rem = rem
                    .checked_sub(self.basis[(k, l)].checked_mul(m[l])?)
                    .expect("lattice coordinate overflow");
            }
            let d = self.basis[(k, k)];
            if rem.rem_euclid(d) != 0 {
                return None;
            }
            m[k] = rem.div_euclid(d);
        }
        Some(m)
    }

    /// True iff `j` lies on the lattice.
    pub fn contains(&self, j: &[i64]) -> bool {
        self.coordinates(j).is_some()
    }

    /// The lattice point with coordinates `m`.
    pub fn point(&self, m: &[i64]) -> Vec<i64> {
        self.basis.mul_vec(m)
    }

    /// Iterate all lattice points `j` with `lo_k ≤ j_k < hi_k` for every `k`,
    /// in lexicographic order of `j` (outermost coordinate slowest) — the
    /// same order as the paper's generated strided loops.
    pub fn points_in_box<'a>(&'a self, lo: &[i64], hi: &[i64]) -> LatticeBoxIter<'a> {
        let n = self.dim();
        assert_eq!(lo.len(), n, "dimension mismatch");
        assert_eq!(hi.len(), n, "dimension mismatch");
        LatticeBoxIter::new(self, lo.to_vec(), hi.to_vec())
    }

    /// Visit every lattice point of the box `[lo, hi)` in the same order as
    /// [`Lattice::points_in_box`], reusing one internal point buffer — no
    /// per-point allocation. This is the walk the compiled execution path
    /// uses at plan time to lower communication regions and tile traversals
    /// to flat indices.
    pub fn for_each_in_box(&self, lo: &[i64], hi: &[i64], mut f: impl FnMut(&[i64])) {
        let n = self.dim();
        assert_eq!(lo.len(), n, "dimension mismatch");
        assert_eq!(hi.len(), n, "dimension mismatch");
        let mut it = LatticeBoxIter::new(self, lo.to_vec(), hi.to_vec());
        while !it.done {
            f(&it.point);
            it.advance();
        }
    }

    /// Iterate the innermost rows of the box `[lo, hi)`: one item per
    /// lattice point of the outer `n−1` levels whose last-coordinate range
    /// is non-empty, as the row's first point and its length. The row's
    /// points step by [`Lattice::stride`]`(n−1)` along the last coordinate.
    /// Rows come in the order of [`Lattice::points_in_box`], and together
    /// hold exactly its points.
    pub fn rows_in_box<'a>(
        &'a self,
        lo: &[i64],
        hi: &[i64],
    ) -> impl Iterator<Item = (Vec<i64>, i64)> + 'a {
        let n = self.dim();
        assert_eq!(lo.len(), n, "dimension mismatch");
        assert_eq!(hi.len(), n, "dimension mismatch");
        let mut it = LatticeBoxIter::new(self, lo.to_vec(), hi.to_vec());
        std::iter::from_fn(move || {
            if it.done {
                return None;
            }
            let row = (it.point.clone(), it.m_hi[n - 1] - it.m[n - 1]);
            it.advance_below(n - 1);
            Some(row)
        })
    }
}

/// Iterator over lattice points in a half-open box (see
/// [`Lattice::points_in_box`]).
pub struct LatticeBoxIter<'a> {
    lat: &'a Lattice,
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Current multiplier vector (coordinates w.r.t. the Hermite basis); the
    /// resulting point is maintained incrementally in `point`.
    m: Vec<i64>,
    /// `m_hi[k]`: exclusive upper bound of `m[k]` for the current outer state.
    m_hi: Vec<i64>,
    point: Vec<i64>,
    done: bool,
}

impl<'a> LatticeBoxIter<'a> {
    fn new(lat: &'a Lattice, lo: Vec<i64>, hi: Vec<i64>) -> Self {
        let n = lat.dim();
        let mut it = LatticeBoxIter {
            lat,
            lo,
            hi,
            m: vec![0; n],
            m_hi: vec![0; n],
            point: vec![0; n],
            done: false,
        };
        if !it.seek(0) {
            it.done = true;
        }
        it
    }

    /// Partial coordinate `j_k` contribution from levels `< k`.
    fn partial(&self, k: usize) -> i64 {
        let mut acc = 0i64;
        for l in 0..k {
            acc += self.lat.basis[(k, l)] * self.m[l];
        }
        acc
    }

    /// Reset levels `k..n` to their first valid multipliers. Returns
    /// `Err(lvl)` when level `lvl` has an empty range for the current outer
    /// multipliers.
    fn rewind_from(&mut self, k: usize) -> Result<(), usize> {
        let n = self.lat.dim();
        for lvl in k..n {
            let base = self.partial(lvl);
            let d = self.lat.basis[(lvl, lvl)]; // > 0
                                                // Need lo ≤ base + d·m < hi  ⇒  ceil((lo-base)/d) ≤ m < ceil((hi-base)/d)
            let m_lo = (self.lo[lvl] - base).div_euclid(d)
                + i64::from((self.lo[lvl] - base).rem_euclid(d) != 0);
            let m_hi = (self.hi[lvl] - base).div_euclid(d)
                + i64::from((self.hi[lvl] - base).rem_euclid(d) != 0);
            if m_lo >= m_hi {
                return Err(lvl);
            }
            self.m[lvl] = m_lo;
            self.m_hi[lvl] = m_hi;
            self.point[lvl] = base + d * m_lo;
        }
        Ok(())
    }

    /// Step the deepest level strictly below `lvl` that still has room,
    /// returning its index; `None` when the iteration is exhausted.
    fn step_below(&mut self, lvl: usize) -> Option<usize> {
        let mut k = lvl;
        while k > 0 {
            k -= 1;
            self.m[k] += 1;
            if self.m[k] < self.m_hi[k] {
                self.point[k] += self.lat.basis[(k, k)];
                return Some(k);
            }
        }
        None
    }

    /// Find the first valid configuration with all levels `≥ from` reset,
    /// backtracking across empty inner ranges. Returns false when exhausted.
    fn seek(&mut self, mut from: usize) -> bool {
        loop {
            match self.rewind_from(from) {
                Ok(()) => return true,
                Err(lvl) => match self.step_below(lvl) {
                    Some(stepped) => from = stepped + 1,
                    None => return false,
                },
            }
        }
    }

    /// Advance to the next multiplier vector.
    fn advance(&mut self) {
        self.advance_below(self.lat.dim());
    }

    /// Advance the levels above `lvl`, rewinding every level from the one
    /// stepped on (`lvl = n` steps to the next point, `lvl = n − 1` to the
    /// next innermost row).
    fn advance_below(&mut self, lvl: usize) {
        match self.step_below(lvl) {
            Some(k) => {
                if !self.seek(k + 1) {
                    self.done = true;
                }
            }
            None => self.done = true,
        }
    }
}

impl<'a> Iterator for LatticeBoxIter<'a> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.done {
            return None;
        }
        let out = self.point.clone();
        self.advance();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(lat: &Lattice, lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
        // Enumerate every integer point of the box and filter by membership.
        let n = lat.dim();
        let mut out = vec![];
        let mut p: Vec<i64> = lo.to_vec();
        'outer: loop {
            if lat.contains(&p) {
                out.push(p.clone());
            }
            for k in (0..n).rev() {
                p[k] += 1;
                if p[k] < hi[k] {
                    continue 'outer;
                }
                p[k] = lo[k];
                if k == 0 {
                    break 'outer;
                }
            }
        }
        out
    }

    #[test]
    fn standard_lattice_enumerates_full_box() {
        let lat = Lattice::standard(2);
        let pts: Vec<_> = lat.points_in_box(&[0, 0], &[2, 3]).collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[5], vec![1, 2]);
    }

    #[test]
    fn skewed_lattice_matches_brute_force() {
        let basis = IMat::from_rows(&[&[2, 0], &[1, 3]]);
        let lat = Lattice::from_columns(&basis);
        let fast: Vec<_> = lat.points_in_box(&[-3, -3], &[7, 8]).collect();
        let slow = brute_force(&lat, &[-3, -3], &[7, 8]);
        assert_eq!(fast, slow);
    }

    #[test]
    fn three_dimensional_lattice_matches_brute_force() {
        let basis = IMat::from_rows(&[&[2, 0, 0], &[1, 2, 0], &[0, 1, 3]]);
        let lat = Lattice::from_columns(&basis);
        let fast: Vec<_> = lat.points_in_box(&[0, 0, 0], &[6, 6, 6]).collect();
        let slow = brute_force(&lat, &[0, 0, 0], &[6, 6, 6]);
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
    }

    #[test]
    fn lexicographic_order() {
        let basis = IMat::from_rows(&[&[2, 0], &[1, 3]]);
        let lat = Lattice::from_columns(&basis);
        let pts: Vec<_> = lat.points_in_box(&[0, 0], &[8, 8]).collect();
        for w in pts.windows(2) {
            assert!(w[0] < w[1], "not lexicographically increasing: {:?}", w);
        }
    }

    #[test]
    fn coordinates_round_trip() {
        let basis = IMat::from_rows(&[&[3, 0], &[2, 5]]);
        let lat = Lattice::from_columns(&basis);
        for m in [[0i64, 0], [1, 2], [-3, 4], [7, -2]] {
            let j = lat.point(&m);
            let back = lat
                .coordinates(&j)
                .expect("lattice point must have coordinates");
            assert_eq!(lat.point(&back), j);
        }
        assert!(!lat.contains(&[1, 0]));
        assert!(lat.contains(&[3, 2]));
    }

    #[test]
    fn empty_box_yields_nothing() {
        let lat = Lattice::standard(3);
        assert_eq!(lat.points_in_box(&[0, 0, 0], &[0, 5, 5]).count(), 0);
        assert_eq!(lat.points_in_box(&[2, 2, 2], &[2, 2, 2]).count(), 0);
    }

    #[test]
    fn index_counts_density() {
        // Lattice of index 6 inside a 6x6 box should have 6 points.
        let basis = IMat::from_rows(&[&[2, 0], &[0, 3]]);
        let lat = Lattice::from_columns(&basis);
        assert_eq!(lat.index(), 6);
        assert_eq!(lat.points_in_box(&[0, 0], &[6, 6]).count(), 6);
    }

    #[test]
    fn for_each_matches_iterator() {
        let basis = IMat::from_rows(&[&[2, 0, 0], &[1, 2, 0], &[0, 1, 3]]);
        let lat = Lattice::from_columns(&basis);
        let lo = [-2i64, 0, -1];
        let hi = [5i64, 6, 7];
        let iter: Vec<_> = lat.points_in_box(&lo, &hi).collect();
        let mut walked = vec![];
        lat.for_each_in_box(&lo, &hi, |p| walked.push(p.to_vec()));
        assert_eq!(iter, walked);
    }

    #[test]
    fn rows_expand_to_the_box_points() {
        for (basis, lo, hi) in [
            (
                IMat::from_rows(&[&[2, 0, 0], &[1, 2, 0], &[0, 1, 3]]),
                vec![-2, 0, -1],
                vec![5, 6, 7],
            ),
            (
                IMat::from_rows(&[&[1, 0], &[5, 7]]),
                vec![0, 0],
                vec![10, 3],
            ),
            (IMat::from_rows(&[&[3]]), vec![-4], vec![9]),
        ] {
            let lat = Lattice::from_columns(&basis);
            let last = lat.dim() - 1;
            let mut expanded = vec![];
            for (start, len) in lat.rows_in_box(&lo, &hi) {
                assert!(len > 0, "empty row at {start:?}");
                for t in 0..len {
                    let mut p = start.clone();
                    p[last] += t * lat.stride(last);
                    expanded.push(p);
                }
            }
            assert_eq!(expanded, brute_force(&lat, &lo, &hi));
        }
    }

    #[test]
    fn backtracking_handles_sparse_inner_ranges() {
        // Strongly skewed basis where some outer values give empty inner
        // ranges in a narrow box.
        let basis = IMat::from_rows(&[&[1, 0], &[5, 7]]);
        let lat = Lattice::from_columns(&basis);
        let fast: Vec<_> = lat.points_in_box(&[0, 0], &[10, 3]).collect();
        let slow = brute_force(&lat, &[0, 0], &[10, 3]);
        assert_eq!(fast, slow);
    }
}
