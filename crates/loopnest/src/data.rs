#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! Dense global data space keyed by the iteration-space bounding box.
//!
//! Following the paper's model (§2.1), the write reference `f_w` is the
//! identity, so the Data Space `DS` coincides with the iteration space and a
//! value is stored per iteration point. The paper notes its single-statement
//! single-array presentation is "only a notational restriction"; here each
//! cell holds `width ≥ 1` components — one per written array — so multiple
//! statements over multiple arrays (e.g. the real ADI with `X` and `B`)
//! fit the same machinery. Parallel executions gather their Local Data
//! Spaces back into this structure for comparison against the sequential
//! execution.

use std::fmt;

/// A dense `f64` array over an axis-aligned integer box, `width` components
/// per cell.
#[derive(Clone)]
pub struct DataSpace {
    lo: Vec<i64>,
    extents: Vec<i64>,
    width: usize,
    vals: Vec<f64>,
    written: Vec<bool>,
}

impl DataSpace {
    /// Allocate a single-component data space covering the inclusive box
    /// `[lo, hi]`, initialized to zero / unwritten.
    pub fn new(lo: &[i64], hi: &[i64]) -> Self {
        DataSpace::with_width(lo, hi, 1)
    }

    /// Allocate with `width` components per cell.
    pub fn with_width(lo: &[i64], hi: &[i64], width: usize) -> Self {
        assert_eq!(lo.len(), hi.len());
        assert!(width >= 1, "data space needs at least one component");
        let extents: Vec<i64> = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| {
                assert!(h >= l, "empty data-space extent");
                h - l + 1
            })
            .collect();
        let total: i64 = extents.iter().product();
        let total = usize::try_from(total).expect("data space too large");
        DataSpace {
            lo: lo.to_vec(),
            extents,
            width,
            vals: vec![0.0; total * width],
            written: vec![false; total],
        }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Components per cell.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Linear cell index of point `j`, or `None` when outside the box.
    pub fn index(&self, j: &[i64]) -> Option<usize> {
        assert_eq!(j.len(), self.dim(), "data space dimension mismatch");
        let mut idx: i64 = 0;
        for k in 0..self.dim() {
            let off = j[k] - self.lo[k];
            if off < 0 || off >= self.extents[k] {
                return None;
            }
            idx = idx * self.extents[k] + off;
        }
        Some(idx as usize)
    }

    /// Read component 0 at `j` (scalar convenience); `None` outside the box
    /// or never written.
    pub fn get(&self, j: &[i64]) -> Option<f64> {
        let idx = self.index(j)?;
        self.written[idx].then(|| self.vals[idx * self.width])
    }

    /// Read all components at `j`.
    pub fn get_all(&self, j: &[i64]) -> Option<&[f64]> {
        let idx = self.index(j)?;
        self.written[idx].then(|| &self.vals[idx * self.width..(idx + 1) * self.width])
    }

    /// Write component 0 at `j` (scalar convenience; other components are
    /// left untouched).
    ///
    /// # Panics
    /// Panics if `j` is outside the box.
    pub fn set(&mut self, j: &[i64], v: f64) {
        let idx = self.index(j).expect("write outside data space");
        self.vals[idx * self.width] = v;
        self.written[idx] = true;
    }

    /// Write all components at `j`.
    ///
    /// # Panics
    /// Panics if `j` is outside the box or `v` has the wrong width.
    pub fn set_all(&mut self, j: &[i64], v: &[f64]) {
        assert_eq!(v.len(), self.width, "component width mismatch");
        let idx = self.index(j).expect("write outside data space");
        self.vals[idx * self.width..(idx + 1) * self.width].copy_from_slice(v);
        self.written[idx] = true;
    }

    /// Row-major cell weights: `index(j) = Σ_k (j_k − lo_k) · weights[k]`.
    pub fn weights(&self) -> Vec<i64> {
        let n = self.dim();
        let mut w = vec![1i64; n];
        for k in (0..n.saturating_sub(1)).rev() {
            w[k] = w[k + 1] * self.extents[k + 1];
        }
        w
    }

    /// Signed flat cell index of `j` with **no range check** — may be
    /// negative or past the allocation. Used as the per-tile base of the
    /// compiled gather: the base itself (a tile's origin corner) may fall
    /// outside the box, but base + offset is in range for every real point.
    pub fn flat_cell_signed(&self, j: &[i64]) -> i64 {
        assert_eq!(j.len(), self.dim(), "data space dimension mismatch");
        let weights = self.weights();
        (0..self.dim())
            .map(|k| (j[k] - self.lo[k]) * weights[k])
            .sum()
    }

    /// Bulk write of all components at flat cell index `cell` (as returned
    /// by [`DataSpace::index`] / [`DataSpace::flat_cell_signed`]), marking
    /// the cell written — the compiled gather's strided-copy primitive.
    ///
    /// # Panics
    /// Panics if `cell` is outside the allocation or `v` has the wrong
    /// width.
    pub fn write_cell(&mut self, cell: usize, v: &[f64]) {
        assert_eq!(v.len(), self.width, "component width mismatch");
        self.vals[cell * self.width..(cell + 1) * self.width].copy_from_slice(v);
        self.written[cell] = true;
    }

    /// Bulk write of `count` *consecutive* cells starting at flat index
    /// `cell` from `count·width` values, marking each cell written — the
    /// run-coalesced gather's block-move primitive.
    ///
    /// # Panics
    /// Panics if the range is outside the allocation or `v` has the wrong
    /// length.
    pub fn write_cells(&mut self, cell: usize, count: usize, v: &[f64]) {
        assert_eq!(v.len(), count * self.width, "component width mismatch");
        self.vals[cell * self.width..(cell + count) * self.width].copy_from_slice(v);
        self.written[cell..cell + count].fill(true);
    }

    /// The value and written-flag buffers, split for a scan that reads
    /// and writes cells by flat index (`vals` holds `width` values per
    /// cell).
    pub(crate) fn cells_mut(&mut self) -> (&mut [f64], &mut [bool]) {
        (&mut self.vals, &mut self.written)
    }

    /// The components of flat cell `cell` when it is written.
    ///
    /// # Panics
    /// Panics if `cell` is outside the allocation.
    pub fn written_cell(&self, cell: usize) -> Option<&[f64]> {
        self.written[cell].then(|| &self.vals[cell * self.width..(cell + 1) * self.width])
    }

    /// Number of cells in the box, written or not.
    pub fn num_cells(&self) -> usize {
        self.written.len()
    }

    /// Number of written cells.
    pub fn num_written(&self) -> usize {
        self.written.iter().filter(|&&w| w).count()
    }

    /// Exact equality of written cells (position and bit pattern across all
    /// components). Returns the first differing point if any.
    pub fn diff(&self, other: &DataSpace) -> Option<Vec<i64>> {
        assert_eq!(self.lo, other.lo, "data spaces cover different boxes");
        assert_eq!(
            self.extents, other.extents,
            "data spaces cover different boxes"
        );
        assert_eq!(self.width, other.width, "data spaces have different widths");
        for idx in 0..self.written.len() {
            let same = self.written[idx] == other.written[idx]
                && (!self.written[idx]
                    || (0..self.width).all(|c| {
                        self.vals[idx * self.width + c].to_bits()
                            == other.vals[idx * self.width + c].to_bits()
                    }));
            if !same {
                return Some(self.unindex(idx));
            }
        }
        None
    }

    /// Inverse of [`DataSpace::index`].
    pub fn unindex(&self, mut idx: usize) -> Vec<i64> {
        let mut j = vec![0i64; self.dim()];
        for k in (0..self.dim()).rev() {
            let e = self.extents[k] as usize;
            j[k] = self.lo[k] + (idx % e) as i64;
            idx /= e;
        }
        j
    }

    /// FNV-1a hash over every written cell in flat order — its
    /// coordinates, then each component's bit pattern — followed by the
    /// written count: a compact fingerprint for bit-exact comparisons
    /// against data spaces that are no longer at hand.
    pub fn bit_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for idx in 0..self.written.len() {
            if self.written[idx] {
                for c in self.unindex(idx) {
                    eat(c as u64);
                }
                for v in &self.vals[idx * self.width..(idx + 1) * self.width] {
                    eat(v.to_bits());
                }
            }
        }
        eat(self.num_written() as u64);
        h
    }

    /// A simple checksum over written cells (order-independent) used by
    /// benches to keep computations observable.
    pub fn checksum(&self) -> f64 {
        let mut acc = 0.0;
        for idx in 0..self.written.len() {
            if self.written[idx] {
                for c in 0..self.width {
                    acc += self.vals[idx * self.width + c];
                }
            }
        }
        acc
    }
}

impl fmt::Debug for DataSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DataSpace(lo={:?}, extents={:?}, width={}, written={}/{})",
            self.lo,
            self.extents,
            self.width,
            self.num_written(),
            self.written.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let ds = DataSpace::new(&[-2, 3], &[4, 8]);
        for j0 in -2..=4 {
            for j1 in 3..=8 {
                let idx = ds.index(&[j0, j1]).unwrap();
                assert_eq!(ds.unindex(idx), vec![j0, j1]);
            }
        }
        assert_eq!(ds.index(&[5, 3]), None);
        assert_eq!(ds.index(&[-3, 3]), None);
        assert_eq!(ds.index(&[0, 9]), None);
    }

    #[test]
    fn written_tracking() {
        let mut ds = DataSpace::new(&[0, 0], &[1, 1]);
        assert_eq!(ds.get(&[0, 0]), None);
        ds.set(&[0, 0], 2.5);
        assert_eq!(ds.get(&[0, 0]), Some(2.5));
        assert_eq!(ds.num_written(), 1);
        assert_eq!(ds.get(&[7, 7]), None); // outside: None, not panic
    }

    #[test]
    fn flat_cells_match_index_and_write_cell_round_trips() {
        let mut ds = DataSpace::with_width(&[-2, 3], &[4, 8], 2);
        for j0 in -2..=4 {
            for j1 in 3..=8 {
                let j = [j0, j1];
                let idx = ds.index(&j).unwrap();
                assert_eq!(ds.flat_cell_signed(&j), idx as i64);
            }
        }
        // Signed index extrapolates linearly outside the box.
        assert_eq!(ds.flat_cell_signed(&[-3, 3]), -(ds.weights()[0]));
        let idx = ds.index(&[0, 5]).unwrap();
        ds.write_cell(idx, &[1.5, 2.5]);
        assert_eq!(ds.get_all(&[0, 5]), Some(&[1.5, 2.5][..]));
    }

    #[test]
    fn diff_detects_mismatch() {
        let mut a = DataSpace::new(&[0], &[3]);
        let mut b = DataSpace::new(&[0], &[3]);
        assert_eq!(a.diff(&b), None);
        a.set(&[2], 1.0);
        assert_eq!(a.diff(&b), Some(vec![2]));
        b.set(&[2], 1.0);
        assert_eq!(a.diff(&b), None);
        b.set(&[3], 9.0);
        assert_eq!(a.diff(&b), Some(vec![3]));
    }

    #[test]
    #[should_panic(expected = "write outside")]
    fn set_outside_panics() {
        let mut ds = DataSpace::new(&[0], &[3]);
        ds.set(&[4], 1.0);
    }

    #[test]
    fn multi_component_round_trip() {
        let mut ds = DataSpace::with_width(&[0, 0], &[2, 2], 2);
        assert_eq!(ds.width(), 2);
        ds.set_all(&[1, 1], &[3.0, 4.0]);
        assert_eq!(ds.get_all(&[1, 1]), Some(&[3.0, 4.0][..]));
        assert_eq!(ds.get(&[1, 1]), Some(3.0));
        assert_eq!(ds.get_all(&[0, 0]), None);
    }

    #[test]
    fn multi_component_diff_checks_every_component() {
        let mut a = DataSpace::with_width(&[0], &[1], 2);
        let mut b = DataSpace::with_width(&[0], &[1], 2);
        a.set_all(&[0], &[1.0, 2.0]);
        b.set_all(&[0], &[1.0, 2.5]);
        assert_eq!(a.diff(&b), Some(vec![0]));
        b.set_all(&[0], &[1.0, 2.0]);
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    #[should_panic(expected = "component width mismatch")]
    fn wrong_width_write_panics() {
        let mut ds = DataSpace::with_width(&[0], &[1], 2);
        ds.set_all(&[0], &[1.0]);
    }
}
