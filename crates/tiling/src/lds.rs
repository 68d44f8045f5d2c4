#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! The Local Data Space (§3.1): a dense rectangular per-processor array
//! condensing the TTIS lattice points of the processor's tile chain plus
//! halo space for received data.
//!
//! Addressing is based on the *unrolled local coordinate* of a global
//! iteration `j` for a processor with anchor `a` (tile coordinates of the
//! processor's first tile):
//!
//! ```text
//! g = H'·j − V·a      (so g_k ∈ [0, v_k) for owned dims k ≠ m,
//!                      g_m ∈ [0, |chain|·v_m) for owned data,
//!                      g_k < 0 for halo data)
//! addr_k = ⌊g_k / c_k⌋ + off_k
//! ```
//!
//! This is exactly the paper's `map(j', t)` (Table 1) written against global
//! coordinates: for an owned point of chain tile `t` with TTIS coordinate
//! `j'`, `g_k = j'_k (k ≠ m)` and `g_m = t·v_m + j'_m`. The floor divisions
//! condense each lattice residue class to consecutive integers, so the
//! computation storage is dense; halo addresses land in the `[0, off_k)`
//! prefix. `map⁻¹`/`loc⁻¹` (Table 2) are implemented by reconstructing the
//! lattice residues by forward substitution over the Hermite basis.

use crate::comm::CommPlan;
use crate::transform::TilingTransform;
use tilecc_linalg::vecops::{div_ceil, div_floor};
use tilecc_linalg::IMat;

/// Rank-independent LDS geometry: strides, offsets, tile box.
#[derive(Clone, Debug)]
pub struct LdsGeometry {
    /// Traversal strides `c_k` (diagonal of the HNF).
    pub c: Vec<i64>,
    /// Halo offsets `off_k`.
    pub off: Vec<i64>,
    /// Tile box `v_k`.
    pub v: Vec<i64>,
    /// Mapping dimension.
    pub m: usize,
    /// Hermite basis `H̃'` (for residue reconstruction in `addr_inv`).
    hnf: IMat,
}

impl LdsGeometry {
    pub fn new(transform: &TilingTransform, plan: &CommPlan) -> Self {
        LdsGeometry {
            c: transform.strides(),
            off: plan.off.clone(),
            v: transform.v().to_vec(),
            m: plan.m,
            hnf: transform.hnf().clone(),
        }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.v.len()
    }

    /// LDS address (per-dimension) of the unrolled local coordinate `g`.
    pub fn addr(&self, g: &[i64]) -> Vec<i64> {
        (0..self.dim())
            .map(|k| div_floor(g[k], self.c[k]) + self.off[k])
            .collect()
    }

    /// Per-dimension address extents for a chain of `num_tiles` tiles.
    pub fn extents(&self, num_tiles: i64) -> Vec<i64> {
        assert!(num_tiles > 0);
        (0..self.dim())
            .map(|k| {
                let max_g = if k == self.m {
                    (num_tiles - 1) * self.v[k] + self.v[k] - 1
                } else {
                    self.v[k] - 1
                };
                self.off[k] + div_floor(max_g, self.c[k]) + 1
            })
            .collect()
    }

    /// Signed flat (row-major) cell index of the unrolled local coordinate
    /// `g` under the per-dimension `weights`, with **no range checks**: each
    /// dimension's address may be negative or beyond its extent. This is the
    /// compile-time lowering primitive of the flat-index execution path —
    /// for any two coordinates whose per-dimension addresses are in range,
    /// the *difference* of their signed flat indices is their true cell
    /// distance, so relative offsets computed here are exact wherever the
    /// checked [`Lds::index_of`] would succeed.
    pub fn flat_cell_signed(&self, g: &[i64], weights: &[i64]) -> i64 {
        (0..self.dim())
            .map(|k| (div_floor(g[k], self.c[k]) + self.off[k]) * weights[k])
            .sum()
    }

    /// Row-major cell weights for the given per-dimension extents
    /// (`weights[n−1] = 1`, `weights[k] = weights[k+1] · extents[k+1]`).
    pub fn weights(extents: &[i64]) -> Vec<i64> {
        let n = extents.len();
        let mut w = vec![1i64; n];
        for k in (0..n.saturating_sub(1)).rev() {
            w[k] = w[k + 1] * extents[k + 1];
        }
        w
    }

    /// Inverse of [`LdsGeometry::addr`] for a processor anchored at `a`
    /// (full `n`-dim tile coordinates of its first tile): reconstructs `g`
    /// from the address by forward substitution of the lattice residues.
    /// This is the paper's `map⁻¹` (Table 2) in global form.
    pub fn addr_inv(&self, addr: &[i64], anchor: &[i64]) -> Vec<i64> {
        let n = self.dim();
        let mut g = vec![0i64; n];
        let mut mm = vec![0i64; n]; // lattice coordinates of g + V·anchor
        for k in 0..n {
            // base_k = Σ_{l<k} h̃_kl·m_l; the lattice point is
            // g_k + v_k·anchor_k = base_k + c_k·m_k.
            let mut base = 0i64;
            for l in 0..k {
                base += self.hnf[(k, l)] * mm[l];
            }
            let target_residue = (base - self.v[k] * anchor[k]).rem_euclid(self.c[k]);
            g[k] = self.c[k] * (addr[k] - self.off[k]) + target_residue;
            let num = g[k] + self.v[k] * anchor[k] - base;
            debug_assert_eq!(
                num.rem_euclid(self.c[k]),
                0,
                "address not on the LDS lattice"
            );
            mm[k] = num.div_euclid(self.c[k]);
        }
        g
    }
}

/// A per-processor LDS: geometry + anchor + storage (`width` components per
/// cell — one per written array, see `tilecc-loopnest`'s `Kernel`).
pub struct Lds {
    geo: LdsGeometry,
    /// Tile coordinates of the processor's first chain tile (dimension `m`
    /// holds `l^S_m`; the others hold the pid).
    anchor: Vec<i64>,
    extents: Vec<i64>,
    width: usize,
    data: Vec<f64>,
}

impl Lds {
    /// Allocate a single-component LDS for the processor anchored at
    /// `anchor` executing `num_tiles` chain tiles.
    pub fn new(geo: LdsGeometry, anchor: Vec<i64>, num_tiles: i64) -> Self {
        Lds::with_width(geo, anchor, num_tiles, 1)
    }

    /// Allocate with `width` components per cell.
    pub fn with_width(geo: LdsGeometry, anchor: Vec<i64>, num_tiles: i64, width: usize) -> Self {
        assert_eq!(anchor.len(), geo.dim());
        assert!(width >= 1);
        let extents = geo.extents(num_tiles);
        let total: i64 = extents.iter().product();
        let total = usize::try_from(total).expect("LDS too large");
        Lds {
            geo,
            anchor,
            extents,
            width,
            data: vec![0.0; total * width],
        }
    }

    /// Components per cell.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn geometry(&self) -> &LdsGeometry {
        &self.geo
    }

    #[inline]
    pub fn anchor(&self) -> &[i64] {
        &self.anchor
    }

    /// Total allocated cells (× width values).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of unrolled local coordinate `g`; `None` when the
    /// address falls outside the allocation (e.g. halo deeper than any
    /// read reaches — such writes are dropped by callers).
    #[inline]
    pub fn index_of(&self, g: &[i64]) -> Option<usize> {
        let mut idx: i64 = 0;
        for k in 0..self.geo.dim() {
            // Inline per-dimension addressing to avoid allocating.
            let a = div_floor(g[k], self.geo.c[k]) + self.geo.off[k];
            if a < 0 || a >= self.extents[k] {
                return None;
            }
            idx = idx * self.extents[k] + a;
        }
        Some(idx as usize)
    }

    /// Read component 0 for `g`.
    ///
    /// # Panics
    /// Panics if `g` is outside the allocation — in a correct compilation
    /// every read is in range, so this indicates a planning bug.
    pub fn get(&self, g: &[i64]) -> f64 {
        let idx = self.index_of(g).expect("LDS read out of range");
        self.data[idx * self.width]
    }

    /// Copy all components for `g` into `out`.
    ///
    /// # Panics
    /// Panics if `g` is outside the allocation.
    pub fn get_into(&self, g: &[i64], out: &mut [f64]) {
        let idx = self.index_of(g).expect("LDS read out of range");
        out.copy_from_slice(&self.data[idx * self.width..(idx + 1) * self.width]);
    }

    /// Store component 0 for `g`; silently drops writes outside the
    /// allocation (unpacked halo cells that no read ever touches).
    pub fn set(&mut self, g: &[i64], val: f64) {
        if let Some(idx) = self.index_of(g) {
            self.data[idx * self.width] = val;
        }
    }

    /// Store all components for `g`; drops out-of-range writes.
    pub fn set_all(&mut self, g: &[i64], vals: &[f64]) {
        debug_assert_eq!(vals.len(), self.width);
        if let Some(idx) = self.index_of(g) {
            self.data[idx * self.width..(idx + 1) * self.width].copy_from_slice(vals);
        }
    }

    /// The unrolled local coordinate of chain-relative tile `t` and TTIS
    /// coordinate `j'` — the paper's `map(j', t)` input convention.
    pub fn unrolled(&self, t: i64, jp: &[i64]) -> Vec<i64> {
        let mut g = jp.to_vec();
        g[self.geo.m] += t * self.geo.v[self.geo.m];
        g
    }

    /// Per-dimension address extents of this allocation.
    #[inline]
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// The raw value storage, `width` consecutive `f64`s per cell in
    /// row-major cell order — the flat-index execution path reads and
    /// writes cells directly by linear index instead of re-deriving
    /// per-dimension addresses point by point.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw value storage (see [`Lds::values`]).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Convenience: the halo-region extent check `off_k ≥ ⌈maxd_k / c_k⌉` used
/// in tests and assertions.
pub fn halo_covers(geo: &LdsGeometry, maxd: &[i64]) -> bool {
    (0..geo.dim()).all(|k| {
        if k == geo.m {
            true
        } else {
            geo.off[k] >= div_ceil(maxd[k], geo.c[k])
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommPlan;
    use crate::tile_space::TiledSpace;
    use crate::transform::TilingTransform;
    use tilecc_linalg::RMat;
    use tilecc_polytope::Polyhedron;

    fn setup(h: RMat, m: usize) -> (TilingTransform, LdsGeometry, CommPlan) {
        let t = TilingTransform::new(h).unwrap();
        let space = Polyhedron::from_box(&[0, 0, 0], &[15, 15, 15]);
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let tiled = TiledSpace::new(t.clone(), space).unwrap();
        let plan = CommPlan::new(&tiled, &deps, m);
        let geo = LdsGeometry::new(&t, &plan);
        (t, geo, plan)
    }

    fn rect_h(x: i64, y: i64, z: i64) -> RMat {
        RMat::from_fractions(&[
            &[(1, x), (0, 1), (0, 1)],
            &[(0, 1), (1, y), (0, 1)],
            &[(0, 1), (0, 1), (1, z)],
        ])
    }

    fn nr_h(x: i64, y: i64, z: i64) -> RMat {
        RMat::from_fractions(&[
            &[(1, x), (0, 1), (0, 1)],
            &[(0, 1), (1, y), (0, 1)],
            &[(-1, z), (0, 1), (1, z)],
        ])
    }

    #[test]
    fn owned_addresses_are_dense_and_unique() {
        for h in [rect_h(4, 4, 4), nr_h(4, 4, 4), nr_h(3, 4, 5)] {
            let (t, geo, _plan) = setup(h, 2);
            let lds = Lds::new(geo, vec![0, 0, 0], 3);
            let mut seen = std::collections::HashSet::new();
            let mut count = 0usize;
            for chain_t in 0..3i64 {
                for jp in t.ttis_points() {
                    let g = lds.unrolled(chain_t, &jp);
                    let idx = lds.index_of(&g).expect("owned point must be addressable");
                    assert!(
                        seen.insert(idx),
                        "address collision at t={chain_t} jp={jp:?}"
                    );
                    count += 1;
                }
            }
            assert_eq!(count, 3 * t.tile_size().unwrap() as usize);
            // Density: owned cells fill the non-halo sub-box exactly (these
            // transformations have unit strides, so the box is tight).
            let e = lds.geo.extents(3);
            let owned: i64 = (0..3).map(|k| e[k] - lds.geo.off[k]).product();
            assert_eq!(owned as usize, count);
        }
    }

    #[test]
    fn addr_inv_round_trips_owned_and_halo() {
        for h in [rect_h(4, 4, 4), nr_h(4, 4, 4), nr_h(2, 3, 4)] {
            let (t, geo, plan) = setup(h, 2);
            let anchor = vec![1, 2, 0];
            let lds = Lds::new(geo.clone(), anchor.clone(), 2);
            // Owned points.
            for chain_t in 0..2i64 {
                for jp in t.ttis_points() {
                    let g = lds.unrolled(chain_t, &jp);
                    let addr = geo.addr(&g);
                    assert_eq!(geo.addr_inv(&addr, &anchor), g);
                }
            }
            // Halo points: lattice points shifted by −d' for every dep.
            for q in 0..plan.d_prime.cols() {
                let d = plan.d_prime.col(q);
                for jp in t.ttis_points() {
                    let mut g = lds.unrolled(0, &jp);
                    for k in 0..3 {
                        g[k] -= d[k];
                    }
                    let addr = geo.addr(&g);
                    assert_eq!(geo.addr_inv(&addr, &anchor), g, "halo g={g:?}");
                }
            }
        }
    }

    #[test]
    fn halo_addresses_fit_allocation() {
        let (t, geo, plan) = setup(nr_h(4, 4, 4), 2);
        let lds = Lds::new(geo.clone(), vec![0, 0, 0], 2);
        assert!(halo_covers(&geo, &plan.maxd));
        for q in 0..plan.d_prime.cols() {
            let d = plan.d_prime.col(q);
            for chain_t in 0..2i64 {
                for jp in t.ttis_points() {
                    let mut g = lds.unrolled(chain_t, &jp);
                    for k in 0..3 {
                        g[k] -= d[k];
                    }
                    assert!(
                        lds.index_of(&g).is_some(),
                        "read target outside LDS: t={chain_t} jp={jp:?} d={d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_cell_signed_matches_index_of_in_range() {
        for h in [rect_h(4, 4, 4), nr_h(4, 4, 4), nr_h(2, 3, 4)] {
            let (t, geo, _plan) = setup(h, 2);
            let lds = Lds::new(geo.clone(), vec![0, 0, 0], 3);
            let weights = LdsGeometry::weights(lds.extents());
            for chain_t in 0..3i64 {
                for jp in t.ttis_points() {
                    let g = lds.unrolled(chain_t, &jp);
                    let checked = lds.index_of(&g).expect("owned point addressable");
                    assert_eq!(geo.flat_cell_signed(&g, &weights), checked as i64);
                }
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let (_t, geo, _plan) = setup(rect_h(2, 2, 2), 2);
        let mut lds = Lds::new(geo, vec![0, 0, 0], 4);
        let g = vec![1, 1, 5];
        lds.set(&g, 42.5);
        assert_eq!(lds.get(&g), 42.5);
        // Out-of-range set is dropped silently; get panics.
        lds.set(&[-100, 0, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "LDS read out of range")]
    fn out_of_range_read_panics() {
        let (_t, geo, _plan) = setup(rect_h(2, 2, 2), 2);
        let lds = Lds::new(geo, vec![0, 0, 0], 1);
        let _ = lds.get(&[-100, 0, 0]);
    }
}
