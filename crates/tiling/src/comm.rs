#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! Communication sets (§3.2): the compile-time communication vector `CC`,
//! LDS halo offsets, tile dependencies `D^S`, processor dependencies `D^m`,
//! and the pack/unpack regions of the send/receive scheme.

use crate::mapping::project_pid;
use crate::tile_space::TiledSpace;
use crate::transform::TilingError;
use std::collections::BTreeMap;
use tilecc_linalg::vecops::div_ceil;
use tilecc_linalg::IMat;

/// All compile-time communication information for one (tiling, mapping
/// dimension) pair.
#[derive(Clone, Debug)]
pub struct CommPlan {
    /// Mapping dimension.
    pub m: usize,
    /// Transformed dependence vectors `D' = H'·D` (columns).
    pub d_prime: IMat,
    /// `maxd_k = max_l d'_kl` clamped to ≥ 0 (halo depth per dimension).
    pub maxd: Vec<i64>,
    /// Communication vector `cc_k = v_kk − maxd_k`: `j'` is a communication
    /// point along `k` iff `j'_k ≥ cc_k`.
    pub cc: Vec<i64>,
    /// LDS halo offsets: `off_k = ⌈maxd_k / c_k⌉` for `k ≠ m`,
    /// `off_m = maxS_m · ⌈v_m / c_m⌉` (space for data of predecessor tiles).
    pub off: Vec<i64>,
    /// Tile dependence matrix `D^S` (columns, zero excluded), sorted so that
    /// larger `m`-components come first — receives for earlier predecessor
    /// tiles are posted first, matching FIFO channel order.
    pub tile_deps: Vec<Vec<i64>>,
    /// Processor dependencies `D^m` (projections of `D^S` with dimension `m`
    /// collapsed, zero excluded, deduplicated, in deterministic order).
    pub proc_deps: Vec<Vec<i64>>,
    /// For every `tile_deps[i]`: index into `proc_deps`, or `None` when the
    /// projection is zero (intra-processor dependence, no communication).
    pub dm_of_ds: Vec<Option<usize>>,
}

impl CommPlan {
    /// Build the communication plan for `tiled` with dependencies `deps`
    /// (columns) mapped along dimension `m`. Fails when `m` is not a
    /// dimension of the space or when no dependence crosses a tile.
    pub fn new(tiled: &TiledSpace, deps: &IMat, m: usize) -> Result<Self, TilingError> {
        let t = tiled.transform();
        let n = t.dim();
        if m >= n {
            return Err(TilingError::MappingOutOfRange { m, dim: n });
        }
        let d_prime = t.transformed_deps(deps);
        let v = t.v();
        let maxd: Vec<i64> = (0..n)
            .map(|k| {
                (0..d_prime.cols())
                    .map(|q| d_prime[(k, q)])
                    .max()
                    .unwrap_or(0)
                    .max(0)
            })
            .collect();
        let cc: Vec<i64> = (0..n).map(|k| v[k] - maxd[k]).collect();

        let ds_mat = tiled.tile_deps(deps);
        if ds_mat.cols() == 0 {
            return Err(TilingError::NoTileDependences);
        }
        let mut tile_deps: Vec<Vec<i64>> = (0..ds_mat.cols()).map(|c| ds_mat.col(c)).collect();
        // Descending m-component: predecessor tiles in ascending order, so
        // that receives posted within one tile match FIFO send order from a
        // given sender.
        tile_deps.sort_by(|a, b| b[m].cmp(&a[m]).then_with(|| a.cmp(b)));

        let max_s_m = tile_deps.iter().map(|d| d[m]).max().unwrap_or(1).max(1);
        let c = t.strides();
        let off: Vec<i64> = (0..n)
            .map(|k| {
                if k == m {
                    max_s_m * div_ceil(v[m], c[m])
                } else {
                    div_ceil(maxd[k], c[k])
                }
            })
            .collect();

        // Deduplicated processor dependencies, in first-seen order over the
        // sorted tile deps (deterministic on both sides of a channel).
        let mut proc_deps: Vec<Vec<i64>> = vec![];
        let mut seen: BTreeMap<Vec<i64>, usize> = BTreeMap::new();
        let mut dm_of_ds = Vec::with_capacity(tile_deps.len());
        for ds in &tile_deps {
            let dm = project_pid(ds, m);
            if dm.iter().all(|&x| x == 0) {
                dm_of_ds.push(None);
                continue;
            }
            let idx = *seen.entry(dm.clone()).or_insert_with(|| {
                proc_deps.push(dm.clone());
                proc_deps.len() - 1
            });
            dm_of_ds.push(Some(idx));
        }
        Ok(CommPlan {
            m,
            d_prime,
            maxd,
            cc,
            off,
            tile_deps,
            proc_deps,
            dm_of_ds,
        })
    }

    /// The pack/unpack region for processor dependence `dm`: the lattice box
    /// `[lo, v)` with `lo_k = max(0, cc_k)` in the dimensions `k ≠ m` where
    /// `dm` is non-zero, `lo_k = 0` elsewhere (dimension `m` is always the
    /// full tile range — the paper's SEND/RECEIVE loops).
    pub fn region_lo(&self, dm: &[i64], v: &[i64]) -> Vec<i64> {
        let n = v.len();
        let mut lo = vec![0i64; n];
        let mut pk = 0usize;
        for k in 0..n {
            if k == self.m {
                continue;
            }
            if dm[pk] != 0 {
                lo[k] = self.cc[k].max(0);
            }
            pk += 1;
        }
        lo
    }

    /// All tile-dependence columns whose projection equals `proc_deps[idx]`.
    pub fn ds_of_dm(&self, idx: usize) -> impl Iterator<Item = &Vec<i64>> + '_ {
        self.tile_deps
            .iter()
            .zip(&self.dm_of_ds)
            .filter(move |(_, dm)| **dm == Some(idx))
            .map(|(ds, _)| ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile_space::TiledSpace;
    use crate::transform::TilingTransform;
    use tilecc_linalg::RMat;
    use tilecc_polytope::Polyhedron;

    fn sor_deps() -> IMat {
        IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]])
    }

    fn sor_space() -> Polyhedron {
        use tilecc_polytope::Constraint;
        let mut p = Polyhedron::universe(3);
        p.add(Constraint::new(vec![1, 0, 0], -1));
        p.add(Constraint::new(vec![-1, 0, 0], 8));
        p.add(Constraint::new(vec![-1, 1, 0], -1));
        p.add(Constraint::new(vec![1, -1, 0], 8));
        p.add(Constraint::new(vec![-2, 0, 1], -1));
        p.add(Constraint::new(vec![2, 0, -1], 8));
        p
    }

    #[test]
    fn cc_matches_hand_computation_rectangular() {
        // Rectangular 4×4×4 tiling of skewed SOR: D' = H'D = 4·H·D = D
        // scaled... with H = diag(1/4): H' = I·... V = diag(4,4,4), H' = D
        // unchanged: maxd = (1, 1, 2), cc = (3, 3, 2).
        let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        let plan = CommPlan::new(&tiled, &sor_deps(), 2).unwrap();
        assert_eq!(plan.maxd, vec![1, 1, 2]);
        assert_eq!(plan.cc, vec![3, 3, 2]);
        assert_eq!(plan.off[0], 1);
        assert_eq!(plan.off[1], 1);
        assert_eq!(plan.off[2], 4); // v_m / c_m = 4
    }

    #[test]
    fn nr_tiling_reduces_halo_on_skewed_dim() {
        // Non-rectangular SOR tiling: H' = [[1,0,0],[0,1,0],[-1,0,1]]·(x=y=z=4).
        // D' columns: H'·d for each skewed dependence.
        let h = RMat::from_fractions(&[
            &[(1, 4), (0, 1), (0, 1)],
            &[(0, 1), (1, 4), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]);
        let t = TilingTransform::new(h).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        let plan = CommPlan::new(&tiled, &sor_deps(), 2).unwrap();
        // d' for d=(1,1,2): (1,1,1); (0,1,0)->(0,1,0); (1,0,2)->(1,0,1);
        // (1,1,1)->(1,1,0); (0,0,1)->(0,0,1). maxd = (1,1,1): the skew
        // shrinks the third-dimension halo from 2 to 1.
        assert_eq!(plan.maxd, vec![1, 1, 1]);
        assert_eq!(plan.cc, vec![3, 3, 3]);
    }

    #[test]
    fn tile_deps_sorted_with_descending_m_component() {
        let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        let plan = CommPlan::new(&tiled, &sor_deps(), 2).unwrap();
        for w in plan.tile_deps.windows(2) {
            assert!(w[0][2] >= w[1][2]);
        }
        // Every projection maps consistently.
        assert_eq!(plan.dm_of_ds.len(), plan.tile_deps.len());
        for (ds, dm_idx) in plan.tile_deps.iter().zip(&plan.dm_of_ds) {
            let proj = project_pid(ds, 2);
            match dm_idx {
                Some(i) => assert_eq!(&plan.proc_deps[*i], &proj),
                None => assert!(proj.iter().all(|&x| x == 0)),
            }
        }
    }

    #[test]
    fn region_lo_uses_cc_only_on_crossing_dims() {
        let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        let plan = CommPlan::new(&tiled, &sor_deps(), 2).unwrap();
        let v = vec![4, 4, 4];
        assert_eq!(plan.region_lo(&[1, 0], &v), vec![3, 0, 0]);
        assert_eq!(plan.region_lo(&[0, 1], &v), vec![0, 3, 0]);
        assert_eq!(plan.region_lo(&[1, 1], &v), vec![3, 3, 0]);
        assert_eq!(plan.region_lo(&[0, 0], &v), vec![0, 0, 0]);
    }

    #[test]
    fn bad_mapping_dimension_and_dependence_free_nests_are_typed_errors() {
        let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        assert_eq!(
            CommPlan::new(&tiled, &sor_deps(), 3).unwrap_err(),
            TilingError::MappingOutOfRange { m: 3, dim: 3 }
        );
        // No columns, and a zero column that never leaves its tile.
        for deps in [IMat::zeros(3, 0), IMat::zeros(3, 1)] {
            assert_eq!(tiled.tile_deps(&deps).cols(), 0);
            assert_eq!(
                CommPlan::new(&tiled, &deps, 2).unwrap_err(),
                TilingError::NoTileDependences
            );
        }
    }

    #[test]
    fn proc_deps_exclude_pure_chain_dependence() {
        let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
        let tiled = TiledSpace::new(t, sor_space()).unwrap();
        let plan = CommPlan::new(&tiled, &sor_deps(), 2).unwrap();
        // (0,0,1) projects to zero: intra-processor, not in proc_deps.
        assert!(plan.proc_deps.iter().all(|dm| dm.iter().any(|&x| x != 0)));
        assert!(plan.dm_of_ds.iter().any(|x| x.is_none()));
    }
}
