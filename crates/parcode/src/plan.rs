//! The parallelization plan: everything the compiler derives at compile
//! time for one (algorithm, tiling, mapping) triple.
//!
//! Bundles the tiled space, the computation distribution, the communication
//! plan and the LDS geometry, and implements the paper's `loc`/`loc⁻¹`
//! functions (Tables 1–2) that translate between the original iteration
//! space `J^n` and per-processor Local Data Spaces.

use crate::compiled::{count_tile, CompiledChain};
use tilecc_cluster::{MetricsRegistry, Phase};
use tilecc_linalg::IMat;
use tilecc_loopnest::Algorithm;
use tilecc_polytope::{Clamp, TileClamp};
use tilecc_tiling::{
    insert_at, project_pid, CommPlan, Distribution, Lds, LdsGeometry, TiledSpace, TilingError,
    TilingTransform,
};

/// A complete compile-time plan for data-parallel execution.
pub struct ParallelPlan {
    pub algorithm: Algorithm,
    pub tiled: TiledSpace,
    pub dist: Distribution,
    pub comm: CommPlan,
    pub geo: LdsGeometry,
    /// The iteration space's clamp under the algorithm's dependences,
    /// placed at tile boxes: one [`Clamp::at`] per tile gives its interior
    /// flags and its boundary clip.
    pub clamp: Clamp,
    /// The flat-index execution tables every rank runs.
    chain: CompiledChain,
}

impl ParallelPlan {
    /// Compile `algorithm` under `transform`, mapping tiles along dimension
    /// `m` (`None`: the dimension with the maximum tile count).
    ///
    /// Fails when the tiling is illegal for the algorithm's dependencies
    /// (`H·d ≥ 0` is required so tile dependencies are non-negative and the
    /// linear schedule `Π = [1,…,1]` is valid and deadlock-free).
    pub fn new(
        algorithm: Algorithm,
        transform: TilingTransform,
        m: Option<usize>,
    ) -> Result<Self, TilingError> {
        Self::new_observed(algorithm, transform, m, None)
    }

    /// [`ParallelPlan::new`] recording plan-construction and chain-lowering
    /// spans into an observability registry (driver pid, wall clock only).
    pub fn new_observed(
        algorithm: Algorithm,
        transform: TilingTransform,
        m: Option<usize>,
        obs: Option<&MetricsRegistry>,
    ) -> Result<Self, TilingError> {
        let stamp = |name: &'static str, start: Option<u64>| {
            if let (Some(reg), Some(t0)) = (obs, start) {
                reg.driver_span(Phase::Plan, name, t0, 0);
            }
        };
        let t0 = obs.map(|r| r.now_ns());
        transform.validate_for(algorithm.nest.deps())?;
        stamp("validate-tiling", t0);
        let t0 = obs.map(|r| r.now_ns());
        let tiled = TiledSpace::new(transform, algorithm.nest.space().clone())?;
        stamp("tiled-space", t0);
        let t0 = obs.map(|r| r.now_ns());
        let dist = Distribution::new(&tiled, m)?;
        stamp("distribution", t0);
        let t0 = obs.map(|r| r.now_ns());
        let comm = CommPlan::new(&tiled, algorithm.nest.deps(), dist.m)?;
        stamp("comm-plan", t0);
        let t0 = obs.map(|r| r.now_ns());
        let geo = LdsGeometry::new(tiled.transform(), &comm);
        stamp("lds-geometry", t0);
        let ds_weights = {
            let (lo, hi) = algorithm
                .nest
                .try_bounding_box()
                .map_err(TilingError::from)?
                .ok_or(TilingError::EmptySpace)?;
            let extents: Vec<i64> = lo.iter().zip(&hi).map(|(&l, &h)| h - l + 1).collect();
            LdsGeometry::weights(&extents)
        };
        let clamp = tiled.clamp_with(algorithm.nest.deps());
        let t0 = obs.map(|r| r.now_ns());
        let chain = CompiledChain::new(&tiled, &comm, &geo, &ds_weights, &clamp);
        if let (Some(reg), Some(t0)) = (obs, t0) {
            let rows = chain.rows.len() as u64;
            reg.driver_span(Phase::CompileChain, "compile-chain", t0, rows);
        }
        Ok(ParallelPlan {
            algorithm,
            tiled,
            dist,
            comm,
            geo,
            clamp,
            chain,
        })
    }

    /// The flat-index execution tables every rank runs.
    pub fn chain(&self) -> &CompiledChain {
        &self.chain
    }

    /// Loop-nest dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.tiled.dim()
    }

    /// Mapping dimension `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.dist.m
    }

    /// Number of processors (distinct pids).
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.dist.num_procs()
    }

    /// The anchor of a rank: full tile coordinates of its first chain tile
    /// (`pid` with `l^S_m` inserted at dimension `m`).
    pub fn anchor(&self, rank: usize) -> Vec<i64> {
        let (lo, _) = self.dist.chains[rank];
        insert_at(&self.dist.pids[rank], self.dist.m, lo)
    }

    /// A zeroed LDS window, the one shape every rank computes into, whatever
    /// its chain length ([`crate::run_rank`] slides it along the chain).
    pub fn lds(&self) -> Lds {
        Lds::with_width(self.geo.clone(), self.algorithm.width())
    }

    /// Call `visit(tile, origin, clamp)` on every valid tile of `rank`'s
    /// chain in chain order, `clamp` being `None` inside the iteration
    /// space. Stops after the first visit that returns `false` and returns
    /// whether none did.
    pub fn for_each_tile(
        &self,
        rank: usize,
        mut visit: impl FnMut(&[i64], &[i64], Option<&TileClamp>) -> bool,
    ) -> bool {
        let (pid, (lo_t, hi_t)) = (&self.dist.pids[rank], self.dist.chains[rank]);
        (lo_t..=hi_t).all(|t_abs| {
            let tile = insert_at(pid, self.dist.m, t_abs);
            if !self.tiled.tile_valid(&tile) {
                return true;
            }
            let origin = self.tiled.tile_origin(&tile);
            let tc = self.clamp.at(&origin);
            let clamp = (!tc.interior()).then_some(&tc);
            visit(&tile, &origin, clamp)
        })
    }

    /// The iteration points `rank` owns, `w` values each in a full run's
    /// output ([`crate::RankOutput`]).
    pub fn owned_points(&self, rank: usize) -> usize {
        let mut points = 0;
        self.for_each_tile(rank, |_, _, clamp| {
            points += count_tile(&self.chain, clamp, &self.chain.walk) as usize;
            true
        });
        points
    }

    /// The paper's `loc(j)` (Table 1): processor id and LDS address where
    /// iteration `j` is stored.
    ///
    /// # Panics
    /// Panics if `j`'s tile is not assigned to any processor.
    pub fn loc(&self, j: &[i64]) -> (Vec<i64>, Vec<i64>) {
        let t = self.tiled.transform();
        let tile = t.tile_of(j);
        let pid = project_pid(&tile, self.dist.m);
        let rank = self
            .dist
            .rank(&pid)
            .expect("iteration outside the distribution");
        let anchor = self.anchor(rank);
        let g = unrolled_of(t, j, &anchor);
        (pid, self.geo.addr(&g))
    }

    /// The paper's `loc⁻¹(j'', pid)` (Table 2): the iteration stored at LDS
    /// address `addr` of processor `pid`.
    ///
    /// # Panics
    /// Panics if `pid` is unknown or the address does not correspond to an
    /// integer iteration (i.e. it is an unused LDS cell).
    pub fn loc_inv(&self, pid: &[i64], addr: &[i64]) -> Vec<i64> {
        let rank = self.dist.rank(pid).expect("unknown pid");
        let anchor = self.anchor(rank);
        let g = self.geo.addr_inv(addr, &anchor);
        let t = self.tiled.transform();
        // j = P'·(g + V·anchor)
        let n = self.dim();
        let v = t.v();
        let hj: Vec<i64> = (0..n).map(|k| g[k] + v[k] * anchor[k]).collect();
        let jr = t.p_prime().mul_ivec(&hj);
        jr.iter()
            .map(|r| {
                assert!(
                    r.is_integer(),
                    "LDS address does not map to an integer iteration"
                );
                r.to_integer()
            })
            .collect()
    }

    /// The lexicographically minimum valid successor tile (its `m`-index) of
    /// tile `pred` in processor direction `proc_deps[dm_idx]` — the paper's
    /// `minsucc`. `None` when no successor tile is valid (nothing to send).
    pub fn minsucc(&self, pred: &[i64], dm_idx: usize) -> Option<i64> {
        self.comm
            .ds_of_dm(dm_idx)
            .filter_map(|ds| {
                let succ: Vec<i64> = pred.iter().zip(ds).map(|(&a, &b)| a + b).collect();
                self.tiled.tile_valid(&succ).then_some(succ[self.dist.m])
            })
            .min()
    }

    /// Total number of iterations in `J^n` (used for speedup baselines and
    /// conservation checks).
    pub fn total_iterations(&self) -> usize {
        let mut runs = self.tiled.space_bounds().runs();
        std::iter::from_fn(|| runs.next().map(|(_, a, h)| (h - a + 1) as usize)).sum()
    }

    /// The dependence matrix (columns) of the algorithm.
    #[inline]
    pub fn deps(&self) -> &IMat {
        self.algorithm.nest.deps()
    }
}

/// The unrolled local coordinate of a *global* iteration for a processor
/// anchored at `anchor`: `g = H'·j − V·anchor`.
pub fn unrolled_of(t: &TilingTransform, j: &[i64], anchor: &[i64]) -> Vec<i64> {
    let hj = t.h_prime().mul_vec(j);
    hj.iter()
        .zip(t.v().iter().zip(anchor))
        .map(|(&a, (&vk, &an))| a - vk * an)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_linalg::RMat;

    fn small_sor_plan(rect: bool) -> ParallelPlan {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let transform = if rect {
            TilingTransform::rectangular(&[2, 3, 4]).unwrap()
        } else {
            TilingTransform::new(RMat::from_fractions(&[
                &[(1, 2), (0, 1), (0, 1)],
                &[(0, 1), (1, 3), (0, 1)],
                &[(-1, 4), (0, 1), (1, 4)],
            ]))
            .unwrap()
        };
        ParallelPlan::new(alg, transform, Some(2)).unwrap()
    }

    #[test]
    fn loc_round_trips_for_every_iteration() {
        for rect in [true, false] {
            let plan = small_sor_plan(rect);
            for j in plan.tiled.space_bounds().points() {
                let (pid, addr) = plan.loc(&j);
                let back = plan.loc_inv(&pid, &addr);
                assert_eq!(back, j, "loc/loc_inv mismatch (rect={rect})");
            }
        }
    }

    #[test]
    fn loc_addresses_unique_per_processor() {
        let plan = small_sor_plan(false);
        let mut seen: HashSet<(Vec<i64>, Vec<i64>)> = HashSet::new();
        for j in plan.tiled.space_bounds().points() {
            let key = plan.loc(&j);
            assert!(
                seen.insert(key.clone()),
                "duplicate storage location {key:?}"
            );
        }
    }

    #[test]
    fn illegal_tiling_is_rejected() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        // A tiling row pointing against the dependence cone.
        let bad = TilingTransform::new(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 2), (0, 1)],
            &[(1, 2), (0, 1), (-1, 2)],
        ]))
        .unwrap();
        assert!(ParallelPlan::new(alg, bad, None).is_err());
    }

    #[test]
    fn minsucc_is_minimal_and_valid() {
        let plan = small_sor_plan(true);
        let m = plan.m();
        for tile in plan.tiled.tiles().collect::<Vec<_>>() {
            for (dm_idx, _) in plan.comm.proc_deps.iter().enumerate() {
                if let Some(t_min) = plan.minsucc(&tile, dm_idx) {
                    // The claimed successor is valid and no smaller one exists.
                    let mut candidates: Vec<i64> = plan
                        .comm
                        .ds_of_dm(dm_idx)
                        .filter_map(|ds| {
                            let succ: Vec<i64> =
                                tile.iter().zip(ds).map(|(&a, &b)| a + b).collect();
                            plan.tiled.tile_valid(&succ).then_some(succ[m])
                        })
                        .collect();
                    candidates.sort();
                    assert_eq!(candidates.first().copied(), Some(t_min));
                }
            }
        }
    }

    #[test]
    fn anchors_match_chain_starts() {
        let plan = small_sor_plan(true);
        for rank in 0..plan.num_procs() {
            let anchor = plan.anchor(rank);
            assert!(
                plan.tiled.tile_valid(&anchor),
                "anchor must be a valid tile"
            );
            assert_eq!(project_pid(&anchor, plan.m()), plan.dist.pids[rank]);
        }
    }
}
