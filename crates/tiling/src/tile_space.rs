//! The tile space `J^S` and exact tile dependencies `D^S` (§2.2–2.3).
//!
//! The tile space is the image `{⌊H·j⌋ | j ∈ J^n}`. Its loop bounds are
//! computed once, at compile time, by building the combined polyhedron over
//! `(j^S, j)` — `j ∈ J^n` together with `0 ≤ H'·j − V·j^S ≤ v − 1` — and
//! eliminating the `j` variables with Fourier–Motzkin. The resulting shadow
//! is a convex over-approximation whose integer points include every
//! non-empty tile; the empty candidates it also admits are pruned once at
//! plan time, so [`TiledSpace::tiles`] and [`TiledSpace::tile_valid`] see
//! only tiles that execute at least one iteration — no rank ever computes,
//! packs, or waits on a tile with nothing in it (the paper corrects
//! boundary tiles the same way, with the original iteration-space
//! inequalities).
//!
//! Planning never walks a tile point by point:
//!
//! * **Pruning.** A candidate whose corners all lie in `J^n` is interior,
//!   hence non-empty; its corners are the integer points
//!   `P·tile + Σ_{k∈S} P_{:,k}`, so one [`Clamp`] residual compare per
//!   constraint decides it. Any other candidate clips the innermost rows of
//!   the tile box's TTIS, taken once per plan: each row is a line
//!   `j0 + t·dj` in original coordinates, cut by the same residuals. The
//!   tile is non-empty iff some row's interval is, so the test is exact and
//!   stops at the first hit.
//! * **`D^S`.** Component `k` of `⌊(j' + d')/v⌋` over `j' ∈ [0, v)` is
//!   `⌊d'_k/v_k⌋`, plus one exactly when `j'_k` lies in the top
//!   `d'_k mod v_k` values. Each dependence thus has at most `2ⁿ`
//!   candidate columns, each with a box of carrying `j'`, and a candidate
//!   is kept iff the TTIS lattice has a point in its box
//!   ([`TiledSpace::tile_deps`]).

use crate::transform::{TilingError, TilingTransform};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use tilecc_linalg::IMat;
use tilecc_polytope::{Clamp, Constraint, LoopNestBounds, Polyhedron};

/// The smallest tile-volume budget [`TiledSpace::new`] grants any space
/// (2²¹ lattice points): tiles larger than the space itself stay legal up
/// to here. Planning and a verified run of a 2²¹-point ADI tile take about
/// one second on a 2-vCPU x86-64 VM.
pub const TILE_VOLUME_FLOOR: i64 = 1 << 21;

/// The largest tile volume [`TiledSpace::new`] accepts for a space with
/// the inclusive bounding box `(lo, hi)`. A tile may exceed the space (one
/// tile covering everything is a legitimate plan), so the budget is
/// `2ⁿ ×` the box's integer points, but never below [`TILE_VOLUME_FLOOR`].
pub fn tile_volume_limit(lo: &[i64], hi: &[i64]) -> i64 {
    lo.iter()
        .zip(hi)
        .fold(1i64 << lo.len().min(62), |acc, (&l, &h)| {
            acc.saturating_mul(h - l + 1)
        })
        .max(TILE_VOLUME_FLOOR)
}

/// A tiled iteration space: transformation + original space + tile-space
/// shadow with precomputed loop bounds.
pub struct TiledSpace {
    transform: TilingTransform,
    space: Polyhedron,
    /// `P`, validated integral: a tile's origin iteration is `P·tile`.
    p: IMat,
    /// The space's residuals over the closed tile box (edges `P`'s
    /// columns), without dependences.
    clamp: Clamp,
    shadow: Polyhedron,
    tile_bounds: LoopNestBounds,
    space_bounds: LoopNestBounds,
    /// Number of TTIS lattice points of a full (interior) tile.
    full_tile_volume: usize,
    /// The non-empty tiles, in lexicographic order: shadow integer points
    /// whose tile contains at least one in-space iteration. The convex FM
    /// shadow over-approximates; this is the exact tile set.
    nonempty: BTreeSet<Vec<i64>>,
    /// Empty candidate tiles the shadow admitted and `new` discarded.
    tiles_pruned: usize,
    /// Non-interior candidates decided by the row clip during construction.
    feasibility_walks: usize,
    /// Number of [`TiledSpace::tile_iterations`] traversals started — the
    /// per-tile TTIS walks the compiled execution path exists to avoid.
    /// Observable via [`TiledSpace::traversal_count`] for regression tests.
    traversals: AtomicU64,
}

impl TiledSpace {
    /// Tile `space` by `transform`. Fails when the tile volume exceeds the
    /// space's budget ([`TilingError::TileTooLarge`]) or when the exact
    /// polyhedral machinery overflows `i64` coefficients (user-authored
    /// spaces with extreme bounds).
    pub fn new(transform: TilingTransform, space: Polyhedron) -> Result<Self, TilingError> {
        let n = transform.dim();
        assert_eq!(
            space.dim(),
            n,
            "space and transformation dimension mismatch"
        );
        // Reject oversized tiles before anything walks one: a full tile's
        // TTIS holds exactly |det P| lattice points.
        let limit = space
            .bounding_box()?
            .map(|(lo, hi)| tile_volume_limit(&lo, &hi));
        let volume = transform.tile_size().map_err(|e| match e {
            // A volume past i64 exceeds every limit.
            TilingError::TileTooLarge { volume, .. } => TilingError::TileTooLarge { volume, limit },
            e => e,
        })?;
        if let Some(limit) = limit.filter(|&limit| volume > limit) {
            return Err(TilingError::TileTooLarge {
                volume: volume.into(),
                limit: Some(limit),
            });
        }
        // Combined system over (j^S[0..n], j[0..n]).
        let mut combined = Polyhedron::universe(2 * n);
        for c in space.constraints() {
            let mut coeffs = vec![0i64; 2 * n];
            coeffs[n..].copy_from_slice(c.coeffs());
            combined.add(Constraint::new(coeffs, c.constant()));
        }
        let hp = transform.h_prime();
        let v = transform.v();
        for k in 0..n {
            // 0 ≤ h'_k·j − v_k·j^S_k ≤ v_k − 1
            let mut lo = vec![0i64; 2 * n];
            let mut hi = vec![0i64; 2 * n];
            lo[k] = -v[k];
            hi[k] = v[k];
            for c in 0..n {
                lo[n + c] = hp[(k, c)];
                hi[n + c] = -hp[(k, c)];
            }
            combined.add(Constraint::new(lo, 0));
            combined.add(Constraint::new(hi, v[k] - 1));
        }
        // FM produces many redundant shadow constraints; prune them (exact
        // over the integer tiles) to keep tile_valid and bounds cheap.
        let shadow = combined.project_onto_first(n)?.remove_redundant()?;
        let tile_bounds = LoopNestBounds::new(&shadow)?;
        let space_bounds = LoopNestBounds::new(&space)?;
        let full_tile_volume = usize::try_from(volume).map_err(|_| TilingError::TileTooLarge {
            volume: volume.into(),
            limit: None,
        })?;
        let p = transform.p().to_imat();
        let clamp = Clamp::new(&space, &IMat::zeros(n, 0), &p);
        let mut ts = TiledSpace {
            transform,
            space,
            p,
            clamp,
            shadow,
            tile_bounds,
            space_bounds,
            full_tile_volume,
            nonempty: BTreeSet::new(),
            tiles_pruned: 0,
            feasibility_walks: 0,
            traversals: AtomicU64::new(0),
        };
        // Prune the empty candidates the convex shadow admits. Interior
        // tiles are non-empty. Any other candidate clips the innermost rows
        // of its TTIS against the space until one row keeps an iteration,
        // without touching the traversal counter (this is a plan-time
        // emptiness test, not one of the per-tile walks the compiled path
        // eliminates).
        let t = &ts.transform;
        let clamp = &ts.clamp;
        // A row steps by the last HNF column (0, …, 0, c_{n−1}) in TTIS
        // coordinates, by P' times it in original ones. That column is a
        // lattice point, so the step is integral.
        let mut last_col = vec![0i64; n];
        last_col[n - 1] = t.stride(n - 1);
        let mut dj = vec![0i64; n];
        t.p_prime_mul_into(&last_col, &mut dj);
        let slope: Vec<i128> = clamp.dots(&dj).collect();
        let k = slope.len();
        // The rows of the tile box, once: each row's residual offsets
        // `a_k·P'·j'` and its length.
        let (mut res, mut lens) = (Vec::new(), Vec::new());
        let mut j = vec![0i64; n];
        for (jp, len) in t.lattice().rows_in_box(&vec![0; n], t.v()) {
            t.p_prime_mul_into(&jp, &mut j);
            res.extend(clamp.dots(&j));
            lens.push(len);
        }
        let (mut candidates, mut clipped) = (0usize, 0usize);
        let mut nonempty = BTreeSet::new();
        for tile in ts.tile_bounds.points() {
            candidates += 1;
            let tc = clamp.at(&ts.tile_origin(&tile));
            if !tc.interior() {
                clipped += 1;
                let row_hits = |(r, &len): (usize, &i64)| {
                    let line = |kk: usize| (tc.base[kk] + res[r * k + kk], slope[kk]);
                    clamp.clip(0, len - 1, false, line).is_some()
                };
                if !lens.iter().enumerate().any(row_hits) {
                    continue;
                }
            }
            nonempty.insert(tile);
        }
        ts.tiles_pruned = candidates - nonempty.len();
        ts.feasibility_walks = clipped;
        ts.nonempty = nonempty;
        Ok(ts)
    }

    /// Number of non-interior candidate tiles, each decided by clipping the
    /// innermost rows of its TTIS against the space.
    #[inline]
    pub fn feasibility_walks(&self) -> usize {
        self.feasibility_walks
    }

    /// Number of empty candidate tiles the shadow admitted and
    /// [`TiledSpace::new`] pruned.
    #[inline]
    pub fn tiles_pruned(&self) -> usize {
        self.tiles_pruned
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.transform.dim()
    }

    #[inline]
    pub fn transform(&self) -> &TilingTransform {
        &self.transform
    }

    #[inline]
    pub fn space(&self) -> &Polyhedron {
        &self.space
    }

    /// The tile-space shadow polyhedron (over `j^S`).
    #[inline]
    pub fn shadow(&self) -> &Polyhedron {
        &self.shadow
    }

    /// Precomputed tile-space loop bounds (`l^S_k`, `u^S_k`).
    #[inline]
    pub fn tile_bounds(&self) -> &LoopNestBounds {
        &self.tile_bounds
    }

    /// Compile-time validity predicate for a candidate tile: non-empty
    /// (which implies inside the tile-space shadow). Used symmetrically by
    /// send and receive sides, so no channel ever carries a message for a
    /// tile with zero iterations.
    pub fn tile_valid(&self, tile: &[i64]) -> bool {
        self.nonempty.contains(tile)
    }

    /// Enumerate the non-empty tiles in lexicographic order.
    pub fn tiles(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        self.nonempty.iter().cloned()
    }

    /// The origin iteration `P·tile` of tile `tile` (integral: `P` is
    /// validated integral). Its iterations are `origin + P'·j'`.
    pub fn tile_origin(&self, tile: &[i64]) -> Vec<i64> {
        self.p.mul_vec(tile)
    }

    /// The space's [`Clamp`] under the dependence columns `deps`, placed at
    /// closed tile boxes: [`Clamp::at`] a tile's origin gives its interior
    /// tests and its boundary clip.
    pub fn clamp_with(&self, deps: &IMat) -> Clamp {
        Clamp::new(&self.space, deps, &self.p)
    }

    /// True iff tile `tile` lies entirely inside `J^n` (its closed box's
    /// corners do, by convexity). Interior tiles need no per-point
    /// boundary clamping.
    pub fn tile_is_interior(&self, tile: &[i64]) -> bool {
        self.clamp.at(&self.tile_origin(tile)).interior()
    }

    /// The stronger interiority used by the compiled compute fast path: the
    /// tile is interior *and* every dependence source `j − d` of every tile
    /// point is also inside `J^n`. Such tiles run with zero membership
    /// tests: every read resolves to an LDS cell, never to the kernel's
    /// boundary value.
    pub fn tile_is_compute_interior(&self, tile: &[i64], deps: &IMat) -> bool {
        let clamp = self.clamp_with(deps);
        let tc = clamp.at(&self.tile_origin(tile));
        tc.compute_interior()
    }

    /// Number of [`TiledSpace::tile_iterations`] walks started so far on
    /// this space (across all threads). The compiled execution path keeps
    /// this flat: interior tiles never traverse.
    pub fn traversal_count(&self) -> u64 {
        self.traversals.load(Ordering::Relaxed)
    }

    /// Enumerate the iterations of tile `tile` (TTIS lattice points whose
    /// global iteration lies in `J^n`), as `(j', j)` pairs in strided loop
    /// order. Boundary tiles are clamped by the original iteration-space
    /// inequalities, exactly as the paper prescribes; interior tiles skip
    /// the per-point membership test.
    pub fn tile_iterations<'a>(
        &'a self,
        tile: &[i64],
    ) -> impl Iterator<Item = (Vec<i64>, Vec<i64>)> + 'a {
        self.traversals.fetch_add(1, Ordering::Relaxed);
        let t = &self.transform;
        let lo = vec![0i64; self.dim()];
        let interior = self.tile_is_interior(tile);
        let tile = tile.to_vec();
        t.lattice().points_in_box(&lo, t.v()).filter_map(move |jp| {
            let j = t.iteration_fast(&tile, &jp);
            (interior || self.space.contains(&j)).then_some((jp, j))
        })
    }

    /// Number of TTIS lattice points of a full (interior) tile.
    #[inline]
    pub fn full_tile_volume(&self) -> usize {
        self.full_tile_volume
    }

    /// Exact tile dependence matrix `D^S` (columns, deduplicated, zero
    /// excluded, in lexicographic order): every non-zero
    /// `d^S_k = ⌊(j'_k + d'_k) / v_k⌋` with `d' = H'·d` over the TTIS points
    /// `j'` (§2.2), in closed form. With `d'_k = q_k·v_k + r_k`, component
    /// `k` is `q_k + 1` iff `j'_k ≥ v_k − r_k` and `q_k` otherwise, so each
    /// carry pattern over the `k` with `r_k > 0` names one candidate column
    /// and a box of `j'`. A candidate is kept iff the TTIS lattice has a
    /// point in its box. No columns when no dependence crosses a tile (a
    /// dependence-free nest).
    pub fn tile_deps(&self, deps: &IMat) -> IMat {
        let t = &self.transform;
        let n = self.dim();
        let v = t.v();
        let dp = t.transformed_deps(deps);
        let mut set: BTreeSet<Vec<i64>> = BTreeSet::new();
        for q in 0..dp.cols() {
            let d = dp.col(q);
            let quot: Vec<i64> = (0..n).map(|k| d[k].div_euclid(v[k])).collect();
            let rem: Vec<i64> = (0..n).map(|k| d[k].rem_euclid(v[k])).collect();
            let carries: Vec<usize> = (0..n).filter(|&k| rem[k] > 0).collect();
            for mask in 0..1usize << carries.len() {
                let mut col = quot.clone();
                let (mut lo, mut hi) = (vec![0i64; n], v.to_vec());
                for (bit, &k) in carries.iter().enumerate() {
                    if mask >> bit & 1 == 1 {
                        col[k] += 1;
                        lo[k] = v[k] - rem[k];
                    } else {
                        hi[k] = v[k] - rem[k];
                    }
                }
                if col.iter().any(|&x| x != 0)
                    && !set.contains(&col)
                    && t.lattice().points_in_box(&lo, &hi).next().is_some()
                {
                    set.insert(col);
                }
            }
        }
        let mut m = IMat::zeros(n, set.len());
        for (c, col) in set.iter().enumerate() {
            for k in 0..n {
                m[(k, c)] = col[k];
            }
        }
        m
    }

    /// Loop bounds of the original space (used for boundary clamping and
    /// sequential scanning).
    #[inline]
    pub fn space_bounds(&self) -> &LoopNestBounds {
        &self.space_bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_linalg::RMat;

    /// Number of in-space iterations of a tile.
    fn tile_volume(tiled: &TiledSpace, tile: &[i64]) -> usize {
        tiled.tile_iterations(tile).count()
    }

    fn sor_like_space() -> Polyhedron {
        // Skewed-SOR-like space: 1<=t<=4, t+1<=i<=t+6, 2t+1<=j<=2t+6.
        let mut p = Polyhedron::universe(3);
        p.add(Constraint::new(vec![1, 0, 0], -1));
        p.add(Constraint::new(vec![-1, 0, 0], 4));
        p.add(Constraint::new(vec![-1, 1, 0], -1));
        p.add(Constraint::new(vec![1, -1, 0], 6));
        p.add(Constraint::new(vec![-2, 0, 1], -1));
        p.add(Constraint::new(vec![2, 0, -1], 6));
        p
    }

    fn sor_hnr(x: i64, y: i64, z: i64) -> TilingTransform {
        TilingTransform::new(RMat::from_fractions(&[
            &[(1, x), (0, 1), (0, 1)],
            &[(0, 1), (1, y), (0, 1)],
            &[(-1, z), (0, 1), (1, z)],
        ]))
        .unwrap()
    }

    #[test]
    fn every_iteration_in_exactly_one_tile() {
        let space = sor_like_space();
        for ts in [
            TilingTransform::rectangular(&[2, 3, 2]).unwrap(),
            sor_hnr(2, 3, 2),
            sor_hnr(3, 2, 4),
        ] {
            let tiled = TiledSpace::new(ts, space.clone()).unwrap();
            let total_space = tiled.space_bounds().points().count();
            let tiled_total: usize = tiled.tiles().map(|t| tile_volume(&tiled, &t)).sum();
            assert_eq!(tiled_total, total_space);
        }
    }

    #[test]
    fn tile_of_matches_enumeration() {
        let space = sor_like_space();
        let tiled = TiledSpace::new(sor_hnr(2, 2, 3), space.clone()).unwrap();
        // Each point's floor(Hj) tile must be valid and contain the point.
        let bounds = LoopNestBounds::new(&space).unwrap();
        for j in bounds.points() {
            let tile = tiled.transform().tile_of(&j);
            assert!(
                tiled.tile_valid(&tile),
                "tile {tile:?} of {j:?} not in shadow"
            );
            assert!(
                tiled.tile_iterations(&tile).any(|(_, jj)| jj == j),
                "point {j:?} missing from its tile {tile:?}"
            );
        }
    }

    #[test]
    fn rectangular_tile_deps_for_unit_deps() {
        let space = Polyhedron::from_box(&[0, 0], &[7, 7]);
        let t = TilingTransform::rectangular(&[4, 4]).unwrap();
        let tiled = TiledSpace::new(t, space).unwrap();
        let deps = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        let ds = tiled.tile_deps(&deps);
        // d = (1,0) crosses tiles only at the boundary row: d^S = (1,0); same
        // for (0,1). Interior points give (0,0), excluded.
        let cols: BTreeSet<Vec<i64>> = (0..ds.cols()).map(|c| ds.col(c)).collect();
        let expected: BTreeSet<Vec<i64>> = [vec![0, 1], vec![1, 0]].into_iter().collect();
        assert_eq!(cols, expected);
    }

    #[test]
    fn long_dependence_spans_two_tiles() {
        let space = Polyhedron::from_box(&[0], &[9]);
        let t = TilingTransform::rectangular(&[2]).unwrap();
        let tiled = TiledSpace::new(t, space).unwrap();
        // d = 3 with tile length 2: d^S in {1, 2}.
        let deps = IMat::from_rows(&[&[3]]);
        let ds = tiled.tile_deps(&deps);
        let cols: BTreeSet<Vec<i64>> = (0..ds.cols()).map(|c| ds.col(c)).collect();
        let expected: BTreeSet<Vec<i64>> = [vec![1], vec![2]].into_iter().collect();
        assert_eq!(cols, expected);
    }

    #[test]
    fn huge_tiles_plan_without_walking_them() {
        // 10⁵ × 10⁵ tiles (10¹⁰ TTIS points each) over a 2-D box of side
        // 10⁶. Neither pruning nor D^S may walk a tile; the shifted box
        // makes every edge tile a boundary candidate for the row clip.
        let t = TilingTransform::rectangular(&[100_000, 100_000]).unwrap();
        let deps = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        let want: BTreeSet<Vec<i64>> = [vec![0, 1], vec![1, 0]].into_iter().collect();
        for (lo, tiles) in [(0, 100), (1, 121)] {
            let space = Polyhedron::from_box(&[lo, lo], &[lo + 999_999, lo + 999_999]);
            let tiled = TiledSpace::new(t.clone(), space).unwrap();
            assert_eq!(tiled.tiles().count(), tiles);
            assert_eq!(tiled.tiles_pruned(), 0);
            let ds = tiled.tile_deps(&deps);
            let cols: BTreeSet<Vec<i64>> = (0..ds.cols()).map(|c| ds.col(c)).collect();
            assert_eq!(cols, want);
        }
    }

    #[test]
    fn skewed_tiling_tile_deps_match_paper_structure() {
        // SOR-nr with equal factors: D^S components must all be in {0, 1}
        // and lexicographically positive.
        let space = sor_like_space();
        let tiled = TiledSpace::new(sor_hnr(3, 3, 3), space).unwrap();
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let ds = tiled.tile_deps(&deps);
        for c in 0..ds.cols() {
            let col = ds.col(c);
            assert!(tilecc_linalg::vecops::is_lex_positive(&col), "{col:?}");
            assert!(col.iter().all(|&x| (0..=1).contains(&x)), "{col:?}");
        }
    }

    #[test]
    fn shadow_contains_every_nonempty_tile_and_scan_is_finite() {
        let space = sor_like_space();
        let tiled = TiledSpace::new(sor_hnr(2, 3, 2), space).unwrap();
        let tiles: Vec<_> = tiled.tiles().collect();
        assert!(!tiles.is_empty());
        // All tiles distinct.
        let set: BTreeSet<_> = tiles.iter().cloned().collect();
        assert_eq!(set.len(), tiles.len());
    }

    #[test]
    fn shadow_pruning_drops_empty_candidate_tiles() {
        // 2D space 0<=i<=7, 0<=j<=4 cut by 3i <= 2j + 5, tiled by the
        // non-rectangular H = [[1/4, 0], [1/4, 1/2]]. The FM shadow's
        // parametric integer bounds over-approximate here: they admit one
        // candidate tile whose box contains no iteration point. Plan-time
        // pruning must drop it so no rank ever computes, packs, or waits
        // on an empty tile.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], 0));
        p.add(Constraint::new(vec![-1, 0], 7));
        p.add(Constraint::new(vec![0, 1], 0));
        p.add(Constraint::new(vec![0, -1], 4));
        p.add(Constraint::new(vec![-3, 2], 5));
        let h = RMat::from_fractions(&[&[(1, 4), (0, 1)], &[(1, 4), (1, 2)]]);
        let tiled = TiledSpace::new(TilingTransform::new(h).unwrap(), p.clone()).unwrap();

        assert_eq!(
            tiled.tiles_pruned(),
            1,
            "shadow should admit one empty candidate"
        );
        // Every surviving tile is genuinely non-empty...
        for tile in tiled.tiles() {
            assert!(
                tile_volume(&tiled, &tile) >= 1,
                "empty tile {tile:?} survived pruning"
            );
        }
        // ...and pruning loses no iterations: the per-tile volumes still
        // sum to the full space.
        let total_space = LoopNestBounds::new(&p).unwrap().points().count();
        let tiled_total: usize = tiled.tiles().map(|t| tile_volume(&tiled, &t)).sum();
        assert_eq!(tiled_total, total_space);
        // The pruned candidate count matches the raw shadow enumeration.
        let candidates = tiled.tile_bounds().points().count();
        assert_eq!(candidates, tiled.tiles().count() + tiled.tiles_pruned());
    }

    #[test]
    fn pruning_is_a_noop_on_exact_shadows() {
        // For the paper's kernel-style spaces the FM shadow plus redundancy
        // elimination is empirically exact; pruning must keep every
        // candidate and report zero drops.
        let space = sor_like_space();
        for t in [
            TilingTransform::rectangular(&[2, 3, 2]).unwrap(),
            sor_hnr(2, 3, 2),
            sor_hnr(3, 2, 4),
        ] {
            let tiled = TiledSpace::new(t, space.clone()).unwrap();
            assert_eq!(tiled.tiles_pruned(), 0);
        }
    }
}
