#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! Compiled tile execution: the tile's TTIS rows over the row-major LDS.
//!
//! The paper's performance argument (§3.1, Table 1) is that condensed
//! rectangular LDS storage plus strided TTIS traversal lets the *generated*
//! tile code run at array speed. Its strided loops take their strides `c_k`
//! and offsets `a_kl` from the HNF of `H'` (§2.3); this module lowers each
//! chain's tile work at plan time to the innermost of those loops — rows:
//!
//! - A [`Row`] is one innermost lattice row of the tile box `[0, v)`
//!   ([`tilecc_linalg::Lattice::rows_in_box`]). Along it `j'` steps by
//!   `c_{n−1}`, so the owned cell and every read source `j' − d'` step by
//!   exactly one LDS cell, and the iteration by the per-chain vector
//!   `dj = P'·(0,…,0,c_{n−1})`: a row is start values, a length and a
//!   batch width, and no table grows with the tile's points.
//! - `c_m | v_m` (integral tile sides), so advancing one chain position
//!   shifts every cell by `chain_step = (v_m / c_m) · weights_m`.
//! - Each tile places the plan's [`Clamp`] at its origin once; the
//!   resulting [`TileClamp`] says whether the tile is compute-interior and,
//!   when it is not, clips each row by the iteration space to its
//!   in-space interval and to the window whose every source is in the
//!   space. The clip works on integer residuals: each
//!   constraint `a_k·j + b_k ≥ 0` is `a_k·origin + b_k` per tile, plus
//!   `a_k·row.j` per row, plus `a_k·dj` per row position, so a row costs
//!   one add and at most one floor division per constraint. A row whose
//!   window is its whole in-space interval runs like an interior row. A
//!   row with edges clips each dependence to the one interval whose
//!   source is in the space ([`Clamp::source_clip`], the same residuals
//!   shifted by `a_k·d_i`); it reads the LDS there and the kernel's
//!   [`Kernel::initial_run`] values elsewhere, and no point is tested.
//!   Every span runs as one [`Stretch`], the row loop the sequential scan
//!   shares.
//!   [`count_tile`] counts the same intervals, and a rank's output
//!   ([`read_owned_tile`]), [`gather_tile`] and [`compare_tile`] visit
//!   them through one row visitor.
//! - Pack and unpack regions are the rows of their region boxes, one
//!   unit-stride block copy each ([`Block`]).
//! - The overlapped split is built on first use ([`CompiledChain::split`])
//!   as sub-rows ([`Span`]) of the same table.
//!
//! Offsets are exact wherever the checked path would succeed (see
//! [`LdsGeometry::flat_cell_signed`]). The constructor asserts every owned
//! and pack cell in range; an unpack row is clipped at build time to its
//! cells inside the allocation — the halo writes the reference path's
//! `Lds::set_all` silently drops.

use std::sync::OnceLock;
use tilecc_linalg::vecops::{div_ceil, div_floor};
use tilecc_linalg::IMat;
use tilecc_loopnest::stretch::{Scratch, Stretch};
use tilecc_loopnest::{DataSpace, Kernel};
use tilecc_polytope::{Clamp, TileClamp};
use tilecc_tiling::{CommPlan, Lds, LdsGeometry, TiledSpace};

// The batch limits are shared with the sequential scan
// (`Algorithm::execute_scan`), whose lag argument is the same.
pub use tilecc_loopnest::kernel::{CACHE_BLOCK, MIN_BATCH};

/// One innermost TTIS row of the tile box: the `len` lattice points
/// `jp + t·(0,…,0,c_{n−1})`, `0 ≤ t < len`. At `tpos = 0` point `t` owns
/// cell `dst + t`, reads dependence `dq` from cell `src[dq] + t`
/// (`src = dst − flat(d')`), runs iteration `origin + j + t·dj` (`j = P'·jp`)
/// and gathers into `DataSpace` cell `gbase + gather + t·gather_step`.
/// `batch` is the safe chunk width for pre-gathered reads (0 = per point).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub jp: Vec<i64>,
    pub j: Vec<i64>,
    pub dst: i64,
    pub src: Vec<i64>,
    pub gather: i64,
    pub len: usize,
    pub batch: usize,
}

/// Positions `at..at + len` of row `row` of [`CompiledChain::rows`]: a
/// whole row, or one sub-row of the overlapped split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub row: usize,
    pub at: usize,
    pub len: usize,
}

/// A unit-stride block copy of a region row: payload values `at..at + len`
/// ↔ LDS cells `cell..cell + len` at `tpos = 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    pub at: usize,
    pub cell: i64,
    pub len: usize,
}

/// A pack or unpack region: the lattice points of its box
/// `[region_lo(dm), v)` (the message length in cells) and the block copies
/// of its rows in walk order. Unpack blocks skip the cells outside the
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct Region {
    pub points: usize,
    pub blocks: Vec<Block>,
}

/// The overlapped scheme's split of the tile's rows, in walk order: the
/// boundary slab (the dependence closure of the pack regions, executed
/// first so every pack region is ready to send) and the private interior
/// (no pack region reads it, so it computes while sends are in flight).
pub struct OverlapSplit {
    pub boundary: Vec<Span>,
    pub interior: Vec<Span>,
}

/// Plan-time lowering of one chain length's tile work to TTIS rows over
/// flat LDS cells.
///
/// LDS extents — and therefore row-major weights — depend on the chain
/// length, so a [`CompiledChain`] is built per distinct `num_tiles` (ranks
/// sharing a chain length share the tables).
pub struct CompiledChain {
    /// Chain length this table was compiled for.
    pub num_tiles: i64,
    /// TTIS lattice points per full tile.
    pub tile_points: usize,
    /// Number of dependence columns.
    pub q: usize,
    /// Loop-nest dimension.
    pub n: usize,
    /// Flat-index shift per chain position (`(v_m / c_m) · weights_m`).
    pub chain_step: i64,
    /// Iteration advance per row position, `P'·(0,…,0,c_{n−1})`.
    pub dj: Vec<i64>,
    /// `DataSpace` cell advance per row position, `Σ_k dj_k · ds_weights_k`.
    pub gather_step: i64,
    /// The tile box's rows, in lattice walk order.
    pub rows: Vec<Row>,
    /// Every row whole, in walk order.
    pub walk: Vec<Span>,
    /// Pack regions, one per processor dependence.
    pub pack: Vec<Region>,
    /// Unpack regions, one per *tile* dependence (aligned with
    /// `comm.tile_deps`; empty for intra-processor dependences).
    pub unpack: Vec<Region>,
    /// TTIS step `c_{n−1}` along a row.
    stride: i64,
    /// Transformed dependences `d' = H'·d` (columns).
    d_prime: IMat,
    /// The dependences `d`, dependence-major (`d[i·n + k] = d_ik`): a
    /// source outside the space reads the kernel's initial value at
    /// `j − d`.
    d: Vec<i64>,
    /// Lower corner of each processor dependence's pack region.
    region_lo: Vec<Vec<i64>>,
    /// `a_k·dj` of each [`Clamp`] constraint: its residual's step per row
    /// position.
    slope: Vec<i128>,
    /// `a_k·row.j` of each row and constraint, row-major.
    row_res: Vec<i128>,
    split: OnceLock<OverlapSplit>,
}

/// Positions `a..b` of row `row`.
fn span(row: usize, a: i64, b: i64) -> Span {
    let (at, len) = (a as usize, (b - a) as usize);
    Span { row, at, len }
}

/// Lay the rows of a region box out as block copies. `clip` maps a row
/// (first point, length) to its first kept position, that position's cell
/// and the kept length, or `None` to drop the whole row.
fn region(
    rows: impl Iterator<Item = (Vec<i64>, i64)>,
    mut clip: impl FnMut(&[i64], i64) -> Option<(i64, i64, i64)>,
) -> Region {
    let mut r = Region::default();
    for (jp, row_len) in rows {
        if let Some((t0, cell, len)) = clip(&jp, row_len) {
            let (at, len) = (r.points + t0 as usize, len as usize);
            r.blocks.push(Block { at, cell, len });
        }
        r.points += row_len as usize;
    }
    r
}

/// Clip half-open intervals to `[0, len)`, drop the empty ones, sort them
/// and merge the overlapping or adjacent ones.
fn normalize(set: &mut Vec<(i64, i64)>, len: i64) {
    set.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(set.len());
    let clipped = set.iter().map(|&(a, b)| (a.max(0), b.min(len)));
    for (a, b) in clipped.filter(|(a, b)| a < b) {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    *set = out;
}

/// Close a normalized interval set of a `len`-point row under `p → p − δ`
/// for every in-row shift `δ ≥ 1`. An interval at least `δ` long reaches 0
/// through its own copies; a shorter one is copied once per round.
fn close_down(set: &mut Vec<(i64, i64)>, shifts: &[i64], len: i64) {
    loop {
        let mut grown = set.clone();
        for &d in shifts {
            for &(a, b) in set.iter() {
                grown.push(if b - a >= d { (0, b) } else { (a - d, b - d) });
            }
        }
        normalize(&mut grown, len);
        if grown == *set {
            return;
        }
        *set = grown;
    }
}

impl CompiledChain {
    /// Lower the per-tile work of a `num_tiles`-long chain. `ds_weights` are
    /// the global data space's row-major cell weights (the gather target),
    /// and `clamp` the plan's boundary-tile clamp.
    pub fn new(
        tiled: &TiledSpace,
        comm: &CommPlan,
        geo: &LdsGeometry,
        ds_weights: &[i64],
        clamp: &Clamp,
        num_tiles: i64,
    ) -> Self {
        let t = tiled.transform();
        let n = t.dim();
        let m = geo.m;
        let v = t.v();
        assert_eq!(
            v[m] % geo.c[m],
            0,
            "integral tile sides guarantee c_m | v_m"
        );
        let extents = geo.extents(num_tiles);
        let weights = LdsGeometry::weights(&extents);
        let total_cells: i64 = extents.iter().product();
        let chain_step = (v[m] / geo.c[m]) * weights[m];
        let q = comm.d_prime.cols();
        let lat = t.lattice();
        let stride = geo.c[n - 1];
        let dot = |a: &[i64], b: &[i64]| -> i64 { a.iter().zip(b).map(|(&x, &w)| x * w).sum() };

        // Checked cell at tpos = 0 of a row's first point: every dimension
        // of its first and last points must be in range (dimension m is then
        // in range for the whole chain because the decomposition is linear
        // in tpos, and only dimension n−1 moves along the row).
        let row_cell = |jp: &[i64], len: i64, what: &str| -> i64 {
            let mut cell = 0i64;
            for k in 0..n {
                let a = div_floor(jp[k], geo.c[k]) + geo.off[k];
                let last = if k == n - 1 { a + len - 1 } else { a };
                assert!(
                    0 <= a && last < extents[k],
                    "{what} address out of range: jp={jp:?} dim {k}"
                );
                cell += a * weights[k];
            }
            cell
        };

        // j = P·tile + P'·j'; both parts are integral (P is validated
        // integral, and lattice points satisfy j' = H'·z). (0,…,0,c_{n−1})
        // is the last Hermite basis column, a lattice point too.
        let mut dj = vec![0i64; n];
        let mut unit = vec![0i64; n];
        unit[n - 1] = stride;
        t.p_prime_mul_into(&unit, &mut dj);
        let mut g0 = vec![0i64; n];
        let zero = vec![0i64; n];
        let rows: Vec<Row> = lat
            .rows_in_box(&zero, v)
            .map(|(jp, len)| {
                let dst = row_cell(&jp, len, "owned");
                assert!(dst + len - 1 + (num_tiles - 1) * chain_step < total_cells);
                let mut j = vec![0i64; n];
                t.p_prime_mul_into(&jp, &mut j);
                let src: Vec<i64> = (0..q)
                    .map(|dq| {
                        for k in 0..n {
                            g0[k] = jp[k] - comm.d_prime[(k, dq)];
                        }
                        geo.flat_cell_signed(&g0, &weights)
                    })
                    .collect();
                // Lag analysis: point `p` of the row writes cell `dst + p`
                // and its dependence-`dq` read sits at `dst + p − lag_dq`.
                // A chunk of `B` pre-gathered points writes cells
                // `[dst+s, dst+s+B)` only after gathering, so a read is
                // stale exactly when its in-row writer `p − lag` falls
                // inside the same chunk — impossible for `B ≤ lag`.
                // `lag == 0` reads the cell's pre-row value on both paths
                // (the row's only write of that cell happens at the reading
                // point itself, after its read), and negative lags cannot
                // occur: `d' ≥ 0` makes every per-dimension LDS address of
                // `j' − d'` ≤ that of `j'`.
                let mut batch = CACHE_BLOCK as i64;
                for &s in &src {
                    let lag = dst - s;
                    debug_assert!(lag >= 0, "negative dependence lag");
                    if lag >= 1 {
                        batch = batch.min(lag);
                    }
                }
                let batch = if batch < MIN_BATCH as i64 { 0 } else { batch };
                let (gather, len, batch) = (dot(&j, ds_weights), len as usize, batch as usize);
                Row {
                    jp,
                    j,
                    dst,
                    src,
                    gather,
                    len,
                    batch,
                }
            })
            .collect();
        debug_assert_eq!(
            rows.iter().map(|r| r.len).sum::<usize>(),
            tiled.full_tile_volume()
        );

        let region_lo: Vec<Vec<i64>> = comm
            .proc_deps
            .iter()
            .map(|dm| comm.region_lo(dm, v))
            .collect();
        let pack = region_lo
            .iter()
            .map(|lo| {
                region(lat.rows_in_box(lo, v), |jp, len| {
                    Some((0, row_cell(jp, len, "pack"), len))
                })
            })
            .collect();

        // Unpack: the receiver addresses the sender's region points as data
        // of chain tile `tpos − ds_m` shifted by `−ds_k·v_k`; at `tpos = 0`
        // that is uniformly `g_k = jp_k − ds_k·v_k`. Along a row only the
        // address of dimension n−1 moves, by one per point, so the cells
        // inside the allocation are one interval of the row.
        let unpack = comm
            .tile_deps
            .iter()
            .zip(&comm.dm_of_ds)
            .map(|(ds, dm_idx)| {
                let Some(dm_idx) = *dm_idx else {
                    return Region::default();
                };
                region(lat.rows_in_box(&region_lo[dm_idx], v), |jp, len| {
                    let (mut cell, mut t0, mut t1) = (0i64, 0i64, len);
                    for k in 0..n {
                        let a = div_floor(jp[k] - ds[k] * v[k], geo.c[k]) + geo.off[k];
                        if k == m {
                            // Halo depth along the mapping dimension is
                            // covered by construction (off_m spans the
                            // deepest predecessor tile), so a receive never
                            // underflows the allocation.
                            assert!(a >= 0, "mapping-dimension halo underflow");
                        } else if k == n - 1 {
                            t0 = (-a).max(0);
                            t1 = t1.min(extents[k] - a);
                        } else if a < 0 || a >= extents[k] {
                            return None;
                        }
                        cell += a * weights[k];
                    }
                    (t0 < t1).then_some((t0, cell + t0, t1 - t0))
                })
            })
            .collect();

        CompiledChain {
            slope: clamp.dots(&dj).collect(),
            row_res: rows.iter().flat_map(|r| clamp.dots(&r.j)).collect(),
            num_tiles,
            tile_points: tiled.full_tile_volume(),
            q,
            n,
            chain_step,
            gather_step: dot(&dj, ds_weights),
            dj,
            walk: (0..rows.len())
                .map(|row| span(row, 0, rows[row].len as i64))
                .collect(),
            rows,
            pack,
            unpack,
            stride,
            d_prime: comm.d_prime.clone(),
            d: (0..q).flat_map(|i| clamp.deps.col(i)).collect(),
            region_lo,
            split: OnceLock::new(),
        }
    }

    /// The boundary/interior split, built on the first call (only the
    /// compiled strategy under the overlapped scheme asks for it).
    pub fn split(&self) -> &OverlapSplit {
        self.split.get_or_init(|| self.build_split())
    }

    /// The slab is the *dependence closure* of the union of the pack
    /// regions: every TTIS point some pack-region point transitively reads
    /// within the tile, not just the regions themselves — tiling validity
    /// gives `d' = H'·d ≥ 0`, so region points read *lower* lattice points
    /// and a region-only pass would execute them against stale cells.
    /// Because `d' ≥ 0` and `d' ≠ 0` also make the ascending lattice walk a
    /// topological order, running the slab in walk order, then the interior
    /// in walk order, respects every intra-tile dependence: the closure is
    /// predecessor-closed, so no slab point reads an interior point.
    ///
    /// Rows are visited in reverse walk order, each slab kept as sorted
    /// position intervals. A row's slab is its pack-region part (a suffix
    /// per region) plus the slabs of the rows one `d'` above it, shifted by
    /// `d'_{n−1}`, closed under the dependences that stay in the row. The
    /// rows above come later in the walk, so their slabs are final.
    fn build_split(&self) -> OverlapSplit {
        let (n, c) = (self.n, self.stride);
        fn outer(r: &Row) -> &[i64] {
            &r.jp[..r.jp.len() - 1]
        }
        let (in_row, across): (Vec<usize>, Vec<usize>) =
            (0..self.q).partition(|&dq| (0..n - 1).all(|k| self.d_prime[(k, dq)] == 0));
        let shifts: Vec<i64> = in_row
            .iter()
            .map(|&dq| self.d_prime[(n - 1, dq)] / c)
            .collect();
        let mut slab: Vec<Vec<(i64, i64)>> = vec![Vec::new(); self.rows.len()];
        let mut above = vec![0i64; n - 1];
        for r in (0..self.rows.len()).rev() {
            let row = &self.rows[r];
            let len = row.len as i64;
            let mut set = Vec::new();
            for lo in &self.region_lo {
                if outer(row).iter().zip(lo).all(|(&x, &l)| x >= l) {
                    set.push((div_ceil(lo[n - 1] - row.jp[n - 1], c), len));
                }
            }
            for &dq in &across {
                for k in 0..n - 1 {
                    above[k] = row.jp[k] + self.d_prime[(k, dq)];
                }
                if let Ok(u) = self.rows.binary_search_by(|x| outer(x).cmp(&above[..])) {
                    // Exact: both rows' points are lattice points with the
                    // same outer coordinates after the shift by −d'.
                    let shift =
                        (self.rows[u].jp[n - 1] - self.d_prime[(n - 1, dq)] - row.jp[n - 1]) / c;
                    set.extend(slab[u].iter().map(|&(a, b)| (a + shift, b + shift)));
                }
            }
            normalize(&mut set, len);
            close_down(&mut set, &shifts, len);
            slab[r] = set;
        }
        let (mut boundary, mut interior) = (Vec::new(), Vec::new());
        for (row, set) in slab.iter().enumerate() {
            let mut at = 0;
            for &(a, b) in set {
                if at < a {
                    interior.push(span(row, at, a));
                }
                boundary.push(span(row, a, b));
                at = b;
            }
            let len = self.rows[row].len as i64;
            if at < len {
                interior.push(span(row, at, len));
            }
        }
        OverlapSplit { boundary, interior }
    }

    /// Message length (in values) of each pack region — equals the lattice
    /// point count of `[region_lo(dm), v)`.
    pub fn pack_counts(&self) -> Vec<usize> {
        self.pack.iter().map(|r| r.points).collect()
    }

    /// Write the iteration of position `t` of `row` in the tile at
    /// `origin`, `origin + row.j + t·dj`, into `j`.
    #[inline]
    fn iteration_at(&self, origin: &[i64], row: &Row, t: usize, j: &mut [i64]) {
        for k in 0..self.n {
            j[k] = origin[k] + row.j[k] + t as i64 * self.dj[k];
        }
    }

    /// Residual `a_k·j + b_k` of constraint `k` at position `t` of row
    /// `row` in the tile of `tc`.
    #[inline]
    fn residual(&self, tc: &TileClamp, row: usize, t: usize, k: usize) -> i128 {
        let kk = self.slope.len();
        tc.base[k] + self.row_res[row * kk + k] + t as i128 * self.slope[k]
    }

    /// [`Clamp::clip`] of the positions of span `s` (counted from `s.at`)
    /// in the tile of `clamp`; every position, without one. Along a row
    /// the iterations lie on a line, so a convex space keeps one interval.
    fn clip(&self, s: &Span, clamp: Option<&TileClamp>, window: bool) -> Option<[i64; 4]> {
        let last = s.len as i64 - 1;
        let Some(tc) = clamp else {
            return Some([0, last, 0, last]);
        };
        let line = |k| (self.residual(tc, s.row, s.at, k), self.slope[k]);
        tc.clamp.clip(0, last, window, line)
    }

    /// Each dependence's positions among the in-space positions `s0..s1`
    /// of span `s` in the tile of `tc` whose source lies in the space, as
    /// one half-open interval into the stretch's `stored` (empty at `s1`): the
    /// residuals of the span's first position, computed once, shifted per
    /// dependence ([`Clamp::source_clip`]).
    fn source_intervals(
        &self,
        tc: &TileClamp,
        s: &Span,
        s0: usize,
        s1: usize,
        scr: &mut ComputeScratch,
    ) {
        scr.res.resize(self.slope.len(), 0);
        for (k, r) in scr.res.iter_mut().enumerate() {
            *r = self.residual(tc, s.row, s.at, k);
        }
        let res = &scr.res;
        let line = |k: usize| (res[k], self.slope[k]);
        for (dq, stored) in scr.stretch.stored.iter_mut().enumerate() {
            *stored = tc
                .clamp
                .source_clip(s0 as i64, s1 as i64 - 1, dq, line)
                .map_or((s1, s1), |[a, e]| (a as usize, e as usize + 1));
        }
    }
}

/// Reusable per-rank scratch of the compiled compute paths: the row
/// stretches' buffers ([`Scratch`]), one span's first iteration and its
/// residuals. Allocated once per rank (or bench loop), so the hot paths
/// stay allocation-free.
pub struct ComputeScratch {
    stretch: Scratch,
    j0: Vec<i64>,
    /// Residuals of a span's first position, one per [`Clamp`] constraint.
    res: Vec<i128>,
}

impl ComputeScratch {
    /// Scratch for an `n`-dimensional nest with `q` dependences and `w`
    /// components per cell.
    pub fn new(n: usize, q: usize, w: usize) -> Self {
        ComputeScratch {
            stretch: Scratch::new(n, q, w),
            j0: vec![0; n],
            res: Vec::new(),
        }
    }
}

/// Compute a tile along `spans` — every row whole ([`CompiledChain::walk`])
/// or one pass of a split tile ([`OverlapSplit::boundary`] /
/// [`OverlapSplit::interior`]) — with no per-point allocation. A
/// compute-interior tile passes `clamp = None`: every point is in the space
/// and every read source is stored in the LDS. A boundary tile passes its
/// [`TileClamp`], which cuts each span to its in-space interval and checks
/// whether every source of the interval is in the space too. Such a span
/// reads only the LDS, like an unclamped one. A span with edges clips each
/// dependence to the interval whose source is in the space
/// ([`Clamp::source_clip`]); its reads come from the LDS there and from
/// [`Kernel::initial_run`] elsewhere, staged per chunk, so no point is
/// tested. A span whose row has a usable `batch` width goes through the
/// kernel's `compute_run` batch entry in cache-blocked chunks (reads
/// bulk-copied per dependence, one kernel dispatch per chunk, one bulk
/// write-back), bitwise identical to the per-point order (see the lag
/// analysis in [`CompiledChain::new`], which holds for any stretch of a
/// row); the rest run per point. Returns the number of in-space points
/// computed and how many of them went through the batch entry.
#[allow(clippy::too_many_arguments)]
pub fn compute_tile_fast<K: Kernel + ?Sized>(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    origin: &[i64],
    kernel: &K,
    scr: &mut ComputeScratch,
    spans: &[Span],
    clamp: Option<&TileClamp>,
) -> (u64, u64) {
    let width = lds.width();
    // Single split borrow of the LDS buffer, hoisted out of all loops.
    let vals = lds.values_mut();
    let (mut iters, mut batched) = (0u64, 0u64);
    for span in spans {
        // Span positions [s0, s1] are in the space; the window [w0, w1]
        // lies inside them.
        let Some([s0, s1, w0, w1]) = chain.clip(span, clamp, true) else {
            continue;
        };
        let (s0, s1, w0, w1) = (s0 as usize, s1 as usize + 1, w0 as usize, w1 as usize + 1);
        iters += (s1 - s0) as u64;
        let row = &chain.rows[span.row];
        let batch = row.batch >= MIN_BATCH as usize && s1 - s0 >= MIN_BATCH as usize;
        let edges = clamp.filter(|_| [w0, w1] != [s0, s1]);
        batched += if batch { (s1 - s0) as u64 } else { 0 };
        if batch && edges.is_none() {
            // The interior loop: every read from the LDS.
            let (q, w, base) = (chain.q, width, tpos * chain.chain_step);
            let scr = &mut scr.stretch;
            let mut done = s0;
            while done < s1 {
                let b = row.batch.min(s1 - done);
                let t = span.at + done;
                chain.iteration_at(origin, row, t, &mut scr.j);
                let cw = b * w;
                for dq in 0..q {
                    let cell = (base + row.src[dq] + t as i64) as usize;
                    scr.run_reads[dq * cw..dq * cw + cw]
                        .copy_from_slice(&vals[cell * w..cell * w + cw]);
                }
                let out = &mut scr.run_out[..cw];
                kernel.compute_run(&scr.j, &chain.dj, b, &scr.run_reads[..q * cw], out);
                let cell = (base + row.dst + t as i64) as usize;
                vals[cell * w..cell * w + cw].copy_from_slice(out);
                done += b;
            }
            continue;
        }
        if let Some(tc) = edges {
            chain.source_intervals(tc, span, s0, s1, scr);
        }
        chain.iteration_at(origin, row, span.at, &mut scr.j0);
        let stretch = Stretch {
            at: tpos * chain.chain_step + span.at as i64,
            dst: row.dst,
            src: &row.src,
            j0: &scr.j0,
            dj: &chain.dj,
            d: &chain.d,
            width,
        };
        let scr = &mut scr.stretch;
        if batch {
            stretch.run(kernel, vals, s0..s1, row.batch, scr);
        } else {
            // Per point: the window reads the LDS alone, and only the
            // edges stage their initial values.
            stretch.run(kernel, vals, s0..w0, 0, scr);
            stretch.points(kernel, vals, w0..w1, scr);
            stretch.run(kernel, vals, w1..s1, 0, scr);
        }
    }
    (iters, batched)
}

/// Count the in-space points of a tile along `spans` without touching any
/// data — the timing-only twin of [`compute_tile_fast`], one clip per span.
pub fn count_tile(chain: &CompiledChain, clamp: Option<&TileClamp>, spans: &[Span]) -> u64 {
    let kept = spans.iter().filter_map(|s| chain.clip(s, clamp, false));
    kept.map(|[a, b, ..]| (b - a + 1) as u64).sum()
}

/// Fill `payload` with the pack region of processor dependence `dm_idx` at
/// chain position `tpos`, one block copy per region row.
pub fn pack_region(
    chain: &CompiledChain,
    lds: &Lds,
    tpos: i64,
    dm_idx: usize,
    payload: &mut [f64],
) {
    let w = lds.width();
    let base = tpos * chain.chain_step;
    let vals = lds.values();
    for b in &chain.pack[dm_idx].blocks {
        let cell = (base + b.cell) as usize;
        payload[b.at * w..(b.at + b.len) * w].copy_from_slice(&vals[cell * w..(cell + b.len) * w]);
    }
}

/// A received payload whose length disagrees with the plan's unpack
/// region — always checked, release builds included: a silent size
/// mismatch would scatter values to the wrong halo cells and corrupt the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadSizeError {
    /// Index of the tile dependence being unpacked.
    pub ds_idx: usize,
    /// Expected payload length in values (`points · width`).
    pub expected: usize,
    /// Actual payload length in values.
    pub actual: usize,
}

impl std::fmt::Display for PayloadSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unpack payload size mismatch for tile dependence {}: expected {} values, got {}",
            self.ds_idx, self.expected, self.actual
        )
    }
}

impl std::error::Error for PayloadSizeError {}

/// Scatter a received `payload` into the halo cells of tile dependence
/// `ds_idx` at chain position `tpos`, one block copy per region row. The
/// blocks hold exactly the cells inside the allocation, so the rest of the
/// payload is dropped by construction.
pub fn unpack_region(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    ds_idx: usize,
    payload: &[f64],
) -> Result<(), PayloadSizeError> {
    let w = lds.width();
    let base = tpos * chain.chain_step;
    let region = &chain.unpack[ds_idx];
    if region.points * w != payload.len() {
        return Err(PayloadSizeError {
            ds_idx,
            expected: region.points * w,
            actual: payload.len(),
        });
    }
    let vals = lds.values_mut();
    for b in &region.blocks {
        let cell = (base + b.cell) as usize;
        vals[cell * w..(cell + b.len) * w].copy_from_slice(&payload[b.at * w..(b.at + b.len) * w]);
    }
    Ok(())
}

/// Visit a tile's owned rows in walk order, each cut by `clamp` to its
/// in-space positions (a boundary tile; an interior tile passes `None`):
/// `f(row, a, count)` covers positions `a..a + count` of `row`. Stops at
/// the first call that returns `false` and returns whether every call
/// returned `true`. The one traversal behind a rank's output
/// ([`read_owned_tile`]), [`gather_tile`] and [`compare_tile`], so all
/// three agree on the owned-row order.
fn for_each_owned_row(
    chain: &CompiledChain,
    clamp: Option<&TileClamp>,
    mut f: impl FnMut(&Row, i64, usize) -> bool,
) -> bool {
    chain.walk.iter().all(|s| {
        let Some([a, b, ..]) = chain.clip(s, clamp, false) else {
            return true;
        };
        f(&chain.rows[s.row], a, (b - a + 1) as usize)
    })
}

/// Append a tile's owned cells at chain position `tpos` to `out` in
/// owned-row order, one block copy per row: the tile's part of its rank's
/// output.
pub fn read_owned_tile(
    chain: &CompiledChain,
    lds: &Lds,
    tpos: i64,
    clamp: Option<&TileClamp>,
    out: &mut Vec<f64>,
) {
    let (w, vals, base) = (lds.width(), lds.values(), tpos * chain.chain_step);
    for_each_owned_row(chain, clamp, |row, a, count| {
        let cell = (base + row.dst + a) as usize;
        out.extend_from_slice(&vals[cell * w..(cell + count) * w]);
        true
    });
}

/// Gather a tile's owned values into the global data space: `values` is
/// its rank's output from the tile's first value on, in owned-row order
/// ([`read_owned_tile`]). A row whose `DataSpace` cells are unit-stride
/// (`gather_step == 1`) is one block copy (values and written flags), any
/// other row per-cell writes. Returns the number of cells read.
pub fn gather_tile(
    chain: &CompiledChain,
    values: &[f64],
    origin: &[i64],
    clamp: Option<&TileClamp>,
    ds: &mut DataSpace,
) -> usize {
    let (w, step) = (ds.width(), chain.gather_step);
    let gbase = ds.flat_cell_signed(origin);
    let mut at = 0;
    for_each_owned_row(chain, clamp, |row, a, count| {
        let cell = gbase + row.gather + a * step;
        let vals = &values[at * w..(at + count) * w];
        if step == 1 {
            ds.write_cells(cell as usize, count, vals);
        } else {
            for t in 0..count {
                ds.write_cell((cell + t as i64 * step) as usize, &vals[t * w..(t + 1) * w]);
            }
        }
        at += count;
        true
    });
    at
}

/// Compare a tile's owned values (`values`, as for [`gather_tile`]) in
/// place with `reference`, cell by cell over the cells [`gather_tile`]
/// would write, and mark each visited `DataSpace` cell in the bitset
/// `seen`. Returns the number of cells visited, or `None` at the first
/// cell that was visited before, is not written in `reference`, or
/// differs from it in any bit. When every tile of a run passes and the
/// visits total `reference.num_written()`, a gather of the run would
/// equal `reference` bit for bit.
pub fn compare_tile(
    chain: &CompiledChain,
    values: &[f64],
    origin: &[i64],
    clamp: Option<&TileClamp>,
    reference: &DataSpace,
    seen: &mut [u64],
) -> Option<u64> {
    let (w, step) = (reference.width(), chain.gather_step);
    let gbase = reference.flat_cell_signed(origin);
    let mut at = 0;
    let same = for_each_owned_row(chain, clamp, |row, a, count| {
        let cell = gbase + row.gather + a * step;
        let vals = &values[at * w..(at + count) * w];
        at += count;
        (0..count).all(|t| {
            let c = (cell + t as i64 * step) as usize;
            let (word, bit) = (c / 64, 1u64 << (c % 64));
            let fresh = seen[word] & bit == 0;
            seen[word] |= bit;
            let got = &vals[t * w..(t + 1) * w];
            fresh
                && reference.written_cell(c).is_some_and(|want| {
                    want.iter()
                        .zip(got)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
                })
        })
    });
    same.then_some(at as u64)
}

#[cfg(test)]
mod tests {
    use crate::plan::ParallelPlan;
    use tilecc_frontend::{compile_kernel, compile_kernel_with, corpus};
    use tilecc_linalg::{RMat, Rational};
    use tilecc_tiling::TilingTransform;

    /// xorshift64* — the same generator the fuzz harness uses, so failures
    /// reproduce from the printed seed alone.
    struct G(u64);
    impl G {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Skewed Jacobi over `5 × 7 × 6`: unequal `i` and `j` extents, which
    /// the corpus file (one `N`) cannot express.
    const JACOBI_RAGGED: &str = "\
kernel jacobi
iter t = 1 to 5
iter i = 1 to 7
iter j = 1 to 6
skew = [1,0,0; 1,1,0; 1,0,1]
deps = (1,1,0), (1,0,1), (1,-1,0), (1,0,-1)
array A = bnd()
A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
";

    /// The boundary/interior split must partition the tile's TTIS points:
    /// no overlap, no gap, pack-region seeds on the boundary side, the
    /// boundary predecessor-closed under every `d'` column (so the slab
    /// never reads an interior point), and the two passes' `count_tile`s
    /// summing to exactly `tile_iterations` on every tile — across random
    /// non-rectangular tilings of all three paper kernels.
    #[test]
    fn split_partitions_ttis_points_across_random_tilings() {
        let mut g = G(0x5EED_CAFE);
        let mut valid = 0usize;
        let mut nonrect = 0usize;
        let mut with_interior = 0usize;
        for case in 0..100 {
            let which = g.range(0, 2);
            let alg = match which {
                0 => compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap(),
                1 => compile_kernel(JACOBI_RAGGED).unwrap(),
                _ => compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap(),
            };
            let n = alg.nest.dim();
            let fs: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
            let (x, y, z) = (fs[0], fs[1], fs[2]);
            // Half the cases draw from the paper's non-rectangular tiling
            // families (§4) with random factors; the rest perturb a random
            // lower-triangular H (most die in validation — that's fine,
            // the survivors add shape diversity).
            let (h, offdiag) = if g.next().is_multiple_of(2) {
                let shape = g.range(0, 2);
                let h = match (which, shape) {
                    // SOR H_nr family: skew row z against row x.
                    (0, _) => RMat::from_fractions(&[
                        &[(1, x), (0, 1), (0, 1)],
                        &[(0, 1), (1, y), (0, 1)],
                        &[(-1, z), (0, 1), (1, z)],
                    ]),
                    // Jacobi H_nr: skew row x against row y.
                    (1, _) => RMat::from_fractions(&[
                        &[(1, x), (-1, 2 * x), (0, 1)],
                        &[(0, 1), (1, y), (0, 1)],
                        &[(0, 1), (0, 1), (1, z)],
                    ]),
                    // ADI H_nr1 / H_nr2 / H_nr3.
                    (_, 0) => RMat::from_fractions(&[
                        &[(1, x), (-1, x), (0, 1)],
                        &[(0, 1), (1, y), (0, 1)],
                        &[(0, 1), (0, 1), (1, z)],
                    ]),
                    (_, 1) => RMat::from_fractions(&[
                        &[(1, x), (0, 1), (-1, x)],
                        &[(0, 1), (1, y), (0, 1)],
                        &[(0, 1), (0, 1), (1, z)],
                    ]),
                    (_, _) => RMat::from_fractions(&[
                        &[(1, x), (-1, x), (-1, x)],
                        &[(0, 1), (1, y), (0, 1)],
                        &[(0, 1), (0, 1), (1, z)],
                    ]),
                };
                (h, true)
            } else {
                let mut offdiag = false;
                let mut rows: Vec<Vec<Rational>> = Vec::new();
                for i in 0..n {
                    let mut row = vec![Rational::ZERO; n];
                    row[i] = Rational::new(1, fs[i] as i128);
                    for cell in row.iter_mut().take(i) {
                        if g.next().is_multiple_of(2) {
                            let s = g.range(1, 2) * 2;
                            *cell = Rational::new(-1, (fs[i] * s) as i128);
                            offdiag = true;
                        }
                    }
                    rows.push(row);
                }
                (RMat::from_fn(n, n, |i, j| rows[i][j]), offdiag)
            };
            let Ok(t) = TilingTransform::new(h) else {
                continue;
            };
            if t.validate_for(alg.nest.deps()).is_err() {
                continue;
            }
            let m = (g.next() % n as u64) as usize;
            let Ok(plan) = ParallelPlan::new(alg, t, Some(m)) else {
                continue;
            };
            valid += 1;
            if offdiag {
                nonrect += 1;
            }

            let tr = plan.tiled.transform();
            let v = tr.v();
            let lat = tr.lattice();
            let zero = vec![0i64; n];
            let mut coords: Vec<Vec<i64>> = Vec::new();
            lat.for_each_in_box(&zero, v, |jp| coords.push(jp.to_vec()));
            let index_of: std::collections::BTreeMap<&[i64], usize> = coords
                .iter()
                .enumerate()
                .map(|(i, jp)| (jp.as_slice(), i))
                .collect();

            let mut lens = std::collections::BTreeSet::new();
            for rank in 0..plan.num_procs() {
                let chain = plan.chain(rank);
                if !lens.insert(chain.num_tiles) {
                    continue;
                }
                assert_eq!(chain.tile_points, coords.len(), "case {case}");

                // Partition: the split's sub-rows expand to points, each
                // side in ascending walk order, union complete.
                let mut side = vec![None; chain.tile_points];
                let split = chain.split();
                for (spans, tag) in [(&split.boundary, true), (&split.interior, false)] {
                    let mut last = None;
                    for s in spans.iter() {
                        let row = &chain.rows[s.row];
                        assert!(s.len >= 1 && s.at + s.len <= row.len, "case {case}: {s:?}");
                        for t in s.at..s.at + s.len {
                            let mut jp = row.jp.clone();
                            jp[n - 1] += t as i64 * chain.stride;
                            let i = index_of[jp.as_slice()];
                            assert!(last < Some(i), "case {case}: sub-rows out of walk order");
                            last = Some(i);
                            assert!(
                                side[i].replace(tag).is_none(),
                                "case {case}: point {jp:?} on both sides"
                            );
                        }
                    }
                }
                assert!(
                    side.iter().all(Option::is_some),
                    "case {case}: split leaves a gap"
                );

                // Pack-region seeds are boundary points.
                for dm in &plan.comm.proc_deps {
                    let lo = plan.comm.region_lo(dm, v);
                    for (i, jp) in coords.iter().enumerate() {
                        if jp.iter().zip(&lo).all(|(&x, &l)| x >= l) {
                            assert_eq!(
                                side[i],
                                Some(true),
                                "case {case}: region point {jp:?} not in slab"
                            );
                        }
                    }
                }

                // Predecessor-closed: a slab point's intra-tile reads are
                // slab points, so the interior never feeds a send.
                let q = plan.comm.d_prime.cols();
                let mut pred = vec![0i64; n];
                for (i, jp) in coords.iter().enumerate() {
                    if side[i] != Some(true) {
                        continue;
                    }
                    for dq in 0..q {
                        for k in 0..n {
                            pred[k] = jp[k] - plan.comm.d_prime[(k, dq)];
                        }
                        if let Some(&p) = index_of.get(pred.as_slice()) {
                            assert_eq!(
                                side[p],
                                Some(true),
                                "case {case}: slab reads interior point {pred:?}"
                            );
                        }
                    }
                }
                if !split.interior.is_empty() {
                    with_interior += 1;
                }
            }

            // The two passes' in-space counts partition every tile's
            // iterations.
            if plan.num_procs() > 0 {
                // Per-tile counts are chain-length independent.
                let chain = plan.chain(0);
                let split = chain.split();
                for tile in plan.tiled.tiles() {
                    let origin = plan.tiled.tile_origin(&tile);
                    let clamp = Some(plan.clamp.at(&origin));
                    let b = super::count_tile(chain, clamp.as_ref(), &split.boundary);
                    let i = super::count_tile(chain, clamp.as_ref(), &split.interior);
                    let expect = plan.tiled.tile_iterations(&tile).count() as u64;
                    assert_eq!(b + i, expect, "case {case}: tile {tile:?}");
                }
            }
        }
        assert!(valid >= 10, "only {valid} valid sampled tilings");
        assert!(nonrect >= 5, "only {nonrect} non-rectangular tilings");
        assert!(
            with_interior >= 1,
            "no sampled tiling produced a private interior"
        );
    }

    /// A kernel the residual-clip plans never execute.
    struct Unused;
    impl tilecc_loopnest::Kernel for Unused {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, _: &[i64], _: &[f64], _: &mut [f64]) {
            unreachable!("plans are only clipped")
        }
        fn initial(&self, _: &[i64], _: &mut [f64]) {
            unreachable!("plans are only clipped")
        }
    }

    /// The row-table clip of every chain of `plan` against the polytope
    /// clip on every tile: for each span (whole rows and both overlapped
    /// passes), the in-space interval and the window equal
    /// [`tilecc_polytope::Clamp::clip`] along the span's iterations,
    /// computed from the iterations themselves instead of the row tables,
    /// and each dependence's source interval holds an in-space position —
    /// at the `positions` of each span and next to the interval's ends —
    /// iff `Polyhedron::contains` holds at its source. Checks every
    /// `stride`-th span. Returns the number of spans whose residuals
    /// left the `i64` range, so their divisions ran in `i128`.
    fn check_residual_clip(
        plan: &ParallelPlan,
        ctx: &str,
        stride: usize,
        positions: impl Fn(usize, [i64; 4]) -> Vec<usize>,
    ) -> usize {
        let deps = plan.deps();
        let (n, q) = (plan.dim(), deps.cols());
        let (space, clamp) = (plan.tiled.space(), &plan.clamp);
        let mut lens = std::collections::BTreeSet::new();
        let (mut wide, mut j0, mut src) = (0usize, vec![0i64; n], vec![0i64; n]);
        let mut scr = super::ComputeScratch::new(n, q, 1);
        for rank in 0..plan.num_procs() {
            let chain = plan.chain(rank);
            if !lens.insert(chain.num_tiles) {
                continue;
            }
            let split = chain.split();
            let spans: Vec<_> = chain
                .walk
                .iter()
                .chain(&split.boundary)
                .chain(&split.interior)
                .collect();
            for tile in plan.tiled.tiles() {
                let origin = plan.tiled.tile_origin(&tile);
                let tc = plan.clamp.at(&origin);
                for s in spans.iter().step_by(stride) {
                    let row = &chain.rows[s.row];
                    chain.iteration_at(&origin, row, s.at, &mut j0);
                    let last = s.len as i64 - 1;
                    let got = chain.clip(s, Some(&tc), true);
                    let k = chain.slope.len();
                    let big = |t: usize| {
                        (0..k).any(|kk| {
                            chain.residual(&tc, s.row, t, kk).unsigned_abs() > i64::MAX as u128
                        })
                    };
                    wide += usize::from(big(s.at) || big(s.at + s.len - 1));
                    let slope: Vec<i128> = clamp.dots(&chain.dj).collect();
                    let line = |k| (clamp.residual(k, &j0), slope[k]);
                    let want = clamp.clip(0, last, true, line);
                    assert_eq!(got, want, "{ctx}: tile {tile:?} {s:?}");
                    let Some([s0, s1, w0, w1]) = want else {
                        continue;
                    };
                    assert_eq!(chain.clip(s, Some(&tc), false), Some([s0, s1, s0, s1]));
                    let (a, e) = (s0 as usize, s1 as usize + 1);
                    chain.source_intervals(&tc, s, a, e, &mut scr);
                    for (dq, &(t0, t1)) in scr.stretch.stored.iter().enumerate() {
                        assert!(a <= t0 && t0 <= t1 && t1 <= e, "{ctx}: {s:?} {t0} {t1}");
                        let near = [t0.wrapping_sub(1), t0, t1.wrapping_sub(1), t1];
                        for t in positions(s.len, [s0, s1, w0, w1]).into_iter().chain(near) {
                            if !(a..e).contains(&t) {
                                continue;
                            }
                            for kk in 0..n {
                                src[kk] = j0[kk] + t as i64 * chain.dj[kk] - deps[(kk, dq)];
                            }
                            assert_eq!(
                                (t0..t1).contains(&t),
                                space.contains(&src),
                                "{ctx}: tile {tile:?} {s:?} position {t} source {dq}"
                            );
                        }
                    }
                }
            }
        }
        wide
    }

    /// Seeded random cut spaces with `n ≤ 4`, random dependences and
    /// rectangular (dependences with negative entries included) or
    /// tiling-cone tilings: every
    /// span's residual clip and every dependence's source interval equal
    /// their polytope oracles. One more plan at `N = 100000` coordinates,
    /// under a cut whose coefficient `2^50` takes the residuals far past
    /// `i64`, runs the `i128` divisions.
    #[test]
    fn residual_clip_matches_line_clip_on_random_cut_spaces() {
        use tilecc_linalg::IMat;
        use tilecc_loopnest::{Algorithm, LoopNest};
        use tilecc_polytope::{Constraint, Polyhedron};
        let mut g = G(0x0C11_9AB5);
        let (mut valid, mut cone, mut cut_plans) = (0usize, 0usize, 0usize);
        let every = |len: usize, _: [i64; 4]| (0..len).collect::<Vec<_>>();
        for case in 0..90 {
            let n = g.range(2, 4) as usize;
            let ext: Vec<i64> = (0..n)
                .map(|_| g.range(3, if n == 4 { 5 } else { 8 }))
                .collect();
            let mut space = Polyhedron::from_box(&vec![1; n], &ext);
            let mut cut = false;
            for _ in 0..g.range(0, 2) {
                let coeffs: Vec<i64> = (0..n).map(|_| g.range(-1, 1)).collect();
                if coeffs.iter().all(|&c| c == 0) {
                    continue;
                }
                let mid: i64 = coeffs
                    .iter()
                    .zip(&ext)
                    .map(|(&c, &e)| c * ((1 + e) / 2))
                    .sum();
                space.add(Constraint::new(coeffs, g.range(0, 6) - mid));
                cut = true;
            }
            // Some cone tilings of 4-D nests, of dependences with negative
            // entries, or of spaces with steeper cuts take minutes to plan:
            // cone cases are 2-D and 3-D over nonnegative dependences.
            let use_cone = n < 4 && g.next().is_multiple_of(2);
            let low = if use_cone { 0 } else { -1 };
            let q = g.range(1, 4) as usize;
            let mut deps = IMat::zeros(n, q);
            for dq in 0..q {
                loop {
                    let c: Vec<i64> = (0..n).map(|_| g.range(low, 2)).collect();
                    if tilecc_linalg::vecops::is_lex_positive(&c) {
                        for k in 0..n {
                            deps[(k, dq)] = c[k];
                        }
                        break;
                    }
                }
            }
            let factors: Vec<i64> = (0..n).map(|_| g.range(2, 3)).collect();
            let h = if use_cone {
                let Ok(rays) = tilecc_tiling::tiling_cone_rays(&deps) else {
                    continue;
                };
                let mut chosen: Vec<Vec<i64>> = Vec::new();
                for ray in rays {
                    chosen.push(ray);
                    if chosen.len() == n {
                        let mut sq = IMat::zeros(n, n);
                        for (i, r) in chosen.iter().enumerate() {
                            for k in 0..n {
                                sq[(i, k)] = r[k];
                            }
                        }
                        if sq.det() == 0 {
                            chosen.pop();
                        }
                    }
                    if chosen.len() == n {
                        break;
                    }
                }
                if chosen.len() < n {
                    continue;
                }
                RMat::from_fn(n, n, |i, k| {
                    Rational::new(chosen[i][k] as i128, factors[i] as i128)
                })
            } else {
                RMat::from_fn(n, n, |i, k| {
                    Rational::new(i128::from(i == k), factors[i] as i128)
                })
            };
            let Ok(t) = TilingTransform::new(h) else {
                continue;
            };
            if t.validate_for(&deps).is_err() {
                continue;
            }
            let m = (g.next() % n as u64) as usize;
            let alg = Algorithm::new("p", LoopNest::new(space, deps), std::sync::Arc::new(Unused));
            let Ok(plan) = ParallelPlan::new(alg, t, Some(m)) else {
                continue;
            };
            valid += 1;
            cone += usize::from(use_cone);
            cut_plans += usize::from(cut);
            check_residual_clip(&plan, &format!("case {case}"), 1, every);
        }
        assert!(valid >= 30, "only {valid} valid plans");
        assert!(
            cone >= 5 && cut_plans >= 10,
            "{cone} cone, {cut_plans} cut plans"
        );

        // 10^5 coordinates under a cut through the diagonal.
        let mut space = Polyhedron::from_box(&[1, 1], &[100_000, 100_000]);
        space.add(Constraint::new(vec![3, -2], 7));
        let deps = IMat::from_rows(&[&[1, 0, 1], &[0, 1, 1]]);
        let alg = Algorithm::new(
            "big",
            LoopNest::new(space, deps),
            std::sync::Arc::new(Unused),
        );
        let rect = TilingTransform::rectangular(&[50_000, 25_000]).unwrap();
        let plan = ParallelPlan::new(alg, rect, Some(0)).unwrap();
        let edges = |len: usize, [s0, s1, w0, w1]: [i64; 4]| {
            let at = [
                0,
                s0 - 1,
                s0,
                s0 + 1,
                w0 - 1,
                w0,
                w1,
                w1 + 1,
                s1,
                s1 + 1,
                len as i64 - 1,
            ];
            at.into_iter()
                .filter_map(|t| usize::try_from(t).ok())
                .filter(|&t| t < len)
                .collect()
        };
        check_residual_clip(&plan, "N = 100000", 499, edges);
    }

    /// The in-row closure keeps every shifted copy of an interval shorter
    /// than the shift, combines shifts, and runs a long interval down to 0.
    #[test]
    fn close_down_keeps_every_shifted_copy() {
        for (set, shifts, len, want) in [
            (vec![(4, 5)], vec![2], 5, vec![(0, 1), (2, 3), (4, 5)]),
            (vec![(7, 8)], vec![2, 3], 8, vec![(0, 6), (7, 8)]),
            (vec![(5, 8)], vec![3], 8, vec![(0, 8)]),
            (vec![(2, 4)], vec![], 8, vec![(2, 4)]),
        ] {
            let mut got = set.clone();
            super::close_down(&mut got, &shifts, len);
            assert_eq!(got, want, "{set:?} under {shifts:?}");
        }
    }

    /// A short payload must be a typed error — in release builds too — and
    /// must leave the LDS untouched; same for an over-long payload.
    #[test]
    fn unpack_rejects_wrong_payload_sizes() {
        let plan = ParallelPlan::new(
            compile_kernel_with(corpus::JACOBI, &[("T", 8), ("N", 12)]).unwrap(),
            TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
            Some(1),
        )
        .unwrap();
        let w = plan.algorithm.width();
        let chain = plan.chain(0);
        let ds_idx = chain
            .unpack
            .iter()
            .position(|r| r.points > 0)
            .expect("a tile dependence with an unpack region");
        let expected = chain.unpack[ds_idx].points * w;
        let mut lds = plan.rank_lds(0);
        let before: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
        for bad in [expected - 1, expected + w] {
            let payload = vec![1.0f64; bad];
            let err = super::unpack_region(chain, &mut lds, 0, ds_idx, &payload)
                .expect_err("wrong payload size must be rejected");
            assert_eq!(err.ds_idx, ds_idx);
            assert_eq!(err.expected, expected);
            assert_eq!(err.actual, bad);
            assert!(err.to_string().contains("payload size mismatch"));
            let after: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(before, after, "failed unpack touched the LDS");
        }
    }

    /// The batched interior compute must be bitwise identical to a
    /// per-point walk of the tile (`tile_iterations`, `Lds::unrolled`
    /// addresses, as the reference strategy runs it) on a real plan, and
    /// must actually batch.
    #[test]
    fn batched_compute_matches_per_point_bitwise() {
        for (alg, h, m) in [
            (
                compile_kernel_with(corpus::JACOBI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
                1usize,
            ),
            (
                compile_kernel_with(corpus::ADI_PAPER, &[("T", 8), ("N", 15)]).unwrap(),
                TilingTransform::rectangular(&[3, 5, 5]).unwrap(),
                1,
            ),
        ] {
            let name = alg.name.clone();
            let plan = ParallelPlan::new(alg, h, Some(m)).unwrap();
            let w = plan.algorithm.width();
            let chain = plan.chain(0);
            let (n, q) = (chain.n, chain.q);
            let deps = plan.deps();
            let tile = plan
                .tiled
                .tiles()
                .find(|tile| plan.tiled.tile_is_compute_interior(tile, deps))
                .expect("a compute-interior tile");
            let origin = plan.tiled.tile_origin(&tile);
            let mut scr = super::ComputeScratch::new(n, q, w);
            let fill = |lds: &mut tilecc_tiling::Lds| {
                for (i, x) in lds.values_mut().iter_mut().enumerate() {
                    *x = ((i % 977) as f64) / 977.0;
                }
            };
            let mut lds = plan.rank_lds(0);
            fill(&mut lds);
            let kernel = plan.algorithm.kernel.as_ref();
            let (mut reads, mut out) = (vec![0.0f64; q * w], vec![0.0f64; w]);
            for (jp, j) in plan.tiled.tile_iterations(&tile) {
                let g = lds.unrolled(0, &jp);
                for dq in 0..q {
                    let gs: Vec<i64> = (0..n).map(|k| g[k] - plan.comm.d_prime[(k, dq)]).collect();
                    lds.get_into(&gs, &mut reads[dq * w..(dq + 1) * w]);
                }
                kernel.compute(&j, &reads, &mut out);
                lds.set_all(&g, &out);
            }
            let want: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
            fill(&mut lds);
            let (_, batched) = super::compute_tile_fast(
                chain,
                &mut lds,
                0,
                &origin,
                plan.algorithm.kernel.as_ref(),
                &mut scr,
                &chain.walk,
                None,
            );
            let got: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
            assert!(batched > 0, "{name}: nothing batched");
            assert_eq!(want, got, "{name}: batched compute differs bitwise");
        }
    }
}
