#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! Compiled tile execution: flat linear indices over the row-major LDS.
//!
//! The paper's performance argument (§3.1, Table 1) is that condensed
//! rectangular LDS storage plus strided TTIS traversal lets the *generated*
//! tile code run at array speed. The reference executor re-derives every
//! per-dimension address point by point; this module instead lowers each
//! rank's work **at plan time** to flat cell indices:
//!
//! - Every tile of a chain covers the same TTIS lattice points, and because
//!   the integral-tile-sides validation forces `c_m | v_m`, advancing one
//!   chain position shifts every flat index by the constant
//!   `chain_step = (v_m / c_m) · weights_m`. One table of per-point indices
//!   therefore serves the whole chain: `cell = tpos · chain_step + rel`.
//! - Dependences are uniform, so each read source sits at a *constant signed
//!   displacement* `src_rel` from the tile base — no per-point address
//!   derivation, no membership test on interior tiles.
//! - A boundary tile runs the same compute runs, each clipped once by the
//!   iteration space ([`Clamp`], one [`LineClip`] solve per run) to its
//!   in-space interval and to the window whose every dependence source is
//!   in the space. The window batches like an interior run; only the points
//!   between the two edges are tested one by one. The timing-only path
//!   counts the same intervals ([`count_tile`]).
//! - The pack/unpack lattice walks of RECEIVE/SEND run once per plan, not
//!   once per tile, leaving dense index-list copies in the hot loop.
//! - The gather writes each owned cell straight into the global `DataSpace`
//!   through plan-time runs that are affine in the LDS cell, the target
//!   cell and the iteration. A boundary tile cuts each run to the interval
//!   its convex space admits ([`gather_spans`]), so no tile re-runs
//!   `tile_iterations` or materializes per-point vectors.
//!
//! Lowering itself runs at integer speed: one lattice walk per table,
//! `P'·j'` as `adj(H')·j' / det(H')` into a reused buffer
//! ([`TilingTransform::p_prime_mul_into`]), walk coordinates in one flat
//! `Vec`. The overlapped strategy's boundary/interior split is built on
//! first use ([`CompiledChain::split`]) by a two-pointer merge over the
//! lexicographically sorted walk, so the blocking strategies never pay
//! for it.
//!
//! Offsets are exact wherever the checked path would succeed: for any two
//! coordinates whose per-dimension addresses are in range, the difference of
//! their signed flat indices equals their true cell distance (see
//! [`LdsGeometry::flat_cell_signed`]). The constructor asserts every
//! *unconditional* index (owned cells, pack regions) in range per dimension;
//! halo unpack cells that fall outside the allocation — writes the reference
//! path's `Lds::set_all` silently drops — are marked [`SKIP`] at build time.

use std::sync::OnceLock;
use tilecc_linalg::vecops::div_floor;
use tilecc_linalg::IMat;
use tilecc_loopnest::{DataSpace, Kernel};
use tilecc_polytope::{LineClip, Polyhedron};
use tilecc_tiling::{CommPlan, Lds, LdsGeometry, TiledSpace, TilingTransform};

/// Sentinel for precomputed unpack cells outside the LDS allocation (halo
/// deeper than any read reaches); the unpack loop drops them, exactly as
/// `Lds::set_all` does on the reference path.
pub const SKIP: i64 = i64::MIN;

// The batch limits are shared with the sequential scan
// (`Algorithm::execute_scan`), whose lag argument is the same.
pub use tilecc_loopnest::kernel::{CACHE_BLOCK, MIN_BATCH};

/// A maximal affine run inside a per-index cell list: positions
/// `at..at+len` of the list hold cells `list[at] + t·step` (`0 ≤ t < len`).
/// Runs never cover [`SKIP`] positions, and a SKIP splits runs exactly.
/// `step == 1` is the block-move fast path: `len` consecutive cells are one
/// `copy_from_slice` of `len·width` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexRun {
    /// First covered position in the list (also the payload index).
    pub at: u32,
    /// Number of covered positions.
    pub len: u32,
    /// Cell advance per position (1 for singleton runs).
    pub step: i64,
}

/// A maximal joint affine run of the gather's source (`dst`) and target
/// (`gather_rel`) lists over walk positions `at..at+len`. When both steps
/// are 1 the whole run is one LDS→DataSpace block copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GatherRun {
    /// First covered TTIS walk position.
    pub at: u32,
    /// Number of covered positions.
    pub len: u32,
    /// LDS source-cell advance per position.
    pub src_step: i64,
    /// DataSpace target-cell advance per position.
    pub dst_step: i64,
}

/// A maximal affine run of the interior compute walk: `len` consecutive
/// walk positions starting at `i0` whose `dst` and every `src_rel` advance
/// by exactly one cell and whose iteration offset advances by the constant
/// vector `dj`. `batch` is the largest chunk whose reads may be
/// pre-gathered without observing a same-chunk write (see
/// [`CompiledChain::new`]'s lag analysis); `batch == 0` disables batching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComputeRun {
    /// First TTIS walk position of the run.
    pub i0: u32,
    /// Number of consecutive walk positions.
    pub len: u32,
    /// Safe chunk width for pre-gathered reads (0 = per-point fallback).
    pub batch: u32,
    /// Per-point iteration advance within the run (`n` entries).
    pub dj: Vec<i64>,
}

/// Factor a per-index cell list into maximal affine runs. [`SKIP`] cells
/// are never covered and split runs exactly; every non-SKIP position is
/// covered by exactly one run, and runs are emitted in position order.
pub fn coalesce_runs(list: &[i64]) -> Vec<IndexRun> {
    let mut runs = Vec::new();
    let mut i = 0usize;
    while i < list.len() {
        if list[i] == SKIP {
            i += 1;
            continue;
        }
        let at = i;
        let mut step = 1i64;
        let mut len = 1usize;
        if at + 1 < list.len() && list[at + 1] != SKIP {
            step = list[at + 1] - list[at];
            len = 2;
            while at + len < list.len()
                && list[at + len] != SKIP
                && list[at + len] - list[at + len - 1] == step
            {
                len += 1;
            }
        }
        runs.push(IndexRun {
            at: at as u32,
            len: len as u32,
            step,
        });
        i = at + len;
    }
    runs
}

/// Factor the gather's `(dst, gather_rel)` pair into maximal joint affine
/// runs covering every walk position exactly once, in order. A run also
/// keeps the iteration offset `j_off` advancing by one constant vector, so
/// its iterations lie on a line and a convex space clips it to one
/// interval (see [`gather_spans`]).
fn coalesce_gather_runs(dst: &[i64], grel: &[i64], j_off: &[i64], n: usize) -> Vec<GatherRun> {
    debug_assert_eq!(dst.len(), grel.len());
    let dj_same = |a: usize, b: usize| {
        (0..n).all(|k| {
            j_off[(b + 1) * n + k] - j_off[b * n + k] == j_off[(a + 1) * n + k] - j_off[a * n + k]
        })
    };
    let mut runs = Vec::new();
    let mut at = 0usize;
    while at < dst.len() {
        let mut len = 1usize;
        let mut src_step = 1i64;
        let mut dst_step = 1i64;
        if at + 1 < dst.len() {
            src_step = dst[at + 1] - dst[at];
            dst_step = grel[at + 1] - grel[at];
            len = 2;
            while at + len < dst.len()
                && dst[at + len] - dst[at + len - 1] == src_step
                && grel[at + len] - grel[at + len - 1] == dst_step
                && dj_same(at, at + len - 1)
            {
                len += 1;
            }
        }
        runs.push(GatherRun {
            at: at as u32,
            len: len as u32,
            src_step,
            dst_step,
        });
        at += len;
    }
    runs
}

/// Factor an ascending walk-index sequence into maximal compute runs and
/// derive each run's safe batch width from its dependence lags.
fn compute_runs_for(
    indices: &[u32],
    dst: &[i64],
    src_rel: &[i64],
    j_off: &[i64],
    q: usize,
    n: usize,
) -> Vec<ComputeRun> {
    let mut runs = Vec::new();
    let mut s = 0usize;
    while s < indices.len() {
        let i0 = indices[s] as usize;
        let mut len = 1usize;
        let mut dj = vec![0i64; n];
        // Extend while walk indices stay consecutive, `dst` and every
        // `src_rel` advance by exactly one cell, and the `j_off` delta
        // stays the constant established by the first extension.
        loop {
            let e = s + len;
            if e >= indices.len() {
                break;
            }
            let (a, b) = (indices[e - 1] as usize, indices[e] as usize);
            if b != a + 1 || dst[b] != dst[a] + 1 {
                break;
            }
            if (0..q).any(|dq| src_rel[b * q + dq] != src_rel[a * q + dq] + 1) {
                break;
            }
            if len == 1 {
                for k in 0..n {
                    dj[k] = j_off[b * n + k] - j_off[a * n + k];
                }
            } else if (0..n).any(|k| j_off[b * n + k] - j_off[a * n + k] != dj[k]) {
                break;
            }
            len += 1;
        }
        // Lag analysis: within the run, point `p` writes cell `dst0 + p`
        // and its dependence-`dq` read sits at `dst0 + p − lag_dq` (the
        // lag is constant along the run because both lists advance by 1).
        // A chunk of `B` pre-gathered points writes cells
        // `[dst0+s, dst0+s+B)` only after gathering, so a read is stale
        // exactly when its in-run writer `p − lag` falls inside the same
        // chunk — impossible for `B ≤ lag`. `lag == 0` reads the cell's
        // pre-run value on both paths (the run's only write of that cell
        // happens at the reading point itself, after its read), and
        // negative lags cannot occur: `d' ≥ 0` makes every per-dimension
        // LDS address of `j' − d'` ≤ that of `j'`.
        let mut batch = CACHE_BLOCK as i64;
        for dq in 0..q {
            let lag = dst[i0] - src_rel[i0 * q + dq];
            debug_assert!(lag >= 0, "negative dependence lag");
            if lag >= 1 {
                batch = batch.min(lag);
            }
        }
        let batch = if batch < MIN_BATCH as i64 {
            0
        } else {
            batch as u32
        };
        runs.push(ComputeRun {
            i0: i0 as u32,
            len: len as u32,
            batch,
            dj,
        });
        s += len;
    }
    runs
}

/// The overlapped strategy's boundary/interior split of the TTIS walk,
/// built on first use by [`CompiledChain::split`].
pub struct OverlapSplit {
    /// Boundary-slab point indices (into the TTIS walk order), ascending:
    /// the dependence closure of the union of the pack regions. Executing
    /// these first makes every pack region ready to send before the
    /// interior runs (the overlapped strategy's compute-boundary pass).
    pub boundary_order: Vec<u32>,
    /// The complementary private-interior point indices, ascending. No pack
    /// region reads them, so they compute while sends are in flight.
    pub interior_order: Vec<u32>,
    /// Compute runs over `boundary_order` (the overlapped boundary pass).
    pub boundary_runs: Vec<ComputeRun>,
    /// Compute runs over `interior_order` (the overlapped interior pass).
    pub interior_runs: Vec<ComputeRun>,
}

/// Plan-time lowering of one chain length's tile work to flat LDS indices.
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
    /// Owned cell index of each tile point at `tpos = 0`, TTIS walk order.
    pub dst: Vec<i64>,
    /// Per-point global-iteration offset `P'·j'` (row-major, `n` per point):
    /// the iteration is `j = P·tile + j_off` with both parts integral.
    pub j_off: Vec<i64>,
    /// Signed read-source cell per point and dependence (point-major,
    /// `q` per point): `src = dst − flat(d')`, constant across the chain.
    pub src_rel: Vec<i64>,
    /// Per-point signed flat offset into the global `DataSpace`
    /// (`Σ_k j_off_k · ds_weights_k`); the gather base is the tile origin's
    /// signed cell index.
    pub gather_rel: Vec<i64>,
    /// Pack index lists, one per processor dependence: owned cells of the
    /// region `[region_lo(dm), v)` at `tpos = 0`, lattice walk order.
    pub pack_rel: Vec<Vec<i64>>,
    /// Unpack index lists, one per *tile* dependence (aligned with
    /// `comm.tile_deps`; empty for intra-processor dependences): halo cell
    /// of each region point at `tpos = 0`, or [`SKIP`].
    pub unpack_rel: Vec<Vec<i64>>,
    /// Affine runs of each `pack_rel` list (cover every position, in order).
    pub pack_runs: Vec<Vec<IndexRun>>,
    /// Affine runs of each `unpack_rel` list (cover exactly the non-[`SKIP`]
    /// positions, in order; SKIP cells split runs).
    pub unpack_runs: Vec<Vec<IndexRun>>,
    /// Joint affine runs of the gather's `(dst, gather_rel, j_off)` lists.
    pub gather_runs: Vec<GatherRun>,
    /// Compute runs over the full TTIS walk ([`compute_tile_fast`]).
    pub compute_runs: Vec<ComputeRun>,
    /// TTIS coordinates `j'` of the walk, `n` per point, lexicographically
    /// ascending (the lattice walk order).
    coords: Vec<i64>,
    /// Transformed dependences `d' = H'·d` (columns).
    d_prime: IMat,
    /// Lower corner of each processor dependence's pack region.
    region_lo: Vec<Vec<i64>>,
    split: OnceLock<OverlapSplit>,
}

impl CompiledChain {
    /// Lower the per-tile work of a `num_tiles`-long chain. `ds_weights` are
    /// the global data space's row-major cell weights (the gather target).
    pub fn new(
        tiled: &TiledSpace,
        comm: &CommPlan,
        geo: &LdsGeometry,
        ds_weights: &[i64],
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
        let tile_points = tiled.full_tile_volume();
        assert!(tile_points <= u32::MAX as usize, "tile too large to index");

        // Checked flat index of an owned/pack cell at tpos = 0: every
        // dimension must be in range (dimension m is then in range for the
        // whole chain because the decomposition is linear in tpos).
        let flat_checked = |jp: &[i64], what: &str| -> i64 {
            let mut cell = 0i64;
            for k in 0..n {
                let a = div_floor(jp[k], geo.c[k]) + geo.off[k];
                assert!(
                    0 <= a && a < extents[k],
                    "{what} address out of range: jp={jp:?} dim {k}"
                );
                cell += a * weights[k];
            }
            cell
        };

        let mut dst = Vec::with_capacity(tile_points);
        let mut j_off = Vec::with_capacity(tile_points * n);
        let mut src_rel = Vec::with_capacity(tile_points * q);
        let mut gather_rel = Vec::with_capacity(tile_points);
        let mut coords = Vec::with_capacity(tile_points * n);
        let mut off = vec![0i64; n];
        let mut g0 = vec![0i64; n];
        let zero = vec![0i64; n];
        lat.for_each_in_box(&zero, v, |jp| {
            coords.extend_from_slice(jp);
            let cell = flat_checked(jp, "owned");
            assert!(cell + (num_tiles - 1) * chain_step < total_cells);
            dst.push(cell);
            // j = P·tile + P'·j'; both parts are integral (P is validated
            // integral, and lattice points satisfy j' = H'·z).
            t.p_prime_mul_into(jp, &mut off);
            j_off.extend_from_slice(&off);
            gather_rel.push(off.iter().zip(ds_weights).map(|(&x, &w)| x * w).sum());
            for dq in 0..q {
                for k in 0..n {
                    g0[k] = jp[k] - comm.d_prime[(k, dq)];
                }
                src_rel.push(geo.flat_cell_signed(&g0, &weights));
            }
        });
        assert_eq!(dst.len(), tile_points);

        let pack_rel: Vec<Vec<i64>> = comm
            .proc_deps
            .iter()
            .map(|dm| {
                let lo = comm.region_lo(dm, v);
                let mut cells = Vec::new();
                lat.for_each_in_box(&lo, v, |jp| cells.push(flat_checked(jp, "pack")));
                cells
            })
            .collect();

        // Unpack: the receiver addresses the sender's region points as data
        // of chain tile `tpos − ds_m` shifted by `−ds_k·v_k`; at `tpos = 0`
        // that is uniformly `g_k = jp_k − ds_k·v_k`.
        let unpack_rel: Vec<Vec<i64>> = comm
            .tile_deps
            .iter()
            .zip(&comm.dm_of_ds)
            .map(|(ds, dm_idx)| {
                let Some(dm_idx) = *dm_idx else {
                    return Vec::new();
                };
                let lo = comm.region_lo(&comm.proc_deps[dm_idx], v);
                let mut cells = Vec::new();
                lat.for_each_in_box(&lo, v, |jp| {
                    let mut cell = 0i64;
                    let mut in_range = true;
                    for k in 0..n {
                        let a = div_floor(jp[k] - ds[k] * v[k], geo.c[k]) + geo.off[k];
                        if k == m {
                            // Halo depth along the mapping dimension is
                            // covered by construction (off_m spans the
                            // deepest predecessor tile), so a receive never
                            // underflows the allocation.
                            assert!(a >= 0, "mapping-dimension halo underflow");
                        } else if a < 0 || a >= extents[k] {
                            in_range = false;
                        }
                        cell += a * weights[k];
                    }
                    cells.push(if in_range { cell } else { SKIP });
                });
                cells
            })
            .collect();

        // Affine-run coalescing: every hot per-index loop below gets a
        // run-descriptor form computed once per plan, here.
        let pack_runs: Vec<Vec<IndexRun>> = pack_rel.iter().map(|l| coalesce_runs(l)).collect();
        let unpack_runs: Vec<Vec<IndexRun>> = unpack_rel.iter().map(|l| coalesce_runs(l)).collect();
        let gather_runs = coalesce_gather_runs(&dst, &gather_rel, &j_off, n);
        let all: Vec<u32> = (0..tile_points as u32).collect();
        let compute_runs = compute_runs_for(&all, &dst, &src_rel, &j_off, q, n);

        CompiledChain {
            num_tiles,
            tile_points,
            q,
            n,
            chain_step,
            dst,
            j_off,
            src_rel,
            gather_rel,
            pack_rel,
            unpack_rel,
            pack_runs,
            unpack_runs,
            gather_runs,
            compute_runs,
            coords,
            d_prime: comm.d_prime.clone(),
            region_lo: comm
                .proc_deps
                .iter()
                .map(|dm| comm.region_lo(dm, v))
                .collect(),
            split: OnceLock::new(),
        }
    }

    /// The boundary/interior split, built on the first call (only the
    /// overlapped strategy asks for it).
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
    fn build_split(&self) -> OverlapSplit {
        let (n, q, np) = (self.n, self.q, self.tile_points);
        let pt = |i: usize| &self.coords[i * n..(i + 1) * n];
        let mut in_slab: Vec<bool> = (0..np)
            .map(|i| {
                let jp = pt(i);
                self.region_lo
                    .iter()
                    .any(|lo| jp.iter().zip(lo).all(|(&x, &l)| x >= l))
            })
            .collect();
        // Closure in one reverse sweep: a point's predecessors `j' − d'`
        // come earlier in the walk, so its slab flag is final when the
        // sweep reaches it. The walk is sorted and translation by `−d'`
        // keeps it sorted, so per dependence one pointer moving down the
        // walk finds each predecessor (a two-pointer merge); `j' − d'` stays
        // on the lattice, so box membership is exactly an equal coordinate.
        let mut ptr = vec![np; q];
        let mut pred = vec![0i64; n];
        for i in (0..np).rev() {
            for (dq, p) in ptr.iter_mut().enumerate() {
                for k in 0..n {
                    pred[k] = pt(i)[k] - self.d_prime[(k, dq)];
                }
                while *p > 0 && pt(*p - 1) > &pred[..] {
                    *p -= 1;
                }
                if in_slab[i] && *p > 0 && pt(*p - 1) == &pred[..] {
                    in_slab[*p - 1] = true;
                }
            }
        }
        let (boundary_order, interior_order): (Vec<u32>, Vec<u32>) =
            (0..np as u32).partition(|&i| in_slab[i as usize]);
        let runs =
            |order: &[u32]| compute_runs_for(order, &self.dst, &self.src_rel, &self.j_off, q, n);
        OverlapSplit {
            boundary_runs: runs(&boundary_order),
            interior_runs: runs(&interior_order),
            boundary_order,
            interior_order,
        }
    }

    /// Message length (in values) of each pack region — equals the lattice
    /// point count of `[region_lo(dm), v)`.
    pub fn pack_counts(&self) -> Vec<usize> {
        self.pack_rel.iter().map(Vec::len).collect()
    }

    /// Write the iteration of walk position `i` of the tile at `origin`,
    /// `origin + j_off[i]`, into `j`.
    #[inline]
    pub(crate) fn iteration_into(&self, origin: &[i64], i: usize, j: &mut [i64]) {
        let n = self.n;
        for k in 0..n {
            j[k] = origin[k] + self.j_off[i * n + k];
        }
    }
}

/// The tile's origin iteration `P·tile` (integral: `P` is validated to have
/// integral entries). Per-point iterations are `origin + j_off`.
pub fn tile_origin(t: &TilingTransform, tile: &[i64]) -> Vec<i64> {
    t.p()
        .mul_ivec(tile)
        .iter()
        .map(|r| {
            debug_assert!(r.is_integer());
            r.to_integer()
        })
        .collect()
}

/// Reusable per-rank scratch of the compiled compute paths: per-point
/// staging (`reads`/`out`/`j`/`src`) plus one cache block of batched
/// dependence-major reads and outputs. Allocated once per rank (or bench
/// loop), so the hot paths stay allocation-free.
pub struct ComputeScratch {
    j: Vec<i64>,
    src: Vec<i64>,
    reads: Vec<f64>,
    out: Vec<f64>,
    run_reads: Vec<f64>,
    run_out: Vec<f64>,
}

impl ComputeScratch {
    /// Scratch for an `n`-dimensional nest with `q` dependences and `w`
    /// components per cell.
    pub fn new(n: usize, q: usize, w: usize) -> Self {
        ComputeScratch {
            j: vec![0i64; n],
            src: vec![0i64; n],
            reads: vec![0.0f64; q * w],
            out: vec![0.0f64; w],
            run_reads: vec![0.0f64; q * CACHE_BLOCK * w],
            run_out: vec![0.0f64; CACHE_BLOCK * w],
        }
    }
}

/// A boundary tile's clamp (§3.2), built once per plan: the iteration
/// space as a line clipper, the window of points whose every dependence
/// source is in the space too, and the dependences for the per-point test
/// at the window's edges.
pub struct Clamp {
    /// The iteration space.
    pub space: LineClip,
    /// The points `j` whose every source `j − d_i` is in the space.
    window: LineClip,
    deps: IMat,
}

impl Clamp {
    /// The clamp of `space` under the dependence columns `deps`.
    pub(crate) fn new(space: &Polyhedron, deps: &IMat) -> Self {
        Clamp {
            space: LineClip::new(space, None),
            window: LineClip::new(space, Some(deps)),
            deps: deps.clone(),
        }
    }
}

/// Compute a tile along `runs` — the whole walk
/// ([`CompiledChain::compute_runs`]) or one pass of the overlapped strategy
/// ([`OverlapSplit::boundary_runs`] / [`OverlapSplit::interior_runs`]) —
/// with no per-point allocation. A compute-interior tile passes `clamp =
/// None`: every point is in the space and every read source is stored in
/// the LDS, so no point is tested. A boundary tile passes its [`Clamp`],
/// which cuts each run to its in-space interval and, inside that, to the
/// window where every source is in the space too; only the points between
/// the two are tested one by one, and a source outside the space reads
/// the kernel's initial value. A window (or a whole unclamped run) with a
/// usable `batch` width goes through the kernel's `compute_run` batch
/// entry in cache-blocked chunks (reads bulk-copied per dependence, one
/// kernel dispatch per chunk, one bulk write-back), bitwise identical to
/// the per-point order (see [`CompiledChain`]'s lag analysis, which holds
/// for any stretch of a run); the rest run per point. Returns the number
/// of in-space points computed and how many of them went through the
/// batch entry.
#[allow(clippy::too_many_arguments)]
pub fn compute_tile_fast<K: Kernel + ?Sized>(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    origin: &[i64],
    kernel: &K,
    scr: &mut ComputeScratch,
    runs: &[ComputeRun],
    clamp: Option<&Clamp>,
) -> (u64, u64) {
    let (n, q, w) = (chain.n, chain.q, lds.width());
    let base = tpos * chain.chain_step;
    // Walk position `i`, per point. With `edge`, a source outside the space
    // reads the kernel's initial value; without, every source is in the LDS.
    let point = |vals: &mut [f64], scr: &mut ComputeScratch, i: usize, edge: Option<&Clamp>| {
        chain.iteration_into(origin, i, &mut scr.j);
        for dq in 0..q {
            let r = &mut scr.reads[dq * w..(dq + 1) * w];
            if let Some(c) = edge {
                for k in 0..n {
                    scr.src[k] = scr.j[k] - c.deps[(k, dq)];
                }
                if !c.space.contains(&scr.src) {
                    kernel.initial(&scr.src, r);
                    continue;
                }
            }
            let cell = (base + chain.src_rel[i * q + dq]) as usize;
            r.copy_from_slice(&vals[cell * w..(cell + 1) * w]);
        }
        kernel.compute(&scr.j, &scr.reads[..q * w], &mut scr.out[..w]);
        let cell = (base + chain.dst[i]) as usize;
        vals[cell * w..(cell + 1) * w].copy_from_slice(&scr.out[..w]);
    };
    // Single split borrow of the LDS buffer, hoisted out of all loops.
    let vals = lds.values_mut();
    let (mut iters, mut batched) = (0u64, 0u64);
    for run in runs {
        let len = run.len as usize;
        // Run positions [s0, s1) are in the space; the window [w0, w1)
        // lies inside them.
        let (s0, s1, w0, w1) = match clamp {
            None => (0, len, 0, len),
            Some(c) => {
                chain.iteration_into(origin, run.i0 as usize, &mut scr.j);
                let Some((s0, s1)) = c.space.clip(&scr.j, &run.dj, 0, len as i64 - 1) else {
                    continue;
                };
                let window = c.window.clip(&scr.j, &run.dj, s0, s1);
                let (w0, w1) = window.unwrap_or((s1 + 1, s1));
                (s0 as usize, s1 as usize + 1, w0 as usize, w1 as usize + 1)
            }
        };
        iters += (s1 - s0) as u64;
        let i0 = run.i0 as usize;
        for i in i0 + s0..i0 + w0 {
            point(vals, scr, i, clamp);
        }
        if run.batch >= MIN_BATCH && w1 >= w0 + MIN_BATCH as usize {
            let mut done = w0;
            while done < w1 {
                let b = (run.batch as usize).min(w1 - done);
                let i = i0 + done;
                chain.iteration_into(origin, i, &mut scr.j);
                let cw = b * w;
                for dq in 0..q {
                    let cell = (base + chain.src_rel[i * q + dq]) as usize;
                    scr.run_reads[dq * cw..dq * cw + cw]
                        .copy_from_slice(&vals[cell * w..cell * w + cw]);
                }
                kernel.compute_run(
                    &scr.j,
                    &run.dj,
                    b,
                    &scr.run_reads[..q * cw],
                    &mut scr.run_out[..cw],
                );
                let cell = (base + chain.dst[i]) as usize;
                vals[cell * w..cell * w + cw].copy_from_slice(&scr.run_out[..cw]);
                done += b;
            }
            batched += (w1 - w0) as u64;
        } else {
            for i in i0 + w0..i0 + w1 {
                point(vals, scr, i, None);
            }
        }
        for i in i0 + w1..i0 + s1 {
            point(vals, scr, i, clamp);
        }
    }
    (iters, batched)
}

/// Count the in-space points of a tile along `runs` without touching any
/// data — the timing-only twin of [`compute_tile_fast`], one clip per run.
pub fn count_tile(
    chain: &CompiledChain,
    origin: &[i64],
    clamp: Option<&Clamp>,
    runs: &[ComputeRun],
    j: &mut [i64],
) -> u64 {
    let Some(c) = clamp else {
        return runs.iter().map(|run| u64::from(run.len)).sum();
    };
    let mut iters = 0;
    for run in runs {
        chain.iteration_into(origin, run.i0 as usize, j);
        if let Some((a, b)) = c.space.clip(j, &run.dj, 0, i64::from(run.len) - 1) {
            iters += (b - a + 1) as u64;
        }
    }
    iters
}

/// The PR2 per-point interior loop, kept verbatim (dyn dispatch and
/// `lds.values()` re-borrow per point) as the wall-clock baseline of
/// `--vec-bench` and as a second oracle for the batched path.
pub fn compute_tile_fast_per_point(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    origin: &[i64],
    kernel: &dyn Kernel,
    scr: &mut ComputeScratch,
) {
    let (n, q, w) = (chain.n, chain.q, lds.width());
    let base = tpos * chain.chain_step;
    for i in 0..chain.tile_points {
        for k in 0..n {
            scr.j[k] = origin[k] + chain.j_off[i * n + k];
        }
        let vals = lds.values();
        for dq in 0..q {
            let cell = (base + chain.src_rel[i * q + dq]) as usize;
            scr.reads[dq * w..(dq + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
        }
        kernel.compute(&scr.j[..n], &scr.reads[..q * w], &mut scr.out[..w]);
        let cell = (base + chain.dst[i]) as usize;
        lds.values_mut()[cell * w..(cell + 1) * w].copy_from_slice(&scr.out[..w]);
    }
}

/// Fill `payload` with the pack region of processor dependence `dm_idx` at
/// chain position `tpos`. Unit-stride runs are whole-run block moves; the
/// rest fall back to per-index cell copies.
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
    let list = &chain.pack_rel[dm_idx];
    for run in &chain.pack_runs[dm_idx] {
        let (at, len) = (run.at as usize, run.len as usize);
        if run.step == 1 {
            let cell = (base + list[at]) as usize;
            payload[at * w..(at + len) * w].copy_from_slice(&vals[cell * w..(cell + len) * w]);
        } else {
            for t in at..at + len {
                let cell = (base + list[t]) as usize;
                payload[t * w..(t + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
            }
        }
    }
}

/// The PR2 per-index pack loop, kept as the `--vec-bench` baseline.
pub fn pack_region_per_index(
    chain: &CompiledChain,
    lds: &Lds,
    tpos: i64,
    dm_idx: usize,
    payload: &mut [f64],
) {
    let w = lds.width();
    let base = tpos * chain.chain_step;
    let vals = lds.values();
    for (idx, &rel) in chain.pack_rel[dm_idx].iter().enumerate() {
        let cell = (base + rel) as usize;
        payload[idx * w..(idx + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
    }
}

/// A received payload whose length disagrees with the plan's unpack list —
/// always checked, release builds included: a silent size mismatch would
/// scatter values to the wrong halo cells and corrupt the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadSizeError {
    /// Index of the tile dependence being unpacked.
    pub ds_idx: usize,
    /// Expected payload length in values (`list.len() · width`).
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
/// `ds_idx` at chain position `tpos`. Runs cover exactly the non-[`SKIP`]
/// positions, so SKIP cells are dropped by construction and unit-stride
/// runs are whole-run block moves.
pub fn unpack_region(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    ds_idx: usize,
    payload: &[f64],
) -> Result<(), PayloadSizeError> {
    let w = lds.width();
    let base = tpos * chain.chain_step;
    let list = &chain.unpack_rel[ds_idx];
    if list.len() * w != payload.len() {
        return Err(PayloadSizeError {
            ds_idx,
            expected: list.len() * w,
            actual: payload.len(),
        });
    }
    let vals = lds.values_mut();
    for run in &chain.unpack_runs[ds_idx] {
        let (at, len) = (run.at as usize, run.len as usize);
        if run.step == 1 {
            let cell = (base + list[at]) as usize;
            vals[cell * w..(cell + len) * w].copy_from_slice(&payload[at * w..(at + len) * w]);
        } else {
            for t in at..at + len {
                let cell = (base + list[t]) as usize;
                vals[cell * w..(cell + 1) * w].copy_from_slice(&payload[t * w..(t + 1) * w]);
            }
        }
    }
    Ok(())
}

/// The PR2 per-index unpack loop, kept as the `--vec-bench` baseline;
/// applies the same payload-size check as [`unpack_region`].
pub fn unpack_region_per_index(
    chain: &CompiledChain,
    lds: &mut Lds,
    tpos: i64,
    ds_idx: usize,
    payload: &[f64],
) -> Result<(), PayloadSizeError> {
    let w = lds.width();
    let base = tpos * chain.chain_step;
    let list = &chain.unpack_rel[ds_idx];
    if list.len() * w != payload.len() {
        return Err(PayloadSizeError {
            ds_idx,
            expected: list.len() * w,
            actual: payload.len(),
        });
    }
    let vals = lds.values_mut();
    for (idx, &rel) in list.iter().enumerate() {
        if rel == SKIP {
            continue;
        }
        let cell = (base + rel) as usize;
        vals[cell * w..(cell + 1) * w].copy_from_slice(&payload[idx * w..(idx + 1) * w]);
    }
    Ok(())
}

/// Visit the in-space part of every gather run of the tile at `origin`,
/// as `f(run, first, count)` over run-relative positions
/// `first..first + count`. With `clamp = None` (an interior tile) every
/// run is visited whole. Along a run the iteration advances by one
/// constant vector (see [`coalesce_gather_runs`]), so the space clips it
/// to one interval ([`LineClip::clip`]).
fn gather_spans(
    chain: &CompiledChain,
    origin: &[i64],
    clamp: Option<&LineClip>,
    mut f: impl FnMut(&GatherRun, usize, usize),
) {
    let n = chain.n;
    let (mut j0, mut dj) = (vec![0i64; n], vec![0i64; n]);
    for run in &chain.gather_runs {
        let last = i64::from(run.len) - 1;
        let span = match clamp {
            None => Some((0, last)),
            Some(space) => {
                let at = run.at as usize;
                chain.iteration_into(origin, at, &mut j0);
                for k in 0..n {
                    dj[k] = if run.len > 1 {
                        chain.j_off[(at + 1) * n + k] - chain.j_off[at * n + k]
                    } else {
                        0
                    };
                }
                space.clip(&j0, &dj, 0, last)
            }
        };
        if let Some((a, b)) = span {
            f(run, a as usize, (b - a + 1) as usize);
        }
    }
}

/// Gather a tile's owned cells into the global data space through the
/// plan-time runs: joint unit-stride runs become one block copy each
/// (values and written flags), other runs per-cell writes. A boundary tile
/// passes the iteration space as `clamp` ([`Clamp::space`]), which cuts
/// each run to its in-space interval ([`gather_spans`]); an interior tile
/// passes `None`.
pub fn gather_tile(
    chain: &CompiledChain,
    lds: &Lds,
    tpos: i64,
    origin: &[i64],
    clamp: Option<&LineClip>,
    ds: &mut DataSpace,
) {
    let w = lds.width();
    debug_assert_eq!(ds.width(), w);
    let base = tpos * chain.chain_step;
    let gbase = ds.flat_cell_signed(origin);
    let vals = lds.values();
    gather_spans(chain, origin, clamp, |run, first, count| {
        let at = run.at as usize + first;
        if run.src_step == 1 && run.dst_step == 1 {
            let src = (base + chain.dst[at]) as usize;
            let cell = (gbase + chain.gather_rel[at]) as usize;
            ds.write_cells(cell, count, &vals[src * w..(src + count) * w]);
        } else {
            for i in at..at + count {
                let src = (base + chain.dst[i]) as usize;
                let cell = (gbase + chain.gather_rel[i]) as usize;
                ds.write_cell(cell, &vals[src * w..(src + 1) * w]);
            }
        }
    });
}

/// The PR2 per-cell gather loop, kept as the `--vec-bench` baseline.
pub fn gather_tile_per_cell(
    chain: &CompiledChain,
    lds: &Lds,
    tpos: i64,
    origin: &[i64],
    ds: &mut DataSpace,
) {
    let w = lds.width();
    debug_assert_eq!(ds.width(), w);
    let base = tpos * chain.chain_step;
    let gbase = ds.flat_cell_signed(origin);
    let vals = lds.values();
    for i in 0..chain.tile_points {
        let src = (base + chain.dst[i]) as usize;
        let cell = (gbase + chain.gather_rel[i]) as usize;
        ds.write_cell(cell, &vals[src * w..(src + 1) * w]);
    }
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
            for &(lo_t, hi_t) in &plan.dist.chains {
                lens.insert(hi_t - lo_t + 1);
            }
            for &len in &lens {
                let chain = plan.compiled_for(len);
                assert_eq!(chain.tile_points, coords.len(), "case {case}");

                // Partition: each side strictly ascending, union complete.
                let mut side = vec![None; chain.tile_points];
                let split = chain.split();
                for (order, tag) in [
                    (&split.boundary_order, true),
                    (&split.interior_order, false),
                ] {
                    assert!(order.windows(2).all(|w| w[0] < w[1]), "case {case}");
                    for &i in order.iter() {
                        assert!(
                            side[i as usize].replace(tag).is_none(),
                            "case {case}: point {i} on both sides"
                        );
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
                for &i in split.boundary_order.iter() {
                    for dq in 0..q {
                        for k in 0..n {
                            pred[k] = coords[i as usize][k] - plan.comm.d_prime[(k, dq)];
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
                if !split.interior_order.is_empty() {
                    with_interior += 1;
                }
            }

            // The two passes' in-space counts partition every tile's
            // iterations.
            let mut j_buf = vec![0i64; n];
            if let Some(&(lo_t, hi_t)) = plan.dist.chains.first() {
                // Per-tile counts are chain-length independent.
                let chain = plan.compiled_for(hi_t - lo_t + 1);
                let split = chain.split();
                for tile in plan.tiled.tiles() {
                    let origin = super::tile_origin(tr, &tile);
                    let clamp = Some(&plan.clamp);
                    let b =
                        super::count_tile(chain, &origin, clamp, &split.boundary_runs, &mut j_buf);
                    let i =
                        super::count_tile(chain, &origin, clamp, &split.interior_runs, &mut j_buf);
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

    /// SKIP sentinels are never covered and split otherwise-affine runs
    /// exactly; singletons carry step 1 (the block-move fast path).
    #[test]
    fn coalesce_runs_splits_on_skip() {
        use super::{coalesce_runs, IndexRun, SKIP};
        assert_eq!(coalesce_runs(&[]), vec![]);
        assert_eq!(coalesce_runs(&[SKIP, SKIP]), vec![]);
        assert_eq!(
            coalesce_runs(&[7]),
            vec![IndexRun {
                at: 0,
                len: 1,
                step: 1
            }]
        );
        // One affine list cut in two by a SKIP; the second piece resumes
        // with its own start cell and the same stride.
        assert_eq!(
            coalesce_runs(&[10, 12, 14, SKIP, 18, 20]),
            vec![
                IndexRun {
                    at: 0,
                    len: 3,
                    step: 2
                },
                IndexRun {
                    at: 4,
                    len: 2,
                    step: 2
                },
            ]
        );
        // A stride change splits without a gap.
        assert_eq!(
            coalesce_runs(&[0, 1, 2, 10, 11]),
            vec![
                IndexRun {
                    at: 0,
                    len: 3,
                    step: 1
                },
                IndexRun {
                    at: 3,
                    len: 2,
                    step: 1
                },
            ]
        );
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
        let (lo_t, hi_t) = plan.dist.chains[0];
        let num_tiles = hi_t - lo_t + 1;
        let w = plan.algorithm.width();
        let chain = plan.compiled_for(num_tiles);
        let ds_idx = chain
            .unpack_rel
            .iter()
            .position(|l| !l.is_empty())
            .expect("a tile dependence with an unpack list");
        let expected = chain.unpack_rel[ds_idx].len() * w;
        let mut lds = plan.rank_lds(0);
        let before: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
        type UnpackFn = fn(
            &super::CompiledChain,
            &mut tilecc_tiling::Lds,
            i64,
            usize,
            &[f64],
        ) -> Result<(), super::PayloadSizeError>;
        for (unpack, label) in [
            (super::unpack_region as UnpackFn, "run"),
            (super::unpack_region_per_index as UnpackFn, "per-index"),
        ] {
            for bad in [expected - 1, expected + w] {
                let payload = vec![1.0f64; bad];
                let err = unpack(chain, &mut lds, 0, ds_idx, &payload)
                    .expect_err("wrong payload size must be rejected");
                assert_eq!(err.ds_idx, ds_idx, "{label}");
                assert_eq!(err.expected, expected, "{label}");
                assert_eq!(err.actual, bad, "{label}");
                assert!(err.to_string().contains("payload size mismatch"), "{label}");
                let after: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(before, after, "{label}: failed unpack touched the LDS");
            }
        }
    }

    /// The batched interior compute must be bitwise identical to the
    /// per-point PR2 loop on a real plan, and must actually batch.
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
            let (lo_t, hi_t) = plan.dist.chains[0];
            let num_tiles = hi_t - lo_t + 1;
            let w = plan.algorithm.width();
            let chain = plan.compiled_for(num_tiles);
            let (n, q) = (chain.n, chain.q);
            let tr = plan.tiled.transform();
            let deps = plan.deps();
            let tile = plan
                .tiled
                .tiles()
                .find(|tile| plan.tiled.tile_is_compute_interior(tile, deps))
                .expect("a compute-interior tile");
            let origin = super::tile_origin(tr, &tile);
            let mut scr = super::ComputeScratch::new(n, q, w);
            let fill = |lds: &mut tilecc_tiling::Lds| {
                for (i, x) in lds.values_mut().iter_mut().enumerate() {
                    *x = ((i % 977) as f64) / 977.0;
                }
            };
            let mut lds = plan.rank_lds(0);
            fill(&mut lds);
            super::compute_tile_fast_per_point(
                chain,
                &mut lds,
                0,
                &origin,
                plan.algorithm.kernel.as_ref(),
                &mut scr,
            );
            let want: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
            fill(&mut lds);
            let (_, batched) = super::compute_tile_fast(
                chain,
                &mut lds,
                0,
                &origin,
                plan.algorithm.kernel.as_ref(),
                &mut scr,
                &chain.compute_runs,
                None,
            );
            let got: Vec<u64> = lds.values().iter().map(|v| v.to_bits()).collect();
            assert!(batched > 0, "{name}: nothing batched");
            assert_eq!(want, got, "{name}: batched compute differs bitwise");
        }
    }
}
