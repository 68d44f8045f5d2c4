#![allow(clippy::needless_range_loop)] // index loops mirror the compiled path's tables
//! The per-point hot loops of the first compiled execution path, kept
//! verbatim as the wall-clock baselines and second oracles of
//! `perf --vec-bench`: compute, pack, unpack and gather, one list entry
//! per point. They read private per-point tables ([`PerPoint`]) built by
//! one lattice walk of the tile box and of each region box; the compiled
//! path itself stores only TTIS rows (`tilecc_parcode::compiled`).

use tilecc_linalg::vecops::div_floor;
use tilecc_loopnest::{DataSpace, Kernel};
use tilecc_parcode::compiled::PayloadSizeError;
use tilecc_parcode::ParallelPlan;
use tilecc_tiling::{Lds, LdsGeometry};

/// Sentinel for unpack cells outside the LDS allocation; the unpack loop
/// drops them, exactly as `Lds::set_all` does on the reference path.
const SKIP: i64 = i64::MIN;

/// Per-point tables of one chain length, in TTIS walk order, at
/// `tpos = 0`: each point's owned cell (`dst`), iteration offset `P'·j'`
/// (`j_off`, `n` per point), read-source cells (`src_rel`, `q` per point)
/// and `DataSpace` offset (`gather_rel`); the owned cells of each pack
/// region and the halo cells (or [`SKIP`]) of each unpack region.
pub struct PerPoint {
    n: usize,
    q: usize,
    chain_step: i64,
    dst: Vec<i64>,
    j_off: Vec<i64>,
    src_rel: Vec<i64>,
    gather_rel: Vec<i64>,
    pack_rel: Vec<Vec<i64>>,
    unpack_rel: Vec<Vec<i64>>,
}

impl PerPoint {
    /// The tables of `plan`'s chains of `num_tiles` tiles.
    pub fn new(plan: &ParallelPlan, num_tiles: i64) -> Self {
        let (comm, geo) = (&plan.comm, &plan.geo);
        let t = plan.tiled.transform();
        let (n, m, v) = (t.dim(), geo.m, t.v());
        let extents = geo.extents(num_tiles);
        let weights = LdsGeometry::weights(&extents);
        let q = comm.d_prime.cols();
        let (lo, hi) = plan.algorithm.nest.bounding_box();
        let ds_extents: Vec<i64> = lo.iter().zip(&hi).map(|(&l, &h)| h - l + 1).collect();
        let ds_weights = LdsGeometry::weights(&ds_extents);
        let lat = t.lattice();
        let cell = |g: &[i64]| geo.flat_cell_signed(g, &weights);

        let (mut dst, mut j_off, mut src_rel, mut gather_rel) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut off, mut g0) = (vec![0i64; n], vec![0i64; n]);
        lat.for_each_in_box(&vec![0i64; n], v, |jp| {
            dst.push(cell(jp));
            t.p_prime_mul_into(jp, &mut off);
            j_off.extend_from_slice(&off);
            gather_rel.push(off.iter().zip(&ds_weights).map(|(&x, &w)| x * w).sum());
            for dq in 0..q {
                for k in 0..n {
                    g0[k] = jp[k] - comm.d_prime[(k, dq)];
                }
                src_rel.push(cell(&g0));
            }
        });
        let pack_rel = comm
            .proc_deps
            .iter()
            .map(|dm| {
                let mut cells = Vec::new();
                lat.for_each_in_box(&comm.region_lo(dm, v), v, |jp| cells.push(cell(jp)));
                cells
            })
            .collect();
        // The receiver addresses the sender's region points at `tpos = 0`
        // as `g_k = jp_k − ds_k·v_k`.
        let unpack_rel = comm
            .tile_deps
            .iter()
            .zip(&comm.dm_of_ds)
            .map(|(ds, dm_idx)| {
                let mut cells = Vec::new();
                if let Some(dm_idx) = *dm_idx {
                    let lo = comm.region_lo(&comm.proc_deps[dm_idx], v);
                    lat.for_each_in_box(&lo, v, |jp| {
                        let mut c = 0i64;
                        let mut in_range = true;
                        for k in 0..n {
                            let a = div_floor(jp[k] - ds[k] * v[k], geo.c[k]) + geo.off[k];
                            in_range &= k == m || (0 <= a && a < extents[k]);
                            c += a * weights[k];
                        }
                        cells.push(if in_range { c } else { SKIP });
                    });
                }
                cells
            })
            .collect();
        PerPoint {
            n,
            q,
            chain_step: (v[m] / geo.c[m]) * weights[m],
            dst,
            j_off,
            src_rel,
            gather_rel,
            pack_rel,
            unpack_rel,
        }
    }
}

/// Per-point staging of [`compute_tile_fast_per_point`].
pub struct Scratch {
    j: Vec<i64>,
    reads: Vec<f64>,
    out: Vec<f64>,
}

impl Scratch {
    /// Scratch for `n` dimensions, `q` dependences and `w` values per cell.
    pub fn new(n: usize, q: usize, w: usize) -> Self {
        Scratch {
            j: vec![0i64; n],
            reads: vec![0.0f64; q * w],
            out: vec![0.0f64; w],
        }
    }
}

/// The per-point interior loop (dyn dispatch and `lds.values()` re-borrow
/// per point).
pub fn compute_tile_fast_per_point(
    pp: &PerPoint,
    lds: &mut Lds,
    tpos: i64,
    origin: &[i64],
    kernel: &dyn Kernel,
    scr: &mut Scratch,
) {
    let (n, q, w) = (pp.n, pp.q, lds.width());
    let base = tpos * pp.chain_step;
    for i in 0..pp.dst.len() {
        for k in 0..n {
            scr.j[k] = origin[k] + pp.j_off[i * n + k];
        }
        let vals = lds.values();
        for dq in 0..q {
            let cell = (base + pp.src_rel[i * q + dq]) as usize;
            scr.reads[dq * w..(dq + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
        }
        kernel.compute(&scr.j[..n], &scr.reads[..q * w], &mut scr.out[..w]);
        let cell = (base + pp.dst[i]) as usize;
        lds.values_mut()[cell * w..(cell + 1) * w].copy_from_slice(&scr.out[..w]);
    }
}

/// The per-index pack loop.
pub fn pack_region_per_index(
    pp: &PerPoint,
    lds: &Lds,
    tpos: i64,
    dm_idx: usize,
    payload: &mut [f64],
) {
    let w = lds.width();
    let base = tpos * pp.chain_step;
    let vals = lds.values();
    for (idx, &rel) in pp.pack_rel[dm_idx].iter().enumerate() {
        let cell = (base + rel) as usize;
        payload[idx * w..(idx + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
    }
}

/// The per-index unpack loop, with the payload-size check of
/// `tilecc_parcode::compiled::unpack_region`.
pub fn unpack_region_per_index(
    pp: &PerPoint,
    lds: &mut Lds,
    tpos: i64,
    ds_idx: usize,
    payload: &[f64],
) -> Result<(), PayloadSizeError> {
    let w = lds.width();
    let base = tpos * pp.chain_step;
    let list = &pp.unpack_rel[ds_idx];
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

/// The per-cell gather loop.
pub fn gather_tile_per_cell(
    pp: &PerPoint,
    lds: &Lds,
    tpos: i64,
    origin: &[i64],
    ds: &mut DataSpace,
) {
    let w = lds.width();
    debug_assert_eq!(ds.width(), w);
    let base = tpos * pp.chain_step;
    let gbase = ds.flat_cell_signed(origin);
    let vals = lds.values();
    for i in 0..pp.dst.len() {
        let src = (base + pp.dst[i]) as usize;
        let cell = (gbase + pp.gather_rel[i]) as usize;
        ds.write_cell(cell, &vals[src * w..(src + 1) * w]);
    }
}
