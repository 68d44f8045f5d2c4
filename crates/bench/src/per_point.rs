#![allow(clippy::needless_range_loop)] // index loops mirror the compiled path's tables
//! The per-point hot loops of the first compiled execution path, kept
//! verbatim as wall-clock baselines and second oracles of `perf`: compute,
//! pack, unpack and gather, one list entry per point. They read private
//! per-point tables ([`PerPoint`]) built by one lattice walk of the tile
//! box and of each region box; the compiled path itself stores only TTIS
//! rows (`tilecc_parcode::compiled`).
//!
//! [`HotPaths::check`] is the one bitwise check of every optimized hot
//! path against these baselines and the executor's `reference_*` paths,
//! which `perf` runs before it times anything.

use tilecc_linalg::vecops::div_floor;
use tilecc_loopnest::{DataSpace, Kernel};
use tilecc_parcode::compiled::{
    compute_tile_fast, gather_tile, pack_region, read_owned_tile, unpack_region, ComputeScratch,
    PayloadSizeError,
};
use tilecc_parcode::executor::{
    reference_compute_tile, reference_gather_tile, reference_pack, reference_read_tile,
    reference_unpack,
};
use tilecc_parcode::ParallelPlan;
use tilecc_tiling::{insert_at, Lds, LdsGeometry};

/// Sentinel for unpack cells outside the LDS allocation; the unpack loop
/// drops them, exactly as `Lds::set_all` does on the reference path.
const SKIP: i64 = i64::MIN;

/// Per-point tables of a tile over the LDS window, in TTIS walk order:
/// each point's owned cell (`dst`), iteration offset `P'·j'`
/// (`j_off`, `n` per point), read-source cells (`src_rel`, `q` per point)
/// and `DataSpace` offset (`gather_rel`); the owned cells of each pack
/// region and the halo cells (or `SKIP`) of each unpack region.
pub struct PerPoint {
    n: usize,
    q: usize,
    dst: Vec<i64>,
    j_off: Vec<i64>,
    src_rel: Vec<i64>,
    gather_rel: Vec<i64>,
    pack_rel: Vec<Vec<i64>>,
    unpack_rel: Vec<Vec<i64>>,
}

impl PerPoint {
    /// The tables of `plan`'s tiles.
    pub fn new(plan: &ParallelPlan) -> Self {
        let (comm, geo) = (&plan.comm, &plan.geo);
        let t = plan.tiled.transform();
        let (n, m, v) = (t.dim(), geo.m, t.v());
        let extents = geo.extents();
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
        // The receiver addresses the sender's region points as
        // `g_k = jp_k − ds_k·v_k`.
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
    origin: &[i64],
    kernel: &dyn Kernel,
    scr: &mut Scratch,
) {
    let (n, q, w) = (pp.n, pp.q, lds.width());
    for i in 0..pp.dst.len() {
        for k in 0..n {
            scr.j[k] = origin[k] + pp.j_off[i * n + k];
        }
        let vals = lds.values();
        for dq in 0..q {
            let cell = pp.src_rel[i * q + dq] as usize;
            scr.reads[dq * w..(dq + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
        }
        kernel.compute(&scr.j[..n], &scr.reads[..q * w], &mut scr.out[..w]);
        let cell = pp.dst[i] as usize;
        lds.values_mut()[cell * w..(cell + 1) * w].copy_from_slice(&scr.out[..w]);
    }
}

/// The per-index pack loop.
pub fn pack_region_per_index(pp: &PerPoint, lds: &Lds, dm_idx: usize, payload: &mut [f64]) {
    let w = lds.width();
    let vals = lds.values();
    for (idx, &rel) in pp.pack_rel[dm_idx].iter().enumerate() {
        let cell = rel as usize;
        payload[idx * w..(idx + 1) * w].copy_from_slice(&vals[cell * w..(cell + 1) * w]);
    }
}

/// The per-index unpack loop, with the payload-size check of
/// `tilecc_parcode::compiled::unpack_region`.
pub fn unpack_region_per_index(
    pp: &PerPoint,
    lds: &mut Lds,
    ds_idx: usize,
    payload: &[f64],
) -> Result<(), PayloadSizeError> {
    let w = lds.width();
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
        let cell = rel as usize;
        vals[cell * w..(cell + 1) * w].copy_from_slice(&payload[idx * w..(idx + 1) * w]);
    }
    Ok(())
}

/// The per-cell gather loop.
pub fn gather_tile_per_cell(pp: &PerPoint, lds: &Lds, origin: &[i64], ds: &mut DataSpace) {
    let w = lds.width();
    debug_assert_eq!(ds.width(), w);
    let gbase = ds.flat_cell_signed(origin);
    let vals = lds.values();
    for i in 0..pp.dst.len() {
        let src = pp.dst[i] as usize;
        let cell = (gbase + pp.gather_rel[i]) as usize;
        ds.write_cell(cell, &vals[src * w..(src + 1) * w]);
    }
}

/// An LDS window with deterministic non-trivial contents, so reads do real
/// work.
pub fn filled_lds(plan: &ParallelPlan) -> Lds {
    let mut lds = plan.lds();
    for (i, x) in lds.values_mut().iter_mut().enumerate() {
        *x = ((i % 977) as f64) / 977.0;
    }
    lds
}

/// A tile and its origin.
pub struct TileSite {
    pub tile: Vec<i64>,
    pub origin: Vec<i64>,
}

impl TileSite {
    /// The first tile of any rank's chain that `pick` accepts.
    fn first(plan: &ParallelPlan, pick: impl Fn(&[i64]) -> bool) -> Option<Self> {
        (0..plan.num_procs()).find_map(|rank| {
            let (lo_t, hi_t) = plan.dist.chains[rank];
            (lo_t..=hi_t).find_map(|t_abs| {
                let tile = insert_at(&plan.dist.pids[rank], plan.m(), t_abs);
                pick(&tile).then(|| TileSite {
                    origin: plan.tiled.tile_origin(&tile),
                    tile,
                })
            })
        })
    }

    /// The site's part of its rank's output read from `lds`: in owned-row
    /// order, the gather's input under the compiled strategies, and in
    /// `tile_iterations` order, the reference gather's.
    pub fn outputs(&self, plan: &ParallelPlan, lds: &Lds) -> (Vec<f64>, Vec<f64>) {
        let tc = plan.clamp.at(&self.origin);
        let clamp = (!tc.interior()).then_some(&tc);
        let (mut rows, mut points) = (Vec::new(), Vec::new());
        read_owned_tile(plan.chain(), lds, clamp, &mut rows);
        reference_read_tile(plan, lds, &self.tile, &mut points);
        (rows, points)
    }
}

/// The hot paths of one plan: compute, pack, unpack and gather on its
/// first compute-interior tile, each with a per-point and a reference
/// baseline, and the clipped gather of its first boundary tile.
pub struct HotPaths<'p> {
    pub plan: &'p ParallelPlan,
    pub interior: TileSite,
    /// The first valid tile that is not space-interior.
    pub boundary: TileSite,
    /// The plan's per-point tables.
    pub pp: PerPoint,
    /// Processor dependence 0 and a tile dependence it carries, unless
    /// the plan sends nothing.
    pub region: Option<(usize, usize)>,
}

impl<'p> HotPaths<'p> {
    /// `Err` when `plan` has no compute-interior or no boundary tile.
    pub fn new(plan: &'p ParallelPlan) -> Result<Self, String> {
        let interior = TileSite::first(plan, |t| {
            plan.tiled.tile_is_compute_interior(t, plan.deps())
        })
        .ok_or("no compute-interior tile")?;
        let boundary = TileSite::first(plan, |t| {
            plan.tiled.tile_valid(t) && !plan.tiled.tile_is_interior(t)
        })
        .ok_or("no boundary tile")?;
        let region = (!plan.comm.proc_deps.is_empty()).then(|| {
            let ds_idx = plan.comm.dm_of_ds.iter().position(|d| *d == Some(0));
            (0, ds_idx.expect("every proc dep comes from a tile dep"))
        });
        Ok(HotPaths {
            pp: PerPoint::new(plan),
            plan,
            interior,
            boundary,
            region,
        })
    }

    /// The payload the unpack paths read for tile dependence `ds_idx`.
    pub fn unpack_payload(&self, ds_idx: usize) -> Vec<f64> {
        let w = self.plan.algorithm.width();
        let points = self.plan.chain().unpack[ds_idx].points;
        (0..points * w).map(|i| 1.0 + 0.5 * i as f64).collect()
    }

    /// An empty data space over the nest's bounding box.
    pub fn data_space(&self) -> DataSpace {
        let (lo, hi) = self.plan.algorithm.nest.bounding_box();
        DataSpace::with_width(&lo, &hi, self.plan.algorithm.width())
    }

    /// Every optimized hot path against each of its baselines, bitwise,
    /// each run from the same fresh state: compute (the whole LDS after
    /// it), pack (the payload), unpack (the LDS) and gather (the data
    /// space) against the per-point and the reference paths, and the
    /// boundary tile's clipped gather against the reference gather.
    /// Returns the interior tile's batched points.
    pub fn check(&self) -> Result<u64, String> {
        let (plan, s) = (self.plan, &self.interior);
        let (n, q, w) = (plan.dim(), plan.deps().cols(), plan.algorithm.width());
        let (chain, kernel) = (plan.chain(), plan.algorithm.kernel.as_ref());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let on_lds = |f: &mut dyn FnMut(&mut Lds)| {
            let mut lds = filled_lds(plan);
            f(&mut lds);
            bits(lds.values())
        };

        let (mut scr, mut pscr) = (ComputeScratch::new(n, q, w), Scratch::new(n, q, w));
        let mut batched = 0;
        let got = on_lds(&mut |lds| {
            let fast =
                compute_tile_fast(chain, lds, &s.origin, kernel, &mut scr, &chain.walk, None);
            batched = fast.1;
        });
        let per_point = on_lds(&mut |lds| {
            compute_tile_fast_per_point(&self.pp, lds, &s.origin, kernel, &mut pscr);
        });
        let reference = on_lds(&mut |lds| {
            reference_compute_tile(plan, lds, &s.tile);
        });
        agree(
            "compute",
            &got,
            [("per-point", per_point), ("reference", reference)],
        )?;

        if let Some((dm_idx, ds_idx)) = self.region {
            let lds = filled_lds(plan);
            let pack = |f: &dyn Fn(&mut [f64])| {
                let mut payload = vec![0.0; chain.pack[dm_idx].points * w];
                f(&mut payload);
                bits(&payload)
            };
            let got = pack(&|p| pack_region(chain, &lds, dm_idx, p));
            let per_point = pack(&|p| pack_region_per_index(&self.pp, &lds, dm_idx, p));
            let reference = pack(&|p| reference_pack(plan, &lds, dm_idx, p));
            agree(
                "pack",
                &got,
                [("per-point", per_point), ("reference", reference)],
            )?;

            let payload = self.unpack_payload(ds_idx);
            let sized = "the payload is sized to the unpack region";
            let got = on_lds(&mut |lds| {
                unpack_region(chain, lds, ds_idx, &payload).expect(sized);
            });
            let per_point = on_lds(&mut |lds| {
                unpack_region_per_index(&self.pp, lds, ds_idx, &payload).expect(sized);
            });
            let reference = on_lds(&mut |lds| {
                reference_unpack(plan, lds, ds_idx, dm_idx, &payload);
            });
            agree(
                "unpack",
                &got,
                [("per-point", per_point), ("reference", reference)],
            )?;
        }

        let gather = |f: &dyn Fn(&Lds, &mut DataSpace)| {
            let mut ds = self.data_space();
            f(&filled_lds(plan), &mut ds);
            let cells = 0..ds.num_cells();
            cells
                .map(|c| ds.written_cell(c).map(bits))
                .collect::<Vec<_>>()
        };
        let got = gather(&|lds, ds| {
            gather_tile(chain, &s.outputs(plan, lds).0, &s.origin, None, ds);
        });
        let per_point = gather(&|lds, ds| {
            gather_tile_per_cell(&self.pp, lds, &s.origin, ds);
        });
        let reference = gather(&|lds, ds| {
            reference_gather_tile(plan, &s.outputs(plan, lds).1, &s.tile, ds);
        });
        agree(
            "gather",
            &got,
            [("per-point", per_point), ("reference", reference)],
        )?;

        let b = &self.boundary;
        let clamp = plan.clamp.at(&b.origin);
        let got = gather(&|lds, ds| {
            let rows = b.outputs(plan, lds).0;
            gather_tile(plan.chain(), &rows, &b.origin, Some(&clamp), ds);
        });
        let reference = gather(&|lds, ds| {
            reference_gather_tile(plan, &b.outputs(plan, lds).1, &b.tile, ds);
        });
        agree("boundary gather", &got, [("reference", reference)])?;
        Ok(batched)
    }
}

/// `Err` naming the first element where `got` differs from a baseline.
fn agree<T: PartialEq, const B: usize>(
    path: &str,
    got: &[T],
    baselines: [(&str, Vec<T>); B],
) -> Result<(), String> {
    for (name, want) in baselines {
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            return Err(format!(
                "{path} differs bitwise from its {name} baseline at element {i}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc::matrices;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_tiling::TilingTransform;

    fn plan(src: &str, params: &[(&str, i64)], h: tilecc_linalg::RMat, m: usize) -> ParallelPlan {
        let alg = compile_kernel_with(src, params).unwrap();
        ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(m)).unwrap()
    }

    #[test]
    fn every_hot_path_agrees_with_its_baselines_on_small_sor_and_adi() {
        // SOR's lag-1 rows run point by point; ADI's batch, so both forms
        // of the compiled compute loop are checked.
        let cases = [
            (
                plan(
                    corpus::SOR,
                    &[("M", 8), ("N", 12)],
                    matrices::sor_nr(2, 3, 4),
                    2,
                ),
                false,
            ),
            (
                plan(
                    corpus::ADI,
                    &[("T", 8), ("N", 12)],
                    matrices::adi_rect(2, 4, 4),
                    0,
                ),
                true,
            ),
        ];
        for (plan, batches) in &cases {
            let hot = HotPaths::new(plan).unwrap();
            assert!(hot.region.is_some(), "the plan communicates");
            let batched = hot.check().unwrap();
            assert_eq!(batched > 0, *batches, "batched points: {batched}");
        }
    }
}
