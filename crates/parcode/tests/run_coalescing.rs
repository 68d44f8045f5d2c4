//! Row-table soundness: the plan-time TTIS rows of a [`CompiledChain`] —
//! compute, pack, unpack, gather and the overlapped split — checked against
//! oracles that do not use the lowering: the tile walk
//! (`TiledSpace::tile_iterations`) with each point at its TTIS coordinate
//! in the LDS window for the compute rows, `Lattice::points_in_box` for the region rows. Rows must
//! never claim a batch width the dependence lags don't permit. Checked on
//! the paper's six workloads and on a seeded corpus of random convex (cut)
//! spaces under random rectangular and tiling-cone non-rectangular tilings
//! — the same generator family as the fuzz harness, so failures reproduce
//! from the seed in the assertion message.

use std::sync::Arc;
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, DataSpace, Kernel, LoopNest};
use tilecc_parcode::compiled::{gather_tile, read_owned_tile, Region, CACHE_BLOCK, MIN_BATCH};
use tilecc_parcode::ParallelPlan;
use tilecc_polytope::{Clamp, Constraint, Polyhedron};
use tilecc_tiling::{tiling_cone_rays, TilingTransform};

/// xorshift64* — the fuzz harness's generator, for seed-reproducible cases.
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
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

struct K;
impl Kernel for K {
    fn width(&self) -> usize {
        1
    }
    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        let mut acc = 0.125 * (j[0] % 5) as f64;
        for (i, r) in reads.iter().enumerate() {
            acc += (0.2 + 0.1 * i as f64) * r;
        }
        out[0] = acc;
    }
    fn initial(&self, j: &[i64], out: &mut [f64]) {
        out[0] = ((j.iter().sum::<i64>()).rem_euclid(97)) as f64 / 97.0;
    }
}

/// A region's blocks expanded to its payload positions: the LDS cell each
/// position copies, or `None` for a position no block covers. Blocks must
/// be in walk order and must not overlap.
fn region_cells(r: &Region, ctx: &str) -> Vec<Option<i64>> {
    let mut cells = vec![None; r.points];
    let mut end = 0usize;
    for b in &r.blocks {
        assert!(
            b.len >= 1 && b.at >= end,
            "{ctx}: blocks overlap or out of order"
        );
        end = b.at + b.len;
        assert!(end <= r.points, "{ctx}: block past the region");
        for t in 0..b.len {
            cells[b.at + t] = Some(b.cell + t as i64 * b.stride);
        }
    }
    cells
}

/// Every table of `plan` against the oracles.
///
/// - Compute rows, on every valid tile: expanded (and, on a boundary
///   tile, clipped by the space as the executor clips them), they list
///   exactly the tile walk's iterations in order, owning `index_of(j')`
///   and reading `index_of(j' − d')`
///   wherever that cell is allocated. A row's batch width never exceeds a
///   positive lag or [`CACHE_BLOCK`], and is 0 or at least [`MIN_BATCH`].
/// - Region rows: pack blocks copy exactly the owned cells of
///   `points_in_box(region_lo, v)`, in order; unpack blocks exactly the
///   halo cells inside the allocation, dropping the rest.
/// - The overlapped split's sub-rows partition every row.
///
/// Returns the number of unpack positions outside the allocation.
fn check_plan(plan: &ParallelPlan, ctx: &str) -> usize {
    let t = plan.tiled.transform();
    let (n, v, lat) = (plan.dim(), t.v(), t.lattice());
    let comm = &plan.comm;
    let q = comm.d_prime.cols();
    let mut dropped = 0usize;
    let mut j = vec![0i64; n];
    let none = IMat::zeros(n, 0);
    let space = Clamp::new(plan.tiled.space(), &none, &none);
    let (chain, lds) = (plan.chain(), plan.lds());
    for tile in plan.tiled.tiles() {
        let origin = plan.tiled.tile_origin(&tile);
        let mut want = plan.tiled.tile_iterations(&tile);
        for row in &chain.rows {
            let (a, b) = if plan.tiled.tile_is_interior(&tile) {
                (0, row.len as i64 - 1)
            } else {
                for k in 0..n {
                    j[k] = origin[k] + row.j[k];
                }
                let slope: Vec<i128> = space.dots(&chain.dj).collect();
                let line = |k| (space.residual(k, &j), slope[k]);
                match space.clip(0, row.len as i64 - 1, false, line) {
                    Some([a, b, ..]) => (a, b),
                    None => continue,
                }
            };
            for t in a..=b {
                let (jp, jw) = want.next().expect("rows list more points than the walk");
                let it: Vec<i64> = (0..n)
                    .map(|k| origin[k] + row.j[k] + t * chain.dj[k])
                    .collect();
                assert_eq!(it, jw, "{ctx}: tile {tile:?} iteration of {jp:?}");
                let own = lds.index_of(&jp).expect("owned cell allocated") as i64;
                assert_eq!(row.dst + t, own, "{ctx}: owned cell of {jp:?}");
                for dq in 0..q {
                    let gs: Vec<i64> = (0..n).map(|k| jp[k] - comm.d_prime[(k, dq)]).collect();
                    if let Some(cell) = lds.index_of(&gs) {
                        let src = row.src[dq] + t;
                        assert_eq!(src, cell as i64, "{ctx}: source {dq} of {jp:?}");
                    }
                }
            }
        }
        assert!(
            want.next().is_none(),
            "{ctx}: tile {tile:?}: rows miss walk points"
        );
    }

    for row in &chain.rows {
        assert!(row.batch <= CACHE_BLOCK, "{ctx}: batch exceeds cache block");
        assert!(
            row.batch == 0 || row.batch >= MIN_BATCH as usize,
            "{ctx}: batch below the dispatch floor"
        );
        for &s in &row.src {
            let lag = row.dst - s;
            assert!(lag >= 0, "{ctx}: negative dependence lag");
            if lag >= 1 && row.batch > 0 {
                assert!(
                    row.batch as i64 <= lag,
                    "{ctx}: batch {} > lag {lag}",
                    row.batch
                );
            }
        }
    }

    for (dm_idx, dm) in comm.proc_deps.iter().enumerate() {
        let want: Vec<Option<i64>> = lat
            .points_in_box(&comm.region_lo(dm, v), v)
            .map(|jp| Some(lds.index_of(&jp).expect("pack cell allocated") as i64))
            .collect();
        let got = region_cells(&chain.pack[dm_idx], ctx);
        assert_eq!(got, want, "{ctx}: pack region {dm:?}");
    }
    for (ds_idx, ds) in comm.tile_deps.iter().enumerate() {
        let Some(dm_idx) = comm.dm_of_ds[ds_idx] else {
            assert_eq!(
                chain.unpack[ds_idx].points, 0,
                "{ctx}: intra-processor unpack"
            );
            continue;
        };
        let want: Vec<Option<i64>> = lat
            .points_in_box(&comm.region_lo(&comm.proc_deps[dm_idx], v), v)
            .map(|jp| {
                let g: Vec<i64> = (0..n).map(|k| jp[k] - ds[k] * v[k]).collect();
                lds.index_of(&g).map(|c| c as i64)
            })
            .collect();
        dropped += want.iter().filter(|c| c.is_none()).count();
        let got = region_cells(&chain.unpack[ds_idx], ctx);
        assert_eq!(got, want, "{ctx}: unpack region {ds:?}");
    }

    let split = chain.split();
    let mut pieces: Vec<(usize, usize, usize)> = split
        .boundary
        .iter()
        .chain(&split.interior)
        .map(|s| (s.row, s.at, s.len))
        .collect();
    pieces.sort_unstable();
    let mut next = (0usize, 0usize);
    for (row, at, len) in pieces {
        if row != next.0 {
            assert_eq!(
                next.1, chain.rows[next.0].len,
                "{ctx}: split leaves row {} open",
                next.0
            );
            assert_eq!(row, next.0 + 1, "{ctx}: split skips a row");
            next = (row, 0);
        }
        assert!(
            len >= 1 && at == next.1,
            "{ctx}: split pieces of row {row} gap or overlap"
        );
        next.1 = at + len;
    }
    assert_eq!(
        next,
        (chain.rows.len() - 1, chain.rows.last().unwrap().len),
        "{ctx}: split"
    );
    dropped
}

/// The owned-row stream of every valid tile (`read_owned_tile`, the
/// compiled strategies' output), read from an LDS filled with distinct
/// values, must equal the per-point `tile_iterations` walk of that LDS
/// (the reference strategy's output) bitwise and in the same order, and
/// its row-clamped gather must equal the walk's, values and written
/// flags, reading exactly the values the tile owns. Returns the number of
/// boundary tiles.
fn check_gather(plan: &ParallelPlan, ctx: &str) -> usize {
    let w = plan.algorithm.width();
    let (lo, hi) = plan.algorithm.nest.bounding_box();
    let mut boundary = 0usize;
    let (chain, mut lds) = (plan.chain(), plan.lds());
    for (i, x) in lds.values_mut().iter_mut().enumerate() {
        *x = 1.0 + i as f64 / 7.0;
    }
    let mut vals = vec![0.0f64; w];
    for tile in plan.tiled.tiles() {
        let interior = plan.tiled.tile_is_interior(&tile);
        boundary += usize::from(!interior);
        let mut want = DataSpace::with_width(&lo, &hi, w);
        let mut walked = Vec::new();
        for (jp, j) in plan.tiled.tile_iterations(&tile) {
            lds.get_into(&jp, &mut vals);
            want.set_all(&j, &vals);
            walked.extend_from_slice(&vals);
        }
        let origin = plan.tiled.tile_origin(&tile);
        let clamp = (!interior).then(|| plan.clamp.at(&origin));
        let mut owned = Vec::new();
        read_owned_tile(chain, &lds, clamp.as_ref(), &mut owned);
        assert!(
            walked
                .iter()
                .map(|x| x.to_bits())
                .eq(owned.iter().map(|x| x.to_bits())),
            "{ctx}: tile {tile:?}: the owned-row stream differs from the walk"
        );
        let mut got = DataSpace::with_width(&lo, &hi, w);
        let read = gather_tile(chain, &owned, &origin, clamp.as_ref(), &mut got);
        assert_eq!(read * w, owned.len(), "{ctx}: tile {tile:?}");
        assert_eq!(
            want.diff(&got),
            None,
            "{ctx}: tile {tile:?}: clamped gather differs from the walk"
        );
        assert_eq!(
            want.num_written(),
            got.num_written(),
            "{ctx}: tile {tile:?}"
        );
    }
    boundary
}

/// The skewed wavefront kernel's halo is shallower than its unpack
/// regions along the innermost dimension, so unpack rows are cut inside a
/// row, not only dropped whole: in 2-D with `m = 0` every dropped position
/// comes from that cut.
#[test]
fn unpack_rows_clip_along_the_innermost_dimension() {
    let src = include_str!("../../../examples/kernels/wavefront_skew.tk");
    for rect in [[2, 2], [3, 2]] {
        let plan = ParallelPlan::new(
            compile_kernel_with(src, &[]).unwrap(),
            TilingTransform::rectangular(&rect).unwrap(),
            Some(0),
        )
        .unwrap();
        let ctx = format!("wavefront {rect:?}");
        assert!(check_plan(&plan, &ctx) > 0, "{ctx}: no unpack row was cut");
        check_gather(&plan, &ctx);
    }
}

/// Every table of the six paper workloads reconstructs its oracle lists.
#[test]
fn paper_workload_runs_reconstruct_their_lists() {
    let nr = RMat::from_fractions(&[
        &[(1, 2), (0, 1), (0, 1)],
        &[(0, 1), (1, 3), (0, 1)],
        &[(-1, 4), (0, 1), (1, 4)],
    ]);
    let plans = vec![
        (
            "sor_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 10), ("N", 14)]).unwrap(),
                TilingTransform::rectangular(&[2, 3, 4]).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "sor_nr",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 10), ("N", 14)]).unwrap(),
                TilingTransform::new(nr).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "jacobi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::JACOBI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
        (
            "adi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
                Some(0),
            )
            .unwrap(),
        ),
        (
            "adi_paper",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI_PAPER, &[("T", 8), ("N", 15)]).unwrap(),
                TilingTransform::rectangular(&[3, 5, 5]).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
    ];
    let mut batched_rows = 0usize;
    for (name, plan) in &plans {
        check_plan(plan, name);
        assert!(check_gather(plan, name) > 0, "{name}: no boundary tile");
        let chain = plan.chain();
        batched_rows += chain.rows.iter().filter(|r| r.batch > 0).count();
    }
    assert!(
        batched_rows > 0,
        "no paper workload produced a batched compute row"
    );
}

/// Random convex cut spaces, random uniform dependences, random
/// rectangular and tiling-cone tilings: the row tables of every surviving
/// plan reconstruct their oracle lists, halo cells outside the allocation
/// included.
#[test]
fn random_tilings_and_cut_spaces_reconstruct_their_lists() {
    let seed = 0x5EED_0007u64;
    let mut g = G(seed);
    let mut valid = 0usize;
    let mut cone_cases = 0usize;
    let mut cut_cases = 0usize;
    let mut dropped_positions = 0usize;
    let mut boundary_tiles = 0usize;
    for case in 0..120 {
        let n = 3usize;
        let ext: Vec<i64> = (0..n).map(|_| g.range(4, 9)).collect();
        let lo = vec![1i64; n];
        let mut space = Polyhedron::from_box(&lo, &ext);
        let ncuts = g.range(0, 2);
        let mut cut = false;
        for _ in 0..ncuts {
            let coeffs: Vec<i64> = (0..n).map(|_| g.range(-1, 1)).collect();
            if coeffs.iter().all(|&c| c == 0) {
                continue;
            }
            let slack = g.range(0, 8);
            let mid: i64 = coeffs
                .iter()
                .zip(&ext)
                .map(|(&c, &e)| c * ((1 + e) / 2))
                .sum();
            space.add(Constraint::new(coeffs, -mid + slack));
            cut = true;
        }
        let q = g.range(2, 4) as usize;
        let mut deps = IMat::zeros(n, q);
        for dq in 0..q {
            loop {
                let c: Vec<i64> = (0..n).map(|_| g.range(0, 2)).collect();
                if tilecc_linalg::vecops::is_lex_positive(&c) {
                    for k in 0..n {
                        deps[(k, dq)] = c[k];
                    }
                    break;
                }
            }
        }
        let factors: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
        let use_cone = g.next().is_multiple_of(2);
        let m = (g.next() % n as u64) as usize;
        let h = if use_cone {
            let rays = tiling_cone_rays(&deps).unwrap();
            if rays.len() < n {
                continue;
            }
            let mut chosen: Vec<Vec<i64>> = vec![];
            for ray in &rays {
                let mut cand = chosen.clone();
                cand.push(ray.clone());
                let ok = cand.len() < n || {
                    let mut sq = IMat::zeros(n, n);
                    for (i, r) in cand.iter().enumerate() {
                        for k in 0..n {
                            sq[(i, k)] = r[k];
                        }
                    }
                    sq.det() != 0
                };
                if ok {
                    chosen = cand;
                }
                if chosen.len() == n {
                    break;
                }
            }
            if chosen.len() < n {
                continue;
            }
            RMat::from_fn(n, n, |i, j| {
                Rational::new(chosen[i][j] as i128, factors[i] as i128)
            })
        } else {
            RMat::from_fn(n, n, |i, j| {
                if i == j {
                    Rational::new(1, factors[i] as i128)
                } else {
                    Rational::ZERO
                }
            })
        };
        let Ok(t) = TilingTransform::new(h) else {
            continue;
        };
        if t.validate_for(&deps).is_err() {
            continue;
        }
        let alg = Algorithm::new("p", LoopNest::new(space, deps), Arc::new(K));
        let Ok(plan) = ParallelPlan::new(alg, t, Some(m)) else {
            continue;
        };
        valid += 1;
        if use_cone {
            cone_cases += 1;
        }
        if cut {
            cut_cases += 1;
        }
        let ctx = format!("seed {seed:#x} case {case}");
        dropped_positions += check_plan(&plan, &ctx);
        boundary_tiles += check_gather(&plan, &ctx);
    }
    assert!(valid >= 10, "only {valid} valid sampled plans");
    assert!(cone_cases >= 3, "only {cone_cases} tiling-cone plans");
    assert!(cut_cases >= 3, "only {cut_cases} cut-space plans");
    assert!(
        dropped_positions > 0,
        "corpus never produced an unpack position outside the allocation"
    );
    assert!(
        boundary_tiles >= 50,
        "corpus produced only {boundary_tiles} boundary tiles"
    );
}
