//! Run-descriptor soundness: the plan-time affine runs of a
//! [`CompiledChain`] — pack, unpack, gather, and compute — must exactly
//! reconstruct the per-index lists they were factored from, cover every
//! non-SKIP position exactly once, and never claim a batch width the
//! dependence lags don't permit. Checked on the paper's six workloads and
//! on a seeded corpus of random convex (cut) spaces under random
//! rectangular and tiling-cone non-rectangular tilings — the same
//! generator family as the fuzz harness, so failures reproduce from the
//! seed in the assertion message.

use std::sync::Arc;
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, DataSpace, Kernel, LoopNest};
use tilecc_parcode::compiled::{
    coalesce_runs, gather_tile, tile_origin, CompiledChain, ComputeRun, IndexRun, CACHE_BLOCK,
    MIN_BATCH, SKIP,
};
use tilecc_parcode::ParallelPlan;
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{insert_at, tiling_cone_rays, Lds, TilingTransform};

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

/// Index runs must be in position order, cover every non-[`SKIP`] position
/// exactly once, never cover a SKIP, and reconstruct the covered cells as
/// `list[at] + t·step`. Returns the number of SKIP positions seen.
fn check_index_runs(list: &[i64], runs: &[IndexRun], ctx: &str) -> usize {
    let mut covered = vec![false; list.len()];
    let mut last_end = 0usize;
    for r in runs {
        let (at, len) = (r.at as usize, r.len as usize);
        assert!(len >= 1, "{ctx}: empty run");
        assert!(at >= last_end, "{ctx}: runs overlap or out of order");
        last_end = at + len;
        assert!(last_end <= list.len(), "{ctx}: run past end of list");
        for t in 0..len {
            assert_ne!(list[at + t], SKIP, "{ctx}: run covers a SKIP position");
            assert_eq!(
                list[at + t],
                list[at] + t as i64 * r.step,
                "{ctx}: cell reconstruction at position {}",
                at + t
            );
            covered[at + t] = true;
        }
    }
    let mut skips = 0usize;
    for (i, &c) in covered.iter().enumerate() {
        if list[i] == SKIP {
            skips += 1;
        } else {
            assert!(c, "{ctx}: non-SKIP position {i} left uncovered");
        }
    }
    skips
}

/// Compute runs must tile the walk-index sequence exactly (in order), hold
/// their affine invariants point-to-point, and bound `batch` by every
/// positive dependence lag and by [`CACHE_BLOCK`].
fn check_compute_runs(indices: &[u32], runs: &[ComputeRun], chain: &CompiledChain, ctx: &str) {
    let (n, q) = (chain.n, chain.q);
    let flat: Vec<u32> = runs
        .iter()
        .flat_map(|r| (0..r.len).map(move |t| r.i0 + t))
        .collect();
    assert_eq!(flat, indices, "{ctx}: runs do not tile the walk sequence");
    for r in runs {
        let i0 = r.i0 as usize;
        assert_eq!(r.dj.len(), n, "{ctx}: dj dimension");
        for t in 1..r.len as usize {
            let (a, b) = (i0 + t - 1, i0 + t);
            assert_eq!(chain.dst[b], chain.dst[a] + 1, "{ctx}: dst not unit-stride");
            for dq in 0..q {
                assert_eq!(
                    chain.src_rel[b * q + dq],
                    chain.src_rel[a * q + dq] + 1,
                    "{ctx}: src_rel[{dq}] not unit-stride"
                );
            }
            for k in 0..n {
                assert_eq!(
                    chain.j_off[b * n + k] - chain.j_off[a * n + k],
                    r.dj[k],
                    "{ctx}: j_off does not advance by dj"
                );
            }
        }
        assert!(
            r.batch as usize <= CACHE_BLOCK,
            "{ctx}: batch exceeds cache block"
        );
        assert!(
            r.batch == 0 || r.batch >= MIN_BATCH,
            "{ctx}: batch below the dispatch floor"
        );
        for dq in 0..q {
            let lag = chain.dst[i0] - chain.src_rel[i0 * q + dq];
            assert!(lag >= 0, "{ctx}: negative dependence lag");
            if lag >= 1 && r.batch > 0 {
                assert!(
                    i64::from(r.batch) <= lag,
                    "{ctx}: batch {} exceeds lag {lag} of dependence {dq}",
                    r.batch
                );
            }
        }
    }
}

/// Every run family of every distinct chain of `plan` reconstructs its
/// source lists. Returns the number of SKIP positions seen in unpack lists.
fn check_plan(plan: &ParallelPlan, ctx: &str) -> usize {
    let mut skips = 0usize;
    let mut lens = std::collections::BTreeSet::new();
    for &(lo_t, hi_t) in &plan.dist.chains {
        lens.insert(hi_t - lo_t + 1);
    }
    for len in lens {
        let chain = plan.compiled_for(len);
        for (dm, list) in chain.pack_rel.iter().enumerate() {
            let s = check_index_runs(list, &chain.pack_runs[dm], &format!("{ctx} pack[{dm}]"));
            assert_eq!(s, 0, "{ctx}: pack list contains SKIP");
        }
        for (ds, list) in chain.unpack_rel.iter().enumerate() {
            skips += check_index_runs(list, &chain.unpack_runs[ds], &format!("{ctx} unpack[{ds}]"));
        }
        // The gather's joint runs are index runs over both lists at once:
        // walk positions split whenever either list breaks stride.
        let walk: Vec<u32> = (0..chain.tile_points as u32).collect();
        let mut gat = 0usize;
        for r in &chain.gather_runs {
            let (at, len) = (r.at as usize, r.len as usize);
            assert_eq!(at, gat, "{ctx}: gather runs leave a gap");
            gat = at + len;
            // The clamped gather relies on each run being a line in
            // iteration space: `j_off` advances by one constant vector.
            let n = chain.n;
            let dj: Vec<i64> = (0..n)
                .map(|k| {
                    if len > 1 {
                        chain.j_off[(at + 1) * n + k] - chain.j_off[at * n + k]
                    } else {
                        0
                    }
                })
                .collect();
            for t in 0..len {
                assert_eq!(
                    chain.dst[at + t],
                    chain.dst[at] + t as i64 * r.src_step,
                    "{ctx}: gather source reconstruction"
                );
                assert_eq!(
                    chain.gather_rel[at + t],
                    chain.gather_rel[at] + t as i64 * r.dst_step,
                    "{ctx}: gather target reconstruction"
                );
                for (k, &d) in dj.iter().enumerate() {
                    assert_eq!(
                        chain.j_off[(at + t) * n + k],
                        chain.j_off[at * n + k] + t as i64 * d,
                        "{ctx}: gather run not affine in j_off"
                    );
                }
            }
        }
        assert_eq!(gat, chain.tile_points, "{ctx}: gather runs incomplete");
        check_compute_runs(&walk, &chain.compute_runs, chain, &format!("{ctx} walk"));
        let split = chain.split();
        check_compute_runs(
            &split.boundary_order,
            &split.boundary_runs,
            chain,
            &format!("{ctx} boundary"),
        );
        check_compute_runs(
            &split.interior_order,
            &split.interior_runs,
            chain,
            &format!("{ctx} interior"),
        );
    }
    skips
}

/// The run-clamped gather of every valid tile must equal the per-point
/// `tile_iterations` walk bitwise, values and written flags, from an LDS
/// filled with distinct values. Returns the number of boundary tiles.
fn check_gather(plan: &ParallelPlan, ctx: &str) -> usize {
    let w = plan.algorithm.width();
    let (lo, hi) = plan.algorithm.nest.bounding_box();
    let t = plan.tiled.transform();
    let mut boundary = 0usize;
    for rank in 0..plan.num_procs() {
        let (lo_t, hi_t) = plan.dist.chains[rank];
        let chain = plan.compiled_for(hi_t - lo_t + 1);
        let mut lds = Lds::with_width(plan.geo.clone(), plan.anchor(rank), hi_t - lo_t + 1, w);
        for (i, x) in lds.values_mut().iter_mut().enumerate() {
            *x = 1.0 + i as f64 / 7.0;
        }
        let mut vals = vec![0.0f64; w];
        for t_abs in lo_t..=hi_t {
            let tile = insert_at(&plan.dist.pids[rank], plan.m(), t_abs);
            if !plan.tiled.tile_valid(&tile) {
                continue;
            }
            let tpos = t_abs - lo_t;
            let interior = plan.tiled.tile_is_interior(&tile);
            boundary += usize::from(!interior);
            let mut want = DataSpace::with_width(&lo, &hi, w);
            for (jp, j) in plan.tiled.tile_iterations(&tile) {
                lds.get_into(&lds.unrolled(tpos, &jp), &mut vals);
                want.set_all(&j, &vals);
            }
            let origin = tile_origin(t, &tile);
            let clamp = (!interior).then(|| plan.tiled.space());
            let mut got = DataSpace::with_width(&lo, &hi, w);
            gather_tile(chain, &lds, tpos, &origin, clamp, &mut got);
            assert_eq!(
                want.diff(&got),
                None,
                "{ctx}: rank {rank} tile {tile:?}: clamped gather differs from the walk"
            );
            assert_eq!(
                want.num_written(),
                got.num_written(),
                "{ctx}: tile {tile:?}"
            );
        }
    }
    boundary
}

/// [`coalesce_runs`] on random lists seeded with genuine affine stretches
/// and SKIP sentinels: reconstruction, coverage, and SKIP splitting.
#[test]
fn coalesce_reconstructs_random_lists_with_skips() {
    let mut g = G(0xC0A1_E5CE);
    let mut saw_skip_split = 0usize;
    for case in 0..500 {
        let mut list: Vec<i64> = Vec::new();
        for _ in 0..g.range(1, 8) {
            match g.range(0, 3) {
                0 => list.push(SKIP),
                1 => list.push(g.range(-50, 50)),
                _ => {
                    // An affine stretch — the thing worth coalescing.
                    let start = g.range(-50, 50);
                    let step = g.range(-3, 3);
                    for t in 0..g.range(2, 12) {
                        list.push(start + t * step);
                    }
                }
            }
        }
        let runs = coalesce_runs(&list);
        let skips = check_index_runs(&list, &runs, &format!("case {case}"));
        if skips > 0 && runs.len() > 1 {
            saw_skip_split += 1;
        }
    }
    assert!(
        saw_skip_split >= 50,
        "corpus never exercised SKIP-split runs ({saw_skip_split})"
    );
}

/// Every run family of the six paper workloads reconstructs its lists.
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
    let mut batched_runs = 0usize;
    for (name, plan) in &plans {
        check_plan(plan, name);
        assert!(check_gather(plan, name) > 0, "{name}: no boundary tile");
        let (lo_t, hi_t) = plan.dist.chains[0];
        let chain = plan.compiled_for(hi_t - lo_t + 1);
        batched_runs += chain.compute_runs.iter().filter(|r| r.batch > 0).count();
    }
    assert!(
        batched_runs > 0,
        "no paper workload produced a batched compute run"
    );
}

/// Random convex cut spaces, random uniform dependences, random
/// rectangular and tiling-cone tilings: the run descriptors of every
/// surviving plan reconstruct their per-index lists, SKIP splits included.
#[test]
fn random_tilings_and_cut_spaces_reconstruct_their_lists() {
    let seed = 0x5EED_0007u64;
    let mut g = G(seed);
    let mut valid = 0usize;
    let mut cone_cases = 0usize;
    let mut cut_cases = 0usize;
    let mut skip_positions = 0usize;
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
        skip_positions += check_plan(&plan, &ctx);
        boundary_tiles += check_gather(&plan, &ctx);
    }
    assert!(valid >= 10, "only {valid} valid sampled plans");
    assert!(cone_cases >= 3, "only {cone_cases} tiling-cone plans");
    assert!(cut_cases >= 3, "only {cut_cases} cut-space plans");
    assert!(
        skip_positions > 0,
        "corpus never produced a SKIP unpack position"
    );
    assert!(
        boundary_tiles >= 50,
        "corpus produced only {boundary_tiles} boundary tiles"
    );
}
