//! Property tests (seeded xorshift) for the interior-tile machinery behind
//! the compiled execution path — DESIGN.md §5's `clamp_ablation` as a test:
//!
//! - `count_tile` (one line clip per compute run) agrees with a full
//!   membership-tested traversal on every tile, interior or boundary;
//! - interior tiles enumerate exactly the full TTIS point set, in strided
//!   walk order (the dense fast path and the clamped path visit identical
//!   point sets);
//! - compute-interior tiles have every dependence source inside the space,
//!   so the dense loop's LDS-only reads are justified.

use std::sync::Arc;
use tilecc_linalg::{vecops::is_lex_positive, IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_parcode::compiled::count_tile;
use tilecc_parcode::ParallelPlan;
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{tiling_cone_rays, TiledSpace, TilingTransform};

/// A kernel for plans whose data is never computed.
struct Unused;
impl Kernel for Unused {
    fn width(&self) -> usize {
        1
    }
    fn compute(&self, _: &[i64], _: &[f64], _: &mut [f64]) {}
    fn initial(&self, _: &[i64], _: &mut [f64]) {}
}

struct G(u64);
impl G {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

/// Random convex space, uniform non-negative-ish deps, and a legal tiling —
/// the same distribution the end-to-end fuzzer draws from.
fn random_case(g: &mut G) -> Option<(Polyhedron, IMat, TilingTransform)> {
    let n = 3usize;
    let ext: Vec<i64> = (0..n).map(|_| g.range(6, 14)).collect();
    let lo = vec![1i64; n];
    let mut space = Polyhedron::from_box(&lo, &ext);
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
        space.add(Constraint::new(coeffs, -mid + g.range(0, 10)));
    }
    let q = g.range(2, 4) as usize;
    let mut deps = IMat::zeros(n, q);
    for qq in 0..q {
        loop {
            let c: Vec<i64> = (0..n).map(|_| g.range(0, 2)).collect();
            if is_lex_positive(&c) {
                for k in 0..n {
                    deps[(k, qq)] = c[k];
                }
                break;
            }
        }
    }
    let factors: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
    let h = if g.next().is_multiple_of(2) {
        let rays = tiling_cone_rays(&deps).unwrap();
        if rays.len() < n {
            return None;
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
            return None;
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
    let t = TilingTransform::new(h).ok()?;
    t.validate_for(&deps).ok()?;
    Some((space, deps, t))
}

#[test]
fn volume_fast_matches_membership_tested_count() {
    let mut g = G(0xC0FFEE | 1);
    let mut cases = 0;
    let mut boundary_tiles = 0usize;
    while cases < 40 {
        let Some((space, deps, t)) = random_case(&mut g) else {
            continue;
        };
        cases += 1;
        let alg = Algorithm::new("p", LoopNest::new(space, deps), Arc::new(Unused));
        let plan = ParallelPlan::new(alg, t, None).unwrap();
        let chain = plan.chain();
        for tile in plan.tiled.tiles() {
            let exact = plan.tiled.tile_iterations(&tile).count() as u64;
            let origin = plan.tiled.tile_origin(&tile);
            let runs = &chain.walk;
            assert_eq!(
                count_tile(chain, Some(&plan.clamp.at(&origin)), runs),
                exact,
                "count_tile mismatch at tile {tile:?}"
            );
            if plan.tiled.tile_is_interior(&tile) {
                assert_eq!(count_tile(chain, None, runs), exact);
            } else if exact > 0 {
                boundary_tiles += 1;
            }
        }
    }
    assert!(
        boundary_tiles > 50,
        "property must actually exercise boundary tiles (got {boundary_tiles})"
    );
}

#[test]
fn interior_tiles_enumerate_the_full_ttis_in_order() {
    let mut g = G(0xBADC0DE | 1);
    let mut cases = 0;
    let mut interior_seen = 0usize;
    while cases < 40 {
        let Some((space, _deps, t)) = random_case(&mut g) else {
            continue;
        };
        cases += 1;
        let tiled = TiledSpace::new(t.clone(), space.clone()).unwrap();
        let full: Vec<Vec<i64>> = t.ttis_points().collect();
        for tile in tiled.tiles().collect::<Vec<_>>() {
            if !tiled.tile_is_interior(&tile) {
                continue;
            }
            interior_seen += 1;
            // The dense fast path walks the full TTIS; the clamped path
            // filters by membership. For interior tiles they must agree
            // point for point, in the same strided order.
            let clamped: Vec<(Vec<i64>, Vec<i64>)> = tiled.tile_iterations(&tile).collect();
            assert_eq!(clamped.len(), full.len(), "interior tile {tile:?} clipped");
            for (i, (jp, j)) in clamped.iter().enumerate() {
                assert_eq!(jp, &full[i], "TTIS order diverged at {i}");
                assert!(space.contains(j), "interior point left the space");
            }
        }
    }
    assert!(
        interior_seen > 20,
        "property must actually exercise interior tiles (got {interior_seen})"
    );
}

#[test]
fn compute_interior_tiles_keep_all_sources_in_space() {
    let mut g = G(0xFEED5EED | 1);
    let mut cases = 0;
    let mut compute_interior = 0usize;
    let mut interior_only = 0usize;
    while cases < 40 {
        let Some((space, deps, t)) = random_case(&mut g) else {
            continue;
        };
        cases += 1;
        let tiled = TiledSpace::new(t, space.clone()).unwrap();
        let n = tiled.dim();
        for tile in tiled.tiles().collect::<Vec<_>>() {
            let ci = tiled.tile_is_compute_interior(&tile, &deps);
            if tiled.tile_is_interior(&tile) && !ci {
                interior_only += 1;
            }
            if !ci {
                continue;
            }
            compute_interior += 1;
            for (_jp, j) in tiled.tile_iterations(&tile) {
                for q in 0..deps.cols() {
                    let src: Vec<i64> = (0..n).map(|k| j[k] - deps[(k, q)]).collect();
                    assert!(
                        space.contains(&src),
                        "compute-interior tile {tile:?} reads out-of-space source {src:?}"
                    );
                }
            }
        }
    }
    assert!(
        compute_interior > 20,
        "property must exercise compute-interior tiles (got {compute_interior})"
    );
    // The two notions must genuinely differ somewhere, or the stronger
    // check is vacuous.
    assert!(
        interior_only > 0,
        "expected tiles that are interior but not compute-interior"
    );
}
