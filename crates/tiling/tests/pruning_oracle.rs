//! Seeded property suite for plan-time tile pruning: the rational
//! feasibility test in `TiledSpace::new` (with its lattice-walk fallback)
//! must agree with a brute-force lattice-walk oracle on every candidate
//! tile — the same `nonempty` set and a bitwise-identical `tiles_pruned`
//! count — across random cut spaces under random rectangular and
//! tiling-cone tilings.
//!
//! The oracle enumerates every candidate the convex shadow admits and
//! walks the full TTIS lattice box for each, which is exactly what
//! `TiledSpace::new` did before the rational test; any divergence means
//! the relaxation pruned a tile that still contained an integer point.

use std::collections::BTreeSet;
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{tiling_cone_rays, TiledSpace, TilingTransform};

/// xorshift64* — the same deterministic generator the fuzzer uses.
struct G(u64);
impl G {
    fn next(&mut self) -> u64 {
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

/// Brute-force oracle: lattice-walk every candidate tile of the shadow.
/// Returns the non-empty tile set and the pruned-candidate count.
fn lattice_walk_oracle(tiled: &TiledSpace) -> (BTreeSet<Vec<i64>>, usize) {
    let t = tiled.transform();
    let lo = vec![0i64; tiled.dim()];
    let mut nonempty = BTreeSet::new();
    let mut candidates = 0usize;
    for tile in tiled.tile_bounds().points() {
        candidates += 1;
        if t.lattice()
            .points_in_box(&lo, t.v())
            .any(|jp| tiled.space().contains(&t.iteration_fast(&tile, &jp)))
        {
            nonempty.insert(tile);
        }
    }
    let pruned = candidates - nonempty.len();
    (nonempty, pruned)
}

fn check_against_oracle(tiled: &TiledSpace, what: &str) -> usize {
    let (want_set, want_pruned) = lattice_walk_oracle(tiled);
    let got_set: BTreeSet<Vec<i64>> = tiled.tiles().collect();
    assert_eq!(got_set, want_set, "{what}: nonempty tile set diverges");
    assert_eq!(
        tiled.tiles_pruned(),
        want_pruned,
        "{what}: tiles_pruned diverges from the lattice-walk oracle"
    );
    want_pruned
}

/// A random box with up to two random half-space cuts through its middle.
fn random_cut_space(g: &mut G, n: usize) -> Polyhedron {
    let ext: Vec<i64> = (0..n).map(|_| g.range(4, 9)).collect();
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
        space.add(Constraint::new(coeffs, -mid + g.range(0, 6)));
    }
    space
}

/// Random lex-positive uniform dependence columns.
fn random_deps(g: &mut G, n: usize) -> IMat {
    let q = g.range(2, 4) as usize;
    let mut deps = IMat::zeros(n, q);
    for qq in 0..q {
        loop {
            let c: Vec<i64> = (0..n).map(|_| g.range(0, 2)).collect();
            if tilecc_linalg::vecops::is_lex_positive(&c) {
                for k in 0..n {
                    deps[(k, qq)] = c[k];
                }
                break;
            }
        }
    }
    deps
}

/// A random tiling: rectangular, or rows greedily drawn from the tiling
/// cone of `deps` (mirroring the fuzzer's generator). `None` when the cone
/// cannot supply `n` independent rays.
fn random_tiling(g: &mut G, n: usize, deps: &IMat) -> Option<RMat> {
    let factors: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
    if g.next().is_multiple_of(2) {
        return Some(RMat::from_fn(n, n, |i, j| {
            if i == j {
                Rational::new(1, i128::from(factors[i]))
            } else {
                Rational::ZERO
            }
        }));
    }
    let rays = tiling_cone_rays(deps).unwrap();
    let mut chosen: Vec<Vec<i64>> = vec![];
    for ray in &rays {
        let mut cand = chosen.clone();
        cand.push(ray.clone());
        let independent = cand.len() < n || {
            let mut sq = IMat::zeros(n, n);
            for (i, r) in cand.iter().enumerate() {
                for k in 0..n {
                    sq[(i, k)] = r[k];
                }
            }
            sq.det() != 0
        };
        if independent {
            chosen = cand;
        }
        if chosen.len() == n {
            break;
        }
    }
    if chosen.len() < n {
        return None;
    }
    Some(RMat::from_fn(n, n, |i, j| {
        Rational::new(i128::from(chosen[i][j]), i128::from(factors[i]))
    }))
}

#[test]
fn pruning_matches_lattice_walk_oracle_on_random_corpus() {
    let mut g = G(0xA11CE | 1);
    let n = 3usize;
    let mut checked = 0usize;
    let mut pruned_total = 0usize;
    let mut walks_total = 0usize;
    for case in 0..70 {
        let space = random_cut_space(&mut g, n);
        let deps = random_deps(&mut g, n);
        let Some(h) = random_tiling(&mut g, n, &deps) else {
            continue;
        };
        let Ok(t) = TilingTransform::new(h) else {
            continue;
        };
        let Ok(tiled) = TiledSpace::new(t, space) else {
            continue;
        };
        pruned_total += check_against_oracle(&tiled, &format!("case {case}"));
        walks_total += tiled.feasibility_walks();
        checked += 1;
    }
    assert!(
        checked >= 30,
        "corpus too small: only {checked} cases built"
    );
    // The corpus must actually exercise the fallback path — if no case
    // ever walked the lattice, the rational test decided everything and
    // the agreement above proves less than it claims.
    assert!(
        walks_total > 0 || pruned_total == 0,
        "no case took the lattice-walk fallback"
    );
}

#[test]
fn pruning_matches_oracle_where_the_shadow_overapproximates() {
    // Deterministic known-pruning case (from the tile_space unit tests):
    // a cut 2-D space under a non-rectangular tiling whose FM shadow
    // admits one empty candidate tile.
    let mut p = Polyhedron::universe(2);
    p.add(Constraint::new(vec![1, 0], 0));
    p.add(Constraint::new(vec![-1, 0], 7));
    p.add(Constraint::new(vec![0, 1], 0));
    p.add(Constraint::new(vec![0, -1], 4));
    p.add(Constraint::new(vec![-3, 2], 5));
    let h = RMat::from_fractions(&[&[(1, 4), (0, 1)], &[(1, 4), (1, 2)]]);
    let tiled = TiledSpace::new(TilingTransform::new(h).unwrap(), p).unwrap();
    let pruned = check_against_oracle(&tiled, "overapproximating shadow");
    assert_eq!(pruned, 1, "this shadow admits exactly one empty candidate");
}

#[test]
fn walk_accounting_is_consistent_with_the_rational_gate() {
    // The rational gate and the walk partition the non-interior
    // candidates: every candidate is either interior (skipped), rationally
    // empty (pruned without a walk), or walked. With the exact nested-FM
    // candidate enumeration every enumerated tile is already rationally
    // feasible — Fourier–Motzkin projection is rationally exact, so the
    // nested bounds only admit tiles the rational shadow contains — and
    // the gate's prunes can only appear under an over-approximating
    // enumeration. The accounting identity must hold either way.
    let space = Polyhedron::from_box(&[1, 1, 1], &[10, 10, 10]);
    let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
    let tiled = TiledSpace::new(t, space).unwrap();
    check_against_oracle(&tiled, "plain box");
    let candidates = tiled.tile_bounds().points().count();
    let interior = tiled
        .tile_bounds()
        .points()
        .filter(|t| tiled.tile_is_interior(t))
        .count();
    let rationally_pruned = candidates - interior - tiled.feasibility_walks();
    assert_eq!(candidates, 27);
    assert_eq!(interior, 1);
    assert_eq!(
        rationally_pruned, 0,
        "exact enumeration admits no rationally empty tile"
    );
    assert_eq!(tiled.tiles_pruned(), 0, "every box candidate holds a point");
}
