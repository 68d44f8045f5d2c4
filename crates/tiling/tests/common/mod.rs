//! Seeded generators shared by the tiling oracle suites: random cut
//! spaces, random uniform dependences and random rectangular or
//! tiling-cone tilings, mirroring the fuzzer's generators.

use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::tiling_cone_rays;

/// xorshift64* — the same deterministic generator the fuzzer uses.
pub struct G(pub u64);
impl G {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

/// A random box with up to two random half-space cuts through its middle.
pub fn random_cut_space(g: &mut G, n: usize) -> Polyhedron {
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

/// Random lex-positive uniform dependence columns with entries in
/// `[lo, hi]`.
pub fn random_deps(g: &mut G, n: usize, lo: i64, hi: i64) -> IMat {
    let q = g.range(2, 4) as usize;
    let mut deps = IMat::zeros(n, q);
    for qq in 0..q {
        loop {
            let c: Vec<i64> = (0..n).map(|_| g.range(lo, hi)).collect();
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
///
/// Only 2-D and 3-D nests draw from the cone. A 1-D nest has no tiling
/// cone, and on 4-D cone tilings the Fourier–Motzkin shadow projection in
/// `TiledSpace::new` grows past what a test can wait for, so those nests
/// always tile rectangularly.
pub fn random_tiling(g: &mut G, n: usize, deps: &IMat) -> Option<RMat> {
    let factors: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
    if !(2..=3).contains(&n) || g.next().is_multiple_of(2) {
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
