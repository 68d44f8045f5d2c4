//! Property-based end-to-end testing: random convex iteration spaces,
//! random dependence sets, and random legal tilings (rows scaled from the
//! computed tiling cone) must all yield parallel executions that match the
//! sequential reference bitwise.
//!
//! Cases are generated with a seeded xorshift generator, so every run
//! exercises the same inputs — a failure message's `case` index is enough to
//! reproduce it exactly.

use std::sync::Arc;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_parcode::{
    execute, execute_tiled_sequential, Backend, ExecMode, ExecStrategy, ParallelPlan,
};
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{tiling_cone_rays, TilingTransform};

/// xorshift64* — deterministic case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `lo..=hi`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Generic stencil whose coefficients depend on the dependence count.
struct GenericStencil {
    weights: Vec<f64>,
}

impl Kernel for GenericStencil {
    fn width(&self) -> usize {
        1
    }
    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        let mut acc = 0.125 * (j[0] % 5) as f64;
        for (w, r) in self.weights.iter().zip(reads) {
            acc += w * r;
        }
        out[0] = acc;
    }
    fn initial(&self, j: &[i64], out: &mut [f64]) {
        let mut h: i64 = 23;
        for &v in j {
            h = h.wrapping_mul(37).wrapping_add(v);
        }
        out[0] = (h.rem_euclid(997)) as f64 / 997.0;
    }
}

/// Random dependence matrix with lexicographically positive, small columns
/// (first entry ≥ 0 keeps a tiling cone non-degenerate).
fn random_deps(rng: &mut Rng, n: usize) -> IMat {
    let q = rng.int(2, 4) as usize;
    let mut cols: Vec<Vec<i64>> = Vec::with_capacity(q);
    while cols.len() < q {
        let c: Vec<i64> = (0..n).map(|_| rng.int(0, 2)).collect();
        if tilecc_linalg::vecops::is_lex_positive(&c) {
            cols.push(c);
        }
    }
    let mut m = IMat::zeros(n, q);
    for (qi, c) in cols.iter().enumerate() {
        for k in 0..n {
            m[(k, qi)] = c[k];
        }
    }
    m
}

/// A random bounded convex space: a box plus up to two extra half-spaces
/// guaranteed to keep a witness region non-empty.
fn random_space(rng: &mut Rng, n: usize) -> Polyhedron {
    let ext: Vec<i64> = (0..n).map(|_| rng.int(5, 12)).collect();
    let lo = vec![1i64; n];
    let mut p = Polyhedron::from_box(&lo, &ext);
    for _ in 0..rng.int(0, 2) {
        let coeffs: Vec<i64> = (0..n).map(|_| rng.int(-1, 1)).collect();
        let slack = rng.int(0, 10);
        if coeffs.iter().all(|&c| c == 0) {
            continue;
        }
        // a·x + b >= 0 with b chosen so the box midpoint satisfies it.
        let mid_val: i64 = coeffs
            .iter()
            .zip(&ext)
            .map(|(&c, &e)| c * ((1 + e) / 2))
            .sum();
        p.add(Constraint::new(coeffs, -mid_val + slack));
    }
    p
}

/// Build a legal tiling for `deps`: pick rows from the tiling cone (extreme
/// rays, falling back to the all-positive combination) scaled by random
/// factors; reject if singular or with non-integral sides.
fn tiling_for(deps: &IMat, factors: &[i64], use_cone: bool) -> Option<TilingTransform> {
    let n = deps.rows();
    let h = if use_cone {
        let rays = tiling_cone_rays(deps).unwrap();
        if rays.len() < n {
            return None;
        }
        // Pick n rays forming a non-singular matrix.
        let mut chosen: Vec<Vec<i64>> = Vec::new();
        for ray in &rays {
            let mut candidate = chosen.clone();
            candidate.push(ray.clone());
            let rank_ok = {
                // Full row rank test via determinant of a square completion.
                candidate.len() < n || {
                    let mut sq = IMat::zeros(n, n);
                    for (i, r) in candidate.iter().enumerate() {
                        for k in 0..n {
                            sq[(i, k)] = r[k];
                        }
                    }
                    sq.det() != 0
                }
            };
            if rank_ok {
                chosen = candidate;
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
    TilingTransform::new(h)
        .ok()
        .filter(|t| t.validate_for(deps).is_ok())
}

fn run_case(
    case: usize,
    space: Polyhedron,
    deps: IMat,
    factors: Vec<i64>,
    use_cone: bool,
    m: usize,
) {
    let n = deps.rows();
    let Some(transform) = tiling_for(&deps, &factors, use_cone) else {
        return; // rejected tiling shape; nothing to test
    };
    let q = deps.cols();
    let weights: Vec<f64> = (0..q).map(|i| 0.2 + 0.1 * i as f64).collect();
    let alg = Algorithm::new(
        "prop",
        LoopNest::new(space, deps),
        Arc::new(GenericStencil { weights }),
    );
    let seq = alg.execute_sequential();
    let plan = match ParallelPlan::new(alg, transform, Some(m % n)) {
        Ok(p) => Arc::new(p),
        Err(_) => return,
    };
    // Tiled sequential reordering must match.
    let tiled_seq = execute_tiled_sequential(&plan);
    assert_eq!(
        seq.diff(&tiled_seq),
        None,
        "case {case}: tiled sequential mismatch"
    );
    // Parallel execution must match bitwise and conserve iterations.
    let total = plan.total_iterations();
    let res = execute(
        plan,
        MachineModel::fast_ethernet_p3(),
        ExecMode::Full,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(
        res.total_iterations as usize, total,
        "case {case}: iteration conservation"
    );
    assert_eq!(
        seq.diff(res.data.as_ref().unwrap()),
        None,
        "case {case}: parallel mismatch"
    );
}

const CASES: usize = 24;

#[test]
fn random_2d_rectangular_tilings() {
    let mut rng = Rng::new(0xE2E_0001);
    for case in 0..CASES {
        let space = random_space(&mut rng, 2);
        let deps = random_deps(&mut rng, 2);
        let factors: Vec<i64> = (0..2).map(|_| rng.int(2, 5)).collect();
        let m = rng.int(0, 1) as usize;
        run_case(case, space, deps, factors, false, m);
    }
}

#[test]
fn random_3d_rectangular_tilings() {
    let mut rng = Rng::new(0xE2E_0002);
    for case in 0..CASES {
        let space = random_space(&mut rng, 3);
        let deps = random_deps(&mut rng, 3);
        let factors: Vec<i64> = (0..3).map(|_| rng.int(2, 4)).collect();
        let m = rng.int(0, 2) as usize;
        run_case(case, space, deps, factors, false, m);
    }
}

#[test]
fn random_3d_cone_tilings() {
    let mut rng = Rng::new(0xE2E_0003);
    for case in 0..CASES {
        let space = random_space(&mut rng, 3);
        let deps = random_deps(&mut rng, 3);
        let factors: Vec<i64> = (0..3).map(|_| rng.int(2, 4)).collect();
        let m = rng.int(0, 2) as usize;
        run_case(case, space, deps, factors, true, m);
    }
}
