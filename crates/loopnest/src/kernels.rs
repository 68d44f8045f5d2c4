//! The paper's three evaluation algorithms (§4): Gauss Successive
//! Over-Relaxation (SOR), Jacobi, and ADI integration.
//!
//! Each constructor returns the algorithm over its *original* coordinates;
//! `*_skewed` applies the exact skewing matrix the paper uses so the nest
//! can be rectangularly tiled (all dependence components non-negative).
//!
//! Boundary conditions are deterministic functions of the original
//! coordinates, so sequential and parallel executions are bitwise
//! comparable.

use crate::kernel::{Algorithm, Kernel};
use crate::nest::LoopNest;
use std::sync::Arc;
use tilecc_linalg::IMat;
use tilecc_polytope::Polyhedron;

/// Lane width of the specialized `compute_run` blocks: fixed-size `[f64; 8]`
/// chunks the optimizer can keep in vector registers. Each lane evaluates
/// one *point* with the scalar kernel's exact operation order, so batched
/// results are bitwise identical to the per-point path.
pub const LANES: usize = 8;

/// Deterministic boundary value: a small, well-spread function of `j`.
/// Public so other frontends (e.g. the kernel DSL's `bnd()` builtin) can
/// produce bitwise-identical boundary conditions.
pub fn boundary_value(j: &[i64]) -> f64 {
    let mut h: i64 = 17;
    for (k, &v) in j.iter().enumerate() {
        h = h
            .wrapping_mul(31)
            .wrapping_add(v.wrapping_mul(7 + k as i64));
    }
    ((h.rem_euclid(1009)) as f64) / 1009.0
}

// ---------------------------------------------------------------------------
// SOR
// ---------------------------------------------------------------------------

/// Gauss SOR body:
/// `A[t,i,j] = w/4·(A[t,i−1,j] + A[t,i,j−1] + A[t−1,i+1,j] + A[t−1,i,j+1]) + (1−w)·A[t−1,i,j]`.
pub struct SorKernel {
    pub w: f64,
}

impl Kernel for SorKernel {
    fn compute(&self, _j: &[i64], reads: &[f64]) -> f64 {
        // reads follow the dependence-column order of `sor_deps()`.
        self.w / 4.0 * (reads[0] + reads[1] + reads[2] + reads[3]) + (1.0 - self.w) * reads[4]
    }

    fn initial(&self, j: &[i64]) -> f64 {
        boundary_value(j)
    }

    fn compute_run(&self, _j0: &[i64], _dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let (r0, rest) = reads.split_at(count);
        let (r1, rest) = rest.split_at(count);
        let (r2, rest) = rest.split_at(count);
        let (r3, r4) = rest.split_at(count);
        let a = self.w / 4.0;
        let b = 1.0 - self.w;
        let mut p = 0;
        while p + LANES <= count {
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = a * (r0[p + l] + r1[p + l] + r2[p + l] + r3[p + l]) + b * r4[p + l];
            }
            out[p..p + LANES].copy_from_slice(&acc);
            p += LANES;
        }
        for i in p..count {
            out[i] = a * (r0[i] + r1[i] + r2[i] + r3[i]) + b * r4[i];
        }
    }
}

/// SOR dependence matrix in original coordinates (columns):
/// `(0,1,0), (0,0,1), (1,−1,0), (1,0,−1), (1,0,0)`.
pub fn sor_deps() -> IMat {
    IMat::from_rows(&[&[0, 0, 1, 1, 1], &[1, 0, -1, 0, 0], &[0, 1, 0, -1, 0]])
}

/// The paper's SOR skewing matrix `T = [[1,0,0],[1,1,0],[2,0,1]]` (§4.1).
pub fn sor_skewing() -> IMat {
    IMat::from_rows(&[&[1, 0, 0], &[1, 1, 0], &[2, 0, 1]])
}

/// SOR over `1 ≤ t ≤ m`, `1 ≤ i,j ≤ n` in original coordinates.
pub fn sor(m: i64, n: i64, w: f64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1, 1], &[m, n, n]);
    Algorithm::new(
        format!("sor-M{m}-N{n}"),
        LoopNest::new(space, sor_deps()),
        Arc::new(SorKernel { w }),
    )
}

/// Skewed SOR, ready for rectangular or non-rectangular tiling. The skewed
/// dependence matrix matches the paper:
/// `D = [[1,0,1,1,0],[1,1,0,1,0],[2,0,2,1,1]]` (as a set of columns).
pub fn sor_skewed(m: i64, n: i64, w: f64) -> Algorithm {
    sor(m, n, w).skewed(&sor_skewing())
}

// ---------------------------------------------------------------------------
// Jacobi
// ---------------------------------------------------------------------------

/// Jacobi body:
/// `A[t,i,j] = 0.25·(A[t−1,i−1,j] + A[t−1,i,j−1] + A[t−1,i+1,j] + A[t−1,i,j+1])`.
pub struct JacobiKernel;

impl Kernel for JacobiKernel {
    fn compute(&self, _j: &[i64], reads: &[f64]) -> f64 {
        0.25 * (reads[0] + reads[1] + reads[2] + reads[3])
    }

    fn initial(&self, j: &[i64]) -> f64 {
        boundary_value(j)
    }

    fn compute_run(&self, _j0: &[i64], _dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let (r0, rest) = reads.split_at(count);
        let (r1, rest) = rest.split_at(count);
        let (r2, r3) = rest.split_at(count);
        let mut p = 0;
        while p + LANES <= count {
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = 0.25 * (r0[p + l] + r1[p + l] + r2[p + l] + r3[p + l]);
            }
            out[p..p + LANES].copy_from_slice(&acc);
            p += LANES;
        }
        for i in p..count {
            out[i] = 0.25 * (r0[i] + r1[i] + r2[i] + r3[i]);
        }
    }
}

/// Jacobi dependence matrix in original coordinates (columns):
/// `(1,1,0), (1,0,1), (1,−1,0), (1,0,−1)`.
pub fn jacobi_deps() -> IMat {
    IMat::from_rows(&[&[1, 1, 1, 1], &[1, 0, -1, 0], &[0, 1, 0, -1]])
}

/// The paper's Jacobi skewing matrix `T = [[1,0,0],[1,1,0],[1,0,1]]` (§4.2).
pub fn jacobi_skewing() -> IMat {
    IMat::from_rows(&[&[1, 0, 0], &[1, 1, 0], &[1, 0, 1]])
}

/// Jacobi over `1 ≤ t ≤ tmax`, `1 ≤ i ≤ imax`, `1 ≤ j ≤ jmax`.
pub fn jacobi(tmax: i64, imax: i64, jmax: i64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1, 1], &[tmax, imax, jmax]);
    Algorithm::new(
        format!("jacobi-T{tmax}-I{imax}-J{jmax}"),
        LoopNest::new(space, jacobi_deps()),
        Arc::new(JacobiKernel),
    )
}

/// Skewed Jacobi (all dependence components non-negative after skewing).
pub fn jacobi_skewed(tmax: i64, imax: i64, jmax: i64) -> Algorithm {
    jacobi(tmax, imax, jmax).skewed(&jacobi_skewing())
}

// ---------------------------------------------------------------------------
// ADI integration
// ---------------------------------------------------------------------------

/// Simplified single-array ADI body (same dependence pattern as Table 3;
/// used by the §4 experiments where only the schedule shape matters):
/// `X[t,i,j] = X[t−1,i,j] + c1·X[t−1,i−1,j] − c2·X[t−1,i,j−1]`.
/// The faithful two-array Table 3 version is [`adi_paper`].
pub struct AdiKernel {
    pub c1: f64,
    pub c2: f64,
}

impl Kernel for AdiKernel {
    fn compute(&self, _j: &[i64], reads: &[f64]) -> f64 {
        reads[0] + self.c1 * reads[1] - self.c2 * reads[2]
    }

    fn initial(&self, j: &[i64]) -> f64 {
        boundary_value(j)
    }

    fn compute_run(&self, _j0: &[i64], _dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let (r0, rest) = reads.split_at(count);
        let (r1, r2) = rest.split_at(count);
        let (c1, c2) = (self.c1, self.c2);
        let mut p = 0;
        while p + LANES <= count {
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = r0[p + l] + c1 * r1[p + l] - c2 * r2[p + l];
            }
            out[p..p + LANES].copy_from_slice(&acc);
            p += LANES;
        }
        for i in p..count {
            out[i] = r0[i] + c1 * r1[i] - c2 * r2[i];
        }
    }
}

/// ADI dependence matrix `D = [[1,1,1],[0,1,0],[0,0,1]]` (columns
/// `(1,0,0), (1,1,0), (1,0,1)`) — already non-negative, no skewing needed.
pub fn adi_deps() -> IMat {
    IMat::from_rows(&[&[1, 1, 1], &[0, 1, 0], &[0, 0, 1]])
}

/// ADI over `1 ≤ t ≤ tmax`, `1 ≤ i,j ≤ n`.
pub fn adi(tmax: i64, n: i64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1, 1], &[tmax, n, n]);
    Algorithm::new(
        format!("adi-T{tmax}-N{n}"),
        LoopNest::new(space, adi_deps()),
        Arc::new(AdiKernel { c1: 0.3, c2: 0.2 }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn columns(m: &IMat) -> HashSet<Vec<i64>> {
        (0..m.cols()).map(|c| m.col(c)).collect()
    }

    #[test]
    fn sor_skewed_deps_match_paper() {
        let alg = sor_skewed(3, 4, 1.0);
        // Paper §4.1: D = [[1,0,1,1,0],[1,1,0,1,0],[2,0,2,1,1]].
        let paper = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        assert_eq!(columns(alg.nest.deps()), columns(&paper));
    }

    #[test]
    fn sor_skewed_deps_are_nonnegative() {
        let alg = sor_skewed(3, 4, 1.0);
        let d = alg.nest.deps();
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                assert!(
                    d[(i, j)] >= 0,
                    "skewed SOR dependence has negative component"
                );
            }
        }
    }

    #[test]
    fn jacobi_skewed_deps_are_nonnegative_and_correct() {
        let alg = jacobi_skewed(3, 4, 4);
        let d = alg.nest.deps();
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                assert!(d[(i, j)] >= 0);
            }
        }
        // T·(1,1,0) = (1,2,1); T·(1,0,1) = (1,1,2); T·(1,-1,0) = (1,0,1);
        // T·(1,0,-1) = (1,1,0).
        let expected: HashSet<Vec<i64>> =
            [vec![1, 2, 1], vec![1, 1, 2], vec![1, 0, 1], vec![1, 1, 0]]
                .into_iter()
                .collect();
        assert_eq!(columns(d), expected);
    }

    #[test]
    fn adi_needs_no_skewing() {
        let alg = adi(3, 4);
        let d = alg.nest.deps();
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                assert!(d[(i, j)] >= 0);
            }
        }
    }

    #[test]
    fn skewed_sor_space_matches_paper_bounds() {
        // Paper §4.1 skewed nest: t' in 1..=M, i' in t'+1..=t'+N, j' in 2t'+1..=2t'+N.
        let alg = sor_skewed(3, 4, 1.0);
        let b = alg.nest.bounds();
        assert_eq!(b.bounds(0, &[]), Some((1, 3)));
        assert_eq!(b.bounds(1, &[2]), Some((3, 6)));
        assert_eq!(b.bounds(2, &[2, 3]), Some((5, 8)));
        assert_eq!(alg.nest.num_points(), Ok(3 * 4 * 4));
    }

    #[test]
    fn executions_are_deterministic() {
        let a1 = sor_skewed(2, 3, 1.2).execute_sequential();
        let a2 = sor_skewed(2, 3, 1.2).execute_sequential();
        assert_eq!(a1.diff(&a2), None);
    }

    #[test]
    fn jacobi_values_average_correctly() {
        // With constant boundary everywhere, the first time step averages
        // four boundary values.
        struct ConstJacobi;
        impl Kernel for ConstJacobi {
            fn compute(&self, j: &[i64], reads: &[f64]) -> f64 {
                JacobiKernel.compute(j, reads)
            }
            fn initial(&self, _j: &[i64]) -> f64 {
                2.0
            }
        }
        let space = Polyhedron::from_box(&[1, 1, 1], &[1, 2, 2]);
        let alg = Algorithm::new(
            "cj",
            LoopNest::new(space, jacobi_deps()),
            Arc::new(ConstJacobi),
        );
        let ds = alg.execute_sequential();
        assert_eq!(ds.get(&[1, 1, 1]), Some(2.0));
    }
}

// ---------------------------------------------------------------------------
// Additional kernels beyond the paper's three (framework generality).
// ---------------------------------------------------------------------------

/// 1-D heat equation over a 2-D (time × space) nest:
/// `A[t,i] = A[t−1,i] + α·(A[t−1,i−1] − 2·A[t−1,i] + A[t−1,i+1])`.
pub struct Heat1dKernel {
    pub alpha: f64,
}

impl Kernel for Heat1dKernel {
    fn compute(&self, _j: &[i64], reads: &[f64]) -> f64 {
        // reads: (1,0) center, (1,1) left, (1,-1) right.
        reads[0] + self.alpha * (reads[1] - 2.0 * reads[0] + reads[2])
    }

    fn initial(&self, j: &[i64]) -> f64 {
        boundary_value(j)
    }

    fn compute_run(&self, _j0: &[i64], _dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let (r0, rest) = reads.split_at(count);
        let (r1, r2) = rest.split_at(count);
        let alpha = self.alpha;
        let mut p = 0;
        while p + LANES <= count {
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = r0[p + l] + alpha * (r1[p + l] - 2.0 * r0[p + l] + r2[p + l]);
            }
            out[p..p + LANES].copy_from_slice(&acc);
            p += LANES;
        }
        for i in p..count {
            out[i] = r0[i] + alpha * (r1[i] - 2.0 * r0[i] + r2[i]);
        }
    }
}

/// Heat-1D dependence matrix (columns): `(1,0), (1,1), (1,−1)`.
pub fn heat1d_deps() -> IMat {
    IMat::from_rows(&[&[1, 1, 1], &[0, 1, -1]])
}

/// The skewing `T = [[1,0],[1,1]]` making heat-1D rectangularly tileable.
pub fn heat1d_skewing() -> IMat {
    IMat::from_rows(&[&[1, 0], &[1, 1]])
}

/// Heat-1D over `1 ≤ t ≤ tmax`, `1 ≤ i ≤ n` (original coordinates).
pub fn heat1d(tmax: i64, n: i64, alpha: f64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1], &[tmax, n]);
    Algorithm::new(
        format!("heat1d-T{tmax}-N{n}"),
        LoopNest::new(space, heat1d_deps()),
        Arc::new(Heat1dKernel { alpha }),
    )
}

/// Skewed heat-1D (dependencies `(1,1), (1,2), (1,0)` — all non-negative).
pub fn heat1d_skewed(tmax: i64, n: i64, alpha: f64) -> Algorithm {
    heat1d(tmax, n, alpha).skewed(&heat1d_skewing())
}

/// A 4-D wavefront kernel (3-D heat + time), exercising `n = 4` end to end:
/// `A[t,x,y,z] = c₀·A[t−1,x,y,z] + c₁·(A[t−1,x−1,y,z] + A[t−1,x,y−1,z] + A[t−1,x,y,z−1])`.
pub struct Wave4dKernel {
    pub c0: f64,
    pub c1: f64,
}

impl Kernel for Wave4dKernel {
    fn compute(&self, _j: &[i64], reads: &[f64]) -> f64 {
        self.c0 * reads[0] + self.c1 * (reads[1] + reads[2] + reads[3])
    }

    fn initial(&self, j: &[i64]) -> f64 {
        boundary_value(j)
    }

    fn compute_run(&self, _j0: &[i64], _dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let (r0, rest) = reads.split_at(count);
        let (r1, rest) = rest.split_at(count);
        let (r2, r3) = rest.split_at(count);
        let (c0, c1) = (self.c0, self.c1);
        let mut p = 0;
        while p + LANES <= count {
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = c0 * r0[p + l] + c1 * (r1[p + l] + r2[p + l] + r3[p + l]);
            }
            out[p..p + LANES].copy_from_slice(&acc);
            p += LANES;
        }
        for i in p..count {
            out[i] = c0 * r0[i] + c1 * (r1[i] + r2[i] + r3[i]);
        }
    }
}

/// 4-D wavefront dependence matrix (columns):
/// `(1,0,0,0), (1,1,0,0), (1,0,1,0), (1,0,0,1)` — already non-negative.
pub fn wave4d_deps() -> IMat {
    IMat::from_rows(&[&[1, 1, 1, 1], &[0, 1, 0, 0], &[0, 0, 1, 0], &[0, 0, 0, 1]])
}

/// 4-D wavefront over `1 ≤ t ≤ tmax`, `1 ≤ x,y,z ≤ n`.
pub fn wave4d(tmax: i64, n: i64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1, 1, 1], &[tmax, n, n, n]);
    Algorithm::new(
        format!("wave4d-T{tmax}-N{n}"),
        LoopNest::new(space, wave4d_deps()),
        Arc::new(Wave4dKernel { c0: 0.4, c1: 0.2 }),
    )
}

#[cfg(test)]
mod extra_kernel_tests {
    use super::*;

    #[test]
    fn heat1d_skewed_deps_nonnegative() {
        let alg = heat1d_skewed(4, 6, 0.1);
        let d = alg.nest.deps();
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                assert!(d[(i, j)] >= 0);
            }
        }
        assert_eq!(alg.nest.num_points(), Ok(24));
    }

    #[test]
    fn heat1d_conserves_constant_fields() {
        // With a constant initial field, diffusion leaves values unchanged.
        struct ConstHeat;
        impl Kernel for ConstHeat {
            fn compute(&self, j: &[i64], reads: &[f64]) -> f64 {
                Heat1dKernel { alpha: 0.25 }.compute(j, reads)
            }
            fn initial(&self, _j: &[i64]) -> f64 {
                3.5
            }
        }
        let space = Polyhedron::from_box(&[1, 1], &[3, 5]);
        let alg = Algorithm::new(
            "ch",
            LoopNest::new(space, heat1d_deps()),
            Arc::new(ConstHeat),
        );
        let ds = alg.execute_sequential();
        for i in 1..=5 {
            assert_eq!(ds.get(&[3, i]), Some(3.5));
        }
    }

    #[test]
    fn wave4d_executes_sequentially() {
        let alg = wave4d(3, 4);
        let ds = alg.execute_sequential();
        assert_eq!(ds.num_written(), 3 * 4 * 4 * 4);
    }
}

// ---------------------------------------------------------------------------
// Faithful ADI integration (Table 3): two written arrays + a coefficient
// array, via the multi-component kernel model.
// ---------------------------------------------------------------------------

/// The full ADI integration body of the paper's Table 3:
///
/// ```text
/// X[t,i,j] = X[t-1,i,j] + X[t-1,i,j-1]·A[i,j]/B[t-1,i,j-1]
///                       − X[t-1,i-1,j]·A[i,j]/B[t-1,i-1,j]
/// B[t,i,j] = B[t-1,i,j] − A[i,j]²/B[t-1,i,j-1] − A[i,j]²/B[t-1,i-1,j]
/// ```
///
/// `X` is component 0 and `B` component 1 of each data-space cell; the
/// read-only coefficient array `A[i,j]` is a deterministic function (no
/// communication needed — it is replicated, exactly as a compiler would
/// broadcast a read-only array).
pub struct AdiPaperKernel;

impl AdiPaperKernel {
    /// The read-only coefficient array `A[i,j]` (small, non-zero).
    fn a(i: i64, j: i64) -> f64 {
        0.1 + ((i * 13 + j * 7).rem_euclid(17)) as f64 * 0.01
    }

    /// Boundary `B` values must be bounded away from zero (divisors).
    fn b0(j: &[i64]) -> f64 {
        2.0 + boundary_value(j)
    }
}

impl crate::kernel::MultiKernel for AdiPaperKernel {
    fn width(&self) -> usize {
        2
    }

    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        // Dependence columns (see `adi_deps`): q0 = (1,0,0), q1 = (1,1,0),
        // q2 = (1,0,1); component layout [X, B] per dependence.
        let (x_t, _b_t) = (reads[0], reads[1]); // (t-1, i, j)
        let (x_up, b_up) = (reads[2], reads[3]); // (t-1, i-1, j)
        let (x_le, b_le) = (reads[4], reads[5]); // (t-1, i, j-1)
        let a = Self::a(j[1], j[2]);
        out[0] = x_t + x_le * a / b_le - x_up * a / b_up;
        out[1] = reads[1] - a * a / b_le - a * a / b_up;
    }

    fn initial(&self, j: &[i64], out: &mut [f64]) {
        out[0] = boundary_value(j);
        out[1] = Self::b0(j);
    }

    fn compute_run(&self, j0: &[i64], dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        // One monomorphized pass instead of a dyn call per point. The
        // divisions keep this from lane-blocking profitably, but the three
        // dependence blocks are contiguous and the coefficient coordinates
        // advance by integer addition — exactly `j0 + p·dj`.
        let (d0, rest) = reads.split_at(count * 2);
        let (d1, d2) = rest.split_at(count * 2);
        let (mut ji, mut jj) = (j0[1], j0[2]);
        for p in 0..count {
            let (x_t, b_t) = (d0[p * 2], d0[p * 2 + 1]);
            let (x_up, b_up) = (d1[p * 2], d1[p * 2 + 1]);
            let (x_le, b_le) = (d2[p * 2], d2[p * 2 + 1]);
            let a = Self::a(ji, jj);
            out[p * 2] = x_t + x_le * a / b_le - x_up * a / b_up;
            out[p * 2 + 1] = b_t - a * a / b_le - a * a / b_up;
            ji += dj[1];
            jj += dj[2];
        }
    }
}

/// Faithful ADI integration over `1 ≤ t ≤ tmax`, `1 ≤ i,j ≤ n` (Table 3).
pub fn adi_paper(tmax: i64, n: i64) -> Algorithm {
    let space = Polyhedron::from_box(&[1, 1, 1], &[tmax, n, n]);
    Algorithm::new_multi(
        format!("adi-paper-T{tmax}-N{n}"),
        LoopNest::new(space, adi_deps()),
        Arc::new(AdiPaperKernel),
    )
}

#[cfg(test)]
mod compute_run_tests {
    use super::*;
    use crate::kernel::MultiKernel;

    /// xorshift64* — seeded, so failures reproduce from the seed alone.
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
        fn f64(&mut self) -> f64 {
            (self.next() % 2_000_001) as f64 / 1_000_000.0 - 1.0
        }
    }

    fn check_scalar(k: &dyn Kernel, q: usize, seed: u64) {
        let mut g = G(seed);
        // Straddle several lane blocks plus a ragged tail.
        for count in [1usize, 7, 8, 9, 24, 61] {
            let reads: Vec<f64> = (0..q * count).map(|_| g.f64()).collect();
            let j0 = [3i64, -1, 4, 2];
            let dj = [0i64, 1, 2, 1];
            let mut out = vec![0.0f64; count];
            k.compute_run(&j0[..4], &dj[..4], count, &reads, &mut out);
            let mut rbuf = vec![0.0f64; q];
            for p in 0..count {
                let j: Vec<i64> = (0..4).map(|i| j0[i] + p as i64 * dj[i]).collect();
                for i in 0..q {
                    rbuf[i] = reads[i * count + p];
                }
                assert_eq!(
                    out[p].to_bits(),
                    k.compute(&j, &rbuf).to_bits(),
                    "count={count} p={p}"
                );
            }
        }
    }

    /// Every specialized scalar kernel's lane-blocked `compute_run` is
    /// bitwise identical to its per-point `compute`, including ragged
    /// tails shorter than a lane block.
    #[test]
    fn specialized_runs_match_per_point_bitwise() {
        check_scalar(&SorKernel { w: 1.1 }, 5, 0xA11CE);
        check_scalar(&JacobiKernel, 4, 0xB0B);
        check_scalar(&AdiKernel { c1: 0.3, c2: 0.2 }, 3, 0xC4A7);
        check_scalar(&Heat1dKernel { alpha: 0.25 }, 3, 0xD06);
        check_scalar(&Wave4dKernel { c0: 0.4, c1: 0.2 }, 4, 0xE66);
    }

    /// The two-array ADI (Table 3) batch entry: j-dependent coefficients
    /// must advance with the run and divisions keep per-point order.
    #[test]
    fn adi_paper_run_matches_per_point_bitwise() {
        let k = AdiPaperKernel;
        let (q, w) = (3usize, 2usize);
        let mut g = G(0xF00D);
        for count in [1usize, 5, 16, 33] {
            // B components are divisors: keep them away from zero.
            let reads: Vec<f64> = (0..q * count * w)
                .map(|i| {
                    if i % 2 == 1 {
                        2.0 + g.f64().abs()
                    } else {
                        g.f64()
                    }
                })
                .collect();
            let j0 = [1i64, 2, 3];
            let dj = [0i64, 1, 2];
            let mut out = vec![0.0f64; count * w];
            k.compute_run(&j0, &dj, count, &reads, &mut out);
            let mut rbuf = vec![0.0f64; q * w];
            let mut expect = [0.0f64; 2];
            for p in 0..count {
                let j: Vec<i64> = (0..3).map(|i| j0[i] + p as i64 * dj[i]).collect();
                for i in 0..q {
                    rbuf[i * w..(i + 1) * w]
                        .copy_from_slice(&reads[(i * count + p) * w..(i * count + p) * w + w]);
                }
                k.compute(&j, &rbuf, &mut expect);
                assert_eq!(out[p * w].to_bits(), expect[0].to_bits(), "X p={p}");
                assert_eq!(out[p * w + 1].to_bits(), expect[1].to_bits(), "B p={p}");
            }
        }
    }
}

#[cfg(test)]
mod adi_paper_tests {
    use super::*;

    #[test]
    fn adi_paper_has_two_components_and_runs() {
        let alg = adi_paper(3, 4);
        assert_eq!(alg.width(), 2);
        let ds = alg.execute_sequential();
        assert_eq!(ds.num_written(), 3 * 4 * 4);
        // B must stay non-zero (all divisions well-defined).
        for t in 1..=3 {
            for i in 1..=4 {
                for j in 1..=4 {
                    let v = ds.get_all(&[t, i, j]).unwrap();
                    assert!(v[1].abs() > 1e-6, "B vanished at ({t},{i},{j})");
                    assert!(v[0].is_finite() && v[1].is_finite());
                }
            }
        }
    }

    #[test]
    fn adi_paper_b_decreases_monotonically() {
        // B[t] = B[t-1] − positive terms, so B decreases along t while it
        // stays positive.
        let ds = adi_paper(2, 3).execute_sequential();
        for i in 1..=3 {
            for j in 1..=3 {
                let b1 = ds.get_all(&[1, i, j]).unwrap()[1];
                let b2 = ds.get_all(&[2, i, j]).unwrap()[1];
                assert!(b2 < b1, "B did not decrease at ({i},{j})");
            }
        }
    }
}
