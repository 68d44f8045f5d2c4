//! Kernel semantics and the sequential reference executor.
//!
//! A [`Kernel`] provides the single-assignment statement body of the paper's
//! model: `A[j] := F(A[j − d_1], …, A[j − d_q])`. The dependence *order* is
//! fixed by the nest's dependence matrix columns; read `i` is the value at
//! `j − d_i`. Reads that fall outside the iteration space take the kernel's
//! deterministic `initial` value (the algorithm's boundary conditions).
//!
//! The paper notes its single-statement/single-array model is "only a
//! notational restriction". A [`Kernel`] lifts it: each iteration point
//! carries `width` components (one per written array), every dependence read
//! delivers all components of the source point, and the body computes all
//! components at once — enough to express e.g. the real ADI integration
//! with its `X` and `B` arrays (Table 3). The single-array model is
//! `width == 1`.

use crate::data::DataSpace;
use crate::nest::LoopNest;
use std::sync::Arc;

/// Cache-block width (in points) of batched compute: chunks are clamped so
/// one chunk's read/write windows total `(q+1)·CACHE_BLOCK·width` values
/// (~(q+1)·4 KiB at width 1) and stay L1/L2-resident no matter how long
/// the affine run is.
pub const CACHE_BLOCK: usize = 512;

/// Minimum safe batch width worth a `compute_run` dispatch; runs whose
/// dependence lag allows fewer points per chunk fall back to the
/// per-point loop (the dispatch would cost more than it saves).
pub const MIN_BATCH: u32 = 4;

/// Nest depth up to which [`with_scratch`] lends a stack buffer.
const STACK_DIM: usize = 8;

/// Call `f` with a zeroed `n`-entry coordinate buffer on the stack (on the
/// heap only for nests deeper than eight).
#[inline]
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut [i64]) -> R) -> R {
    if n <= STACK_DIM {
        f(&mut [0i64; STACK_DIM][..n])
    } else {
        f(&mut vec![0i64; n])
    }
}

/// The `.tk` DSL's `bnd()`: a deterministic boundary value, a small,
/// well-spread hash of the original coordinates `j`. Every frontend that
/// evaluates `bnd()` calls this one definition, so boundary conditions are
/// bitwise identical wherever a kernel runs.
pub fn boundary_value(j: &[i64]) -> f64 {
    boundary_of(boundary_hash(j))
}

/// The hash behind [`boundary_value`],
/// `17·31ⁿ + Σ_k (7 + k)·j_k·31^(n−1−k)` in wrapping `i64` arithmetic. It
/// is affine in `j` modulo 2⁶⁴, so along a run `j0 + p·dj` it steps by
/// `boundary_hash(dj) − boundary_hash(0)`, exactly.
pub fn boundary_hash(j: &[i64]) -> i64 {
    let mut h: i64 = 17;
    for (k, &v) in j.iter().enumerate() {
        h = h
            .wrapping_mul(31)
            .wrapping_add(v.wrapping_mul(7 + k as i64));
    }
    h
}

/// The [`boundary_value`] of a point whose [`boundary_hash`] is `h`.
#[inline]
pub fn boundary_of(h: i64) -> f64 {
    ((h.rem_euclid(1009)) as f64) / 1009.0
}

/// Loop-body semantics: `width` components per iteration point (one per
/// written array; the paper's single-array model is `width == 1`).
/// `reads` is laid out dependence-major: component `c` of dependence `q` is
/// `reads[q*width + c]`.
pub trait Kernel: Send + Sync {
    /// Number of components (written arrays).
    fn width(&self) -> usize;

    /// Compute all components written at iteration `j` into `out`
    /// (`out.len() == width`).
    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]);

    /// Boundary components for points outside the iteration space.
    fn initial(&self, j: &[i64], out: &mut [f64]);

    /// Batched [`Kernel::initial`] over `count` consecutive points of an
    /// affine run: the components of point `j0 + p·dj` go to
    /// `out[p*width..(p+1)*width]`. The scan and the compiled chain fill a
    /// boundary row's reads from outside the space with it, one call per
    /// dependence and stretch.
    ///
    /// The default walks the points through `initial` ([`initial_points`]),
    /// allocation-free, so it is bitwise identical to per-point `initial`
    /// by construction. Overrides must give every point exactly the bits
    /// `initial` gives it.
    fn initial_run(&self, j0: &[i64], dj: &[i64], count: usize, out: &mut [f64]) {
        initial_points(self, j0, dj, count, out);
    }

    /// Batched [`Kernel::compute`] over `count` consecutive points of an
    /// affine run: point `p` sits at iteration `j0 + p·dj`; component `c`
    /// of its dependence-`i` read is `reads[(i*count + p)*width + c]`
    /// (dependence-major blocks of `count` points each). The components of
    /// point `p` go to `out[p*width..(p+1)*width]`.
    ///
    /// The default walks the points in ascending order through `compute`,
    /// so it is bitwise identical to the per-point path by construction.
    /// Overrides may reassociate **across points** (lane blocks) but must
    /// keep each point's own floating-point operation order unchanged.
    fn compute_run(&self, j0: &[i64], dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        let w = self.width();
        debug_assert_eq!(out.len(), count * w);
        if count == 0 {
            return;
        }
        debug_assert_eq!(reads.len() % (count * w), 0);
        let q = reads.len() / (count * w);
        let mut j = j0.to_vec();
        let mut rbuf = vec![0.0f64; q * w];
        for p in 0..count {
            for i in 0..q {
                let at = (i * count + p) * w;
                rbuf[i * w..(i + 1) * w].copy_from_slice(&reads[at..at + w]);
            }
            let (lo, hi) = (p * w, (p + 1) * w);
            self.compute(&j, &rbuf, &mut out[lo..hi]);
            for (jk, d) in j.iter_mut().zip(dj) {
                *jk += d;
            }
        }
    }
}

/// [`Kernel::initial`] at each of the `count` points `j0 + p·dj` in turn,
/// into `out[p*width..(p+1)*width]`: the default [`Kernel::initial_run`],
/// and the short-run fallback of an override.
pub fn initial_points<K: Kernel + ?Sized>(
    kernel: &K,
    j0: &[i64],
    dj: &[i64],
    count: usize,
    out: &mut [f64],
) {
    let w = kernel.width();
    debug_assert_eq!(out.len(), count * w);
    with_scratch(j0.len(), |j| {
        j.copy_from_slice(j0);
        for (p, out) in out.chunks_exact_mut(w).enumerate() {
            if p > 0 {
                for (jk, d) in j.iter_mut().zip(dj) {
                    *jk += d;
                }
            }
            kernel.initial(j, out);
        }
    });
}

/// A nest paired with its body: a complete algorithm instance.
#[derive(Clone)]
pub struct Algorithm {
    pub name: String,
    pub nest: LoopNest,
    pub kernel: Arc<dyn Kernel>,
}

impl std::fmt::Debug for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Algorithm")
            .field("name", &self.name)
            .field("dim", &self.nest.dim())
            .field("width", &self.kernel.width())
            .field("deps", self.nest.deps())
            .finish_non_exhaustive()
    }
}

impl Algorithm {
    /// Pair a nest with its kernel.
    pub fn new(name: impl Into<String>, nest: LoopNest, kernel: Arc<dyn Kernel>) -> Self {
        assert!(kernel.width() >= 1);
        Algorithm {
            name: name.into(),
            nest,
            kernel,
        }
    }

    /// Components per iteration point.
    #[inline]
    pub fn width(&self) -> usize {
        self.kernel.width()
    }

    /// Reference execution: scan `J^n` lexicographically (legal because all
    /// dependence vectors are lexicographically positive) and evaluate the
    /// kernel at every point. Returns the full data space.
    pub fn execute_sequential(&self) -> DataSpace {
        let (lo, hi) = self.nest.bounding_box();
        let w = self.width();
        let mut ds = DataSpace::with_width(&lo, &hi, w);
        let deps = self.nest.deps();
        let q = deps.cols();
        let bounds = self.nest.bounds();
        let mut reads = vec![0.0f64; q * w];
        let mut out = vec![0.0f64; w];
        let mut src = vec![0i64; self.nest.dim()];
        for j in bounds.points() {
            for i in 0..q {
                for k in 0..self.nest.dim() {
                    src[k] = j[k] - deps[(k, i)];
                }
                match ds.get_all(&src) {
                    Some(v) => reads[i * w..(i + 1) * w].copy_from_slice(v),
                    None => self.kernel.initial(&src, &mut reads[i * w..(i + 1) * w]),
                }
            }
            self.kernel.compute(&j, &reads, &mut out);
            ds.set_all(&j, &out);
        }
        ds
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tilecc_linalg::IMat;
    use tilecc_polytope::Polyhedron;

    /// Test-local skew: `alg` skewed by the unimodular `t`, its kernel
    /// wrapped to see original coordinates `T⁻¹j`. Production skews live in
    /// the `.tk` kernel itself; this wrapper keeps the scan and sequential
    /// oracles checkable on hand-written kernels.
    pub(crate) fn skewed(alg: &Algorithm, t: &IMat) -> Algorithm {
        Algorithm::new(
            format!("{}-skewed", alg.name),
            alg.nest.skew(t),
            Arc::new(Skew {
                inner: alg.kernel.clone(),
                t_inv: t.inverse().to_imat(),
            }),
        )
    }

    struct Skew {
        inner: Arc<dyn Kernel>,
        t_inv: IMat,
    }

    impl Kernel for Skew {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
            self.inner.compute(&self.t_inv.mul_vec(j), reads, out);
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            self.inner.initial(&self.t_inv.mul_vec(j), out);
        }
        fn compute_run(
            &self,
            j0: &[i64],
            dj: &[i64],
            count: usize,
            reads: &[f64],
            out: &mut [f64],
        ) {
            let (o0, od) = (self.t_inv.mul_vec(j0), self.t_inv.mul_vec(dj));
            self.inner.compute_run(&o0, &od, count, reads, out);
        }
    }

    /// Prefix-sum-like kernel: A[j] = A[j - (1,0)] + A[j - (0,1)] + 1.
    struct SumKernel;

    impl Kernel for SumKernel {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
            out[0] = reads[0] + reads[1] + 1.0;
        }
        fn initial(&self, _j: &[i64], out: &mut [f64]) {
            out[0] = 0.0;
        }
    }

    fn sum_algorithm() -> Algorithm {
        let space = Polyhedron::from_box(&[0, 0], &[4, 4]);
        let deps = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        Algorithm::new("sum", LoopNest::new(space, deps), Arc::new(SumKernel))
    }

    #[test]
    fn sequential_execution_computes_pascal_like_values() {
        let ds = sum_algorithm().execute_sequential();
        // A[0,0] = 1; A[1,0] = A[0,0]+1 = 2; A[1,1] = A[0,1]+A[1,0]+1 = 5.
        assert_eq!(ds.get(&[0, 0]), Some(1.0));
        assert_eq!(ds.get(&[1, 0]), Some(2.0));
        assert_eq!(ds.get(&[0, 1]), Some(2.0));
        assert_eq!(ds.get(&[1, 1]), Some(5.0));
        assert_eq!(ds.num_written(), 25);
    }

    #[test]
    fn skewed_execution_matches_original_modulo_coordinates() {
        let alg = sum_algorithm();
        let t = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let ds = alg.execute_sequential();
        let ds_skewed = skewed(&alg, &t).execute_sequential();
        // Value at skewed point T·j equals value at j.
        for j0 in 0..=4i64 {
            for j1 in 0..=4i64 {
                let v = ds.get(&[j0, j1]).unwrap();
                let vs = ds_skewed.get(&[j0, j0 + j1]).unwrap();
                assert_eq!(v.to_bits(), vs.to_bits(), "mismatch at ({j0},{j1})");
            }
        }
    }

    /// Two coupled recurrences: a[j] = a[j-1] + b[j-1], b[j] = 2·b[j-1].
    struct Coupled;

    impl Kernel for Coupled {
        fn width(&self) -> usize {
            2
        }
        fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
            out[0] = reads[0] + reads[1];
            out[1] = 2.0 * reads[1];
        }
        fn initial(&self, _j: &[i64], out: &mut [f64]) {
            out[0] = 0.0;
            out[1] = 1.0;
        }
    }

    /// The default `compute_run` and the test skew wrapper's forwarding must
    /// be bitwise identical to the per-point path on j-dependent kernels.
    #[test]
    fn compute_run_default_matches_per_point_bitwise() {
        struct JDep;
        impl Kernel for JDep {
            fn width(&self) -> usize {
                1
            }
            fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
                out[0] = (j[0] * 3 - j[1]) as f64 * 0.125 + reads[0] * 1.5 - reads[1] / 3.0;
            }
            fn initial(&self, _j: &[i64], out: &mut [f64]) {
                out[0] = 0.0;
            }
        }
        let point = |j: &[i64], rb: &[f64]| {
            let mut o = [0.0f64];
            JDep.compute(j, rb, &mut o);
            o[0]
        };
        let (q, count) = (2usize, 13usize);
        let reads: Vec<f64> = (0..q * count).map(|i| (i as f64) * 0.37 + 0.1).collect();
        let j0 = [5i64, -2];
        let dj = [1i64, 3];
        let mut out = vec![0.0f64; count];
        JDep.compute_run(&j0, &dj, count, &reads, &mut out);
        for p in 0..count {
            let j = [j0[0] + p as i64 * dj[0], j0[1] + p as i64 * dj[1]];
            let rb = [reads[p], reads[count + p]];
            assert_eq!(out[p].to_bits(), point(&j, &rb).to_bits(), "p={p}");
        }

        // Skew wrapper: the run in skewed coordinates must evaluate the
        // inner kernel at the original coordinates, point by point.
        let t = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let sk = Skew {
            inner: Arc::new(JDep),
            t_inv: t.inverse().to_imat(),
        };
        let mut out3 = vec![0.0f64; count];
        sk.compute_run(&j0, &dj, count, &reads, &mut out3);
        let t_inv = t.inverse().to_imat();
        for p in 0..count {
            let js = [j0[0] + p as i64 * dj[0], j0[1] + p as i64 * dj[1]];
            let orig = t_inv.mul_vec(&js);
            let rb = [reads[p], reads[count + p]];
            assert_eq!(
                out3[p].to_bits(),
                point(&orig, &rb).to_bits(),
                "skewed p={p}"
            );
        }
    }

    /// Multi-kernel default `compute_run` (width 2) against per-point.
    #[test]
    fn multi_compute_run_default_matches_per_point_bitwise() {
        let k = Coupled;
        let (q, w, count) = (1usize, 2usize, 9usize);
        let reads: Vec<f64> = (0..q * count * w)
            .map(|i| (i as f64) * 0.21 - 0.4)
            .collect();
        let mut out = vec![0.0f64; count * w];
        k.compute_run(&[3], &[2], count, &reads, &mut out);
        for p in 0..count {
            let mut expect = [0.0f64; 2];
            k.compute(&[3 + 2 * p as i64], &reads[p * w..(p + 1) * w], &mut expect);
            assert_eq!(out[p * w].to_bits(), expect[0].to_bits());
            assert_eq!(out[p * w + 1].to_bits(), expect[1].to_bits());
        }
    }

    #[test]
    fn multi_kernel_sequential_execution() {
        let space = Polyhedron::from_box(&[1], &[5]);
        let deps = IMat::from_rows(&[&[1]]);
        let alg = Algorithm::new("coupled", LoopNest::new(space, deps), Arc::new(Coupled));
        assert_eq!(alg.width(), 2);
        let ds = alg.execute_sequential();
        // b doubles: 2, 4, 8, 16, 32; a accumulates b: 1, 3, 7, 15, 31.
        assert_eq!(ds.get_all(&[1]), Some(&[1.0, 2.0][..]));
        assert_eq!(ds.get_all(&[3]), Some(&[7.0, 8.0][..]));
        assert_eq!(ds.get_all(&[5]), Some(&[31.0, 32.0][..]));
    }
}
