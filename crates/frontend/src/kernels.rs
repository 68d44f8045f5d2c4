//! Unit tests of the paper's evaluation kernels (§4) as the `.tk` corpus
//! defines them: the skewed dependences and bounds of §4.1–4.2, the batch
//! path against the per-point path, and the two-array ADI of Table 3.

use crate::corpus;
use crate::tk::compile_kernel_with;
use tilecc_loopnest::Algorithm;

fn sor(m: i64, n: i64) -> Algorithm {
    compile_kernel_with(corpus::SOR, &[("M", m), ("N", n)]).unwrap()
}

fn jacobi(t: i64, n: i64) -> Algorithm {
    compile_kernel_with(corpus::JACOBI, &[("T", t), ("N", n)]).unwrap()
}

fn adi(t: i64, n: i64) -> Algorithm {
    compile_kernel_with(corpus::ADI, &[("T", t), ("N", n)]).unwrap()
}

fn adi_paper(t: i64, n: i64) -> Algorithm {
    compile_kernel_with(corpus::ADI_PAPER, &[("T", t), ("N", n)]).unwrap()
}

fn nonnegative(alg: &Algorithm) -> bool {
    let d = alg.nest.deps();
    (0..d.rows()).all(|i| (0..d.cols()).all(|j| d[(i, j)] >= 0))
}

mod tests {
    use super::*;
    use crate::tk::{compile_kernel, parse_kernel};
    use std::collections::HashSet;
    use tilecc_linalg::IMat;

    fn columns(m: &IMat) -> HashSet<Vec<i64>> {
        (0..m.cols()).map(|c| m.col(c)).collect()
    }

    #[test]
    fn sor_skewed_deps_match_paper() {
        let alg = sor(3, 4);
        // Paper §4.1: D = [[1,0,1,1,0],[1,1,0,1,0],[2,0,2,1,1]].
        let paper = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        assert_eq!(columns(alg.nest.deps()), columns(&paper));
    }

    #[test]
    fn sor_skewed_deps_are_nonnegative() {
        assert!(
            nonnegative(&sor(3, 4)),
            "skewed SOR dependence has negative component"
        );
    }

    #[test]
    fn jacobi_skewed_deps_are_nonnegative_and_correct() {
        let alg = jacobi(3, 4);
        assert!(nonnegative(&alg));
        // T·(1,1,0) = (1,2,1); T·(1,0,1) = (1,1,2); T·(1,-1,0) = (1,0,1);
        // T·(1,0,-1) = (1,1,0).
        let expected: HashSet<Vec<i64>> =
            [vec![1, 2, 1], vec![1, 1, 2], vec![1, 0, 1], vec![1, 1, 0]]
                .into_iter()
                .collect();
        assert_eq!(columns(alg.nest.deps()), expected);
    }

    #[test]
    fn adi_needs_no_skewing() {
        for src in [corpus::ADI, corpus::ADI_PAPER] {
            assert!(parse_kernel(src).unwrap().skew.is_none());
        }
        assert!(nonnegative(&adi(3, 4)));
    }

    #[test]
    fn skewed_sor_space_matches_paper_bounds() {
        // Paper §4.1 skewed nest: t' in 1..=M, i' in t'+1..=t'+N, j' in 2t'+1..=2t'+N.
        let alg = sor(3, 4);
        let b = alg.nest.bounds();
        assert_eq!(b.bounds(0, &[]), Some((1, 3)));
        assert_eq!(b.bounds(1, &[2]), Some((3, 6)));
        assert_eq!(b.bounds(2, &[2, 3]), Some((5, 8)));
        assert_eq!(alg.nest.num_points(), Ok(3 * 4 * 4));
    }

    #[test]
    fn executions_are_deterministic() {
        let a1 = sor(2, 3).execute_sequential();
        let a2 = sor(2, 3).execute_sequential();
        assert_eq!(a1.diff(&a2), None);
    }

    #[test]
    fn jacobi_values_average_correctly() {
        // With constant boundary everywhere, the first time step averages
        // four boundary values.
        let alg = compile_kernel(
            "\
kernel cj
iter t = 1 to 1
iter i = 1 to 2
iter j = 1 to 2
array A = 2.0
A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
",
        )
        .unwrap();
        let ds = alg.execute_sequential();
        assert_eq!(ds.get(&[1, 1, 1]), Some(2.0));
    }
}

mod extra_kernel_tests {
    use super::*;
    use crate::tk::compile_kernel;

    /// 1-D heat over a 2-D (time × space) nest with boundary `init`.
    fn heat1d(init: &str, t: i64, n: i64, skew: &str) -> Algorithm {
        compile_kernel(&format!(
            "kernel heat1d\niter t = 1 to {t}\niter i = 1 to {n}\n{skew}\narray A = {init}\n\
             A[t,i] = A[t-1,i] + 0.25*(A[t-1,i-1] - 2*A[t-1,i] + A[t-1,i+1])\n"
        ))
        .unwrap()
    }

    #[test]
    fn heat1d_skewed_deps_nonnegative() {
        let alg = heat1d("bnd()", 4, 6, "skew = [1,0; 1,1]");
        assert!(nonnegative(&alg));
        assert_eq!(alg.nest.num_points(), Ok(24));
    }

    #[test]
    fn heat1d_conserves_constant_fields() {
        // With a constant initial field, diffusion leaves values unchanged.
        let ds = heat1d("3.5", 3, 5, "").execute_sequential();
        for i in 1..=5 {
            assert_eq!(ds.get(&[3, i]), Some(3.5));
        }
    }

    #[test]
    fn wave4d_executes_sequentially() {
        let alg = compile_kernel(
            "\
kernel wave4d
iter t = 1 to 3
iter x = 1 to 4
iter y = 1 to 4
iter z = 1 to 4
array A = bnd()
A[t,x,y,z] = 0.4*A[t-1,x,y,z] + 0.2*(A[t-1,x-1,y,z] + A[t-1,x,y-1,z] + A[t-1,x,y,z-1])
",
        )
        .unwrap();
        let ds = alg.execute_sequential();
        assert_eq!(ds.num_written(), 3 * 4 * 4 * 4);
    }
}

mod compute_run_tests {
    use super::*;

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

    /// `alg`'s batched `compute_run` against its per-point `compute`,
    /// bitwise, at each run length in `counts`. Odd components are kept
    /// away from zero: in `adi_paper` they are divisors.
    fn check(alg: &Algorithm, counts: &[usize], seed: u64) {
        let k = &alg.kernel;
        let (q, w) = (alg.nest.num_deps(), alg.width());
        let mut g = G(seed);
        for &count in counts {
            let reads: Vec<f64> = (0..q * count * w)
                .map(|i| {
                    if i % w == 1 {
                        2.0 + g.f64().abs()
                    } else {
                        g.f64()
                    }
                })
                .collect();
            let j0 = [3i64, -1, 4];
            let dj = [0i64, 1, 2];
            let mut out = vec![0.0f64; count * w];
            k.compute_run(&j0, &dj, count, &reads, &mut out);
            let mut rbuf = vec![0.0f64; q * w];
            let mut expect = vec![0.0f64; w];
            for p in 0..count {
                let j: Vec<i64> = (0..3).map(|i| j0[i] + p as i64 * dj[i]).collect();
                for i in 0..q {
                    let at = (i * count + p) * w;
                    rbuf[i * w..(i + 1) * w].copy_from_slice(&reads[at..at + w]);
                }
                k.compute(&j, &rbuf, &mut expect);
                for c in 0..w {
                    assert_eq!(
                        out[p * w + c].to_bits(),
                        expect[c].to_bits(),
                        "{}: count={count} p={p} c={c}",
                        alg.name
                    );
                }
            }
        }
    }

    /// The lane-blocked `compute_run` of every paper kernel is bitwise
    /// identical to its per-point `compute`, including ragged tails
    /// shorter than a lane block.
    #[test]
    fn specialized_runs_match_per_point_bitwise() {
        let counts = [1, 7, 8, 9, 24, 61];
        check(&sor(4, 6), &counts, 0xA11CE);
        check(&jacobi(4, 6), &counts, 0xB0B);
        check(&adi(4, 6), &counts, 0xC4A7);
        check(&adi_paper(4, 6), &counts, 0xD06);
    }

    /// The two-array ADI (Table 3) batch entry: j-dependent coefficients
    /// must advance with the run and divisions keep per-point order.
    #[test]
    fn adi_paper_run_matches_per_point_bitwise() {
        check(&adi_paper(4, 6), &[1, 5, 16, 33], 0xF00D);
    }
}

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
