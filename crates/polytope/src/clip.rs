//! Clipping lines against a polyhedron: the interval solver behind every
//! run-based walk of an iteration space.
//!
//! Along a line `j(t) = j0 + t·dj` each constraint `c·j + b ≥ 0` reads
//! `(c·j0 + b) + t·(c·dj) ≥ 0`, a half-line in `t`, so the integer `t` that
//! keep the line inside a convex space form one interval. This is how the
//! paper tightens the loop bounds of a boundary tile with the original
//! iteration-space inequalities (§3.2), solved once per run instead of
//! testing every point.

use crate::constraint::Constraint;
use crate::polyhedron::Polyhedron;
use tilecc_linalg::IMat;

/// The rows `c·j + b − shift ≥ 0` of a space, built once and solved along
/// lines by [`LineClip::clip`].
#[derive(Clone, Debug)]
pub struct LineClip {
    /// Each constraint `c·j + b ≥ 0` of the space with its shift.
    rows: Vec<(Constraint, i128)>,
}

impl LineClip {
    /// The rows of `space`. With `deps` (dependence columns), each row is
    /// shifted by `max_i c·d_i`: a point then passes iff every source
    /// `j − d_i` lies in `space`, since `c·(j − d_i) + b ≥ 0` for all `i`
    /// iff `c·j + b − max_i c·d_i ≥ 0`. No columns means no sources, so
    /// every point passes.
    pub fn new(space: &Polyhedron, deps: Option<&IMat>) -> Self {
        let shift = |c: &Constraint| -> Option<i128> {
            let Some(d) = deps else { return Some(0) };
            (0..d.cols())
                .map(|i| {
                    (0..c.dim())
                        .map(|k| i128::from(c.coeff(k)) * i128::from(d[(k, i)]))
                        .sum()
                })
                .max()
        };
        let rows = space.constraints().iter();
        LineClip {
            rows: rows.filter_map(|c| Some((c.clone(), shift(c)?))).collect(),
        }
    }

    /// True iff the point `x` satisfies every row.
    pub fn contains(&self, x: &[i64]) -> bool {
        self.rows.iter().all(|(c, shift)| c.eval(x) >= *shift)
    }

    /// The `t ∈ [lo, hi]` for which `j0 + t·dj` satisfies every row, as an
    /// inclusive interval, or `None` when there is none. Exact in `i128`
    /// (see [`Constraint::eval`]).
    pub fn clip(&self, j0: &[i64], dj: &[i64], lo: i64, hi: i64) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (i128::from(lo), i128::from(hi));
        for (c, shift) in &self.rows {
            // The row along the line: v0 + t·slope ≥ 0.
            let v0 = c.eval(j0) - shift;
            let slope: i128 = c
                .coeffs()
                .iter()
                .zip(dj)
                .map(|(&a, &d)| i128::from(a) * i128::from(d))
                .sum();
            match slope.signum() {
                0 if v0 < 0 => return None,
                0 => {}
                // ⇔  t ≥ ⌈−v0 / slope⌉
                1 => {
                    lo = lo.max((-v0).div_euclid(slope) + i128::from((-v0).rem_euclid(slope) != 0))
                }
                // ⇔  t ≤ ⌊v0 / −slope⌋
                _ => hi = hi.min(v0.div_euclid(-slope)),
            }
            if lo > hi {
                return None;
            }
        }
        // Both lie within the caller's [lo, hi], so they fit i64.
        Some((lo as i64, hi as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::LineClip;
    use crate::{Constraint, Polyhedron};
    use tilecc_linalg::IMat;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Brute force: the `t ∈ [lo, hi]` whose point `j0 + t·dj` (and, with
    /// `deps`, every source `j0 + t·dj − d_i`) lies in `space`.
    fn brute(
        space: &Polyhedron,
        deps: Option<&IMat>,
        j0: &[i64],
        dj: &[i64],
        lo: i64,
        hi: i64,
    ) -> Vec<i64> {
        (lo..=hi)
            .filter(|&t| {
                let j: Vec<i64> = j0.iter().zip(dj).map(|(&a, &d)| a + t * d).collect();
                match deps {
                    None => space.contains(&j),
                    Some(d) => (0..d.cols()).all(|i| {
                        let s: Vec<i64> = (0..j.len()).map(|k| j[k] - d[(k, i)]).collect();
                        space.contains(&s)
                    }),
                }
            })
            .collect()
    }

    fn assert_clip_is_brute(space: &Polyhedron, deps: Option<&IMat>, j0: &[i64], dj: &[i64]) {
        let (lo, hi) = (-12, 12);
        let want = brute(space, deps, j0, dj, lo, hi);
        let got = LineClip::new(space, deps).clip(j0, dj, lo, hi);
        let want = (!want.is_empty()).then(|| (want[0], *want.last().unwrap()));
        assert_eq!(got, want, "j0={j0:?} dj={dj:?} deps={deps:?}");
    }

    /// The solver agrees with point-by-point `contains` along random
    /// lines through random polyhedra, with and without dependence
    /// shifts, including `dj = 0` and lines that miss the space.
    #[test]
    fn clip_matches_brute_force_contains_along_random_lines() {
        let mut rng = Rng(0x1DEA_5EED);
        let (mut empty, mut still, mut hits) = (0, 0, 0);
        for _ in 0..400 {
            let dim = rng.int(1, 3) as usize;
            let mut space = Polyhedron::from_box(&vec![-6; dim], &vec![6; dim]);
            for _ in 0..rng.int(0, 3) {
                let coeffs: Vec<i64> = (0..dim).map(|_| rng.int(-3, 3)).collect();
                space.add(Constraint::new(coeffs, rng.int(-6, 8)));
            }
            let j0: Vec<i64> = (0..dim).map(|_| rng.int(-9, 9)).collect();
            let dj: Vec<i64> = if rng.int(0, 4) == 0 {
                vec![0; dim]
            } else {
                (0..dim).map(|_| rng.int(-2, 2)).collect()
            };
            let q = rng.int(0, 3) as usize;
            let mut deps = IMat::zeros(dim, q);
            for i in 0..q {
                for k in 0..dim {
                    deps[(k, i)] = rng.int(-1, 2);
                }
            }
            for deps in [None, Some(&deps)] {
                assert_clip_is_brute(&space, deps, &j0, &dj);
                match LineClip::new(&space, deps).clip(&j0, &dj, -12, 12) {
                    None => empty += 1,
                    Some(_) if dj.iter().all(|&d| d == 0) => still += 1,
                    Some(_) => hits += 1,
                }
            }
        }
        assert!(
            empty > 20 && still > 20 && hits > 100,
            "{empty} {still} {hits}"
        );
    }

    /// Coefficients and constants near `i64::MAX` are solved exactly.
    #[test]
    fn clip_is_exact_near_i64_max() {
        let big = i64::MAX - 6;
        let mut space = Polyhedron::universe(2);
        // big·x − (big − 1)·y + big ≥ 0  and  −big·x + 3 ≥ 0.
        space.add(Constraint::new(vec![big, -(big - 1)], big));
        space.add(Constraint::new(vec![-big, 0], 3));
        space.add(Constraint::new(vec![0, -1], i64::MAX));
        let deps = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        for j0 in [[0, 0], [-1, 1], [1, 3], [-5, -4]] {
            for dj in [[1, 0], [0, 1], [1, 1], [-1, 2], [0, 0]] {
                assert_clip_is_brute(&space, None, &j0, &dj);
                assert_clip_is_brute(&space, Some(&deps), &j0, &dj);
            }
        }
        assert!(LineClip::new(&space, None).contains(&[0, 1]));
        assert!(!LineClip::new(&space, None).contains(&[1, 0]));
    }
}
