//! A space's constraints as integer residuals: the one clip behind the
//! sequential scan, plan-time tile pruning, the interior-tile tests and
//! the compiled boundary-tile rows.
//!
//! A point `j` with residuals `r_k = a_k·j + b_k` lies in the space iff
//! every `r_k ≥ 0`. Along a line `j(t) = j0 + t·dj` each residual is
//! `r_k(j0) + t·(a_k·dj)`, a half-line in `t`, so the integer `t`
//! that keep the line inside a convex space form one interval. This is how
//! the paper tightens the loop bounds of a boundary tile with the original
//! iteration-space inequalities (§3.2), solved once per line instead of
//! testing every point.
//!
//! A closed parallelepiped `x + Σ_j λ_j e_j`, `λ ∈ [0, 1]ⁿ`, lies in the
//! space iff its corners do, and the lowest residual over its corners is
//! `r_k(x) + Σ_j min(0, a_k·e_j)` — one add and compare per constraint.

use crate::polyhedron::Polyhedron;
use tilecc_linalg::IMat;

/// The constraints `a_k·j + b_k ≥ 0` of a space, built once, with the
/// products `a_k·d_i` that test a dependence source, the window shifts
/// `max_i a_k·d_i`, and the corner reach of a box. A point `j` lies in the
/// space iff every `r_k ≥ 0`, its source `j − d_i` iff every
/// `r_k ≥ a_k·d_i` ([`Clamp::source_clip`] along a line), and every
/// source at once iff every `r_k` reaches its shift.
pub struct Clamp {
    n: usize,
    /// `a_k`, row-major: `a[k·n..(k + 1)·n]`.
    a: Vec<i64>,
    b: Vec<i64>,
    /// `a_k·d_i`, source-major: `src[i·K + k]` for `K` constraints.
    src: Vec<i128>,
    /// Per dependence `i`, the constraints with `a_k·d_i > 0`: the only
    /// ones that can cut off the source of a point in the space.
    cutting: Vec<Vec<usize>>,
    /// `max_i a_k·d_i`; 0 without dependences, when the window is the
    /// in-space interval.
    shift: Vec<i128>,
    /// `Σ_j min(0, a_k·e_j)` over the box edges `e_j`.
    reach: Vec<i128>,
    /// The dependence columns `d_i`.
    pub deps: IMat,
}

impl Clamp {
    /// The clamp of `space` under the dependence columns `deps`, placed at
    /// boxes spanned by the columns of `edges` (no columns: a point).
    pub fn new(space: &Polyhedron, deps: &IMat, edges: &IMat) -> Self {
        let rows = space.constraints();
        let mut clamp = Clamp {
            n: space.dim(),
            a: rows.iter().flat_map(|c| c.coeffs().to_vec()).collect(),
            b: rows.iter().map(|c| c.constant()).collect(),
            src: Vec::new(),
            cutting: Vec::new(),
            shift: Vec::new(),
            reach: Vec::new(),
            deps: deps.clone(),
        };
        let cols: Vec<Vec<i64>> = (0..deps.cols()).map(|i| deps.col(i)).collect();
        clamp.src = cols.iter().flat_map(|d| clamp.dots(d)).collect();
        let k = rows.len();
        clamp.cutting = (0..cols.len())
            .map(|i| (0..k).filter(|&kk| clamp.src[i * k + kk] > 0).collect())
            .collect();
        clamp.shift = (0..k)
            .map(|kk| clamp.src.iter().skip(kk).step_by(k).max().map_or(0, |&m| m))
            .collect();
        let edges: Vec<Vec<i64>> = (0..edges.cols()).map(|j| edges.col(j)).collect();
        clamp.reach = (0..k)
            .map(|kk| edges.iter().map(|e| clamp.dot(kk, e).min(0)).sum())
            .collect();
        clamp
    }

    /// `a_k·x`, exactly.
    #[inline]
    fn dot(&self, k: usize, x: &[i64]) -> i128 {
        let a = &self.a[k * self.n..(k + 1) * self.n];
        a.iter()
            .zip(x)
            .map(|(&c, &v)| i128::from(c) * i128::from(v))
            .sum()
    }

    /// `a_k·x` of every constraint `k`, exactly.
    pub fn dots<'a>(&'a self, x: &'a [i64]) -> impl Iterator<Item = i128> + 'a {
        (0..self.b.len()).map(move |k| self.dot(k, x))
    }

    /// The residual `a_k·x + b_k` of constraint `k` at `x`.
    #[inline]
    pub fn residual(&self, k: usize, x: &[i64]) -> i128 {
        self.dot(k, x) + i128::from(self.b[k])
    }

    /// The clamp placed at `origin` (a tile's origin iteration, or any
    /// point): its residuals `a_k·origin + b_k`.
    pub fn at(&self, origin: &[i64]) -> TileClamp<'_> {
        let base = (0..self.b.len()).map(|k| self.residual(k, origin));
        TileClamp {
            base: base.collect(),
            clamp: self,
        }
    }

    /// Clip `t ∈ [lo, hi]` along a line whose constraint-`k` residual is
    /// `v_k + t·s_k`, `(v_k, s_k) = line(k)`: the `s0..=s1` in the space
    /// and, with `window`, the `w0..=w1` among them whose every dependence
    /// source lies in the space too (`w0 = s1 + 1` when none does;
    /// `w0..=w1` is `s0..=s1` without `window`), as `[s0, s1, w0, w1]`.
    /// `None` when no `t` is in the space. Exact in `i128`.
    #[inline]
    pub fn clip(
        &self,
        lo: i64,
        hi: i64,
        window: bool,
        line: impl Fn(usize) -> (i128, i128),
    ) -> Option<[i64; 4]> {
        let (mut sp, mut win) = ((i128::from(lo), i128::from(hi)), (i128::MIN, i128::MAX));
        for k in 0..self.b.len() {
            let (v, slope) = line(k);
            cut(v, slope, &mut sp);
            if sp.0 > sp.1 {
                return None;
            }
            if window {
                cut(v - self.shift[k], slope, &mut win);
            }
        }
        // Both lie within the caller's [lo, hi], so they fit i64.
        let (s0, s1) = (sp.0 as i64, sp.1 as i64);
        if !window {
            return Some([s0, s1, s0, s1]);
        }
        let (w0, w1) = (win.0.max(sp.0), win.1.min(sp.1));
        Some(if w0 > w1 {
            [s0, s1, s1 + 1, s1]
        } else {
            [s0, s1, w0 as i64, w1 as i64]
        })
    }

    /// Clip the in-space positions `t ∈ [lo, hi]` of a line whose
    /// constraint-`k` residual is `v_k + t·s_k`, `(v_k, s_k) = line(k)` as
    /// in [`Clamp::clip`], to the `t` whose dependence-`i` source `j − d_i`
    /// lies in the space too: the source's residuals are the point's
    /// shifted by `a_k·d_i`, so it stays in the convex space on one
    /// interval `[t0, t1]`. Every point of `[lo, hi]` must lie in the
    /// space: a constraint with `a_k·d_i ≤ 0` then holds at every source,
    /// and only the others are cut. `None` when no `t` keeps its source in
    /// the space. Exact in `i128`.
    #[inline]
    pub fn source_clip(
        &self,
        lo: i64,
        hi: i64,
        i: usize,
        line: impl Fn(usize) -> (i128, i128),
    ) -> Option<[i64; 2]> {
        let kk = self.b.len();
        let mut sp = (i128::from(lo), i128::from(hi));
        for &k in &self.cutting[i] {
            let (v, slope) = line(k);
            cut(v - self.src[i * kk + k], slope, &mut sp);
            if sp.0 > sp.1 {
                return None;
            }
        }
        // Both lie within the caller's [lo, hi], so they fit i64.
        Some([sp.0 as i64, sp.1 as i64])
    }
}

/// A [`Clamp`] placed at one tile.
pub struct TileClamp<'a> {
    /// The clamp placed.
    pub clamp: &'a Clamp,
    /// The residuals of the tile's origin, one per constraint.
    pub base: Vec<i128>,
}

impl TileClamp<'_> {
    /// Each constraint's lowest residual over the corners of the box.
    fn lows(&self) -> impl Iterator<Item = i128> + '_ {
        self.base.iter().zip(&self.clamp.reach).map(|(r, e)| r + e)
    }

    /// Whether every corner of the box at the origin — hence the whole box,
    /// by convexity — lies in the space.
    pub fn interior(&self) -> bool {
        self.lows().all(|low| low >= 0)
    }

    /// [`TileClamp::interior`], and every dependence source of every point
    /// of the box lies in the space too: each constraint's lowest corner
    /// residual reaches `max(0, max_i a_k·d_i)`.
    pub fn compute_interior(&self) -> bool {
        self.lows()
            .zip(&self.clamp.shift)
            .all(|(low, s)| low >= (*s).max(0))
    }
}

/// Cut the interval `t ∈ [lo, hi]` to the `t` with `v + t·slope ≥ 0`
/// (empty as `lo > hi`): `t ≥ ⌈−v / slope⌉` for a positive slope,
/// `t ≤ ⌊v / −slope⌋` for a negative one. The division runs in `i64` when
/// both operands fit it, in `i128` otherwise.
#[inline]
fn cut(v: i128, slope: i128, (lo, hi): &mut (i128, i128)) {
    use tilecc_linalg::vecops::{div_ceil, div_floor};
    // Both operands and their negations fit i64.
    let fits = |x: i128| x.unsigned_abs() <= i64::MAX as u128;
    if slope == 0 {
        if v < 0 {
            *lo = i128::MAX;
        }
    } else if fits(v) && fits(slope) {
        let (v, s) = (v as i64, slope as i64);
        if s > 0 {
            *lo = (*lo).max(i128::from(if s == 1 { -v } else { div_ceil(-v, s) }));
        } else {
            *hi = (*hi).min(i128::from(if s == -1 { v } else { div_floor(v, -s) }));
        }
    } else if slope > 0 {
        *lo = (*lo).max((-v).div_euclid(slope) + i128::from((-v).rem_euclid(slope) != 0));
    } else {
        *hi = (*hi).min(v.div_euclid(-slope));
    }
}

#[cfg(test)]
mod tests {
    use super::Clamp;
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

    /// The clip of the line `j0 + t·dj`, `t ∈ [lo, hi]`, under `deps`.
    fn clip(
        space: &Polyhedron,
        deps: &IMat,
        j0: &[i64],
        dj: &[i64],
        lo: i64,
        hi: i64,
    ) -> Option<[i64; 4]> {
        let clamp = Clamp::new(space, deps, &IMat::zeros(space.dim(), 0));
        let slope: Vec<i128> = clamp.dots(dj).collect();
        clamp.clip(lo, hi, true, |k| (clamp.residual(k, j0), slope[k]))
    }

    /// Brute force: the first and last `t ∈ [lo, hi]` whose point
    /// `j0 + t·dj` lies in `space`, and among them those whose every
    /// source `j0 + t·dj − d_i` does too.
    fn brute(
        space: &Polyhedron,
        deps: &IMat,
        j0: &[i64],
        dj: &[i64],
        lo: i64,
        hi: i64,
    ) -> Option<[i64; 4]> {
        let at = |t: i64| -> Vec<i64> { j0.iter().zip(dj).map(|(&a, &d)| a + t * d).collect() };
        let inside: Vec<i64> = (lo..=hi).filter(|&t| space.contains(&at(t))).collect();
        let (&s0, &s1) = (inside.first()?, inside.last()?);
        let window: Vec<i64> = (s0..=s1)
            .filter(|&t| {
                let j = at(t);
                (0..deps.cols()).all(|i| {
                    let s: Vec<i64> = (0..j.len()).map(|k| j[k] - deps[(k, i)]).collect();
                    space.contains(&s)
                })
            })
            .collect();
        Some(match (window.first(), window.last()) {
            (Some(&w0), Some(&w1)) => [s0, s1, w0, w1],
            _ => [s0, s1, s1 + 1, s1],
        })
    }

    /// The window clip, and each dependence's source clip of the in-space
    /// interval, against their brute-force twins: the in-space `t` whose
    /// source `j0 + t·dj − d_i` lies in the space are one interval, the
    /// clip's.
    fn assert_clip_is_brute(space: &Polyhedron, deps: &IMat, j0: &[i64], dj: &[i64]) {
        let (lo, hi) = (-12, 12);
        let want = brute(space, deps, j0, dj, lo, hi);
        let got = clip(space, deps, j0, dj, lo, hi);
        assert_eq!(got, want, "j0={j0:?} dj={dj:?} deps={deps:?}");
        let clamp = Clamp::new(space, deps, &IMat::zeros(space.dim(), 0));
        let slope: Vec<i128> = clamp.dots(dj).collect();
        let line = |k| (clamp.residual(k, j0), slope[k]);
        let Some([s0, s1, ..]) = got else {
            return;
        };
        for i in 0..deps.cols() {
            let src = |t: i64| -> Vec<i64> {
                (0..j0.len())
                    .map(|k| j0[k] + t * dj[k] - deps[(k, i)])
                    .collect()
            };
            let kept: Vec<i64> = (s0..=s1).filter(|&t| space.contains(&src(t))).collect();
            let got = clamp.source_clip(s0, s1, i, line);
            let want = kept.first().map(|&t0| [t0, t0 + kept.len() as i64 - 1]);
            assert_eq!(got, want, "source {i}: j0={j0:?} dj={dj:?} deps={deps:?}");
            assert!(want.is_none_or(|[_, t1]| t1 == *kept.last().unwrap()));
        }
    }

    /// The residual clip agrees with point-by-point `contains` along
    /// random lines through random polyhedra, with and without dependence
    /// shifts, including `dj = 0` and lines that miss the space.
    #[test]
    fn clip_matches_brute_force_contains_along_random_lines() {
        let mut rng = Rng(0x1DEA_5EED);
        let (mut empty, mut still, mut hits, mut narrowed) = (0, 0, 0, 0);
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
            for deps in [IMat::zeros(dim, 0), deps] {
                assert_clip_is_brute(&space, &deps, &j0, &dj);
                match clip(&space, &deps, &j0, &dj, -12, 12) {
                    None => empty += 1,
                    Some(_) if dj.iter().all(|&d| d == 0) => still += 1,
                    Some([s0, s1, w0, w1]) => {
                        hits += 1;
                        narrowed += usize::from([s0, s1] != [w0, w1]);
                    }
                }
            }
        }
        assert!(
            empty > 20 && still > 20 && hits > 100 && narrowed > 20,
            "{empty} {still} {hits} {narrowed}"
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
                assert_clip_is_brute(&space, &IMat::zeros(2, 0), &j0, &dj);
                assert_clip_is_brute(&space, &deps, &j0, &dj);
            }
        }
        let point = Clamp::new(&space, &deps, &IMat::zeros(2, 0));
        assert!(point.at(&[0, 1]).interior());
        assert!(!point.at(&[1, 0]).interior());
    }

    /// A box lies in the space iff every corner does, by residuals: random
    /// boxes with random (also negative and zero) edges against their
    /// `2ⁿ` corners, and, for `compute_interior`, the corners shifted by
    /// every dependence.
    #[test]
    fn box_tests_match_their_corners() {
        let mut rng = Rng(0xB0C5_0001);
        let (mut inside, mut outside, mut sources_out) = (0, 0, 0);
        for _ in 0..600 {
            let dim = rng.int(1, 3) as usize;
            let mut space = Polyhedron::from_box(&vec![-8; dim], &vec![8; dim]);
            for _ in 0..rng.int(0, 2) {
                let coeffs: Vec<i64> = (0..dim).map(|_| rng.int(-2, 2)).collect();
                space.add(Constraint::new(coeffs, rng.int(0, 10)));
            }
            let mut edges = IMat::zeros(dim, dim);
            let mut deps = IMat::zeros(dim, rng.int(0, 2) as usize);
            for k in 0..dim {
                for j in 0..dim {
                    edges[(k, j)] = rng.int(-3, 4);
                }
                for i in 0..deps.cols() {
                    deps[(k, i)] = rng.int(-1, 2);
                }
            }
            let origin: Vec<i64> = (0..dim).map(|_| rng.int(-7, 5)).collect();
            let corners: Vec<Vec<i64>> = (0..1usize << dim)
                .map(|mask| {
                    (0..dim)
                        .map(|k| {
                            let e = (0..dim).filter(|&j| mask >> j & 1 == 1);
                            origin[k] + e.map(|j| edges[(k, j)]).sum::<i64>()
                        })
                        .collect()
                })
                .collect();
            let interior = corners.iter().all(|c| space.contains(c));
            let sources = (0..deps.cols()).all(|i| {
                corners.iter().all(|c| {
                    let s: Vec<i64> = (0..dim).map(|k| c[k] - deps[(k, i)]).collect();
                    space.contains(&s)
                })
            });
            let tc = Clamp::new(&space, &deps, &edges);
            let tc = tc.at(&origin);
            assert_eq!(tc.interior(), interior, "{origin:?} {edges:?}");
            assert_eq!(
                tc.compute_interior(),
                interior && sources,
                "{origin:?} {deps:?}"
            );
            inside += usize::from(interior);
            outside += usize::from(!interior);
            sources_out += usize::from(interior && !sources);
        }
        assert!(
            inside > 50 && outside > 50 && sources_out > 10,
            "{inside} {outside} {sources_out}"
        );
    }

    /// `cut` against the half-line it cuts, `v + t·slope ≥ 0` evaluated in
    /// `i128` at every `t` of a window, with operands in `i64`, past it
    /// (the `i128` divisions) and at its edge.
    #[test]
    fn cut_solves_residual_half_lines_exactly() {
        let max = i128::from(i64::MAX);
        let mut g = Rng(0x0C07_0001);
        let mut wide = 0;
        for case in 0..4000 {
            let scale = [1, 1 << 20, 1 << 40, max, max * 1024][case % 5];
            let mut pick = |r: i128| (g.next() as i128 % (2 * r + 1)) - r;
            let slope = match case % 7 {
                0 => 0,
                1 => 1,
                2 => -1,
                _ => pick(scale.min(1 << 12)) * (scale / (1 << 12)).max(1),
            };
            // Centre the crossing inside [−20, 20], then jitter it.
            let v = -slope * pick(15) + pick(scale.min(1 << 10));
            wide +=
                usize::from(v.unsigned_abs() > max as u128 || slope.unsigned_abs() > max as u128);
            let mut got = (-20i128, 20i128);
            super::cut(v, slope, &mut got);
            let kept: Vec<i128> = (-20..=20).filter(|&t| v + t * slope >= 0).collect();
            match (kept.first(), kept.last()) {
                (Some(&a), Some(&b)) => assert_eq!(got, (a, b), "v={v} slope={slope}"),
                _ => assert!(got.0 > got.1, "v={v} slope={slope}: {got:?}"),
            }
        }
        assert!(wide > 500, "only {wide} cases outside i64");
    }
}
