//! Convex polyhedra as conjunctions of affine inequalities, with
//! Fourier–Motzkin elimination.
//!
//! The paper's iteration spaces (§2.1) are exactly such polyhedra: bisections
//! of finitely many half-spaces of `Zⁿ`. Fourier–Motzkin elimination computes
//! the loop bounds `l_k = max(⌈f_k1⌉, …)` / `u_k = min(⌊g_k1⌋, …)` of both the
//! original nest and the tile space `J^S` (§2.3).

use crate::constraint::Constraint;
use crate::error::PolytopeError;
use std::collections::HashSet;

/// A convex polyhedron `{ x ∈ Qⁿ | A·x + b ≥ 0 }`.
#[derive(Clone, Debug)]
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe polyhedron (no constraints) of the given dimension.
    pub fn universe(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: vec![],
        }
    }

    /// An axis-aligned integer box `lo_k ≤ x_k ≤ hi_k` (inclusive).
    pub fn from_box(lo: &[i64], hi: &[i64]) -> Self {
        assert_eq!(lo.len(), hi.len());
        let dim = lo.len();
        let mut p = Polyhedron::universe(dim);
        for k in 0..dim {
            p.add(Constraint::lower_bound(dim, k, lo[k]));
            p.add(Constraint::upper_bound(dim, k, hi[k]));
        }
        p
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Add a constraint. Tautologies are dropped, exact duplicates are
    /// deduplicated, and *parallel* constraints (identical coefficient
    /// vectors) are merged keeping only the tighter one — essential to keep
    /// Fourier–Motzkin constraint growth under control.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim, "constraint dimension mismatch");
        if c.is_tautology() {
            return;
        }
        for existing in &mut self.constraints {
            if existing.coeffs() == c.coeffs() {
                // a·x + b1 ≥ 0 and a·x + b2 ≥ 0: the smaller constant binds.
                if c.constant() < existing.constant() {
                    *existing = c;
                }
                return;
            }
        }
        self.constraints.push(c);
    }

    /// True iff the integer point `x` satisfies all constraints.
    pub fn contains(&self, x: &[i64]) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(x))
    }

    /// True iff an explicit contradiction (`0 ≥ k`, `k > 0`) is present.
    pub fn has_contradiction(&self) -> bool {
        self.constraints.iter().any(|c| c.is_contradiction())
    }

    /// Exact rational emptiness test: eliminate every variable with
    /// Fourier–Motzkin; the polyhedron is empty iff a contradiction
    /// (`0 ≥ k`, `k > 0`) appears in the fully eliminated system.
    pub fn is_empty_rational(&self) -> Result<bool, PolytopeError> {
        let mut p = self.clone();
        for k in (0..self.dim).rev() {
            if p.has_contradiction() {
                return Ok(true);
            }
            p = p.eliminate(k)?;
        }
        Ok(p.has_contradiction())
    }

    /// Remove constraints that are redundant over the *integer* points:
    /// constraint `a·x + b ≥ 0` is dropped iff
    /// `(P \ c) ∧ (−a·x − b − 1 ≥ 0)` is rationally empty. Any integer
    /// violator of `c` has `a·x + b ≤ −1` and would witness that system, so
    /// removal preserves the integer point set exactly (it may enlarge the
    /// rational relaxation by less than one unit along `a`).
    pub fn remove_redundant(&self) -> Result<Polyhedron, PolytopeError> {
        let mut kept: Vec<Constraint> = self.constraints.clone();
        let mut i = 0;
        while i < kept.len() {
            let candidate = kept[i].clone();
            // Build P' = (kept \ candidate) ∧ ¬candidate.
            let mut test = Polyhedron::universe(self.dim);
            for (j, c) in kept.iter().enumerate() {
                if j != i {
                    test.add(c.clone());
                }
            }
            let neg = Constraint::new(
                candidate.coeffs().iter().map(|&v| -v).collect(),
                -candidate.constant() - 1,
            );
            test.add(neg);
            if test.is_empty_rational()? {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        Ok(Polyhedron {
            dim: self.dim,
            constraints: kept,
        })
    }

    /// Fourier–Motzkin elimination of variable `k`. The result is a
    /// polyhedron over the remaining `dim − 1` variables that is the exact
    /// rational shadow (projection) of `self`.
    pub fn eliminate(&self, k: usize) -> Result<Polyhedron, PolytopeError> {
        assert!(k < self.dim, "variable out of range");
        let drop_var = |c: &Constraint| -> Constraint {
            let coeffs: Vec<i64> = c
                .coeffs()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != k)
                .map(|(_, &v)| v)
                .collect();
            Constraint::new(coeffs, c.constant())
        };

        let mut lowers = vec![]; // coeff of x_k > 0
        let mut uppers = vec![]; // coeff of x_k < 0
        let mut out = Polyhedron::universe(self.dim - 1);
        // One dedup set shared by pass-throughs and combinations: a lower ×
        // upper pair frequently reproduces a constraint that passed through
        // with a zero coefficient, and the zero arm used to bypass `seen`,
        // leaving every such duplicate to `add`'s linear merge scan on each
        // of the nested projections in `LoopNestBounds::new`.
        let mut seen: HashSet<Constraint> = HashSet::new();
        for c in &self.constraints {
            match c.coeff(k).signum() {
                0 => {
                    let dropped = drop_var(c);
                    if seen.insert(dropped.clone()) {
                        out.add(dropped);
                    }
                }
                1.. => lowers.push(c),
                _ => uppers.push(c),
            }
        }
        for l in &lowers {
            for u in &uppers {
                // λ·l + μ·u with λ = -u_k, μ = l_k cancels x_k.
                let combined = l.combine(-u.coeff(k), u, l.coeff(k))?;
                debug_assert_eq!(combined.coeff(k), 0);
                let projected = drop_var(&combined);
                if seen.insert(projected.clone()) {
                    out.add(projected);
                }
            }
        }
        Ok(out)
    }

    /// Project onto the first `m` variables by eliminating variables
    /// `m, m+1, …, dim−1`.
    ///
    /// The eliminations commute, so the order is chosen greedily (the
    /// variable with the smallest lower×upper product first) and redundant
    /// constraints are pruned whenever the system grows past a threshold —
    /// plain innermost-first elimination can blow up double-exponentially
    /// on the dense constraint systems produced by skewed tilings.
    pub fn project_onto_first(&self, m: usize) -> Result<Polyhedron, PolytopeError> {
        assert!(m <= self.dim);
        let mut p = self.clone();
        // Track the *original* indices still to eliminate; each eliminate
        // shifts later variables down by one.
        let mut remaining: Vec<usize> = (m..self.dim).collect();
        while !remaining.is_empty() {
            // Greedy: cheapest variable (fewest new constraints) first.
            let (pos, &var) = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &v)| {
                    let mut lo = 0usize;
                    let mut hi = 0usize;
                    for c in p.constraints() {
                        match c.coeff(v).signum() {
                            1 => lo += 1,
                            -1 => hi += 1,
                            _ => {}
                        }
                    }
                    lo * hi
                })
                .expect("non-empty remaining");
            p = p.eliminate(var)?;
            remaining.remove(pos);
            for r in &mut remaining {
                if *r > var {
                    *r -= 1;
                }
            }
            if p.constraints.len() > 64 {
                p = p.remove_redundant()?;
            }
        }
        Ok(p)
    }

    /// Inclusive integer bounding box `(lo, hi)`, each variable projected
    /// alone by eliminating all others: `Err` on coefficient overflow,
    /// `Ok(None)` if the polyhedron is empty or unbounded.
    #[allow(clippy::type_complexity)]
    pub fn bounding_box(&self) -> Result<Option<(Vec<i64>, Vec<i64>)>, PolytopeError> {
        let mut lo = vec![0i64; self.dim];
        let mut hi = vec![0i64; self.dim];
        for k in 0..self.dim {
            let mut p = self.clone();
            for v in (0..self.dim).rev() {
                if v != k {
                    p = p.eliminate(v)?;
                }
            }
            let Some((l, h)) = p.integer_bounds(0, &[]) else {
                return Ok(None);
            };
            lo[k] = l;
            hi[k] = h;
        }
        Ok(Some((lo, hi)))
    }

    /// Exact rational bounds of variable `k` given fixed values of *all other
    /// variables in `outer` being authoritative for indices `< k` only*:
    /// returns `(max lower, min upper)` as integers, i.e. the loop bounds
    /// `l_k ≤ x_k ≤ u_k` with ceiling/floor applied. Constraints mentioning
    /// variables `> k` must have been eliminated beforehand.
    ///
    /// Returns `None` if the range is empty or unbounded on either side.
    pub fn integer_bounds(&self, k: usize, outer: &[i64]) -> Option<(i64, i64)> {
        assert!(k < self.dim);
        assert!(outer.len() >= k, "need values for all outer variables");
        // Bound arithmetic is exact in i128; a final bound outside i64 means
        // the range is un-enumerable anyway and is reported as absent.
        let mut lo: Option<i128> = None;
        let mut hi: Option<i128> = None;
        for c in &self.constraints {
            debug_assert!(
                c.coeffs()[k + 1..].iter().all(|&v| v == 0),
                "integer_bounds requires inner variables to be eliminated"
            );
            // Inner coefficients are zero, so the outer prefix alone gives
            // `Σ_{i≠k} a_i·x_i + b` — no padded point, no allocation.
            let rest = c.coeffs()[..k]
                .iter()
                .zip(outer)
                .fold(c.constant() as i128, |acc, (&a, &v)| {
                    acc + (a as i128) * (v as i128)
                });
            let a = c.coeff(k) as i128;
            if a == 0 {
                // Constraint only involves outer variables (or is a pure
                // contradiction): if violated, the range is empty.
                if rest < 0 {
                    return None;
                }
                continue;
            }
            if a > 0 {
                // a·x_k + rest ≥ 0 ⇒ x_k ≥ ⌈-rest / a⌉
                let b = (-rest).div_euclid(a) + i128::from((-rest).rem_euclid(a) != 0);
                lo = Some(lo.map_or(b, |v| v.max(b)));
            } else {
                // a·x_k + rest ≥ 0 ⇒ x_k ≤ ⌊rest / (-a)⌋
                let b = rest.div_euclid(-a);
                hi = Some(hi.map_or(b, |v| v.min(b)));
            }
        }
        match (lo, hi) {
            (Some(l), Some(h)) if l <= h => match (i64::try_from(l), i64::try_from(h)) {
                (Ok(l), Ok(h)) => Some((l, h)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Precomputed loop-nest bounds: system `k` constrains variables `0..=k`
/// only, obtained by eliminating all inner variables. Together they drive a
/// lexicographic scan of the integer points (the generated loop nest).
#[derive(Clone, Debug)]
pub struct LoopNestBounds {
    /// `systems[k]` is `P` projected onto the first `k+1` variables.
    systems: Vec<Polyhedron>,
    dim: usize,
}

impl LoopNestBounds {
    /// Compute the bounds systems for all loop levels of `p`.
    pub fn new(p: &Polyhedron) -> Result<Self, PolytopeError> {
        let dim = p.dim();
        let mut systems = Vec::with_capacity(dim);
        for k in 0..dim {
            systems.push(p.project_onto_first(k + 1)?);
        }
        Ok(LoopNestBounds { systems, dim })
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Loop bounds of level `k` given the values of the outer variables.
    /// These are the paper's `l_k` / `u_k` expressions evaluated at runtime.
    pub fn bounds(&self, k: usize, outer: &[i64]) -> Option<(i64, i64)> {
        self.systems[k].integer_bounds(k, outer)
    }

    /// Iterate the integer points in lexicographic order.
    pub fn points(&self) -> PointIter<'_> {
        PointIter {
            walk: Odometer::new(self),
        }
    }

    /// Walk the innermost ranges in lexicographic order: one
    /// `(outer, a, h)` per non-empty range `a ≤ x_{n−1} ≤ h` at the outer
    /// point `outer` (levels `0..n−1`). Allocation-free per range.
    pub fn runs(&self) -> RunIter<'_> {
        RunIter {
            walk: Odometer::new(self),
            started: false,
        }
    }
}

/// The lexicographic odometer shared by [`PointIter`] and [`RunIter`]:
/// every level holds a value within its bounds given the levels outside
/// it — the executable analogue of the generated loop nest.
struct Odometer<'a> {
    bounds: &'a LoopNestBounds,
    point: Vec<i64>,
    hi: Vec<i64>,
    done: bool,
}

impl<'a> Odometer<'a> {
    fn new(bounds: &'a LoopNestBounds) -> Self {
        let dim = bounds.dim();
        let mut it = Odometer {
            bounds,
            point: vec![0; dim],
            hi: vec![0; dim],
            done: false,
        };
        if !it.seek(0) {
            it.done = true;
        }
        it
    }

    /// Rewind levels `from..` to their lower bounds, backtracking when a
    /// level's range is empty (FM shadows can over-approximate integer
    /// projections, so empty inner ranges are expected and handled).
    #[allow(clippy::mut_range_bound)] // `from` feeds the *next* 'outer pass
    fn seek(&mut self, mut from: usize) -> bool {
        let dim = self.bounds.dim();
        'outer: loop {
            for lvl in from..dim {
                match self.bounds.bounds(lvl, &self.point[..lvl]) {
                    Some((lo, hi)) => {
                        self.point[lvl] = lo;
                        self.hi[lvl] = hi;
                    }
                    None => {
                        // Step the deepest earlier level with room.
                        let mut k = lvl;
                        while k > 0 {
                            k -= 1;
                            if self.point[k] < self.hi[k] {
                                self.point[k] += 1;
                                from = k + 1;
                                continue 'outer;
                            }
                        }
                        return false;
                    }
                }
            }
            return true;
        }
    }

    /// Step the deepest of levels `0..levels` with room and rewind the
    /// levels inside it; marks the walk done when none has room.
    fn advance(&mut self, levels: usize) {
        let mut k = levels;
        while k > 0 {
            k -= 1;
            if self.point[k] < self.hi[k] {
                self.point[k] += 1;
                if !self.seek(k + 1) {
                    // seek() already backtracked to exhaustion.
                    self.done = true;
                }
                return;
            }
        }
        self.done = true;
    }
}

/// Lexicographic iterator over the integer points of a polyhedron, driven by
/// [`LoopNestBounds`]. Yields one `Vec` per point; per-point hot loops walk
/// [`LoopNestBounds::runs`] instead.
pub struct PointIter<'a> {
    walk: Odometer<'a>,
}

impl<'a> Iterator for PointIter<'a> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.walk.done {
            return None;
        }
        let out = self.walk.point.clone();
        self.walk.advance(self.walk.bounds.dim());
        Some(out)
    }
}

/// Lending walk over the innermost ranges of a polyhedron (see
/// [`LoopNestBounds::runs`]).
pub struct RunIter<'a> {
    walk: Odometer<'a>,
    started: bool,
}

impl<'a> RunIter<'a> {
    /// The next innermost range as `(outer, a, h)`: every point
    /// `(outer, x)` with `a ≤ x ≤ h` is in the polyhedron. `None` once the
    /// walk is exhausted.
    #[allow(clippy::should_implement_trait)] // lends `outer` from `self`
    pub fn next(&mut self) -> Option<(&[i64], i64, i64)> {
        let inner = self.walk.bounds.dim() - 1;
        if self.started {
            self.walk.advance(inner);
        }
        self.started = true;
        if self.walk.done {
            return None;
        }
        let w = &self.walk;
        Some((&w.point[..inner], w.point[inner], w.hi[inner]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emptiness_detection() {
        let mut p = Polyhedron::from_box(&[0, 0], &[5, 5]);
        assert!(!p.is_empty_rational().unwrap());
        p.add(Constraint::new(vec![1, 1], -100));
        assert!(p.is_empty_rational().unwrap());
        // A rationally non-empty sliver.
        let mut q = Polyhedron::universe(1);
        q.add(Constraint::new(vec![2], -1)); // x >= 1/2
        q.add(Constraint::new(vec![-2], 1)); // x <= 1/2
        assert!(!q.is_empty_rational().unwrap());
    }

    #[test]
    fn redundant_constraints_are_removed() {
        let mut p = Polyhedron::from_box(&[0, 0], &[4, 4]);
        p.add(Constraint::new(vec![1, 0], 10)); // x >= -10: redundant
        p.add(Constraint::new(vec![-1, -1], 100)); // x + y <= 100: redundant
        let r = p.remove_redundant().unwrap();
        assert_eq!(r.constraints().len(), 4, "{:?}", r.constraints());
        // Same integer point set.
        for x in -1..6 {
            for y in -1..6 {
                assert_eq!(p.contains(&[x, y]), r.contains(&[x, y]));
            }
        }
    }

    #[test]
    fn remove_redundant_keeps_binding_constraints() {
        let mut p = Polyhedron::from_box(&[0, 0], &[8, 8]);
        p.add(Constraint::new(vec![-1, -1], 9)); // x + y <= 9 binds
        let r = p.remove_redundant().unwrap();
        assert!(r.constraints().len() >= 5 - 1);
        assert!(!r.contains(&[8, 8]));
        assert!(r.contains(&[4, 5]));
    }

    #[test]
    fn box_membership() {
        let p = Polyhedron::from_box(&[0, 0], &[3, 2]);
        assert!(p.contains(&[0, 0]));
        assert!(p.contains(&[3, 2]));
        assert!(!p.contains(&[4, 0]));
        assert!(!p.contains(&[0, -1]));
    }

    #[test]
    fn eliminate_projects_triangle() {
        // Triangle: x >= 0, y >= 0, x + y <= 4. Projecting out y gives 0 <= x <= 4.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], 0));
        p.add(Constraint::new(vec![0, 1], 0));
        p.add(Constraint::new(vec![-1, -1], 4));
        let q = p.eliminate(1).unwrap();
        assert_eq!(q.dim(), 1);
        assert!(q.contains(&[0]));
        assert!(q.contains(&[4]));
        assert!(!q.contains(&[5]));
        assert!(!q.contains(&[-1]));
    }

    #[test]
    fn loop_bounds_of_triangle() {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], 0));
        p.add(Constraint::new(vec![0, 1], 0));
        p.add(Constraint::new(vec![-1, -1], 4));
        let b = LoopNestBounds::new(&p).unwrap();
        assert_eq!(b.bounds(0, &[]), Some((0, 4)));
        assert_eq!(b.bounds(1, &[0]), Some((0, 4)));
        assert_eq!(b.bounds(1, &[4]), Some((0, 0)));
        let pts: Vec<_> = b.points().collect();
        assert_eq!(pts.len(), 5 + 4 + 3 + 2 + 1);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts.last().unwrap(), &vec![4, 0]);
    }

    #[test]
    fn points_match_brute_force_on_skewed_space() {
        // Skewed SOR-like space: 1 <= t <= 3, t+1 <= i <= t+4, 2t+i-? keep 3D small:
        let mut p = Polyhedron::universe(3);
        p.add(Constraint::new(vec![1, 0, 0], -1)); // t >= 1
        p.add(Constraint::new(vec![-1, 0, 0], 3)); // t <= 3
        p.add(Constraint::new(vec![-1, 1, 0], -1)); // i >= t+1
        p.add(Constraint::new(vec![1, -1, 0], 4)); // i <= t+4
        p.add(Constraint::new(vec![-2, 0, 1], -1)); // j >= 2t+1
        p.add(Constraint::new(vec![2, 0, -1], 5)); // j <= 2t+5
        let b = LoopNestBounds::new(&p).unwrap();
        let fast: Vec<_> = b.points().collect();
        let mut slow = vec![];
        for t in -1..6 {
            for i in -1..10 {
                for j in -1..14 {
                    if p.contains(&[t, i, j]) {
                        slow.push(vec![t, i, j]);
                    }
                }
            }
        }
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 3 * 4 * 5);
    }

    /// Expanding every innermost range reproduces the point walk exactly,
    /// including spaces whose FM shadow has empty integer columns.
    #[test]
    fn runs_expand_to_the_point_walk() {
        let mut skewed = Polyhedron::universe(3);
        skewed.add(Constraint::new(vec![1, 0, 0], -1));
        skewed.add(Constraint::new(vec![-1, 0, 0], 3));
        skewed.add(Constraint::new(vec![-1, 1, 0], -1));
        skewed.add(Constraint::new(vec![1, -1, 0], 4));
        skewed.add(Constraint::new(vec![-2, 0, 1], -1));
        skewed.add(Constraint::new(vec![2, 0, -1], 5));
        let mut holes = Polyhedron::universe(2);
        holes.add(Constraint::new(vec![-3, 1], 0)); // y >= 3x
        holes.add(Constraint::new(vec![3, -1], 1)); // y <= 3x + 1
        holes.add(Constraint::new(vec![0, 1], 0));
        holes.add(Constraint::new(vec![0, -1], 9));
        let line = Polyhedron::from_box(&[-4], &[7]);
        for p in [skewed, holes, line] {
            let b = LoopNestBounds::new(&p).unwrap();
            let mut expanded = vec![];
            let mut runs = b.runs();
            while let Some((outer, a, h)) = runs.next() {
                assert!(a <= h);
                for x in a..=h {
                    let mut pt = outer.to_vec();
                    pt.push(x);
                    expanded.push(pt);
                }
            }
            assert_eq!(expanded, b.points().collect::<Vec<_>>());
        }
        let mut empty = Polyhedron::from_box(&[0, 0], &[5, 5]);
        empty.add(Constraint::new(vec![1, 1], -100));
        assert!(LoopNestBounds::new(&empty).unwrap().runs().next().is_none());
    }

    #[test]
    fn empty_polyhedron_yields_no_points() {
        let mut p = Polyhedron::from_box(&[0, 0], &[5, 5]);
        p.add(Constraint::new(vec![1, 1], -100)); // x + y >= 100: impossible
        let b = LoopNestBounds::new(&p).unwrap();
        assert_eq!(b.points().count(), 0);
    }

    #[test]
    fn fm_shadow_with_empty_integer_columns() {
        // 2x <= y <= 2x + 1 within 0 <= y <= 9, x unbounded below/above by y.
        // For every x in 0..=4 there are points; the scan must skip nothing.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![-2, 1], 0)); // y >= 2x
        p.add(Constraint::new(vec![2, -1], 1)); // y <= 2x + 1
        p.add(Constraint::new(vec![0, 1], 0)); // y >= 0
        p.add(Constraint::new(vec![0, -1], 9)); // y <= 9
        let b = LoopNestBounds::new(&p).unwrap();
        let pts: Vec<_> = b.points().collect();
        for pt in &pts {
            assert!(p.contains(pt));
        }
        assert_eq!(pts.len(), 10);
    }

    #[test]
    fn intersect_combines_constraints() {
        let a = Polyhedron::from_box(&[0, 0], &[10, 10]);
        let c = Polyhedron::from_box(&[5, 5], &[15, 15]);
        let mut i = a.clone();
        for k in c.constraints() {
            i.add(k.clone());
        }
        assert!(i.contains(&[5, 10]));
        assert!(!i.contains(&[4, 10]));
        assert!(!i.contains(&[5, 11]));
    }

    #[test]
    fn integer_bounds_rounds_correctly() {
        // 3 <= 2x <= 9  =>  2 <= x <= 4
        let mut p = Polyhedron::universe(1);
        p.add(Constraint::new(vec![2], -3));
        p.add(Constraint::new(vec![-2], 9));
        assert_eq!(p.integer_bounds(0, &[]), Some((2, 4)));
    }

    #[test]
    fn unbounded_direction_gives_none() {
        let mut p = Polyhedron::universe(1);
        p.add(Constraint::new(vec![1], 0)); // x >= 0, no upper bound
        assert_eq!(p.integer_bounds(0, &[]), None);
    }

    #[test]
    fn eliminate_dedups_pass_throughs_against_combinations() {
        // The combination of y ≥ 0 with x + y ≤ 4 reproduces the pass-through
        // x ≤ 4 exactly; the shared `seen` set must collapse them so repeated
        // projections never accumulate copies of the same constraint.
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], 0)); // x >= 0 (pass-through)
        p.add(Constraint::new(vec![-1, 0], 4)); // x <= 4 (pass-through)
        p.add(Constraint::new(vec![0, 1], 0)); // y >= 0
        p.add(Constraint::new(vec![-1, -1], 4)); // x + y <= 4
        let q = p.eliminate(1).unwrap();
        assert_eq!(q.constraints().len(), 2, "{:?}", q.constraints());
    }

    #[test]
    fn repeated_projection_keeps_constraints_duplicate_free() {
        // The skewed 3D space from points_match_brute_force_on_skewed_space:
        // every projection level LoopNestBounds computes must stay free of
        // duplicate constraints (each set distinct and no count growth).
        let mut p = Polyhedron::universe(3);
        p.add(Constraint::new(vec![1, 0, 0], -1));
        p.add(Constraint::new(vec![-1, 0, 0], 3));
        p.add(Constraint::new(vec![-1, 1, 0], -1));
        p.add(Constraint::new(vec![1, -1, 0], 4));
        p.add(Constraint::new(vec![-2, 0, 1], -1));
        p.add(Constraint::new(vec![2, 0, -1], 5));
        for m in 1..=3 {
            let q = p.project_onto_first(m).unwrap();
            let distinct: HashSet<&Constraint> = q.constraints().iter().collect();
            assert_eq!(
                distinct.len(),
                q.constraints().len(),
                "duplicates after projecting onto first {m} vars"
            );
            assert!(q.constraints().len() <= 2 * m, "{:?}", q.constraints());
        }
    }

    #[test]
    fn elimination_overflow_is_reported_not_panicked() {
        // FM multipliers of ~2^40 against coefficients of ~2^31 push the
        // combined coefficient past i64; every fallible entry point must
        // surface the typed error instead of panicking.
        let big = (1_i64 << 40) + 1;
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![big, 1], 0));
        p.add(Constraint::new(vec![-big, -(1 << 31) - 1], 0));
        assert!(matches!(
            p.eliminate(0),
            Err(PolytopeError::Overflow { .. })
        ));
        assert!(p.eliminate(1).is_err());
        assert!(p.is_empty_rational().is_err());
        assert!(p.project_onto_first(0).is_err());
        assert!(LoopNestBounds::new(&p).is_err());
    }
}
