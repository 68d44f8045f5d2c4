#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
//! The tiling cone (§2.2, §4): the set of legal tile-hyperplane normals
//! `{ x | x·d ≥ 0 for every dependence d }`, whose extreme rays the paper
//! (following Xue, Boulet et al., Hodzic/Shang) identifies as the source of
//! communication- and scheduling-optimal tilings.
//!
//! Extreme rays are computed exactly for the small dimensions of interest
//! (`n ≤ 4`): every `(n−1)`-subset of dependence vectors of rank `n−1`
//! determines a candidate direction (its null space); a candidate is an
//! extreme ray if it satisfies all constraints and its active set has rank
//! `n−1`.

use crate::TilingError;
use tilecc_linalg::{gcd_i128, IMat, RMat, Rational};

/// True iff `x·d ≥ 0` for every dependence column `d`.
pub fn in_tiling_cone(x: &[i64], deps: &IMat) -> bool {
    (0..deps.cols()).all(|q| deps.col(q).iter().zip(x).map(|(&a, &b)| a * b).sum::<i64>() >= 0)
}

/// Rank of a small rational matrix (Gaussian elimination).
fn rank(rows: &[Vec<Rational>]) -> usize {
    if rows.is_empty() {
        return 0;
    }
    let ncols = rows[0].len();
    let mut a: Vec<Vec<Rational>> = rows.to_vec();
    let mut r = 0usize;
    for c in 0..ncols {
        let Some(p) = (r..a.len()).find(|&i| !a[i][c].is_zero()) else {
            continue;
        };
        a.swap(r, p);
        let inv = a[r][c].recip();
        for j in 0..ncols {
            a[r][j] = a[r][j] * inv;
        }
        for i in 0..a.len() {
            if i != r && !a[i][c].is_zero() {
                let f = a[i][c];
                for j in 0..ncols {
                    let v = a[i][j] - f * a[r][j];
                    a[i][j] = v;
                }
            }
        }
        r += 1;
        if r == a.len() {
            break;
        }
    }
    r
}

/// One-dimensional null space of a rank-`(n−1)` set of row vectors; `None`
/// when the rank is lower. The result is a primitive integer vector.
fn nullspace_direction(rows: &[Vec<Rational>], n: usize) -> Option<Vec<i64>> {
    if rank(rows) != n - 1 {
        return None;
    }
    // Reduced row echelon form.
    let mut a: Vec<Vec<Rational>> = rows.to_vec();
    let mut pivots: Vec<usize> = vec![];
    let mut r = 0usize;
    for c in 0..n {
        let Some(p) = (r..a.len()).find(|&i| !a[i][c].is_zero()) else {
            continue;
        };
        a.swap(r, p);
        let inv = a[r][c].recip();
        for j in 0..n {
            a[r][j] = a[r][j] * inv;
        }
        for i in 0..a.len() {
            if i != r && !a[i][c].is_zero() {
                let f = a[i][c];
                for j in 0..n {
                    let v = a[i][j] - f * a[r][j];
                    a[i][j] = v;
                }
            }
        }
        pivots.push(c);
        r += 1;
        if r == n - 1 {
            break;
        }
    }
    let free = (0..n).find(|c| !pivots.contains(c))?;
    let mut x = vec![Rational::ZERO; n];
    x[free] = Rational::ONE;
    for (row, &pc) in pivots.iter().enumerate() {
        x[pc] = -a[row][free];
    }
    // Scale to a primitive integer vector.
    let lcm = x
        .iter()
        .fold(1i128, |acc, v| tilecc_linalg::lcm_i128(acc, v.den()));
    let mut ints: Vec<i128> = x.iter().map(|v| v.num() * (lcm / v.den())).collect();
    let g = ints.iter().fold(0i128, |acc, &v| gcd_i128(acc, v));
    if g > 1 {
        for v in &mut ints {
            *v /= g;
        }
    }
    Some(
        ints.iter()
            .map(|&v| i64::try_from(v).expect("ray overflow"))
            .collect(),
    )
}

/// Compute the extreme rays of the tiling cone of `deps` (columns). Rays are
/// primitive integer vectors, deduplicated, sorted. A nest of dimension
/// below 2 has no tiling cone: [`TilingError::ConeDimension`].
pub fn tiling_cone_rays(deps: &IMat) -> Result<Vec<Vec<i64>>, TilingError> {
    let n = deps.rows();
    let q = deps.cols();
    if n < 2 {
        return Err(TilingError::ConeDimension { dim: n });
    }
    let dep_rows: Vec<Vec<Rational>> = (0..q)
        .map(|c| deps.col(c).iter().map(|&v| Rational::from_int(v)).collect())
        .collect();
    let mut rays: Vec<Vec<i64>> = vec![];
    if q < n - 1 {
        return Ok(rays);
    }
    // Enumerate (n−1)-subsets of constraints.
    let mut subset: Vec<usize> = (0..n - 1).collect();
    loop {
        let rows: Vec<Vec<Rational>> = subset.iter().map(|&i| dep_rows[i].clone()).collect();
        if let Some(dir) = nullspace_direction(&rows, n) {
            for cand in [dir.clone(), dir.iter().map(|&v| -v).collect::<Vec<_>>()] {
                if in_tiling_cone(&cand, deps) && is_extreme(&cand, deps) && !rays.contains(&cand) {
                    rays.push(cand);
                }
            }
        }
        if !next_combination(&mut subset, q) {
            break;
        }
    }
    rays.sort();
    Ok(rays)
}

/// Advance `subset` to the next k-combination of `0..q`; false at the end.
fn next_combination(subset: &mut [usize], q: usize) -> bool {
    let k = subset.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if subset[i] < q - k + i {
            subset[i] += 1;
            for j in i + 1..k {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// A cone member is extreme iff its active constraints span rank `n−1`.
fn is_extreme(x: &[i64], deps: &IMat) -> bool {
    let n = deps.rows();
    let active: Vec<Vec<Rational>> = (0..deps.cols())
        .filter(|&q| deps.col(q).iter().zip(x).map(|(&a, &b)| a * b).sum::<i64>() == 0)
        .map(|q| deps.col(q).iter().map(|&v| Rational::from_int(v)).collect())
        .collect();
    rank(&active) == n - 1
}

/// Candidate tile-hyperplane normals for the auto-tuner: the cone's extreme
/// rays (the communication-optimal directions of Hodzic/Shang) plus any
/// coordinate unit vectors inside the cone (so rectangular and mixed tilings
/// compete too — for SOR, `e_3` is in the cone but not extreme). Primitive,
/// deduplicated, sorted; [`TilingError::ConeDimension`] below 2-D.
pub fn candidate_rows(deps: &IMat) -> Result<Vec<Vec<i64>>, TilingError> {
    let n = deps.rows();
    let mut rows = tiling_cone_rays(deps)?;
    for k in 0..n {
        let mut e = vec![0i64; n];
        e[k] = 1;
        if in_tiling_cone(&e, deps) && !rows.contains(&e) {
            rows.push(e);
        }
    }
    rows.sort();
    Ok(rows)
}

/// Rational matrix whose rows are the cone rays — the paper's matrix `C`.
///
/// # Panics
/// Panics if the cone has no extreme ray.
pub fn cone_matrix(deps: &IMat) -> Result<RMat, TilingError> {
    let rays = tiling_cone_rays(deps)?;
    assert!(!rays.is_empty(), "empty tiling cone");
    Ok(RMat::from_fn(rays.len(), deps.rows(), |i, j| {
        Rational::from_int(rays[i][j])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ray_set(deps: &IMat) -> BTreeSet<Vec<i64>> {
        tiling_cone_rays(deps).unwrap().into_iter().collect()
    }

    #[test]
    fn sor_cone_matches_paper() {
        // Skewed SOR dependencies; paper §4.1 gives
        // C = [[1,0,0],[0,1,0],[-1,0,1],[-2,1,1]].
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let expected: BTreeSet<Vec<i64>> =
            [vec![1, 0, 0], vec![0, 1, 0], vec![-1, 0, 1], vec![-2, 1, 1]]
                .into_iter()
                .collect();
        assert_eq!(ray_set(&deps), expected);
    }

    #[test]
    fn adi_cone_matches_paper() {
        // ADI dependencies; paper §4.3 gives C = [[1,−1,−1],[0,1,0],[0,0,1]].
        let deps = IMat::from_rows(&[&[1, 1, 1], &[0, 1, 0], &[0, 0, 1]]);
        let expected: BTreeSet<Vec<i64>> = [vec![1, -1, -1], vec![0, 1, 0], vec![0, 0, 1]]
            .into_iter()
            .collect();
        assert_eq!(ray_set(&deps), expected);
    }

    #[test]
    fn jacobi_cone_rays_are_valid_and_extreme() {
        // Skewed Jacobi dependencies (derived in tilecc-loopnest).
        let deps = IMat::from_rows(&[&[1, 1, 1, 1, 1], &[2, 0, 1, 1, 1], &[1, 1, 2, 0, 1]]);
        let rays = tiling_cone_rays(&deps).unwrap();
        assert!(rays.len() >= 3, "3-D pointed cone needs at least 3 rays");
        for r in &rays {
            assert!(in_tiling_cone(r, &deps), "{r:?} not in cone");
        }
        // The paper's non-rectangular Jacobi rows must lie in the cone:
        // H_nr rows (scaled): (2,−1,0), (0,1,0), (0,0,1).
        assert!(in_tiling_cone(&[2, -1, 0], &deps));
        assert!(in_tiling_cone(&[0, 1, 0], &deps));
        assert!(in_tiling_cone(&[0, 0, 1], &deps));
    }

    #[test]
    fn rectangular_rows_are_interior_for_sor() {
        // Hodzic/Shang: rows strictly inside the cone are suboptimal. The
        // rectangular row e_3 = (0,0,1) is in the cone but NOT extreme.
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        assert!(in_tiling_cone(&[0, 0, 1], &deps));
        assert!(!ray_set(&deps).contains(&vec![0, 0, 1]));
    }

    #[test]
    fn candidate_rows_extend_rays_with_in_cone_units() {
        // SOR: e_3 is in the cone but not extreme — the tuner pool must
        // include it alongside the four extreme rays.
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let rows: BTreeSet<Vec<i64>> = candidate_rows(&deps).unwrap().into_iter().collect();
        let mut expected = ray_set(&deps);
        expected.insert(vec![0, 0, 1]);
        assert_eq!(rows, expected);
        // Orthant cone: units coincide with the rays, no duplicates.
        let unit = IMat::identity(3);
        assert_eq!(candidate_rows(&unit).unwrap().len(), 3);
        // One dimension has no cone: a typed error, not a panic.
        assert_eq!(
            candidate_rows(&IMat::from_rows(&[&[1]])),
            Err(TilingError::ConeDimension { dim: 1 })
        );
    }

    #[test]
    fn orthant_cone_for_unit_deps() {
        let deps = IMat::identity(3);
        let expected: BTreeSet<Vec<i64>> = [vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]
            .into_iter()
            .collect();
        assert_eq!(ray_set(&deps), expected);
    }
}
