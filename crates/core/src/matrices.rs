//! The exact tiling matrices of the paper's evaluation (§4.1–4.3),
//! parameterized by the tile factors `x`, `y`, `z`.

use tilecc_linalg::RMat;

/// Rectangular tiling `H_r = diag(1/x, 1/y, 1/z)` (all three algorithms).
pub fn rect(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (0, 1), (0, 1)],
        &[(0, 1), (1, y), (0, 1)],
        &[(0, 1), (0, 1), (1, z)],
    ])
}

/// SOR rectangular tiling (alias of [`rect`], kept for symmetry).
pub fn sor_rect(x: i64, y: i64, z: i64) -> RMat {
    rect(x, y, z)
}

/// SOR non-rectangular tiling (§4.1):
/// `H_nr = [[1/x,0,0],[0,1/y,0],[−1/z,0,1/z]]` — rows parallel to the first
/// three tiling-cone rays.
pub fn sor_nr(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (0, 1), (0, 1)],
        &[(0, 1), (1, y), (0, 1)],
        &[(-1, z), (0, 1), (1, z)],
    ])
}

/// Jacobi rectangular tiling (alias of [`rect`]).
pub fn jacobi_rect(x: i64, y: i64, z: i64) -> RMat {
    rect(x, y, z)
}

/// Jacobi non-rectangular tiling (§4.2):
/// `H_nr = [[1/x,−1/(2x),0],[0,1/y,0],[0,0,1/z]]`.
pub fn jacobi_nr(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (-1, 2 * x), (0, 1)],
        &[(0, 1), (1, y), (0, 1)],
        &[(0, 1), (0, 1), (1, z)],
    ])
}

/// ADI rectangular tiling (alias of [`rect`]).
pub fn adi_rect(x: i64, y: i64, z: i64) -> RMat {
    rect(x, y, z)
}

/// ADI `H_nr1 = [[1/x,−1/x,0],[0,1/y,0],[0,0,1/z]]` (§4.3).
pub fn adi_nr1(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (-1, x), (0, 1)],
        &[(0, 1), (1, y), (0, 1)],
        &[(0, 1), (0, 1), (1, z)],
    ])
}

/// ADI `H_nr2 = [[1/x,0,−1/x],[0,1/y,0],[0,0,1/z]]` (§4.3).
pub fn adi_nr2(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (0, 1), (-1, x)],
        &[(0, 1), (1, y), (0, 1)],
        &[(0, 1), (0, 1), (1, z)],
    ])
}

/// ADI `H_nr3 = [[1/x,−1/x,−1/x],[0,1/y,0],[0,0,1/z]]` — the first row is
/// parallel to the tiling-cone ray `(1,−1,−1)` (§4.3).
pub fn adi_nr3(x: i64, y: i64, z: i64) -> RMat {
    RMat::from_fractions(&[
        &[(1, x), (-1, x), (-1, x)],
        &[(0, 1), (1, y), (0, 1)],
        &[(0, 1), (0, 1), (1, z)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_linalg::{IMat, Rational};
    use tilecc_tiling::{in_tiling_cone, TilingTransform};

    #[test]
    fn all_matrices_share_tile_size() {
        // Equal factors ⇒ equal tile sizes (paper: 1/|det H| = xyz).
        let (x, y, z) = (4, 6, 10);
        for h in [
            rect(x, y, z),
            sor_nr(x, y, z),
            jacobi_nr(x, y, z),
            adi_nr1(x, y, z),
            adi_nr2(x, y, z),
            adi_nr3(x, y, z),
        ] {
            let t = TilingTransform::new(h).unwrap();
            assert_eq!(t.tile_size(), Ok(x * y * z));
        }
    }

    #[test]
    fn nr_rows_lie_in_the_tiling_cones() {
        // Every row of each non-rectangular H (scaled to integers) is inside
        // the respective algorithm's tiling cone.
        let sor_deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let jac_deps = IMat::from_rows(&[&[1, 1, 1, 1, 1], &[2, 0, 1, 1, 1], &[1, 1, 2, 0, 1]]);
        let adi_deps = IMat::from_rows(&[&[1, 1, 1], &[0, 1, 0], &[0, 0, 1]]);
        let check = |h: RMat, deps: &IMat| {
            let t = TilingTransform::new(h).unwrap();
            assert!(t.validate_for(deps).is_ok());
            for r in 0..3 {
                let v = t.v()[r];
                let row: Vec<i64> = (0..3)
                    .map(|c| (t.h()[(r, c)] * Rational::from_int(v)).to_integer())
                    .collect();
                assert!(in_tiling_cone(&row, deps), "row {row:?} outside cone");
            }
        };
        check(sor_nr(3, 4, 5), &sor_deps);
        check(jacobi_nr(3, 4, 5), &jac_deps);
        check(adi_nr1(3, 4, 5), &adi_deps);
        check(adi_nr2(3, 4, 5), &adi_deps);
        check(adi_nr3(3, 4, 5), &adi_deps);
        check(rect(3, 4, 5), &adi_deps);
    }
}
