//! The tiling transformation `H` and its derived machinery (§2.2–2.3).
//!
//! * `H` — rational `n×n` non-singular matrix; row `k` is perpendicular to
//!   the `k`-th family of tile-forming hyperplanes. `P = H⁻¹` holds the tile
//!   side-vectors as columns; the tile size is `|det(P)|`.
//! * `H' = V·H` — the integralized transformation, with `V` the minimal
//!   positive diagonal matrix making every row integral. The Transformed
//!   Tile Iteration Space (TTIS) of a tile is the column lattice of `H'`
//!   intersected with the box `[0, v)` where `v_k = V_kk`.
//! * `H̃'` — the column-style Hermite Normal Form of `H'`; its diagonal
//!   gives the traversal strides `c_k` and its sub-diagonal entries the
//!   incremental offsets `a_kl`.

use crate::tile_space::TILE_VOLUME_FLOOR;
use tilecc_linalg::{column_hnf, IMat, Lattice, RMat, Rational};
use tilecc_polytope::PolytopeError;

/// Errors produced when constructing or validating a tiling transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// `H` is singular and defines no tiling.
    Singular,
    /// `P = H⁻¹` has a non-integer column: the tile side-vectors are not
    /// integer vectors. The paper's dual definition ("matrix P contains the
    /// side-vectors of a tile as column vectors") presumes integral sides;
    /// without it the TTIS of different tiles are *different cosets* of the
    /// `H'` lattice and the uniform `map()` addressing of Table 1 breaks.
    NonIntegralSides { col: usize },
    /// `H·d < 0` for a dependence vector `d` — the tiling is illegal because
    /// a tile dependence would be lexicographically negative.
    IllegalForDependence { dep: Vec<i64> },
    /// The exact polyhedral machinery under plan construction reported an
    /// error (coefficient overflow from user-authored bounds).
    Polytope(PolytopeError),
    /// The requested mapping dimension `m` does not exist in a `dim`-
    /// dimensional tiled space.
    MappingOutOfRange { m: usize, dim: usize },
    /// The tile volume `|det P|` exceeds `limit`: `2ⁿ ×` the integer points
    /// of the iteration space's bounding box, or the fixed floor
    /// [`TILE_VOLUME_FLOOR`] if larger. Such a tile
    /// covers far more than the whole space, and lowering would walk every
    /// one of its lattice points. `volume` is exact, also past `i64`;
    /// `limit` is `None` where no space bounds the tile and the volume
    /// exceeds the integer range itself.
    TileTooLarge { volume: i128, limit: Option<i64> },
    /// The tiling cone (and so the tuner's candidate rows) is defined for
    /// nests of dimension 2 or more; `dim` is the nest's.
    ConeDimension { dim: usize },
    /// No dependence crosses a tile boundary (`D^S` is empty), so there is
    /// nothing to communicate and no wavefront to schedule.
    NoTileDependences,
    /// The iteration space has no bounding box: it is empty or unbounded,
    /// so there is nothing to tile.
    EmptySpace,
}

impl From<PolytopeError> for TilingError {
    fn from(e: PolytopeError) -> Self {
        TilingError::Polytope(e)
    }
}

impl std::fmt::Display for TilingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TilingError::Singular => write!(f, "tiling matrix H is singular"),
            TilingError::NonIntegralSides { col } => {
                write!(
                    f,
                    "tile side-vector {col} (column of P = H⁻¹) is not integral"
                )
            }
            TilingError::IllegalForDependence { dep } => {
                write!(
                    f,
                    "tiling is illegal: H·d has a negative component for d = {dep:?}"
                )
            }
            TilingError::Polytope(e) => write!(f, "{e}"),
            TilingError::MappingOutOfRange { m, dim } => write!(
                f,
                "mapping dimension {m} out of range for a {dim}-dimensional tiled space"
            ),
            TilingError::TileTooLarge { volume, limit } => {
                if *volume > i128::from(i64::MAX) {
                    write!(f, "tile volume (past 2^63)")?;
                } else {
                    write!(f, "tile volume {volume}")?;
                }
                match limit {
                    Some(limit) => write!(
                        f,
                        " exceeds the limit {limit} (the larger of 2^n times the iteration \
                         space's bounding-box points and {TILE_VOLUME_FLOOR})"
                    ),
                    None => write!(f, " exceeds the integer range"),
                }
            }
            TilingError::ConeDimension { dim } => write!(
                f,
                "the tiling cone needs a nest of dimension 2 or more, not {dim}"
            ),
            TilingError::NoTileDependences => {
                write!(f, "the algorithm has no cross-tile dependences")
            }
            TilingError::EmptySpace => write!(f, "the iteration space is empty or unbounded"),
        }
    }
}

impl std::error::Error for TilingError {}

/// A general parallelepiped tiling transformation.
#[derive(Clone, Debug)]
pub struct TilingTransform {
    h: RMat,
    p: RMat,
    v: Vec<i64>,
    h_prime: IMat,
    p_prime: RMat,
    hnf: IMat,
    lattice: Lattice,
    /// Adjugate of `H'` and `det(H')`: `j = adj(H')·w / det(H')` gives the
    /// inverse transform in pure integer arithmetic.
    p_prime_adj: IMat,
    h_prime_det: i64,
}

impl TilingTransform {
    /// Build the transformation from the rational matrix `H`.
    pub fn new(h: RMat) -> Result<Self, TilingError> {
        assert_eq!(h.rows(), h.cols(), "H must be square");
        if h.det().is_zero() {
            return Err(TilingError::Singular);
        }
        let p = h.inverse();
        let n = h.rows();
        // Integral tile sides: v_k·e_k must lie on the H' lattice for every
        // k, so all tiles share one TTIS lattice (see `TilingError`).
        for col in 0..n {
            if (0..n).any(|row| !p[(row, col)].is_integer()) {
                return Err(TilingError::NonIntegralSides { col });
            }
        }
        let v = h.row_denominator_lcms();
        let mut h_prime_r = RMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h_prime_r[(i, j)] = Rational::from_int(v[i]) * h[(i, j)];
            }
        }
        debug_assert!(h_prime_r.is_integral());
        let h_prime = h_prime_r.to_imat();
        let p_prime = h_prime.inverse();
        let hnf = column_hnf(&h_prime).hnf;
        let lattice = Lattice::from_columns(&h_prime);
        let h_prime_det = h_prime.det();
        // adj(H') = det(H')·H'⁻¹, an integer matrix.
        let mut adj = IMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let e = p_prime[(i, j)] * Rational::from_int(h_prime_det);
                adj[(i, j)] = e.to_integer();
            }
        }
        Ok(TilingTransform {
            h,
            p,
            v,
            h_prime,
            p_prime,
            hnf,
            lattice,
            p_prime_adj: adj,
            h_prime_det,
        })
    }

    /// Rectangular tiling with edge lengths `sizes` (`H = diag(1/size_k)`).
    pub fn rectangular(sizes: &[i64]) -> Result<Self, TilingError> {
        assert!(sizes.iter().all(|&s| s > 0), "tile sizes must be positive");
        let n = sizes.len();
        let h = RMat::from_fn(n, n, |i, j| {
            if i == j {
                Rational::new(1, sizes[i] as i128)
            } else {
                Rational::ZERO
            }
        });
        TilingTransform::new(h)
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.v.len()
    }

    /// The tiling matrix `H`.
    #[inline]
    pub fn h(&self) -> &RMat {
        &self.h
    }

    /// `P = H⁻¹` — tile side-vectors as columns.
    #[inline]
    pub fn p(&self) -> &RMat {
        &self.p
    }

    /// The diagonal of `V` (`v_kk` in the paper).
    #[inline]
    pub fn v(&self) -> &[i64] {
        &self.v
    }

    /// `H' = V·H` (integral).
    #[inline]
    pub fn h_prime(&self) -> &IMat {
        &self.h_prime
    }

    /// `P' = H'⁻¹`.
    #[inline]
    pub fn p_prime(&self) -> &RMat {
        &self.p_prime
    }

    /// The Hermite Normal Form `H̃'` of `H'`.
    #[inline]
    pub fn hnf(&self) -> &IMat {
        &self.hnf
    }

    /// The TTIS lattice (column lattice of `H'`).
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Traversal stride `c_k = h̃'_kk` of TTIS coordinate `k`.
    #[inline]
    pub fn stride(&self, k: usize) -> i64 {
        self.hnf[(k, k)]
    }

    /// All strides `c`.
    pub fn strides(&self) -> Vec<i64> {
        (0..self.dim()).map(|k| self.stride(k)).collect()
    }

    /// Tile size `|det(P)| = 1/|det(H)|` (number of integer points per full
    /// tile). A size past `i64` is [`TilingError::TileTooLarge`] with the
    /// exact volume and no limit; [`crate::TiledSpace::new`] fills in the
    /// space's limit.
    pub fn tile_size(&self) -> Result<i64, TilingError> {
        let d = self.p.det().abs();
        assert!(d.is_integer(), "tile size must be integral");
        i64::try_from(d.num()).map_err(|_| TilingError::TileTooLarge {
            volume: d.num(),
            limit: None,
        })
    }

    /// The tile containing iteration `j`: `j^S = ⌊H·j⌋`.
    pub fn tile_of(&self, j: &[i64]) -> Vec<i64> {
        self.h.mul_ivec(j).iter().map(|r| r.floor()).collect()
    }

    /// TTIS coordinate of iteration `j` within tile `j^S`:
    /// `j' = H'·(j − P·j^S) = H'·j − V·j^S`.
    pub fn ttis_coord(&self, j: &[i64], tile: &[i64]) -> Vec<i64> {
        let hj = self.h_prime.mul_vec(j);
        hj.iter()
            .zip(self.v.iter().zip(tile))
            .map(|(&a, (&vk, &t))| a - vk * t)
            .collect()
    }

    /// Inverse of [`TilingTransform::ttis_coord`], `j = P·j^S + P'·j'`, in
    /// pure integer arithmetic: `j = adj(H')·(V·j^S + j') / det(H')`. Exact
    /// for TTIS lattice points.
    ///
    /// # Panics
    /// Panics (in debug builds) if `j'` is not a lattice point of the tile.
    pub fn iteration_fast(&self, tile: &[i64], jp: &[i64]) -> Vec<i64> {
        let n = self.dim();
        let mut w = vec![0i64; n];
        for k in 0..n {
            w[k] = self.v[k] * tile[k] + jp[k];
        }
        let num = self.p_prime_adj.mul_vec(&w);
        num.iter()
            .map(|&x| {
                debug_assert_eq!(x % self.h_prime_det, 0, "not a lattice point");
                x / self.h_prime_det
            })
            .collect()
    }

    /// The tile-relative iteration offset `P'·j'` in pure integer
    /// arithmetic, `adj(H')·j' / det(H')`, written into `out`: the
    /// allocation-free per-point product of plan-time lowering.
    ///
    /// # Panics
    /// Panics (release builds too) if `j'` is not a TTIS lattice point,
    /// i.e. the product is not integral.
    pub fn p_prime_mul_into(&self, jp: &[i64], out: &mut [i64]) {
        let n = self.dim();
        let det = self.h_prime_det;
        for (i, o) in out.iter_mut().enumerate().take(n) {
            let num = (0..n).try_fold(0i64, |acc, k| {
                self.p_prime_adj[(i, k)]
                    .checked_mul(jp[k])
                    .and_then(|x| acc.checked_add(x))
            });
            let num = num.expect("adj(H')·j' overflows i64");
            assert!(num % det == 0, "P'·j' must be integral on the lattice");
            *o = num / det;
        }
    }

    /// Transformed dependence vectors `D' = H'·D` (columns).
    pub fn transformed_deps(&self, deps: &IMat) -> IMat {
        self.h_prime.mul(deps)
    }

    /// Legality: every dependence must satisfy `H·d ≥ 0` componentwise, so
    /// that tile dependencies are non-negative (Ramanujam/Sadayappan \[12\]).
    pub fn validate_for(&self, deps: &IMat) -> Result<(), TilingError> {
        for q in 0..deps.cols() {
            let d = deps.col(q);
            let hd = self.h.mul_ivec(&d);
            if hd.iter().any(|r| r.is_negative()) {
                return Err(TilingError::IllegalForDependence { dep: d });
            }
        }
        Ok(())
    }

    /// Enumerate the TTIS lattice points of a full (interior) tile, in the
    /// strided loop order of the paper.
    pub fn ttis_points(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        let lo = vec![0i64; self.dim()];
        self.lattice.points_in_box(&lo, &self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's SOR non-rectangular tiling (§4.1) with x, y, z factors.
    pub fn sor_hnr(x: i64, y: i64, z: i64) -> RMat {
        RMat::from_fractions(&[
            &[(1, x), (0, 1), (0, 1)],
            &[(0, 1), (1, y), (0, 1)],
            &[(-1, z), (0, 1), (1, z)],
        ])
    }

    #[test]
    fn rectangular_tiling_basics() {
        let t = TilingTransform::rectangular(&[4, 3, 5]).unwrap();
        assert_eq!(t.tile_size(), Ok(60));
        assert_eq!(t.v(), &[4, 3, 5]);
        assert_eq!(t.strides(), vec![1, 1, 1]);
        assert_eq!(t.tile_of(&[4, 2, 9]), vec![1, 0, 1]);
        assert_eq!(t.tile_of(&[-1, 0, 0]), vec![-1, 0, 0]);
    }

    #[test]
    fn sor_nr_tiling_derivations() {
        let t = TilingTransform::new(sor_hnr(4, 3, 5)).unwrap();
        assert_eq!(t.v(), &[4, 3, 5]);
        assert_eq!(t.tile_size(), Ok(60));
        // H' = V·H = [[1,0,0],[0,1,0],[-1,0,1]].
        assert_eq!(
            *t.h_prime(),
            IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[-1, 0, 1]])
        );
        // Unimodular H' ⇒ TTIS lattice is dense, all strides 1.
        assert_eq!(t.strides(), vec![1, 1, 1]);
        assert_eq!(t.ttis_points().count(), 60);
    }

    #[test]
    fn ttis_coord_round_trip() {
        let t = TilingTransform::new(sor_hnr(2, 2, 2)).unwrap();
        for j0 in -3i64..4 {
            for j1 in -3i64..4 {
                for j2 in -3i64..4 {
                    let j = [j0, j1, j2];
                    let tile = t.tile_of(&j);
                    let jp = t.ttis_coord(&j, &tile);
                    // Every TTIS coordinate lies in [0, v).
                    for k in 0..3 {
                        assert!(0 <= jp[k] && jp[k] < t.v()[k], "jp={jp:?} j={j:?}");
                    }
                    assert_eq!(t.iteration_fast(&tile, &jp), j.to_vec());
                }
            }
        }
    }

    #[test]
    fn legality_check_matches_paper() {
        // Skewed SOR dependencies (paper §4.1).
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let nr = TilingTransform::new(sor_hnr(4, 3, 5)).unwrap();
        assert!(nr.validate_for(&deps).is_ok());
        let rect = TilingTransform::rectangular(&[4, 3, 5]).unwrap();
        assert!(rect.validate_for(&deps).is_ok());
        // An illegal tiling: row pointing against the dependencies.
        let bad = TilingTransform::new(RMat::from_fractions(&[
            &[(-1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 2), (0, 1)],
            &[(0, 1), (0, 1), (1, 2)],
        ]))
        .unwrap();
        assert!(matches!(
            bad.validate_for(&deps),
            Err(TilingError::IllegalForDependence { .. })
        ));
    }

    #[test]
    fn non_integral_tile_sides_are_rejected() {
        // Jacobi H_nr with odd y: P = H⁻¹ has the column (y/2, y, 0).
        let h = RMat::from_fractions(&[
            &[(1, 3), (-1, 6), (0, 1)],
            &[(0, 1), (1, 5), (0, 1)],
            &[(0, 1), (0, 1), (1, 4)],
        ]);
        assert_eq!(
            TilingTransform::new(h).unwrap_err(),
            TilingError::NonIntegralSides { col: 1 }
        );
        // Even y is accepted.
        let h = RMat::from_fractions(&[
            &[(1, 3), (-1, 6), (0, 1)],
            &[(0, 1), (1, 6), (0, 1)],
            &[(0, 1), (0, 1), (1, 4)],
        ]);
        assert!(TilingTransform::new(h).is_ok());
    }

    /// The integer `P'·j'` must equal the `Rational` product on every TTIS
    /// point of the paper's tilings, sparse lattices included.
    #[test]
    fn integer_p_prime_product_matches_rational() {
        let paper = [
            sor_hnr(2, 3, 4),
            sor_hnr(4, 3, 5),
            sor_hnr(3, 4, 2),
            // Jacobi H_nr (§4.2), x = 2, y = z = 4.
            RMat::from_fractions(&[
                &[(1, 2), (-1, 4), (0, 1)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 4)],
            ]),
            // ADI H_nr1..3 (§4.3), factors 3, 4, 2.
            RMat::from_fractions(&[
                &[(1, 3), (-1, 3), (0, 1)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 2)],
            ]),
            RMat::from_fractions(&[
                &[(1, 3), (0, 1), (-1, 3)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 2)],
            ]),
            RMat::from_fractions(&[
                &[(1, 3), (-1, 3), (-1, 3)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 2)],
            ]),
            // A sparse TTIS lattice (det H' = 2).
            RMat::from_fractions(&[&[(1, 2), (0, 1)], &[(1, 4), (1, 2)]]),
        ];
        let mut checked = 0usize;
        for h in paper {
            let t = TilingTransform::new(h).unwrap();
            let mut out = vec![0i64; t.dim()];
            for jp in t.ttis_points() {
                t.p_prime_mul_into(&jp, &mut out);
                let want: Vec<i64> = t
                    .p_prime()
                    .mul_ivec(&jp)
                    .iter()
                    .map(|r| {
                        assert!(r.is_integer());
                        r.to_integer()
                    })
                    .collect();
                assert_eq!(out, want, "jp = {jp:?}");
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} points checked");
    }

    #[test]
    #[should_panic(expected = "integral on the lattice")]
    fn integer_p_prime_product_rejects_off_lattice_points() {
        let h = RMat::from_fractions(&[&[(1, 2), (0, 1)], &[(1, 4), (1, 2)]]);
        let t = TilingTransform::new(h).unwrap();
        // (0, 1) is in the TTIS box but not on the H' = [[1,0],[1,2]] lattice.
        t.p_prime_mul_into(&[0, 1], &mut [0, 0]);
    }

    #[test]
    fn singular_h_is_rejected() {
        let h = RMat::from_fractions(&[&[(1, 2), (1, 2)], &[(1, 2), (1, 2)]]);
        assert_eq!(TilingTransform::new(h).unwrap_err(), TilingError::Singular);
    }

    #[test]
    fn transformed_deps_are_integral_lattice_vectors() {
        let t = TilingTransform::new(sor_hnr(3, 4, 5)).unwrap();
        let deps = IMat::from_rows(&[&[1, 0, 1, 1, 0], &[1, 1, 0, 1, 0], &[2, 0, 2, 1, 1]]);
        let dp = t.transformed_deps(&deps);
        for q in 0..dp.cols() {
            assert!(
                t.lattice().contains(&dp.col(q)),
                "H'd must be a TTIS lattice vector"
            );
        }
    }

    #[test]
    fn non_unit_strides_from_skewed_h() {
        // H with a genuinely non-unimodular H': H = [[1/2, 1/2], [0, 1/2]]
        // gives H' = [[1,1],[0,1]]·... -> V = diag(2,2), H' = [[1,1],[0,1]].
        let h = RMat::from_fractions(&[&[(1, 2), (1, 2)], &[(0, 1), (1, 2)]]);
        let t = TilingTransform::new(h).unwrap();
        assert_eq!(*t.h_prime(), IMat::from_rows(&[&[1, 1], &[0, 1]]));
        assert_eq!(t.tile_size(), Ok(4));
        // dense lattice (det H' = 1): strides 1.
        assert_eq!(t.strides(), vec![1, 1]);
        // A genuinely sparse TTIS lattice: H = [[1/2,0],[1/4,1/2]] gives
        // V = diag(2,4), H' = [[1,0],[1,2]] with det 2.
        let h2 = RMat::from_fractions(&[&[(1, 2), (0, 1)], &[(1, 4), (1, 2)]]);
        let t2 = TilingTransform::new(h2).unwrap();
        assert_eq!(t2.v(), &[2, 4]);
        assert_eq!(*t2.h_prime(), IMat::from_rows(&[&[1, 0], &[1, 2]]));
        assert_eq!(t2.tile_size(), Ok(4));
        assert_eq!(t2.strides(), vec![1, 2]);
        // 8 integer points in the [0,2)×[0,4) box, lattice index 2 ⇒ 4
        // TTIS points — exactly the tile size.
        assert_eq!(t2.ttis_points().count(), 4);
    }
}
