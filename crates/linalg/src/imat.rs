//! Dense integer matrices (`i64` entries) with exact operations.
//!
//! These model the integer matrices of the paper: dependence matrices `D`,
//! skewing matrices `T`, the integralized tiling transformation `H' = V·H`,
//! and its Hermite Normal Form `H̃'`. Matrices are small (loop depth × loop
//! depth), so a simple row-major `Vec<i64>` is the right representation.

use crate::rational::Rational;
use crate::rmat::RMat;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` integer matrix, row-major.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or the matrix is empty.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        assert!(!rows.is_empty(), "empty matrix");
        let cols = rows[0].len();
        assert!(cols > 0, "empty matrix row");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged matrix rows");
            data.extend_from_slice(r);
        }
        IMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build from a nested vector (convenience for tests and kernels).
    pub fn from_vec(rows: Vec<Vec<i64>>) -> Self {
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        IMat::from_rows(&refs)
    }

    /// Build a diagonal matrix from its diagonal entries.
    pub fn diag(d: &[i64]) -> Self {
        let mut m = IMat::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<i64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs` with overflow checking.
    ///
    /// # Panics
    /// Panics on dimension mismatch or arithmetic overflow.
    pub fn mul(&self, rhs: &IMat) -> IMat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc: i64 = 0;
                for k in 0..self.cols {
                    acc = acc
                        .checked_add(
                            self[(i, k)]
                                .checked_mul(rhs[(k, j)])
                                .expect("imat mul overflow"),
                        )
                        .expect("imat mul overflow");
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// [`IMat::mul_vec`] into a caller-provided buffer (`out.len() ==
    /// rows`): the same checked arithmetic, no allocation.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or `i64` overflow.
    pub fn mul_vec_into(&self, v: &[i64], out: &mut [i64]) {
        assert_eq!(
            self.cols,
            v.len(),
            "dimension mismatch in matrix-vector product"
        );
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().zip(v).fold(0i64, |acc, (&a, &b)| {
                acc.checked_add(a.checked_mul(b).expect("imat mul_vec overflow"))
                    .expect("imat mul_vec overflow")
            });
        }
    }

    /// Determinant by fraction-free Bareiss elimination (exact).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i64 {
        assert!(self.is_square(), "determinant of non-square matrix");
        let n = self.rows;
        let mut a: Vec<i128> = self.data.iter().map(|&v| v as i128).collect();
        let at = |a: &[i128], i: usize, j: usize| a[i * n + j];
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n.saturating_sub(1) {
            if at(&a, k, k) == 0 {
                // Find a pivot row below.
                let Some(p) = (k + 1..n).find(|&p| at(&a, p, k) != 0) else {
                    return 0;
                };
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let v = at(&a, i, j)
                        .checked_mul(at(&a, k, k))
                        .and_then(|x| x.checked_sub(at(&a, i, k).checked_mul(at(&a, k, j))?))
                        .expect("determinant overflow");
                    a[i * n + j] = v / prev;
                }
                a[i * n + k] = 0;
            }
            prev = at(&a, k, k);
        }
        let d = sign * at(&a, n - 1, n - 1);
        i64::try_from(d).expect("determinant exceeds i64")
    }

    /// Convert to a rational matrix.
    pub fn to_rmat(&self) -> RMat {
        RMat::from_fn(self.rows, self.cols, |i, j| {
            Rational::from_int(self[(i, j)])
        })
    }

    /// Exact inverse as a rational matrix.
    ///
    /// # Panics
    /// Panics if the matrix is singular or not square.
    pub fn inverse(&self) -> RMat {
        self.to_rmat().inverse()
    }

    /// True iff every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

impl Index<(usize, usize)> for IMat {
    type Output = i64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for IMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_product() {
        let a = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        let i = IMat::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
        let b = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(a.mul(&b), IMat::from_rows(&[&[2, 1], &[4, 3]]));
    }

    #[test]
    fn det_small_cases() {
        assert_eq!(IMat::from_rows(&[&[5]]).det(), 5);
        assert_eq!(IMat::from_rows(&[&[1, 2], &[3, 4]]).det(), -2);
        assert_eq!(IMat::identity(4).det(), 1);
        // Singular.
        assert_eq!(IMat::from_rows(&[&[1, 2], &[2, 4]]).det(), 0);
        // Needs a row swap (zero pivot).
        assert_eq!(IMat::from_rows(&[&[0, 1], &[1, 0]]).det(), -1);
    }

    #[test]
    fn det_matches_cofactor_3x3() {
        let m = IMat::from_rows(&[&[2, -1, 0], &[3, 5, 2], &[1, 1, 1]]);
        // Cofactor expansion: 2*(5-2) +1*(3-2) + 0 = 7
        assert_eq!(m.det(), 7);
    }

    #[test]
    fn det_skewing_matrices_are_unimodular() {
        // The paper's SOR and Jacobi skewing matrices.
        let t_sor = IMat::from_rows(&[&[1, 0, 0], &[1, 1, 0], &[2, 0, 1]]);
        let t_jac = IMat::from_rows(&[&[1, 0, 0], &[1, 1, 0], &[1, 0, 1]]);
        assert_eq!(t_sor.det(), 1);
        assert_eq!(t_jac.det(), 1);
    }

    #[test]
    fn mul_vec_matches_rows() {
        let a = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.mul_vec(&[1, 0, -1]), vec![-2, -2]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().row(0), &[1, 4]);
        assert_eq!(a.col(2), vec![3, 6]);
    }

    #[test]
    fn diag_builds_diagonal() {
        let d = IMat::diag(&[2, 3, 4]);
        assert_eq!(d.det(), 24);
        assert_eq!(d.mul_vec(&[1, 1, 1]), vec![2, 3, 4]);
    }
}
