//! Affine inequality constraints over integer variables.
//!
//! A constraint is stored in the canonical form `a·x + b ≥ 0` with integer
//! coefficients normalized so that `gcd(a, b) = 1`. Rational input (the
//! tiling matrix rows) is scaled to this form exactly.

use crate::error::PolytopeError;
use tilecc_linalg::{gcd_i128, Rational};

/// The inequality `coeffs · x + constant ≥ 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    coeffs: Vec<i64>,
    constant: i64,
}

impl Constraint {
    /// Build and normalize a constraint `coeffs · x + constant ≥ 0`.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        let mut c = Constraint { coeffs, constant };
        c.normalize();
        c
    }

    /// Build from rational coefficients by scaling with the common
    /// denominator: `q·x + r ≥ 0` becomes `(s·q)·x + s·r ≥ 0`.
    ///
    /// Fails with [`PolytopeError::Overflow`] when a scaled coefficient does
    /// not fit `i64` — reachable from user-authored kernels with very large
    /// rational bounds.
    pub fn from_rationals(coeffs: &[Rational], constant: Rational) -> Result<Self, PolytopeError> {
        let mut lcm: i128 = constant.den();
        for c in coeffs {
            lcm = tilecc_linalg::lcm_i128(lcm, c.den());
        }
        let overflow = PolytopeError::Overflow {
            context: "rational constraint scaling",
        };
        let scale = |r: &Rational| -> Result<i64, PolytopeError> {
            let v = r.num().checked_mul(lcm / r.den()).ok_or(overflow)?;
            i64::try_from(v).map_err(|_| overflow)
        };
        let coeffs = coeffs.iter().map(scale).collect::<Result<Vec<_>, _>>()?;
        Ok(Constraint::new(coeffs, scale(&constant)?))
    }

    /// Lower-bound constraint `x_k ≥ bound`.
    pub fn lower_bound(dim: usize, k: usize, bound: i64) -> Self {
        let mut coeffs = vec![0; dim];
        coeffs[k] = 1;
        Constraint::new(coeffs, -bound)
    }

    /// Upper-bound constraint `x_k ≤ bound`.
    pub fn upper_bound(dim: usize, k: usize, bound: i64) -> Self {
        let mut coeffs = vec![0; dim];
        coeffs[k] = -1;
        Constraint::new(coeffs, bound)
    }

    fn normalize(&mut self) {
        let mut g: i128 = self.constant.unsigned_abs() as i128;
        for &c in &self.coeffs {
            g = gcd_i128(g, c as i128);
        }
        if g > 1 {
            let g = g as i64;
            for c in &mut self.coeffs {
                *c /= g;
            }
            self.constant /= g;
        }
    }

    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    #[inline]
    pub fn coeff(&self, k: usize) -> i64 {
        self.coeffs[k]
    }

    #[inline]
    pub fn constant(&self) -> i64 {
        self.constant
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluate `coeffs · x + constant` exactly in `i128`: each product of
    /// two `i64` values fits `i128` with 62 bits to spare, so a sum of
    /// `dim` such products cannot overflow for any realistic nest depth.
    pub fn eval(&self, x: &[i64]) -> i128 {
        assert_eq!(x.len(), self.dim(), "constraint eval dimension mismatch");
        let mut acc = self.constant as i128;
        for (c, v) in self.coeffs.iter().zip(x) {
            acc += (*c as i128) * (*v as i128);
        }
        acc
    }

    /// True iff `x` satisfies the constraint.
    #[inline]
    pub fn satisfied_by(&self, x: &[i64]) -> bool {
        self.eval(x) >= 0
    }

    /// Is this constraint trivially satisfied (all zero coefficients and a
    /// non-negative constant)?
    pub fn is_tautology(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0) && self.constant >= 0
    }

    /// Is this constraint unsatisfiable (all zero coefficients, negative
    /// constant)?
    pub fn is_contradiction(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0) && self.constant < 0
    }

    /// The positive combination `λ·self + μ·other` (λ, μ > 0), used by
    /// Fourier–Motzkin to cancel a variable.
    ///
    /// Fails with [`PolytopeError::Overflow`] when a combined coefficient
    /// does not fit `i64`; the elimination driver propagates the error
    /// through plan construction instead of panicking.
    pub fn combine(
        &self,
        lambda: i64,
        other: &Constraint,
        mu: i64,
    ) -> Result<Constraint, PolytopeError> {
        assert_eq!(self.dim(), other.dim());
        assert!(
            lambda > 0 && mu > 0,
            "FM combination multipliers must be positive"
        );
        let overflow = PolytopeError::Overflow {
            context: "Fourier-Motzkin combination",
        };
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| {
                let v = (a as i128) * (lambda as i128) + (b as i128) * (mu as i128);
                i64::try_from(v).map_err(|_| overflow)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let constant = i64::try_from(
            (self.constant as i128) * (lambda as i128) + (other.constant as i128) * (mu as i128),
        )
        .map_err(|_| overflow)?;
        Ok(Constraint::new(coeffs, constant))
    }
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if first {
                if c == 1 {
                    write!(f, "x{i}")?;
                } else if c == -1 {
                    write!(f, "-x{i}")?;
                } else {
                    write!(f, "{c}*x{i}")?;
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + x{i}")?;
                } else {
                    write!(f, " + {c}*x{i}")?;
                }
            } else if c == -1 {
                write!(f, " - x{i}")?;
            } else {
                write!(f, " - {}*x{i}", -c)?;
            }
        }
        if first {
            write!(f, "{} >= 0", self.constant)
        } else if self.constant == 0 {
            write!(f, " >= 0")
        } else if self.constant > 0 {
            write!(f, " + {} >= 0", self.constant)
        } else {
            write!(f, " - {} >= 0", -self.constant)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_divides_by_gcd() {
        let c = Constraint::new(vec![4, -6], 10);
        assert_eq!(c.coeffs(), &[2, -3]);
        assert_eq!(c.constant(), 5);
    }

    #[test]
    fn from_rationals_scales_exactly() {
        // x/2 - y/3 + 1/6 >= 0  =>  3x - 2y + 1 >= 0
        let c = Constraint::from_rationals(
            &[Rational::new(1, 2), Rational::new(-1, 3)],
            Rational::new(1, 6),
        )
        .unwrap();
        assert_eq!(c.coeffs(), &[3, -2]);
        assert_eq!(c.constant(), 1);
    }

    #[test]
    fn from_rationals_reports_overflow() {
        // Scaling 2^62/3 by lcm(3, 5) = 15 exceeds i64.
        let err = Constraint::from_rationals(
            &[Rational::new(1 << 62, 3), Rational::new(1, 5)],
            Rational::new(0, 1),
        )
        .unwrap_err();
        assert!(matches!(err, PolytopeError::Overflow { .. }));
        // The same shape with small numerators stays exact.
        let ok = Constraint::from_rationals(
            &[Rational::new(1, 3), Rational::new(1, 5)],
            Rational::new(0, 1),
        )
        .unwrap();
        assert_eq!(ok.coeffs(), &[5, 3]);
    }

    #[test]
    fn eval_and_satisfaction() {
        let c = Constraint::new(vec![1, -1], 0); // x >= y
        assert!(c.satisfied_by(&[3, 2]));
        assert!(c.satisfied_by(&[2, 2]));
        assert!(!c.satisfied_by(&[1, 2]));
        assert_eq!(c.eval(&[5, 1]), 4);
    }

    #[test]
    fn bounds_constructors() {
        let lo = Constraint::lower_bound(3, 1, -2); // x1 >= -2
        assert!(lo.satisfied_by(&[0, -2, 0]));
        assert!(!lo.satisfied_by(&[0, -3, 0]));
        let hi = Constraint::upper_bound(3, 2, 7); // x2 <= 7
        assert!(hi.satisfied_by(&[0, 0, 7]));
        assert!(!hi.satisfied_by(&[0, 0, 8]));
    }

    #[test]
    fn combine_cancels_variable() {
        // x - 3 >= 0 (lower) and -2x + 11 >= 0 (upper): FM combines with
        // λ = -u_k = 2, μ = l_k = 1 to cancel x.
        let l = Constraint::new(vec![1], -3);
        let u = Constraint::new(vec![-2], 11);
        let c = l.combine(-u.coeff(0), &u, l.coeff(0)).unwrap();
        assert_eq!(c.coeffs(), &[0]);
        // Raw combination is 0·x + 5 ≥ 0; normalization divides by gcd 5.
        assert_eq!(c.constant(), 1);
        assert!(c.is_tautology());
    }

    #[test]
    fn combine_reports_overflow() {
        // Primitive coefficient vectors (gcd 1) whose FM combination
        // overflows i64: λ ≈ 2^40 times a coefficient ≈ 2^31.
        let big = (1_i64 << 40) + 1;
        let l = Constraint::new(vec![big, 1], 0);
        let u = Constraint::new(vec![-big, (1 << 31) + 1], 0);
        let err = l.combine(big, &u, big).unwrap_err();
        assert!(matches!(err, PolytopeError::Overflow { .. }));
        // Modest multipliers on the same constraints stay exact.
        assert!(l.combine(1, &u, 1).is_ok());
    }

    #[test]
    fn eval_is_exact_at_i64_extremes() {
        // i128 evaluation cannot overflow even at the coefficient extremes
        // that used to panic the checked i64 narrowing.
        let m = i64::MAX as i128;
        // Coprime coefficients so normalization keeps the magnitudes.
        let c = Constraint::new(vec![i64::MAX, i64::MAX - 1], i64::MAX);
        assert_eq!(c.eval(&[i64::MAX, i64::MAX]), m * 2 * m);
    }

    #[test]
    fn tautology_and_contradiction() {
        assert!(Constraint::new(vec![0, 0], 5).is_tautology());
        assert!(Constraint::new(vec![0, 0], 0).is_tautology());
        assert!(Constraint::new(vec![0, 0], -1).is_contradiction());
        assert!(!Constraint::new(vec![1, 0], -1).is_contradiction());
    }
}
