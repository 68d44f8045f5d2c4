//! Exact rational arithmetic on `i128` with panic-on-overflow semantics.
//!
//! The compiler pipeline manipulates small matrices (loop depth `n ≤ 6` in
//! practice) whose entries stay tiny, so a fixed-width exact rational is both
//! sufficient and fast. All operations are checked: an overflow indicates a
//! logic error in the caller (e.g. a degenerate tiling matrix) and aborts
//! loudly instead of producing silently wrong code.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Greatest common divisor of two non-negative integers.
#[inline]
pub fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; panics on overflow.
#[inline]
pub fn lcm_i128(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd_i128(a, b))
        .checked_mul(b)
        .expect("lcm overflow")
        .abs()
}

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Create a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd_i128(num, den);
        let (mut num, mut den) = if g != 0 { (num / g, den / g) } else { (0, 1) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The integer `v` as a rational.
    #[inline]
    pub fn from_int(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }

    #[inline]
    pub fn num(&self) -> i128 {
        self.num
    }

    #[inline]
    pub fn den(&self) -> i128 {
        self.den
    }

    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    #[inline]
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// True iff the value is an integer.
    #[inline]
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The value as an integer.
    ///
    /// # Panics
    /// Panics if the value is not an integer or does not fit an `i64`.
    pub fn to_integer(&self) -> i64 {
        assert!(self.den == 1, "rational {self} is not an integer");
        i64::try_from(self.num).expect("rational exceeds i64")
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> i64 {
        let q = self.num.div_euclid(self.den);
        i64::try_from(q).expect("floor exceeds i64")
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> i64 {
        let q = -(-self.num).div_euclid(self.den);
        i64::try_from(q).expect("ceil exceeds i64")
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Approximate `f64` value (for reporting only; never used in decisions).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn checked_add(self, rhs: Self) -> Option<Self> {
        let g = gcd_i128(self.den, rhs.den);
        let l = self.den / g;
        let r = rhs.den / g;
        let num = self
            .num
            .checked_mul(r)?
            .checked_add(rhs.num.checked_mul(l)?)?;
        let den = self.den.checked_mul(r)?;
        Some(Rational::new(num, den))
    }

    fn checked_mul_r(self, rhs: Self) -> Option<Self> {
        // Cross-reduce first to keep magnitudes small.
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational::new(num, den))
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("rational add overflow")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul_r(rhs).expect("rational mul overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal is exact here
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        let l = self
            .num
            .checked_mul(other.den)
            .expect("rational cmp overflow");
        let r = other
            .num
            .checked_mul(self.den)
            .expect("rational cmp overflow");
        l.cmp(&r)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_sign_and_gcd() {
        let r = Rational::new(4, -6);
        assert_eq!(r.num(), -2);
        assert_eq!(r.den(), 3);
    }

    #[test]
    fn zero_numerator_normalizes_denominator() {
        let r = Rational::new(0, -17);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.den(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::new(3, 4);
        let b = Rational::new(-5, 6);
        assert_eq!(a + b, Rational::new(-1, 12));
        assert_eq!(a - b, Rational::new(19, 12));
        assert_eq!(a * b, Rational::new(-5, 8));
        assert_eq!(a / b, Rational::new(-9, 10));
        assert_eq!(-a + a, Rational::ZERO);
    }

    #[test]
    fn floor_and_ceil_negative_values() {
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(6, 2).floor(), 3);
        assert_eq!(Rational::new(6, 2).ceil(), 3);
        assert_eq!(Rational::new(-6, 2).floor(), -3);
        assert_eq!(Rational::new(-6, 2).ceil(), -3);
    }

    #[test]
    fn ordering_by_cross_multiplication() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(2, 4) == Rational::new(1, 2));
    }

    #[test]
    fn recip_and_integer_conversion() {
        assert_eq!(Rational::new(3, 7).recip(), Rational::new(7, 3));
        assert_eq!(Rational::new(-3, 7).recip(), Rational::new(-7, 3));
        assert!(Rational::new(6, 3).is_integer());
        assert_eq!(Rational::new(6, 3).to_integer(), 2);
    }

    #[test]
    fn gcd_lcm_edge_cases() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(0, 5), 5);
        assert_eq!(gcd_i128(-4, 6), 2);
        assert_eq!(lcm_i128(4, 6), 12);
        assert_eq!(lcm_i128(0, 6), 0);
        assert_eq!(lcm_i128(-4, 6), 12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rational::new(5, 1).to_string(), "5");
        assert_eq!(Rational::new(5, 2).to_string(), "5/2");
        assert_eq!(Rational::new(-5, 2).to_string(), "-5/2");
    }
}
