//! Small integer-vector helpers shared across the workspace.

use std::cmp::Ordering;

/// Dot product with overflow checking.
pub fn dot(a: &[i64], b: &[i64]) -> i64 {
    assert_eq!(a.len(), b.len(), "dot product dimension mismatch");
    a.iter().zip(b).fold(0i64, |acc, (&x, &y)| {
        acc.checked_add(x.checked_mul(y).expect("dot overflow"))
            .expect("dot overflow")
    })
}

/// Componentwise sum.
pub fn add(a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "add dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Componentwise difference.
pub fn sub(a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "sub dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Lexicographic comparison of equal-length integer vectors.
pub fn lex_cmp(a: &[i64], b: &[i64]) -> Ordering {
    assert_eq!(a.len(), b.len(), "lex_cmp dimension mismatch");
    for (x, y) in a.iter().zip(b) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// True iff `v` is lexicographically positive (first non-zero entry > 0).
pub fn is_lex_positive(v: &[i64]) -> bool {
    for &x in v {
        if x != 0 {
            return x > 0;
        }
    }
    false
}

/// Floor division `⌊a / b⌋` for positive `b` (wraps `div_euclid` with an
/// assertion documenting the contract used by the paper's `map` functions).
#[inline]
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_floor requires a positive divisor");
    // Unit strides dominate real lattices; skip the hardware division.
    if b == 1 {
        a
    } else {
        a.div_euclid(b)
    }
}

/// Ceiling division `⌈a / b⌉` for positive `b`.
#[inline]
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "div_ceil requires a positive divisor");
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_add_sub() {
        assert_eq!(dot(&[1, 2, 3], &[4, -5, 6]), 12);
        assert_eq!(add(&[1, 2], &[3, 4]), vec![4, 6]);
        assert_eq!(sub(&[1, 2], &[3, 4]), vec![-2, -2]);
    }

    #[test]
    fn lex_ordering() {
        assert_eq!(lex_cmp(&[1, 0], &[1, 0]), Ordering::Equal);
        assert_eq!(lex_cmp(&[0, 9], &[1, 0]), Ordering::Less);
        assert_eq!(lex_cmp(&[1, 1], &[1, 0]), Ordering::Greater);
        assert!(is_lex_positive(&[0, 0, 2]));
        assert!(!is_lex_positive(&[0, -1, 5]));
        assert!(!is_lex_positive(&[0, 0, 0]));
    }

    #[test]
    fn floor_ceil_divisions() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(6, 2), 3);
        assert_eq!(div_floor(-6, 2), -3);
    }
}
