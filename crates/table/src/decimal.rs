//! Exact decimal arithmetic for numeric meta functions.
//!
//! The paper's numeric transformations operate on decimal *strings*
//! (`'65' ↦ '0.065'` under `x ↦ x / 1000`). Reproducing them requires exact
//! arithmetic with canonical string formatting — floating point would
//! produce `0.06500000000000001`-style artifacts that break value matching.
//!
//! A [`Decimal`] is `mantissa · 10^(−scale)` with `mantissa: i128` and
//! `scale: u32`, kept normalized (no trailing fractional zeros, zero has
//! scale 0). All operations are checked; overflow yields `None`, and the
//! caller treats the value as non-transformable (the function is partial
//! there, so the record falls outside the explanation core).

use std::cmp::Ordering;
use std::fmt;

/// Maximum scale (fractional digits) a decimal may carry. Bounds the size of
/// division results; anything finer is treated as non-terminating.
pub const MAX_SCALE: u32 = 28;

/// An exact decimal number: `mantissa · 10^(−scale)`.
// NOTE: the derived ordering is *structural* (mantissa/scale resp.
// num/den), used only for canonical, deterministic sorting of function
// candidates — numeric comparison goes through `cmp_value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Decimal {
    mantissa: i128,
    scale: u32,
}

impl Decimal {
    /// The decimal zero.
    pub const ZERO: Decimal = Decimal {
        mantissa: 0,
        scale: 0,
    };

    /// Build a decimal from mantissa and scale, normalizing trailing zeros.
    pub fn new(mantissa: i128, scale: u32) -> Decimal {
        let mut d = Decimal { mantissa, scale };
        d.normalize();
        d
    }

    /// Build a decimal from an integer.
    pub fn from_int(v: i128) -> Decimal {
        Decimal {
            mantissa: v,
            scale: 0,
        }
    }

    /// The raw mantissa.
    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    /// The raw scale (number of fractional digits).
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// True if the value is an integer (scale 0 after normalization).
    pub fn is_integer(&self) -> bool {
        self.scale == 0
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }

    fn normalize(&mut self) {
        if self.mantissa == 0 {
            self.scale = 0;
            return;
        }
        while self.scale > 0 && self.mantissa % 10 == 0 {
            self.mantissa /= 10;
            self.scale -= 1;
        }
    }

    /// Parse a decimal string: `[+-]? digits [ '.' digits ]` or
    /// `[+-]? '.' digits`. Exponents, thousands separators, and non-ASCII
    /// digits are rejected — such values are simply "not numeric" for the
    /// purposes of the numeric meta functions.
    pub fn parse(s: &str) -> Option<Decimal> {
        let bytes = s.as_bytes();
        if bytes.is_empty() {
            return None;
        }
        let (neg, rest) = match bytes[0] {
            b'-' => (true, &bytes[1..]),
            b'+' => (false, &bytes[1..]),
            _ => (false, bytes),
        };
        if rest.is_empty() {
            return None;
        }
        let mut mantissa: i128 = 0;
        let mut scale: u32 = 0;
        let mut seen_dot = false;
        let mut seen_digit = false;
        for &b in rest {
            match b {
                b'0'..=b'9' => {
                    seen_digit = true;
                    mantissa = mantissa.checked_mul(10)?.checked_add((b - b'0') as i128)?;
                    if seen_dot {
                        scale += 1;
                        if scale > MAX_SCALE {
                            return None;
                        }
                    }
                }
                b'.' if !seen_dot => seen_dot = true,
                _ => return None,
            }
        }
        if !seen_digit {
            return None;
        }
        if neg {
            mantissa = -mantissa;
        }
        Some(Decimal::new(mantissa, scale))
    }

    /// Rescale so both operands share a scale. Returns `(a, b, scale)`.
    fn align(a: Decimal, b: Decimal) -> Option<(i128, i128, u32)> {
        match a.scale.cmp(&b.scale) {
            Ordering::Equal => Some((a.mantissa, b.mantissa, a.scale)),
            Ordering::Less => {
                let f = pow10(b.scale - a.scale)?;
                Some((a.mantissa.checked_mul(f)?, b.mantissa, b.scale))
            }
            Ordering::Greater => {
                let f = pow10(a.scale - b.scale)?;
                Some((a.mantissa, b.mantissa.checked_mul(f)?, a.scale))
            }
        }
    }

    /// Checked addition.
    pub fn checked_add(self, other: Decimal) -> Option<Decimal> {
        let (a, b, s) = Decimal::align(self, other)?;
        Some(Decimal::new(a.checked_add(b)?, s))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Decimal) -> Option<Decimal> {
        let (a, b, s) = Decimal::align(self, other)?;
        Some(Decimal::new(a.checked_sub(b)?, s))
    }

    /// Checked multiplication.
    pub fn checked_mul(self, other: Decimal) -> Option<Decimal> {
        let scale = self.scale.checked_add(other.scale)?;
        if scale > 2 * MAX_SCALE {
            return None;
        }
        let m = self.mantissa.checked_mul(other.mantissa)?;
        let mut d = Decimal { mantissa: m, scale };
        d.normalize();
        if d.scale > MAX_SCALE {
            return None;
        }
        Some(d)
    }

    /// Exact division: succeeds only when the quotient has a terminating
    /// decimal representation within [`MAX_SCALE`] digits.
    pub fn checked_div_exact(self, other: Decimal) -> Option<Decimal> {
        if other.is_zero() {
            return None;
        }
        // self / other = (m1 · 10^s2) / (m2 · 10^s1); delegate to the
        // rational-to-decimal conversion for the terminating check.
        crate::rational::Rational::new(self.mantissa, other.mantissa)?
            .scaled_pow10(other.scale as i32 - self.scale as i32)?
            .to_decimal()
    }

    /// Compare two decimals numerically.
    pub fn cmp_value(&self, other: &Decimal) -> Ordering {
        match Decimal::align(*self, *other) {
            Some((a, b, _)) => a.cmp(&b),
            // Alignment can only overflow for astronomically different
            // scales; fall back to sign + scale comparison.
            None => {
                let sa = self.mantissa.signum();
                let sb = other.mantissa.signum();
                sa.cmp(&sb)
            }
        }
    }
}

impl std::ops::Neg for Decimal {
    type Output = Decimal;

    fn neg(self) -> Decimal {
        Decimal {
            mantissa: -self.mantissa,
            scale: self.scale,
        }
    }
}

/// `10^exp` as `i128`, or `None` on overflow.
pub fn pow10(exp: u32) -> Option<i128> {
    if exp > 38 {
        return None;
    }
    let mut v: i128 = 1;
    for _ in 0..exp {
        v = v.checked_mul(10)?;
    }
    Some(v)
}

impl fmt::Display for Decimal {
    /// Canonical formatting: no sign for zero, no trailing fractional
    /// zeros (guaranteed by normalization), fraction zero-padded to scale.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let neg = self.mantissa < 0;
        let abs = self.mantissa.unsigned_abs();
        let div = pow10(self.scale).expect("normalized scale fits i128") as u128;
        let int = abs / div;
        let frac = abs % div;
        if neg {
            write!(f, "-")?;
        }
        write!(f, "{int}.{frac:0>width$}", width = self.scale as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn parse_and_format_roundtrip() {
        for s in [
            "0", "1", "-1", "80000", "0.065", "-0.5", "9.8", "6.54", "425",
        ] {
            assert_eq!(d(s).to_string(), s, "roundtrip {s}");
        }
    }

    #[test]
    fn parse_normalizes() {
        assert_eq!(d("0007").to_string(), "7");
        assert_eq!(d("1.500").to_string(), "1.5");
        assert_eq!(d("-0").to_string(), "0");
        assert_eq!(d("+3.25").to_string(), "3.25");
        assert_eq!(d(".5").to_string(), "0.5");
        assert_eq!(d("5.").to_string(), "5");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "", "-", "+", ".", "1e5", "1,000", "abc", "1.2.3", "--1", " 1",
        ] {
            assert!(Decimal::parse(s).is_none(), "should reject {s:?}");
        }
    }

    #[test]
    fn addition() {
        assert_eq!(d("1.5").checked_add(d("2.25")).unwrap().to_string(), "3.75");
        assert_eq!(d("0.1").checked_add(d("0.2")).unwrap().to_string(), "0.3");
        assert_eq!(d("5").checked_add(d("-5")).unwrap(), Decimal::ZERO);
    }

    #[test]
    fn subtraction() {
        assert_eq!(d("1").checked_sub(d("0.999")).unwrap().to_string(), "0.001");
    }

    #[test]
    fn multiplication() {
        assert_eq!(d("0.5").checked_mul(d("0.5")).unwrap().to_string(), "0.25");
        assert_eq!(d("1000").checked_mul(d("0.065")).unwrap().to_string(), "65");
    }

    #[test]
    fn paper_division_example() {
        // Figure 1: f_Val = x ↦ x / 1000.
        let k = d("1000");
        assert_eq!(d("80000").checked_div_exact(k).unwrap().to_string(), "80");
        assert_eq!(d("65").checked_div_exact(k).unwrap().to_string(), "0.065");
        assert_eq!(d("9800").checked_div_exact(k).unwrap().to_string(), "9.8");
        assert_eq!(d("6540").checked_div_exact(k).unwrap().to_string(), "6.54");
        assert_eq!(d("0").checked_div_exact(k).unwrap().to_string(), "0");
        assert_eq!(
            d("422400").checked_div_exact(k).unwrap().to_string(),
            "422.4"
        );
    }

    #[test]
    fn nonterminating_division_fails() {
        assert!(d("1").checked_div_exact(d("3")).is_none());
        assert!(d("10").checked_div_exact(d("7")).is_none());
        assert!(d("1").checked_div_exact(d("0")).is_none());
    }

    #[test]
    fn terminating_division_by_composite() {
        // 1 / 8 = 0.125 (denominator 2^3 terminates).
        assert_eq!(
            d("1").checked_div_exact(d("8")).unwrap().to_string(),
            "0.125"
        );
        // 3 / 2.5 = 1.2
        assert_eq!(
            d("3").checked_div_exact(d("2.5")).unwrap().to_string(),
            "1.2"
        );
    }

    #[test]
    fn ordering() {
        assert_eq!(d("0.5").cmp_value(&d("0.25")), Ordering::Greater);
        assert_eq!(d("-1").cmp_value(&d("0")), Ordering::Less);
        assert_eq!(d("1.50").cmp_value(&d("1.5")), Ordering::Equal);
    }

    #[test]
    fn overflow_is_none() {
        let big = "9".repeat(40);
        assert!(Decimal::parse(&big).is_none());
    }
}
