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
//!
//! Every operation first runs on machine words: when the operands and
//! every intermediate fit an `i64`, it computes there (hardware division
//! and multiplication, powers of ten from a table). Only when a word
//! overflows does it redo the whole operation in `i128`. Both paths compute
//! the same intermediates, so a word result is exactly the `i128` result,
//! and `None` comes only from the `i128` path. [`Decimal::text`] writes
//! the canonical form into a stack buffer; `Display` writes that buffer.

use std::cmp::Ordering;
use std::fmt;

/// Maximum scale (fractional digits) a decimal may carry. Bounds the size of
/// division results; anything finer is treated as non-terminating.
pub const MAX_SCALE: u32 = 28;

/// `10^k` for every `k` an `i128` holds (`k ≤ 38`).
const POW10: [i128; 39] = {
    let mut t = [1i128; 39];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

/// `v` as a machine word, if it fits one.
#[inline]
pub(crate) fn word(v: i128) -> Option<i64> {
    i64::try_from(v).ok()
}

/// `10^exp` as a machine word, if it fits one (`exp ≤ 18`).
#[inline]
pub(crate) fn pow10_word(exp: u32) -> Option<i64> {
    word(*POW10.get(exp as usize)?)
}

/// Checked `a · b`, on machine words when both factors and the product
/// fit them.
#[inline]
pub(crate) fn checked_mul(a: i128, b: i128) -> Option<i128> {
    if let (Some(x), Some(y)) = (word(a), word(b)) {
        if let Some(p) = x.checked_mul(y) {
            return Some(p.into());
        }
    }
    a.checked_mul(b)
}

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
        match word(mantissa) {
            Some(m) => Decimal::from_word(m, scale),
            None => {
                let mut d = Decimal { mantissa, scale };
                d.normalize_wide();
                d
            }
        }
    }

    /// [`Decimal::new`] of a word mantissa, normalized on the word.
    #[inline]
    pub(crate) fn from_word(mut mantissa: i64, mut scale: u32) -> Decimal {
        if mantissa == 0 {
            return Decimal::ZERO;
        }
        while scale > 0 && mantissa % 10 == 0 {
            mantissa /= 10;
            scale -= 1;
        }
        Decimal {
            mantissa: mantissa.into(),
            scale,
        }
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

    fn normalize_wide(&mut self) {
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
        // The mantissa on a word while it fits one, then on `i128`.
        let mut on_word: u64 = 0;
        let mut wide: Option<i128> = None;
        let mut scale: u32 = 0;
        let mut seen_dot = false;
        let mut seen_digit = false;
        for &b in rest {
            match b {
                b'0'..=b'9' => {
                    seen_digit = true;
                    let digit = b - b'0';
                    match wide {
                        Some(m) => wide = Some(m.checked_mul(10)?.checked_add(digit.into())?),
                        None => match on_word
                            .checked_mul(10)
                            .and_then(|m| m.checked_add(digit.into()))
                        {
                            Some(m) => on_word = m,
                            None => wide = Some(i128::from(on_word) * 10 + i128::from(digit)),
                        },
                    }
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
        let mantissa = wide.unwrap_or(i128::from(on_word));
        Some(Decimal::new(if neg { -mantissa } else { mantissa }, scale))
    }

    /// Rescale so both operands share a scale. Returns `(a, b, scale)`.
    fn align(a: Decimal, b: Decimal) -> Option<(i128, i128, u32)> {
        match a.scale.cmp(&b.scale) {
            Ordering::Equal => Some((a.mantissa, b.mantissa, a.scale)),
            Ordering::Less => {
                let f = pow10(b.scale - a.scale)?;
                Some((checked_mul(a.mantissa, f)?, b.mantissa, b.scale))
            }
            Ordering::Greater => {
                let f = pow10(a.scale - b.scale)?;
                Some((a.mantissa, checked_mul(b.mantissa, f)?, a.scale))
            }
        }
    }

    /// [`Decimal::align`] on machine words: `None` when a mantissa, before
    /// or after rescaling, does not fit one.
    #[inline]
    fn align_word(a: Decimal, b: Decimal) -> Option<(i64, i64, u32)> {
        let (x, y) = (word(a.mantissa)?, word(b.mantissa)?);
        match a.scale.cmp(&b.scale) {
            Ordering::Equal => Some((x, y, a.scale)),
            Ordering::Less => Some((x.checked_mul(pow10_word(b.scale - a.scale)?)?, y, b.scale)),
            Ordering::Greater => Some((x, y.checked_mul(pow10_word(a.scale - b.scale)?)?, a.scale)),
        }
    }

    /// Checked addition.
    pub fn checked_add(self, other: Decimal) -> Option<Decimal> {
        if let Some((a, b, s)) = Decimal::align_word(self, other) {
            if let Some(m) = a.checked_add(b) {
                return Some(Decimal::from_word(m, s));
            }
        }
        let (a, b, s) = Decimal::align(self, other)?;
        Some(Decimal::new(a.checked_add(b)?, s))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Decimal) -> Option<Decimal> {
        if let Some((a, b, s)) = Decimal::align_word(self, other) {
            if let Some(m) = a.checked_sub(b) {
                return Some(Decimal::from_word(m, s));
            }
        }
        let (a, b, s) = Decimal::align(self, other)?;
        Some(Decimal::new(a.checked_sub(b)?, s))
    }

    /// Checked multiplication.
    pub fn checked_mul(self, other: Decimal) -> Option<Decimal> {
        let scale = self.scale.checked_add(other.scale)?;
        if scale > 2 * MAX_SCALE {
            return None;
        }
        let d = Decimal::new(checked_mul(self.mantissa, other.mantissa)?, scale);
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
        if let Some((a, b, _)) = Decimal::align_word(*self, *other) {
            return a.cmp(&b);
        }
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

    /// The canonical text `Display` writes, in a stack buffer.
    pub fn text(&self) -> DecimalText {
        let mut t = DecimalText {
            buf: [b'0'; TEXT_BYTES],
            start: TEXT_BYTES,
        };
        let scale = self.scale as usize;
        assert!(scale < POW10.len(), "normalized scale fits i128");
        let abs = self.mantissa.unsigned_abs();
        match u64::try_from(abs) {
            Ok(v) => t.push_digits(v),
            Err(_) => t.push_digits_wide(abs),
        }
        if scale > 0 {
            // `buf` is all '0' ahead of the digits: pad the fraction to
            // `scale` digits and give an integer part of at least "0".
            let digits = TEXT_BYTES - t.start;
            if digits <= scale {
                t.start = TEXT_BYTES - scale - 1;
            }
            let point = TEXT_BYTES - scale;
            t.buf.copy_within(t.start..point, t.start - 1);
            t.buf[point - 1] = b'.';
            t.start -= 1;
        }
        if self.mantissa < 0 {
            t.start -= 1;
            t.buf[t.start] = b'-';
        }
        t
    }
}

/// Room for the longest canonical text: a sign, 39 digits and a point.
const TEXT_BYTES: usize = 48;

/// A decimal's canonical text, formatted into a stack buffer by
/// [`Decimal::text`] (no heap `String`).
#[derive(Clone, Copy)]
pub struct DecimalText {
    buf: [u8; TEXT_BYTES],
    start: usize,
}

impl DecimalText {
    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("decimal text is ASCII")
    }

    /// Prepend the digits of `v` (at least one).
    fn push_digits(&mut self, mut v: u64) {
        loop {
            self.start -= 1;
            self.buf[self.start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                return;
            }
        }
    }

    /// [`DecimalText::push_digits`] of a value past `u64`.
    fn push_digits_wide(&mut self, mut v: u128) {
        loop {
            self.start -= 1;
            self.buf[self.start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                return;
            }
        }
    }
}

impl std::ops::Deref for DecimalText {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
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
    POW10.get(exp as usize).copied()
}

impl fmt::Display for Decimal {
    /// Canonical formatting: no sign for zero, no trailing fractional
    /// zeros (guaranteed by normalization), fraction zero-padded to scale.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
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
