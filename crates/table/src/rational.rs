//! Exact rationals — parameters of the division/multiplication meta
//! functions.
//!
//! A division function induced from the example `('65', '0.065')` has the
//! parameter `y = 65 / 0.065 = 1000`, but an example like `('1', '3')`
//! induces `y = 1/3`, which no decimal can hold. Parameters are therefore
//! stored as reduced rationals; *applying* the function succeeds only when
//! the result terminates (see [`Rational::to_decimal`]).
//!
//! As in [`crate::decimal`], every operation runs on machine words while
//! its operands and intermediates fit an `i64`: a binary gcd on `u64`,
//! powers of two and five from shifts and a table. A word overflow redoes
//! the operation on the `i128` path, so both paths give the same
//! rational, and `None` comes only from the `i128` path.

use crate::decimal::{checked_mul, pow10, pow10_word, word, Decimal, MAX_SCALE};

/// A reduced rational number `num / den` with `den > 0`.
// NOTE: the derived ordering is *structural* (mantissa/scale resp.
// num/den), used only for canonical, deterministic sorting of function
// candidates — numeric comparison goes through `cmp_value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// Binary gcd of two positive words.
fn gcd_word(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `5^k` for every `k` an `i64` holds (`k ≤ 27`).
const POW5: [i64; 28] = {
    let mut t = [1i64; 28];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 5;
        k += 1;
    }
    t
};

impl Rational {
    /// Build a reduced rational. Returns `None` if `den == 0`.
    pub fn new(num: i128, den: i128) -> Option<Rational> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some(Rational { num: 0, den: 1 });
        }
        if let (Some(n), Some(d)) = (word(num), word(den)) {
            let (na, da) = (n.unsigned_abs(), d.unsigned_abs());
            let g = gcd_word(na, da);
            let (na, da) = (i128::from(na / g), i128::from(da / g));
            let num = if (n < 0) != (d < 0) { -na } else { na };
            return Some(Rational { num, den: da });
        }
        let g = gcd(num, den);
        let (mut n, mut d) = (num / g, den / g);
        if d < 0 {
            n = -n;
            d = -d;
        }
        Some(Rational { num: n, den: d })
    }

    /// The rational `1`.
    pub fn one() -> Rational {
        Rational { num: 1, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// The ratio of two decimals `a / b`, or `None` if `b == 0`.
    pub fn from_decimals(a: Decimal, b: Decimal) -> Option<Rational> {
        if b.is_zero() {
            return None;
        }
        // a / b = (ma · 10^sb) / (mb · 10^sa)
        let r = Rational::new(a.mantissa(), b.mantissa())?;
        r.scaled_pow10(b.scale() as i32 - a.scale() as i32)
    }

    /// Multiply by `10^exp` (exp may be negative).
    pub fn scaled_pow10(self, exp: i32) -> Option<Rational> {
        if exp == 0 {
            return Some(self);
        }
        let f = pow10(exp.unsigned_abs())?;
        if exp > 0 {
            Rational::new(checked_mul(self.num, f)?, self.den)
        } else {
            Rational::new(self.num, checked_mul(self.den, f)?)
        }
    }

    /// Multiply a decimal by this rational exactly; `None` if the product
    /// does not terminate within [`MAX_SCALE`] fractional digits.
    pub fn mul_decimal(self, d: Decimal) -> Option<Decimal> {
        // On words, `d · num / (den · 10^scale)` reduces once to the
        // rational the two steps below reach.
        let on_words = || {
            let num = word(d.mantissa())?.checked_mul(word(self.num)?)?;
            let den = word(self.den)?.checked_mul(pow10_word(d.scale())?)?;
            Rational::new(num.into(), den.into())
        };
        if let Some(r) = on_words() {
            return r.to_decimal();
        }
        let r = Rational::new(checked_mul(d.mantissa(), self.num)?, self.den)?;
        r.scaled_pow10(-(d.scale() as i32))?.to_decimal()
    }

    /// Divide a decimal by this rational exactly (`d · den / num`).
    pub fn div_decimal(self, d: Decimal) -> Option<Decimal> {
        if self.num == 0 {
            return None;
        }
        self.invert()?.mul_decimal(d)
    }

    /// The reciprocal, or `None` for zero.
    pub fn invert(self) -> Option<Rational> {
        Rational::new(self.den, self.num)
    }

    /// Convert to an exact decimal. Succeeds iff, after reduction, the
    /// denominator is of the form `2^a · 5^b` with the required scale within
    /// [`MAX_SCALE`].
    pub fn to_decimal(self) -> Option<Decimal> {
        if let (Some(num), Ok(den)) = (word(self.num), u64::try_from(self.den)) {
            let twos = den.trailing_zeros();
            let mut den = den >> twos;
            let mut fives = 0u32;
            while den % 5 == 0 {
                den /= 5;
                fives += 1;
            }
            if den != 1 {
                return None; // non-terminating
            }
            let scale = twos.max(fives);
            if scale > MAX_SCALE {
                return None;
            }
            // mantissa = num · 2^(scale−twos) · 5^(scale−fives)
            let (up2, up5) = (scale - twos, (scale - fives) as usize);
            let mant = (up2 < 63)
                .then(|| num.checked_mul(1 << up2))
                .flatten()
                .and_then(|m| m.checked_mul(*POW5.get(up5)?));
            if let Some(mant) = mant {
                return Some(Decimal::from_word(mant, scale));
            }
        }
        let mut den = self.den;
        let mut twos = 0u32;
        let mut fives = 0u32;
        while den % 2 == 0 {
            den /= 2;
            twos += 1;
        }
        while den % 5 == 0 {
            den /= 5;
            fives += 1;
        }
        if den != 1 {
            return None; // non-terminating
        }
        let scale = twos.max(fives);
        if scale > MAX_SCALE {
            return None;
        }
        // mantissa = num · 2^(scale−twos) · 5^(scale−fives)
        let mut mant = self.num;
        for _ in 0..(scale - twos) {
            mant = mant.checked_mul(2)?;
        }
        for _ in 0..(scale - fives) {
            mant = mant.checked_mul(5)?;
        }
        Some(Decimal::new(mant, scale))
    }

    /// True if this rational equals one (the identity multiplier).
    pub fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// True if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }
}

impl std::fmt::Display for Rational {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Prefer the decimal rendering when exact (matches the paper's
        // `x ↦ x / 1000` notation); fall back to `num/den`.
        match self.to_decimal() {
            Some(d) => write!(f, "{d}"),
            None => write!(f, "{}/{}", self.num, self.den),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn reduction() {
        let r = Rational::new(6, -4).unwrap();
        assert_eq!((r.num(), r.den()), (-3, 2));
        assert_eq!(Rational::new(0, 7).unwrap(), Rational::new(0, 1).unwrap());
        assert!(Rational::new(1, 0).is_none());
    }

    #[test]
    fn from_decimals_paper_example() {
        // y = 65 / 0.065 = 1000
        let y = Rational::from_decimals(d("65"), d("0.065")).unwrap();
        assert_eq!((y.num(), y.den()), (1000, 1));
        assert_eq!(y.to_string(), "1000");
    }

    #[test]
    fn div_decimal_applies_paper_function() {
        // f_Val = x ↦ x / 1000 as a rational parameter.
        let y = Rational::new(1000, 1).unwrap();
        assert_eq!(y.div_decimal(d("180000")).unwrap().to_string(), "180");
        assert_eq!(y.div_decimal(d("65")).unwrap().to_string(), "0.065");
    }

    #[test]
    fn mul_decimal_terminating_checks() {
        let third = Rational::new(1, 3).unwrap();
        assert!(third.mul_decimal(d("1")).is_none());
        assert_eq!(third.mul_decimal(d("6")).unwrap().to_string(), "2");
        let r = Rational::new(3, 8).unwrap();
        assert_eq!(r.mul_decimal(d("2")).unwrap().to_string(), "0.75");
    }

    #[test]
    fn display_fallback() {
        assert_eq!(Rational::new(1, 3).unwrap().to_string(), "1/3");
        assert_eq!(Rational::new(1, 4).unwrap().to_string(), "0.25");
    }

    #[test]
    fn to_decimal_scale_cap() {
        // 1 / 2^40 terminates mathematically but exceeds MAX_SCALE.
        let r = Rational::new(1, 1i128 << 40).unwrap();
        assert!(r.to_decimal().is_none());
    }
}
