//! Differential battery for the exact-decimal kernel: every `Decimal` and
//! `Rational` operation the search uses, on its machine-word path and its
//! `i128` fallback, against a test-local copy of the all-`i128` code that
//! preceded the word path.
//!
//! Operands are drawn around the boundaries where the kernel switches
//! paths — mantissas at and around `i64::MAX`/`i64::MIN`, `10^18 ± 1`,
//! `10^19`, powers of ten times small factors, and values far past `i64` —
//! with scales 0–28, zero and negatives, and rationals whose denominators
//! carry factors other than 2 and 5 (non-terminating). Both sides must
//! agree on every result, `None` on overflow included. The stack-buffer
//! formatter must equal the reference `Display` and parse back to the
//! same value.

use affidavit::table::{Decimal, Rational};
use proptest::prelude::*;
use rand::{Rng, RngCore};

// ---- reference kernel: the all-`i128` code ---------------------------------

mod reference {
    //! The `i128` `Decimal`/`Rational` arithmetic, as plain functions over
    //! `(mantissa, scale)` and `(num, den)` pairs.

    use std::cmp::Ordering;

    pub const MAX_SCALE: u32 = 28;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Dec {
        pub mantissa: i128,
        pub scale: u32,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Rat {
        pub num: i128,
        pub den: i128,
    }

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

    impl Dec {
        pub fn new(mantissa: i128, scale: u32) -> Dec {
            let mut d = Dec { mantissa, scale };
            if d.mantissa == 0 {
                d.scale = 0;
                return d;
            }
            while d.scale > 0 && d.mantissa % 10 == 0 {
                d.mantissa /= 10;
                d.scale -= 1;
            }
            d
        }

        pub fn parse(s: &str) -> Option<Dec> {
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
            Some(Dec::new(mantissa, scale))
        }

        fn align(a: Dec, b: Dec) -> Option<(i128, i128, u32)> {
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

        pub fn checked_add(self, other: Dec) -> Option<Dec> {
            let (a, b, s) = Dec::align(self, other)?;
            Some(Dec::new(a.checked_add(b)?, s))
        }

        pub fn checked_sub(self, other: Dec) -> Option<Dec> {
            let (a, b, s) = Dec::align(self, other)?;
            Some(Dec::new(a.checked_sub(b)?, s))
        }

        pub fn checked_mul(self, other: Dec) -> Option<Dec> {
            let scale = self.scale.checked_add(other.scale)?;
            if scale > 2 * MAX_SCALE {
                return None;
            }
            let m = self.mantissa.checked_mul(other.mantissa)?;
            let d = Dec::new(m, scale);
            if d.scale > MAX_SCALE {
                return None;
            }
            Some(d)
        }

        pub fn checked_div_exact(self, other: Dec) -> Option<Dec> {
            if other.mantissa == 0 {
                return None;
            }
            Rat::new(self.mantissa, other.mantissa)?
                .scaled_pow10(other.scale as i32 - self.scale as i32)?
                .to_decimal()
        }

        pub fn cmp_value(&self, other: &Dec) -> Ordering {
            match Dec::align(*self, *other) {
                Some((a, b, _)) => a.cmp(&b),
                None => self.mantissa.signum().cmp(&other.mantissa.signum()),
            }
        }
    }

    impl std::fmt::Display for Dec {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a.abs()
    }

    impl Rat {
        pub fn new(num: i128, den: i128) -> Option<Rat> {
            if den == 0 {
                return None;
            }
            if num == 0 {
                return Some(Rat { num: 0, den: 1 });
            }
            let g = gcd(num, den);
            let (mut n, mut d) = (num / g, den / g);
            if d < 0 {
                n = -n;
                d = -d;
            }
            Some(Rat { num: n, den: d })
        }

        pub fn from_decimals(a: Dec, b: Dec) -> Option<Rat> {
            if b.mantissa == 0 {
                return None;
            }
            Rat::new(a.mantissa, b.mantissa)?.scaled_pow10(b.scale as i32 - a.scale as i32)
        }

        pub fn scaled_pow10(self, exp: i32) -> Option<Rat> {
            if exp == 0 {
                return Some(self);
            }
            let f = pow10(exp.unsigned_abs())?;
            if exp > 0 {
                Rat::new(self.num.checked_mul(f)?, self.den)
            } else {
                Rat::new(self.num, self.den.checked_mul(f)?)
            }
        }

        pub fn mul_decimal(self, d: Dec) -> Option<Dec> {
            let r = Rat::new(d.mantissa.checked_mul(self.num)?, self.den)?;
            r.scaled_pow10(-(d.scale as i32))?.to_decimal()
        }

        pub fn div_decimal(self, d: Dec) -> Option<Dec> {
            if self.num == 0 {
                return None;
            }
            self.invert()?.mul_decimal(d)
        }

        pub fn invert(self) -> Option<Rat> {
            Rat::new(self.den, self.num)
        }

        pub fn to_decimal(self) -> Option<Dec> {
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
                return None;
            }
            let scale = twos.max(fives);
            if scale > MAX_SCALE {
                return None;
            }
            let mut mant = self.num;
            for _ in 0..(scale - twos) {
                mant = mant.checked_mul(2)?;
            }
            for _ in 0..(scale - fives) {
                mant = mant.checked_mul(5)?;
            }
            Some(Dec::new(mant, scale))
        }
    }

    impl std::fmt::Display for Rat {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.to_decimal() {
                Some(d) => write!(f, "{d}"),
                None => write!(f, "{}/{}", self.num, self.den),
            }
        }
    }
}

use reference::{Dec, Rat};

// ---- operands ---------------------------------------------------------------

/// A mantissa near a path boundary, or an ordinary one. Never `i128::MIN`,
/// whose negation the reference code does not survive either.
fn mantissa(rng: &mut proptest::TestRng) -> i128 {
    let e18: i128 = 1_000_000_000_000_000_000;
    let near = |c: i128, rng: &mut proptest::TestRng| c + rng.gen_range(-3i128..=3);
    match rng.gen_range(0..10) {
        0 => near(i64::MAX.into(), rng),
        1 => near(i64::MIN.into(), rng),
        2 => near(e18, rng) * if rng.gen_bool(0.5) { -1 } else { 1 },
        3 => near(10 * e18, rng),
        4 => rng.gen_range(-1_000i128..=1_000),
        5 => i128::from(rng.next_u64() as i64),
        // A small factor times a power of ten: trailing zeros to normalize.
        6 => rng.gen_range(-99i128..=99) * 10i128.pow(rng.gen_range(0..=36)),
        // Past `i64`, up to the edge of `i128`.
        7 => {
            (i128::from(rng.next_u64() as i64) << rng.gen_range(1..=63))
                | i128::from(rng.next_u64() as u32)
        }
        8 => (i128::MAX - rng.gen_range(0i128..=6)) * if rng.gen_bool(0.5) { -1 } else { 1 },
        _ => 0,
    }
}

fn decimal(rng: &mut proptest::TestRng) -> (Decimal, Dec) {
    let (m, s) = (mantissa(rng), rng.gen_range(0..=28));
    (Decimal::new(m, s), Dec::new(m, s))
}

/// A rational whose denominator may carry factors other than 2 and 5.
fn rational(rng: &mut proptest::TestRng) -> (Option<Rational>, Option<Rat>) {
    let num = mantissa(rng);
    let den = match rng.gen_range(0..4) {
        0 => mantissa(rng),
        1 => rng.gen_range(-20i128..=20),
        // 2^a · 5^b times a small factor.
        2 => {
            let pow = 2i128.pow(rng.gen_range(0..=40)) * 5i128.pow(rng.gen_range(0..=20));
            pow * [1, 3, 7, 9, 11, -1][rng.gen_range(0..6usize)]
        }
        _ => 10i128.pow(rng.gen_range(0..=38)),
    };
    (Rational::new(num, den), Rat::new(num, den))
}

fn same_dec(got: Option<Decimal>, want: Option<Dec>) -> bool {
    got.map(|d| (d.mantissa(), d.scale())) == want.map(|d| (d.mantissa, d.scale))
}

fn same_rat(got: Option<Rational>, want: Option<Rat>) -> bool {
    got.map(|r| (r.num(), r.den())) == want.map(|r| (r.num, r.den))
}

/// Operand pairs per generated case.
const PAIRS: usize = 64;

#[derive(Clone)]
struct Seeds;

impl Strategy for Seeds {
    type Value = u64;

    fn generate(&self, rng: &mut proptest::TestRng) -> u64 {
        rng.next_u64()
    }
}

fn case_rng(seed: u64) -> proptest::TestRng {
    use rand::SeedableRng;
    proptest::TestRng::seed_from_u64(seed)
}

proptest! {
    /// Normalization, the stack-buffer text (equal to the reference
    /// `Display` and to this `Display`) and its round trip through
    /// `Decimal::parse`; parsing padded, signed and overlong spellings.
    #[test]
    fn text_and_parse_match_reference(seed in Seeds) {
        let mut rng = case_rng(seed);
        for _ in 0..PAIRS {
            let (d, r) = decimal(&mut rng);
            prop_assert!(same_dec(Some(d), Some(r)), "new: {d:?} vs {r:?}");
            let text = d.text();
            let want = r.to_string();
            prop_assert_eq!(text.as_str(), want.as_str());
            prop_assert_eq!(d.to_string(), want.clone());
            prop_assert_eq!(Decimal::parse(&text), Some(d), "round trip of {}", want);
            let padded = [
                format!("+{want}"),
                format!("00{want}"),
                if d.is_integer() { format!("{want}.000") } else { format!("{want}00") },
                format!("{want}9"),
                format!("{want}{want}"),
                format!("-{}", want.trim_start_matches('-')),
            ];
            for s in &padded {
                prop_assert!(
                    same_dec(Decimal::parse(s), Dec::parse(s)),
                    "parse {s:?}: {:?} vs {:?}", Decimal::parse(s), Dec::parse(s)
                );
            }
        }
    }

    /// `checked_add`, `checked_sub`, `checked_mul`, `checked_div_exact`
    /// and `cmp_value` on decimal pairs, overflow to `None` included.
    #[test]
    fn decimal_arithmetic_matches_reference(seed in Seeds) {
        let mut rng = case_rng(seed);
        for _ in 0..PAIRS {
            let ((a, ra), (b, rb)) = (decimal(&mut rng), decimal(&mut rng));
            prop_assert!(same_dec(a.checked_add(b), ra.checked_add(rb)), "{a:?} + {b:?}");
            prop_assert!(same_dec(a.checked_sub(b), ra.checked_sub(rb)), "{a:?} - {b:?}");
            prop_assert!(same_dec(a.checked_mul(b), ra.checked_mul(rb)), "{a:?} · {b:?}");
            prop_assert!(
                same_dec(a.checked_div_exact(b), ra.checked_div_exact(rb)),
                "{a:?} / {b:?}"
            );
            prop_assert_eq!(a.cmp_value(&b), ra.cmp_value(&rb), "cmp {:?} {:?}", a, b);
        }
    }

    /// `Rational::new`, `from_decimals`, `scaled_pow10`, `mul_decimal`,
    /// `div_decimal`, `invert`, `to_decimal` and `Display`, terminating
    /// or not.
    #[test]
    fn rational_arithmetic_matches_reference(seed in Seeds) {
        let mut rng = case_rng(seed);
        for _ in 0..PAIRS {
            let ((a, ra), (b, rb)) = (decimal(&mut rng), decimal(&mut rng));
            prop_assert!(
                same_rat(Rational::from_decimals(a, b), Rat::from_decimals(ra, rb)),
                "{a:?} / {b:?}"
            );
            let (r, rr) = rational(&mut rng);
            prop_assert!(same_rat(r, rr), "new: {r:?} vs {rr:?}");
            let (Some(r), Some(rr)) = (r, rr) else { continue };
            let exp = rng.gen_range(-40..=40);
            prop_assert!(same_rat(r.scaled_pow10(exp), rr.scaled_pow10(exp)), "{r:?} · 10^{exp}");
            prop_assert!(same_dec(r.mul_decimal(a), rr.mul_decimal(ra)), "{r:?} · {a:?}");
            prop_assert!(same_dec(r.div_decimal(a), rr.div_decimal(ra)), "{a:?} / {r:?}");
            prop_assert!(same_rat(r.invert(), rr.invert()), "1 / {r:?}");
            prop_assert!(same_dec(r.to_decimal(), rr.to_decimal()), "{r:?} as decimal");
            prop_assert_eq!(r.to_string(), rr.to_string());
        }
    }
}

/// The boundaries themselves, each against every other.
#[test]
fn boundary_operands_match_reference() {
    let e18: i128 = 1_000_000_000_000_000_000;
    let mut mantissas = vec![
        0,
        1,
        -1,
        e18 - 1,
        e18,
        e18 + 1,
        -e18 - 1,
        10 * e18,
        i128::MAX,
    ];
    for c in [i128::from(i64::MAX), i128::from(i64::MIN)] {
        mantissas.extend((-2..=2).map(|k| c + k));
    }
    let mut operands = Vec::new();
    for &m in &mantissas {
        for s in [0, 1, 9, 18, 19, 28] {
            operands.push((Decimal::new(m, s), Dec::new(m, s)));
        }
    }
    for &(a, ra) in &operands {
        assert_eq!(a.text().as_str(), ra.to_string());
        for &(b, rb) in &operands {
            assert!(
                same_dec(a.checked_add(b), ra.checked_add(rb)),
                "{a:?} + {b:?}"
            );
            assert!(
                same_dec(a.checked_sub(b), ra.checked_sub(rb)),
                "{a:?} - {b:?}"
            );
            assert!(
                same_dec(a.checked_mul(b), ra.checked_mul(rb)),
                "{a:?} · {b:?}"
            );
            assert!(
                same_dec(a.checked_div_exact(b), ra.checked_div_exact(rb)),
                "{a:?} / {b:?}"
            );
            let (r, rr) = (Rational::from_decimals(a, b), Rat::from_decimals(ra, rb));
            assert!(same_rat(r, rr), "{a:?} / {b:?}");
            if let (Some(r), Some(rr)) = (r, rr) {
                assert!(
                    same_dec(r.mul_decimal(a), rr.mul_decimal(ra)),
                    "{r:?} · {a:?}"
                );
                assert!(same_dec(r.to_decimal(), rr.to_decimal()), "{r:?}");
            }
        }
    }
}
