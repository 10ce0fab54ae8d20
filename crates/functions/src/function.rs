//! Instantiated attribute functions (`f ∈ F`).
//!
//! An [`AttrFunction`] is one concrete instantiation of a meta function.
//! `apply` is *partial*: numeric operations on non-numeric values, masking
//! on too-short strings, non-terminating exact divisions and unparseable
//! dates yield `None`, meaning "this function cannot transform this value"
//! (the record then necessarily falls outside the explanation core, and
//! blocking counts it as a dead source). Prefix/suffix replacement and
//! value mappings fall back to identity, exactly as the paper specifies
//! for `f_Date` in Figure 1.

use std::fmt;

use affidavit_table::{Decimal, Interner, Rational, Sym, SymRemap, ValuePool};

use crate::datetime::DateFormat;
use crate::kind::MetaKind;
use crate::numeric_format;
use crate::substring::TokenProgram;
use crate::value_map::ValueMap;

/// A concrete transformation function on attribute values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrFunction {
    /// `x ↦ x`.
    Identity,
    /// `x ↦ UPPERCASE(x)`.
    Uppercase,
    /// `x ↦ lowercase(x)`.
    Lowercase,
    /// `x ↦ c`.
    Constant(Sym),
    /// `x ↦ x + y` (numeric; `y ≠ 0`).
    Add(Decimal),
    /// `x ↦ x · r` (numeric; `r ∉ {0, 1}`). Canonical form of both the
    /// division (`r = 1/y`) and multiplication (`r = y`) meta functions.
    Scale(Rational),
    /// Replace the first `|m|` characters with mask `m`.
    FrontMask(Sym),
    /// Replace the last `|m|` characters with mask `m`.
    BackMask(Sym),
    /// Strip all leading repetitions of the character.
    FrontCharTrim(char),
    /// Strip all trailing repetitions of the character.
    BackCharTrim(char),
    /// `x ↦ y ◦ x`.
    Prefix(Sym),
    /// `x ↦ x ◦ y`.
    Suffix(Sym),
    /// `y ◦ x ↦ z ◦ x`; identity on values not starting with `y`.
    PrefixReplace(Sym, Sym),
    /// `x ◦ y ↦ x ◦ z`; identity on values not ending with `y`.
    SuffixReplace(Sym, Sym),
    /// Reinterpret a date from one concrete format into another.
    DateConvert(DateFormat, DateFormat),
    /// Zero-pad a digit string to a fixed width (extension kind).
    ZeroPad(u32),
    /// Insert a thousands separator every three integer digits (extension).
    ThousandsSep(char),
    /// Remove a thousands separator, validating the grouping (extension).
    SepStrip(char),
    /// Round to a fixed number of fraction digits, half away from zero
    /// (extension kind).
    Round(u32),
    /// FlashFill-lite token program (extension kind; §6 future work).
    TokenProgram(TokenProgram),
    /// Explicit value mapping with identity fallback.
    Map(ValueMap),
}

impl AttrFunction {
    /// The meta function this instantiation belongs to.
    pub fn kind(&self) -> MetaKind {
        match self {
            AttrFunction::Identity => MetaKind::Identity,
            AttrFunction::Uppercase => MetaKind::Uppercase,
            AttrFunction::Lowercase => MetaKind::Lowercase,
            AttrFunction::Constant(_) => MetaKind::Constant,
            AttrFunction::Add(_) => MetaKind::Addition,
            AttrFunction::Scale(_) => MetaKind::Scaling,
            AttrFunction::FrontMask(_) => MetaKind::FrontMask,
            AttrFunction::BackMask(_) => MetaKind::BackMask,
            AttrFunction::FrontCharTrim(_) => MetaKind::FrontCharTrim,
            AttrFunction::BackCharTrim(_) => MetaKind::BackCharTrim,
            AttrFunction::Prefix(_) => MetaKind::Prefix,
            AttrFunction::Suffix(_) => MetaKind::Suffix,
            AttrFunction::PrefixReplace(..) => MetaKind::PrefixReplace,
            AttrFunction::SuffixReplace(..) => MetaKind::SuffixReplace,
            AttrFunction::DateConvert(..) => MetaKind::DateConvert,
            AttrFunction::ZeroPad(_) => MetaKind::ZeroPad,
            AttrFunction::ThousandsSep(_) => MetaKind::ThousandsSep,
            AttrFunction::SepStrip(_) => MetaKind::SepStrip,
            AttrFunction::Round(_) => MetaKind::Round,
            AttrFunction::TokenProgram(_) => MetaKind::TokenProgram,
            AttrFunction::Map(_) => MetaKind::ValueMap,
        }
    }

    /// Description length ψ(f): the smallest number of parameters needed to
    /// instantiate the function from its meta function (Def. 3.9).
    pub fn psi(&self) -> u64 {
        match self {
            AttrFunction::Identity | AttrFunction::Uppercase | AttrFunction::Lowercase => 0,
            AttrFunction::Constant(_)
            | AttrFunction::Add(_)
            | AttrFunction::Scale(_)
            | AttrFunction::FrontMask(_)
            | AttrFunction::BackMask(_)
            | AttrFunction::FrontCharTrim(_)
            | AttrFunction::BackCharTrim(_)
            | AttrFunction::Prefix(_)
            | AttrFunction::Suffix(_)
            | AttrFunction::ZeroPad(_)
            | AttrFunction::ThousandsSep(_)
            | AttrFunction::SepStrip(_)
            | AttrFunction::Round(_) => 1,
            AttrFunction::PrefixReplace(..)
            | AttrFunction::SuffixReplace(..)
            | AttrFunction::DateConvert(..) => 2,
            AttrFunction::TokenProgram(p) => p.psi(),
            AttrFunction::Map(m) => m.psi(),
        }
    }

    /// True for the identity function.
    pub fn is_identity(&self) -> bool {
        matches!(self, AttrFunction::Identity)
    }

    /// Apply to an interned value. `None` = this value cannot be
    /// transformed by this function.
    pub fn apply<I: Interner>(&self, x: Sym, pool: &mut I) -> Option<Sym> {
        match self {
            AttrFunction::Identity => Some(x),
            AttrFunction::Constant(c) => Some(*c),
            AttrFunction::Map(m) => Some(m.apply(x)),
            AttrFunction::Uppercase => {
                let s = pool.get(x);
                if s.chars().all(|c| !c.is_lowercase()) {
                    return Some(x); // already uppercase; avoid re-interning
                }
                let up = s.to_uppercase();
                Some(pool.intern(&up))
            }
            AttrFunction::Lowercase => {
                let s = pool.get(x);
                if s.chars().all(|c| !c.is_uppercase()) {
                    return Some(x);
                }
                let low = s.to_lowercase();
                Some(pool.intern(&low))
            }
            AttrFunction::Add(y) => {
                let v = pool.decimal(x)?;
                let r = v.checked_add(*y)?;
                Some(pool.intern(&r.to_string()))
            }
            AttrFunction::Scale(r) => {
                let v = pool.decimal(x)?;
                let out = r.mul_decimal(v)?;
                Some(pool.intern(&out.to_string()))
            }
            AttrFunction::FrontMask(m) => {
                let mask = pool.get(*m).to_owned();
                let s = pool.get(x);
                let k = mask.chars().count();
                let mut idx = s.char_indices();
                // Byte offset after the k-th character, or None if too short.
                let cut = if k == 0 {
                    0
                } else {
                    idx.nth(k - 1).map(|(i, c)| i + c.len_utf8())?
                };
                let out = format!("{}{}", mask, &s[cut..]);
                Some(pool.intern(&out))
            }
            AttrFunction::BackMask(m) => {
                let mask = pool.get(*m).to_owned();
                let s = pool.get(x);
                let k = mask.chars().count();
                let n = s.chars().count();
                if n < k {
                    return None;
                }
                let cut = s
                    .char_indices()
                    .nth(n - k)
                    .map(|(i, _)| i)
                    .unwrap_or(s.len());
                let out = format!("{}{}", &s[..cut], mask);
                Some(pool.intern(&out))
            }
            AttrFunction::FrontCharTrim(c) => {
                let s = pool.get(x);
                let trimmed = s.trim_start_matches(*c);
                if trimmed.len() == s.len() {
                    Some(x)
                } else {
                    let t = trimmed.to_owned();
                    Some(pool.intern(&t))
                }
            }
            AttrFunction::BackCharTrim(c) => {
                let s = pool.get(x);
                let trimmed = s.trim_end_matches(*c);
                if trimmed.len() == s.len() {
                    Some(x)
                } else {
                    let t = trimmed.to_owned();
                    Some(pool.intern(&t))
                }
            }
            AttrFunction::Prefix(y) => {
                let p = pool.get(*y).to_owned();
                let out = format!("{}{}", p, pool.get(x));
                Some(pool.intern(&out))
            }
            AttrFunction::Suffix(y) => {
                let suf = pool.get(*y).to_owned();
                let out = format!("{}{}", pool.get(x), suf);
                Some(pool.intern(&out))
            }
            AttrFunction::PrefixReplace(y, z) => {
                let pat = pool.get(*y).to_owned();
                let s = pool.get(x);
                match s.strip_prefix(pat.as_str()) {
                    None => Some(x), // identity fallback per Figure 1
                    Some(rest) => {
                        let rest = rest.to_owned();
                        let rep = pool.get(*z).to_owned();
                        let out = format!("{rep}{rest}");
                        Some(pool.intern(&out))
                    }
                }
            }
            AttrFunction::SuffixReplace(y, z) => {
                let pat = pool.get(*y).to_owned();
                let s = pool.get(x);
                match s.strip_suffix(pat.as_str()) {
                    None => Some(x),
                    Some(rest) => {
                        let rest = rest.to_owned();
                        let rep = pool.get(*z).to_owned();
                        let out = format!("{rest}{rep}");
                        Some(pool.intern(&out))
                    }
                }
            }
            AttrFunction::DateConvert(from, to) => {
                let d = from.parse(pool.get(x))?;
                let out = to.format(d);
                Some(pool.intern(&out))
            }
            AttrFunction::ZeroPad(width) => {
                let out = numeric_format::zero_pad(pool.get(x), *width as usize)?;
                if out == pool.get(x) {
                    Some(x)
                } else {
                    Some(pool.intern(&out))
                }
            }
            AttrFunction::ThousandsSep(sep) => {
                let out = numeric_format::add_thousands_sep(pool.get(x), *sep)?;
                if out == pool.get(x) {
                    Some(x)
                } else {
                    Some(pool.intern(&out))
                }
            }
            AttrFunction::SepStrip(sep) => {
                let out = numeric_format::strip_thousands_sep(pool.get(x), *sep)?;
                if out == pool.get(x) {
                    Some(x)
                } else {
                    Some(pool.intern(&out))
                }
            }
            AttrFunction::Round(places) => {
                let v = pool.decimal(x)?;
                let r = numeric_format::round_decimal(v, *places)?;
                Some(pool.intern(&r.to_string()))
            }
            AttrFunction::TokenProgram(p) => {
                let out = p.apply_str(pool.get(x), pool)?;
                Some(pool.intern(&out))
            }
        }
    }

    /// Human-readable rendering (needs the pool for `Sym` parameters).
    pub fn display<'a>(&'a self, pool: &'a ValuePool) -> DisplayFn<'a> {
        DisplayFn { f: self, pool }
    }

    /// Rewrite every `Sym` parameter through `remap`.
    ///
    /// Parallel workers induce functions against a `ScratchPool`
    /// overlay (`affidavit_table::ScratchPool`); before such a function
    /// escapes into shared search state, its scratch symbols must be
    /// rewritten to the shared pool's symbols with the
    /// [`SymRemap`] produced by `ValuePool::absorb`.
    pub fn remap(&self, remap: &SymRemap) -> AttrFunction {
        let m = |s: &Sym| remap.remap(*s);
        match self {
            AttrFunction::Identity
            | AttrFunction::Uppercase
            | AttrFunction::Lowercase
            | AttrFunction::Add(_)
            | AttrFunction::Scale(_)
            | AttrFunction::FrontCharTrim(_)
            | AttrFunction::BackCharTrim(_)
            | AttrFunction::DateConvert(..)
            | AttrFunction::ZeroPad(_)
            | AttrFunction::ThousandsSep(_)
            | AttrFunction::SepStrip(_)
            | AttrFunction::Round(_) => self.clone(),
            AttrFunction::Constant(c) => AttrFunction::Constant(m(c)),
            AttrFunction::FrontMask(s) => AttrFunction::FrontMask(m(s)),
            AttrFunction::BackMask(s) => AttrFunction::BackMask(m(s)),
            AttrFunction::Prefix(s) => AttrFunction::Prefix(m(s)),
            AttrFunction::Suffix(s) => AttrFunction::Suffix(m(s)),
            AttrFunction::PrefixReplace(y, z) => AttrFunction::PrefixReplace(m(y), m(z)),
            AttrFunction::SuffixReplace(y, z) => AttrFunction::SuffixReplace(m(y), m(z)),
            AttrFunction::TokenProgram(p) => AttrFunction::TokenProgram(p.remap(remap)),
            AttrFunction::Map(vm) => AttrFunction::Map(vm.remap(remap)),
        }
    }
}

/// Display adapter for [`AttrFunction`].
pub struct DisplayFn<'a> {
    f: &'a AttrFunction,
    pool: &'a ValuePool,
}

impl fmt::Display for DisplayFn<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.pool;
        match self.f {
            AttrFunction::Identity => write!(out, "x ↦ x"),
            AttrFunction::Uppercase => write!(out, "x ↦ UPPER(x)"),
            AttrFunction::Lowercase => write!(out, "x ↦ lower(x)"),
            AttrFunction::Constant(c) => write!(out, "x ↦ {:?}", p.get(*c)),
            AttrFunction::Add(y) => {
                if y.mantissa() < 0 {
                    write!(out, "x ↦ x - {}", -*y)
                } else {
                    write!(out, "x ↦ x + {y}")
                }
            }
            AttrFunction::Scale(r) => match r.invert().and_then(|inv| inv.to_decimal()) {
                // Prefer the paper's division rendering when 1/r is clean.
                Some(d) if d.is_integer() && !r.to_decimal().is_some_and(|v| v.is_integer()) => {
                    write!(out, "x ↦ x / {d}")
                }
                _ => write!(out, "x ↦ x · {r}"),
            },
            AttrFunction::FrontMask(m) => write!(out, "x ↦ mask_front({:?})", p.get(*m)),
            AttrFunction::BackMask(m) => write!(out, "x ↦ mask_back({:?})", p.get(*m)),
            AttrFunction::FrontCharTrim(c) => write!(out, "x ↦ trim_front({c:?})"),
            AttrFunction::BackCharTrim(c) => write!(out, "x ↦ trim_back({c:?})"),
            AttrFunction::Prefix(y) => write!(out, "x ↦ {:?} ◦ x", p.get(*y)),
            AttrFunction::Suffix(y) => write!(out, "x ↦ x ◦ {:?}", p.get(*y)),
            AttrFunction::PrefixReplace(y, z) => {
                write!(out, "{:?}x ↦ {:?}x, otherwise x ↦ x", p.get(*y), p.get(*z))
            }
            AttrFunction::SuffixReplace(y, z) => {
                write!(out, "x{:?} ↦ x{:?}, otherwise x ↦ x", p.get(*y), p.get(*z))
            }
            AttrFunction::DateConvert(a, b) => {
                write!(out, "x ↦ date({} → {})", a.name(), b.name())
            }
            AttrFunction::ZeroPad(w) => write!(out, "x ↦ zero_pad(x, {w})"),
            AttrFunction::ThousandsSep(c) => write!(out, "x ↦ group_1000s(x, {c:?})"),
            AttrFunction::SepStrip(c) => write!(out, "x ↦ ungroup_1000s(x, {c:?})"),
            AttrFunction::Round(d) => write!(out, "x ↦ round(x, {d})"),
            AttrFunction::TokenProgram(prog) => write!(out, "{}", prog.display(p)),
            AttrFunction::Map(m) => {
                write!(out, "map{{")?;
                for (i, (k, v)) in m.entries().iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    if i >= 6 {
                        write!(out, "… {} entries", m.len())?;
                        break;
                    }
                    write!(out, "{:?} ↦ {:?}", p.get(*k), p.get(*v))?;
                }
                write!(out, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(values: &[&str]) -> (ValuePool, Vec<Sym>) {
        let mut pool = ValuePool::new();
        let syms = values.iter().map(|v| pool.intern(v)).collect();
        (pool, syms)
    }

    fn apply_str(f: &AttrFunction, x: &str) -> Option<String> {
        let mut pool = ValuePool::new();
        let sym = pool.intern(x);
        f.apply(sym, &mut pool).map(|s| pool.get(s).to_owned())
    }

    #[test]
    fn identity_and_cases() {
        assert_eq!(apply_str(&AttrFunction::Identity, "AbC").unwrap(), "AbC");
        assert_eq!(
            apply_str(&AttrFunction::Uppercase, "ab c1").unwrap(),
            "AB C1"
        );
        assert_eq!(
            apply_str(&AttrFunction::Lowercase, "AB c1").unwrap(),
            "ab c1"
        );
    }

    #[test]
    fn constant() {
        let (mut pool, syms) = pool_with(&["k $", "80000"]);
        let f = AttrFunction::Constant(syms[0]);
        assert_eq!(f.apply(syms[1], &mut pool), Some(syms[0]));
    }

    #[test]
    fn addition() {
        let f = AttrFunction::Add(Decimal::parse("9.8").unwrap());
        assert_eq!(apply_str(&f, "0").unwrap(), "9.8");
        assert_eq!(apply_str(&f, "0.2").unwrap(), "10");
        assert!(apply_str(&f, "IBM").is_none());
    }

    #[test]
    fn scale_division_paper() {
        // x ↦ x / 1000 is Scale(1/1000).
        let f = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
        assert_eq!(apply_str(&f, "80000").unwrap(), "80");
        assert_eq!(apply_str(&f, "65").unwrap(), "0.065");
        assert_eq!(apply_str(&f, "0").unwrap(), "0");
        assert!(apply_str(&f, "USD").is_none());
    }

    #[test]
    fn scale_nonterminating_is_none() {
        let f = AttrFunction::Scale(Rational::new(1, 3).unwrap());
        assert!(apply_str(&f, "1").is_none());
        assert_eq!(apply_str(&f, "6").unwrap(), "2");
    }

    #[test]
    fn front_mask() {
        let (mut pool, syms) = pool_with(&["2018070", "99991231"]);
        let f = AttrFunction::FrontMask(syms[0]);
        let out = f.apply(syms[1], &mut pool).unwrap();
        assert_eq!(pool.get(out), "20180701");
        // too short
        let short = pool.intern("123");
        assert!(f.apply(short, &mut pool).is_none());
    }

    #[test]
    fn back_mask() {
        let (mut pool, syms) = pool_with(&["XX", "abcd"]);
        let f = AttrFunction::BackMask(syms[0]);
        let out = f.apply(syms[1], &mut pool).unwrap();
        assert_eq!(pool.get(out), "abXX");
    }

    #[test]
    fn char_trims() {
        assert_eq!(
            apply_str(&AttrFunction::FrontCharTrim('0'), "000123").unwrap(),
            "123"
        );
        assert_eq!(
            apply_str(&AttrFunction::FrontCharTrim('0'), "12300").unwrap(),
            "12300"
        );
        assert_eq!(
            apply_str(&AttrFunction::FrontCharTrim('0'), "0000").unwrap(),
            ""
        );
        assert_eq!(
            apply_str(&AttrFunction::BackCharTrim('0'), "12300").unwrap(),
            "123"
        );
    }

    #[test]
    fn prefix_suffix() {
        let (mut pool, syms) = pool_with(&["pre-", "body"]);
        let f = AttrFunction::Prefix(syms[0]);
        let out = f.apply(syms[1], &mut pool).unwrap();
        assert_eq!(pool.get(out), "pre-body");
        let g = AttrFunction::Suffix(syms[0]);
        let out = g.apply(syms[1], &mut pool).unwrap();
        assert_eq!(pool.get(out), "bodypre-");
    }

    #[test]
    fn prefix_replace_with_identity_fallback() {
        // Figure 1: f_Date = '9999123'x ↦ '2018070'x, otherwise x ↦ x.
        let (mut pool, syms) = pool_with(&["9999123", "2018070", "99991231", "20130416"]);
        let f = AttrFunction::PrefixReplace(syms[0], syms[1]);
        let out = f.apply(syms[2], &mut pool).unwrap();
        assert_eq!(pool.get(out), "20180701");
        assert_eq!(f.apply(syms[3], &mut pool), Some(syms[3])); // fallback
    }

    #[test]
    fn suffix_replace() {
        let (mut pool, syms) = pool_with(&["_old", "_new", "key_old", "other"]);
        let f = AttrFunction::SuffixReplace(syms[0], syms[1]);
        let out = f.apply(syms[2], &mut pool).unwrap();
        assert_eq!(pool.get(out), "key_new");
        assert_eq!(f.apply(syms[3], &mut pool), Some(syms[3]));
    }

    #[test]
    fn date_convert() {
        use crate::datetime::DateFormat;
        let f = AttrFunction::DateConvert(DateFormat::MonthNameDy, DateFormat::YyyyMmDd);
        assert_eq!(apply_str(&f, "Sep 31 2019").unwrap(), "20190931");
        assert!(apply_str(&f, "not a date").is_none());
    }

    #[test]
    fn psi_values() {
        let (_, syms) = pool_with(&["a", "b"]);
        assert_eq!(AttrFunction::Identity.psi(), 0);
        assert_eq!(AttrFunction::Uppercase.psi(), 0);
        assert_eq!(AttrFunction::Constant(syms[0]).psi(), 1);
        assert_eq!(AttrFunction::Add(Decimal::from_int(5)).psi(), 1);
        assert_eq!(AttrFunction::PrefixReplace(syms[0], syms[1]).psi(), 2);
        let m = ValueMap::from_pairs([(Sym(0), Sym(1)), (Sym(2), Sym(3))]);
        assert_eq!(AttrFunction::Map(m).psi(), 4);
    }

    #[test]
    fn unicode_masking() {
        let (mut pool, syms) = pool_with(&["ÄÖ", "こんにちは"]);
        let f = AttrFunction::FrontMask(syms[0]);
        let out = f.apply(syms[1], &mut pool).unwrap();
        assert_eq!(pool.get(out), "ÄÖにちは");
    }

    #[test]
    fn display_renders() {
        let mut pool = ValuePool::new();
        let k = pool.intern("k $");
        let f = AttrFunction::Constant(k);
        assert_eq!(f.display(&pool).to_string(), "x ↦ \"k $\"");
        let g = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
        assert_eq!(g.display(&pool).to_string(), "x ↦ x / 1000");
        let h = AttrFunction::Scale(Rational::new(1000, 1).unwrap());
        assert_eq!(h.display(&pool).to_string(), "x ↦ x · 1000");
    }
}
