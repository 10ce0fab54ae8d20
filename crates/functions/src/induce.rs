//! Single-example function induction (§4.4.1).
//!
//! "Our framework supports any meta function whose parameters are learnable
//! from one input-output example." Given one noisy example `(s, t)` sampled
//! from a block, [`induce_from_example`] generates every enabled meta
//! function's instantiations that map `s` to `t`. For ambiguous examples
//! (e.g. the date `'Oct 10 2019' ↦ '20191010'`) *all* consistent candidates
//! are generated, exactly as the paper suggests ("one could simply generate
//! both candidate functions").

use affidavit_table::{Interner, Rational, Sym};

use crate::datetime::induce_conversions;
use crate::function::AttrFunction;
use crate::kind::{MetaKind, Registry};
use crate::numeric_format;
use crate::substring::induce_token_programs;

/// Length in bytes of the longest common prefix of `a` and `b` that ends on
/// a character boundary of both.
fn common_prefix_bytes(a: &str, b: &str) -> usize {
    let mut len = 0;
    let mut ai = a.chars();
    let mut bi = b.chars();
    loop {
        match (ai.next(), bi.next()) {
            (Some(ca), Some(cb)) if ca == cb => len += ca.len_utf8(),
            _ => return len,
        }
    }
}

/// Length in bytes of the longest common suffix (character-boundary safe).
fn common_suffix_bytes(a: &str, b: &str) -> usize {
    let mut len = 0;
    let mut ai = a.chars().rev();
    let mut bi = b.chars().rev();
    loop {
        match (ai.next(), bi.next()) {
            (Some(ca), Some(cb)) if ca == cb => len += ca.len_utf8(),
            _ => return len,
        }
    }
}

/// Induce all candidate functions mapping `s` to `t` under the enabled meta
/// functions. Every returned `f` satisfies `f(s) = t`.
pub fn induce_from_example<I: Interner>(
    s: Sym,
    t: Sym,
    pool: &mut I,
    reg: &Registry,
) -> Vec<AttrFunction> {
    let mut out = Vec::new();
    // The enabled kinds (fewer than 32) as bits, so each check below is
    // one bit test rather than a scan of the registry.
    let enabled = reg.kinds().iter().fold(0u32, |m, &k| m | 1 << k as u32);
    let has = |k: MetaKind| enabled & 1 << k as u32 != 0;

    if s == t {
        if has(MetaKind::Identity) {
            out.push(AttrFunction::Identity);
        }
        if has(MetaKind::Constant) {
            out.push(AttrFunction::Constant(t));
        }
        return out;
    }

    if has(MetaKind::Constant) {
        out.push(AttrFunction::Constant(t));
    }

    // Case transformations. `s != t` here, so these are real changes.
    let (s_str, t_str) = (pool.get(s).to_owned(), pool.get(t).to_owned());
    // `str::to_uppercase` maps char by char; `to_lowercase` does too,
    // except for a capital sigma, which may end a word.
    if has(MetaKind::Uppercase) && s_str.chars().flat_map(char::to_uppercase).eq(t_str.chars()) {
        out.push(AttrFunction::Uppercase);
    }
    if has(MetaKind::Lowercase)
        && if s_str.contains('Σ') {
            s_str.to_lowercase() == t_str
        } else {
            s_str.chars().flat_map(char::to_lowercase).eq(t_str.chars())
        }
    {
        out.push(AttrFunction::Lowercase);
    }

    // Numeric transformations. Arithmetic functions emit *canonical*
    // decimal strings, so they can only reproduce targets that are already
    // canonically formatted ("00" or "1.50" can never be an Add/Scale
    // output — found by the `induction_is_sound` property test).
    let numeric_target_canonical =
        matches!(pool.decimal(t), Some(tv) if tv.text().as_str() == pool.get(t));
    if let (Some(sv), Some(tv)) = (
        pool.decimal(s),
        pool.decimal(t).filter(|_| numeric_target_canonical),
    ) {
        if has(MetaKind::Addition) {
            if let Some(y) = tv.checked_sub(sv) {
                if !y.is_zero() {
                    out.push(AttrFunction::Add(y));
                }
            }
        }
        if has(MetaKind::Scaling) && !sv.is_zero() && !tv.is_zero() {
            if let Some(r) = Rational::from_decimals(tv, sv) {
                if !r.is_one() && !r.is_zero() {
                    out.push(AttrFunction::Scale(r));
                }
            }
        }
    }

    let s_chars = s_str.chars().count();
    let t_chars = t_str.chars().count();
    let pre = common_prefix_bytes(&s_str, &t_str);
    let suf = common_suffix_bytes(&s_str, &t_str);

    // Front masking: equal length, mask = target prefix up to the longest
    // common suffix (the shortest, most general mask).
    if has(MetaKind::FrontMask) && s_chars == t_chars && s_chars >= 1 {
        let mask = &t_str[..t_str.len() - suf];
        debug_assert!(!mask.is_empty(), "s != t guarantees a non-empty mask");
        let m = pool.intern(mask);
        out.push(AttrFunction::FrontMask(m));
    }
    if has(MetaKind::BackMask) && s_chars == t_chars && s_chars >= 1 {
        let mask = &t_str[pre..];
        let m = pool.intern(mask);
        out.push(AttrFunction::BackMask(m));
    }

    // Front char trimming: s = c^k ◦ t, t must not start with c (greedy *).
    if has(MetaKind::FrontCharTrim) && s_str.len() > t_str.len() && s_str.ends_with(&t_str) {
        let head = &s_str[..s_str.len() - t_str.len()];
        let mut chars = head.chars();
        let c = chars.next().expect("head is non-empty");
        if chars.all(|x| x == c) && !t_str.starts_with(c) {
            out.push(AttrFunction::FrontCharTrim(c));
        }
    }
    if has(MetaKind::BackCharTrim) && s_str.len() > t_str.len() && s_str.starts_with(&t_str) {
        let tail = &s_str[t_str.len()..];
        let mut chars = tail.chars();
        let c = chars.next().expect("tail is non-empty");
        if chars.all(|x| x == c) && !t_str.ends_with(c) {
            out.push(AttrFunction::BackCharTrim(c));
        }
    }

    // Prefixing / suffixing: t strictly extends s.
    if has(MetaKind::Prefix) && t_str.len() > s_str.len() && t_str.ends_with(&s_str) {
        let y = pool.intern(&t_str[..t_str.len() - s_str.len()]);
        out.push(AttrFunction::Prefix(y));
    }
    if has(MetaKind::Suffix) && t_str.len() > s_str.len() && t_str.starts_with(&s_str) {
        let y = pool.intern(&t_str[s_str.len()..]);
        out.push(AttrFunction::Suffix(y));
    }

    // Prefix replacement: split off the longest common suffix; the replaced
    // prefix must be non-empty (otherwise this is plain prefixing).
    if has(MetaKind::PrefixReplace) {
        let y = &s_str[..s_str.len() - suf];
        let z = &t_str[..t_str.len() - suf];
        if !y.is_empty() && y != z {
            let y = pool.intern(y);
            let z = pool.intern(z);
            out.push(AttrFunction::PrefixReplace(y, z));
        }
    }
    if has(MetaKind::SuffixReplace) {
        let y = &s_str[pre..];
        let z = &t_str[pre..];
        if !y.is_empty() && y != z {
            let y = pool.intern(y);
            let z = pool.intern(z);
            out.push(AttrFunction::SuffixReplace(y, z));
        }
    }

    if has(MetaKind::DateConvert) {
        for (from, to) in induce_conversions(&s_str, &t_str) {
            out.push(AttrFunction::DateConvert(from, to));
        }
    }

    // --- Extension kinds (Registry::extended) ---------------------------

    // Zero padding: t = 0^k ◦ s over pure digit strings.
    if has(MetaKind::ZeroPad)
        && t_str.len() > s_str.len()
        && t_str.ends_with(&s_str)
        && !s_str.is_empty()
        && t_str.bytes().all(|b| b.is_ascii_digit())
        && t_str[..t_str.len() - s_str.len()]
            .bytes()
            .all(|b| b == b'0')
    {
        out.push(AttrFunction::ZeroPad(t_str.len() as u32));
    }

    // Thousands grouping and its inverse: probe each unambiguous separator.
    for sep in numeric_format::SEPARATORS {
        if has(MetaKind::ThousandsSep)
            && numeric_format::add_thousands_sep(&s_str, sep).as_deref() == Some(&t_str)
        {
            out.push(AttrFunction::ThousandsSep(sep));
        }
        if has(MetaKind::SepStrip)
            && s_str.contains(sep)
            && numeric_format::strip_thousands_sep(&s_str, sep).as_deref() == Some(&t_str)
        {
            out.push(AttrFunction::SepStrip(sep));
        }
    }

    // Rounding: the target's fraction length fixes the number of places;
    // canonical-format target required for the same soundness reason as
    // Add/Scale above.
    if has(MetaKind::Round) && numeric_target_canonical {
        if let (Some(sv), Some(tv)) = (pool.decimal(s), pool.decimal(t)) {
            if sv.scale() > tv.scale() && numeric_format::round_decimal(sv, tv.scale()) == Some(tv)
            {
                out.push(AttrFunction::Round(tv.scale()));
            }
        }
    }

    // FlashFill-lite token programs (front- and back-indexed variants).
    if has(MetaKind::TokenProgram) {
        for p in induce_token_programs(&s_str, &t_str, pool) {
            out.push(AttrFunction::TokenProgram(p));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::ValuePool;

    fn induce(s: &str, t: &str) -> (Vec<AttrFunction>, ValuePool) {
        let mut pool = ValuePool::new();
        let s = pool.intern(s);
        let t = pool.intern(t);
        let reg = Registry::default();
        let fs = induce_from_example(s, t, &mut pool, &reg);
        (fs, pool)
    }

    /// Every induced candidate must actually map s to t.
    fn assert_all_consistent(s: &str, t: &str) {
        let mut pool = ValuePool::new();
        let ss = pool.intern(s);
        let tt = pool.intern(t);
        let reg = Registry::default();
        let fs = induce_from_example(ss, tt, &mut pool, &reg);
        assert!(!fs.is_empty());
        for f in &fs {
            let got = f.apply(ss, &mut pool);
            assert_eq!(
                got.map(|g| pool.get(g).to_owned()),
                Some(t.to_owned()),
                "candidate {f:?} does not map {s:?} to {t:?}"
            );
        }
    }

    #[test]
    fn identity_example() {
        let (fs, _) = induce("IBM", "IBM");
        assert!(fs.contains(&AttrFunction::Identity));
        assert_eq!(fs.len(), 2); // identity + constant
    }

    #[test]
    fn case_mappings_match_the_string_conversions() {
        // 'ß' uppercases to two characters; a word-final capital sigma
        // lowercases to 'ς' only in the string conversion.
        let (fs, _) = induce("straße", "STRASSE");
        assert!(fs.contains(&AttrFunction::Uppercase));
        let (fs, _) = induce("ΟΔΟΣ", "οδος");
        assert!(fs.contains(&AttrFunction::Lowercase));
        let (fs, _) = induce("ΟΔΟΣ", "οδοσ");
        assert!(!fs.contains(&AttrFunction::Lowercase));
        assert_all_consistent("ΟΔΟΣ", "οδος");
    }

    #[test]
    fn paper_val_example() {
        // §4.4.2: from T08's Val value '9.8' and block sources
        // {'6540','9800','0'}: x−6530.2, x/1000, x+9.8, const '9.8'.
        let (fs, _) = induce("9800", "9.8");
        assert!(fs
            .iter()
            .any(|f| matches!(f, AttrFunction::Scale(r) if r.num() == 1 && r.den() == 1000)));
        assert!(fs.iter().any(|f| matches!(f, AttrFunction::Add(_))));
        assert!(fs.iter().any(|f| matches!(f, AttrFunction::Constant(_))));
        assert_all_consistent("9800", "9.8");
        assert_all_consistent("6540", "9.8");
        assert_all_consistent("0", "9.8");
    }

    #[test]
    fn prefix_replace_paper_date() {
        // '99991231' ↦ '20180701' must induce '9999123'x ↦ '2018070'x.
        let (fs, pool) = induce("99991231", "20180701");
        let found = fs.iter().any(|f| {
            matches!(f, AttrFunction::PrefixReplace(y, z)
                if pool.get(*y) == "9999123" && pool.get(*z) == "2018070")
        });
        assert!(found, "candidates: {fs:?}");
        assert_all_consistent("99991231", "20180701");
    }

    #[test]
    fn masks_and_trims() {
        assert_all_consistent("ABCD", "XXCD");
        assert_all_consistent("ABCD", "ABXX");
        assert_all_consistent("000123", "123");
        assert_all_consistent("12300", "123");
        let (fs, _) = induce("000123", "123");
        assert!(fs.contains(&AttrFunction::FrontCharTrim('0')));
    }

    #[test]
    fn prefix_suffix() {
        let (fs, pool) = induce("body", "pre-body");
        assert!(fs
            .iter()
            .any(|f| matches!(f, AttrFunction::Prefix(y) if pool.get(*y) == "pre-")));
        assert_all_consistent("body", "pre-body");
        assert_all_consistent("body", "body.txt");
    }

    #[test]
    fn uppercase_example() {
        let (fs, _) = induce("usd", "USD");
        assert!(fs.contains(&AttrFunction::Uppercase));
        assert_all_consistent("usd", "USD");
    }

    #[test]
    fn trim_not_induced_when_target_starts_with_trim_char() {
        // s = "0012", t = "012": stripping all leading zeros of s gives
        // "12", not "012" — FrontCharTrim must NOT be induced.
        let (fs, _) = induce("0012", "012");
        assert!(!fs.contains(&AttrFunction::FrontCharTrim('0')));
        // But every candidate that *is* induced must still be consistent.
        assert_all_consistent("0012", "012");
    }

    #[test]
    fn date_example() {
        let (fs, _) = induce("Sep 31 2019", "20190931");
        assert!(fs
            .iter()
            .any(|f| matches!(f, AttrFunction::DateConvert(..))));
        assert_all_consistent("Sep 31 2019", "20190931");
    }

    #[test]
    fn no_scale_for_zero_source() {
        let (fs, _) = induce("0", "9.8");
        assert!(!fs.iter().any(|f| matches!(f, AttrFunction::Scale(_))));
    }

    #[test]
    fn respects_registry() {
        let mut pool = ValuePool::new();
        let s = pool.intern("9800");
        let t = pool.intern("9.8");
        let reg = Registry::with_kinds([MetaKind::Constant]);
        let fs = induce_from_example(s, t, &mut pool, &reg);
        assert!(fs.iter().all(|f| matches!(f, AttrFunction::Constant(_))));
    }

    #[test]
    fn unicode_examples_consistent() {
        assert_all_consistent("münchen", "MÜNCHEN");
        assert_all_consistent("日本語", "日本語!");
        assert_all_consistent("ääb", "b");
    }

    // ---- extension kinds (Registry::extended) --------------------------

    fn induce_ext(s: &str, t: &str) -> (Vec<AttrFunction>, ValuePool) {
        let mut pool = ValuePool::new();
        let ss = pool.intern(s);
        let tt = pool.intern(t);
        let fs = induce_from_example(ss, tt, &mut pool, &Registry::extended());
        (fs, pool)
    }

    fn assert_ext_consistent(s: &str, t: &str) {
        let mut pool = ValuePool::new();
        let ss = pool.intern(s);
        let tt = pool.intern(t);
        let fs = induce_from_example(ss, tt, &mut pool, &Registry::extended());
        for f in &fs {
            let got = f.apply(ss, &mut pool);
            assert_eq!(
                got.map(|g| pool.get(g).to_owned()),
                Some(t.to_owned()),
                "extension candidate {f:?} does not map {s:?} to {t:?}"
            );
        }
    }

    #[test]
    fn default_registry_excludes_extension_kinds() {
        let (fs, _) = induce("65", "00065");
        assert!(!fs.iter().any(|f| matches!(f, AttrFunction::ZeroPad(_))));
        let (fs, _) = induce("3780000", "3,780,000");
        assert!(!fs
            .iter()
            .any(|f| matches!(f, AttrFunction::ThousandsSep(_))));
    }

    #[test]
    fn zero_pad_induced() {
        let (fs, _) = induce_ext("65", "00065");
        assert!(fs.contains(&AttrFunction::ZeroPad(5)));
        assert_ext_consistent("65", "00065");
        // Not induced when the payload is not pure digits.
        let (fs, _) = induce_ext("6a", "006a");
        assert!(!fs.iter().any(|f| matches!(f, AttrFunction::ZeroPad(_))));
    }

    #[test]
    fn thousands_sep_induced() {
        let (fs, _) = induce_ext("3780000", "3,780,000");
        assert!(fs.contains(&AttrFunction::ThousandsSep(',')));
        assert_ext_consistent("3780000", "3,780,000");
        let (fs, _) = induce_ext("425000", "425 000");
        assert!(fs.contains(&AttrFunction::ThousandsSep(' ')));
    }

    #[test]
    fn sep_strip_induced() {
        let (fs, _) = induce_ext("3,780,000", "3780000");
        assert!(fs.contains(&AttrFunction::SepStrip(',')));
        assert_ext_consistent("3,780,000", "3780000");
        // Malformed grouping cannot induce the strip function.
        let (fs, _) = induce_ext("1,00", "100");
        assert!(!fs.iter().any(|f| matches!(f, AttrFunction::SepStrip(_))));
    }

    #[test]
    fn round_induced() {
        let (fs, _) = induce_ext("422.437", "422.44");
        assert!(fs.contains(&AttrFunction::Round(2)));
        assert_ext_consistent("422.437", "422.44");
        // Non-canonical targets cannot be rounding outputs.
        let (fs, _) = induce_ext("422.437", "422.40");
        assert!(!fs.iter().any(|f| matches!(f, AttrFunction::Round(_))));
    }

    #[test]
    fn token_program_induced() {
        let (fs, pool) = induce_ext("Doe, John", "John Doe");
        let prog = fs.iter().find_map(|f| match f {
            AttrFunction::TokenProgram(p) => Some(p.clone()),
            _ => None,
        });
        let prog = prog.expect("token program induced");
        assert_eq!(
            prog.apply_str("Fink, Manuel", &pool).as_deref(),
            Some("Manuel Fink")
        );
        assert_ext_consistent("Doe, John", "John Doe");
        assert_ext_consistent("2019-08-01", "08/01/2019");
    }

    #[test]
    fn extension_kinds_are_sound_on_tricky_examples() {
        // Values where several extension kinds could misfire at once.
        for (s, t) in [
            ("1000", "1 000"),
            ("0.9999", "1"),
            ("007", "7"),
            ("1,234.5", "1234.5"),
            ("AB-12", "12-AB"),
            ("-1234567.89", "-1,234,567.89"),
        ] {
            assert_ext_consistent(s, t);
        }
    }
}
