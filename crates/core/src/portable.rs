//! Portable explanations: save a learned transformation to JSON, load it
//! later and apply it to new data — without re-running the search.
//!
//! `AttrFunction` parameters are interned symbols, which are only meaningful
//! relative to one `ValuePool`; the portable form stores plain strings (and
//! exact numerics as strings) so it can cross process boundaries. The CLI
//! exposes this as `affidavit explain --save f.json` /
//! `affidavit apply --explanation f.json`.

use affidavit_functions::datetime::DateFormat;
use affidavit_functions::substring::{Segment, TokenProgram};
use affidavit_functions::{AttrFunction, ValueMap};
use affidavit_table::{Decimal, Rational, ValuePool};
use serde::{Deserialize, Serialize};

use crate::explanation::Explanation;
use crate::instance::ProblemInstance;

/// A pool-independent attribute function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PortableFunction {
    /// `x ↦ x`.
    Identity,
    /// `x ↦ UPPER(x)`.
    Uppercase,
    /// `x ↦ lower(x)`.
    Lowercase,
    /// `x ↦ value`.
    Constant {
        /// The constant output value.
        value: String,
    },
    /// `x ↦ x + y` (`y` in canonical decimal notation).
    Add {
        /// The addend.
        y: String,
    },
    /// `x ↦ x · num/den`.
    Scale {
        /// Numerator (stringified `i128`).
        num: String,
        /// Denominator (stringified `i128`, positive).
        den: String,
    },
    /// Replace the first `|mask|` characters with `mask`.
    FrontMask {
        /// The mask.
        mask: String,
    },
    /// Replace the last `|mask|` characters with `mask`.
    BackMask {
        /// The mask.
        mask: String,
    },
    /// Strip leading repetitions of `ch`.
    FrontCharTrim {
        /// The trimmed character.
        ch: char,
    },
    /// Strip trailing repetitions of `ch`.
    BackCharTrim {
        /// The trimmed character.
        ch: char,
    },
    /// `x ↦ y ◦ x`.
    Prefix {
        /// The prefix.
        y: String,
    },
    /// `x ↦ x ◦ y`.
    Suffix {
        /// The suffix.
        y: String,
    },
    /// `y ◦ x ↦ z ◦ x`, identity otherwise.
    PrefixReplace {
        /// Matched prefix.
        y: String,
        /// Replacement prefix.
        z: String,
    },
    /// `x ◦ y ↦ x ◦ z`, identity otherwise.
    SuffixReplace {
        /// Matched suffix.
        y: String,
        /// Replacement suffix.
        z: String,
    },
    /// Date format conversion.
    DateConvert {
        /// Source format.
        from: DateFormat,
        /// Target format.
        to: DateFormat,
    },
    /// Zero-pad digit strings to `width`.
    ZeroPad {
        /// Target width in characters.
        width: u32,
    },
    /// Insert a thousands separator.
    ThousandsSep {
        /// The separator character.
        sep: char,
    },
    /// Remove a thousands separator.
    SepStrip {
        /// The separator character.
        sep: char,
    },
    /// Round to `places` fraction digits.
    Round {
        /// Number of fraction digits kept.
        places: u32,
    },
    /// FlashFill-lite token program.
    TokenProgram {
        /// Segments: literals are strings, token references are indices
        /// (negative = from the back, `-1` is the last token).
        segments: Vec<PortableSegment>,
    },
    /// Explicit value mapping (identity fallback).
    Map {
        /// `(input, output)` pairs.
        entries: Vec<(String, String)>,
    },
}

/// One pool-independent token-program segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PortableSegment {
    /// A literal glue string.
    Literal(String),
    /// A token reference: 0-based from the front, or negative from the
    /// back (`-1` = last token).
    Token(i32),
}

impl PortableFunction {
    /// Convert from an interned function.
    pub fn from_attr(f: &AttrFunction, pool: &ValuePool) -> PortableFunction {
        match f {
            AttrFunction::Identity => PortableFunction::Identity,
            AttrFunction::Uppercase => PortableFunction::Uppercase,
            AttrFunction::Lowercase => PortableFunction::Lowercase,
            AttrFunction::Constant(v) => PortableFunction::Constant {
                value: pool.get(*v).to_owned(),
            },
            AttrFunction::Add(y) => PortableFunction::Add { y: y.to_string() },
            AttrFunction::Scale(r) => PortableFunction::Scale {
                num: r.num().to_string(),
                den: r.den().to_string(),
            },
            AttrFunction::FrontMask(m) => PortableFunction::FrontMask {
                mask: pool.get(*m).to_owned(),
            },
            AttrFunction::BackMask(m) => PortableFunction::BackMask {
                mask: pool.get(*m).to_owned(),
            },
            AttrFunction::FrontCharTrim(c) => PortableFunction::FrontCharTrim { ch: *c },
            AttrFunction::BackCharTrim(c) => PortableFunction::BackCharTrim { ch: *c },
            AttrFunction::Prefix(y) => PortableFunction::Prefix {
                y: pool.get(*y).to_owned(),
            },
            AttrFunction::Suffix(y) => PortableFunction::Suffix {
                y: pool.get(*y).to_owned(),
            },
            AttrFunction::PrefixReplace(y, z) => PortableFunction::PrefixReplace {
                y: pool.get(*y).to_owned(),
                z: pool.get(*z).to_owned(),
            },
            AttrFunction::SuffixReplace(y, z) => PortableFunction::SuffixReplace {
                y: pool.get(*y).to_owned(),
                z: pool.get(*z).to_owned(),
            },
            AttrFunction::DateConvert(from, to) => PortableFunction::DateConvert {
                from: *from,
                to: *to,
            },
            AttrFunction::ZeroPad(width) => PortableFunction::ZeroPad { width: *width },
            AttrFunction::ThousandsSep(sep) => PortableFunction::ThousandsSep { sep: *sep },
            AttrFunction::SepStrip(sep) => PortableFunction::SepStrip { sep: *sep },
            AttrFunction::Round(places) => PortableFunction::Round { places: *places },
            AttrFunction::TokenProgram(prog) => PortableFunction::TokenProgram {
                segments: prog
                    .segments()
                    .iter()
                    .map(|seg| match *seg {
                        Segment::Literal(l) => PortableSegment::Literal(pool.get(l).to_owned()),
                        Segment::Token {
                            idx,
                            from_end: false,
                        } => PortableSegment::Token(idx as i32),
                        Segment::Token {
                            idx,
                            from_end: true,
                        } => PortableSegment::Token(-(idx as i32) - 1),
                    })
                    .collect(),
            },
            AttrFunction::Map(m) => PortableFunction::Map {
                entries: m
                    .entries()
                    .iter()
                    .map(|&(k, v)| (pool.get(k).to_owned(), pool.get(v).to_owned()))
                    .collect(),
            },
        }
    }

    /// Convert back into an interned function. Fails on malformed numeric
    /// parameters (hand-edited files).
    pub fn to_attr(&self, pool: &mut ValuePool) -> Result<AttrFunction, String> {
        Ok(match self {
            PortableFunction::Identity => AttrFunction::Identity,
            PortableFunction::Uppercase => AttrFunction::Uppercase,
            PortableFunction::Lowercase => AttrFunction::Lowercase,
            PortableFunction::Constant { value } => AttrFunction::Constant(pool.intern(value)),
            PortableFunction::Add { y } => {
                AttrFunction::Add(Decimal::parse(y).ok_or_else(|| format!("bad addend {y:?}"))?)
            }
            PortableFunction::Scale { num, den } => {
                let num: i128 = num.parse().map_err(|_| format!("bad numerator {num:?}"))?;
                let den: i128 = den
                    .parse()
                    .map_err(|_| format!("bad denominator {den:?}"))?;
                AttrFunction::Scale(
                    Rational::new(num, den).ok_or_else(|| "zero denominator".to_owned())?,
                )
            }
            PortableFunction::FrontMask { mask } => AttrFunction::FrontMask(pool.intern(mask)),
            PortableFunction::BackMask { mask } => AttrFunction::BackMask(pool.intern(mask)),
            PortableFunction::FrontCharTrim { ch } => AttrFunction::FrontCharTrim(*ch),
            PortableFunction::BackCharTrim { ch } => AttrFunction::BackCharTrim(*ch),
            PortableFunction::Prefix { y } => AttrFunction::Prefix(pool.intern(y)),
            PortableFunction::Suffix { y } => AttrFunction::Suffix(pool.intern(y)),
            PortableFunction::PrefixReplace { y, z } => {
                AttrFunction::PrefixReplace(pool.intern(y), pool.intern(z))
            }
            PortableFunction::SuffixReplace { y, z } => {
                AttrFunction::SuffixReplace(pool.intern(y), pool.intern(z))
            }
            PortableFunction::DateConvert { from, to } => AttrFunction::DateConvert(*from, *to),
            PortableFunction::ZeroPad { width } => AttrFunction::ZeroPad(*width),
            PortableFunction::ThousandsSep { sep } => AttrFunction::ThousandsSep(*sep),
            PortableFunction::SepStrip { sep } => AttrFunction::SepStrip(*sep),
            PortableFunction::Round { places } => AttrFunction::Round(*places),
            PortableFunction::TokenProgram { segments } => {
                let segs = segments
                    .iter()
                    .map(|seg| {
                        Ok(match seg {
                            PortableSegment::Literal(l) => Segment::Literal(pool.intern(l)),
                            PortableSegment::Token(i) if *i >= 0 && *i < 256 => Segment::Token {
                                idx: *i as u8,
                                from_end: false,
                            },
                            PortableSegment::Token(i) if *i < 0 && *i >= -256 => Segment::Token {
                                idx: (-*i - 1) as u8,
                                from_end: true,
                            },
                            PortableSegment::Token(i) => {
                                return Err(format!("token index {i} out of range"))
                            }
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                AttrFunction::TokenProgram(
                    TokenProgram::new(segs).ok_or_else(|| "degenerate token program".to_owned())?,
                )
            }
            PortableFunction::Map { entries } => AttrFunction::Map(ValueMap::from_pairs(
                entries
                    .iter()
                    .map(|(k, v)| (pool.intern(k), pool.intern(v))),
            )),
        })
    }
}

/// A saved explanation: the learned functions plus provenance metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortableExplanation {
    /// Schema the functions were learned over (column names, in order).
    pub schema: Vec<String>,
    /// One function per column.
    pub functions: Vec<PortableFunction>,
    /// Core size at learning time (provenance).
    pub core_size: usize,
    /// Deleted/inserted counts at learning time (provenance).
    pub deleted: usize,
    /// Inserted count at learning time.
    pub inserted: usize,
}

impl PortableExplanation {
    /// Capture an explanation for persistence.
    pub fn from_explanation(e: &Explanation, instance: &ProblemInstance) -> PortableExplanation {
        PortableExplanation {
            schema: instance.schema().names().map(str::to_owned).collect(),
            functions: e
                .functions
                .iter()
                .map(|f| PortableFunction::from_attr(f, &instance.pool))
                .collect(),
            core_size: e.core_size(),
            deleted: e.deleted.len(),
            inserted: e.inserted.len(),
        }
    }

    /// Reconstruct the interned function tuple against a (possibly new)
    /// pool. The caller is responsible for checking `schema` compatibility.
    pub fn functions(&self, pool: &mut ValuePool) -> Result<Vec<AttrFunction>, String> {
        self.functions.iter().map(|f| f.to_attr(pool)).collect()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("portable explanations are serializable")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<PortableExplanation, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table};

    fn instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["Val", "Unit", "Date"]),
            &mut pool,
            vec![vec!["80000", "USD", "99991231"]],
        );
        let t = Table::from_rows(
            Schema::new(["Val", "Unit", "Date"]),
            &mut pool,
            vec![vec!["80", "k $", "20180701"]],
        );
        ProblemInstance::new(s, t, pool).unwrap()
    }

    fn sample_functions(pool: &mut ValuePool) -> Vec<AttrFunction> {
        vec![
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::Constant(pool.intern("k $")),
            AttrFunction::PrefixReplace(pool.intern("9999123"), pool.intern("2018070")),
        ]
    }

    #[test]
    fn roundtrip_through_json() {
        let mut inst = instance();
        let funcs = sample_functions(&mut inst.pool);
        let e = Explanation::from_functions(funcs.clone(), &mut inst);
        let portable = PortableExplanation::from_explanation(&e, &inst);
        let json = portable.to_json();
        let back = PortableExplanation::from_json(&json).unwrap();
        assert_eq!(back.schema, vec!["Val", "Unit", "Date"]);

        // Reconstruct against a *fresh* pool and verify behaviour matches.
        let mut pool2 = ValuePool::new();
        let funcs2 = back.functions(&mut pool2).unwrap();
        assert_eq!(funcs2.len(), 3);
        let x = pool2.intern("65000");
        let out = funcs2[0].apply(x, &mut pool2).unwrap();
        assert_eq!(pool2.get(out), "65");
        let d = pool2.intern("99991231");
        let out = funcs2[2].apply(d, &mut pool2).unwrap();
        assert_eq!(pool2.get(out), "20180701");
    }

    #[test]
    fn every_variant_roundtrips() {
        let mut pool = ValuePool::new();
        let all = vec![
            AttrFunction::Identity,
            AttrFunction::Uppercase,
            AttrFunction::Lowercase,
            AttrFunction::Constant(pool.intern("c")),
            AttrFunction::Add(Decimal::parse("-2.5").unwrap()),
            AttrFunction::Scale(Rational::new(3, 8).unwrap()),
            AttrFunction::FrontMask(pool.intern("XX")),
            AttrFunction::BackMask(pool.intern("YY")),
            AttrFunction::FrontCharTrim('0'),
            AttrFunction::BackCharTrim(' '),
            AttrFunction::Prefix(pool.intern("p-")),
            AttrFunction::Suffix(pool.intern("-s")),
            AttrFunction::PrefixReplace(pool.intern("a"), pool.intern("b")),
            AttrFunction::SuffixReplace(pool.intern("x"), pool.intern("y")),
            AttrFunction::DateConvert(DateFormat::YyyyMmDd, DateFormat::IsoDashed),
            AttrFunction::ZeroPad(6),
            AttrFunction::ThousandsSep(','),
            AttrFunction::SepStrip(','),
            AttrFunction::Round(1),
            AttrFunction::TokenProgram(
                TokenProgram::new(vec![
                    Segment::Token {
                        idx: 0,
                        from_end: true,
                    },
                    Segment::Literal(pool.intern("-")),
                    Segment::Token {
                        idx: 0,
                        from_end: false,
                    },
                ])
                .expect("valid program"),
            ),
            AttrFunction::Map(ValueMap::from_pairs([
                (pool.intern("1"), pool.intern("one")),
                (pool.intern("2"), pool.intern("two")),
            ])),
        ];
        for f in all {
            let p = PortableFunction::from_attr(&f, &pool);
            let json = serde_json::to_string(&p).unwrap();
            let p2: PortableFunction = serde_json::from_str(&json).unwrap();
            let mut pool2 = ValuePool::new();
            let f2 = p2.to_attr(&mut pool2).unwrap();
            // Behavioural equality on a probe value.
            let probe = "120";
            let a = {
                let mut pp = pool.clone();
                let s = pp.intern(probe);
                f.apply(s, &mut pp).map(|o| pp.get(o).to_owned())
            };
            let b = {
                let s = pool2.intern(probe);
                f2.apply(s, &mut pool2).map(|o| pool2.get(o).to_owned())
            };
            assert_eq!(a, b, "behaviour differs after roundtrip: {f:?}");
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(PortableExplanation::from_json("{not json").is_err());
        let bad = PortableFunction::Scale {
            num: "1".into(),
            den: "0".into(),
        };
        let mut pool = ValuePool::new();
        assert!(bad.to_attr(&mut pool).is_err());
    }
}
