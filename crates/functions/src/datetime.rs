//! Date conversion — the extension meta function of §4.4.1/§6.
//!
//! "An input-output example such as 'Sep 31 2019' ↦ '20190931' contains
//! enough information to learn to split the source value ... and express the
//! date in 'yyyymmdd' format." We implement a small catalogue of concrete
//! formats; a conversion function is a `(from, to)` format pair (ψ = 2).
//!
//! Validation is deliberately lenient (day 1–31 regardless of month): the
//! paper's own example uses "Sep 31". Strictness would only shrink the
//! candidate space, never change correct candidates.

use serde::{Deserialize, Serialize};

/// A calendar date (leniently validated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Date {
    /// Four-digit year.
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31 (not validated against the month).
    pub day: u8,
}

/// Supported concrete date formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DateFormat {
    /// `20190931`
    YyyyMmDd,
    /// `20193109` (day before month; disambiguates the paper's example)
    YyyyDdMm,
    /// `2019-09-31`
    IsoDashed,
    /// `31.09.2019`
    DottedDmy,
    /// `09/31/2019`
    SlashMdy,
    /// `31/09/2019`
    SlashDmy,
    /// `Sep 31 2019`
    MonthNameDy,
    /// `31 Sep 2019`
    DMonthNameY,
}

impl DateFormat {
    /// All supported formats.
    pub const ALL: [DateFormat; 8] = [
        DateFormat::YyyyMmDd,
        DateFormat::YyyyDdMm,
        DateFormat::IsoDashed,
        DateFormat::DottedDmy,
        DateFormat::SlashMdy,
        DateFormat::SlashDmy,
        DateFormat::MonthNameDy,
        DateFormat::DMonthNameY,
    ];

    /// Short name used in explanations / SQL export.
    pub fn name(self) -> &'static str {
        match self {
            DateFormat::YyyyMmDd => "yyyymmdd",
            DateFormat::YyyyDdMm => "yyyyddmm",
            DateFormat::IsoDashed => "yyyy-mm-dd",
            DateFormat::DottedDmy => "dd.mm.yyyy",
            DateFormat::SlashMdy => "mm/dd/yyyy",
            DateFormat::SlashDmy => "dd/mm/yyyy",
            DateFormat::MonthNameDy => "Mon dd yyyy",
            DateFormat::DMonthNameY => "dd Mon yyyy",
        }
    }

    /// Try to parse `s` in this format.
    pub fn parse(self, s: &str) -> Option<Date> {
        match self {
            DateFormat::YyyyMmDd => {
                let b = digits8(s)?;
                date(num(&b[0..4]), num(&b[4..6]) as u8, num(&b[6..8]) as u8)
            }
            DateFormat::YyyyDdMm => {
                let b = digits8(s)?;
                date(num(&b[0..4]), num(&b[6..8]) as u8, num(&b[4..6]) as u8)
            }
            DateFormat::IsoDashed => {
                let (y, m, d) = split3(s, '-')?;
                date(parse_n(y, 4)?, parse_n(m, 2)? as u8, parse_n(d, 2)? as u8)
            }
            DateFormat::DottedDmy => {
                let (d, m, y) = split3(s, '.')?;
                date(parse_n(y, 4)?, parse_n(m, 2)? as u8, parse_n(d, 2)? as u8)
            }
            DateFormat::SlashMdy => {
                let (m, d, y) = split3(s, '/')?;
                date(parse_n(y, 4)?, parse_n(m, 2)? as u8, parse_n(d, 2)? as u8)
            }
            DateFormat::SlashDmy => {
                let (d, m, y) = split3(s, '/')?;
                date(parse_n(y, 4)?, parse_n(m, 2)? as u8, parse_n(d, 2)? as u8)
            }
            DateFormat::MonthNameDy => {
                let mut it = s.split(' ');
                let m = month_from_name(it.next()?)?;
                let d = parse_n(it.next()?, 2)? as u8;
                let y = parse_n(it.next()?, 4)?;
                if it.next().is_some() {
                    return None;
                }
                date(y, m, d)
            }
            DateFormat::DMonthNameY => {
                let mut it = s.split(' ');
                let d = parse_n(it.next()?, 2)? as u8;
                let m = month_from_name(it.next()?)?;
                let y = parse_n(it.next()?, 4)?;
                if it.next().is_some() {
                    return None;
                }
                date(y, m, d)
            }
        }
    }

    /// Render a date in this format.
    pub fn format(self, d: Date) -> String {
        match self {
            DateFormat::YyyyMmDd => format!("{:04}{:02}{:02}", d.year, d.month, d.day),
            DateFormat::YyyyDdMm => format!("{:04}{:02}{:02}", d.year, d.day, d.month),
            DateFormat::IsoDashed => format!("{:04}-{:02}-{:02}", d.year, d.month, d.day),
            DateFormat::DottedDmy => format!("{:02}.{:02}.{:04}", d.day, d.month, d.year),
            DateFormat::SlashMdy => format!("{:02}/{:02}/{:04}", d.month, d.day, d.year),
            DateFormat::SlashDmy => format!("{:02}/{:02}/{:04}", d.day, d.month, d.year),
            DateFormat::MonthNameDy => {
                format!(
                    "{} {:02} {:04}",
                    MONTHS[(d.month - 1) as usize],
                    d.day,
                    d.year
                )
            }
            DateFormat::DMonthNameY => {
                format!(
                    "{:02} {} {:04}",
                    d.day,
                    MONTHS[(d.month - 1) as usize],
                    d.year
                )
            }
        }
    }
}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn month_from_name(name: &str) -> Option<u8> {
    MONTHS
        .iter()
        .position(|m| m.eq_ignore_ascii_case(name))
        .map(|i| (i + 1) as u8)
}

fn date(year: u16, month: u8, day: u8) -> Option<Date> {
    if (1..=12).contains(&month) && (1..=31).contains(&day) && (1000..=9999).contains(&year) {
        Some(Date { year, month, day })
    } else {
        None
    }
}

/// Exactly eight ASCII digits.
fn digits8(s: &str) -> Option<&[u8]> {
    let b = s.as_bytes();
    if b.len() == 8 && b.iter().all(u8::is_ascii_digit) {
        Some(b)
    } else {
        None
    }
}

fn num(b: &[u8]) -> u16 {
    b.iter().fold(0u16, |acc, &d| acc * 10 + (d - b'0') as u16)
}

/// Parse an all-digit field with exactly `width` digits.
fn parse_n(s: &str, width: usize) -> Option<u16> {
    let b = s.as_bytes();
    if b.len() == width && b.iter().all(u8::is_ascii_digit) {
        Some(num(b))
    } else {
        None
    }
}

fn split3(s: &str, sep: char) -> Option<(&str, &str, &str)> {
    let mut it = s.split(sep);
    let a = it.next()?;
    let b = it.next()?;
    let c = it.next()?;
    if it.next().is_some() {
        return None;
    }
    Some((a, b, c))
}

/// Induce all `(from, to)` format pairs consistent with one example.
pub fn induce_conversions(s: &str, t: &str) -> Vec<(DateFormat, DateFormat)> {
    let mut out = Vec::new();
    // Every format renders 8, 10 or 11 bytes and parses only that many.
    let date_len = |v: &str| matches!(v.len(), 8 | 10 | 11);
    if !date_len(s) || !date_len(t) {
        return out;
    }
    for from in DateFormat::ALL {
        let Some(d) = from.parse(s) else { continue };
        for to in DateFormat::ALL {
            if from != to && to.format(d) == t {
                out.push((from, to));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        // 'Sep 31 2019' ↦ '20190931' (yyyymmdd)
        let pairs = induce_conversions("Sep 31 2019", "20190931");
        assert!(pairs.contains(&(DateFormat::MonthNameDy, DateFormat::YyyyMmDd)));
    }

    #[test]
    fn ambiguous_example_yields_both_candidates() {
        // 'Oct 10 2019' ↦ '20191010': yyyymmdd and yyyyddmm both fit
        // (exactly the ambiguity discussed in §4.4.1).
        let pairs = induce_conversions("Oct 10 2019", "20191010");
        assert!(pairs.contains(&(DateFormat::MonthNameDy, DateFormat::YyyyMmDd)));
        assert!(pairs.contains(&(DateFormat::MonthNameDy, DateFormat::YyyyDdMm)));
    }

    #[test]
    fn roundtrip_all_formats() {
        let d = Date {
            year: 2020,
            month: 3,
            day: 30,
        };
        for f in DateFormat::ALL {
            let rendered = f.format(d);
            assert_eq!(f.parse(&rendered), Some(d), "format {f:?} / {rendered}");
            // `induce_conversions` skips values of any other length.
            assert!(matches!(rendered.len(), 8 | 10 | 11), "{rendered}");
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(DateFormat::YyyyMmDd.parse("2019133").is_none());
        assert!(DateFormat::YyyyMmDd.parse("20191340").is_none());
        assert!(DateFormat::IsoDashed.parse("2019/01/01").is_none());
        assert!(DateFormat::MonthNameDy.parse("Xxx 01 2019").is_none());
        assert!(DateFormat::SlashMdy.parse("13/40/2019").is_none());
    }

    #[test]
    fn lenient_day_validation() {
        // Sep 31 does not exist but must parse (paper's own example).
        assert!(DateFormat::MonthNameDy.parse("Sep 31 2019").is_some());
        assert!(DateFormat::MonthNameDy.parse("Sep 32 2019").is_none());
    }
}
