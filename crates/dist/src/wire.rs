//! The versioned, self-describing wire format.
//!
//! Everything that crosses a process boundary is wrapped in an
//! [`Envelope`]: a JSON object carrying the format name
//! ([`WIRE_FORMAT`]), the format version ([`WIRE_VERSION`]), the payload
//! kind (`"job"` or `"result"`) and the payload body. Decoding checks all
//! three before touching the body, so a worker from a different build
//! generation fails loudly instead of silently mis-reading bytes.
//!
//! The payload vocabulary:
//!
//! * [`WireInstance`] — a [`ProblemInstance`] as schema names, the value
//!   pool's strings in interning order, and the two snapshots as rows of
//!   pool indices. Decoding re-interns the strings in order, so symbol
//!   numbering on the worker is identical to the coordinator's pool at
//!   ship time — the precondition for merging results back with
//!   [`SymRemap`](affidavit_table::SymRemap).
//! * [`WireFunction`] / [`WireSegment`] — an
//!   [`AttrFunction`] with its interned parameters as raw pool indices
//!   and its exact numerics (`i128`, [`Decimal`]) as strings, since JSON
//!   numbers cannot carry them losslessly.
//! * [`WireExpansion`] / [`WireExpansionResult`] (version 2) — one
//!   speculated frontier expansion as stealable work: the polled
//!   [`WireState`] plus its pre-drawn alignment on the way out, the
//!   [portable expansion](affidavit_core::expansion) on the way back.
//!   Costs cross the wire as stringified `f64::to_bits` — byte-identity
//!   of the search depends on them, and JSON float printing does not.
//! * [`WireInstanceSpec`] (version 3) — how an expansion job names its
//!   instance: inline on first sight (content-addressed by
//!   [`instance_digest`]), by digest plus an appended pool delta on
//!   every later job, so the instance crosses the transport once per
//!   fleet attachment instead of once per job.
//!
//! The format is covered by round-trip tests and a golden-bytes fixture
//! (`tests/properties_dist.rs`): accidental changes to field names, field
//! order or numeric encodings fail CI instead of stranding deployed
//! workers.

use affidavit_blocking::{Block, Blocking};
use affidavit_core::state::{Assignment, SearchState};
use affidavit_core::{
    ExpansionRequest, PortableAttrExpansion, PortableChild, PortableExpansion, ProblemInstance,
};
use affidavit_functions::datetime::DateFormat;
use affidavit_functions::substring::{Segment, TokenProgram};
use affidavit_functions::{AttrFunction, ValueMap};
use affidavit_table::{Decimal, Rational, RecordId, Schema, Sym, Table, ValuePool};
use serde::{Deserialize, Serialize, Value};

/// Format discriminator carried by every envelope.
pub const WIRE_FORMAT: &str = "affidavit-dist";

/// Version of the wire vocabulary this build speaks. Version 2 added the
/// expansion-job vocabulary ([`WireExpansion`], [`WireExpansionResult`])
/// and the `speculation_min_records` configuration field. Version 3 made
/// expansion jobs reference their instance through [`WireInstanceSpec`] —
/// by content digest with an appended pool delta, shipped inline only on
/// first sight or after a worker-side cache miss.
pub const WIRE_VERSION: u64 = 3;

/// The self-describing outer wrapper of every wire message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Envelope {
    /// Always [`WIRE_FORMAT`].
    pub format: String,
    /// Always [`WIRE_VERSION`] for messages this build produces.
    pub version: u64,
    /// Payload kind: `"job"` or `"result"`.
    pub kind: String,
    /// The payload itself.
    pub body: Value,
}

/// Wrap a payload tree into an envelope and render it as compact JSON.
pub fn seal(kind: &str, body: Value) -> String {
    let envelope = Envelope {
        format: WIRE_FORMAT.to_owned(),
        version: WIRE_VERSION,
        kind: kind.to_owned(),
        body,
    };
    serde_json::to_string(&envelope).expect("envelopes are serializable")
}

/// Parse an envelope, verify format/version/kind, and return the body.
pub fn unseal(text: &str, expect_kind: &str) -> Result<Value, String> {
    let envelope: Envelope = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if envelope.format != WIRE_FORMAT {
        return Err(format!(
            "not an {WIRE_FORMAT} message (format {:?})",
            envelope.format
        ));
    }
    if envelope.version != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this build speaks {WIRE_VERSION})",
            envelope.version
        ));
    }
    if envelope.kind != expect_kind {
        return Err(format!(
            "expected a {expect_kind:?} message, got {:?}",
            envelope.kind
        ));
    }
    Ok(envelope.body)
}

/// A serialized [`ProblemInstance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireInstance {
    /// Column names, in order.
    pub schema: Vec<String>,
    /// The value pool's distinct strings, in interning order. Row cells
    /// index into this array; decoding re-interns in order, reproducing
    /// the coordinator's symbol numbering exactly.
    pub pool: Vec<String>,
    /// Source snapshot rows as pool indices.
    pub source: Vec<Vec<u32>>,
    /// Target snapshot rows as pool indices.
    pub target: Vec<Vec<u32>>,
}

impl WireInstance {
    /// Serialize an instance. The pool may be larger than the set of
    /// symbols the rows reference (it usually is — staging interned both
    /// snapshots into it); the whole prefix ships so worker symbol
    /// numbering matches the coordinator's.
    pub fn from_instance(instance: &ProblemInstance) -> WireInstance {
        let rows = |table: &Table| {
            table
                .rows()
                .map(|r| r.iter().map(|s| s.0).collect())
                .collect()
        };
        WireInstance {
            schema: instance.schema().names().map(str::to_owned).collect(),
            pool: instance.pool.iter().map(|(_, s)| s.to_owned()).collect(),
            source: rows(&instance.source),
            target: rows(&instance.target),
        }
    }

    /// The pool length at ship time — results reference symbols below this
    /// as-is and symbols at or above it through their `new_strings` list.
    pub fn base_len(&self) -> usize {
        self.pool.len()
    }

    /// Rebuild the instance in a fresh RAM pool, validating that the pool
    /// has no duplicate strings (which would shift symbol numbering) and
    /// that every row has the schema's arity and only in-range symbols.
    pub fn decode(&self) -> Result<ProblemInstance, String> {
        self.decode_with_extra(&[])
    }

    /// [`WireInstance::decode`], with `extra` appended to the pool after
    /// the shipped prefix. The coordinator's pool only grows during a
    /// search, so a later batch over the same tables is exactly this base
    /// plus an appended delta — re-interning `extra` in order reproduces
    /// the coordinator's current symbol numbering without re-shipping the
    /// base. Rows may only reference the base prefix (they were encoded
    /// against it); the extras exist for expansion requests and results.
    pub fn decode_with_extra(&self, extra: &[String]) -> Result<ProblemInstance, String> {
        let mut pool = ValuePool::with_capacity(self.pool.len() + extra.len());
        for (i, s) in self.pool.iter().chain(extra).enumerate() {
            let sym = pool.intern(s);
            if sym.index() != i {
                return Err(format!(
                    "wire pool entry {i} duplicates entry {}: {s:?}",
                    sym.index()
                ));
            }
        }
        let arity = self.schema.len();
        let limit = self.pool.len() as u32;
        // Build the columns directly: one gather pass per row validates
        // and transposes into per-attribute buffers, no per-row Record
        // allocation.
        let decode_table = |rows: &[Vec<u32>], which: &str| -> Result<Table, String> {
            let mut columns: Vec<Vec<Sym>> =
                (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
            for (i, row) in rows.iter().enumerate() {
                if row.len() != arity {
                    return Err(format!(
                        "{which} row {i} has {} cells, schema has {arity}",
                        row.len()
                    ));
                }
                if let Some(bad) = row.iter().find(|&&s| s >= limit) {
                    return Err(format!(
                        "{which} row {i} references symbol {bad} outside the pool (len {limit})"
                    ));
                }
                for (col, &s) in columns.iter_mut().zip(row) {
                    col.push(Sym(s));
                }
            }
            Ok(Table::from_columns(
                Schema::new(self.schema.iter().cloned()),
                columns,
            ))
        };
        let source = decode_table(&self.source, "source")?;
        let target = decode_table(&self.target, "target")?;
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())
    }
}

/// How an expansion job names its [`WireInstance`] (version 3).
///
/// The instance is by far the heaviest part of an expansion job, and the
/// speculation driver publishes jobs every iteration — so the fleet ships
/// the instance once, content-addressed by [`instance_digest`], and later
/// jobs carry only the digest plus the pool strings interned since ship
/// time (the coordinator's pool is append-only during a search). A worker
/// that has never seen the digest — attached mid-run, restarted, cache
/// evicted — fails the job with the
/// [`INSTANCE_MISS_PREFIX`](crate::job::INSTANCE_MISS_PREFIX) reason, and
/// the coordinator re-ships that chunk inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ship", rename_all = "snake_case")]
pub enum WireInstanceSpec {
    /// The full base instance rides along (first sight of these tables,
    /// or a re-ship after a worker cache miss). The worker caches it
    /// under `digest` before decoding.
    Inline {
        /// Content address of `instance` ([`instance_digest`]).
        digest: String,
        /// The base instance: tables plus the pool prefix at first ship.
        instance: WireInstance,
        /// Pool strings the coordinator interned past the base, in
        /// interning order.
        extra_pool: Vec<String>,
    },
    /// The worker is expected to hold the base under `digest` already.
    Cached {
        /// Content address of the base instance.
        digest: String,
        /// Pool strings the coordinator interned past the base, in
        /// interning order.
        extra_pool: Vec<String>,
    },
}

impl WireInstanceSpec {
    /// The content digest this spec references.
    pub fn digest(&self) -> &str {
        match self {
            WireInstanceSpec::Inline { digest, .. } | WireInstanceSpec::Cached { digest, .. } => {
                digest
            }
        }
    }
}

/// Stable content address of a serialized instance: 64-bit FNV-1a over
/// its canonical JSON encoding, rendered as 16 hex digits. Hand-rolled
/// because the digest crosses process boundaries — the standard library's
/// hashers are randomly keyed per process, so their values are not valid
/// cache keys on another machine.
pub fn instance_digest(instance: &WireInstance) -> String {
    let encoded = serde_json::to_string(instance).expect("instances are serializable");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in encoded.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// An [`AttrFunction`] on the wire: interned parameters as raw pool
/// indices (meaningful relative to the job's [`WireInstance`] pool plus
/// the result's `new_strings`), exact numerics as strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireFunction {
    /// `x ↦ x`.
    Identity,
    /// `x ↦ UPPER(x)`.
    Uppercase,
    /// `x ↦ lower(x)`.
    Lowercase,
    /// `x ↦ value`.
    Constant {
        /// Pool index of the constant.
        value: u32,
    },
    /// `x ↦ x + y`.
    Add {
        /// The addend in canonical decimal notation.
        y: String,
    },
    /// `x ↦ x · num/den`.
    Scale {
        /// Numerator (stringified `i128`).
        num: String,
        /// Denominator (stringified `i128`, positive).
        den: String,
    },
    /// Replace the first `|mask|` characters with the mask.
    FrontMask {
        /// Pool index of the mask.
        mask: u32,
    },
    /// Replace the last `|mask|` characters with the mask.
    BackMask {
        /// Pool index of the mask.
        mask: u32,
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
        /// Pool index of the prefix.
        y: u32,
    },
    /// `x ↦ x ◦ y`.
    Suffix {
        /// Pool index of the suffix.
        y: u32,
    },
    /// `y ◦ x ↦ z ◦ x`, identity otherwise.
    PrefixReplace {
        /// Pool index of the matched prefix.
        y: u32,
        /// Pool index of the replacement.
        z: u32,
    },
    /// `x ◦ y ↦ x ◦ z`, identity otherwise.
    SuffixReplace {
        /// Pool index of the matched suffix.
        y: u32,
        /// Pool index of the replacement.
        z: u32,
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
        /// Fraction digits kept.
        places: u32,
    },
    /// FlashFill-lite token program.
    TokenProgram {
        /// The program's segments.
        segments: Vec<WireSegment>,
    },
    /// Explicit value mapping (identity fallback).
    Map {
        /// `(input, output)` pool-index pairs.
        entries: Vec<(u32, u32)>,
    },
}

/// One token-program segment on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireSegment {
    /// A literal glue string (pool index).
    Literal {
        /// Pool index of the literal.
        sym: u32,
    },
    /// A token reference: 0-based from the front, or negative from the
    /// back (`-1` = last token).
    Token {
        /// The token index.
        index: i32,
    },
}

impl WireFunction {
    /// Serialize a function. No pool is needed — symbols cross the wire
    /// as raw indices.
    pub fn from_attr(f: &AttrFunction) -> WireFunction {
        match f {
            AttrFunction::Identity => WireFunction::Identity,
            AttrFunction::Uppercase => WireFunction::Uppercase,
            AttrFunction::Lowercase => WireFunction::Lowercase,
            AttrFunction::Constant(v) => WireFunction::Constant { value: v.0 },
            AttrFunction::Add(y) => WireFunction::Add { y: y.to_string() },
            AttrFunction::Scale(r) => WireFunction::Scale {
                num: r.num().to_string(),
                den: r.den().to_string(),
            },
            AttrFunction::FrontMask(m) => WireFunction::FrontMask { mask: m.0 },
            AttrFunction::BackMask(m) => WireFunction::BackMask { mask: m.0 },
            AttrFunction::FrontCharTrim(c) => WireFunction::FrontCharTrim { ch: *c },
            AttrFunction::BackCharTrim(c) => WireFunction::BackCharTrim { ch: *c },
            AttrFunction::Prefix(y) => WireFunction::Prefix { y: y.0 },
            AttrFunction::Suffix(y) => WireFunction::Suffix { y: y.0 },
            AttrFunction::PrefixReplace(y, z) => WireFunction::PrefixReplace { y: y.0, z: z.0 },
            AttrFunction::SuffixReplace(y, z) => WireFunction::SuffixReplace { y: y.0, z: z.0 },
            AttrFunction::DateConvert(from, to) => WireFunction::DateConvert {
                from: *from,
                to: *to,
            },
            AttrFunction::ZeroPad(width) => WireFunction::ZeroPad { width: *width },
            AttrFunction::ThousandsSep(sep) => WireFunction::ThousandsSep { sep: *sep },
            AttrFunction::SepStrip(sep) => WireFunction::SepStrip { sep: *sep },
            AttrFunction::Round(places) => WireFunction::Round { places: *places },
            AttrFunction::TokenProgram(prog) => WireFunction::TokenProgram {
                segments: prog
                    .segments()
                    .iter()
                    .map(|seg| match *seg {
                        Segment::Literal(l) => WireSegment::Literal { sym: l.0 },
                        Segment::Token {
                            idx,
                            from_end: false,
                        } => WireSegment::Token { index: idx as i32 },
                        Segment::Token {
                            idx,
                            from_end: true,
                        } => WireSegment::Token {
                            index: -(idx as i32) - 1,
                        },
                    })
                    .collect(),
            },
            AttrFunction::Map(m) => WireFunction::Map {
                entries: m.entries().iter().map(|&(k, v)| (k.0, v.0)).collect(),
            },
        }
    }

    /// Rebuild the interned function, validating every symbol against the
    /// worker-side pool length (shipped prefix + new strings). The caller
    /// rewrites the symbols into its own pool afterwards via
    /// [`AttrFunction::remap`].
    pub fn to_attr(&self, pool_len: usize) -> Result<AttrFunction, String> {
        let sym = |s: &u32| -> Result<Sym, String> {
            if (*s as usize) < pool_len {
                Ok(Sym(*s))
            } else {
                Err(format!(
                    "function references symbol {s} outside the worker pool (len {pool_len})"
                ))
            }
        };
        Ok(match self {
            WireFunction::Identity => AttrFunction::Identity,
            WireFunction::Uppercase => AttrFunction::Uppercase,
            WireFunction::Lowercase => AttrFunction::Lowercase,
            WireFunction::Constant { value } => AttrFunction::Constant(sym(value)?),
            WireFunction::Add { y } => {
                AttrFunction::Add(Decimal::parse(y).ok_or_else(|| format!("bad addend {y:?}"))?)
            }
            WireFunction::Scale { num, den } => {
                let num: i128 = num.parse().map_err(|_| format!("bad numerator {num:?}"))?;
                let den: i128 = den
                    .parse()
                    .map_err(|_| format!("bad denominator {den:?}"))?;
                AttrFunction::Scale(
                    Rational::new(num, den).ok_or_else(|| "zero denominator".to_owned())?,
                )
            }
            WireFunction::FrontMask { mask } => AttrFunction::FrontMask(sym(mask)?),
            WireFunction::BackMask { mask } => AttrFunction::BackMask(sym(mask)?),
            WireFunction::FrontCharTrim { ch } => AttrFunction::FrontCharTrim(*ch),
            WireFunction::BackCharTrim { ch } => AttrFunction::BackCharTrim(*ch),
            WireFunction::Prefix { y } => AttrFunction::Prefix(sym(y)?),
            WireFunction::Suffix { y } => AttrFunction::Suffix(sym(y)?),
            WireFunction::PrefixReplace { y, z } => AttrFunction::PrefixReplace(sym(y)?, sym(z)?),
            WireFunction::SuffixReplace { y, z } => AttrFunction::SuffixReplace(sym(y)?, sym(z)?),
            WireFunction::DateConvert { from, to } => AttrFunction::DateConvert(*from, *to),
            WireFunction::ZeroPad { width } => AttrFunction::ZeroPad(*width),
            WireFunction::ThousandsSep { sep } => AttrFunction::ThousandsSep(*sep),
            WireFunction::SepStrip { sep } => AttrFunction::SepStrip(*sep),
            WireFunction::Round { places } => AttrFunction::Round(*places),
            WireFunction::TokenProgram { segments } => {
                let segs = segments
                    .iter()
                    .map(|seg| {
                        Ok(match seg {
                            WireSegment::Literal { sym: s } => Segment::Literal(sym(s)?),
                            WireSegment::Token { index } if *index >= 0 && *index < 256 => {
                                Segment::Token {
                                    idx: *index as u8,
                                    from_end: false,
                                }
                            }
                            WireSegment::Token { index } if *index < 0 && *index >= -256 => {
                                Segment::Token {
                                    idx: (-*index - 1) as u8,
                                    from_end: true,
                                }
                            }
                            WireSegment::Token { index } => {
                                return Err(format!("token index {index} out of range"))
                            }
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                AttrFunction::TokenProgram(
                    TokenProgram::new(segs).ok_or_else(|| "degenerate token program".to_owned())?,
                )
            }
            WireFunction::Map { entries } => {
                let pairs = entries
                    .iter()
                    .map(|(k, v)| Ok((sym(k)?, sym(v)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                AttrFunction::Map(ValueMap::from_pairs(pairs))
            }
        })
    }
}

/// A blocking result Φ^H on the wire: per-block source/target record ids
/// plus the dead sources. Record ids are row indices into the job's
/// [`WireInstance`] — globally valid, no remapping needed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBlocking {
    /// Per-block `(source_rows, target_rows)`, in block order.
    pub blocks: Vec<(Vec<u32>, Vec<u32>)>,
    /// Source rows excluded by partial function application.
    pub dead_src: Vec<u32>,
}

impl WireBlocking {
    /// Serialize a blocking.
    pub fn from_blocking(b: &Blocking) -> WireBlocking {
        WireBlocking {
            blocks: b
                .blocks()
                .map(|blk| {
                    (
                        blk.src.iter().map(|r| r.0).collect(),
                        blk.tgt.iter().map(|r| r.0).collect(),
                    )
                })
                .collect(),
            dead_src: b.dead_src().iter().map(|r| r.0).collect(),
        }
    }

    /// Rebuild the blocking, validating every record id against the
    /// snapshot row counts (a malformed id would panic deep inside
    /// refinement instead of failing the job soft).
    pub fn to_blocking(&self, src_rows: usize, tgt_rows: usize) -> Result<Blocking, String> {
        let check = |ids: &[u32], limit: usize, side: &str| -> Result<Vec<RecordId>, String> {
            ids.iter()
                .map(|&r| {
                    if (r as usize) < limit {
                        Ok(RecordId(r))
                    } else {
                        Err(format!(
                            "{side} record {r} outside the snapshot ({limit} rows)"
                        ))
                    }
                })
                .collect()
        };
        let blocks = self
            .blocks
            .iter()
            .map(|(src, tgt)| {
                Ok((
                    check(src, src_rows, "source")?,
                    check(tgt, tgt_rows, "target")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Blocking::from_blocks(
            blocks.iter().map(|(src, tgt)| Block { src, tgt }),
            check(&self.dead_src, src_rows, "source")?,
        ))
    }
}

/// One attribute slot of a [`WireState`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireAssignment {
    /// `∗` — still undecided.
    Undecided,
    /// `⊞` — marked map-suited.
    MapMarked,
    /// A concrete assigned function.
    Assigned {
        /// The assigned function, symbol-indexed against the job's pool.
        func: WireFunction,
    },
}

/// A frontier search state on the wire. Function symbols index the job's
/// [`WireInstance`] pool; the cost ships as stringified `f64::to_bits`
/// because byte-identity of the search depends on it surviving exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireState {
    /// Per-attribute assignments, in schema order.
    pub assignments: Vec<WireAssignment>,
    /// The state's blocking Φ^H.
    pub blocking: WireBlocking,
    /// The state's cost as stringified `f64::to_bits`.
    pub cost: String,
    /// The driver-assigned state id (seeds the per-attribute RNG).
    pub id: u64,
    /// The parent state's id, if any.
    pub parent: Option<u64>,
}

impl WireState {
    /// Serialize a search state.
    pub fn from_state(state: &SearchState) -> WireState {
        WireState {
            assignments: state
                .assignments
                .iter()
                .map(|a| match a {
                    Assignment::Undecided => WireAssignment::Undecided,
                    Assignment::MapMarked => WireAssignment::MapMarked,
                    Assignment::Assigned(f) => WireAssignment::Assigned {
                        func: WireFunction::from_attr(f),
                    },
                })
                .collect(),
            blocking: WireBlocking::from_blocking(&state.blocking),
            cost: state.cost.to_bits().to_string(),
            id: state.id as u64,
            parent: state.parent.map(|p| p as u64),
        }
    }

    /// Rebuild the state, validating function symbols against `pool_len`
    /// and record ids against the snapshot row counts.
    pub fn to_state(
        &self,
        pool_len: usize,
        src_rows: usize,
        tgt_rows: usize,
    ) -> Result<SearchState, String> {
        Ok(SearchState {
            assignments: self
                .assignments
                .iter()
                .map(|a| {
                    Ok(match a {
                        WireAssignment::Undecided => Assignment::Undecided,
                        WireAssignment::MapMarked => Assignment::MapMarked,
                        WireAssignment::Assigned { func } => {
                            Assignment::Assigned(func.to_attr(pool_len)?)
                        }
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            blocking: std::sync::Arc::new(self.blocking.to_blocking(src_rows, tgt_rows)?),
            cost: f64::from_bits(parse_bits(&self.cost)?),
            id: self.id as usize,
            parent: self.parent.map(|p| p as usize),
        })
    }
}

/// One speculated frontier expansion as stealable work (version 2): the
/// polled state plus the alignment the driver pre-drew for it — the only
/// driver-RNG input of phase 1, shipped as drawn pairs so the wire format
/// stays engine-version independent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireExpansion {
    /// The frontier state to expand.
    pub state: WireState,
    /// The pre-drawn `(source_row, target_row)` alignment, in draw order.
    pub alignment: Vec<(u32, u32)>,
}

impl WireExpansion {
    /// Serialize an expansion request.
    pub fn from_request(request: &ExpansionRequest) -> WireExpansion {
        WireExpansion {
            state: WireState::from_state(&request.state),
            alignment: request.alignment.iter().map(|&(s, t)| (s.0, t.0)).collect(),
        }
    }

    /// Rebuild the request, validating symbols and record ids.
    pub fn to_request(
        &self,
        pool_len: usize,
        src_rows: usize,
        tgt_rows: usize,
    ) -> Result<ExpansionRequest, String> {
        let pair = |&(s, t): &(u32, u32)| -> Result<(RecordId, RecordId), String> {
            if s as usize >= src_rows || t as usize >= tgt_rows {
                return Err(format!("alignment pair ({s}, {t}) outside the snapshots"));
            }
            Ok((RecordId(s), RecordId(t)))
        };
        Ok(ExpansionRequest {
            state: self.state.to_state(pool_len, src_rows, tgt_rows)?,
            alignment: self
                .alignment
                .iter()
                .map(pair)
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

/// One candidate child of a [`WireAttrExpansion`]: symbols below the
/// part's `base_len` reference the job's pool, symbols at or above it
/// index into the part's `new_strings`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireChild {
    /// The candidate function, in job symbol coordinates.
    pub func: WireFunction,
    /// The blocking refined under the function.
    pub blocking: WireBlocking,
    /// The child's cost as stringified `f64::to_bits`.
    pub cost: String,
    /// Whether the candidate beat its greedy-map benchmark.
    pub kept: bool,
}

impl WireChild {
    fn from_portable(child: &PortableChild) -> WireChild {
        WireChild {
            func: WireFunction::from_attr(&child.func),
            blocking: WireBlocking::from_blocking(&child.blocking),
            cost: child.cost.to_bits().to_string(),
            kept: child.kept,
        }
    }

    fn to_portable(
        &self,
        pool_len: usize,
        src_rows: usize,
        tgt_rows: usize,
    ) -> Result<PortableChild, String> {
        Ok(PortableChild {
            func: self.func.to_attr(pool_len)?,
            blocking: self.blocking.to_blocking(src_rows, tgt_rows)?,
            cost: f64::from_bits(parse_bits(&self.cost)?),
            kept: self.kept,
        })
    }
}

/// Everything phase 1 produced for one attribute of one state, on the
/// wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAttrExpansion {
    /// The expanded attribute index.
    pub attr: u64,
    /// Pool length the expansion was frozen at: symbols below it are the
    /// job pool's, symbols at `base_len + i` mean `new_strings[i]`.
    pub base_len: u64,
    /// Strings interned past `base_len`, in interning order — the driver
    /// absorbs the whole list; pool growth order is part of the
    /// byte-identity contract.
    pub new_strings: Vec<String>,
    /// The greedy-map benchmark child.
    pub greedy: WireChild,
    /// All ranked candidates, in rank order.
    pub ranked: Vec<WireChild>,
}

/// A completed expansion on the wire — the
/// [`PortableExpansion`] a worker
/// computed for one [`WireExpansion`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireExpansionResult {
    /// Per-attribute expansions, in processed order.
    pub parts: Vec<WireAttrExpansion>,
    /// Whether any ranked candidate beat its greedy benchmark.
    pub any_kept: bool,
}

impl WireExpansionResult {
    /// Serialize a portable expansion.
    pub fn from_portable(expansion: &PortableExpansion) -> WireExpansionResult {
        WireExpansionResult {
            parts: expansion
                .parts
                .iter()
                .map(|p| WireAttrExpansion {
                    attr: p.attr as u64,
                    base_len: p.base_len as u64,
                    new_strings: p.new_strings.iter().map(|s| s.to_string()).collect(),
                    greedy: WireChild::from_portable(&p.greedy),
                    ranked: p.ranked.iter().map(WireChild::from_portable).collect(),
                })
                .collect(),
            any_kept: expansion.any_kept,
        }
    }

    /// Rebuild the portable expansion, validating each part's function
    /// symbols against `base_len + new_strings` and its record ids
    /// against the snapshot row counts.
    pub fn to_portable(
        &self,
        src_rows: usize,
        tgt_rows: usize,
    ) -> Result<PortableExpansion, String> {
        Ok(PortableExpansion {
            parts: self
                .parts
                .iter()
                .map(|p| {
                    let pool_len = p.base_len as usize + p.new_strings.len();
                    Ok(PortableAttrExpansion {
                        attr: p.attr as usize,
                        base_len: p.base_len as usize,
                        new_strings: p.new_strings.iter().map(|s| s.as_str().into()).collect(),
                        greedy: p.greedy.to_portable(pool_len, src_rows, tgt_rows)?,
                        ranked: p
                            .ranked
                            .iter()
                            .map(|c| c.to_portable(pool_len, src_rows, tgt_rows))
                            .collect::<Result<Vec<_>, String>>()?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            any_kept: self.any_kept,
        })
    }
}

fn parse_bits(cost: &str) -> Result<u64, String> {
    cost.parse::<u64>()
        .map_err(|_| format!("bad cost bits {cost:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table};

    fn sample_instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![vec!["80000", "IBM"], vec!["65", "SAP"]],
        );
        let t = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![vec!["80", "IBM"], vec!["0.065", "SAP"]],
        );
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn instance_roundtrips_with_identical_numbering() {
        let instance = sample_instance();
        let wire = WireInstance::from_instance(&instance);
        let back = wire.decode().unwrap();
        assert_eq!(back.pool.len(), instance.pool.len());
        for i in 0..instance.pool.len() {
            let sym = Sym(i as u32);
            assert_eq!(back.pool.get(sym), instance.pool.get(sym));
        }
        assert_eq!(
            WireInstance::from_instance(&back),
            wire,
            "re-encoding must be a fixed point"
        );
    }

    #[test]
    fn decode_with_extra_extends_the_pool_in_order() {
        let instance = sample_instance();
        let wire = WireInstance::from_instance(&instance);
        let base_len = wire.base_len();
        let extra = vec!["brand-new".to_owned(), "also-new".to_owned()];
        let back = wire.decode_with_extra(&extra).unwrap();
        assert_eq!(back.pool.len(), base_len + 2);
        assert_eq!(back.pool.get(Sym(base_len as u32)), "brand-new");
        assert_eq!(back.pool.get(Sym(base_len as u32 + 1)), "also-new");
        // An extra duplicating a base string would shift numbering — reject.
        let dup = vec![wire.pool[0].clone()];
        assert!(wire
            .decode_with_extra(&dup)
            .unwrap_err()
            .contains("duplicates"));
    }

    #[test]
    fn instance_digests_are_stable_and_content_sensitive() {
        let wire = WireInstance::from_instance(&sample_instance());
        let digest = instance_digest(&wire);
        assert_eq!(digest.len(), 16);
        assert_eq!(digest, instance_digest(&wire.clone()), "deterministic");
        let mut grown = wire.clone();
        grown.pool.push("more".to_owned());
        assert_ne!(digest, instance_digest(&grown));
    }

    #[test]
    fn decode_rejects_malformed_instances() {
        let instance = sample_instance();
        let wire = WireInstance::from_instance(&instance);

        let mut dup = wire.clone();
        dup.pool.push(dup.pool[0].clone());
        assert!(dup.decode().unwrap_err().contains("duplicates"));

        let mut bad_sym = wire.clone();
        bad_sym.source[0][0] = 999;
        assert!(bad_sym.decode().unwrap_err().contains("outside the pool"));

        let mut bad_arity = wire.clone();
        bad_arity.target[1].pop();
        assert!(bad_arity.decode().unwrap_err().contains("cells"));
    }

    #[test]
    fn envelope_rejects_foreign_messages() {
        let body = Value::Object(vec![]);
        let text = seal("job", body.clone());
        assert!(unseal(&text, "job").is_ok());
        assert!(unseal(&text, "result").unwrap_err().contains("expected"));
        let alien = text.replace("affidavit-dist", "other-format");
        assert!(unseal(&alien, "job").unwrap_err().contains("format"));
        let future = text.replace("\"version\":3", "\"version\":4");
        assert!(unseal(&future, "job")
            .unwrap_err()
            .contains("unsupported wire version"));
    }

    #[test]
    fn functions_roundtrip_without_a_pool() {
        let mut pool = ValuePool::new();
        let all = vec![
            AttrFunction::Identity,
            AttrFunction::Constant(pool.intern("c")),
            AttrFunction::Add(Decimal::parse("-2.5").unwrap()),
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::PrefixReplace(pool.intern("a"), pool.intern("b")),
            AttrFunction::DateConvert(DateFormat::YyyyMmDd, DateFormat::IsoDashed),
            AttrFunction::TokenProgram(
                TokenProgram::new(vec![
                    Segment::Token {
                        idx: 0,
                        from_end: true,
                    },
                    Segment::Literal(pool.intern("-")),
                    Segment::Token {
                        idx: 1,
                        from_end: false,
                    },
                ])
                .unwrap(),
            ),
            AttrFunction::Map(ValueMap::from_pairs([
                (pool.intern("1"), pool.intern("one")),
                (pool.intern("2"), pool.intern("two")),
            ])),
        ];
        for f in all {
            let wire = WireFunction::from_attr(&f);
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireFunction = serde_json::from_str(&json).unwrap();
            assert_eq!(back, wire);
            let rebuilt = back.to_attr(pool.len()).unwrap();
            assert_eq!(rebuilt, f, "syms must survive the wire exactly");
        }
    }

    #[test]
    fn function_decode_checks_symbol_bounds() {
        let wire = WireFunction::Constant { value: 7 };
        assert!(wire.to_attr(7).is_err());
        assert!(wire.to_attr(8).is_ok());
    }

    #[test]
    fn blocking_roundtrips_with_empty_blocks_and_dead_sources() {
        let ids = |r: &[u32]| r.iter().map(|&i| RecordId(i)).collect::<Vec<_>>();
        let (a, b, c) = (ids(&[2, 0]), ids(&[1]), ids(&[3, 1]));
        let empty = Block { src: &[], tgt: &[] };
        let blocking = Blocking::from_blocks(
            [
                empty,
                Block { src: &a, tgt: &c },
                Block { src: &[], tgt: &b },
                Block { src: &b, tgt: &[] },
                empty,
            ],
            ids(&[4, 3]),
        );
        let wire = WireBlocking::from_blocking(&blocking);
        let json = serde_json::to_string(&wire).unwrap();
        assert_eq!(
            json,
            r#"{"blocks":[[[],[]],[[2,0],[3,1]],[[],[1]],[[1],[]],[[],[]]],"dead_src":[4,3]}"#
        );
        let back: WireBlocking = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
        assert_eq!(back.to_blocking(5, 4).unwrap(), blocking);
        // Dead source 4 lies outside a 4-row source table.
        assert!(back
            .to_blocking(4, 4)
            .unwrap_err()
            .contains("outside the snapshot"));
    }

    #[test]
    fn expansion_requests_roundtrip_exactly() {
        let instance = sample_instance();
        let state = SearchState {
            assignments: vec![
                Assignment::Assigned(AttrFunction::Identity),
                Assignment::Undecided,
            ],
            blocking: std::sync::Arc::new(Blocking::root(&instance.source, &instance.target)),
            cost: 1.5,
            id: 7,
            parent: Some(2),
        };
        let request = ExpansionRequest {
            state,
            alignment: vec![(RecordId(0), RecordId(1)), (RecordId(1), RecordId(0))],
        };
        let wire = WireExpansion::from_request(&request);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireExpansion = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
        let rebuilt = back.to_request(instance.pool.len(), 2, 2).unwrap();
        assert_eq!(rebuilt.state.cost.to_bits(), request.state.cost.to_bits());
        assert_eq!(rebuilt.state.id, 7);
        assert_eq!(rebuilt.state.parent, Some(2));
        assert_eq!(rebuilt.alignment, request.alignment);
        assert_eq!(rebuilt.state.blocking.len(), request.state.blocking.len());
        assert_eq!(
            WireExpansion::from_request(&rebuilt),
            wire,
            "re-encoding is a fixed point"
        );
    }

    #[test]
    fn expansion_decode_checks_record_and_symbol_bounds() {
        let instance = sample_instance();
        let state = SearchState {
            assignments: vec![Assignment::Undecided, Assignment::Undecided],
            blocking: std::sync::Arc::new(Blocking::root(&instance.source, &instance.target)),
            cost: 0.0,
            id: 0,
            parent: None,
        };
        let request = ExpansionRequest {
            state,
            alignment: vec![(RecordId(0), RecordId(0))],
        };
        let wire = WireExpansion::from_request(&request);

        let mut bad_record = wire.clone();
        bad_record.state.blocking.blocks[0].0[0] = 99;
        assert!(bad_record
            .to_request(instance.pool.len(), 2, 2)
            .unwrap_err()
            .contains("outside the snapshot"));

        let mut bad_align = wire.clone();
        bad_align.alignment[0] = (0, 99);
        assert!(bad_align
            .to_request(instance.pool.len(), 2, 2)
            .unwrap_err()
            .contains("alignment pair"));

        let mut bad_sym = wire.clone();
        bad_sym.state.assignments[0] = WireAssignment::Assigned {
            func: WireFunction::Constant { value: 999 },
        };
        assert!(bad_sym
            .to_request(instance.pool.len(), 2, 2)
            .unwrap_err()
            .contains("outside the worker pool"));

        let mut bad_cost = wire;
        bad_cost.state.cost = "not-bits".to_owned();
        assert!(bad_cost
            .to_request(instance.pool.len(), 2, 2)
            .unwrap_err()
            .contains("bad cost bits"));
    }

    #[test]
    fn expansion_results_roundtrip_with_exact_costs() {
        // A cost with no finite decimal representation must survive the
        // wire bit-for-bit.
        let cost = 0.1f64 + 0.2f64;
        let mut pool = ValuePool::new();
        let child = PortableChild {
            func: AttrFunction::Constant(pool.intern("k $")),
            blocking: Blocking::from_blocks(
                [Block {
                    src: &[RecordId(0)],
                    tgt: &[RecordId(1)],
                }],
                vec![RecordId(1)],
            ),
            cost,
            kept: true,
        };
        let expansion = PortableExpansion {
            parts: vec![PortableAttrExpansion {
                attr: 1,
                base_len: pool.len(),
                new_strings: vec!["fresh".into()],
                greedy: PortableChild {
                    kept: false,
                    ..child.clone()
                },
                ranked: vec![child],
            }],
            any_kept: true,
        };
        let wire = WireExpansionResult::from_portable(&expansion);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireExpansionResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
        let rebuilt = back.to_portable(2, 2).unwrap();
        assert_eq!(rebuilt.parts[0].ranked[0].cost.to_bits(), cost.to_bits());
        assert_eq!(rebuilt.parts[0].new_strings, expansion.parts[0].new_strings);
        assert!(rebuilt.any_kept);
        assert_eq!(
            WireExpansionResult::from_portable(&rebuilt),
            wire,
            "re-encoding is a fixed point"
        );

        // A function symbol past base_len + new_strings is rejected.
        let mut bad = wire;
        bad.parts[0].ranked[0].func = WireFunction::Constant {
            value: (pool.len() + 1) as u32,
        };
        assert!(bad.to_portable(2, 2).is_err());
    }
}
