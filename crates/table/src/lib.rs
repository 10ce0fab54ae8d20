//! Table substrate for the Affidavit reproduction.
//!
//! This crate provides the storage layer the paper's algorithm operates on:
//!
//! * [`ValuePool`] — a string interner. Every attribute value in a problem
//!   instance is interned exactly once and addressed by a compact [`Sym`]
//!   (`u32`). All hot-path comparisons and hash lookups in the blocking and
//!   search layers are therefore integer operations.
//! * [`Decimal`] / [`Rational`] — exact numeric types used by the numeric
//!   meta functions (addition, division). Floating point is never used for
//!   value transformation: `65 / 1000` must yield the *string* `0.065`, not
//!   `0.06500000000000001`.
//! * [`Schema`], [`Record`], [`Table`] — relational snapshot representation.
//!   Tables are column-major: one contiguous `Vec<Sym>` per attribute
//!   ([`Table::column`]), with zero-copy row views ([`RecordRef`]) so the
//!   layers above never see the storage orientation.
//! * [`csv`] — a dependency-free RFC-4180 CSV reader/writer so real datasets
//!   can be loaded from disk.
//! * [`stats`] — per-attribute statistics (distinct counts, emptiness,
//!   numeric fraction) used by the evaluation protocol of §5.1.
//!
//! ```
//! use affidavit_table::{AttrId, RecordId, Schema, Table, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let t = Table::from_rows(
//!     Schema::new(["Val", "Org"]),
//!     &mut pool,
//!     vec![vec!["80000", "IBM"], vec!["65", "SAP"], vec!["21000", "IBM"]],
//! );
//! // Every distinct value is interned once; cells hold compact symbols.
//! assert_eq!(pool.get(t.value(RecordId(1), AttrId(1))), "SAP");
//! assert_eq!(t.value(RecordId(0), AttrId(1)), t.value(RecordId(2), AttrId(1)));
//! // Numeric interpretation is cached, exact, and never floating point.
//! let v = t.value(RecordId(1), AttrId(0));
//! assert_eq!(pool.decimal(v).unwrap().to_string(), "65");
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod decimal;
pub mod error;
pub mod fx;
pub mod rational;
pub mod record;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use decimal::Decimal;
pub use error::TableError;
pub use fx::{FxHashMap, FxHashSet};
pub use rational::Rational;
pub use record::{Record, RecordId};
pub use schema::{AttrId, Attribute, Schema};
pub use table::{Column, ColumnsView, RecordRef, Table};
pub use value::{Interner, NewStrings, PoolReader, ScratchPool, Sym, SymRemap, ValuePool};

/// The most worker threads any parallelism knob — ingest threads,
/// `threads`, `--threads` — may request. A
/// fixed ceiling, not a setting: it exists so a mistyped or hostile count
/// is a typed error instead of an allocation or thread spawn with no
/// bound.
pub const MAX_THREADS: usize = 1024;

/// Resolve a `0 = autosize` parallelism knob (`--threads 0`, ingest
/// threads) to [`std::thread::available_parallelism`], falling back to
/// `1` when the hardware cannot be queried; any other count is itself.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolve_to_the_hardware() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
