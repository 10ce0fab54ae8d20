//! Transformation functions for the Affidavit reproduction.
//!
//! Implements the meta-function catalogue of Table 1 of the paper,
//! the inverse variants the paper names ("The inverse variants of these
//! functions are also supported, e.g. suffixing in addition to prefixing"),
//! and the date-conversion extension described in §4.4.1/§6.
//!
//! | Meta function        | Operation                     | ψ (params) |
//! |----------------------|-------------------------------|------------|
//! | Identity             | `x ↦ x`                       | 0          |
//! | Uppercasing          | `x ↦ UPPER(x)`                | 0          |
//! | Lowercasing (inv.)   | `x ↦ lower(x)`                | 0          |
//! | Constant Value       | `x ↦ c`                       | 1          |
//! | Addition (numeric)   | `x ↦ x + y`                   | 1          |
//! | Scaling (Div/Mul)    | `x ↦ x · r` (shown as `x/y`)  | 1          |
//! | Front Masking        | `.{|m|} ◦ x ↦ m ◦ x`          | 1          |
//! | Back Masking (inv.)  | `x ◦ .{|m|} ↦ x ◦ m`          | 1          |
//! | Front Char Trimming  | `[c]* ◦ x ↦ x`                | 1          |
//! | Back Char Trimming   | `x ◦ [c]* ↦ x`                | 1          |
//! | Prefixing            | `x ↦ y ◦ x`                   | 1          |
//! | Suffixing (inv.)     | `x ↦ x ◦ y`                   | 1          |
//! | Prefix Replacement   | `y ◦ x ↦ z ◦ x`, else id      | 2          |
//! | Suffix Replacement   | `x ◦ y ↦ x ◦ z`, else id      | 2          |
//! | Date Conversion      | format → format               | 2          |
//! | Value Mapping        | explicit pairs                | 2·n        |
//!
//! Beyond the paper's catalogue, the **extension kinds** (enabled via
//! [`kind::Registry::extended`]) implement the §6 future-work direction of
//! a "richer set of functions by default":
//!
//! | Extension kind       | Operation                     | ψ (params) |
//! |----------------------|-------------------------------|------------|
//! | Zero Padding         | pad digit strings to width    | 1          |
//! | Thousands Grouping   | `1234567 ↦ 1,234,567`         | 1          |
//! | Separator Stripping  | `1,234,567 ↦ 1234567`         | 1          |
//! | Rounding             | half-away-from-zero, d places | 1          |
//! | Token Program        | FlashFill-lite reassembly     | #segments  |
//!
//! Division and multiplication are canonicalized into a single
//! [`function::AttrFunction::Scale`] variant carrying an exact rational so
//! that `x ↦ x/1000` and `x ↦ x · 1/1000` (which are the *same* function)
//! cannot both occupy candidate slots during the search.

//! ```
//! use affidavit_functions::AttrFunction;
//! use affidavit_table::{Rational, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let x = pool.intern("65");
//! let f = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
//! let y = f.apply(x, &mut pool).unwrap();
//! // Exact arithmetic: the string "0.065", never 0.06500000000000001.
//! assert_eq!(pool.get(y), "0.065");
//! // Application is partial — scaling a non-number explains nothing.
//! let org = pool.intern("IBM");
//! assert_eq!(f.apply(org, &mut pool), None);
//! ```

#![warn(missing_docs)]

pub mod apply_cache;
pub mod corpus;
pub mod datetime;
pub mod function;
pub mod induce;
pub mod kind;
pub mod numeric_format;
pub mod substring;
pub mod tokens;
pub mod value_map;

pub use apply_cache::ApplyScratch;
pub use corpus::corpus_candidates;
pub use function::AttrFunction;
pub use induce::induce_from_example;
pub use kind::{MetaKind, Registry};
pub use value_map::ValueMap;
