//! Blocking substrate for the Affidavit search.
//!
//! A search state's partial function assignments act as standard blocking
//! criteria (Def. 4.3): source records are projected through the assigned
//! functions, target records through the raw values, and records with equal
//! projections land in the same block (Def. 4.4). The search only ever adds
//! one assignment at a time, so a child state's blocking is computed by
//! *refining* the parent's blocks on the newly assigned attribute — O(N)
//! with small constants instead of re-hashing full-width keys.
//!
//! The crate also provides the two alignment tools Algorithm 1 needs:
//! random alignments respecting a blocking result (for the greedy-map
//! baseline `Hg` and for ⊞ finalization) and the overlap-score a-priori
//! matcher that builds the `Hs` start state (§4.2).
//!
//! ```
//! use affidavit_blocking::Blocking;
//! use affidavit_functions::{ApplyScratch, AttrFunction};
//! use affidavit_table::{AttrId, Schema, Table, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let s = Table::from_rows(Schema::new(["Org"]), &mut pool,
//!     vec![vec!["IBM"], vec!["SAP"], vec!["IBM"]]);
//! let t = Table::from_rows(Schema::new(["Org"]), &mut pool,
//!     vec![vec!["IBM"], vec!["SAP"], vec!["IBM"]]);
//! // The root blocking is one block with every record; assigning
//! // f_Org = id refines it into one block per Org value.
//! let root = Blocking::root(&s, &t);
//! assert_eq!(root.len(), 1);
//! let refined = root.refine(
//!     AttrId(0), &AttrFunction::Identity, &mut ApplyScratch::new(), &s, &t, &mut pool,
//! );
//! assert_eq!(refined.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod alignment;
pub mod blocking;
pub mod delta;
pub mod overlap;

pub use alignment::{greedy_map_from_alignment, sample_random_alignment};
pub use blocking::{Block, Blocking};
pub use delta::{final_blocking, group_fingerprints, group_records, header_fingerprint};
pub use overlap::{overlap_start_attrs, OverlapConfig, OverlapIndex};
