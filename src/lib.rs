//! Affidavit — explaining differences between unaligned table snapshots.
//!
//! Facade crate re-exporting the workspace's public API. See the individual
//! crates for details:
//!
//! * [`table`] — storage substrate (interning, exact decimals, CSV).
//! * [`store`] — snapshot ingestion and storage (streaming parallel CSV
//!   interning, content fingerprints, delta manifests, pinned sessions).
//! * [`functions`] — transformation meta functions and induction.
//! * [`blocking`] — blocking indices, random alignments, overlap matching.
//! * [`core`] — the Affidavit search algorithm (Algorithm 1), plus
//!   incremental re-profiling (`core::delta`: fingerprinted block
//!   reuse with from-scratch byte identity).
//! * [`dist`] — distributed work-stealing profiling over serialized
//!   problem instances (job queue, TCP worker processes).
//! * [`serve`] — the resident explain daemon: framed client API over
//!   pinned, fingerprint-keyed snapshot sessions.
//! * [`obs`] — unified tracing, metrics and phase profiling: a pure
//!   side channel (output bytes are identical with it on or off).
//! * [`datagen`] — the §5.1 synthetic problem-instance protocol.
//! * [`datasets`] — evaluation dataset generators and the Figure 1 example.
//! * [`baselines`] — keyed diff, exact solver, similarity linker, 3-SAT
//!   reduction.
//!
//! The two-minute tour — explain the paper's running example:
//!
//! ```
//! use affidavit::prelude::*;
//!
//! let mut instance = affidavit::datasets::running_example::figure1_instance();
//! let outcome = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut instance);
//! // Snapshots differ by a rescaled Val column (80000 ↦ 80), so the
//! // learned function set is cheaper than deleting-and-inserting
//! // everything.
//! let trivial = Explanation::trivial(&instance).cost_units(instance.arity());
//! assert!(outcome.explanation.cost_units(instance.arity()) < trivial);
//! ```

#![warn(missing_docs)]

pub use affidavit_baselines as baselines;
pub use affidavit_blocking as blocking;
pub use affidavit_core as core;
pub use affidavit_datagen as datagen;
pub use affidavit_datasets as datasets;
pub use affidavit_dist as dist;
pub use affidavit_functions as functions;
pub use affidavit_obs as obs;
pub use affidavit_serve as serve;
pub use affidavit_store as store;
pub use affidavit_table as table;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use affidavit_core::config::{AffidavitConfig, InitStrategy};
    pub use affidavit_core::explanation::Explanation;
    pub use affidavit_core::instance::ProblemInstance;
    pub use affidavit_core::profiling::{profile_dirs, ProfileOptions};
    pub use affidavit_core::restructure::normalize_arity;
    pub use affidavit_core::schema_align::align_schemas;
    pub use affidavit_core::search::Affidavit;
    pub use affidavit_functions::function::AttrFunction;
    pub use affidavit_functions::kind::{MetaKind, Registry};
    pub use affidavit_store::IngestOptions;
    pub use affidavit_table::{Schema, Table, ValuePool};
}
