//! Evaluation datasets for the Affidavit reproduction.
//!
//! The paper evaluates on the HPI FD-discovery repeatability datasets
//! (iris … uniprot, flight-500k). Those files are not redistributable here,
//! so this crate provides **shape-faithful synthetic stand-ins**: for every
//! dataset a deterministic generator matching the published record count,
//! attribute count and — crucially — the *value-distinctness profile* the
//! paper's analysis hinges on (low-distinctness tables like chess/nursery/
//! letter break the `Hs` overlap matcher; wide sparse tables like uniprot
//! stress attribute scalability). Those profiles, not the exact rows, are
//! what drive the search's cost, so a generator matching them reproduces
//! the paper's experiments without the files.
//!
//! Real data can be dropped into `data/<name>.csv`; [`loader::load_or_generate`]
//! prefers the file when present.
//!
//! The crate also embeds the paper's running example
//! ([`running_example::figure1_instance`]) with its reference explanation
//! E1 (cost 77) and the trivial explanation E∅ (cost 112).
//!
//! ```
//! use affidavit_datasets::running_example::{figure1_instance, figure1_reference};
//!
//! let mut instance = figure1_instance();
//! let reference = figure1_reference(&mut instance);
//! reference.validate(&mut instance).unwrap();
//! assert_eq!(reference.cost_units(instance.arity()), 77); // the paper's E1
//! ```

#![warn(missing_docs)]

pub mod columns;
pub mod loader;
pub mod running_example;
pub mod specs;
pub mod synth;

pub use loader::load_or_generate;
pub use specs::{all_specs, by_name, DatasetSpec, Profile};
pub use synth::generate;
