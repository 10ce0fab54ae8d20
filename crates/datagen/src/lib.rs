//! Synthetic problem-instance generation — the evaluation protocol of §5.1.
//!
//! From a base table, an instance is produced by:
//!
//! 1. dropping attributes that are fully empty or have a distinct-value
//!    fraction above 0.7;
//! 2. splitting records into a core plus source- and target-noise sets so
//!    that noise makes up a fraction η of each snapshot
//!    (`|S| = |T| = D / (1 + η)` for a base table of `D` records);
//! 3. sampling, per attribute with probability τ, a non-identity
//!    transformation fitting the attribute's domain (resampling if *every*
//!    attribute would be transformed — at least one must stay `id`);
//! 4. applying the transformations to the core (→ core image) and to the
//!    target noise ("its data format should be similar");
//! 5. augmenting both snapshots with an artificial primary key of running
//!    integers in two different permutations;
//! 6. shuffling record order.
//!
//! The generator returns the instance together with the *reference
//! explanation* and implements the Δcore / Δcosts / acc metrics of §5.2 and
//! the instance scaling of §5.4.1 (Figure 5).
//!
//! ```
//! use affidavit_datagen::blueprint::{Blueprint, GenConfig};
//! use affidavit_table::{Schema, Table, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let base = Table::from_rows(
//!     Schema::new(["v"]),
//!     &mut pool,
//!     (0..30).map(|i| vec![format!("{}", (i % 5) * 10)]),
//! );
//! let mut generated =
//!     Blueprint::new(base, pool, GenConfig::new(0.2, 0.5, 7)).materialize_full();
//! // Both snapshots have |S| = |T| = D/(1+η) records...
//! assert_eq!(generated.instance.source.len(), generated.instance.target.len());
//! // ...and the reference explanation is valid by construction.
//! generated.reference.validate(&mut generated.instance).unwrap();
//! ```

#![warn(missing_docs)]

pub mod blueprint;
pub mod metrics;
pub mod sampler;

pub use blueprint::{Blueprint, BlueprintError, GenConfig, GeneratedInstance};
pub use metrics::{evaluate, InstanceMetrics};
pub use sampler::sample_transformation;
