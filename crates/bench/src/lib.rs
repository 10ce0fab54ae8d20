//! Reproduction harness for every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p affidavit-bench --bin <name>`):
//!
//! | Binary         | Reproduces                                        |
//! |----------------|---------------------------------------------------|
//! | `repro_fig1`   | Figure 1 / §3.1 — running example, costs 77 & 112 |
//! | `repro_fig2`   | Figure 2 / Thm 3.12 — 3-SAT reduction             |
//! | `repro_fig4`   | Figure 4 — search tree on I1 (α=.5, β=2, ϱ=3)     |
//! | `repro_table2` | Table 2 — 17 datasets × 3 settings × 2 configs    |
//! | `repro_fig5`   | Figure 5 — row scalability on flight-500k         |
//! | `repro_fig6`   | Figure 6 — attribute scalability                  |
//! | `repro_ablations` | θ, α, min-support and ϱ sweeps; registry ablation |
//!
//! Timing is measured by one harness, `perfbench/` (its own workspace;
//! workloads `table2-hid`, `table2-hs`, `tall`, `reprofile-delta`), whose
//! per-layer trace also times the components (`blocking.refine`,
//! `rank.candidates`, `ingest.parse`).
//!
//! All binaries default to laptop-scale row caps; pass `--full` for the
//! paper's original sizes. They print through [`say!`], so a closed
//! stdout (`repro_fig5 | head`) ends them quietly with exit 0.
//!
//! ```
//! use affidavit_bench::ConfigKind;
//!
//! // Each Table 2 configuration maps to the paper's search parameters.
//! let hid = ConfigKind::Hid.to_config(7);
//! assert_eq!((hid.beta, hid.queue_width), (2, 5));
//! assert_eq!(ConfigKind::Hid.label(), "Hid");
//! ```

pub mod args;
pub mod harness;
pub mod output;
pub mod report;

pub use harness::{run_cell, CellResult, ConfigKind};
