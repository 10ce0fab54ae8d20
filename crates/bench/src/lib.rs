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
//!
//! Criterion benches (`cargo bench -p affidavit-bench`): `table2`,
//! `fig5_rows`, `fig6_attrs`, plus `components` micro/ablation benches for
//! the design choices listed at the top of `benches/components.rs`.
//!
//! All binaries default to laptop-scale row caps; pass `--full` for the
//! paper's original sizes.
//!
//! ```
//! // The report helpers render measurement series as markdown.
//! let table = affidavit_bench::report::markdown_series(
//!     ("rows", "seconds"),
//!     &[("1000".to_owned(), "0.5".to_owned())],
//! );
//! assert!(table.starts_with("| rows | seconds |"));
//! assert!(table.contains("| 1000 | 0.5 |"));
//! ```

pub mod args;
pub mod harness;
pub mod report;
pub mod speedup;

pub use harness::{run_cell, CellResult, ConfigKind};
