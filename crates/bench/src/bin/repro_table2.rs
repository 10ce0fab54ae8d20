//! Reproduce Table 2: both Affidavit configurations on all 17 datasets
//! across the three (η, τ) difficulty settings.
//!
//! Defaults are laptop-scale: rows capped at `--rows` (default 2000) and
//! `--runs` (default 3) instances per cell instead of the paper's 10.
//! `--full` lifts the row cap and uses 10 runs (paper scale: expect hours).
//!
//! Flags: `--datasets iris,chess,...` to restrict, `--seed N`,
//! `--json out.json` / `--md out.md` for machine-readable results.

use affidavit_bench::args::Args;
use affidavit_bench::harness::{run_cell, CellResult, ConfigKind, SETTINGS};
use affidavit_bench::say;
use affidavit_datasets::specs::table2_specs;

fn main() {
    let args = Args::parse();
    let full = args.has("full");
    let runs = args.get_or("runs", if full { 10 } else { 3 });
    let row_cap = args.get_or("rows", if full { usize::MAX } else { 2000 });
    let seed: u64 = args.get_or("seed", 0xEDB7);
    let threads: usize = args.get_or("threads", 1usize);
    let filter: Option<Vec<String>> = args
        .get_str("datasets")
        .map(|s| s.split(',').map(|x| x.trim().to_owned()).collect());

    let specs: Vec<_> = table2_specs()
        .into_iter()
        .filter(|s| {
            filter
                .as_ref()
                .map(|f| f.iter().any(|n| n == s.name))
                .unwrap_or(true)
        })
        .collect();

    say!(
        "=== Table 2 ({} datasets, {} runs/cell, row cap {}) ===",
        specs.len(),
        runs,
        if row_cap == usize::MAX {
            "none (paper scale)".to_owned()
        } else {
            row_cap.to_string()
        }
    );
    say!(
        "{:<12} {:>3} {:>7}  cfg  setting   {:>10}  {:>6} {:>7} {:>5}",
        "dataset",
        "|A|",
        "records",
        "t",
        "Δcore",
        "Δcosts",
        "acc"
    );

    let mut all: Vec<CellResult> = Vec::new();
    for spec in &specs {
        let rows = spec.rows.min(row_cap);
        for &(eta, tau) in &SETTINGS {
            for kind in [ConfigKind::Hs, ConfigKind::Hid] {
                let cell = run_cell(spec, rows, eta, tau, kind, runs, seed, threads);
                say!("{}", cell.row());
                all.push(cell);
            }
        }
        say!();
    }

    // Paper-shape checks (printed, not asserted, so partial runs still
    // produce output): Hid at (0.3, 0.3) should be accurate nearly
    // everywhere; Hs should collapse (Δcore ≈ 0) on the low-distinctness
    // tables chess / nursery / letter.
    let hid_easy: Vec<&CellResult> = all
        .iter()
        .filter(|c| c.config == "Hid" && c.eta == 0.3)
        .collect();
    if !hid_easy.is_empty() {
        let mean_acc: f64 = hid_easy.iter().map(|c| c.acc).sum::<f64>() / hid_easy.len() as f64;
        say!("H^id mean accuracy at (η=τ=0.3): {mean_acc:.3}  (paper: ~1.0)");
    }
    for name in ["chess", "nursery", "letter"] {
        if let Some(c) = all
            .iter()
            .find(|c| c.dataset == name && c.config == "Hs" && c.eta == 0.3)
        {
            say!(
                "Hs on {name} at (0.3): Δcore={:.2}  (paper: 0 — overlap matcher collapses)",
                c.delta_core
            );
        }
    }

    if let Some(path) = args.get_str("md") {
        let md = affidavit_bench::report::markdown_table(&all);
        std::fs::write(path, md).expect("write markdown");
        say!("wrote {path}");
    }
    if let Some(path) = args.get_str("json") {
        let json = serde_json::to_string_pretty(&all).expect("serializable");
        std::fs::write(path, json).expect("write json");
        say!("wrote {path}");
    }
}
