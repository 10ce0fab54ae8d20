//! Reproduce Figure 6: attribute scalability.
//!
//! The paper re-plots the H^id runtimes of the (η=τ=0.3) setting from
//! Table 2, normalized by each dataset's record count, against the number
//! of attributes — expecting roughly linear growth in |A| (§5.4.2 gives
//! the `|A|·O(ϱ!)` worst-case bound).
//!
//! Like the figure, this uses the datasets with ~30+ attributes (horse,
//! fd-red-30, plista, flight-1k, uniprot); rows are capped at `--rows`
//! (default 1000) so the per-record normalization is comparable.

use affidavit_bench::args::Args;
use affidavit_bench::harness::{run_cell, ConfigKind};
use affidavit_bench::say;
use affidavit_datasets::specs::by_name;

fn main() {
    let args = Args::parse();
    let rows_cap = args.get_or("rows", 1000usize);
    let runs = args.get_or("runs", 3usize);
    let seed: u64 = args.get_or("seed", 6);
    let threads: usize = args.get_or("threads", 1usize);

    // The figure's x axis: 30, 63(~43+..), 109, 182 attributes — we use the
    // wide datasets of Table 2 directly.
    let names = ["horse", "fd-red-30", "plista", "flight-1k", "uniprot"];
    say!("=== Figure 6: runtime per record vs attributes (η=τ=0.3, H^id, rows≤{rows_cap}) ===");
    say!(
        "{:<12} {:>6} {:>9} {:>10} {:>14}",
        "dataset",
        "attrs",
        "records",
        "t",
        "t per record"
    );
    let mut series: Vec<(usize, f64)> = Vec::new();
    for name in names {
        let spec = by_name(name).expect("dataset exists");
        let rows = spec.rows.min(rows_cap);
        let cell = run_cell(&spec, rows, 0.3, 0.3, ConfigKind::Hid, runs, seed, threads);
        let per_record = cell.t_secs / rows as f64;
        say!(
            "{:<12} {:>6} {:>9} {:>9.2}s {:>12.2}µs",
            name,
            spec.attrs,
            rows,
            cell.t_secs,
            per_record * 1e6
        );
        series.push((spec.attrs, per_record));
    }

    // Shape check: per-record runtime should grow roughly linearly with
    // attribute count → per-record-per-attribute stays within a small band.
    say!("\nnormalized s/record/attr (flat ⇒ linear attribute scaling):");
    for (attrs, per_record) in &series {
        say!(
            "  |A|={attrs:>4}: {:.3}µs",
            per_record * 1e6 / *attrs as f64
        );
    }
}
