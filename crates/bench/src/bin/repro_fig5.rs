//! Reproduce Figure 5: row scalability on flight-500k.
//!
//! A single (η=0.3, τ=0.3) blueprint of flight-500k is materialized at
//! 10 %–100 % scale and solved with the H^id configuration. The paper's
//! claims: runtime grows linearly in the number of records, and the
//! reference explanation is recovered in every run.
//!
//! Default row base is 50 000 (laptop scale); `--full` uses 500 000.

use std::time::Instant;

use affidavit_bench::args::Args;
use affidavit_bench::harness::ConfigKind;
use affidavit_core::Affidavit;
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datagen::metrics::evaluate;
use affidavit_datasets::specs::by_name;
use affidavit_datasets::synth::generate_rows;

fn main() {
    let args = Args::parse();
    let full = args.has("full");
    let base_rows = args.get_or("rows", if full { 500_000 } else { 50_000 });
    let seed: u64 = args.get_or("seed", 500);
    let threads: usize = args.get_or("threads", 1usize);
    let spec = by_name("flight-500k").expect("spec exists");

    println!("=== Figure 5: row scalability (flight-500k @ {base_rows} rows, η=τ=0.3, H^id) ===");
    let (base, pool) = generate_rows(&spec, base_rows, seed);
    let blueprint = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed));

    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>7} {:>7} {:>6}",
        "scale", "records", "t", "t/record", "Δcosts", "Δcore", "acc"
    );
    let mut series: Vec<(usize, f64)> = Vec::new();
    for pct in (10..=100).step_by(10) {
        let mut generated = blueprint.materialize(pct as f64 / 100.0);
        let records = generated.instance.source.len();
        let solver = Affidavit::new(ConfigKind::Hid.to_config(seed).with_threads(threads));
        let started = Instant::now();
        let out = solver.explain(&mut generated.instance);
        let runtime = started.elapsed();
        let m = evaluate(&out.explanation, &mut generated, runtime);
        println!(
            "{:>5}% {:>9} {:>9.2}s {:>9.2}µs {:>7.2} {:>7.2} {:>6.2}",
            pct,
            records,
            m.runtime.as_secs_f64(),
            m.runtime.as_secs_f64() * 1e6 / records as f64,
            m.delta_costs,
            m.delta_core,
            m.accuracy
        );
        series.push((records, m.runtime.as_secs_f64()));
    }

    // Linearity check: compare per-record time at both ends of the series.
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        let per_first = first.1 / first.0 as f64;
        let per_last = last.1 / last.0 as f64;
        println!(
            "\nper-record runtime 10% vs 100%: {:.2}µs vs {:.2}µs (ratio {:.2} — \
             ~1.0 means linear scaling, as in the paper)",
            per_first * 1e6,
            per_last * 1e6,
            per_last / per_first
        );
    }
}
