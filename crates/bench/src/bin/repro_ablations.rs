//! Parameter ablations for the design choices discussed in the paper:
//!
//! * **θ sweep** (§4.4.2): "Choosing a larger θ speeds up the algorithm but
//!   risks that functions of the optimal solution will not be sampled."
//! * **α sweep** (Def. 3.10): prioritizing record coverage vs function
//!   brevity.
//! * **min-support sweep** (§4.4.2): the significance threshold of the
//!   candidate filter, which the binomial sample sizing targets.
//! * **ϱ sweep** (§4.6): the level-bounded queue width — ϱ = 1 is greedy,
//!   larger values buy backtracking.
//! * **registry ablation** (§6): the paper's catalogue vs the extended one
//!   (numeric formatting + token programs), on instances with and without
//!   extension-kind transformations.
//!
//! Flags: `--dataset NAME` (default ncvoter-1k), `--rows N`, `--runs N`,
//! `--seed N`.

use affidavit_bench::args::Args;
use affidavit_bench::say;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datagen::metrics::evaluate;
use affidavit_datasets::specs::by_name;
use affidavit_datasets::synth::generate_rows;
use std::time::Instant;

fn run(
    cfg: AffidavitConfig,
    spec_name: &str,
    rows: usize,
    runs: usize,
    seed: u64,
) -> (f64, f64, f64) {
    run_with(cfg, spec_name, rows, runs, seed, false)
}

fn run_with(
    cfg: AffidavitConfig,
    spec_name: &str,
    rows: usize,
    runs: usize,
    seed: u64,
    extension_instances: bool,
) -> (f64, f64, f64) {
    let spec = by_name(spec_name).expect("dataset exists");
    let mut acc = 0.0;
    let mut dcore = 0.0;
    let mut secs = 0.0;
    for i in 0..runs {
        let s = seed + i as u64;
        let (base, pool) = generate_rows(&spec, rows, s);
        let mut gen_cfg = GenConfig::new(0.5, 0.5, s);
        if extension_instances {
            gen_cfg = gen_cfg.with_extension_kinds();
        }
        let mut generated = Blueprint::new(base, pool, gen_cfg).materialize_full();
        let started = Instant::now();
        let out = Affidavit::new(cfg.clone().with_seed(s)).explain(&mut generated.instance);
        let m = evaluate(&out.explanation, &mut generated, started.elapsed());
        acc += m.accuracy;
        dcore += m.delta_core;
        secs += m.runtime.as_secs_f64();
    }
    let n = runs as f64;
    (secs / n, dcore / n, acc / n)
}

fn main() {
    let args = Args::parse();
    let dataset = args.get_str("dataset").unwrap_or("ncvoter-1k").to_owned();
    let rows = args.get_or("rows", 1000usize);
    let runs = args.get_or("runs", 3usize);
    let seed: u64 = args.get_or("seed", 0xAB1A);

    say!("=== Ablations on {dataset} ({rows} rows, η=τ=0.5, {runs} runs) ===\n");

    say!("θ sweep (induction sample sizing; paper default 0.1):");
    say!("{:>6} {:>9} {:>7} {:>6}", "θ", "t", "Δcore", "acc");
    for theta in [0.05, 0.1, 0.3, 0.5] {
        let mut cfg = AffidavitConfig::paper_id();
        cfg.theta = theta;
        let (t, dc, acc) = run(cfg, &dataset, rows, runs, seed);
        say!("{theta:>6.2} {t:>8.2}s {dc:>7.2} {acc:>6.2}");
    }

    say!("\nα sweep (record coverage vs function brevity; paper default 0.5):");
    say!("{:>6} {:>9} {:>7} {:>6}", "α", "t", "Δcore", "acc");
    for alpha in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let cfg = AffidavitConfig::paper_id().with_alpha(alpha);
        let (t, dc, acc) = run(cfg, &dataset, rows, runs, seed);
        say!("{alpha:>6.2} {t:>8.2}s {dc:>7.2} {acc:>6.2}");
    }

    say!("\nmin-support sweep (candidate significance filter; default 5):");
    say!("{:>6} {:>9} {:>7} {:>6}", "supp", "t", "Δcore", "acc");
    for support in [1u32, 3, 5, 10] {
        let mut cfg = AffidavitConfig::paper_id();
        cfg.min_support = support;
        let (t, dc, acc) = run(cfg, &dataset, rows, runs, seed);
        say!("{support:>6} {t:>8.2}s {dc:>7.2} {acc:>6.2}");
    }

    say!("\nϱ sweep (queue width; Hs uses 1, H^id uses 5):");
    say!("{:>6} {:>9} {:>7} {:>6}", "ϱ", "t", "Δcore", "acc");
    for rho in [1usize, 2, 5, 10, 20] {
        let mut cfg = AffidavitConfig::paper_id();
        cfg.queue_width = rho;
        let (t, dc, acc) = run(cfg, &dataset, rows, runs, seed);
        say!("{rho:>6} {t:>8.2}s {dc:>7.2} {acc:>6.2}");
    }

    say!("\nregistry ablation (classic Table-1 catalogue vs extended):");
    say!(
        "{:>22} {:>9} {:>7} {:>6}",
        "registry / instances",
        "t",
        "Δcore",
        "acc"
    );
    for (label, extended_reg, extension_instances) in [
        ("classic / classic", false, false),
        ("extended / classic", true, false),
        ("classic / extension", false, true),
        ("extended / extension", true, true),
    ] {
        let mut cfg = AffidavitConfig::paper_id();
        if extended_reg {
            cfg.registry = affidavit_functions::Registry::extended();
        }
        let (t, dc, acc) = run_with(cfg, &dataset, rows, runs, seed, extension_instances);
        say!("{label:>22} {t:>8.2}s {dc:>7.2} {acc:>6.2}");
    }
}
