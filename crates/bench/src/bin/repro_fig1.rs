//! Reproduce Figure 1 / §3.1: the running example I1.
//!
//! Prints the snapshots, the reference explanation E1 (cost 77), the
//! trivial explanation E∅ (cost 112), and the explanations found by both
//! paper configurations.

use affidavit_bench::args::Args;
use affidavit_bench::say;
use affidavit_core::explanation::Explanation;
use affidavit_core::report::{render_report, to_sql};
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_datasets::running_example::{figure1_instance, figure1_reference};
use affidavit_table::AttrId;

fn main() {
    let args = Args::parse();
    let mut inst = figure1_instance();

    say!("=== Figure 1: problem instance I1 ===");
    say!(
        "source S1: {} records, target T1: {} records, |A| = {}",
        inst.source.len(),
        inst.target.len(),
        inst.arity()
    );
    let names: Vec<&str> = inst.schema().names().collect();
    say!("attributes: {}", names.join(", "));

    let reference = figure1_reference(&mut inst);
    say!("\n=== Reference explanation E1 (paper §3.1) ===");
    say!("{}", render_report(&reference, &inst));
    say!(
        "c(E1) = {}   (paper: 77)",
        reference.cost_units(inst.arity())
    );
    let trivial = Explanation::trivial(&inst);
    say!(
        "c(E∅) = {}   (paper: |A1|·|T1| = 7·16 = 112)",
        trivial.cost_units(inst.arity())
    );

    for (label, cfg) in [
        ("H^id (β=2, ϱ=5)", AffidavitConfig::paper_id()),
        ("Hs (β=1, ϱ=1)", AffidavitConfig::paper_overlap()),
    ] {
        let mut inst = figure1_instance();
        let out = Affidavit::new(cfg).explain(&mut inst);
        say!("\n=== Affidavit with {label} ===");
        say!("{}", render_report(&out.explanation, &inst));
        say!(
            "cost {} vs reference 77; {} states polled in {:?}",
            out.explanation.cost_units(inst.arity()),
            out.stats.polled,
            out.stats.duration
        );
        // Core alignment sample.
        let mut pairs: Vec<String> = out
            .explanation
            .core_pairs()
            .iter()
            .map(|&(s, t)| {
                format!(
                    "{} ↦ {}",
                    inst.pool.get(inst.source.value(s, AttrId(0))),
                    inst.pool.get(inst.target.value(t, AttrId(0)))
                )
            })
            .collect();
        pairs.sort();
        say!("alignment: {}", pairs.join(", "));
    }

    if args.has("sql") {
        let mut inst = figure1_instance();
        let out = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut inst);
        say!(
            "\n=== SQL export ===\n{}",
            to_sql(&out.explanation, &inst, "erp_table")
        );
    }
}
