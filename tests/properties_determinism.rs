//! Serial ≡ parallel: `explain()` must return a byte-identical explanation
//! (functions, record partition, rendered report), end-state cost, search
//! trace and poll/expansion counters at every thread count, for any seed
//! and both paper configurations — the per-attribute seeded RNGs and the
//! stable merge make scheduling invisible.
//!
//! The CI determinism leg adds one thread count to the sweep via the
//! `AFFIDAVIT_TEST_THREADS` environment variable.

use affidavit::core::config::{AffidavitConfig, InitStrategy};
use affidavit::core::instance::ProblemInstance;
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::table::{Schema, Table, ValuePool};
use proptest::prelude::*;

/// A small but non-trivial instance: scaling, constant replacement, an
/// identity column and asymmetric noise, parameterized by seed.
fn instance(seed: u64) -> ProblemInstance {
    let orgs = ["IBM", "SAP", "BASF", "KUKA"];
    let mut rows_s: Vec<Vec<String>> = Vec::new();
    let mut rows_t: Vec<Vec<String>> = Vec::new();
    for i in 0..40u64 {
        let j = i.wrapping_mul(seed | 1) % 97;
        rows_s.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 500),
            "EUR".to_owned(),
            orgs[(i % 4) as usize].to_owned(),
        ]);
        rows_t.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 5),
            "k€".to_owned(),
            orgs[(i % 4) as usize].to_owned(),
        ]);
    }
    for i in 0..4u64 {
        rows_s.push(vec![
            format!("del{i}"),
            format!("{}", i * 777),
            "EUR".to_owned(),
            "NOISE".to_owned(),
        ]);
        rows_t.push(vec![
            format!("ins{i}"),
            format!("{}", i * 13),
            "k€".to_owned(),
            "NOISE".to_owned(),
        ]);
    }
    let mut pool = ValuePool::new();
    let schema = Schema::new(["key", "Val", "Unit", "Org"]);
    let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
    let t = Table::from_rows(schema, &mut pool, rows_t);
    ProblemInstance::new(s, t, pool).unwrap()
}

/// A more adversarial family: seed-dependent row count, five orgs that
/// shift with the seed and a seed-dependent amount of asymmetric noise, so
/// different seeds exercise eviction, rejected extensions and the ⊞
/// fallback.
fn adversarial_instance(seed: u64) -> ProblemInstance {
    let orgs = ["IBM", "SAP", "BASF", "KUKA", "DFKI"];
    let mut rows_s: Vec<Vec<String>> = Vec::new();
    let mut rows_t: Vec<Vec<String>> = Vec::new();
    let n = 24 + seed % 17;
    for i in 0..n {
        let j = i.wrapping_mul(seed | 1) % 89;
        rows_s.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 200),
            "EUR".to_owned(),
            orgs[((i + seed) % 5) as usize].to_owned(),
        ]);
        rows_t.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 2),
            "h€".to_owned(),
            orgs[((i + seed) % 5) as usize].to_owned(),
        ]);
    }
    for i in 0..(seed % 5) {
        rows_s.push(vec![
            format!("del{i}"),
            format!("{}", i * 991),
            "EUR".to_owned(),
            "NOISE".to_owned(),
        ]);
        rows_t.push(vec![
            format!("ins{i}"),
            format!("{}", i * 17),
            "h€".to_owned(),
            "NOISE".to_owned(),
        ]);
    }
    let mut pool = ValuePool::new();
    let schema = Schema::new(["key", "Val", "Unit", "Org"]);
    let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
    let t = Table::from_rows(schema, &mut pool, rows_t);
    ProblemInstance::new(s, t, pool).unwrap()
}

/// Everything that must be invariant: the rendered report, the explanation
/// cost, the exact end-state cost, the full rendered trace (ids, poll
/// order, kept flags) and the search counters.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    report: String,
    cost_units: u64,
    end_state_cost: u64,
    trace: String,
    polled: usize,
    expansions: usize,
    states_generated: usize,
    hit_expansion_limit: bool,
    induction_examples: usize,
    rank_applications: usize,
}

/// Run one search and describe its outcome exhaustively enough that any
/// divergence shows.
fn fingerprint(cfg: AffidavitConfig, seed: u64) -> Fingerprint {
    fingerprint_of(cfg, seed, instance(seed))
}

/// [`fingerprint`] over a caller-built instance.
fn fingerprint_of(cfg: AffidavitConfig, seed: u64, mut inst: ProblemInstance) -> Fingerprint {
    let out = Affidavit::new(cfg.with_seed(seed).with_trace()).explain(&mut inst);
    let e = &out.explanation;
    e.validate(&mut inst).unwrap();
    Fingerprint {
        report: render_report(e, &inst),
        cost_units: e.cost_units(inst.arity()),
        end_state_cost: out.stats.end_state_cost.to_bits(),
        trace: out.trace.expect("trace enabled").render(),
        polled: out.stats.polled,
        expansions: out.stats.expansions,
        states_generated: out.stats.states_generated,
        hit_expansion_limit: out.stats.hit_expansion_limit,
        induction_examples: out.stats.induction_examples,
        rank_applications: out.stats.rank_applications,
    }
}

/// A paper configuration at `threads`; any count above 1 runs the
/// parallel attribute scan, even on these small instances.
fn config(init: InitStrategy, threads: usize) -> AffidavitConfig {
    let cfg = match init {
        InitStrategy::Overlap => AffidavitConfig::paper_overlap(),
        _ => AffidavitConfig::paper_id(),
    };
    cfg.with_threads(threads)
}

/// The thread counts compared against `threads = 1`: 2 and 4, plus the
/// `AFFIDAVIT_TEST_THREADS` override when it names another count.
fn parallel_thread_counts() -> Vec<usize> {
    let mut counts = vec![2, 4];
    let pinned = std::env::var("AFFIDAVIT_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok());
    if let Some(threads) = pinned.filter(|t| !counts.contains(t)) {
        counts.push(threads);
    }
    counts
}

proptest! {
    /// threads = 1 and every parallel thread count agree byte-for-byte,
    /// both paper configurations.
    #[test]
    fn explain_is_thread_count_invariant(seed in 0u64..10_000) {
        for init in [InitStrategy::Id, InitStrategy::Overlap] {
            let sequential = fingerprint(config(init, 1), seed);
            for threads in parallel_thread_counts() {
                let parallel = fingerprint(config(init, threads), seed);
                prop_assert_eq!(
                    &sequential,
                    &parallel,
                    "divergence at seed {} ({:?}, threads {})",
                    seed,
                    init,
                    threads
                );
            }
        }
    }

    /// The same invariance over [`adversarial_instance`], whose size and
    /// noise vary with the seed.
    #[test]
    fn adversarial_instances_are_thread_count_invariant(seed in 0u64..10_000) {
        for init in [InitStrategy::Id, InitStrategy::Overlap] {
            let sequential = fingerprint_of(config(init, 1), seed, adversarial_instance(seed));
            for threads in parallel_thread_counts() {
                let parallel =
                    fingerprint_of(config(init, threads), seed, adversarial_instance(seed));
                prop_assert_eq!(
                    &sequential,
                    &parallel,
                    "divergence at seed {} ({:?}, threads {})",
                    seed,
                    init,
                    threads
                );
            }
        }
    }
}

/// Pinned-seed smoke check that also exercises thread counts beyond the
/// machine's core count and the auto (`0`) setting.
#[test]
fn explain_matches_across_many_thread_counts() {
    let base = fingerprint(config(InitStrategy::Id, 1), 7);
    for threads in [2usize, 3, 8, 0] {
        let got = fingerprint(config(InitStrategy::Id, threads), 7);
        assert_eq!(base, got, "threads={threads} diverged");
    }
}

/// The greedy paper_overlap configuration (ϱ = 1: a single-state frontier
/// most of the time) must not diverge at high or auto thread counts.
#[test]
fn overlap_config_matches_at_high_and_auto_thread_counts() {
    let seed = 4242;
    let baseline = fingerprint(config(InitStrategy::Overlap, 1), seed);
    for threads in [8usize, 0, 3] {
        let got = fingerprint(config(InitStrategy::Overlap, threads), seed);
        assert_eq!(baseline, got, "threads {threads} diverged");
    }
}

/// Parallelism must also be invisible when the expansion safety valve
/// fires: the finalized partial explanation matches the serial engine.
#[test]
fn expansion_limit_matches_across_thread_counts() {
    let run = |threads: usize| {
        let mut cfg = config(InitStrategy::Id, threads);
        cfg.max_expansions = 3;
        fingerprint(cfg, 77)
    };
    let baseline = run(1);
    assert!(baseline.hit_expansion_limit);
    for threads in [2usize, 4] {
        assert_eq!(
            baseline,
            run(threads),
            "threads {threads} diverged at the limit"
        );
    }
}
