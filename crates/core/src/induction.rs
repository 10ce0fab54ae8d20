//! Candidate induction from noisy block-sampled examples (§4.4.2).
//!
//! Up to `k` distinct target records are sampled from blocks that contain
//! both source and target records; for each one, candidate functions are
//! induced that produce its attribute value from *any* distinct source
//! value in the same block. A candidate's support is the number of sampled
//! target records whose examples generated it; candidates below the
//! significance threshold (`min_support`, the `P(X ≥ 5)` target of the
//! binomial sizing) are filtered.

use affidavit_blocking::Blocking;
use affidavit_functions::{induce_from_example, AttrFunction, Registry};
use affidavit_table::{AttrId, FxHashMap, FxHashSet, Interner, Sym, Table};
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;

/// A candidate function with its generation support.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The induced function.
    pub func: AttrFunction,
    /// Number of sampled target records that generated it.
    pub support: u32,
}

/// Parameters of the induction sampling.
#[derive(Debug, Clone, Copy)]
pub struct InductionParams {
    /// Target sample size `k` (from the binomial sizing).
    pub k: usize,
    /// Minimum support for a candidate to survive filtering.
    pub min_support: u32,
    /// Cap on distinct source values examined per sampled target.
    pub max_examples_per_target: usize,
    /// Additionally retrieve fitting functions from the built-in corpus
    /// (TDE-style; §6 future work).
    pub use_corpus: bool,
}

/// Induce and filter candidate functions for `attr` under a blocking
/// result. Deterministic given the RNG state.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn induce_candidates<I: Interner>(
    blocking: &Blocking,
    attr: AttrId,
    source: &Table,
    target: &Table,
    pool: &mut I,
    registry: &Registry,
    params: InductionParams,
    rng: &mut StdRng,
) -> Vec<Candidate> {
    let _span = affidavit_obs::span("induce.candidates");
    // Enumerate targets living in mixed blocks (block index, target id).
    let mut mixed_targets: Vec<(usize, affidavit_table::RecordId)> = Vec::new();
    for (bi, block) in blocking.blocks().enumerate() {
        if block.is_mixed() {
            mixed_targets.extend(block.tgt.iter().map(|&tid| (bi, tid)));
        }
    }
    if mixed_targets.is_empty() {
        return Vec::new();
    }

    let k = params.k.min(mixed_targets.len());
    let mut chosen: Vec<(usize, affidavit_table::RecordId)> =
        index_sample(rng, mixed_targets.len(), k)
            .into_iter()
            .map(|i| mixed_targets[i])
            .collect();
    // Group by block so distinct source values are computed once per block.
    chosen.sort_by_key(|&(bi, tid)| (bi, tid));

    let mut counts: FxHashMap<AttrFunction, u32> = FxHashMap::default();
    let mut per_target: FxHashSet<AttrFunction> = FxHashSet::default();
    let mut src_values: Vec<Sym> = Vec::new();
    let mut seen_vals: FxHashSet<Sym> = FxHashSet::default();
    let mut current_block = usize::MAX;

    for (bi, tid) in chosen {
        if bi != current_block {
            current_block = bi;
            src_values.clear();
            seen_vals.clear();
            for &sid in blocking.block(bi).src {
                let v = source.value(sid, attr);
                if seen_vals.insert(v) {
                    src_values.push(v);
                    if src_values.len() >= params.max_examples_per_target {
                        break;
                    }
                }
            }
        }
        let t_val = target.value(tid, attr);
        per_target.clear();
        for &s_val in &src_values {
            for f in induce_from_example(s_val, t_val, pool, registry) {
                per_target.insert(f);
            }
            if params.use_corpus {
                for f in affidavit_functions::corpus_candidates(s_val, t_val, pool) {
                    per_target.insert(f);
                }
            }
        }
        for f in per_target.drain() {
            *counts.entry(f).or_default() += 1;
        }
    }

    let mut out: Vec<Candidate> = counts
        .into_iter()
        .filter(|&(_, n)| n >= params.min_support.min(k as u32))
        .map(|(func, support)| Candidate { func, support })
        .collect();
    // Deterministic order: support desc, then structural function order.
    out.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.func.cmp(&b.func)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_blocking::Blocking;
    use affidavit_functions::{ApplyScratch, AttrFunction};
    use affidavit_table::{Schema, Table, ValuePool};
    use rand::SeedableRng;

    /// 40 records, Val divided by 1000, blocked perfectly by the key.
    fn setup() -> (Table, Table, ValuePool, Blocking) {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..40)
            .map(|i| vec![format!("k{i}"), format!("{}", i * 500)])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..40)
            .map(|i| vec![format!("k{i}"), format!("{}", (i as f64) * 0.5)])
            .collect();
        let s = Table::from_rows(Schema::new(["k", "Val"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["k", "Val"]), &mut pool, rows_t);
        let blocking = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        (s, t, pool, blocking)
    }

    fn params() -> InductionParams {
        InductionParams {
            k: 30,
            min_support: 5,
            max_examples_per_target: 1000,
            use_corpus: false,
        }
    }

    #[test]
    fn finds_the_true_scaling_function() {
        let (s, t, mut pool, blocking) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let cands = induce_candidates(
            &blocking,
            AttrId(1),
            &s,
            &t,
            &mut pool,
            &Registry::default(),
            params(),
            &mut rng,
        );
        assert!(!cands.is_empty());
        // x/1000 must be among the survivors, with high support.
        let scale = cands
            .iter()
            .find(|c| matches!(&c.func, AttrFunction::Scale(r) if r.num() == 1 && r.den() == 1000))
            .expect("true function filtered out");
        assert!(scale.support >= 25, "support {}", scale.support);
    }

    #[test]
    fn constants_do_not_survive_filtering() {
        // Each Constant(t_val) is generated for exactly one sampled target
        // (distinct values per block) — support 1 < 5.
        let (s, t, mut pool, blocking) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let cands = induce_candidates(
            &blocking,
            AttrId(1),
            &s,
            &t,
            &mut pool,
            &Registry::default(),
            params(),
            &mut rng,
        );
        assert!(
            !cands
                .iter()
                .any(|c| matches!(c.func, AttrFunction::Constant(_))),
            "constants should be filtered: {cands:?}"
        );
    }

    #[test]
    fn empty_when_no_mixed_blocks() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"]]);
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["y"]]);
        // Block on a: "x" and "y" land in different blocks → no mixed.
        let blocking = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let cands = induce_candidates(
            &blocking,
            AttrId(0),
            &s,
            &t,
            &mut pool,
            &Registry::default(),
            params(),
            &mut rng,
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, t, mut pool, blocking) = setup();
        let run = |pool: &mut ValuePool| {
            let mut rng = StdRng::seed_from_u64(99);
            induce_candidates(
                &blocking,
                AttrId(1),
                &s,
                &t,
                pool,
                &Registry::default(),
                params(),
                &mut rng,
            )
            .into_iter()
            .map(|c| (c.func, c.support))
            .collect::<Vec<_>>()
        };
        let a = run(&mut pool);
        let b = run(&mut pool);
        assert_eq!(a, b);
    }

    #[test]
    fn min_support_relaxed_for_tiny_samples() {
        // With only 3 targets available, k = 3 < 5: the threshold adapts so
        // small instances (like the running example) still induce functions.
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![vec!["a", "100"], vec!["b", "200"], vec!["c", "300"]],
        );
        let t = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![vec!["a", "0.1"], vec!["b", "0.2"], vec!["c", "0.3"]],
        );
        let blocking = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let cands = induce_candidates(
            &blocking,
            AttrId(1),
            &s,
            &t,
            &mut pool,
            &Registry::default(),
            params(),
            &mut rng,
        );
        assert!(cands
            .iter()
            .any(|c| matches!(&c.func, AttrFunction::Scale(r) if r.den() == 1000)));
    }
}
