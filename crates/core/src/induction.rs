//! Candidate induction from noisy block-sampled examples (§4.4.2).
//!
//! Up to `k` distinct target records are sampled from blocks that contain
//! both source and target records; for each one, candidate functions are
//! induced that produce its attribute value from *any* distinct source
//! value in the same block. A candidate's support is the number of sampled
//! target records whose examples generated it; candidates below the
//! significance threshold (`min_support`, the `P(X ≥ 5)` target of the
//! binomial sizing) are filtered.
//!
//! Sampled targets of one block share its source values, so the same
//! `(source value, target value)` example recurs within a call. Each
//! distinct example is induced once; its functions are kept as dense ids,
//! and support is counted per id with a stamp of the last target that
//! counted it. First-seen examples are induced in the order the sampled
//! targets visit them, so the pool interns the same strings in the same
//! order as inducing every example afresh.

use affidavit_blocking::Blocking;
use affidavit_functions::{induce_from_example, AttrFunction, Registry};
use affidavit_table::{AttrId, FxHashMap, FxHashSet, Interner, RecordId, Sym, Table};
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

/// The result of [`induce_candidates`]: the surviving candidates and the
/// work done to find them.
#[derive(Debug, Clone, Default)]
pub struct Induction {
    /// Candidates at or above the support threshold, by support
    /// descending, then structural function order.
    pub candidates: Vec<Candidate>,
    /// Distinct `(source value, target value)` examples induced.
    pub examples: usize,
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

/// A side of the mixed blocks to sample records from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Source,
    Target,
}

impl Side {
    /// This side's running record count in a block end offset.
    fn end(self, (src, tgt): (u32, u32)) -> usize {
        match self {
            Side::Source => src as usize,
            Side::Target => tgt as usize,
        }
    }
}

/// Draw up to `k` records uniformly without replacement from one side of
/// the blocks, as `(block index, offset within that side)`, in draw order.
/// The draws index the records of all blocks laid end to end, found
/// through the blocking's end offsets; every block is mixed. `None`,
/// without a draw, when there is no block.
pub(crate) fn sample_mixed(
    blocking: &Blocking,
    side: Side,
    k: usize,
    rng: &mut StdRng,
) -> Option<Vec<(usize, usize)>> {
    let ends = blocking.ends();
    let total = ends.last().map_or(0, |&end| side.end(end));
    if total == 0 {
        return None;
    }
    let picks = index_sample(rng, total, k.min(total))
        .into_iter()
        .map(|i| {
            let j = ends.partition_point(|&end| side.end(end) <= i);
            let start = if j == 0 { 0 } else { side.end(ends[j - 1]) };
            (j, i - start)
        })
        .collect();
    Some(picks)
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
) -> Induction {
    let _span = affidavit_obs::span("induce.candidates");
    let mut chosen: Vec<(usize, RecordId)> = sample_mixed(blocking, Side::Target, params.k, rng)
        .unwrap_or_default()
        .into_iter()
        .map(|(bi, off)| (bi, blocking.block(bi).tgt[off]))
        .collect();
    if chosen.is_empty() {
        return Induction::default();
    }
    let k = chosen.len();
    // Group by block so distinct source values are computed once per block.
    chosen.sort_by_key(|&(bi, tid)| (bi, tid));

    // Every distinct function seen, by dense id, with its support and the
    // last sampled target that counted it.
    let mut ids: FxHashMap<AttrFunction, u32> = FxHashMap::default();
    let mut support: Vec<u32> = Vec::new();
    let mut stamp: Vec<usize> = Vec::new();
    // Each distinct example's functions: a range of `induced`.
    let mut examples: FxHashMap<(Sym, Sym), (u32, u32)> = FxHashMap::default();
    let mut induced: Vec<u32> = Vec::new();

    let mut src_values: Vec<Sym> = Vec::new();
    let mut seen_vals: FxHashSet<Sym> = FxHashSet::default();
    let mut current_block = usize::MAX;

    for (ti, (bi, tid)) in chosen.into_iter().enumerate() {
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
        for &s_val in &src_values {
            let (start, end) = *examples.entry((s_val, t_val)).or_insert_with(|| {
                let start = induced.len() as u32;
                let mut found = induce_from_example(s_val, t_val, pool, registry);
                if params.use_corpus {
                    found.extend(affidavit_functions::corpus_candidates(s_val, t_val, pool));
                }
                for f in found {
                    let next = support.len() as u32;
                    let id = *ids.entry(f).or_insert(next);
                    if id == next {
                        support.push(0);
                        stamp.push(usize::MAX);
                    }
                    induced.push(id);
                }
                (start, induced.len() as u32)
            });
            for &id in &induced[start as usize..end as usize] {
                let id = id as usize;
                if stamp[id] != ti {
                    stamp[id] = ti;
                    support[id] += 1;
                }
            }
        }
    }

    let threshold = params.min_support.min(k as u32);
    let mut candidates: Vec<Candidate> = ids
        .into_iter()
        .map(|(func, id)| Candidate {
            func,
            support: support[id as usize],
        })
        .filter(|c| c.support >= threshold)
        .collect();
    // Deterministic order: support desc, then structural function order.
    candidates.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.func.cmp(&b.func)));
    Induction {
        candidates,
        examples: examples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_blocking::{Block, Blocking};
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

    /// The records of one side of a block.
    fn of(side: Side, block: Block<'_>) -> &[RecordId] {
        match side {
            Side::Source => block.src,
            Side::Target => block.tgt,
        }
    }

    /// The walk `sample_mixed` replaced, over the blocks as they were
    /// built, one-sided ones included: prefix sums of one side of the
    /// mixed blocks, rebuilt on each call. Returns the picked records.
    fn walk_sample_mixed(
        blocks: &[Block<'_>],
        side: Side,
        k: usize,
        rng: &mut StdRng,
    ) -> Option<Vec<RecordId>> {
        let mut ends: Vec<(usize, usize)> = Vec::new();
        let mut total = 0;
        for (bi, block) in blocks.iter().enumerate() {
            if block.is_mixed() {
                total += of(side, *block).len();
                ends.push((bi, total));
            }
        }
        if total == 0 {
            return None;
        }
        let picks = index_sample(rng, total, k.min(total))
            .into_iter()
            .map(|i| {
                let j = ends.partition_point(|&(_, end)| end <= i);
                let start = if j == 0 { 0 } else { ends[j - 1].1 };
                of(side, blocks[ends[j].0])[i - start]
            })
            .collect();
        Some(picks)
    }

    /// `sample_mixed` picks the records the walk picks and leaves the RNG
    /// where the walk leaves it, seed for seed, on blockings built from
    /// empty, one-sided, 1:1 and wide blocks, for samples below, at and
    /// above the record count.
    #[test]
    fn sample_mixed_matches_the_block_walk() {
        use rand::{Rng, RngCore};
        let mut shapes = StdRng::seed_from_u64(3);
        for case in 0..200 {
            let blocks = shapes.gen_range(0..12usize);
            let sizes: Vec<(u32, u32)> = (0..blocks)
                .map(|_| match shapes.gen_range(0..5) {
                    0 => (0, 0),
                    1 => (shapes.gen_range(1..4), 0),
                    2 => (0, shapes.gen_range(1..4)),
                    3 => (1, 1),
                    _ => (shapes.gen_range(1..9), shapes.gen_range(1..9)),
                })
                .collect();
            let (mut next_src, mut next_tgt) = (0, 0);
            let mut records = Vec::new();
            for &(ns, nt) in &sizes {
                let src: Vec<RecordId> = (next_src..next_src + ns).map(RecordId).collect();
                let tgt: Vec<RecordId> = (next_tgt..next_tgt + nt).map(RecordId).collect();
                (next_src, next_tgt) = (next_src + ns, next_tgt + nt);
                records.push((src, tgt));
            }
            let built: Vec<Block<'_>> = records
                .iter()
                .map(|(src, tgt)| Block { src, tgt })
                .collect();
            let blocking = Blocking::from_blocks(built.iter().copied());
            for k in [0, 1, 3, 10, 100] {
                for side in [Side::Source, Side::Target] {
                    let seed = case * 101 + k as u64;
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let picked = sample_mixed(&blocking, side, k, &mut a).map(|picks| {
                        picks
                            .into_iter()
                            .map(|(bi, off)| of(side, blocking.block(bi))[off])
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(
                        picked,
                        walk_sample_mixed(&built, side, k, &mut b),
                        "case {case} k {k} {side:?}"
                    );
                    assert_eq!(a.next_u64(), b.next_u64(), "next draw, case {case}");
                }
            }
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
        )
        .candidates;
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
        )
        .candidates;
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
        )
        .candidates;
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
            .candidates
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
        )
        .candidates;
        assert!(cands
            .iter()
            .any(|c| matches!(&c.func, AttrFunction::Scale(r) if r.den() == 1000)));
    }
}
