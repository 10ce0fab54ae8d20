//! Candidate ranking by histogram overlap (§4.4.3).
//!
//! The most frequently generated candidate is not necessarily the best
//! (functions are only induced from examples where their effect is
//! visible). Candidates are therefore scored by how many records they would
//! align: `k'` source records are sampled (Cochran-sized), their blocks are
//! evaluated *exhaustively* — every candidate is applied to every source
//! value of the block and the resulting histogram is intersected with the
//! block's target-value histogram. The score is total overlap minus the
//! candidate's description length.

use affidavit_blocking::Blocking;
use affidavit_functions::{AppliedFunction, AttrFunction};
use affidavit_table::{AttrId, FxHashMap, FxHashSet, Interner, Sym, Table};
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;

/// A ranked candidate: function plus its estimated alignment overlap.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The candidate function.
    pub func: AttrFunction,
    /// Total histogram overlap over the evaluated blocks.
    pub overlap: u64,
    /// Ranking score: overlap − ψ.
    pub score: i64,
}

/// Rank `candidates` for `attr`, returning the best `beta` in descending
/// score order.
#[allow(clippy::too_many_arguments)]
pub fn rank_candidates<I: Interner>(
    blocking: &Blocking,
    attr: AttrId,
    candidates: Vec<AttrFunction>,
    source: &Table,
    target: &Table,
    pool: &mut I,
    k_prime: usize,
    beta: usize,
    rng: &mut StdRng,
) -> Vec<RankedCandidate> {
    let _span = affidavit_obs::span("rank.candidates");
    if candidates.is_empty() || beta == 0 {
        return Vec::new();
    }
    // Sample k' source records from mixed blocks; evaluate each containing
    // block once.
    let mut mixed_sources: Vec<usize> = Vec::new(); // block indices, one per source record
    for (bi, block) in blocking.blocks().enumerate() {
        if block.is_mixed() {
            mixed_sources.extend(std::iter::repeat_n(bi, block.src.len()));
        }
    }
    if mixed_sources.is_empty() {
        return Vec::new();
    }
    let k = k_prime.min(mixed_sources.len());
    let mut blocks_to_eval: Vec<usize> = index_sample(rng, mixed_sources.len(), k)
        .into_iter()
        .map(|i| mixed_sources[i])
        .collect();
    blocks_to_eval.sort_unstable();
    blocks_to_eval.dedup();

    let mut applied: Vec<AppliedFunction> = candidates
        .iter()
        .cloned()
        .map(AppliedFunction::new)
        .collect();
    let mut overlaps = vec![0u64; applied.len()];

    let mut src_hist: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut tgt_hist: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut out_hist: FxHashMap<Sym, u32> = FxHashMap::default();

    for &bi in &blocks_to_eval {
        let block = blocking.block(bi);
        src_hist.clear();
        for &sid in block.src {
            *src_hist.entry(source.value(sid, attr)).or_default() += 1;
        }
        tgt_hist.clear();
        for &tid in block.tgt {
            *tgt_hist.entry(target.value(tid, attr)).or_default() += 1;
        }
        for (fi, func) in applied.iter_mut().enumerate() {
            out_hist.clear();
            for (&v, &n) in &src_hist {
                if let Some(w) = func.apply(v, pool) {
                    *out_hist.entry(w).or_default() += n;
                }
            }
            let mut overlap = 0u64;
            for (&w, &n) in &out_hist {
                if let Some(&m) = tgt_hist.get(&w) {
                    overlap += n.min(m) as u64;
                }
            }
            overlaps[fi] += overlap;
        }
    }

    let mut ranked: Vec<RankedCandidate> = candidates
        .into_iter()
        .zip(overlaps)
        .map(|(func, overlap)| {
            let score = overlap as i64 - func.psi() as i64;
            RankedCandidate {
                func,
                overlap,
                score,
            }
        })
        .collect();
    ranked.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.func.cmp(&b.func)));
    ranked.truncate(beta);
    ranked
}

/// Dedupe helper used by the extender: candidates surviving induction may
/// contain semantically identical functions reached via different examples;
/// structural equality already dedupes them, this guards the Vec path.
pub fn dedupe_functions(funcs: Vec<AttrFunction>) -> Vec<AttrFunction> {
    let mut seen: FxHashSet<AttrFunction> = FxHashSet::default();
    funcs
        .into_iter()
        .filter(|f| seen.insert(f.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_blocking::Blocking;
    use affidavit_functions::ApplyScratch;
    use affidavit_table::{Rational, Schema, ValuePool};
    use rand::SeedableRng;

    /// Blocks keyed by `k`; Val divided by 1000 in the target. A constant
    /// function can only ever match one value per block, so the true
    /// scaling function must win the ranking.
    fn setup() -> (Table, Table, ValuePool, Blocking) {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("g{}", i % 3), format!("{}", 1000 + i * 1000)])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("g{}", i % 3), format!("{}", 1 + i)])
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

    #[test]
    fn true_function_outranks_constant() {
        let (s, t, mut pool, blocking) = setup();
        let c9 = pool.intern("9");
        let candidates = vec![
            AttrFunction::Constant(c9),
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let ranked = rank_candidates(
            &blocking,
            AttrId(1),
            candidates,
            &s,
            &t,
            &mut pool,
            139,
            2,
            &mut rng,
        );
        assert_eq!(ranked.len(), 2);
        assert!(
            matches!(ranked[0].func, AttrFunction::Scale(_)),
            "ranking: {ranked:?}"
        );
        assert!(ranked[0].overlap > ranked[1].overlap);
    }

    #[test]
    fn beta_truncates() {
        let (s, t, mut pool, blocking) = setup();
        let c1 = pool.intern("1");
        let c2 = pool.intern("2");
        let candidates = vec![
            AttrFunction::Constant(c1),
            AttrFunction::Constant(c2),
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let ranked = rank_candidates(
            &blocking,
            AttrId(1),
            candidates,
            &s,
            &t,
            &mut pool,
            139,
            1,
            &mut rng,
        );
        assert_eq!(ranked.len(), 1);
        assert!(matches!(ranked[0].func, AttrFunction::Scale(_)));
    }

    #[test]
    fn psi_breaks_overlap_ties() {
        // Two functions with identical overlap: the cheaper one ranks first.
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["k", "v"]), &mut pool, vec![vec!["a", "x"]; 10]);
        let t = Table::from_rows(Schema::new(["k", "v"]), &mut pool, vec![vec!["a", "x"]; 10]);
        let blocking = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        let x = pool.lookup("x").unwrap();
        let candidates = vec![AttrFunction::Constant(x), AttrFunction::Identity];
        let mut rng = StdRng::seed_from_u64(0);
        let ranked = rank_candidates(
            &blocking,
            AttrId(1),
            candidates,
            &s,
            &t,
            &mut pool,
            139,
            2,
            &mut rng,
        );
        assert!(ranked[0].func.is_identity()); // ψ 0 beats ψ 1
        assert_eq!(ranked[0].overlap, ranked[1].overlap);
    }

    #[test]
    fn dedupe() {
        let funcs = vec![
            AttrFunction::Identity,
            AttrFunction::Identity,
            AttrFunction::Uppercase,
        ];
        assert_eq!(dedupe_functions(funcs).len(), 2);
    }
}
