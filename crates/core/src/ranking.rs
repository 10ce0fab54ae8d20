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
//!
//! Every distinct value of the evaluated blocks gets a dense id, and each
//! candidate one flat image array indexed by it, so a candidate transforms
//! a value at most once per call. Images are computed on first use: blocks
//! ascending, candidates in input order, a block's distinct source values
//! in the order its source histogram map visits them. That is the order
//! in which a per-candidate memo fed block by block would apply them, so
//! the pool interns the same strings in the same order. `Constant` and
//! `Identity` never intern, and their overlap has a closed form.

use affidavit_blocking::Blocking;
use affidavit_functions::AttrFunction;
use affidavit_table::{AttrId, FxHashMap, Interner, Sym, Table};
use rand::rngs::StdRng;

use crate::induction::{sample_mixed, Side};

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

/// The result of [`rank_candidates`]: the best candidates and the work
/// done to rank them.
#[derive(Debug, Clone, Default)]
pub struct Ranking {
    /// At most `beta` candidates, by score descending, then structural
    /// function order.
    pub ranked: Vec<RankedCandidate>,
    /// Function applications: images computed for the first time.
    pub applications: usize,
}

/// An image slot whose function fails on the value, or whose image is no
/// value of the evaluated blocks (so it matches no target). Any other slot
/// holds the image's dense id plus one.
const MISS: u32 = 0;

/// Where one evaluated block's data ends in the flat per-call arrays.
struct BlockLayout {
    runs_end: usize,
    first_end: usize,
    tgts_end: usize,
    /// Source records in the block.
    sources: u32,
}

/// How a candidate's overlap is computed.
enum Plan {
    /// `Constant(c)`: every source becomes `c`; `c`'s dense id, if any.
    Constant(Option<usize>),
    /// `Identity`: every source keeps its value.
    Identity,
    /// Anything else: apply it, through the image array at this offset.
    Apply(usize),
}

/// Overlap of one block's output histogram with its target histogram,
/// from the images of its source values. `out_count` is all zeros on entry
/// and on return.
fn image_overlap(
    image: &[u32],
    runs: &[(u32, u32)],
    tgt_count: &[u32],
    out_count: &mut [u32],
    touched: &mut Vec<usize>,
) -> u64 {
    // One distinct source value: its image is the whole output.
    if let [(v, n)] = *runs {
        return match image[v as usize] {
            MISS => 0,
            w => n.min(tgt_count[w as usize - 1]) as u64,
        };
    }
    for &(v, n) in runs {
        let w = image[v as usize];
        if w != MISS && tgt_count[w as usize - 1] > 0 {
            let w = w as usize - 1;
            if out_count[w] == 0 {
                touched.push(w);
            }
            out_count[w] += n;
        }
    }
    touched
        .drain(..)
        .map(|w| std::mem::take(&mut out_count[w]).min(tgt_count[w]) as u64)
        .sum()
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
) -> Ranking {
    let _span = affidavit_obs::span("rank.candidates");
    if candidates.is_empty() || beta == 0 {
        return Ranking::default();
    }
    // Sample k' source records from mixed blocks; evaluate each containing
    // block once.
    let Some(picks) = sample_mixed(blocking, Side::Source, k_prime, rng) else {
        return Ranking::default();
    };
    let mut blocks_to_eval: Vec<usize> = picks.into_iter().map(|(bi, _)| bi).collect();
    blocks_to_eval.sort_unstable();
    blocks_to_eval.dedup();

    // Lay out the evaluated blocks by dense value id. Per block: its
    // distinct source values with their counts, in histogram visiting
    // order; those of them that no earlier block has as a source value, in
    // the same order; and the value of each of its targets.
    let mut dense: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut values: Vec<Sym> = Vec::new();
    let mut dense_id = |v: Sym| {
        *dense.entry(v).or_insert_with(|| {
            values.push(v);
            values.len() as u32 - 1
        })
    };
    let mut src_hist: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut src_runs: Vec<(u32, u32)> = Vec::new();
    let mut seen_as_src: Vec<bool> = Vec::new();
    let mut first_src: Vec<u32> = Vec::new();
    let mut tgt_ids: Vec<u32> = Vec::new();
    let mut layout: Vec<BlockLayout> = Vec::with_capacity(blocks_to_eval.len());
    for &bi in &blocks_to_eval {
        let block = blocking.block(bi);
        src_hist.clear();
        for &sid in block.src {
            *src_hist.entry(source.value(sid, attr)).or_default() += 1;
        }
        for (&v, &n) in &src_hist {
            let v = dense_id(v);
            src_runs.push((v, n));
            let v = v as usize;
            if v >= seen_as_src.len() {
                seen_as_src.resize(v + 1, false);
            }
            if !std::mem::replace(&mut seen_as_src[v], true) {
                first_src.push(v as u32);
            }
        }
        tgt_ids.extend(
            block
                .tgt
                .iter()
                .map(|&tid| dense_id(target.value(tid, attr))),
        );
        layout.push(BlockLayout {
            runs_end: src_runs.len(),
            first_end: first_src.len(),
            tgts_end: tgt_ids.len(),
            sources: block.src.len() as u32,
        });
    }
    let n_values = values.len();

    let mut n_images = 0;
    let plans: Vec<Plan> = candidates
        .iter()
        .map(|func| match func {
            AttrFunction::Constant(c) => Plan::Constant(dense.get(c).map(|&c| c as usize)),
            AttrFunction::Identity => Plan::Identity,
            _ => {
                n_images += 1;
                Plan::Apply((n_images - 1) * n_values)
            }
        })
        .collect();
    let mut images = vec![MISS; n_images * n_values];
    let mut applications = 0;

    let mut overlaps = vec![0u64; candidates.len()];
    // This block's count of each target value; per-candidate output counts
    // restricted to target values, with the values they touched.
    let mut tgt_count = vec![0u32; n_values];
    let mut out_count = vec![0u32; n_values];
    let mut touched: Vec<usize> = Vec::new();
    let (mut runs_start, mut first_start, mut tgts_start) = (0, 0, 0);
    for block in &layout {
        let runs = &src_runs[runs_start..block.runs_end];
        let first = &first_src[first_start..block.first_end];
        let tgts = &tgt_ids[tgts_start..block.tgts_end];
        for &t in tgts {
            tgt_count[t as usize] += 1;
        }
        for ((func, plan), overlap) in candidates.iter().zip(&plans).zip(&mut overlaps) {
            *overlap += match *plan {
                Plan::Constant(c) => c.map_or(0, |c| block.sources.min(tgt_count[c]) as u64),
                Plan::Identity => runs
                    .iter()
                    .map(|&(v, n)| n.min(tgt_count[v as usize]) as u64)
                    .sum(),
                Plan::Apply(base) => {
                    let image = &mut images[base..base + n_values];
                    for &v in first {
                        applications += 1;
                        image[v as usize] = func
                            .apply(values[v as usize], pool)
                            .and_then(|w| dense.get(&w))
                            .map_or(MISS, |&w| w + 1);
                    }
                    image_overlap(image, runs, &tgt_count, &mut out_count, &mut touched)
                }
            };
        }
        for &t in tgts {
            tgt_count[t as usize] = 0;
        }
        (runs_start, first_start, tgts_start) = (block.runs_end, block.first_end, block.tgts_end);
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
    Ranking {
        ranked,
        applications,
    }
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
        )
        .ranked;
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
        )
        .ranked;
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
        )
        .ranked;
        assert!(ranked[0].func.is_identity()); // ψ 0 beats ψ 1
        assert_eq!(ranked[0].overlap, ranked[1].overlap);
    }
}
