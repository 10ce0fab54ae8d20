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
//! a value at most once per call. All images are computed first: blocks
//! ascending, candidates in input order, a block's distinct source values
//! in the order its source histogram map visits them. That is the order
//! in which a per-candidate memo fed block by block would apply them, so
//! the pool interns the same strings in the same order. A candidate's
//! overlap depends only on its image array, so the blocks are then walked
//! once per *distinct* array, and candidates with equal arrays (often
//! several: `Add`/`Scale` variants, or functions that are the identity on
//! every evaluated value) share that overlap. `Constant` and `Identity`
//! never intern, and their overlap has a closed form.

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

/// The slot of a value that is none of the evaluated blocks' values (so
/// it matches no target), or of a function's failure. A value of the
/// blocks has its dense id plus one as its slot, and image arrays and
/// target counts are indexed by slot.
const MISS: u32 = 0;

/// One walk over the evaluated blocks: what a candidate's overlap depends
/// on. Candidates with equal walks have equal overlaps.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Walk<'a> {
    /// `Constant(c)`: every source becomes `c`; `c`'s slot.
    Constant(u32),
    /// `Identity`: every source keeps its value.
    Identity,
    /// Anything else: the image array of the dense values.
    Image(&'a [u32]),
}

/// Where one evaluated block's data ends in the flat per-call arrays.
struct BlockLayout {
    runs_end: usize,
    first_end: usize,
    tgts_end: usize,
    /// Source records in the block.
    sources: u32,
}

/// Overlap of one block's output histogram with its target histogram,
/// from the images of its source values: `Σ min(output count, target
/// count)` over output slots, summed as the runs arrive. `used[w]` holds
/// `pass << 32 | output count of slot w so far` for a `w` met in this
/// pass, so a new `pass` number resets every count without a walk over
/// them. A miss lands in slot 0, whose target count is 0, so no branch
/// singles it out.
#[inline]
fn image_overlap(
    image: &[u32],
    runs: &[(u32, u32)],
    tgt_count: &[u32],
    used: &mut [u64],
    pass: u64,
) -> u64 {
    let mut overlap = 0;
    for &(v, n) in runs {
        let w = image[v as usize] as usize;
        let target = tgt_count[w];
        let so_far = match used[w] {
            u if u >> 32 == pass => u as u32,
            _ => 0,
        };
        overlap += n.min(target.saturating_sub(so_far)) as u64;
        used[w] = pass << 32 | u64::from(so_far + n);
    }
    overlap
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
    // the same order; and the slot of each of its targets.
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
    let mut tgt_slots: Vec<u32> = Vec::new();
    let mut layout: Vec<BlockLayout> = Vec::with_capacity(blocks_to_eval.len());
    for &bi in &blocks_to_eval {
        let block = blocking.block(bi);
        let runs_start = src_runs.len();
        if let [sid] = *block.src {
            // One source: its value is the histogram. Skipping the map
            // leaves the order it visits later blocks in as it was: a
            // one-value insert never outgrows the map's first allocation.
            src_runs.push((dense_id(source.value(sid, attr)), 1));
        } else {
            src_hist.clear();
            for &sid in block.src {
                *src_hist.entry(source.value(sid, attr)).or_default() += 1;
            }
            src_runs.extend(src_hist.iter().map(|(&v, &n)| (dense_id(v), n)));
        }
        for &(v, _) in &src_runs[runs_start..] {
            let v = v as usize;
            if v >= seen_as_src.len() {
                seen_as_src.resize(v + 1, false);
            }
            if !std::mem::replace(&mut seen_as_src[v], true) {
                first_src.push(v as u32);
            }
        }
        tgt_slots.extend(
            block
                .tgt
                .iter()
                .map(|&tid| dense_id(target.value(tid, attr)) + 1),
        );
        layout.push(BlockLayout {
            runs_end: src_runs.len(),
            first_end: first_src.len(),
            tgts_end: tgt_slots.len(),
            sources: block.src.len() as u32,
        });
    }
    let n_values = values.len();

    // Candidates that apply, in input order, each with its image array:
    // `images[i · n..(i + 1) · n]` for the `i`-th of them.
    let applied: Vec<&AttrFunction> = candidates
        .iter()
        .filter(|func| !matches!(func, AttrFunction::Constant(_) | AttrFunction::Identity))
        .collect();
    let mut images = vec![MISS; applied.len() * n_values];
    let mut applications = 0;
    let mut first_start = 0;
    for block in &layout {
        let first = &first_src[first_start..block.first_end];
        for (func, image) in applied.iter().zip(images.chunks_exact_mut(n_values)) {
            for &v in first {
                applications += 1;
                let x = values[v as usize];
                image[v as usize] = match func.apply(x, pool) {
                    Some(w) if w == x => v + 1,
                    Some(w) => dense.get(&w).map_or(MISS, |&w| w + 1),
                    None => MISS,
                };
            }
        }
        first_start = block.first_end;
    }

    // One walk over the blocks per distinct `Walk`: candidates with equal
    // image arrays (or equal constants) share its overlap.
    let mut image_arrays = (0..applied.len()).map(|i| &images[i * n_values..(i + 1) * n_values]);
    let mut walks: Vec<Walk<'_>> = Vec::new();
    let mut walk_ids: FxHashMap<Walk<'_>, usize> = FxHashMap::default();
    let walk_of: Vec<usize> = candidates
        .iter()
        .map(|func| {
            let walk = match func {
                AttrFunction::Constant(c) => Walk::Constant(dense.get(c).map_or(MISS, |&c| c + 1)),
                AttrFunction::Identity => Walk::Identity,
                _ => Walk::Image(
                    image_arrays
                        .next()
                        .expect("one image per applied candidate"),
                ),
            };
            *walk_ids.entry(walk).or_insert_with(|| {
                walks.push(walk);
                walks.len() - 1
            })
        })
        .collect();

    let mut walk_overlaps = vec![0u64; walks.len()];
    // This block's count of each target slot, and `image_overlap`'s
    // output counts with the number of the pass that wrote them.
    let mut tgt_count = vec![0u32; n_values + 1];
    let mut used = vec![0u64; n_values + 1];
    let mut pass = 0;
    let (mut runs_start, mut tgts_start) = (0, 0);
    for block in &layout {
        let runs = &src_runs[runs_start..block.runs_end];
        let tgts = &tgt_slots[tgts_start..block.tgts_end];
        for &t in tgts {
            tgt_count[t as usize] += 1;
        }
        if let [(v, n)] = *runs {
            // One distinct source value: its image is the whole output.
            for (walk, overlap) in walks.iter().zip(&mut walk_overlaps) {
                let w = match *walk {
                    Walk::Constant(c) => c,
                    Walk::Identity => v + 1,
                    Walk::Image(image) => image[v as usize],
                };
                *overlap += n.min(tgt_count[w as usize]) as u64;
            }
        } else {
            for (walk, overlap) in walks.iter().zip(&mut walk_overlaps) {
                *overlap += match *walk {
                    Walk::Constant(c) => block.sources.min(tgt_count[c as usize]) as u64,
                    Walk::Identity => runs
                        .iter()
                        .map(|&(v, n)| n.min(tgt_count[v as usize + 1]) as u64)
                        .sum(),
                    Walk::Image(image) => {
                        pass += 1;
                        image_overlap(image, runs, &tgt_count, &mut used, pass)
                    }
                };
            }
        }
        for &t in tgts {
            tgt_count[t as usize] = 0;
        }
        (runs_start, tgts_start) = (block.runs_end, block.tgts_end);
    }
    let overlaps = walk_of.iter().map(|&w| walk_overlaps[w]);

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

    /// Candidates with one image array share one overlap walk, and still
    /// rank by score, then structural function order, whatever their
    /// input order.
    #[test]
    fn equal_images_keep_score_then_function_order() {
        let (s, t, mut pool, blocking) = setup();
        let (hash, pct, g0) = (pool.intern("#"), pool.intern("%"), pool.intern("g0"));
        // On `k` the trims and replacements are the identity (no value
        // holds '#'), so those four share one image array, met between
        // other walks; ψ is 1 for a trim and 2 for a replacement.
        let candidates = vec![
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::PrefixReplace(hash, pct),
            AttrFunction::Constant(g0),
            AttrFunction::BackCharTrim('#'),
            AttrFunction::FrontCharTrim('#'),
            AttrFunction::SuffixReplace(hash, pct),
        ];
        let mut rng = StdRng::seed_from_u64(4);
        let ranking = rank_candidates(
            &blocking,
            AttrId(0),
            candidates,
            &s,
            &t,
            &mut pool,
            139,
            6,
            &mut rng,
        );
        let order: Vec<(AttrFunction, u64, i64)> = ranking
            .ranked
            .iter()
            .map(|r| (r.func.clone(), r.overlap, r.score))
            .collect();
        // Attribute `k` is already blocked on, so the identity aligns all
        // 30 records and "g0" the 10 of its block; `Scale` fails on every
        // non-numeric value.
        assert_eq!(
            order,
            vec![
                (AttrFunction::FrontCharTrim('#'), 30, 29),
                (AttrFunction::BackCharTrim('#'), 30, 29),
                (AttrFunction::PrefixReplace(hash, pct), 30, 28),
                (AttrFunction::SuffixReplace(hash, pct), 30, 28),
                (AttrFunction::Constant(g0), 10, 9),
                (AttrFunction::Scale(Rational::new(1, 1000).unwrap()), 0, -1),
            ]
        );
        // Every candidate still applies to every distinct value once.
        assert_eq!(ranking.applications, 5 * 3);
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
