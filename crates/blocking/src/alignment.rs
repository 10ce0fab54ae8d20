//! Random alignments and greedy value maps (Algorithm 1's `R` and `Hд`).
//!
//! `Sample-Random-Alignment(Φ^H)` pairs up source and target records within
//! each block uniformly at random; `Induce-Greedy-Map(R, a)` builds the map
//! function that sends each source value of attribute `a` to the target
//! value it co-occurs with most often in the alignment. This is the
//! benchmark a candidate function must beat during extension, and the
//! fallback used to resolve ⊞-marked attributes at finalization.

use affidavit_functions::ValueMap;
use affidavit_table::{AttrId, RecordId, Sym, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::blocking::Blocking;

/// Sample a random alignment of source and target records that respects the
/// blocking result: only records in the same block are paired, and each
/// record is used at most once (`min(|φ_S|, |φ_T|)` pairs per block).
/// Visits the blocks in block order; every block is mixed.
pub fn sample_random_alignment(blocking: &Blocking, rng: &mut StdRng) -> Vec<(RecordId, RecordId)> {
    let mut pairs = Vec::new();
    let mut src_buf: Vec<RecordId> = Vec::new();
    let mut tgt_buf: Vec<RecordId> = Vec::new();
    for block in blocking.blocks() {
        src_buf.clear();
        src_buf.extend_from_slice(block.src);
        tgt_buf.clear();
        tgt_buf.extend_from_slice(block.tgt);
        src_buf.shuffle(rng);
        tgt_buf.shuffle(rng);
        let n = src_buf.len().min(tgt_buf.len());
        pairs.extend(
            src_buf[..n]
                .iter()
                .copied()
                .zip(tgt_buf[..n].iter().copied()),
        );
    }
    pairs
}

/// Build the greedy value map for `attr` from an alignment: each source
/// value maps to its most frequent co-occurring target value (ties broken
/// deterministically towards the smaller symbol). Identity pairs are dropped
/// by [`ValueMap::from_pairs`] since unmapped values fall through unchanged.
pub fn greedy_map_from_alignment(
    pairs: &[(RecordId, RecordId)],
    attr: AttrId,
    source: &Table,
    target: &Table,
) -> ValueMap {
    let (src_col, tgt_col) = (source.column(attr), target.column(attr));
    // Sorted value pairs: each source value's pairs are contiguous, and
    // within them each run of one target value is its co-occurrence count,
    // runs in ascending target order. Sorting allocates once, where a
    // count map would allocate per distinct source value.
    let mut values: Vec<(Sym, Sym)> = pairs
        .iter()
        .map(|&(sid, tid)| (src_col[sid.index()], tgt_col[tid.index()]))
        .collect();
    values.sort_unstable();
    let entries = values.chunk_by(|a, b| a.0 == b.0).map(|same_src| {
        let mut best = (0, same_src[0].1);
        for run in same_src.chunk_by(|a, b| a.1 == b.1) {
            // Strictly more: a tie keeps the earlier, smaller target.
            if run.len() > best.0 {
                best = (run.len(), run[0].1);
            }
        }
        (same_src[0].0, best.1)
    });
    ValueMap::from_pairs(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table, ValuePool};
    use rand::SeedableRng;

    fn tables() -> (Table, Table, ValuePool) {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![
                vec!["a", "1"],
                vec!["a", "1"],
                vec!["a", "1"],
                vec!["b", "2"],
            ],
        );
        let t = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![
                vec!["a", "10"],
                vec!["a", "10"],
                vec!["a", "99"],
                vec!["b", "20"],
            ],
        );
        (s, t, pool)
    }

    fn blocked_on_k(s: &Table, t: &Table, pool: &mut ValuePool) -> Blocking {
        use affidavit_functions::{ApplyScratch, AttrFunction};
        let mut scratch = ApplyScratch::new();
        Blocking::root(s, t).refine(
            affidavit_table::AttrId(0),
            &AttrFunction::Identity,
            &mut scratch,
            s,
            t,
            pool,
        )
    }

    #[test]
    fn alignment_respects_blocks() {
        let (s, t, mut pool) = tables();
        let blocking = blocked_on_k(&s, &t, &mut pool);
        let mut rng = StdRng::seed_from_u64(7);
        let pairs = sample_random_alignment(&blocking, &mut rng);
        assert_eq!(pairs.len(), 4); // 3 pairs in block a, 1 in block b
        for (sid, tid) in pairs {
            assert_eq!(
                s.value(sid, affidavit_table::AttrId(0)),
                t.value(tid, affidavit_table::AttrId(0)),
                "pair crosses blocks"
            );
        }
    }

    #[test]
    fn alignment_uses_each_record_once() {
        let (s, t, mut pool) = tables();
        let blocking = blocked_on_k(&s, &t, &mut pool);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = sample_random_alignment(&blocking, &mut rng);
        let mut seen_s: Vec<_> = pairs.iter().map(|p| p.0).collect();
        let mut seen_t: Vec<_> = pairs.iter().map(|p| p.1).collect();
        seen_s.sort();
        seen_s.dedup();
        seen_t.sort();
        seen_t.dedup();
        assert_eq!(seen_s.len(), pairs.len());
        assert_eq!(seen_t.len(), pairs.len());
    }

    #[test]
    fn greedy_map_picks_majority() {
        let (s, t, mut pool) = tables();
        let blocking = blocked_on_k(&s, &t, &mut pool);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_random_alignment(&blocking, &mut rng);
        let map = greedy_map_from_alignment(&pairs, affidavit_table::AttrId(1), &s, &t);
        // Source value "1" co-occurs with "10" twice and "99" once (in the
        // 3-pair block): majority must win regardless of shuffle.
        let one = pool.lookup("1").unwrap();
        let ten = pool.lookup("10").unwrap();
        assert_eq!(map.apply(one), ten);
    }

    #[test]
    fn greedy_map_is_deterministic_given_alignment() {
        let (s, t, _) = tables();
        let pairs = vec![
            (RecordId(0), RecordId(0)),
            (RecordId(1), RecordId(2)),
            (RecordId(3), RecordId(3)),
        ];
        let a = greedy_map_from_alignment(&pairs, affidavit_table::AttrId(1), &s, &t);
        let b = greedy_map_from_alignment(&pairs, affidavit_table::AttrId(1), &s, &t);
        assert_eq!(a, b);
    }

    /// The sort-and-count greedy map equals a count-map reference,
    /// including which target wins a tie, over random pairings of small
    /// value domains where ties are common.
    #[test]
    fn greedy_map_matches_a_count_map_reference() {
        use affidavit_table::FxHashMap;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut pool = ValuePool::new();
            let n = rng.gen_range(0..40usize);
            let col = |rng: &mut StdRng, domain: u32| {
                (0..n)
                    .map(|_| vec![format!("v{}", rng.gen_range(0..domain))])
                    .collect::<Vec<_>>()
            };
            let (sd, td) = (rng.gen_range(1..6), rng.gen_range(1..6));
            let s = Table::from_rows(Schema::new(["a"]), &mut pool, col(&mut rng, sd));
            let t = Table::from_rows(Schema::new(["a"]), &mut pool, col(&mut rng, td));
            let mut tids: Vec<RecordId> = t.record_ids().collect();
            tids.shuffle(&mut rng);
            let pairs: Vec<_> = s.record_ids().zip(tids).collect();
            let mut counts: FxHashMap<Sym, FxHashMap<Sym, u32>> = FxHashMap::default();
            for &(sid, tid) in &pairs {
                let (sv, tv) = (s.value(sid, AttrId(0)), t.value(tid, AttrId(0)));
                *counts.entry(sv).or_default().entry(tv).or_default() += 1;
            }
            let reference = ValueMap::from_pairs(counts.into_iter().map(|(sv, tmap)| {
                let best = tmap
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .expect("every source value has a target");
                (sv, best.0)
            }));
            assert_eq!(
                greedy_map_from_alignment(&pairs, AttrId(0), &s, &t),
                reference
            );
        }
    }
}
