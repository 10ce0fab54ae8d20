//! Property-based tests for the blocking substrate: refinement order
//! independence, lower-bound correctness, alignment discipline, and a
//! differential battery pinning the flat refinement to a nested-`Vec`
//! reference oracle (block order, record order, settled counts, `(ct, cs)`,
//! indeterminacy and pool strings), the count-only bound pass against the
//! same oracle, plus the pruned indeterminacy against an exhaustive count
//! and the mixed-block index against a walk over every block.

use std::collections::{BTreeSet, HashMap};

use std::sync::{Arc, Barrier};

use affidavit::blocking::{sample_random_alignment, Block, Blocking, MixedIndex};
use affidavit::functions::{ApplyScratch, AttrFunction};
use affidavit::table::{
    AttrId, Decimal, Rational, Record, RecordId, Schema, Sym, Table, ValuePool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generate a pair of small tables over a fixed 3-attribute schema with
/// values from tight domains (so blocks actually collide).
fn table_pair() -> impl Strategy<Value = (Vec<[u8; 3]>, Vec<[u8; 3]>)> {
    (
        prop::collection::vec(prop::array::uniform3(0u8..4), 1..30),
        prop::collection::vec(prop::array::uniform3(0u8..4), 1..30),
    )
}

fn build(rows: &[[u8; 3]], pool: &mut ValuePool) -> Table {
    let mut t = Table::new(Schema::new(["a", "b", "c"]));
    for r in rows {
        let syms: Vec<_> = r.iter().map(|v| pool.intern(&format!("v{v}"))).collect();
        t.push(Record::new(syms));
    }
    t
}

/// Canonical multiset of block shapes for comparison.
fn shape(b: &Blocking) -> Vec<(usize, usize)> {
    let mut s: Vec<(usize, usize)> = b
        .blocks()
        .map(|blk| (blk.src.len(), blk.tgt.len()))
        .filter(|&(s, t)| s + t > 0)
        .collect();
    s.sort();
    s
}

// ---- differential battery: flat refine vs. a nested-Vec oracle -----------

/// Cell values mixing numbers (which `Scale`/`Add` transform) with words
/// (on which they are inapplicable, so sources die) and lowercase strings
/// (which `Uppercase` re-interns, so the pool grows during refinement).
const DOMAIN: [&str; 8] = ["1", "2", "10", "x", "y", "ab", "2.5", "-3"];

/// Tables over [`DOMAIN`], possibly empty.
fn mixed_table_pair() -> impl Strategy<Value = (Vec<[u8; 3]>, Vec<[u8; 3]>)> {
    (
        prop::collection::vec(prop::array::uniform3(0u8..8), 0..25),
        prop::collection::vec(prop::array::uniform3(0u8..8), 0..25),
    )
}

fn build_mixed(rows: &[[u8; 3]], pool: &mut ValuePool) -> Table {
    let mut t = Table::new(Schema::new(["a", "b", "c"]));
    for r in rows {
        let syms: Vec<_> = r.iter().map(|&v| pool.intern(DOMAIN[v as usize])).collect();
        t.push(Record::new(syms));
    }
    t
}

/// A total or partial function, by index.
fn function(i: u8, pool: &mut ValuePool) -> AttrFunction {
    match i % 5 {
        0 => AttrFunction::Identity,
        1 => AttrFunction::Scale(Rational::new(1, 10).unwrap()),
        2 => AttrFunction::Uppercase,
        3 => AttrFunction::Constant(pool.intern("1")),
        _ => AttrFunction::Add(Decimal::parse("1").unwrap()),
    }
}

/// Number of blocks in a generated start blocking; source slot `BLOCKS`
/// marks a record that starts out dead.
const BLOCKS: u8 = 5;

/// Number of blocks in a start blocking of mostly singleton and 1:1
/// blocks: ≤ 25 records a side over this many slots.
const TINY_BLOCKS: u8 = 32;

/// The start blocking of `blocks` blocks: source `i` goes to block
/// `src_slot[i]` (or is dead at slot `blocks`), target `j` to block
/// `tgt_slot[j]`. With ≤ 25 records over five slots this yields empty,
/// source-only, target-only and mixed blocks, of which `from_blocks`
/// keeps the mixed ones and settles the rest and the dead sources.
/// Sources are listed in descending id order so record order inside a
/// block is not simply ascending.
fn start_blocking(s: &Table, t: &Table, src_slot: &[u8], tgt_slot: &[u8], blocks: u8) -> Blocking {
    let dead_slot = blocks;
    let mut blocks = vec![(Vec::new(), Vec::new()); blocks as usize];
    let mut dead = Vec::new();
    for sid in (0..s.len() as u32).rev().map(RecordId) {
        match src_slot[sid.index()] {
            b if b == dead_slot => dead.push(sid),
            b => blocks[b as usize].0.push(sid),
        }
    }
    for tid in t.record_ids() {
        blocks[tgt_slot[tid.index()] as usize].1.push(tid);
    }
    let dead = Block {
        src: &dead,
        tgt: &[],
    };
    Blocking::from_blocks(
        blocks
            .iter()
            .map(|(src, tgt)| Block { src, tgt })
            .chain([dead]),
    )
}

/// A blocking as nested vectors: per-block `(src, tgt)` plus the
/// `(sources, targets)` settled out of the blocks.
#[derive(Debug, Clone, PartialEq)]
struct NestedBlocking {
    blocks: Vec<(Vec<RecordId>, Vec<RecordId>)>,
    settled: (u64, u64),
}

fn nested(b: &Blocking) -> NestedBlocking {
    NestedBlocking {
        blocks: b
            .blocks()
            .map(|blk| (blk.src.to_vec(), blk.tgt.to_vec()))
            .collect(),
        settled: b.settled(),
    }
}

/// Reference refinement over nested vectors: one fresh `(src, tgt)` pair
/// of vectors per sub-block, grouped by first-seen key (transformed
/// sources first, then raw targets), and no apply memo — every source
/// value goes through the function, so the pool sees every intern in
/// record order. Then it settles: inapplicable sources and the records of
/// every one-sided group only add to the settled counts.
fn oracle_refine(
    b: &NestedBlocking,
    attr: AttrId,
    func: &AttrFunction,
    source: &Table,
    target: &Table,
    pool: &mut ValuePool,
) -> NestedBlocking {
    let mut out = NestedBlocking {
        blocks: Vec::new(),
        settled: b.settled,
    };
    for (src, tgt) in &b.blocks {
        let mut index: HashMap<Sym, usize> = HashMap::new();
        let mut groups: Vec<(Vec<RecordId>, Vec<RecordId>)> = Vec::new();
        let mut slot = |key: Sym, groups: &mut Vec<(Vec<RecordId>, Vec<RecordId>)>| {
            *index.entry(key).or_insert_with(|| {
                groups.push((Vec::new(), Vec::new()));
                groups.len() - 1
            })
        };
        for &sid in src {
            match func.apply(source.value(sid, attr), pool) {
                Some(key) => {
                    let g = slot(key, &mut groups);
                    groups[g].0.push(sid);
                }
                None => out.settled.0 += 1,
            }
        }
        for &tid in tgt {
            let g = slot(target.value(tid, attr), &mut groups);
            groups[g].1.push(tid);
        }
        for (src, tgt) in groups {
            if src.is_empty() || tgt.is_empty() {
                out.settled.0 += src.len() as u64;
                out.settled.1 += tgt.len() as u64;
            } else {
                out.blocks.push((src, tgt));
            }
        }
    }
    out
}

fn pool_strings(pool: &ValuePool) -> Vec<String> {
    pool.iter().map(|(_, v)| v.to_owned()).collect()
}

/// `(ct, cs)` of a nested blocking: surplus plus settled targets, and
/// surplus plus settled sources.
fn nested_bound(b: &NestedBlocking) -> (u64, u64) {
    let surplus = |x: usize, y: usize| x.saturating_sub(y) as u64;
    let ct: u64 = b
        .blocks
        .iter()
        .map(|(s, t)| surplus(t.len(), s.len()))
        .sum();
    let cs: u64 = b
        .blocks
        .iter()
        .map(|(s, t)| surplus(s.len(), t.len()))
        .sum();
    (ct + b.settled.1, cs + b.settled.0)
}

/// The largest distinct-source-value count over the blocks of `blocks`.
fn max_distinct<'a>(
    blocks: impl Iterator<Item = &'a [RecordId]>,
    attr: AttrId,
    source: &Table,
) -> usize {
    blocks
        .map(|src| {
            src.iter()
                .map(|&sid| source.value(sid, attr))
                .collect::<BTreeSet<_>>()
                .len()
        })
        .max()
        .unwrap_or(0)
}

/// Exhaustive indeterminacy: the largest distinct-source-value count over
/// every block, reading every block.
fn exhaustive_indeterminacy(b: &Blocking, attr: AttrId, source: &Table) -> usize {
    max_distinct(b.blocks().map(|blk| blk.src), attr, source)
}

/// A mixed-block index as a walk finds it: the widest-first
/// `(sources, block)` of the blocks with two or more sources, and the
/// `(ct, cs)` surplus sums.
type WalkedIndex = (Vec<(u32, u32)>, (u64, u64));

/// The mixed-block index of `b`, rebuilt by walking every block.
fn walked_index(b: &Blocking) -> WalkedIndex {
    let (mut widest, mut surplus) = (Vec::new(), (0, 0));
    for (bi, blk) in b.blocks().enumerate() {
        surplus.0 += blk.target_surplus();
        surplus.1 += blk.source_surplus();
        if blk.src.len() >= 2 {
            widest.push((blk.src.len() as u32, bi as u32));
        }
    }
    widest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    (widest, surplus)
}

/// Check that every block of `b` is mixed, that its end offsets are the
/// running record counts, and its index and `(ct, cs)` against a walk.
fn check_index(b: &Blocking) -> Result<(), TestCaseError> {
    let mut running = (0, 0);
    for (blk, &end) in b.blocks().zip(b.ends()) {
        prop_assert!(blk.is_mixed(), "a one-sided block is stored");
        running = (
            running.0 + blk.src.len() as u32,
            running.1 + blk.tgt.len() as u32,
        );
        prop_assert_eq!(end, running);
    }
    let (widest, surplus) = walked_index(b);
    let index = b.mixed_index();
    prop_assert_eq!(index.widest(), &widest[..]);
    prop_assert_eq!(index.surplus(), surplus);
    let (settled_src, settled_tgt) = b.settled();
    prop_assert_eq!(
        (b.ct(), b.cs()),
        (surplus.0 + settled_tgt, surplus.1 + settled_src)
    );
    Ok(())
}

proptest! {
    /// Refining on attributes in different orders yields the same final
    /// partition (blocking is set-valued, order is an implementation detail).
    #[test]
    fn refinement_is_order_independent((src, tgt) in table_pair()) {
        let mut pool = ValuePool::new();
        let s = build(&src, &mut pool);
        let t = build(&tgt, &mut pool);
        let refine_all = |order: [u32; 3], pool: &mut ValuePool| {
            let mut b = Blocking::root(&s, &t);
            for a in order {
                let mut scratch = ApplyScratch::new();
                b = b.refine(AttrId(a), &AttrFunction::Identity, &mut scratch, &s, &t, pool);
            }
            b
        };
        let b1 = refine_all([0, 1, 2], &mut pool);
        let b2 = refine_all([2, 0, 1], &mut pool);
        prop_assert_eq!(shape(&b1), shape(&b2));
    }

    /// ct/cs from blocking are true lower bounds: under full identity
    /// refinement they equal the exact unmatched counts of the identity
    /// explanation, and coarser blockings never exceed them.
    #[test]
    fn bounds_are_monotone_under_refinement((src, tgt) in table_pair()) {
        let mut pool = ValuePool::new();
        let s = build(&src, &mut pool);
        let t = build(&tgt, &mut pool);
        let mut b = Blocking::root(&s, &t);
        let mut prev_ct = b.ct();
        let mut prev_cs = b.cs();
        for a in 0..3u32 {
            let mut scratch = ApplyScratch::new();
            b = b.refine(AttrId(a), &AttrFunction::Identity, &mut scratch, &s, &t, &mut pool);
            // Splitting blocks can only expose more surplus, never less.
            prop_assert!(b.ct() >= prev_ct, "ct shrank under refinement");
            prop_assert!(b.cs() >= prev_cs, "cs shrank under refinement");
            prev_ct = b.ct();
            prev_cs = b.cs();
        }
        // Fully refined: surplus = exact multiset difference of tuples.
        let count = |table: &Table| {
            let mut m = std::collections::HashMap::new();
            for (_, r) in table.iter() {
                *m.entry(r.to_vec()).or_insert(0i64) += 1;
            }
            m
        };
        let cs_map = count(&s);
        let ct_map = count(&t);
        let mut expect_ct = 0u64;
        for (k, &n) in &ct_map {
            let m = cs_map.get(k).copied().unwrap_or(0);
            expect_ct += (n - m).max(0) as u64;
        }
        let mut expect_cs = 0u64;
        for (k, &n) in &cs_map {
            let m = ct_map.get(k).copied().unwrap_or(0);
            expect_cs += (n - m).max(0) as u64;
        }
        prop_assert_eq!(b.ct(), expect_ct);
        prop_assert_eq!(b.cs(), expect_cs);
    }

    /// Random alignments pair each record at most once and only within a
    /// block, with exactly min(|src|, |tgt|) pairs per block.
    #[test]
    fn alignment_discipline((src, tgt) in table_pair(), seed in 0u64..1000) {
        let mut pool = ValuePool::new();
        let s = build(&src, &mut pool);
        let t = build(&tgt, &mut pool);
        let mut scratch = ApplyScratch::new();
        let b = Blocking::root(&s, &t)
            .refine(AttrId(0), &AttrFunction::Identity, &mut scratch, &s, &t, &mut pool);
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = sample_random_alignment(&b, &mut rng);
        let expected: usize = b.blocks().map(|blk| blk.src.len().min(blk.tgt.len())).sum();
        prop_assert_eq!(pairs.len(), expected);
        let mut seen_s = std::collections::HashSet::new();
        let mut seen_t = std::collections::HashSet::new();
        for (sid, tid) in pairs {
            prop_assert!(seen_s.insert(sid), "source paired twice");
            prop_assert!(seen_t.insert(tid), "target paired twice");
            // Same block ⇒ same attr-0 value.
            prop_assert_eq!(s.value(sid, AttrId(0)), t.value(tid, AttrId(0)));
        }
    }

    /// The flat count-then-scatter refinement equals the nested-`Vec`
    /// oracle exactly — blocks, record order within blocks, settled counts,
    /// `(ct, cs)`, indeterminacy and the pool's strings in interning order
    /// — over chains of total and partial functions starting from
    /// blockings built from empty, source-only and target-only blocks.
    /// Every stored block is mixed, and every record is in a block or
    /// settled.
    #[test]
    fn flat_refine_matches_nested_oracle(
        (src, tgt) in mixed_table_pair(),
        (src_slot, tgt_slot) in (
            prop::collection::vec(0u8..BLOCKS + 1, 25),
            prop::collection::vec(0u8..BLOCKS, 25),
        ),
        steps in prop::collection::vec((0u32..3, 0u8..5), 1..4),
    ) {
        let mut pool = ValuePool::new();
        let s = build_mixed(&src, &mut pool);
        let t = build_mixed(&tgt, &mut pool);
        let mut flat = start_blocking(&s, &t, &src_slot, &tgt_slot, BLOCKS);
        let mut oracle = nested(&flat);
        let mut oracle_pool = pool.clone();
        // One scratch across steps, as the search reuses a worker's memo.
        let mut scratch = ApplyScratch::new();
        for &(attr, f) in &steps {
            let (attr, func) = (AttrId(attr), function(f, &mut pool));
            let _ = function(f, &mut oracle_pool);
            flat = flat.refine(attr, &func, &mut scratch, &s, &t, &mut pool);
            oracle = oracle_refine(&oracle, attr, &func, &s, &t, &mut oracle_pool);
            prop_assert_eq!(nested(&flat), oracle.clone(), "{:?} on {:?}", func, attr);
            prop_assert_eq!(pool_strings(&pool), pool_strings(&oracle_pool));
            prop_assert_eq!((flat.ct(), flat.cs()), nested_bound(&oracle));
            for a in (0..3).map(AttrId) {
                let blocks = oracle.blocks.iter().map(|b| &b.0[..]);
                prop_assert_eq!(flat.indeterminacy(a, &s), max_distinct(blocks, a, &s));
            }
            prop_assert!(flat.blocks().all(|blk| blk.is_mixed()), "a one-sided block is stored");
            let live: usize = oracle.blocks.iter().map(|b| b.0.len()).sum();
            let targets: usize = oracle.blocks.iter().map(|b| b.1.len()).sum();
            prop_assert_eq!(flat.live_sources(), live);
            prop_assert_eq!(flat.total_targets(), targets);
            let (settled_src, settled_tgt) = flat.settled();
            prop_assert_eq!(flat.live_sources() + settled_src as usize, s.len());
            prop_assert_eq!(flat.total_targets() + settled_tgt as usize, t.len());
        }
    }

    /// The bound pass gives the `(ct, cs)` of the oracle's refinement and
    /// leaves the pool's strings, in interning order, exactly as `refine`
    /// does. Start blockings of mostly singleton and 1:1 blocks reach every
    /// tiny-block case: a matching and a mismatched pair and a pair whose
    /// source dies (a lone source or target settles when the start is
    /// built). The diagonal layout (source `i` and target `i` share block
    /// `i`) holds every case at once.
    #[test]
    fn refine_bound_matches_refine(
        (src, tgt) in mixed_table_pair(),
        (src_slot, tgt_slot) in (
            prop::collection::vec(0u8..TINY_BLOCKS + 1, 25),
            prop::collection::vec(0u8..TINY_BLOCKS, 25),
        ),
        steps in prop::collection::vec((0u32..3, 0u8..5), 1..4),
    ) {
        let mut base_pool = ValuePool::new();
        let s = build_mixed(&src, &mut base_pool);
        let t = build_mixed(&tgt, &mut base_pool);
        let diagonal: Vec<u8> = src_slot
            .iter()
            .zip(0u8..)
            .map(|(&slot, i)| if slot == TINY_BLOCKS { slot } else { i })
            .collect();
        let ascending: Vec<u8> = (0..25).collect();
        for start in [
            start_blocking(&s, &t, &src_slot, &tgt_slot, TINY_BLOCKS),
            start_blocking(&s, &t, &diagonal, &ascending, TINY_BLOCKS),
        ] {
            let (mut flat, mut pool) = (start, base_pool.clone());
            let mut scratch = ApplyScratch::new();
            for &(attr, f) in &steps {
                let (attr, func) = (AttrId(attr), function(f, &mut pool));
                // A scratch serves one pool, so the clone gets its own.
                let mut bound_pool = pool.clone();
                let bound = flat.refine_bound(
                    attr, &func, &mut ApplyScratch::new(), &s, &t, &mut bound_pool,
                );
                let oracle = oracle_refine(&nested(&flat), attr, &func, &s, &t, &mut pool.clone());
                prop_assert_eq!(bound, nested_bound(&oracle), "{:?} on {:?}", func, attr);
                flat = flat.refine(attr, &func, &mut scratch, &s, &t, &mut pool);
                prop_assert_eq!(nested(&flat), oracle);
                prop_assert_eq!(pool_strings(&bound_pool), pool_strings(&pool));
            }
        }
    }

    /// The pruned indeterminacy (skipping blocks too small to raise the
    /// maximum) equals an exhaustive count over every block.
    #[test]
    fn pruned_indeterminacy_equals_exhaustive_count(
        (src, tgt) in mixed_table_pair(),
        (src_slot, tgt_slot) in (
            prop::collection::vec(0u8..BLOCKS + 1, 25),
            prop::collection::vec(0u8..BLOCKS, 25),
        ),
        (refine_attr, f) in (0u32..3, 0u8..5),
    ) {
        let mut pool = ValuePool::new();
        let s = build_mixed(&src, &mut pool);
        let t = build_mixed(&tgt, &mut pool);
        let start = start_blocking(&s, &t, &src_slot, &tgt_slot, BLOCKS);
        let func = function(f, &mut pool);
        let refined =
            start.refine(AttrId(refine_attr), &func, &mut ApplyScratch::new(), &s, &t, &mut pool);
        for b in [&Blocking::root(&s, &t), &start, &refined] {
            for attr in (0..3).map(AttrId) {
                prop_assert_eq!(b.indeterminacy(attr, &s), exhaustive_indeterminacy(b, attr, &s));
            }
        }
    }

    /// The mixed-block index equals a walk over every block, for blockings
    /// built every way there is: the root, `from_blocks` over empty,
    /// source-only, target-only, 1:1 and wide blocks, and `refine`. A
    /// block pushed after a query is in the next answer (or settles): the
    /// index is never stale.
    #[test]
    fn mixed_index_matches_a_full_walk(
        (src, tgt) in mixed_table_pair(),
        (src_slot, tgt_slot) in (
            prop::collection::vec(0u8..BLOCKS + 1, 25),
            prop::collection::vec(0u8..BLOCKS, 25),
        ),
        tiny_slots in (
            prop::collection::vec(0u8..TINY_BLOCKS + 1, 25),
            prop::collection::vec(0u8..TINY_BLOCKS, 25),
        ),
        (refine_attr, f) in (0u32..3, 0u8..5),
        pushed in prop::collection::vec((0usize..4, 0usize..4), 1..4),
    ) {
        let mut pool = ValuePool::new();
        let s = build_mixed(&src, &mut pool);
        let t = build_mixed(&tgt, &mut pool);
        let func = function(f, &mut pool);
        let attr = AttrId(refine_attr);
        let mut blockings = vec![
            Blocking::root(&s, &t),
            start_blocking(&s, &t, &src_slot, &tgt_slot, BLOCKS),
            start_blocking(&s, &t, &tiny_slots.0, &tiny_slots.1, TINY_BLOCKS),
        ];
        for start in blockings.clone() {
            blockings.push(start.refine(attr, &func, &mut ApplyScratch::new(), &s, &t, &mut pool.clone()));
        }
        let (all_src, all_tgt): (Vec<_>, Vec<_>) = (s.record_ids().collect(), t.record_ids().collect());
        for mut b in blockings {
            check_index(&b)?;
            for &(ns, nt) in &pushed {
                let (ns, nt) = (ns.min(all_src.len()), nt.min(all_tgt.len()));
                b.push_block(Block { src: &all_src[..ns], tgt: &all_tgt[..nt] });
                check_index(&b)?;
                for a in (0..3).map(AttrId) {
                    prop_assert_eq!(b.indeterminacy(a, &s), exhaustive_indeterminacy(&b, a, &s));
                }
            }
        }
    }
}

/// Four threads query the index of one fresh blocking at the same
/// moment — the first-use race of the parallel attribute scan. All
/// four see the one index that was built, with equal answers.
#[test]
fn concurrent_first_queries_share_one_index() {
    let mut pool = ValuePool::new();
    let rows: Vec<[u8; 3]> = (0..200u32)
        .map(|i| [(i % 4) as u8, (i % 7 % 4) as u8, 0])
        .collect();
    let (s, t) = (build(&rows, &mut pool), build(&rows[50..], &mut pool));
    let base = Blocking::root(&s, &t).refine(
        AttrId(0),
        &AttrFunction::Identity,
        &mut ApplyScratch::new(),
        &s,
        &t,
        &mut pool,
    );
    for _ in 0..20 {
        // `base` is never queried, so each clone starts without an index.
        let fresh = Arc::new(base.clone());
        let barrier = Barrier::new(4);
        let answers: Vec<(usize, MixedIndex, (u64, u64), usize)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let index = fresh.mixed_index();
                        let at = index as *const MixedIndex as usize;
                        (
                            at,
                            index.clone(),
                            (fresh.ct(), fresh.cs()),
                            fresh.indeterminacy(AttrId(1), &s),
                        )
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for answer in &answers[1..] {
            assert_eq!(answer, &answers[0], "the four first queries disagree");
        }
        assert_eq!(
            answers[0].3,
            exhaustive_indeterminacy(&fresh, AttrId(1), &s)
        );
    }
}
