//! Property-based tests for the blocking substrate: refinement order
//! independence, lower-bound correctness, alignment discipline, and a
//! differential battery pinning the flat refinement to a nested-`Vec`
//! reference oracle (block order, record order, dead sources and pool
//! strings, serial and parallel), plus the pruned indeterminacy against an
//! exhaustive count.

use std::collections::{BTreeSet, HashMap};

use affidavit::blocking::{sample_random_alignment, Block, Blocking};
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

/// The start blocking: source `i` goes to block `src_slot[i]` (or is dead
/// at slot [`BLOCKS`]), target `j` to block `tgt_slot[j]`. With ≤ 25
/// records over five slots this yields empty, source-only, target-only and
/// mixed blocks. Sources are listed in descending id order so record order
/// inside a block is not simply ascending.
fn start_blocking(s: &Table, t: &Table, src_slot: &[u8], tgt_slot: &[u8]) -> Blocking {
    let mut blocks = vec![(Vec::new(), Vec::new()); BLOCKS as usize];
    let mut dead = Vec::new();
    for sid in (0..s.len() as u32).rev().map(RecordId) {
        match src_slot[sid.index()] {
            BLOCKS => dead.push(sid),
            b => blocks[b as usize].0.push(sid),
        }
    }
    for tid in t.record_ids() {
        blocks[tgt_slot[tid.index()] as usize].1.push(tid);
    }
    Blocking::from_blocks(blocks.iter().map(|(src, tgt)| Block { src, tgt }), dead)
}

/// A blocking as nested vectors: per-block `(src, tgt)` plus dead sources.
#[derive(Debug, Clone, PartialEq)]
struct NestedBlocking {
    blocks: Vec<(Vec<RecordId>, Vec<RecordId>)>,
    dead_src: Vec<RecordId>,
}

fn nested(b: &Blocking) -> NestedBlocking {
    NestedBlocking {
        blocks: b
            .blocks()
            .map(|blk| (blk.src.to_vec(), blk.tgt.to_vec()))
            .collect(),
        dead_src: b.dead_src().to_vec(),
    }
}

/// Reference refinement over nested vectors: one fresh `(src, tgt)` pair
/// of vectors per sub-block, grouped by first-seen key (transformed
/// sources first, then raw targets), inapplicable sources appended to the
/// dead list in record order, and no apply memo — every source value goes
/// through the function, so the pool sees every intern in record order.
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
        dead_src: b.dead_src.clone(),
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
                None => out.dead_src.push(sid),
            }
        }
        for &tid in tgt {
            let g = slot(target.value(tid, attr), &mut groups);
            groups[g].1.push(tid);
        }
        out.blocks.extend(groups);
    }
    out
}

fn pool_strings(pool: &ValuePool) -> Vec<String> {
    pool.iter().map(|(_, v)| v.to_owned()).collect()
}

/// Exhaustive indeterminacy: the largest distinct-source-value count over
/// every mixed block, reading every block.
fn exhaustive_indeterminacy(b: &Blocking, attr: AttrId, source: &Table) -> usize {
    b.mixed_blocks()
        .map(|blk| {
            blk.src
                .iter()
                .map(|&sid| source.value(sid, attr))
                .collect::<BTreeSet<_>>()
                .len()
        })
        .max()
        .unwrap_or(0)
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

    /// Parallel refinement over blocks is byte-identical to the serial
    /// path — block order, record order, dead sources and pool contents —
    /// at every thread count, over random table pairs.
    #[test]
    fn parallel_refine_equals_serial((src, tgt) in table_pair()) {
        let mut pool = ValuePool::new();
        let s = build(&src, &mut pool);
        let t = build(&tgt, &mut pool);
        // Partition on attr 0 first so several blocks exist to fan out.
        let base = Blocking::root(&s, &t).refine(
            AttrId(0), &AttrFunction::Identity, &mut ApplyScratch::new(), &s, &t, &mut pool,
        );
        let mut serial_pool = pool.clone();
        let serial = base.refine(
            AttrId(1), &AttrFunction::Identity, &mut ApplyScratch::new(), &s, &t, &mut serial_pool,
        );
        for threads in [1usize, 2, 4, 8] {
            let mut par_pool = pool.clone();
            let handle = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let parallel = handle.install(|| {
                base.refine_parallel(AttrId(1), &AttrFunction::Identity, &s, &t, &mut par_pool)
            });
            prop_assert_eq!(nested(&serial), nested(&parallel), "threads {}", threads);
            prop_assert_eq!(
                pool_strings(&serial_pool),
                pool_strings(&par_pool),
                "pool diverged at {} threads",
                threads
            );
        }
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
        let expected: usize = b.mixed_blocks().map(|blk| blk.src.len().min(blk.tgt.len())).sum();
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
    /// oracle exactly — blocks, record order within blocks, dead sources
    /// and the pool's strings in interning order — over chains of total
    /// and partial functions starting from blockings with empty,
    /// source-only and target-only blocks; `refine_parallel` equals the
    /// serial result at 1/2/4/8 threads at every step.
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
        let mut flat = start_blocking(&s, &t, &src_slot, &tgt_slot);
        let mut oracle = nested(&flat);
        let mut oracle_pool = pool.clone();
        // One scratch across steps, as the search reuses a worker's memo.
        let mut scratch = ApplyScratch::new();
        for &(attr, f) in &steps {
            let (attr, func) = (AttrId(attr), function(f, &mut pool));
            let _ = function(f, &mut oracle_pool);
            let mut serial_pool = pool.clone();
            let serial = flat.refine(attr, &func, &mut scratch, &s, &t, &mut serial_pool);
            for threads in [1usize, 2, 4, 8] {
                let mut par_pool = pool.clone();
                let handle = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let parallel =
                    handle.install(|| flat.refine_parallel(attr, &func, &s, &t, &mut par_pool));
                prop_assert_eq!(&parallel, &serial, "threads {} {:?}", threads, func);
                prop_assert_eq!(pool_strings(&par_pool), pool_strings(&serial_pool));
            }
            (flat, pool) = (serial, serial_pool);
            oracle = oracle_refine(&oracle, attr, &func, &s, &t, &mut oracle_pool);
            prop_assert_eq!(nested(&flat), oracle.clone(), "{:?} on {:?}", func, attr);
            prop_assert_eq!(pool_strings(&pool), pool_strings(&oracle_pool));
            let live: usize = oracle.blocks.iter().map(|b| b.0.len()).sum();
            let targets: usize = oracle.blocks.iter().map(|b| b.1.len()).sum();
            prop_assert_eq!(flat.live_sources(), live);
            prop_assert_eq!(flat.total_targets(), targets);
            prop_assert_eq!(flat.live_sources() + flat.dead_src().len(), s.len());
        }
    }

    /// The pruned indeterminacy (skipping blocks too small to raise the
    /// maximum) equals an exhaustive count over every mixed block.
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
        let start = start_blocking(&s, &t, &src_slot, &tgt_slot);
        let func = function(f, &mut pool);
        let refined =
            start.refine(AttrId(refine_attr), &func, &mut ApplyScratch::new(), &s, &t, &mut pool);
        for b in [&Blocking::root(&s, &t), &start, &refined] {
            for attr in (0..3).map(AttrId) {
                prop_assert_eq!(b.indeterminacy(attr, &s), exhaustive_indeterminacy(b, attr, &s));
            }
        }
    }
}
