//! Blocking results Φ^H (Definitions 4.3 and 4.4) with incremental
//! refinement.
//!
//! A blocking is stored flat: every block's source records sit contiguously
//! in one `src` array and its target records in one `tgt` array, and
//! `ends[i]` holds the exclusive end offsets of block `i` in both. A
//! blocking is four allocations however many blocks it has, so refining
//! it, and dropping a discarded child, costs a constant number of
//! allocations rather than two per block.

use std::sync::Arc;

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{
    AttrId, FxHashMap, FxHashSet, Interner, RecordId, ScratchPool, Sym, Table, ValuePool,
};
use rayon::prelude::*;

/// One block φ(κ): the source and target records sharing a blocking index,
/// borrowed from its [`Blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block<'a> {
    /// Source records in the block (`φ_S(κ)`).
    pub src: &'a [RecordId],
    /// Target records in the block (`φ_T(κ)`).
    pub tgt: &'a [RecordId],
}

impl Block<'_> {
    /// True if the block holds both source and target records — only such
    /// blocks can contribute alignment examples.
    pub fn is_mixed(&self) -> bool {
        !self.src.is_empty() && !self.tgt.is_empty()
    }

    /// Target surplus `max(0, |φ_T| − |φ_S|)`.
    pub fn target_surplus(&self) -> u64 {
        (self.tgt.len() as u64).saturating_sub(self.src.len() as u64)
    }

    /// Source surplus `max(0, |φ_S| − |φ_T|)`.
    pub fn source_surplus(&self) -> u64 {
        (self.src.len() as u64).saturating_sub(self.tgt.len() as u64)
    }
}

/// The blocking result Φ^H of a search state.
///
/// Blocks are kept in deterministic (parent-order, first-seen) order.
/// `dead_src` holds source records on which some assigned function was
/// inapplicable (partial application returned `None`); they can never align
/// with any target under this state and count towards the `cs` lower bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blocking {
    /// Source records of all blocks, block after block.
    src: Vec<RecordId>,
    /// Target records of all blocks, block after block.
    tgt: Vec<RecordId>,
    /// Exclusive `(src, tgt)` end offsets of each block.
    ends: Vec<(u32, u32)>,
    /// Source records excluded by partial function application.
    dead_src: Vec<RecordId>,
}

/// Group id of a source record the function was inapplicable to.
const DEAD: u32 = u32::MAX;

/// Reusable buffers for splitting blocks, one per refine call (or per
/// worker chunk). Every buffer is left empty between blocks; the group map
/// is emptied key by key, because clearing a hash map costs its whole
/// capacity, and one large block would then tax every small one after it.
#[derive(Default)]
struct Splitter {
    /// Grouping key → group id within the current block.
    group_of: FxHashMap<Sym, u32>,
    /// Grouping keys in first-seen order (index = group id).
    keys: Vec<Sym>,
    /// Group id of each source record of the block ([`DEAD`] if dead).
    src_group: Vec<u32>,
    /// Group id of each target record of the block.
    tgt_group: Vec<u32>,
    /// Per group: `(src, tgt)` record counts, then write cursors.
    cursors: Vec<(u32, u32)>,
}

impl Splitter {
    fn group(&mut self, key: Sym) -> u32 {
        let next = self.keys.len() as u32;
        *self.group_of.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.cursors.push((0, 0));
            next
        })
    }

    /// Split one parent block by the transformed source value vs. the raw
    /// target value of `attr`, count-then-scatter: a first pass assigns
    /// every record its group (first-seen key order, sources before
    /// targets) and counts group sizes, a second pass writes each record to
    /// its group's slot of `out`. Sub-blocks are appended to `out` in group
    /// order and inapplicable sources to `out.dead_src`, in record order.
    #[allow(clippy::too_many_arguments)]
    fn split<I: Interner>(
        &mut self,
        block: Block<'_>,
        src_col: &[Sym],
        tgt_col: &[Sym],
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        pool: &mut I,
        out: &mut Blocking,
    ) {
        let dead_before = out.dead_src.len();
        for &sid in block.src {
            let group = match scratch.apply(func, src_col[sid.index()], pool) {
                Some(key) => {
                    let g = self.group(key);
                    self.cursors[g as usize].0 += 1;
                    g
                }
                None => {
                    out.dead_src.push(sid);
                    DEAD
                }
            };
            self.src_group.push(group);
        }
        for &tid in block.tgt {
            let g = self.group(tgt_col[tid.index()]);
            self.cursors[g as usize].1 += 1;
            self.tgt_group.push(g);
        }
        match self.keys.len() {
            0 => {}
            // One group and no dead source: the block survives whole.
            1 if out.dead_src.len() == dead_before => {
                out.src.extend_from_slice(block.src);
                out.tgt.extend_from_slice(block.tgt);
                out.push_end();
            }
            _ => {
                // Group sizes → start offsets in `out`.
                let (mut s, mut t) = (out.src.len() as u32, out.tgt.len() as u32);
                for cursor in &mut self.cursors {
                    let (ns, nt) = *cursor;
                    *cursor = (s, t);
                    s += ns;
                    t += nt;
                }
                out.src.resize(s as usize, RecordId(0));
                out.tgt.resize(t as usize, RecordId(0));
                for (&sid, &g) in block.src.iter().zip(&self.src_group) {
                    if g != DEAD {
                        let at = &mut self.cursors[g as usize].0;
                        out.src[*at as usize] = sid;
                        *at += 1;
                    }
                }
                for (&tid, &g) in block.tgt.iter().zip(&self.tgt_group) {
                    let at = &mut self.cursors[g as usize].1;
                    out.tgt[*at as usize] = tid;
                    *at += 1;
                }
                // Every cursor now sits at its group's end.
                out.ends.extend_from_slice(&self.cursors);
            }
        }
        for key in self.keys.drain(..) {
            self.group_of.remove(&key);
        }
        self.src_group.clear();
        self.tgt_group.clear();
        self.cursors.clear();
    }
}

impl Blocking {
    /// The root blocking of the empty assignment `H^∅ = (∗, …, ∗)`: a
    /// single block containing every record.
    pub fn root(source: &Table, target: &Table) -> Blocking {
        let mut root = Blocking {
            src: source.record_ids().collect(),
            tgt: target.record_ids().collect(),
            ends: Vec::with_capacity(1),
            dead_src: Vec::new(),
        };
        root.push_end();
        root
    }

    /// Build a blocking from explicit blocks and dead sources.
    pub fn from_blocks<'a>(
        blocks: impl IntoIterator<Item = Block<'a>>,
        dead_src: Vec<RecordId>,
    ) -> Blocking {
        let mut out = Blocking {
            dead_src,
            ..Blocking::default()
        };
        for block in blocks {
            out.push_block(block);
        }
        out
    }

    /// Append one block after the existing ones.
    pub fn push_block(&mut self, block: Block<'_>) {
        self.src.extend_from_slice(block.src);
        self.tgt.extend_from_slice(block.tgt);
        self.push_end();
    }

    /// Close the block formed by the records appended since the last one.
    /// Every blocking starts as a root or from pushed blocks, and
    /// refinement never grows the arrays, so this check keeps every offset
    /// of every blocking within `u32`.
    fn push_end(&mut self) {
        let offset =
            |len: usize| u32::try_from(len).expect("a blocking holds < 2^32 records per side");
        self.ends
            .push((offset(self.src.len()), offset(self.tgt.len())));
    }

    /// Block `i`, in block order.
    pub fn block(&self, i: usize) -> Block<'_> {
        let (s0, t0) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
        let (s1, t1) = self.ends[i];
        Block {
            src: &self.src[s0 as usize..s1 as usize],
            tgt: &self.tgt[t0 as usize..t1 as usize],
        }
    }

    /// Iterate over all blocks, in block order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> + '_ {
        let mut start = (0u32, 0u32);
        self.ends.iter().map(move |&end| {
            let block = Block {
                src: &self.src[start.0 as usize..end.0 as usize],
                tgt: &self.tgt[start.1 as usize..end.1 as usize],
            };
            start = end;
            block
        })
    }

    /// Source records excluded by partial function application, in the
    /// order refinement found them.
    pub fn dead_src(&self) -> &[RecordId] {
        &self.dead_src
    }

    /// An empty blocking with the dead sources of `self`, sized for a
    /// refinement of it.
    fn refined_shell(&self) -> Blocking {
        Blocking {
            src: Vec::with_capacity(self.src.len()),
            tgt: Vec::with_capacity(self.tgt.len()),
            ends: Vec::with_capacity(self.ends.len()),
            dead_src: self.dead_src.clone(),
        }
    }

    /// Append `chunk` after the blocks of `self`, rebasing its offsets.
    fn append(&mut self, chunk: Blocking) {
        let (s, t) = (self.src.len() as u32, self.tgt.len() as u32);
        self.ends
            .extend(chunk.ends.iter().map(|&(cs, ct)| (cs + s, ct + t)));
        self.src.extend_from_slice(&chunk.src);
        self.tgt.extend_from_slice(&chunk.tgt);
        self.dead_src.extend_from_slice(&chunk.dead_src);
    }

    /// Refine on a newly assigned attribute: every block splits by the
    /// *transformed* source value vs. the raw target value of `attr`.
    ///
    /// Function application is memoized in the caller's [`ApplyScratch`]
    /// (reset on entry) and interns transformed values into `pool` — a
    /// worker passes its `ScratchPool` overlay here, so refinement never
    /// touches shared mutable state.
    pub fn refine<I: Interner>(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        source: &Table,
        target: &Table,
        pool: &mut I,
    ) -> Blocking {
        let _span = affidavit_obs::span("blocking.refine");
        scratch.begin();
        let mut out = self.refined_shell();
        // One bounds-checked column fetch per table, then contiguous-slice
        // indexing inside the loop: the per-record apply/intern order is
        // unchanged, so pool evolution is byte-identical to the row walk.
        let (src_col, tgt_col) = (source.column(attr), target.column(attr));
        let mut splitter = Splitter::default();
        for block in self.blocks() {
            splitter.split(block, src_col, tgt_col, func, scratch, pool, &mut out);
        }
        out
    }

    /// [`refine`](Blocking::refine), fanned out over the input blocks —
    /// the per-block lever for the paper's 500k-record instances, where a
    /// single refinement touches every live record.
    ///
    /// Each worker splits one contiguous chunk of blocks against its own
    /// [`ScratchPool`] overlay of the frozen pool and its own
    /// [`ApplyScratch`] memo into a chunk-local blocking; the driver then
    /// concatenates the chunks in block order (rebasing their offsets) and
    /// absorbs each worker's newly interned strings in that same order, so
    /// the output blocking **and** the pool's contents are byte-identical
    /// to the serial path at every thread count (grouping keys never escape
    /// the workers — only the pool side effects need replaying).
    ///
    /// Callers gate on thread count and instance size; this method always
    /// fans out (degrading to the serial path only for trivial inputs).
    pub fn refine_parallel(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        source: &Table,
        target: &Table,
        pool: &mut ValuePool,
    ) -> Blocking {
        if self.len() <= 1 {
            // One block means one worker: the fan-out would only add
            // overhead on the already-hot path.
            return self.refine(attr, func, &mut ApplyScratch::new(), source, target, pool);
        }
        let _span = affidavit_obs::span("blocking.refine");
        struct ChunkSplit {
            blocking: Blocking,
            base_len: usize,
            new_strings: Vec<Arc<str>>,
        }
        // One contiguous chunk of blocks per worker (not one block per work
        // item): each chunk shares a single scratch overlay, apply memo and
        // splitter, preserving the serial path's cross-block memo hits
        // within a chunk.
        let threads = rayon::current_num_threads().max(1);
        let chunk_size = self.len().div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..self.len())
            .step_by(chunk_size)
            .map(|lo| (lo, (lo + chunk_size).min(self.len())))
            .collect();
        let (src_col, tgt_col) = (source.column(attr), target.column(attr));
        let splits: Vec<ChunkSplit> = {
            let reader = pool.reader();
            ranges
                .par_iter()
                .map(|&(lo, hi)| {
                    let mut ws = ScratchPool::new(reader);
                    let mut scratch = ApplyScratch::new();
                    let mut splitter = Splitter::default();
                    let mut blocking = Blocking::default();
                    for i in lo..hi {
                        splitter.split(
                            self.block(i),
                            src_col,
                            tgt_col,
                            func,
                            &mut scratch,
                            &mut ws,
                            &mut blocking,
                        );
                    }
                    ChunkSplit {
                        blocking,
                        base_len: ws.base_len(),
                        new_strings: ws.take_new_strings(),
                    }
                })
                .collect()
        };
        let mut out = self.refined_shell();
        for split in splits {
            // Replay the pool side effect in block order: the serial path
            // interns every transformed source value as it groups, and
            // later symbol assignment must not depend on which path ran.
            let _ = pool.absorb(split.base_len, &split.new_strings);
            out.append(split.blocking);
        }
        out
    }

    /// Lower bound on inserted targets from this blocking alone:
    /// `ct(H) = Σ_{|φ_T| > |φ_S|} (|φ_T| − |φ_S|)` (§4.5).
    pub fn ct(&self) -> u64 {
        self.blocks().map(|b| b.target_surplus()).sum()
    }

    /// Lower bound on deleted sources:
    /// `cs(H) = Σ_{|φ_S| > |φ_T|} (|φ_S| − |φ_T|)` plus the dead sources.
    pub fn cs(&self) -> u64 {
        let surplus: u64 = self.blocks().map(|b| b.source_surplus()).sum();
        surplus + self.dead_src.len() as u64
    }

    /// Iterate over the mixed blocks (both sides non-empty).
    pub fn mixed_blocks(&self) -> impl Iterator<Item = Block<'_>> + '_ {
        self.blocks().filter(Block::is_mixed)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Indeterminacy estimate of an attribute under this blocking (§4.3):
    /// the maximum number of distinct *source* values of `attr` over all
    /// mixed blocks — an upper bound for how many source values compete as
    /// the origin of a target value. A block with no more sources than the
    /// running maximum cannot raise it and is skipped unread.
    pub fn indeterminacy(&self, attr: AttrId, source: &Table) -> usize {
        let col = source.column(attr);
        let mut distinct: FxHashSet<Sym> = FxHashSet::default();
        let mut max = 0usize;
        for block in self.mixed_blocks() {
            if block.src.len() <= max {
                continue;
            }
            distinct.clear();
            distinct.extend(block.src.iter().map(|sid| col[sid.index()]));
            max = max.max(distinct.len());
        }
        max
    }

    /// Total number of source records still inside blocks (excludes dead).
    pub fn live_sources(&self) -> usize {
        self.src.len()
    }

    /// Total number of target records (always all of T).
    pub fn total_targets(&self) -> usize {
        self.tgt.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, ValuePool};

    fn tables() -> (Table, Table, ValuePool) {
        let mut pool = ValuePool::new();
        // Mirrors the spirit of Figure 3: Type / Val / Unit / Org.
        let s = Table::from_rows(
            Schema::new(["Type", "Val", "Unit", "Org"]),
            &mut pool,
            vec![
                vec!["C", "6540", "USD", "SAP"],
                vec!["C", "9800", "USD", "SAP"],
                vec!["C", "0", "USD", "SAP"],
                vec!["A", "80000", "USD", "IBM"],
            ],
        );
        let t = Table::from_rows(
            Schema::new(["Type", "Val", "Unit", "Org"]),
            &mut pool,
            vec![
                vec!["C", "9.8", "k $", "SAP"],
                vec!["C", "6.54", "k $", "SAP"],
                vec!["A", "80", "k $", "IBM"],
            ],
        );
        (s, t, pool)
    }

    #[test]
    fn root_has_single_block() {
        let (s, t, _) = tables();
        let b = Blocking::root(&s, &t);
        assert_eq!(b.len(), 1);
        assert_eq!(b.block(0).src.len(), 4);
        assert_eq!(b.block(0).tgt.len(), 3);
        assert_eq!(b.ct(), 0);
        assert_eq!(b.cs(), 1); // 4 sources, 3 targets in one block
    }

    #[test]
    fn figure3_style_refinement() {
        // Refine on Type (id), Unit (const 'k $'), Org (id) — the block of
        // index ('C', 'k $', 'SAP') must hold 3 sources and 2 targets.
        let (s, t, mut pool) = tables();
        let ksym = pool.intern("k $");
        let mut scratch = ApplyScratch::new();

        let b = Blocking::root(&s, &t)
            .refine(
                AttrId(0),
                &AttrFunction::Identity,
                &mut scratch,
                &s,
                &t,
                &mut pool,
            )
            .refine(
                AttrId(2),
                &AttrFunction::Constant(ksym),
                &mut scratch,
                &s,
                &t,
                &mut pool,
            )
            .refine(
                AttrId(3),
                &AttrFunction::Identity,
                &mut scratch,
                &s,
                &t,
                &mut pool,
            );

        let mixed: Vec<Block> = b.mixed_blocks().collect();
        assert_eq!(mixed.len(), 2);
        let sap = mixed.iter().find(|blk| blk.src.len() == 3).unwrap();
        assert_eq!(sap.tgt.len(), 2);
        assert_eq!(b.cs(), 1);
        assert_eq!(b.ct(), 0);
    }

    #[test]
    fn dead_sources_counted_in_cs() {
        let (s, t, mut pool) = tables();
        // Scaling applies to Val but not to Type — refine on Type with a
        // numeric function: every source dies.
        let f = AttrFunction::Scale(affidavit_table::Rational::new(1, 1000).unwrap());
        let b = Blocking::root(&s, &t).refine(
            AttrId(0),
            &f,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        assert_eq!(b.dead_src().len(), 4);
        assert_eq!(b.live_sources(), 0);
        assert_eq!(b.total_targets(), 3);
        assert_eq!(b.cs(), 4);
        assert_eq!(b.ct(), 3); // all targets now unmatched
    }

    #[test]
    fn indeterminacy_shrinks_with_refinement() {
        let (s, t, mut pool) = tables();
        let root = Blocking::root(&s, &t);
        let before = root.indeterminacy(AttrId(1), &s); // all 4 Val values
        assert_eq!(before, 4);
        let refined = root.refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        let after = refined.indeterminacy(AttrId(1), &s);
        assert_eq!(after, 3); // the C-block has 3 distinct Val values
    }

    #[test]
    fn views_and_builders_agree() {
        let ids = |r: std::ops::Range<u32>| r.map(RecordId).collect::<Vec<_>>();
        let (a, b, c) = (ids(0..2), ids(2..3), ids(0..1));
        let blocks = [
            Block { src: &a, tgt: &c },
            Block { src: &[], tgt: &[] },
            Block { src: &b, tgt: &[] },
        ];
        let built = Blocking::from_blocks(blocks, vec![RecordId(3)]);
        assert_eq!(built.len(), 3);
        assert_eq!(built.blocks().collect::<Vec<_>>(), blocks);
        assert_eq!(built.block(2), blocks[2]);
        assert_eq!(built.dead_src(), &[RecordId(3)]);
        assert_eq!((built.live_sources(), built.total_targets()), (3, 1));
        let mut pushed = Blocking::from_blocks([], vec![RecordId(3)]);
        blocks.iter().for_each(|&blk| pushed.push_block(blk));
        assert_eq!(pushed, built);
    }

    fn assert_parallel_matches_serial(base: &Blocking, s: &Table, t: &Table, pool: &ValuePool) {
        for func in [
            AttrFunction::Identity,
            AttrFunction::Scale(affidavit_table::Rational::new(1, 1000).unwrap()),
        ] {
            for attr in [0u32, 1] {
                let mut serial_pool = pool.clone();
                let serial = base.refine(
                    AttrId(attr),
                    &func,
                    &mut ApplyScratch::new(),
                    s,
                    t,
                    &mut serial_pool,
                );
                for threads in [1usize, 2, 4, 8] {
                    let mut par_pool = pool.clone();
                    let pool_handle = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let parallel = pool_handle
                        .install(|| base.refine_parallel(AttrId(attr), &func, s, t, &mut par_pool));
                    // Structural equality: block order, record order within
                    // blocks and dead-source order all included.
                    assert_eq!(
                        serial, parallel,
                        "attr {attr} func {func:?} threads {threads}"
                    );
                    // Pool side-effect parity: identical contents in
                    // identical order, so downstream symbol numbering can
                    // never depend on which refine path ran.
                    let serial_strings: Vec<&str> = serial_pool.iter().map(|(_, v)| v).collect();
                    let par_strings: Vec<&str> = par_pool.iter().map(|(_, v)| v).collect();
                    assert_eq!(serial_strings, par_strings, "pool diverged");
                }
            }
        }
    }

    #[test]
    fn parallel_refine_matches_serial_on_figure3_tables() {
        let (s, t, mut pool) = tables();
        let base = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        assert!(base.len() > 1, "fan-out path needs several blocks");
        assert_parallel_matches_serial(&base, &s, &t, &pool);
    }

    #[test]
    fn parallel_refine_handles_adversarial_block_shapes() {
        let (s, t, pool) = tables();
        // Empty blocks, source-only and target-only blocks interleaved
        // with a giant mixed block — shapes the search itself produces
        // only in corner cases.
        let all_src: Vec<RecordId> = s.record_ids().collect();
        let all_tgt: Vec<RecordId> = t.record_ids().collect();
        let empty = Block { src: &[], tgt: &[] };
        let adversarial = Blocking::from_blocks(
            [
                empty,
                Block {
                    src: &all_src,
                    tgt: &all_tgt,
                },
                empty,
                Block {
                    src: &all_src[..2],
                    tgt: &[],
                },
                Block {
                    src: &[],
                    tgt: &all_tgt[..1],
                },
            ],
            vec![RecordId(3)],
        );
        assert_parallel_matches_serial(&adversarial, &s, &t, &pool);
        // All-singleton blocks: every record alone.
        let singletons = Blocking::from_blocks(
            all_src
                .chunks(1)
                .map(|src| Block { src, tgt: &[] })
                .chain(all_tgt.chunks(1).map(|tgt| Block { src: &[], tgt })),
            Vec::new(),
        );
        assert_parallel_matches_serial(&singletons, &s, &t, &pool);
    }

    #[test]
    fn refinement_order_is_deterministic() {
        let (s, t, mut pool) = tables();
        let mut scratch = ApplyScratch::new();
        let b1 = Blocking::root(&s, &t).refine(
            AttrId(3),
            &AttrFunction::Identity,
            &mut scratch,
            &s,
            &t,
            &mut pool,
        );
        let b2 = Blocking::root(&s, &t).refine(
            AttrId(3),
            &AttrFunction::Identity,
            &mut scratch,
            &s,
            &t,
            &mut pool,
        );
        assert_eq!(b1, b2);
    }
}
