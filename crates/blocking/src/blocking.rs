//! Blocking results Φ^H (Definitions 4.3 and 4.4) with incremental
//! refinement.
//!
//! A blocking stores only *mixed* blocks, those with at least one source
//! and one target record. By the cost bound of §4.5 a block with one side
//! only adds its size to `ct` (targets) or to `cs` (sources) under every
//! later function, and so does a source the function cannot be applied
//! to. No refinement can change that, and no sample, alignment or
//! indeterminacy reads such records, so a refinement *settles* them into
//! two counts and never touches them again.
//!
//! The mixed blocks are stored flat: every block's source records sit
//! contiguously in one `src` array and its target records in one `tgt`
//! array, and `ends[i]` holds the exclusive end offsets of block `i` in
//! both, which are also the running record counts the samples draw
//! through. A blocking is three allocations however many blocks it has, so
//! refining it, and dropping a discarded child, costs a constant number of
//! allocations rather than two per block.
//!
//! The indeterminacy order and the `(ct, cs)` bound read one
//! [`MixedIndex`] instead of walking every block. It is built on the first
//! such query and at most once per blocking, so a child that is never
//! polled never pays for it.

use std::sync::OnceLock;

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, FxHashMap, FxHashSet, Interner, RecordId, Sym, Table};

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
    /// True if the block holds both source and target records, as every
    /// block a [`Blocking`] stores does.
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

/// What the indeterminacy order and the `(ct, cs)` bound need of a
/// [`Blocking`], from one walk over its blocks: the blocks with at least
/// two sources widest first, and the surplus sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixedIndex {
    /// `(sources, block index)` of every block with at least two sources,
    /// by sources descending, then block index ascending.
    widest: Vec<(u32, u32)>,
    /// Target surplus summed over the blocks.
    ct: u64,
    /// Source surplus summed over the blocks.
    cs: u64,
}

impl MixedIndex {
    fn build(blocking: &Blocking) -> MixedIndex {
        let mut index = MixedIndex::default();
        for (bi, block) in blocking.blocks().enumerate() {
            index.ct += block.target_surplus();
            index.cs += block.source_surplus();
            if block.src.len() >= 2 {
                // Within `u32`: `push_block` bounds each side's total.
                index.widest.push((block.src.len() as u32, bi as u32));
            }
        }
        index
            .widest
            .sort_unstable_by_key(|&(sources, bi)| (std::cmp::Reverse(sources), bi));
        index
    }

    /// `(sources, block index)` of the blocks with at least two sources,
    /// widest first, ties towards the lower block index.
    pub fn widest(&self) -> &[(u32, u32)] {
        &self.widest
    }

    /// The `(ct, cs)` surplus sums over the blocks, without the settled
    /// records.
    pub fn surplus(&self) -> (u64, u64) {
        (self.ct, self.cs)
    }
}

/// The lazily built [`MixedIndex`] of a blocking. It is derived data, so
/// it never takes part in equality, and every change to the blocks resets
/// it.
#[derive(Debug, Clone, Default)]
struct IndexCell(OnceLock<MixedIndex>);

impl PartialEq for IndexCell {
    fn eq(&self, _: &IndexCell) -> bool {
        true
    }
}

impl Eq for IndexCell {}

/// The blocking result Φ^H of a search state.
///
/// Blocks are kept in deterministic (parent-order, first-seen) order, and
/// every one is mixed. The records of the one-sided blocks of Φ^H, and the
/// sources on which some assigned function was inapplicable (partial
/// application returned `None`), can never align with anything under
/// this state; only their counts are kept, for the `(ct, cs)` bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blocking {
    /// Source records of all blocks, block after block.
    src: Vec<RecordId>,
    /// Target records of all blocks, block after block.
    tgt: Vec<RecordId>,
    /// Exclusive `(src, tgt)` end offsets of each block.
    ends: Vec<(u32, u32)>,
    /// Sources in no block: dead, or left without a target.
    settled_src: u64,
    /// Targets in no block: left without a source.
    settled_tgt: u64,
    /// The mixed-block index, built on first use.
    index: IndexCell,
}

/// Group id of a source record the function was inapplicable to, and the
/// write cursors of a group that settles.
const DEAD: u32 = u32::MAX;

/// Reusable buffers for splitting blocks, one per refine call. Every
/// buffer is left empty between blocks; the group map is emptied key by
/// key, because clearing a hash map costs its whole capacity, and one
/// large block would then tax every small one after it.
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

/// Where a split's sub-blocks go: into a refined [`Blocking`] (count,
/// decide, scatter) or only into the `(ct, cs)` bound it would have
/// (count, decide).
trait SplitOut {
    /// Whether the grouping pass keeps each record's group for a scatter.
    const SCATTER: bool;
    /// `ns` sources and `nt` targets that can no longer align.
    fn settle(&mut self, ns: usize, nt: usize);
    /// One mixed sub-block holding exactly these records, in this order.
    fn whole(&mut self, src: &[RecordId], tgt: &[RecordId]);
    /// The sub-blocks of `block` as the splitter grouped them: counts in
    /// `cursors`, and each record's group when [`SCATTER`](Self::SCATTER).
    fn grouped(&mut self, splitter: &mut Splitter, block: Block<'_>);
}

/// Write `id` at the cursor `at` and advance it, unless its group settled.
fn place(out: &mut [RecordId], at: &mut u32, id: RecordId) {
    if *at != DEAD {
        out[*at as usize] = id;
        *at += 1;
    }
}

impl SplitOut for Blocking {
    const SCATTER: bool = true;

    fn settle(&mut self, ns: usize, nt: usize) {
        self.settled_src += ns as u64;
        self.settled_tgt += nt as u64;
    }

    fn whole(&mut self, src: &[RecordId], tgt: &[RecordId]) {
        self.push_block(Block { src, tgt });
    }

    /// The scatter step: write each record of a mixed group to its slot.
    fn grouped(&mut self, splitter: &mut Splitter, block: Block<'_>) {
        // Mixed group sizes → start offsets in `self`, and the group's end;
        // a one-sided group settles, and its cursors become `DEAD`.
        let (mut s, mut t) = (self.src.len() as u32, self.tgt.len() as u32);
        for cursor in &mut splitter.cursors {
            let (ns, nt) = *cursor;
            if ns == 0 || nt == 0 {
                self.settle(ns as usize, nt as usize);
                *cursor = (DEAD, DEAD);
                continue;
            }
            *cursor = (s, t);
            s += ns;
            t += nt;
            self.ends.push((s, t));
        }
        self.src.resize(s as usize, RecordId(0));
        self.tgt.resize(t as usize, RecordId(0));
        for (&sid, &g) in block.src.iter().zip(&splitter.src_group) {
            if g != DEAD {
                place(&mut self.src, &mut splitter.cursors[g as usize].0, sid);
            }
        }
        for (&tid, &g) in block.tgt.iter().zip(&splitter.tgt_group) {
            place(&mut self.tgt, &mut splitter.cursors[g as usize].1, tid);
        }
        self.index.0.take();
    }
}

/// The `(ct, cs)` surplus sums of a refinement, accumulated without
/// building it.
struct Bound {
    ct: u64,
    cs: u64,
}

impl Bound {
    fn add(&mut self, ns: usize, nt: usize) {
        self.ct += nt.saturating_sub(ns) as u64;
        self.cs += ns.saturating_sub(nt) as u64;
    }
}

impl SplitOut for Bound {
    const SCATTER: bool = false;

    fn settle(&mut self, ns: usize, nt: usize) {
        self.ct += nt as u64;
        self.cs += ns as u64;
    }

    fn whole(&mut self, src: &[RecordId], tgt: &[RecordId]) {
        self.add(src.len(), tgt.len());
    }

    fn grouped(&mut self, splitter: &mut Splitter, _: Block<'_>) {
        for &(ns, nt) in &splitter.cursors {
            self.add(ns as usize, nt as usize);
        }
    }
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

    /// Split one mixed parent block by the transformed source value vs. the
    /// raw target value of `attr`. Mixed sub-blocks go to `out` in
    /// first-seen key order (sources before targets); one-sided sub-blocks
    /// and inapplicable sources settle. Every source value goes through
    /// `scratch.apply` exactly once, in record order, whatever the path,
    /// so the pool evolves identically.
    ///
    /// A 1:1 block is decided directly, without the group map. Other
    /// blocks are counted: a first pass assigns every record its group and
    /// counts group sizes; `out` then scatters the records (a
    /// [`Blocking`]) or only sums the surplus (a [`Bound`]).
    #[allow(clippy::too_many_arguments)]
    fn split<I: Interner, O: SplitOut>(
        &mut self,
        block: Block<'_>,
        src_col: &[Sym],
        tgt_col: &[Sym],
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        pool: &mut I,
        out: &mut O,
    ) {
        if let (&[sid], &[tid]) = (block.src, block.tgt) {
            match scratch.apply(func, src_col[sid.index()], pool) {
                Some(key) if key == tgt_col[tid.index()] => out.whole(block.src, block.tgt),
                // A dead source or a mismatch: neither record aligns.
                _ => out.settle(1, 1),
            }
            return;
        }
        let mut dead = 0;
        for &sid in block.src {
            let group = match scratch.apply(func, src_col[sid.index()], pool) {
                Some(key) => {
                    let g = self.group(key);
                    self.cursors[g as usize].0 += 1;
                    g
                }
                None => {
                    dead += 1;
                    DEAD
                }
            };
            if O::SCATTER {
                self.src_group.push(group);
            }
        }
        for &tid in block.tgt {
            let g = self.group(tgt_col[tid.index()]);
            self.cursors[g as usize].1 += 1;
            if O::SCATTER {
                self.tgt_group.push(g);
            }
        }
        out.settle(dead, 0);
        // One group and no dead source: the block survives whole.
        if self.keys.len() == 1 && dead == 0 {
            out.whole(block.src, block.tgt);
        } else {
            out.grouped(self, block);
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
    /// single block containing every record (settled if a side is empty).
    pub fn root(source: &Table, target: &Table) -> Blocking {
        let src: Vec<RecordId> = source.record_ids().collect();
        let tgt: Vec<RecordId> = target.record_ids().collect();
        Blocking::from_blocks([Block {
            src: &src,
            tgt: &tgt,
        }])
    }

    /// Build a blocking from explicit blocks, settling every one-sided or
    /// empty one.
    pub fn from_blocks<'a>(blocks: impl IntoIterator<Item = Block<'a>>) -> Blocking {
        let mut out = Blocking::default();
        for block in blocks {
            out.push_block(block);
        }
        out
    }

    /// Append one block after the existing ones, or settle its records if
    /// it has no source or no target. Every blocking starts as a root or
    /// from pushed blocks, and refinement never grows the arrays, so this
    /// check keeps every offset of every blocking within `u32`.
    pub fn push_block(&mut self, block: Block<'_>) {
        if block.src.is_empty() || block.tgt.is_empty() {
            return self.settle(block.src.len(), block.tgt.len());
        }
        self.src.extend_from_slice(block.src);
        self.tgt.extend_from_slice(block.tgt);
        let offset =
            |len: usize| u32::try_from(len).expect("a blocking holds < 2^32 records per side");
        self.ends
            .push((offset(self.src.len()), offset(self.tgt.len())));
        self.index.0.take();
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

    /// The exclusive `(src, tgt)` end offsets of each block: the running
    /// source and target counts of the blocks, block by block.
    pub fn ends(&self) -> &[(u32, u32)] {
        &self.ends
    }

    /// `(sources, targets)` settled out of the blocks: sources that died or
    /// were left without a target, and targets left without a source.
    pub fn settled(&self) -> (u64, u64) {
        (self.settled_src, self.settled_tgt)
    }

    /// Refine on a newly assigned attribute: every block splits by the
    /// *transformed* source value vs. the raw target value of `attr`.
    ///
    /// Function application is memoized in the caller's [`ApplyScratch`]
    /// (reset on entry unless it already holds `func`'s images, as after
    /// the [`refine_bound`](Blocking::refine_bound) pass that costed this
    /// child) and interns transformed values into `pool` — a
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
        let mut out = Blocking {
            src: Vec::with_capacity(self.src.len()),
            tgt: Vec::with_capacity(self.tgt.len()),
            ends: Vec::with_capacity(self.ends.len()),
            settled_src: self.settled_src,
            settled_tgt: self.settled_tgt,
            index: IndexCell::default(),
        };
        self.split_all(attr, func, scratch, source, target, pool, &mut out);
        out
    }

    /// The `(ct, cs)` of [`refine`](Blocking::refine)'s result, without
    /// building it: the same apply-and-group pass with no scatter step and
    /// no output arrays. It leaves `pool` exactly as `refine` would, so a
    /// caller can cost a candidate first and refine only if it keeps it.
    pub fn refine_bound<I: Interner>(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        source: &Table,
        target: &Table,
        pool: &mut I,
    ) -> (u64, u64) {
        let _span = affidavit_obs::span("blocking.bound");
        let mut bound = Bound {
            ct: self.settled_tgt,
            cs: self.settled_src,
        };
        self.split_all(attr, func, scratch, source, target, pool, &mut bound);
        (bound.ct, bound.cs)
    }

    /// Split every block in block order into `out`, against one splitter.
    #[allow(clippy::too_many_arguments)]
    fn split_all<I: Interner, O: SplitOut>(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        source: &Table,
        target: &Table,
        pool: &mut I,
        out: &mut O,
    ) {
        scratch.begin(func, pool);
        // One bounds-checked column fetch per table, then contiguous-slice
        // indexing inside the loop: the per-record apply/intern order is
        // unchanged, so pool evolution is byte-identical to the row walk.
        let (src_col, tgt_col) = (source.column(attr), target.column(attr));
        let mut splitter = Splitter::default();
        for block in self.blocks() {
            splitter.split(block, src_col, tgt_col, func, scratch, pool, out);
        }
    }

    /// The mixed-block index, built by the first caller (concurrent first
    /// callers wait for that one build).
    pub fn mixed_index(&self) -> &MixedIndex {
        self.index.0.get_or_init(|| MixedIndex::build(self))
    }

    /// Lower bound on inserted targets from this blocking alone:
    /// `ct(H) = Σ_{|φ_T| > |φ_S|} (|φ_T| − |φ_S|)` (§4.5), over the blocks
    /// and the settled targets.
    pub fn ct(&self) -> u64 {
        self.mixed_index().ct + self.settled_tgt
    }

    /// Lower bound on deleted sources:
    /// `cs(H) = Σ_{|φ_S| > |φ_T|} (|φ_S| − |φ_T|)` over the blocks, plus
    /// the settled sources.
    pub fn cs(&self) -> u64 {
        self.mixed_index().cs + self.settled_src
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
    /// blocks — an upper bound for how many source values compete as the
    /// origin of a target value. Any block gives at least 1; the index's
    /// blocks of two or more sources are read widest first, up to the
    /// first one with no more sources than the running maximum, which no
    /// later block can beat.
    pub fn indeterminacy(&self, attr: AttrId, source: &Table) -> usize {
        let col = source.column(attr);
        let mut distinct: FxHashSet<Sym> = FxHashSet::default();
        let mut max = usize::from(!self.is_empty());
        for &(sources, bi) in &self.mixed_index().widest {
            if sources as usize <= max {
                break;
            }
            distinct.clear();
            distinct.extend(
                self.block(bi as usize)
                    .src
                    .iter()
                    .map(|sid| col[sid.index()]),
            );
            max = max.max(distinct.len());
        }
        #[cfg(debug_assertions)]
        {
            let walked = self
                .blocks()
                .map(|b| {
                    b.src
                        .iter()
                        .map(|sid| col[sid.index()])
                        .collect::<FxHashSet<_>>()
                        .len()
                })
                .max()
                .unwrap_or(0);
            debug_assert_eq!(max, walked, "indeterminacy of {attr:?}");
        }
        max
    }

    /// Total number of source records in blocks (excludes settled ones).
    pub fn live_sources(&self) -> usize {
        self.src.len()
    }

    /// Total number of target records in blocks (excludes settled ones).
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

        assert_eq!(b.len(), 2);
        let sap = b.blocks().find(|blk| blk.src.len() == 3).unwrap();
        assert_eq!(sap.tgt.len(), 2);
        assert_eq!(b.cs(), 1);
        assert_eq!(b.ct(), 0);
    }

    #[test]
    fn dead_sources_settle_into_cs() {
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
        assert!(b.is_empty());
        assert_eq!(b.settled(), (4, 3)); // the targets lost every source
        assert_eq!((b.live_sources(), b.total_targets()), (0, 0));
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
        let (a, b, c, d) = (ids(0..2), ids(2..5), ids(0..1), ids(1..3));
        let blocks = [
            Block { src: &a, tgt: &c },
            Block { src: &[], tgt: &[] },
            Block { src: &b, tgt: &[] },
            Block { src: &[], tgt: &d },
            Block { src: &b, tgt: &d },
        ];
        let built = Blocking::from_blocks(blocks);
        assert_eq!(built.len(), 2);
        assert_eq!(built.blocks().collect::<Vec<_>>(), [blocks[0], blocks[4]]);
        assert_eq!(built.block(1), blocks[4]);
        assert_eq!(built.ends(), &[(2, 1), (5, 3)]);
        assert_eq!(built.settled(), (3, 2));
        assert_eq!((built.live_sources(), built.total_targets()), (5, 3));
        assert_eq!((built.ct(), built.cs()), (2, 5));
        let mut pushed = Blocking::default();
        blocks.iter().for_each(|&blk| pushed.push_block(blk));
        assert_eq!(pushed, built);
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

    /// Refine one block holding every record of a one-column pair with
    /// `func`. Checks that the bound pass gives the result's `(ct, cs)` and
    /// interns the same strings, then returns the result and the strings
    /// the refine interned.
    fn split_one(src: &[&str], tgt: &[&str], func: &AttrFunction) -> (Blocking, Vec<String>) {
        let mut pool = ValuePool::new();
        let rows = |vals: &[&str]| vals.iter().map(|v| vec![v.to_string()]).collect::<Vec<_>>();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, rows(src));
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, rows(tgt));
        let (sids, tids): (Vec<_>, Vec<_>) = (s.record_ids().collect(), t.record_ids().collect());
        let start = Blocking::from_blocks([Block {
            src: &sids,
            tgt: &tids,
        }]);
        let base = pool.len();
        // A scratch serves one pool, so each clone gets its own.
        let mut refined_pool = pool.clone();
        let refined = start.refine(
            AttrId(0),
            func,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut refined_pool,
        );
        let bound =
            start.refine_bound(AttrId(0), func, &mut ApplyScratch::new(), &s, &t, &mut pool);
        assert_eq!(bound, (refined.ct(), refined.cs()), "{src:?} / {tgt:?}");
        let new = |p: &ValuePool| p.iter().skip(base).map(|(_, v)| v.to_owned()).collect();
        let interned: Vec<String> = new(&refined_pool);
        assert_eq!(interned, new(&pool), "the bound pass must intern alike");
        (refined, interned)
    }

    fn ids(r: std::ops::Range<u32>) -> Vec<RecordId> {
        r.map(RecordId).collect()
    }

    fn scale() -> AttrFunction {
        AttrFunction::Scale(affidavit_table::Rational::new(1, 10).unwrap())
    }

    /// A refine on the scratch its bound pass just filled keeps that memo
    /// and gives the blocking and pool a refine on a fresh scratch gives.
    #[test]
    fn refine_after_its_bound_pass_reuses_the_memo() {
        let (s, t, mut pool) = tables();
        let func = AttrFunction::Scale(affidavit_table::Rational::new(1, 1000).unwrap());
        let start = Blocking::root(&s, &t);
        let mut fresh_pool = pool.clone();
        let fresh = start.refine(
            AttrId(1),
            &func,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut fresh_pool,
        );
        let mut scratch = ApplyScratch::new();
        let bound = start.refine_bound(AttrId(1), &func, &mut scratch, &s, &t, &mut pool);
        let memoized = scratch.memo_len();
        let refined = start.refine(AttrId(1), &func, &mut scratch, &s, &t, &mut pool);
        assert_eq!(scratch.memo_len(), memoized);
        assert_eq!(refined, fresh);
        assert_eq!(bound, (fresh.ct(), fresh.cs()));
        let strings = |p: &ValuePool| p.iter().map(|(_, v)| v.to_owned()).collect::<Vec<_>>();
        assert_eq!(strings(&pool), strings(&fresh_pool));
    }

    /// A one-sided block settles when it is built, so no later refine
    /// applies a function to its records.
    #[test]
    fn one_sided_blocks_settle_unapplied() {
        for (src, tgt, settled) in [
            (&[][..], &[][..], (0, 0)),
            (&["x"][..], &[][..], (1, 0)),
            (&["x", "y"][..], &[][..], (2, 0)),
            (&[][..], &["x"][..], (0, 1)),
        ] {
            for func in [AttrFunction::Uppercase, scale()] {
                let (b, interned) = split_one(src, tgt, &func);
                assert!(b.is_empty());
                assert_eq!(b.settled(), settled);
                assert_eq!((b.ct(), b.cs()), (settled.1, settled.0));
                assert!(interned.is_empty());
            }
        }
    }

    #[test]
    fn tiny_block_matching_pair_stays_whole() {
        let (b, interned) = split_one(&["x"], &["X"], &AttrFunction::Uppercase);
        let one = ids(0..1);
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [Block {
                src: &one,
                tgt: &one
            }]
        );
        assert_eq!((b.ct(), b.cs()), (0, 0));
        assert!(
            interned.is_empty(),
            "\"X\" was already interned by the target"
        );
    }

    #[test]
    fn tiny_block_mismatched_pair_settles() {
        let (b, interned) = split_one(&["x"], &["Y"], &AttrFunction::Uppercase);
        assert!(b.is_empty());
        assert_eq!(b.settled(), (1, 1));
        assert_eq!((b.ct(), b.cs()), (1, 1));
        assert_eq!(interned, ["X"]);
    }

    #[test]
    fn tiny_block_pair_with_dead_source_settles() {
        let (b, _) = split_one(&["x"], &["1"], &scale());
        assert!(b.is_empty());
        assert_eq!(b.settled(), (1, 1));
        assert_eq!((b.ct(), b.cs()), (1, 1));
    }

    /// A grouped split keeps its mixed groups in first-seen order and
    /// settles the one-sided groups and the dead sources.
    #[test]
    fn grouped_split_settles_one_sided_groups() {
        let (b, interned) = split_one(
            &["a", "b", "c", "a"],
            &["C", "A", "D"],
            &AttrFunction::Uppercase,
        );
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [
                Block {
                    src: &[RecordId(0), RecordId(3)],
                    tgt: &[RecordId(1)]
                },
                Block {
                    src: &[RecordId(2)],
                    tgt: &[RecordId(0)]
                }
            ]
        );
        assert_eq!(b.settled(), (1, 1));
        assert_eq!((b.ct(), b.cs()), (1, 2));
        assert_eq!(interned, ["B"]);
        let (b, _) = split_one(&["1", "x", "2"], &["0.1", "0.3"], &scale());
        assert_eq!(b.settled(), (2, 1));
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [Block {
                src: &[RecordId(0)],
                tgt: &[RecordId(0)]
            }]
        );
    }
}
