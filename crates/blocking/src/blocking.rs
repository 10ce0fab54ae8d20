//! Blocking results Φ^H (Definitions 4.3 and 4.4) with incremental
//! refinement.
//!
//! A blocking is stored flat: every block's source records sit contiguously
//! in one `src` array and its target records in one `tgt` array, and
//! `ends[i]` holds the exclusive end offsets of block `i` in both. A
//! blocking is four allocations however many blocks it has, so refining
//! it, and dropping a discarded child, costs a constant number of
//! allocations rather than two per block.
//!
//! Every per-state query of the search (the indeterminacy order, the
//! induction and ranking samples, random alignments and the `(ct, cs)`
//! bound) reads one [`MixedIndex`] instead of walking every block. It is
//! built on the first such query and at most once per blocking, so a
//! child that is never polled never pays for it.

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

/// One mixed block in a [`MixedIndex`]: its block index and the running
/// source and target counts of the mixed blocks up to and including it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedBlock {
    /// Index of the block in block order.
    pub block: u32,
    /// Sources in this and every earlier mixed block.
    pub src_end: u32,
    /// Targets in this and every earlier mixed block.
    pub tgt_end: u32,
}

/// What the per-state queries need of a [`Blocking`], from one walk over
/// its blocks: the mixed blocks with running counts (for the samples and
/// alignments), the mixed blocks with at least two sources widest first
/// (for the indeterminacy), and the `(ct, cs)` surplus sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixedIndex {
    /// The mixed blocks in block order.
    mixed: Vec<MixedBlock>,
    /// `(sources, block index)` of every mixed block with at least two
    /// sources, by sources descending, then block index ascending.
    widest: Vec<(u32, u32)>,
    /// Target surplus summed over all blocks.
    ct: u64,
    /// Source surplus summed over all blocks (without the dead sources).
    cs: u64,
}

impl MixedIndex {
    fn build(blocking: &Blocking) -> MixedIndex {
        let mut index = MixedIndex::default();
        let (mut src_end, mut tgt_end) = (0u32, 0u32);
        for (bi, block) in blocking.blocks().enumerate() {
            index.ct += block.target_surplus();
            index.cs += block.source_surplus();
            if block.is_mixed() {
                // Within `u32`: `push_end` bounds each side's total.
                src_end += block.src.len() as u32;
                tgt_end += block.tgt.len() as u32;
                let block_id = bi as u32;
                index.mixed.push(MixedBlock {
                    block: block_id,
                    src_end,
                    tgt_end,
                });
                if block.src.len() >= 2 {
                    index.widest.push((block.src.len() as u32, block_id));
                }
            }
        }
        index
            .widest
            .sort_unstable_by_key(|&(sources, bi)| (std::cmp::Reverse(sources), bi));
        index
    }

    /// The mixed blocks in block order, with running record counts.
    pub fn mixed(&self) -> &[MixedBlock] {
        &self.mixed
    }

    /// `(sources, block index)` of the mixed blocks with at least two
    /// sources, widest first, ties towards the lower block index.
    pub fn widest(&self) -> &[(u32, u32)] {
        &self.widest
    }

    /// The `(ct, cs)` surplus sums over all blocks, without dead sources.
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
    /// The mixed-block index, built on first use.
    index: IndexCell,
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

/// Where a split's sub-blocks go: into a refined [`Blocking`] (count,
/// decide, scatter) or only into the `(ct, cs)` bound it would have
/// (count, decide).
trait SplitOut {
    /// Whether the grouping pass keeps each record's group for a scatter.
    const SCATTER: bool;
    /// A source record the function is inapplicable to.
    fn dead(&mut self, sid: RecordId);
    /// One sub-block holding exactly these records, in this order.
    fn whole(&mut self, src: &[RecordId], tgt: &[RecordId]);
    /// The sub-blocks of `block` as the splitter grouped them: counts in
    /// `cursors`, and each record's group when [`SCATTER`](Self::SCATTER).
    fn grouped(&mut self, splitter: &mut Splitter, block: Block<'_>);
}

impl SplitOut for Blocking {
    const SCATTER: bool = true;

    fn dead(&mut self, sid: RecordId) {
        self.dead_src.push(sid);
    }

    fn whole(&mut self, src: &[RecordId], tgt: &[RecordId]) {
        self.push_block(Block { src, tgt });
    }

    /// The scatter step: write each record to its group's slot.
    fn grouped(&mut self, splitter: &mut Splitter, block: Block<'_>) {
        // Group sizes → start offsets in `self`.
        let (mut s, mut t) = (self.src.len() as u32, self.tgt.len() as u32);
        for cursor in &mut splitter.cursors {
            let (ns, nt) = *cursor;
            *cursor = (s, t);
            s += ns;
            t += nt;
        }
        self.src.resize(s as usize, RecordId(0));
        self.tgt.resize(t as usize, RecordId(0));
        for (&sid, &g) in block.src.iter().zip(&splitter.src_group) {
            if g != DEAD {
                let at = &mut splitter.cursors[g as usize].0;
                self.src[*at as usize] = sid;
                *at += 1;
            }
        }
        for (&tid, &g) in block.tgt.iter().zip(&splitter.tgt_group) {
            let at = &mut splitter.cursors[g as usize].1;
            self.tgt[*at as usize] = tid;
            *at += 1;
        }
        // Every cursor now sits at its group's end.
        self.ends.extend_from_slice(&splitter.cursors);
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

    fn dead(&mut self, _: RecordId) {
        self.cs += 1;
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

    /// Split one parent block by the transformed source value vs. the raw
    /// target value of `attr`. Sub-blocks go to `out` in first-seen key
    /// order (sources before targets), inapplicable sources to its dead
    /// list in record order. Every source value goes through
    /// `scratch.apply` exactly once, in record order, whatever the path,
    /// so the pool evolves identically.
    ///
    /// A block with at most one record a side is decided directly, without
    /// the group map. Other blocks are counted: a first pass assigns every
    /// record its group and counts group sizes; `out` then scatters the
    /// records (a [`Blocking`]) or only sums the surplus (a [`Bound`]).
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
        match (block.src, block.tgt) {
            ([], []) => return,
            ([], [_]) => return out.whole(&[], block.tgt),
            (&[sid], tgt) if tgt.len() <= 1 => {
                match scratch.apply(func, src_col[sid.index()], pool) {
                    None => {
                        out.dead(sid);
                        if !tgt.is_empty() {
                            out.whole(&[], tgt);
                        }
                    }
                    Some(key) if tgt.first().is_some_and(|t| tgt_col[t.index()] != key) => {
                        out.whole(block.src, &[]);
                        out.whole(&[], tgt);
                    }
                    Some(_) => out.whole(block.src, tgt),
                }
                return;
            }
            _ => {}
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
                    out.dead(sid);
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
        match self.keys.len() {
            0 => {}
            // One group and no dead source: the block survives whole.
            1 if dead == 0 => out.whole(block.src, block.tgt),
            _ => out.grouped(self, block),
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
            index: IndexCell::default(),
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
            index: IndexCell::default(),
        }
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
        let mut out = self.refined_shell();
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
            ct: 0,
            cs: self.dead_src.len() as u64,
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
        scratch.begin();
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
    /// `ct(H) = Σ_{|φ_T| > |φ_S|} (|φ_T| − |φ_S|)` (§4.5).
    pub fn ct(&self) -> u64 {
        let ct = self.mixed_index().ct;
        debug_assert_eq!(ct, self.blocks().map(|b| b.target_surplus()).sum());
        ct
    }

    /// Lower bound on deleted sources:
    /// `cs(H) = Σ_{|φ_S| > |φ_T|} (|φ_S| − |φ_T|)` plus the dead sources.
    pub fn cs(&self) -> u64 {
        let surplus = self.mixed_index().cs;
        debug_assert_eq!(surplus, self.blocks().map(|b| b.source_surplus()).sum());
        surplus + self.dead_src.len() as u64
    }

    /// Iterate over the mixed blocks (both sides non-empty), in block
    /// order, from the index.
    pub fn mixed_blocks(&self) -> impl Iterator<Item = Block<'_>> + '_ {
        let mixed = self.mixed_index().mixed();
        mixed.iter().map(|m| self.block(m.block as usize))
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
    /// the origin of a target value. Any mixed block gives at least 1; the
    /// index's blocks of two or more sources are read widest first, up to
    /// the first one with no more sources than the running maximum, which
    /// no later block can beat.
    pub fn indeterminacy(&self, attr: AttrId, source: &Table) -> usize {
        let index = self.mixed_index();
        let col = source.column(attr);
        let mut distinct: FxHashSet<Sym> = FxHashSet::default();
        let mut max = usize::from(!index.mixed.is_empty());
        for &(sources, bi) in &index.widest {
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
                .filter(Block::is_mixed)
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
        let start = Blocking::from_blocks(
            [Block {
                src: &sids,
                tgt: &tids,
            }],
            Vec::new(),
        );
        let base = pool.len();
        let mut scratch = ApplyScratch::new();
        let mut refined_pool = pool.clone();
        let refined = start.refine(AttrId(0), func, &mut scratch, &s, &t, &mut refined_pool);
        let bound = start.refine_bound(AttrId(0), func, &mut scratch, &s, &t, &mut pool);
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

    #[test]
    fn tiny_block_empty_is_dropped() {
        let (b, interned) = split_one(&[], &[], &AttrFunction::Uppercase);
        assert!(b.is_empty());
        assert!(b.dead_src().is_empty());
        assert!(interned.is_empty());
    }

    #[test]
    fn tiny_block_lone_live_source_is_kept() {
        let (b, interned) = split_one(&["x"], &[], &AttrFunction::Uppercase);
        let one = ids(0..1);
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [Block {
                src: &one,
                tgt: &[]
            }]
        );
        assert!(b.dead_src().is_empty());
        assert_eq!(interned, ["X"], "the lone source is applied once");
    }

    #[test]
    fn tiny_block_lone_dead_source_dies() {
        let (b, interned) = split_one(&["x"], &[], &scale());
        assert!(b.is_empty());
        assert_eq!(b.dead_src(), &[RecordId(0)]);
        assert_eq!((b.ct(), b.cs()), (0, 1));
        assert!(interned.is_empty());
    }

    #[test]
    fn tiny_block_lone_target_is_copied() {
        let (b, _) = split_one(&[], &["x"], &AttrFunction::Uppercase);
        let one = ids(0..1);
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [Block {
                src: &[],
                tgt: &one
            }]
        );
        assert_eq!((b.ct(), b.cs()), (1, 0));
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
    fn tiny_block_mismatched_pair_splits_source_first() {
        let (b, interned) = split_one(&["x"], &["Y"], &AttrFunction::Uppercase);
        let one = ids(0..1);
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [
                Block {
                    src: &one,
                    tgt: &[]
                },
                Block {
                    src: &[],
                    tgt: &one
                }
            ]
        );
        assert_eq!((b.ct(), b.cs()), (1, 1));
        assert_eq!(interned, ["X"]);
    }

    #[test]
    fn tiny_block_pair_with_dead_source_keeps_its_target() {
        let (b, _) = split_one(&["x"], &["1"], &scale());
        let one = ids(0..1);
        assert_eq!(
            b.blocks().collect::<Vec<_>>(),
            [Block {
                src: &[],
                tgt: &one
            }]
        );
        assert_eq!(b.dead_src(), &[RecordId(0)]);
        assert_eq!((b.ct(), b.cs()), (1, 1));
    }
}
