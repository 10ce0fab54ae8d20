//! Value interning.
//!
//! Every attribute value of a problem instance is interned once in a
//! [`ValuePool`] and referenced by a [`Sym`]. Blocking, histogram building
//! and function memoization then operate on `u32`s instead of strings, which
//! is what lets the search scale to the paper's 500 000-record instances.
//!
//! The pool keeps every distinct string in RAM once, back to back in one
//! `String` arena: symbol `k` is the slice between the end offsets of
//! symbols `k - 1` and `k`. Beside each symbol it stores the string's 64-bit
//! hash and its cached [`Decimal`] interpretation, and an open-addressed
//! table of `u32` slots, indexed by the hash's high bits, maps a string
//! back to its symbol. An [`intern`](ValuePool::intern) hashes once and
//! allocates nothing when the value is already present. A [`ScratchPool`]
//! overlay is the same arena over a frozen base pool; it probes the base
//! and then itself with one hash, and hands its arena, offsets, hashes and
//! decimals to [`ValuePool::absorb`] as one [`NewStrings`], so absorbing
//! neither re-hashes nor re-parses.

use std::hash::Hasher;

use crate::decimal::Decimal;
use crate::fx::FxHasher;

/// An interned value symbol. `Sym`s are only meaningful relative to the
/// [`ValuePool`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The hash every arena stores and probes with: Fx over the string's bytes.
#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// The symbols of one arena, in interning order: the strings back to back,
/// each one's end offset, hash and decimal interpretation.
#[derive(Debug, Clone, Default, PartialEq)]
struct Strings {
    text: String,
    ends: Vec<usize>,
    hashes: Vec<u64>,
    numeric: Vec<Option<Decimal>>,
}

impl Strings {
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn get(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.text[start..self.ends[k]]
    }

    fn push(&mut self, s: &str, hash: u64, numeric: Option<Decimal>) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
        self.hashes.push(hash);
        self.numeric.push(numeric);
    }
}

/// A free slot of a [`Arena`]'s slot table.
const EMPTY: u32 = u32::MAX;

/// [`Strings`] plus the open-addressed slot table that finds a string's
/// symbol: linear probing over a power-of-two table kept at most half
/// full, started at the hash's high bits (a multiply-shift index — the
/// Fx hash's low bits are poorly mixed).
#[derive(Debug, Clone, Default)]
struct Arena {
    strings: Strings,
    /// Local symbol numbers, or [`EMPTY`].
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the shift that turns a hash into a slot.
    shift: u32,
}

impl Arena {
    /// The local symbol holding `s`, whose hash is `hash`.
    #[inline]
    fn find(&self, hash: u64, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            let k = slot as usize;
            if self.strings.hashes[k] == hash && self.strings.get(k) == s {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Append `s` (known absent) as the next local symbol.
    fn insert(&mut self, s: &str, hash: u64, numeric: Option<Decimal>) -> u32 {
        let k = self.strings.len();
        let local = u32::try_from(k)
            .ok()
            .filter(|&k| k < EMPTY)
            .expect("a value pool holds fewer than 2^32 - 1 strings");
        self.strings.push(s, hash, numeric);
        if 2 * (k + 1) > self.slots.len() {
            self.grow();
        } else {
            self.place(hash, local);
        }
        local
    }

    #[inline]
    fn place(&mut self, hash: u64, local: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = local;
    }

    /// Double the slot table (16 at first) and re-place every symbol from
    /// its stored hash.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        self.shift = 64 - size.trailing_zeros();
        for k in 0..self.strings.len() {
            self.place(self.strings.hashes[k], k as u32);
        }
    }
}

/// A string interner with cached numeric interpretation per symbol.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    arena: Arena,
}

impl ValuePool {
    /// Create an empty pool.
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = hash_str(s);
        if let Some(k) = self.arena.find(hash, s) {
            return Sym(k);
        }
        Sym(self.arena.insert(s, hash, Decimal::parse(s)))
    }

    /// Look up a symbol without interning. Returns `None` for unseen values.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.arena.find(hash_str(s), s).map(Sym)
    }

    /// The string a symbol denotes.
    #[inline]
    pub fn get(&self, sym: Sym) -> &str {
        self.arena.strings.get(sym.index())
    }

    /// The cached exact-decimal interpretation of a symbol, if the value is
    /// numeric.
    #[inline]
    pub fn decimal(&self, sym: Sym) -> Option<Decimal> {
        self.arena.strings.numeric[sym.index()]
    }

    /// True if the symbol denotes the empty string.
    pub fn is_empty_value(&self, sym: Sym) -> bool {
        self.get(sym).is_empty()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.arena.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.len()).map(|k| (Sym(k as u32), self.arena.strings.get(k)))
    }

    /// A cheap read-only view of the pool. Workers hold readers (or
    /// [`ScratchPool`] overlays built on them) while the owning pool stays
    /// immutable — the freeze step of the parallel search engine.
    pub fn reader(&self) -> PoolReader<'_> {
        PoolReader { pool: self }
    }

    /// Merge a drained [`ScratchPool`]'s new strings into this pool (in
    /// order), returning the mapping from that worker's scratch symbols to
    /// real symbols. When several workers are absorbed in sequence the pool
    /// may already have grown past the length the scratch was frozen at;
    /// interning is idempotent, so strings discovered by several workers
    /// collapse onto one symbol. Each string is probed with the hash the
    /// overlay stored and keeps the overlay's decimal interpretation.
    pub fn absorb(&mut self, new: &NewStrings) -> SymRemap {
        let strings = &new.strings;
        let mapping = (0..strings.len())
            .map(|k| {
                let (s, hash) = (strings.get(k), strings.hashes[k]);
                Sym(match self.arena.find(hash, s) {
                    Some(sym) => sym,
                    None => self.arena.insert(s, hash, strings.numeric[k]),
                })
            })
            .collect();
        SymRemap {
            base_len: new.base_len,
            mapping,
        }
    }
}

/// Read/intern interface shared by [`ValuePool`] (the owning, append-only
/// interner) and [`ScratchPool`] (a per-worker overlay). Generic code in
/// the function-application and blocking layers takes `&mut impl Interner`,
/// so the search hot path can run over worker-local scratch without any
/// access to the shared pool's mutable state.
pub trait Interner {
    /// The string a symbol denotes.
    fn get(&self, sym: Sym) -> &str;

    /// Cached exact-decimal interpretation, if numeric.
    fn decimal(&self, sym: Sym) -> Option<Decimal>;

    /// Intern `s`, returning its symbol. Idempotent.
    fn intern(&mut self, s: &str) -> Sym;

    /// Look up a symbol without interning.
    fn lookup(&self, s: &str) -> Option<Sym>;

    /// True if the symbol denotes the empty string.
    fn is_empty_value(&self, sym: Sym) -> bool {
        self.get(sym).is_empty()
    }
}

impl Interner for ValuePool {
    #[inline]
    fn get(&self, sym: Sym) -> &str {
        ValuePool::get(self, sym)
    }

    #[inline]
    fn decimal(&self, sym: Sym) -> Option<Decimal> {
        ValuePool::decimal(self, sym)
    }

    #[inline]
    fn intern(&mut self, s: &str) -> Sym {
        ValuePool::intern(self, s)
    }

    #[inline]
    fn lookup(&self, s: &str) -> Option<Sym> {
        ValuePool::lookup(self, s)
    }
}

/// A read-only snapshot view of a [`ValuePool`].
///
/// Existing symbols resolve exactly as on the pool itself; there is no
/// interning. `PoolReader` is `Copy` and `Sync`, so any number of worker
/// threads can read the frozen pool concurrently.
#[derive(Debug, Clone, Copy)]
pub struct PoolReader<'a> {
    pool: &'a ValuePool,
}

impl<'a> PoolReader<'a> {
    /// The string a symbol denotes.
    #[inline]
    pub fn get(&self, sym: Sym) -> &'a str {
        self.pool.get(sym)
    }

    /// Cached exact-decimal interpretation, if numeric.
    #[inline]
    pub fn decimal(&self, sym: Sym) -> Option<Decimal> {
        self.pool.decimal(sym)
    }

    /// Look up a symbol without interning.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.pool.lookup(s)
    }

    /// Number of distinct values in the underlying pool.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if the underlying pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

/// A per-worker interning overlay over a frozen [`ValuePool`].
///
/// Reads of existing symbols hit the shared base pool; newly interned
/// strings (function outputs, induced masks/prefixes, a chunk's new
/// values) get *scratch symbols* numbered past the base pool's length,
/// visible only to this worker. After a parallel phase, the caller merges
/// each worker's [`NewStrings`] back with [`ValuePool::absorb`] and
/// rewrites escaping symbols through the returned [`SymRemap`] — in a
/// fixed order, so the shared pool's contents are identical at every
/// thread count.
#[derive(Debug)]
pub struct ScratchPool<'a> {
    base: PoolReader<'a>,
    base_len: usize,
    overlay: Arena,
}

impl<'a> ScratchPool<'a> {
    /// An empty overlay over `base`.
    pub fn new(base: PoolReader<'a>) -> ScratchPool<'a> {
        ScratchPool {
            base,
            base_len: base.len(),
            overlay: Arena::default(),
        }
    }

    /// Number of strings interned into the overlay (not the base).
    pub fn new_count(&self) -> usize {
        self.overlay.strings.len()
    }

    /// The pool length this overlay was frozen at — scratch symbols are
    /// numbered from here.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Drain the overlay's new strings (in interning order) for
    /// [`ValuePool::absorb`], leaving the overlay empty.
    pub fn take_new_strings(&mut self) -> NewStrings {
        NewStrings {
            base_len: self.base_len,
            strings: std::mem::take(&mut self.overlay).strings,
        }
    }

    #[inline]
    fn scratch_sym(&self, local: u32) -> Sym {
        Sym((self.base_len + local as usize) as u32)
    }
}

impl Interner for ScratchPool<'_> {
    #[inline]
    fn get(&self, sym: Sym) -> &str {
        let i = sym.index();
        if i < self.base_len {
            self.base.get(sym)
        } else {
            self.overlay.strings.get(i - self.base_len)
        }
    }

    #[inline]
    fn decimal(&self, sym: Sym) -> Option<Decimal> {
        let i = sym.index();
        if i < self.base_len {
            self.base.decimal(sym)
        } else {
            self.overlay.strings.numeric[i - self.base_len]
        }
    }

    fn intern(&mut self, s: &str) -> Sym {
        let hash = hash_str(s);
        if let Some(k) = self.base.pool.arena.find(hash, s) {
            return Sym(k);
        }
        let local = match self.overlay.find(hash, s) {
            Some(local) => local,
            None => self.overlay.insert(s, hash, Decimal::parse(s)),
        };
        self.scratch_sym(local)
    }

    fn lookup(&self, s: &str) -> Option<Sym> {
        let hash = hash_str(s);
        self.base.pool.arena.find(hash, s).map(Sym).or_else(|| {
            self.overlay
                .find(hash, s)
                .map(|local| self.scratch_sym(local))
        })
    }
}

/// The strings a [`ScratchPool`] interned, drained by
/// [`ScratchPool::take_new_strings`]: the overlay's arena, end offsets,
/// hashes and decimal interpretations, plus the pool length it was frozen
/// at — everything [`ValuePool::absorb`] needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NewStrings {
    base_len: usize,
    strings: Strings,
}

/// Mapping from one worker's scratch symbols to the shared pool's symbols,
/// produced by [`ValuePool::absorb`]. Base symbols pass through unchanged.
#[derive(Debug, Clone)]
pub struct SymRemap {
    base_len: usize,
    mapping: Vec<Sym>,
}

impl SymRemap {
    /// Rewrite one symbol.
    #[inline]
    pub fn remap(&self, sym: Sym) -> Sym {
        let i = sym.index();
        if i < self.base_len {
            sym
        } else {
            self.mapping[i - self.base_len]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut pool = ValuePool::new();
        let a = pool.intern("USD");
        let b = pool.intern("USD");
        let c = pool.intern("k $");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a), "USD");
        assert_eq!(pool.get(c), "k $");
    }

    #[test]
    fn numeric_cache() {
        let mut pool = ValuePool::new();
        let n = pool.intern("42.5");
        let s = pool.intern("IBM");
        assert_eq!(pool.decimal(n).unwrap().to_string(), "42.5");
        assert!(pool.decimal(s).is_none());
    }

    #[test]
    fn lookup_without_interning() {
        let mut pool = ValuePool::new();
        pool.intern("x");
        assert!(pool.lookup("x").is_some());
        assert!(pool.lookup("y").is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_value() {
        let mut pool = ValuePool::new();
        let e = pool.intern("");
        let a = pool.intern("a");
        assert!(pool.is_empty_value(e));
        assert!(!pool.is_empty_value(a));
    }

    #[test]
    fn iter_order_is_interning_order() {
        let mut pool = ValuePool::new();
        pool.intern("b");
        pool.intern("a");
        let got: Vec<&str> = pool.iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec!["b", "a"]);
    }

    #[test]
    fn scratch_overlays_and_absorbs() {
        let mut pool = ValuePool::new();
        let usd = pool.intern("USD");
        let mut scratch = ScratchPool::new(pool.reader());
        // Base strings resolve without new interning.
        assert_eq!(scratch.intern("USD"), usd);
        assert_eq!(scratch.new_count(), 0);
        // New strings get scratch symbols past the base length.
        let novel = scratch.intern("k $");
        assert_eq!(novel.index(), pool.len());
        assert_eq!(scratch.intern("k $"), novel);
        assert_eq!(Interner::get(&scratch, novel), "k $");
        assert_eq!(Interner::get(&scratch, usd), "USD");
        let base_len = scratch.base_len();
        let news = scratch.take_new_strings();
        assert_eq!(news.base_len, base_len);
        let remap = pool.absorb(&news);
        let real = remap.remap(novel);
        assert_eq!(pool.get(real), "k $");
        assert_eq!(remap.remap(usd), usd);
    }

    #[test]
    fn absorb_collapses_duplicate_workers() {
        let mut pool = ValuePool::new();
        pool.intern("x");
        // Two workers independently discover the same string.
        let (news_a, sym_a) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("shared");
            (s.take_new_strings(), sym)
        };
        let (news_b, sym_b) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("shared");
            (s.take_new_strings(), sym)
        };
        let ra = pool.absorb(&news_a);
        let rb = pool.absorb(&news_b);
        assert_eq!(ra.remap(sym_a), rb.remap(sym_b));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn absorb_remaps_a_scratch_frozen_before_the_pool_grew() {
        // The scratch diverges only past its base_len; the pool grew
        // differently in the meantime, so its new symbol must move.
        let mut pool = ValuePool::new();
        pool.intern("shared");
        let (news, novel) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("scratch-only");
            (s.take_new_strings(), sym)
        };
        assert_eq!(novel.index(), news.base_len);
        pool.intern("pool-only");
        let remap = pool.absorb(&news);
        assert_eq!(pool.get(remap.remap(novel)), "scratch-only");
        assert_ne!(remap.remap(novel), novel);
        assert_eq!(remap.remap(Sym(0)), Sym(0));
    }

    #[test]
    fn scratch_numeric_cache() {
        let pool = ValuePool::new();
        let mut scratch = ScratchPool::new(pool.reader());
        let n = scratch.intern("1.5");
        assert_eq!(Interner::decimal(&scratch, n).unwrap().to_string(), "1.5");
        let s = scratch.intern("IBM");
        assert!(Interner::decimal(&scratch, s).is_none());
    }

    /// The first two of `v0, v1, …` whose hashes pick the same first slot
    /// in a table of `slots` entries.
    fn colliding_pair(slots: usize) -> (String, String) {
        let shift = 64 - slots.trailing_zeros();
        let mut first_by_slot = std::collections::HashMap::new();
        for i in 0.. {
            let s = format!("v{i}");
            if let Some(prev) = first_by_slot.insert(hash_str(&s) >> shift, s.clone()) {
                return (prev, s);
            }
        }
        unreachable!()
    }

    #[test]
    fn strings_sharing_a_slot_probe_past_each_other() {
        let (a, b) = colliding_pair(16);
        let mut pool = ValuePool::new();
        let sa = pool.intern(&a);
        let sb = pool.intern(&b);
        assert_eq!(pool.arena.slots.len(), 16, "still the first table");
        assert_ne!(sa, sb);
        assert_eq!((pool.intern(&a), pool.intern(&b)), (sa, sb));
        assert_eq!((pool.lookup(&a), pool.lookup(&b)), (Some(sa), Some(sb)));
        assert_eq!((pool.get(sa), pool.get(sb)), (a.as_str(), b.as_str()));
        // The same collision inside an overlay.
        let base = ValuePool::new();
        let mut scratch = ScratchPool::new(base.reader());
        let (xa, xb) = (scratch.intern(&a), scratch.intern(&b));
        assert_ne!(xa, xb);
        assert_eq!(scratch.lookup(&b), Some(xb));
    }

    #[test]
    fn growth_across_resizes_keeps_every_symbol() {
        let mut pool = ValuePool::new();
        let values: Vec<String> = (0..5000).map(|i| format!("value-{i}")).collect();
        let syms: Vec<Sym> = values.iter().map(|v| pool.intern(v)).collect();
        assert!(pool.arena.slots.len() >= 8192, "grew through nine resizes");
        for (i, (v, &sym)) in values.iter().zip(&syms).enumerate() {
            assert_eq!(sym, Sym(i as u32), "first-appearance numbering");
            assert_eq!(pool.intern(v), sym);
            assert_eq!(pool.lookup(v), Some(sym));
            assert_eq!(pool.get(sym), v);
        }
        assert_eq!(pool.len(), values.len());
    }

    #[test]
    fn a_lookup_miss_interns_nothing() {
        let mut pool = ValuePool::new();
        assert_eq!(pool.lookup("absent"), None);
        pool.intern("present");
        assert_eq!(pool.lookup("absent"), None);
        assert_eq!(pool.len(), 1);
        let mut scratch = ScratchPool::new(pool.reader());
        assert_eq!(scratch.lookup("absent"), None);
        assert_eq!(scratch.new_count(), 0);
        scratch.intern("overlay");
        assert_eq!(scratch.lookup("absent"), None);
        assert_eq!(scratch.new_count(), 1);
        assert_eq!(scratch.take_new_strings().strings.text, "overlay");
    }

    #[test]
    fn the_empty_string_is_a_value_like_any_other() {
        let mut pool = ValuePool::new();
        assert_eq!(pool.lookup(""), None);
        let a = pool.intern("a");
        let e = pool.intern("");
        let b = pool.intern("b");
        assert_eq!((a, e, b), (Sym(0), Sym(1), Sym(2)));
        assert_eq!(pool.get(e), "");
        assert_eq!(pool.get(b), "b");
        assert_eq!(pool.intern(""), e);
        assert!(pool.decimal(e).is_none());
        let mut scratch = ScratchPool::new(pool.reader());
        assert_eq!(scratch.intern(""), e, "found in the base");
        let base = ValuePool::new();
        let mut scratch = ScratchPool::new(base.reader());
        let se = scratch.intern("");
        assert_eq!(Interner::get(&scratch, se), "");
        let news = scratch.take_new_strings();
        assert_eq!(news.strings.len(), 1);
        let mut pool = ValuePool::new();
        let remap = pool.absorb(&news);
        assert_eq!(pool.get(remap.remap(se)), "");
    }

    #[test]
    fn absorb_merges_overlays_frozen_at_different_lengths() {
        let mut pool = ValuePool::new();
        pool.intern("x");
        let (early, early_sym) = {
            let mut s = ScratchPool::new(pool.reader());
            s.intern("only-early");
            let sym = s.intern("found-by-both");
            (s.take_new_strings(), sym)
        };
        pool.intern("y");
        let (late, late_sym) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("found-by-both");
            s.intern("only-late");
            (s.take_new_strings(), sym)
        };
        assert_eq!((early.base_len, late.base_len), (1, 2));
        // Both overlays numbered the shared string `Sym(2)`, from
        // different bases.
        assert_eq!(early_sym, Sym(2));
        assert_eq!(late_sym, Sym(2));
        let re = pool.absorb(&early);
        let rl = pool.absorb(&late);
        assert_eq!(re.remap(early_sym), rl.remap(late_sym));
        assert_eq!(pool.get(rl.remap(late_sym)), "found-by-both");
        assert_eq!(rl.remap(Sym(1)), Sym(1), "a base symbol passes through");
        let got: Vec<&str> = pool.iter().map(|(_, s)| s).collect();
        assert_eq!(got, ["x", "y", "only-early", "found-by-both", "only-late"]);
    }

    #[test]
    fn absorb_keeps_the_overlays_decimal_cache() {
        let pool0 = ValuePool::new();
        let mut scratch = ScratchPool::new(pool0.reader());
        let n = scratch.intern("1.50");
        let t = scratch.intern("IBM");
        let mut news = scratch.take_new_strings();
        assert_eq!(news.strings.numeric[0], Decimal::parse("1.50"));
        // Absorb carries the cached interpretation over instead of parsing
        // again: a planted value comes through unchanged.
        news.strings.numeric[1] = Decimal::parse("7");
        let mut pool = ValuePool::new();
        let remap = pool.absorb(&news);
        assert_eq!(pool.decimal(remap.remap(n)), Decimal::parse("1.50"));
        assert_eq!(pool.decimal(remap.remap(t)), Decimal::parse("7"));
    }
}
