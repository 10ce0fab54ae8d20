//! Value interning.
//!
//! Every attribute value of a problem instance is interned once in a
//! [`ValuePool`] and referenced by a [`Sym`]. Blocking, histogram building
//! and function memoization then operate on `u32`s instead of strings, which
//! is what lets the search scale to the paper's 500 000-record instances.
//! The pool keeps every distinct string in RAM, once, as an `Arc<str>`
//! shared between its index and its symbol table.

use std::sync::Arc;

use crate::decimal::Decimal;
use crate::fx::FxHashMap;

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

/// A string interner with cached numeric interpretation per symbol.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    map: FxHashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
    numeric: Vec<Option<Decimal>>,
}

impl ValuePool {
    /// Create an empty pool.
    pub fn new() -> ValuePool {
        ValuePool::default()
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym = Sym(self.strings.len() as u32);
        self.strings.push(arc.clone());
        self.numeric.push(Decimal::parse(s));
        self.map.insert(arc, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` for unseen values.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// The string a symbol denotes.
    #[inline]
    pub fn get(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// The cached exact-decimal interpretation of a symbol, if the value is
    /// numeric.
    #[inline]
    pub fn decimal(&self, sym: Sym) -> Option<Decimal> {
        self.numeric[sym.index()]
    }

    /// True if the symbol denotes the empty string.
    pub fn is_empty_value(&self, sym: Sym) -> bool {
        self.get(sym).is_empty()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over all `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }

    /// A cheap read-only view of the pool. Workers hold readers (or
    /// [`ScratchPool`] overlays built on them) while the owning pool stays
    /// immutable — the freeze step of the parallel search engine.
    pub fn reader(&self) -> PoolReader<'_> {
        PoolReader { pool: self }
    }

    /// Merge the new strings of a drained [`ScratchPool`] into this pool
    /// (in order), returning the mapping from that worker's scratch
    /// symbols to real symbols. `scratch_base_len` is the pool length the
    /// scratch was frozen at ([`ScratchPool::base_len`]) — when several
    /// workers are absorbed in sequence the pool may already have grown
    /// past it. Interning is idempotent, so strings discovered by several
    /// workers collapse onto one symbol.
    pub fn absorb(&mut self, scratch_base_len: usize, new_strings: &[Arc<str>]) -> SymRemap {
        let mapping = new_strings.iter().map(|s| self.intern(s)).collect();
        SymRemap {
            base_len: scratch_base_len,
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
/// strings (function outputs, induced masks/prefixes) get *scratch
/// symbols* numbered past the base pool's length, visible only to this
/// worker. After a parallel phase, the driver merges each worker's new
/// strings back with [`ValuePool::absorb`] and rewrites escaping symbols
/// through the returned [`SymRemap`] — in a fixed order, so the shared
/// pool's contents are identical at every thread count.
#[derive(Debug)]
pub struct ScratchPool<'a> {
    base: PoolReader<'a>,
    base_len: usize,
    map: FxHashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
    numeric: Vec<Option<Decimal>>,
}

impl<'a> ScratchPool<'a> {
    /// An empty overlay over `base`.
    pub fn new(base: PoolReader<'a>) -> ScratchPool<'a> {
        ScratchPool {
            base,
            base_len: base.len(),
            map: FxHashMap::default(),
            strings: Vec::new(),
            numeric: Vec::new(),
        }
    }

    /// Number of strings interned into the overlay (not the base).
    pub fn new_count(&self) -> usize {
        self.strings.len()
    }

    /// The pool length this overlay was frozen at — scratch symbols are
    /// numbered from here.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Drain the overlay's new strings (in interning order) for
    /// [`ValuePool::absorb`], leaving the overlay empty.
    pub fn take_new_strings(&mut self) -> Vec<Arc<str>> {
        self.map.clear();
        self.numeric.clear();
        std::mem::take(&mut self.strings)
    }
}

impl Interner for ScratchPool<'_> {
    #[inline]
    fn get(&self, sym: Sym) -> &str {
        let i = sym.index();
        if i < self.base_len {
            self.base.get(sym)
        } else {
            &self.strings[i - self.base_len]
        }
    }

    #[inline]
    fn decimal(&self, sym: Sym) -> Option<Decimal> {
        let i = sym.index();
        if i < self.base_len {
            self.base.decimal(sym)
        } else {
            self.numeric[i - self.base_len]
        }
    }

    fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.base.lookup(s) {
            return sym;
        }
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym = Sym((self.base_len + self.strings.len()) as u32);
        self.strings.push(arc.clone());
        self.numeric.push(Decimal::parse(s));
        self.map.insert(arc, sym);
        sym
    }

    fn lookup(&self, s: &str) -> Option<Sym> {
        self.base.lookup(s).or_else(|| self.map.get(s).copied())
    }
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
        let remap = pool.absorb(base_len, &news);
        let real = remap.remap(novel);
        assert_eq!(pool.get(real), "k $");
        assert_eq!(remap.remap(usd), usd);
    }

    #[test]
    fn absorb_collapses_duplicate_workers() {
        let mut pool = ValuePool::new();
        pool.intern("x");
        // Two workers independently discover the same string.
        let (len_a, news_a, sym_a) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("shared");
            (s.base_len(), s.take_new_strings(), sym)
        };
        let (len_b, news_b, sym_b) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("shared");
            (s.base_len(), s.take_new_strings(), sym)
        };
        let ra = pool.absorb(len_a, &news_a);
        let rb = pool.absorb(len_b, &news_b);
        assert_eq!(ra.remap(sym_a), rb.remap(sym_b));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn absorb_remaps_a_scratch_frozen_before_the_pool_grew() {
        // The scratch diverges only past its base_len; the pool grew
        // differently in the meantime, so its new symbol must move.
        let mut pool = ValuePool::new();
        pool.intern("shared");
        let (base_len, news, novel) = {
            let mut s = ScratchPool::new(pool.reader());
            let sym = s.intern("scratch-only");
            (s.base_len(), s.take_new_strings(), sym)
        };
        assert_eq!(novel.index(), base_len);
        pool.intern("pool-only");
        let remap = pool.absorb(base_len, &news);
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
}
