//! Memoized function application.
//!
//! During the search, the same attribute function is applied to the same
//! distinct value over and over (once per record, per blocking pass, per
//! cost evaluation). [`AppliedFunction`] caches `Sym → Option<Sym>` so each
//! distinct value is transformed exactly once per function.

use affidavit_table::{FxHashMap, Interner, Sym};

use crate::function::AttrFunction;

/// An attribute function bundled with its application memo.
#[derive(Debug, Clone)]
pub struct AppliedFunction {
    func: AttrFunction,
    memo: FxHashMap<Sym, Option<Sym>>,
}

impl AppliedFunction {
    /// Wrap a function with an empty memo.
    pub fn new(func: AttrFunction) -> AppliedFunction {
        AppliedFunction {
            func,
            memo: FxHashMap::default(),
        }
    }

    /// The underlying function.
    pub fn func(&self) -> &AttrFunction {
        &self.func
    }

    /// Apply with memoization.
    #[inline]
    pub fn apply<I: Interner>(&mut self, x: Sym, pool: &mut I) -> Option<Sym> {
        if let Some(&cached) = self.memo.get(&x) {
            return cached;
        }
        let result = self.func.apply(x, pool);
        self.memo.insert(x, result);
        result
    }

    /// Number of memoized inputs (for diagnostics/benches).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

impl From<AttrFunction> for AppliedFunction {
    fn from(func: AttrFunction) -> Self {
        AppliedFunction::new(func)
    }
}

/// A reusable, per-worker application memo.
///
/// Where [`AppliedFunction`] owns one memo per wrapped function,
/// `ApplyScratch` is owned by a search worker and reused across all the
/// blocking refinements that worker performs: `begin` resets it for the
/// next function without dropping the allocation. Keys are input `Sym`s —
/// every distinct value is transformed at most once per function, which is
/// what keeps Algorithm 1's refine-and-cost loop linear in distinct
/// values rather than records.
#[derive(Debug, Default)]
pub struct ApplyScratch {
    memo: FxHashMap<Sym, Option<Sym>>,
}

impl ApplyScratch {
    /// A fresh scratch (typically one per worker).
    pub fn new() -> ApplyScratch {
        ApplyScratch::default()
    }

    /// Reset for a new function, keeping the allocation.
    pub fn begin(&mut self) {
        self.memo.clear();
    }

    /// Apply `func` with memoization against this scratch. The caller is
    /// responsible for calling [`ApplyScratch::begin`] when switching
    /// functions.
    #[inline]
    pub fn apply<I: Interner>(&mut self, func: &AttrFunction, x: Sym, pool: &mut I) -> Option<Sym> {
        // Nothing to save on a function that only returns a symbol it
        // holds: it never interns, so skipping the memo changes no pool.
        if matches!(func, AttrFunction::Identity | AttrFunction::Constant(_)) {
            return func.apply(x, pool);
        }
        if let Some(&cached) = self.memo.get(&x) {
            return cached;
        }
        let result = func.apply(x, pool);
        self.memo.insert(x, result);
        result
    }

    /// Apply `func` to a whole column slice, memo keyed per column: the
    /// scratch is reset on entry, then every *distinct* symbol in `col` is
    /// transformed exactly once. `out` is overwritten with one result per
    /// row (`None` where the value is untransformable); the return value
    /// is the number of failing rows.
    ///
    /// This is the columnar fast path the table core exposes: the caller
    /// hands the contiguous per-attribute slice ([`Table::column`]) and
    /// gets the transformed column back in one tight loop.
    ///
    /// [`Table::column`]: affidavit_table::Table::column
    pub fn apply_column<I: Interner>(
        &mut self,
        func: &AttrFunction,
        col: &[Sym],
        pool: &mut I,
        out: &mut Vec<Option<Sym>>,
    ) -> usize {
        self.begin();
        out.clear();
        out.reserve(col.len());
        let mut failures = 0usize;
        for &x in col {
            let y = self.apply(func, x, pool);
            failures += y.is_none() as usize;
            out.push(y);
        }
        failures
    }

    /// Number of memoized inputs.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Rational, ValuePool};

    #[test]
    fn memoizes() {
        let mut pool = ValuePool::new();
        let x = pool.intern("80000");
        let mut f = AppliedFunction::new(AttrFunction::Scale(Rational::new(1, 1000).unwrap()));
        let a = f.apply(x, &mut pool);
        let b = f.apply(x, &mut pool);
        assert_eq!(a, b);
        assert_eq!(f.memo_len(), 1);
        assert_eq!(pool.get(a.unwrap()), "80");
    }

    #[test]
    fn apply_column_matches_per_value_application() {
        let mut pool = ValuePool::new();
        let col: Vec<Sym> = ["1000", "2000", "IBM", "1000"]
            .iter()
            .map(|s| pool.intern(s))
            .collect();
        let func = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
        let mut scratch = ApplyScratch::new();
        let mut out = Vec::new();
        let failures = scratch.apply_column(&func, &col, &mut pool, &mut out);
        assert_eq!(failures, 1);
        assert_eq!(out.len(), 4);
        assert_eq!(pool.get(out[0].unwrap()), "1");
        assert_eq!(out[2], None);
        assert_eq!(out[0], out[3]);
        // Memo keyed per column: 3 distinct inputs, one application each.
        assert_eq!(scratch.memo_len(), 3);
    }

    #[test]
    fn symbol_returning_functions_bypass_the_memo() {
        let mut pool = ValuePool::new();
        let (x, c) = (pool.intern("x"), pool.intern("c"));
        let mut scratch = ApplyScratch::new();
        assert_eq!(
            scratch.apply(&AttrFunction::Identity, x, &mut pool),
            Some(x)
        );
        assert_eq!(
            scratch.apply(&AttrFunction::Constant(c), x, &mut pool),
            Some(c)
        );
        assert_eq!(scratch.memo_len(), 0);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn memoizes_failures() {
        let mut pool = ValuePool::new();
        let x = pool.intern("IBM");
        let mut f = AppliedFunction::new(AttrFunction::Scale(Rational::new(1, 1000).unwrap()));
        assert_eq!(f.apply(x, &mut pool), None);
        assert_eq!(f.apply(x, &mut pool), None);
        assert_eq!(f.memo_len(), 1);
    }
}
