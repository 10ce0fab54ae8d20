//! Memoized function application.
//!
//! During the search, the same attribute function is applied to the same
//! distinct value over and over (once per record, per blocking pass, per
//! cost evaluation). [`ApplyScratch`] caches `Sym → Option<Sym>` so each
//! distinct value is transformed exactly once per function.

use affidavit_table::{FxHashMap, Interner, Sym};

use crate::function::AttrFunction;

/// A reusable application memo.
///
/// A search worker owns one and reuses it across all the blocking
/// refinements it performs: `begin` names the function the next pass
/// applies and resets the memo only when that function differs from the
/// one it holds images of, so a pass that re-applies the previous pass's
/// function (the full refine of a child its bound pass just costed) finds
/// every image memoized. A caller that applies a fixed list of functions
/// (one per attribute) keeps one scratch per function instead and never
/// calls `begin`. Keys are input `Sym`s — every distinct value is
/// transformed at most once per function, which is what keeps Algorithm
/// 1's refine-and-cost loop linear in distinct values rather than records.
///
/// A scratch serves one interner: its symbols mean nothing in another
/// pool, even a clone that has since interned other strings. (Interning
/// only appends, so images memoized in a pool stay valid as it grows.)
#[derive(Debug, Default)]
pub struct ApplyScratch {
    memo: FxHashMap<Sym, Option<Sym>>,
    /// The function `memo` holds images of, once `begin` named one.
    func: Option<AttrFunction>,
}

impl ApplyScratch {
    /// A fresh scratch (typically one per worker).
    pub fn new() -> ApplyScratch {
        ApplyScratch::default()
    }

    /// Get ready to apply `func`: keep the memo if it holds `func`'s
    /// images, else reset it, keeping the allocation. Debug builds check
    /// every kept image against a direct application.
    pub fn begin<I: Interner>(&mut self, func: &AttrFunction, pool: &mut I) {
        if self.func.as_ref() == Some(func) {
            if cfg!(debug_assertions) {
                for (&x, &image) in &self.memo {
                    assert_eq!(
                        func.apply(x, pool),
                        image,
                        "kept image of {func:?} on {x:?}"
                    );
                }
            }
            return;
        }
        self.memo.clear();
        self.func = Some(func.clone());
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

    /// Number of memoized inputs.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substring::{Segment, TokenProgram};
    use crate::value_map::ValueMap;
    use affidavit_table::{Rational, ValuePool};

    #[test]
    fn memoizes() {
        let mut pool = ValuePool::new();
        let x = pool.intern("80000");
        let f = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
        let mut memo = ApplyScratch::new();
        let a = memo.apply(&f, x, &mut pool);
        let b = memo.apply(&f, x, &mut pool);
        assert_eq!(a, b);
        assert_eq!(memo.memo_len(), 1);
        assert_eq!(pool.get(a.unwrap()), "80");
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
    fn begin_keeps_the_memo_only_for_the_same_function() {
        let mut pool = ValuePool::new();
        let x = pool.intern("80000");
        let tenth = AttrFunction::Scale(Rational::new(1, 10).unwrap());
        let mut memo = ApplyScratch::new();
        memo.begin(&tenth, &mut pool);
        memo.apply(&tenth, x, &mut pool);
        let len = pool.len();
        // The same function again (a refine after its bound pass): the
        // image is kept, and nothing is re-applied or interned.
        memo.begin(
            &AttrFunction::Scale(Rational::new(2, 20).unwrap()),
            &mut pool,
        );
        assert_eq!(memo.memo_len(), 1);
        assert_eq!(pool.len(), len);
        memo.begin(&AttrFunction::Uppercase, &mut pool);
        assert_eq!(memo.memo_len(), 0);
    }

    #[test]
    fn memoizes_failures() {
        let mut pool = ValuePool::new();
        let x = pool.intern("IBM");
        let f = AttrFunction::Scale(Rational::new(1, 1000).unwrap());
        let mut memo = ApplyScratch::new();
        assert_eq!(memo.apply(&f, x, &mut pool), None);
        assert_eq!(memo.apply(&f, x, &mut pool), None);
        assert_eq!(memo.memo_len(), 1);
    }

    #[test]
    fn per_function_memos_match_direct_application() {
        // The same column and functions, built in the same order in two pools.
        fn fixture() -> (ValuePool, Vec<Sym>, Vec<AttrFunction>) {
            let mut pool = ValuePool::new();
            let col: Vec<Sym> = [
                "1000",
                "Smith John",
                "1000",
                "IBM",
                "Smith John",
                "2500",
                "IBM",
            ]
            .iter()
            .map(|s| pool.intern(s))
            .collect();
            let ibm = pool.intern("IBM");
            let constant = pool.intern("n/a");
            let sep = pool.intern(", ");
            let map = ValueMap::from_pairs([(ibm, pool.intern("International Business Machines"))]);
            let program = TokenProgram::new(vec![
                Segment::Token {
                    idx: 1,
                    from_end: false,
                },
                Segment::Literal(sep),
                Segment::Token {
                    idx: 0,
                    from_end: false,
                },
            ])
            .unwrap();
            let funcs = vec![
                AttrFunction::Identity,
                AttrFunction::Constant(constant),
                AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
                AttrFunction::Map(map),
                AttrFunction::TokenProgram(program),
            ];
            (pool, col, funcs)
        }
        let (mut memo_pool, col, funcs) = fixture();
        let (mut direct_pool, _, _) = fixture();
        let fixture_len = memo_pool.len();
        // One scratch per function, never reset, rows applied across all
        // functions in turn — the per-attribute callers' access pattern.
        let mut memos: Vec<ApplyScratch> = funcs.iter().map(|_| ApplyScratch::new()).collect();
        for &x in &col {
            for (func, memo) in funcs.iter().zip(&mut memos) {
                let got = memo.apply(func, x, &mut memo_pool);
                assert_eq!(got, func.apply(x, &mut direct_pool), "{func:?} on {x:?}");
            }
        }
        let strings =
            |pool: &ValuePool| -> Vec<String> { pool.iter().map(|(_, s)| s.to_owned()).collect() };
        assert_eq!(strings(&memo_pool), strings(&direct_pool));
        assert!(memo_pool.len() > fixture_len, "no function interned");
        let memo_lens: Vec<usize> = memos.iter().map(ApplyScratch::memo_len).collect();
        assert_eq!(memo_lens, [0, 0, 4, 4, 4]);
    }
}
