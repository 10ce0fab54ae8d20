//! Explicit value mappings (Table 1, last row).
//!
//! A value mapping lists `n` input/output pairs and behaves like the
//! identity on unmapped values. Its description length is `ψ = 2·n`
//! (every pair contributes an input and an output parameter — see the cost
//! calculation of explanation E1 in §3.1 where a 13-entry map costs 26).

use affidavit_table::Sym;

/// An explicit, finite value mapping with identity fallback.
///
/// Entries are kept sorted by input symbol so that equal mappings compare
/// and hash equal regardless of construction order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueMap {
    entries: Box<[(Sym, Sym)]>,
}

impl ValueMap {
    /// Build from pairs. Later duplicates of the same input are dropped
    /// (first wins), and — because the unmapped fallback is identity —
    /// explicit `x ↦ x` entries are dropped too, which can only shorten the
    /// description (ψ of a map grows with its entries).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Sym, Sym)>) -> ValueMap {
        let mut v: Vec<(Sym, Sym)> = Vec::new();
        for (k, val) in pairs {
            if k != val {
                v.push((k, val));
            }
        }
        v.sort_by_key(|&(k, _)| k);
        v.dedup_by_key(|&mut (k, _)| k);
        ValueMap {
            entries: v.into_boxed_slice(),
        }
    }

    /// Build from pairs, *keeping* identity entries. Used to reproduce the
    /// paper's Figure 1 reference explanation, whose `f_ID2` counts the
    /// entry `0001 ↦ 0001`.
    pub fn from_pairs_keep_identity(pairs: impl IntoIterator<Item = (Sym, Sym)>) -> ValueMap {
        let mut v: Vec<(Sym, Sym)> = pairs.into_iter().collect();
        v.sort_by_key(|&(k, _)| k);
        v.dedup_by_key(|&mut (k, _)| k);
        ValueMap {
            entries: v.into_boxed_slice(),
        }
    }

    /// Apply the mapping; unmapped values pass through unchanged.
    #[inline]
    pub fn apply(&self, x: Sym) -> Sym {
        match self.entries.binary_search_by_key(&x, |&(k, _)| k) {
            Ok(i) => self.entries[i].1,
            Err(_) => x,
        }
    }

    /// Number of stored entries `n`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored (the map is the identity).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Description length `ψ = 2·n`.
    pub fn psi(&self) -> u64 {
        2 * self.entries.len() as u64
    }

    /// The stored entries, sorted by input symbol.
    pub fn entries(&self) -> &[(Sym, Sym)] {
        &self.entries
    }

    /// Rewrite every symbol through `remap` (scratch → shared pool). The
    /// entries are re-sorted, since remapping may reorder keys, and
    /// identity pairs are kept — a map built over scratch symbols never
    /// contains accidental identities in the first place.
    pub fn remap(&self, remap: &affidavit_table::SymRemap) -> ValueMap {
        ValueMap::from_pairs_keep_identity(
            self.entries
                .iter()
                .map(|&(k, v)| (remap.remap(k), remap.remap(v))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_with_fallback() {
        let m = ValueMap::from_pairs([(Sym(1), Sym(10)), (Sym(2), Sym(20))]);
        assert_eq!(m.apply(Sym(1)), Sym(10));
        assert_eq!(m.apply(Sym(2)), Sym(20));
        assert_eq!(m.apply(Sym(3)), Sym(3)); // identity fallback
    }

    #[test]
    fn identity_entries_dropped() {
        let m = ValueMap::from_pairs([(Sym(1), Sym(1)), (Sym(2), Sym(20))]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.psi(), 2);
        assert_eq!(m.apply(Sym(1)), Sym(1)); // still identity via fallback
    }

    #[test]
    fn keep_identity_variant() {
        let m = ValueMap::from_pairs_keep_identity([(Sym(1), Sym(1)), (Sym(2), Sym(20))]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.psi(), 4);
    }

    #[test]
    fn order_independent_equality() {
        let a = ValueMap::from_pairs([(Sym(2), Sym(20)), (Sym(1), Sym(10))]);
        let b = ValueMap::from_pairs([(Sym(1), Sym(10)), (Sym(2), Sym(20))]);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_inputs_first_wins() {
        let m = ValueMap::from_pairs([(Sym(1), Sym(10)), (Sym(1), Sym(99))]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.apply(Sym(1)), Sym(10));
    }
}
