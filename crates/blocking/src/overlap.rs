//! Overlap-score a-priori matching — the `Hs` initialization strategy
//! (§4.2).
//!
//! Each attribute is independently assumed unchanged; records that share a
//! value on some attribute score +1 per shared attribute. For every source
//! record, the highest-scoring target record forms an a-priori alignment
//! pair. Attributes are then ranked by how often their values agree on
//! those pairs, and the `k'` most frequently agreeing ones (where `k'` is
//! the mode of the pair overlap scores) are assigned `id` in the start
//! state.
//!
//! A value is skipped entirely when it would pair more than
//! `max_pairs_per_value` records (source count × target count) — precisely
//! the behaviour that makes `Hs` collapse on low-distinctness tables like
//! *chess* or *nursery* in Table 2 (every informative value is too
//! frequent, leaving only the misleading artificial primary key).
//!
//! **The kernel: one budgeted value index, one dense pass.**
//! [`OverlapIndex::build`] counting-sorts each attribute's target records
//! by value, so every distinct target value owns one contiguous run of
//! ascending target ids, and gives each source cell the run of its value,
//! or an empty run when the value has no target record or is over the
//! budget. It hashes each cell once, never a pair.
//! [`OverlapIndex::score_sources`] then walks the source records in id
//! order: each adds 1 per target id of its runs into one dense `u32` score
//! array of length |T|, noting the slots it touches, hands those to the
//! caller, and zeroes only them. Scoring therefore costs O(accepted pairs)
//! array increments with no hash per pair, in O(cells + |T|) memory: one
//! target id per target cell, one run per source cell and the score array.
//! The similarity-linker baseline walks the same index, so the budget rule
//! lives here only.
//!
//! Only order-independent counts (the `k'` mode and the per-attribute
//! agreement) are taken over the pairs, so the chosen attributes do not
//! depend on the order the pairs are formed in.

use affidavit_table::{AttrId, FxHashMap, RecordId, Sym, Table};

/// Configuration of the overlap matcher.
#[derive(Debug, Clone, Copy)]
pub struct OverlapConfig {
    /// Skip values whose source×target pair count exceeds this bound
    /// (paper default: 100 000).
    pub max_pairs_per_value: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            max_pairs_per_value: 100_000,
        }
    }
}

/// The budgeted value index of a table pair: for every source cell, the
/// target records that carry the same value on the same attribute, or none
/// when that value would pair more than the budget.
#[derive(Debug, Clone)]
pub struct OverlapIndex {
    arity: usize,
    target_len: usize,
    /// Target record ids grouped by attribute, then by value: attribute
    /// `a` owns `tgt_ids[a * target_len..(a + 1) * target_len]`, and each
    /// of its distinct values one contiguous, ascending run in there.
    tgt_ids: Vec<RecordId>,
    /// Per source cell, row-major (`sid * arity + a`): the `[start, end)`
    /// run of its value within attribute `a`'s segment of `tgt_ids`;
    /// empty when the value is absent from the target or over budget.
    runs: Vec<(u32, u32)>,
}

impl OverlapIndex {
    /// Index `source` against `target` attribute by attribute (both tables
    /// have the source's arity), keeping a value only when its
    /// `source count × target count` is at most `max_pairs_per_value`.
    pub fn build(source: &Table, target: &Table, max_pairs_per_value: usize) -> OverlapIndex {
        const ABSENT: u32 = u32::MAX;
        let arity = source.schema().arity();
        let (source_len, target_len) = (source.len(), target.len());
        let mut tgt_ids = vec![RecordId(0); arity * target_len];
        let mut runs = vec![(0u32, 0u32); arity * source_len];
        // Per attribute: value → dense group id, the group of every target
        // and source record, and per group its target count, source count
        // and scatter cursor.
        let mut group_of: FxHashMap<Sym, u32> = FxHashMap::default();
        let mut tgt_group: Vec<u32> = Vec::with_capacity(target_len);
        let mut src_group: Vec<u32> = Vec::with_capacity(source_len);
        let mut tgt_count: Vec<u32> = Vec::new();
        let mut src_count: Vec<u32> = Vec::new();
        let mut cursor: Vec<u32> = Vec::new();
        for a in 0..arity {
            let attr = AttrId(a as u32);
            group_of.clear();
            tgt_group.clear();
            tgt_count.clear();
            for &v in target.column(attr) {
                let fresh = tgt_count.len() as u32;
                let g = *group_of.entry(v).or_insert(fresh);
                if g == fresh {
                    tgt_count.push(0);
                }
                tgt_count[g as usize] += 1;
                tgt_group.push(g);
            }
            // Counting sort: group g's run starts where the groups before
            // it end; scattering in target order keeps each run ascending.
            cursor.clear();
            let mut end = 0u32;
            for &n in &tgt_count {
                cursor.push(end);
                end += n;
            }
            let segment = &mut tgt_ids[a * target_len..(a + 1) * target_len];
            for (t, &g) in tgt_group.iter().enumerate() {
                segment[cursor[g as usize] as usize] = RecordId(t as u32);
                cursor[g as usize] += 1;
            }
            // `cursor[g]` is now the end of group g's run.
            src_count.clear();
            src_count.resize(tgt_count.len(), 0);
            src_group.clear();
            for v in source.column(attr) {
                let g = group_of.get(v).copied().unwrap_or(ABSENT);
                if g != ABSENT {
                    src_count[g as usize] += 1;
                }
                src_group.push(g);
            }
            for (i, &g) in src_group.iter().enumerate() {
                if g == ABSENT {
                    continue;
                }
                let (n_src, n_tgt) = (src_count[g as usize], tgt_count[g as usize]);
                if n_src as usize * n_tgt as usize > max_pairs_per_value {
                    continue; // too frequent to be informative
                }
                let end = cursor[g as usize];
                runs[i * arity + a] = (end - n_tgt, end);
            }
        }
        OverlapIndex {
            arity,
            target_len,
            tgt_ids,
            runs,
        }
    }

    /// Score every source record against the target records it shares
    /// kept values with, in source id order. `visit(sid, touched, scores)`
    /// gets the targets with a nonzero score in first-touch order and the
    /// dense score array indexed by target id (one point per shared
    /// attribute). A source record that shares no kept value is skipped.
    pub fn score_sources(&self, mut visit: impl FnMut(RecordId, &[RecordId], &[u32])) {
        if self.arity == 0 {
            return;
        }
        let mut scores = vec![0u32; self.target_len];
        let mut touched: Vec<RecordId> = Vec::new();
        for (i, row) in self.runs.chunks_exact(self.arity).enumerate() {
            for (a, &(start, end)) in row.iter().enumerate() {
                let base = a * self.target_len;
                for &tid in &self.tgt_ids[base + start as usize..base + end as usize] {
                    let slot = &mut scores[tid.index()];
                    if *slot == 0 {
                        touched.push(tid);
                    }
                    *slot += 1;
                }
            }
            if !touched.is_empty() {
                visit(RecordId(i as u32), &touched, &scores);
                for tid in touched.drain(..) {
                    scores[tid.index()] = 0;
                }
            }
        }
    }
}

/// Compute the attribute set `A_id` for the `Hs` start state. The returned
/// attributes should be assigned `id`; an empty result means no informative
/// overlap was found (the caller falls back to `H^∅` semantics).
pub fn overlap_start_attrs(source: &Table, target: &Table, cfg: OverlapConfig) -> Vec<AttrId> {
    let _span = affidavit_obs::span("search.overlap_start");
    let arity = source.schema().arity();
    if source.is_empty() || target.is_empty() || arity == 0 {
        return Vec::new();
    }

    // Best target per source record (highest score, ties towards the
    // smaller record id for determinism), forming the a-priori alignment.
    // A score counts shared attributes, so it is at most `arity`.
    let index = OverlapIndex::build(source, target, cfg.max_pairs_per_value);
    let mut pairs: Vec<(RecordId, RecordId)> = Vec::new();
    let mut score_freq = vec![0usize; arity + 1];
    index.score_sources(|sid, touched, scores| {
        let mut best = touched[0];
        for &tid in &touched[1..] {
            let (score, top) = (scores[tid.index()], scores[best.index()]);
            if score > top || (score == top && tid < best) {
                best = tid;
            }
        }
        score_freq[scores[best.index()] as usize] += 1;
        pairs.push((sid, best));
    });
    if pairs.is_empty() {
        return Vec::new();
    }

    // k' = the most frequent overlap score among the chosen pairs (ties
    // towards the higher score); every pair scores at least 1.
    let k_prime = score_freq
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(score, _)| score)
        .unwrap_or(0);

    // Rank attributes by how often their values agree on the pairs.
    let mut agree = vec![0usize; arity];
    #[allow(clippy::needless_range_loop)] // `a` also builds the AttrId
    for a in 0..arity {
        let attr = AttrId(a as u32);
        let src_col = source.column(attr);
        let tgt_col = target.column(attr);
        for &(sid, tid) in &pairs {
            if src_col[sid.index()] == tgt_col[tid.index()] {
                agree[a] += 1;
            }
        }
    }
    let mut ranked: Vec<(usize, usize)> = agree.iter().copied().enumerate().collect();
    // Sort by agreement count descending, attribute index ascending.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(k_prime.min(arity))
        .filter(|&(_, count)| count > 0)
        .map(|(a, _)| AttrId(a as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, ValuePool};

    /// Three attributes: k1/k2 unchanged, v transformed; the matcher should
    /// pick (a subset of) {k1, k2}.
    #[test]
    fn picks_unchanged_attributes() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k1", "k2", "v"]),
            &mut pool,
            vec![
                vec!["a", "x", "1"],
                vec!["b", "y", "2"],
                vec!["c", "z", "3"],
            ],
        );
        let t = Table::from_rows(
            Schema::new(["k1", "k2", "v"]),
            &mut pool,
            vec![
                vec!["a", "x", "100"],
                vec!["b", "y", "200"],
                vec!["c", "z", "300"],
            ],
        );
        let attrs = overlap_start_attrs(&s, &t, OverlapConfig::default());
        assert!(!attrs.is_empty());
        assert!(attrs.iter().all(|a| a.0 < 2), "must not pick v: {attrs:?}");
        // Score of every correct pair is 2 (k1+k2 agree) → k' = 2.
        assert_eq!(attrs.len(), 2);
    }

    /// Low-distinctness attributes exceed the pair budget; the only value
    /// small enough to pair on is a permuted unique key, which aligns
    /// records *wrongly* — reproducing the `Hs` failure mode of Table 2.
    #[test]
    fn frequent_values_are_skipped() {
        let mut pool = ValuePool::new();
        let cat = |i: usize| if i.is_multiple_of(2) { "x" } else { "y" };
        let rows_s: Vec<Vec<String>> = (0..20)
            .map(|i| vec![cat(i).to_owned(), format!("{i}")])
            .collect();
        // Target row j carries pk (j + 7) % 20, so the pk pairing matches
        // source i with target position (i + 13) % 20 — an odd shift that
        // never agrees on the alternating category attribute.
        let rows_t: Vec<Vec<String>> = (0..20)
            .map(|j| vec![cat(j).to_owned(), format!("{}", (j + 7) % 20)])
            .collect();
        let s = Table::from_rows(Schema::new(["cat", "pk"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["cat", "pk"]), &mut pool, rows_t);
        let attrs = overlap_start_attrs(
            &s,
            &t,
            OverlapConfig {
                max_pairs_per_value: 50,
            },
        );
        // Each 'cat' value generates 10×10 = 100 pairs > 50 and is skipped;
        // the pairs come from the (misleading) permuted pk, on which no
        // category value agrees — so only pk is chosen.
        assert_eq!(attrs, vec![AttrId(1)]);
    }

    #[test]
    fn empty_tables_yield_no_attrs() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, Vec::<Vec<&str>>::new());
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"]]);
        assert!(overlap_start_attrs(&s, &t, OverlapConfig::default()).is_empty());
    }

    #[test]
    fn no_shared_values_yields_no_attrs() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"], vec!["y"]]);
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["p"], vec!["q"]]);
        assert!(overlap_start_attrs(&s, &t, OverlapConfig::default()).is_empty());
    }
}
