//! Similarity-only record linking — unsupervised matching *without*
//! function synthesis.
//!
//! Scores candidate pairs by the number of attributes on which they agree
//! exactly (the overlap signal of §4.2), then greedily matches best-first
//! with uniqueness on both sides. Systematically transformed attributes
//! contribute nothing to the score — exactly the weakness Affidavit's
//! transformation learning fixes (§2: linking "purely based on a fuzzy
//! notion of similarity").

use affidavit_blocking::OverlapIndex;
use affidavit_core::instance::ProblemInstance;
use affidavit_table::RecordId;

/// Result of the similarity-only linker.
#[derive(Debug, Clone, Default)]
pub struct LinkerResult {
    /// Greedily matched `(source, target)` pairs.
    pub matched: Vec<(RecordId, RecordId)>,
    /// Unmatched source records.
    pub unmatched_source: Vec<RecordId>,
    /// Unmatched target records.
    pub unmatched_target: Vec<RecordId>,
}

impl LinkerResult {
    /// Fraction of a reference alignment recovered.
    pub fn alignment_recall(&self, reference: &[(RecordId, RecordId)]) -> f64 {
        if reference.is_empty() {
            return 1.0;
        }
        let truth: std::collections::HashSet<_> = reference.iter().collect();
        let hits = self.matched.iter().filter(|p| truth.contains(p)).count();
        hits as f64 / reference.len() as f64
    }
}

/// Link records by exact-match attribute overlap. `max_pairs_per_value`
/// bounds the blocking fan-out exactly like the `Hs` matcher: both walk
/// the same budgeted [`OverlapIndex`].
pub fn similarity_link(instance: &ProblemInstance, max_pairs_per_value: usize) -> LinkerResult {
    let index = OverlapIndex::build(&instance.source, &instance.target, max_pairs_per_value);
    let mut ranked: Vec<(RecordId, RecordId, u32)> = Vec::new();
    index.score_sources(|sid, touched, scores| {
        ranked.extend(touched.iter().map(|&tid| (sid, tid, scores[tid.index()])));
    });

    // Greedy best-first matching with uniqueness (stable order: score
    // desc, then ids asc for determinism).
    ranked.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    let mut used_s = vec![false; instance.source.len()];
    let mut used_t = vec![false; instance.target.len()];
    let mut out = LinkerResult::default();
    for (sid, tid, _) in ranked {
        if !used_s[sid.index()] && !used_t[tid.index()] {
            used_s[sid.index()] = true;
            used_t[tid.index()] = true;
            out.matched.push((sid, tid));
        }
    }
    out.unmatched_source = instance
        .source
        .record_ids()
        .filter(|r| !used_s[r.index()])
        .collect();
    out.unmatched_target = instance
        .target
        .record_ids()
        .filter(|r| !used_t[r.index()])
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table, ValuePool};

    #[test]
    fn links_on_shared_attributes() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![vec!["a", "1"], vec!["b", "2"]],
        );
        let t = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            vec![vec!["b", "200"], vec!["a", "100"]],
        );
        let inst = ProblemInstance::new(s, t, pool).unwrap();
        let r = similarity_link(&inst, 1000);
        assert_eq!(r.matched.len(), 2);
        let truth = vec![(RecordId(0), RecordId(1)), (RecordId(1), RecordId(0))];
        assert_eq!(r.alignment_recall(&truth), 1.0);
    }

    #[test]
    fn transformed_attributes_contribute_nothing() {
        // Every attribute transformed: zero exact overlap, nothing linked.
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["v"]),
            &mut pool,
            vec![vec!["1000"], vec!["2000"]],
        );
        let t = Table::from_rows(Schema::new(["v"]), &mut pool, vec![vec!["1"], vec!["2"]]);
        let inst = ProblemInstance::new(s, t, pool).unwrap();
        let r = similarity_link(&inst, 1000);
        assert!(r.matched.is_empty());
        assert_eq!(r.unmatched_source.len(), 2);
        assert_eq!(r.unmatched_target.len(), 2);
    }
}
