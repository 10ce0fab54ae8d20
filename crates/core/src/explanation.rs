//! Explanations (Def. 3.2) and their construction from attribute functions
//! (Prop. 3.6).

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{FxHashMap, RecordId, Sym};

use crate::instance::ProblemInstance;

/// A valid explanation `E = (S^E−, T^E+, F^E)` together with the witnessing
/// core bijection.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// One attribute function per schema attribute (`F^E`).
    pub functions: Vec<AttrFunction>,
    /// Source records labeled deleted (`S^E−`).
    pub deleted: Vec<RecordId>,
    /// Target records labeled inserted (`T^E+`).
    pub inserted: Vec<RecordId>,
    /// The core bijection: `(s, t)` pairs with `F^E(s) = t` as tuples.
    core: Vec<(RecordId, RecordId)>,
}

impl Explanation {
    /// Assemble an explanation from explicit components (used by the
    /// reference-explanation builder in `affidavit-datagen` and by tests).
    /// No validity check is performed here — call [`Explanation::validate`].
    pub fn new(
        functions: Vec<AttrFunction>,
        deleted: Vec<RecordId>,
        inserted: Vec<RecordId>,
        core: Vec<(RecordId, RecordId)>,
    ) -> Explanation {
        Explanation {
            functions,
            deleted,
            inserted,
            core,
        }
    }

    /// Prop. 3.6: construct a valid explanation from attribute functions by
    /// choosing `S^E` maximal under the bijection constraint.
    ///
    /// Matching is *multiset* matching on full transformed tuples: if `j`
    /// core images equal a target tuple occurring `m` times in `T`,
    /// `min(j, m)` sources join the core (the proof's "remove all but one"
    /// step, generalized to duplicate rows).
    pub fn from_functions(
        functions: Vec<AttrFunction>,
        instance: &mut ProblemInstance,
    ) -> Explanation {
        assert_eq!(
            functions.len(),
            instance.arity(),
            "need exactly one function per attribute"
        );
        let mut memos: Vec<ApplyScratch> = functions.iter().map(|_| ApplyScratch::new()).collect();

        // Index target tuples; values are the target ids carrying that
        // tuple, consumed front-to-back for determinism.
        let mut tgt_index: FxHashMap<Box<[Sym]>, (Vec<RecordId>, usize)> = FxHashMap::default();
        for (tid, rec) in instance.target.iter() {
            tgt_index
                .entry(rec.to_vec().into())
                .or_insert_with(|| (Vec::new(), 0))
                .0
                .push(tid);
        }

        let mut core = Vec::new();
        let mut deleted = Vec::new();
        let arity = instance.arity();
        let mut image: Vec<Sym> = Vec::with_capacity(arity);
        let n_src = instance.source.len();
        for raw in 0..n_src {
            let sid = RecordId(raw as u32);
            image.clear();
            let mut ok = true;
            #[allow(clippy::needless_range_loop)] // indexes two parallel arrays
            for a in 0..arity {
                let v = instance
                    .source
                    .value(sid, affidavit_table::AttrId(a as u32));
                match memos[a].apply(&functions[a], v, &mut instance.pool) {
                    Some(out) => image.push(out),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            let matched = ok
                && match tgt_index.get_mut(image.as_slice()) {
                    Some((tids, next)) if *next < tids.len() => {
                        core.push((sid, tids[*next]));
                        *next += 1;
                        true
                    }
                    _ => false,
                };
            if !matched {
                deleted.push(sid);
            }
        }

        let mut inserted: Vec<RecordId> = Vec::new();
        for (tids, next) in tgt_index.values() {
            inserted.extend_from_slice(&tids[*next..]);
        }
        inserted.sort();

        Explanation {
            functions,
            deleted,
            inserted,
            core,
        }
    }

    /// The trivial explanation `E^∅ = (S, T, {id}^d)`: everything deleted
    /// and inserted. Always valid (§3.1).
    pub fn trivial(instance: &ProblemInstance) -> Explanation {
        Explanation {
            functions: vec![AttrFunction::Identity; instance.arity()],
            deleted: instance.source.record_ids().collect(),
            inserted: instance.target.record_ids().collect(),
            core: Vec::new(),
        }
    }

    /// The core bijection pairs `(s, t)`.
    pub fn core_pairs(&self) -> &[(RecordId, RecordId)] {
        &self.core
    }

    /// `|S^E|` — the core size.
    pub fn core_size(&self) -> usize {
        self.core.len()
    }

    /// `L(F^E) = Σ ψ(f_a)` (Def. 3.9).
    pub fn l_functions(&self) -> u64 {
        self.functions.iter().map(AttrFunction::psi).sum()
    }

    /// `L(T^E+) = |A| · |T^E+|` (Def. 3.8).
    pub fn l_inserted(&self, arity: usize) -> u64 {
        arity as u64 * self.inserted.len() as u64
    }

    /// `c(E) = 2α·L(T^E+) + 2(1−α)·L(F^E)` (Def. 3.10).
    pub fn cost(&self, alpha: f64, arity: usize) -> f64 {
        2.0 * alpha * self.l_inserted(arity) as f64
            + 2.0 * (1.0 - alpha) * self.l_functions() as f64
    }

    /// Integer cost at the default α = 0.5: `L(T^E+) + L(F^E)`.
    pub fn cost_units(&self, arity: usize) -> u64 {
        self.l_inserted(arity) + self.l_functions()
    }

    /// Check the validity conditions of Def. 3.5 against the instance:
    /// the deleted/core sets partition `S`, the inserted/image sets
    /// partition `T`, the core is a bijection, and every core pair's image
    /// equals its target tuple.
    pub fn validate(&self, instance: &mut ProblemInstance) -> Result<(), String> {
        let n_s = instance.source.len();
        let n_t = instance.target.len();
        if self.deleted.len() + self.core.len() != n_s {
            return Err(format!(
                "S is not partitioned: {} deleted + {} core != {}",
                self.deleted.len(),
                self.core.len(),
                n_s
            ));
        }
        if self.inserted.len() + self.core.len() != n_t {
            return Err(format!(
                "T is not partitioned: {} inserted + {} core != {}",
                self.inserted.len(),
                self.core.len(),
                n_t
            ));
        }
        let mut seen_s = vec![false; n_s];
        for &sid in &self.deleted {
            if std::mem::replace(&mut seen_s[sid.index()], true) {
                return Err(format!("source record {sid:?} referenced twice"));
            }
        }
        let mut seen_t = vec![false; n_t];
        for &tid in &self.inserted {
            if std::mem::replace(&mut seen_t[tid.index()], true) {
                return Err(format!("target record {tid:?} referenced twice"));
            }
        }
        let mut memos: Vec<ApplyScratch> =
            self.functions.iter().map(|_| ApplyScratch::new()).collect();
        for &(sid, tid) in &self.core {
            if std::mem::replace(&mut seen_s[sid.index()], true) {
                return Err(format!("source record {sid:?} referenced twice"));
            }
            if std::mem::replace(&mut seen_t[tid.index()], true) {
                return Err(format!(
                    "target record {tid:?} matched twice (not a bijection)"
                ));
            }
            #[allow(clippy::needless_range_loop)] // indexes two parallel arrays
            for a in 0..instance.arity() {
                let attr = affidavit_table::AttrId(a as u32);
                let sv = instance.source.value(sid, attr);
                let tv = instance.target.value(tid, attr);
                match memos[a].apply(&self.functions[a], sv, &mut instance.pool) {
                    Some(out) if out == tv => {}
                    other => {
                        return Err(format!(
                            "core pair ({sid:?}, {tid:?}) attr {a}: image {:?} != target {:?}",
                            other.map(|o| instance.pool.get(o).to_owned()),
                            instance.pool.get(tv)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Rational, Schema, Table, ValuePool};

    fn instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![
                vec!["80000", "IBM"],
                vec!["65", "SAP"],
                vec!["999", "DEL"], // only matches if 0.999 exists in T
            ],
        );
        let t = Table::from_rows(
            Schema::new(["Val", "Org"]),
            &mut pool,
            vec![vec!["80", "IBM"], vec!["0.065", "SAP"], vec!["1", "INS"]],
        );
        ProblemInstance::new(s, t, pool).unwrap()
    }

    fn div1000() -> AttrFunction {
        AttrFunction::Scale(Rational::new(1, 1000).unwrap())
    }

    #[test]
    fn prop_3_6_construction() {
        let mut inst = instance();
        let e = Explanation::from_functions(vec![div1000(), AttrFunction::Identity], &mut inst);
        assert_eq!(e.core_size(), 2);
        assert_eq!(e.deleted.len(), 1);
        assert_eq!(e.inserted.len(), 1);
        e.validate(&mut inst).unwrap();
    }

    #[test]
    fn trivial_explanation_cost() {
        let inst = instance();
        let e = Explanation::trivial(&inst);
        // |A|·|T| = 2·3 = 6; functions are id (ψ 0).
        assert_eq!(e.cost_units(2), 6);
        let mut inst = inst;
        e.validate(&mut inst).unwrap();
    }

    #[test]
    fn duplicate_rows_multiset_matching() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["a"]),
            &mut pool,
            vec![vec!["x"], vec!["x"], vec!["x"]],
        );
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"], vec!["x"]]);
        let mut inst = ProblemInstance::new(s, t, pool).unwrap();
        let e = Explanation::from_functions(vec![AttrFunction::Identity], &mut inst);
        // Only two of the three identical sources can join the core.
        assert_eq!(e.core_size(), 2);
        assert_eq!(e.deleted.len(), 1);
        assert_eq!(e.inserted.len(), 0);
        e.validate(&mut inst).unwrap();
    }

    #[test]
    fn partial_application_deletes() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["IBM"]]);
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["5"]]);
        let mut inst = ProblemInstance::new(s, t, pool).unwrap();
        let e = Explanation::from_functions(vec![div1000()], &mut inst);
        assert_eq!(e.core_size(), 0);
        assert_eq!(e.deleted.len(), 1);
        assert_eq!(e.inserted.len(), 1);
        e.validate(&mut inst).unwrap();
    }

    #[test]
    fn cost_matches_paper_formula() {
        let mut inst = instance();
        let e = Explanation::from_functions(vec![div1000(), AttrFunction::Identity], &mut inst);
        // 1 inserted × |A|=2 → L(T+)=2; ψ(scale)=1, ψ(id)=0 → L(F)=1.
        assert_eq!(e.cost_units(2), 3);
        assert_eq!(e.cost(0.5, 2), 3.0);
        // α = 1 drops the function term entirely: 2·1·2 = 4.
        assert_eq!(e.cost(1.0, 2), 4.0);
    }

    #[test]
    fn validate_catches_broken_bijection() {
        let mut inst = instance();
        let mut e = Explanation::from_functions(vec![div1000(), AttrFunction::Identity], &mut inst);
        // Corrupt: point both core pairs at the same target.
        if e.core.len() == 2 {
            let t0 = e.core[0].1;
            e.core[1].1 = t0;
        }
        assert!(e.validate(&mut inst).is_err());
    }
}
