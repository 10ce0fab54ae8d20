//! Generalizing a learned explanation to unseen records.
//!
//! The paper's headline benefit over diff tools: the explanation "can be
//! used to transform additional, unseen records of the source table because
//! it generalizes the value changes instead of only listing them" (§1).
//!
//! [`transform_table`] is columnar: each attribute function runs as one
//! tight loop over the table's contiguous column, with a per-worker
//! [`ApplyScratch`] memo (one application per *distinct* input symbol) and
//! a failure bitmask so rows that died under an earlier attribute are
//! skipped, matching the row-major short-circuit semantics exactly.

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, Record, RecordId, Sym, Table, ValuePool};

use crate::explanation::Explanation;

/// Apply an explanation's attribute functions to a single record.
/// Returns `None` if any attribute value cannot be transformed.
pub fn transform_record(
    functions: &[AttrFunction],
    record: &Record,
    pool: &mut ValuePool,
) -> Option<Record> {
    debug_assert_eq!(functions.len(), record.arity());
    let mut out = Vec::with_capacity(record.arity());
    for (a, f) in functions.iter().enumerate() {
        out.push(f.apply(record.get(a), pool)?);
    }
    Some(Record::new(out))
}

/// Apply an explanation to a whole table of unseen records. Records with
/// untransformable values are reported separately.
///
/// Column-major: attribute `a`'s function transforms the whole column
/// `a` before attribute `a + 1` starts. A row fails as soon as any
/// attribute value is untransformable; its remaining attributes are
/// skipped via the failure bitmask, exactly as the row-major loop
/// short-circuited.
pub fn transform_table(
    explanation: &Explanation,
    table: &Table,
    pool: &mut ValuePool,
) -> (Table, Vec<RecordId>) {
    let _span = affidavit_obs::span("apply.transform");
    let arity = table.schema().arity();
    let rows = table.len();
    if arity == 0 {
        return (table.clone(), Vec::new());
    }
    // One bit per row, set once any attribute of the row fails.
    let mut dead = vec![0u64; rows.div_ceil(64)];
    let is_dead = |dead: &[u64], i: usize| dead[i / 64] >> (i % 64) & 1 == 1;
    let mut out_cols: Vec<Vec<Sym>> = Vec::with_capacity(arity);
    let mut scratch = ApplyScratch::new();
    for a in 0..arity {
        let func = &explanation.functions[a];
        let col = table.column(AttrId(a as u32));
        // Dead rows keep the placeholder; they are compacted away below.
        let mut out = vec![Sym(0); rows];
        scratch.begin(func, pool);
        for (i, &x) in col.iter().enumerate() {
            if is_dead(&dead, i) {
                continue;
            }
            match scratch.apply(func, x, pool) {
                Some(y) => out[i] = y,
                None => dead[i / 64] |= 1 << (i % 64),
            }
        }
        out_cols.push(out);
    }
    let mut failed = Vec::new();
    let mut keep: Vec<usize> = Vec::new();
    for i in 0..rows {
        if is_dead(&dead, i) {
            failed.push(RecordId(i as u32));
        } else {
            keep.push(i);
        }
    }
    if failed.is_empty() {
        return (
            Table::from_columns(table.schema().clone(), out_cols),
            failed,
        );
    }
    for col in &mut out_cols {
        for (w, &i) in keep.iter().enumerate() {
            col[w] = col[i];
        }
        col.truncate(keep.len());
    }
    (
        Table::from_columns(table.schema().clone(), out_cols),
        failed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Rational, Schema};

    #[test]
    fn transforms_unseen_records() {
        let mut pool = ValuePool::new();
        let unseen = Table::from_rows(
            Schema::new(["Val", "Unit"]),
            &mut pool,
            vec![vec!["123000", "USD"], vec!["7", "USD"]],
        );
        let k = pool.intern("k $");
        let functions = vec![
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::Constant(k),
        ];
        let rec = transform_record(
            &functions,
            &unseen.record(affidavit_table::RecordId(0)),
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.get(rec.get(0)), "123");
        assert_eq!(pool.get(rec.get(1)), "k $");
        let rec2 = transform_record(
            &functions,
            &unseen.record(affidavit_table::RecordId(1)),
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.get(rec2.get(0)), "0.007");
    }

    #[test]
    fn untransformable_records_are_reported() {
        let mut pool = ValuePool::new();
        let unseen = Table::from_rows(
            Schema::new(["Val"]),
            &mut pool,
            vec![vec!["1000"], vec!["not-a-number"]],
        );
        let functions = vec![AttrFunction::Scale(Rational::new(1, 1000).unwrap())];
        let expl = Explanation::new(functions, vec![], vec![], vec![]);
        let (out, failed) = transform_table(&expl, &unseen, &mut pool);
        assert_eq!(out.len(), 1);
        assert_eq!(failed.len(), 1);
    }

    #[test]
    fn columnar_transform_matches_per_record_application() {
        let mut pool = ValuePool::new();
        let unseen = Table::from_rows(
            Schema::new(["Val", "Unit"]),
            &mut pool,
            vec![
                vec!["1000", "EUR"],
                vec!["oops", "EUR"],
                vec!["2000", "EUR"],
                vec!["3000", "EUR"],
            ],
        );
        let k = pool.intern("k€");
        let functions = vec![
            AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
            AttrFunction::Constant(k),
        ];
        let expl = Explanation::new(functions.clone(), vec![], vec![], vec![]);
        let (out, failed) = transform_table(&expl, &unseen, &mut pool);
        assert_eq!(failed, vec![RecordId(1)]);
        assert_eq!(out.len(), 3);
        let mut want = Vec::new();
        for (rid, _) in unseen.iter() {
            if rid == RecordId(1) {
                continue;
            }
            want.push(transform_record(&functions, &unseen.record(rid), &mut pool).unwrap());
        }
        for (i, rec) in want.iter().enumerate() {
            for a in 0..2u32 {
                assert_eq!(
                    pool.get(out.value(RecordId(i as u32), AttrId(a))),
                    pool.get(rec.get(a as usize)),
                );
            }
        }
    }
}
