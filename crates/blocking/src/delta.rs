//! Stable block identity for incremental re-profiling (`--delta`).
//!
//! A finished search's function assignment induces a *final blocking*:
//! refining the root block on every attribute groups records by their
//! full projection, so each block is exactly one equivalence class of
//! (transformed source tuple = raw target tuple). That partition is a
//! natural unit of incremental reuse — an edit only perturbs the blocks
//! whose records it touches — and this module gives it a *stable
//! identity*: consecutive blocks are merged into at most [`MAX_GROUPS`]
//! groups (plus one pseudo-group for dead sources) and each group is
//! fingerprinted with the streaming FNV-1a hasher from
//! `affidavit_store::fingerprint`.
//!
//! The fingerprints are **interning-independent**: they hash record
//! positions and *resolved strings* (length-prefixed), never `Sym`
//! values, so two runs that interned in different orders (RAM vs. disk
//! pool, warm vs. cold session) agree on every group fingerprint. They
//! are also **position-sensitive**: record ids feed the hash, so a row
//! reorder dirties the groups it crosses even when the multiset of rows
//! is unchanged — which is exactly what makes "every group clean" imply
//! "both tables are identical *as indexed sequences*", the property the
//! delta layer needs before it may splice record ids from a manifest.

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_store::{Fingerprint, Fnv};
use affidavit_table::{AttrId, Interner, Table};

use crate::blocking::Blocking;

/// Upper bound on fingerprint groups per table pair (the dead-source
/// pseudo-group comes on top). Small enough that a manifest stays
/// compact, large enough that the reuse counters resolve dirty
/// fractions well below 2%.
pub const MAX_GROUPS: usize = 64;

/// Derive the final blocking induced by a full function assignment:
/// refine the root block once per attribute, in attribute order — the
/// same deterministic passes the search itself performs, so the block
/// order depends only on table contents and functions (first-seen key
/// order per refinement), never on interning history.
pub fn final_blocking<I: Interner>(
    functions: &[AttrFunction],
    source: &Table,
    target: &Table,
    pool: &mut I,
) -> Blocking {
    let mut blocking = Blocking::root(source, target);
    let mut scratch = ApplyScratch::new();
    for (a, func) in functions.iter().enumerate() {
        blocking = blocking.refine(AttrId(a as u32), func, &mut scratch, source, target, pool);
    }
    blocking
}

/// The contiguous group a block lands in: block `i` of `n` maps to
/// `i·g/n` with `g = min(`[`MAX_GROUPS`]`, n)` — balanced, order-
/// preserving, and stable for a fixed block count.
pub fn group_of_block(block_index: usize, n_blocks: usize) -> usize {
    let g = n_blocks.clamp(1, MAX_GROUPS);
    block_index * g / n_blocks.max(1)
}

/// Per-record group assignment for one final blocking. Group indices
/// `0..count` are real groups; `count` itself is the dead-source
/// pseudo-group.
#[derive(Debug)]
pub struct BlockGroups {
    /// Real (non-dead) group count `g`.
    pub count: usize,
    /// Source record index → group (`count` = dead).
    pub src_group: Vec<u32>,
    /// Target record index → group.
    pub tgt_group: Vec<u32>,
}

/// Map every record of `blocking` to its fingerprint group.
pub fn group_records(blocking: &Blocking, n_src: usize, n_tgt: usize) -> BlockGroups {
    let n_blocks = blocking.len();
    let count = n_blocks.clamp(1, MAX_GROUPS);
    let mut src_group = vec![count as u32; n_src];
    let mut tgt_group = vec![count as u32; n_tgt];
    for (i, block) in blocking.blocks().enumerate() {
        let g = group_of_block(i, n_blocks) as u32;
        for &sid in block.src {
            src_group[sid.index()] = g;
        }
        for &tid in block.tgt {
            tgt_group[tid.index()] = g;
        }
    }
    // dead_src stays at the pseudo-group it was initialized to.
    BlockGroups {
        count,
        src_group,
        tgt_group,
    }
}

fn feed_row<I: Interner>(fnv: &mut Fnv, table: &Table, row: usize, pool: &I) {
    for sym in table.row(affidavit_table::RecordId(row as u32)).iter() {
        fnv.update_str(pool.get(sym));
    }
}

/// Fingerprint every group of a final blocking: one entry per real
/// group in group order, then the dead-source pseudo-group last. Each
/// record feeds a tag byte, its id, and its resolved row strings; a
/// separator closes each block, so group fingerprints see the block
/// partition itself, not just the records.
pub fn group_fingerprints<I: Interner>(
    blocking: &Blocking,
    source: &Table,
    target: &Table,
    pool: &I,
) -> Vec<Fingerprint> {
    let n_blocks = blocking.len();
    let count = n_blocks.clamp(1, MAX_GROUPS);
    let mut hashers: Vec<Fnv> = (0..count + 1).map(|_| Fnv::new()).collect();
    for (i, block) in blocking.blocks().enumerate() {
        let fnv = &mut hashers[group_of_block(i, n_blocks)];
        for &sid in block.src {
            fnv.update(b"s");
            fnv.update_u64(sid.0 as u64);
            feed_row(fnv, source, sid.index(), pool);
        }
        for &tid in block.tgt {
            fnv.update(b"t");
            fnv.update_u64(tid.0 as u64);
            feed_row(fnv, target, tid.index(), pool);
        }
        fnv.update(b"|");
    }
    let dead = &mut hashers[count];
    for &sid in blocking.dead_src() {
        dead.update(b"d");
        dead.update_u64(sid.0 as u64);
        feed_row(dead, source, sid.index(), pool);
    }
    hashers.iter().map(Fnv::finish).collect()
}

/// Fingerprint the pair-level frame the group fingerprints live in:
/// schema names, arity, row counts, block and dead counts. Two runs
/// whose header and group fingerprints all agree staged identical
/// instances.
pub fn header_fingerprint(blocking: &Blocking, source: &Table, target: &Table) -> Fingerprint {
    let mut fnv = Fnv::new();
    fnv.update_u64(source.schema().arity() as u64);
    for name in source.schema().names() {
        fnv.update_str(name);
    }
    fnv.update_u64(source.len() as u64);
    fnv.update_u64(target.len() as u64);
    fnv.update_u64(blocking.len() as u64);
    fnv.update_u64(blocking.dead_src().len() as u64);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_functions::AttrFunction;
    use affidavit_table::{Rational, Schema, Table, ValuePool};

    fn tables(pool: &mut ValuePool, rows: &[(&str, &str)]) -> (Table, Table) {
        let rows: Vec<Vec<&str>> = rows.iter().map(|(k, v)| vec![*k, *v]).collect();
        let s = Table::from_rows(Schema::new(["k", "v"]), pool, rows.clone());
        let t = Table::from_rows(Schema::new(["k", "v"]), pool, rows);
        (s, t)
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let mut pool = ValuePool::new();
        let (s, t) = tables(&mut pool, &[("a", "1"), ("b", "2"), ("c", "3")]);
        let funcs = vec![AttrFunction::Identity, AttrFunction::Identity];
        let blocking = final_blocking(&funcs, &s, &t, &mut pool);
        let fps = group_fingerprints(&blocking, &s, &t, &pool);
        // Same content in a *fresh* pool (different interning history):
        // identical fingerprints.
        let mut pool2 = ValuePool::new();
        pool2.intern("decoy"); // shift every Sym
        let (s2, t2) = tables(&mut pool2, &[("a", "1"), ("b", "2"), ("c", "3")]);
        let blocking2 = final_blocking(&funcs, &s2, &t2, &mut pool2);
        assert_eq!(fps, group_fingerprints(&blocking2, &s2, &t2, &pool2));
        assert_eq!(
            header_fingerprint(&blocking, &s, &t),
            header_fingerprint(&blocking2, &s2, &t2)
        );
        // One edited cell changes at least one fingerprint.
        let mut pool3 = ValuePool::new();
        let (s3, t3) = tables(&mut pool3, &[("a", "1"), ("b", "9"), ("c", "3")]);
        let blocking3 = final_blocking(&funcs, &s3, &t3, &mut pool3);
        assert_ne!(fps, group_fingerprints(&blocking3, &s3, &t3, &pool3));
    }

    #[test]
    fn a_row_reorder_is_dirty_even_with_equal_multisets() {
        let funcs = vec![AttrFunction::Identity, AttrFunction::Identity];
        let mut pool = ValuePool::new();
        let (s, t) = tables(&mut pool, &[("a", "1"), ("b", "2")]);
        let fps = {
            let b = final_blocking(&funcs, &s, &t, &mut pool);
            group_fingerprints(&b, &s, &t, &pool)
        };
        let mut pool2 = ValuePool::new();
        let (s2, t2) = tables(&mut pool2, &[("b", "2"), ("a", "1")]);
        let b2 = final_blocking(&funcs, &s2, &t2, &mut pool2);
        assert_ne!(
            fps,
            group_fingerprints(&b2, &s2, &t2, &pool2),
            "position-sensitivity: reordered rows must not look clean"
        );
    }

    #[test]
    fn dead_sources_land_in_the_pseudo_group() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["v"]),
            &mut pool,
            vec![vec!["10"], vec!["IBM"]], // IBM: scale inapplicable → dead
        );
        let t = Table::from_rows(Schema::new(["v"]), &mut pool, vec![vec!["1"]]);
        let funcs = vec![AttrFunction::Scale(Rational::new(1, 10).unwrap())];
        let blocking = final_blocking(&funcs, &s, &t, &mut pool);
        assert_eq!(blocking.dead_src().len(), 1);
        let groups = group_records(&blocking, s.len(), t.len());
        assert_eq!(groups.src_group[1] as usize, groups.count);
        let fps = group_fingerprints(&blocking, &s, &t, &pool);
        assert_eq!(fps.len(), groups.count + 1);
        // Editing the dead row dirties only the pseudo-group.
        let mut pool2 = ValuePool::new();
        let s2 = Table::from_rows(
            Schema::new(["v"]),
            &mut pool2,
            vec![vec!["10"], vec!["SAP"]],
        );
        let t2 = Table::from_rows(Schema::new(["v"]), &mut pool2, vec![vec!["1"]]);
        let b2 = final_blocking(&funcs, &s2, &t2, &mut pool2);
        let fps2 = group_fingerprints(&b2, &s2, &t2, &pool2);
        assert_eq!(fps[..groups.count], fps2[..groups.count]);
        assert_ne!(fps[groups.count], fps2[groups.count]);
    }

    #[test]
    fn many_blocks_fold_into_bounded_balanced_groups() {
        let n = 500usize;
        let mut pool = ValuePool::new();
        let rows: Vec<Vec<String>> = (0..n).map(|i| vec![format!("k{i}")]).collect();
        let s = Table::from_rows(Schema::new(["k"]), &mut pool, rows.clone());
        let t = Table::from_rows(Schema::new(["k"]), &mut pool, rows);
        let blocking = final_blocking(&[AttrFunction::Identity], &s, &t, &mut pool);
        assert_eq!(blocking.len(), n);
        let fps = group_fingerprints(&blocking, &s, &t, &pool);
        assert_eq!(fps.len(), MAX_GROUPS + 1);
        // Every block maps into range, in nondecreasing group order.
        let mut last = 0;
        for i in 0..n {
            let g = group_of_block(i, n);
            assert!(g < MAX_GROUPS);
            assert!(g >= last);
            last = g;
        }
    }
}
