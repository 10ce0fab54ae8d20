//! Differential battery for the `Hs` start-state kernel:
//! `overlap_start_attrs` (one budgeted value index, one stamped best-target
//! pass) and the similarity linker that walks the same index,
//! against reference copies that accumulate every co-occurring
//! `(source, target)` pair into nested hash maps.
//!
//! Both sides run on random tables of 0–60 rows a side and 1–6
//! attributes with skewed value cardinalities (one value may carry most of
//! a column), targets that are either edited copies of the sources or
//! drawn afresh, and budgets 1, 4, 20, 100 and 100 000 — or exactly the
//! pair count of a value present on both sides, or one below it, so a
//! value sits right on the budget (kept) or one pair over it (skipped).
//! One side is sometimes empty. They must agree on the per-source score
//! maps, each source's best target and its score (the stamped pass that
//! `overlap_start_attrs` runs), the chosen attributes and the linker's
//! matching. Fixed cases pin the budget boundary, a score tie between
//! target ids, a three-way tie whose smallest id comes last followed by a
//! source that must not see the earlier source's counts, and an empty side.

use std::collections::BTreeMap;

use affidavit::baselines::linker::{similarity_link, LinkerResult};
use affidavit::blocking::{overlap_start_attrs, OverlapConfig, OverlapIndex};
use affidavit::core::instance::ProblemInstance;
use affidavit::table::{AttrId, FxHashMap, RecordId, Schema, Sym, Table, ValuePool};
use proptest::prelude::*;
use rand::Rng;

// ---- reference kernels ----------------------------------------------------

/// Reference scores: per attribute, a value → target records map and a
/// value → source count map; every source record of a value within the
/// budget adds 1 to each of the value's targets in a map of maps.
fn oracle_scores(
    source: &Table,
    target: &Table,
    max_pairs_per_value: usize,
) -> FxHashMap<RecordId, FxHashMap<RecordId, u32>> {
    let mut scores: FxHashMap<RecordId, FxHashMap<RecordId, u32>> = FxHashMap::default();
    let mut tgt_index: FxHashMap<Sym, Vec<RecordId>> = FxHashMap::default();
    let mut src_count: FxHashMap<Sym, usize> = FxHashMap::default();
    for a in 0..source.schema().arity() {
        let attr = AttrId(a as u32);
        tgt_index.clear();
        src_count.clear();
        let src_col = source.column(attr);
        let tgt_col = target.column(attr);
        for (t, &v) in tgt_col.iter().enumerate() {
            tgt_index.entry(v).or_default().push(RecordId(t as u32));
        }
        for &v in src_col {
            *src_count.entry(v).or_default() += 1;
        }
        for (i, &v) in src_col.iter().enumerate() {
            let sid = RecordId(i as u32);
            let Some(tids) = tgt_index.get(&v) else {
                continue;
            };
            if src_count[&v] * tids.len() > max_pairs_per_value {
                continue;
            }
            let entry = scores.entry(sid).or_default();
            for &tid in tids {
                *entry.entry(tid).or_default() += 1;
            }
        }
    }
    scores
}

/// Reference best target per source: the argmax of its score map
/// (highest score, ties towards the smaller target id).
fn oracle_best(
    scores: &FxHashMap<RecordId, FxHashMap<RecordId, u32>>,
) -> BTreeMap<RecordId, (RecordId, u32)> {
    scores
        .iter()
        .map(|(&sid, tmap)| {
            let (&tid, &score) = tmap
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .expect("score map entries are non-empty");
            (sid, (tid, score))
        })
        .collect()
}

/// Reference `Hs` attribute choice over the nested score maps.
fn oracle_start_attrs(source: &Table, target: &Table, cfg: OverlapConfig) -> Vec<AttrId> {
    let arity = source.schema().arity();
    if source.is_empty() || target.is_empty() || arity == 0 {
        return Vec::new();
    }
    let best = oracle_best(&oracle_scores(source, target, cfg.max_pairs_per_value));
    if best.is_empty() {
        return Vec::new();
    }
    let mut score_freq: FxHashMap<u32, usize> = FxHashMap::default();
    for &(_, score) in best.values() {
        *score_freq.entry(score).or_default() += 1;
    }
    let k_prime = score_freq
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)))
        .map(|(score, _)| *score as usize)
        .unwrap_or(0);
    if k_prime == 0 {
        return Vec::new();
    }
    let mut agree = vec![0usize; arity];
    for (a, count) in agree.iter_mut().enumerate() {
        let attr = AttrId(a as u32);
        for (&sid, &(tid, _)) in &best {
            if source.value(sid, attr) == target.value(tid, attr) {
                *count += 1;
            }
        }
    }
    let mut ranked: Vec<(usize, usize)> = agree.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(k_prime.min(arity))
        .filter(|&(_, count)| count > 0)
        .map(|(a, _)| AttrId(a as u32))
        .collect()
}

/// Reference linker: the same score maps flattened to `(sid, tid)` keys,
/// ranked by score descending then ids ascending, matched greedily.
fn oracle_link(instance: &ProblemInstance, max_pairs_per_value: usize) -> LinkerResult {
    let scores = oracle_scores(&instance.source, &instance.target, max_pairs_per_value);
    let mut ranked: Vec<((RecordId, RecordId), u32)> = scores
        .iter()
        .flat_map(|(&sid, tmap)| tmap.iter().map(move |(&tid, &s)| ((sid, tid), s)))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut used_s = vec![false; instance.source.len()];
    let mut used_t = vec![false; instance.target.len()];
    let mut out = LinkerResult::default();
    for ((sid, tid), _) in ranked {
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

// ---- case generation ------------------------------------------------------

const BUDGETS: [usize; 5] = [1, 4, 20, 100, 100_000];

/// One generated case: both tables as value indices per cell, and the
/// budget rule the case was drawn under.
#[derive(Debug, Clone)]
struct Case {
    arity: usize,
    src_rows: Vec<Vec<u8>>,
    tgt_rows: Vec<Vec<u8>>,
    budget: Budget,
}

#[derive(Debug, Clone, Copy)]
enum Budget {
    Fixed(usize),
    /// Exactly the pair count of the shared value picked by the seed.
    AtPairCount(u64),
    /// One below that pair count: the value is one pair over budget.
    BelowPairCount(u64),
}

#[derive(Clone)]
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut proptest::TestRng) -> Case {
        let arity = rng.gen_range(1..7);
        // Per attribute: a cardinality from 1 to 60 and a skew — the
        // minimum of `skew` uniform draws, so higher skew piles most
        // records onto the first few values.
        let shapes: Vec<(u8, u32)> = (0..arity)
            .map(|_| {
                let card = [1u8, 2, 3, 5, 10, 60][rng.gen_range(0..6usize)];
                (card, rng.gen_range(1..5))
            })
            .collect();
        let draw_row = |rng: &mut proptest::TestRng| -> Vec<u8> {
            shapes
                .iter()
                .map(|&(card, skew)| (0..skew).map(|_| rng.gen_range(0..card)).min().unwrap())
                .collect()
        };
        let side = |rng: &mut proptest::TestRng| -> usize {
            if rng.gen_range(0..8) == 0 {
                0
            } else {
                rng.gen_range(0..61)
            }
        };
        let (n_src, n_tgt) = (side(rng), side(rng));
        let src_rows: Vec<Vec<u8>> = (0..n_src).map(|_| draw_row(rng)).collect();
        // Half the time the targets are edited copies of the sources, so
        // most pairs share values; otherwise they are drawn afresh.
        let tgt_rows: Vec<Vec<u8>> = if rng.gen_bool(0.5) && !src_rows.is_empty() {
            (0..n_tgt)
                .map(|_| {
                    let mut row = src_rows[rng.gen_range(0..src_rows.len())].clone();
                    for v in row.iter_mut() {
                        if rng.gen_bool(0.2) {
                            *v = rng.gen_range(0..60);
                        }
                    }
                    row
                })
                .collect()
        } else {
            (0..n_tgt).map(|_| draw_row(rng)).collect()
        };
        let budget = match rng.gen_range(0..4) {
            0 => Budget::AtPairCount(rng.gen_range(0..u64::MAX)),
            1 => Budget::BelowPairCount(rng.gen_range(0..u64::MAX)),
            _ => Budget::Fixed(BUDGETS[rng.gen_range(0..BUDGETS.len())]),
        };
        Case {
            arity,
            src_rows,
            tgt_rows,
            budget,
        }
    }
}

fn table(arity: usize, rows: &[Vec<u8>], pool: &mut ValuePool) -> Table {
    let names: Vec<String> = (0..arity).map(|a| format!("a{a}")).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| format!("v{v}")).collect())
        .collect();
    Table::from_rows(Schema::new(names), pool, rows)
}

/// Every `source count × target count` of a value present on both sides
/// of one attribute, in (attribute, value) order.
fn shared_pair_counts(source: &Table, target: &Table) -> Vec<usize> {
    let mut out = Vec::new();
    for a in 0..source.schema().arity() {
        let attr = AttrId(a as u32);
        let mut counts: BTreeMap<Sym, (usize, usize)> = BTreeMap::new();
        for &v in source.column(attr) {
            counts.entry(v).or_default().0 += 1;
        }
        for &v in target.column(attr) {
            counts.entry(v).or_default().1 += 1;
        }
        out.extend(
            counts
                .values()
                .filter(|&&(s, t)| s > 0 && t > 0)
                .map(|&(s, t)| s * t),
        );
    }
    out
}

fn resolve_budget(budget: Budget, source: &Table, target: &Table) -> usize {
    let pick = |seed: u64| {
        let counts = shared_pair_counts(source, target);
        (!counts.is_empty()).then(|| counts[(seed % counts.len() as u64) as usize])
    };
    match budget {
        Budget::Fixed(b) => b,
        Budget::AtPairCount(seed) => pick(seed).unwrap_or(100_000),
        Budget::BelowPairCount(seed) => pick(seed).map_or(100_000, |n| n - 1),
    }
}

/// The index's scores as ordered maps, for comparison with the oracle.
fn index_scores(index: &OverlapIndex) -> BTreeMap<RecordId, BTreeMap<RecordId, u32>> {
    let mut out = BTreeMap::new();
    index.score_sources(|sid, touched, scores| {
        let row: BTreeMap<RecordId, u32> = touched
            .iter()
            .map(|&tid| (tid, scores[tid.index()]))
            .collect();
        assert_eq!(row.len(), touched.len(), "a target is touched once");
        assert!(out.insert(sid, row).is_none(), "a source is visited once");
    });
    out
}

/// The best-target pass as an ordered map: source → (best target, score).
fn index_best(index: &OverlapIndex) -> BTreeMap<RecordId, (RecordId, u32)> {
    let mut out = BTreeMap::new();
    index.best_targets(|sid, best, score| {
        assert!(
            out.insert(sid, (best, score)).is_none(),
            "a source is visited once"
        );
    });
    out
}

fn sorted(
    scores: FxHashMap<RecordId, FxHashMap<RecordId, u32>>,
) -> BTreeMap<RecordId, BTreeMap<RecordId, u32>> {
    scores
        .into_iter()
        .map(|(sid, row)| (sid, row.into_iter().collect()))
        .collect()
}

fn check(source: Table, target: Table, pool: ValuePool, budget: usize) {
    let cfg = OverlapConfig {
        max_pairs_per_value: budget,
    };
    let index = OverlapIndex::build(&source, &target, budget);
    let oracle = oracle_scores(&source, &target, budget);
    assert_eq!(
        index_best(&index),
        oracle_best(&oracle),
        "best targets diverge at budget {budget}"
    );
    assert_eq!(
        index_scores(&index),
        sorted(oracle),
        "score maps diverge at budget {budget}"
    );
    assert_eq!(
        overlap_start_attrs(&source, &target, cfg),
        oracle_start_attrs(&source, &target, cfg),
        "start attributes diverge at budget {budget}"
    );
    let instance = ProblemInstance::new(source, target, pool).unwrap();
    let (new, old) = (
        similarity_link(&instance, budget),
        oracle_link(&instance, budget),
    );
    assert_eq!(new.matched, old.matched, "linker matching diverges");
    assert_eq!(new.unmatched_source, old.unmatched_source);
    assert_eq!(new.unmatched_target, old.unmatched_target);
}

proptest! {
    #[test]
    fn overlap_kernel_matches_nested_map_reference(case in Cases) {
        let mut pool = ValuePool::new();
        let source = table(case.arity, &case.src_rows, &mut pool);
        let target = table(case.arity, &case.tgt_rows, &mut pool);
        let budget = resolve_budget(case.budget, &source, &target);
        check(source, target, pool, budget);
    }
}

// ---- fixed cases ----------------------------------------------------------

fn tables(arity: usize, src: &[Vec<u8>], tgt: &[Vec<u8>]) -> (Table, Table, ValuePool) {
    let mut pool = ValuePool::new();
    let s = table(arity, src, &mut pool);
    let t = table(arity, tgt, &mut pool);
    (s, t, pool)
}

/// Attribute 0's value `v0` pairs 3 × 4 = 12 records; attribute 1 is a
/// unique key. At a budget of 12 the value is kept, so three pairs score 2
/// and `k' = 2` takes both attributes; at 11 it is skipped, every pair
/// scores 1 on the key alone and `k' = 1` takes only the key.
#[test]
fn a_value_at_the_budget_is_kept_and_one_over_is_skipped() {
    let src = vec![vec![0, 10], vec![0, 11], vec![0, 12], vec![1, 13]];
    let tgt = vec![vec![0, 13], vec![0, 10], vec![0, 11], vec![0, 12]];
    let (s, t, pool) = tables(2, &src, &tgt);
    let at = OverlapConfig {
        max_pairs_per_value: 12,
    };
    let over = OverlapConfig {
        max_pairs_per_value: 11,
    };
    assert_eq!(overlap_start_attrs(&s, &t, at), vec![AttrId(1), AttrId(0)]);
    assert_eq!(overlap_start_attrs(&s, &t, over), vec![AttrId(1)]);
    check(s.clone(), t.clone(), pool.clone(), 12);
    check(s, t, pool, 11);
}

/// The only source record scores 1 against both targets: target 0 shares
/// attribute 0, target 1 attribute 1. The tie goes to the smaller target
/// id, so attribute 0 is the one that agrees on the chosen pair.
#[test]
fn a_score_tie_goes_to_the_smaller_target_id() {
    let (s, t, pool) = tables(2, &[vec![1, 2]], &[vec![1, 9], vec![8, 2]]);
    assert_eq!(
        overlap_start_attrs(&s, &t, OverlapConfig::default()),
        vec![AttrId(0)]
    );
    let (s2, t2, _) = tables(2, &[vec![1, 2]], &[vec![8, 2], vec![1, 9]]);
    assert_eq!(
        overlap_start_attrs(&s2, &t2, OverlapConfig::default()),
        vec![AttrId(1)]
    );
    check(s, t, pool, 100_000);
}

/// Source 0 scores 1 against targets 2, 1 and 0, touched in that order
/// (one attribute each), so the smallest id wins a three-way tie it joins
/// last. Source 1 then shares attribute 0 with target 2 again and
/// attributes 1 and 2 with target 3: if target 2's slot still held source
/// 0's count, both would score 2 and the tie would go to target 2, but a
/// stale stamp reads 0, so target 3 wins with 2 against target 2's 1.
#[test]
fn a_tie_joined_last_goes_to_the_smallest_id_and_a_stale_stamp_reads_zero() {
    let src = vec![vec![0, 1, 2], vec![0, 3, 4]];
    let tgt = vec![
        vec![10, 11, 2],
        vec![12, 1, 13],
        vec![0, 14, 15],
        vec![16, 3, 4],
    ];
    let (s, t, pool) = tables(3, &src, &tgt);
    let index = OverlapIndex::build(&s, &t, 100_000);
    let expected = BTreeMap::from([
        (RecordId(0), (RecordId(0), 1)),
        (RecordId(1), (RecordId(3), 2)),
    ]);
    assert_eq!(index_best(&index), expected);
    check(s, t, pool, 100_000);
}

#[test]
fn an_empty_side_scores_nothing() {
    let rows = vec![vec![0, 1], vec![2, 3]];
    for (src, tgt) in [(vec![], rows.clone()), (rows, vec![]), (vec![], vec![])] {
        let (s, t, pool) = tables(2, &src, &tgt);
        let index = OverlapIndex::build(&s, &t, 100_000);
        assert!(index_scores(&index).is_empty());
        assert!(index_best(&index).is_empty());
        assert!(overlap_start_attrs(&s, &t, OverlapConfig::default()).is_empty());
        check(s, t, pool, 100_000);
    }
}
