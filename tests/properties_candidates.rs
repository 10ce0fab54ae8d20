//! Differential battery for the candidate kernels: `induce_candidates`
//! (one induction per distinct example, support counted by dense function
//! id) and `rank_candidates` (flat per-candidate image arrays, closed-form
//! `Constant`/`Identity` overlaps) against reference copies that induce
//! every example afresh and merge one hash-map histogram per (block,
//! candidate) pair.
//!
//! Both sides run on small random tables — categorical values, canonical
//! and non-canonical decimals, date-like values, empty and repeated
//! values — under blockings built from refine chains over start blockings
//! with singleton, source-only, target-only and large blocks, against a
//! `ValuePool` and a `ScratchPool` interner, under both registries with
//! corpus retrieval on and off. The ranked lists hold several candidates
//! with equal image arrays (which the kernel walks once), with different
//! ψ and in either order around the induced ones. They must agree on the `(func, support)`
//! list, the `(func, overlap, score)` list, the work counters, the next
//! RNG draw and the strings the interner gained, in order.

use affidavit::blocking::{Block, Blocking};
use affidavit::core::induction::{induce_candidates, InductionParams};
use affidavit::core::ranking::rank_candidates;
use affidavit::functions::{
    corpus_candidates, induce_from_example, ApplyScratch, AttrFunction, Registry,
};
use affidavit::table::{
    AttrId, Decimal, FxHashMap, FxHashSet, Interner, Rational, RecordId, Schema, ScratchPool, Sym,
    Table, ValuePool,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::{Rng, RngCore, SeedableRng};

// ---- reference kernels ----------------------------------------------------

/// Reference induction: every sampled target induces from every distinct
/// source value of its block, deduplicating functions per target in a
/// hash set and counting support in a hash map. Also returns the number
/// of distinct examples it saw.
#[allow(clippy::too_many_arguments)]
fn oracle_induce<I: Interner>(
    blocking: &Blocking,
    attr: AttrId,
    source: &Table,
    target: &Table,
    pool: &mut I,
    registry: &Registry,
    params: InductionParams,
    rng: &mut StdRng,
) -> (Vec<(AttrFunction, u32)>, usize) {
    let mut mixed_targets: Vec<(usize, RecordId)> = Vec::new();
    for (bi, block) in blocking.blocks().enumerate() {
        if block.is_mixed() {
            mixed_targets.extend(block.tgt.iter().map(|&tid| (bi, tid)));
        }
    }
    if mixed_targets.is_empty() {
        return (Vec::new(), 0);
    }

    let k = params.k.min(mixed_targets.len());
    let mut chosen: Vec<(usize, RecordId)> = index_sample(rng, mixed_targets.len(), k)
        .into_iter()
        .map(|i| mixed_targets[i])
        .collect();
    chosen.sort_by_key(|&(bi, tid)| (bi, tid));

    let mut counts: FxHashMap<AttrFunction, u32> = FxHashMap::default();
    let mut per_target: FxHashSet<AttrFunction> = FxHashSet::default();
    let mut src_values: Vec<Sym> = Vec::new();
    let mut seen_vals: FxHashSet<Sym> = FxHashSet::default();
    let mut examples: FxHashSet<(Sym, Sym)> = FxHashSet::default();
    let mut current_block = usize::MAX;

    for (bi, tid) in chosen {
        if bi != current_block {
            current_block = bi;
            src_values.clear();
            seen_vals.clear();
            for &sid in blocking.block(bi).src {
                let v = source.value(sid, attr);
                if seen_vals.insert(v) {
                    src_values.push(v);
                    if src_values.len() >= params.max_examples_per_target {
                        break;
                    }
                }
            }
        }
        let t_val = target.value(tid, attr);
        per_target.clear();
        for &s_val in &src_values {
            examples.insert((s_val, t_val));
            for f in induce_from_example(s_val, t_val, pool, registry) {
                per_target.insert(f);
            }
            if params.use_corpus {
                for f in corpus_candidates(s_val, t_val, pool) {
                    per_target.insert(f);
                }
            }
        }
        for f in per_target.drain() {
            *counts.entry(f).or_default() += 1;
        }
    }

    let mut out: Vec<(AttrFunction, u32)> = counts
        .into_iter()
        .filter(|&(_, n)| n >= params.min_support.min(k as u32))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (out, examples.len())
}

/// Reference ranking: one memoized function per candidate, and per
/// evaluated block one source, target and output histogram map. Also
/// returns the memo misses of the functions that are neither `Identity`
/// nor `Constant`.
#[allow(clippy::too_many_arguments)]
fn oracle_rank<I: Interner>(
    blocking: &Blocking,
    attr: AttrId,
    candidates: Vec<AttrFunction>,
    source: &Table,
    target: &Table,
    pool: &mut I,
    k_prime: usize,
    beta: usize,
    rng: &mut StdRng,
) -> (Vec<(AttrFunction, u64, i64)>, usize) {
    if candidates.is_empty() || beta == 0 {
        return (Vec::new(), 0);
    }
    let mut mixed_sources: Vec<usize> = Vec::new();
    for (bi, block) in blocking.blocks().enumerate() {
        if block.is_mixed() {
            mixed_sources.extend(std::iter::repeat_n(bi, block.src.len()));
        }
    }
    if mixed_sources.is_empty() {
        return (Vec::new(), 0);
    }
    let k = k_prime.min(mixed_sources.len());
    let mut blocks_to_eval: Vec<usize> = index_sample(rng, mixed_sources.len(), k)
        .into_iter()
        .map(|i| mixed_sources[i])
        .collect();
    blocks_to_eval.sort_unstable();
    blocks_to_eval.dedup();

    let mut memos: Vec<ApplyScratch> = candidates.iter().map(|_| ApplyScratch::new()).collect();
    let mut overlaps = vec![0u64; candidates.len()];

    let mut src_hist: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut tgt_hist: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut out_hist: FxHashMap<Sym, u32> = FxHashMap::default();

    for &bi in &blocks_to_eval {
        let block = blocking.block(bi);
        src_hist.clear();
        for &sid in block.src {
            *src_hist.entry(source.value(sid, attr)).or_default() += 1;
        }
        tgt_hist.clear();
        for &tid in block.tgt {
            *tgt_hist.entry(target.value(tid, attr)).or_default() += 1;
        }
        for (fi, (func, memo)) in candidates.iter().zip(&mut memos).enumerate() {
            out_hist.clear();
            for (&v, &n) in &src_hist {
                if let Some(w) = memo.apply(func, v, pool) {
                    *out_hist.entry(w).or_default() += n;
                }
            }
            let mut overlap = 0u64;
            for (&w, &n) in &out_hist {
                if let Some(&m) = tgt_hist.get(&w) {
                    overlap += n.min(m) as u64;
                }
            }
            overlaps[fi] += overlap;
        }
    }
    let applications = memos.iter().map(ApplyScratch::memo_len).sum();

    let mut ranked: Vec<(AttrFunction, u64, i64)> = candidates
        .into_iter()
        .zip(overlaps)
        .map(|(func, overlap)| {
            let score = overlap as i64 - func.psi() as i64;
            (func, overlap, score)
        })
        .collect();
    ranked.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(beta);
    (ranked, applications)
}

// ---- generated fixtures ---------------------------------------------------

/// Cell values: categorical with case variants, canonical decimals,
/// non-canonical decimals, date-like values in several formats, and the
/// empty value.
const DOMAIN: [&str; 16] = [
    "red",
    "Red",
    "RED",
    "blue",
    "1",
    "10",
    "250",
    "0.5",
    "-3",
    "1.50",
    "007",
    "1,000",
    "2019-10-10",
    "10.10.2019",
    "20191010",
    "",
];

/// A value in no table, so a `Constant` of it matches no target.
const ABSENT: &str = "absent";

/// Number of blocks in the coarse start blocking; a source at slot
/// `COARSE` (or `FINE`) starts out dead.
const COARSE: u8 = 5;
/// Number of blocks in the fine start blocking: ≤ 30 records a side over
/// this many slots gives mostly singleton and 1:1 blocks.
const FINE: u8 = 32;

#[derive(Debug, Clone)]
struct Case {
    /// Rows of the source and target tables, as `DOMAIN` indices before
    /// folding by `width`.
    src_rows: Vec<[u8; 3]>,
    tgt_rows: Vec<[u8; 3]>,
    /// Fold cell values into the first `width` domain values, so small
    /// widths repeat values heavily.
    width: u8,
    /// 0: root blocking (one large block); 1: coarse slots; 2: fine slots.
    start: u8,
    src_slots: Vec<u8>,
    tgt_slots: Vec<u8>,
    /// Refinements applied after the start: `(attribute, function)`.
    chain: Vec<[u8; 2]>,
    /// The attribute induced and ranked.
    attr: u8,
    extended: bool,
    use_corpus: bool,
    k: usize,
    min_support: u32,
    max_examples: usize,
    k_prime: usize,
    beta: usize,
    seed: u64,
    /// Where the fixed extra candidates go among the induced ones.
    split: usize,
}

/// The strategy generating [`Case`]s.
#[derive(Clone)]
struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut proptest::TestRng) -> Case {
        let rows = prop::collection::vec(prop::array::uniform3(0u8..16), 0..30);
        let src_rows = rows.generate(rng);
        // Half the targets are edited copies of the sources, so blocks on
        // unedited attributes stay mixed; the rest are drawn afresh.
        let tgt_rows = if rng.gen_bool(0.5) {
            let mut edited = Vec::new();
            for row in &src_rows {
                if rng.gen_bool(0.8) {
                    edited.push(row.map(|v| {
                        if rng.gen_bool(0.25) {
                            rng.gen_range(0..16)
                        } else {
                            v
                        }
                    }));
                }
            }
            edited
        } else {
            rows.generate(rng)
        };
        Case {
            src_rows,
            tgt_rows,
            width: rng.gen_range(1..17),
            start: rng.gen_range(0..3),
            src_slots: prop::collection::vec(0u8..=FINE, 30).generate(rng),
            tgt_slots: prop::collection::vec(0u8..FINE, 30).generate(rng),
            chain: prop::collection::vec(prop::array::uniform2(0u8..8), 0..3).generate(rng),
            attr: rng.gen_range(0..3),
            extended: rng.gen_bool(0.5),
            use_corpus: rng.gen_bool(0.5),
            k: rng.gen_range(0..60),
            min_support: rng.gen_range(1..7),
            max_examples: rng.gen_range(1..12),
            k_prime: rng.gen_range(0..80),
            beta: rng.gen_range(1..6),
            seed: rng.gen_range(0..1_000_000),
            split: rng.gen_range(0..14),
        }
    }
}

fn build(rows: &[[u8; 3]], width: u8, pool: &mut ValuePool) -> Table {
    let rows: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| DOMAIN[(v % width) as usize]).collect())
        .collect();
    Table::from_rows(Schema::new(["a", "b", "c"]), pool, rows)
}

/// The function a refine-chain step applies, by index.
fn chain_function(i: u8, pool: &mut ValuePool) -> AttrFunction {
    match i % 4 {
        0 => AttrFunction::Identity,
        1 => AttrFunction::Scale(Rational::new(1, 10).unwrap()),
        2 => AttrFunction::Uppercase,
        _ => AttrFunction::Constant(pool.intern("1")),
    }
}

/// The start blocking: the root, or `blocks` slots where source `i` goes
/// to slot `src_slots[i]` (dead at slot `blocks`) and target `j` to slot
/// `tgt_slots[j]`.
fn start_blocking(case: &Case, s: &Table, t: &Table) -> Blocking {
    let blocks = match case.start {
        0 => return Blocking::root(s, t),
        1 => COARSE,
        _ => FINE,
    };
    let mut slots = vec![(Vec::new(), Vec::new()); blocks as usize];
    let mut dead = Vec::new();
    for sid in s.record_ids() {
        match case.src_slots[sid.index()] % (blocks + 1) {
            b if b == blocks => dead.push(sid),
            b => slots[b as usize].0.push(sid),
        }
    }
    for tid in t.record_ids() {
        slots[(case.tgt_slots[tid.index()] % blocks) as usize]
            .1
            .push(tid);
    }
    // The dead sources settle as one source-only block.
    let dead = Block {
        src: &dead,
        tgt: &[],
    };
    Blocking::from_blocks(
        slots
            .iter()
            .map(|(src, tgt)| Block { src, tgt })
            .chain([dead]),
    )
}

/// Everything both sides share: tables, blocking, the pool they were
/// built in and the extra ranking candidates.
struct Fixture {
    source: Table,
    target: Table,
    blocking: Blocking,
    pool: ValuePool,
    extras: Vec<AttrFunction>,
}

fn fixture(case: &Case) -> Fixture {
    let mut pool = ValuePool::new();
    let source = build(&case.src_rows, case.width, &mut pool);
    let target = build(&case.tgt_rows, case.width, &mut pool);
    let mut blocking = start_blocking(case, &source, &target);
    let mut scratch = ApplyScratch::new();
    for &[attr, f] in &case.chain {
        let func = chain_function(f, &mut pool);
        blocking = blocking.refine(
            AttrId(u32::from(attr % 3)),
            &func,
            &mut scratch,
            &source,
            &target,
            &mut pool,
        );
    }
    let extras = vec![
        AttrFunction::Identity,
        AttrFunction::Constant(pool.intern(DOMAIN[(case.seed % 16) as usize])),
        AttrFunction::Constant(pool.intern(ABSENT)),
        AttrFunction::Uppercase,
        AttrFunction::Scale(Rational::new(1, 10).unwrap()),
        AttrFunction::Add(Decimal::parse("1").unwrap()),
        AttrFunction::PrefixReplace(pool.intern("1"), pool.intern("2")),
        // Candidates whose image arrays equal another's: the identity on
        // every domain value (no value holds '#'), rounding that leaves
        // every numeric value as it is, and `Scale(1/10)` spelled again.
        AttrFunction::FrontCharTrim('#'),
        AttrFunction::BackCharTrim('#'),
        AttrFunction::PrefixReplace(pool.intern("#"), pool.intern("%")),
        AttrFunction::Round(3),
        AttrFunction::Round(4),
        AttrFunction::Scale(Rational::new(10, 100).unwrap()),
    ];
    Fixture {
        source,
        target,
        blocking,
        pool,
        extras,
    }
}

/// Run the reference and the production kernels side by side on their
/// own interners and assert identical results, counters and RNG state.
/// The caller compares the interners.
fn run_both<I: Interner>(case: &Case, fx: &Fixture, ref_pool: &mut I, new_pool: &mut I) {
    let attr = AttrId(u32::from(case.attr));
    let registry = if case.extended {
        Registry::extended()
    } else {
        Registry::default()
    };
    let params = InductionParams {
        k: case.k,
        min_support: case.min_support,
        max_examples_per_target: case.max_examples,
        use_corpus: case.use_corpus,
    };
    let mut ref_rng = StdRng::seed_from_u64(case.seed);
    let mut new_rng = StdRng::seed_from_u64(case.seed);

    let (want, want_examples) = oracle_induce(
        &fx.blocking,
        attr,
        &fx.source,
        &fx.target,
        ref_pool,
        &registry,
        params,
        &mut ref_rng,
    );
    let induced = induce_candidates(
        &fx.blocking,
        attr,
        &fx.source,
        &fx.target,
        new_pool,
        &registry,
        params,
        &mut new_rng,
    );
    let got: Vec<(AttrFunction, u32)> = induced
        .candidates
        .into_iter()
        .map(|c| (c.func, c.support))
        .collect();
    assert_eq!(got, want, "induced candidates differ: {case:?}");
    assert_eq!(induced.examples, want_examples, "examples: {case:?}");

    let split = case.split.min(fx.extras.len());
    let mut candidates: Vec<AttrFunction> = fx.extras[..split].to_vec();
    candidates.extend(want.into_iter().map(|(f, _)| f));
    candidates.extend_from_slice(&fx.extras[split..]);

    let (want, want_applications) = oracle_rank(
        &fx.blocking,
        attr,
        candidates.clone(),
        &fx.source,
        &fx.target,
        ref_pool,
        case.k_prime,
        case.beta,
        &mut ref_rng,
    );
    let ranking = rank_candidates(
        &fx.blocking,
        attr,
        candidates,
        &fx.source,
        &fx.target,
        new_pool,
        case.k_prime,
        case.beta,
        &mut new_rng,
    );
    let got: Vec<(AttrFunction, u64, i64)> = ranking
        .ranked
        .into_iter()
        .map(|r| (r.func, r.overlap, r.score))
        .collect();
    assert_eq!(got, want, "ranked candidates differ: {case:?}");
    assert_eq!(
        ranking.applications, want_applications,
        "applications: {case:?}"
    );
    assert_eq!(
        new_rng.next_u64(),
        ref_rng.next_u64(),
        "RNG streams diverged: {case:?}"
    );
}

fn strings(pool: &ValuePool) -> Vec<String> {
    pool.iter().map(|(_, s)| s.to_owned()).collect()
}

proptest! {
    #[test]
    fn kernels_match_reference_on_a_value_pool(case in Cases) {
        let fx = fixture(&case);
        let mut ref_pool = fx.pool.clone();
        let mut new_pool = fx.pool.clone();
        run_both(&case, &fx, &mut ref_pool, &mut new_pool);
        prop_assert_eq!(strings(&new_pool), strings(&ref_pool));
    }

    #[test]
    fn kernels_match_reference_on_a_scratch_pool(case in Cases) {
        let fx = fixture(&case);
        let mut ref_pool = ScratchPool::new(fx.pool.reader());
        let mut new_pool = ScratchPool::new(fx.pool.reader());
        run_both(&case, &fx, &mut ref_pool, &mut new_pool);
        prop_assert_eq!(new_pool.take_new_strings(), ref_pool.take_new_strings());
    }
}
