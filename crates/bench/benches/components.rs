//! Component micro-benchmarks and ablations for the search's main design
//! choices:
//!
//! * `blocking/refine_vs_root` — incremental block refinement vs full
//!   re-blocking from scratch;
//! * `induction/sampled` — block-sampled candidate induction (θ-sized);
//! * `ranking/cochran_vs_full` — Cochran-sampled vs exhaustive candidate
//!   ranking;
//! * `queue/bounded_vs_wide` — end-to-end search with the paper's bounded
//!   queue vs an effectively unbounded one (ablation of §4.6);
//! * `restructure/detect_merge` — merge/split evidence scan (§6 extension);
//! * `csv/parse` — the RFC-4180 reader on a generated table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use affidavit_blocking::Blocking;
use affidavit_core::induction::{induce_candidates, InductionParams};
use affidavit_core::ranking::rank_candidates;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datasets::specs::by_name;
use affidavit_datasets::synth::generate_rows;
use affidavit_functions::{ApplyScratch, AttrFunction, Registry};
use affidavit_table::{csv, AttrId, ValuePool};

fn setup_instance(rows: usize) -> affidavit_datagen::blueprint::GeneratedInstance {
    let spec = by_name("adult").expect("dataset exists");
    let (base, pool) = generate_rows(&spec, rows, 11);
    Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, 11)).materialize_full()
}

fn bench_blocking(c: &mut Criterion) {
    let generated = setup_instance(5_000);
    let inst = &generated.instance;
    let mut pool = inst.pool.clone();
    let root = Blocking::root(&inst.source, &inst.target);
    // Refine on the first attribute once so refinement has real splits.
    let mut scratch = ApplyScratch::new();
    let level1 = root.refine(
        AttrId(0),
        &AttrFunction::Identity,
        &mut scratch,
        &inst.source,
        &inst.target,
        &mut pool,
    );

    let mut group = c.benchmark_group("blocking");
    group.bench_function("refine_incremental", |b| {
        b.iter(|| {
            let mut scratch = ApplyScratch::new();
            let mut p = pool.clone();
            std::hint::black_box(level1.refine(
                AttrId(1),
                &AttrFunction::Identity,
                &mut scratch,
                &inst.source,
                &inst.target,
                &mut p,
            ))
        });
    });
    group.bench_function("reblock_from_root", |b| {
        b.iter(|| {
            let mut p = pool.clone();
            let mut scratch = ApplyScratch::new();
            let r = Blocking::root(&inst.source, &inst.target)
                .refine(
                    AttrId(0),
                    &AttrFunction::Identity,
                    &mut scratch,
                    &inst.source,
                    &inst.target,
                    &mut p,
                )
                .refine(
                    AttrId(1),
                    &AttrFunction::Identity,
                    &mut scratch,
                    &inst.source,
                    &inst.target,
                    &mut p,
                );
            std::hint::black_box(r)
        });
    });
    group.finish();
}

fn bench_induction_and_ranking(c: &mut Criterion) {
    let generated = setup_instance(5_000);
    let inst = &generated.instance;
    let mut pool = inst.pool.clone();
    let blocking = Blocking::root(&inst.source, &inst.target).refine(
        AttrId(0),
        &AttrFunction::Identity,
        &mut ApplyScratch::new(),
        &inst.source,
        &inst.target,
        &mut pool,
    );

    let mut group = c.benchmark_group("induction");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(8));
    // Ablation: the paper's catalogue vs the extended one (numeric
    // formatting + token programs) — the price of a richer search space.
    for (label, reg) in [
        ("sampled_k90", Registry::default()),
        ("sampled_k90_extended", Registry::extended()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut p = pool.clone();
                std::hint::black_box(induce_candidates(
                    &blocking,
                    AttrId(2),
                    &inst.source,
                    &inst.target,
                    &mut p,
                    &reg,
                    InductionParams {
                        k: 90,
                        min_support: 5,
                        max_examples_per_target: 1000,
                        use_corpus: false,
                    },
                    &mut rng,
                ))
            });
        });
    }
    group.finish();

    // Collect candidates once for the ranking ablation.
    let mut rng = StdRng::seed_from_u64(5);
    let cands: Vec<AttrFunction> = induce_candidates(
        &blocking,
        AttrId(2),
        &inst.source,
        &inst.target,
        &mut pool,
        &Registry::default(),
        InductionParams {
            k: 90,
            min_support: 5,
            max_examples_per_target: 1000,
            use_corpus: false,
        },
        &mut rng,
    )
    .into_iter()
    .map(|c| c.func)
    .collect();
    if cands.is_empty() {
        return;
    }

    let mut group = c.benchmark_group("ranking");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(12));
    for (label, k_prime) in [("cochran_139", 139usize), ("exhaustive", usize::MAX)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &k_prime, |b, &k| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let mut p = pool.clone();
                std::hint::black_box(rank_candidates(
                    &blocking,
                    AttrId(2),
                    cands.clone(),
                    &inst.source,
                    &inst.target,
                    &mut p,
                    k,
                    2,
                    &mut rng,
                ))
            });
        });
    }
    group.finish();
}

fn bench_queue_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_ablation");
    group.sample_size(10);
    for (label, rho) in [("bounded_rho5", 5usize), ("wide_rho64", 64)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &rho, |b, &rho| {
            b.iter(|| {
                let spec = by_name("bridges").expect("dataset exists");
                let (base, pool) = generate_rows(&spec, spec.rows, 13);
                let bp = Blueprint::new(base, pool, GenConfig::new(0.5, 0.5, 13));
                let mut generated = bp.materialize_full();
                let mut cfg = AffidavitConfig::paper_id();
                cfg.queue_width = rho;
                std::hint::black_box(Affidavit::new(cfg).explain(&mut generated.instance))
            });
        });
    }
    group.finish();
}

fn bench_restructure(c: &mut Criterion) {
    use affidavit_core::restructure::detect_restructures;
    use affidavit_table::{Schema, Table};

    // 5 000-row merge instance: (first, last, org, key) vs (name, org, key).
    let mut pool = ValuePool::new();
    let firsts = [
        "John", "Jane", "Max", "Ada", "Alan", "Grace", "Kurt", "Emmy",
    ];
    let lasts = [
        "Doe", "Weber", "Turing", "Hopper", "Liskov", "Noether", "Gauss", "Euler",
    ];
    let rows_s: Vec<Vec<String>> = (0..5_000usize)
        .map(|i| {
            vec![
                format!("{}{}", firsts[i % 8], i / 64),
                lasts[(i / 8) % 8].to_owned(),
                format!("org{}", i % 17),
                format!("k{i}"),
            ]
        })
        .collect();
    let rows_t: Vec<Vec<String>> = (0..5_000usize)
        .map(|i| {
            vec![
                format!("{}{} {}", firsts[i % 8], i / 64, lasts[(i / 8) % 8]),
                format!("org{}", i % 17),
                format!("k{i}"),
            ]
        })
        .collect();
    let s = Table::from_rows(
        Schema::new(["first", "last", "org", "key"]),
        &mut pool,
        rows_s,
    );
    let t = Table::from_rows(Schema::new(["name", "org", "key"]), &mut pool, rows_t);

    c.bench_function("restructure/detect_merge_5k", |b| {
        b.iter(|| std::hint::black_box(detect_restructures(&s, &t, &pool)))
    });
}

fn bench_csv(c: &mut Criterion) {
    let spec = by_name("ncvoter-1k").expect("dataset exists");
    let (table, pool) = generate_rows(&spec, 1000, 3);
    let mut buf = Vec::new();
    csv::write(&mut buf, &table, &pool, csv::CsvOptions::default()).expect("write");
    let text = String::from_utf8(buf).expect("utf8");

    c.bench_function("csv/parse_1k_x15", |b| {
        b.iter(|| {
            let mut pool = ValuePool::new();
            std::hint::black_box(
                csv::read_str(&text, &mut pool, csv::CsvOptions::default()).expect("parse"),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_blocking,
    bench_induction_and_ranking,
    bench_queue_ablation,
    bench_restructure,
    bench_csv
);
criterion_main!(benches);
