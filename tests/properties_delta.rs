//! Incremental re-profiling (`--delta`) differential battery.
//!
//! The load-bearing invariant of `core::delta`: for every input and
//! every edit, a delta run's output bytes equal a from-scratch run's
//! output bytes — a fingerprint mismatch may only ever cost a redo,
//! never a wrong answer. The battery fuzzes snapshot edits (row
//! insert/delete, cell edits, reorders, block-boundary edits, and
//! byte-level no-op rewrites like CRLF and quoting) across both paper
//! configurations × threads {1, 4} × ingest chunkings, and also checks
//! the redo path's *pool state* against a from-scratch staging — not
//! just the rendered report. Separately: the streaming fingerprint is
//! chunking-invariant, and a corrupted manifest — hand-picked or one of
//! a seeded stream of mutants — falls back to a full redo (correct
//! bytes, `fallbacks` bumped) instead of failing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use affidavit::core::delta::{
    config_fingerprint, default_profile_state, explain_delta, explain_state, profile_dirs_delta,
    DeltaManifest, DELTA_FORMAT_VERSION,
};
use affidavit::core::profiling::{profile_dirs, stage_file_pair, ProfileOptions, SnapshotProfile};
use affidavit::core::report::render_report;
use affidavit::core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit::serve::fuzz::{nest, structural_offsets, with_value, Rng};
use affidavit::store::{fingerprint_bytes, fingerprint_file, Fnv, IngestOptions};
use proptest::prelude::*;

/// A fresh per-test scratch directory (tests in this file run in
/// parallel under the default harness).
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "affidavit-delta-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seeded snapshot pair with a systematic change (rescaled values),
/// deletions and an insertion, so the report has every section.
fn write_pair(dir: &Path, seed: u64) -> (PathBuf, PathBuf) {
    let src = dir.join("source.csv");
    let tgt = dir.join("target.csv");
    let rows = 24 + (seed % 13) as usize;
    let mut s = String::from("k,v,w\n");
    let mut t = String::from("k,v,w\n");
    for i in 0..rows {
        s.push_str(&format!("k{i},{},tag{}\n", (i as u64 + seed) * 1000, i % 5));
        if (i as u64 + seed) % 11 != 10 {
            t.push_str(&format!("k{i},{},tag{}\n", i as u64 + seed, i % 5));
        }
    }
    t.push_str(&format!("extra{seed},7,tagx\n"));
    std::fs::write(&src, s).unwrap();
    std::fs::write(&tgt, t).unwrap();
    (src, tgt)
}

/// The battery's dimension sweep, driven off seed bits: both paper
/// configurations × threads {1, 4} × ingest chunks {4096, 3} rows.
fn opts_for(seed: u64) -> ProfileOptions {
    let mut config = if seed & 1 == 0 {
        AffidavitConfig::paper_id()
    } else {
        AffidavitConfig::paper_overlap()
    };
    config.threads = if seed & 2 == 0 { 1 } else { 4 };
    let mut ingest = IngestOptions::default();
    if seed & 4 != 0 {
        // Byte-transparent: chunking never changes the ingested pair.
        ingest.chunk_rows = 3;
    }
    ProfileOptions {
        config,
        align: false,
        ingest,
        ..ProfileOptions::default()
    }
}

/// Every interned string in pool order — the redo path must leave the
/// instance's pool exactly as a from-scratch staging + search would.
fn pool_dump(instance: &ProblemInstance) -> String {
    let mut out = String::new();
    for (sym, s) in instance.pool.iter() {
        out.push_str(&sym.0.to_string());
        out.push('=');
        out.push_str(s);
        out.push('\u{1}');
    }
    out
}

/// The from-scratch path for the same inputs: stage + search + render,
/// exactly what a non-delta `affidavit explain` runs in-process.
fn from_scratch(src: &Path, tgt: &Path, opts: &ProfileOptions) -> (String, u64, u64, String) {
    let mut instance = stage_file_pair(src, tgt, opts).expect("stage");
    let out = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let report = render_report(&out.explanation, &instance);
    (
        report,
        out.stats.polled as u64,
        out.stats.states_generated as u64,
        pool_dump(&instance),
    )
}

/// One snapshot edit, chosen by `kind`. Kinds 0–4 change the staged
/// records (the delta run must redo); kinds 5–6 rewrite bytes without
/// changing any record (the delta run must still splice).
fn apply_edit(kind: u64, seed: u64, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let data = lines.len() - 1; // line 0 is the header
    let pos = 1 + (seed as usize % data);
    let edit_cell = |line: &str, field: usize, suffix: &str| -> String {
        let mut fields: Vec<String> = line.split(',').map(str::to_owned).collect();
        fields[field].push_str(suffix);
        fields.join(",")
    };
    match kind {
        // Row insert at an arbitrary position.
        0 => lines.insert(pos, format!("ins{seed},42,tagi")),
        // Row delete.
        1 => {
            lines.remove(pos);
        }
        // Cell edit (value column).
        2 => lines[pos] = edit_cell(&lines[pos], 1, "9"),
        // Reorder: rotate the data rows — record ids shift everywhere.
        3 => lines[1..].rotate_left(1),
        // Block-boundary edits: the first and last data rows sit on
        // fingerprint-group boundaries; editing the tag column also
        // changes the blocking partition itself.
        4 => {
            let last = lines.len() - 1;
            lines[1] = edit_cell(&lines[1], 2, "b");
            lines[last] = edit_cell(&lines[last], 2, "b");
        }
        // CRLF rewrite: new raw bytes, identical records.
        5 => return text.replace('\n', "\r\n"),
        // Quoting rewrite: every field quoted, identical records.
        6 => {
            for line in &mut lines {
                *line = line
                    .split(',')
                    .map(|f| format!("\"{f}\""))
                    .collect::<Vec<_>>()
                    .join(",");
            }
        }
        other => panic!("unknown edit kind {other}"),
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

proptest! {
    /// The tentpole invariant, fuzzed: delta output bytes == from-scratch
    /// output bytes, cold (no manifest), warm (splice) and after every
    /// edit kind; the redo path additionally leaves an identical pool.
    #[test]
    fn delta_is_byte_identical_under_edits(seed in 0u64..1_000_000) {
        let kind = seed % 7;
        let pair_seed = seed / 7;
        let dir = temp_dir("fuzz");
        let (src, tgt) = write_pair(&dir, pair_seed);
        let opts = opts_for(seed);
        let state = explain_state(&tgt, None);

        // Cold: no manifest yet — a full redo with identical bytes.
        let (report1, polled1, generated1, pool1) = from_scratch(&src, &tgt, &opts);
        let cold = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert!(!cold.spliced);
        prop_assert_eq!(&cold.report, &report1);
        prop_assert_eq!(cold.polled, polled1);
        prop_assert_eq!(cold.generated, generated1);
        prop_assert_eq!(pool_dump(cold.instance.as_ref().unwrap()), pool1);
        prop_assert_eq!(cold.stats.fallbacks, 0);

        // Warm: everything clean — a splice with identical bytes.
        let warm = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert!(warm.spliced);
        prop_assert_eq!(&warm.report, &report1);
        prop_assert_eq!((warm.polled, warm.generated), (polled1, generated1));
        prop_assert_eq!(warm.stats.pairs_redone, 0);
        prop_assert_eq!(warm.stats.fallbacks, 0);

        // Edited: still byte-identical to a from-scratch run over the
        // edited pair, splicing exactly when no record changed.
        let text = std::fs::read_to_string(&tgt).unwrap();
        std::fs::write(&tgt, apply_edit(kind, pair_seed, &text)).unwrap();
        let (report2, polled2, generated2, pool2) = from_scratch(&src, &tgt, &opts);
        let delta = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert_eq!(&delta.report, &report2);
        prop_assert_eq!(delta.polled, polled2);
        prop_assert_eq!(delta.generated, generated2);
        prop_assert_eq!(delta.stats.fallbacks, 0, "data dirt is a redo, not a fallback");
        if kind >= 5 {
            prop_assert!(
                delta.spliced,
                "a byte-level no-op rewrite (kind {}) must splice",
                kind
            );
        } else {
            prop_assert!(!delta.spliced, "edit kind {} must force a redo", kind);
            prop_assert_eq!(pool_dump(delta.instance.as_ref().unwrap()), pool2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The streaming fingerprint is split-invariant: hashing any
/// chunk-boundary decomposition of the same bytes — or the same bytes
/// through a file — yields the fingerprint of the whole.
#[test]
fn fingerprints_are_chunking_invariant() {
    let data: Vec<u8> = (0..10_000u32)
        .flat_map(|i| format!("row{i},\"quo\"\"ted\",\r\n\u{e9}").into_bytes())
        .collect();
    let whole = fingerprint_bytes(&data);
    for splits in [
        vec![0usize],
        vec![1],
        vec![7, 7],
        vec![data.len() / 2],
        vec![data.len() - 1],
        vec![data.len()],
        vec![64 * 1024, 64 * 1024], // the file reader's chunk size
    ] {
        let mut fnv = Fnv::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            let cut = s.min(rest.len());
            fnv.update(&rest[..cut]);
            rest = &rest[cut..];
        }
        fnv.update(rest);
        assert_eq!(
            fnv.finish(),
            whole,
            "a chunk boundary changed the fingerprint"
        );
    }
    let dir = temp_dir("fp");
    let path = dir.join("blob.bin");
    std::fs::write(&path, &data).unwrap();
    assert_eq!(fingerprint_file(&path).unwrap(), whole);
    std::fs::remove_dir_all(&dir).ok();

    // The length prefix in `update_str` keeps concatenation ambiguity
    // out of composite fingerprints: ("ab","c") != ("a","bc").
    let mut one = Fnv::new();
    one.update_str("ab");
    one.update_str("c");
    let mut two = Fnv::new();
    two.update_str("a");
    two.update_str("bc");
    assert_ne!(one.finish(), two.finish());

    // Fingerprints round-trip through their manifest string form.
    let printed = whole.to_string();
    assert_eq!(
        printed.parse::<affidavit::store::Fingerprint>().unwrap(),
        whole
    );
}

/// A corrupted or stale manifest must never produce a wrong answer or a
/// failure: the run falls back to a full redo (`fallbacks` bumped),
/// returns correct bytes, and rewrites the manifest so the *next* run
/// splices again.
#[test]
fn a_broken_manifest_falls_back_to_a_correct_redo() {
    let dir = temp_dir("broken");
    let (src, tgt) = write_pair(&dir, 3);
    let opts = opts_for(0);
    let state = explain_state(&tgt, None);
    let (report, ..) = from_scratch(&src, &tgt, &opts);

    explain_delta(&src, &tgt, &opts, &state).unwrap();
    for corruption in ["{not json", "", "{\"version\":999}"] {
        std::fs::write(&state, corruption).unwrap();
        let out = explain_delta(&src, &tgt, &opts, &state).unwrap();
        assert!(
            !out.spliced,
            "a broken manifest must not splice: {corruption:?}"
        );
        assert_eq!(
            out.stats.fallbacks, 1,
            "corruption {corruption:?} must count as a fallback"
        );
        assert_eq!(out.report, report);
        // The redo rewrote the manifest: the next run splices again.
        let next = explain_delta(&src, &tgt, &opts, &state).unwrap();
        assert!(next.spliced);
        assert_eq!(next.report, report);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest nested thousands of levels deep, in arrays or in objects,
/// fails to parse at the recursion limit: one fallback and from-scratch
/// bytes, never a stack overflow.
#[test]
fn a_deeply_nested_manifest_falls_back() {
    let dir = temp_dir("nested");
    let (src, tgt) = write_pair(&dir, 3);
    let opts = opts_for(0);
    let state = explain_state(&tgt, None);
    let (report, ..) = from_scratch(&src, &tgt, &opts);
    explain_delta(&src, &tgt, &opts, &state).unwrap();
    let recorded = std::fs::read_to_string(&state).unwrap();
    let arrays = format!("{}{recorded}{}", "[".repeat(5000), "]".repeat(5000));
    let objects = format!(
        "{}{recorded}{}",
        r#"{"tables":"#.repeat(5000),
        "}".repeat(5000)
    );
    for nested in [arrays, objects] {
        std::fs::write(&state, nested).unwrap();
        let out = explain_delta(&src, &tgt, &opts, &state).unwrap();
        assert!(!out.spliced);
        assert_eq!(out.stats.fallbacks, 1);
        assert_eq!(out.report, report);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest fields with raw JSON values outside their domain: counts no
/// `u32`/`u64` holds, negative or fractional counts, and values of the
/// wrong JSON type.
const BAD_VALUES: &[(&str, &[&str])] = &[
    ("version", &["-1", "4294967296", "3.5", "\"3\"", "999"]),
    ("config_fp", &["7", "null", "[]"]),
    ("polled", &["-1", "18446744073709551616", "1e30"]),
    ("millis", &["-5", "2.5", "true"]),
    ("staged_fp", &["7", "{}"]),
    ("status", &["\"unknown\"", "0"]),
    ("tables", &["{}", "7", "null"]),
];

/// One seeded mutant of a valid manifest: a truncation, a flipped
/// structural byte, an inserted byte that is not UTF-8, the manifest
/// nested thousands of levels deep, or a field value outside its domain.
fn mutate_manifest(rng: &mut Rng, json: &str) -> Vec<u8> {
    let mut bytes = json.as_bytes().to_vec();
    match rng.below(5) {
        0 => bytes.truncate(rng.below(bytes.len())),
        1 => {
            let offsets = structural_offsets(&bytes);
            let at = offsets[rng.below(offsets.len())];
            bytes[at] ^= 1 + rng.below(255) as u8;
        }
        2 => bytes.insert(rng.below(bytes.len() + 1), [0xFF, 0x80, 0xC3][rng.below(3)]),
        3 => bytes = nest(rng, json).into_bytes(),
        _ => {
            let (key, values) = BAD_VALUES[rng.below(BAD_VALUES.len())];
            bytes = with_value(json, key, values[rng.below(values.len())]).into_bytes();
        }
    }
    bytes
}

/// Seeded manifest fuzz: every mutant of a recorded manifest must yield
/// `Ok` without a panic, within `CASE_BOUND` (10 s) per case; its memory
/// is bounded by the loader's read limit (`MAX_MANIFEST_BYTES`, 64 MiB,
/// far above these few-KB mutants). A mutant that does not parse as a manifest of
/// this version and config must count one fallback and redo with
/// from-scratch bytes. A mutant that still parses as a current manifest
/// is trusted like any manifest, so only `Ok` is asked of it.
#[test]
fn mutated_manifests_fall_back_without_failing() {
    const CASE_BOUND: Duration = Duration::from_secs(10);

    let dir = temp_dir("manifest-fuzz");
    let (src, tgt) = write_pair(&dir, 5);
    let opts = opts_for(0);
    let state = explain_state(&tgt, None);
    let (report, ..) = from_scratch(&src, &tgt, &opts);
    explain_delta(&src, &tgt, &opts, &state).unwrap();
    let recorded = std::fs::read_to_string(&state).unwrap();
    let config_fp = config_fingerprint(&opts.config, opts.align);

    let mut rng = Rng(0xDE17_A5EE_D000_0001);
    let mut fell_back = 0;
    for case in 0..48 {
        let mutant = mutate_manifest(&mut rng, &recorded);
        let current = std::str::from_utf8(&mutant)
            .ok()
            .and_then(|text| serde_json::from_str::<DeltaManifest>(text).ok())
            .is_some_and(|m| m.version == DELTA_FORMAT_VERSION && m.config_fp == config_fp);
        std::fs::write(&state, &mutant).unwrap();
        let shown = String::from_utf8_lossy(&mutant);
        let started = Instant::now();
        let out = explain_delta(&src, &tgt, &opts, &state)
            .unwrap_or_else(|e| panic!("case {case}: {e} on {shown}"));
        assert!(
            started.elapsed() < CASE_BOUND,
            "case {case} took {:?}",
            started.elapsed()
        );
        if !current {
            fell_back += 1;
            assert_eq!(out.stats.fallbacks, 1, "case {case}: {shown}");
            assert!(!out.spliced, "case {case}: {shown}");
            assert_eq!(out.report, report, "case {case}: {shown}");
        }
    }
    assert!(fell_back > 24, "only {fell_back} mutants were invalid");
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest recorded under one ingest chunking or thread count splices
/// under another: the config fingerprint deliberately excludes
/// byte-transparent knobs (ingest chunking, scheduling), and only them.
#[test]
fn the_manifest_is_portable_across_byte_transparent_knobs() {
    let dir = temp_dir("portable");
    let (src, tgt) = write_pair(&dir, 9);
    let default = opts_for(0);
    let mut chunked = opts_for(0);
    chunked.ingest.chunk_rows = 3;
    let mut threads4 = opts_for(0);
    threads4.config.threads = 4;
    for transparent in [&chunked, &threads4] {
        assert_eq!(
            config_fingerprint(&default.config, default.align),
            config_fingerprint(&transparent.config, transparent.align)
        );
    }
    let mut reseeded = opts_for(0);
    reseeded.config.seed ^= 1;
    assert_ne!(
        config_fingerprint(&default.config, default.align),
        config_fingerprint(&reseeded.config, reseeded.align),
        "search-shaping knobs must invalidate the manifest"
    );

    let state = explain_state(&tgt, None);
    let cold = explain_delta(&src, &tgt, &default, &state).unwrap();
    for (knob, opts) in [("3-row chunks", &chunked), ("threads = 4", &threads4)] {
        let warm = explain_delta(&src, &tgt, opts, &state).unwrap();
        assert!(
            warm.spliced,
            "a manifest recorded at the defaults must splice under {knob}"
        );
        assert_eq!(warm.report, cold.report);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Directory-level sweep: `profile --delta` renders byte-identically
/// (timing stripped) to `profile_dirs` across both paper configurations
/// × two ingest chunkings — redoing exactly the edited table, splicing a
/// CRLF-rewritten one on the staged tier, and falling back to a full redo
/// on a corrupted manifest.
#[test]
fn profile_delta_matches_from_scratch_across_the_matrix() {
    let canonical = |mut p: SnapshotProfile| {
        p.strip_timing();
        format!("{}\n{}", p.render(), p.to_json())
    };
    for seed in [0u64, 1, 4, 5] {
        let opts = opts_for(seed);
        let dir = temp_dir("matrix");
        let before = dir.join("before");
        let after = dir.join("after");
        std::fs::create_dir_all(&before).unwrap();
        std::fs::create_dir_all(&after).unwrap();
        for t in 0..3u64 {
            let sub = temp_dir("matrix-pair");
            let (src, tgt) = write_pair(&sub, seed * 10 + t);
            std::fs::rename(&src, before.join(format!("table{t}.csv"))).unwrap();
            std::fs::rename(&tgt, after.join(format!("table{t}.csv"))).unwrap();
            std::fs::remove_dir_all(&sub).ok();
        }
        let state = default_profile_state(&after);
        let (seeded, _) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(
            canonical(seeded),
            canonical(profile_dirs(&before, &after, &opts).unwrap())
        );

        // Edit one table; the delta rerun redoes exactly that pair and
        // still matches a from-scratch profile byte-for-byte.
        let edited_path = after.join("table1.csv");
        let text = std::fs::read_to_string(&edited_path).unwrap();
        std::fs::write(&edited_path, apply_edit(0, seed, &text)).unwrap();
        let (delta, stats) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(
            canonical(delta),
            canonical(profile_dirs(&before, &after, &opts).unwrap()),
            "divergence at seed {seed}"
        );
        assert_eq!(stats.pairs_redone, 1);
        assert_eq!(stats.pairs_spliced, 2);
        assert_eq!(stats.fallbacks, 0);

        // A CRLF rewrite of one table: new raw bytes, identical records —
        // every pair splices (that one on the staged tier).
        let crlf_path = after.join("table2.csv");
        let text = std::fs::read_to_string(&crlf_path).unwrap();
        std::fs::write(&crlf_path, apply_edit(5, seed, &text)).unwrap();
        let expected = canonical(profile_dirs(&before, &after, &opts).unwrap());
        let (crlf, stats) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(canonical(crlf), expected, "CRLF divergence at seed {seed}");
        assert_eq!(
            (stats.pairs_spliced, stats.pairs_redone, stats.fallbacks),
            (3, 0, 0),
            "a CRLF rewrite must splice at seed {seed}"
        );

        // A corrupted manifest falls back to a full, correct redo that
        // rewrites the manifest, so the next run splices every table.
        std::fs::write(&state, "{not json").unwrap();
        let (redone, stats) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(
            canonical(redone),
            expected,
            "fallback divergence at seed {seed}"
        );
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.pairs_redone, 3);
        let (warm, stats) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(canonical(warm), expected);
        assert_eq!(
            (stats.pairs_spliced, stats.pairs_redone, stats.fallbacks),
            (3, 0, 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
