//! Incremental re-profiling (`--delta`): one staged fingerprint per pair.
//!
//! A profiling run spends almost all of its time re-deriving answers for
//! table pairs that did not change since the previous run. This module
//! persists a compact *manifest* next to each run — per pair the raw file
//! fingerprints, one [`staged_fingerprint`] of the staged instance, the
//! rendered report and the summary row — and on a re-run splices prior
//! results for clean pairs while only dirty pairs re-enter the search.
//!
//! `explain --delta` and `profile --delta` share everything but their
//! manifest I/O: one manifest shape ([`DeltaManifest`], format v3 — an
//! explain manifest is a profile manifest with a single entry), one
//! loader, and one per-pair routine that decides between the two splice
//! tiers and a redo. [`explain_delta_with`] and [`profile_dirs_delta`]
//! are thin callers around it.
//!
//! Reuse is **per pair, all or nothing**. The search itself is a
//! best-first exploration whose polled/generated trajectory feeds user
//! output; warm-starting it from partial prior state would change those
//! bytes. So a pair is either *spliced* (its stored result still applies)
//! or fully *redone*.
//!
//! Two splice tiers, each plain equality under an equal config
//! fingerprint:
//!
//! 1. **Raw tier** — the source and target file fingerprints match the
//!    manifest: the stored report and summary row are the answer, zero
//!    ingestion.
//! 2. **Staged tier** — the raw bytes differ but, after ingest and
//!    staging, the [`staged_fingerprint`] matches (a CRLF or quoting
//!    no-op rewrite): the stored record with refreshed raw fingerprints,
//!    so the next run of this byte form takes the raw tier.
//!
//! The staged tier trusts its fingerprint exactly as the raw tier trusts
//! the file fingerprints: the search is deterministic in (staged pair,
//! config), so equal staged pairs under an equal config produce the
//! stored bytes. A file that cannot be fingerprinted skips the raw tier;
//! staging then reports the failure with the message a from-scratch run
//! gives.
//!
//! The load-bearing invariant — proven by the delta-fuzz battery in
//! `tests/properties_delta.rs` — is that for every input and every edit
//! the delta output bytes equal the from-scratch output bytes; a
//! fingerprint mismatch can only ever cost time, never correctness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use affidavit_store::{fingerprint_file, manifest, Fingerprint, Fnv, SessionKey};
use serde::{Deserialize, Serialize};

use crate::config::AffidavitConfig;
use crate::instance::ProblemInstance;
use crate::profiling::{
    outcome_for, paired_csv_stems, stage_file_pair, table_stem, ProfileOptions, SnapshotProfile,
    TableOutcome, TableProfile,
};
use crate::report::render_report;
use crate::search::Affidavit;

/// Manifest format version. Bumped on any incompatible change so stale
/// manifests fall back to a full redo instead of misparsing.
pub const DELTA_FORMAT_VERSION: u32 = 3;

/// Largest manifest file the loader reads, in bytes. A manifest holds
/// about 1 KB per pair, most of it the rendered report, so this is far
/// above any real one; a larger file is a typed I/O error and a fallback
/// redo.
pub const MAX_MANIFEST_BYTES: u64 = 64 << 20;

/// Everything needed to splice one table pair without re-searching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairRecord {
    /// Raw content fingerprint of the source CSV file; empty when the
    /// file could not be fingerprinted, which no raw tier ever matches.
    pub source_fp: String,
    /// Raw content fingerprint of the target CSV file (empty likewise).
    pub target_fp: String,
    /// [`staged_fingerprint`] of the staged pair.
    pub staged_fp: String,
    /// The rendered report at record time.
    pub report: String,
    /// The summary row at record time.
    pub outcome: TableOutcome,
    /// Search states polled at record time.
    pub polled: u64,
    /// Search states generated at record time.
    pub generated: u64,
    /// Search wall time at record time, in milliseconds.
    pub millis: u64,
}

/// One table's entry in a [`DeltaManifest`], keyed by file stem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableRecord {
    /// Table name (file stem), the pairing key across runs.
    pub stem: String,
    /// The splice state for this pair.
    pub pair: PairRecord,
}

/// The persisted state of a `--delta` run. A `profile` manifest holds
/// one entry per explained table (tables that failed or were missing in
/// one snapshot carry none and always re-derive); an `explain` manifest
/// holds the single explained pair, keyed by its target's file stem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeltaManifest {
    /// [`DELTA_FORMAT_VERSION`] at write time.
    pub version: u32,
    /// [`config_fingerprint`] at write time.
    pub config_fp: String,
    /// Per-table records, sorted by stem.
    pub tables: Vec<TableRecord>,
}

/// Reuse counters for one delta run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Broken-manifest events (unreadable or unparsable, version or
    /// config mismatch) that forced a full redo. Plain data dirt is *not*
    /// a fallback.
    pub fallbacks: u64,
    /// Pairs spliced without a search.
    pub pairs_spliced: u64,
    /// Pairs that re-entered the search.
    pub pairs_redone: u64,
}

impl DeltaStats {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: DeltaStats) {
        self.fallbacks += other.fallbacks;
        self.pairs_spliced += other.pairs_spliced;
        self.pairs_redone += other.pairs_redone;
    }

    /// Publish the counters to the process-global metrics registry
    /// (`delta_pairs_spliced_total` …), where the resident service's
    /// metrics endpoint renders them.
    pub fn publish(&self) {
        let m = affidavit_obs::metrics();
        m.add_counter("delta_fallbacks_total", self.fallbacks);
        m.add_counter("delta_pairs_spliced_total", self.pairs_spliced);
        m.add_counter("delta_pairs_redone_total", self.pairs_redone);
    }

    /// One-line human summary for stderr diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "{} pairs spliced, {} redone, {} fallbacks",
            self.pairs_spliced, self.pairs_redone, self.fallbacks
        )
    }
}

/// The result of an `explain --delta` run.
pub struct DeltaReport {
    /// The rendered report — byte-identical to a from-scratch run.
    pub report: String,
    /// Search states polled (stored value when spliced).
    pub polled: u64,
    /// Search states generated (stored value when spliced).
    pub generated: u64,
    /// Search wall time (stored value when spliced).
    pub duration: Duration,
    /// Whether the result was spliced from the manifest.
    pub spliced: bool,
    /// Reuse counters for this run.
    pub stats: DeltaStats,
    /// The staged instance, when the run went through the search (used
    /// by differential tests to compare pool state against a
    /// from-scratch run). `None` when spliced.
    pub instance: Option<ProblemInstance>,
}

/// Fingerprint the parts of the configuration that shape output bytes:
/// the search configuration and schema alignment. Ingestion chunking and
/// the scheduling knob `threads` are deliberately excluded — they are
/// byte-transparent, so a manifest recorded under one thread count or
/// chunking splices under another.
pub fn config_fingerprint(config: &AffidavitConfig, align: bool) -> String {
    let shaping = AffidavitConfig {
        threads: AffidavitConfig::default().threads,
        ..config.clone()
    };
    let mut fnv = Fnv::new();
    fnv.update_str(&serde_json::to_string(&shaping).expect("configs are serializable"));
    fnv.update(&[u8::from(align)]);
    fnv.update_u64(u64::from(DELTA_FORMAT_VERSION));
    fnv.finish().to_string()
}

/// Fingerprint a staged pair: FNV-1a over the schema names, both row
/// counts, and every cell's resolved string, column by column (source
/// first). It hashes strings, never `Sym` values, so it does not depend
/// on interning order (a warm session and a cold ingest agree); and it
/// hashes cells in record order, so a row reorder changes it even when
/// the multiset of rows is unchanged. Equal fingerprints therefore mean,
/// up to a 64-bit hash collision, that the staged tables are equal as
/// indexed sequences.
pub fn staged_fingerprint(instance: &ProblemInstance) -> Fingerprint {
    let mut fnv = Fnv::new();
    let schema = instance.schema();
    fnv.update_u64(schema.arity() as u64);
    for name in schema.names() {
        fnv.update_str(name);
    }
    fnv.update_u64(instance.source.len() as u64);
    fnv.update_u64(instance.target.len() as u64);
    for table in [&instance.source, &instance.target] {
        for column in table.columns().iter() {
            for &sym in column {
                fnv.update_str(instance.pool.get(sym));
            }
        }
    }
    fnv.finish()
}

/// Manifest path for `explain --delta`: `DIR/explain.affidavit-delta.json`
/// under a `--delta-state DIR`, else a sibling of the target CSV named
/// `<target>.affidavit-delta.json`.
pub fn explain_state(target: &Path, state_dir: Option<&Path>) -> PathBuf {
    if let Some(dir) = state_dir {
        return dir.join("explain.affidavit-delta.json");
    }
    let mut name = target
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "target".to_owned());
    name.push_str(".affidavit-delta.json");
    target.with_file_name(name)
}

/// Manifest path for `profile --delta`: `DIR/profile.affidavit-delta.json`
/// under a `--delta-state DIR`, else [`default_profile_state`].
pub fn profile_state(target_dir: &Path, state_dir: Option<&Path>) -> PathBuf {
    match state_dir {
        Some(dir) => dir.join("profile.affidavit-delta.json"),
        None => default_profile_state(target_dir),
    }
}

/// Default manifest path for `profile --delta`:
/// `<target_dir>/.affidavit-delta.json` (invisible to the `*.csv` stem
/// enumeration).
pub fn default_profile_state(target_dir: &Path) -> PathBuf {
    target_dir.join(".affidavit-delta.json")
}

/// How [`delta_pair`] answered one table pair.
enum Answer {
    /// The raw fingerprints matched: the stored record, untouched.
    Raw,
    /// The staged fingerprint matched: the stored record with refreshed
    /// raw fingerprints.
    Staged,
    /// A fresh search over the staged instance.
    Redo {
        /// The instance the search ran on.
        instance: Box<ProblemInstance>,
        /// The search's own wall time.
        duration: Duration,
    },
}

/// A staging hook: stages the pair, given its content fingerprints as a
/// [`SessionKey`] (`None` when a file could not be fingerprinted).
pub type StageHook<'a> = dyn FnMut(Option<SessionKey>) -> Result<ProblemInstance, String> + 'a;

/// The one splice-or-redo routine behind every `--delta` path: answer
/// one table pair from its `prior` record on the raw tier, else stage it
/// (through `stage`, which runs at most once) and answer on the staged
/// tier, else search. Each file is fingerprinted once; `stage` receives
/// those fingerprints. The returned record is what the next run's
/// manifest stores for the pair; `Err` is a staging failure, worded as a
/// from-scratch run words it.
fn delta_pair(
    prior: Option<&PairRecord>,
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    stage: &mut StageHook<'_>,
    stats: &mut DeltaStats,
) -> Result<(PairRecord, Answer), String> {
    // An unreadable file skips the raw tier; staging reports it below.
    let (src_fp, tgt_fp) = (fingerprint_file(source).ok(), fingerprint_file(target).ok());
    let key = src_fp
        .zip(tgt_fp)
        .map(|(source, target)| SessionKey { source, target });
    let source_fp = src_fp.map(|fp| fp.to_string()).unwrap_or_default();
    let target_fp = tgt_fp.map(|fp| fp.to_string()).unwrap_or_default();

    if let Some(rec) = prior {
        let raw_clean = {
            let _s = affidavit_obs::span("delta.diff");
            key.is_some() && source_fp == rec.source_fp && target_fp == rec.target_fp
        };
        if raw_clean {
            let _s = affidavit_obs::span("delta.splice");
            stats.pairs_spliced += 1;
            return Ok((rec.clone(), Answer::Raw));
        }
    }

    let mut instance = stage(key)?;
    let staged_fp = {
        let _s = affidavit_obs::span("delta.diff");
        staged_fingerprint(&instance).to_string()
    };
    if let Some(rec) = prior {
        if staged_fp == rec.staged_fp {
            let _s = affidavit_obs::span("delta.splice");
            stats.pairs_spliced += 1;
            let refreshed = PairRecord {
                source_fp,
                target_fp,
                ..rec.clone()
            };
            return Ok((refreshed, Answer::Staged));
        }
        affidavit_obs::diag(
            "delta.diff",
            &format!("{}: staged pair changed, redo", table_stem(target)),
        );
    }

    let _s = affidavit_obs::span("delta.redo");
    let started = Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    stats.pairs_redone += 1;
    let record = PairRecord {
        source_fp,
        target_fp,
        staged_fp,
        report: render_report(&outcome.explanation, &instance),
        outcome: outcome_for(&outcome.explanation, &instance, millis),
        polled: outcome.stats.polled as u64,
        generated: outcome.stats.states_generated as u64,
        millis,
    };
    let answer = Answer::Redo {
        instance: Box::new(instance),
        duration: outcome.stats.duration,
    };
    Ok((record, answer))
}

/// Load the manifest at `state` if this format version wrote it under
/// this configuration. A missing file is a first run; any other unusable
/// state (unreadable, over [`MAX_MANIFEST_BYTES`], unparsable, stale)
/// counts a fallback and yields no records.
fn load_manifest(state: &Path, config_fp: &str, stats: &mut DeltaStats) -> Vec<TableRecord> {
    let loaded = match manifest::load_string(state, MAX_MANIFEST_BYTES) {
        Ok(None) => return Vec::new(),
        Ok(Some(text)) => serde_json::from_str::<DeltaManifest>(&text)
            .map_err(|e| format!("unparsable manifest ({e})"))
            .and_then(|m| {
                (m.version == DELTA_FORMAT_VERSION && m.config_fp == config_fp)
                    .then_some(m.tables)
                    .ok_or_else(|| "version or config mismatch".to_owned())
            }),
        Err(e) => Err(e.to_string()),
    };
    loaded.unwrap_or_else(|reason| {
        stats.fallbacks += 1;
        affidavit_obs::diag(
            "delta.fallback",
            &format!("{}: {reason}, full redo", state.display()),
        );
        Vec::new()
    })
}

/// Save the manifest. A save failure must not fail the run — delta is an
/// optimization; the report is already correct.
fn save_manifest(state: &Path, config_fp: String, tables: Vec<TableRecord>) {
    let json = serde_json::to_string(&DeltaManifest {
        version: DELTA_FORMAT_VERSION,
        config_fp,
        tables,
    })
    .expect("manifests are serializable");
    if let Err(e) = manifest::save_atomic(state, &json) {
        affidavit_obs::diag(
            "delta.state",
            &format!("{}: could not save manifest: {e}", state.display()),
        );
    }
}

/// `explain --delta` for one CSV pair, staging through the one-shot
/// ingestion path.
pub fn explain_delta(
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    state: &Path,
) -> Result<DeltaReport, String> {
    explain_delta_with(source, target, opts, state, &mut |_| {
        stage_file_pair(source, target, opts)
    })
}

/// `explain --delta` with a caller-supplied staging hook — the resident
/// service stages through its pinned-session LRU instead of a cold
/// ingest, keyed by the fingerprints the hook is handed, so no file is
/// fingerprinted twice. The hook runs zero times (raw-tier splice) or
/// once. The manifest holds the pair under its target's file stem and is
/// rewritten unless the raw tier answered.
pub fn explain_delta_with(
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    state: &Path,
    stage: &mut StageHook<'_>,
) -> Result<DeltaReport, String> {
    let config_fp = config_fingerprint(&opts.config, opts.align);
    let stem = table_stem(target);
    let mut stats = DeltaStats::default();
    let prior = load_manifest(state, &config_fp, &mut stats)
        .into_iter()
        .find(|t| t.stem == stem);
    let (record, answer) = delta_pair(
        prior.as_ref().map(|t| &t.pair),
        source,
        target,
        opts,
        stage,
        &mut stats,
    )?;
    if !matches!(answer, Answer::Raw) {
        let pair = record.clone();
        save_manifest(state, config_fp, vec![TableRecord { stem, pair }]);
    }
    stats.publish();
    let (duration, instance) = match answer {
        Answer::Redo { instance, duration } => (duration, Some(*instance)),
        Answer::Raw | Answer::Staged => (Duration::from_millis(record.millis), None),
    };
    Ok(DeltaReport {
        report: record.report,
        polled: record.polled,
        generated: record.generated,
        duration,
        spliced: instance.is_none(),
        stats,
        instance,
    })
}

/// `profile --delta`: profile two snapshot directories, splicing clean
/// table pairs from the manifest at `state` and re-searching only dirty
/// ones. The returned profile is byte-identical to
/// [`crate::profiling::profile_dirs`] on the same inputs (timing fields
/// aside — spliced rows keep their recorded `millis`).
pub fn profile_dirs_delta(
    source_dir: &Path,
    target_dir: &Path,
    opts: &ProfileOptions,
    state: &Path,
) -> Result<(SnapshotProfile, DeltaStats), String> {
    use rayon::prelude::*;

    let config_fp = config_fingerprint(&opts.config, opts.align);
    let mut stats = DeltaStats::default();
    let prior = load_manifest(state, &config_fp, &mut stats);
    let prior_by_stem: HashMap<&str, &PairRecord> =
        prior.iter().map(|t| (t.stem.as_str(), &t.pair)).collect();

    let pairs = paired_csv_stems(source_dir, target_dir)?;
    let results: Vec<(TableProfile, Option<TableRecord>, DeltaStats)> = pairs
        .par_iter()
        .map(|pair| {
            let mut table_stats = DeltaStats::default();
            let (outcome, record) = match (&pair.source, &pair.target) {
                (Some(src), Some(tgt)) => match delta_pair(
                    prior_by_stem.get(pair.name.as_str()).copied(),
                    src,
                    tgt,
                    opts,
                    &mut |_| stage_file_pair(src, tgt, opts),
                    &mut table_stats,
                ) {
                    Ok((record, _)) => (
                        record.outcome.clone(),
                        Some(TableRecord {
                            stem: pair.name.clone(),
                            pair: record,
                        }),
                    ),
                    Err(reason) => (TableOutcome::Failed { reason }, None),
                },
                (Some(_), None) => (TableOutcome::MissingInTarget, None),
                (None, Some(_)) => (TableOutcome::MissingInSource, None),
                (None, None) => unreachable!("a paired stem exists in at least one snapshot"),
            };
            let profile = TableProfile {
                name: pair.name.clone(),
                outcome,
            };
            (profile, record, table_stats)
        })
        .collect();

    let mut tables = Vec::with_capacity(results.len());
    let mut records = Vec::new();
    for (profile, record, table_stats) in results {
        stats.merge(table_stats);
        tables.push(profile);
        records.extend(record);
    }
    save_manifest(state, config_fp, records);
    stats.publish();
    Ok((SnapshotProfile { tables }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_pair(root: &Path, src: &str, tgt: &str) -> (PathBuf, PathBuf) {
        std::fs::create_dir_all(root).unwrap();
        let s = root.join("src.csv");
        let t = root.join("tgt.csv");
        std::fs::write(&s, src).unwrap();
        std::fs::write(&t, tgt).unwrap();
        (s, t)
    }

    fn scratch_report(s: &Path, t: &Path, opts: &ProfileOptions) -> String {
        let mut instance = stage_file_pair(s, t, opts).unwrap();
        let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
        render_report(&outcome.explanation, &instance)
    }

    #[test]
    fn explain_delta_splices_then_redoes_on_edit() {
        let root = std::env::temp_dir().join("affidavit-delta-explain-test");
        std::fs::remove_dir_all(&root).ok();
        let src = "k,v\nk0,1000\nk1,2000\nk2,3000\n";
        let (s, t) = write_pair(&root, src, "k,v\nk0,1\nk1,2\nk2,3\n");
        let opts = ProfileOptions::default();
        let state = explain_state(&t, None);
        assert!(state.ends_with("tgt.csv.affidavit-delta.json"));
        assert_eq!(
            explain_state(&t, Some(&root)),
            root.join("explain.affidavit-delta.json")
        );

        let first = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!first.spliced);
        assert_eq!(
            (first.stats.pairs_redone, first.stats.pairs_spliced),
            (1, 0)
        );
        assert_eq!(first.report, scratch_report(&s, &t, &opts));

        // Unchanged inputs: raw-tier splice, byte-identical report.
        let second = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(second.spliced);
        assert_eq!(
            (second.stats.pairs_spliced, second.stats.pairs_redone),
            (1, 0)
        );
        assert_eq!(second.report, first.report);

        // A CRLF rewrite dirties the raw tier but splices on the staged
        // tier (the staged fingerprint still matches).
        std::fs::write(&t, "k,v\r\nk0,1\r\nk1,2\r\nk2,3\r\n").unwrap();
        let crlf = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(
            crlf.spliced,
            "no-op rewrite must splice: {}",
            crlf.stats.summary()
        );
        assert_eq!(crlf.report, first.report);
        // ... and the refreshed manifest makes the next run raw-tier again.
        let warm = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(warm.spliced && warm.instance.is_none());

        // A real edit forces a redo whose report matches from-scratch.
        std::fs::write(&t, "k,v\nk0,1\nk1,9\nk2,3\n").unwrap();
        let edited = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!edited.spliced);
        assert_eq!(edited.stats.fallbacks, 0, "data dirt is not a fallback");
        assert_eq!(edited.report, scratch_report(&s, &t, &opts));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn profile_state_sits_in_the_state_dir_or_the_target_dir() {
        let (tgt, state) = (Path::new("snap/tgt"), Path::new("state"));
        assert_eq!(
            profile_state(tgt, Some(state)),
            state.join("profile.affidavit-delta.json")
        );
        assert_eq!(profile_state(tgt, None), default_profile_state(tgt));
        assert_eq!(
            default_profile_state(tgt),
            tgt.join(".affidavit-delta.json")
        );
    }

    #[test]
    fn the_staging_hook_is_handed_the_raw_tier_fingerprints() {
        let root = std::env::temp_dir().join("affidavit-delta-hook-key-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "k,v\nk0,1\n", "k,v\nk0,2\n");
        let opts = ProfileOptions::default();
        let state = explain_state(&t, Some(&root));
        let mut keys = Vec::new();
        explain_delta_with(&s, &t, &opts, &state, &mut |key| {
            keys.push(key);
            stage_file_pair(&s, &t, &opts)
        })
        .unwrap();
        assert_eq!(keys, [Some(SessionKey::for_files(&s, &t).unwrap())]);
        // A file that cannot be fingerprinted hands over no key; staging
        // then fails with its own wording.
        let missing = root.join("missing.csv");
        let mut keys = Vec::new();
        let Err(err) = explain_delta_with(&s, &missing, &opts, &state, &mut |key| {
            keys.push(key);
            stage_file_pair(&s, &missing, &opts)
        }) else {
            panic!("a missing target must fail");
        };
        assert_eq!(keys, [None]);
        assert!(err.contains("missing.csv: I/O error"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_corrupt_manifest_falls_back_to_a_correct_redo() {
        let root = std::env::temp_dir().join("affidavit-delta-corrupt-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "a\n1\n2\n", "a\n1\n2\n");
        let opts = ProfileOptions::default();
        let state = root.join("state.json");
        explain_delta(&s, &t, &opts, &state).unwrap();

        std::fs::write(&state, "{not json").unwrap();
        let report = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!report.spliced);
        assert_eq!(report.stats.fallbacks, 1);
        assert_eq!(report.report, scratch_report(&s, &t, &opts));
        // The redo rewrote a valid manifest; the next run splices again.
        assert!(explain_delta(&s, &t, &opts, &state).unwrap().spliced);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_over_bound_manifest_falls_back_to_a_correct_redo() {
        let root = std::env::temp_dir().join("affidavit-delta-over-bound-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "a\n1\n2\n", "a\n1\n3\n");
        let opts = ProfileOptions::default();
        let state = root.join("state.json");
        explain_delta(&s, &t, &opts, &state).unwrap();

        // A sparse file one byte over the bound: no disk blocks, and the
        // loader rejects it without reading it.
        let file = std::fs::File::create(&state).unwrap();
        file.set_len(MAX_MANIFEST_BYTES + 1).unwrap();
        drop(file);
        let report = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!report.spliced);
        assert_eq!(report.stats.fallbacks, 1);
        assert_eq!(report.report, scratch_report(&s, &t, &opts));
        // The redo replaced it with a valid manifest.
        assert!(explain_delta(&s, &t, &opts, &state).unwrap().spliced);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_changed_staged_fingerprint_redoes_from_scratch() {
        let root = std::env::temp_dir().join("affidavit-delta-staged-fp-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "k,v\nk0,1000\nk1,2000\n", "k,v\nk0,1\nk1,2\n");
        let opts = ProfileOptions::default();
        let state = root.join("state.json");
        explain_delta(&s, &t, &opts, &state).unwrap();

        // An explain manifest is the one manifest shape with one entry,
        // keyed by the target's stem. Tamper with its staged fingerprint.
        let mut manifest: DeltaManifest =
            serde_json::from_str(&std::fs::read_to_string(&state).unwrap()).unwrap();
        assert_eq!(manifest.tables.len(), 1);
        assert_eq!(manifest.tables[0].stem, "tgt");
        manifest.tables[0].pair.staged_fp = "0000000000000000-0".to_owned();
        std::fs::write(&state, serde_json::to_string(&manifest).unwrap()).unwrap();

        // The raw tier still answers from the stored report...
        assert!(explain_delta(&s, &t, &opts, &state).unwrap().spliced);
        // ... but after a CRLF rewrite the staged tier sees a changed
        // pair: a plain redo (data dirt, not a fallback).
        std::fs::write(&t, "k,v\r\nk0,1\r\nk1,2\r\n").unwrap();
        let crlf = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!crlf.spliced);
        assert_eq!((crlf.stats.pairs_redone, crlf.stats.fallbacks), (1, 0));
        assert_eq!(crlf.report, scratch_report(&s, &t, &opts));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_staged_fingerprint_ignores_interning_order_and_sees_reorders() {
        use affidavit_table::{Schema, Table, ValuePool};
        let instance = |decoy: bool, rows: &[[&str; 2]]| {
            let mut pool = ValuePool::new();
            if decoy {
                pool.intern("decoy"); // shift every Sym
            }
            let rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
            let s = Table::from_rows(Schema::new(["k", "v"]), &mut pool, rows.clone());
            let t = Table::from_rows(Schema::new(["k", "v"]), &mut pool, rows);
            ProblemInstance::new(s, t, pool).unwrap()
        };
        let base = staged_fingerprint(&instance(false, &[["a", "1"], ["b", "2"]]));
        assert_eq!(
            base,
            staged_fingerprint(&instance(true, &[["a", "1"], ["b", "2"]]))
        );
        for changed in [
            &[["b", "2"], ["a", "1"]][..],
            &[["a", "1"], ["b", "9"]],
            &[["a", "1"]],
            &[["a", "1"], ["b", "2"], ["c", "3"]],
        ] {
            assert_ne!(base, staged_fingerprint(&instance(false, changed)));
        }
    }

    #[test]
    fn a_config_change_invalidates_the_manifest() {
        let root = std::env::temp_dir().join("affidavit-delta-config-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "a\n1\n", "a\n1\n");
        let state = root.join("state.json");
        let id = ProfileOptions::default();
        explain_delta(&s, &t, &id, &state).unwrap();
        let sem = ProfileOptions {
            config: AffidavitConfig::paper_overlap(),
            ..ProfileOptions::default()
        };
        let report = explain_delta(&s, &t, &sem, &state).unwrap();
        assert!(!report.spliced);
        assert_eq!(report.stats.fallbacks, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn profile_delta_reuses_clean_tables_and_redoes_dirty_ones() {
        let root = std::env::temp_dir().join("affidavit-delta-profile-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("before");
        let tgt = root.join("after");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        for i in 0..4 {
            let body: String = (0..10).map(|r| format!("k{r},{}\n", r * (i + 1))).collect();
            std::fs::write(src.join(format!("t{i}.csv")), format!("k,v\n{body}")).unwrap();
            std::fs::write(tgt.join(format!("t{i}.csv")), format!("k,v\n{body}")).unwrap();
        }
        std::fs::write(src.join("gone.csv"), "a\n1\n").unwrap();
        let opts = ProfileOptions::default();
        let state = default_profile_state(&tgt);

        let (first, s1) = profile_dirs_delta(&src, &tgt, &opts, &state).unwrap();
        assert_eq!(s1.pairs_redone, 4);
        let baseline = {
            let mut p = crate::profiling::profile_dirs(&src, &tgt, &opts).unwrap();
            p.strip_timing();
            p.to_json()
        };
        let strip = |mut p: SnapshotProfile| {
            p.strip_timing();
            p.to_json()
        };
        assert_eq!(strip(first), baseline);

        // Clean re-run: everything splices, nothing redone.
        let (second, s2) = profile_dirs_delta(&src, &tgt, &opts, &state).unwrap();
        assert_eq!(s2.pairs_spliced, 4);
        assert_eq!(s2.pairs_redone, 0);
        assert_eq!(strip(second), baseline);

        // Edit one table: exactly one pair redone, profile still matches
        // from-scratch.
        let edited = tgt.join("t2.csv");
        let mut body = std::fs::read_to_string(&edited).unwrap();
        body.push_str("k10,999\n");
        std::fs::write(&edited, body).unwrap();
        let (third, s3) = profile_dirs_delta(&src, &tgt, &opts, &state).unwrap();
        assert_eq!(s3.pairs_redone, 1);
        assert_eq!(s3.pairs_spliced, 3);
        let rebaseline = {
            let mut p = crate::profiling::profile_dirs(&src, &tgt, &opts).unwrap();
            p.strip_timing();
            p.to_json()
        };
        assert_eq!(strip(third), rebaseline);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn config_fingerprint_separates_configs_and_align() {
        let id = AffidavitConfig::paper_id();
        let sem = AffidavitConfig::paper_overlap();
        assert_eq!(
            config_fingerprint(&id, false),
            config_fingerprint(&id, false)
        );
        assert_ne!(
            config_fingerprint(&id, false),
            config_fingerprint(&sem, false)
        );
        assert_ne!(
            config_fingerprint(&id, false),
            config_fingerprint(&id, true)
        );
        let scheduled = id.clone().with_threads(4);
        assert_eq!(
            config_fingerprint(&id, false),
            config_fingerprint(&scheduled, false),
            "the thread count is byte-transparent"
        );
    }
}
