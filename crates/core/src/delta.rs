//! Incremental re-profiling (`--delta`): fingerprinted block reuse.
//!
//! A profiling run spends almost all of its time re-deriving answers for
//! table pairs that did not change since the previous run. This module
//! persists a compact *manifest* next to each run — per-pair raw file
//! fingerprints, the final function assignment, the induced block-group
//! fingerprints of [`affidavit_blocking::delta`], the per-group partition
//! of the explanation, the rendered report and the summary row — and on a
//! re-run splices prior results for clean pairs while only dirty pairs
//! re-enter the search.
//!
//! `explain --delta` and `profile --delta` share everything but their
//! manifest I/O: one manifest shape ([`DeltaManifest`], format v2 — an
//! explain manifest is a profile manifest with a single entry), one
//! loader, and one per-pair routine that decides between the two splice
//! tiers and a redo. [`explain_delta_with`] and [`profile_dirs_delta`]
//! are thin callers around it.
//!
//! Reuse is **per pair, all or nothing**. The search itself is a
//! best-first exploration whose polled/generated trajectory feeds user
//! output; warm-starting it from partial prior state would change those
//! bytes. So a pair is either *spliced* (its stored result provably still
//! applies) or fully *redone* — the group fingerprints exist to make the
//! "provably" cheap and to resolve reuse counters at sub-pair granularity.
//!
//! Two splice tiers:
//!
//! 1. **Raw tier** — the source and target file fingerprints and the
//!    config fingerprint match the manifest: the stored report and
//!    summary row are the answer, zero ingestion.
//! 2. **Staged tier** — the raw bytes differ but, after ingest and
//!    staging, the header fingerprint and *every* block-group fingerprint
//!    match (a CRLF or quoting no-op rewrite): the stored explanation is
//!    reassembled from the per-group partition, [`Explanation::validate`]d
//!    against the freshly staged instance, re-rendered, and compared
//!    against the stored report byte for byte and against the stored
//!    summary row. Any mismatch at any step falls back to a full redo on
//!    a pristine re-staged instance.
//!
//! A file that cannot be fingerprinted skips the raw tier; staging then
//! reports the failure with the message a from-scratch run gives.
//!
//! The load-bearing invariant — proven by the delta-fuzz battery in
//! `tests/properties_delta.rs` — is that for every input and every edit
//! the delta output bytes equal the from-scratch output bytes; a
//! fingerprint mismatch can only ever cost time, never correctness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use affidavit_blocking::delta::{
    final_blocking, group_fingerprints, group_records, header_fingerprint,
};
use affidavit_store::{fingerprint_file, manifest};
use affidavit_table::{RecordId, ScratchPool};
use serde::{Deserialize, Serialize};

use crate::config::AffidavitConfig;
use crate::explanation::Explanation;
use crate::instance::ProblemInstance;
use crate::portable::PortableFunction;
use crate::profiling::{
    outcome_for, paired_csv_stems, stage_file_pair, table_stem, ProfileOptions, SnapshotProfile,
    TableOutcome, TableProfile,
};
use crate::report::render_report;
use crate::search::{Affidavit, SearchOutcome};

/// Manifest format version. Bumped on any incompatible change so stale
/// manifests fall back to a full redo instead of misparsing.
pub const DELTA_FORMAT_VERSION: u32 = 2;

/// One fingerprint group's slice of the stored explanation. Core pairs
/// are parallel arrays (`core_src[i]` aligns with `core_tgt[i]`); groups
/// are keyed by position, matching the group-fingerprint vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupRecord {
    /// The group fingerprint at record time (`Display` form).
    pub fp: String,
    /// Source ids of core pairs whose source record lives in this group.
    pub core_src: Vec<u32>,
    /// Target ids parallel to `core_src`.
    pub core_tgt: Vec<u32>,
    /// Deleted source ids in this group.
    pub deleted: Vec<u32>,
    /// Inserted target ids in this group.
    pub inserted: Vec<u32>,
}

/// Everything needed to splice one table pair without re-searching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairRecord {
    /// Raw content fingerprint of the source CSV file; empty when the
    /// file could not be fingerprinted, which no raw tier ever matches.
    pub source_fp: String,
    /// Raw content fingerprint of the target CSV file (empty likewise).
    pub target_fp: String,
    /// [`header_fingerprint`] of the staged pair's final blocking.
    pub header_fp: String,
    /// The final function assignment, in interning-independent form.
    pub functions: Vec<PortableFunction>,
    /// Per-group fingerprints and explanation slices (dead-source
    /// pseudo-group last, mirroring [`group_fingerprints`]).
    pub groups: Vec<GroupRecord>,
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

/// Reuse counters for one delta run. Block counts are in fingerprint
/// groups (see [`affidavit_blocking::delta::MAX_GROUPS`]); a spliced pair
/// reuses all of its groups, a redone pair redoes all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Fingerprint groups seen across all processed pairs.
    pub blocks_total: u64,
    /// Groups whose pair was spliced from the manifest.
    pub blocks_reused: u64,
    /// Groups whose pair re-entered the search.
    pub blocks_redone: u64,
    /// Broken-manifest events (unparsable, version or config mismatch,
    /// failed validation) that forced a full redo. Plain data dirt is
    /// *not* a fallback.
    pub fallbacks: u64,
    /// Pairs spliced without a search.
    pub pairs_spliced: u64,
    /// Pairs that re-entered the search.
    pub pairs_redone: u64,
}

impl DeltaStats {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: DeltaStats) {
        self.blocks_total += other.blocks_total;
        self.blocks_reused += other.blocks_reused;
        self.blocks_redone += other.blocks_redone;
        self.fallbacks += other.fallbacks;
        self.pairs_spliced += other.pairs_spliced;
        self.pairs_redone += other.pairs_redone;
    }

    /// Publish the counters to the process-global metrics registry
    /// (`delta_blocks_reused_total` …), where the resident service's
    /// metrics endpoint renders them.
    pub fn publish(&self) {
        let m = affidavit_obs::metrics();
        m.add_counter("delta_blocks_total", self.blocks_total);
        m.add_counter("delta_blocks_reused_total", self.blocks_reused);
        m.add_counter("delta_blocks_redone_total", self.blocks_redone);
        m.add_counter("delta_fallbacks_total", self.fallbacks);
        m.add_counter("delta_pairs_spliced_total", self.pairs_spliced);
        m.add_counter("delta_pairs_redone_total", self.pairs_redone);
    }

    /// One-line human summary for stderr diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} blocks reused, {} redone, {} fallbacks ({} pairs spliced, {} redone)",
            self.blocks_reused,
            self.blocks_total,
            self.blocks_redone,
            self.fallbacks,
            self.pairs_spliced,
            self.pairs_redone
        )
    }

    /// Count one finished pair of `record.groups.len()` groups.
    fn count(&mut self, record: &PairRecord, spliced: bool) {
        let n = record.groups.len() as u64;
        self.blocks_total += n;
        if spliced {
            self.blocks_reused += n;
            self.pairs_spliced += 1;
        } else {
            self.blocks_redone += n;
            self.pairs_redone += 1;
        }
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
/// the scheduling knobs (`threads`, `parallel_min_records`) are
/// deliberately excluded — they are byte-transparent, so a manifest
/// recorded under one thread count or chunking splices under another.
pub fn config_fingerprint(config: &AffidavitConfig, align: bool) -> String {
    let defaults = AffidavitConfig::default();
    let shaping = AffidavitConfig {
        threads: defaults.threads,
        parallel_min_records: defaults.parallel_min_records,
        ..config.clone()
    };
    let mut fnv = affidavit_store::Fnv::new();
    fnv.update_str(&serde_json::to_string(&shaping).expect("configs are serializable"));
    fnv.update(&[u8::from(align)]);
    fnv.update_u64(u64::from(DELTA_FORMAT_VERSION));
    fnv.finish().to_string()
}

/// Default manifest path for `explain --delta`: a sibling of the target
/// CSV named `<target>.affidavit-delta.json`.
pub fn default_explain_state(target: &Path) -> PathBuf {
    let mut name = target
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "target".to_owned());
    name.push_str(".affidavit-delta.json");
    target.with_file_name(name)
}

/// Default manifest path for `profile --delta`:
/// `<target_dir>/.affidavit-delta.json` (invisible to the `*.csv` stem
/// enumeration).
pub fn default_profile_state(target_dir: &Path) -> PathBuf {
    target_dir.join(".affidavit-delta.json")
}

/// Record the splice state of a finished search. Blocking is derived on
/// a scratch overlay so the instance pool is left untouched — the redo
/// path's pool bytes are compared against from-scratch runs by the fuzz
/// battery.
fn record_pair(
    (source_fp, target_fp): (String, String),
    outcome: &SearchOutcome,
    instance: &ProblemInstance,
    millis: u64,
) -> PairRecord {
    let explanation = &outcome.explanation;
    let mut scratch = ScratchPool::new(instance.pool.reader());
    let blocking = final_blocking(
        &explanation.functions,
        &instance.source,
        &instance.target,
        &mut scratch,
    );
    let fps = group_fingerprints(&blocking, &instance.source, &instance.target, &scratch);
    let header = header_fingerprint(&blocking, &instance.source, &instance.target);
    let map = group_records(&blocking, instance.source.len(), instance.target.len());
    let mut groups: Vec<GroupRecord> = fps
        .iter()
        .map(|fp| GroupRecord {
            fp: fp.to_string(),
            core_src: Vec::new(),
            core_tgt: Vec::new(),
            deleted: Vec::new(),
            inserted: Vec::new(),
        })
        .collect();
    for &(sid, tid) in explanation.core_pairs() {
        let g = map.src_group[sid.index()] as usize;
        groups[g].core_src.push(sid.0);
        groups[g].core_tgt.push(tid.0);
    }
    for &sid in &explanation.deleted {
        groups[map.src_group[sid.index()] as usize]
            .deleted
            .push(sid.0);
    }
    for &tid in &explanation.inserted {
        groups[map.tgt_group[tid.index()] as usize]
            .inserted
            .push(tid.0);
    }
    PairRecord {
        source_fp,
        target_fp,
        header_fp: header.to_string(),
        functions: explanation
            .functions
            .iter()
            .map(|f| PortableFunction::from_attr(f, &instance.pool))
            .collect(),
        groups,
        report: render_report(explanation, instance),
        outcome: outcome_for(explanation, instance, millis),
        polled: outcome.stats.polled as u64,
        generated: outcome.stats.states_generated as u64,
        millis,
    }
}

/// The outcome of checking a staged instance against a stored pair.
enum BlockCheck {
    /// Header and every group fingerprint match: the staged pair is
    /// identical (as indexed sequences) to the recorded one.
    Clean,
    /// Data changed; `dirty` of `total` groups differ.
    Dirty {
        /// Differing group count, for diagnostics.
        dirty: usize,
        /// Total group count of the staged instance.
        total: usize,
    },
    /// The manifest cannot be interpreted against this instance.
    Broken(String),
}

/// Re-derive the final blocking from the stored functions on a scratch
/// overlay and compare fingerprints against the stored groups.
fn check_blocks(pair: &PairRecord, instance: &ProblemInstance) -> BlockCheck {
    let mut scratch = ScratchPool::new(instance.pool.reader());
    let functions: Vec<_> = match pair
        .functions
        .iter()
        .map(|f| f.to_attr_in(&mut scratch))
        .collect::<Result<_, _>>()
    {
        Ok(fns) => fns,
        Err(e) => return BlockCheck::Broken(format!("manifest functions: {e}")),
    };
    if functions.len() != instance.arity() {
        return BlockCheck::Broken(format!(
            "manifest has {} functions for arity {}",
            functions.len(),
            instance.arity()
        ));
    }
    let blocking = final_blocking(&functions, &instance.source, &instance.target, &mut scratch);
    let fps = group_fingerprints(&blocking, &instance.source, &instance.target, &scratch);
    let total = fps.len();
    if header_fingerprint(&blocking, &instance.source, &instance.target).to_string()
        != pair.header_fp
        || total != pair.groups.len()
    {
        return BlockCheck::Dirty {
            dirty: total,
            total,
        };
    }
    let dirty = fps
        .iter()
        .zip(&pair.groups)
        .filter(|(fp, g)| fp.to_string() != g.fp)
        .count();
    if dirty == 0 {
        BlockCheck::Clean
    } else {
        BlockCheck::Dirty { dirty, total }
    }
}

/// Reassemble the stored explanation against a freshly staged instance,
/// validate it, re-render the report and the summary row, and require
/// both to match the stored ones. On success the stored record *is* the
/// from-scratch answer.
///
/// Interns into `instance.pool` (function constants, validation images);
/// on `Err` the caller must re-stage before redoing.
fn splice_pair(pair: &PairRecord, instance: &mut ProblemInstance) -> Result<(), String> {
    let functions = pair
        .functions
        .iter()
        .map(|f| f.to_attr(&mut instance.pool))
        .collect::<Result<Vec<_>, _>>()?;
    let n_src = instance.source.len() as u32;
    let n_tgt = instance.target.len() as u32;
    let mut core = Vec::new();
    let mut deleted = Vec::new();
    let mut inserted = Vec::new();
    for g in &pair.groups {
        if g.core_src.len() != g.core_tgt.len() {
            return Err("manifest group has unpaired core ids".to_owned());
        }
        for (&s, &t) in g.core_src.iter().zip(&g.core_tgt) {
            if s >= n_src || t >= n_tgt {
                return Err("manifest core id out of range".to_owned());
            }
            core.push((RecordId(s), RecordId(t)));
        }
        for &s in &g.deleted {
            if s >= n_src {
                return Err("manifest deleted id out of range".to_owned());
            }
            deleted.push(RecordId(s));
        }
        for &t in &g.inserted {
            if t >= n_tgt {
                return Err("manifest inserted id out of range".to_owned());
            }
            inserted.push(RecordId(t));
        }
    }
    // `Explanation::from_functions` emits core ascending by source id,
    // deleted ascending and inserted sorted; restore that order after the
    // per-group concatenation so rendering matches byte for byte.
    core.sort_unstable_by_key(|&(s, _)| s);
    deleted.sort_unstable();
    inserted.sort_unstable();
    let explanation = Explanation::new(functions, deleted, inserted, core);
    explanation.validate(instance)?;
    if render_report(&explanation, instance) != pair.report {
        return Err("stored report does not match the reassembled explanation".to_owned());
    }
    if outcome_for(&explanation, instance, pair.millis) != pair.outcome {
        return Err("stored outcome does not match".to_owned());
    }
    Ok(())
}

/// How [`delta_pair`] answered one table pair.
enum Answer {
    /// The raw fingerprints matched: the stored record, untouched.
    Raw,
    /// Every staged group fingerprint matched and the splice checked
    /// out: the stored record with refreshed raw fingerprints.
    Staged,
    /// A fresh search over the staged instance.
    Redo {
        /// The instance the search ran on.
        instance: Box<ProblemInstance>,
        /// The search's own wall time.
        duration: Duration,
    },
}

/// The one splice-or-redo routine behind every `--delta` path: answer
/// one table pair from its `prior` record on the raw tier, else stage it
/// (through `stage`, which runs once, or twice after a rejected
/// staged-tier splice) and answer on the staged tier, else search. The
/// returned record is what the next run's manifest stores for the pair;
/// `Err` is a staging failure, worded as a from-scratch run words it.
fn delta_pair(
    prior: Option<&PairRecord>,
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    stage: &mut dyn FnMut() -> Result<ProblemInstance, String>,
    stats: &mut DeltaStats,
) -> Result<(PairRecord, Answer), String> {
    let name = table_stem(target);
    // An unreadable file skips the raw tier; staging reports it below.
    let raw_fp = |path: &Path| fingerprint_file(path).ok().map(|fp| fp.to_string());
    let (raw_src, raw_tgt) = (raw_fp(source), raw_fp(target));

    if let Some(rec) = prior {
        let raw_clean = {
            let _s = affidavit_obs::span("delta.diff");
            raw_src.as_ref() == Some(&rec.source_fp) && raw_tgt.as_ref() == Some(&rec.target_fp)
        };
        if raw_clean {
            let _s = affidavit_obs::span("delta.splice");
            stats.count(rec, true);
            return Ok((rec.clone(), Answer::Raw));
        }
    }
    let raw = (raw_src.unwrap_or_default(), raw_tgt.unwrap_or_default());

    let mut instance = stage()?;
    if let Some(rec) = prior {
        let check = {
            let _s = affidavit_obs::span("delta.diff");
            check_blocks(rec, &instance)
        };
        match check {
            BlockCheck::Clean => {
                let _s = affidavit_obs::span("delta.splice");
                match splice_pair(rec, &mut instance) {
                    Ok(()) => {
                        stats.count(rec, true);
                        // Refresh the raw fingerprints so the next run of
                        // this byte-form takes the raw tier.
                        let refreshed = PairRecord {
                            source_fp: raw.0,
                            target_fp: raw.1,
                            ..rec.clone()
                        };
                        return Ok((refreshed, Answer::Staged));
                    }
                    Err(reason) => {
                        stats.fallbacks += 1;
                        affidavit_obs::diag(
                            "delta.fallback",
                            &format!("{name}: splice rejected ({reason}), full redo"),
                        );
                        // The splice attempt interned into the pool.
                        instance = stage()?;
                    }
                }
            }
            BlockCheck::Dirty { dirty, total } => {
                affidavit_obs::diag(
                    "delta.diff",
                    &format!("{name}: {dirty}/{total} groups dirty, redo"),
                );
            }
            BlockCheck::Broken(reason) => {
                stats.fallbacks += 1;
                affidavit_obs::diag("delta.fallback", &format!("{name}: {reason}, full redo"));
            }
        }
    }

    let _s = affidavit_obs::span("delta.redo");
    let started = Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    let record = record_pair(raw, &outcome, &instance, millis);
    stats.count(&record, false);
    let answer = Answer::Redo {
        instance: Box::new(instance),
        duration: outcome.stats.duration,
    };
    Ok((record, answer))
}

/// Load the manifest at `state` if this format version wrote it under
/// this configuration. A missing file is a first run; any other unusable
/// state counts a fallback and yields no records.
fn load_manifest(state: &Path, config_fp: &str, stats: &mut DeltaStats) -> Vec<TableRecord> {
    let loaded = match manifest::load_string(state) {
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
    explain_delta_with(source, target, opts, state, &mut || {
        stage_file_pair(source, target, opts)
    })
}

/// `explain --delta` with a caller-supplied staging hook — the resident
/// service stages through its pinned-session LRU instead of a cold
/// ingest. The hook may run zero times (raw-tier splice), once, or twice
/// (re-stage after a failed staged-tier splice). The manifest holds the
/// pair under its target's file stem and is rewritten unless the raw
/// tier answered.
pub fn explain_delta_with(
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    state: &Path,
    stage: &mut dyn FnMut() -> Result<ProblemInstance, String>,
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
                    &mut || stage_file_pair(src, tgt, opts),
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
        let state = default_explain_state(&t);
        assert!(state.ends_with("tgt.csv.affidavit-delta.json"));

        let first = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!first.spliced);
        assert_eq!(first.stats.pairs_redone, 1);
        assert_eq!(first.stats.blocks_redone, first.stats.blocks_total);
        assert_eq!(first.report, scratch_report(&s, &t, &opts));

        // Unchanged inputs: raw-tier splice, byte-identical report.
        let second = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(second.spliced);
        assert_eq!(second.stats.pairs_spliced, 1);
        assert_eq!(second.stats.blocks_reused, second.stats.blocks_total);
        assert_eq!(second.report, first.report);

        // A CRLF rewrite dirties the raw tier but splices on the staged
        // tier (every group fingerprint still matches).
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
    fn explain_staged_tier_checks_the_stored_outcome() {
        let root = std::env::temp_dir().join("affidavit-delta-outcome-test");
        std::fs::remove_dir_all(&root).ok();
        let (s, t) = write_pair(&root, "k,v\nk0,1000\nk1,2000\n", "k,v\nk0,1\nk1,2\n");
        let opts = ProfileOptions::default();
        let state = root.join("state.json");
        explain_delta(&s, &t, &opts, &state).unwrap();

        // An explain manifest is the one manifest shape with one entry,
        // keyed by the target's stem. Tamper with its summary row only.
        let mut manifest: DeltaManifest =
            serde_json::from_str(&std::fs::read_to_string(&state).unwrap()).unwrap();
        assert_eq!(manifest.tables.len(), 1);
        assert_eq!(manifest.tables[0].stem, "tgt");
        manifest.tables[0].pair.outcome = TableOutcome::Failed {
            reason: "tampered".to_owned(),
        };
        std::fs::write(&state, serde_json::to_string(&manifest).unwrap()).unwrap();

        // The raw tier still answers from the stored report...
        assert!(explain_delta(&s, &t, &opts, &state).unwrap().spliced);
        // ... but the staged tier rejects the splice and redoes.
        std::fs::write(&t, "k,v\r\nk0,1\r\nk1,2\r\n").unwrap();
        let crlf = explain_delta(&s, &t, &opts, &state).unwrap();
        assert!(!crlf.spliced);
        assert_eq!(crlf.stats.fallbacks, 1);
        assert_eq!(crlf.report, scratch_report(&s, &t, &opts));
        std::fs::remove_dir_all(&root).ok();
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
        assert_eq!(s2.blocks_redone, 0);
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
        let mut scheduled = id.clone().with_threads(4);
        scheduled.parallel_min_records = 0;
        assert_eq!(
            config_fingerprint(&id, false),
            config_fingerprint(&scheduled, false),
            "scheduling knobs are byte-transparent"
        );
    }
}
