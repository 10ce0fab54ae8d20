//! Incremental re-profiling (`--delta`): fingerprinted block reuse.
//!
//! A profiling run spends almost all of its time re-deriving answers for
//! table pairs that did not change since the previous run. This module
//! persists a compact *manifest* next to each run — per-pair raw file
//! fingerprints, the final function assignment, the induced block-group
//! fingerprints of [`affidavit_blocking::delta`], the per-group partition
//! of the explanation, and the rendered report — and on a re-run splices
//! prior results for clean pairs while only dirty pairs re-enter the
//! search.
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
//!    config fingerprint match the manifest: the stored report is the
//!    answer, zero ingestion.
//! 2. **Staged tier** — the raw bytes differ but, after ingest and
//!    staging, the header fingerprint and *every* block-group fingerprint
//!    match (a CRLF or quoting no-op rewrite): the stored explanation is
//!    reassembled from the per-group partition, [`Explanation::validate`]d
//!    against the freshly staged instance, re-rendered, and compared
//!    against the stored report byte for byte. Any mismatch at any step
//!    falls back to a full redo on a pristine re-staged instance.
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
use affidavit_store::{fingerprint_file, manifest, Fingerprint};
use affidavit_table::{RecordId, ScratchPool};
use serde::{Deserialize, Serialize};

use crate::config::AffidavitConfig;
use crate::explanation::Explanation;
use crate::instance::ProblemInstance;
use crate::portable::PortableFunction;
use crate::profiling::{
    outcome_for, paired_csv_stems, stage_file_pair, ProfileOptions, SnapshotProfile, TableOutcome,
    TableProfile,
};
use crate::report::render_report;
use crate::search::Affidavit;

/// Manifest format version. Bumped on any incompatible change so stale
/// manifests fall back to a full redo instead of misparsing.
pub const DELTA_FORMAT_VERSION: u32 = 1;

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
    /// Raw content fingerprint of the source CSV file.
    pub source_fp: String,
    /// Raw content fingerprint of the target CSV file.
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
    /// Search states polled at record time.
    pub polled: u64,
    /// Search states generated at record time.
    pub generated: u64,
    /// Search wall time at record time, in milliseconds.
    pub millis: u64,
}

/// The persisted state of an `explain --delta` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainManifest {
    /// [`DELTA_FORMAT_VERSION`] at write time.
    pub version: u32,
    /// [`config_fingerprint`] at write time.
    pub config_fp: String,
    /// The single explained pair.
    pub pair: PairRecord,
}

/// One table's entry in a [`ProfileManifest`], keyed by file stem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableRecord {
    /// Table name (file stem), the pairing key across runs.
    pub stem: String,
    /// The summary row recorded for this pair.
    pub outcome: TableOutcome,
    /// The splice state for this pair.
    pub pair: PairRecord,
}

/// The persisted state of a `profile --delta` run. Tables that failed or
/// were missing in one snapshot carry no record and always re-derive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileManifest {
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

fn file_fp(path: &Path) -> Result<Fingerprint, String> {
    fingerprint_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Record the splice state of a finished pair. Blocking is derived on a
/// scratch overlay so the instance pool is left untouched — the redo
/// path's pool bytes are compared against from-scratch runs by the fuzz
/// battery.
#[allow(clippy::too_many_arguments)]
fn record_pair(
    raw_src: &Fingerprint,
    raw_tgt: &Fingerprint,
    explanation: &Explanation,
    report: &str,
    instance: &ProblemInstance,
    polled: u64,
    generated: u64,
    millis: u64,
) -> PairRecord {
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
        source_fp: raw_src.to_string(),
        target_fp: raw_tgt.to_string(),
        header_fp: header.to_string(),
        functions: explanation
            .functions
            .iter()
            .map(|f| PortableFunction::from_attr(f, &instance.pool))
            .collect(),
        groups,
        report: report.to_owned(),
        polled,
        generated,
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
/// validate it, re-render the report and require it to match the stored
/// bytes. On success the stored report *is* the from-scratch answer.
///
/// Interns into `instance.pool` (function constants, validation images);
/// on `Err` the caller must re-stage before redoing.
fn splice_pair(pair: &PairRecord, instance: &mut ProblemInstance) -> Result<Explanation, String> {
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
    let rendered = render_report(&explanation, instance);
    if rendered != pair.report {
        return Err("stored report does not match the reassembled explanation".to_owned());
    }
    Ok(explanation)
}

fn load_explain_manifest(
    state: &Path,
    config_fp: &str,
    stats: &mut DeltaStats,
) -> Option<ExplainManifest> {
    let text = load_state_text(state, stats)?;
    match serde_json::from_str::<ExplainManifest>(&text) {
        Ok(m) if m.version == DELTA_FORMAT_VERSION && m.config_fp == config_fp => Some(m),
        Ok(_) => {
            stats.fallbacks += 1;
            affidavit_obs::diag(
                "delta.fallback",
                &format!("{}: version or config mismatch, full redo", state.display()),
            );
            None
        }
        Err(e) => {
            stats.fallbacks += 1;
            affidavit_obs::diag(
                "delta.fallback",
                &format!("{}: unparsable manifest ({e}), full redo", state.display()),
            );
            None
        }
    }
}

fn load_profile_manifest(
    state: &Path,
    config_fp: &str,
    stats: &mut DeltaStats,
) -> Option<ProfileManifest> {
    let text = load_state_text(state, stats)?;
    match serde_json::from_str::<ProfileManifest>(&text) {
        Ok(m) if m.version == DELTA_FORMAT_VERSION && m.config_fp == config_fp => Some(m),
        Ok(_) => {
            stats.fallbacks += 1;
            affidavit_obs::diag(
                "delta.fallback",
                &format!("{}: version or config mismatch, full redo", state.display()),
            );
            None
        }
        Err(e) => {
            stats.fallbacks += 1;
            affidavit_obs::diag(
                "delta.fallback",
                &format!("{}: unparsable manifest ({e}), full redo", state.display()),
            );
            None
        }
    }
}

fn load_state_text(state: &Path, stats: &mut DeltaStats) -> Option<String> {
    match manifest::load_string(state) {
        Ok(text) => text, // None = first run, not a fallback
        Err(e) => {
            stats.fallbacks += 1;
            affidavit_obs::diag(
                "delta.fallback",
                &format!("{}: {e}, full redo", state.display()),
            );
            None
        }
    }
}

/// A manifest-save failure must not fail the run — delta is an
/// optimization; the report is already correct.
fn save_state(state: &Path, json: &str) {
    if let Err(e) = manifest::save_atomic(state, json) {
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
/// (re-stage after a failed staged-tier splice).
pub fn explain_delta_with(
    source: &Path,
    target: &Path,
    opts: &ProfileOptions,
    state: &Path,
    stage: &mut dyn FnMut() -> Result<ProblemInstance, String>,
) -> Result<DeltaReport, String> {
    let config_fp = config_fingerprint(&opts.config, opts.align);
    let mut stats = DeltaStats::default();
    let prior = load_explain_manifest(state, &config_fp, &mut stats);
    let raw_src = file_fp(source)?;
    let raw_tgt = file_fp(target)?;

    if let Some(m) = &prior {
        let raw_clean = {
            let _s = affidavit_obs::span("delta.diff");
            m.pair.source_fp == raw_src.to_string() && m.pair.target_fp == raw_tgt.to_string()
        };
        if raw_clean {
            let _s = affidavit_obs::span("delta.splice");
            let n = m.pair.groups.len() as u64;
            stats.blocks_total += n;
            stats.blocks_reused += n;
            stats.pairs_spliced += 1;
            stats.publish();
            return Ok(DeltaReport {
                report: m.pair.report.clone(),
                polled: m.pair.polled,
                generated: m.pair.generated,
                duration: Duration::from_millis(m.pair.millis),
                spliced: true,
                stats,
                instance: None,
            });
        }
    }

    let mut instance = stage()?;
    let mut restage = false;
    if let Some(m) = &prior {
        let check = {
            let _s = affidavit_obs::span("delta.diff");
            check_blocks(&m.pair, &instance)
        };
        match check {
            BlockCheck::Clean => {
                let _s = affidavit_obs::span("delta.splice");
                match splice_pair(&m.pair, &mut instance) {
                    Ok(_) => {
                        let n = m.pair.groups.len() as u64;
                        stats.blocks_total += n;
                        stats.blocks_reused += n;
                        stats.pairs_spliced += 1;
                        // Refresh the raw fingerprints so the next run of
                        // this byte-form takes the raw tier.
                        let mut refreshed = m.clone();
                        refreshed.pair.source_fp = raw_src.to_string();
                        refreshed.pair.target_fp = raw_tgt.to_string();
                        save_state(
                            state,
                            &serde_json::to_string(&refreshed).expect("manifests are serializable"),
                        );
                        stats.publish();
                        return Ok(DeltaReport {
                            report: m.pair.report.clone(),
                            polled: m.pair.polled,
                            generated: m.pair.generated,
                            duration: Duration::from_millis(m.pair.millis),
                            spliced: true,
                            stats,
                            instance: None,
                        });
                    }
                    Err(reason) => {
                        stats.fallbacks += 1;
                        affidavit_obs::diag(
                            "delta.fallback",
                            &format!("splice rejected ({reason}), full redo"),
                        );
                        restage = true; // the splice attempt interned into the pool
                    }
                }
            }
            BlockCheck::Dirty { dirty, total } => {
                affidavit_obs::diag("delta.diff", &format!("{dirty}/{total} groups dirty, redo"));
            }
            BlockCheck::Broken(reason) => {
                stats.fallbacks += 1;
                affidavit_obs::diag("delta.fallback", &format!("{reason}, full redo"));
            }
        }
    }
    if restage {
        instance = stage()?;
    }

    let _s = affidavit_obs::span("delta.redo");
    let started = Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    let report = render_report(&outcome.explanation, &instance);
    let polled = outcome.stats.polled as u64;
    let generated = outcome.stats.states_generated as u64;
    let pair = record_pair(
        &raw_src,
        &raw_tgt,
        &outcome.explanation,
        &report,
        &instance,
        polled,
        generated,
        millis,
    );
    let n = pair.groups.len() as u64;
    stats.blocks_total += n;
    stats.blocks_redone += n;
    stats.pairs_redone += 1;
    save_state(
        state,
        &serde_json::to_string(&ExplainManifest {
            version: DELTA_FORMAT_VERSION,
            config_fp,
            pair,
        })
        .expect("manifests are serializable"),
    );
    stats.publish();
    Ok(DeltaReport {
        report,
        polled,
        generated,
        duration: outcome.stats.duration,
        spliced: false,
        stats,
        instance: Some(instance),
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
    let prior = load_profile_manifest(state, &config_fp, &mut stats);
    let prior_by_stem: HashMap<&str, &TableRecord> = prior
        .iter()
        .flat_map(|m| m.tables.iter())
        .map(|t| (t.stem.as_str(), t))
        .collect();

    let pairs = paired_csv_stems(source_dir, target_dir)?;
    let results: Vec<(TableProfile, Option<TableRecord>, DeltaStats)> = pairs
        .par_iter()
        .map(|pair| match (&pair.source, &pair.target) {
            (Some(src), Some(tgt)) => delta_table(
                &pair.name,
                src,
                tgt,
                opts,
                prior_by_stem.get(pair.name.as_str()).copied(),
            ),
            (Some(_), None) => (
                TableProfile {
                    name: pair.name.clone(),
                    outcome: TableOutcome::MissingInTarget,
                },
                None,
                DeltaStats::default(),
            ),
            (None, Some(_)) => (
                TableProfile {
                    name: pair.name.clone(),
                    outcome: TableOutcome::MissingInSource,
                },
                None,
                DeltaStats::default(),
            ),
            (None, None) => unreachable!("a paired stem exists in at least one snapshot"),
        })
        .collect();

    let mut tables = Vec::with_capacity(results.len());
    let mut records = Vec::new();
    for (profile, record, table_stats) in results {
        stats.merge(table_stats);
        tables.push(profile);
        records.extend(record);
    }
    save_state(
        state,
        &serde_json::to_string(&ProfileManifest {
            version: DELTA_FORMAT_VERSION,
            config_fp,
            tables: records,
        })
        .expect("manifests are serializable"),
    );
    stats.publish();
    Ok((SnapshotProfile { tables }, stats))
}

/// One table pair of a delta profiling run: raw-tier splice, staged-tier
/// splice, or redo — mirroring [`explain_delta_with`] but folding into a
/// [`TableOutcome`] row and a fresh [`TableRecord`].
fn delta_table(
    stem: &str,
    src: &Path,
    tgt: &Path,
    opts: &ProfileOptions,
    prior: Option<&TableRecord>,
) -> (TableProfile, Option<TableRecord>, DeltaStats) {
    let mut stats = DeltaStats::default();
    let raw_src = fingerprint_file(src).ok();
    let raw_tgt = fingerprint_file(tgt).ok();

    if let (Some(rec), Some(rs), Some(rt)) = (prior, &raw_src, &raw_tgt) {
        let raw_clean = {
            let _s = affidavit_obs::span("delta.diff");
            rec.pair.source_fp == rs.to_string() && rec.pair.target_fp == rt.to_string()
        };
        if raw_clean {
            let _s = affidavit_obs::span("delta.splice");
            let n = rec.pair.groups.len() as u64;
            stats.blocks_total += n;
            stats.blocks_reused += n;
            stats.pairs_spliced += 1;
            return (
                TableProfile {
                    name: stem.to_owned(),
                    outcome: rec.outcome.clone(),
                },
                Some(rec.clone()),
                stats,
            );
        }
    }

    let failed = |reason: String, stats: DeltaStats| {
        (
            TableProfile {
                name: stem.to_owned(),
                outcome: TableOutcome::Failed { reason },
            },
            None,
            stats,
        )
    };
    let mut instance = match stage_file_pair(src, tgt, opts) {
        Ok(instance) => instance,
        Err(reason) => return failed(reason, stats),
    };

    let mut restage = false;
    if let Some(rec) = prior {
        let check = {
            let _s = affidavit_obs::span("delta.diff");
            check_blocks(&rec.pair, &instance)
        };
        match check {
            BlockCheck::Clean => {
                let _s = affidavit_obs::span("delta.splice");
                let spliced = splice_pair(&rec.pair, &mut instance).and_then(|explanation| {
                    // The stored summary row must match the reassembled
                    // explanation too, not just the report.
                    let outcome = outcome_for(&explanation, &instance, rec.pair.millis);
                    let same = serde_json::to_string(&outcome).ok()
                        == serde_json::to_string(&rec.outcome).ok();
                    same.then_some(outcome)
                        .ok_or_else(|| "stored outcome does not match".to_owned())
                });
                match spliced {
                    Ok(outcome) => {
                        let n = rec.pair.groups.len() as u64;
                        stats.blocks_total += n;
                        stats.blocks_reused += n;
                        stats.pairs_spliced += 1;
                        let mut refreshed = rec.clone();
                        if let (Some(rs), Some(rt)) = (&raw_src, &raw_tgt) {
                            refreshed.pair.source_fp = rs.to_string();
                            refreshed.pair.target_fp = rt.to_string();
                        }
                        return (
                            TableProfile {
                                name: stem.to_owned(),
                                outcome,
                            },
                            Some(refreshed),
                            stats,
                        );
                    }
                    Err(reason) => {
                        stats.fallbacks += 1;
                        affidavit_obs::diag(
                            "delta.fallback",
                            &format!("{stem}: splice rejected ({reason}), full redo"),
                        );
                        restage = true;
                    }
                }
            }
            BlockCheck::Dirty { dirty, total } => {
                affidavit_obs::diag(
                    "delta.diff",
                    &format!("{stem}: {dirty}/{total} groups dirty, redo"),
                );
            }
            BlockCheck::Broken(reason) => {
                stats.fallbacks += 1;
                affidavit_obs::diag("delta.fallback", &format!("{stem}: {reason}, full redo"));
            }
        }
    }
    if restage {
        instance = match stage_file_pair(src, tgt, opts) {
            Ok(instance) => instance,
            Err(reason) => return failed(reason, stats),
        };
    }

    let _s = affidavit_obs::span("delta.redo");
    let started = Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    let table_outcome = outcome_for(&outcome.explanation, &instance, millis);
    let record = if let (Some(rs), Some(rt)) = (&raw_src, &raw_tgt) {
        let report = render_report(&outcome.explanation, &instance);
        let pair = record_pair(
            rs,
            rt,
            &outcome.explanation,
            &report,
            &instance,
            outcome.stats.polled as u64,
            outcome.stats.states_generated as u64,
            millis,
        );
        stats.blocks_total += pair.groups.len() as u64;
        stats.blocks_redone += pair.groups.len() as u64;
        Some(TableRecord {
            stem: stem.to_owned(),
            outcome: table_outcome.clone(),
            pair,
        })
    } else {
        None
    };
    stats.pairs_redone += 1;
    (
        TableProfile {
            name: stem.to_owned(),
            outcome: table_outcome,
        },
        record,
        stats,
    )
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
