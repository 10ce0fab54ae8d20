//! Multi-table snapshot profiling.
//!
//! The paper's stated goal is a comparison tool "that requires minimal user
//! effort to make it practical to profile database snapshots with
//! **hundreds of tables**" (§2). This module drives the single-table search
//! across two snapshot *directories*: tables are paired by file stem, each
//! pair is explained independently, and the results are folded into one
//! summary a database administrator can scan top-down.
//!
//! Schema drift between snapshots is handled per table before the search:
//! unequal arity goes through [`crate::restructure::normalize_arity`]
//! (merged/split columns), renamed or reordered columns through
//! [`crate::schema_align::align_schemas`] — both opt-in via
//! [`ProfileOptions::align`], and both reported on stderr as `align`
//! diagnostics by [`stage_tables`]. Every command that reads a snapshot
//! pair (`explain`, `diff`, `apply`, `profile`, both `--delta` paths, the
//! resident service) stages it through [`stage_tables`], directly or via
//! [`stage_file_pair`], under its [`table_stem`], so a pair is repaired
//! and reported alike whichever command read it.
//!
//! Re-profiling the same directories after a small edit can skip the
//! clean pairs entirely: [`crate::delta::profile_dirs_delta`] splices
//! unchanged tables from a fingerprinted manifest with output bytes
//! identical to [`profile_dirs`].

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use affidavit_store::{ingest_pair, IngestOptions, PoolConfig, SnapshotPair};
use affidavit_table::{Table, ValuePool};
use serde::{Deserialize, Serialize};

use crate::config::AffidavitConfig;
use crate::explanation::Explanation;
use crate::instance::ProblemInstance;
use crate::restructure::{normalize_arity, Restructure};
use crate::schema_align::align_schemas;
use crate::search::Affidavit;

/// Options for a profiling run. The default uses the paper's robust
/// `H^id` configuration with no schema repair.
#[derive(Debug, Clone, Default)]
pub struct ProfileOptions {
    /// Search configuration used for every table.
    pub config: AffidavitConfig,
    /// Repair schema drift (renamed/reordered/merged/split columns) before
    /// the search instead of failing the table. Each repair is reported
    /// as an `align` diagnostic on stderr (see [`stage_tables`]).
    pub align: bool,
    /// Streaming-ingestion options for reading each table pair's CSVs
    /// (chunk size, worker threads).
    pub ingest: IngestOptions,
    /// No settings: see [`PoolConfig`]. Kept only for the benchmark
    /// harness, which names it.
    pub pool: PoolConfig,
}

/// The per-table result of a profiling run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum TableOutcome {
    /// The search produced an explanation.
    Explained {
        /// Aligned record pairs.
        core: usize,
        /// Source records labelled deleted.
        deleted: usize,
        /// Target records labelled inserted.
        inserted: usize,
        /// Attributes with a non-identity function.
        changed_attributes: usize,
        /// Explanation cost (Def. 3.10, in α = 0.5 units).
        cost: u64,
        /// Cost of the trivial explanation, for scale.
        trivial_cost: u64,
        /// Search wall time in milliseconds.
        millis: u64,
    },
    /// The table exists only in the source snapshot (dropped).
    MissingInTarget,
    /// The table exists only in the target snapshot (created).
    MissingInSource,
    /// The pair could not be profiled (CSV error, unrepairable schema…).
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

/// One profiled table pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableProfile {
    /// Table name (file stem).
    pub name: String,
    /// What happened.
    pub outcome: TableOutcome,
}

/// A whole-snapshot profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotProfile {
    /// Per-table results, sorted by table name.
    pub tables: Vec<TableProfile>,
}

impl SnapshotProfile {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profiles are serializable")
    }

    /// Tables whose explanation has a non-empty difference (changed
    /// attributes, deletions or insertions).
    pub fn tables_with_changes(&self) -> usize {
        self.tables
            .iter()
            .filter(|t| match &t.outcome {
                TableOutcome::Explained {
                    deleted,
                    inserted,
                    changed_attributes,
                    ..
                } => *deleted + *inserted + *changed_attributes > 0,
                TableOutcome::MissingInSource | TableOutcome::MissingInTarget => true,
                TableOutcome::Failed { .. } => false,
            })
            .count()
    }

    /// Zero every wall-clock field (`millis`) so two profiles of the same
    /// snapshots can be compared byte for byte. Search timings are the only
    /// nondeterministic part of a profile; everything else is invariant
    /// under thread count, chunking and the incremental (`--delta`) path.
    pub fn strip_timing(&mut self) {
        for t in &mut self.tables {
            if let TableOutcome::Explained { millis, .. } = &mut t.outcome {
                *millis = 0;
            }
        }
    }

    /// Render the administrator-facing summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
            "table", "core", "deleted", "inserted", "Δattrs", "cost", "t"
        );
        for t in &self.tables {
            match &t.outcome {
                TableOutcome::Explained {
                    core,
                    deleted,
                    inserted,
                    changed_attributes,
                    cost,
                    trivial_cost,
                    millis,
                } => {
                    let _ = writeln!(
                        out,
                        "{:<24} {core:>8} {deleted:>8} {inserted:>8} {changed_attributes:>8} {:>10} {:>7}ms",
                        t.name,
                        format!("{cost}/{trivial_cost}"),
                        millis
                    );
                }
                TableOutcome::MissingInTarget => {
                    let _ = writeln!(out, "{:<24} (dropped in target snapshot)", t.name);
                }
                TableOutcome::MissingInSource => {
                    let _ = writeln!(out, "{:<24} (new in target snapshot)", t.name);
                }
                TableOutcome::Failed { reason } => {
                    let _ = writeln!(out, "{:<24} FAILED: {reason}", t.name);
                }
            }
        }
        let _ = writeln!(
            out,
            "\n{} tables, {} with changes",
            self.tables.len(),
            self.tables_with_changes()
        );
        out
    }
}

/// The name a table pair goes by: its target file's stem. It is the
/// pair's row in a profile (both files share the stem there), its key in
/// an `explain --delta` manifest and the table its `align` diagnostics
/// name.
pub fn table_stem(path: &Path) -> String {
    path.file_stem()
        .unwrap_or_default()
        .to_string_lossy()
        .into_owned()
}

/// Stage the table pair `name` for the search: repair schema drift (when
/// [`ProfileOptions::align`] is set) and bundle the snapshots into a
/// [`ProblemInstance`]. This is the last step before an instance enters
/// the search, shared by every command that reads a pair.
///
/// Each repair is reported on stderr as an `align` diagnostic
/// ([`affidavit_obs::diag()`]) that starts with the table name, so the
/// lines of pairs staged concurrently (`profile --align`) can be told
/// apart: one `detected merge`/`detected split` line per restructure
/// applied to unequal arities, then the `schema alignment` line pairing
/// every source column with its target column.
pub fn stage_tables(
    name: &str,
    source: Table,
    target: Table,
    mut pool: ValuePool,
    opts: &ProfileOptions,
) -> Result<ProblemInstance, String> {
    let (source, target) = if opts.align {
        let (source, target, lines) = repair_schema(name, source, target, &mut pool)?;
        for line in &lines {
            affidavit_obs::diag("align", line);
        }
        (source, target)
    } else {
        (source, target)
    };
    ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())
}

/// Repair the schema drift of table pair `name`: merged or split columns
/// when the arities differ, then renamed or reordered columns. Returns the
/// repaired tables and one diagnostic line per repair, each led by `name`.
fn repair_schema(
    name: &str,
    mut source: Table,
    mut target: Table,
    pool: &mut ValuePool,
) -> Result<(Table, Table, Vec<String>), String> {
    let mut lines = Vec::new();
    if source.schema().arity() != target.schema().arity() {
        let (s2, t2, applied) = normalize_arity(&source, &target, pool).ok_or_else(|| {
            "column counts differ and no merge/split evidence was found".to_owned()
        })?;
        for r in &applied {
            lines.push(match r {
                Restructure::Merge {
                    target: merged,
                    left,
                    right,
                    sep,
                    score,
                } => format!(
                    "{name}: detected merge: source {:?} ◦ {sep:?} ◦ {:?} → target {:?} (score {score:.2})",
                    source.schema().name(*left),
                    source.schema().name(*right),
                    t2.schema().name(*merged),
                ),
                Restructure::Split {
                    source: split,
                    left,
                    right,
                    sep,
                    score,
                } => format!(
                    "{name}: detected split: source {:?} → target {:?} ◦ {sep:?} ◦ {:?} (score {score:.2})",
                    source.schema().name(*split),
                    target.schema().name(*left),
                    target.schema().name(*right),
                ),
            });
        }
        source = s2;
        target = t2;
    }
    let alignment = align_schemas(&source, &target, pool);
    let pairs: Vec<String> = alignment
        .pairs()
        .map(|(i, j)| format!("{} ← {}", source.schema().name(i), target.schema().name(j)))
        .collect();
    lines.push(format!(
        "{name}: schema alignment (min confidence {:.2}): {}",
        alignment.min_confidence(),
        pairs.join(", ")
    ));
    let target = alignment.reorder_target(&target, source.schema());
    Ok((source, target, lines))
}

/// Stage an already-ingested snapshot pair that comes with no file name;
/// its `align` lines name the table `snapshot`. Kept for the benchmark
/// harness, which names it; the resident service stages its pinned
/// clones through [`stage_tables`] under the request's [`table_stem`].
pub fn stage_snapshot_pair(
    pair: SnapshotPair,
    opts: &ProfileOptions,
) -> Result<ProblemInstance, String> {
    stage_tables("snapshot", pair.source, pair.target, pair.pool, opts)
}

/// Ingest and stage one table pair from its CSV files — everything the
/// local profiler does before the search, shared with the incremental
/// profiler so failure messages are identical in both modes. The pair is
/// named by its target file ([`table_stem`]).
pub fn stage_file_pair(
    src_path: &Path,
    tgt_path: &Path,
    opts: &ProfileOptions,
) -> Result<ProblemInstance, String> {
    let pair = ingest_pair(src_path, tgt_path, &opts.ingest, &PoolConfig)?;
    stage_tables(
        &table_stem(tgt_path),
        pair.source,
        pair.target,
        pair.pool,
        opts,
    )
}

/// Fold a finished search into the per-table summary row. Shared by the
/// local and the incremental profiler so both render the same bytes for
/// the same explanation.
pub fn outcome_for(
    explanation: &Explanation,
    instance: &ProblemInstance,
    millis: u64,
) -> TableOutcome {
    let arity = instance.arity();
    TableOutcome::Explained {
        core: explanation.core_size(),
        deleted: explanation.deleted.len(),
        inserted: explanation.inserted.len(),
        changed_attributes: explanation
            .functions
            .iter()
            .filter(|f| !f.is_identity())
            .count(),
        cost: explanation.cost_units(arity),
        trivial_cost: Explanation::trivial(instance).cost_units(arity),
        millis,
    }
}

/// One `<stem>.csv` pairing across two snapshot directories.
#[derive(Debug, Clone)]
pub struct PairedStem {
    /// Table name (file stem).
    pub name: String,
    /// The file in the source snapshot, if present.
    pub source: Option<PathBuf>,
    /// The file in the target snapshot, if present.
    pub target: Option<PathBuf>,
}

fn csv_stems(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("non-UTF8 file name: {}", path.display()))?
                .to_owned();
            out.push((stem, path));
        }
    }
    out.sort();
    Ok(out)
}

/// Enumerate every `<name>.csv` present in either snapshot directory,
/// paired by file stem and sorted by name — the job list of a profiling
/// run, shared by [`profile_dirs`] and the incremental profiler.
pub fn paired_csv_stems(source_dir: &Path, target_dir: &Path) -> Result<Vec<PairedStem>, String> {
    let mut by_name: std::collections::BTreeMap<String, PairedStem> =
        std::collections::BTreeMap::new();
    for (stem, path) in csv_stems(source_dir)? {
        by_name.insert(
            stem.clone(),
            PairedStem {
                name: stem,
                source: Some(path),
                target: None,
            },
        );
    }
    for (stem, path) in csv_stems(target_dir)? {
        by_name
            .entry(stem.clone())
            .or_insert_with(|| PairedStem {
                name: stem,
                source: None,
                target: None,
            })
            .target = Some(path);
    }
    Ok(by_name.into_values().collect())
}

/// Profile two snapshot directories: every `<name>.csv` present in either
/// directory becomes one [`TableProfile`], paired by file stem.
///
/// Table pairs are profiled concurrently on one worker per hardware
/// thread (`affidavit_table::resolve_threads(0)`), whatever
/// `opts.config.threads` is; that count sizes each pair's own search, and
/// `opts.ingest.threads` its ingestion. Each pair has its own pool and RNG
/// seeded from the configuration, so the result is deterministic and
/// identical to a sequential run — parallelism across *independent*
/// instances is the same trick the evaluation harness uses.
pub fn profile_dirs(
    source_dir: &Path,
    target_dir: &Path,
    opts: &ProfileOptions,
) -> Result<SnapshotProfile, String> {
    let pairs = paired_csv_stems(source_dir, target_dir)?;
    let tables = rayon::fan_out(pairs.len(), affidavit_table::resolve_threads(0), |i| {
        let pair = &pairs[i];
        let outcome = match (&pair.source, &pair.target) {
            (Some(src_path), Some(tgt_path)) => profile_file_pair(src_path, tgt_path, opts),
            (Some(_), None) => TableOutcome::MissingInTarget,
            (None, Some(_)) => TableOutcome::MissingInSource,
            (None, None) => unreachable!("a paired stem exists in at least one snapshot"),
        };
        TableProfile {
            name: pair.name.clone(),
            outcome,
        }
    });
    Ok(SnapshotProfile { tables })
}

fn profile_file_pair(src_path: &Path, tgt_path: &Path, opts: &ProfileOptions) -> TableOutcome {
    let mut instance = match stage_file_pair(src_path, tgt_path, opts) {
        Ok(instance) => instance,
        Err(reason) => return TableOutcome::Failed { reason },
    };
    let started = std::time::Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    outcome_for(&outcome.explanation, &instance, millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_dirs(root: &Path) -> (PathBuf, PathBuf) {
        let src = root.join("before");
        let tgt = root.join("after");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();

        // Table with a systematic change (rescaled values).
        let mut a_s = String::from("k,v\n");
        let mut a_t = String::from("k,v\n");
        for i in 0..25 {
            a_s.push_str(&format!("k{i},{}\n", i * 1000));
            a_t.push_str(&format!("k{i},{i}\n"));
        }
        std::fs::write(src.join("accounts.csv"), a_s).unwrap();
        std::fs::write(tgt.join("accounts.csv"), a_t).unwrap();

        // Unchanged table.
        let b = "x,y\n1,a\n2,b\n3,c\n";
        std::fs::write(src.join("static.csv"), b).unwrap();
        std::fs::write(tgt.join("static.csv"), b).unwrap();

        // Dropped and created tables.
        std::fs::write(src.join("dropped.csv"), "a\n1\n").unwrap();
        std::fs::write(tgt.join("created.csv"), "a\n1\n").unwrap();

        // Malformed target.
        std::fs::write(src.join("broken.csv"), "a,b\n1,2\n").unwrap();
        std::fs::write(tgt.join("broken.csv"), "a,b\n1\n").unwrap();
        (src, tgt)
    }

    #[test]
    fn profiles_a_directory_pair() {
        let root = std::env::temp_dir().join("affidavit-profiling-test");
        std::fs::remove_dir_all(&root).ok();
        let (src, tgt) = write_dirs(&root);
        let profile = profile_dirs(&src, &tgt, &ProfileOptions::default()).unwrap();

        let by_name: std::collections::BTreeMap<&str, &TableOutcome> = profile
            .tables
            .iter()
            .map(|t| (t.name.as_str(), &t.outcome))
            .collect();
        assert!(matches!(
            by_name["accounts"],
            TableOutcome::Explained {
                core: 25,
                changed_attributes: 1,
                ..
            }
        ));
        assert!(matches!(
            by_name["static"],
            TableOutcome::Explained {
                cost: 0,
                changed_attributes: 0,
                ..
            }
        ));
        assert!(matches!(by_name["dropped"], TableOutcome::MissingInTarget));
        assert!(matches!(by_name["created"], TableOutcome::MissingInSource));
        assert!(matches!(by_name["broken"], TableOutcome::Failed { .. }));

        // 4 with changes: accounts, dropped, created — static is clean and
        // broken is a failure, not a change.
        assert_eq!(profile.tables_with_changes(), 3);

        let rendered = profile.render();
        assert!(rendered.contains("accounts"));
        assert!(rendered.contains("dropped in target"));
        assert!(rendered.contains("FAILED"));

        let json = profile.to_json();
        let back: SnapshotProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tables.len(), profile.tables.len());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn align_repairs_schema_drift_per_table() {
        let root = std::env::temp_dir().join("affidavit-profiling-align-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("before");
        let tgt = root.join("after");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        // first/last merged into one target column.
        let mut s = String::from("first,last,org\n");
        let mut t = String::from("name,org\n");
        for i in 0..20 {
            let f = ["ada", "max", "eva", "kim"][i % 4];
            let l = ["doe", "ray", "lin", "fox"][(i * 3) % 4];
            s.push_str(&format!("{f}{i},{l},o{}\n", i % 3));
            t.push_str(&format!("{f}{i} {l},o{}\n", i % 3));
        }
        std::fs::write(src.join("people.csv"), s).unwrap();
        std::fs::write(tgt.join("people.csv"), t).unwrap();

        // Without align: failure. With align: explained.
        let plain = profile_dirs(&src, &tgt, &ProfileOptions::default()).unwrap();
        assert!(matches!(
            plain.tables[0].outcome,
            TableOutcome::Failed { .. }
        ));

        let opts = ProfileOptions {
            align: true,
            ..ProfileOptions::default()
        };
        let aligned = profile_dirs(&src, &tgt, &opts).unwrap();
        assert!(
            matches!(
                aligned.tables[0].outcome,
                TableOutcome::Explained { core: 20, .. }
            ),
            "{:?}",
            aligned.tables[0].outcome
        );
        std::fs::remove_dir_all(&root).ok();
    }

    /// Two drifted tables, repaired as `profile --align` repairs each
    /// pair: every diagnostic line starts with its own table's name, so
    /// lines of pairs staged concurrently can be told apart.
    #[test]
    fn align_lines_name_their_table() {
        use affidavit_table::Schema;

        // people: first/last merged into one target column.
        let mut people_pool = ValuePool::new();
        let (mut people_s, mut people_t) = (Vec::new(), Vec::new());
        for i in 0..20 {
            let f = format!("{}{i}", ["ada", "max", "eva", "kim"][i % 4]);
            let l = ["doe", "ray", "lin", "fox"][(i * 3) % 4];
            people_s.push(vec![f.clone(), l.to_owned(), format!("o{}", i % 3)]);
            people_t.push(vec![format!("{f} {l}"), format!("o{}", i % 3)]);
        }
        let people = (
            Table::from_rows(
                Schema::new(["first", "last", "org"]),
                &mut people_pool,
                people_s,
            ),
            Table::from_rows(Schema::new(["name", "org"]), &mut people_pool, people_t),
        );
        // orders: columns renamed and reordered.
        let mut orders_pool = ValuePool::new();
        let (mut orders_s, mut orders_t) = (Vec::new(), Vec::new());
        for i in 0..20 {
            let city = ["rome", "oslo", "lima"][i % 3].to_owned();
            orders_s.push(vec![format!("id{i}"), format!("{}", i * 7), city.clone()]);
            orders_t.push(vec![city, format!("id{i}"), format!("{}", i * 7)]);
        }
        let orders = (
            Table::from_rows(
                Schema::new(["id", "amount", "city"]),
                &mut orders_pool,
                orders_s,
            ),
            Table::from_rows(
                Schema::new(["town", "order", "amt"]),
                &mut orders_pool,
                orders_t,
            ),
        );

        let (_, _, people_lines) =
            repair_schema("people", people.0, people.1, &mut people_pool).unwrap();
        let (_, _, orders_lines) =
            repair_schema("orders", orders.0, orders.1, &mut orders_pool).unwrap();
        assert_eq!(people_lines.len(), 2, "{people_lines:?}");
        assert!(people_lines[0].starts_with("people: detected merge: "));
        assert!(people_lines[1].starts_with("people: schema alignment "));
        assert_eq!(orders_lines.len(), 1, "{orders_lines:?}");
        assert!(orders_lines[0].starts_with("orders: schema alignment "));
        assert!(
            orders_lines[0].contains("id ← order") && orders_lines[0].contains("city ← town"),
            "{orders_lines:?}"
        );
    }

    #[test]
    fn missing_directory_is_an_error() {
        let opts = ProfileOptions::default();
        assert!(profile_dirs(Path::new("/no/such/dir"), Path::new("/tmp"), &opts).is_err());
    }
}
