//! One measured run of the program, in a process of its own.
//!
//! The parent re-executes this binary for every rep, so each rep is a
//! cold process like a CLI call, and its peak RSS and CPU time are its
//! own. The child receives only the generated snapshot directories and
//! the workload, which selects the configuration. It calls the public
//! entry points the CLI `explain`/`profile` commands call, then prints a
//! [`ChildReport`] as one JSON line on stdout.

use std::path::Path;
use std::time::{Duration, Instant};

use affidavit_core::delta::{default_profile_state, profile_dirs_delta};
use affidavit_core::profiling::{
    outcome_for, paired_csv_stems, profile_dirs, stage_snapshot_pair, ProfileOptions,
    SnapshotProfile, TableOutcome, TableProfile,
};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, ProblemInstance, SearchOutcome};
use affidavit_obs::span;
use affidavit_store::{ingest_pair, Fnv};
use serde::{Deserialize, Serialize};

use super::procfs;
use super::trace::{Fold, NameTotals};
use super::workload::Workload;

/// A child that runs this long has hung: it exits on its own, so the
/// parent's wait always ends.
const WATCHDOG: Duration = Duration::from_secs(120);

/// What a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// The workload's calls, untraced.
    Timed,
    /// The workload's calls with span recording on, wrapped in benchmark
    /// spans and folded into per-span totals.
    Traced,
    /// `reprofile-delta` set-up: the first `profile --delta` on a
    /// snapshot, which writes the manifest.
    Prime,
    /// `reprofile-delta` check: a from-scratch `profile` of the edited
    /// snapshot, whose output the delta run must equal.
    Scratch,
}

impl Job {
    pub fn name(self) -> &'static str {
        match self {
            Job::Timed => "timed",
            Job::Traced => "traced",
            Job::Prime => "prime",
            Job::Scratch => "scratch",
        }
    }

    pub fn parse(s: &str) -> Option<Job> {
        [Job::Timed, Job::Traced, Job::Prime, Job::Scratch]
            .into_iter()
            .find(|j| j.name() == s)
    }
}

/// A child's result, sent to the parent as one JSON line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildReport {
    /// User plus system CPU time of the whole process.
    pub cpu_s: f64,
    /// Peak resident set size of the whole process.
    pub hwm_kb: u64,
    /// Fingerprint of the output the CLI prints with `--stable`.
    pub digest: String,
    /// One row per table pair, with search timings.
    pub tables: Vec<TableProfile>,
    /// Reuse counters of a `profile --delta` run.
    pub delta: Option<DeltaCounts>,
    /// Span totals of a traced run.
    pub trace: Option<TraceReport>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeltaCounts {
    pub pairs_spliced: u64,
    pub pairs_redone: u64,
    pub fallbacks: u64,
}

/// Per-span-name totals plus what the unattributed share needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// Wall time of the traced calls, without the benchmark's own event
    /// folding between pairs.
    pub wall_us: u64,
    /// Part of `wall_us` inside the benchmark's top-level spans.
    pub bench_us: u64,
    pub events: u64,
    pub dropped: u64,
    pub unclosed: u64,
    /// Records ingested (the program's `ingest_rows_total` counter).
    pub ingest_rows: u64,
    /// Totals by span name, sorted by name.
    pub spans: Vec<(String, NameTotals)>,
}

impl TraceReport {
    fn span(&self, name: &str) -> Option<&NameTotals> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Busy seconds of a span name (0 if it never ran).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.busy_us as f64 / 1e6)
    }

    /// Self seconds of a span name (0 if it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.self_us as f64 / 1e6)
    }

    /// Closed spans of a name.
    pub fn calls(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.calls as f64)
    }
}

/// Drains span events between pairs, while no span is open, so the
/// recorder never reaches its cap. A no-op in an untraced run.
struct Tracer {
    fold: Option<Fold>,
    folding: Duration,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        affidavit_obs::set_enabled(on);
        Tracer {
            fold: on.then(Fold::default),
            folding: Duration::ZERO,
        }
    }

    fn drain(&mut self) {
        if let Some(fold) = &mut self.fold {
            let started = Instant::now();
            let (events, dropped) = affidavit_obs::drain();
            fold.add(&events, dropped);
            self.folding += started.elapsed();
        }
    }

    fn report(mut self, wall: Duration) -> Option<TraceReport> {
        self.drain();
        let fold = self.fold?;
        Some(TraceReport {
            wall_us: wall.saturating_sub(self.folding).as_micros() as u64,
            bench_us: fold.bench_us,
            events: fold.events,
            dropped: fold.dropped,
            unclosed: fold.unclosed,
            ingest_rows: affidavit_obs::metrics().counter("ingest_rows_total"),
            spans: fold.by_name.into_iter().collect(),
        })
    }
}

/// Run one job and print its report; the process exit code.
pub fn main(workload: Workload, job: Job, src: &Path, tgt: &Path) -> i32 {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("child watchdog: no result after {WATCHDOG:?}");
        std::process::exit(124);
    });
    match run(workload, job, src, tgt) {
        Ok(report) => {
            println!(
                "{}",
                serde_json::to_string(&report).expect("reports are serializable")
            );
            0
        }
        Err(e) => {
            eprintln!("{} {}: {e}", workload.name(), job.name());
            1
        }
    }
}

fn run(workload: Workload, job: Job, src: &Path, tgt: &Path) -> Result<ChildReport, String> {
    let opts = workload.options();
    let mut tracer = Tracer::new(job == Job::Traced);
    let started = Instant::now();
    let mut delta = None;
    let (tables, stable) = match (workload, job) {
        (Workload::Tall, Job::Timed | Job::Traced) => explain_each(src, tgt, &opts, &mut tracer)?,
        (Workload::Table2Hid | Workload::Table2Hs, Job::Traced) => {
            profile_serially(src, tgt, &opts, &mut tracer)?
        }
        (Workload::Table2Hid | Workload::Table2Hs, Job::Timed)
        | (Workload::ReprofileDelta, Job::Scratch) => {
            profile_output(profile_dirs(src, tgt, &opts)?, &mut tracer)
        }
        (Workload::ReprofileDelta, Job::Timed | Job::Traced | Job::Prime) => {
            let (profile, stats) = {
                let _s = span("bench.profile_delta");
                profile_dirs_delta(src, tgt, &opts, &default_profile_state(tgt))?
            };
            tracer.drain();
            delta = Some(DeltaCounts {
                pairs_spliced: stats.pairs_spliced,
                pairs_redone: stats.pairs_redone,
                fallbacks: stats.fallbacks,
            });
            profile_output(profile, &mut tracer)
        }
        (_, _) => {
            return Err(format!(
                "job {} does not apply to {}",
                job.name(),
                workload.name()
            ))
        }
    };
    let wall = started.elapsed();
    let trace = tracer.report(wall);
    let (hwm_kb, cpu_s) = procfs::self_usage()?;
    Ok(ChildReport {
        cpu_s,
        hwm_kb,
        digest: digest(&stable),
        tables,
        delta,
        trace,
    })
}

fn digest(text: &str) -> String {
    let mut fnv = Fnv::new();
    fnv.update(text.as_bytes());
    fnv.finish().to_string()
}

/// The tables of a profile plus its `profile --stable` output.
fn profile_output(profile: SnapshotProfile, tracer: &mut Tracer) -> (Vec<TableProfile>, String) {
    let stable = {
        let _s = span("bench.render");
        let mut stripped = profile.clone();
        stripped.strip_timing();
        stripped.render()
    };
    tracer.drain();
    (profile.tables, stable)
}

/// `profile`'s per-pair work, one pair after another on this thread, so
/// every call can be wrapped in a benchmark span: the traced form of a
/// Table 2 run. Its output equals `profile_dirs` on the same directories.
fn profile_serially(
    src: &Path,
    tgt: &Path,
    opts: &ProfileOptions,
    tracer: &mut Tracer,
) -> Result<(Vec<TableProfile>, String), String> {
    let stems = {
        let _s = span("bench.stems");
        paired_csv_stems(src, tgt)?
    };
    let mut tables = Vec::with_capacity(stems.len());
    for pair in stems {
        let outcome = match (&pair.source, &pair.target) {
            (Some(s), Some(t)) => match search_pair(s, t, opts) {
                Ok((outcome, instance, millis)) => {
                    let _s = span("bench.outcome");
                    let row = outcome_for(&outcome.explanation, &instance, millis);
                    drop((outcome, instance));
                    row
                }
                Err(reason) => TableOutcome::Failed { reason },
            },
            (Some(_), None) => TableOutcome::MissingInTarget,
            (None, _) => TableOutcome::MissingInSource,
        };
        tables.push(TableProfile {
            name: pair.name,
            outcome,
        });
        tracer.drain();
    }
    Ok(profile_output(SnapshotProfile { tables }, tracer))
}

/// `explain --stable` on every pair in turn: the tall workload.
fn explain_each(
    src: &Path,
    tgt: &Path,
    opts: &ProfileOptions,
    tracer: &mut Tracer,
) -> Result<(Vec<TableProfile>, String), String> {
    let mut tables = Vec::new();
    let mut stable = String::new();
    for pair in paired_csv_stems(src, tgt)? {
        let (Some(s), Some(t)) = (&pair.source, &pair.target) else {
            return Err(format!("{}: not in both snapshots", pair.name));
        };
        let (outcome, instance, millis) = search_pair(s, t, opts)?;
        let _s = span("bench.render");
        stable.push_str(&format!(
            "{}\nsearch: {} states polled, {} generated, {:?}\n",
            render_report(&outcome.explanation, &instance),
            outcome.stats.polled,
            outcome.stats.states_generated,
            Duration::ZERO
        ));
        tables.push(TableProfile {
            name: pair.name,
            outcome: outcome_for(&outcome.explanation, &instance, millis),
        });
        drop((outcome, instance, _s));
        tracer.drain();
    }
    Ok((tables, stable))
}

/// Ingest, stage and search one pair, each call in its own benchmark
/// span; the search's wall time in milliseconds, as `profile` reports it.
fn search_pair(
    src: &Path,
    tgt: &Path,
    opts: &ProfileOptions,
) -> Result<(SearchOutcome, ProblemInstance, u64), String> {
    let pair = {
        let _s = span("bench.ingest");
        ingest_pair(src, tgt, &opts.ingest, &opts.pool)?
    };
    let mut instance = {
        let _s = span("bench.stage");
        stage_snapshot_pair(pair, opts)?
    };
    let _s = span("bench.explain");
    let started = Instant::now();
    let outcome = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    Ok((outcome, instance, millis))
}
