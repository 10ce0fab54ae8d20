//! The measuring parent: set up the inputs, run every rep as a child
//! process, check the outputs and print the metrics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use affidavit_core::profiling::{SnapshotProfile, TableOutcome, TableProfile};
use serde::{Number, Value};

use super::child::{ChildReport, Job, TraceReport};
use super::reference;
use super::spec::{self, MetricSpec};
use super::stats::Summary;
use super::workload::{self, Inputs, PairRef, Scale, Workload};

/// Where runs write their inputs, relative to the working directory.
pub const WORK_ROOT: &str = ".bench_work";

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// Timed reps per run at least, whatever `--seconds` says: the output
/// check compares reps with each other.
const MIN_REPS: usize = 2;

/// A parsed parent command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One metric as printed: its value and the samples it was taken from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// What one sample is: a rep, a set-up round, a pair.
    over: &'static str,
    /// `None` when every sample was lost to a failure; the value is then
    /// 0 and the run is not correct.
    samples: Option<Summary>,
}

impl Metric {
    /// The median of `values`.
    fn median(
        name: &'static str,
        unit: &'static str,
        over: &'static str,
        values: &[f64],
    ) -> Metric {
        let samples = Summary::of(values);
        Metric {
            name,
            unit,
            value: samples.map_or(0.0, |s| s.median),
            over,
            samples,
        }
    }

    /// The mean of `values`.
    fn mean(name: &'static str, unit: &'static str, over: &'static str, values: &[f64]) -> Metric {
        Metric {
            value: values.iter().sum::<f64>() / values.len().max(1) as f64,
            ..Metric::median(name, unit, over, values)
        }
    }
}

/// Failed checks and failed pairs of a run. A check failing on several
/// reps is listed once.
#[derive(Default)]
struct Checks {
    failures: BTreeSet<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.insert(what());
        }
    }
}

/// A rep that produced a report.
struct Rep {
    wall_s: f64,
    report: ChildReport,
}

/// Run the benchmark; the process exit code.
pub fn main(args: &RunArgs) -> i32 {
    let spec = match spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return 2;
        }
    };
    if !spec.workloads.iter().any(|w| w == args.workload.name()) {
        eprintln!(
            "bench_e2e: workload {} is not in BENCHMARK.json",
            args.workload.name()
        );
        return 2;
    }
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let measured = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    let (metrics, checks) = match measured {
        Ok(done) => done,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return 2;
        }
    };
    let declared = spec.metrics(args.trace);
    let printed: Vec<MetricSpec> = metrics
        .iter()
        .map(|m| MetricSpec {
            name: m.name.to_owned(),
            unit: m.unit.to_owned(),
        })
        .collect();
    if printed != declared {
        eprintln!(
            "bench_e2e: the computed metrics {:?} differ from BENCHMARK.json's {:?}",
            printed, declared
        );
        return 2;
    }
    print_result(args, &metrics, &checks)
}

fn print_result(args: &RunArgs, metrics: &[Metric], checks: &Checks) -> i32 {
    println!(
        "# {} seed {} scale {} trace {} — hardware threads {}",
        args.workload.name(),
        args.seed,
        args.scale.name(),
        u8::from(args.trace),
        hardware_threads()
    );
    for m in metrics {
        let samples = m
            .samples
            .map_or_else(|| "(no samples)".to_owned(), |s| s.describe());
        println!(
            "{} {} {} over {} {samples}",
            m.name, m.value, m.unit, m.over
        );
    }
    for failure in &checks.failures {
        println!("# check failed: {failure}");
    }
    let correct = checks.failures.is_empty() && checks.failed == 0;
    println!("# outputs {}", if correct { "correct" } else { "WRONG" });
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        (
            "attempted".to_owned(),
            Value::Num(Number::PosInt(checks.attempted)),
        ),
        (
            "failed".to_owned(),
            Value::Num(Number::PosInt(checks.failed)),
        ),
        (
            "metrics".to_owned(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let entry = Value::Object(vec![
                            ("value".to_owned(), Value::Num(Number::Float(m.value))),
                            ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                        ]);
                        (m.name.to_owned(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("values are serializable")
    );
    if correct {
        0
    } else {
        1
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn measure(args: &RunArgs, work: &Path) -> Result<(Vec<Metric>, Checks), String> {
    if hardware_threads() < 2 {
        eprintln!(
            "bench_e2e: warning: 1 hardware thread; `tall` and the pair fan-out of `profile` \
             cannot run in parallel here"
        );
    }
    let mut checks = Checks::default();
    let wl = args.workload;
    let (inputs, setup_s) = set_up(args, work, &mut checks)?;

    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let started = Instant::now();
    let Timed {
        reps: timed,
        relative,
        references,
    } = timed_reps(wl, &inputs, work, &mut checks, started, untraced_budget)?;
    let mut traced: Vec<Rep> = Vec::new();
    if args.trace {
        let mut traced_reps = 0;
        while traced_reps == 0 || started.elapsed() < budget {
            traced_reps += 1;
            if let Some(rep) = run_rep(wl, Job::Traced, &inputs, work, &mut checks, timed.first())?
            {
                traced.push(rep);
            }
        }
    }
    let first = &timed
        .first()
        .ok_or("no timed rep produced a report")?
        .report;
    print_pair_times(&timed);
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = timed.iter().map(|r| r.report.cpu_s).collect();
    for (what, values) in [
        ("wall seconds", &walls),
        ("cpu seconds", &cpus),
        ("speed-reference seconds", &references),
    ] {
        if let Some(s) = Summary::of(values) {
            println!("# timed reps, {what} {}", s.describe());
        }
    }

    let metrics = if args.trace {
        if traced.is_empty() {
            return Err("no traced rep produced a report".to_owned());
        }
        print_spans(&traced[0].report);
        per_layer(&timed, &traced, &mut checks)
    } else {
        let rss: Vec<f64> = timed
            .iter()
            .map(|r| r.report.hwm_kb as f64 / 1024.0)
            .collect();
        let (cost, core) = quality(&first.tables, &inputs.pairs);
        vec![
            Metric::median("setup_s", "s", "set-up rounds", &setup_s),
            Metric::median("wall_rel", "ratio", "reps", &relative),
            Metric::median("peak_rss_mb", "MiB", "reps", &rss),
            Metric::mean("delta_cost", "ratio", "pairs", &cost),
            Metric::mean("delta_core", "ratio", "pairs", &core),
        ]
    };
    Ok((metrics, checks))
}

/// Write the inputs [`SETUP_ROUNDS`] times (priming the delta manifest
/// each time on `reprofile-delta`), checking every round wrote the same
/// bytes; the last round's inputs and every round's seconds.
fn set_up(args: &RunArgs, work: &Path, checks: &mut Checks) -> Result<(Inputs, Vec<f64>), String> {
    let wl = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut inputs: Option<Inputs> = None;
    for round in 0..SETUP_ROUNDS {
        let started = Instant::now();
        let fresh = workload::generate(
            wl,
            args.scale,
            args.seed,
            &work.join(format!("setup{round}")),
        )?;
        if wl == Workload::ReprofileDelta {
            let (_, primed) = spawn(wl, Job::Prime, &fresh.source_dir(), &fresh.target_dir())?;
            let counts = primed.delta.ok_or("a prime run reports delta counts")?;
            checks.check(
                counts.pairs_redone == fresh.pairs.len() as u64 && counts.fallbacks == 0,
                || format!("priming redid {counts:?}, not every table once"),
            );
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = inputs.replace(fresh) {
            let fresh = inputs.as_ref().expect("just set");
            checks.check(previous.fingerprint == fresh.fingerprint, || {
                "one seed wrote different input bytes in two set-up rounds".to_owned()
            });
            let _ = std::fs::remove_dir_all(&previous.dir);
        }
    }
    Ok((inputs.expect("at least one set-up round"), setup_s))
}

/// The untraced reps of a run.
struct Timed {
    reps: Vec<Rep>,
    /// Each rep's wall time over the mean of the speed-reference runs just
    /// before and after it.
    relative: Vec<f64>,
    /// Every speed-reference time.
    references: Vec<f64>,
}

/// Untraced reps until `budget` has passed since `started` (at least
/// [`MIN_REPS`]), with speed-reference runs between them.
fn timed_reps(
    wl: Workload,
    inputs: &Inputs,
    work: &Path,
    checks: &mut Checks,
    started: Instant,
    budget: Duration,
) -> Result<Timed, String> {
    let mut timed: Vec<Rep> = Vec::new();
    // For each good rep, the index of the last reference taken before it;
    // another is always taken after the last rep.
    let mut before: Vec<usize> = Vec::new();
    let mut references = vec![reference::run()];
    let mut last_reference = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed() < budget {
        reps += 1;
        let index = references.len() - 1;
        if let Some(rep) = run_rep(wl, Job::Timed, inputs, work, checks, timed.first())? {
            timed.push(rep);
            before.push(index);
        }
        if last_reference.elapsed() >= reference::EVERY {
            references.push(reference::run());
            last_reference = Instant::now();
        }
    }
    if before.last() == Some(&(references.len() - 1)) {
        references.push(reference::run());
    }
    let relative = timed
        .iter()
        .zip(&before)
        .map(|(rep, &i)| rep.wall_s / ((references[i] + references[i + 1]) / 2.0))
        .collect();
    Ok(Timed {
        reps: timed,
        relative,
        references,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-pair Δcost and Δcore (§5.2): result over reference.
fn quality(tables: &[TableProfile], pairs: &[PairRef]) -> (Vec<f64>, Vec<f64>) {
    let mut cost = Vec::new();
    let mut core = Vec::new();
    for (table, pair) in tables.iter().zip(pairs) {
        if let TableOutcome::Explained {
            core: c, cost: k, ..
        } = table.outcome
        {
            cost.push(ratio(k as f64, pair.cost as f64));
            core.push(ratio(c as f64, pair.core as f64));
        }
    }
    (cost, core)
}

/// One rep: for `reprofile-delta`, a fresh copy of the primed target
/// snapshot with 10% of its tables edited; then the child. Checks its
/// output against the generator's facts and against `first`, the first
/// good timed rep. `None` when the child failed.
fn run_rep(
    wl: Workload,
    job: Job,
    inputs: &Inputs,
    work: &Path,
    checks: &mut Checks,
    first: Option<&Rep>,
) -> Result<Option<Rep>, String> {
    let n = inputs.pairs.len() as u64;
    checks.attempted += n;
    let rep_dir = work.join("rep");
    let (target, dirty) = if wl == Workload::ReprofileDelta {
        let target = rep_dir.join("tgt");
        copy_dir(&inputs.target_dir(), &target)?;
        let dirty = workload::dirty_tables(&target, &inputs.pairs)?;
        (target, dirty)
    } else {
        (inputs.target_dir(), Vec::new())
    };
    let spawned = spawn(wl, job, &inputs.source_dir(), &target);
    let rep = match spawned {
        Err(e) => {
            checks.failed += n;
            checks.failures.insert(e);
            None
        }
        Ok((wall_s, report)) => {
            checks.failed += verify(&report, inputs, &dirty, first, checks);
            if let Some(counts) = report.delta {
                let want = dirty.len() as u64;
                checks.check(
                    counts.pairs_redone == want
                        && counts.pairs_spliced == n - want
                        && counts.fallbacks == 0,
                    || format!("delta run {counts:?}, expected {want} redone, no fallbacks"),
                );
            }
            if wl == Workload::ReprofileDelta && first.is_none() {
                match spawn(wl, Job::Scratch, &inputs.source_dir(), &target) {
                    Ok((_, scratch)) => checks.check(scratch.digest == report.digest, || {
                        "profile --delta output differs from a from-scratch profile".to_owned()
                    }),
                    Err(e) => checks.check(false, || e),
                }
            }
            Some(Rep { wall_s, report })
        }
    };
    let _ = std::fs::remove_dir_all(&rep_dir);
    Ok(rep)
}

/// Check one report; the number of failed pairs.
fn verify(
    report: &ChildReport,
    inputs: &Inputs,
    dirty: &[String],
    first: Option<&Rep>,
    checks: &mut Checks,
) -> u64 {
    if let Some(first) = first {
        checks.check(report.digest == first.report.digest, || {
            "the --stable output differs between reps".to_owned()
        });
    }
    if let Some(trace) = &report.trace {
        checks.check(trace.dropped == 0 && trace.unclosed == 0, || {
            format!(
                "trace lost spans: {} events dropped, {} spans unclosed",
                trace.dropped, trace.unclosed
            )
        });
    }
    if report.tables.len() != inputs.pairs.len() {
        checks.failures.insert(format!(
            "{} tables reported, {} expected",
            report.tables.len(),
            inputs.pairs.len()
        ));
        return inputs.pairs.len() as u64;
    }
    let stripped = |tables: &[TableProfile]| {
        let mut profile = SnapshotProfile {
            tables: tables.to_vec(),
        };
        profile.strip_timing();
        profile.tables
    };
    let mine = stripped(&report.tables);
    let reference = first.map(|f| stripped(&f.report.tables));
    let mut failed = 0;
    for (i, (table, pair)) in mine.iter().zip(&inputs.pairs).enumerate() {
        let extra = usize::from(dirty.contains(&pair.stem));
        let ok = table.name == pair.stem
            && match table.outcome {
                TableOutcome::Explained {
                    core,
                    deleted,
                    inserted,
                    ..
                } => {
                    core + deleted == pair.source_rows
                        && core + inserted == pair.target_rows + extra
                }
                _ => false,
            }
            && reference.as_ref().is_none_or(|r| {
                serde_json::to_string(&r[i]).ok() == serde_json::to_string(table).ok()
            });
        if !ok {
            failed += 1;
            checks
                .failures
                .insert(format!("{}: {:?}", pair.stem, table.outcome));
        }
    }
    failed
}

/// Run a child job on a snapshot pair: its wall time from spawn to exit
/// and its report.
fn spawn(wl: Workload, job: Job, src: &Path, tgt: &Path) -> Result<(f64, ChildReport), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let started = Instant::now();
    let output = Command::new(exe)
        .arg("--child")
        .arg(job.name())
        .arg("--workload")
        .arg(wl.name())
        .arg("--src")
        .arg(src)
        .arg("--tgt")
        .arg(tgt)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning a {} child: {e}", job.name()))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{} child {}: {}",
            job.name(),
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let report = serde_json::from_str(line)
        .map_err(|e| format!("{} child printed no report ({e})", job.name()))?;
    Ok((wall_s, report))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let err = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    std::fs::create_dir_all(to).map_err(|e| err(to, e))?;
    for entry in std::fs::read_dir(from).map_err(|e| err(from, e))? {
        let path: PathBuf = entry.map_err(|e| err(from, e))?.path();
        let name = path.file_name().expect("directory entries have names");
        std::fs::copy(&path, to.join(name)).map_err(|e| err(&path, e))?;
    }
    Ok(())
}

/// Per-pair search times pooled over the timed reps, as a comment line.
fn print_pair_times(timed: &[Rep]) {
    let millis: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.report.tables)
        .filter_map(|t| match t.outcome {
            TableOutcome::Explained { millis, .. } => Some(millis as f64),
            _ => None,
        })
        .collect();
    if let Some(s) = Summary::of(&millis) {
        println!("# pair search ms, pooled over reps {}", s.describe());
    }
}

/// The traced run's totals for every span name, on stderr.
fn print_spans(report: &ChildReport) {
    let Some(trace) = &report.trace else { return };
    eprintln!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "calls", "busy_s", "self_s"
    );
    for (name, t) in &trace.spans {
        eprintln!(
            "{name:<24} {:>8} {:>12.6} {:>12.6}",
            t.calls,
            secs(t.busy_us),
            secs(t.self_us)
        );
    }
}

/// How a per-layer metric is read off one traced rep.
type Extract = fn(&TraceReport) -> f64;

/// The per-layer metrics a traced rep yields, in `BENCHMARK.json` order
/// after the two process-wide ones. Every layer here runs in every
/// workload; spans that only some workloads reach (`blocking.refine` and
/// the parallel ingest phases on `tall`, `delta.*` on `reprofile-delta`)
/// are printed in the span table instead.
const LAYERS: [(&str, &str, Extract); 17] = [
    ("trace.wall_s", "s", |t| secs(t.wall_us)),
    ("trace.unattributed_share", "ratio", unattributed_share),
    ("obs.events", "count", |t| t.events as f64),
    ("store.ingest.busy_s", "s", |t| t.busy_s("ingest.stream")),
    ("store.ingest.rows", "count", |t| t.ingest_rows as f64),
    ("store.ingest.rows_per_s", "1/s", |t| {
        ratio(t.ingest_rows as f64, t.busy_s("ingest.stream"))
    }),
    ("core.search.busy_s", "s", |t| t.busy_s("search.explain")),
    ("core.search.self_s", "s", |t| t.self_s("search.explain")),
    ("core.search.unattributed_share", "ratio", |t| {
        ratio(t.self_s("search.explain"), t.busy_s("search.explain"))
    }),
    ("core.search.calls", "count", |t| t.calls("search.explain")),
    ("core.extend.busy_s", "s", |t| t.busy_s("search.expand")),
    ("core.extend.self_s", "s", |t| t.self_s("search.expand")),
    ("core.extend.calls", "count", |t| t.calls("search.expand")),
    ("core.induction.busy_s", "s", |t| {
        t.busy_s("induce.candidates")
    }),
    ("core.induction.calls", "count", |t| {
        t.calls("induce.candidates")
    }),
    ("core.finalize.busy_s", "s", |t| t.busy_s("search.finalize")),
    ("core.finalize.calls", "count", |t| {
        t.calls("search.finalize")
    }),
];

fn secs(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// Share of the traced wall time outside the benchmark's spans around
/// its calls into the program.
fn unattributed_share(t: &TraceReport) -> f64 {
    ratio(
        t.wall_us.saturating_sub(t.bench_us) as f64,
        t.wall_us as f64,
    )
}

/// The per-layer metrics: process totals from the timed reps, layer
/// splits from the traced ones, each the median over its reps.
fn per_layer(timed: &[Rep], traced: &[Rep], checks: &mut Checks) -> Vec<Metric> {
    let cpu: Vec<f64> = timed.iter().map(|r| r.report.cpu_s).collect();
    let parallelism: Vec<f64> = timed
        .iter()
        .map(|r| ratio(r.report.cpu_s, r.wall_s))
        .collect();
    let traces: Vec<&TraceReport> = traced
        .iter()
        .filter_map(|r| r.report.trace.as_ref())
        .collect();
    let unattributed: Vec<f64> = traces.iter().map(|t| unattributed_share(t)).collect();
    checks.check(unattributed.iter().all(|&u| u <= 0.05), || {
        format!("trace.unattributed_share {unattributed:?} is above 0.05")
    });
    let mut metrics = vec![
        Metric::median("run.cpu_s", "s", "timed reps", &cpu),
        Metric::median("run.parallelism", "ratio", "timed reps", &parallelism),
    ];
    metrics.extend(LAYERS.iter().map(|&(name, unit, extract)| {
        let values: Vec<f64> = traces.iter().map(|t| extract(t)).collect();
        Metric::median(name, unit, "traced reps", &values)
    }));
    metrics
}
