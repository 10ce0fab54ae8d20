//! CLI subcommand implementations.

use std::path::Path;

use affidavit_core::apply::transform_table;
use affidavit_core::portable::PortableExplanation;
use affidavit_core::report::{render_report, to_sql};
use affidavit_core::{Affidavit, AffidavitConfig, ProblemInstance, MAX_THREADS};
use affidavit_datagen::blueprint::{Blueprint, BlueprintError, GenConfig};
use affidavit_store::{ingest, IngestOptions};
use affidavit_table::{csv, AttrId, Table, TableError, ValuePool};

/// `println!` for command output: a failed write — typically a reader
/// that closed the pipe early (`affidavit explain … | head`) — comes back
/// as an `Err` that ends the command, instead of a panic. Unit tests keep
/// `println!` so the test harness still captures the output; the binary
/// tests exercise the real path.
macro_rules! say {
    ($($arg:tt)*) => {{
        #[cfg(test)]
        let written: Result<(), String> = {
            println!($($arg)*);
            Ok(())
        };
        #[cfg(not(test))]
        let written = {
            use std::io::Write as _;
            writeln!(std::io::stdout().lock(), $($arg)*).map_err(stdout_error)
        };
        written
    }};
}

/// The error of a write to a stdout whose reader has gone. Not a failure
/// of the command: [`crate::run`] ends such a run quietly.
pub(crate) const STDOUT_CLOSED: &str = "stdout closed by its reader";

pub(crate) fn stdout_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.to_owned()
    } else {
        format!("writing to stdout: {e}")
    }
}

/// Write `table` to stdout as CSV.
fn csv_to_stdout(table: &Table, pool: &ValuePool) -> Result<(), String> {
    csv::write(
        std::io::stdout().lock(),
        table,
        pool,
        csv::CsvOptions::default(),
    )
    .map_err(|e| match e {
        TableError::Io(e) => stdout_error(e),
        e => e.to_string(),
    })
}

/// Top-level usage text.
pub const USAGE: &str = "\
affidavit — explain differences between unaligned table snapshots (EDBT 2020)

USAGE:
  affidavit explain <source.csv> <target.csv> [SEARCH] [INGESTION] [INCREMENTAL]
                    [--align] [--sql TABLE] [--trace] [--save F.json] [--stable]
  affidavit diff    <source.csv> <target.csv> --key COL[,COL...]
  affidavit apply   <source.csv> <target.csv> <unseen.csv> [SEARCH] [--out FILE]
  affidavit apply   --explanation F.json <unseen.csv> [--out FILE]
  affidavit gen     <dataset> [--eta F] [--tau F] [--rows N] [--seed N] --out-dir DIR
  affidavit profile <source_dir> <target_dir> [SEARCH] [INGESTION] [DISTRIBUTED]
                    [INCREMENTAL] [--align] [--json FILE] [--stable]
  affidavit serve   [--listen ADDR] [--sessions N] [--max-inflight N]
                    [--request-deadline-secs N]
  affidavit client  --connect HOST:PORT <source.csv> <target.csv> [SEARCH]
                    [INGESTION] [INCREMENTAL] [--align] [--stable]
                    [--format human|json]
  affidavit client  --connect HOST:PORT (--ping | --server-stats | --metrics
                    | --shutdown | --pin <source.csv> <target.csv>)
  affidavit help

Every command also accepts the OBSERVABILITY flags below.

SEARCH FLAGS (explain, apply, profile):
  --config id|overlap      Paper configuration: H^id robust search or Hs greedy
                           overlap search (default: id).
  --seed N                 RNG seed; every sample the search draws is
                           deterministic given the seed (default: 3988201504
                           = 0xEDB72020).
  --threads N              Worker threads for each search's attribute scan
                           and refinements, and for ingestion; 0 = one per
                           hardware thread (default: 1; at most 1024).
                           profile also runs table pairs concurrently, one
                           per hardware thread, whatever --threads is.
                           Results are byte-identical at every thread count.
  --trace                  Record and print the search tree (default: off).
  --corpus                 Also draw candidates from the built-in function
                           corpus (default: off; induction only).
  --extended               Enable the extension function kinds: zero padding,
                           thousands grouping, rounding, token programs
                           (default: off; the paper's Table 1 catalogue).

INGESTION FLAGS (explain, profile, client):
  --ingest-chunk-rows N    Records per streaming-ingestion chunk (default:
                           4096 rows). Smaller chunks bound memory tighter
                           and parallelize finer; the parsed table is
                           identical either way.

INCREMENTAL FLAGS (explain, profile, client):
  --delta                  Reuse the previous run's results for unchanged
                           table pairs: block fingerprints are diffed
                           against the run's manifest, clean pairs splice
                           their stored report, and only dirty pairs
                           re-enter the search. Output is byte-identical
                           to a from-scratch run; a broken or stale
                           manifest falls back to a full redo, never a
                           wrong answer (default: off).
  --delta-state DIR        Directory holding the delta manifest. On the
                           client this names a directory on the server
                           (default: a sibling of the target —
                           <target.csv>.affidavit-delta.json for explain,
                           <target_dir>/.affidavit-delta.json for
                           profile).

DISTRIBUTED FLAGS (profile):
  --workers N              Fan table pairs out to N affidavit-worker child
                           processes that steal them from this process
                           over TCP (default: 0 = profile in-process). The
                           report is byte-identical at every worker count.
                           Extra workers on any machine can join the run
                           with `affidavit-worker --connect HOST:PORT`.
  --listen ADDR            Bind address of the coordinator's listener
                           (default: 127.0.0.1:0 = loopback with an
                           OS-chosen port). Bind a routable address to
                           accept workers from other machines — trusted
                           networks only: the protocol carries no
                           authentication yet.
  --steal-timeout-secs N   Re-publish a worker's claimed job for others to
                           steal if no result arrives within N seconds;
                           the wait doubles on every retry of the same job
                           (default: 30 seconds).
  --deadline-secs N        Abort the distributed run after N seconds
                           (default: 86400 = 24 h).
  --stable                 Zero wall-clock timings in the output so two
                           runs can be compared byte for byte
                           (default: off).

SERVICE FLAGS (serve, client):
  --listen ADDR            serve: bind address of the daemon's listener.
                           The chosen address is printed on stdout. Bind
                           a routable address to accept clients from
                           other machines — trusted networks only: the
                           protocol carries no authentication yet
                           (default: 127.0.0.1:0 = loopback with an
                           OS-chosen port).
  --sessions N             serve: ingested snapshot pairs kept pinned at
                           once, keyed by content fingerprint; the
                           least-recently-used pair is evicted beyond
                           that (default: 8).
  --max-inflight N         serve: maximum explain/pin requests in flight
                           at once; further ones are answered with a
                           clear busy error instead of queuing
                           (default: 0 = unlimited).
  --request-deadline-secs N
                           serve: wall-clock budget per explain request;
                           an overrunning search is aborted
                           cooperatively and answered with an error.
                           Output stays byte-identical for requests that
                           finish in time (default: 0 = unlimited).
  --connect HOST:PORT      client: the daemon to dial. One keep-alive
                           framed connection carries every request; an
                           unreachable daemon exits with code 3
                           (default: none — required).
  --format human|json      client: output format. human prints the same
                           stdout bytes as the one-shot `explain`; json
                           prints one JSON object on stdout and NDJSON
                           diagnostics on stderr (default: human).
  --ping                   client: liveness probe instead of an explain
                           (default: off).
  --server-stats           client: print the daemon's counters instead
                           of an explain (default: off).
  --metrics                client: print the daemon's metrics registry
                           as Prometheus-style text instead of an
                           explain (default: off).
  --pin                    client: ingest and pin the snapshot pair named
                           by the two CSV paths on the server without
                           searching, so a later explain of the same pair
                           is a guaranteed warm hit (default: off).
  --shutdown               client: ask the daemon to exit cleanly
                           (default: off).

OBSERVABILITY FLAGS (all commands):
  --obs-out PATH|-         Write the span/metric event stream as NDJSON
                           to PATH (appending), or to stderr with `-`.
                           A pure side channel: stdout stays
                           byte-identical with or without it. The
                           AFFIDAVIT_OBS environment variable does the
                           same without the flag: `1` enables recording,
                           any other non-empty value is a sink path
                           (default: off).
  --obs-summary            Print a per-phase time profile (calls, busy,
                           wall, max) on stderr when the command
                           finishes (default: off).";

/// The flag groups of USAGE, by section heading.
const SEARCH_FLAGS: &[&str] = &["config", "seed", "threads", "trace", "corpus", "extended"];
const INGESTION_FLAGS: &[&str] = &["ingest-chunk-rows"];
const INCREMENTAL_FLAGS: &[&str] = &["delta", "delta-state"];
const DISTRIBUTED_FLAGS: &[&str] = &["workers", "listen", "steal-timeout-secs", "deadline-secs"];
const OBSERVABILITY_FLAGS: &[&str] = &["obs-out", "obs-summary"];

/// The flags `command` accepts: exactly what its USAGE line documents,
/// plus the OBSERVABILITY flags every command takes.
fn accepted_flags(command: &str) -> Vec<&'static str> {
    let groups: &[&[&str]] = match command {
        "explain" => &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            INCREMENTAL_FLAGS,
            &["align", "sql", "save", "stable"],
        ],
        "diff" => &[&["key"]],
        "apply" => &[SEARCH_FLAGS, &["explanation", "out"]],
        "gen" => &[&["eta", "tau", "rows", "seed", "out-dir"]],
        "profile" => &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            DISTRIBUTED_FLAGS,
            INCREMENTAL_FLAGS,
            &["align", "json", "stable"],
        ],
        "serve" => &[&[
            "listen",
            "sessions",
            "max-inflight",
            "request-deadline-secs",
        ]],
        "client" => &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            INCREMENTAL_FLAGS,
            &[
                "connect",
                "align",
                "stable",
                "format",
                "ping",
                "server-stats",
                "metrics",
                "pin",
                "shutdown",
            ],
        ],
        _ => &[],
    };
    groups
        .iter()
        .flat_map(|group| group.iter().copied())
        .chain(OBSERVABILITY_FLAGS.iter().copied())
        .collect()
}

/// Whether `--name` takes a value, as USAGE documents it: a value flag
/// is always written `--name PLACEHOLDER`, a switch never is.
fn takes_value(name: &str) -> bool {
    usage_mentions(name).iter().any(|rest| {
        let mut after = rest.chars();
        after.next() == Some(' ') && after.next().is_some_and(|c| c.is_ascii_alphabetic())
    })
}

/// The USAGE text right after each mention of `--name` (mentions of a
/// longer flag that merely starts with `--name` excluded).
fn usage_mentions(name: &str) -> Vec<&'static str> {
    let needle = format!("--{name}");
    USAGE
        .match_indices(needle.as_str())
        .map(|(at, _)| &USAGE[at + needle.len()..])
        .filter(|rest| !rest.starts_with(|c: char| c == '-' || c.is_ascii_alphanumeric()))
        .collect()
}

/// Simple positional + flag splitter.
struct Parsed<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// Split `command`'s arguments, rejecting any flag the command does not
/// accept: a misspelt or retired flag is a usage error naming the flag,
/// never a silently ignored no-op. A value flag takes the next argument
/// and fails when there is none (or it is another flag); a switch never
/// takes one.
fn parse<'a>(command: &str, args: &'a [String]) -> Result<Parsed<'a>, String> {
    let accepted = accepted_flags(command);
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.as_str());
            continue;
        };
        if !accepted.contains(&name) {
            return Err(format!(
                "{command}: unknown flag --{name} (see `affidavit help` for the flags it accepts)"
            ));
        }
        let value = if takes_value(name) {
            match args.next() {
                Some(value) if !value.starts_with("--") => Some(value.as_str()),
                _ => return Err(format!("{command}: --{name} needs a value")),
            }
        } else {
            None
        };
        flags.push((name, value));
    }
    Ok(Parsed { positional, flags })
}

impl<'a> Parsed<'a> {
    fn flag(&self, name: &str) -> Option<Option<&'a str>> {
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn flag_value(&self, name: &str) -> Option<&'a str> {
        self.flag(name).flatten()
    }

    fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }
}

fn load_instance(src: &str, tgt: &str) -> Result<ProblemInstance, String> {
    let mut pool = ValuePool::new();
    let source = read_csv(src, &mut pool)?;
    let target = read_csv(tgt, &mut pool)?;
    ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())
}

fn read_csv(path: &str, pool: &mut ValuePool) -> Result<Table, String> {
    csv::read_path(path, pool, csv::CsvOptions::default()).map_err(|e| format!("{path}: {e}"))
}

fn read_csv_streaming(
    path: &str,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, String> {
    ingest::read_path(path, pool, opts).map_err(|e| format!("{path}: {e}"))
}

/// Ingestion flags shared by `explain`, `profile` and `client`.
/// Ingestion workers follow `--threads` (the search's worker count).
fn build_ingest(p: &Parsed<'_>, threads: usize) -> Result<IngestOptions, String> {
    let mut ingest_opts = IngestOptions {
        threads,
        ..IngestOptions::default()
    };
    if let Some(v) = p.flag_value("ingest-chunk-rows") {
        ingest_opts.chunk_rows = v
            .parse()
            .map_err(|_| format!("bad --ingest-chunk-rows {v:?} (records per chunk)"))?;
    }
    Ok(ingest_opts)
}

/// A worker-count flag (`--threads`, `--workers`): a count up to
/// [`MAX_THREADS`], so a typo cannot spawn threads or processes without
/// bound.
fn count_flag(p: &Parsed<'_>, name: &str, zero: &str) -> Result<Option<usize>, String> {
    let Some(v) = p.flag_value(name) else {
        return Ok(None);
    };
    v.parse()
        .ok()
        .filter(|&n| affidavit_core::check_threads(n).is_ok())
        .map(Some)
        .ok_or_else(|| format!("bad --{name} {v:?} (a count up to {MAX_THREADS}, {zero})"))
}

fn build_config(p: &Parsed<'_>) -> Result<AffidavitConfig, String> {
    let mut cfg = match p.flag_value("config").unwrap_or("id") {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => return Err(format!("unknown --config {other:?} (use id|overlap)")),
    };
    if let Some(seed) = p.flag_value("seed") {
        cfg.seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    }
    if let Some(threads) = count_flag(p, "threads", "or 0 for auto")? {
        cfg.threads = threads;
    }
    if p.has("trace") {
        cfg.trace = true;
    }
    if p.has("corpus") {
        cfg.use_corpus = true;
    }
    if p.has("extended") {
        cfg.registry = affidavit_functions::Registry::extended();
    }
    Ok(cfg)
}

/// `affidavit explain`: learn the transformation and alignment.
pub fn explain(args: &[String]) -> Result<(), String> {
    let p = parse("explain", args)?;
    let [src, tgt] = p.positional[..] else {
        return Err(format!("explain needs two CSV paths\n{USAGE}"));
    };
    let cfg = build_config(&p)?;
    let ingest_opts = build_ingest(&p, cfg.threads)?;
    if p.has("delta-state") && !p.has("delta") {
        return Err("--delta-state requires --delta".to_owned());
    }
    if p.has("delta") {
        // A spliced run performs no fresh search, so the flags that
        // expose search internals cannot be answered from the manifest.
        for flag in ["trace", "sql", "save"] {
            if p.has(flag) {
                return Err(format!(
                    "--{flag} does not combine with --delta (a spliced run performs no fresh search)"
                ));
            }
        }
        let opts = affidavit_core::profiling::ProfileOptions {
            config: cfg,
            align: p.has("align"),
            ingest: ingest_opts,
            ..Default::default()
        };
        let state = match p.flag_value("delta-state") {
            Some(dir) => Path::new(dir).join("explain.affidavit-delta.json"),
            None => affidavit_core::delta::default_explain_state(Path::new(tgt)),
        };
        let outcome =
            affidavit_core::delta::explain_delta(Path::new(src), Path::new(tgt), &opts, &state)?;
        affidavit_obs::diag("delta", &outcome.stats.summary());
        say!("{}", outcome.report)?;
        let duration = if p.has("stable") {
            std::time::Duration::ZERO
        } else {
            outcome.duration
        };
        say!(
            "search: {} states polled, {} generated, {duration:?}",
            outcome.polled,
            outcome.generated
        )?;
        return Ok(());
    }
    let mut pool = ValuePool::new();
    let mut instance = if p.has("align") {
        // §6 future work: align renamed/reordered target columns by
        // content before explaining; with unequal arity, first look for
        // merged/split columns and normalize.
        let mut source = read_csv_streaming(src, &mut pool, &ingest_opts)?;
        let mut target = read_csv_streaming(tgt, &mut pool, &ingest_opts)?;
        if source.schema().arity() != target.schema().arity() {
            let Some((s2, t2, applied)) =
                affidavit_core::restructure::normalize_arity(&source, &target, &mut pool)
            else {
                return Err(
                    "--align: column counts differ and no merge/split evidence was found"
                        .to_owned(),
                );
            };
            for r in &applied {
                match r {
                    affidavit_core::restructure::Restructure::Merge {
                        target, left, right, sep, score,
                    } => eprintln!(
                        "detected merge: source {:?} ◦ {sep:?} ◦ {:?} → target {:?} (score {score:.2})",
                        source.schema().name(*left),
                        source.schema().name(*right),
                        t2.schema().name(*target),
                    ),
                    affidavit_core::restructure::Restructure::Split {
                        source: col, left, right, sep, score,
                    } => eprintln!(
                        "detected split: source {:?} → target {:?} ◦ {sep:?} ◦ {:?} (score {score:.2})",
                        source.schema().name(*col),
                        target.schema().name(*left),
                        target.schema().name(*right),
                    ),
                }
            }
            source = s2;
            target = t2;
        }
        let alignment = affidavit_core::schema_align::align_schemas(&source, &target, &pool);
        let pairs: Vec<String> = alignment
            .pairs()
            .map(|(i, j)| format!("{} ← {}", source.schema().name(i), target.schema().name(j)))
            .collect();
        eprintln!(
            "schema alignment (min confidence {:.2}): {}",
            alignment.min_confidence(),
            pairs.join(", ")
        );
        let target = alignment.reorder_target(&target, source.schema());
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())?
    } else {
        let source = read_csv_streaming(src, &mut pool, &ingest_opts)?;
        let target = read_csv_streaming(tgt, &mut pool, &ingest_opts)?;
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())?
    };
    let outcome = Affidavit::new(cfg).explain(&mut instance);
    say!("{}", render_report(&outcome.explanation, &instance))?;
    // --stable zeroes the one nondeterministic byte sequence on stdout,
    // so two runs (or a run and a served client) diff clean.
    let duration = if p.has("stable") {
        std::time::Duration::ZERO
    } else {
        outcome.stats.duration
    };
    say!(
        "search: {} states polled, {} generated, {duration:?}",
        outcome.stats.polled,
        outcome.stats.states_generated
    )?;
    if let Some(trace) = outcome.trace {
        say!("\nsearch tree:\n{}", trace.render())?;
    }
    if let Some(table) = p.flag_value("sql") {
        say!("\n{}", to_sql(&outcome.explanation, &instance, table))?;
    }
    if let Some(path) = p.flag_value("save") {
        let portable = PortableExplanation::from_explanation(&outcome.explanation, &instance);
        std::fs::write(path, portable.to_json()).map_err(|e| e.to_string())?;
        eprintln!("saved explanation to {path}");
    }
    Ok(())
}

/// `affidavit profile`: explain every table pair in two snapshot
/// directories (paired by file stem) — in-process by default, or fanned
/// out to `affidavit-worker` child processes with `--workers N`.
pub fn profile(args: &[String]) -> Result<(), String> {
    let p = parse("profile", args)?;
    let [src_dir, tgt_dir] = p.positional[..] else {
        return Err(format!("profile needs two directories\n{USAGE}"));
    };
    let config = build_config(&p)?;
    let ingest_opts = build_ingest(&p, config.threads)?;
    let opts = affidavit_core::profiling::ProfileOptions {
        config,
        align: p.has("align"),
        ingest: ingest_opts,
        ..Default::default()
    };
    let workers = count_flag(&p, "workers", "0 = in-process")?.unwrap_or(0);
    let secs_flag = |name: &str, default: u64| -> Result<std::time::Duration, String> {
        match p.flag_value(name) {
            None => Ok(std::time::Duration::from_secs(default)),
            Some(v) => v
                .parse()
                .map(std::time::Duration::from_secs)
                .map_err(|_| format!("bad --{name} {v:?} (seconds)")),
        }
    };
    if p.has("delta-state") && !p.has("delta") {
        return Err("--delta-state requires --delta".to_owned());
    }
    if p.has("delta") && workers > 0 {
        return Err(
            "--delta does not combine with --workers (incremental state is per-process)".to_owned(),
        );
    }
    let mut profile = if workers == 0 {
        for flag in ["listen", "steal-timeout-secs", "deadline-secs"] {
            if p.has(flag) {
                return Err(format!(
                    "--{flag} only applies to distributed runs; add --workers N"
                ));
            }
        }
        if p.has("delta") {
            let state = match p.flag_value("delta-state") {
                Some(dir) => Path::new(dir).join("profile.affidavit-delta.json"),
                None => affidavit_core::delta::default_profile_state(Path::new(tgt_dir)),
            };
            let (profile, stats) = affidavit_core::delta::profile_dirs_delta(
                Path::new(src_dir),
                Path::new(tgt_dir),
                &opts,
                &state,
            )?;
            affidavit_obs::diag("delta", &stats.summary());
            profile
        } else {
            affidavit_core::profiling::profile_dirs(Path::new(src_dir), Path::new(tgt_dir), &opts)?
        }
    } else {
        let backend = affidavit_dist::DistBackend::Tcp {
            listen: p.flag_value("listen").map(str::to_owned),
            worker_bin: None,
        };
        let dopts = affidavit_dist::DistOptions {
            workers,
            backend,
            steal_timeout: secs_flag("steal-timeout-secs", 30)?,
            deadline: secs_flag("deadline-secs", 86_400)?,
            ..affidavit_dist::DistOptions::default()
        };
        let (profile, stats) = affidavit_dist::profile_dirs_distributed(
            Path::new(src_dir),
            Path::new(tgt_dir),
            &opts,
            &dopts,
        )?;
        affidavit_obs::diag(
            "distributed",
            &format!(
                "{} jobs over {} workers — {} steals, {} stragglers requeued, \
                 {} duplicates discarded, {} conflicts",
                stats.jobs,
                stats.workers,
                stats.steals,
                stats.stragglers_requeued,
                stats.duplicates_discarded,
                stats.conflicts
            ),
        );
        profile
    };
    if p.has("stable") {
        profile.strip_timing();
    }
    say!("{}", profile.render())?;
    if let Some(path) = p.flag_value("json") {
        std::fs::write(path, profile.to_json()).map_err(|e| e.to_string())?;
        eprintln!("wrote machine-readable profile to {path}");
    }
    Ok(())
}

/// `affidavit serve`: run the resident profiling daemon until a client
/// asks it to shut down (`affidavit client --connect ADDR --shutdown`).
pub fn serve(args: &[String]) -> Result<(), String> {
    let p = parse("serve", args)?;
    if !p.positional.is_empty() {
        return Err(format!("serve takes no positional arguments\n{USAGE}"));
    }
    let sessions: usize = match p.flag_value("sessions") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --sessions {v:?} (pinned snapshot pairs)"))?,
        None => 8,
    };
    let max_inflight: usize = match p.flag_value("max-inflight") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --max-inflight {v:?} (requests, 0 = unlimited)"))?,
        None => 0,
    };
    let request_deadline = match p.flag_value("request-deadline-secs") {
        Some(v) => {
            let secs: u64 = v.parse().map_err(|_| {
                format!("bad --request-deadline-secs {v:?} (seconds, 0 = unlimited)")
            })?;
            (secs > 0).then(|| std::time::Duration::from_secs(secs))
        }
        None => None,
    };
    let opts = affidavit_serve::ServeOptions {
        listen: p.flag_value("listen").unwrap_or("127.0.0.1:0").to_owned(),
        sessions,
        max_inflight,
        request_deadline,
        ..affidavit_serve::ServeOptions::default()
    };
    let mut daemon = affidavit_serve::serve(&opts)?;
    // Scripts capture the chosen port from this line — flush through
    // pipe buffering before parking.
    say!("affidavit serve listening on {}", daemon.local_addr())?;
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    let stats = daemon.stats();
    affidavit_obs::diag(
        "serve",
        &format!(
            "{} requests over {} connections — {} ingests, {} warm hits, {} evictions",
            stats.requests, stats.connections, stats.ingests, stats.hits, stats.evictions
        ),
    );
    Ok(())
}

/// `affidavit client`: run one request against a resident daemon. The
/// human-format stdout of an explain is byte-identical to the one-shot
/// `affidavit explain` under the same flags; an unreachable daemon
/// exits with code 3 (the broker-lost convention).
pub fn client(args: &[String]) -> Result<(), crate::Failure> {
    use affidavit_serve::{ClientError, ServeClient};
    let plain = crate::Failure::from;
    let p = parse("client", args).map_err(plain)?;
    let fail = |e: ClientError| crate::Failure {
        code: if matches!(e, ClientError::Lost(_)) {
            affidavit_dist::BROKER_LOST_EXIT_CODE
        } else {
            1
        },
        message: e.to_string(),
    };
    let Some(addr) = p.flag_value("connect") else {
        return Err(plain(format!(
            "client requires --connect HOST:PORT\n{USAGE}"
        )));
    };
    let format = p.flag_value("format").unwrap_or("human");
    let json = match format {
        "human" => false,
        "json" => true,
        other => {
            return Err(plain(format!(
                "unknown --format {other:?} (use human|json)"
            )))
        }
    };
    // Diagnostics go to stderr: plain text under human, NDJSON under
    // json — stdout stays reserved for the data itself either way. The
    // rendering lives in the shared obs layer so every crate's stderr
    // diagnostics speak the same two formats.
    affidavit_obs::set_diag_format(if json {
        affidavit_obs::DiagFormat::Ndjson
    } else {
        affidavit_obs::DiagFormat::Human
    });
    let diag = affidavit_obs::diag;
    let remote = ServeClient::new(addr);
    if p.has("ping") {
        remote.ping().map_err(fail)?;
        if json {
            say!("{{\"status\":\"pong\"}}")?;
        } else {
            say!("pong from {addr}")?;
        }
        return Ok(());
    }
    if p.has("server-stats") {
        let stats = remote.stats().map_err(fail)?;
        if json {
            say!(
                "{}",
                serde_json::to_string(&stats).expect("stats serialize")
            )?;
        } else {
            say!(
                "serve stats: {} requests over {} connections — {} sessions pinned, \
                 {} ingests, {} warm hits, {} evictions",
                stats.requests,
                stats.connections,
                stats.sessions,
                stats.ingests,
                stats.hits,
                stats.evictions
            )?;
        }
        return Ok(());
    }
    if p.has("metrics") {
        // Prometheus text exposition is already machine-readable, so
        // both formats print it verbatim.
        let text = remote.metrics().map_err(fail)?;
        std::io::Write::write_all(&mut std::io::stdout().lock(), text.as_bytes())
            .map_err(stdout_error)?;
        return Ok(());
    }
    if p.has("pin") {
        // `--pin` is a switch, so `--pin SRC TGT` and `SRC TGT --pin`
        // both arrive as two positionals.
        let [src, tgt] = p.positional[..] else {
            return Err(plain(format!(
                "client --pin needs two CSV paths (on the server's filesystem)\n{USAGE}"
            )));
        };
        let cfg = build_config(&p).map_err(plain)?;
        let ingest_opts = build_ingest(&p, cfg.threads).map_err(plain)?;
        let spec = build_spec(src, tgt, cfg, &p, &ingest_opts);
        let warm = remote.pin(&spec).map_err(fail)?;
        diag(
            "session",
            if warm {
                "warm (already pinned)"
            } else {
                "cold (ingested and pinned on the server)"
            },
        );
        if json {
            say!("{{\"status\":\"pinned\",\"warm\":{warm}}}")?;
        } else {
            say!(
                "pinned {src} and {tgt} on {addr} ({})",
                if warm { "already warm" } else { "cold" }
            )?;
        }
        return Ok(());
    }
    if p.has("shutdown") {
        remote.shutdown().map_err(fail)?;
        if json {
            say!("{{\"status\":\"shutting_down\"}}")?;
        } else {
            say!("server at {addr} is shutting down")?;
        }
        return Ok(());
    }
    let [src, tgt] = p.positional[..] else {
        return Err(plain(format!(
            "client needs two CSV paths (on the server's filesystem)\n{USAGE}"
        )));
    };
    let cfg = build_config(&p).map_err(plain)?;
    let ingest_opts = build_ingest(&p, cfg.threads).map_err(plain)?;
    let spec = build_spec(src, tgt, cfg, &p, &ingest_opts);
    let reply = remote.explain(&spec).map_err(fail)?;
    diag(
        "session",
        if reply.warm {
            "warm (zero ingestion work)"
        } else {
            "cold (ingested on the server)"
        },
    );
    if json {
        say!(
            "{}",
            serde_json::to_string(&reply).expect("replies serialize")
        )?;
    } else {
        // Exactly the one-shot `affidavit explain` stdout: the rendered
        // report, then the search line (timing zeroed under --stable).
        say!("{}", reply.report)?;
        let duration = if p.has("stable") {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_millis(reply.millis)
        };
        say!(
            "search: {} states polled, {} generated, {duration:?}",
            reply.polled,
            reply.generated
        )?;
    }
    Ok(())
}

/// The wire spec for a client `Explain`/`Pin`, from the parsed flags.
fn build_spec(
    src: &str,
    tgt: &str,
    cfg: AffidavitConfig,
    p: &Parsed<'_>,
    ingest_opts: &IngestOptions,
) -> affidavit_serve::ExplainSpec {
    affidavit_serve::ExplainSpec {
        source: src.to_owned(),
        target: tgt.to_owned(),
        config: cfg,
        align: p.has("align"),
        ingest_chunk_rows: ingest_opts.chunk_rows,
        delta: p.has("delta"),
        delta_state: p.flag_value("delta-state").map(str::to_owned),
    }
}

/// `affidavit diff`: classic key-based comparison.
pub fn diff(args: &[String]) -> Result<(), String> {
    let p = parse("diff", args)?;
    let [src, tgt] = p.positional[..] else {
        return Err(format!("diff needs two CSV paths\n{USAGE}"));
    };
    let keys = p
        .flag_value("key")
        .ok_or_else(|| "diff requires --key COL[,COL...]".to_owned())?;
    let instance = load_instance(src, tgt)?;
    let key_attrs: Vec<AttrId> = keys
        .split(',')
        .map(|name| {
            instance
                .schema()
                .find(name.trim())
                .ok_or_else(|| format!("unknown key column {name:?}"))
        })
        .collect::<Result<_, _>>()?;
    let report = affidavit_baselines_diff(&instance, &key_attrs);
    say!("{report}")?;
    Ok(())
}

// The baselines crate is not a CLI dependency (keeps the binary lean), so
// reimplement the small key-diff report here on top of the core types.
fn affidavit_baselines_diff(instance: &ProblemInstance, keys: &[AttrId]) -> String {
    use affidavit_table::{FxHashMap, Sym};
    let mut by_key: FxHashMap<Vec<Sym>, (Vec<affidavit_table::RecordId>, usize)> =
        FxHashMap::default();
    for (tid, rec) in instance.target.iter() {
        let key: Vec<Sym> = keys.iter().map(|a| rec.get(a.index())).collect();
        by_key.entry(key).or_default().0.push(tid);
    }
    let mut matched = 0usize;
    let mut updates = 0usize;
    let mut deletes = 0usize;
    for (sid, rec) in instance.source.iter() {
        let key: Vec<Sym> = keys.iter().map(|a| rec.get(a.index())).collect();
        match by_key.get_mut(&key) {
            Some((tids, next)) if *next < tids.len() => {
                let tid = tids[*next];
                *next += 1;
                matched += 1;
                let changed = instance
                    .schema()
                    .attr_ids()
                    .filter(|a| !keys.contains(a))
                    .any(|a| instance.source.value(sid, a) != instance.target.value(tid, a));
                if changed {
                    updates += 1;
                }
            }
            _ => deletes += 1,
        }
    }
    let inserts: usize = by_key.values().map(|(tids, next)| tids.len() - next).sum();
    format!(
        "key-based diff: {matched} matched ({updates} updated), {deletes} deleted, {inserts} inserted\n\
         note: if keys were reassigned between snapshots this alignment is unreliable — use `affidavit explain`"
    )
}

/// `affidavit apply`: transform unseen rows, either with a freshly learned
/// explanation (three CSV paths) or with a saved one (`--explanation`).
pub fn apply(args: &[String]) -> Result<(), String> {
    let p = parse("apply", args)?;
    if let Some(expl_path) = p.flag_value("explanation") {
        let [unseen_path] = p.positional[..] else {
            return Err(format!("apply --explanation needs one CSV path\n{USAGE}"));
        };
        let json = std::fs::read_to_string(expl_path).map_err(|e| format!("{expl_path}: {e}"))?;
        let portable = PortableExplanation::from_json(&json)?;
        let mut pool = ValuePool::new();
        let unseen = read_csv(unseen_path, &mut pool)?;
        let names: Vec<&str> = unseen.schema().names().collect();
        if names
            != portable
                .schema
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            return Err(format!(
                "schema mismatch: explanation was learned over {:?}, input has {:?}",
                portable.schema, names
            ));
        }
        let functions = portable.functions(&mut pool)?;
        let e = affidavit_core::Explanation::new(functions, vec![], vec![], vec![]);
        let (transformed, failed) = transform_table(&e, &unseen, &mut pool);
        eprintln!(
            "applied saved explanation: {} transformed, {} untransformable",
            transformed.len(),
            failed.len()
        );
        return match p.flag_value("out") {
            Some(path) => {
                csv::write_path(path, &transformed, &pool, csv::CsvOptions::default())
                    .map_err(|e| e.to_string())?;
                eprintln!("wrote {path}");
                Ok(())
            }
            None => csv_to_stdout(&transformed, &pool),
        };
    }
    let [src, tgt, unseen_path] = p.positional[..] else {
        return Err(format!("apply needs three CSV paths\n{USAGE}"));
    };
    let mut instance = load_instance(src, tgt)?;
    let unseen = {
        let mut pool_ref = std::mem::take(&mut instance.pool);
        let t = read_csv(unseen_path, &mut pool_ref)?;
        instance.pool = pool_ref;
        t
    };
    if unseen.schema() != instance.schema() {
        return Err("unseen table schema differs from the snapshots".to_owned());
    }
    let cfg = build_config(&p)?;
    let outcome = Affidavit::new(cfg).explain(&mut instance);
    let (transformed, failed) = transform_table(&outcome.explanation, &unseen, &mut instance.pool);
    eprintln!(
        "learned explanation (core {}, cost {}); transformed {} records, {} untransformable",
        outcome.explanation.core_size(),
        outcome.explanation.cost_units(instance.arity()),
        transformed.len(),
        failed.len()
    );
    match p.flag_value("out") {
        Some(path) => {
            csv::write_path(
                path,
                &transformed,
                &instance.pool,
                csv::CsvOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => csv_to_stdout(&transformed, &instance.pool)?,
    }
    Ok(())
}

/// `affidavit gen`: write a synthetic §5.1 snapshot pair.
pub fn gen(args: &[String]) -> Result<(), String> {
    let p = parse("gen", args)?;
    let [dataset] = p.positional[..] else {
        return Err(format!("gen needs a dataset name\n{USAGE}"));
    };
    let spec = affidavit_datasets::by_name(dataset)
        .ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let fraction = |name: &str| -> Result<(&str, f64), String> {
        let v = p.flag_value(name).unwrap_or("0.3");
        let x = v.parse().map_err(|_| format!("bad --{name} {v:?}"))?;
        Ok((v, x))
    };
    let (eta_flag, eta) = fraction("eta")?;
    let (tau_flag, tau) = fraction("tau")?;
    let seed: u64 = p
        .flag_value("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let rows: usize = match p.flag_value("rows") {
        // One row can never survive the cleaning rules (every value is
        // distinct), so the smallest table worth generating has two.
        Some(r) => match r.parse() {
            Ok(n) if n >= 2 => n,
            _ => return Err(format!("bad --rows {r:?} (a record count of at least 2)")),
        },
        None => spec.rows,
    };
    let out_dir = p
        .flag_value("out-dir")
        .ok_or_else(|| "gen requires --out-dir DIR".to_owned())?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;

    let (base, pool) = affidavit_datasets::synth::generate_rows(&spec, rows, seed);
    let generated = Blueprint::try_new(base, pool, GenConfig::new(eta, tau, seed))
        .map_err(|e| match e {
            BlueprintError::Eta(_) => format!("bad --eta {eta_flag:?} ({e})"),
            BlueprintError::Tau(_) => format!("bad --tau {tau_flag:?} ({e})"),
            BlueprintError::NoAttributeLeft { .. } => format!("gen {dataset} --rows {rows}: {e}"),
        })?
        .materialize_full();
    let dir = Path::new(out_dir);
    let src_path = dir.join(format!("{dataset}_source.csv"));
    let tgt_path = dir.join(format!("{dataset}_target.csv"));
    csv::write_path(
        &src_path,
        &generated.instance.source,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    csv::write_path(
        &tgt_path,
        &generated.instance.target,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    say!(
        "wrote {} and {} (η={eta}, τ={tau}, {} records each, reference cost {})",
        src_path.display(),
        tgt_path.display(),
        generated.instance.source.len(),
        generated.reference.cost_units(generated.instance.arity())
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_positional_and_flags() {
        let args = argv(&[
            "a.csv", "b.csv", "--config", "overlap", "--trace", "--seed", "9",
        ]);
        let p = parse("explain", &args).unwrap();
        assert_eq!(p.positional, vec!["a.csv", "b.csv"]);
        assert_eq!(p.flag_value("config"), Some("overlap"));
        assert_eq!(p.flag_value("seed"), Some("9"));
        assert!(p.has("trace"));
        assert!(!p.has("sql"));
    }

    #[test]
    fn build_config_variants() {
        let good = argv(&["--config", "overlap", "--seed", "123"]);
        let cfg = build_config(&parse("explain", &good).unwrap()).unwrap();
        assert_eq!(cfg.seed, 123);
        assert_eq!(cfg.queue_width, 1);
        let bad = argv(&["--config", "nope"]);
        assert!(build_config(&parse("explain", &bad).unwrap()).is_err());
    }

    #[test]
    fn out_of_range_counts_and_fractions_are_usage_errors() {
        let huge = "99999999999";
        let err = build_config(&parse("explain", &argv(&["--threads", huge])).unwrap());
        assert!(err.unwrap_err().starts_with("bad --threads"));
        // Rejected at parse time: no child process is ever spawned.
        let d = std::env::temp_dir().to_string_lossy().into_owned();
        let err = profile(&argv(&[&d, &d, "--workers", huge])).unwrap_err();
        assert!(err.starts_with("bad --workers"), "{err}");

        let dir = std::env::temp_dir().join(format!("affidavit-gen-bad-{}", std::process::id()));
        let out = dir.to_string_lossy().into_owned();
        let run = |extra: &[&str]| gen(&argv(&[&["--out-dir", &out][..], extra].concat()));
        for (flag, value) in [
            ("--rows", "0"),
            ("--rows", "1"),
            ("--eta", "-1"),
            ("--eta", "2"),
            ("--eta", "nan"),
            ("--tau", "inf"),
            ("--tau", "1"),
        ] {
            let err = run(&["iris", flag, value]).unwrap_err();
            assert!(err.starts_with(&format!("bad {flag}")), "{err}");
        }
        // Every attribute of this 2-row table is too distinct to keep.
        let err = run(&["balance", "--rows", "2", "--seed", "4"]).unwrap_err();
        assert!(err.contains("cleaning rules"), "{err}");
        // The inclusive bounds still generate.
        run(&["iris", "--rows", "20", "--eta", "1", "--tau", "0"]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_ingest_flags() {
        let args = argv(&["--ingest-chunk-rows", "128"]);
        let p = parse("explain", &args).unwrap();
        let ingest_opts = build_ingest(&p, 3).unwrap();
        assert_eq!(ingest_opts.chunk_rows, 128);
        assert_eq!(ingest_opts.threads, 3);
        let bad_chunk = argv(&["--ingest-chunk-rows", "many"]);
        assert!(build_ingest(&parse("explain", &bad_chunk).unwrap(), 1).is_err());
    }

    #[test]
    fn explain_rejects_missing_args() {
        assert!(explain(&argv(&["only-one.csv"])).is_err());
        assert!(diff(&argv(&["a.csv", "b.csv"])).is_err()); // missing --key
        assert!(apply(&argv(&["a.csv", "b.csv"])).is_err());
        assert!(gen(&argv(&[])).is_err());
    }

    #[test]
    fn gen_then_explain_roundtrip() {
        let dir = std::env::temp_dir().join("affidavit-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().to_string();
        gen(&argv(&[
            "iris",
            "--rows",
            "100",
            "--seed",
            "3",
            "--out-dir",
            &dir_s,
        ]))
        .unwrap();
        let src = dir.join("iris_source.csv");
        let tgt = dir.join("iris_target.csv");
        assert!(src.is_file() && tgt.is_file());
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--seed",
            "4",
        ]))
        .unwrap();
        diff(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--key",
            "pk",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_transforms_unseen_rows() {
        let dir = std::env::temp_dir().join("affidavit-cli-apply-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let unseen = dir.join("u.csv");
        let out = dir.join("o.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        std::fs::write(&unseen, "k,v\nz,9000\n").unwrap();
        apply(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(
            written.contains("z,9"),
            "learned x/1000 must apply: {written}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_unknown_dataset_fails() {
        assert!(gen(&argv(&["not-a-dataset", "--out-dir", "/tmp"])).is_err());
    }

    /// Every flag with a description in the FLAGS sections of USAGE.
    const DOCUMENTED_FLAGS: &[&str] = &[
        "--config",
        "--seed",
        "--threads",
        "--trace",
        "--corpus",
        "--extended",
        "--ingest-chunk-rows",
        "--delta",
        "--delta-state",
        "--workers",
        "--listen",
        "--steal-timeout-secs",
        "--deadline-secs",
        "--stable",
        "--sessions",
        "--max-inflight",
        "--request-deadline-secs",
        "--connect",
        "--format",
        "--ping",
        "--server-stats",
        "--metrics",
        "--pin",
        "--shutdown",
        "--obs-out",
        "--obs-summary",
    ];

    const COMMANDS: &[&str] = &[
        "explain", "diff", "apply", "gen", "profile", "serve", "client",
    ];

    #[test]
    fn every_documented_flag_has_a_default_in_help() {
        // The flag audit: each tunable introduced by the parallel search,
        // streaming ingestion and distribution work must be
        // described in USAGE with its default spelled out.
        for flag in DOCUMENTED_FLAGS {
            let line_start = USAGE
                .find(&format!("\n  {flag}"))
                .unwrap_or_else(|| panic!("{flag} missing from the FLAGS sections of USAGE"));
            let description = &USAGE[line_start..][..USAGE[line_start + 1..]
                .find("\n  --")
                .map_or(USAGE.len() - line_start, |i| i + 1)];
            assert!(
                description.contains("(default:"),
                "{flag} must document its default: {description}"
            );
        }
    }

    #[test]
    fn every_documented_flag_is_accepted_and_every_accepted_flag_documented() {
        for flag in DOCUMENTED_FLAGS {
            assert!(
                COMMANDS
                    .iter()
                    .any(|cmd| accepted_flags(cmd).contains(&&flag[2..])),
                "{flag} is documented but no command accepts it"
            );
        }
        for cmd in COMMANDS {
            for flag in accepted_flags(cmd) {
                let mentions = usage_mentions(flag);
                assert!(
                    !mentions.is_empty(),
                    "{cmd} accepts --{flag}, which USAGE never mentions"
                );
                // USAGE is where the parser learns whether a flag takes a
                // value, so every mention must agree.
                let value = takes_value(flag);
                for rest in mentions {
                    let line = rest.lines().next().unwrap_or("");
                    let shown = rest.starts_with(' ') && rest[1..].starts_with(char::is_alphabetic);
                    assert_eq!(shown, value, "--{flag} is written both ways: …{line}");
                }
                let alone = argv(&[&format!("--{flag}")]);
                let before_a_flag = argv(&[&format!("--{flag}"), "--obs-summary"]);
                let before_a_word = argv(&[&format!("--{flag}"), "word"]);
                if value {
                    // A value flag with no value fails loudly, naming it.
                    let needs = format!("{cmd}: --{flag} needs a value");
                    assert_eq!(parse(cmd, &alone).err(), Some(needs.clone()));
                    assert_eq!(parse(cmd, &before_a_flag).err(), Some(needs));
                    let p = parse(cmd, &before_a_word).unwrap();
                    assert_eq!(p.flag_value(flag), Some("word"), "{cmd} --{flag}");
                } else {
                    // A switch never consumes the next argument.
                    let p = parse(cmd, &before_a_word).unwrap();
                    assert!(p.has(flag), "{cmd} --{flag}");
                    assert_eq!(p.positional, vec!["word"], "{cmd} --{flag}");
                }
            }
        }
    }

    #[test]
    fn flags_missing_a_value_are_usage_errors() {
        for (case, flag) in [
            (&["explain", "s.csv", "t.csv", "--threads"][..], "--threads"),
            (
                &["explain", "s.csv", "t.csv", "--seed", "--stable"],
                "--seed",
            ),
            (&["profile", "a", "b", "--workers"], "--workers"),
            (&["client", "s.csv", "t.csv", "--connect"], "--connect"),
        ] {
            let err = crate::run(&argv(case)).unwrap_err();
            assert_eq!(err.code, 1, "{case:?}");
            assert_eq!(err.message, format!("{}: {flag} needs a value", case[0]));
        }
        // A leading switch leaves both paths positional.
        let args = argv(&["--stable", "s.csv", "t.csv"]);
        assert_eq!(
            parse("explain", &args).unwrap().positional,
            ["s.csv", "t.csv"]
        );
        // `--pin` is a switch: both spellings name the same two paths.
        for args in [
            argv(&["--connect", "h:1", "--pin", "s.csv", "t.csv"]),
            argv(&["--connect", "h:1", "s.csv", "t.csv", "--pin"]),
        ] {
            let p = parse("client", &args).unwrap();
            assert!(p.has("pin"));
            assert_eq!(p.positional, ["s.csv", "t.csv"]);
        }
    }

    #[test]
    fn unknown_and_retired_flags_are_usage_errors_naming_the_flag() {
        // Retired flags are spelled in pieces so a search of the tree for
        // their names finds no live use.
        let cases: &[&[&str]] = &[
            &["explain", "s.csv", "t.csv", "--stabel"],
            &["profile", "a", "b", "--steal", "expansions"],
            &["profile", "a", "b", concat!("--expansion", "-batch"), "4"],
            &[
                "profile",
                "a",
                "b",
                concat!("--speculation", "-min-records"),
                "0",
            ],
            &[
                "explain",
                "s.csv",
                "t.csv",
                concat!("--speculation", "-min-records"),
                "0",
            ],
            &[
                "explain",
                "s.csv",
                "t.csv",
                concat!("--speculative", "-width"),
                "4",
            ],
            &[
                "apply",
                "s.csv",
                "t.csv",
                "u.csv",
                concat!("--speculative", "-width"),
                "4",
            ],
            &["profile", "a", "b", concat!("--speculative", "-width"), "4"],
            &[
                "client",
                "--connect",
                "127.0.0.1:1",
                "s.csv",
                "t.csv",
                concat!("--speculative", "-width"),
                "4",
            ],
            &["serve", "--expansion-workers", "2"],
            &["profile", "a", "b", concat!("--trans", "port"), "tcp"],
            &[
                "profile",
                "a",
                "b",
                "--workers",
                "2",
                concat!("--bro", "ker"),
                "d",
            ],
            &["client", "--connect", "127.0.0.1:1", "--ping", "--pong"],
            &[
                "explain",
                "s.csv",
                "t.csv",
                concat!("--pool", "-backend"),
                "disk",
            ],
            &["profile", "a", "b", concat!("--pool", "-backend"), "disk"],
            &[
                "client",
                "--connect",
                "127.0.0.1:1",
                "s.csv",
                "t.csv",
                concat!("--pool", "-backend"),
                "disk",
            ],
            &[
                "explain",
                "s.csv",
                "t.csv",
                concat!("--pool", "-budget-bytes"),
                "4096",
            ],
            &[
                "profile",
                "a",
                "b",
                concat!("--pool", "-budget-bytes"),
                "4096",
            ],
            &[
                "client",
                "--connect",
                "127.0.0.1:1",
                "s.csv",
                "t.csv",
                concat!("--pool", "-budget-bytes"),
                "4096",
            ],
            // A flag documented for one command is unknown to another.
            &["diff", "s.csv", "t.csv", "--key", "k", "--threads", "2"],
            &["gen", "iris", "--out-dir", "d", "--workers", "2"],
        ];
        for case in cases {
            let flag = case
                .iter()
                .find(|a| a.starts_with("--") && !accepted_flags(case[0]).contains(&&a[2..]))
                .expect("each case carries one unaccepted flag");
            let err = crate::run(&argv(case)).unwrap_err();
            assert_eq!(err.code, 1, "{case:?}");
            assert!(
                err.message.contains(&format!("unknown flag {flag}")),
                "{case:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn client_round_trips_against_a_daemon_and_codes_its_exits() {
        let dir = std::env::temp_dir().join("affidavit-cli-serve-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        let mut daemon = affidavit_serve::serve(&affidavit_serve::ServeOptions::default()).unwrap();
        let addr = daemon.local_addr().to_string();
        client(&argv(&["--connect", &addr, "--ping"])).unwrap();
        // A full explain (human and json), twice: the repeat is warm.
        for format in ["human", "json"] {
            client(&argv(&[
                "--connect",
                &addr,
                src.to_str().unwrap(),
                tgt.to_str().unwrap(),
                "--stable",
                "--format",
                format,
            ]))
            .unwrap();
        }
        client(&argv(&["--connect", &addr, "--server-stats"])).unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.ingests, 1, "the repeat must reuse the session");
        assert_eq!(stats.hits, 1);
        // Pinning the already-explained pair performs zero ingestion
        // work, and the metrics op answers for both formats.
        client(&argv(&[
            "--connect",
            &addr,
            "--pin",
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
        ]))
        .unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.ingests, 1, "a pin of a pinned pair is free");
        client(&argv(&["--connect", &addr, "--metrics"])).unwrap();
        assert_eq!(
            client(&argv(&["--connect", &addr, "--pin"]))
                .unwrap_err()
                .code,
            1,
            "--pin without paths is a usage error"
        );
        // Usage errors are exit code 1; a clean shutdown works; after
        // it, the daemon is unreachable — exit code 3.
        assert_eq!(client(&argv(&["--ping"])).unwrap_err().code, 1);
        let bad = client(&argv(&["--connect", &addr, "--format", "xml"])).unwrap_err();
        assert_eq!(bad.code, 1);
        client(&argv(&["--connect", &addr, "--shutdown"])).unwrap();
        daemon.wait();
        let lost = client(&argv(&["--connect", &addr, "--ping"])).unwrap_err();
        assert_eq!(lost.code, affidavit_dist::BROKER_LOST_EXIT_CODE);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(serve(&argv(&["stray-positional"])).is_err());
        assert!(serve(&argv(&["--sessions", "lots"])).is_err());
        assert!(serve(&argv(&["--listen", "not-an-address"])).is_err());
        assert!(serve(&argv(&["--max-inflight", "many"])).is_err());
        assert!(serve(&argv(&["--request-deadline-secs", "soon"])).is_err());
    }

    #[test]
    fn profile_rejects_bad_distribution_flags() {
        let dir = std::env::temp_dir().join("affidavit-cli-distflags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        let err = profile(&argv(&[d, d, "--workers", "many"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        // Fleet flags without a distributed run fail with a pointer to
        // --workers.
        for flag in ["--listen", "--steal-timeout-secs", "--deadline-secs"] {
            let err = profile(&argv(&[d, d, flag, "1"])).unwrap_err();
            assert!(err.contains("add --workers N"), "{flag}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_flags_validate_and_round_trip() {
        let dir = std::env::temp_dir().join("affidavit-cli-delta-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        let (s, t) = (src.to_str().unwrap(), tgt.to_str().unwrap());
        // Flag validation: search-internal flags and orphaned state.
        let err = explain(&argv(&[s, t, "--delta", "--trace"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = explain(&argv(&[s, t, "--delta-state", "/tmp/x"])).unwrap_err();
        assert!(err.contains("requires --delta"), "{err}");
        let err = profile(&argv(&[s, t, "--delta", "--workers", "2"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        // A run then a re-run: the manifest lands in --delta-state.
        let state = dir.join("state");
        let state_s = state.to_str().unwrap().to_owned();
        explain(&argv(&[
            s,
            t,
            "--delta",
            "--delta-state",
            &state_s,
            "--stable",
        ]))
        .unwrap();
        assert!(state.join("explain.affidavit-delta.json").is_file());
        explain(&argv(&[
            s,
            t,
            "--delta",
            "--delta-state",
            &state_s,
            "--stable",
        ]))
        .unwrap();
        // Without --delta-state the manifest is a sibling of the target.
        explain(&argv(&[s, t, "--delta"])).unwrap();
        assert!(dir.join("t.csv.affidavit-delta.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_delta_round_trips_through_the_cli() {
        let root = std::env::temp_dir().join("affidavit-cli-profile-delta-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("v1");
        let tgt = root.join("v2");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        std::fs::write(src.join("a.csv"), "k,v\nx,1000\ny,2000\nz,3000\n").unwrap();
        std::fs::write(tgt.join("a.csv"), "k,v\nx,1\ny,2\nz,3\n").unwrap();
        let json1 = root.join("p1.json");
        let json2 = root.join("p2.json");
        let args = |json: &Path| {
            argv(&[
                src.to_str().unwrap(),
                tgt.to_str().unwrap(),
                "--delta",
                "--stable",
                "--json",
                json.to_str().unwrap(),
            ])
        };
        profile(&args(&json1)).unwrap();
        assert!(tgt.join(".affidavit-delta.json").is_file());
        profile(&args(&json2)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&json1).unwrap(),
            std::fs::read_to_string(&json2).unwrap(),
            "a clean --delta re-run must reproduce the profile byte for byte"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn profile_two_snapshot_directories() {
        let root = std::env::temp_dir().join("affidavit-cli-profile-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("v1");
        let tgt = root.join("v2");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        std::fs::write(src.join("a.csv"), "k,v\nx,1000\ny,2000\nz,3000\n").unwrap();
        std::fs::write(tgt.join("a.csv"), "k,v\nx,1\ny,2\nz,3\n").unwrap();
        std::fs::write(src.join("gone.csv"), "c\n1\n").unwrap();
        let json = root.join("profile.json");
        profile(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&json).unwrap();
        assert!(written.contains("\"missing_in_target\""), "{written}");
        assert!(written.contains("\"explained\""), "{written}");
        // Bad arguments fail cleanly.
        assert!(profile(&argv(&["only-one-dir"])).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn extended_flag_learns_formatting_and_applies_to_unseen() {
        let dir = std::env::temp_dir().join("affidavit-cli-extended-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let unseen = dir.join("u.csv");
        let outp = dir.join("o.csv");
        let saved = dir.join("e.json");
        // Amount column gains thousands grouping; org stays put.
        let mut s = String::from("amount,org\n");
        let mut t = String::from("amount,org\n");
        for i in 0..30 {
            let v = 10_000 + i * 7_919;
            let o = ["IBM", "SAP", "BASF"][i % 3];
            s.push_str(&format!("{v},{o}\n"));
            // Grouped amounts contain commas, so the CSV field is quoted.
            t.push_str(&format!(
                "\"{}\",{o}\n",
                affidavit_functions::numeric_format::add_thousands_sep(&v.to_string(), ',')
                    .unwrap()
            ));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        std::fs::write(&unseen, "amount,org\n7654321,DAB\n").unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--extended",
            "--save",
            saved.to_str().unwrap(),
        ]))
        .unwrap();
        apply(&argv(&[
            "--explanation",
            saved.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            outp.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&outp).unwrap();
        assert!(
            written.contains("7,654,321"),
            "grouping must generalize: {written}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_align_normalizes_merged_columns() {
        let dir = std::env::temp_dir().join("affidavit-cli-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        // Source keeps first/last separate; the target merged them.
        let mut s = String::from("first,last,org\n");
        let mut t = String::from("name,org\n");
        for i in 0..25 {
            let f = ["John", "Jane", "Max", "Ada", "Alan"][i % 5];
            let l = ["Doe", "Weber", "Turing", "Hopper", "Liskov"][(i * 2) % 5];
            let o = ["IBM", "SAP"][i % 2];
            s.push_str(&format!("{f}{i},{l},{o}\n"));
            t.push_str(&format!("{f}{i} {l},{o}\n"));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--align",
        ]))
        .unwrap();
        // Without --align the arity mismatch must be a clean error.
        assert!(explain(&argv(&[src.to_str().unwrap(), tgt.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod portable_tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn save_then_apply_saved_explanation() {
        let dir = std::env::temp_dir().join("affidavit-cli-portable-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let expl = dir.join("e.json");
        let unseen = dir.join("u.csv");
        let out = dir.join("o.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        std::fs::write(&unseen, "k,v\nz,7000\n").unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--save",
            expl.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(expl.is_file());
        apply(&argv(&[
            "--explanation",
            expl.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.contains("z,7"), "{written}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_saved_rejects_schema_mismatch() {
        let dir = std::env::temp_dir().join("affidavit-cli-portable-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let expl = dir.join("e.json");
        let portable = affidavit_core::portable::PortableExplanation {
            schema: vec!["x".into()],
            functions: vec![affidavit_core::portable::PortableFunction::Identity],
            core_size: 0,
            deleted: 0,
            inserted: 0,
        };
        std::fs::write(&expl, portable.to_json()).unwrap();
        let unseen = dir.join("u.csv");
        std::fs::write(&unseen, "different\n1\n").unwrap();
        let err = apply(&argv(&[
            "--explanation",
            expl.to_str().unwrap(),
            unseen.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
