//! `bench_e2e`: the end-to-end and per-layer benchmark of affidavit's
//! `explain` and `profile` paths.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]
//! ```
//!
//! Writes the workload's snapshot pairs from the seed, runs timed reps of
//! the program as child processes for `S` seconds (with `--trace 1`, half
//! of them traced), checks every output, and prints each metric declared
//! in `BENCHMARK.json` as `name value unit`, then one JSON result line.
//! See `README.md` beside this crate.

mod e2e;

use std::path::PathBuf;

use e2e::child::{self, Job};
use e2e::run::{self, RunArgs};
use e2e::workload::{Scale, Workload};

const USAGE: &str = "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 \
                     [--scale full|smoke]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Command::Run(run_args)) => run::main(&run_args),
        Ok(Command::Child {
            workload,
            job,
            src,
            tgt,
        }) => child::main(workload, job, &src, &tgt),
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[derive(Debug)]
enum Command {
    Run(RunArgs),
    /// A rep re-executed by the parent: `--child JOB --workload NAME --src
    /// DIR --tgt DIR`.
    Child {
        workload: Workload,
        job: Job,
        src: PathBuf,
        tgt: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut flags = std::collections::BTreeMap::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let child_job = flags.remove("child");
    let mut required = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = required("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let command = if let Some(job) = child_job {
        let job = Job::parse(job).ok_or_else(|| format!("unknown child job {job:?}"))?;
        Command::Child {
            workload,
            job,
            src: PathBuf::from(required("src")?),
            tgt: PathBuf::from(required("tgt")?),
        }
    } else {
        let seed = required("seed")?;
        let seed = seed
            .parse()
            .map_err(|_| format!("bad --seed {seed:?} (a whole number)"))?;
        let seconds = required("seconds")?;
        let seconds = seconds
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("bad --seconds {seconds:?}"))?;
        let trace = match required("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?} (use 0 or 1)")),
        };
        let scale = match flags.remove("scale") {
            None => Scale::Full,
            Some(s) => Scale::parse(s).ok_or_else(|| format!("bad --scale {s:?}"))?,
        };
        Command::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
            scale,
        })
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag --{extra}")),
        None => Ok(command),
    }
}
