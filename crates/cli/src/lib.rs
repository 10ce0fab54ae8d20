//! Library half of the `affidavit` command-line tool.
//!
//! The binary in `main.rs` is a thin shell around [`run`], which parses
//! the subcommand and dispatches into [`commands`]. Keeping the dispatch
//! in a library makes every command callable (and testable) in-process.
//!
//! ```
//! // `help` prints the usage text and succeeds; unknown commands fail
//! // with a message that includes it.
//! affidavit_cli::run(&["help".to_owned()]).unwrap();
//! let err = affidavit_cli::run(&["frobnicate".to_owned()]).unwrap_err();
//! assert!(err.message.contains("USAGE"));
//! assert_eq!(err.code, 1);
//! ```

#![warn(missing_docs)]

pub mod commands;

pub use commands::USAGE;

/// A failed invocation: the message plus the process exit code.
///
/// Code `1` covers usage and fatal errors; code `3`
/// ([`affidavit_serve::LOST_EXIT_CODE`]) means "the serve daemon is
/// unreachable" (`affidavit client`), so scripts can tell a lost server
/// from a bad request.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable reason, printed to stderr.
    pub message: String,
    /// Process exit code.
    pub code: u8,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { message, code: 1 }
    }
}

/// The observability half of one CLI invocation: resolve `--obs-out` /
/// `--obs-summary` (or the `AFFIDAVIT_OBS` environment sink) before
/// dispatch, flush the recorded event stream after — success or failure.
/// Obs is a pure side channel: enabling it never changes stdout bytes.
struct ObsSession {
    sink: Option<affidavit_obs::ObsOut>,
    summary: bool,
}

impl ObsSession {
    fn from_args(args: &[String]) -> Result<ObsSession, Failure> {
        let mut sink = None;
        let mut summary = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--obs-out" => {
                    let value = args
                        .get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| {
                            Failure::from("--obs-out needs a path (or `-` for stderr)".to_owned())
                        })?;
                    sink = Some(affidavit_obs::ObsOut::parse(value));
                    i += 1;
                }
                "--obs-summary" => summary = true,
                _ => {}
            }
            i += 1;
        }
        if sink.is_some() || summary {
            affidavit_obs::set_enabled(true);
        }
        if sink.is_none() {
            sink = affidavit_obs::env_sink();
        }
        Ok(ObsSession { sink, summary })
    }

    fn finish(&self) {
        if self.sink.is_none() && !self.summary {
            return;
        }
        let (events, dropped) = affidavit_obs::drain();
        if let Some(sink) = &self.sink {
            if let Err(e) = sink.write_events(&events, dropped) {
                eprintln!("obs: failed to write event stream: {e}");
            }
        }
        if self.summary {
            let table = affidavit_obs::summary::render_phase_summary(&events, dropped);
            if !table.is_empty() {
                eprint!("{table}");
            }
        }
    }
}

/// Dispatch one CLI invocation (everything after the program name).
pub fn run(args: &[String]) -> Result<(), Failure> {
    let obs = ObsSession::from_args(args)?;
    let result = match dispatch(args) {
        // A reader that stopped reading (`| head`) is not a failure.
        Err(failure) if failure.message == commands::STDOUT_CLOSED => Ok(()),
        result => result,
    };
    obs.finish();
    result
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(Failure::from(USAGE.to_owned()));
    };
    match cmd.as_str() {
        "explain" => commands::explain(rest).map_err(Failure::from),
        "diff" => commands::diff(rest).map_err(Failure::from),
        "apply" => commands::apply(rest).map_err(Failure::from),
        "gen" => commands::gen(rest).map_err(Failure::from),
        "profile" => commands::profile(rest).map_err(Failure::from),
        "serve" => commands::serve(rest).map_err(Failure::from),
        "client" => commands::client(rest),
        "--help" | "-h" | "help" => {
            use std::io::Write as _;
            writeln!(std::io::stdout().lock(), "{USAGE}")
                .map_err(|e| Failure::from(commands::stdout_error(e)))
        }
        other => Err(Failure::from(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn obs_out_captures_an_event_stream_for_a_full_explain() {
        let dir = std::env::temp_dir().join("affidavit-cli-obs-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        let out = dir.join("events.ndjson");
        crate::run(&argv(&[
            "explain",
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--obs-out",
            out.to_str().unwrap(),
            "--obs-summary",
        ]))
        .unwrap();
        let stream = std::fs::read_to_string(&out).unwrap();
        // Every line is a schema-valid event, and the stream covers the
        // pipeline from ingestion through search to rendering.
        for line in stream.lines() {
            serde_json::from_str::<affidavit_obs::Event>(line).unwrap();
        }
        for name in ["ingest.stream", "search.explain", "report.render"] {
            assert!(
                stream.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} in:\n{stream}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_out_requires_a_path() {
        let err = crate::run(&argv(&["help", "--obs-out"])).unwrap_err();
        assert!(err.message.contains("--obs-out"), "{}", err.message);
        assert_eq!(err.code, 1);
    }
}
