//! The span event record and the NDJSON sink it streams to.

use std::fmt;
use std::io::Write;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// `kind` of a span-open event.
pub const KIND_BEGIN: &str = "begin";
/// `kind` of a span-close event (carries `elapsed_micros`).
pub const KIND_END: &str = "end";
/// `kind` of an instantaneous event.
pub const KIND_POINT: &str = "point";

/// One recorded observation. A span contributes a `begin` and an `end`
/// event sharing a `span` id; a [`crate::point`] contributes a single
/// `point` event. `seq` is a process-wide total order and `ts_micros`
/// (microseconds since the process obs epoch) is monotone along it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Process-wide sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since the process obs epoch; monotone in `seq`.
    pub ts_micros: u64,
    /// `"begin"`, `"end"` or `"point"`.
    pub kind: String,
    /// Phase name, dotted by subsystem (`search.expand`, `serve.request`).
    pub name: String,
    /// Span id; `begin`/`end` pairs share it, points get their own.
    pub span: u64,
    /// Enclosing span id on the recording thread, if any.
    pub parent: Option<u64>,
    /// Stable id of the recording thread (assignment order from 1).
    pub thread: u64,
    /// Wall time between `begin` and `end`; set on `end` events only.
    pub elapsed_micros: Option<u64>,
    /// Extra key/value context (job ids, request ops, byte counts).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Encode as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        serde_json::to_string(self).expect("events are serializable")
    }
}

/// Where a drained event stream goes: the `--obs-out PATH|-` sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsOut {
    /// Stream to stderr. Never stdout: report bytes on stdout stay
    /// identical with observability on or off.
    Stderr,
    /// Append to a file (created if absent).
    File(PathBuf),
}

impl ObsOut {
    /// `-` means stderr; anything else is a file path.
    pub fn parse(value: &str) -> ObsOut {
        if value == "-" {
            ObsOut::Stderr
        } else {
            ObsOut::File(PathBuf::from(value))
        }
    }

    /// Write each event as one NDJSON line, then a `point`-shaped
    /// `obs.dropped` line when the recorder overflowed its cap.
    pub fn write_events(&self, events: &[Event], dropped: u64) -> Result<(), SinkError> {
        let mut buf = String::new();
        for event in events {
            buf.push_str(&event.to_ndjson());
            buf.push('\n');
        }
        if dropped > 0 {
            let marker = Event {
                seq: events.last().map(|e| e.seq + 1).unwrap_or(0),
                ts_micros: events.last().map(|e| e.ts_micros).unwrap_or(0),
                kind: KIND_POINT.to_owned(),
                name: "obs.dropped".to_owned(),
                span: 0,
                parent: None,
                thread: 0,
                elapsed_micros: None,
                fields: vec![("dropped".to_owned(), dropped.to_string())],
            };
            buf.push_str(&marker.to_ndjson());
            buf.push('\n');
        }
        match self {
            ObsOut::Stderr => {
                eprint!("{buf}");
                Ok(())
            }
            ObsOut::File(path) => {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|source| SinkError::Open {
                        path: path.clone(),
                        source,
                    })?;
                file.write_all(buf.as_bytes())
                    .map_err(|source| SinkError::Write {
                        path: path.clone(),
                        source,
                    })
            }
        }
    }
}

/// A file sink that could not take the event stream, naming its file.
#[derive(Debug)]
pub enum SinkError {
    /// The file could not be opened (or created) for appending.
    Open {
        /// The sink file.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// The encoded events could not be written to the opened file.
    Write {
        /// The sink file.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Open { path, source } => {
                write!(f, "opening obs sink {}: {source}", path.display())
            }
            SinkError::Write { path, source } => {
                write!(f, "writing obs sink {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Open { source, .. } | SinkError::Write { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            ts_micros: 1234,
            kind: KIND_END.to_owned(),
            name: "search.expand".to_owned(),
            span: 3,
            parent: Some(1),
            thread: 2,
            elapsed_micros: Some(55),
            fields: vec![("job".to_owned(), "a/b".to_owned())],
        }
    }

    #[test]
    fn events_round_trip_through_ndjson() {
        let event = sample();
        let line = event.to_ndjson();
        assert!(!line.contains('\n'));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn sink_parses_dash_as_stderr_and_paths_as_files() {
        assert_eq!(ObsOut::parse("-"), ObsOut::Stderr);
        assert_eq!(
            ObsOut::parse("/tmp/obs.ndjson"),
            ObsOut::File(PathBuf::from("/tmp/obs.ndjson"))
        );
    }

    #[test]
    fn file_sink_appends_one_line_per_event_plus_drop_marker() {
        let dir = std::env::temp_dir().join("affidavit-obs-event-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.ndjson");
        let _ = std::fs::remove_file(&path);
        let sink = ObsOut::File(path.clone());
        sink.write_events(&[sample(), sample()], 3).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("obs.dropped"));
        assert!(lines[2].contains("\"3\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_directory_sink_is_an_open_error_naming_its_path() {
        let dir = std::env::temp_dir().join("affidavit-obs-event-dir-sink");
        std::fs::create_dir_all(&dir).unwrap();
        let err = ObsOut::File(dir.clone())
            .write_events(&[sample()], 0)
            .unwrap_err();
        let SinkError::Open { path, source } = &err else {
            panic!("expected an open error, got {err:?}");
        };
        assert_eq!(path, &dir);
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(
            err.to_string(),
            format!("opening obs sink {}: {source}", dir.display())
        );
    }
}
