//! The client-API request/response vocabulary.
//!
//! Length-prefixed JSON frames ([`crate::frame`]) carrying tagged enums
//! (`op` on requests, `status` on responses). A frame that decodes to no
//! request gets a clean `Error` frame, not a protocol wedge.

use affidavit_core::AffidavitConfig;
use serde::{Deserialize, Serialize};

/// Upper bound on a request frame the daemon reads. A request is a pair
/// of paths plus a search configuration, a few kilobytes at most, so a
/// header announcing more is refused before any of its body is read and
/// one connection cannot make the daemon buffer more than this.
pub const MAX_REQUEST_BYTES: u32 = 1 << 20;

/// One explain request: a snapshot pair on the **server's** filesystem
/// plus the full search configuration. Carrying [`AffidavitConfig`]
/// verbatim (rather than re-deriving it server-side) is what keeps a
/// served result byte-identical to the one-shot CLI under the same
/// flags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainSpec {
    /// Path of the source (before) snapshot CSV.
    pub source: String,
    /// Path of the target (after) snapshot CSV.
    pub target: String,
    /// Search configuration, exactly as the one-shot CLI would build it.
    pub config: AffidavitConfig,
    /// Repair schema drift (renamed/reordered/merged/split columns)
    /// before the search.
    pub align: bool,
    /// Records per streaming-ingestion chunk (ingestion is byte-identical
    /// at every chunking, so this is not part of the session key).
    pub ingest_chunk_rows: usize,
    /// Incremental re-profiling: splice the answer from the pair's
    /// `--delta` manifest when its fingerprints still match, searching
    /// only when dirty. Output stays byte-identical either way.
    pub delta: bool,
    /// Directory holding the delta manifest (`--delta-state`); `None`
    /// uses the default sibling of the target CSV.
    pub delta_state: Option<String>,
}

impl ExplainSpec {
    /// A spec for `source`/`target` with the one-shot CLI's defaults:
    /// the paper's `H^id` configuration, no alignment.
    pub fn new(source: impl Into<String>, target: impl Into<String>) -> ExplainSpec {
        ExplainSpec {
            source: source.into(),
            target: target.into(),
            config: AffidavitConfig::paper_id(),
            align: false,
            ingest_chunk_rows: affidavit_store::IngestOptions::default().chunk_rows,
            delta: false,
            delta_state: None,
        }
    }
}

/// The answer to a successful [`ClientRequest::Explain`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportReply {
    /// The rendered report — byte-identical to the one the one-shot
    /// `affidavit explain` prints for the same inputs and configuration.
    pub report: String,
    /// States polled by the search (deterministic given the spec).
    pub polled: u64,
    /// States generated by the search (deterministic given the spec).
    pub generated: u64,
    /// Search wall time in milliseconds (the one nondeterministic field).
    pub millis: u64,
    /// True when the snapshot pair was already pinned: the request
    /// performed zero ingestion work.
    pub warm: bool,
}

/// A daemon's counters, as returned by [`ClientRequest::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Explain requests answered (successfully or not).
    pub requests: u64,
    /// Snapshot pairs currently pinned.
    pub sessions: u64,
    /// Full ingestions performed (cache misses).
    pub ingests: u64,
    /// Requests served from a pinned pair with zero ingestion work.
    pub hits: u64,
    /// Pinned pairs evicted to respect the session capacity.
    pub evictions: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// One client-API operation.
// The size gap between `Explain` and the payload-free ops is fine: one
// request lives per connection exchange, never in bulk collections.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum ClientRequest {
    /// Liveness probe.
    Ping,
    /// Explain one snapshot pair.
    Explain {
        /// What to explain and how.
        spec: ExplainSpec,
    },
    /// Ingest and pin one snapshot pair without running a search —
    /// session pre-warming, so a later `Explain` is a guaranteed hit.
    Pin {
        /// What to ingest and under which pool configuration. The
        /// search half of the spec is ignored (pinning keys on file
        /// content and pool configuration only).
        spec: ExplainSpec,
    },
    /// Read the daemon's counters.
    Stats,
    /// Read the daemon's metrics registry as Prometheus-style text.
    Metrics,
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

/// The daemon's answer to a [`ClientRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum ClientResponse {
    /// The daemon is alive.
    Pong,
    /// An explain succeeded.
    Report {
        /// The rendered result.
        reply: ReportReply,
    },
    /// The counters.
    StatsReport {
        /// The daemon's counters.
        stats: ServeStats,
    },
    /// A pin succeeded: the pair is in the session cache.
    Pinned {
        /// True when the pair was already pinned (the pin performed
        /// zero ingestion work).
        warm: bool,
    },
    /// The metrics registry.
    MetricsReport {
        /// Prometheus-style text exposition (`# TYPE` comments plus one
        /// sample line per series).
        text: String,
    },
    /// Shutdown acknowledged; the daemon exits after this frame.
    ShuttingDown,
    /// The operation failed on the daemon.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_round_trips_and_is_tagged() {
        let spec = ExplainSpec::new("/tmp/s.csv", "/tmp/t.csv");
        let req = ClientRequest::Explain { spec: spec.clone() };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"explain\""), "{json}");
        match serde_json::from_str::<ClientRequest>(&json).unwrap() {
            ClientRequest::Explain { spec: back } => {
                // The config has no PartialEq; the serialized bytes are
                // the identity that matters on the wire.
                assert_eq!(
                    serde_json::to_string(&back).unwrap(),
                    serde_json::to_string(&spec).unwrap()
                );
            }
            other => panic!("round trip changed the variant: {other:?}"),
        }
        let resp = ClientResponse::Error {
            message: "nope".to_owned(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"status\":\"error\""), "{json}");
        // A tag naming no operation is refused, not guessed at.
        assert!(serde_json::from_str::<ClientRequest>(r#"{"op":"claim","worker":"w"}"#).is_err());
    }

    /// A spec from an older client whose config still carries the retired
    /// `parallel_min_records` field decodes to the same spec: unknown
    /// config keys are ignored, so such a request keeps working.
    #[test]
    fn a_retired_config_field_is_ignored() {
        let spec = ExplainSpec::new("/tmp/s.csv", "/tmp/t.csv");
        let json = serde_json::to_string(&spec).unwrap();
        let old = json.replacen(
            "\"threads\":",
            "\"parallel_min_records\":4096,\"threads\":",
            1,
        );
        assert_ne!(old, json, "the config serializes a threads field");
        let back: ExplainSpec = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
