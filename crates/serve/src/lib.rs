//! Resident profiling service: a daemon that keeps ingested snapshots
//! warm between requests.
//!
//! One-shot `affidavit explain` pays process start, CSV ingestion and
//! pool construction on every invocation. This crate turns that into a
//! long-lived daemon:
//!
//! * [`protocol`] — the tagged client-API request/response vocabulary
//!   (`Ping` / `Explain` / `Stats` / `Shutdown`), carried as
//!   length-prefixed JSON frames over the codec shared with the
//!   work-stealing transport ([`affidavit_dist::frame`]).
//! * [`server`] — the daemon: an accept loop multiplexing concurrent
//!   requests (one thread per keep-alive connection), with ingested
//!   snapshot pairs pinned in a [`SessionLru`](affidavit_store::SessionLru)
//!   keyed by **content fingerprint**. A repeat request against pinned
//!   snapshots performs zero ingestion work; the LRU bounds how many
//!   pairs stay pinned.
//! * [`client`] — one persistent framed connection with
//!   reconnect-on-error; an unreachable daemon is
//!   [`ClientError::Lost`], which the CLI maps to exit code 3.
//!
//! Determinism: each request runs a fresh search
//! ([`Affidavit::new`](affidavit_core::Affidavit) per request) over a
//! clone of the pinned pair, so the rendered report is byte-identical to
//! the one-shot CLI under the same flags — warm or cold, at any client
//! concurrency. Requests with `delta: true` go through the incremental
//! engine ([`affidavit_core::delta`]) over the same pinned sessions:
//! clean pairs splice from the manifest, dirty ones search, and the
//! bytes match the one-shot `--delta` path either way.
//!
//! ```
//! use affidavit_serve::{serve, ExplainSpec, ServeClient, ServeOptions};
//!
//! let dir = std::env::temp_dir().join("affidavit-serve-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let src = dir.join("s.csv");
//! let tgt = dir.join("t.csv");
//! std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
//! std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
//!
//! let mut daemon = serve(&ServeOptions::default()).unwrap();
//! let client = ServeClient::new(daemon.local_addr().to_string());
//! let spec = ExplainSpec::new(src.to_str().unwrap(), tgt.to_str().unwrap());
//! let cold = client.explain(&spec).unwrap();
//! let warm = client.explain(&spec).unwrap();
//! // The repeat ran zero ingestion work and rendered the same bytes.
//! assert!(!cold.warm && warm.warm);
//! assert_eq!(warm.report, cold.report);
//! client.shutdown().unwrap();
//! daemon.wait();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ServeClient};
pub use protocol::{ClientRequest, ClientResponse, ExplainSpec, ReportReply, ServeStats};
pub use server::{serve, ServeHandle, ServeOptions};
