//! Distributed work-stealing for whole-snapshot profiling.
//!
//! The paper's operating point — "database snapshots with **hundreds of
//! tables**" — outgrows one machine before it outgrows the algorithm.
//! This crate fans the profiling workload out over a job queue with
//! work-stealing:
//!
//! * [`wire`] — a versioned, self-describing serialization of
//!   [`ProblemInstance`](affidavit_core::ProblemInstance) +
//!   [`AffidavitConfig`](affidavit_core::AffidavitConfig) (and of
//!   results), covered by round-trip and golden-bytes tests. The one job
//!   task is a whole-pair `explain`; a job naming any other task fails
//!   to decode.
//! * [`queue`] — the [`JobQueue`] abstraction and [`InProcessQueue`].
//! * [`transport`] — the work-stealing protocol (publish → exclusive
//!   claim/lease → deliver → straggler re-publication with backoff →
//!   duplicate compare-and-discard → stop), written **once**: job state
//!   lives in one [`MemTransport`], and [`Broker`] layers the protocol
//!   over the [`Transport`] trait's operations on opaque wire envelopes.
//!   [`InProcessQueue`] is `Broker<MemTransport>`.
//! * [`frame`] — the length-prefixed frame codec under every socket
//!   protocol (this crate's steal loop and the `affidavit-serve` client
//!   API), with progress-based stall timeouts, plus the connection
//!   registry and accept loop both listeners share.
//! * [`fuzz`] — seeded mutation of valid request frames, the engine of
//!   the fail-closed tests of both listeners.
//! * [`tcp`] — the one transport between processes: the coordinator's
//!   [`TcpServer`] serves its [`MemTransport`] over frames; workers dial
//!   `--connect HOST:PORT` and multiplex framed request/response
//!   exchanges over one keep-alive [`TcpClient`] connection, so no
//!   shared filesystem is needed and a dropped connection mid-job is
//!   just a straggler.
//! * [`fleet`] — locating, spawning and reaping `affidavit-worker` child
//!   processes.
//! * [`coordinate`] — the coordinator: results are absorbed **in job-id
//!   order** with [`SymRemap`](affidavit_table::SymRemap) pool merging,
//!   so the rendered profile is byte-identical to the single-process run
//!   at every worker count, for threads and processes alike
//!   (`tests/properties_dist.rs`, `tests/properties_transport.rs`).
//!
//! Determinism does not depend on the queue: every job result is a pure
//! function of the job bytes (the engine underneath is byte-identical at
//! any thread count and speculative width), so stolen-then-duplicated
//! jobs and straggler retries degrade to *wasted work*, never to
//! nondeterminism — the same argument, one level up, as the speculative
//! frontier's reconciliation protocol.
//!
//! ```
//! use std::time::Duration;
//! use affidavit_core::{AffidavitConfig, Affidavit, ProblemInstance};
//! use affidavit_core::report::render_report;
//! use affidavit_dist::queue::{InProcessQueue, JobQueue};
//! use affidavit_dist::coordinate::explain_via;
//! use affidavit_dist::worker::run_worker;
//! use affidavit_table::{Schema, Table, ValuePool};
//!
//! let build = || {
//!     let mut pool = ValuePool::new();
//!     let s = Table::from_rows(Schema::new(["Val"]), &mut pool,
//!         vec![vec!["80000"], vec!["21000"], vec!["65000"]]);
//!     let t = Table::from_rows(Schema::new(["Val"]), &mut pool,
//!         vec![vec!["80"], vec!["21"], vec!["65"]]);
//!     ProblemInstance::new(s, t, pool).unwrap()
//! };
//! let cfg = AffidavitConfig::paper_id();
//!
//! // Distribute the search over one worker thread...
//! let queue = InProcessQueue::new();
//! let mut instance = build();
//! let remote = std::thread::scope(|scope| {
//!     scope.spawn(|| run_worker(&queue, "w0", Duration::from_millis(1)));
//!     let remote = explain_via(&queue, &mut instance, &cfg, Duration::from_secs(60));
//!     queue.request_shutdown().unwrap();
//!     remote
//! }).unwrap();
//!
//! // ...and the absorbed result renders byte-identically to a local run.
//! let mut local = build();
//! let outcome = Affidavit::new(cfg).explain(&mut local);
//! assert_eq!(
//!     render_report(&remote.explanation, &instance),
//!     render_report(&outcome.explanation, &local),
//! );
//! ```

#![warn(missing_docs)]

pub mod coordinate;
pub mod fleet;
pub mod frame;
pub mod fuzz;
pub mod job;
pub mod queue;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinate::{
    absorb_result, execute_jobs, explain_via, profile_dirs_distributed, DistBackend, DistOptions,
    DistStats, RemoteExplanation,
};
pub use fleet::{spawn_workers, worker_binary, WorkerHandle};
pub use frame::{
    configure_stream, read_frame, spawn_accept_loop, write_frame, ConnRegistry, FrameConfig,
    FrameRead, MAX_FRAME_BYTES,
};
pub use job::{
    decode_job, decode_result, encode_job, encode_result, Job, JobOutcome, JobPayload, JobResult,
};
pub use queue::{InProcessQueue, JobQueue, QueueStats};
pub use tcp::{TcpClient, TcpServer};
pub use transport::{requeue_backoff, Broker, Claimed, Delivered, MemTransport, Transport};
pub use wire::{WireFunction, WireInstance, WIRE_FORMAT, WIRE_VERSION};
pub use worker::{
    run_worker, run_worker_with_reconnect, WorkerExit, WorkerStats, BROKER_LOST_EXIT_CODE,
};
