//! The job-queue abstraction.
//!
//! [`JobQueue`] is the coordination surface between one coordinator and
//! any number of workers. Its contract is deliberately minimal — submit,
//! steal, complete, fetch — because the determinism of a distributed run
//! does not depend on the queue at all: any interleaving of steals and
//! completions yields the same absorbed output, since results are pure
//! functions of their jobs and the coordinator absorbs them in job-id
//! order. The queue only affects *wall time*.
//!
//! Its one implementation is [`Broker`], the work-stealing protocol over
//! a [`Transport`](crate::transport::Transport):
//! [`InProcessQueue`] (`Broker<MemTransport>`, the job store itself) on
//! the coordinator and for worker threads, and `Broker<TcpClient>`
//! inside `affidavit-worker` processes.

use crate::job::{Job, JobResult};
use crate::transport::{Broker, MemTransport};

/// Steal-loop counters a queue keeps about performed, wasted and
/// recovered work — the same four whether a worker reads them in
/// process or across a socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful exclusive claims (each hands one published envelope to
    /// one worker).
    pub steals: usize,
    /// Straggling claims re-published for other workers after the
    /// timeout (with exponential backoff per job id).
    pub requeues: usize,
    /// Results for already-completed job ids (speculative duplicates or
    /// post-steal stragglers) that were checked and discarded.
    pub duplicates_discarded: usize,
    /// Diverging duplicate results — impossible unless the engine's
    /// determinism invariant is broken; any nonzero value fails the run
    /// through [`JobQueue::check_health`].
    pub conflicts: usize,
}

/// Coordination surface between a coordinator and its workers.
///
/// All methods take `&self`: backends are internally synchronized, and
/// workers on other threads (or in other processes) hold their own
/// handle to the same underlying queue.
pub trait JobQueue: Send + Sync {
    /// Enqueue a job (coordinator side). Submitting the same job id twice
    /// is allowed — that is how speculative duplicates and straggler
    /// retries enter the queue.
    fn submit(&self, job: &Job) -> Result<(), String>;

    /// Atomically claim the next available job (worker side). `None`
    /// means the queue is currently empty — the worker should check
    /// [`JobQueue::shutdown_requested`] and otherwise poll again.
    fn steal(&self, worker: &str) -> Result<Option<Job>, String>;

    /// Renew the lease on a stolen job: the worker is alive and still
    /// computing `id`, so backends with straggler requeues restart the
    /// lease clock. Best-effort (a missed heartbeat degrades to a
    /// spurious requeue whose duplicate is discarded); the default is a
    /// no-op for queues without leases.
    fn heartbeat(&self, _worker: &str, _id: u64) -> Result<(), String> {
        Ok(())
    }

    /// Deliver a finished job (worker side). A result for an id that
    /// already has one is compared against the existing result and
    /// discarded; a mismatch — impossible unless the determinism
    /// invariant is broken — is reported by [`JobQueue::check_health`].
    fn complete(&self, worker: &str, result: &JobResult) -> Result<(), String>;

    /// Fetch the result for a job id, if one has arrived (coordinator
    /// side). Non-destructive and idempotent.
    fn fetch_result(&self, id: u64) -> Result<Option<JobResult>, String>;

    /// Tell idle workers to exit once no work is left (coordinator side).
    fn request_shutdown(&self) -> Result<(), String>;

    /// Whether shutdown has been requested (worker side).
    fn shutdown_requested(&self) -> Result<bool, String>;

    /// Fail if the queue has observed an integrity violation — two
    /// workers returning different bytes for the same job id.
    fn check_health(&self) -> Result<(), String>;

    /// Wasted-work counters.
    fn stats(&self) -> Result<QueueStats, String>;
}

/// The in-process queue: the work-stealing protocol over a
/// [`MemTransport`] called directly. Workers are plain threads running
/// [`run_worker`](crate::worker::run_worker) against it; a fleet
/// coordinator also keeps its job state in one, served to worker
/// processes by a [`TcpServer`](crate::tcp::TcpServer).
pub type InProcessQueue = Broker<MemTransport>;
