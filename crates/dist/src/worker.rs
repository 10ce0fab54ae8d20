//! The worker loop: steal, execute, deliver, repeat.
//!
//! The same loop serves every deployment shape — in-process threads over
//! an [`InProcessQueue`](crate::queue::InProcessQueue), and the
//! `affidavit-worker` binary over a
//! [`TcpClient`](crate::tcp::TcpClient) — because [`JobQueue`] hides
//! the medium. [`run_worker_with_reconnect`] wraps the loop for the
//! binary: a queue error (coordinator socket dead) triggers a bounded
//! probe-and-backoff reconnect instead of an immediate crash, and a
//! broker that never comes back is reported as
//! [`WorkerExit::BrokerLost`] so the process can exit with a distinct
//! code.

use std::time::{Duration, Instant};

use crate::job::{process_job, JobOutcome};
use crate::queue::JobQueue;

/// How often a worker renews the lease on the job it is computing
/// ([`JobQueue::heartbeat`]). Far below any sensible steal timeout, so a
/// legitimately long job is never requeued as a straggler while its
/// worker is alive; jobs shorter than this never heartbeat at all.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(5);

/// Exit code of `affidavit-worker` when the broker disappeared and did
/// not come back within the reconnect budget (distinct from `1`, the
/// usage/fatal-error code, so supervisors can tell "restart me when the
/// coordinator returns" from "my invocation is wrong").
pub const BROKER_LOST_EXIT_CODE: u8 = 3;

/// What a worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs executed (including failed ones).
    pub processed: usize,
    /// Jobs whose outcome was [`JobOutcome::Failed`].
    pub failed: usize,
}

/// Steal and execute jobs until shutdown is requested. An empty queue
/// without a shutdown request means the coordinator may still be
/// submitting — the worker naps and tries again, with the nap growing
/// from `poll` up to `poll × 16` over consecutive empty polls (and
/// snapping back to `poll` after a successful steal). The backoff keeps
/// an idle worker from hammering the broker — each empty poll is two
/// exchanges over a remote worker's keep-alive connection — at the
/// price of at most `poll × 16` extra latency picking up late work or
/// noticing shutdown. Once shutdown is
/// requested the queue stops handing out work (pending jobs at that
/// point belong to an aborting run or are redundant duplicates), so the
/// worker finishes its current job at most and exits.
pub fn run_worker(
    queue: &dyn JobQueue,
    worker_id: &str,
    poll: Duration,
) -> Result<WorkerStats, String> {
    let mut stats = WorkerStats::default();
    let mut idle_naps = 0u32;
    loop {
        match queue.steal(worker_id)? {
            Some(job) => {
                idle_naps = 0;
                let _span = affidavit_obs::span_with(
                    "worker.job",
                    vec![
                        ("worker".to_owned(), worker_id.to_owned()),
                        ("job".to_owned(), job.id.to_string()),
                        ("name".to_owned(), job.name.clone()),
                    ],
                );
                let result = with_heartbeats(queue, worker_id, job.id, HEARTBEAT_INTERVAL, || {
                    process_job(&job, worker_id)
                });
                if matches!(result.outcome, JobOutcome::Failed { .. }) {
                    stats.failed += 1;
                }
                stats.processed += 1;
                queue.complete(worker_id, &result)?;
            }
            None if queue.shutdown_requested()? => return Ok(stats),
            None => {
                std::thread::sleep(poll.saturating_mul(1 << idle_naps.min(4)));
                idle_naps = idle_naps.saturating_add(1);
            }
        }
    }
}

/// Run `work` with a lease-renewal ticker beside it: every `interval`
/// until the closure returns, [`JobQueue::heartbeat`] tells the broker
/// this worker is alive and still computing `id`. Heartbeats are
/// best-effort — a failed renewal is ignored, because the worst case (a
/// spurious straggler requeue) already resolves itself through the
/// duplicate compare-and-discard path, while failing the job here would
/// turn a transient broker hiccup into lost work. The ticker exits
/// promptly when the work finishes: it parks on a channel the closure's
/// end hangs up.
fn with_heartbeats<R>(
    queue: &dyn JobQueue,
    worker_id: &str,
    id: u64,
    interval: Duration,
    work: impl FnOnce() -> R,
) -> R {
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || loop {
            match done_rx.recv_timeout(interval) {
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let _ = queue.heartbeat(worker_id, id);
                    // Each renewal doubles as a progress beacon: a point
                    // event in the local stream, plus a diagnostic line
                    // on stderr (inherited by the coordinator for child
                    // workers) when observability is on.
                    if affidavit_obs::enabled() {
                        let elapsed = started.elapsed().as_secs();
                        affidavit_obs::point(
                            "worker.heartbeat",
                            vec![
                                ("worker".to_owned(), worker_id.to_owned()),
                                ("job".to_owned(), id.to_string()),
                                ("elapsed_secs".to_owned(), elapsed.to_string()),
                            ],
                        );
                        affidavit_obs::diag(
                            "worker.heartbeat",
                            &format!("worker={worker_id} job={id} elapsed={elapsed}s"),
                        );
                    }
                }
                _ => return, // sender dropped: the job is done
            }
        });
        let result = work();
        drop(done_tx);
        result
    })
}

/// How a resilient worker run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// Clean shutdown: the broker requested stop and the queue drained.
    Completed(WorkerStats),
    /// The broker vanished (coordinator socket dead) and stayed
    /// unreachable through the whole reconnect budget.
    BrokerLost {
        /// Probe attempts spent before giving up.
        attempts: usize,
        /// The queue error that started the final reconnect sequence.
        error: String,
    },
}

/// [`run_worker`], wrapped in a bounded reconnect loop for real worker
/// processes. A queue error starts a probe sequence: sleep with
/// exponential backoff (`poll × 2^attempt`, capped at `poll × 64`), then
/// ask `probe` whether the broker is reachable again — re-entering the
/// steal loop as soon as it is. After `max_attempts` failed probes the
/// worker gives up with [`WorkerExit::BrokerLost`]. Attempts accumulate
/// over the process lifetime, so a broker that flaps forever (or a
/// persistent non-transport error) also terminates.
pub fn run_worker_with_reconnect(
    queue: &dyn JobQueue,
    probe: &dyn Fn() -> Result<(), String>,
    worker_id: &str,
    poll: Duration,
    max_attempts: usize,
) -> WorkerExit {
    let mut attempts = 0usize;
    loop {
        let error = match run_worker(queue, worker_id, poll) {
            Ok(stats) => return WorkerExit::Completed(stats),
            Err(error) => error,
        };
        eprintln!("affidavit-worker {worker_id}: broker unreachable: {error}");
        loop {
            attempts += 1;
            if attempts > max_attempts {
                return WorkerExit::BrokerLost {
                    attempts: attempts - 1,
                    error,
                };
            }
            std::thread::sleep(poll.saturating_mul(1 << attempts.min(6) as u32));
            if probe().is_ok() {
                eprintln!(
                    "affidavit-worker {worker_id}: broker reachable again \
                     (attempt {attempts}), resuming"
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobPayload};
    use crate::queue::InProcessQueue;
    use crate::wire::WireInstance;
    use affidavit_core::AffidavitConfig;

    fn tiny_job(id: u64) -> Job {
        Job {
            id,
            name: format!("t{id}"),
            payload: JobPayload::Explain {
                instance: WireInstance {
                    schema: vec!["a".into()],
                    pool: vec!["x".into(), "y".into()],
                    source: vec![vec![0]],
                    target: vec![vec![1]],
                },
                config: AffidavitConfig::paper_id(),
            },
        }
    }

    #[test]
    fn processes_jobs_then_exits_on_shutdown() {
        let queue = InProcessQueue::new();
        for id in 0..3 {
            queue.submit(&tiny_job(id)).unwrap();
        }
        let stats = std::thread::scope(|scope| {
            let handle = scope.spawn(|| run_worker(&queue, "w", Duration::from_millis(1)));
            for id in 0..3 {
                while queue.fetch_result(id).unwrap().is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            queue.request_shutdown().unwrap();
            handle.join().expect("worker thread")
        })
        .unwrap();
        assert_eq!(stats.processed, 3);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn long_jobs_heartbeat_their_lease_and_short_ones_do_not() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Recording {
            inner: InProcessQueue,
            beats: AtomicUsize,
        }
        impl JobQueue for Recording {
            fn submit(&self, job: &Job) -> Result<(), String> {
                self.inner.submit(job)
            }
            fn steal(&self, worker: &str) -> Result<Option<Job>, String> {
                self.inner.steal(worker)
            }
            fn heartbeat(&self, _worker: &str, _id: u64) -> Result<(), String> {
                self.beats.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            fn complete(&self, worker: &str, r: &crate::job::JobResult) -> Result<(), String> {
                self.inner.complete(worker, r)
            }
            fn fetch_result(&self, id: u64) -> Result<Option<crate::job::JobResult>, String> {
                self.inner.fetch_result(id)
            }
            fn request_shutdown(&self) -> Result<(), String> {
                self.inner.request_shutdown()
            }
            fn shutdown_requested(&self) -> Result<bool, String> {
                self.inner.shutdown_requested()
            }
            fn check_health(&self) -> Result<(), String> {
                self.inner.check_health()
            }
            fn stats(&self) -> Result<crate::queue::QueueStats, String> {
                self.inner.stats()
            }
        }
        let queue = Recording {
            inner: InProcessQueue::new(),
            beats: AtomicUsize::new(0),
        };
        // A job outliving several intervals renews its lease repeatedly...
        with_heartbeats(&queue, "w", 7, Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_millis(55))
        });
        let beats = queue.beats.load(Ordering::SeqCst);
        assert!(beats >= 2, "a 55ms job at a 10ms interval beat {beats}×");
        // ...and the ticker stops with the job: no further renewals.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(queue.beats.load(Ordering::SeqCst), beats);
        // A job far shorter than the interval never heartbeats.
        with_heartbeats(&queue, "w", 8, Duration::from_secs(60), || {});
        assert_eq!(queue.beats.load(Ordering::SeqCst), beats);
    }

    #[test]
    fn reconnect_gives_up_after_the_attempt_budget() {
        // A queue whose broker is permanently gone: every steal fails.
        struct DeadQueue;
        impl JobQueue for DeadQueue {
            fn submit(&self, _: &Job) -> Result<(), String> {
                Err("gone".into())
            }
            fn steal(&self, _: &str) -> Result<Option<Job>, String> {
                Err("connection refused".into())
            }
            fn complete(&self, _: &str, _: &crate::job::JobResult) -> Result<(), String> {
                Err("gone".into())
            }
            fn fetch_result(&self, _: u64) -> Result<Option<crate::job::JobResult>, String> {
                Err("gone".into())
            }
            fn request_shutdown(&self) -> Result<(), String> {
                Err("gone".into())
            }
            fn shutdown_requested(&self) -> Result<bool, String> {
                Err("gone".into())
            }
            fn check_health(&self) -> Result<(), String> {
                Err("gone".into())
            }
            fn stats(&self) -> Result<crate::queue::QueueStats, String> {
                Err("gone".into())
            }
        }
        let exit = run_worker_with_reconnect(
            &DeadQueue,
            &|| Err("still gone".to_owned()),
            "w",
            Duration::from_millis(1),
            3,
        );
        assert_eq!(
            exit,
            WorkerExit::BrokerLost {
                attempts: 3,
                error: "connection refused".to_owned()
            }
        );
    }

    #[test]
    fn reconnect_resumes_when_the_probe_recovers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A queue that fails twice, then works: the worker must ride out
        // the outage and still reach a clean shutdown.
        struct FlakyQueue {
            inner: InProcessQueue,
            failures_left: AtomicUsize,
        }
        impl JobQueue for FlakyQueue {
            fn submit(&self, job: &Job) -> Result<(), String> {
                self.inner.submit(job)
            }
            fn steal(&self, worker: &str) -> Result<Option<Job>, String> {
                if self
                    .failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err("transient outage".into());
                }
                self.inner.steal(worker)
            }
            fn complete(&self, worker: &str, r: &crate::job::JobResult) -> Result<(), String> {
                self.inner.complete(worker, r)
            }
            fn fetch_result(&self, id: u64) -> Result<Option<crate::job::JobResult>, String> {
                self.inner.fetch_result(id)
            }
            fn request_shutdown(&self) -> Result<(), String> {
                self.inner.request_shutdown()
            }
            fn shutdown_requested(&self) -> Result<bool, String> {
                self.inner.shutdown_requested()
            }
            fn check_health(&self) -> Result<(), String> {
                self.inner.check_health()
            }
            fn stats(&self) -> Result<crate::queue::QueueStats, String> {
                self.inner.stats()
            }
        }
        let queue = FlakyQueue {
            inner: InProcessQueue::new(),
            failures_left: AtomicUsize::new(2),
        };
        queue.inner.submit(&tiny_job(0)).unwrap();
        queue.inner.request_shutdown().unwrap();
        // Shutdown is already requested, so after the outage the worker
        // exits cleanly without processing the abandoned job.
        let exit = run_worker_with_reconnect(&queue, &|| Ok(()), "w", Duration::from_millis(1), 10);
        assert_eq!(exit, WorkerExit::Completed(WorkerStats::default()));
    }

    #[test]
    fn shutdown_abandons_pending_work() {
        // The abort path: once shutdown is requested, pending jobs are
        // not handed out any more — a deadline abort must not degrade
        // into "finish everything first".
        let queue = InProcessQueue::new();
        queue.submit(&tiny_job(0)).unwrap();
        queue.request_shutdown().unwrap();
        let stats = run_worker(&queue, "w", Duration::from_millis(1)).unwrap();
        assert_eq!(stats.processed, 0);
        assert!(queue.fetch_result(0).unwrap().is_none());
    }
}
