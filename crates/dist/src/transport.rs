//! The transport seam and the one job store behind it.
//!
//! The protocol of a distributed run — *publish* a job for exclusive
//! claiming, *claim* it under a lease, *deliver* the result, re-publish
//! straggling leases with backoff, compare-and-discard duplicate
//! completions, *stop* — is independent of the medium carrying the bytes.
//! [`Transport`] captures exactly that seam: operations on **opaque wire
//! envelopes** (the `wire.rs` messages produced by
//! [`crate::job::encode_job`] / [`crate::job::encode_result`]), with no
//! knowledge of jobs, results, pools or symbols. [`Broker`] layers the
//! protocol on top of any transport: it encodes/decodes envelopes,
//! verifies the determinism invariant on duplicate deliveries, and
//! records diverging duplicates as conflicts.
//!
//! Job state lives in exactly one place, [`MemTransport`]: pending
//! envelopes, leases, results, conflicts, counters and the stop flag,
//! behind one mutex. Two transports implement the seam:
//!
//! * [`MemTransport`] — the store itself, called directly.
//!   [`InProcessQueue`](crate::queue::InProcessQueue) is
//!   `Broker<MemTransport>`, and the coordinator of a fleet drives its
//!   own store the same way.
//! * [`TcpClient`](crate::tcp::TcpClient) — a worker's handle on a
//!   coordinator's store across a socket: every operation is one framed
//!   request that the coordinator's [`TcpServer`](crate::tcp::TcpServer)
//!   answers with one [`MemTransport`] call.
//!
//! Determinism does not depend on the transport any more than it depends
//! on the queue: results are pure functions of job bytes, so the only
//! transport-visible failure mode — a lost worker or connection — turns
//! into a straggler lease, a re-publication, and at worst a discarded
//! duplicate.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::job::{
    decode_job, decode_result, encode_job, encode_result, Job, JobOutcome, JobResult,
};
use crate::queue::{JobQueue, QueueStats};

/// An envelope handed out by [`Transport::claim`]: the job id the
/// transport leased plus the opaque wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claimed {
    /// The published job id (transports index leases and deliveries by
    /// it; the envelope body is opaque to them).
    pub id: u64,
    /// The published wire envelope, byte-for-byte.
    pub envelope: String,
}

/// What happened to a delivered envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivered {
    /// First delivery for this job id; the envelope was stored.
    Accepted,
    /// A delivery for this id already exists. The existing envelope is
    /// returned so the protocol layer can compare the two and either
    /// discard the newcomer ([`Transport::discard_duplicate`]) or record
    /// a divergence ([`Transport::record_conflict`]).
    Duplicate {
        /// The previously delivered envelope, byte-for-byte.
        existing: String,
    },
}

/// A medium for the work-stealing protocol. Implementations move opaque
/// envelopes and track leases; everything protocol-shaped (encoding,
/// duplicate comparison, conflict semantics) lives in [`Broker`].
///
/// All methods take `&self`: transports are internally synchronized and
/// shared between coordinator and worker threads/processes.
pub trait Transport: Send + Sync {
    /// Make an envelope available for exclusive claiming under `id`
    /// (coordinator side, and transport-internally for re-publication).
    /// Publishing the same id again is allowed — speculative duplicates
    /// and straggler retries enter this way — and each publication is
    /// claimable exactly once. Claims are handed out lowest id first.
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String>;

    /// Exclusively claim the next published envelope and start a lease
    /// for `worker` (worker side). Returns `None` when nothing is
    /// claimable — including after [`Transport::stop`], which revokes
    /// all pending publications.
    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String>;

    /// Renew `worker`'s lease on `id`: the worker is alive and still
    /// computing, so the lease clock restarts and a legitimately long job
    /// is not requeued as a straggler by [`Transport::requeue_expired`].
    /// Best-effort — a missed heartbeat degrades to a spurious requeue
    /// whose duplicate result is compared and discarded, never to lost
    /// work.
    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String>;

    /// Deliver a result envelope for `id`, ending its leases (worker
    /// side). The first delivery per id wins; later ones return
    /// [`Delivered::Duplicate`] with the stored envelope, leaving it to
    /// the protocol layer to compare.
    fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String>;

    /// Record that a duplicate delivery for `id` matched the stored one
    /// and was discarded (protocol layer, after comparing).
    fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String>;

    /// Record that a duplicate delivery for `id` **diverged** from the
    /// stored one — the determinism invariant is broken. The transport
    /// reports unhealthy from now on ([`Transport::conflicts`]).
    fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String>;

    /// The delivered envelope for `id`, if any (coordinator side).
    /// Non-destructive and idempotent.
    fn fetch(&self, id: u64) -> Result<Option<String>, String>;

    /// Re-publish leases older than [`requeue_backoff`]`(base_timeout,
    /// prior requeues of the id)` whose id has no delivery — the
    /// anti-straggler half of work-stealing. Each lease is re-published
    /// at most once. Returns how many envelopes were re-published
    /// (coordinator side).
    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String>;

    /// Stop handing out claims and tell idle workers to exit
    /// (coordinator side).
    fn stop(&self) -> Result<(), String>;

    /// Whether [`Transport::stop`] has been requested (worker side).
    fn stopped(&self) -> Result<bool, String>;

    /// Human-readable descriptions of recorded conflicts (empty =
    /// healthy).
    fn conflicts(&self) -> Result<Vec<String>, String>;

    /// Steal-loop counters.
    fn counters(&self) -> Result<QueueStats, String>;
}

/// How long a lease must be idle before its `n`-th re-publication:
/// `base × 2^min(n, 6)`, so a legitimately long-running job is retried
/// with exponential backoff.
pub fn requeue_backoff(base: Duration, prior_requeues: u32) -> Duration {
    base.saturating_mul(1 << prior_requeues.min(6))
}

/// One outstanding claim. A worker that vanishes (crash, killed process,
/// dropped connection) simply stops renewing it; the lease ages out and
/// the envelope is re-published.
#[derive(Debug)]
struct Lease {
    id: u64,
    worker: String,
    envelope: String,
    claimed_at: Instant,
    requeued: bool,
}

#[derive(Debug, Default)]
struct JobState {
    /// Published envelopes, claimable lowest job id first; the second key
    /// component separates re-publications of the same id.
    pending: BTreeMap<(u64, u64), String>,
    next_submission: u64,
    leases: Vec<Lease>,
    results: BTreeMap<u64, String>,
    conflicts: Vec<String>,
    stats: QueueStats,
    stop: bool,
}

/// The job store: every piece of work-stealing state, behind one mutex.
/// A panic while the lock is held poisons it, and every later operation
/// then fails with `Err` instead of reading half-updated state.
#[derive(Debug, Default)]
pub struct MemTransport {
    state: Mutex<JobState>,
}

impl MemTransport {
    fn lock(&self) -> Result<MutexGuard<'_, JobState>, String> {
        self.state
            .lock()
            .map_err(|_| "job store poisoned by a panicking thread".to_owned())
    }

    /// Leases currently outstanding (claimed, neither delivered nor
    /// requeued).
    pub fn active_leases(&self) -> usize {
        self.lock()
            .map(|state| state.leases.iter().filter(|l| !l.requeued).count())
            .unwrap_or(0)
    }

    /// Age every lease by `by`, as if that much time had passed since it
    /// was claimed or last renewed.
    #[cfg(test)]
    pub(crate) fn backdate_leases(&self, by: Duration) {
        for lease in &mut self.lock().unwrap().leases {
            lease.claimed_at -= by;
        }
    }
}

impl Transport for MemTransport {
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
        let mut state = self.lock()?;
        let sub = state.next_submission;
        state.next_submission += 1;
        state.pending.insert((id, sub), envelope.to_owned());
        Ok(())
    }

    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String> {
        let mut state = self.lock()?;
        // Shutdown means "stop taking new work", not "drain" — this is
        // what lets a coordinator's deadline abort actually abort.
        if state.stop {
            return Ok(None);
        }
        let Some(((id, _sub), envelope)) = state.pending.pop_first() else {
            return Ok(None);
        };
        state.leases.push(Lease {
            id,
            worker: worker.to_owned(),
            envelope: envelope.clone(),
            claimed_at: Instant::now(),
            requeued: false,
        });
        state.stats.steals += 1;
        Ok(Some(Claimed { id, envelope }))
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        // A heartbeat for an already-requeued or delivered job finds
        // nothing to renew — the worker's eventual duplicate delivery is
        // compared and discarded as usual.
        let now = Instant::now();
        let mut state = self.lock()?;
        for lease in state
            .leases
            .iter_mut()
            .filter(|l| !l.requeued && l.id == id && l.worker == worker)
        {
            lease.claimed_at = now;
        }
        Ok(())
    }

    fn deliver(&self, _worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
        let mut state = self.lock()?;
        if let Some(existing) = state.results.get(&id) {
            return Ok(Delivered::Duplicate {
                existing: existing.clone(),
            });
        }
        state.results.insert(id, envelope.to_owned());
        // The delivery ends every lease on this id — including a
        // re-published straggler's, whose eventual duplicate will be
        // compared and discarded.
        state.leases.retain(|lease| lease.id != id);
        Ok(Delivered::Accepted)
    }

    fn discard_duplicate(&self, _worker: &str, _id: u64) -> Result<(), String> {
        self.lock()?.stats.duplicates_discarded += 1;
        Ok(())
    }

    fn record_conflict(&self, worker: &str, id: u64, _envelope: &str) -> Result<(), String> {
        let mut state = self.lock()?;
        state.conflicts.push(format!(
            "job {id}: worker {worker:?} delivered bytes diverging from the stored result"
        ));
        state.stats.conflicts += 1;
        Ok(())
    }

    fn fetch(&self, id: u64) -> Result<Option<String>, String> {
        Ok(self.lock()?.results.get(&id).cloned())
    }

    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
        let now = Instant::now();
        let mut state = self.lock()?;
        let mut prior: HashMap<u64, u32> = HashMap::new();
        for lease in state.leases.iter().filter(|l| l.requeued) {
            *prior.entry(lease.id).or_default() += 1;
        }
        let JobState {
            leases, results, ..
        } = &mut *state;
        let mut republish: Vec<(u64, String)> = Vec::new();
        for lease in leases.iter_mut() {
            if lease.requeued || results.contains_key(&lease.id) {
                continue;
            }
            let required =
                requeue_backoff(base_timeout, prior.get(&lease.id).copied().unwrap_or(0));
            if now.duration_since(lease.claimed_at) < required {
                continue;
            }
            lease.requeued = true;
            republish.push((lease.id, lease.envelope.clone()));
        }
        let count = republish.len();
        for (id, envelope) in republish {
            let sub = state.next_submission;
            state.next_submission += 1;
            state.pending.insert((id, sub), envelope);
        }
        state.stats.requeues += count;
        Ok(count)
    }

    fn stop(&self) -> Result<(), String> {
        self.lock()?.stop = true;
        Ok(())
    }

    fn stopped(&self) -> Result<bool, String> {
        Ok(self.lock()?.stop)
    }

    fn conflicts(&self) -> Result<Vec<String>, String> {
        Ok(self.lock()?.conflicts.clone())
    }

    fn counters(&self) -> Result<QueueStats, String> {
        Ok(self.lock()?.stats)
    }
}

/// The work-stealing protocol over any [`Transport`]: a [`JobQueue`]
/// whose job/result encoding, duplicate compare-and-discard and conflict
/// recording are written once, here, against opaque envelopes. The
/// transport sits behind an [`Arc`] so a coordinator can hand the same
/// store to a [`TcpServer`](crate::tcp::TcpServer).
#[derive(Debug)]
pub struct Broker<T> {
    transport: Arc<T>,
}

impl<T: Transport> Broker<T> {
    /// Run the protocol over `transport`.
    pub fn over(transport: T) -> Broker<T> {
        Broker {
            transport: Arc::new(transport),
        }
    }

    /// The underlying transport (for medium-specific operations: lease
    /// counts, requeue passes, serving the store over a socket, …).
    pub fn transport(&self) -> &Arc<T> {
        &self.transport
    }
}

impl Broker<MemTransport> {
    /// A broker over a fresh, empty job store.
    pub fn new() -> Broker<MemTransport> {
        Broker::over(MemTransport::default())
    }
}

impl Default for Broker<MemTransport> {
    fn default() -> Self {
        Broker::new()
    }
}

impl<T: Transport> JobQueue for Broker<T> {
    fn submit(&self, job: &Job) -> Result<(), String> {
        let _span =
            affidavit_obs::span_with("dist.publish", vec![("job".to_owned(), job.id.to_string())]);
        self.transport.publish(job.id, &encode_job(job))
    }

    fn steal(&self, worker: &str) -> Result<Option<Job>, String> {
        let _span = affidavit_obs::span("dist.claim");
        match self.transport.claim(worker)? {
            None => Ok(None),
            Some(claimed) => decode_job(&claimed.envelope).map(Some),
        }
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        self.transport.heartbeat(worker, id)
    }

    fn complete(&self, worker: &str, result: &JobResult) -> Result<(), String> {
        let _span = affidavit_obs::span_with(
            "dist.deliver",
            vec![("job".to_owned(), result.id.to_string())],
        );
        let envelope = encode_result(result);
        match self.transport.deliver(worker, result.id, &envelope)? {
            Delivered::Accepted => Ok(()),
            Delivered::Duplicate { existing } => {
                // A duplicate (stolen twice, or a straggler retry): the
                // engine is deterministic, so apart from the worker name
                // and wall time the bytes must agree.
                let existing = decode_result(&existing)?;
                if strip_nondeterminism(&existing) == strip_nondeterminism(result) {
                    self.transport.discard_duplicate(worker, result.id)
                } else {
                    self.transport.record_conflict(worker, result.id, &envelope)
                }
            }
        }
    }

    fn fetch_result(&self, id: u64) -> Result<Option<JobResult>, String> {
        match self.transport.fetch(id)? {
            None => Ok(None),
            Some(envelope) => decode_result(&envelope).map(Some),
        }
    }

    fn request_shutdown(&self) -> Result<(), String> {
        self.transport.stop()
    }

    fn shutdown_requested(&self) -> Result<bool, String> {
        self.transport.stopped()
    }

    fn check_health(&self) -> Result<(), String> {
        match self.transport.conflicts()?.first() {
            None => Ok(()),
            Some(conflict) => Err(conflict.clone()),
        }
    }

    fn stats(&self) -> Result<QueueStats, String> {
        self.transport.counters()
    }
}

/// Canonical bytes of a result with the legitimately run-dependent fields
/// (worker name, wall time) blanked — what "the same result" means when
/// comparing duplicates.
fn strip_nondeterminism(result: &JobResult) -> String {
    let mut stripped = result.clone();
    stripped.worker = String::new();
    if let JobOutcome::Explained { millis, .. } = &mut stripped.outcome {
        *millis = 0;
    }
    encode_result(&stripped)
}

/// The protocol test set: every scenario runs once against
/// `Broker<MemTransport>` directly and once through `Broker<TcpClient>`
/// and a loopback [`TcpServer`](crate::tcp::TcpServer) serving the same
/// store.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPayload;
    use crate::queue::InProcessQueue;
    use crate::tcp::{TcpClient, TcpServer};
    use crate::wire::WireInstance;

    fn dummy_job(id: u64) -> Job {
        Job {
            id,
            name: format!("job-{id}"),
            payload: JobPayload::Explain {
                instance: WireInstance {
                    schema: vec!["a".into()],
                    pool: vec!["x".into()],
                    source: vec![vec![0]],
                    target: vec![vec![0]],
                },
                config: affidavit_core::AffidavitConfig::paper_id(),
            },
        }
    }

    fn dummy_result(id: u64, worker: &str, reason: &str) -> JobResult {
        JobResult {
            id,
            name: format!("job-{id}"),
            worker: worker.to_owned(),
            outcome: JobOutcome::Failed {
                reason: reason.to_owned(),
            },
        }
    }

    /// The coordinator's store plus a worker-side view of it.
    struct Fixture {
        medium: &'static str,
        coordinator: InProcessQueue,
        worker: Box<dyn JobQueue>,
        _server: Option<TcpServer>,
    }

    impl Fixture {
        fn store(&self) -> &MemTransport {
            self.coordinator.transport()
        }
    }

    /// Run `scenario` against both media.
    fn on_both_media(scenario: impl Fn(&Fixture)) {
        let direct = InProcessQueue::new();
        let worker = Box::new(Broker {
            transport: Arc::clone(direct.transport()),
        });
        scenario(&Fixture {
            medium: "direct",
            coordinator: direct,
            worker,
            _server: None,
        });

        let coordinator = InProcessQueue::new();
        let server = TcpServer::bind("127.0.0.1:0", Arc::clone(coordinator.transport()))
            .expect("bind loopback");
        let client = TcpClient::new(server.local_addr().to_string());
        scenario(&Fixture {
            medium: "tcp",
            coordinator,
            worker: Box::new(Broker::over(client)),
            _server: Some(server),
        });
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_secs(30);
        assert_eq!(requeue_backoff(base, 0), base);
        assert_eq!(requeue_backoff(base, 1), base * 2);
        assert_eq!(requeue_backoff(base, 3), base * 8);
        assert_eq!(requeue_backoff(base, 6), base * 64);
        // Capped: retry 100 waits no longer than retry 6.
        assert_eq!(requeue_backoff(base, 100), base * 64);
    }

    #[test]
    fn claims_are_exclusive_and_lowest_id_first() {
        on_both_media(|f| {
            f.coordinator.submit(&dummy_job(1)).unwrap();
            f.coordinator.submit(&dummy_job(0)).unwrap();
            // Lowest id first, regardless of submission order.
            assert_eq!(f.worker.steal("a").unwrap().unwrap().id, 0, "{}", f.medium);
            assert_eq!(f.worker.steal("b").unwrap().unwrap().id, 1, "{}", f.medium);
            assert!(f.worker.steal("a").unwrap().is_none(), "{}", f.medium);
            assert_eq!(f.coordinator.stats().unwrap().steals, 2, "{}", f.medium);
            assert_eq!(f.store().active_leases(), 2, "{}", f.medium);
        });
    }

    #[test]
    fn a_matching_duplicate_is_discarded_and_counted() {
        on_both_media(|f| {
            f.worker
                .complete("a", &dummy_result(4, "a", "same"))
                .unwrap();
            f.worker
                .complete("b", &dummy_result(4, "b", "same"))
                .unwrap();
            let first = f.coordinator.fetch_result(4).unwrap().unwrap();
            assert_eq!(first.worker, "a", "{}: first delivery wins", f.medium);
            let stats = f.coordinator.stats().unwrap();
            assert_eq!(stats.duplicates_discarded, 1, "{}", f.medium);
            assert_eq!(stats.conflicts, 0, "{}", f.medium);
            assert!(f.coordinator.check_health().is_ok(), "{}", f.medium);
        });
    }

    #[test]
    fn a_diverging_duplicate_fails_the_health_check() {
        on_both_media(|f| {
            f.worker
                .complete("a", &dummy_result(4, "a", "one"))
                .unwrap();
            f.worker
                .complete("b", &dummy_result(4, "b", "two"))
                .unwrap();
            let err = f.coordinator.check_health().unwrap_err();
            assert!(err.contains("diverging"), "{}: {err}", f.medium);
            assert!(f.worker.check_health().is_err(), "{}", f.medium);
            assert_eq!(f.coordinator.stats().unwrap().conflicts, 1, "{}", f.medium);
        });
    }

    #[test]
    fn a_straggler_is_requeued_exactly_once_with_backoff() {
        on_both_media(|f| {
            let timeout = Duration::from_secs(30);
            f.coordinator.submit(&dummy_job(9)).unwrap();
            assert_eq!(f.worker.steal("slow").unwrap().unwrap().id, 9);
            assert!(f.worker.steal("fast").unwrap().is_none());
            // The claim outlives the timeout: re-published once, and the
            // same lease is never re-published again.
            f.store().backdate_leases(Duration::from_secs(31));
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                1,
                "{}",
                f.medium
            );
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                0,
                "{}",
                f.medium
            );
            // The second lease on the id must idle twice as long.
            assert_eq!(f.worker.steal("fast").unwrap().unwrap().id, 9);
            f.store().backdate_leases(Duration::from_secs(45));
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                0,
                "{}",
                f.medium
            );
            f.store().backdate_leases(Duration::from_secs(16));
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                1,
                "{}",
                f.medium
            );
            assert_eq!(f.coordinator.stats().unwrap().requeues, 2, "{}", f.medium);
            // Once a result lands, no lease on the id is a straggler.
            f.worker
                .complete("fast", &dummy_result(9, "fast", "done"))
                .unwrap();
            assert_eq!(f.store().requeue_expired(Duration::ZERO).unwrap(), 0);
            assert_eq!(f.store().active_leases(), 0, "{}", f.medium);
        });
    }

    #[test]
    fn a_heartbeat_renews_the_lease() {
        on_both_media(|f| {
            let timeout = Duration::from_secs(30);
            f.coordinator.submit(&dummy_job(5)).unwrap();
            assert_eq!(f.worker.steal("w").unwrap().unwrap().id, 5);
            // A minute-old lease renewed just before the requeue pass is
            // not a straggler...
            f.store().backdate_leases(Duration::from_secs(60));
            f.worker.heartbeat("w", 5).unwrap();
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                0,
                "{}",
                f.medium
            );
            // ...but another worker's heartbeat renews nothing.
            f.store().backdate_leases(Duration::from_secs(60));
            f.worker.heartbeat("other", 5).unwrap();
            assert_eq!(
                f.store().requeue_expired(timeout).unwrap(),
                1,
                "{}",
                f.medium
            );
        });
    }

    #[test]
    fn the_lease_clock_starts_at_claim_not_at_publish() {
        on_both_media(|f| {
            f.coordinator.submit(&dummy_job(5)).unwrap();
            // The job sits in the queue longer than the steal timeout
            // before anyone claims it...
            std::thread::sleep(Duration::from_millis(60));
            assert_eq!(f.worker.steal("w").unwrap().unwrap().id, 5);
            // ...and is not a straggler the moment it is claimed.
            let requeued = f.store().requeue_expired(Duration::from_millis(40));
            assert_eq!(requeued.unwrap(), 0, "{}", f.medium);
        });
    }

    #[test]
    fn stop_revokes_pending_claims() {
        on_both_media(|f| {
            f.coordinator.submit(&dummy_job(0)).unwrap();
            assert!(!f.worker.shutdown_requested().unwrap(), "{}", f.medium);
            f.coordinator.request_shutdown().unwrap();
            assert!(f.worker.shutdown_requested().unwrap(), "{}", f.medium);
            assert!(f.worker.steal("w").unwrap().is_none(), "{}", f.medium);
            assert_eq!(f.coordinator.stats().unwrap().steals, 0, "{}", f.medium);
        });
    }
}
