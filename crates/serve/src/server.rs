//! The resident daemon: accept loop, request handling, pinned sessions.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use affidavit_core::instance::ProblemInstance;
use affidavit_core::profiling::{stage_tables, table_stem, ProfileOptions};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, DeadlineExceeded};
use affidavit_store::{
    ingest_pair, IngestOptions, PoolConfig, SessionKey, SessionLru, SnapshotPair,
};

use crate::frame::{
    configure_stream, read_frame, spawn_accept_loop, write_frame, ConnRegistry, FrameConfig,
    FrameRead,
};
use crate::protocol::{
    ClientRequest, ClientResponse, ExplainSpec, ReportReply, ServeStats, MAX_REQUEST_BYTES,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`"127.0.0.1:0"` = loopback with an OS-chosen port).
    /// Bind a routable address to accept clients from other machines —
    /// trusted networks only: the protocol carries no authentication yet.
    pub listen: String,
    /// Maximum snapshot pairs pinned at once (LRU beyond that).
    pub sessions: usize,
    /// Framing configuration (stall timeout).
    pub frame: FrameConfig,
    /// Maximum `Explain`/`Pin` requests in flight at once; further ones
    /// are rejected with a clear busy error instead of queuing. `0` =
    /// unlimited.
    pub max_inflight: usize,
    /// Wall-clock budget per `Explain` request; an overrunning search is
    /// aborted cooperatively and answered with an error. `None` =
    /// unlimited.
    pub request_deadline: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            sessions: 8,
            frame: FrameConfig::default(),
            max_inflight: 0,
            request_deadline: None,
        }
    }
}

#[derive(Debug)]
struct ServeShared {
    sessions: Mutex<SessionLru>,
    requests: AtomicU64,
    frame: FrameConfig,
    /// Live keep-alive sockets, severed on shutdown so parked clients
    /// get a hard close instead of a daemon that answers forever.
    conns: Arc<ConnRegistry>,
    max_inflight: usize,
    request_deadline: Option<Duration>,
    inflight: AtomicU64,
    busy_rejections: AtomicU64,
    deadline_expirations: AtomicU64,
}

/// RAII inflight slot: acquired before the expensive half of a request,
/// released however the request ends.
#[derive(Debug)]
struct InflightSlot<'a>(&'a ServeShared);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServeShared {
    /// Claim an inflight slot, or explain why the daemon is busy.
    fn admit(&self) -> Result<InflightSlot<'_>, String> {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed);
        let slot = InflightSlot(self); // released on error too
        if self.max_inflight > 0 && now >= self.max_inflight as u64 {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(format!(
                "busy: {} requests already in flight (limit {})",
                now, self.max_inflight
            ));
        }
        Ok(slot)
    }

    fn stats(&self) -> ServeStats {
        let (sessions, counters) = match self.sessions.lock() {
            Ok(lru) => (lru.len() as u64, lru.counters()),
            Err(_) => (0, Default::default()),
        };
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            sessions,
            ingests: counters.ingests,
            hits: counters.hits,
            evictions: counters.evictions,
            connections: self.conns.accepted(),
        }
    }

    /// Publish one stats snapshot plus the limit counters into the
    /// process-wide registry, then render the whole registry. The serve
    /// series mirror [`ServeStats`] (and therefore `SessionCounters`)
    /// verbatim.
    fn render_metrics(&self) -> String {
        let stats = self.stats();
        let m = affidavit_obs::metrics();
        m.set_counter("serve_requests_total", stats.requests);
        m.set_gauge("serve_sessions", stats.sessions as f64);
        m.set_counter("serve_ingests_total", stats.ingests);
        m.set_counter("serve_hits_total", stats.hits);
        m.set_counter("serve_evictions_total", stats.evictions);
        m.set_counter("serve_connections_total", stats.connections);
        m.set_gauge(
            "serve_inflight",
            self.inflight.load(Ordering::Relaxed) as f64,
        );
        m.set_counter(
            "serve_busy_rejections_total",
            self.busy_rejections.load(Ordering::Relaxed),
        );
        m.set_counter(
            "serve_deadline_expirations_total",
            self.deadline_expirations.load(Ordering::Relaxed),
        );
        m.render_prometheus()
    }
}

/// A running daemon. Dropping the handle shuts the daemon down; a
/// client's `Shutdown` request does the same from the outside (then
/// [`ServeHandle::wait`] returns).
#[derive(Debug)]
pub struct ServeHandle {
    shared: Arc<ServeShared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address — what clients dial with `--connect` (the port
    /// is the OS's pick when the bind address ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's counters right now.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Block until the daemon shuts down (a client's `Shutdown` request
    /// or [`ServeHandle::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Shut the daemon down from this side: stop accepting, sever
    /// parked clients, join the accept loop.
    pub fn shutdown(&mut self) {
        self.shared.conns.close();
        self.wait();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind the listener and start serving client-API requests in
/// background threads (one per connection, requests multiplexed over
/// each keep-alive connection in sequence).
pub fn serve(opts: &ServeOptions) -> Result<ServeHandle, String> {
    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("binding {}: {e}", opts.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local address of {}: {e}", opts.listen))?;
    let shared = Arc::new(ServeShared {
        sessions: Mutex::new(SessionLru::new(opts.sessions)),
        requests: AtomicU64::new(0),
        frame: opts.frame,
        conns: Arc::new(ConnRegistry::default()),
        max_inflight: opts.max_inflight,
        request_deadline: opts.request_deadline,
        inflight: AtomicU64::new(0),
        busy_rejections: AtomicU64::new(0),
        deadline_expirations: AtomicU64::new(0),
    });
    let serving = Arc::clone(&shared);
    let accept = spawn_accept_loop(listener, Arc::clone(&shared.conns), move |stream| {
        serve_connection(stream, &serving)
    })?;
    Ok(ServeHandle {
        shared,
        addr,
        accept: Some(accept),
    })
}

/// Serve framed client-API requests on one accepted connection until
/// the peer closes it (or asks for shutdown). Parked keep-alive clients
/// idle between requests; an idle stall window is normal, not a hangup.
/// A frame announcing more than [`MAX_REQUEST_BYTES`] ends the
/// connection before its body is read.
fn serve_connection(mut stream: TcpStream, shared: &ServeShared) {
    let cfg = shared.frame;
    if configure_stream(&stream, &cfg).is_err() {
        return;
    }
    loop {
        let text = match read_frame(&mut stream, &cfg, MAX_REQUEST_BYTES) {
            Ok(FrameRead::Frame(text)) => text,
            Ok(FrameRead::Idle) if !shared.conns.is_closed() => continue,
            Ok(FrameRead::Idle | FrameRead::Closed) | Err(_) => return,
        };
        let (response, last) = match serde_json::from_str::<ClientRequest>(&text) {
            Ok(ClientRequest::Shutdown) => (ClientResponse::ShuttingDown, true),
            Ok(request) => (answer(&request, shared), false),
            Err(e) => (
                ClientResponse::Error {
                    message: format!("malformed request: {e}"),
                },
                false,
            ),
        };
        let encoded = serde_json::to_string(&response).expect("responses are serializable");
        if write_frame(&mut stream, &encoded, &cfg).is_err() {
            return;
        }
        if last {
            // Acknowledged first, then torn down: the requesting client
            // gets its frame; every other parked client is severed.
            shared.conns.close();
            return;
        }
    }
}

/// Execute one (non-shutdown) request.
fn answer(request: &ClientRequest, shared: &ServeShared) -> ClientResponse {
    let op = match request {
        ClientRequest::Ping => "ping",
        ClientRequest::Explain { .. } => "explain",
        ClientRequest::Pin { .. } => "pin",
        ClientRequest::Stats => "stats",
        ClientRequest::Metrics => "metrics",
        ClientRequest::Shutdown => "shutdown",
    };
    let _span = affidavit_obs::span_with("serve.request", vec![("op".to_owned(), op.to_owned())]);
    match request {
        ClientRequest::Ping => ClientResponse::Pong,
        ClientRequest::Stats => ClientResponse::StatsReport {
            stats: shared.stats(),
        },
        ClientRequest::Metrics => ClientResponse::MetricsReport {
            text: shared.render_metrics(),
        },
        ClientRequest::Explain { spec } => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            match admit(spec, shared).and_then(|_slot| explain(spec, shared)) {
                Ok(reply) => ClientResponse::Report { reply },
                Err(message) => ClientResponse::Error { message },
            }
        }
        ClientRequest::Pin { spec } => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            match admit(spec, shared).and_then(|_slot| pin(spec, shared)) {
                Ok(warm) => ClientResponse::Pinned { warm },
                Err(message) => ClientResponse::Error { message },
            }
        }
        ClientRequest::Shutdown => unreachable!("handled by the connection loop"),
    }
}

/// Admit an `Explain`/`Pin` spec: a configuration that would abort the
/// daemon or panic its connection thread (see
/// [`AffidavitConfig::validate`](affidavit_core::AffidavitConfig::validate))
/// is refused before any admission or ingestion work.
fn admit<'a>(spec: &ExplainSpec, shared: &'a ServeShared) -> Result<InflightSlot<'a>, String> {
    spec.config
        .validate()
        .map_err(|e| format!("bad config: {e}"))?;
    shared.admit()
}

/// The explain hot path: pin-or-reuse the ingested snapshot pair, then
/// run a fresh search over a clone of it. Each request gets its own
/// search state (`Affidavit::new` per request), so concurrent requests
/// and warm repeats produce exactly the bytes of a one-shot run.
fn explain(spec: &ExplainSpec, shared: &ServeShared) -> Result<ReportReply, String> {
    if spec.delta {
        return explain_delta_served(spec, shared);
    }
    let deadline = shared
        .request_deadline
        .map(|budget| Instant::now() + budget);
    let (pair, warm, opts) = staged_pair(spec, shared, session_key(spec))?;
    let mut instance = stage(spec, pair, &opts)?;
    let started = Instant::now();
    let outcome = {
        let _span = affidavit_obs::span("serve.search");
        Affidavit::new(spec.config.clone())
            .explain_until(&mut instance, deadline)
            .map_err(|DeadlineExceeded| {
                shared.deadline_expirations.fetch_add(1, Ordering::Relaxed);
                format!(
                    "request exceeded its deadline ({:?})",
                    shared.request_deadline.unwrap_or_default()
                )
            })?
    };
    let millis = started.elapsed().as_millis() as u64;
    let _span = affidavit_obs::span("serve.respond");
    let report = render_report(&outcome.explanation, &instance);
    Ok(ReportReply {
        report,
        polled: outcome.stats.polled as u64,
        generated: outcome.stats.states_generated as u64,
        millis,
        warm,
    })
}

/// The incremental explain path (`spec.delta`): the one-shot
/// `explain --delta` routine ([`explain_delta_with`]: same manifest,
/// same tiers), with the pinned-session cache as its staging hook, so
/// the pair is staged only when the raw tier misses. A spliced reply is
/// always `warm` (zero search work); a redo is `warm` exactly when the
/// session cache was.
/// The request deadline is deliberately not enforced here: a dirty
/// pair's redo must stay byte-identical to the one-shot `--delta` CLI,
/// which has no deadline.
///
/// [`explain_delta_with`]: affidavit_core::delta::explain_delta_with
fn explain_delta_served(spec: &ExplainSpec, shared: &ServeShared) -> Result<ReportReply, String> {
    let opts = profile_options(spec);
    let state = affidavit_core::delta::explain_state(
        Path::new(&spec.target),
        spec.delta_state.as_deref().map(Path::new),
    );
    let warm_session = std::cell::Cell::new(false);
    let outcome = affidavit_core::delta::explain_delta_with(
        Path::new(&spec.source),
        Path::new(&spec.target),
        &opts,
        &state,
        &mut |key| {
            let (pair, warm, sopts) = staged_pair(spec, shared, key)?;
            warm_session.set(warm);
            stage(spec, pair, &sopts)
        },
    )?;
    affidavit_obs::diag("delta", &outcome.stats.summary());
    Ok(ReportReply {
        report: outcome.report,
        polled: outcome.polled,
        generated: outcome.generated,
        millis: outcome.duration.as_millis() as u64,
        warm: outcome.spliced || warm_session.get(),
    })
}

/// Pre-warm the session cache: ingest and pin without searching.
/// Returns whether the pair was already pinned.
fn pin(spec: &ExplainSpec, shared: &ServeShared) -> Result<bool, String> {
    let (_pair, warm, _opts) = staged_pair(spec, shared, session_key(spec))?;
    Ok(warm)
}

/// Key a request's pair by file content: `None` when a file cannot be
/// fingerprinted (a missing, unreadable or special file).
fn session_key(spec: &ExplainSpec) -> Option<SessionKey> {
    SessionKey::for_files(Path::new(&spec.source), Path::new(&spec.target)).ok()
}

/// The session hot path shared by `Explain`, `Pin` and the delta path's
/// staging hook: pin-or-reuse the pair under `key`, its content
/// fingerprints. `warm` is true when the request performed zero
/// ingestion work. A pair with no key skips the cache and goes straight
/// to ingestion, so the request fails with the one-shot `explain`
/// message.
fn staged_pair(
    spec: &ExplainSpec,
    shared: &ServeShared,
    key: Option<SessionKey>,
) -> Result<(SnapshotPair, bool, ProfileOptions), String> {
    let opts = profile_options(spec);
    let src = Path::new(&spec.source);
    let tgt = Path::new(&spec.target);
    let Some(key) = key else {
        let pair = ingest_pair(src, tgt, &opts.ingest, &PoolConfig)?;
        return Ok((pair, false, opts));
    };
    let (pair, warm) = {
        let mut sessions = shared
            .sessions
            .lock()
            .map_err(|_| "session cache poisoned".to_owned())?;
        let ingests_before = sessions.counters().ingests;
        let pair =
            sessions.get_or_ingest(key, || ingest_pair(src, tgt, &opts.ingest, &PoolConfig))?;
        (pair, sessions.counters().ingests == ingests_before)
    };
    affidavit_obs::point("serve.session", vec![("warm".to_owned(), warm.to_string())]);
    Ok((pair, warm, opts))
}

/// Stage a pinned pair for the search under the request's table name
/// (its target file's stem), as the one-shot `explain` names it.
fn stage(
    spec: &ExplainSpec,
    pair: SnapshotPair,
    opts: &ProfileOptions,
) -> Result<ProblemInstance, String> {
    let _span = affidavit_obs::span("serve.stage");
    let name = table_stem(Path::new(&spec.target));
    stage_tables(&name, pair.source, pair.target, pair.pool, opts)
}

/// Translate a wire spec into the staging options the profiling layer
/// uses — shared by the fresh-search and delta explain paths.
fn profile_options(spec: &ExplainSpec) -> ProfileOptions {
    let ingest_opts = IngestOptions {
        chunk_rows: spec.ingest_chunk_rows,
        threads: spec.config.threads,
        ..IngestOptions::default()
    };
    ProfileOptions {
        config: spec.config.clone(),
        align: spec.align,
        ingest: ingest_opts,
        ..ProfileOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with_limit(max_inflight: usize) -> ServeShared {
        ServeShared {
            sessions: Mutex::new(SessionLru::new(2)),
            requests: AtomicU64::new(0),
            frame: FrameConfig::default(),
            conns: Arc::new(ConnRegistry::default()),
            max_inflight,
            request_deadline: None,
            inflight: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            deadline_expirations: AtomicU64::new(0),
        }
    }

    #[test]
    fn the_inflight_gate_admits_to_the_limit_and_releases_on_drop() {
        let shared = shared_with_limit(2);
        let a = shared.admit().expect("slot 1 of 2");
        let _b = shared.admit().expect("slot 2 of 2");
        let err = shared.admit().expect_err("slot 3 must be rejected");
        assert!(err.contains("busy"), "{err}");
        assert!(err.contains("limit 2"), "{err}");
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 1);
        // The rejected attempt released its provisional slot, and a
        // finished request frees capacity for the next admission.
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 2);
        drop(a);
        let _c = shared.admit().expect("freed slot is reusable");
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_unlimited_gate_never_rejects() {
        let shared = shared_with_limit(0);
        let slots: Vec<_> = (0..64).map(|_| shared.admit().unwrap()).collect();
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 64);
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 0);
        drop(slots);
        assert_eq!(shared.inflight.load(Ordering::Relaxed), 0);
    }
}
