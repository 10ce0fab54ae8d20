//! The TCP transport: a coordinator's job store, served over sockets.
//!
//! [`TcpServer`] is the coordinator half: it binds a
//! [`std::net::TcpListener`] and serves framed request/response exchanges
//! from any number of workers against an [`Arc<MemTransport>`] — the same
//! job store the coordinator drives directly, so pending jobs, leases and
//! results exist once, in coordinator memory. [`TcpClient`] is the worker
//! half: it holds **one persistent framed connection** to the coordinator
//! and multiplexes every [`Transport`] operation (claim, deliver,
//! heartbeat, …) over it as one request/response exchange, each answered
//! by one [`MemTransport`] call. A failure on the kept-alive connection —
//! coordinator restart, an idle-killing middlebox — drops it and retries
//! the operation once on a fresh dial; a failure on the *fresh* dial
//! propagates, which is the broker-lost signal the worker's reconnect
//! loop and exit code 3 are built on. A worker that dies mid-job takes
//! nothing down with it: its lease expires in the store and the job is
//! re-published. The job/result payloads inside the exchanges are the
//! unchanged `wire.rs` envelopes, opaque to this module.
//!
//! Framing lives in [`crate::frame`] — a 4-byte big-endian length plus
//! JSON, with **progress-based** stall timeouts so a slow-but-advancing
//! peer mid-frame is never misread as dead. The JSON here is a small
//! tagged request/response vocabulary (this module's private
//! `Request`/`Response` enums); the `affidavit-serve` crate layers its
//! client-API vocabulary over the same codec. A malformed request is
//! answered with an error and changes nothing; a frame that is not even
//! a frame (oversized, not UTF-8, stalled mid-way) closes the connection.
//! Neither takes the listener down.
//!
//! Retrying an operation after a failure on the cached connection can
//! execute it twice on the coordinator (the first attempt may have been
//! applied before the reply was lost). Every operation tolerates that:
//! an extra publication is claimable exactly once and its eventual
//! duplicate result is compared-and-discarded, an abandoned extra claim
//! expires into a requeue, a repeated delivery takes the duplicate path,
//! and the rest are idempotent reads or sticky flags.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::frame::{
    configure_stream, read_frame, spawn_accept_loop, write_frame, ConnRegistry, FrameConfig,
    FrameRead,
};
use crate::queue::QueueStats;
use crate::transport::{Claimed, Delivered, MemTransport, Transport};

// ---- the request/response vocabulary -------------------------------------

/// One transport operation, as sent by a worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
enum Request {
    /// Liveness probe (worker reconnect logic).
    Ping,
    /// [`Transport::publish`].
    Publish { id: u64, envelope: String },
    /// [`Transport::claim`].
    Claim { worker: String },
    /// [`Transport::heartbeat`]: the worker is alive and still computing
    /// `id` — restart the lease clock so a legitimately long job is not
    /// requeued as a straggler.
    Heartbeat { worker: String, id: u64 },
    /// [`Transport::deliver`].
    Deliver {
        worker: String,
        id: u64,
        envelope: String,
    },
    /// [`Transport::discard_duplicate`].
    DiscardDuplicate { worker: String, id: u64 },
    /// [`Transport::record_conflict`].
    RecordConflict {
        worker: String,
        id: u64,
        envelope: String,
    },
    /// [`Transport::fetch`].
    Fetch { id: u64 },
    /// [`Transport::requeue_expired`] (timeout in milliseconds).
    Requeue { base_timeout_ms: u64 },
    /// [`Transport::stop`].
    Stop,
    /// [`Transport::stopped`].
    Stopped,
    /// [`Transport::conflicts`].
    Conflicts,
    /// [`Transport::counters`].
    Counters,
}

/// The coordinator's answer to a [`Request`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
enum Response {
    /// Operation performed; nothing to return.
    Ok,
    /// A claim succeeded; the lease is now tracked coordinator-side.
    Job { id: u64, envelope: String },
    /// Nothing claimable (empty queue or stopped broker).
    Empty,
    /// First delivery for the id.
    Accepted,
    /// The id already has a delivery; compare against these bytes.
    Duplicate { existing: String },
    /// A fetch hit.
    Found { envelope: String },
    /// A fetch miss.
    NotFound,
    /// A boolean answer (`stopped`).
    Flag { value: bool },
    /// How many leases a requeue pass re-published.
    Requeued { count: u64 },
    /// Recorded conflict descriptions.
    ConflictList { items: Vec<String> },
    /// Steal-loop counters.
    CounterValues {
        steals: u64,
        requeues: u64,
        duplicates_discarded: u64,
        conflicts: u64,
    },
    /// The operation failed on the coordinator.
    Error { message: String },
}

// ---- coordinator side ----------------------------------------------------

/// The coordinator half of the TCP transport: a listener serving a job
/// store to remote workers. Dropping it stops accepting and severs every
/// connected worker (whose next exchange then fails, and whose redial
/// finds no listener — the broker-lost path).
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    conns: Arc<ConnRegistry>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Bind a listener (e.g. `"127.0.0.1:0"` for an OS-chosen loopback
    /// port, `"0.0.0.0:9999"` to accept workers from other machines —
    /// trusted networks only, the protocol carries no authentication
    /// yet) and serve `store` in background threads.
    pub fn bind(addr: &str, store: Arc<MemTransport>) -> Result<TcpServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local address of {addr}: {e}"))?;
        let conns = Arc::new(ConnRegistry::default());
        let serving = Arc::clone(&conns);
        let accept = spawn_accept_loop(listener, Arc::clone(&conns), move |stream| {
            serve_connection(stream, &store, &serving)
        })?;
        Ok(TcpServer {
            addr: local,
            conns,
            accept: Some(accept),
        })
    }

    /// The bound address — what workers dial with `--connect` (the port
    /// is the OS's pick when the bind address ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far. Keep-alive clients hold one
    /// connection across all their operations, so this counts peers
    /// (plus reconnects), not requests.
    pub fn connections_served(&self) -> usize {
        self.conns.accepted() as usize
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.conns.close();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Serve framed requests on one accepted connection until the peer
/// closes it. Keep-alive clients park between operations; an idle stall
/// window ([`FrameRead::Idle`]) is normal on such a connection, not a
/// reason to hang up.
fn serve_connection(mut stream: TcpStream, store: &MemTransport, conns: &ConnRegistry) {
    let cfg = &FrameConfig::default();
    if configure_stream(&stream, cfg).is_err() {
        return;
    }
    loop {
        let text = match read_frame(&mut stream, cfg) {
            Ok(FrameRead::Frame(text)) => text,
            Ok(FrameRead::Idle) if !conns.is_closed() => continue,
            Ok(FrameRead::Idle | FrameRead::Closed) | Err(_) => return,
        };
        let response = match serde_json::from_str::<Request>(&text) {
            Ok(request) => answer(&request, store),
            Err(e) => Response::Error {
                message: format!("malformed request: {e}"),
            },
        };
        let encoded = serde_json::to_string(&response).expect("responses are serializable");
        if write_frame(&mut stream, &encoded, cfg).is_err() {
            return;
        }
    }
}

/// Execute one request: exactly one [`MemTransport`] call.
fn answer(request: &Request, store: &MemTransport) -> Response {
    let unit = |done: Result<(), String>| done.map(|()| Response::Ok);
    let response = match request {
        Request::Ping => Ok(Response::Ok),
        Request::Publish { id, envelope } => unit(store.publish(*id, envelope)),
        Request::Claim { worker } => store.claim(worker).map(|claimed| match claimed {
            Some(Claimed { id, envelope }) => Response::Job { id, envelope },
            None => Response::Empty,
        }),
        Request::Heartbeat { worker, id } => unit(store.heartbeat(worker, *id)),
        Request::Deliver {
            worker,
            id,
            envelope,
        } => store
            .deliver(worker, *id, envelope)
            .map(|delivered| match delivered {
                Delivered::Accepted => Response::Accepted,
                Delivered::Duplicate { existing } => Response::Duplicate { existing },
            }),
        Request::DiscardDuplicate { worker, id } => unit(store.discard_duplicate(worker, *id)),
        Request::RecordConflict {
            worker,
            id,
            envelope,
        } => unit(store.record_conflict(worker, *id, envelope)),
        Request::Fetch { id } => store.fetch(*id).map(|found| match found {
            Some(envelope) => Response::Found { envelope },
            None => Response::NotFound,
        }),
        Request::Requeue { base_timeout_ms } => store
            .requeue_expired(Duration::from_millis(*base_timeout_ms))
            .map(|count| Response::Requeued {
                count: count as u64,
            }),
        Request::Stop => unit(store.stop()),
        Request::Stopped => store.stopped().map(|value| Response::Flag { value }),
        Request::Conflicts => store
            .conflicts()
            .map(|items| Response::ConflictList { items }),
        Request::Counters => store.counters().map(|c| Response::CounterValues {
            steals: c.steals as u64,
            requeues: c.requeues as u64,
            duplicates_discarded: c.duplicates_discarded as u64,
            conflicts: c.conflicts as u64,
        }),
    };
    response.unwrap_or_else(|message| Response::Error { message })
}

// ---- worker side ---------------------------------------------------------

/// The worker half of the TCP transport: one persistent framed
/// connection to the coordinator, with every operation a single
/// request/response exchange over it. Clones share the connection (they
/// are handles to the same keep-alive socket), and a mutex serializes
/// exchanges, so a worker's steal loop and its heartbeat ticker can use
/// the same client.
#[derive(Debug, Clone)]
pub struct TcpClient {
    addr: String,
    cfg: FrameConfig,
    conn: Arc<Mutex<Option<TcpStream>>>,
}

impl TcpClient {
    /// A client for the coordinator at `addr` (`HOST:PORT`). Dials
    /// lazily: the first operation establishes the keep-alive
    /// connection.
    pub fn new(addr: impl Into<String>) -> TcpClient {
        TcpClient {
            addr: addr.into(),
            cfg: FrameConfig::default(),
            conn: Arc::new(Mutex::new(None)),
        }
    }

    /// The coordinator address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One round trip: is the coordinator reachable and answering?
    pub fn ping(&self) -> Result<(), String> {
        self.call_unit(&Request::Ping, "ping")
    }

    /// One exchange over the persistent connection. A failure on the
    /// kept-alive socket may mean it silently went stale (coordinator
    /// restart, idle-killing middlebox) — drop it and retry the request
    /// once on a fresh dial. Fresh-dial failures propagate: that is the
    /// broker-lost signal the reconnect loop (and exit code 3) rely on.
    /// See the module docs for why a retried request is safe even if the
    /// first attempt was applied before its reply was lost.
    fn call(&self, request: &Request) -> Result<Response, String> {
        let encoded = serde_json::to_string(request).expect("requests are serializable");
        let mut conn = self
            .conn
            .lock()
            .map_err(|_| "tcp client connection poisoned".to_owned())?;
        if let Some(stream) = conn.as_mut() {
            match exchange(stream, &encoded, &self.cfg) {
                Ok(response) => return self.accept(response),
                Err(_) => *conn = None, // stale keep-alive; retry below
            }
        }
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to broker {}: {e}", self.addr))?;
        configure_stream(&stream, &self.cfg)?;
        let response = exchange(&mut stream, &encoded, &self.cfg)?;
        *conn = Some(stream);
        self.accept(response)
    }

    fn accept(&self, response: Response) -> Result<Response, String> {
        match response {
            Response::Error { message } => Err(format!("broker {}: {message}", self.addr)),
            response => Ok(response),
        }
    }
}

/// One framed request/response on an established connection. A client
/// awaiting its response treats an idle stall window as an error — only
/// servers park on idle.
fn exchange(stream: &mut TcpStream, encoded: &str, cfg: &FrameConfig) -> Result<Response, String> {
    write_frame(stream, encoded, cfg)?;
    match read_frame(stream, cfg)? {
        FrameRead::Frame(text) => {
            serde_json::from_str::<Response>(&text).map_err(|e| e.to_string())
        }
        FrameRead::Closed => Err("broker closed the connection mid-exchange".to_owned()),
        FrameRead::Idle => Err(format!(
            "broker sent no response within {:?}",
            cfg.stall_timeout
        )),
    }
}

fn unexpected(op: &str, response: Response) -> String {
    format!("unexpected {op} response {response:?}")
}

impl TcpClient {
    /// An exchange whose only successful answer is [`Response::Ok`].
    fn call_unit(&self, request: &Request, op: &str) -> Result<(), String> {
        match self.call(request)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(op, other)),
        }
    }
}

impl Transport for TcpClient {
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
        let envelope = envelope.to_owned();
        self.call_unit(&Request::Publish { id, envelope }, "publish")
    }

    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String> {
        match self.call(&Request::Claim {
            worker: worker.to_owned(),
        })? {
            Response::Job { id, envelope } => Ok(Some(Claimed { id, envelope })),
            Response::Empty => Ok(None),
            other => Err(unexpected("claim", other)),
        }
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        let worker = worker.to_owned();
        self.call_unit(&Request::Heartbeat { worker, id }, "heartbeat")
    }

    fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
        match self.call(&Request::Deliver {
            worker: worker.to_owned(),
            id,
            envelope: envelope.to_owned(),
        })? {
            Response::Accepted => Ok(Delivered::Accepted),
            Response::Duplicate { existing } => Ok(Delivered::Duplicate { existing }),
            other => Err(unexpected("deliver", other)),
        }
    }

    fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String> {
        let worker = worker.to_owned();
        self.call_unit(&Request::DiscardDuplicate { worker, id }, "discard")
    }

    fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String> {
        let request = Request::RecordConflict {
            worker: worker.to_owned(),
            id,
            envelope: envelope.to_owned(),
        };
        self.call_unit(&request, "conflict")
    }

    fn fetch(&self, id: u64) -> Result<Option<String>, String> {
        match self.call(&Request::Fetch { id })? {
            Response::Found { envelope } => Ok(Some(envelope)),
            Response::NotFound => Ok(None),
            other => Err(unexpected("fetch", other)),
        }
    }

    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
        match self.call(&Request::Requeue {
            base_timeout_ms: base_timeout.as_millis() as u64,
        })? {
            Response::Requeued { count } => Ok(count as usize),
            other => Err(unexpected("requeue", other)),
        }
    }

    fn stop(&self) -> Result<(), String> {
        self.call_unit(&Request::Stop, "stop")
    }

    fn stopped(&self) -> Result<bool, String> {
        match self.call(&Request::Stopped)? {
            Response::Flag { value } => Ok(value),
            other => Err(unexpected("stopped", other)),
        }
    }

    fn conflicts(&self) -> Result<Vec<String>, String> {
        match self.call(&Request::Conflicts)? {
            Response::ConflictList { items } => Ok(items),
            other => Err(unexpected("conflicts", other)),
        }
    }

    fn counters(&self) -> Result<QueueStats, String> {
        match self.call(&Request::Counters)? {
            Response::CounterValues {
                steals,
                requeues,
                duplicates_discarded,
                conflicts,
            } => Ok(QueueStats {
                steals: steals as usize,
                requeues: requeues as usize,
                duplicates_discarded: duplicates_discarded as usize,
                conflicts: conflicts as usize,
            }),
            other => Err(unexpected("counters", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobPayload};
    use crate::queue::{InProcessQueue, JobQueue};
    use crate::transport::Broker;
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

    fn serve(store: &Arc<MemTransport>) -> TcpServer {
        TcpServer::bind("127.0.0.1:0", Arc::clone(store)).expect("bind loopback")
    }

    #[test]
    fn one_keepalive_connection_serves_many_operations() {
        let coordinator = InProcessQueue::new();
        let server = serve(coordinator.transport());
        let worker = Broker::over(TcpClient::new(server.local_addr().to_string()));
        coordinator.submit(&dummy_job(0)).unwrap();
        // A representative worker lifetime: probe, steal, heartbeat,
        // deliver, poll for shutdown — all over the socket.
        worker.transport().ping().unwrap();
        let job = worker.steal("a").unwrap().unwrap();
        worker.heartbeat("a", 0).unwrap();
        worker
            .complete("a", &crate::job::process_job(&job, "a"))
            .unwrap();
        assert!(!worker.shutdown_requested().unwrap());
        assert_eq!(worker.stats().unwrap().steals, 1);
        assert!(coordinator.fetch_result(0).unwrap().is_some());
        // Every operation above shared one accepted connection, and a
        // clone of the client is a handle to the same socket.
        assert_eq!(server.connections_served(), 1);
        worker.transport().as_ref().clone().ping().unwrap();
        assert_eq!(server.connections_served(), 1);
    }

    #[test]
    fn stale_keepalive_connection_is_redialed_transparently() {
        use std::io::Write as _;
        // A coordinator stand-in that hangs up after every answered
        // request — the worst-case keep-alive peer. The client must
        // notice the dead cached connection on the next operation and
        // retry it once on a fresh dial.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let cfg = FrameConfig::default();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                configure_stream(&stream, &cfg).unwrap();
                match read_frame(&mut stream, &cfg).unwrap() {
                    FrameRead::Frame(_) => {}
                    other => panic!("expected a request, got {other:?}"),
                }
                let ok = serde_json::to_string(&Response::Ok).unwrap();
                write_frame(&mut stream, &ok, &cfg).unwrap();
                stream.flush().unwrap();
                // Hanging up poisons the client's cached connection.
            }
        });
        let client = TcpClient::new(addr.to_string());
        client.ping().expect("first ping, fresh dial");
        client
            .ping()
            .expect("second ping, redial after stale cache");
        server.join().unwrap();
    }

    #[test]
    fn ping_fails_once_the_coordinator_is_gone() {
        let store = Arc::new(MemTransport::default());
        let server = serve(&store);
        let addr = server.local_addr().to_string();
        let client = TcpClient::new(addr.clone());
        client.ping().expect("coordinator up");
        drop(server);
        // The listener is closed and the port released. The cached
        // keep-alive connection is dead, the redial finds no listener:
        // the probe the worker's reconnect loop uses must fail.
        assert!(client.ping().is_err());
        // And so must a fresh client's first dial.
        assert!(TcpClient::new(addr).ping().is_err());
    }

    /// One valid request of every kind, encoded.
    fn valid_frames() -> Vec<String> {
        let worker = || "w-1".to_owned();
        let envelope = || r#"{"quoted \"payload\"":[1,2]}"#.to_owned();
        [
            Request::Ping,
            Request::Publish {
                id: 3,
                envelope: envelope(),
            },
            Request::Claim { worker: worker() },
            Request::Heartbeat {
                worker: worker(),
                id: 3,
            },
            Request::Deliver {
                worker: worker(),
                id: 3,
                envelope: envelope(),
            },
            Request::DiscardDuplicate {
                worker: worker(),
                id: 3,
            },
            Request::RecordConflict {
                worker: worker(),
                id: 3,
                envelope: envelope(),
            },
            Request::Fetch { id: 3 },
            Request::Requeue { base_timeout_ms: 0 },
            Request::Stop,
            Request::Stopped,
            Request::Conflicts,
            Request::Counters,
        ]
        .iter()
        .map(|request| serde_json::to_string(request).unwrap())
        .collect()
    }

    #[test]
    fn mutated_request_frames_fail_closed() {
        use crate::fuzz::{check_fail_closed, mutants, with_value, Mutant, Vocabulary};
        // The store holds one job; no mutated frame may touch it.
        let store = Arc::new(MemTransport::default());
        store.publish(7, "the-job").unwrap();
        let server = serve(&store);
        let huge: &[&str] = &[
            "18446744073709551616",
            "99999999999999999999999999",
            "-1",
            "1e30",
            "2.5",
        ];
        // A worker name whose escape names no character: a decoder that
        // accepted it would hand the job to that claim.
        let lone_surrogates: &[&str] = &[r#""\ud800\u0041""#, r#""\udc00""#];
        let vocab = Vocabulary {
            bad_tags: &["", "CLAIM", "claim ", "claims", "forget", "steal", "7"],
            bad_values: &[
                ("id", huge),
                ("base_timeout_ms", huge),
                ("worker", lone_surrogates),
            ],
        };
        let claim = r#"{"op":"claim","worker":"w-1"}"#;
        let mut cases: Vec<Mutant> = lone_surrogates
            .iter()
            .map(|raw| Mutant::whole(with_value(claim, "worker", raw).into_bytes()))
            .collect();
        cases.extend(mutants(0xAFF1_DA71, 120, &valid_frames(), &vocab));
        // Reading the answer times out after the listener's own stall
        // bound: an answer must come (or the connection close) first.
        check_fail_closed(
            &server.local_addr().to_string(),
            &FrameConfig::default(),
            &cases,
            |text| matches!(serde_json::from_str(text), Ok(Response::Error { .. })),
        )
        .unwrap();
        // Nothing was claimed, published, delivered or stopped...
        assert_eq!(store.counters().unwrap(), QueueStats::default());
        assert!(!store.stopped().unwrap());
        assert_eq!(store.fetch(3).unwrap(), None);
        // ...and the listener still answers a valid claim.
        let claimed = TcpClient::new(server.local_addr().to_string())
            .claim("w")
            .unwrap();
        assert_eq!(
            claimed,
            Some(Claimed {
                id: 7,
                envelope: "the-job".to_owned()
            })
        );
    }
}
