//! The client half: one persistent framed connection to a daemon.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use crate::frame::{
    configure_stream, read_frame, write_frame, FrameConfig, FrameRead, MAX_FRAME_BYTES,
};
use crate::protocol::{ClientRequest, ClientResponse, ExplainSpec, ReportReply, ServeStats};

/// Exit code of a command whose daemon could not be reached
/// ([`ClientError::Lost`]). It is distinct from `1`, the usage and
/// fatal-error code, so scripts can tell "start the daemon and retry"
/// from "the request is wrong".
pub const LOST_EXIT_CODE: u8 = 3;

/// Why a client operation failed — the split the CLI's exit codes are
/// built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The daemon could not be reached, or the connection died and a
    /// fresh dial failed too (CLI exit code [`LOST_EXIT_CODE`]).
    Lost(String),
    /// The daemon answered, rejecting the request.
    Rejected(String),
    /// The daemon answered with a frame this client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Lost(m) => write!(f, "server unreachable: {m}"),
            ClientError::Rejected(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

/// A handle on a serve daemon: one keep-alive framed connection, every
/// operation a request/response exchange over it. A failure on the
/// kept-alive socket drops it and retries the operation once on a fresh
/// dial (the daemon may have restarted); a fresh-dial failure is
/// [`ClientError::Lost`]. Retries are safe: every client-API operation
/// is a read or an idempotent request. Clones share the connection.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    cfg: FrameConfig,
    conn: Arc<Mutex<Option<TcpStream>>>,
}

impl ServeClient {
    /// A client for the daemon at `addr` (`HOST:PORT`). Dials lazily:
    /// the first operation establishes the keep-alive connection.
    pub fn new(addr: impl Into<String>) -> ServeClient {
        ServeClient {
            addr: addr.into(),
            cfg: FrameConfig::default(),
            conn: Arc::new(Mutex::new(None)),
        }
    }

    /// The daemon address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One round trip: is the daemon reachable and answering?
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.call(&ClientRequest::Ping)? {
            ClientResponse::Pong => Ok(()),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Explain one snapshot pair on the daemon.
    pub fn explain(&self, spec: &ExplainSpec) -> Result<ReportReply, ClientError> {
        match self.call(&ClientRequest::Explain { spec: spec.clone() })? {
            ClientResponse::Report { reply } => Ok(reply),
            other => Err(unexpected("explain", &other)),
        }
    }

    /// Ingest and pin one snapshot pair on the daemon without running a
    /// search. Returns true when the pair was already pinned.
    pub fn pin(&self, spec: &ExplainSpec) -> Result<bool, ClientError> {
        match self.call(&ClientRequest::Pin { spec: spec.clone() })? {
            ClientResponse::Pinned { warm } => Ok(warm),
            other => Err(unexpected("pin", &other)),
        }
    }

    /// Read the daemon's metrics registry as Prometheus-style text.
    pub fn metrics(&self) -> Result<String, ClientError> {
        match self.call(&ClientRequest::Metrics)? {
            ClientResponse::MetricsReport { text } => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Read the daemon's counters.
    pub fn stats(&self) -> Result<ServeStats, ClientError> {
        match self.call(&ClientRequest::Stats)? {
            ClientResponse::StatsReport { stats } => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Ask the daemon to shut down; returns once it acknowledged.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.call(&ClientRequest::Shutdown)? {
            ClientResponse::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// One exchange over the persistent connection, with stale
    /// keep-alive recovery: a failure on the cached socket drops it and
    /// retries once on a fresh dial; fresh-dial failures are
    /// [`ClientError::Lost`].
    fn call(&self, request: &ClientRequest) -> Result<ClientResponse, ClientError> {
        let encoded = serde_json::to_string(request).expect("requests are serializable");
        let mut conn = self
            .conn
            .lock()
            .map_err(|_| ClientError::Protocol("client connection poisoned".to_owned()))?;
        if let Some(stream) = conn.as_mut() {
            match exchange(stream, &encoded, &self.cfg) {
                Ok(response) => return accept(response),
                Err(_) => *conn = None, // stale keep-alive; retry below
            }
        }
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::Lost(format!("connecting to {}: {e}", self.addr)))?;
        configure_stream(&stream, &self.cfg).map_err(ClientError::Lost)?;
        let response = exchange(&mut stream, &encoded, &self.cfg).map_err(ClientError::Lost)?;
        *conn = Some(stream);
        accept(response)
    }
}

fn accept(response: ClientResponse) -> Result<ClientResponse, ClientError> {
    match response {
        ClientResponse::Error { message } => Err(ClientError::Rejected(message)),
        response => Ok(response),
    }
}

fn unexpected(op: &str, response: &ClientResponse) -> ClientError {
    ClientError::Protocol(format!("unexpected {op} response {response:?}"))
}

/// One framed request/response on an established connection. Replies
/// are read under [`MAX_FRAME_BYTES`], the wide bound: they carry whole
/// reports. A client awaiting its response treats an idle stall window
/// as an error — only servers park on idle.
fn exchange(
    stream: &mut TcpStream,
    encoded: &str,
    cfg: &FrameConfig,
) -> Result<ClientResponse, String> {
    write_frame(stream, encoded, cfg)?;
    match read_frame(stream, cfg, MAX_FRAME_BYTES)? {
        FrameRead::Frame(text) => {
            serde_json::from_str::<ClientResponse>(&text).map_err(|e| e.to_string())
        }
        FrameRead::Closed => Err("server closed the connection mid-exchange".to_owned()),
        FrameRead::Idle => Err(format!(
            "server sent no response within {:?}",
            cfg.stall_timeout
        )),
    }
}
