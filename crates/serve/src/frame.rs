//! Length-prefixed frame codec of the client API.
//!
//! One frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 (the JSON request/response enums of [`crate::protocol`]).
//! Oversized or malformed frames fail the exchange, never the process.
//!
//! # Read bounds
//!
//! The reader passes [`read_frame`] the largest frame it will accept, and
//! a header announcing more fails before one body byte is read. The
//! daemon reads requests under
//! [`MAX_REQUEST_BYTES`](crate::protocol::MAX_REQUEST_BYTES) (a request
//! is paths plus a configuration); the client reads replies, which carry
//! whole rendered reports, under the wider [`MAX_FRAME_BYTES`].
//!
//! # Progress-based timeouts
//!
//! A reply may legitimately be large (a report over a wide, heavily
//! edited table), so a fixed whole-frame deadline would misclassify a
//! slow-but-progressing peer as dead. Instead, both loops here are
//! **progress-based**: the stall clock ([`FrameConfig::stall_timeout`])
//! applies to each chunk of bytes individually and is reset by any chunk
//! that advances, so a throttled peer moving 1 byte per second finishes
//! its frame eventually, while a peer that stops moving for a whole stall
//! window is reported dead. `read_frame` additionally distinguishes a
//! peer that stalls *between* frames ([`FrameRead::Idle`] — a parked
//! keep-alive connection, not an error) from one that stalls *inside* a
//! frame (an error).
//!
//! # Listener
//!
//! The daemon accepts with [`spawn_accept_loop`]: one thread per
//! keep-alive connection, tracked in a [`ConnRegistry`] so that shutting
//! the listener down severs parked peers instead of leaving their threads
//! answering for a listener that no longer exists.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on any frame written, and on a reply the client reads.
/// Replies carry whole rendered reports, so this is generous; anything
/// larger is a protocol error, not a payload.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Frame I/O tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// How long a transfer may go without moving a single byte before
    /// the peer is considered dead. This is *not* a whole-frame deadline:
    /// every chunk that advances resets the clock.
    pub stall_timeout: Duration,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            stall_timeout: Duration::from_secs(60),
        }
    }
}

/// What [`read_frame`] found on the wire.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame.
    Frame(String),
    /// The peer closed the connection cleanly before sending a length.
    Closed,
    /// No byte of a new frame arrived within one stall window. The
    /// connection is still healthy — keep-alive servers park here and
    /// poll again; clients awaiting a response treat it as an error.
    Idle,
}

/// Apply the per-chunk timeouts to a stream (both directions).
pub fn configure_stream(stream: &TcpStream, cfg: &FrameConfig) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    // An accepted socket must not inherit a listener's nonblocking mode
    // (platform-dependent); force blocking with per-chunk timeouts.
    let _ = stream.set_nonblocking(false);
    stream
        .set_read_timeout(Some(cfg.stall_timeout))
        .and_then(|()| stream.set_write_timeout(Some(cfg.stall_timeout)))
        .map_err(|e| format!("socket timeouts: {e}"))
}

fn is_stall(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Write chunks of at most this size so a congested peer that keeps
/// draining *something* counts as progress on every loop turn.
const CHUNK_BYTES: usize = 64 * 1024;

/// Write one frame. Each chunk gets a fresh stall window; only a peer
/// that accepts nothing for a whole window fails the write.
pub fn write_frame(stream: &mut TcpStream, text: &str, cfg: &FrameConfig) -> Result<(), String> {
    let bytes = text.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(format!("frame of {} bytes exceeds the limit", bytes.len()));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    write_progress(stream, &len, cfg)?;
    write_progress(stream, bytes, cfg)?;
    stream.flush().map_err(|e| format!("tcp write: {e}"))
}

fn write_progress(
    stream: &mut TcpStream,
    mut bytes: &[u8],
    cfg: &FrameConfig,
) -> Result<(), String> {
    while !bytes.is_empty() {
        let take = bytes.len().min(CHUNK_BYTES);
        match stream.write(&bytes[..take]) {
            Ok(0) => return Err("tcp write: peer closed the connection".to_owned()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_stall(&e) => {
                return Err(format!(
                    "tcp write stalled: no bytes accepted for {:?}",
                    cfg.stall_timeout
                ))
            }
            Err(e) => return Err(format!("tcp write: {e}")),
        }
    }
    Ok(())
}

/// Read one frame of at most `max_bytes` (see [`FrameRead`] for the
/// three outcomes). A header announcing more is an error before any of
/// the body is read.
pub fn read_frame(
    stream: &mut TcpStream,
    cfg: &FrameConfig,
    max_bytes: u32,
) -> Result<FrameRead, String> {
    let mut len = [0u8; 4];
    match read_progress(stream, &mut len) {
        Ok(()) => {}
        Err(ReadEnd::Closed { got: 0 }) => return Ok(FrameRead::Closed),
        Err(ReadEnd::Stalled { got: 0 }) => return Ok(FrameRead::Idle),
        Err(end) => return Err(end.message(cfg)),
    }
    let len = u32::from_be_bytes(len);
    if len > max_bytes {
        return Err(format!(
            "incoming frame of {len} bytes exceeds the limit of {max_bytes}"
        ));
    }
    // Grow the buffer as bytes actually arrive instead of trusting the
    // untrusted header with one up-front allocation — a peer announcing
    // a huge frame and then stalling costs one stall window, not RAM.
    let mut bytes = Vec::with_capacity((len as usize).min(1 << 20));
    let mut chunk = [0u8; CHUNK_BYTES];
    let mut remaining = len as usize;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        read_progress(stream, &mut chunk[..take]).map_err(|end| end.message(cfg))?;
        bytes.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    String::from_utf8(bytes)
        .map(FrameRead::Frame)
        .map_err(|_| "frame is not valid UTF-8".to_owned())
}

/// Why [`read_progress`] stopped short, and how far it got — a stall or
/// close with partial bytes is always mid-frame and therefore fatal.
enum ReadEnd {
    Closed { got: usize },
    Stalled { got: usize },
    Failed(std::io::Error),
}

impl ReadEnd {
    fn message(self, cfg: &FrameConfig) -> String {
        match self {
            ReadEnd::Closed { .. } => "tcp read: peer closed the connection mid-frame".to_owned(),
            ReadEnd::Stalled { .. } => format!(
                "tcp read stalled: no bytes arrived for {:?} mid-frame",
                cfg.stall_timeout
            ),
            ReadEnd::Failed(e) => format!("tcp read: {e}"),
        }
    }
}

/// Fill `buf`, giving every chunk that arrives a fresh stall window.
fn read_progress(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ReadEnd> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(ReadEnd::Closed { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_stall(&e) => return Err(ReadEnd::Stalled { got }),
            Err(e) => return Err(ReadEnd::Failed(e)),
        }
    }
    Ok(())
}

/// The live connections of one listener, plus its closing flag. A
/// connection occupies a slot from accept until its serving thread ends
/// (the [`ConnSlot`] guard frees it, on a panic too), so the registry
/// holds only live peers however many clients a long-lived listener has
/// served.
#[derive(Debug, Default)]
pub struct ConnRegistry {
    live: Mutex<BTreeMap<u64, TcpStream>>,
    accepted: AtomicU64,
    closed: AtomicBool,
}

/// A registered connection's slot; dropping it frees the slot.
#[derive(Debug)]
pub struct ConnSlot {
    registry: Arc<ConnRegistry>,
    id: u64,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.id);
    }
}

impl ConnRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        // The map holds plain socket handles: a panicking holder cannot
        // leave it half-updated, so a poisoned lock is still usable.
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Track `stream` until the returned slot is dropped. A connection
    /// accepted after [`ConnRegistry::close`] is severed at once.
    pub fn register(self: &Arc<Self>, stream: &TcpStream) -> ConnSlot {
        let id = self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = stream.try_clone() {
            self.lock().insert(id, handle);
        }
        if self.is_closed() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        ConnSlot {
            registry: Arc::clone(self),
            id,
        }
    }

    /// Stop the accept loop and sever every live connection.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        for stream in self.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Whether [`ConnRegistry::close`] has been called. Serving threads
    /// check it when their peer idles, as a backstop for a connection
    /// whose handle could not be registered.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Connections currently registered.
    pub fn live(&self) -> usize {
        self.lock().len()
    }

    /// Connections accepted over the registry's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }
}

/// Accept connections on `listener` until `conns` is closed, running
/// `serve` for each on its own thread with the connection registered for
/// the thread's lifetime.
pub fn spawn_accept_loop(
    listener: TcpListener,
    conns: Arc<ConnRegistry>,
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) -> Result<JoinHandle<()>, String> {
    // Nonblocking so the loop notices `close` without a final dial.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    let serve = Arc::new(serve);
    Ok(std::thread::spawn(move || {
        while !conns.is_closed() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let slot = conns.register(&stream);
                    let serve = Arc::clone(&serve);
                    std::thread::spawn(move || {
                        let _slot = slot;
                        serve(stream);
                    });
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frames_round_trip() {
        let cfg = FrameConfig::default();
        let (mut tx, mut rx) = pair();
        configure_stream(&tx, &cfg).unwrap();
        configure_stream(&rx, &cfg).unwrap();
        write_frame(&mut tx, "hello", &cfg).unwrap();
        write_frame(&mut tx, "", &cfg).unwrap();
        match read_frame(&mut rx, &cfg, MAX_FRAME_BYTES).unwrap() {
            FrameRead::Frame(text) => assert_eq!(text, "hello"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut rx, &cfg, MAX_FRAME_BYTES).unwrap() {
            FrameRead::Frame(text) => assert_eq!(text, ""),
            other => panic!("expected empty frame, got {other:?}"),
        }
        drop(tx);
        assert!(matches!(
            read_frame(&mut rx, &cfg, MAX_FRAME_BYTES).unwrap(),
            FrameRead::Closed
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let cfg = FrameConfig::default();
        let (mut tx, mut rx) = pair();
        configure_stream(&rx, &cfg).unwrap();
        // A hand-rolled header announcing 2 GiB: the reader must refuse
        // before buffering anything.
        tx.write_all(&(2u32 << 30).to_be_bytes()).unwrap();
        assert!(read_frame(&mut rx, &cfg, MAX_FRAME_BYTES)
            .unwrap_err()
            .contains("exceeds the limit"));
        // The caller's bound is what counts: one byte over it fails just
        // the same, and a frame at the bound is read whole.
        let (mut tx, mut rx) = pair();
        configure_stream(&rx, &cfg).unwrap();
        tx.write_all(&17u32.to_be_bytes()).unwrap();
        assert!(read_frame(&mut rx, &cfg, 16)
            .unwrap_err()
            .contains("exceeds the limit of 16"));
        let (mut tx, mut rx) = pair();
        configure_stream(&rx, &cfg).unwrap();
        write_frame(&mut tx, "sixteen bytes!!!", &cfg).unwrap();
        assert!(matches!(
            read_frame(&mut rx, &cfg, 16).unwrap(),
            FrameRead::Frame(text) if text.len() == 16
        ));
    }

    #[test]
    fn throttled_peer_finishes_a_frame_far_slower_than_the_stall_window() {
        // Regression: the whole transfer takes many multiples
        // of the stall timeout, but every chunk advances, so the
        // progress-based clock never fires. A fixed whole-frame deadline
        // would fail this and drop a peer that is still sending.
        let cfg = FrameConfig {
            stall_timeout: Duration::from_millis(80),
        };
        let (mut tx, mut rx) = pair();
        configure_stream(&tx, &cfg).unwrap();
        configure_stream(&rx, &cfg).unwrap();
        let payload = "x".repeat(4096);
        let reader = std::thread::spawn({
            let expect = payload.clone();
            move || match read_frame(&mut rx, &cfg, MAX_FRAME_BYTES).unwrap() {
                FrameRead::Frame(text) => assert_eq!(text, expect),
                other => panic!("expected frame, got {other:?}"),
            }
        });
        // Trickle the frame by hand: header, then 16 slices of the body
        // with inter-chunk delays summing to ~4× the stall window.
        let bytes = payload.as_bytes();
        tx.write_all(&(bytes.len() as u32).to_be_bytes()).unwrap();
        for slice in bytes.chunks(bytes.len() / 16) {
            std::thread::sleep(Duration::from_millis(20));
            tx.write_all(slice).unwrap();
        }
        tx.flush().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn stalled_peer_mid_frame_is_an_error_and_idle_between_frames_is_not() {
        let cfg = FrameConfig {
            stall_timeout: Duration::from_millis(60),
        };
        let (mut tx, mut rx) = pair();
        configure_stream(&rx, &cfg).unwrap();
        // No bytes at all: idle, not an error (keep-alive parking).
        assert!(matches!(
            read_frame(&mut rx, &cfg, MAX_FRAME_BYTES).unwrap(),
            FrameRead::Idle
        ));
        // Half a header then silence: a mid-frame stall is fatal.
        tx.write_all(&[0, 0]).unwrap();
        tx.flush().unwrap();
        assert!(read_frame(&mut rx, &cfg, MAX_FRAME_BYTES)
            .unwrap_err()
            .contains("stalled"));
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_registry_frees_closed_connections_and_close_severs_live_ones() {
        let cfg = FrameConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conns = Arc::new(ConnRegistry::default());
        // An echo server that parks between frames like the real ones.
        let accept = spawn_accept_loop(listener, Arc::clone(&conns), move |mut stream| {
            if configure_stream(&stream, &cfg).is_err() {
                return;
            }
            loop {
                match read_frame(&mut stream, &cfg, MAX_FRAME_BYTES) {
                    Ok(FrameRead::Frame(text)) => {
                        if write_frame(&mut stream, &text, &cfg).is_err() {
                            return;
                        }
                    }
                    Ok(FrameRead::Idle) => {}
                    Ok(FrameRead::Closed) | Err(_) => return,
                }
            }
        })
        .unwrap();
        // Many short-lived clients leave nothing behind.
        for i in 0..40 {
            let mut peer = TcpStream::connect(addr).unwrap();
            configure_stream(&peer, &cfg).unwrap();
            write_frame(&mut peer, &format!("hello {i}"), &cfg).unwrap();
            assert!(matches!(
                read_frame(&mut peer, &cfg, MAX_FRAME_BYTES).unwrap(),
                FrameRead::Frame(_)
            ));
        }
        wait_until("closed connections are freed", || conns.live() == 0);
        assert_eq!(conns.accepted(), 40);
        // Live peers are severed by close, and the accept loop ends.
        let mut peers: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        wait_until("live peers are registered", || conns.live() == 2);
        conns.close();
        accept.join().unwrap();
        for peer in &mut peers {
            configure_stream(peer, &cfg).unwrap();
            assert!(!matches!(
                read_frame(peer, &cfg, MAX_FRAME_BYTES),
                Ok(FrameRead::Frame(_))
            ));
        }
        wait_until("severed connections are freed", || conns.live() == 0);
    }
}
