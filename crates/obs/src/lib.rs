//! Unified tracing, metrics and phase-profiling for the affidavit engine.
//!
//! Every subsystem — ingestion, blocking, the best-first search, the
//! resident service — reports into this one
//! crate through three primitives:
//!
//! * **Spans** ([`span`]): scoped wall-clock guards with parent/child
//!   nesting (per thread), monotonic timestamps and stable thread ids.
//!   Recording is off by default; [`set_enabled`] (or the
//!   `AFFIDAVIT_OBS` environment variable) turns it on. A disabled span
//!   is one relaxed atomic load — cheap enough to leave on hot paths.
//! * **Metrics** ([`metrics()`]): a process-wide registry of named
//!   counters, gauges and summary histograms. Always on (writes happen
//!   at phase boundaries, not per record); the registry is the single
//!   facade over the engine's counter structs (`SearchStats`,
//!   `DeltaStats`, `SessionCounters`).
//! * **Sinks**: drained span [`Event`]s encode to NDJSON
//!   ([`Event::to_ndjson`], [`ObsOut`]), roll up into a per-phase
//!   profile table ([`summary::render_phase_summary`]), and the
//!   registry renders Prometheus-style text
//!   ([`Metrics::render_prometheus`]). Structured stderr diagnostics go
//!   through [`diag()`], which prints human text or NDJSON depending on
//!   the process-wide [`DiagFormat`].
//!
//! **Determinism invariant (load-bearing):** observability is a pure
//! side channel. Nothing in the engine ever *reads* a span, an event or
//! a metric to make a decision, so every output byte the engine
//! produces is identical with recording on or off — enforced by the
//! `properties_obs` differential battery at the workspace root.
//!
//! ```
//! affidavit_obs::set_enabled(true);
//! {
//!     let _outer = affidavit_obs::span("phase.outer");
//!     let _inner = affidavit_obs::span("phase.inner");
//! }
//! let (events, dropped) = affidavit_obs::drain();
//! assert_eq!(dropped, 0);
//! assert_eq!(events.len(), 4); // begin/end × outer/inner
//! assert!(events.iter().all(|e| e.to_ndjson().starts_with('{')));
//! affidavit_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod event;
pub mod metrics;
pub mod summary;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use diag::{diag, set_diag_format, DiagFormat};
pub use event::{Event, ObsOut, SinkError, KIND_BEGIN, KIND_END, KIND_POINT};
pub use metrics::{metrics, MetricValue, Metrics};

/// Hard cap on buffered events: recording is bounded by construction, so
/// a long-running process (or a battery run with `AFFIDAVIT_OBS=1`) can
/// never grow the side channel without limit. Overflow drops the newest
/// events and counts them (see [`drain`]).
pub const EVENT_CAP: usize = 1 << 18;

/// 0 = undecided (consult `AFFIDAVIT_OBS` on first use), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct Recorder {
    events: Vec<Event>,
    dropped: u64,
    next_seq: u64,
    next_span: u64,
}

static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    events: Vec::new(),
    dropped: 0,
    next_seq: 0,
    next_span: 1,
});

/// The process epoch all event timestamps are measured from. Sequenced
/// under the recorder lock, so `ts_micros` is monotone in `seq` order.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Stable per-thread id (assignment order, starting at 1) plus the
    /// stack of open span ids — the parent of a new span is the top.
    static THREAD_CTX: RefCell<(u64, Vec<u64>)> =
        RefCell::new((NEXT_THREAD.fetch_add(1, Ordering::Relaxed), Vec::new()));
}

/// Is span recording on? Undecided state resolves from the
/// `AFFIDAVIT_OBS` environment variable (any non-empty value other than
/// `"0"` enables), so batteries run with `AFFIDAVIT_OBS=1` record
/// without code changes.
fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = std::env::var("AFFIDAVIT_OBS")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// The `AFFIDAVIT_OBS` value, when it names a sink rather than a bare
/// switch: `-` (stderr) or a file path. `1`/`true`/empty/unset are
/// switches only.
pub fn env_sink() -> Option<ObsOut> {
    match std::env::var("AFFIDAVIT_OBS") {
        Ok(v) if !v.is_empty() && v != "0" && v != "1" && v != "true" => Some(ObsOut::parse(&v)),
        _ => None,
    }
}

fn lock_recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

impl Recorder {
    fn push(&mut self, mut event: Event) -> u64 {
        event.seq = self.next_seq;
        self.next_seq += 1;
        event.ts_micros = epoch().elapsed().as_micros() as u64;
        let seq = event.seq;
        if self.events.len() < EVENT_CAP {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
        seq
    }
}

/// A scoped span guard: records a `begin` event now and an `end` event
/// (with the elapsed wall time) when dropped. Guards nest per thread;
/// the innermost open span is the parent of the next one. When
/// recording is disabled this is a no-op shell.
#[derive(Debug)]
pub struct Span {
    token: Option<SpanToken>,
}

#[derive(Debug)]
struct SpanToken {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start: Instant,
}

/// Open a span. Equivalent to [`span_with`] with no fields.
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new())
}

/// Open a span carrying extra key/value fields on its `begin` event.
pub fn span_with(name: &'static str, fields: Vec<(String, String)>) -> Span {
    if !enabled() {
        return Span { token: None };
    }
    let (thread, parent) = THREAD_CTX.with(|ctx| {
        let ctx = ctx.borrow();
        (ctx.0, ctx.1.last().copied())
    });
    let start = Instant::now();
    let (id, _) = {
        let mut rec = lock_recorder();
        let id = rec.next_span;
        rec.next_span += 1;
        let seq = rec.push(Event {
            seq: 0,
            ts_micros: 0,
            kind: KIND_BEGIN.to_owned(),
            name: name.to_owned(),
            span: id,
            parent,
            thread,
            elapsed_micros: None,
            fields,
        });
        (id, seq)
    };
    THREAD_CTX.with(|ctx| ctx.borrow_mut().1.push(id));
    Span {
        token: Some(SpanToken {
            id,
            parent,
            name,
            thread,
            start,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(token) = self.token.take() else {
            return;
        };
        let elapsed = token.start.elapsed().as_micros() as u64;
        THREAD_CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // Guards drop LIFO within a scope, so the top is this span.
            if ctx.1.last() == Some(&token.id) {
                ctx.1.pop();
            } else {
                ctx.1.retain(|&id| id != token.id);
            }
        });
        lock_recorder().push(Event {
            seq: 0,
            ts_micros: 0,
            kind: KIND_END.to_owned(),
            name: token.name.to_owned(),
            span: token.id,
            parent: token.parent,
            thread: token.thread,
            elapsed_micros: Some(elapsed),
            fields: Vec::new(),
        });
    }
}

/// Record an instantaneous point event (no duration), parented under
/// the calling thread's innermost open span.
pub fn point(name: &'static str, fields: Vec<(String, String)>) {
    if !enabled() {
        return;
    }
    let (thread, parent) = THREAD_CTX.with(|ctx| {
        let ctx = ctx.borrow();
        (ctx.0, ctx.1.last().copied())
    });
    let mut rec = lock_recorder();
    let id = rec.next_span;
    rec.next_span += 1;
    rec.push(Event {
        seq: 0,
        ts_micros: 0,
        kind: KIND_POINT.to_owned(),
        name: name.to_owned(),
        span: id,
        parent,
        thread,
        elapsed_micros: None,
        fields,
    });
}

/// Take every buffered event (in `seq` order) plus the count of events
/// dropped at the [`EVENT_CAP`] since the last drain.
pub fn drain() -> (Vec<Event>, u64) {
    let mut rec = lock_recorder();
    let events = std::mem::take(&mut rec.events);
    let dropped = std::mem::take(&mut rec.dropped);
    (events, dropped)
}

/// Buffered events right now (drain pending).
pub fn pending_events() -> usize {
    lock_recorder().events.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate's globals are process-wide; tests in this module take
    /// this lock so they never interleave recording.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_timestamps_are_monotone() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        {
            let _a = span("outer");
            point("tick", vec![("k".to_owned(), "v".to_owned())]);
            let _b = span("inner");
        }
        let (events, dropped) = drain();
        set_enabled(false);
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        // seq and ts both monotone.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].ts_micros <= pair[1].ts_micros);
        }
        let outer_id = events[0].span;
        assert_eq!(events[0].kind, KIND_BEGIN);
        assert_eq!(events[0].parent, None);
        // The point and the inner span are parented under outer.
        assert_eq!(events[1].kind, KIND_POINT);
        assert_eq!(events[1].parent, Some(outer_id));
        assert_eq!(events[2].parent, Some(outer_id));
        // Ends come innermost-first, with elapsed set.
        assert_eq!(events[3].kind, KIND_END);
        assert_eq!(events[3].span, events[2].span);
        assert!(events[3].elapsed_micros.is_some());
        assert_eq!(events[4].span, outer_id);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        drain();
        {
            let _s = span("ghost");
            point("ghost.point", Vec::new());
        }
        let (events, dropped) = drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn threads_get_distinct_ids_and_independent_nesting() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        drain();
        let _root = span("main.root");
        let handle = std::thread::spawn(|| {
            let _w = span("worker.root");
        });
        handle.join().unwrap();
        drop(_root);
        let (events, _) = drain();
        set_enabled(false);
        let main_begin = events.iter().find(|e| e.name == "main.root").unwrap();
        let worker_begin = events.iter().find(|e| e.name == "worker.root").unwrap();
        assert_ne!(main_begin.thread, worker_begin.thread);
        // A fresh thread has no open parent — its root span is parentless.
        assert_eq!(worker_begin.parent, None);
    }
}
