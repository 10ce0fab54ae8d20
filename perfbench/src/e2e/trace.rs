//! Fold drained obs span events into per-span-name busy and self times.
//!
//! Obs nests spans per thread: a span's parent is the innermost span open
//! on the same thread. So spans that run on pool worker threads arrive
//! parentless. They count as busy time of their own name and are not
//! subtracted from the span that fanned them out.

use std::collections::{BTreeMap, HashMap};

use affidavit_obs::{Event, KIND_BEGIN, KIND_END};
use serde::{Deserialize, Serialize};

/// Prefix of the spans the benchmark opens around each call it makes
/// into the program. They are opened on the driving thread only, never
/// inside one another, so they are its top-level spans.
const BENCH_PREFIX: &str = "bench.";

/// Totals of every closed span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NameTotals {
    pub calls: u64,
    /// Wall time of the spans, not counting a span nested in another span
    /// of the same name twice.
    pub busy_us: u64,
    /// Wall time of the spans minus the part their same-thread children
    /// cover.
    pub self_us: u64,
}

/// Running totals over any number of drained event batches.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    pub by_name: BTreeMap<String, NameTotals>,
    pub events: u64,
    pub dropped: u64,
    /// Spans begun but not ended within their batch. The benchmark drains
    /// only while no span is open, so this stays 0 unless it is misused.
    pub unclosed: u64,
    /// Wall time covered by the benchmark's own top-level spans.
    pub bench_us: u64,
}

#[derive(Debug)]
struct Closed<'a> {
    name: &'a str,
    parent: Option<u64>,
    thread: u64,
    start: u64,
    end: u64,
}

impl Fold {
    /// Fold one batch from [`affidavit_obs::drain`]: `events` and the count
    /// of events dropped at the recorder cap.
    pub fn add(&mut self, events: &[Event], dropped: u64) {
        self.events += events.len() as u64;
        self.dropped += dropped;
        let mut open: HashMap<u64, &Event> = HashMap::new();
        let mut spans: HashMap<u64, Closed<'_>> = HashMap::new();
        for event in events {
            match event.kind.as_str() {
                KIND_BEGIN => {
                    open.insert(event.span, event);
                }
                KIND_END => {
                    if let Some(begin) = open.remove(&event.span) {
                        let elapsed = event.elapsed_micros.unwrap_or(0);
                        spans.insert(
                            event.span,
                            Closed {
                                name: &begin.name,
                                parent: begin.parent,
                                thread: begin.thread,
                                start: begin.ts_micros,
                                end: begin.ts_micros + elapsed,
                            },
                        );
                    }
                }
                _ => {}
            }
        }
        self.unclosed += open.len() as u64;

        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in spans.values() {
            if let Some(parent) = span.parent.and_then(|p| spans.get(&p).map(|s| (p, s))) {
                if parent.1.thread == span.thread {
                    children
                        .entry(parent.0)
                        .or_default()
                        .push((span.start, span.end));
                }
            }
        }
        for (id, span) in &spans {
            let duration = span.end - span.start;
            let covered = children
                .get_mut(id)
                .map_or(0, |c| union_len(c, span.start, span.end));
            let nested_in_same_name = {
                let mut up = span.parent;
                let mut found = false;
                while let Some(p) = up.and_then(|p| spans.get(&p)) {
                    if p.name == span.name {
                        found = true;
                        break;
                    }
                    up = p.parent;
                }
                found
            };
            let totals = self.by_name.entry(span.name.to_owned()).or_default();
            totals.calls += 1;
            totals.self_us += duration - covered;
            if !nested_in_same_name {
                totals.busy_us += duration;
            }
            if span.parent.is_none() && span.name.starts_with(BENCH_PREFIX) {
                self.bench_us += duration;
            }
        }
    }

    /// Totals of one span name (zero if it never ran).
    #[cfg(test)]
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(span: u64, name: &str, parent: Option<u64>, thread: u64, ts: u64) -> Event {
        Event {
            seq: 0,
            ts_micros: ts,
            kind: KIND_BEGIN.to_owned(),
            name: name.to_owned(),
            span,
            parent,
            thread,
            elapsed_micros: None,
            fields: Vec::new(),
        }
    }

    fn end(span: u64, name: &str, thread: u64, elapsed: u64) -> Event {
        Event {
            kind: KIND_END.to_owned(),
            elapsed_micros: Some(elapsed),
            ..begin(span, name, None, thread, 0)
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        // Thread 1: bench.explain [0, 100) ⊃ search.explain [10, 90)
        //   ⊃ search.expand [20, 40) and [50, 70), the second with an
        //   induce.candidates child [55, 60).
        // Thread 2 (a pool worker): a parentless blocking.refine [25, 65).
        let events = vec![
            begin(1, "bench.explain", None, 1, 0),
            begin(2, "search.explain", Some(1), 1, 10),
            begin(3, "search.expand", Some(2), 1, 20),
            begin(9, "blocking.refine", None, 2, 25),
            end(3, "search.expand", 1, 20),
            begin(4, "search.expand", Some(2), 1, 50),
            begin(5, "induce.candidates", Some(4), 1, 55),
            end(5, "induce.candidates", 1, 5),
            end(9, "blocking.refine", 2, 40),
            end(4, "search.expand", 1, 20),
            end(2, "search.explain", 1, 80),
            end(1, "bench.explain", 1, 100),
        ];
        let mut fold = Fold::default();
        fold.add(&events, 0);
        let get = |n: &str| fold.get(n);
        assert_eq!(
            get("bench.explain"),
            NameTotals {
                calls: 1,
                busy_us: 100,
                self_us: 20
            }
        );
        // 80 minus the two expansions (40); the worker's refine is not
        // subtracted.
        assert_eq!(
            get("search.explain"),
            NameTotals {
                calls: 1,
                busy_us: 80,
                self_us: 40
            }
        );
        assert_eq!(
            get("search.expand"),
            NameTotals {
                calls: 2,
                busy_us: 40,
                self_us: 35
            }
        );
        assert_eq!(
            get("blocking.refine"),
            NameTotals {
                calls: 1,
                busy_us: 40,
                self_us: 40
            }
        );
        assert_eq!(fold.bench_us, 100);
        assert_eq!((fold.events, fold.unclosed), (12, 0));
    }

    #[test]
    fn same_name_nesting_counts_busy_time_once() {
        let events = vec![
            begin(1, "apply.transform", None, 1, 0),
            begin(2, "apply.transform", Some(1), 1, 2),
            end(2, "apply.transform", 1, 3),
            end(1, "apply.transform", 1, 10),
        ];
        let mut fold = Fold::default();
        fold.add(&events, 0);
        assert_eq!(
            fold.get("apply.transform"),
            NameTotals {
                calls: 2,
                busy_us: 10,
                self_us: 10
            }
        );
        assert_eq!(fold.bench_us, 0);
    }

    #[test]
    fn open_spans_and_drops_are_counted() {
        let events = vec![begin(1, "search.explain", None, 1, 0)];
        let mut fold = Fold::default();
        fold.add(&events, 3);
        fold.add(&[], 2);
        assert_eq!((fold.unclosed, fold.dropped, fold.events), (1, 5, 1));
        assert_eq!(fold.get("search.explain"), NameTotals::default());
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 20), (30, 40)];
        assert_eq!(union_len(&mut v, 2, 35), 1 + 15 + 5);
    }

    #[test]
    fn folds_real_obs_events() {
        affidavit_obs::set_enabled(true);
        affidavit_obs::drain();
        {
            let _outer = affidavit_obs::span("bench.unit");
            let _inner = affidavit_obs::span("unit.inner");
        }
        let (events, dropped) = affidavit_obs::drain();
        affidavit_obs::set_enabled(false);
        let mut fold = Fold::default();
        fold.add(&events, dropped);
        assert_eq!(fold.get("bench.unit").calls, 1);
        assert_eq!(fold.get("unit.inner").calls, 1);
        assert_eq!(fold.unclosed, 0);
    }
}
