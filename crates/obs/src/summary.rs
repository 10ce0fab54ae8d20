//! The human phase-profile summary (`--obs-summary`).
//!
//! Rolls a drained event stream up into one row per phase name: call
//! count, busy time (sum of span elapsed ≈ CPU across threads), wall
//! time (last end minus first begin, so overlapping parallel spans
//! count once) and the longest single span. Timing varies run to run by
//! nature; the *shape* of the table (phases present, call counts) is
//! deterministic.

use std::collections::BTreeMap;

use crate::event::{Event, KIND_BEGIN, KIND_END};

#[derive(Debug, Default, Clone, Copy)]
struct PhaseRollup {
    calls: u64,
    busy_micros: u64,
    max_micros: u64,
    first_begin: Option<u64>,
    last_end: Option<u64>,
}

/// Render the per-phase rollup table for a drained event stream.
/// Returns an empty string when there is nothing to report.
pub fn render_phase_summary(events: &[Event], dropped: u64) -> String {
    let mut phases: BTreeMap<&str, PhaseRollup> = BTreeMap::new();
    for event in events {
        let rollup = phases.entry(event.name.as_str()).or_default();
        match event.kind.as_str() {
            KIND_BEGIN => {
                let first = rollup.first_begin.get_or_insert(event.ts_micros);
                *first = (*first).min(event.ts_micros);
            }
            KIND_END => {
                rollup.calls += 1;
                let elapsed = event.elapsed_micros.unwrap_or(0);
                rollup.busy_micros += elapsed;
                rollup.max_micros = rollup.max_micros.max(elapsed);
                let last = rollup.last_end.get_or_insert(event.ts_micros);
                *last = (*last).max(event.ts_micros);
            }
            _ => rollup.calls += 1, // points count as calls, no timing
        }
    }
    if phases.is_empty() {
        return String::new();
    }
    let name_width = phases
        .keys()
        .map(|n| n.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
        "phase", "calls", "busy_ms", "wall_ms", "max_ms"
    ));
    for (name, rollup) in &phases {
        let wall = match (rollup.first_begin, rollup.last_end) {
            (Some(b), Some(e)) => e.saturating_sub(b),
            _ => 0,
        };
        out.push_str(&format!(
            "{:<name_width$}  {:>8}  {:>12.3}  {:>12.3}  {:>12.3}\n",
            name,
            rollup.calls,
            rollup.busy_micros as f64 / 1000.0,
            wall as f64 / 1000.0,
            rollup.max_micros as f64 / 1000.0,
        ));
    }
    if dropped > 0 {
        out.push_str(&format!("({dropped} events dropped at the buffer cap)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KIND_POINT;

    fn event(kind: &str, name: &str, ts: u64, elapsed: Option<u64>) -> Event {
        Event {
            seq: ts,
            ts_micros: ts,
            kind: kind.to_owned(),
            name: name.to_owned(),
            span: 1,
            parent: None,
            thread: 1,
            elapsed_micros: elapsed,
            fields: Vec::new(),
        }
    }

    #[test]
    fn rollup_sums_busy_and_spreads_wall() {
        let events = vec![
            event(KIND_BEGIN, "search.expand", 100, None),
            event(KIND_END, "search.expand", 600, Some(500)),
            event(KIND_BEGIN, "search.expand", 200, None),
            event(KIND_END, "search.expand", 900, Some(700)),
            event(KIND_POINT, "serve.session", 300, None),
        ];
        let table = render_phase_summary(&events, 0);
        let expand = table
            .lines()
            .find(|l| l.starts_with("search.expand"))
            .unwrap();
        // 2 calls, busy = 1.2ms (sum), wall = 0.8ms (900-100), max 0.7ms.
        assert!(expand.contains('2'), "{expand}");
        assert!(expand.contains("1.200"), "{expand}");
        assert!(expand.contains("0.800"), "{expand}");
        assert!(expand.contains("0.700"), "{expand}");
        assert!(table.contains("serve.session"));
        assert!(!table.contains("dropped"));
    }

    #[test]
    fn empty_streams_render_nothing_and_drops_are_reported() {
        assert_eq!(render_phase_summary(&[], 0), "");
        let events = vec![
            event(KIND_BEGIN, "x", 0, None),
            event(KIND_END, "x", 1, Some(1)),
        ];
        assert!(render_phase_summary(&events, 9).contains("9 events dropped"));
    }
}
