//! Unified stderr diagnostics.
//!
//! Every informational line the engine prints to stderr — delta reuse,
//! distributed-run summaries, serve totals — goes through [`diag`], so
//! one process-wide switch decides the wire format: human text
//! (`event: detail`) or the NDJSON diagnostic object already specified
//! for `affidavit client --format json`
//! (`{"level":"info","event":...,"detail":...}`). Report bytes on
//! stdout are untouched either way.

use std::sync::atomic::{AtomicU8, Ordering};

/// How [`diag`] lines are encoded on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagFormat {
    /// `event: detail` — the engine's historical stderr lines, byte for
    /// byte.
    Human,
    /// One JSON object per line: `{"level":"info","event":...,"detail":...}`.
    Ndjson,
}

static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Choose the process-wide diagnostic format (default [`DiagFormat::Human`]).
pub fn set_diag_format(format: DiagFormat) {
    FORMAT.store(
        match format {
            DiagFormat::Human => 0,
            DiagFormat::Ndjson => 1,
        },
        Ordering::Relaxed,
    );
}

/// The current process-wide diagnostic format.
pub fn diag_format() -> DiagFormat {
    match FORMAT.load(Ordering::Relaxed) {
        1 => DiagFormat::Ndjson,
        _ => DiagFormat::Human,
    }
}

/// Render one diagnostic in the given format (no trailing newline).
pub fn render_diag(format: DiagFormat, event: &str, detail: &str) -> String {
    match format {
        DiagFormat::Human => format!("{event}: {detail}"),
        DiagFormat::Ndjson => format!(
            "{{\"level\":\"info\",\"event\":{},\"detail\":{}}}",
            json_string(event),
            json_string(detail)
        ),
    }
}

/// Print one informational diagnostic line to stderr in the
/// process-wide format.
pub fn diag(event: &str, detail: &str) {
    eprintln!("{}", render_diag(diag_format(), event, detail));
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&text).expect("strings are serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_lines_are_event_colon_detail() {
        assert_eq!(
            render_diag(DiagFormat::Human, "delta", "3/4 blocks reused, 1 redone"),
            "delta: 3/4 blocks reused, 1 redone"
        );
    }

    #[test]
    fn ndjson_lines_match_the_client_diag_spec() {
        let line = render_diag(DiagFormat::Ndjson, "serve", "2 requests over 1 connections");
        assert_eq!(
            line,
            r#"{"level":"info","event":"serve","detail":"2 requests over 1 connections"}"#
        );
        // Embedded quotes and newlines stay valid JSON.
        let tricky = render_diag(DiagFormat::Ndjson, "e\"v", "d\nd");
        assert!(tricky.contains(r#""e\"v""#));
        assert!(!tricky.contains('\n'));
    }

    #[test]
    fn format_switch_is_process_wide() {
        set_diag_format(DiagFormat::Ndjson);
        assert_eq!(diag_format(), DiagFormat::Ndjson);
        set_diag_format(DiagFormat::Human);
        assert_eq!(diag_format(), DiagFormat::Human);
    }
}
