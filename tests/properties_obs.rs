//! Observability-is-a-pure-side-channel battery.
//!
//! The load-bearing invariant of `affidavit-obs`: spans, points and
//! metrics are written by the engine and read by nobody — no code path
//! branches on them — so every output byte is identical with tracing
//! enabled or disabled. This battery proves it for the one-shot explain
//! path (both paper configurations × threads {1, 4}), directory
//! profiling, and the serve daemon; validates the NDJSON event schema
//! (parseable, nested, monotonic); and pins the metrics registry to the
//! legacy counter structs it absorbed (`SearchStats`,
//! `SessionCounters`).
//!
//! Obs state (the enable switch, recorder buffer, registry) is
//! process-wide, so every test serializes on one mutex and drains the
//! recorder before starting.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use affidavit_core::profiling::{profile_dirs, stage_file_pair, ProfileOptions};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_obs::{Event, KIND_BEGIN, KIND_END, KIND_POINT};
use affidavit_serve::{serve, ExplainSpec, ServeClient, ServeOptions};
use affidavit_store::{ingest_pair, IngestOptions, PoolConfig, SessionKey, SessionLru};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Start from a clean recorder so event assertions see only this
    // test's stream.
    affidavit_obs::set_enabled(true);
    affidavit_obs::drain();
    guard
}

/// A snapshot pair with a systematic change plus deletions/insertions,
/// so the search exercises induction, blocking and rendering.
fn write_pair(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let src = dir.join("source.csv");
    let tgt = dir.join("target.csv");
    let mut s = String::from("k,v,w\n");
    let mut t = String::from("k,v,w\n");
    for i in 0..60 {
        s.push_str(&format!("k{i},{},tag{}\n", i * 1000, i % 7));
        if i % 11 != 10 {
            t.push_str(&format!("k{i},{i},tag{}\n", i % 7));
        }
    }
    t.push_str("extra,1,tagx\n");
    std::fs::write(&src, s).unwrap();
    std::fs::write(&tgt, t).unwrap();
    (src, tgt)
}

fn config(name: &str, threads: usize) -> AffidavitConfig {
    let mut cfg = match name {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => panic!("unknown config {other}"),
    };
    cfg.threads = threads;
    cfg
}

/// Everything a one-shot explain emits, as one deterministic string:
/// the rendered report plus every deterministic counter.
fn explain_fingerprint(src: &Path, tgt: &Path, cfg: &AffidavitConfig) -> String {
    let opts = ProfileOptions {
        config: cfg.clone(),
        ..ProfileOptions::default()
    };
    let mut instance = stage_file_pair(src, tgt, &opts).unwrap();
    let outcome = Affidavit::new(cfg.clone()).explain(&mut instance);
    format!(
        "{}\n{};{};{};{}",
        render_report(&outcome.explanation, &instance),
        outcome.stats.polled,
        outcome.stats.expansions,
        outcome.stats.states_generated,
        outcome.stats.end_state_cost.to_bits(),
    )
}

#[test]
fn explain_bytes_are_identical_with_obs_on_and_off() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-onoff");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    for name in ["id", "overlap"] {
        for threads in [1usize, 4] {
            let cfg = config(name, threads);
            affidavit_obs::set_enabled(false);
            let off = explain_fingerprint(&src, &tgt, &cfg);
            affidavit_obs::set_enabled(true);
            let on = explain_fingerprint(&src, &tgt, &cfg);
            assert_eq!(
                on, off,
                "tracing changed output bytes ({name}, threads {threads})"
            );
            let (events, _) = affidavit_obs::drain();
            assert!(
                events.iter().any(|e| e.name == "search.explain"),
                "the traced run must record the search span ({name}, threads {threads})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_dirs_bytes_are_identical_with_obs_on_and_off() {
    let _guard = serial();
    let root = std::env::temp_dir().join("affidavit-obs-profile");
    std::fs::remove_dir_all(&root).ok();
    let before = root.join("v1");
    let after = root.join("v2");
    write_pair(&before);
    std::fs::create_dir_all(&after).unwrap();
    std::fs::rename(before.join("target.csv"), after.join("source.csv")).unwrap();
    std::fs::copy(before.join("source.csv"), after.join("extra.csv")).unwrap();
    let opts = ProfileOptions::default();
    let canonical = |mut p: affidavit_core::profiling::SnapshotProfile| {
        p.strip_timing();
        format!("{}\n{}", p.render(), p.to_json())
    };
    affidavit_obs::set_enabled(false);
    let off = canonical(profile_dirs(&before, &after, &opts).unwrap());
    affidavit_obs::set_enabled(true);
    let on = canonical(profile_dirs(&before, &after, &opts).unwrap());
    assert_eq!(on, off, "tracing changed the rendered snapshot profile");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn served_bytes_are_identical_with_obs_on_and_off() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-serve");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = ExplainSpec::new(src.to_str().unwrap(), tgt.to_str().unwrap());

    // The untraced one-shot run is the reference bytes.
    affidavit_obs::set_enabled(false);
    let opts = ProfileOptions {
        config: spec.config.clone(),
        ..ProfileOptions::default()
    };
    let mut instance = stage_file_pair(&src, &tgt, &opts).unwrap();
    let outcome = Affidavit::new(spec.config.clone()).explain(&mut instance);
    let report = render_report(&outcome.explanation, &instance);

    affidavit_obs::set_enabled(true);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());
    let reply = client.explain(&spec).unwrap();
    assert_eq!(
        reply.report, report,
        "served report bytes diverge from the untraced one-shot run"
    );
    assert_eq!(reply.polled, outcome.stats.polled as u64);
    assert_eq!(reply.generated, outcome.stats.states_generated as u64);
    let (events, _) = affidavit_obs::drain();
    for name in [
        "serve.request",
        "serve.stage",
        "serve.search",
        "search.explain",
    ] {
        assert!(
            events.iter().any(|e| e.name == name),
            "served request must record {name}"
        );
    }
    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_event_stream_is_schema_valid_nested_and_monotonic() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-schema");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let cfg = config("id", 4);
    explain_fingerprint(&src, &tgt, &cfg);
    let (events, dropped) = affidavit_obs::drain();
    assert_eq!(dropped, 0, "this run fits the recorder buffer");
    assert!(!events.is_empty());

    let mut open: std::collections::HashMap<u64, &Event> = std::collections::HashMap::new();
    let mut prev_seq = 0u64;
    let mut prev_ts = 0u64;
    for (i, e) in events.iter().enumerate() {
        // NDJSON round trip: the line is one parseable JSON object that
        // deserializes back to the identical event.
        let line = e.to_ndjson();
        assert!(!line.contains('\n'), "one event, one line: {line}");
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, e, "event {i} must round-trip through NDJSON");
        // Monotonic interleaving: seq strictly increases, timestamps
        // never run backwards.
        if i > 0 {
            assert!(e.seq > prev_seq, "seq must strictly increase at {i}");
            assert!(e.ts_micros >= prev_ts, "time ran backwards at {i}");
        }
        prev_seq = e.seq;
        prev_ts = e.ts_micros;
        match e.kind.as_str() {
            KIND_BEGIN => {
                assert!(e.elapsed_micros.is_none());
                // A nested span's parent must already be open on the
                // same thread.
                if let Some(parent) = e.parent {
                    let p = open.get(&parent).unwrap_or_else(|| {
                        panic!("span {} opened under unknown parent {parent}", e.span)
                    });
                    assert_eq!(p.thread, e.thread, "parent/child must share a thread");
                }
                open.insert(e.span, e);
            }
            KIND_END => {
                let begin = open.remove(&e.span).unwrap_or_else(|| {
                    panic!("end without a begin for span {} ({})", e.span, e.name)
                });
                assert_eq!(begin.name, e.name, "begin/end must agree on the name");
                assert!(e.elapsed_micros.is_some(), "end events carry elapsed time");
            }
            KIND_POINT => assert!(e.elapsed_micros.is_none()),
            other => panic!("unknown event kind {other:?}"),
        }
    }
    assert!(
        open.is_empty(),
        "every span must close: {:?} left open",
        open.values().map(|e| &e.name).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The extension hot path is spanned piece by piece: the bound pass that
/// costs every child, the worker-side greedy map inside an expansion, and
/// the overlap start-state scan under the `Hs` configuration, with its
/// value-index build nested in it.
#[test]
fn the_expansion_pieces_have_their_own_spans() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-expansion-spans");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    for name in ["id", "overlap"] {
        explain_fingerprint(&src, &tgt, &config(name, 1));
        let (events, dropped) = affidavit_obs::drain();
        assert_eq!(dropped, 0, "this run fits the recorder buffer");
        let named = |n: &'static str| {
            events
                .iter()
                .filter(move |e| e.name == n && e.kind == KIND_BEGIN)
        };
        assert!(named("blocking.bound").count() > 0, "{name}: no bound pass");
        let expands: Vec<u64> = named("search.expand").map(|e| e.span).collect();
        assert!(
            named("search.greedy_map").any(|e| e.parent.is_some_and(|p| expands.contains(&p))),
            "{name}: no greedy map inside an expansion"
        );
        let overlap_scans: Vec<u64> = named("search.overlap_start").map(|e| e.span).collect();
        assert_eq!(
            overlap_scans.len(),
            usize::from(name == "overlap"),
            "{name}"
        );
        let index_builds: Vec<Option<u64>> =
            named("search.overlap_index").map(|e| e.parent).collect();
        assert_eq!(
            index_builds,
            overlap_scans.iter().map(|&s| Some(s)).collect::<Vec<_>>(),
            "{name}: one value-index build inside each overlap start-state scan"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_registry_mirrors_search_stats_exactly() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-registry-search");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let cfg = config("id", 1);
    let opts = ProfileOptions {
        config: cfg.clone(),
        ..ProfileOptions::default()
    };
    let mut instance = stage_file_pair(&src, &tgt, &opts).unwrap();
    let outcome = Affidavit::new(cfg).explain(&mut instance);
    let m = affidavit_obs::metrics();
    assert_eq!(m.counter("search_polled"), outcome.stats.polled as u64);
    assert_eq!(
        m.counter("search_expansions"),
        outcome.stats.expansions as u64
    );
    assert_eq!(
        m.counter("search_states_generated"),
        outcome.stats.states_generated as u64
    );
    assert_eq!(
        m.counter("search_attr_expansions"),
        outcome.stats.attr_expansions as u64
    );
    assert_eq!(
        m.counter("search_attr_expansions_discarded"),
        outcome.stats.attr_expansions_discarded as u64
    );
    assert_eq!(
        m.counter("search_induction_examples"),
        outcome.stats.induction_examples as u64
    );
    assert_eq!(
        m.counter("search_rank_applications"),
        outcome.stats.rank_applications as u64
    );
    assert_eq!(
        m.gauge("search_end_state_cost"),
        Some(outcome.stats.end_state_cost)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_registry_mirrors_session_counters_exactly() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("affidavit-obs-registry-session");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let ingest_opts = IngestOptions::default();
    let mut lru = SessionLru::new(1);
    let key = SessionKey::for_files(&src, &tgt).unwrap();
    for _ in 0..3 {
        lru.get_or_ingest(key, || ingest_pair(&src, &tgt, &ingest_opts, &PoolConfig))
            .unwrap();
    }
    let counters = lru.counters();
    assert_eq!((counters.ingests, counters.hits), (1, 2));
    let m = affidavit_obs::metrics();
    assert_eq!(m.counter("session_ingests_total"), counters.ingests);
    assert_eq!(m.counter("session_hits_total"), counters.hits);
    assert_eq!(m.counter("session_evictions_total"), counters.evictions);
    // The session hot path also traces: one ingest span, two hit points.
    let (events, _) = affidavit_obs::drain();
    let ingests = events
        .iter()
        .filter(|e| e.name == "session.ingest" && e.kind == KIND_END)
        .count();
    let hits = events.iter().filter(|e| e.name == "session.hit").count();
    assert_eq!((ingests, hits), (1, 2));
    std::fs::remove_dir_all(&dir).ok();
}
