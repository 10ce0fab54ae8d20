//! Serve-vs-one-shot byte-identity battery.
//!
//! The resident daemon's determinism contract: a served explain renders
//! **exactly** the bytes the one-shot CLI path produces for the same
//! inputs and configuration — cold or warm, at any thread count, under
//! concurrent clients. The battery sweeps both paper configurations ×
//! threads {1, 4}, then hammers one spec with 4 concurrent clients, and asserts throughout
//! (via the daemon's counters) that warm repeats perform zero ingestion
//! work. A seeded mutation fuzz then sends malformed and out-of-domain
//! request frames to a live daemon: each must be refused with an
//! `Error` frame or a closed connection, never a dead daemon. A header
//! announcing an over-bound request is refused before its body is read.

use std::path::{Path, PathBuf};

use affidavit_core::profiling::{stage_file_pair, ProfileOptions};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_serve::frame::{configure_stream, read_frame, FrameRead, MAX_FRAME_BYTES};
use affidavit_serve::fuzz::{check_fail_closed, exchange, mutants, with_value, Mutant, Vocabulary};
use affidavit_serve::{
    serve, ClientRequest, ClientResponse, ExplainSpec, FrameConfig, ServeClient, ServeOptions,
    MAX_REQUEST_BYTES,
};
use affidavit_store::IngestOptions;

/// A snapshot pair with a systematic change (rescaled values), plus some
/// deletions and insertions so the report has every section.
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

fn spec_for(src: &Path, tgt: &Path, config: &str, threads: usize) -> ExplainSpec {
    let mut cfg = match config {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => panic!("unknown config {other}"),
    };
    cfg.threads = threads;
    ExplainSpec {
        config: cfg,
        ..ExplainSpec::new(src.to_str().unwrap(), tgt.to_str().unwrap())
    }
}

/// The one-shot path for the same spec: ingest + stage + search +
/// render, exactly what `affidavit explain` runs in-process.
fn one_shot(spec: &ExplainSpec) -> (String, u64, u64) {
    let opts = ProfileOptions {
        config: spec.config.clone(),
        align: spec.align,
        ingest: IngestOptions {
            chunk_rows: spec.ingest_chunk_rows,
            threads: spec.config.threads,
            ..IngestOptions::default()
        },
        ..ProfileOptions::default()
    };
    let mut instance =
        stage_file_pair(Path::new(&spec.source), Path::new(&spec.target), &opts).unwrap();
    let outcome = Affidavit::new(spec.config.clone()).explain(&mut instance);
    (
        render_report(&outcome.explanation, &instance),
        outcome.stats.polled as u64,
        outcome.stats.states_generated as u64,
    )
}

#[test]
fn served_reports_match_one_shot_across_the_matrix() {
    let dir = std::env::temp_dir().join("affidavit-serve-battery");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    let mut requests = 0u64;
    for config in ["id", "overlap"] {
        for threads in [1usize, 4] {
            let spec = spec_for(&src, &tgt, config, threads);
            let (report, polled, generated) = one_shot(&spec);
            let reply = client.explain(&spec).unwrap();
            requests += 1;
            assert_eq!(
                reply.report, report,
                "served bytes diverge ({config}, threads {threads})"
            );
            assert_eq!(reply.polled, polled);
            assert_eq!(reply.generated, generated);
            // The session key is the content of both files: the first
            // request ingests, everything after reuses.
            assert_eq!(reply.warm, requests > 1, "request {requests}");
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.ingests, 1, "one ingestion, every repeat warm");
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.sessions, 1);

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pin_prewarms_a_session_without_searching() {
    let dir = std::env::temp_dir().join("affidavit-serve-pin");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // A cold pin ingests; no search runs, so no hit is recorded.
    assert!(!client.pin(&spec).unwrap(), "first pin must be cold");
    let stats = client.stats().unwrap();
    assert_eq!((stats.ingests, stats.hits), (1, 0), "pin must not search");
    assert_eq!(stats.sessions, 1);

    // The pre-warmed explain is a guaranteed session hit …
    let reply = client.explain(&spec).unwrap();
    assert!(reply.warm, "explain after pin must reuse the pinned pair");
    let stats = client.stats().unwrap();
    assert_eq!((stats.ingests, stats.hits), (1, 1));

    // … and re-pinning the same pair is free.
    assert!(client.pin(&spec).unwrap(), "repeat pin must be warm");
    assert_eq!(client.stats().unwrap().ingests, 1);

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_metrics_op_mirrors_the_session_counters() {
    let dir = std::env::temp_dir().join("affidavit-serve-metrics");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    client.explain(&spec).unwrap();
    client.explain(&spec).unwrap();
    let stats = client.stats().unwrap();
    let text = client.metrics().unwrap();

    // Prometheus-style exposition: typed, one sample line per series,
    // and the serve series equal the daemon's own counters exactly.
    assert!(
        text.contains("# TYPE serve_requests_total counter"),
        "{text}"
    );
    for (series, value) in [
        ("serve_requests_total", stats.requests),
        ("serve_ingests_total", stats.ingests),
        ("serve_hits_total", stats.hits),
        ("serve_evictions_total", stats.evictions),
        ("serve_busy_rejections_total", 0),
        ("serve_deadline_expirations_total", 0),
    ] {
        let line = format!("{series} {value}");
        assert!(
            text.lines().any(|l| l == line),
            "expected `{line}` in:\n{text}"
        );
    }
    assert!(text.lines().any(|l| l == "serve_sessions 1"), "{text}");
    // The searches the daemon ran published into the same registry.
    assert!(text.contains("search_polled"), "{text}");

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_expired_request_deadline_is_a_clean_rejection() {
    use std::time::Duration;

    let dir = std::env::temp_dir().join("affidavit-serve-deadline");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let opts = ServeOptions {
        request_deadline: Some(Duration::ZERO),
        ..ServeOptions::default()
    };
    let mut daemon = serve(&opts).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // A zero budget expires before the first search iteration: the
    // request is answered with an error, not a hang or a partial report.
    let err = client.explain(&spec).expect_err("deadline must expire");
    match err {
        affidavit_serve::ClientError::Rejected(message) => {
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    // The daemon survives, and the deadline only aborted the search:
    // ingestion had already pinned the pair, so a pin (which never
    // searches) is warm and unaffected by the same deadline.
    let stats = daemon.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.ingests, 1, "the aborted request still ingested");
    assert!(client.pin(&spec).unwrap());

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_delta_splices_warm_sessions_and_stays_byte_identical() {
    let dir = std::env::temp_dir().join("affidavit-serve-delta");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let plain = spec_for(&src, &tgt, "id", 1);
    let delta_spec = ExplainSpec {
        delta: true,
        ..plain.clone()
    };
    let metric = |text: &str, series: &str| -> u64 {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(&format!("{series} "))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    };

    let (report, polled, generated) = one_shot(&plain);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // Pre-warm the session, then run the first --delta explain: no
    // manifest yet, so it redoes — but over the pinned pair, and with
    // bytes identical to the one-shot path.
    assert!(!client.pin(&delta_spec).unwrap());
    let cold = client.explain(&delta_spec).unwrap();
    assert_eq!(cold.report, report);
    assert_eq!((cold.polled, cold.generated), (polled, generated));
    assert!(cold.warm, "the pre-warmed session must be reused");

    // The repeat splices from the manifest the redo just wrote: same
    // bytes, and the registry proves the pair was spliced, not re-searched.
    let spliced = client.explain(&delta_spec).unwrap();
    assert_eq!(spliced.report, report);
    assert_eq!((spliced.polled, spliced.generated), (polled, generated));
    assert!(spliced.warm);
    let text = client.metrics().unwrap();
    assert!(metric(&text, "delta_pairs_spliced_total") > 0, "{text}");
    assert_eq!(metric(&text, "delta_fallbacks_total"), 0, "{text}");

    // Edit the target: the delta rerun redoes and must stay
    // byte-identical to a from-scratch one-shot over the edited pair.
    let mut edited = std::fs::read_to_string(&tgt).unwrap();
    edited.push_str("fresh,5,tagz\n");
    std::fs::write(&tgt, edited).unwrap();
    let (report2, polled2, generated2) = one_shot(&plain);
    assert_ne!(report2, report, "the edit must change the explanation");
    let redone = client.explain(&delta_spec).unwrap();
    assert_eq!(redone.report, report2);
    assert_eq!((redone.polled, redone.generated), (polled2, generated2));
    let text = client.metrics().unwrap();
    assert!(metric(&text, "delta_pairs_redone_total") > 0, "{text}");

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_identical_bytes_from_one_warm_session() {
    let dir = std::env::temp_dir().join("affidavit-serve-concurrent");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let (report, _, _) = one_shot(&spec);

    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();
    // 4 clients × 2 requests each, racing over their own keep-alive
    // connections. Every reply must carry the same bytes.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let spec = spec.clone();
            let report = report.as_str();
            scope.spawn(move || {
                let client = ServeClient::new(addr);
                for _ in 0..2 {
                    let reply = client.explain(&spec).unwrap();
                    assert_eq!(reply.report, report);
                }
            });
        }
    });
    let client = ServeClient::new(addr);
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.ingests, 1, "8 racing requests, one ingestion");
    assert_eq!(stats.hits, 7);
    // And a final repeat from a fresh client is still warm.
    assert!(client.explain(&spec).unwrap().warm);
    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Send one whole frame and decode the daemon's answer; `None` means
/// the daemon closed the connection.
fn send(addr: &str, frame: &str) -> Option<ClientResponse> {
    let mutant = Mutant::whole(frame.as_bytes().to_vec());
    match exchange(addr, &mutant, &FrameConfig::default()).unwrap() {
        FrameRead::Frame(text) => Some(serde_json::from_str(&text).unwrap()),
        FrameRead::Closed => None,
        FrameRead::Idle => panic!("the daemon gave no answer within its stall bound"),
    }
}

/// An explain frame for `spec` with one field replaced by raw JSON text.
fn frame_with(spec: &ExplainSpec, field: &str, raw: &str) -> String {
    let frame = serde_json::to_string(&ClientRequest::Explain { spec: spec.clone() }).unwrap();
    with_value(&frame, field, raw)
}

#[test]
fn an_over_ceiling_thread_count_is_an_error_and_the_daemon_stays_up() {
    let dir = std::env::temp_dir().join("affidavit-serve-ceiling");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();

    // Once a process abort: one worker slot allocated per requested
    // thread before the first chunk was parsed.
    match send(&addr, &frame_with(&spec, "threads", "99999999999")) {
        Some(ClientResponse::Error { message }) => {
            assert!(message.contains("threads 99999999999"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let ping = serde_json::to_string(&ClientRequest::Ping).unwrap();
    assert!(matches!(send(&addr, &ping), Some(ClientResponse::Pong)));
    // Rejected before admission: nothing was ingested or pinned.
    let stats = daemon.stats();
    assert_eq!((stats.ingests, stats.sessions), (0, 0));

    ServeClient::new(addr).shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot path naming a special file (here `/dev/zero`, which never
/// ends) is refused before it is read: the request gets an `Error` frame
/// and the daemon keeps serving.
#[test]
fn a_special_file_snapshot_is_an_error_and_the_daemon_stays_up() {
    let dir = std::env::temp_dir().join("affidavit-serve-special-file");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let zero = Path::new("/dev/zero");
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();

    for spec in [
        spec_for(zero, &tgt, "id", 1),
        spec_for(&src, zero, "overlap", 2),
    ] {
        for request in [
            ClientRequest::Explain { spec: spec.clone() },
            ClientRequest::Pin { spec },
        ] {
            let frame = serde_json::to_string(&request).unwrap();
            match send(&addr, &frame) {
                Some(ClientResponse::Error { message }) => {
                    assert!(message.contains("not a regular file"), "{message}");
                }
                other => panic!("expected an Error frame, got {other:?}"),
            }
        }
    }
    let ping = serde_json::to_string(&ClientRequest::Ping).unwrap();
    assert!(matches!(send(&addr, &ping), Some(ClientResponse::Pong)));
    let stats = daemon.stats();
    assert_eq!((stats.ingests, stats.sessions), (0, 0));

    ServeClient::new(addr).shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request for a pair with a missing file fails with the one-shot
/// message, word for word (`<path>: I/O error: …`), on the plain, `--delta`
/// and pin paths alike, and pins nothing.
#[test]
fn an_unreadable_pair_is_worded_as_the_one_shot_path_words_it() {
    let dir = std::env::temp_dir().join("affidavit-serve-missing-file");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let missing = dir.join("missing.csv");
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    for (s, t) in [(&missing, &tgt), (&src, &missing)] {
        let spec = spec_for(s, t, "overlap", 1);
        let one_shot =
            stage_file_pair(s, t, &ProfileOptions::default()).expect_err("the pair is unreadable");
        assert!(
            one_shot.starts_with(&format!("{}: I/O error: ", missing.display())),
            "{one_shot}"
        );
        let delta_spec = ExplainSpec {
            delta: true,
            delta_state: Some(dir.join("state").to_str().unwrap().to_owned()),
            ..spec.clone()
        };
        for served in [
            client.explain(&spec).map(|_| ()),
            client.explain(&delta_spec).map(|_| ()),
            client.pin(&spec).map(|_| ()),
        ] {
            match served.expect_err("the pair is unreadable") {
                affidavit_serve::ClientError::Rejected(message) => assert_eq!(message, one_shot),
                other => panic!("expected a rejection, got {other:?}"),
            }
        }
    }
    let stats = daemon.stats();
    assert_eq!((stats.ingests, stats.sessions), (0, 0));

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_client_frames_fail_closed() {
    use std::time::Duration;

    let dir = std::env::temp_dir().join("affidavit-serve-fuzz");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let opts = ServeOptions {
        frame: FrameConfig {
            stall_timeout: Duration::from_secs(10),
        },
        ..ServeOptions::default()
    };
    let mut daemon = serve(&opts).unwrap();
    let addr = daemon.local_addr().to_string();
    let valid: Vec<String> = [
        ClientRequest::Ping,
        ClientRequest::Explain { spec: spec.clone() },
        ClientRequest::Pin { spec: spec.clone() },
        ClientRequest::Stats,
        ClientRequest::Metrics,
    ]
    .iter()
    .map(|request| serde_json::to_string(request).unwrap())
    .collect();
    // Spec values the daemon must refuse: a worker count above the
    // ceiling, a count no usize can hold or a rate outside its domain
    // (serde rejects the non-usize counts before the daemon's code runs),
    // and a string whose escape names no character (`delta_state` is
    // ignored while `delta` is off, so a decoder that accepted the escape
    // would answer with a report). Every usize is in domain for
    // `ingest_chunk_rows`, `queue_width` and `beta`; see
    // `in_domain_extreme_counts_are_answered`.
    let lone_surrogates: &[&str] = &[r#""\ud800\u0041""#, r#""\udc00""#];
    let vocab = Vocabulary {
        bad_tags: &["", "PING", "ping ", "explains", "claim", "shutdown!", "7"],
        bad_values: &[
            (
                "threads",
                &["99999999999", "1025", "18446744073709551615", "-1"],
            ),
            ("ingest_chunk_rows", &["18446744073709551616", "-1", "2.5"]),
            ("queue_width", &["-5", "1e30", "99999999999999999999999999"]),
            ("beta", &["-1", "0.5", "18446744073709551616"]),
            ("theta", &["0", "1", "-1", "1e308"]),
            ("confidence", &["0", "1", "2"]),
            ("alpha", &["1e308", "-0.5", "2"]),
            ("delta_state", lone_surrogates),
        ],
    };
    // Crashers this fuzz found, kept as fixed cases: each once aborted
    // the daemon or panicked its connection thread. The two escapes are
    // fixed too, so they reach a request that reads them on every seed.
    let mut cases: Vec<Mutant> = [
        ("threads", "99999999999"),
        ("threads", "100000"),
        ("theta", "0"),
        ("confidence", "1"),
        ("alpha", "1e308"),
        ("delta_state", lone_surrogates[0]),
        ("delta_state", lone_surrogates[1]),
    ]
    .iter()
    .map(|(field, raw)| Mutant::whole(frame_with(&spec, field, raw).into_bytes()))
    .collect();
    cases.extend(mutants(0x5E7E_F022, 120, &valid, &vocab));
    check_fail_closed(&addr, &opts.frame, &cases, |text| {
        matches!(serde_json::from_str(text), Ok(ClientResponse::Error { .. }))
    })
    .unwrap();

    // The daemon is still up, and no mutant pinned or ingested anything.
    let client = ServeClient::new(addr);
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!((stats.sessions, stats.ingests, stats.hits), (0, 0, 0));

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// A header announcing one byte more than [`MAX_REQUEST_BYTES`] ends
/// its connection at once: the daemon neither waits for nor buffers the
/// body. A daemon that read on would sit in its stall window, which is
/// far longer than the client's.
#[test]
fn an_over_bound_request_header_is_refused_before_its_body() {
    use std::io::Write as _;
    use std::time::Duration;

    let opts = ServeOptions {
        frame: FrameConfig {
            stall_timeout: Duration::from_secs(60),
        },
        ..ServeOptions::default()
    };
    let mut daemon = serve(&opts).unwrap();
    let addr = daemon.local_addr().to_string();
    let quick = FrameConfig {
        stall_timeout: Duration::from_secs(5),
    };
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    configure_stream(&stream, &quick).unwrap();
    stream
        .write_all(&(MAX_REQUEST_BYTES + 1).to_be_bytes())
        .unwrap();
    // The write half stays open: only the daemon can end this exchange.
    let answer = read_frame(&mut stream, &quick, MAX_FRAME_BYTES);
    assert!(
        matches!(answer, Ok(FrameRead::Closed)),
        "expected the daemon to close the connection, got {answer:?}"
    );

    let ping = serde_json::to_string(&ClientRequest::Ping).unwrap();
    assert!(matches!(send(&addr, &ping), Some(ClientResponse::Pong)));
    ServeClient::new(addr).shutdown().unwrap();
    daemon.wait();
}

/// A request nested thousands of levels deep, in arrays or in objects,
/// is refused as malformed at the JSON recursion limit, and the daemon
/// keeps serving.
#[test]
fn a_deeply_nested_request_is_malformed_and_the_daemon_stays_up() {
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();
    let ping = serde_json::to_string(&ClientRequest::Ping).unwrap();
    for open in ["[", r#"{"op":"#] {
        match send(&addr, &open.repeat(5000)) {
            Some(ClientResponse::Error { message }) => assert!(
                message.starts_with("malformed request: recursion limit exceeded"),
                "{message}"
            ),
            other => panic!("expected an Error frame, got {other:?}"),
        }
        assert!(matches!(send(&addr, &ping), Some(ClientResponse::Pong)));
    }
    ServeClient::new(addr).shutdown().unwrap();
    daemon.wait();
}

#[test]
fn in_domain_extreme_counts_are_answered() {
    let dir = std::env::temp_dir().join("affidavit-serve-extremes");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1);
    let (report, _, _) = one_shot(&spec);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();

    // 0 means 1 and no upper bound is needed, so each count is answered
    // with a report; ingestion is byte-identical at every chunking.
    for field in ["ingest_chunk_rows", "queue_width", "beta"] {
        for raw in ["0", "99999999999", "18446744073709551615"] {
            match send(&addr, &frame_with(&spec, field, raw)) {
                Some(ClientResponse::Report { reply }) => {
                    if field == "ingest_chunk_rows" {
                        assert_eq!(reply.report, report, "{field} = {raw}");
                    }
                }
                other => panic!("{field} = {raw}: expected a report, got {other:?}"),
            }
        }
    }
    let ping = serde_json::to_string(&ClientRequest::Ping).unwrap();
    assert!(matches!(send(&addr, &ping), Some(ClientResponse::Pong)));

    ServeClient::new(addr).shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}
