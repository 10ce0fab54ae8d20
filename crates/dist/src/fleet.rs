//! Worker processes: locate the `affidavit-worker` binary, spawn a fleet
//! of them against a coordinator's listener, and reap them.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Locate the `affidavit-worker` executable: the `AFFIDAVIT_WORKER_BIN`
/// environment variable if set, otherwise a sibling of the current
/// executable (all workspace binaries land in the same target directory).
pub fn worker_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("AFFIDAVIT_WORKER_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!(
            "AFFIDAVIT_WORKER_BIN={} does not exist",
            path.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe
        .parent()
        .ok_or("current executable has no parent directory")?
        .join(format!("affidavit-worker{}", std::env::consts::EXE_SUFFIX));
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "affidavit-worker not found next to {} (build it with \
             `cargo build -p affidavit-dist` or set AFFIDAVIT_WORKER_BIN)",
            exe.display()
        ))
    }
}

/// A spawned worker child process, killed on drop if still running.
#[derive(Debug)]
pub struct WorkerHandle {
    child: Child,
    /// The worker's id (`proc-<n>`), as it will appear in results.
    pub worker_id: String,
}

impl WorkerHandle {
    /// Whether the process has exited, without blocking.
    pub fn try_finished(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Wait for the process to exit and report success.
    pub fn wait(&mut self) -> Result<bool, String> {
        self.child
            .wait()
            .map(|status| status.success())
            .map_err(|e| e.to_string())
    }

    /// Kill the process immediately (fault injection in tests; the
    /// coordinator's protocol must treat this exactly like a straggler).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn `n` real `affidavit-worker` child processes that dial the
/// coordinator listening at `addr` (`HOST:PORT`). Their stderr is
/// inherited (worker diagnostics stay visible); stdout is discarded.
pub fn spawn_workers(
    worker_bin: &Path,
    addr: &str,
    n: usize,
    poll: Duration,
) -> Result<Vec<WorkerHandle>, String> {
    (0..n)
        .map(|i| {
            let worker_id = format!("proc-{i}");
            Command::new(worker_bin)
                .arg("--connect")
                .arg(addr)
                .arg("--worker-id")
                .arg(&worker_id)
                .arg("--poll-ms")
                .arg(poll.as_millis().max(1).to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map(|child| WorkerHandle { child, worker_id })
                .map_err(|e| format!("spawning {}: {e}", worker_bin.display()))
        })
        .collect()
}
