//! The built `affidavit` binary against a stdout whose reader is gone
//! (`affidavit … | head`): the command ends without a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn snapshot_pair(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("affidavit-cli-closed-stdout-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut s, mut t) = (String::from("k,v\n"), String::from("k,v\n"));
    for i in 0..200 {
        s.push_str(&format!("key{i},{}\n", (i + 1) * 1000));
        t.push_str(&format!("key{i},{}\n", i + 1));
    }
    let (src, tgt) = (dir.join("s.csv"), dir.join("t.csv"));
    std::fs::write(&src, s).unwrap();
    std::fs::write(&tgt, t).unwrap();
    (dir, src, tgt)
}

/// Run the binary with its stdout pipe closed before it writes anything;
/// return its exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_affidavit"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    let (dir, src, tgt) = snapshot_pair("explain");
    let (src, tgt) = (src.to_str().unwrap(), tgt.to_str().unwrap());
    for args in [
        &["explain", src, tgt, "--stable"][..],
        &["explain", src, tgt, "--trace", "--sql", "t"],
        &["help"],
    ] {
        let (code, stderr) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
