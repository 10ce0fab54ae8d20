//! The built `affidavit` binary handed a special file (`/dev/zero`, which
//! never ends) as a snapshot, or a saved explanation nested thousands of
//! levels deep: a typed error and exit 1 within seconds, not a hang, an
//! abort or a memory blow-up.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the binary; kill it and fail if it has not exited within 10 s.
/// Returns its exit code and stderr.
fn run_bounded(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_affidavit"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_special_file_snapshot_exits_1_naming_the_path() {
    let dir = std::env::temp_dir().join("affidavit-cli-special-file");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("t.csv");
    std::fs::write(&csv, "k,v\na,1\nb,2\n").unwrap();
    let csv = csv.to_str().unwrap();
    for args in [
        &["explain", "/dev/zero", csv][..],
        &["explain", csv, "/dev/zero", "--stable"],
        &["explain", "/dev/zero", csv, "--delta"],
        &["apply", csv, csv, "/dev/zero"],
    ] {
        let (code, stderr) = run_bounded(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("/dev/zero") && stderr.contains("not a regular file"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A saved explanation nested past the JSON recursion limit, as arrays or
/// as objects, is the parser's typed error and exit 1, not a stack
/// overflow (exit 134).
#[test]
fn a_deeply_nested_explanation_exits_1() {
    let dir = std::env::temp_dir().join("affidavit-cli-nested-explanation");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("u.csv");
    std::fs::write(&csv, "k,v\na,1\n").unwrap();
    let json = dir.join("e.json");
    for nested in ["[".repeat(5000), r#"{"schema":"#.repeat(5000)] {
        std::fs::write(&json, nested).unwrap();
        let args = [
            "apply",
            "--explanation",
            json.to_str().unwrap(),
            csv.to_str().unwrap(),
        ];
        let (code, stderr) = run_bounded(&args);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
        assert!(
            stderr.contains("e.json: "),
            "the error names its file: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An output file in a directory that does not exist is exit 1 with an
/// error that names the file, for every command that writes one.
#[test]
fn an_output_in_a_missing_directory_exits_1_naming_the_file() {
    let dir = std::env::temp_dir().join("affidavit-cli-missing-out-dir");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = (dir.join("src"), dir.join("tgt"));
    std::fs::create_dir_all(&src).unwrap();
    std::fs::create_dir_all(&tgt).unwrap();
    let (s, t, u) = (src.join("a.csv"), tgt.join("a.csv"), dir.join("u.csv"));
    std::fs::write(&s, "k,v\nx,1000\ny,2000\n").unwrap();
    std::fs::write(&t, "k,v\nx,1\ny,2\n").unwrap();
    std::fs::write(&u, "k,v\nz,3000\n").unwrap();
    let out = dir.join("missing").join("out.file");
    let [s, t, u, src, tgt, out] = [&s, &t, &u, &src, &tgt, &out].map(|p| p.to_str().unwrap());
    for args in [
        &["apply", s, t, u, "--out", out][..],
        &["explain", s, t, "--save", out],
        &["profile", src, tgt, "--json", out],
    ] {
        let (code, stderr) = run_bounded(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{out}: ")), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
