//! The built repro binaries against a stdout that fails: a reader that
//! has gone (`repro_fig5 | head`) ends the run quietly, any other write
//! error ends it with its message.

use std::process::{Command, Stdio};

/// Run `bin` with `stdout`; return its exit code and stderr.
fn run(bin: &str, args: &[&str], stdout: Stdio) -> (Option<i32>, String) {
    let output = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A pipe whose read end is closed before the binary starts, so its
/// first write fails with a broken pipe.
fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    writer.into()
}

#[test]
fn a_closed_stdout_ends_the_run_with_exit_0_and_nothing_on_stderr() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_repro_fig1"), &[][..]),
        (env!("CARGO_BIN_EXE_repro_fig2"), &[]),
        (env!("CARGO_BIN_EXE_repro_fig5"), &["--rows", "500"]),
    ] {
        let (code, stderr) = run(bin, args, closed_pipe());
        assert_eq!(stderr, "", "{bin}");
        assert_eq!(code, Some(0), "{bin}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn any_other_write_error_fails_with_its_message() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let (code, stderr) = run(env!("CARGO_BIN_EXE_repro_fig1"), &[], full.into());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("writing to stdout: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
