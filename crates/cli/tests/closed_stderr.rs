//! Exit codes survive a closed stderr: a usage error still exits 2
//! when the diagnostic cannot be written (stderr is a pipe whose reader
//! has gone), instead of panicking with exit code 101.

use std::process::{Command, Stdio};

/// Runs `etsc-cli` with stderr on a pipe whose read end was dropped
/// first, and returns the exit code.
fn exit_code_with_closed_stderr(args: &[&str]) -> i32 {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_etsc-cli"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("etsc-cli runs");
    status.code().expect("exited, not killed by a signal")
}

#[test]
fn no_arguments_exit_2_with_stderr_closed() {
    assert_eq!(exit_code_with_closed_stderr(&[]), 2);
}

#[test]
fn usage_errors_exit_2_with_stderr_closed() {
    // A refused flag, a bare word where a flag belongs, and a flag
    // without its value.
    for args in [
        &[
            "serve",
            "--model",
            "M",
            "--listen",
            "127.0.0.1:0",
            "--codel-target-ms",
            "5",
        ][..],
        &["list-algorithms", "oops"],
        &["evaluate", "--dataset"],
    ] {
        assert_eq!(exit_code_with_closed_stderr(args), 2, "{args:?}");
    }
}
