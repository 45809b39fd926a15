//! Exit codes survive a closed stderr: the bench binaries' usage errors
//! still exit 2 when the diagnostic cannot be written (stderr is a pipe
//! whose reader has gone), instead of panicking with exit code 101.

use std::process::{Command, Stdio};

/// Runs `bin` with stderr on a pipe whose read end was dropped first,
/// and returns the exit code.
fn exit_code_with_closed_stderr(bin: &str, args: &[&str]) -> i32 {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("the binary runs");
    status.code().expect("exited, not killed by a signal")
}

#[test]
fn reproduce_usage_errors_exit_2_with_stderr_closed() {
    // No target, an unknown target, and an unknown flag.
    for args in [&[][..], &["nosuchtarget"], &["table2", "--bogus"]] {
        let code = exit_code_with_closed_stderr(env!("CARGO_BIN_EXE_reproduce"), args);
        assert_eq!(code, 2, "{args:?}");
    }
}

#[test]
fn loadgen_and_ablation_usage_errors_exit_2_with_stderr_closed() {
    let loadgen = exit_code_with_closed_stderr(env!("CARGO_BIN_EXE_loadgen"), &["--bogus"]);
    assert_eq!(loadgen, 2);
    let ablation = exit_code_with_closed_stderr(env!("CARGO_BIN_EXE_ablation"), &["nosuchstudy"]);
    assert_eq!(ablation, 2);
}
