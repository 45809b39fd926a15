//! Two runs of a workload with one seed plan the same work (sessions,
//! rows, frames, bytes) and receive the same decisions, whatever the
//! timing; a different seed draws different inputs.

use std::process::Command;

fn run(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_etsc-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with(r#"{"correct": true,"#),
        "{workload}: {last}"
    );
    assert!(last.contains(r#""failed": 0,"#), "{workload}: {last}");
    stdout
}

/// The plan lines and the decision digest: what must repeat exactly.
fn fixed(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("plan ") || l.contains("digest"))
        .collect()
}

fn repeats(workload: &str) {
    let (a, b) = (run(workload, 7), run(workload, 7));
    assert!(fixed(&a).len() >= 2, "{a}");
    assert_eq!(fixed(&a), fixed(&b));
    assert_ne!(fixed(&a), fixed(&run(workload, 8)));
}

#[test]
fn replay_wide_repeats_for_a_seed() {
    repeats("replay-wide");
}

#[test]
fn wire_direct_repeats_for_a_seed() {
    repeats("wire-direct");
}

#[test]
fn wire_fleet_repeats_for_a_seed() {
    repeats("wire-fleet");
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_etsc-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
