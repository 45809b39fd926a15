//! `etsc-cli` — the framework's command-line interface, mirroring the
//! reference implementation's `cli.py` (paper Section 5.5): list the
//! available algorithms and datasets, export/import datasets in the CSV
//! interchange format, run cross-validated evaluations, and stream a
//! single instance through an early classifier.
//!
//! ```text
//! etsc list-algorithms
//! etsc list-datasets
//! etsc generate --dataset Maritime --out maritime.csv [--height-scale S] [--length-scale S] [--seed N]
//! etsc evaluate (--dataset NAME | --data FILE --vars K) --algo NAME [--folds N] [--seed N] [--budget-secs N]
//! etsc matrix   [--datasets A,B,..] [--algos X,Y,..] [--journal FILE] [--resume] [--budget-secs N] [--retries N] [--threads N]
//! etsc stream   (--dataset NAME | --data FILE --vars K) --algo NAME [--instance I] [--seed N]
//! etsc train    (--dataset NAME | --data FILE --vars K) --algo NAME --save FILE [--seed N] [--budget-secs N]
//! etsc serve    --model FILE (--replay NAME | --data FILE --vars K) [--sessions N] [--workers N] [--obs-freq SECS]
//!               [--deadline-ms N] [--fallback wait|prior|decide-now] [--faults SPEC]
//! etsc serve    --model FILE --listen ADDR [--max-conns N] [--queue N] [--shed] [--deadline-ms N] [--fallback POLICY]
//!               [--faults SPEC --fault-sessions N] [--duration-secs N]
//! etsc predict  --model FILE (--dataset NAME | --data FILE --vars K) [--instance I] [--stream]
//! etsc predict  --connect ADDR (--dataset NAME | --data FILE --vars K) [--instance I] [--feedback]
//! ```

use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;

use etsc_cli::{run, CliError};

/// Writes one diagnostic line to stderr. Write errors are ignored: a
/// closed stderr (a pipe whose reader has exited) must not turn a
/// usage error into a panic and exit code 101.
fn diag(line: impl Display) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        diag(etsc_cli::USAGE);
        return ExitCode::from(2);
    };
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            diag(format_args!("error: expected a --flag, got {flag:?}"));
            return ExitCode::from(2);
        };
        // Boolean flags take no value.
        if etsc_eval::CommonOpts::SWITCHES.contains(&name)
            || matches!(name, "stream" | "shed" | "feedback" | "admission")
        {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let Some(value) = it.next() else {
            diag(format_args!("error: --{name} needs a value"));
            return ExitCode::from(2);
        };
        flags.insert(name.to_owned(), value.clone());
    }
    match run(command, &flags, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            diag(format_args!("error: {msg}"));
            diag(etsc_cli::USAGE);
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            diag(format_args!("error: {msg}"));
            ExitCode::FAILURE
        }
    }
}
