//! Append-only JSONL checkpoint journal for evaluation-matrix runs.
//!
//! The journal lets an interrupted (dataset × algorithm) sweep resume
//! from where it died without recomputing finished cells — the
//! operational counterpart of the paper's partial-result reporting
//! (DNF cells are recorded and the run continues).
//!
//! Format: one JSON object per line. The first line is a header
//! binding the journal to a run configuration (seed, folds, budget,
//! matrix shape); every following line is one completed cell. A
//! process killed mid-write leaves at most one torn trailing line,
//! which is ignored on resume. There is no serde in this workspace:
//! lines are written by hand and read with [`etsc_obs::json`].

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use etsc_core::EtscError;
use etsc_obs::json::{parse, write_escaped, JsonValue};

use crate::experiment::{AlgoSpec, RunConfig, RunResult};
use crate::metrics::Metrics;
use crate::supervisor::CellOutcome;

/// Journal schema version; bumped on incompatible format changes.
pub const JOURNAL_VERSION: u64 = 1;

/// Run identity recorded in (and verified against) the journal header.
/// Resuming under a different seed, fold count, budget, or matrix shape
/// would silently mix incompatible results, so any mismatch is an error.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// CV/shuffling seed of the run.
    pub seed: u64,
    /// Cross-validation folds.
    pub folds: usize,
    /// Universal training budget, seconds.
    pub budget_secs: f64,
    /// Number of datasets in the matrix.
    pub datasets: usize,
    /// Number of algorithms in the matrix.
    pub algos: usize,
}

impl JournalHeader {
    /// Builds the header describing a matrix run.
    pub fn for_run(config: &RunConfig, datasets: usize, algos: usize) -> JournalHeader {
        JournalHeader {
            seed: config.seed,
            folds: config.folds,
            budget_secs: config.train_budget.as_secs_f64(),
            datasets,
            algos,
        }
    }
}

/// Append-only writer over the journal file.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Creates (or truncates) a journal and writes the header line.
    ///
    /// # Errors
    /// File-system failures, reported as [`EtscError::Config`].
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, EtscError> {
        let file = File::create(path).map_err(|e| io_error(path, &e))?;
        let mut journal = Journal {
            writer: BufWriter::new(file),
        };
        journal.write_line(&header_line(header))?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption: verifies the header
    /// against `header`, returns the completed cells plus any non-fatal
    /// warnings, and reopens the file in append mode. A torn trailing
    /// line (from a mid-write kill) is treated as a not-yet-written
    /// cell: it is reported as a warning, physically truncated away so
    /// later appends stay well-formed, and the resume continues.
    ///
    /// # Errors
    /// Missing/unreadable file, a header that does not match the
    /// requested run, or mid-file corruption (a malformed line
    /// *followed by* valid cells — that is tampering, not a torn tail,
    /// and resuming over it would silently duplicate work).
    pub fn open_resume(
        path: &Path,
        header: &JournalHeader,
    ) -> Result<(Journal, Vec<CellOutcome>, Vec<String>), EtscError> {
        let read = read_journal(path)?;
        if read.header != *header {
            return Err(EtscError::Config(format!(
                "journal {} was written by a different run \
                 (journal: {:?}, requested: {header:?})",
                path.display(),
                read.header
            )));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_error(path, &e))?;
        // Drop the torn tail (and any missing final newline) so the
        // next append starts on a fresh line.
        file.set_len(read.valid_len)
            .map_err(|e| io_error(path, &e))?;
        let mut file = file;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_error(path, &e))?;
        let mut journal = Journal {
            writer: BufWriter::new(file),
        };
        if read.needs_newline {
            journal
                .writer
                .write_all(b"\n")
                .and_then(|()| journal.writer.flush())
                .map_err(|e| io_error(path, &e))?;
        }
        Ok((journal, read.cells, read.warnings))
    }

    /// Appends one completed cell and flushes, so a kill immediately
    /// after loses at most the cell being written.
    ///
    /// # Errors
    /// File-system failures, reported as [`EtscError::Config`].
    pub fn append(&mut self, cell: &CellOutcome) -> Result<(), EtscError> {
        self.write_line(&cell_line(cell))
    }

    fn write_line(&mut self, line: &str) -> Result<(), EtscError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| EtscError::Config(format!("journal write failed: {e}")))
    }
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug)]
pub struct JournalRead {
    /// The parsed header line.
    pub header: JournalHeader,
    /// Every valid cell line, in file order.
    pub cells: Vec<CellOutcome>,
    /// Non-fatal anomalies tolerated during the read (a torn trailing
    /// line from a mid-write kill).
    pub warnings: Vec<String>,
    /// Byte length of the valid prefix (header + parsed cells,
    /// newlines included); everything past it is the torn tail.
    pub valid_len: u64,
    /// `true` when the last valid line is missing its final newline
    /// (the writer was killed between the line and the separator).
    pub needs_newline: bool,
}

/// Reads a journal file: the header plus every parseable cell line.
/// A malformed *final* line — the torn tail of a killed run — is
/// tolerated and reported as a warning; a malformed line followed by
/// valid cells is corruption and an error.
///
/// # Errors
/// Unreadable file, missing/invalid header line, or mid-file
/// corruption.
pub fn read_journal(path: &Path) -> Result<JournalRead, EtscError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, &e))?;
    let mut lines = text.split_inclusive('\n').peekable();
    let header_raw = lines.next().ok_or_else(|| {
        EtscError::Config(format!("journal {} has no header line", path.display()))
    })?;
    let header_text = header_raw.trim_end_matches(['\n', '\r']);
    let header = parse_header(header_text).ok_or_else(|| {
        EtscError::Config(format!(
            "journal {} has an invalid header: {header_text}",
            path.display()
        ))
    })?;
    let mut cells = Vec::new();
    let mut warnings = Vec::new();
    let mut valid_len = header_raw.len() as u64;
    let mut needs_newline = !header_raw.ends_with('\n');
    let mut line_no = 1usize;
    while let Some(raw) = lines.next() {
        line_no += 1;
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            valid_len += raw.len() as u64;
            continue;
        }
        match parse_cell(line) {
            Some(cell) => {
                cells.push(cell);
                valid_len += raw.len() as u64;
                needs_newline = !raw.ends_with('\n');
            }
            None if lines.peek().is_none() => {
                // Torn tail from a mid-write kill: the cell was never
                // durably recorded, so it is simply not-yet-written.
                warnings.push(format!(
                    "journal {}: ignoring torn trailing line {line_no} \
                     ({} bytes); the interrupted cell will be recomputed",
                    path.display(),
                    raw.len()
                ));
            }
            None => {
                return Err(EtscError::Config(format!(
                    "journal {} is corrupt: line {line_no} is malformed but \
                     valid cells follow it (not a torn tail)",
                    path.display()
                )));
            }
        }
    }
    Ok(JournalRead {
        header,
        cells,
        warnings,
        valid_len,
        needs_newline,
    })
}

fn io_error(path: &Path, e: &std::io::Error) -> EtscError {
    EtscError::Config(format!("journal {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn header_line(h: &JournalHeader) -> String {
    format!(
        "{{\"kind\":\"header\",\"version\":{JOURNAL_VERSION},\"seed\":{},\"folds\":{},\
         \"budget_secs\":{},\"datasets\":{},\"algos\":{}}}",
        h.seed,
        h.folds,
        num(h.budget_secs),
        h.datasets,
        h.algos
    )
}

fn cell_line(cell: &CellOutcome) -> String {
    let mut out = String::from("{\"kind\":\"cell\"");
    let _ = write!(
        out,
        ",\"status\":\"{}\",\"algo\":",
        cell.status().label().to_ascii_lowercase()
    );
    write_escaped(&mut out, cell.algo().name());
    out.push_str(",\"dataset\":");
    write_escaped(&mut out, cell.dataset());
    match cell {
        CellOutcome::Finished(r) => {
            let _ = write!(
                out,
                ",\"train_secs\":{},\"test_secs_per_instance\":{}",
                num(r.train_secs),
                num(r.test_secs_per_instance)
            );
            if let Some(m) = &r.metrics {
                let _ = write!(
                    out,
                    ",\"accuracy\":{},\"f1\":{},\"earliness\":{},\"harmonic_mean\":{}",
                    num(m.accuracy),
                    num(m.f1),
                    num(m.earliness),
                    num(m.harmonic_mean)
                );
            }
        }
        CellOutcome::Failed {
            error, attempts, ..
        } => {
            let _ = write!(out, ",\"attempts\":{attempts},\"error\":");
            write_escaped(&mut out, error);
        }
        CellOutcome::Panicked { message, .. } => {
            out.push_str(",\"message\":");
            write_escaped(&mut out, message);
        }
    }
    out.push('}');
    out
}

/// Shortest-roundtrip numeric literal: Rust's `Display` for finite
/// floats reparses to the identical bit pattern; non-finite values have
/// no JSON literal and become `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// The number under `key`; `null` — how [`num`] writes a non-finite
/// value — reads as NaN.
fn f64_at(obj: &JsonValue, key: &str) -> Option<f64> {
    match obj.get(key)? {
        JsonValue::Null => Some(f64::NAN),
        value => value.as_f64(),
    }
}

fn parse_header(line: &str) -> Option<JournalHeader> {
    let obj = parse(line).ok()?;
    if obj.get("kind")?.as_str()? != "header" || obj.get("version")?.as_u64()? != JOURNAL_VERSION {
        return None;
    }
    Some(JournalHeader {
        seed: obj.get("seed")?.as_u64()?,
        folds: obj.get("folds")?.as_u64()? as usize,
        budget_secs: f64_at(&obj, "budget_secs")?,
        datasets: obj.get("datasets")?.as_u64()? as usize,
        algos: obj.get("algos")?.as_u64()? as usize,
    })
}

fn parse_cell(line: &str) -> Option<CellOutcome> {
    let obj = parse(line).ok()?;
    if obj.get("kind")?.as_str()? != "cell" {
        return None;
    }
    let algo = AlgoSpec::by_name(obj.get("algo")?.as_str()?)?;
    let dataset = obj.get("dataset")?.as_str()?.to_owned();
    match obj.get("status")?.as_str()? {
        "ok" => Some(CellOutcome::Finished(RunResult {
            algo,
            dataset,
            metrics: Some(Metrics {
                accuracy: f64_at(&obj, "accuracy")?,
                f1: f64_at(&obj, "f1")?,
                earliness: f64_at(&obj, "earliness")?,
                harmonic_mean: f64_at(&obj, "harmonic_mean")?,
            }),
            train_secs: f64_at(&obj, "train_secs")?,
            test_secs_per_instance: f64_at(&obj, "test_secs_per_instance")?,
            dnf: false,
        })),
        "dnf" => Some(CellOutcome::Finished(RunResult {
            algo,
            dataset,
            metrics: None,
            train_secs: f64_at(&obj, "train_secs")?,
            test_secs_per_instance: f64_at(&obj, "test_secs_per_instance")?,
            dnf: true,
        })),
        "err" => Some(CellOutcome::Failed {
            algo,
            dataset,
            error: obj.get("error")?.as_str()?.to_owned(),
            attempts: obj.get("attempts")?.as_u64()? as usize,
        }),
        "panic" => Some(CellOutcome::Panicked {
            algo,
            dataset,
            message: obj.get("message")?.as_str()?.to_owned(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("etsc-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_cells() -> Vec<CellOutcome> {
        vec![
            CellOutcome::Finished(RunResult {
                algo: AlgoSpec::Ects,
                dataset: "PowerCons".into(),
                metrics: Some(Metrics {
                    accuracy: 0.9125,
                    f1: 1.0 / 3.0,
                    earliness: 0.1 + 0.2, // deliberately non-representable
                    harmonic_mean: 0.666_666_666_666_7,
                }),
                train_secs: 0.012_345,
                test_secs_per_instance: 1.5e-6,
                dnf: false,
            }),
            CellOutcome::Finished(RunResult {
                algo: AlgoSpec::Edsc,
                dataset: "HouseTwenty".into(),
                metrics: None,
                train_secs: 120.0,
                test_secs_per_instance: 0.0,
                dnf: true,
            }),
            CellOutcome::Failed {
                algo: AlgoSpec::Teaser,
                dataset: "weird \"name\"\twith\nescapes\\".into(),
                error: "data error: empty fold".into(),
                attempts: 3,
            },
            CellOutcome::Panicked {
                algo: AlgoSpec::SMini,
                dataset: "Maritime".into(),
                message: "index out of bounds: the len is 4".into(),
            },
        ]
    }

    fn header() -> JournalHeader {
        JournalHeader {
            seed: 2024,
            folds: 5,
            budget_secs: Duration::from_secs(120).as_secs_f64(),
            datasets: 3,
            algos: 8,
        }
    }

    #[test]
    fn roundtrip_preserves_every_outcome_exactly() {
        let path = tmp("roundtrip.jsonl");
        let mut journal = Journal::create(&path, &header()).unwrap();
        for cell in &sample_cells() {
            journal.append(cell).unwrap();
        }
        drop(journal);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, header());
        assert!(read.warnings.is_empty());
        let cells = read.cells;
        assert_eq!(cells.len(), 4);
        for (a, b) in cells.iter().zip(sample_cells().iter()) {
            match (a, b) {
                (CellOutcome::Finished(x), CellOutcome::Finished(y)) => {
                    assert_eq!(x.algo, y.algo);
                    assert_eq!(x.dataset, y.dataset);
                    assert_eq!(x.metrics, y.metrics, "f64 roundtrip must be exact");
                    assert_eq!(x.train_secs, y.train_secs);
                    assert_eq!(x.test_secs_per_instance, y.test_secs_per_instance);
                    assert_eq!(x.dnf, y.dnf);
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }

    #[test]
    fn resume_rejects_mismatched_header() {
        let path = tmp("mismatch.jsonl");
        Journal::create(&path, &header()).unwrap();
        let other = JournalHeader {
            seed: 1,
            ..header()
        };
        let err = Journal::open_resume(&path, &other).unwrap_err();
        assert!(err.to_string().contains("different run"), "{err}");
    }

    #[test]
    fn torn_tail_is_ignored_with_warning() {
        let path = tmp("torn.jsonl");
        let mut journal = Journal::create(&path, &header()).unwrap();
        for cell in &sample_cells()[..2] {
            journal.append(cell).unwrap();
        }
        drop(journal);
        // Simulate a kill mid-write: append half a record.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"kind\":\"cell\",\"status\":\"ok\",\"algo\":\"EC").unwrap();
        drop(f);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.cells.len(), 2);
        assert_eq!(read.warnings.len(), 1);
        assert!(
            read.warnings[0].contains("torn trailing line"),
            "{:?}",
            read.warnings
        );
        assert!((read.valid_len as usize) < std::fs::metadata(&path).unwrap().len() as usize);
    }

    #[test]
    fn resume_truncates_torn_tail_and_appends_cleanly() {
        let path = tmp("torn-resume.jsonl");
        let mut journal = Journal::create(&path, &header()).unwrap();
        journal.append(&sample_cells()[0]).unwrap();
        drop(journal);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"kind\":\"cell\",\"sta").unwrap();
        drop(f);
        let (mut journal, cells, warnings) = Journal::open_resume(&path, &header()).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(warnings.len(), 1);
        journal.append(&sample_cells()[1]).unwrap();
        drop(journal);
        // The torn bytes are gone and the new cell parses: a second
        // resume sees both cells and no warnings.
        let read = read_journal(&path).unwrap();
        assert_eq!(read.cells.len(), 2);
        assert!(read.warnings.is_empty(), "{:?}", read.warnings);
    }

    #[test]
    fn midfile_corruption_is_an_error_not_a_silent_truncation() {
        let path = tmp("midfile.jsonl");
        let mut journal = Journal::create(&path, &header()).unwrap();
        journal.append(&sample_cells()[0]).unwrap();
        drop(journal);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "garbage line").unwrap();
        drop(f);
        // Valid cell after the garbage => corruption, not a torn tail.
        let mut journal = Journal {
            writer: BufWriter::new(OpenOptions::new().append(true).open(&path).unwrap()),
        };
        journal.append(&sample_cells()[1]).unwrap();
        drop(journal);
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn resume_appends_after_existing_cells() {
        let path = tmp("resume-append.jsonl");
        let mut journal = Journal::create(&path, &header()).unwrap();
        journal.append(&sample_cells()[0]).unwrap();
        drop(journal);
        let (mut journal, cells, warnings) = Journal::open_resume(&path, &header()).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(warnings.is_empty());
        journal.append(&sample_cells()[1]).unwrap();
        drop(journal);
        assert_eq!(read_journal(&path).unwrap().cells.len(), 2);
    }

    #[test]
    fn missing_file_and_missing_header_error() {
        assert!(read_journal(&tmp("does-not-exist.jsonl")).is_err());
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::write(&path, "not json\n").unwrap();
        assert!(read_journal(&path).is_err());
    }

    #[test]
    fn numeric_literals_roundtrip_exactly() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -0.0,
            123456.789,
        ] {
            let s = num(x);
            let y: f64 = s.parse().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {s}");
        }
        assert_eq!(num(f64::NAN), "null");
    }
}
