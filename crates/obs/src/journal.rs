//! Checksummed JSONL write-ahead journal.
//!
//! A journal is an append-only text file, one record per line:
//!
//! ```text
//! {"seq":0,"crc":"9c56d8e7a1b2c3d4","body":{...}}
//! {"seq":1,"crc":"0f1e2d3c4b5a6978","body":{...}}
//! ```
//!
//! `seq` is the dense record index starting at 0; `crc` is the FNV-1a
//! 64-bit hash ([`crate::hash::fnv1a64_hex`]) of the *body*'s canonical
//! serialization, so a bit flip anywhere in a record is detectable
//! without trusting the rest of the file. Records are flushed as they
//! are written and the file is `fsync`ed at sync points, making the
//! journal the crash-consistent source of truth for a run: after a
//! crash, every fully written record is intact and at most the final
//! line is torn.
//!
//! This module is deliberately *structural*: it knows about sequence
//! numbers, checksums, and torn tails, but nothing about what the
//! bodies mean. The engine layers run-state semantics (header /
//! checkpoint / verdict records) on top, and `lint::lint_journal`
//! provides the lenient triage scanner with stable `JN` codes.

use crate::hash::fnv1a64_hex;
use crate::json::{self, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// One fully validated journal record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Dense record index, starting at 0.
    pub seq: u64,
    /// The record payload.
    pub body: Value,
}

/// Error reading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A damaged record that a clean crash cannot leave behind: JSON
    /// damage or a checksum mismatch *before the final line*, or a
    /// sequence gap on any line. It is a hard error.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "i/o error reading journal: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "corrupt journal at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The records of a journal plus whether the final line was torn (an
/// incomplete or checksum-failing last record, dropped on load — the
/// expected aftermath of a crash mid-write).
#[derive(Debug)]
pub struct JournalContents {
    /// Every intact record, in order, with dense `seq` validated.
    pub records: Vec<Record>,
    /// Whether a damaged final line was dropped.
    pub truncated_tail: bool,
}

/// Why a journal line is not the record expected next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordDefect {
    /// Not a JSON object with `seq`, `crc` and `body` fields.
    Malformed(String),
    /// The body does not hash to the recorded checksum.
    Checksum {
        /// The checksum the record carries.
        recorded: String,
        /// The checksum of the body as read.
        actual: String,
    },
    /// An intact record with the wrong sequence number.
    SequenceGap {
        /// The sequence number due at this line.
        expected: u64,
        /// The sequence number the record carries.
        found: u64,
    },
}

impl RecordDefect {
    /// Whether a crash mid-write can leave this defect on the final
    /// line. A torn write breaks the JSON or the checksum; it cannot
    /// produce an intact record under a wrong sequence number.
    #[must_use]
    pub fn is_torn_write(&self) -> bool {
        !matches!(self, RecordDefect::SequenceGap { .. })
    }
}

impl fmt::Display for RecordDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordDefect::Malformed(m) => f.write_str(m),
            RecordDefect::Checksum { recorded, actual } => {
                write!(f, "checksum mismatch: recorded {recorded}, actual {actual}")
            }
            RecordDefect::SequenceGap { expected, found } => {
                write!(f, "sequence gap: expected seq {expected}, found {found}")
            }
        }
    }
}

/// Parses one journal line as the record with sequence number
/// `expected_seq`.
///
/// # Errors
///
/// Returns the [`RecordDefect`] that makes the line something else.
pub fn parse_record(line: &str, expected_seq: u64) -> Result<Record, RecordDefect> {
    let malformed = |m: &str| RecordDefect::Malformed(m.to_string());
    let v = json::parse(line)
        .map_err(|e| RecordDefect::Malformed(format!("not a JSON record: {e}")))?;
    let seq = v
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed("missing `seq` field"))?;
    let crc = v
        .get("crc")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("missing `crc` field"))?;
    let body = v
        .get("body")
        .ok_or_else(|| malformed("missing `body` field"))?;
    let actual = fnv1a64_hex(body.to_string().as_bytes());
    if actual != crc {
        return Err(RecordDefect::Checksum {
            recorded: crc.to_string(),
            actual,
        });
    }
    if seq != expected_seq {
        return Err(RecordDefect::SequenceGap {
            expected: expected_seq,
            found: seq,
        });
    }
    Ok(Record {
        seq,
        body: body.clone(),
    })
}

/// Reads and validates a journal from `r`.
///
/// A final line torn by a crash mid-write (see
/// [`RecordDefect::is_torn_write`]) is dropped and reported via
/// [`JournalContents::truncated_tail`]; any other defect is a
/// [`JournalError::Corrupt`].
///
/// # Errors
///
/// I/O failures and corruption.
pub fn read_journal<R: Read>(mut r: R) -> Result<JournalContents, JournalError> {
    let mut text = String::new();
    r.read_to_string(&mut text)
        .map_err(|e| JournalError::Io(io::Error::new(e.kind(), format!("journal: {e}"))))?;
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    let mut truncated_tail = false;
    for (i, line) in lines.iter().enumerate() {
        match parse_record(line, records.len() as u64) {
            Ok(rec) => records.push(rec),
            Err(defect) if i + 1 == lines.len() && defect.is_torn_write() => {
                truncated_tail = true;
            }
            Err(defect) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    reason: defect.to_string(),
                })
            }
        }
    }
    Ok(JournalContents {
        records,
        truncated_tail,
    })
}

/// Byte length and record count of the longest intact record prefix:
/// complete (newline-terminated) lines that parse as records with dense
/// sequence numbers, blank lines tolerated as [`read_journal`] does.
/// Everything past the returned offset is damage — at most a torn tail
/// when the journal was read successfully beforehand.
fn intact_prefix(bytes: &[u8]) -> (usize, u64) {
    let mut offset = 0;
    let mut records = 0u64;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // unterminated tail — torn mid-write
        };
        let Ok(line) = std::str::from_utf8(&bytes[offset..offset + nl]) else {
            break;
        };
        if !line.trim().is_empty() {
            if parse_record(line, records).is_err() {
                break;
            }
            records += 1;
        }
        offset += nl + 1;
    }
    (offset, records)
}

/// Reads and validates the journal file at `path`.
///
/// # Errors
///
/// See [`read_journal`].
pub fn read_journal_file(path: &Path) -> Result<JournalContents, JournalError> {
    read_journal(File::open(path)?)
}

/// Appends checksummed records to a journal file, flushing each record
/// as it is written. [`JournalWriter::sync`] additionally forces the
/// records to stable storage — call it at the boundaries a crash must
/// not roll back past.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    next_seq: u64,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// Forwards file-creation failures.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
            next_seq: 0,
        })
    }

    /// Opens `path` for appending, continuing at `next_seq` (the record
    /// count of the validated existing contents).
    ///
    /// A crash can leave a torn final line; appending straight after it
    /// would fuse the first new record onto the damaged partial and turn
    /// benign tail damage into mid-file corruption. The file is first
    /// truncated back to the end of its intact record prefix — the same
    /// prefix [`read_journal`] returns — so the torn tail is dropped
    /// exactly once, at resume time.
    ///
    /// # Errors
    ///
    /// Forwards file-open failures. Returns [`io::ErrorKind::InvalidData`]
    /// when the intact prefix does not hold exactly `next_seq` records —
    /// the caller's view of the journal (normally from [`read_journal`])
    /// disagrees with the file, and truncating on a stale view could
    /// destroy acknowledged records.
    pub fn append(path: &Path, next_seq: u64) -> io::Result<JournalWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (keep, intact) = intact_prefix(&bytes);
        if intact != next_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal holds {intact} intact records, caller expected {next_seq}"),
            ));
        }
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
        }
        file.seek(SeekFrom::Start(keep as u64))?;
        Ok(JournalWriter { file, next_seq })
    }

    /// The sequence number the next record will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and flushes it to the OS. Returns the record's
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Forwards write failures.
    pub fn write(&mut self, body: &Value) -> io::Result<u64> {
        let seq = self.next_seq;
        let body_text = body.to_string();
        let crc = fnv1a64_hex(body_text.as_bytes());
        writeln!(
            self.file,
            "{{\"seq\":{seq},\"crc\":\"{crc}\",\"body\":{body_text}}}"
        )?;
        self.file.flush()?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Forces everything written so far to stable storage.
    ///
    /// # Errors
    ///
    /// Forwards `fsync` failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("obs-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn body(i: u64) -> Value {
        Value::Object(vec![
            ("type".into(), Value::str("checkpoint")),
            ("round".into(), Value::U64(i)),
        ])
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmp("rt.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..5 {
            assert_eq!(w.write(&body(i)).unwrap(), i);
        }
        w.sync().unwrap();
        let c = read_journal_file(&path).unwrap();
        assert_eq!(c.records.len(), 5);
        assert!(!c.truncated_tail);
        assert_eq!(c.records[3].body, body(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_continues_sequence() {
        let path = tmp("append.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(&body(0)).unwrap();
        drop(w);
        let mut w = JournalWriter::append(&path, 1).unwrap();
        w.write(&body(1)).unwrap();
        let c = read_journal_file(&path).unwrap();
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[1].seq, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(&body(0)).unwrap();
        w.write(&body(1)).unwrap();
        drop(w);
        // Simulate a crash mid-write of record 2.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":2,\"crc\":\"dead");
        std::fs::write(&path, &text).unwrap();
        let c = read_journal_file(&path).unwrap();
        assert_eq!(c.records.len(), 2);
        assert!(c.truncated_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_torn_tail_drops_the_tail() {
        let path = tmp("torn-append.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(&body(0)).unwrap();
        w.write(&body(1)).unwrap();
        drop(w);
        // Crash mid-write of record 2: newline-less partial line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":2,\"crc\":\"dead");
        std::fs::write(&path, &text).unwrap();
        let mut w = JournalWriter::append(&path, 2).unwrap();
        assert_eq!(w.write(&body(2)).unwrap(), 2);
        drop(w);
        let c = read_journal_file(&path).unwrap();
        assert_eq!(c.records.len(), 3);
        assert!(!c.truncated_tail);
        assert_eq!(c.records[2].body, body(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_with_stale_record_count_is_refused() {
        let path = tmp("stale-append.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        w.write(&body(0)).unwrap();
        w.write(&body(1)).unwrap();
        drop(w);
        // A caller whose view disagrees with the file must not get a
        // writer — truncating on a stale view could destroy records.
        let err = JournalWriter::append(&path, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let c = read_journal_file(&path).unwrap();
        assert_eq!(c.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = tmp("mid.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..3 {
            w.write(&body(i)).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside record 1's body.
        let corrupted = text.replacen("\"round\":1", "\"round\":7", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, &corrupted).unwrap();
        match read_journal_file(&path) {
            Err(JournalError::Corrupt { line: 2, reason }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected corrupt line 2, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sequence_gap_is_fatal() {
        let path = tmp("gap.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..3 {
            w.write(&body(i)).unwrap();
        }
        w.write(&body(3)).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        // Drop record 1 entirely: records 2,3 now have gapped seqs.
        let lines: Vec<&str> = text.lines().collect();
        let gapped = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        std::fs::write(&path, &gapped).unwrap();
        match read_journal_file(&path) {
            Err(JournalError::Corrupt { line: 2, reason }) => {
                assert!(reason.contains("sequence gap"), "{reason}");
            }
            other => panic!("expected gap at line 2, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn intact_final_record_with_wrong_seq_is_corrupt_not_torn() {
        let path = tmp("forged-tail.journal");
        let mut w = JournalWriter::create(&path).unwrap();
        for i in 0..3 {
            w.write(&body(i)).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        // Forge the final record's seq; its body and checksum stay intact.
        let forged = text.replacen("{\"seq\":2,", "{\"seq\":9,", 1);
        assert_ne!(text, forged);
        match read_journal(forged.as_bytes()) {
            Err(JournalError::Corrupt { line: 3, reason }) => {
                assert!(reason.contains("sequence gap"), "{reason}");
            }
            other => panic!("expected a gap at line 3, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_journal_reads_empty() {
        let c = read_journal(&b""[..]).unwrap();
        assert!(c.records.is_empty());
        assert!(!c.truncated_tail);
    }
}
