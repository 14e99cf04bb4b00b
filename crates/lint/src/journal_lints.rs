//! Lenient triage scanner for durability run-state journals.
//!
//! Where `obs::journal::read_journal` is the *strict* loader (first
//! defect wins, typed error), this pass reads the whole file with the
//! same [`parse_record`] and maps every defect class to a stable `JN`
//! code, so a corrupted journal can be triaged line by line. A journal
//! left behind by a crash is *supposed* to look a particular way — at
//! most a torn final line ([`JN005`](crate::JN005), warning) and no
//! verdict record ([`JN006`](crate::JN006), info) — so only damage that
//! a clean crash cannot produce is an error.

use crate::{Artifact, Location, Report, JN001, JN002, JN003, JN004, JN005, JN006, JN007};
use obs::journal::{parse_record, RecordDefect};
use obs::json::Value;
use std::io::{self, BufRead};

/// Lints a durability journal read from `r`.
///
/// # Errors
///
/// Forwards I/O errors from `r`; every *content* defect becomes a
/// diagnostic instead.
pub fn lint_journal<R: BufRead>(r: R) -> io::Result<Report> {
    let mut report = Report::new(Artifact::Journal);
    let mut lines: Vec<(u32, String)> = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        lines.push((i as u32 + 1, line));
    }

    let mut intact = 0u64;
    let mut saw_header = false;
    let mut saw_verdict = false;
    for (i, (line_no, line)) in lines.iter().enumerate() {
        let here = Some(Location::Line(*line_no));
        let record = match parse_record(line, intact) {
            Ok(record) => record,
            // A torn final line is the expected shape of a crash.
            Err(defect) if i + 1 == lines.len() && defect.is_torn_write() => {
                report.emit(JN005, here, || {
                    format!("final line is torn (dropped on load): {defect}")
                });
                continue;
            }
            Err(defect) => {
                let lint = match defect {
                    RecordDefect::Malformed(_) => JN001,
                    RecordDefect::Checksum { .. } => JN002,
                    RecordDefect::SequenceGap { found, .. } => {
                        // Resynchronize so one gap doesn't cascade down the file.
                        intact = found.saturating_add(1);
                        JN003
                    }
                };
                report.emit(lint, here, || defect.to_string());
                continue;
            }
        };
        intact = record.seq.saturating_add(1);
        let kind = record.body.get("type").and_then(Value::as_str);
        match kind.unwrap_or("") {
            "header" if record.seq == 0 => saw_header = true,
            "header" => report.emit(JN007, here, || {
                "header record after the first record".into()
            }),
            "verdict" => saw_verdict = true,
            "checkpoint" => {}
            kind => report.emit(JN001, here, || {
                format!("unknown record type `{kind}` (expected header, checkpoint or verdict)")
            }),
        }
    }

    if !saw_header {
        report.emit(JN004, None, || {
            "journal does not begin with a header record".into()
        });
    }
    if !saw_verdict {
        report.emit(JN006, None, || "no verdict record — run incomplete".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::journal::JournalWriter;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn record(kind: &str, extra: &[(&str, Value)]) -> Value {
        let mut entries = vec![("type".to_string(), Value::str(kind))];
        for (k, v) in extra {
            entries.push(((*k).to_string(), v.clone()));
        }
        Value::Object(entries)
    }

    /// Writes a well-formed journal to a string via a temp file. The
    /// file is named by process and call, so tests running in parallel
    /// never share one.
    fn journal_text(bodies: &[Value]) -> String {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lint-journal-test-{}-{}.journal",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = JournalWriter::create(&p).unwrap();
        for b in bodies {
            w.write(b).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&p).unwrap();
        let _ = std::fs::remove_file(&p);
        text
    }

    fn lint(text: &str) -> Report {
        lint_journal(Cursor::new(text)).unwrap()
    }

    #[test]
    fn complete_journal_is_clean() {
        let text = journal_text(&[
            record("header", &[("format", Value::U64(1))]),
            record("checkpoint", &[("phase", Value::str("sweep"))]),
            record("verdict", &[("equivalent", Value::Bool(true))]),
        ]);
        let r = lint(&text);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.counts().warnings, 0);
        assert_eq!(r.counts().infos, 0);
    }

    #[test]
    fn crashed_journal_is_unfinished_not_corrupt() {
        let mut text = journal_text(&[
            record("header", &[("format", Value::U64(1))]),
            record("checkpoint", &[("phase", Value::str("miter"))]),
        ]);
        text.push_str("{\"seq\":2,\"crc\":\"00");
        let r = lint(&text);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert!(r.has("JN005"));
        assert!(r.has("JN006"));
    }

    #[test]
    fn mid_file_damage_is_an_error() {
        let text = journal_text(&[
            record("header", &[("format", Value::U64(1))]),
            record("checkpoint", &[("phase", Value::str("miter"))]),
            record("verdict", &[("equivalent", Value::Bool(true))]),
        ]);
        // Flip a byte in the middle record's body.
        let flipped = text.replacen("miter", "mitre", 1);
        let r = lint(&flipped);
        assert!(r.has("JN002"), "{:?}", r.diagnostics());
        assert!(!r.is_clean());

        // Destroy the middle record's JSON entirely.
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!("{}\nnot json at all\n{}\n", lines[0], lines[2]);
        let r = lint(&mangled);
        assert!(r.has("JN001"), "{:?}", r.diagnostics());
        // The surviving verdict record now has a gapped seq.
        assert!(r.has("JN003"), "{:?}", r.diagnostics());
    }

    #[test]
    fn missing_and_duplicate_headers() {
        let text = journal_text(&[record("checkpoint", &[("phase", Value::str("sim"))])]);
        let r = lint(&text);
        assert!(r.has("JN004"), "{:?}", r.diagnostics());

        let text = journal_text(&[
            record("header", &[("format", Value::U64(1))]),
            record("header", &[("format", Value::U64(1))]),
        ]);
        let r = lint(&text);
        assert!(r.has("JN007"), "{:?}", r.diagnostics());
    }

    #[test]
    fn unknown_record_type_is_a_parse_error() {
        let text = journal_text(&[
            record("header", &[("format", Value::U64(1))]),
            record("warp", &[]),
            record("verdict", &[("equivalent", Value::Bool(true))]),
        ]);
        let r = lint(&text);
        assert!(r.has("JN001"), "{:?}", r.diagnostics());
    }

    #[test]
    fn empty_journal_reports_missing_header() {
        let r = lint("");
        assert!(r.has("JN004"));
        assert!(r.has("JN006"));
    }
}
