//! Lenient TraceCheck front-end.
//!
//! [`proof::import::read_tracecheck`] is strict: the first grammar or
//! reference violation aborts the whole read, which is the right call
//! for a checker but useless for triage — the defects the importer
//! rejects (forward references, id gaps) are exactly the ones a lint
//! pass should *report*. This scanner reads each line with the
//! importer's own [`parse_step`], turns every violation into a
//! diagnostic ([`RP008`] for grammar, [`RP009`] for id order, [`RP001`]
//! for bad references) and keeps going. When the file level is clean,
//! the steps are loaded into a [`proof::Proof`] and the full
//! [`crate::lint_proof`] pass runs on top.

use crate::{Artifact, LintOptions, Location, Report, RP001, RP008, RP009};
use proof::import::parse_step;
use proof::Proof;
use std::io::{self, BufRead};

/// Lints a TraceCheck file. File-level defects become diagnostics; if
/// there are none, the parsed proof additionally goes through
/// [`crate::lint_proof`] with the same options.
///
/// # Errors
///
/// Forwards I/O errors from `r`; *format* problems never error, they
/// are reported in the returned [`Report`].
pub fn lint_tracecheck<R: BufRead>(r: R, opts: &LintOptions) -> io::Result<Report> {
    let (mut report, proof) = read_tracecheck(r)?;
    if let Some(p) = proof {
        report.absorb(crate::lint_proof(&p, opts));
    }
    Ok(report)
}

/// Leniently reads a TraceCheck file, reporting file-level defects as
/// diagnostics. Returns the parsed [`Proof`] when the file level was
/// clean enough to load (no grammar errors, no bad references), and
/// `None` otherwise. Unlike [`lint_tracecheck`], the proof-level lint
/// pass does *not* run — callers that want a [`Proof`] to operate on
/// (bundle linting, `--fix`) use this entry point.
///
/// # Errors
///
/// Forwards I/O errors from `r`; *format* problems never error, they
/// are reported in the returned [`Report`].
pub fn read_tracecheck<R: BufRead>(r: R) -> io::Result<(Report, Option<Proof>)> {
    let mut report = Report::new(Artifact::Proof);
    let mut proof = Proof::new();
    let mut expected: u64 = 1;
    let mut file_ok = true;

    for (line_no, line) in r.lines().enumerate() {
        let here = Some(Location::Line(line_no as u32 + 1));
        let (id, parsed) = match parse_step(&line?) {
            Ok(None) => continue,
            Ok(Some(step)) => (Some(step.id), Ok(step)),
            Err(e) => (e.id, Err(e.message)),
        };
        if let Some(id) = id {
            if id != expected {
                report.emit(RP009, here, || {
                    format!("expected step id {expected}, found {id}")
                });
                file_ok = false;
            }
            // Count the step under its *declared* id so later antecedent
            // references still resolve the way the author intended.
            expected = id.saturating_add(1);
        }
        let step = match parsed {
            Ok(step) => step,
            Err(message) => {
                report.emit(RP008, here, || message);
                file_ok = false;
                continue;
            }
        };
        for &v in &step.dangling {
            let what = match u64::try_from(v) {
                Ok(cited) if cited == step.id => "itself",
                Ok(_) => "a later step",
                Err(_) => "a nonexistent step",
            };
            report.emit(RP001, here, || {
                format!("step {} cites {what} (antecedent {v})", step.id)
            });
            file_ok = false;
        }
        if file_ok {
            step.add_to(&mut proof);
        }
    }
    Ok((report, file_ok.then_some(proof)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Report {
        lint_tracecheck(text.as_bytes(), &LintOptions::default()).unwrap()
    }

    #[test]
    fn clean_refutation_passes_both_levels() {
        let r = lint("1 1 0 0\n2 -1 0 0\n3 0 1 2 0\n");
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }

    #[test]
    fn forward_and_self_references_are_rp001() {
        let r = lint("1 1 0 0\n2 2 0 0\n3 1 0 5 2 0\n");
        assert!(r.has("RP001"), "{:?}", r.diagnostics());
        assert!(!r.has("RP008"));
        let r = lint("1 1 0 0\n2 -1 0 2 0\n");
        assert!(r.has("RP001"));
    }

    #[test]
    fn id_gaps_are_rp009_not_fatal() {
        let r = lint("1 1 0 0\n3 -1 0 0\n");
        assert!(r.has("RP009"));
        assert_eq!(r.counts().errors, 1, "{:?}", r.diagnostics());
    }

    #[test]
    fn grammar_violations_are_rp008() {
        assert!(lint("1 1 0\n").has("RP008"));
        assert!(lint("1 1\n").has("RP008"));
        assert!(lint("1 1 0 0 7\n").has("RP008"));
        assert!(lint("x 1 0 0\n").has("RP008"));
        assert!(lint("1 zap 0 0\n").has("RP008"));
        assert!(lint("1 1 0 zap 0\n").has("RP008"));
    }

    #[test]
    fn proof_level_lints_run_when_file_is_clean() {
        // Valid grammar, but the chain (1∨2) + (¬1∨¬2) ⊢ (2) has two
        // clashing pivots.
        let r = lint("1 1 2 0 0\n2 -1 -2 0 0\n3 2 0 1 2 0\n");
        assert!(r.has("RP104"), "{:?}", r.diagnostics());
    }

    #[test]
    fn proof_level_lints_skipped_when_file_is_broken() {
        // The forward reference would make in-memory proof construction
        // unsound, so only file-level diagnostics appear.
        let r = lint("1 1 0 0\n2 -1 0 3 0\n3 0 1 2 0\n");
        assert!(r.has("RP001"));
        assert!(!r.has("RP005"));
    }

    #[test]
    fn io_errors_propagate() {
        struct Broken;
        impl io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("boom"))
            }
        }
        impl BufRead for Broken {
            fn fill_buf(&mut self) -> io::Result<&[u8]> {
                Err(io::Error::other("boom"))
            }
            fn consume(&mut self, _: usize) {}
        }
        assert!(lint_tracecheck(Broken, &LintOptions::default()).is_err());
    }
}
