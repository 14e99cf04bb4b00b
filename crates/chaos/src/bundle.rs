//! Bundle emission and the paired adversarial checker.
//!
//! [`prove_and_emit`] runs one journaled engine check and persists every
//! artifact class the pipeline produces — AIGER inputs, the miter
//! DIMACS, the TraceCheck and DRAT proofs, the certificate, and the
//! write-ahead journal — plus a `manifest.json` recording an FNV-1a
//! fingerprint per file. [`check_bundle`] is the paired checker: it
//! re-reads the directory, verifies every fingerprint, re-parses every
//! artifact, and cross-links them (proof ↔ CNF ↔ certificate ↔ journal
//! verdict), mapping each defect to a stable lint code. The checker's
//! contract under fault injection is strict: corrupted bytes are
//! *rejected with a diagnostic*, never accepted, never a panic.

use aig::Aig;
use cec::{
    miter_cnf, CecError, CecOutcome, CrashPoint, Durable, EngineConfig, Miter, Session,
    SharedContext,
};
use lint::{
    lint_bundle, lint_drat, lint_journal, read_tracecheck, Artifact, Bundle, CertificateInfo,
    LintOptions, Report, XB010, XB011,
};
use obs::hash::fnv1a64_hex;
use obs::json::{self, Value};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Cursor};
use std::path::{Path, PathBuf};

/// Manifest format version written in `manifest.json`.
pub const MANIFEST_FORMAT: u64 = 1;

/// Every artifact file name a bundle may contain (the manifest itself
/// is not an artifact — it is the fingerprint ledger *over* them).
pub const ARTIFACTS: &[&str] = &[
    "a.aag",
    "b.aag",
    "miter.cnf",
    "proof.tc",
    "proof.drat",
    "cert.cert",
    "run.journal",
];

/// File name of the manifest.
pub const MANIFEST: &str = "manifest.json";

/// The fixed file layout of one bundle directory.
#[derive(Clone, Debug)]
pub struct BundlePaths {
    /// The bundle directory.
    pub dir: PathBuf,
}

impl BundlePaths {
    /// Wraps a bundle directory.
    pub fn new(dir: impl Into<PathBuf>) -> BundlePaths {
        BundlePaths { dir: dir.into() }
    }

    /// Path of a named file inside the bundle.
    #[must_use]
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Circuit A, ASCII AIGER.
    #[must_use]
    pub fn a(&self) -> PathBuf {
        self.file("a.aag")
    }

    /// Circuit B, ASCII AIGER.
    #[must_use]
    pub fn b(&self) -> PathBuf {
        self.file("b.aag")
    }

    /// The miter's Tseitin CNF, DIMACS.
    #[must_use]
    pub fn cnf(&self) -> PathBuf {
        self.file("miter.cnf")
    }

    /// The recorded refutation, TraceCheck.
    #[must_use]
    pub fn proof(&self) -> PathBuf {
        self.file("proof.tc")
    }

    /// The recorded refutation, DRAT.
    #[must_use]
    pub fn drat(&self) -> PathBuf {
        self.file("proof.drat")
    }

    /// Certificate metadata.
    #[must_use]
    pub fn certificate(&self) -> PathBuf {
        self.file("cert.cert")
    }

    /// The write-ahead run-state journal.
    #[must_use]
    pub fn journal(&self) -> PathBuf {
        self.file("run.journal")
    }

    /// The fingerprint manifest.
    #[must_use]
    pub fn manifest(&self) -> PathBuf {
        self.file(MANIFEST)
    }
}

/// Why [`prove_and_emit`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmitError {
    /// The engine run itself failed (including injected crashes, which
    /// surface as [`CecError::CrashInjected`]).
    Engine(CecError),
    /// Writing an artifact or the manifest failed.
    Io(String),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Engine(e) => write!(f, "{e}"),
            EmitError::Io(msg) => write!(f, "bundle i/o error: {msg}"),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<CecError> for EmitError {
    fn from(e: CecError) -> EmitError {
        EmitError::Engine(e)
    }
}

fn io_err(what: &str, e: &io::Error) -> EmitError {
    EmitError::Io(format!("{what}: {e}"))
}

/// Writes `manifest.json` for the named files (hashing each from disk).
fn write_manifest(paths: &BundlePaths, verdict: &str, files: &[&str]) -> Result<(), EmitError> {
    let mut entries = Vec::with_capacity(files.len());
    for name in files {
        let bytes = fs::read(paths.file(name)).map_err(|e| io_err(&format!("read {name}"), &e))?;
        entries.push(Value::Object(vec![
            ("file".into(), Value::str(*name)),
            ("fnv".into(), Value::Str(fnv1a64_hex(&bytes))),
        ]));
    }
    let doc = Value::Object(vec![
        ("format".into(), Value::U64(MANIFEST_FORMAT)),
        ("verdict".into(), Value::str(verdict)),
        ("entries".into(), Value::Array(entries)),
    ]);
    fs::write(paths.manifest(), format!("{doc}\n")).map_err(|e| io_err("write manifest.json", &e))
}

/// Runs one journaled engine check in `dir` and persists the full
/// artifact bundle plus its manifest.
///
/// With `resume = false` a fresh journal is started; with `resume =
/// true` the existing `run.journal` is validated and continued, so a
/// crashed emission can be finished by calling again. An armed `crash`
/// fires at its phase checkpoint (see [`cec::CrashPoint`]); the journal
/// and the already-written inputs survive it.
///
/// # Errors
///
/// [`EmitError::Engine`] for engine failures (crash injection included),
/// [`EmitError::Io`] for artifact write failures.
pub fn prove_and_emit(
    dir: &Path,
    a: &Aig,
    b: &Aig,
    config: &EngineConfig,
    crash: Option<CrashPoint>,
    resume: bool,
) -> Result<CecOutcome, EmitError> {
    let paths = BundlePaths::new(dir);
    fs::create_dir_all(dir).map_err(|e| io_err("create bundle dir", &e))?;
    let write_aig = |path: &Path, g: &Aig| -> Result<(), EmitError> {
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(g, &mut bytes).expect("write to Vec cannot fail");
        fs::write(path, bytes).map_err(|e| io_err(&format!("write {}", path.display()), &e))
    };
    write_aig(&paths.a(), a)?;
    write_aig(&paths.b(), b)?;

    let mut durable = if resume {
        Durable::resume(&paths.journal(), config, a, b)?
    } else {
        Durable::begin(&paths.journal(), config, a, b)?
    };
    if let Some(c) = crash {
        durable.arm(c);
    }
    let outcome = Session::new(config.clone(), &SharedContext::disabled()).check_durable(
        a,
        b,
        &mut durable,
    )?;
    let tracecheck = durable.take_tracecheck();
    drop(durable);

    let miter = Miter::build(a, b, config.share_structure);
    let cnf = miter_cnf(&miter);
    let mut bytes = Vec::new();
    cnf::dimacs::write(&cnf, &mut bytes).expect("write to Vec cannot fail");
    fs::write(paths.cnf(), bytes).map_err(|e| io_err("write miter.cnf", &e))?;

    let mut files = vec!["a.aag", "b.aag", "miter.cnf", "run.journal"];
    let verdict = if outcome.is_equivalent() {
        "equivalent"
    } else {
        "inequivalent"
    };
    if let Some(cert) = outcome.certificate() {
        if let Some(p) = &cert.proof {
            let bytes = tracecheck.expect("a journaled verdict keeps the proof it fingerprinted");
            fs::write(paths.proof(), bytes).map_err(|e| io_err("write proof.tc", &e))?;
            let mut bytes = Vec::new();
            proof::export::write_drat(p, &mut bytes).expect("write to Vec cannot fail");
            fs::write(paths.drat(), bytes).map_err(|e| io_err("write proof.drat", &e))?;
            let mut bytes = Vec::new();
            cert.info()
                .write(&mut bytes)
                .expect("write to Vec cannot fail");
            fs::write(paths.certificate(), bytes).map_err(|e| io_err("write cert.cert", &e))?;
            files.extend(["proof.tc", "proof.drat", "cert.cert"]);
        }
    }
    write_manifest(&paths, verdict, &files)?;
    Ok(outcome)
}

/// Verifies the manifest and every listed fingerprint. Hash-verified
/// artifact bytes land in `verified`; the return value is the
/// manifest's verdict claim (`Some(true)` = equivalent) when the
/// manifest itself was intact enough to state one.
fn check_manifest(
    paths: &BundlePaths,
    report: &mut Report,
    verified: &mut HashMap<&'static str, Vec<u8>>,
) -> Option<bool> {
    let text = match fs::read_to_string(paths.manifest()) {
        Ok(t) => t,
        Err(e) => {
            report.emit(XB011, None, || format!("manifest.json unreadable: {e}"));
            return None;
        }
    };
    let doc = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            report.emit(XB011, None, || format!("manifest.json malformed: {e}"));
            return None;
        }
    };
    if doc.get("format").and_then(Value::as_u64) != Some(MANIFEST_FORMAT) {
        report.emit(XB011, None, || {
            format!("manifest format is not {MANIFEST_FORMAT}")
        });
        return None;
    }
    let verdict = match doc.get("verdict").and_then(Value::as_str) {
        Some("equivalent") => Some(true),
        Some("inequivalent") => Some(false),
        other => {
            let other = other.map(str::to_string);
            report.emit(XB011, None, || {
                format!("manifest verdict is {other:?}, not equivalent/inequivalent")
            });
            None
        }
    };
    let Some(entries) = doc.get("entries").and_then(Value::as_array) else {
        report.emit(XB011, None, || "manifest has no entries array".into());
        return verdict;
    };
    let mut listed: Vec<&'static str> = Vec::new();
    for entry in entries {
        let file = entry.get("file").and_then(Value::as_str);
        let fnv = entry.get("fnv").and_then(Value::as_str);
        let (Some(file), Some(fnv)) = (file, fnv) else {
            report.emit(XB011, None, || {
                "manifest entry lacks file/fnv fields".into()
            });
            continue;
        };
        // Resolve to the static artifact name: the layout is closed, so
        // anything else is a manifest defect (and a path-escape guard —
        // entries can never name files outside the bundle).
        let Some(name) = ARTIFACTS.iter().find(|n| **n == file).copied() else {
            let file = file.to_string();
            report.emit(XB011, None, || {
                format!("manifest names unknown artifact `{file}`")
            });
            continue;
        };
        listed.push(name);
        match fs::read(paths.file(name)) {
            Err(e) => report.emit(XB011, None, || {
                format!("manifest names absent file `{name}`: {e}")
            }),
            Ok(bytes) => {
                let actual = fnv1a64_hex(&bytes);
                if actual == fnv {
                    verified.insert(name, bytes);
                } else {
                    let recorded = fnv.to_string();
                    report.emit(XB010, None, || {
                        format!(
                            "`{name}`: content hash {actual} disagrees with \
                             manifest ({recorded})"
                        )
                    });
                }
            }
        }
    }
    for name in ARTIFACTS {
        if !listed.contains(name) && paths.file(name).exists() {
            report.emit(XB011, None, || {
                format!("artifact `{name}` is on disk but not in the manifest")
            });
        }
    }
    verdict
}

/// Checks the bundle in `dir`: manifest fingerprints, per-artifact
/// parses and lints, and cross-artifact consistency. Never panics and
/// never errors — every defect, including an unreadable directory,
/// becomes a diagnostic in the returned report.
#[must_use]
pub fn check_bundle(dir: &Path, opts: &LintOptions) -> Report {
    let paths = BundlePaths::new(dir);
    let mut report = Report::new(Artifact::Bundle);
    let mut verified: HashMap<&'static str, Vec<u8>> = HashMap::new();
    let manifest_verdict = check_manifest(&paths, &mut report, &mut verified);

    // Per-artifact parses. A hash-verified artifact that still fails to
    // parse means the *producer* wrote garbage — a bundle-level defect.
    let mut unparseable: Vec<(&'static str, String)> = Vec::new();
    let read_aig = |name: &'static str, sink: &mut Vec<(&'static str, String)>| {
        let bytes = verified.get(name)?;
        match aig::aiger::read(bytes.as_slice()) {
            Ok(g) => Some(g),
            Err(e) => {
                sink.push((name, e.to_string()));
                None
            }
        }
    };
    let a = read_aig("a.aag", &mut unparseable);
    let b = read_aig("b.aag", &mut unparseable);
    let formula =
        verified
            .get("miter.cnf")
            .and_then(|bytes| match cnf::dimacs::read(Cursor::new(bytes)) {
                Ok(f) => Some(f),
                Err(e) => {
                    unparseable.push(("miter.cnf", e.to_string()));
                    None
                }
            });
    let proof = verified.get("proof.tc").and_then(|bytes| {
        let (tc_report, p) =
            read_tracecheck(Cursor::new(bytes)).expect("reading from memory cannot fail");
        report.absorb(tc_report);
        p
    });
    if let Some(bytes) = verified.get("proof.drat") {
        let drat_report = lint_drat(Cursor::new(bytes), formula.as_ref(), opts)
            .expect("reading from memory cannot fail");
        report.absorb(drat_report);
    }
    let certificate = verified.get("cert.cert").and_then(|bytes| {
        let text = match std::str::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                unparseable.push(("cert.cert", e.to_string()));
                return None;
            }
        };
        match CertificateInfo::parse(text) {
            Ok(info) => Some(info),
            Err(e) => {
                unparseable.push(("cert.cert", e));
                None
            }
        }
    });
    let journal_records = verified.get("run.journal").and_then(|bytes| {
        let jn_report = lint_journal(Cursor::new(bytes)).expect("reading from memory cannot fail");
        report.absorb(jn_report);
        obs::journal::read_journal(Cursor::new(bytes))
            .ok()
            .map(|j| j.records)
    });
    for (name, why) in unparseable {
        report.emit(XB011, None, || {
            format!("`{name}` is unparseable despite a matching hash: {why}")
        });
    }

    // Cross-artifact binding. The miter is rebuilt from the AIGER pair
    // with the structural-sharing flag the journal header recorded (the
    // flag changes which Tseitin clauses exist).
    let header = journal_records.as_ref().and_then(|r| {
        r.first()
            .filter(|rec| rec.body.get("type").and_then(Value::as_str) == Some("header"))
            .map(|rec| &rec.body)
    });
    let share = header
        .and_then(|h| h.get("share_structure"))
        .is_none_or(|v| *v == Value::Bool(true));
    let miter_graph = match (&a, &b) {
        (Some(a), Some(b)) => Some(Miter::build(a, b, share).graph),
        _ => None,
    };
    report.absorb(lint_bundle(&Bundle {
        aig: miter_graph.as_ref(),
        cnf: formula.as_ref(),
        proof: proof.as_ref(),
        certificate: certificate.as_ref(),
    }));

    // The journal's verdict record seals the run: its equivalence flag,
    // proof fingerprint, and counterexample must all still hold.
    let verdict_rec = journal_records.as_ref().and_then(|r| {
        r.iter()
            .rev()
            .find(|rec| rec.body.get("type").and_then(Value::as_str) == Some("verdict"))
            .map(|rec| &rec.body)
    });
    if let Some(v) = verdict_rec {
        let equivalent = v.get("equivalent").map(|b| *b == Value::Bool(true));
        if let (Some(journaled), Some(claimed)) = (equivalent, manifest_verdict) {
            if journaled != claimed {
                report.emit(XB011, None, || {
                    format!(
                        "manifest verdict ({}) disagrees with the journal ({})",
                        if claimed {
                            "equivalent"
                        } else {
                            "inequivalent"
                        },
                        if journaled {
                            "equivalent"
                        } else {
                            "inequivalent"
                        },
                    )
                });
            }
        }
        if let (Some(hash), Some(bytes)) = (
            v.get("proof_hash").and_then(Value::as_str),
            verified.get("proof.tc"),
        ) {
            let actual = fnv1a64_hex(bytes);
            if actual != hash {
                let recorded = hash.to_string();
                report.emit(XB010, None, || {
                    format!(
                        "`proof.tc`: content hash {actual} disagrees with the \
                         journal's verdict record ({recorded})"
                    )
                });
            }
        }
        if let Some(pattern) = v.get("pattern").and_then(Value::as_array) {
            let bools: Vec<bool> = pattern.iter().map(|b| *b == Value::Bool(true)).collect();
            if let (Some(a), Some(b)) = (&a, &b) {
                if bools.len() == a.num_inputs() && bools.len() == b.num_inputs() {
                    if a.evaluate(&bools) == b.evaluate(&bools) {
                        report.emit(XB011, None, || {
                            "the journaled counterexample does not distinguish the \
                             circuits"
                                .into()
                        });
                    }
                } else {
                    report.emit(XB011, None, || {
                        format!(
                            "the journaled counterexample has {} bits for {}-input \
                             circuits",
                            bools.len(),
                            a.num_inputs()
                        )
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt, FaultMode};
    use aig::gen;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chaos-bundle-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn emitted_bundle_checks_clean() {
        let dir = tmp("clean");
        let a = gen::ripple_carry_adder(4);
        let b = gen::carry_lookahead_adder(4);
        let outcome = prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, false).unwrap();
        assert!(outcome.is_equivalent());
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inequivalent_bundle_checks_clean_and_reverifies_the_counterexample() {
        let dir = tmp("ineq");
        let a = gen::parity_chain(8);
        let b = gen::mutate(&a, 7).expect("mutant");
        let outcome = prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, false).unwrap();
        assert!(!outcome.is_equivalent());
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.is_clean(), "{:?}", r.diagnostics());

        // Forge the verdict: claim equivalence over the SAT journal.
        let paths = BundlePaths::new(&dir);
        let text = fs::read_to_string(paths.manifest()).unwrap();
        fs::write(
            paths.manifest(),
            text.replace("\"inequivalent\"", "\"equivalent\""),
        )
        .unwrap();
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_artifact_is_rejected() {
        let dir = tmp("flip");
        let a = gen::ripple_carry_adder(4);
        let b = gen::kogge_stone_adder(4);
        prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, false).unwrap();
        let paths = BundlePaths::new(&dir);
        for name in ARTIFACTS {
            let path = paths.file(name);
            let original = fs::read(&path).unwrap();
            let mut bytes = original.clone();
            corrupt(&mut bytes, FaultMode::Flip, 1);
            fs::write(&path, &bytes).unwrap();
            let r = check_bundle(&dir, &LintOptions::default());
            assert!(!r.is_clean(), "flip in {name} accepted");
            assert!(r.has("XB010"), "flip in {name}: {:?}", r.diagnostics());
            fs::write(&path, &original).unwrap();
        }
        // A corrupted manifest itself is rejected too.
        let original = fs::read(paths.manifest()).unwrap();
        let mut bytes = original.clone();
        corrupt(&mut bytes, FaultMode::Truncate, 3);
        fs::write(paths.manifest(), &bytes).unwrap();
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(!r.is_clean(), "truncated manifest accepted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_unlisted_files_are_manifest_defects() {
        let dir = tmp("missing");
        let a = gen::ripple_carry_adder(3);
        let b = gen::brent_kung_adder(3);
        prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, false).unwrap();
        let paths = BundlePaths::new(&dir);

        let saved = fs::read(paths.certificate()).unwrap();
        fs::remove_file(paths.certificate()).unwrap();
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        fs::write(paths.certificate(), &saved).unwrap();

        // Hide an artifact from the manifest: on-disk but unlisted.
        let text = fs::read_to_string(paths.manifest()).unwrap();
        let doc = json::parse(&text).unwrap();
        let Value::Object(mut members) = doc else {
            panic!("manifest is an object")
        };
        for (k, v) in &mut members {
            if k == "entries" {
                let Value::Array(entries) = v else {
                    panic!("entries is an array")
                };
                entries.retain(|e| e.get("file").and_then(Value::as_str) != Some("cert.cert"));
            }
        }
        fs::write(paths.manifest(), format!("{}\n", Value::Object(members))).unwrap();
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_emit_resumes_to_a_clean_bundle() {
        let dir = tmp("crash");
        let a = gen::popcount_serial(6);
        let b = gen::popcount_csa(6);
        let crash = CrashPoint::parse("sweep", cec::CrashMode::Error).unwrap();
        let err =
            prove_and_emit(&dir, &a, &b, &EngineConfig::default(), Some(crash), false).unwrap_err();
        assert!(
            matches!(err, EmitError::Engine(CecError::CrashInjected { .. })),
            "{err}"
        );
        // No manifest yet: the checker rejects the half-written bundle.
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(!r.is_clean());

        let outcome = prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, true).unwrap();
        assert!(outcome.is_equivalent());
        let r = check_bundle(&dir, &LintOptions::default());
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checker_survives_a_nonexistent_directory() {
        let r = check_bundle(
            Path::new("/nonexistent/chaos-bundle"),
            &LintOptions::default(),
        );
        assert!(!r.is_clean());
        assert!(r.has("XB011"));
    }
}
