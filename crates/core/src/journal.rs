//! Journaled, resumable engine run-state.
//!
//! [`Durable`] threads a checksummed write-ahead journal
//! ([`obs::journal`]) through the engine's phase checkpoints
//! (miter → sim → sweep → final_solve → trim → verdict) and doubles as
//! the crash-injection hook: a
//! [`CrashPoint`] armed on a `Durable` fires at its phase checkpoint,
//! either as a typed [`CecError::CrashInjected`] or as a real
//! `process::abort` (kill-9 equivalent) *after* the journal is synced.
//!
//! # Resume model
//!
//! The engine is byte-for-byte deterministic for a given input pair
//! and option set, so recovery does not reconstruct
//! solver state from the journal — it *re-executes* deterministically
//! and cross-validates every checkpoint it reaches against the
//! journaled prefix. A journal whose header does not match the inputs
//! or engine config is rejected up front ([`CecError::Journal`]); a
//! checkpoint that disagrees with its journaled twin is a
//! [`CecError::ReplayDivergence`]. Once the prefix is exhausted, new
//! checkpoints append to the same journal, so the resumed run's
//! journal is the uninterrupted run's journal. The final verdict
//! record carries the FNV-1a fingerprint of the TraceCheck proof, so
//! "resumed to a byte-identical proof" is a checkable claim, not an
//! assumption.

use crate::outcome::{CecError, CecOutcome};
use crate::EngineConfig;
use aig::Aig;
use obs::hash::fnv1a64_hex;
use obs::journal::{read_journal_file, JournalWriter, Record};
use obs::json::Value;
use std::path::Path;

/// Journal format version written in the header record.
pub const JOURNAL_FORMAT: u64 = 1;

/// What an armed crash does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Return [`CecError::CrashInjected`] — an in-process crash the
    /// caller observes as a typed error.
    Error,
    /// `std::process::abort()` — the kill-9 equivalent. The journal is
    /// synced first, so the aborted process leaves a valid journal
    /// (at worst with a torn final line).
    Abort,
}

/// A crash armed at a phase checkpoint. Every phase checkpoints once
/// per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Checkpoint phase name: one of [`PHASES`].
    pub phase: String,
    /// Error or abort.
    pub mode: CrashMode,
}

impl CrashPoint {
    /// Parses a phase name (e.g. `"sweep"`).
    ///
    /// # Errors
    ///
    /// Names that are not in [`PHASES`].
    pub fn parse(spec: &str, mode: CrashMode) -> Result<CrashPoint, String> {
        if !PHASES.contains(&spec) {
            return Err(format!(
                "unknown crash phase `{spec}` (expected one of {})",
                PHASES.join(", ")
            ));
        }
        Ok(CrashPoint {
            phase: spec.to_string(),
            mode,
        })
    }
}

/// Every phase name that checkpoints, in run order.
pub const PHASES: &[&str] = &["miter", "sim", "sweep", "final_solve", "trim"];

/// Durable run-state handle threaded through one engine run.
///
/// Comes in three flavors: [`Durable::disabled`] (zero-cost no-op, what
/// plain [`crate::Session::check`] uses), [`Durable::begin`] (fresh
/// journal), and [`Durable::resume`] (validated replay against an
/// existing journal, then append).
#[derive(Debug, Default)]
pub struct Durable {
    writer: Option<JournalWriter>,
    /// Journaled records still awaiting validation, oldest first.
    replay: Vec<Record>,
    /// Index of the next replay record to validate.
    cursor: usize,
    crash: Option<CrashPoint>,
    /// Whether the loaded journal had a torn final line.
    truncated_tail: bool,
    /// Live counter of checkpoint records appended (disconnected until
    /// [`Durable::bind_metrics`]).
    m_checkpoints: obs::metrics::Counter,
    /// Live counter of journaled records validated on resume.
    m_replayed: obs::metrics::Counter,
    /// The TraceCheck bytes [`Durable::verdict`] fingerprinted.
    tracecheck: Option<Vec<u8>>,
}

/// Canonical header body for an input pair + engine config.
fn header_body(config: &EngineConfig, a: &Aig, b: &Aig) -> Value {
    let hash_of = |g: &Aig| {
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(g, &mut bytes).expect("write to Vec cannot fail");
        Value::Str(fnv1a64_hex(&bytes))
    };
    let limit = match config.pair_conflict_limit {
        Some(n) => Value::U64(n),
        None => Value::Null,
    };
    Value::Object(vec![
        ("type".into(), Value::str("header")),
        ("format".into(), Value::U64(JOURNAL_FORMAT)),
        ("a_hash".into(), hash_of(a)),
        ("b_hash".into(), hash_of(b)),
        ("threads".into(), Value::U64(1)),
        ("sim_words".into(), Value::U64(config.sim_words as u64)),
        ("seed".into(), Value::U64(config.seed)),
        // One sweep on one thread, with one discharge schedule, is left;
        // the keys of the deleted options stay at the values that sweep
        // wrote, so its journals keep resuming and the others' are
        // refused as a header mismatch.
        ("pairs_per_worker".into(), Value::Null),
        ("engine".into(), Value::str("static")),
        (
            "share_structure".into(),
            Value::Bool(config.share_structure),
        ),
        (
            "structural_merging".into(),
            Value::Bool(config.structural_merging),
        ),
        ("sweep".into(), Value::Bool(config.sweep)),
        ("proof".into(), Value::Bool(config.proof)),
        ("pair_conflict_limit".into(), limit),
    ])
}

impl Durable {
    /// A no-op handle: no journal, no crash injection.
    #[must_use]
    pub fn disabled() -> Durable {
        Durable::default()
    }

    /// Starts a fresh journal at `path`, writing and syncing the header
    /// record for `(config, a, b)`.
    ///
    /// # Errors
    ///
    /// [`CecError::Journal`] on I/O failure.
    pub fn begin(
        path: &Path,
        config: &EngineConfig,
        a: &Aig,
        b: &Aig,
    ) -> Result<Durable, CecError> {
        let mut writer = JournalWriter::create(path)
            .map_err(|e| CecError::Journal(format!("create {}: {e}", path.display())))?;
        writer
            .write(&header_body(config, a, b))
            .and_then(|_| writer.sync())
            .map_err(|e| CecError::Journal(format!("write header: {e}")))?;
        Ok(Durable {
            writer: Some(writer),
            ..Durable::default()
        })
    }

    /// Loads the journal at `path`, validates its header against
    /// `(config, a, b)`, and returns a handle that replays the
    /// remaining records as validation before appending new ones.
    ///
    /// # Errors
    ///
    /// [`CecError::Journal`] on I/O failure, mid-file corruption, or a
    /// header that does not match the inputs and config being resumed.
    pub fn resume(
        path: &Path,
        config: &EngineConfig,
        a: &Aig,
        b: &Aig,
    ) -> Result<Durable, CecError> {
        let contents = read_journal_file(path)
            .map_err(|e| CecError::Journal(format!("{}: {e}", path.display())))?;
        let Some(header) = contents.records.first() else {
            return Err(CecError::Journal(format!(
                "{}: journal has no header record",
                path.display()
            )));
        };
        let expected = header_body(config, a, b);
        if header.body != expected {
            return Err(CecError::Journal(format!(
                "{}: header does not match the inputs/options being resumed \
                 (journaled {}, expected {})",
                path.display(),
                header.body,
                expected
            )));
        }
        let writer = JournalWriter::append(path, contents.records.len() as u64)
            .map_err(|e| CecError::Journal(format!("append {}: {e}", path.display())))?;
        let mut replay = contents.records;
        replay.remove(0);
        Ok(Durable {
            writer: Some(writer),
            replay,
            truncated_tail: contents.truncated_tail,
            ..Durable::default()
        })
    }

    /// Arms a crash point. At most one can be armed.
    pub fn arm(&mut self, crash: CrashPoint) {
        self.crash = Some(crash);
    }

    /// Binds the journal's live counters (`cec.journal.checkpoints`,
    /// `cec.journal.replayed`) to `metrics`. A disabled registry (or a
    /// disabled handle) keeps the counters free. The engine calls this
    /// at the start of every durable run.
    pub fn bind_metrics(&mut self, metrics: &obs::metrics::Metrics) {
        if self.writer.is_none() {
            return;
        }
        self.m_checkpoints = metrics.counter("cec.journal.checkpoints");
        self.m_replayed = metrics.counter("cec.journal.replayed");
    }

    /// Whether this handle journals at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// How many journaled records are still pending replay validation.
    #[must_use]
    pub fn pending_replay(&self) -> usize {
        self.replay.len() - self.cursor
    }

    /// Whether the loaded journal had a torn final line (dropped).
    #[must_use]
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Records one engine-phase checkpoint.
    ///
    /// While journaled records remain, the checkpoint is *validated*
    /// against the next one instead of written; once the prefix is
    /// exhausted, it is appended and synced, and any armed crash point
    /// for this phase may then fire.
    ///
    /// # Errors
    ///
    /// [`CecError::ReplayDivergence`] on a replay mismatch,
    /// [`CecError::Journal`] on I/O failure, and
    /// [`CecError::CrashInjected`] when an armed [`CrashMode::Error`]
    /// crash fires.
    pub fn checkpoint(&mut self, phase: &str, fields: &[(&str, Value)]) -> Result<(), CecError> {
        if self.writer.is_none() {
            return Ok(());
        }
        let mut entries = vec![
            ("type".to_string(), Value::str("checkpoint")),
            ("phase".to_string(), Value::str(phase)),
        ];
        for (k, v) in fields {
            entries.push(((*k).to_string(), v.clone()));
        }
        // Crash points fire only on live checkpoints: a replayed one was
        // already survived by the crashed run.
        let live = self.record(&Value::Object(entries))?;
        match &self.crash {
            Some(crash) if live && crash.phase == phase => match crash.mode {
                CrashMode::Error => Err(CecError::CrashInjected {
                    phase: phase.to_string(),
                }),
                CrashMode::Abort => std::process::abort(),
            },
            _ => Ok(()),
        }
    }

    /// Records the final verdict: equivalence flag plus the FNV-1a
    /// fingerprint of the TraceCheck-serialized proof (UNSAT, when a
    /// proof was recorded) or the distinguishing input pattern (SAT).
    /// Only a journaling handle serializes the proof; it keeps the
    /// bytes for [`Durable::take_tracecheck`].
    ///
    /// # Errors
    ///
    /// Same as [`Durable::checkpoint`], minus crash injection.
    pub fn verdict(&mut self, outcome: &CecOutcome) -> Result<(), CecError> {
        if self.writer.is_none() {
            return Ok(());
        }
        let mut entries = vec![
            ("type".into(), Value::str("verdict")),
            ("equivalent".into(), Value::Bool(outcome.is_equivalent())),
        ];
        match outcome {
            CecOutcome::Equivalent(cert) => {
                if let Some(p) = &cert.proof {
                    let mut bytes = Vec::new();
                    proof::export::write_tracecheck(p, &mut bytes)
                        .expect("write to Vec cannot fail");
                    entries.push(("proof_hash".into(), Value::Str(fnv1a64_hex(&bytes))));
                    self.tracecheck = Some(bytes);
                }
            }
            CecOutcome::Inequivalent { counterexample, .. } => {
                let pattern = counterexample.pattern.iter().map(|&b| Value::Bool(b));
                entries.push(("pattern".into(), Value::Array(pattern.collect())));
            }
        }
        self.record(&Value::Object(entries)).map(drop)
    }

    /// The TraceCheck serialization of the proof whose fingerprint
    /// [`Durable::verdict`] journaled, if it recorded one.
    pub fn take_tracecheck(&mut self) -> Option<Vec<u8>> {
        self.tracecheck.take()
    }

    /// Validates `body` against the replay prefix or appends it; `true`
    /// when it was appended, a live record.
    fn record(&mut self, body: &Value) -> Result<bool, CecError> {
        if self.cursor < self.replay.len() {
            let expected = &self.replay[self.cursor];
            if expected.body != *body {
                return Err(CecError::ReplayDivergence {
                    seq: expected.seq,
                    detail: format!("journaled {}, re-executed {}", expected.body, body),
                });
            }
            self.cursor += 1;
            self.m_replayed.inc();
            return Ok(false);
        }
        let writer = self.writer.as_mut().expect("checked by callers");
        writer
            .write(body)
            .and_then(|_| writer.sync())
            .map_err(|e| CecError::Journal(format!("append record: {e}")))?;
        self.m_checkpoints.inc();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_spec_parsing() {
        let c = CrashPoint::parse("sweep", CrashMode::Abort).unwrap();
        assert_eq!((c.phase.as_str(), c.mode), ("sweep", CrashMode::Abort));
        for bad in ["warp", "round", "sweep:2", "sweep:1"] {
            let err = CrashPoint::parse(bad, CrashMode::Error).unwrap_err();
            assert!(
                err.contains("miter, sim, sweep, final_solve, trim"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn disabled_durable_is_a_no_op() {
        let mut d = Durable::disabled();
        assert!(!d.is_enabled());
        d.checkpoint("sweep", &[("lemmas", Value::U64(4))]).unwrap();
        let outcome = CecOutcome::Inequivalent {
            counterexample: crate::Counterexample {
                pattern: vec![true],
                outputs_a: vec![true],
                outputs_b: vec![false],
            },
            stats: crate::EngineStats::default(),
        };
        d.verdict(&outcome).unwrap();
    }

    #[test]
    fn disabled_durable_never_fires_crashes() {
        let mut d = Durable::disabled();
        d.arm(CrashPoint {
            phase: "sweep".into(),
            mode: CrashMode::Error,
        });
        // No journal → no live checkpoint → no crash.
        d.checkpoint("sweep", &[]).unwrap();
    }

    #[test]
    fn resume_refuses_an_adaptive_engine_header() {
        let config = EngineConfig::default();
        let (a, b) = aig::gen::family_pair("adder", 4).expect("known family");
        let Value::Object(mut header) = header_body(&config, &a, &b) else {
            unreachable!("the header is an object")
        };
        for (key, value) in &mut header {
            if key == "engine" {
                *value = Value::str("adaptive");
            }
        }
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cec-journal-{}-adaptive.journal",
            std::process::id()
        ));
        let mut writer = JournalWriter::create(&path).expect("create journal");
        writer.write(&Value::Object(header)).expect("write header");
        writer.sync().expect("sync journal");
        drop(writer);
        let resumed = Durable::resume(&path, &config, &a, &b);
        let _ = std::fs::remove_file(&path);
        match resumed {
            Err(CecError::Journal(msg)) => assert!(msg.contains("header does not match"), "{msg}"),
            other => panic!("expected a header mismatch, got {other:?}"),
        }
    }
}
