//! Journal golden: crash journals resume to the uninterrupted run's
//! journal, byte for byte.
//!
//! `tests/journals/` holds an 8-bit adder pair (`rchaos gen --pair=adder
//! --width=8`), the journals `rchaos prove` left behind when crashed at
//! `round:2` with two threads and at `final_solve` and `trim` with one,
//! and the journals of uninterrupted runs at one and two threads. Each
//! crashed journal is resumed in a temp copy through `Durable::resume`
//! and `Session::check_durable` under the config `rchaos prove` uses: the
//! header's thread count with seed 1. A change to the engine's
//! checkpoints, the journal format or the proof bytes shows up here as
//! a diff against the checked-in files.
//!
//! The two-thread journals were written by an older build, so they also
//! pin that a journal outlives a change of build. The one-thread ones
//! were written again when the sequential sweep began attaching clauses
//! cone by cone, which moved the one-thread search (`t1.journal` and
//! `t1_mutant.journal` changed; the crash journals and
//! `t1_noproof.journal` came out the same): `rchaos prove --threads=1`,
//! with `--crash=final_solve` or `--crash=trim` for the crash journals,
//! in a directory holding `a.aag` and `b.aag`, or `mutant.aag` as
//! `b.aag` for `t1_mutant.journal`.
//!
//! Those journals all end in an equivalent verdict with a proof
//! fingerprint. Two more pin the verdict record's other shapes, each
//! written afresh through `Durable::begin` at one thread with seed 1:
//! `t1_mutant.journal` checks `a.aag` against `mutant.aag` (an
//! inequivalent verdict with its counterexample pattern), and
//! `t1_noproof.journal` checks `a.aag` against `b.aag` with proofs off
//! (an equivalent verdict without a fingerprint). `mutant.aag` is the
//! first `aig::gen::mutate` seed of `b.aag` that random simulation
//! separates from `a.aag`, picked as `tests/golden.rs` picks its
//! mutant.

use obs::journal::read_journal_file;
use obs::json::Value;
use resolution_cec::aig::{self, Aig};
use resolution_cec::cec::{Durable, EngineConfig, Session, SharedContext};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/journals")
        .join(name)
}

fn read_aig(name: &str) -> Aig {
    let bytes = std::fs::read(fixture(name)).expect("fixture readable");
    aig::aiger::read(bytes.as_slice()).expect("fixture parses")
}

/// The thread count recorded in a journal's header record.
fn header_threads(path: &Path) -> usize {
    let contents = read_journal_file(path).expect("journal readable");
    let header = &contents.records.first().expect("header record").body;
    let threads = header.get("threads").and_then(Value::as_u64);
    threads.expect("header names a thread count") as usize
}

#[test]
fn crashed_journals_resume_to_the_uninterrupted_journal() {
    let (a, b) = (read_aig("a.aag"), read_aig("b.aag"));
    for (crashed, full) in [
        ("t2_round2.journal", "t2.journal"),
        ("t1_final_solve.journal", "t1.journal"),
        ("t1_trim.journal", "t1.journal"),
    ] {
        let source = fixture(crashed);
        let config = EngineConfig {
            threads: header_threads(&source),
            seed: 1,
            ..EngineConfig::default()
        };
        let path =
            std::env::temp_dir().join(format!("journal-golden-{}-{crashed}", std::process::id()));
        std::fs::copy(&source, &path).expect("copy crashed journal");
        let mut durable = Durable::resume(&path, &config, &a, &b)
            .unwrap_or_else(|e| panic!("{crashed}: resume: {e}"));
        let outcome = Session::new(config, &SharedContext::disabled())
            .check_durable(&a, &b, &mut durable)
            .unwrap_or_else(|e| panic!("{crashed}: resumed run: {e}"));
        drop(durable);
        assert!(outcome.is_equivalent(), "{crashed}: verdict");
        let resumed = std::fs::read(&path).expect("resumed journal");
        let _ = std::fs::remove_file(&path);
        let expected = std::fs::read(fixture(full)).expect("uninterrupted journal");
        assert!(
            resumed == expected,
            "{crashed} resumed to a journal that differs from {full}:\n{}",
            String::from_utf8_lossy(&resumed)
        );
    }
}

#[test]
fn fresh_journals_pin_the_other_verdict_shapes() {
    let a = read_aig("a.aag");
    for (other, proof, full) in [
        ("mutant.aag", true, "t1_mutant.journal"),
        ("b.aag", false, "t1_noproof.journal"),
    ] {
        let b = read_aig(other);
        let config = EngineConfig {
            threads: 1,
            seed: 1,
            proof,
            ..EngineConfig::default()
        };
        let path = std::env::temp_dir().join(format!(
            "journal-golden-{}-fresh-{full}",
            std::process::id()
        ));
        let mut durable =
            Durable::begin(&path, &config, &a, &b).unwrap_or_else(|e| panic!("{full}: begin: {e}"));
        let outcome = Session::new(config, &SharedContext::disabled())
            .check_durable(&a, &b, &mut durable)
            .unwrap_or_else(|e| panic!("{full}: run: {e}"));
        drop(durable);
        assert_eq!(outcome.is_equivalent(), other == "b.aag", "{full}: verdict");
        let written = std::fs::read(&path).expect("written journal");
        let _ = std::fs::remove_file(&path);
        let expected = std::fs::read(fixture(full)).expect("checked-in journal");
        assert!(
            written == expected,
            "{full} differs from the checked-in journal:\n{}",
            String::from_utf8_lossy(&written)
        );
    }
}
