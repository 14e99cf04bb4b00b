//! Journal golden: crash journals resume to the uninterrupted run's
//! journal, byte for byte.
//!
//! `tests/journals/` holds an 8-bit adder pair (`rchaos gen --pair=adder
//! --width=8`), the journals `rchaos prove` left behind when crashed at
//! `final_solve` and at `trim`, and the journal of an uninterrupted
//! run. Each crashed journal is resumed in a temp copy through
//! `Durable::resume` and `Session::check_durable` under the config
//! `rchaos prove` uses: the default with seed 1. A change to the
//! engine's checkpoints, the journal format or the proof bytes shows up
//! here as a diff against the checked-in files.
//!
//! The journals were written again when the sweep began attaching
//! clauses cone by cone, which moved the search (`t1.journal` and
//! `t1_mutant.journal` changed; the crash journals and
//! `t1_noproof.journal` came out the same): `rchaos prove`, with
//! `--crash=final_solve` or `--crash=trim` for the crash journals, in a
//! directory holding `a.aag` and `b.aag`, or `mutant.aag` as `b.aag`
//! for `t1_mutant.journal`. Their headers say `"threads": 1`, as every
//! journal's still does.
//!
//! Those journals all end in an equivalent verdict with a proof
//! fingerprint. Two more pin the verdict record's other shapes, each
//! written afresh through `Durable::begin` with seed 1:
//! `t1_mutant.journal` checks `a.aag` against `mutant.aag` (an
//! inequivalent verdict with its counterexample pattern), and
//! `t1_noproof.journal` checks `a.aag` against `b.aag` with proofs off
//! (an equivalent verdict without a fingerprint). `mutant.aag` is the
//! first `aig::gen::mutate` seed of `b.aag` that random simulation
//! separates from `a.aag`, picked as `tests/golden.rs` picks its
//! mutant.
//!
//! `t2_round2.journal` is a journal of the deleted round engine, crashed
//! in its second round at two threads. It must be refused as a header
//! mismatch, never resumed by the one sweep.

use resolution_cec::aig::{self, Aig};
use resolution_cec::cec::{CecError, Durable, EngineConfig, Session, SharedContext};
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

/// The config `rchaos prove` checks with.
fn rchaos_config() -> EngineConfig {
    EngineConfig {
        seed: 1,
        ..EngineConfig::default()
    }
}

#[test]
fn crashed_journals_resume_to_the_uninterrupted_journal() {
    let (a, b) = (read_aig("a.aag"), read_aig("b.aag"));
    for (crashed, full) in [
        ("t1_final_solve.journal", "t1.journal"),
        ("t1_trim.journal", "t1.journal"),
    ] {
        let source = fixture(crashed);
        let config = rchaos_config();
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
            proof,
            ..rchaos_config()
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

#[test]
fn round_engine_journals_are_refused_as_a_header_mismatch() {
    // Under `rchaos_config` the pair, seed and options are those of the
    // t1 journals, which resume: only the header's `"threads": 2` differs.
    let (a, b) = (read_aig("a.aag"), read_aig("b.aag"));
    let path = std::env::temp_dir().join(format!(
        "journal-golden-{}-t2_round2.journal",
        std::process::id()
    ));
    for config in [EngineConfig::default(), rchaos_config()] {
        std::fs::copy(fixture("t2_round2.journal"), &path).expect("copy round-engine journal");
        let resumed = Durable::resume(&path, &config, &a, &b);
        let _ = std::fs::remove_file(&path);
        match resumed {
            Err(CecError::Journal(msg)) => assert!(msg.contains("header does not match"), "{msg}"),
            other => panic!("expected a header mismatch, got {other:?}"),
        }
    }
}
