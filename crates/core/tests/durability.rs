//! Crash-resume determinism across the generator zoo.
//!
//! The durability contract: a run aborted at *any* phase checkpoint and
//! resumed from its journal must end in the same verdict, the same
//! byte-for-byte TraceCheck proof, and the same byte-for-byte journal
//! as a run that was never interrupted, even with the same crash armed
//! again on the resumed run.

use aig::gen;
use aig::Aig;
use cec::journal::PHASES;
use cec::{
    CecError, CecOutcome, CrashMode, CrashPoint, Durable, EngineConfig, Session, SharedContext,
};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cec-durability-{}-{name}", std::process::id()));
    p
}

/// TraceCheck serialization of an equivalent outcome's proof.
fn tc_bytes(outcome: &CecOutcome) -> Vec<u8> {
    let cert = outcome.certificate().expect("equivalent");
    let mut bytes = Vec::new();
    proof::export::write_tracecheck(cert.proof.as_ref().expect("proof recorded"), &mut bytes)
        .expect("write to Vec");
    bytes
}

/// For one circuit pair: run uninterrupted, then crash at every phase
/// checkpoint and resume, demanding byte-identical proof and journal
/// each time.
fn crash_matrix(name: &str, a: &Aig, b: &Aig) {
    let opts = EngineConfig::default();
    let ctx = SharedContext::disabled();
    let session = Session::new(opts.clone(), &ctx);

    let base_path = tmp(&format!("{name}-base.journal"));
    let mut base = Durable::begin(&base_path, &opts, a, b).expect("begin");
    let outcome = session
        .check_durable(a, b, &mut base)
        .expect("baseline run");
    let base_proof = tc_bytes(&outcome);
    let base_journal = std::fs::read(&base_path).expect("baseline journal");

    for phase in PHASES {
        let path = tmp(&format!("{name}-{phase}.journal"));
        let mut d = Durable::begin(&path, &opts, a, b).expect("begin");
        d.arm(CrashPoint {
            phase: (*phase).to_string(),
            mode: CrashMode::Error,
        });
        match session.check_durable(a, b, &mut d) {
            Err(CecError::CrashInjected { phase: p }) => assert_eq!(&p, phase),
            other => panic!("{name} {phase}: expected injected crash, got {other:?}"),
        }
        drop(d);

        // The same crash armed again does not fire: its checkpoint is
        // replayed now, and a replayed checkpoint was already survived.
        let mut resumed = Durable::resume(&path, &opts, a, b).expect("resume");
        resumed.arm(CrashPoint {
            phase: (*phase).to_string(),
            mode: CrashMode::Error,
        });
        assert!(
            resumed.pending_replay() > 0,
            "{phase}: crash left no checkpoints"
        );
        let outcome = session
            .check_durable(a, b, &mut resumed)
            .unwrap_or_else(|e| panic!("{name} {phase}: resume failed: {e}"));
        assert_eq!(
            tc_bytes(&outcome),
            base_proof,
            "{name} {phase}: resumed proof differs"
        );
        assert_eq!(
            std::fs::read(&path).expect("resumed journal"),
            base_journal,
            "{name} {phase}: resumed journal differs"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&base_path);
}

#[test]
fn crash_resume_is_byte_identical_across_zoo() {
    let pairs: Vec<(&str, Aig, Aig)> = vec![
        (
            "adder",
            gen::ripple_carry_adder(6),
            gen::kogge_stone_adder(6),
        ),
        ("parity", gen::parity_chain(16), gen::parity_tree(16)),
        ("popcount", gen::popcount_serial(8), gen::popcount_csa(8)),
    ];
    for (name, a, b) in &pairs {
        crash_matrix(name, a, b);
    }
}

#[test]
fn resume_rejects_mismatched_options() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::carry_lookahead_adder(4);
    let opts = EngineConfig::default();
    let path = tmp("mismatch.journal");
    let mut d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    Session::new(opts.clone(), &SharedContext::disabled())
        .check_durable(&a, &b, &mut d)
        .expect("run");
    drop(d);

    // Different seed → different header → refuse to resume.
    let other = EngineConfig {
        seed: 7,
        ..opts.clone()
    };
    match Durable::resume(&path, &other, &a, &b) {
        Err(CecError::Journal(msg)) => assert!(msg.contains("header"), "{msg}"),
        other => panic!("expected header rejection, got {other:?}"),
    }
    // Different inputs → same refusal.
    let c = gen::carry_select_adder(4, 2);
    match Durable::resume(&path, &opts, &a, &c) {
        Err(CecError::Journal(msg)) => assert!(msg.contains("header"), "{msg}"),
        other => panic!("expected header rejection, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_detects_checkpoint_divergence() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::carry_lookahead_adder(4);
    let opts = EngineConfig::default();
    let path = tmp("diverge.journal");
    // A journal whose header is honest but whose first checkpoint lies.
    let d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    drop(d);
    let mut w = obs::journal::JournalWriter::append(&path, 1).expect("append");
    w.write(&obs::json::Value::Object(vec![
        ("type".into(), obs::json::Value::str("checkpoint")),
        ("phase".into(), obs::json::Value::str("miter")),
        ("nodes".into(), obs::json::Value::U64(0)),
        ("output".into(), obs::json::Value::U64(0)),
    ]))
    .expect("write");
    drop(w);

    let mut resumed = Durable::resume(&path, &opts, &a, &b).expect("resume");
    match Session::new(opts, &SharedContext::disabled()).check_durable(&a, &b, &mut resumed) {
        Err(CecError::ReplayDivergence { seq: 1, .. }) => {}
        other => panic!("expected divergence at seq 1, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inequivalent_runs_journal_the_counterexample() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::mutate(&a, 3).expect("adder has gates");
    assert!(
        aig::sim::exhaustive_diff(&a, &b, 9).is_some(),
        "mutation must change the function"
    );
    let opts = EngineConfig::default();
    let path = tmp("sat.journal");
    let mut d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    let outcome = Session::new(opts.clone(), &SharedContext::disabled())
        .check_durable(&a, &b, &mut d)
        .expect("run");
    assert!(outcome.counterexample().is_some());
    drop(d);

    let contents = obs::journal::read_journal_file(&path).expect("journal");
    let last = contents.records.last().expect("records");
    assert_eq!(
        last.body.get("type").and_then(obs::json::Value::as_str),
        Some("verdict")
    );
    assert!(
        last.body.get("pattern").is_some(),
        "SAT verdict carries the pattern"
    );
    let _ = std::fs::remove_file(&path);
}
