//! Fuzz-style robustness tests for every persisted-artifact parser.
//!
//! Two attack surfaces, one contract: a parser fed hostile bytes must
//! return a parse error or a successful parse — it must never panic,
//! hang, or allocate absurdly. The first surface is fully random bytes;
//! the second is structure-aware mutation — take a byte-exact valid
//! artifact, then flip a bit, truncate it, or splice a line, which
//! lands much deeper in each grammar than noise ever does.
//!
//! `REGRESSIONS` pins inputs that broke (or nearly broke) a parser in
//! the past so the suite replays them forever, proptest or not.
//!
//! Every input also checks that the strict readers and the lenient lint
//! front-ends agree: a TraceCheck file loads as the same proof in both
//! or in neither, and the journal damage the strict reader refuses is
//! the damage the lint reports as an error.

use obs::journal::{read_journal, JournalError};
use proptest::prelude::*;
use resolution_cec::aig::{aiger, gen};
use resolution_cec::cec::{miter_cnf, Durable, EngineConfig, Miter, Session, SharedContext};
use resolution_cec::cnf::dimacs;
use resolution_cec::proof::{export, import, Proof};

/// Past panics and pathological headers, replayed on every run.
///
/// The first three target the AIGER header paths hardened against
/// oversized node counts (`M`/`I`/`A` fields near or past `MAX_NODES`
/// and `u64::MAX`); the rest probe truncation, NUL bytes, and
/// grammar-adjacent noise in all the text formats. The last four are
/// a TraceCheck line with both a grammar error and a forward reference,
/// a TraceCheck step id of `u64::MAX`, and two journals whose records
/// are intact but carry a forged `seq`: on the final line, and at
/// `u64::MAX`.
const REGRESSIONS: &[&[u8]] = &[
    b"aag 18446744073709551615 1 0 1 18446744073709551614",
    b"aag 999999999999 999999999999 0 1 0\n",
    b"aig 536870911 536870911 0 0 0\n",
    b"aag 3 1 0 1 2\n2\n4\n4 2 3\n",
    b"p cnf 4294967295 4294967295\n1 -1 0",
    b"p cnf 2 1\n1 \x00 2 0\n",
    b"1 1 2 0 0\n2 -1 0 1 0\n",
    b"d 1 2 3 0\n0\n",
    b"rounds 18446744073709551615\n",
    b"{\"seq\":0,\"crc\":\"xx\",\"body\":{\"kind\":\"header\"}}\n",
    b"\xff\xfe\x00aag 1 1 0 1 0",
    b"1 1 0 0\n2 -1 0 0\n3 0 5 x 0\n",
    b"18446744073709551615 1 0 0\n2 -1 0 0\n",
    b"{\"seq\":0,\"crc\":\"85b1143fd1a50672\",\"body\":{\"type\":\"header\"}}\n\
      {\"seq\":5,\"crc\":\"2167e23b7ff4f3b2\",\"body\":{\"type\":\"verdict\"}}\n",
    b"{\"seq\":0,\"crc\":\"85b1143fd1a50672\",\"body\":{\"type\":\"header\"}}\n\
      {\"seq\":18446744073709551615,\"crc\":\"136d4707fc79e0ed\",\"body\":{\"type\":\"checkpoint\"}}\n\
      {\"seq\":18446744073709551615,\"crc\":\"2167e23b7ff4f3b2\",\"body\":{\"type\":\"verdict\"}}\n",
];

/// Feeds one byte string to every parser in the workspace. The test
/// is the absence of a panic plus the agreement of each strict reader
/// with its lint front-end; other results are deliberately discarded.
fn feed_all_parsers(bytes: &[u8]) {
    let opts = lint::LintOptions::default();
    let _ = aiger::read(bytes);
    let _ = dimacs::read(bytes);
    let _ = lint::lint_drat(bytes, None, &opts);
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = lint::CertificateInfo::parse(text);
    }
    let shown = String::from_utf8_lossy(bytes);

    let strict = import::read_tracecheck(bytes).ok();
    let lenient = lint::read_tracecheck(bytes, &opts)
        .ok()
        .and_then(|(_, proof)| proof);
    match (&strict, &lenient) {
        (None, None) => {}
        (Some(s), Some(l)) => assert_eq!(tracecheck(s), tracecheck(l), "on {shown:?}"),
        _ => panic!(
            "strict importer accepted: {}, lint loaded a proof: {}, on {shown:?}",
            strict.is_some(),
            lenient.is_some()
        ),
    }

    let corrupt = matches!(read_journal(bytes), Err(JournalError::Corrupt { .. }));
    let Ok(report) = lint::lint_journal(bytes, &opts) else {
        assert!(!corrupt, "lint could not read a corrupt journal: {shown:?}");
        return;
    };
    if corrupt {
        assert!(
            ["JN001", "JN002", "JN003"].iter().any(|c| report.has(c)),
            "corrupt journal without a JN001-JN003 error: {shown:?}"
        );
    }
    if report.has("JN002") || report.has("JN003") {
        assert!(
            corrupt,
            "JN002/JN003 on a journal read_journal accepts: {shown:?}"
        );
    }
}

fn tracecheck(proof: &Proof) -> Vec<u8> {
    let mut bytes = Vec::new();
    export::write_tracecheck(proof, &mut bytes).expect("writing to memory cannot fail");
    bytes
}

#[test]
fn regressions_never_panic() {
    for case in REGRESSIONS {
        feed_all_parsers(case);
    }
}

/// Byte-exact valid artifacts of every class, from one real journaled
/// engine run.
fn valid_artifacts() -> Vec<Vec<u8>> {
    let a = gen::ripple_carry_adder(3);
    let b = gen::carry_lookahead_adder(3);
    let config = EngineConfig::default();
    let journal = std::env::temp_dir().join(format!("fuzz-parsers-{}.journal", std::process::id()));
    let mut durable = Durable::begin(&journal, &config, &a, &b).unwrap();
    let outcome = Session::new(config, &SharedContext::disabled())
        .check_durable(&a, &b, &mut durable)
        .unwrap();
    drop(durable);
    let journal_bytes = std::fs::read(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let cert = outcome.certificate().expect("adders are equivalent");
    let proof = cert.proof.as_ref().expect("proof logging is on");

    let mut aig_bytes = Vec::new();
    aiger::write_ascii(&a, &mut aig_bytes).unwrap();
    let miter = Miter::build(&a, &b, true);
    let mut cnf_bytes = Vec::new();
    dimacs::write(&miter_cnf(&miter), &mut cnf_bytes).unwrap();
    let mut tc_bytes = Vec::new();
    export::write_tracecheck(proof, &mut tc_bytes).unwrap();
    let mut drat_bytes = Vec::new();
    export::write_drat(proof, &mut drat_bytes).unwrap();
    let mut cert_bytes = Vec::new();
    cert.info().write(&mut cert_bytes).unwrap();
    vec![
        aig_bytes,
        cnf_bytes,
        tc_bytes,
        drat_bytes,
        cert_bytes,
        journal_bytes,
    ]
}

fn mutate(bytes: &mut Vec<u8>, op: u8, pos: usize, byte: u8) {
    if bytes.is_empty() {
        bytes.push(byte);
        return;
    }
    let pos = pos % bytes.len();
    match op % 4 {
        0 => bytes[pos] ^= 1 << (byte % 8),
        1 => bytes.truncate(pos),
        2 => bytes.insert(pos, byte),
        _ => {
            bytes.remove(pos);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Fully random bytes: noise must bounce off every parser.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        feed_all_parsers(&bytes);
    }

    /// Structure-aware: start from valid artifacts and damage them a
    /// little — the parsers must still return, not panic.
    #[test]
    fn mutated_valid_artifacts_never_panic(
        op1 in any::<u8>(),
        pos1 in any::<usize>(),
        byte1 in any::<u8>(),
        op2 in any::<u8>(),
        pos2 in any::<usize>(),
        byte2 in any::<u8>(),
    ) {
        for mut artifact in valid_artifacts() {
            mutate(&mut artifact, op1, pos1, byte1);
            mutate(&mut artifact, op2, pos2, byte2);
            feed_all_parsers(&artifact);
        }
    }

    /// ASCII-biased noise reaches deeper grammar states than raw bytes
    /// (headers parse, then counts/literals go wrong).
    #[test]
    fn ascii_noise_never_panics(
        head in 0usize..5,
        body in prop::collection::vec(0u8..128, 0..256),
    ) {
        let mut bytes: Vec<u8> =
            [&b"aag "[..], &b"p cnf "[..], &b"1 "[..], &b"d "[..], &b""[..]][head].to_vec();
        bytes.extend_from_slice(&body);
        feed_all_parsers(&bytes);
    }
}
