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
//! the damage the lint reports as an error. The TraceCheck reader must
//! also agree with [`reference_read_tracecheck`], a plain line-by-line
//! reader kept here as its oracle, and JSON strings must escape as
//! [`reference_escape`] does and parse back.

use obs::journal::{read_journal, JournalError};
use obs::json::Value;
use proptest::prelude::*;
use resolution_cec::aig::{aiger, gen};
use resolution_cec::cec::{miter_cnf, Durable, EngineConfig, Miter, Session, SharedContext};
use resolution_cec::cnf::{dimacs, Lit};
use resolution_cec::proof::import::ParseTraceError;
use resolution_cec::proof::{export, import, ClauseId, Proof};
use std::io::BufRead;

/// Past panics and pathological headers, replayed on every run.
///
/// The first three target the AIGER header paths hardened against
/// oversized node counts (`M`/`I`/`A` fields near or past `MAX_NODES`
/// and `u64::MAX`); the rest probe truncation, NUL bytes, and
/// grammar-adjacent noise in all the text formats. Then come a
/// TraceCheck line with both a grammar error and a forward reference,
/// a TraceCheck step id of `u64::MAX`, and two journals whose records
/// are intact but carry a forged `seq`: on the final line, and at
/// `u64::MAX`. The next eight are TraceCheck text that is not in the
/// form the writer emits, for the reader oracle: a `-0` clause
/// terminator, a `+2` antecedent, U+00A0 and `\x0b` as separators, CRLF
/// line endings, a final line with no newline, a 20-digit step id, the
/// literal `-2147483648`, and invalid UTF-8 in a comment line. The last
/// two are DRAT additions of variable 2^31 − 1: `2147483647`, and
/// `-2147483648` twice, which the duplicate-addition message writes
/// back. The DRAT front-end once sized its tables by that index.
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
    b"1 1 -0 0\n2 -1 0 0\n3 0 1 2 0\n",
    b"1 1 0 0\n2 -1 0 0\n3 0 1 +2 0\n",
    b"1 1\xc2\xa00 0\n2\x0b-1 0 0\n3 0 1 2\xc2\xa00\n",
    b"1 1 0 0\r\n2 -1 0 0\r\n3 0 1 2 0\r\n",
    b"1 1 0 0\n2 -1 0 0\n3 0 1 2 0",
    b"1 1 0 0\n99999999999999999999 -1 0 0\n",
    b"1 -2147483648 0 0\n2 1 2147483647 0 0\n",
    b"1 1 0 0\nc \xff\xfe not utf-8\n2 -1 0 0\n3 0 1 2 0\n",
    b"2147483647 0\n",
    b"-2147483648 0\n-2147483648 0\n",
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
        let _ = obs::json::parse(text);
    }
    let shown = String::from_utf8_lossy(bytes);

    let read = import::read_tracecheck(bytes);
    match (&read, &reference_read_tracecheck(bytes)) {
        (Ok(p), Ok(r)) => assert_eq!(steps(p), steps(r), "on {shown:?}"),
        (Err(e), Err(r)) => {
            assert_eq!(e.to_string(), r.to_string(), "on {shown:?}");
            assert_eq!(io_kind(e), io_kind(r), "on {shown:?}");
        }
        (e, r) => panic!(
            "reader: {:?}, reference reader: {:?}, on {shown:?}",
            e.as_ref().err().map(ToString::to_string),
            r.as_ref().err().map(ToString::to_string),
        ),
    }
    let strict = read.ok();
    let lenient = lint::read_tracecheck(bytes)
        .ok()
        .and_then(|(_, proof)| proof);
    match (&strict, &lenient) {
        (None, None) => {}
        (Some(s), Some(l)) => assert_eq!(steps(s), steps(l), "on {shown:?}"),
        _ => panic!(
            "strict importer accepted: {}, lint loaded a proof: {}, on {shown:?}",
            strict.is_some(),
            lenient.is_some()
        ),
    }

    let corrupt = matches!(read_journal(bytes), Err(JournalError::Corrupt { .. }));
    let Ok(report) = lint::lint_journal(bytes) else {
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

/// The TraceCheck reader as it was before it read bytes: a `String` per
/// line from `lines()`, and every line through `parse_step`.
fn reference_read_tracecheck(bytes: &[u8]) -> Result<Proof, ParseTraceError> {
    let mut proof = Proof::new();
    for (line_no, line) in bytes.lines().enumerate() {
        let err = |m: String| ParseTraceError::Format(format!("line {}: {m}", line_no + 1));
        let Some(step) = import::parse_step(&line?).map_err(|e| err(e.message))? else {
            continue;
        };
        let (id, expected) = (step.id, proof.len() as u64 + 1);
        if id != expected {
            return Err(err(format!("expected step id {expected}, found {id}")));
        }
        if let Some(v) = step.dangling.first() {
            return Err(err(format!("antecedent {v} out of range for step {id}")));
        }
        step.add_to(&mut proof);
    }
    Ok(proof)
}

/// Every step's clause and antecedents. Two proofs with the same steps
/// export the same TraceCheck bytes; comparing steps also works for a
/// literal the writer cannot print, such as the one
/// `-2147483648` reads as.
fn steps(proof: &Proof) -> Vec<(Vec<Lit>, Vec<ClauseId>)> {
    proof
        .iter()
        .map(|(_, s)| (s.clause.to_vec(), s.antecedents.to_vec()))
        .collect()
}

fn io_kind(e: &ParseTraceError) -> Option<std::io::ErrorKind> {
    match e {
        ParseTraceError::Io(e) => Some(e.kind()),
        ParseTraceError::Format(_) => None,
    }
}

/// The JSON string escaper as it was when it wrote one `char` at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A string with every kind of character the escaper treats apart, one
/// per `(kind, value)` pick: ASCII controls, quotes, backslashes,
/// printable ASCII, two-byte and arbitrary characters. With `lossy`, the
/// lossy decoding of the picks' low bytes instead.
fn json_string(lossy: bool, picks: &[(u8, u32)]) -> String {
    if lossy {
        let bytes: Vec<u8> = picks.iter().map(|&(_, x)| x as u8).collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    picks
        .iter()
        .map(|&(kind, x)| match kind {
            0 => char::from(x as u8 % 0x20),
            1 => '"',
            2 => '\\',
            3 => char::from(0x20 + x as u8 % 0x5f),
            4 => char::from_u32(0x80 + x % 0x780).expect("two-byte range"),
            _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
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

    /// A JSON string escapes as the reference escaper does and parses
    /// back; so does the same string with only `"` and `\` escaped, as
    /// the parser accepts raw control characters.
    #[test]
    fn json_strings_escape_and_parse_back(
        lossy in any::<bool>(),
        picks in prop::collection::vec((0u8..6, any::<u32>()), 0..64),
    ) {
        let s = json_string(lossy, &picks);
        let v = Value::Str(s.clone());
        let text = v.to_string();
        prop_assert_eq!(&text, &reference_escape(&s));
        prop_assert_eq!(obs::json::parse(&text), Ok(v.clone()));
        let raw = format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        prop_assert_eq!(obs::json::parse(&raw), Ok(v));
    }
}
