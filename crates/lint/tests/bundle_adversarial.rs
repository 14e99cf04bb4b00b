//! Adversarial bundle corruptions against real engine artifacts.
//!
//! The engine proves a 2-thread (stitched) adder pair; the test then
//! rebuilds the very bundle `rcec --lint-bundle` assembles — miter
//! graph, miter CNF, proof, certificate metadata — and injects one
//! corruption at a time, asserting each maps to its distinct `XB` code
//! while the pristine bundle lints clean.

use aig::gen;
use cec::monolithic::{prove_monolithic, MonolithicOptions};
use cec::{miter_cnf, CecOutcome, EngineConfig, Miter, Session, SharedContext};
use cnf::{dimacs, tseitin, Cnf, Var};
use lint::{fix_proof, lint_bundle, Bundle, CertificateInfo, LintOptions};
use proof::export::{write_drat, write_tracecheck};
use proof::Proof;

struct EngineBundle {
    graph: aig::Aig,
    cnf: Cnf,
    proof: Proof,
    info: CertificateInfo,
}

/// One stitched (2-thread) engine run over a 6-bit adder pair, plus the
/// same bundle reconstruction `rcec --lint-bundle` performs.
fn engine_bundle() -> EngineBundle {
    let a = gen::ripple_carry_adder(6);
    let b = gen::kogge_stone_adder(6);
    let options = EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    };
    let outcome = Session::new(options, &SharedContext::disabled())
        .check(&a, &b)
        .expect("prove");
    let CecOutcome::Equivalent(cert) = outcome else {
        panic!("adders are equivalent");
    };
    let miter = Miter::build(&a, &b, true);
    let cnf = miter_cnf(&miter);
    let info = cert.info();
    assert!(
        info.rounds.unwrap() > 0 && !info.stitch_boundaries.is_empty(),
        "2-thread run must stitch"
    );
    EngineBundle {
        graph: miter.graph,
        cnf,
        proof: cert.proof.clone().expect("proof recorded"),
        info,
    }
}

fn lint(b: &EngineBundle, cnf: &Cnf, proof: &Proof, info: &CertificateInfo) -> lint::Report {
    lint_bundle(
        &Bundle {
            aig: Some(&b.graph),
            cnf: Some(cnf),
            proof: Some(proof),
            certificate: Some(info),
        },
        &LintOptions::default(),
    )
}

#[test]
fn engine_bundle_corruption_classes_map_to_distinct_codes() {
    let b = engine_bundle();

    // Pristine: zero errors, zero warnings — every input step binds and
    // the stitched certificate agrees with the proof.
    let clean = lint(&b, &b.cnf, &b.proof, &b.info);
    assert!(clean.is_clean(), "{:?}", clean.diagnostics());
    assert_eq!(clean.counts().warnings, 0, "{:?}", clean.diagnostics());

    // Corruption 1: flip one literal of a Tseitin gate clause.
    let mut bad_cnf = b.cnf.clone();
    let victim = bad_cnf
        .clauses_mut()
        .iter_mut()
        .find(|c| c.len() == 3)
        .expect("gate clause");
    victim[0] = !victim[0];
    let r = lint(&b, &bad_cnf, &b.proof, &b.info);
    assert!(r.has("XB003"), "{:?}", r.diagnostics());

    // Corruption 2: smuggle a foreign input clause into the proof. Two
    // primary inputs never share a binary clause in a Tseitin encoding.
    let mut bad_proof = b.proof.clone();
    bad_proof.add_original([Var::new(1).positive(), Var::new(2).positive()]);
    let r = lint(&b, &b.cnf, &bad_proof, &b.info);
    assert!(r.has("XB005"), "{:?}", r.diagnostics());

    // Corruption 3: certificate pointing at the wrong empty-clause step.
    let bad_info = CertificateInfo {
        empty_clause: Some(0),
        ..b.info.clone()
    };
    let r = lint(&b, &b.cnf, &b.proof, &bad_info);
    assert!(r.has("XB007"), "{:?}", r.diagnostics());

    // All three at once: three distinct XB error codes, as the
    // acceptance criterion demands.
    let r = lint(&b, &bad_cnf, &bad_proof, &bad_info);
    for code in ["XB003", "XB005", "XB007"] {
        assert!(r.has(code), "missing {code}: {:?}", r.diagnostics());
    }
}

#[test]
fn dropped_stitch_boundary_is_xb008_and_stats_drift_is_xb009() {
    let b = engine_bundle();

    let mut dropped = b.info.clone();
    dropped.stitch_boundaries.pop();
    let r = lint(&b, &b.cnf, &b.proof, &dropped);
    assert!(r.has("XB008"), "{:?}", r.diagnostics());
    assert!(!r.has("XB009"), "{:?}", r.diagnostics());

    let drifted = CertificateInfo {
        resolutions: b.info.resolutions.map(|n| n + 1),
        ..b.info.clone()
    };
    let r = lint(&b, &b.cnf, &b.proof, &drifted);
    assert!(r.has("XB009"), "{:?}", r.diagnostics());
    assert!(!r.has("XB008"), "{:?}", r.diagnostics());
}

#[test]
fn fix_preserves_engine_refutations() {
    // Untrimmed engine proofs carry dead steps by construction; --fix's
    // library core must strip them while keeping the refutation whole.
    let b = engine_bundle();
    let fixed = fix_proof(&b.proof);
    assert!(fixed.changed, "engine proofs are untrimmed");
    assert!(fixed.proof.len() < b.proof.len());
    assert!(fixed.proof.empty_clause().is_some());
    proof::check::check_refutation(&fixed.proof).expect("fixed proof replays");

    let again = fix_proof(&fixed.proof);
    assert!(!again.changed, "fix must be idempotent");

    // The repaired proof still binds to the engine's CNF: dedup and
    // trim never invent input clauses.
    let r = lint_bundle(
        &Bundle {
            cnf: Some(&b.cnf),
            proof: Some(&fixed.proof),
            ..Bundle::default()
        },
        &LintOptions::default(),
    );
    assert!(r.is_clean(), "{:?}", r.diagnostics());
}

// ---------------------------------------------------------------------------
// Monolithic baseline: bit flips over the serialized partitioned bundle.
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — a tiny deterministic bit-position source so
/// the sweep needs no RNG dependency.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flips one seeded bit in place.
fn flip_bit(bytes: &mut [u8], seed: u64) {
    let h = mix(seed);
    let pos = (h % bytes.len() as u64) as usize;
    bytes[pos] ^= 1 << ((h >> 32) % 8);
}

struct MonolithicBundle {
    cnf: Cnf,
    proof: Proof,
    dimacs: Vec<u8>,
    trace: Vec<u8>,
    drat: Vec<u8>,
}

/// One monolithic run over a 3-bit adder pair: the single-call engine's
/// partitioned miter CNF plus its proof, serialized into every on-disk
/// format the bundle carries.
fn monolithic_bundle() -> MonolithicBundle {
    let a = gen::ripple_carry_adder(3);
    let b = gen::brent_kung_adder(3);
    let enc = tseitin::encode_miter(&a, &b);
    assert_eq!(enc.partition.len(), enc.cnf.num_clauses());
    assert!(
        enc.partition.contains(&tseitin::Partition::A)
            && enc.partition.contains(&tseitin::Partition::B),
        "partition labels must cover both circuits"
    );
    let outcome = prove_monolithic(&a, &b, &MonolithicOptions::default()).expect("prove");
    let CecOutcome::Equivalent(cert) = outcome else {
        panic!("adders are equivalent");
    };
    let proof = cert.proof.clone().expect("proof recorded");
    let mut dimacs_bytes = Vec::new();
    dimacs::write(&enc.cnf, &mut dimacs_bytes).unwrap();
    let mut trace = Vec::new();
    write_tracecheck(&proof, &mut trace).unwrap();
    let mut drat = Vec::new();
    write_drat(&proof, &mut drat).unwrap();
    MonolithicBundle {
        cnf: enc.cnf,
        proof,
        dimacs: dimacs_bytes,
        trace,
        drat,
    }
}

#[test]
fn monolithic_bundle_is_clean_and_its_proof_binds_to_the_partitioned_cnf() {
    let m = monolithic_bundle();
    let r = lint_bundle(
        &Bundle {
            cnf: Some(&m.cnf),
            proof: Some(&m.proof),
            ..Bundle::default()
        },
        &LintOptions::default(),
    );
    assert_eq!(r.counts().errors, 0, "{:?}", r.diagnostics());
    let dr = lint::lint_drat(&m.drat[..], Some(&m.cnf), &LintOptions::default()).unwrap();
    assert_eq!(dr.counts().errors, 0, "{:?}", dr.diagnostics());
}

/// Soundness under serialized corruption: a bit flip in the DIMACS text
/// is either rejected with a `CF`/`XB` error, or the surviving formula
/// still carries every clause the proof binds to (a benign flip). No
/// flip may both parse clean and orphan the proof.
#[test]
fn dimacs_bit_flips_are_rejected_or_benign() {
    let m = monolithic_bundle();
    let mut caught = 0;
    for seed in 0..100u64 {
        let mut bytes = m.dimacs.clone();
        flip_bit(&mut bytes, seed);
        let Ok(parsed) = dimacs::read(&bytes[..]) else {
            caught += 1;
            continue;
        };
        let r = lint_bundle(
            &Bundle {
                cnf: Some(&parsed),
                proof: Some(&m.proof),
                ..Bundle::default()
            },
            &LintOptions::default(),
        );
        if r.counts().errors > 0 {
            assert!(
                r.has("XB003") || r.has("XB005") || r.has("XB006") || r.has("XB001"),
                "seed {seed}: unexpected codes {:?}",
                r.diagnostics()
            );
            caught += 1;
        } else {
            // Error-free acceptance is only sound if the proof's input
            // steps all still bind — which the XB pass just verified —
            // and the refutation itself still replays.
            proof::check::check_refutation(&m.proof).unwrap();
        }
    }
    assert!(caught >= 50, "only {caught}/100 DIMACS flips caught");
}

/// A bit flip in the TraceCheck text is either rejected with an
/// `RP`/`XB` error, or the surviving proof is still a genuine checkable
/// refutation of the very same partitioned CNF. Never a false accept.
#[test]
fn tracecheck_bit_flips_are_rejected_or_still_valid_refutations() {
    let m = monolithic_bundle();
    let opts = LintOptions::default();
    let mut caught = 0;
    for seed in 0..100u64 {
        let mut bytes = m.trace.clone();
        flip_bit(&mut bytes, seed);
        // A flip that breaks UTF-8 surfaces as an I/O-level rejection.
        let Ok((mut report, parsed)) = lint::read_tracecheck(&bytes[..], &opts) else {
            caught += 1;
            continue;
        };
        let Some(p) = parsed else {
            assert!(
                report.counts().errors > 0,
                "seed {seed}: no proof, no error"
            );
            caught += 1;
            continue;
        };
        report.absorb(lint::lint_proof(&p, &opts));
        report.absorb(lint_bundle(
            &Bundle {
                cnf: Some(&m.cnf),
                proof: Some(&p),
                ..Bundle::default()
            },
            &opts,
        ));
        if report.counts().errors > 0 {
            caught += 1;
        } else {
            proof::check::check_refutation(&p)
                .unwrap_or_else(|e| panic!("seed {seed}: clean lint but broken proof: {e}"));
        }
    }
    assert!(caught >= 50, "only {caught}/100 TraceCheck flips caught");
}

/// A bit flip in the DRAT text is either rejected with a `DR` error
/// against the partitioned CNF, or the surviving trace is still a valid
/// RUP refutation of it.
#[test]
fn drat_bit_flips_are_rejected_or_still_refute() {
    let m = monolithic_bundle();
    let opts = LintOptions::default();
    let mut caught = 0;
    for seed in 0..100u64 {
        let mut bytes = m.drat.clone();
        flip_bit(&mut bytes, seed);
        // A flip that breaks UTF-8 surfaces as an I/O-level rejection.
        let Ok(r) = lint::lint_drat(&bytes[..], Some(&m.cnf), &opts) else {
            caught += 1;
            continue;
        };
        if r.counts().errors > 0 {
            assert!(
                r.has("DR001") || r.has("DR002") || r.has("DR005"),
                "seed {seed}: unexpected codes {:?}",
                r.diagnostics()
            );
            caught += 1;
        }
        // errors == 0 means every addition was RUP over the partitioned
        // CNF and the empty clause was still derived (DR005 otherwise)
        // — the flip degraded nothing the checker relies on.
    }
    assert!(caught >= 50, "only {caught}/100 DRAT flips caught");
}
