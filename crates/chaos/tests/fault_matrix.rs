//! The fault-injection acceptance matrix.
//!
//! For every persisted artifact class in a bundle — both circuit AIGER
//! files, the miter DIMACS, the TraceCheck and DRAT proofs, the
//! certificate, the run journal, and the manifest itself — this test
//! applies 100+ seeded corruptions (single bit flips, multi-bit flips,
//! truncations, torn mid-file records) and demands the paired checker
//! reject every single one
//! with a stable `XB` diagnostic code: zero panics, zero false accepts.
//!
//! The rejection guarantee is structural: the manifest fingerprints
//! every artifact, so any byte damage trips `XB010` (artifact-hash)
//! before the damaged bytes reach a parser, and damage to the manifest
//! itself trips `XB010`/`XB011` (manifest). The deeper parse/lint/cross
//! checks behind the hash gate are exercised by
//! `crates/lint/tests/bundle_adversarial.rs`.

use aig::gen;
use cec::EngineConfig;
use chaos::{check_bundle, corrupt, prove_and_emit, FAULT_MODES, MANIFEST};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const SEEDS_PER_MODE: u64 = 26; // 4 modes x 26 = 104 corruptions per class

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fault-matrix-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

fn emit(dir: &Path, a: &aig::Aig, b: &aig::Aig) {
    prove_and_emit(dir, a, b, &EngineConfig::default(), None, false).expect("emit");
    let clean = check_bundle(dir, &lint::LintOptions::default());
    assert!(
        clean.is_clean(),
        "pristine bundle: {:?}",
        clean.diagnostics()
    );
}

/// Runs the full matrix over one bundle directory: every artifact file
/// present on disk, every fault mode, `SEEDS_PER_MODE` seeds each.
fn assault(dir: &Path) {
    let opts = lint::LintOptions::default();
    let mut classes = 0;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            chaos::ARTIFACTS.contains(&name.as_str()) || name == MANIFEST,
            "unexpected file {name} in bundle"
        );
        classes += 1;
        let pristine = fs::read(&path).unwrap();
        let mut rejected = 0u64;
        for &mode in FAULT_MODES {
            for seed in 0..SEEDS_PER_MODE {
                let mut bytes = pristine.clone();
                let what = corrupt(&mut bytes, mode, seed);
                assert_ne!(bytes, pristine, "{name}: {what} changed nothing");
                fs::write(&path, &bytes).unwrap();
                // The checker's contract is total: diagnostics, never
                // panics. catch_unwind turns any violation into a
                // named failure instead of a poisoned test binary.
                let report = catch_unwind(AssertUnwindSafe(|| check_bundle(dir, &opts)))
                    .unwrap_or_else(|_| panic!("{name}: checker panicked on `{what}`"));
                assert!(
                    !report.is_clean(),
                    "{name}: false accept of `{what}` (seed {seed})"
                );
                assert!(
                    report.has("XB010") || report.has("XB011"),
                    "{name}: `{what}` rejected without a stable code: {:?}",
                    report.diagnostics()
                );
                rejected += 1;
            }
        }
        fs::write(&path, &pristine).unwrap();
        assert!(
            rejected >= 100,
            "{name}: only {rejected} corruptions exercised"
        );
    }
    assert!(classes >= 5, "bundle only had {classes} artifact classes");
    let clean = check_bundle(dir, &lint::LintOptions::default());
    assert!(
        clean.is_clean(),
        "restored bundle: {:?}",
        clean.diagnostics()
    );
}

#[test]
fn every_corruption_of_an_equivalent_bundle_is_rejected() {
    let dir = tmp("equivalent");
    let a = gen::ripple_carry_adder(2);
    let b = gen::brent_kung_adder(2);
    emit(&dir, &a, &b);
    // All seven artifact classes plus the manifest are present here.
    for name in chaos::ARTIFACTS {
        assert!(dir.join(name).is_file(), "missing {name}");
    }
    assault(&dir);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_corruption_of_an_inequivalent_bundle_is_rejected() {
    let dir = tmp("inequivalent");
    let a = gen::parity_chain(5);
    // Find a mutant that really differs; an inequivalent bundle carries
    // no proof artifacts, only the SAT-side evidence.
    let b = (0..64)
        .filter_map(|seed| gen::mutate(&a, seed))
        .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
        .expect("some mutant differs");
    let outcome =
        prove_and_emit(&dir, &a, &b, &EngineConfig::default(), None, false).expect("emit");
    assert!(!outcome.is_equivalent());
    let clean = check_bundle(&dir, &lint::LintOptions::default());
    assert!(
        clean.is_clean(),
        "pristine bundle: {:?}",
        clean.diagnostics()
    );
    assault(&dir);
    fs::remove_dir_all(&dir).unwrap();
}
