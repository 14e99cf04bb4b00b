//! Adversarial mutation tests for the proof checkers: each test builds
//! a valid proof, applies one class of corruption, and asserts the
//! pipeline rejects it with the matching `CheckError` variant — no
//! silent acceptance.
//!
//! Corruption classes and the `CheckError` family each one exercises:
//!
//! 1. drop an antecedent        → `NoPivot` (strict)
//! 2. swap chain order          → `ResolventNotSubsumed` (strict)
//! 3. flip a literal            → `MultiplePivots` (strict) and
//!    `RupFailed` (RUP)
//! 4. forward-reference a step  → rejected at import; unconstructible
//!    in debug builds; `ForwardReference` from both checkers in release
//! 5. delete the empty clause   → `NoRefutation`
//! 6. make an antecedent
//!    tautological              → `TautologicalAntecedent` (strict) and
//!    `RupFailed` (RUP), at any chain position
//!
//! Chain-only corruptions (1 and 2) leave the recorded clause a true
//! consequence of the earlier clauses, so `check_rup` — which ignores
//! recorded antecedents by design — still accepts; the tests pin that
//! down explicitly rather than let it pass silently.
//!
//! The `lint_codes` module at the bottom maps the same six classes to
//! the static-analysis layer: each corruption must surface as a
//! *distinct* `rplint` code (RP101 / RP103 / RP104 / RP001 / RP002 /
//! RP003), so the linter localizes the defect class, not just the fact
//! of failure.

use cnf::Var;
use proof::check::{self, CheckError};
use proof::{ClauseId, Proof};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Class 1 — dropping a link from an implication chain
    /// `x0, (¬x0∨x1), …, (¬x_{k-1}∨x_k) ⊢ (x_k)` opens a gap that the
    /// strict replay stumbles on at exactly the dropped position.
    #[test]
    fn drop_antecedent_is_rejected(
        base in 0u32..32,
        k in 3usize..8,
        drop_choice in any::<u64>(),
    ) {
        let x = |i: usize| Var::new(base + i as u32);
        let mut p = Proof::new();
        let mut ants = vec![p.add_original([x(0).positive()])];
        for i in 0..k {
            ants.push(p.add_original([x(i).negative(), x(i + 1).positive()]));
        }
        p.add_derived([x(k).positive()], ants.iter().copied());
        prop_assert_eq!(check::check_strict(&p), Ok(()));

        // Drop a middle link; a later link must remain to stumble on.
        let drop_pos = 1 + (drop_choice as usize) % (k - 1);
        let mut corrupted = Proof::new();
        let mut kept = Vec::new();
        for (i, &a) in ants.iter().enumerate() {
            let id = corrupted.add_original(p.clause(a).iter().copied());
            if i != drop_pos {
                kept.push(id);
            }
        }
        let bad = corrupted.add_derived([x(k).positive()], kept);
        prop_assert_eq!(
            check::check_strict(&corrupted),
            Err(CheckError::NoPivot { step: bad, position: drop_pos })
        );
        // The conclusion is still a true consequence; RUP (which ignores
        // chains) accepts — the strict checker is the chain audit.
        prop_assert_eq!(check::check_rup(&corrupted), Ok(()));
    }

    /// Class 2 — swapping the chain order of
    /// `(x0∨x1), (¬x0∨x1), (¬x1∨x2) ⊢ (x2)` re-associates the pivots so
    /// the replayed resolvent keeps a literal the recorded clause lacks.
    #[test]
    fn swap_chain_order_is_rejected(base in 0u32..32) {
        let x = |i: u32| Var::new(base + i);
        let build = |swap: bool| {
            let mut p = Proof::new();
            let a0 = p.add_original([x(0).positive(), x(1).positive()]);
            let l1 = p.add_original([x(0).negative(), x(1).positive()]);
            let l2 = p.add_original([x(1).negative(), x(2).positive()]);
            let chain = if swap { [a0, l2, l1] } else { [a0, l1, l2] };
            let d = p.add_derived([x(2).positive()], chain);
            (p, d)
        };
        let (valid, _) = build(false);
        prop_assert_eq!(check::check_strict(&valid), Ok(()));

        let (corrupted, bad) = build(true);
        prop_assert_eq!(
            check::check_strict(&corrupted),
            Err(CheckError::ResolventNotSubsumed { step: bad, missing: x(1).positive() })
        );
        // Still a true consequence: RUP accepts the re-ordered chain.
        prop_assert_eq!(check::check_rup(&corrupted), Ok(()));
    }

    /// Class 3 — flipping a literal inside an antecedent clause of
    /// `(x0∨x1), (¬x0∨x1) ⊢ (x1)` creates a double clash for the strict
    /// checker *and* breaks the semantic entailment, so both checkers
    /// must reject.
    #[test]
    fn flip_literal_is_rejected(base in 0u32..32) {
        let x = |i: u32| Var::new(base + i);
        let build = |flip: bool| {
            let mut p = Proof::new();
            let a0 = p.add_original([x(0).positive(), x(1).positive()]);
            let second = if flip { x(1).negative() } else { x(1).positive() };
            let l1 = p.add_original([x(0).negative(), second]);
            let d = p.add_derived([x(1).positive()], [a0, l1]);
            (p, d)
        };
        let (valid, _) = build(false);
        prop_assert_eq!(check::check_strict(&valid), Ok(()));
        prop_assert_eq!(check::check_rup(&valid), Ok(()));

        let (corrupted, bad) = build(true);
        prop_assert_eq!(
            check::check_strict(&corrupted),
            Err(CheckError::MultiplePivots { step: bad, position: 1 })
        );
        prop_assert_eq!(check::check_rup(&corrupted), Err(CheckError::RupFailed(bad)));
    }

    /// Class 4 — a TraceCheck file whose derived step cites a step at or
    /// after itself is refused by the importer (the only door external
    /// proofs come through), so corrupted files never even reach the
    /// checkers.
    #[test]
    fn forward_reference_is_rejected_at_import(
        base in 0u32..16,
        ahead in 0u64..4,
    ) {
        let v = base as i64 + 1;
        let forward = 3 + ahead; // step 3 citing step ≥ 3
        let text = format!(
            "1 {v} 0 0\n2 {} 0 0\n3 {v} 0 {forward} 2 0\n",
            v + 1
        );
        prop_assert!(proof::import::read_tracecheck(text.as_bytes()).is_err());
    }

    /// Class 5 — deleting the empty clause from a valid refutation
    /// leaves every derivation intact but voids the refutation claim.
    #[test]
    fn delete_empty_clause_voids_refutation(base in 0u32..32) {
        let x = Var::new(base);
        let y = Var::new(base + 1);
        let mut p = Proof::new();
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative(), y.positive()]);
        let c3 = p.add_original([x.positive(), y.negative()]);
        let c4 = p.add_original([x.negative(), y.negative()]);
        let py = p.add_derived([y.positive()], [c1, c2]);
        let ny = p.add_derived([y.negative()], [c3, c4]);
        let empty = p.add_derived([], [py, ny]);
        prop_assert!(check::check_refutation(&p).is_ok());

        let mut corrupted = Proof::new();
        for (id, step) in p.iter() {
            if id == empty {
                continue;
            }
            if step.is_original() {
                corrupted.add_original(step.clause.iter().copied());
            } else {
                corrupted.add_derived(step.clause.iter().copied(), step.antecedents.iter().copied());
            }
        }
        // The surviving derivations are untouched and still check…
        prop_assert_eq!(check::check_strict(&corrupted), Ok(()));
        prop_assert_eq!(check::check_rup(&corrupted), Ok(()));
        // …but the proof no longer refutes anything.
        prop_assert_eq!(
            check::check_refutation(&corrupted).unwrap_err(),
            CheckError::NoRefutation
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Class 6 — adding `x0` to the antecedent `(¬x0∨¬x1)` of
    /// `(x1), (¬x0∨¬x1) ⊢ (¬x0)` makes it a tautology. The chain still
    /// has one clashing variable, but no chain replay admits the
    /// tautology, wherever it sits; and `(¬x0)` no longer follows.
    #[test]
    fn tautological_antecedent_is_rejected(base in 0u32..32, first in any::<bool>()) {
        let x = |i: u32| Var::new(base + i);
        let build = |taut: bool| {
            let mut p = Proof::new();
            let unit = p.add_original([x(1).positive()]);
            let mut lits = vec![x(0).negative(), x(1).negative()];
            if taut {
                lits.push(x(0).positive());
            }
            let t = p.add_original(lits);
            let chain = if first { [t, unit] } else { [unit, t] };
            let d = p.add_derived([x(0).negative()], chain);
            (p, t, d)
        };
        let (valid, _, _) = build(false);
        prop_assert_eq!(check::check_strict(&valid), Ok(()));
        prop_assert_eq!(check::check_rup(&valid), Ok(()));

        let (corrupted, t, bad) = build(true);
        prop_assert_eq!(
            check::check_strict(&corrupted),
            Err(CheckError::TautologicalAntecedent(t))
        );
        prop_assert_eq!(check::check_rup(&corrupted), Err(CheckError::RupFailed(bad)));
    }
}

/// Class 4, checker side, debug profile: the store itself refuses to
/// build a forward reference, so no in-process proof can smuggle one
/// past the checkers.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "antecedent must precede the derived step")]
fn forward_reference_unconstructible_in_debug() {
    let mut p = Proof::new();
    let x = Var::new(0);
    p.add_original([x.positive()]);
    // A derived step citing itself (the id it will be assigned).
    p.add_derived([x.positive()], [ClauseId::new(1)]);
}

/// Class 4, checker side, release profile: with the debug assertion
/// compiled out, both checkers reject the forward reference themselves.
#[cfg(not(debug_assertions))]
#[test]
fn forward_reference_rejected_by_checkers() {
    let mut p = Proof::new();
    let x = Var::new(0);
    p.add_original([x.positive()]);
    let bad = p.add_derived([x.positive()], [ClauseId::new(1)]);
    let expected = CheckError::ForwardReference {
        step: bad,
        antecedent: ClauseId::new(1),
    };
    assert_eq!(check::check_strict(&p), Err(expected.clone()));
    assert_eq!(check::check_rup(&p), Err(expected));
}

/// The same six corruption classes, seen through the static-analysis
/// layer: each must map to a distinct `rplint` code, and the lint pass
/// must stay clean on the uncorrupted originals.
mod lint_codes {
    use cnf::Var;
    use lint::LintOptions;
    use proof::Proof;

    fn opts() -> LintOptions {
        LintOptions {
            expect_refutation: true,
            ..LintOptions::default()
        }
    }

    /// Class 1 — a dropped antecedent leaves too few clashing pivot
    /// pairs for the chain length: RP101, and only RP101, fires among
    /// the chain lints (the order-replay lints never run on a step
    /// whose pivot census already failed).
    #[test]
    fn drop_antecedent_maps_to_rp101() {
        let x = |i: u32| Var::new(i);
        let mut p = Proof::new();
        let c0 = p.add_original([x(0).positive()]);
        let c1 = p.add_original([x(0).negative(), x(1).positive()]);
        let _c2 = p.add_original([x(1).negative(), x(2).positive()]);
        let c3 = p.add_original([x(2).negative(), x(3).positive()]);
        // Chain drops c2: three antecedents need two clashes, but only
        // x0 clashes between c0/c1 — x1 and x2 each appear one-sided.
        p.add_derived([x(3).positive()], [c0, c1, c3]);
        let report = lint::lint_proof(&p, &LintOptions::default());
        assert!(report.has("RP101"), "{report:?}");
        assert!(!report.has("RP103") && !report.has("RP104"), "{report:?}");
        assert!(report.counts().errors > 0);
    }

    /// Class 2 — swapping the chain order keeps the pivot census
    /// feasible but breaks the left-to-right replay: the resolvent
    /// retains a literal the recorded clause lacks (RP103).
    #[test]
    fn swap_chain_order_maps_to_rp103() {
        let x = |i: u32| Var::new(i);
        let mut p = Proof::new();
        let a0 = p.add_original([x(0).positive(), x(1).positive()]);
        let l1 = p.add_original([x(0).negative(), x(1).positive()]);
        let l2 = p.add_original([x(1).negative(), x(2).positive()]);
        p.add_derived([x(2).positive()], [a0, l2, l1]);
        let report = lint::lint_proof(&p, &LintOptions::default());
        assert!(report.has("RP103"), "{report:?}");
        assert!(!report.has("RP101") && !report.has("RP104"), "{report:?}");
        assert!(report.counts().errors > 0);
    }

    /// Class 3 — flipping a literal makes two variables clash between
    /// the first two chain clauses, so the replay cannot pick a unique
    /// pivot: RP104.
    #[test]
    fn flip_literal_maps_to_rp104() {
        let x = |i: u32| Var::new(i);
        let mut p = Proof::new();
        let a0 = p.add_original([x(0).positive(), x(1).positive()]);
        let l1 = p.add_original([x(0).negative(), x(1).negative()]);
        p.add_derived([x(1).positive()], [a0, l1]);
        let report = lint::lint_proof(&p, &LintOptions::default());
        assert!(report.has("RP104"), "{report:?}");
        assert!(!report.has("RP101") && !report.has("RP103"), "{report:?}");
        assert!(report.counts().errors > 0);
    }

    /// Class 4 — the strict importer refuses forward references
    /// outright; the lenient TraceCheck front-end instead *reports* the
    /// defect as RP001 and keeps scanning.
    #[test]
    fn forward_reference_maps_to_rp001() {
        let text = "1 1 0 0\n2 2 0 0\n3 1 0 4 2 0\n";
        let report = lint::lint_tracecheck(text.as_bytes(), &opts()).unwrap();
        assert!(report.has("RP001"), "{report:?}");
        assert!(report.counts().errors > 0);
    }

    /// Class 5 — deleting the empty clause from a refutation leaves
    /// every chain replaying cleanly; only the refutation claim itself
    /// is void (RP002, reported only when a refutation was expected).
    #[test]
    fn delete_empty_clause_maps_to_rp002() {
        let x = Var::new(0);
        let y = Var::new(1);
        let mut p = Proof::new();
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative(), y.positive()]);
        let c3 = p.add_original([x.positive(), y.negative()]);
        let c4 = p.add_original([x.negative(), y.negative()]);
        p.add_derived([y.positive()], [c1, c2]);
        p.add_derived([y.negative()], [c3, c4]);
        // Without the final resolution to the empty clause the chains
        // all replay, but the refutation claim is gone.
        let report = lint::lint_proof(&p, &opts());
        assert!(report.has("RP002"), "{report:?}");
        assert!(report.counts().errors > 0);
        // The same proof lints clean when no refutation was promised
        // (dead final steps are informational, not errors).
        let relaxed = lint::lint_proof(&p, &LintOptions::default());
        assert!(relaxed.is_clean(), "{relaxed:?}");
    }

    /// Class 6 — a chain citing a tautological input is an RP003
    /// error on that input, and the chain lints stay silent on the
    /// chain: the defect is the tautology, not the pivots.
    #[test]
    fn tautological_antecedent_maps_to_rp003() {
        let x = |i: u32| Var::new(i);
        let mut p = Proof::new();
        let unit = p.add_original([x(1).positive()]);
        let t = p.add_original([x(0).negative(), x(0).positive(), x(1).negative()]);
        p.add_derived([x(0).negative()], [unit, t]);
        let report = lint::lint_proof(&p, &LintOptions::default());
        assert!(report.has("RP003"), "{report:?}");
        assert_eq!(report.counts().errors, 1, "{report:?}");
        assert!(
            !["RP101", "RP102", "RP103", "RP104", "RP105", "RP106"]
                .iter()
                .any(|code| report.has(code)),
            "{report:?}"
        );
    }

    /// Control — the uncorrupted refutation is clean under the
    /// strictest options, so the six positives above are not noise.
    #[test]
    fn valid_refutation_is_clean() {
        let x = Var::new(0);
        let y = Var::new(1);
        let mut p = Proof::new();
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative(), y.positive()]);
        let c3 = p.add_original([x.positive(), y.negative()]);
        let c4 = p.add_original([x.negative(), y.negative()]);
        let py = p.add_derived([y.positive()], [c1, c2]);
        let ny = p.add_derived([y.negative()], [c3, c4]);
        p.add_derived([], [py, ny]);
        let report = lint::lint_proof(&p, &opts());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.counts().errors, 0);
    }
}
