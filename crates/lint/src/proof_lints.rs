//! Structural and chain-analysis lints for resolution proofs.
//!
//! The structural pass (`RP0xx`) touches each step's own clause and
//! antecedent-id list exactly once — it never gathers the *contents* of
//! antecedent clauses — so it is substantially cheaper than replay and
//! is what `rplint --fast` runs. The chain pass (`RP1xx`) adds two
//! per-step analyses over antecedent literals:
//!
//! 1. **Pivot-count analysis** (order-insensitive): a chain of `k`
//!    antecedents performs `k − 1` resolutions, and each resolution on a
//!    variable `v` consumes at least one positive and one negative
//!    occurrence of `v`, so `Σ_v min(pos_v, neg_v) ≥ k − 1` is necessary
//!    ([`RP101`]); and a literal whose variable occurs in only one
//!    polarity can never be cancelled, so it must appear in the recorded
//!    clause ([`RP102`]).
//! 2. **Order replay** (runs only when pivot-count analysis passes):
//!    the checker's own chain replay, [`proof::chain::Chains`], whose
//!    refusals map to missing ([`RP105`]) or ambiguous ([`RP104`])
//!    pivots; its pivots to repeated pivot variables ([`RP106`]); and
//!    its resolvent to leftover literals the recorded clause lacks
//!    ([`RP103`]).
//!
//! A chain citing a forward reference or a tautology gets neither
//! analysis: [`RP001`] or [`RP003`] already names its defect. Both
//! analyses index their tables by the replay's dense variable slots.

use crate::{
    cited_steps, dimacs, is_tautology, Artifact, LintOptions, Location, Report, Severity, RP001,
    RP002, RP003, RP004, RP005, RP006, RP101, RP102, RP103, RP104, RP105, RP106,
};
use cnf::Lit;
use proof::chain::Chains;
use proof::check::CheckError;
use proof::{ClauseId, Proof};
use std::collections::HashMap;

/// Lints a resolution proof. See the crate docs for the lint taxonomy
/// and [`LintOptions`] for the structural-only/full switch.
pub fn lint_proof(p: &Proof, opts: &LintOptions) -> Report {
    let mut r = Report::new(Artifact::Proof);

    // Structural pass: one sweep over each step's own clause and ids.
    let mut seen: HashMap<&[Lit], ClauseId> = HashMap::new();
    // Which steps some chain cites, computed only once a tautological
    // input turns up.
    let mut cited: Option<Vec<bool>> = None;
    for (id, step) in p.iter() {
        for &a in step.antecedents {
            if a.index() >= id.index() {
                let what = if a == id { "itself" } else { "a later step" };
                r.emit(RP001, Some(Location::Step(id.index())), || {
                    format!("antecedent {a} references {what}")
                });
            }
        }
        if is_tautology(step.clause) {
            // A tautological *input* is junk the encoder should not have
            // emitted; a *derived* or cited one breaks every chain
            // replay that uses it.
            let input = step.is_original();
            let cited = input && cited.get_or_insert_with(|| cited_steps(p))[id.as_usize()];
            let (sev, kind) = match (input, cited) {
                (false, _) => (Severity::Error, "derived"),
                (true, false) => (Severity::Warn, "input"),
                (true, true) => (Severity::Error, "cited input"),
            };
            r.emit_severity(RP003, sev, Some(Location::Step(id.index())), || {
                format!("{kind} clause contains a variable in both polarities")
            });
        }
        if !step.is_original() {
            if let Some(&first) = seen.get(step.clause) {
                r.emit(RP004, Some(Location::Step(id.index())), || {
                    format!("derived clause repeats step {first} verbatim")
                });
                continue; // keep the first id as the canonical one
            }
        }
        seen.entry(step.clause).or_insert(id);
    }

    // Refutation cone: dead steps and unused inputs.
    match p.empty_clause() {
        None => {
            if opts.expect_refutation {
                r.emit(RP002, None, || {
                    "no empty clause: the proof refutes nothing".into()
                });
            }
        }
        Some(root) => {
            let mut live = vec![false; p.len()];
            live[root.as_usize()] = true;
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                for &a in p.step(id).antecedents {
                    // Forward references were already reported; only
                    // well-formed backward edges are traversable.
                    if a.index() < id.index() && !live[a.as_usize()] {
                        live[a.as_usize()] = true;
                        stack.push(a);
                    }
                }
            }
            for (id, step) in p.iter() {
                if live[id.as_usize()] {
                    continue;
                }
                if step.is_original() {
                    r.emit(RP006, Some(Location::Step(id.index())), || {
                        "input clause is never used by the refutation cone".into()
                    });
                } else {
                    r.emit(RP005, Some(Location::Step(id.index())), || {
                        "derived step lies outside the empty clause's cone".into()
                    });
                }
            }
        }
    }

    if opts.chain {
        lint_chains(p, &mut r);
    }
    r
}

/// The chain-analysis pass (`RP1xx`); see the module docs.
fn lint_chains(p: &Proof, r: &mut Report) {
    let mut chains = Chains::new(p);
    // Occurrence counters for the pivot census and pivot marks for the
    // replay, per slot, cleared through touched lists so one allocation
    // serves every step.
    let mut count = vec![[0u32; 2]; chains.num_vars()];
    let mut counted: Vec<u32> = Vec::new();
    let mut pivot_seen = vec![false; chains.num_vars()];
    let mut pivots: Vec<u32> = Vec::new();

    for (id, step) in p.iter() {
        if step.is_original()
            || step
                .antecedents
                .iter()
                .any(|&a| a.index() >= id.index() || chains.is_tautology(a))
        {
            continue; // nothing to resolve, or RP001/RP003 reported it
        }
        let at = Some(Location::Step(id.index()));
        let recorded = step.clause;
        let needed = step.antecedents.len() - 1;

        // Pivot-count analysis (order-insensitive).
        for &a in step.antecedents {
            for &code in chains.codes(a) {
                let c = &mut count[(code >> 1) as usize];
                if *c == [0, 0] {
                    counted.push(code >> 1);
                }
                c[(code & 1) as usize] += 1;
            }
        }
        let clash_pairs: usize = counted
            .iter()
            .map(|&s| count[s as usize][0].min(count[s as usize][1]) as usize)
            .sum();
        let lone = counted.iter().find_map(|&s| {
            let l = match count[s as usize] {
                [_, 0] => chains.var(s).positive(),
                [0, _] => chains.var(s).negative(),
                _ => return None,
            };
            recorded.binary_search(&l).is_err().then_some(l)
        });
        for s in counted.drain(..) {
            count[s as usize] = [0, 0];
        }
        if clash_pairs < needed {
            r.emit(RP101, at, || {
                format!(
                    "chain of {} antecedents needs {needed} resolutions but its clauses \
                     contain only {clash_pairs} clashing variable pairs",
                    step.antecedents.len()
                )
            });
            continue;
        }
        if let Some(l) = lone {
            r.emit(RP102, at, || {
                format!(
                    "literal {} occurs in one polarity only (unresolvable) \
                     yet is missing from the recorded clause",
                    dimacs(l)
                )
            });
            continue;
        }

        // Order replay.
        let replay = chains.resolve(id, |_, slot, var| {
            if std::mem::replace(&mut pivot_seen[slot as usize], true) {
                r.emit(RP106, at, || {
                    format!(
                        "irregular chain: pivot variable {} is resolved more than once",
                        var.index() + 1
                    )
                });
            } else {
                pivots.push(slot);
            }
        });
        match replay {
            Ok(resolvent) => {
                if let Some(l) = resolvent
                    .iter()
                    .find(|l| recorded.binary_search(l).is_err())
                {
                    r.emit(RP103, at, || {
                        format!(
                            "replaying the chain in recorded order leaves literal {} \
                             which the recorded clause lacks",
                            dimacs(*l)
                        )
                    });
                }
            }
            Err(CheckError::NoPivot { position, .. }) => {
                let a = step.antecedents[position];
                r.emit(RP105, at, || {
                    format!("antecedent {a} (chain position {position}) shares no clashing variable with the running resolvent")
                });
            }
            Err(CheckError::MultiplePivots { position, .. }) => {
                let a = step.antecedents[position];
                r.emit(RP104, at, || {
                    format!("antecedent {a} (chain position {position}) clashes with the running resolvent on more than one variable")
                });
            }
            Err(_) => {} // forward references and tautologies were skipped
        }
        for s in pivots.drain(..) {
            pivot_seen[s as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn x(i: u32) -> Var {
        Var::new(i)
    }

    /// A minimal valid refutation of `(x∨y)(¬x∨y)(x∨¬y)(¬x∨¬y)`.
    fn refutation() -> Proof {
        let mut p = Proof::new();
        let c1 = p.add_original([x(0).positive(), x(1).positive()]);
        let c2 = p.add_original([x(0).negative(), x(1).positive()]);
        let c3 = p.add_original([x(0).positive(), x(1).negative()]);
        let c4 = p.add_original([x(0).negative(), x(1).negative()]);
        let py = p.add_derived([x(1).positive()], [c1, c2]);
        let ny = p.add_derived([x(1).negative()], [c3, c4]);
        p.add_derived([], [py, ny]);
        p
    }

    #[test]
    fn valid_refutation_is_clean() {
        let r = lint_proof(
            &refutation(),
            &LintOptions {
                expect_refutation: true,
                ..LintOptions::default()
            },
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.counts().warnings, 0);
        assert_eq!(r.counts().infos, 0);
    }

    #[test]
    fn dead_steps_and_unused_inputs_are_info() {
        let mut p = refutation();
        p.add_original([x(5).positive()]); // never used
        let a = p.add_original([x(6).positive(), x(7).positive()]);
        let b = p.add_original([x(6).negative(), x(7).positive()]);
        p.add_derived([x(7).positive()], [a, b]); // dead derivation
        let r = lint_proof(&p, &LintOptions::default());
        assert!(r.is_clean());
        assert_eq!(r.total("RP005"), 1);
        assert_eq!(r.total("RP006"), 3);
    }

    #[test]
    fn missing_refutation_only_flagged_on_request() {
        let mut p = Proof::new();
        p.add_original([x(0).positive()]);
        assert!(lint_proof(&p, &LintOptions::default()).is_clean());
        let r = lint_proof(
            &p,
            &LintOptions {
                expect_refutation: true,
                ..LintOptions::default()
            },
        );
        assert!(r.has("RP002"));
        assert!(!r.is_clean());
    }

    #[test]
    fn duplicate_derivation_warns() {
        let mut p = Proof::new();
        let a = p.add_original([x(0).positive(), x(1).positive()]);
        let b = p.add_original([x(0).negative(), x(1).positive()]);
        p.add_derived([x(1).positive()], [a, b]);
        p.add_derived([x(1).positive()], [a, b]);
        let r = lint_proof(&p, &LintOptions::default());
        assert_eq!(r.total("RP004"), 1);
        assert!(r.is_clean()); // duplicates are waste, not defects
    }

    #[test]
    fn tautological_input_warns_but_derived_errors() {
        let mut p = Proof::new();
        let t = p.add_original([x(0).positive(), x(0).negative()]);
        let r = lint_proof(&p, &LintOptions::default());
        assert_eq!(r.total("RP003"), 1);
        assert!(r.is_clean());

        let mut p2 = Proof::new();
        let a = p2.add_original([x(0).positive(), x(1).positive()]);
        let _ = t;
        // A derived step whose *recorded clause* is tautological.
        let b = p2.add_original([x(0).negative(), x(1).negative()]);
        p2.add_derived([x(1).positive(), x(1).negative()], [a, b]);
        let r2 = lint_proof(&p2, &LintOptions::structural());
        assert_eq!(r2.total("RP003"), 1);
        assert!(!r2.is_clean());
    }

    #[test]
    fn a_cited_tautological_input_is_an_error_without_chain_findings() {
        // (x0 ∨ ¬x0 ∨ x1), (¬x0 ∨ x2) ⊢ (¬x0 ∨ x1 ∨ x2): every chain
        // lint would pass it, but no replay admits the tautology.
        let mut p = Proof::new();
        let t = p.add_original([x(0).positive(), x(0).negative(), x(1).positive()]);
        let c = p.add_original([x(0).negative(), x(2).positive()]);
        p.add_derived([x(0).negative(), x(1).positive(), x(2).positive()], [t, c]);
        let r = lint_proof(&p, &LintOptions::structural());
        assert_eq!(r.total("RP003"), 1);
        assert!(!r.is_clean(), "{:?}", r.diagnostics());
        let r = lint_proof(&p, &LintOptions::default());
        assert_eq!(r.counts().errors, 1, "{:?}", r.diagnostics());
        assert_eq!(r.counts().warnings + r.counts().infos, 0);
    }

    #[test]
    fn dropped_antecedent_fails_pivot_count() {
        // x0, (¬x0∨x1), (¬x1∨x2), (¬x2∨x3) ⊢ x3 with the middle link
        // dropped: only k−2 clashing pairs remain for k−1 resolutions.
        let mut p = Proof::new();
        let u = p.add_original([x(0).positive()]);
        let l0 = p.add_original([x(0).negative(), x(1).positive()]);
        let _l1 = p.add_original([x(1).negative(), x(2).positive()]);
        let l2 = p.add_original([x(2).negative(), x(3).positive()]);
        p.add_derived([x(3).positive()], [u, l0, l2]);
        let r = lint_proof(&p, &LintOptions::default());
        assert!(r.has("RP101"), "{:?}", r.diagnostics());
        assert!(!r.has("RP103"));
        assert!(!r.has("RP104"));
    }

    #[test]
    fn swapped_chain_fails_order_replay() {
        let mut p = Proof::new();
        let a0 = p.add_original([x(0).positive(), x(1).positive()]);
        let l1 = p.add_original([x(0).negative(), x(1).positive()]);
        let l2 = p.add_original([x(1).negative(), x(2).positive()]);
        p.add_derived([x(2).positive()], [a0, l2, l1]);
        let r = lint_proof(&p, &LintOptions::default());
        assert!(r.has("RP103"), "{:?}", r.diagnostics());
        assert!(!r.has("RP101"));
        assert!(!r.has("RP104"));
    }

    #[test]
    fn flipped_literal_is_an_ambiguous_pivot() {
        let mut p = Proof::new();
        let a0 = p.add_original([x(0).positive(), x(1).positive()]);
        let l1 = p.add_original([x(0).negative(), x(1).negative()]);
        p.add_derived([x(1).positive()], [a0, l1]);
        let r = lint_proof(&p, &LintOptions::default());
        assert!(r.has("RP104"), "{:?}", r.diagnostics());
        assert!(!r.has("RP101"));
        assert!(!r.has("RP103"));
    }

    #[test]
    fn merging_chains_replay_cleanly() {
        // (a∨b) + (a∨¬b) → (a), then + (¬a) → (): occurrence counts are
        // asymmetric (a appears twice positively) but merging makes the
        // chain valid — the lint must not false-positive.
        let mut p = Proof::new();
        let c0 = p.add_original([x(0).positive(), x(1).positive()]);
        let c1 = p.add_original([x(0).positive(), x(1).negative()]);
        let c2 = p.add_original([x(0).negative()]);
        p.add_derived([], [c0, c1, c2]);
        let r = lint_proof(
            &p,
            &LintOptions {
                expect_refutation: true,
                ..LintOptions::default()
            },
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }

    #[test]
    fn weakening_steps_are_clean_but_bad_weakening_is_not() {
        let mut p = Proof::new();
        let a = p.add_original([x(0).positive()]);
        p.add_derived([x(0).positive(), x(1).positive()], [a]);
        assert!(lint_proof(&p, &LintOptions::default()).is_clean());

        // "Weakening" that loses the antecedent's literal is invalid.
        let mut q = Proof::new();
        let a = q.add_original([x(0).positive(), x(2).positive()]);
        q.add_derived([x(1).positive()], [a]);
        let r = lint_proof(&q, &LintOptions::default());
        assert!(r.has("RP102"), "{:?}", r.diagnostics());
    }

    #[test]
    fn irregular_chain_repeating_a_pivot_warns() {
        // Resolve on x0, reintroduce it, resolve on x0 again: valid but
        // irregular.
        let mut p = Proof::new();
        let c0 = p.add_original([x(0).positive(), x(1).positive()]);
        let c1 = p.add_original([x(0).negative(), x(2).positive()]);
        let c2 = p.add_original([x(2).negative(), x(0).positive()]);
        let c3 = p.add_original([x(0).negative(), x(3).positive()]);
        p.add_derived([x(1).positive(), x(3).positive()], [c0, c1, c2, c3]);
        let r = lint_proof(&p, &LintOptions::default());
        assert!(r.has("RP106"), "{:?}", r.diagnostics());
        assert!(r.is_clean()); // a warning, not an error
    }

    #[test]
    fn structural_pass_skips_chain_lints() {
        let mut p = Proof::new();
        let a0 = p.add_original([x(0).positive(), x(1).positive()]);
        let l1 = p.add_original([x(0).negative(), x(1).negative()]);
        p.add_derived([x(1).positive()], [a0, l1]);
        let r = lint_proof(&p, &LintOptions::structural());
        assert!(!r.has("RP104"));
        assert!(r.is_clean());
    }
}
