//! Lenient DRAT front-end (`DR` codes).
//!
//! DRAT is the clausal proof format of the SAT-competition world: one
//! clause per line, DIMACS literals terminated by `0`, with an optional
//! leading `d` marking a deletion. `proof::export::write_drat` emits the
//! additions-only subset (derived clauses in order, no deletions); this
//! scanner accepts the full format so third-party traces can be audited
//! too.
//!
//! Like [`crate::lint_tracecheck`], the pass is a *lenient* scanner: a
//! malformed line is a `DR001` diagnostic, not a hard error, and the
//! remaining lines are still processed. The clause after the optional
//! `d` is read by [`proof::import::parse_clause`], the parser a
//! TraceCheck step starts with. Semantic checks:
//!
//! - `DR002`: with a formula present and [`LintOptions::chain`] set,
//!   every non-tautological addition is checked to be a reverse unit
//!   propagation (RUP) consequence of the formula plus the still-active
//!   additions. This validates plain DRUP traces; genuine RAT additions
//!   (which are *not* RUP) will be flagged — the engine never emits
//!   them.
//! - `DR003`: a deletion names a clause with no active copy.
//! - `DR004`: an addition duplicates an already-active clause verbatim
//!   (modulo literal order).
//! - `DR005`: [`LintOptions::expect_refutation`] is set but the trace
//!   never adds the empty clause.
//!
//! The RUP check is [`proof::rup::Propagator`]'s, and leniency has a
//! direction: deleting a clause does **not** retract the units it may
//! have contributed to the propagator's base, so the base can be
//! stale-strong. That can only make a RUP check pass that should fail
//! (a missed defect), never report a sound addition as `DR002`.

use crate::{
    clause_dimacs, is_tautology, normalize_clause, Artifact, LintOptions, Location, Report, DR001,
    DR002, DR003, DR004, DR005,
};
use cnf::{Cnf, Lit};
use proof::import::parse_clause;
use proof::rup::Propagator;
use std::collections::HashMap;
use std::io::{self, BufRead};

/// Scans a DRAT file. `formula` is the CNF the trace refutes; without
/// it, only the grammar and the addition/deletion bookkeeping
/// (`DR001`, `DR003`, `DR004`, `DR005`) are checked.
///
/// # Errors
///
/// Returns an error only on I/O failure; malformed input is reported
/// through the returned [`Report`].
pub fn lint_drat<R: BufRead>(
    reader: R,
    formula: Option<&Cnf>,
    opts: &LintOptions,
) -> io::Result<Report> {
    let mut report = Report::new(Artifact::Drat);
    let mut rup = Propagator::default();
    // Active copies by normalized literals, for deletion and duplicate
    // detection: each copy's propagator handle.
    let mut active: HashMap<Vec<Lit>, Vec<usize>> = HashMap::new();
    if let Some(f) = formula {
        for c in f.clauses() {
            let clause = normalize_clause(c.clone());
            let handle = rup.add(&clause);
            active.entry(clause).or_default().push(handle);
        }
    }
    let check_rup = formula.is_some() && opts.chain;
    let mut saw_empty = false;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = (line_no + 1) as u32;
        let loc = Some(Location::Line(lineno));
        let mut tokens = line.split_whitespace().peekable();
        let Some(&first) = tokens.peek() else {
            continue;
        };
        if first.starts_with('c') {
            continue;
        }
        let deleting = first == "d";
        if deleting {
            tokens.next();
        }
        let lits = match parse_clause(&mut tokens) {
            Ok(lits) => lits,
            Err(message) => {
                report.emit(DR001, loc, || message);
                continue;
            }
        };
        if let Some(tok) = tokens.next() {
            report.emit(DR001, loc, || {
                format!("trailing token `{tok}` after the terminating 0")
            });
            continue;
        }

        let clause = normalize_clause(lits);
        if deleting {
            match active.get_mut(&clause).and_then(Vec::pop) {
                Some(handle) => rup.deactivate(handle),
                None => report.emit(DR003, loc, || {
                    format!(
                        "deletion of {}, which is neither in the formula nor \
                         currently added",
                        clause_dimacs(&clause)
                    )
                }),
            }
            continue;
        }
        if clause.is_empty() {
            saw_empty = true;
        }
        if active.get(&clause).is_some_and(|copies| !copies.is_empty()) {
            report.emit(DR004, loc, || {
                format!("clause {} is already active", clause_dimacs(&clause))
            });
        }
        if check_rup && !is_tautology(&clause) && !rup.implies(&clause) {
            report.emit(DR002, loc, || {
                format!(
                    "added clause {} is not a unit-propagation consequence of \
                     the accumulated formula",
                    clause_dimacs(&clause)
                )
            });
        }
        let handle = rup.add(&clause);
        active.entry(clause).or_default().push(handle);
    }

    if opts.expect_refutation && !saw_empty {
        report.emit(DR005, None, || {
            "the trace never adds the empty clause, so it refutes nothing".to_owned()
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn xor_unsat() -> Cnf {
        // (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b): unsatisfiable.
        let a = Var::new(0);
        let b = Var::new(1);
        let mut f = Cnf::new();
        f.add_clause(vec![a.positive(), b.positive()]);
        f.add_clause(vec![a.negative(), b.positive()]);
        f.add_clause(vec![a.positive(), b.negative()]);
        f.add_clause(vec![a.negative(), b.negative()]);
        f
    }

    fn lint(text: &str, formula: Option<&Cnf>, opts: &LintOptions) -> Report {
        lint_drat(text.as_bytes(), formula, opts).unwrap()
    }

    #[test]
    fn clean_refutation_is_clean() {
        let f = xor_unsat();
        let opts = LintOptions {
            expect_refutation: true,
            ..LintOptions::default()
        };
        let r = lint("c comment\n1 0\n0\n", Some(&f), &opts);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.counts().warnings, 0);
    }

    #[test]
    fn deletions_are_tracked() {
        let f = xor_unsat();
        let r = lint("d 1 2 0\nd 1 2 0\n", Some(&f), &LintOptions::default());
        // Second deletion has no active copy left.
        assert_eq!(r.total("DR003"), 1, "{:?}", r.diagnostics());
    }

    #[test]
    fn grammar_errors_are_dr001() {
        let f = xor_unsat();
        let r = lint("1 2\n1 x 0\n1 0 2\n", Some(&f), &LintOptions::default());
        assert_eq!(r.total("DR001"), 3, "{:?}", r.diagnostics());
    }

    #[test]
    fn non_rup_addition_is_dr002() {
        let mut f = Cnf::new();
        f.add_clause(vec![Var::new(0).positive(), Var::new(1).positive()]);
        let r = lint("1 0\n", Some(&f), &LintOptions::default());
        assert_eq!(r.total("DR002"), 1, "{:?}", r.diagnostics());
        // Without a formula the RUP check cannot run.
        let r = lint("1 0\n", None, &LintOptions::default());
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        // With structural options it is skipped on request.
        let r = lint("1 0\n", Some(&f), &LintOptions::structural());
        assert!(r.is_clean(), "{:?}", r.diagnostics());
    }

    #[test]
    fn duplicate_addition_is_dr004() {
        let f = xor_unsat();
        let r = lint("1 0\n1 0\n", Some(&f), &LintOptions::default());
        assert_eq!(r.total("DR004"), 1, "{:?}", r.diagnostics());
        // Deleting the copy first makes the re-addition fresh.
        let r = lint("1 0\nd 1 0\n1 0\n", Some(&f), &LintOptions::default());
        assert!(!r.has("DR004"), "{:?}", r.diagnostics());
    }

    #[test]
    fn missing_refutation_is_dr005() {
        let f = xor_unsat();
        let opts = LintOptions {
            expect_refutation: true,
            ..LintOptions::default()
        };
        let r = lint("1 0\n", Some(&f), &opts);
        assert_eq!(r.total("DR005"), 1, "{:?}", r.diagnostics());
    }

    #[test]
    fn tautologies_are_not_rup_checked() {
        let f = xor_unsat();
        let r = lint("1 -1 3 0\n", Some(&f), &LintOptions::default());
        assert!(!r.has("DR002"), "{:?}", r.diagnostics());
    }
}
