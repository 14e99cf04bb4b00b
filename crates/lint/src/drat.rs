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
//! Leniency has a direction: deleting a clause does **not** retract the
//! unit-propagation prefix it may have contributed to, so the
//! accumulated base assignment can be stale-strong. That can only make
//! a RUP check pass that should fail (a missed defect), never report a
//! sound addition as `DR002`.

use crate::{
    clause_dimacs, is_tautology, normalize_clause, Artifact, LintOptions, Location, Report, DR001,
    DR002, DR003, DR004, DR005,
};
use cnf::{Cnf, Lit};
use proof::import::parse_clause;
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
    let cap = opts.max_per_lint;
    let mut store = Store::default();
    if let Some(f) = formula {
        for c in f.clauses() {
            store.load(normalize_clause(c.clone()));
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
                report.emit(DR001, loc, cap, || message);
                continue;
            }
        };
        if let Some(tok) = tokens.next() {
            report.emit(DR001, loc, cap, || {
                format!("trailing token `{tok}` after the terminating 0")
            });
            continue;
        }

        let clause = normalize_clause(lits);
        if deleting {
            if !store.delete(&clause) {
                report.emit(DR003, loc, cap, || {
                    format!(
                        "deletion of {}, which is neither in the formula nor \
                         currently added",
                        clause_dimacs(&clause)
                    )
                });
            }
            continue;
        }
        if clause.is_empty() {
            saw_empty = true;
        }
        if store.count(&clause) > 0 {
            report.emit(DR004, loc, cap, || {
                format!("clause {} is already active", clause_dimacs(&clause))
            });
        }
        if check_rup && !is_tautology(&clause) && !store.check_rup(&clause) {
            report.emit(DR002, loc, cap, || {
                format!(
                    "added clause {} is not a unit-propagation consequence of \
                     the accumulated formula",
                    clause_dimacs(&clause)
                )
            });
        }
        store.load(clause);
    }

    if opts.expect_refutation && !saw_empty {
        report.emit(DR005, None, cap, || {
            "the trace never adds the empty clause, so it refutes nothing".to_owned()
        });
    }
    Ok(report)
}

/// The accumulated formula plus a persistent unit-propagation prefix.
///
/// Clauses are normalized before entering. Unit propagation from unit
/// clauses runs eagerly on load (the *base* assignment); a RUP check
/// assumes the negation of the candidate on top of the base, propagates,
/// and unwinds its own trail suffix afterwards.
#[derive(Default)]
struct Store {
    clauses: Vec<Vec<Lit>>,
    active: Vec<bool>,
    /// Literal code → indices of clauses containing it (never shrunk;
    /// deactivated clauses are skipped during scans).
    occ: Vec<Vec<usize>>,
    /// Active copies by normalized literals, for deletion and
    /// duplicate detection.
    index: HashMap<Vec<Lit>, Vec<usize>>,
    /// Per-variable value: 1 true, -1 false, 0 unassigned.
    value: Vec<i8>,
    /// Assigned-true literals, base prefix first.
    trail: Vec<Lit>,
    base_len: usize,
    /// The base itself is contradictory: every RUP check succeeds.
    base_conflict: bool,
}

impl Store {
    fn ensure(&mut self, clause: &[Lit]) {
        if let Some(l) = clause.last() {
            // Normalized clauses are sorted by code, so the last literal
            // bounds both the value and the occurrence tables.
            let vars = l.var().as_usize() + 1;
            if self.value.len() < vars {
                self.value.resize(vars, 0);
            }
        }
    }

    fn val(&self, l: Lit) -> i8 {
        let v = self.value[l.var().as_usize()];
        if l.is_negative() {
            -v
        } else {
            v
        }
    }

    fn assign(&mut self, l: Lit) {
        self.value[l.var().as_usize()] = if l.is_negative() { -1 } else { 1 };
        self.trail.push(l);
    }

    fn count(&self, clause: &[Lit]) -> usize {
        self.index.get(clause).map_or(0, Vec::len)
    }

    fn load(&mut self, clause: Vec<Lit>) {
        self.ensure(&clause);
        let ci = self.clauses.len();
        self.index.entry(clause.clone()).or_default().push(ci);
        let taut = is_tautology(&clause);
        if !taut {
            for &l in &clause {
                let code = l.code() as usize;
                if self.occ.len() <= code {
                    self.occ.resize_with(code + 1, Vec::new);
                }
                self.occ[code].push(ci);
            }
        }
        self.clauses.push(clause);
        self.active.push(true);
        if taut || self.base_conflict {
            return;
        }
        // Extend the base if the new clause is unit (or empty) under it.
        let c = &self.clauses[ci];
        if c.iter().any(|&l| self.val(l) == 1) {
            return;
        }
        let mut unit = None;
        let mut unassigned = 0usize;
        for &l in c {
            if self.val(l) == 0 {
                unassigned += 1;
                unit = Some(l);
            }
        }
        match unassigned {
            0 => self.base_conflict = true,
            1 => {
                let head = self.trail.len();
                self.assign(unit.expect("counted one"));
                if self.propagate(head) {
                    self.base_conflict = true;
                }
                self.base_len = self.trail.len();
            }
            _ => {}
        }
    }

    fn delete(&mut self, clause: &[Lit]) -> bool {
        match self.index.get_mut(clause) {
            Some(v) if !v.is_empty() => {
                let ci = v.pop().expect("non-empty");
                self.active[ci] = false;
                true
            }
            _ => false,
        }
    }

    /// Unit propagation from `trail[head..]`. Returns true on conflict.
    fn propagate(&mut self, mut head: usize) -> bool {
        while head < self.trail.len() {
            let l = self.trail[head];
            head += 1;
            let falsified = (!l).code() as usize;
            if falsified >= self.occ.len() {
                continue;
            }
            for wi in 0..self.occ[falsified].len() {
                let ci = self.occ[falsified][wi];
                if !self.active[ci] {
                    continue;
                }
                let mut satisfied = false;
                let mut unit = None;
                let mut unassigned = 0usize;
                for i in 0..self.clauses[ci].len() {
                    let cl = self.clauses[ci][i];
                    match self.val(cl) {
                        1 => {
                            satisfied = true;
                            break;
                        }
                        0 => {
                            unassigned += 1;
                            unit = Some(cl);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned {
                    0 => return true,
                    1 => self.assign(unit.expect("counted one")),
                    _ => {}
                }
            }
        }
        false
    }

    /// Does `clause` follow from the active set by reverse unit
    /// propagation? Leaves the base assignment untouched.
    fn check_rup(&mut self, clause: &[Lit]) -> bool {
        if self.base_conflict {
            return true;
        }
        self.ensure(clause);
        let start = self.trail.len();
        let mut conflict = false;
        for &l in clause {
            match self.val(l) {
                // The base already satisfies a literal of the clause, so
                // assuming its negation is immediately contradictory.
                1 => {
                    conflict = true;
                    break;
                }
                0 => self.assign(!l),
                _ => {}
            }
        }
        if !conflict {
            conflict = self.propagate(start);
        }
        while self.trail.len() > start {
            let l = self.trail.pop().expect("trail suffix");
            self.value[l.var().as_usize()] = 0;
        }
        conflict
    }
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
