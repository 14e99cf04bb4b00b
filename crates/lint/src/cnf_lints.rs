//! Lints for CNF formulas (`CFxxx`).

use crate::{Artifact, Location, Report, CF001, CF002, CF003, CF004};
use cnf::{Cnf, Lit};
use std::collections::HashMap;

/// Lints a CNF formula: unused declared variables ([`CF001`]),
/// duplicate clauses up to literal order ([`CF002`]), tautological
/// clauses ([`CF003`]), and contiguous unused variable ranges that
/// indicate a gap in a Tseitin encoding ([`CF004`]).
pub fn lint_cnf(f: &Cnf) -> Report {
    let mut r = Report::new(Artifact::Cnf);
    let mut used = vec![false; f.num_vars() as usize];
    let mut seen: HashMap<Vec<Lit>, usize> = HashMap::new();

    for (index, clause) in f.clauses().iter().enumerate() {
        for l in clause {
            used[l.var().as_usize()] = true;
        }
        let mut norm = clause.clone();
        norm.sort_unstable();
        norm.dedup();
        if norm.windows(2).any(|w| w[0].var() == w[1].var()) {
            r.emit(CF003, Some(Location::Clause(index as u32)), || {
                "clause contains a variable in both polarities".into()
            });
        }
        match seen.entry(norm) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                r.emit(CF002, Some(Location::Clause(index as u32)), || {
                    format!("clause repeats clause {first} verbatim (up to literal order)")
                });
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(index);
            }
        }
    }

    // Unused variables: lone holes get CF001, runs of two or more are
    // reported once as a range gap (CF004) — the signature of an entire
    // Tseitin node block going missing.
    let mut v = 0usize;
    while v < used.len() {
        if used[v] {
            v += 1;
            continue;
        }
        let start = v;
        while v < used.len() && !used[v] {
            v += 1;
        }
        let len = v - start;
        if len == 1 {
            r.emit(CF001, Some(Location::Var(start as u32)), || {
                "declared variable occurs in no clause".into()
            });
        } else {
            r.emit(CF004, Some(Location::Var(start as u32)), || {
                format!(
                    "variables {}..={} ({len} consecutive) occur in no clause",
                    start + 1,
                    start + len
                )
            });
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn x(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn clean_formula() {
        let mut f = Cnf::new();
        f.add_clause(vec![x(0).positive(), x(1).positive()]);
        f.add_clause(vec![x(0).negative(), x(1).negative()]);
        let r = lint_cnf(&f);
        assert!(r.is_clean());
        assert_eq!(r.counts().warnings, 0);
        assert_eq!(r.counts().infos, 0);
    }

    #[test]
    fn duplicate_up_to_order_and_tautology() {
        let mut f = Cnf::new();
        f.add_clause(vec![x(0).positive(), x(1).positive()]);
        f.add_clause(vec![x(1).positive(), x(0).positive()]);
        f.add_clause(vec![x(2).positive(), x(2).negative()]);
        let r = lint_cnf(&f);
        assert_eq!(r.total("CF002"), 1);
        assert_eq!(r.total("CF003"), 1);
        assert!(r.is_clean()); // warnings only
    }

    #[test]
    fn unused_variable_vs_range_gap() {
        let mut f = Cnf::new();
        f.reserve_vars(10);
        // Uses vars 0, 2, and 6..=9; leaves 1 (lone) and 3..=5 (run).
        f.add_clause(vec![x(0).positive(), x(2).positive()]);
        f.add_clause(vec![
            x(6).positive(),
            x(7).positive(),
            x(8).positive(),
            x(9).positive(),
        ]);
        let r = lint_cnf(&f);
        assert_eq!(r.total("CF001"), 1);
        assert_eq!(r.total("CF004"), 1);
        let gap = r
            .diagnostics()
            .iter()
            .find(|d| d.lint.code == "CF004")
            .unwrap();
        assert!(gap.message.contains("4..=6"), "{}", gap.message);
    }
}
