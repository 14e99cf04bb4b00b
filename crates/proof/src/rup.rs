//! Reverse unit propagation (RUP) over a growing clause set.
//!
//! A clause `C` is a RUP consequence of a clause set when assuming `¬C`
//! and propagating unit clauses reaches a conflict. [`Propagator`] is
//! the workspace's one propagator for that question: it is behind
//! [`crate::check::check_rup`] and the DRAT front-end's `DR002` lint.
//!
//! Its behaviour is fixed, not configurable:
//!
//! - Units propagate eagerly into a persistent *base* assignment as
//!   clauses are added; [`Propagator::implies`] assumes `¬C` on top of
//!   the base, propagates with two watched literals per clause, and
//!   unwinds back to the base.
//! - A contradictory base (an empty clause, or units that clash) makes
//!   every check pass.
//! - A tautology never propagates: its two clashing literals are never
//!   both false, and when one is false the other is true.
//! - [`Propagator::deactivate`] stops a clause from propagating in
//!   later checks but does not retract what it already added to the
//!   base. The base can so be *stale-strong*: a check may pass that the
//!   active clauses alone fail (a missed defect), but none passes that
//!   fails against every clause ever added, and every check the active
//!   clauses pass still passes.
//!
//! The per-variable and per-literal tables grow with the distinct
//! variables the clauses name, not with the largest index: each
//! variable gets a dense slot when first seen (`intern`, which
//! [`crate::chain::Chains`] shares), so a clause naming variable
//! 2^31−1 costs a few bytes.

use cnf::Lit;
use std::collections::HashMap;

const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// A clause set with a persistent unit-propagation base, answering RUP
/// queries.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::rup::Propagator;
///
/// let (x, y) = (Var::new(0), Var::new(1));
/// let mut rup = Propagator::default();
/// rup.add(&[x.positive(), y.positive()]);
/// let not_x = rup.add(&[x.negative()]);
/// assert!(rup.implies(&[y.positive()]));
/// // Deactivating `¬x` keeps the base it built: `y` still follows.
/// rup.deactivate(not_x);
/// assert!(rup.implies(&[y.positive()]));
/// assert!(!rup.implies(&[x.positive()]));
/// ```
#[derive(Debug, Default)]
pub struct Propagator {
    /// Variable index → dense slot, numbered in order of first sight.
    slots: HashMap<u32, u32>,
    /// Every clause's literals as dense codes (`slot * 2 + negated`).
    /// A watched clause keeps its two watches in front.
    lits: Vec<u32>,
    clauses: Vec<Clause>,
    /// Dense literal code → clauses watching that literal.
    watches: Vec<Vec<usize>>,
    /// Dense literal code → `TRUE`, `FALSE` or 0 (unassigned).
    values: Vec<i8>,
    /// Literals assigned true: the base, then during a check its
    /// assumptions and their consequences.
    trail: Vec<u32>,
    /// The base is contradictory.
    conflict: bool,
}

/// The dense code of `l` (`slot * 2 + negated`), giving its variable
/// the next slot in `slots` on first sight.
pub(crate) fn intern(slots: &mut HashMap<u32, u32>, l: Lit) -> u32 {
    // A `Lit` code is a `u32`, so there are at most 2^31 variables and
    // every slot and dense code fits a `u32` too.
    let next = slots.len() as u32;
    let slot = *slots.entry(l.var().index()).or_insert(next);
    slot << 1 | u32::from(l.is_negative())
}

#[derive(Debug)]
struct Clause {
    start: usize,
    end: usize,
    active: bool,
}

impl Propagator {
    /// Adds `clause`, which must be sorted and duplicate-free, and
    /// returns its handle for [`Propagator::deactivate`]. A clause that
    /// is unit under the base extends the base; one that is false under
    /// it makes the base contradictory.
    pub fn add(&mut self, clause: &[Lit]) -> usize {
        debug_assert!(
            clause.windows(2).all(|w| w[0] < w[1]),
            "clause not sorted and duplicate-free: {clause:?}"
        );
        let start = self.lits.len();
        for &l in clause {
            let code = self.code(l);
            self.lits.push(code);
        }
        let handle = self.clauses.len();
        self.clauses.push(Clause {
            start,
            end: self.lits.len(),
            active: true,
        });
        if !self.conflict {
            self.attach(handle);
        }
        handle
    }

    /// Stops the clause behind `handle` from propagating in later
    /// checks. What it already added to the base stays.
    pub fn deactivate(&mut self, handle: usize) {
        self.clauses[handle].active = false;
    }

    /// Whether `clause` is a RUP consequence of the active clauses and
    /// the base: assuming every literal of `clause` false and
    /// propagating reaches a conflict. The base is unchanged afterwards.
    pub fn implies(&mut self, clause: &[Lit]) -> bool {
        if self.conflict {
            return true;
        }
        let base = self.trail.len();
        let mut conflict = false;
        for &l in clause {
            let code = self.code(l);
            match self.values[code as usize] {
                TRUE => {
                    conflict = true;
                    break;
                }
                FALSE => {}
                _ => self.assign(code ^ 1),
            }
        }
        let conflict = conflict || self.propagate(base);
        for code in self.trail.drain(base..) {
            self.values[code as usize] = 0;
            self.values[(code ^ 1) as usize] = 0;
        }
        conflict
    }

    /// The dense code of `l`, giving its variable a slot on first sight.
    fn code(&mut self, l: Lit) -> u32 {
        let code = intern(&mut self.slots, l);
        if self.values.len() < 2 * self.slots.len() {
            self.values.extend([0, 0]);
            self.watches.extend([Vec::new(), Vec::new()]);
        }
        code
    }

    fn assign(&mut self, code: u32) {
        self.values[code as usize] = TRUE;
        self.values[(code ^ 1) as usize] = FALSE;
        self.trail.push(code);
    }

    /// Watches the new clause `ci` on two literals that are not false
    /// under the base; with fewer, the clause is unit, satisfied or
    /// false under the base, and the base absorbs it.
    fn attach(&mut self, ci: usize) {
        let Clause { start, end, .. } = self.clauses[ci];
        let mut open = start;
        for k in start..end {
            if open < start + 2 && self.values[self.lits[k] as usize] != FALSE {
                self.lits.swap(open, k);
                open += 1;
            }
        }
        match open - start {
            0 => self.conflict = true,
            1 => {
                let unit = self.lits[start];
                if self.values[unit as usize] == 0 {
                    let head = self.trail.len();
                    self.assign(unit);
                    self.conflict = self.propagate(head);
                }
            }
            _ => {
                self.watches[self.lits[start] as usize].push(ci);
                self.watches[self.lits[start + 1] as usize].push(ci);
            }
        }
    }

    /// Propagates the trail from `head` over the active clauses;
    /// returns whether some clause became false.
    fn propagate(&mut self, mut head: usize) -> bool {
        while head < self.trail.len() {
            let falsified = self.trail[head] ^ 1;
            head += 1;
            let mut ws = std::mem::take(&mut self.watches[falsified as usize]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = false;
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let clause = &self.clauses[ci];
                if !clause.active {
                    continue; // drop the watch of a deactivated clause
                }
                let lits = &mut self.lits[clause.start..clause.end];
                if lits[0] == falsified {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], falsified);
                let other = lits[0];
                let values = &self.values;
                let other_value = values[other as usize];
                if other_value != TRUE {
                    if let Some(k) = lits[2..].iter().position(|&l| values[l as usize] != FALSE) {
                        lits.swap(1, k + 2);
                        self.watches[lits[1] as usize].push(ci);
                        continue;
                    }
                }
                ws[j] = ci;
                j += 1;
                match other_value {
                    TRUE => {}
                    FALSE => {
                        conflict = true;
                        ws.copy_within(i.., j);
                        j += ws.len() - i;
                        break;
                    }
                    _ => self.assign(other),
                }
            }
            ws.truncate(j);
            self.watches[falsified as usize] = ws;
            if conflict {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    #[test]
    fn a_deactivated_clause_stops_propagating() {
        let (x, y) = (Var::new(0), Var::new(1));
        let x_implies_y = [x.negative(), y.positive()];
        let mut rup = Propagator::default();
        let handle = rup.add(&x_implies_y);
        assert!(rup.implies(&x_implies_y));
        rup.deactivate(handle);
        assert!(!rup.implies(&x_implies_y));
    }
}
