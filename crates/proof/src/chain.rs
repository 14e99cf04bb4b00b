//! Chain resolution replay: the one loop that resolves a recorded
//! chain.
//!
//! A derived step records its antecedents `a₀ … aₖ` in chain order.
//! [`Chains::resolve`] starts from `clause(a₀)`, resolves each later
//! `clause(aᵢ)` in on its one clashing variable, hands that pivot to its
//! caller and returns the final resolvent. [`crate::check::check_strict`]
//! checks the resolvent against the recorded clause,
//! [`crate::interpolate::interpolant`] folds its partial interpolants at
//! each pivot, and the `lint` crate's chain lints map the refusals to
//! codes. A chain is refused at the first of these:
//!
//! - an antecedent that does not precede the step
//!   ([`CheckError::ForwardReference`]);
//! - a tautological antecedent, at any chain position
//!   ([`CheckError::TautologicalAntecedent`]): resolving one can leave a
//!   single polarity of its variable behind, which no resolution
//!   justifies;
//! - a later antecedent that clashes with the running resolvent on no
//!   variable ([`CheckError::NoPivot`]) or on several
//!   ([`CheckError::MultiplePivots`]).
//!
//! [`Chains::new`] gives each variable a dense *slot* once per proof,
//! and every per-variable table — the replay's marks and its callers'
//! own — is indexed by slot. While the largest variable index is below
//! the number of literals the proof holds, as in every proof the engine
//! writes, a variable is its own slot. Otherwise the variables are
//! numbered in order of first sight by `rup::intern`, the interning of
//! the RUP propagator. Either way no table outgrows the proof: one
//! naming variable 2^31−1 costs a few bytes. The replay loop itself
//! hashes nothing.

use crate::check::CheckError;
use crate::{rup::intern, ClauseId, Proof};
use cnf::{Lit, Var};
use std::collections::HashMap;

/// A proof whose variables have their slots, ready to replay its
/// chains.
#[derive(Debug)]
pub struct Chains<'p> {
    proof: &'p Proof,
    /// The proof's literal arena as dense codes (`slot * 2 + negated`).
    codes: Vec<u32>,
    /// Slot → the variable it stands for.
    vars: Vec<Var>,
    /// The tautological steps, ascending.
    tautologies: Vec<ClauseId>,
    /// Slot → 0 if absent from the running resolvent, else 1 plus
    /// whether it is there negated.
    mark: Vec<u8>,
    /// Slots marked during the current chain, in order of first mark.
    touched: Vec<u32>,
    resolvent: Vec<Lit>,
}

impl<'p> Chains<'p> {
    /// Gives `proof`'s variables their slots (see the module docs).
    pub fn new(proof: &'p Proof) -> Self {
        let lits = proof.literals();
        let bound = lits.iter().map(|l| l.var().as_usize() + 1).max();
        let (codes, vars) = if let Some(bound) = bound.filter(|&b| b <= lits.len()) {
            // Hashing each literal would cost more than the replay.
            let vars = (0..bound as u32).map(Var::new).collect();
            (lits.iter().map(|l| l.code()).collect(), vars)
        } else {
            let (mut slots, mut vars) = (HashMap::new(), Vec::new());
            let codes = lits.iter().map(|&l| {
                let code = intern(&mut slots, l);
                if slots.len() > vars.len() {
                    vars.push(l.var());
                }
                code
            });
            (codes.collect(), vars)
        };
        let tautologies = proof
            .iter()
            .filter(|(_, step)| step.clause.windows(2).any(|w| w[0].var() == w[1].var()))
            .map(|(id, _)| id)
            .collect();
        Chains {
            proof,
            codes,
            mark: vec![0; vars.len()],
            vars,
            tautologies,
            touched: Vec::new(),
            resolvent: Vec::new(),
        }
    }

    /// The number of slots: the length of a per-variable table.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The variable behind `slot`.
    pub fn var(&self, slot: u32) -> Var {
        self.vars[slot as usize]
    }

    /// Step `id`'s clause as dense codes, in the clause's literal order.
    pub fn codes(&self, id: ClauseId) -> &[u32] {
        &self.codes[self.proof.lit_range(id)]
    }

    /// Whether step `id`'s clause holds a variable in both polarities.
    pub fn is_tautology(&self, id: ClauseId) -> bool {
        self.tautologies.binary_search(&id).is_ok()
    }

    /// Replays derived step `id`'s chain and returns its final
    /// resolvent, each variable in order of its first appearance.
    /// `on_pivot(position, slot, var)` hears each resolution, in chain
    /// order, once its pivot is known: the antecedent's chain position
    /// (from 1) and the pivot's slot and variable.
    ///
    /// # Errors
    ///
    /// The first rule the chain breaks (see the module docs), or
    /// [`CheckError::NoAntecedents`] for an original step.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn resolve(
        &mut self,
        id: ClauseId,
        mut on_pivot: impl FnMut(usize, u32, Var),
    ) -> Result<&[Lit], CheckError> {
        // A refused chain leaves its marks for this call to clear.
        for s in self.touched.drain(..) {
            self.mark[s as usize] = 0;
        }
        self.resolvent.clear();
        let ants = self.proof.step(id).antecedents;
        if let Some(&antecedent) = ants.iter().find(|a| a.index() >= id.index()) {
            return Err(CheckError::ForwardReference {
                step: id,
                antecedent,
            });
        }
        if ants.is_empty() {
            return Err(CheckError::NoAntecedents(id));
        }
        for (position, &a) in ants.iter().enumerate() {
            if self.is_tautology(a) {
                return Err(CheckError::TautologicalAntecedent(a));
            }
            let codes = &self.codes[self.proof.lit_range(a)];
            let mut pivot = None;
            if position > 0 {
                for &c in codes {
                    // Marked with the opposite polarity: a clash.
                    if self.mark[(c >> 1) as usize] == 2 - (c & 1) as u8
                        && pivot.replace(c).is_some()
                    {
                        return Err(CheckError::MultiplePivots { step: id, position });
                    }
                }
                let Some(p) = pivot else {
                    return Err(CheckError::NoPivot { step: id, position });
                };
                self.mark[(p >> 1) as usize] = 0;
                on_pivot(position, p >> 1, self.vars[(p >> 1) as usize]);
            }
            for &c in codes.iter().filter(|&&c| Some(c) != pivot) {
                let m = &mut self.mark[(c >> 1) as usize];
                if *m == 0 {
                    self.touched.push(c >> 1);
                }
                *m = 1 + (c & 1) as u8;
            }
        }
        for s in self.touched.drain(..) {
            match std::mem::take(&mut self.mark[s as usize]) {
                0 => {}
                m => self.resolvent.push(self.vars[s as usize].lit(m == 2)),
            }
        }
        Ok(&self.resolvent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&v| Var::new(v.unsigned_abs() - 1).lit(v < 0))
            .collect()
    }

    #[test]
    fn a_sparse_proof_gets_one_slot_per_variable_named() {
        let text = "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n";
        let p = crate::import::read_tracecheck(text.as_bytes()).unwrap();
        let mut chains = Chains::new(&p);
        assert_eq!(chains.num_vars(), 2);
        assert_eq!(chains.var(1), Var::new(i32::MAX as u32));
        let big = Var::new(i32::MAX as u32).negative();
        let mut pivots = Vec::new();
        let resolvent = chains.resolve(ClauseId::new(2), |position, slot, var| {
            pivots.push((position, slot, var));
        });
        assert_eq!(resolvent, Ok(&[big][..]));
        assert_eq!(pivots, [(1, 0, Var::new(0))]);
    }

    #[test]
    fn the_resolvent_keeps_first_appearance_order() {
        // (x3 ∨ x1) (¬x1 ∨ x2) (¬x3 ∨ x4): x3 resolves away, and x2
        // entered before x4.
        let mut p = Proof::new();
        let a = p.add_original(lits(&[3, 1]));
        let b = p.add_original(lits(&[-1, 2]));
        let c = p.add_original(lits(&[-3, 4]));
        let d = p.add_derived(lits(&[2, 4]), [a, b, c]);
        let mut chains = Chains::new(&p);
        let mut pivots = Vec::new();
        let resolvent = chains.resolve(d, |position, _, var| pivots.push((position, var)));
        assert_eq!(resolvent, Ok(&lits(&[2, 4])[..]));
        assert_eq!(pivots, [(1, Var::new(0)), (2, Var::new(2))]);
        assert_eq!(
            chains.resolve(a, |_, _, _| {}),
            Err(CheckError::NoAntecedents(a))
        );
    }

    #[test]
    fn a_refused_chain_leaves_no_marks_behind() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1, 2]));
        let b = p.add_original(lits(&[-1, -2]));
        let bad = p.add_derived([], [a, b]);
        let c = p.add_original(lits(&[-1]));
        let good = p.add_derived(lits(&[2]), [a, c]);
        let mut chains = Chains::new(&p);
        let refused = Err(CheckError::MultiplePivots {
            step: bad,
            position: 1,
        });
        assert_eq!(
            chains.resolve(bad, |_, _, _| {}).map(<[Lit]>::to_vec),
            refused
        );
        assert_eq!(chains.resolve(good, |_, _, _| {}), Ok(&lits(&[2])[..]));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn a_forward_reference_is_refused() {
        let mut p = Proof::new();
        p.add_original(lits(&[1]));
        let bad = p.add_derived(lits(&[1]), [ClauseId::new(1)]);
        let expected = Err(CheckError::ForwardReference {
            step: bad,
            antecedent: ClauseId::new(1),
        });
        assert_eq!(Chains::new(&p).resolve(bad, |_, _, _| {}), expected);
        let itp = crate::interpolate::interpolant(&p, bad, |_| false);
        assert_eq!(itp.map(|_| ()), expected.map(|_: &[Lit]| ()));
    }
}
