//! Craig interpolation from resolution proofs (McMillan's system).
//!
//! One of the paper's motivations for insisting on *resolution* proofs
//! from a CEC engine is that they immediately yield interpolants: given
//! a refutation of `A ∧ B`, an interpolant `I` satisfies `A ⟹ I`,
//! `I ∧ B` unsatisfiable, and `I` mentions only variables shared by `A`
//! and `B`. Interpolants drive abstraction and (in the sequential
//! setting) unbounded model checking.
//!
//! The construction here is McMillan's:
//!
//! - original `A`-clause `C`: `I(C) = ⋁ {ℓ ∈ C : var(ℓ) global}`
//! - original `B`-clause `C`: `I(C) = ⊤`
//! - resolution on pivot `v`: `I = I₁ ∨ I₂` if `v` is `A`-local,
//!   `I = I₁ ∧ I₂` otherwise
//!
//! The interpolant is built directly as an [`aig::Aig`], so its size can
//! be reported in gates and it can be checked by simulation or SAT.

use crate::{chain::Chains, check::CheckError, ClauseId, Proof};
use aig::Aig;
use cnf::Var;
use std::collections::HashMap;

/// An interpolant extracted from a refutation.
#[derive(Clone, Debug)]
pub struct Interpolant {
    /// The interpolant circuit: one output, one input per global
    /// variable actually mentioned.
    pub graph: Aig,
    /// `inputs[i]` is the proof variable feeding the circuit's input `i`.
    pub inputs: Vec<Var>,
}

impl Interpolant {
    /// Evaluates the interpolant under an assignment of proof variables
    /// (`assignment[v]` is the value of variable `v`). Variables not used
    /// by the interpolant are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover every input variable.
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        let pattern: Vec<bool> = self
            .inputs
            .iter()
            .map(|v| assignment[v.as_usize()])
            .collect();
        self.graph.evaluate(&pattern)[0]
    }
}

/// Extracts a McMillan interpolant from the refutation rooted at `root`.
///
/// `is_b(id)` labels each *original* clause: `true` places it in the `B`
/// part, `false` in the `A` part. Variable classes (A-local / global) are
/// computed from the original clauses of the whole proof.
///
/// The proof must replay exactly (recorded clauses equal to their chain
/// resolvents); run [`crate::check::check_strict`] first. Each chain is
/// replayed by [`Chains::resolve`], which hands over the pivots to fold
/// at and fails if a chain does not resolve.
///
/// # Errors
///
/// Returns a [`CheckError`] if a chain cannot be replayed.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn interpolant<F: Fn(ClauseId) -> bool>(
    proof: &Proof,
    root: ClauseId,
    is_b: F,
) -> Result<Interpolant, CheckError> {
    assert!(root.as_usize() < proof.len(), "root out of range");
    let mut chains = Chains::new(proof);

    // Classify variables, by slot, from the original clauses.
    let mut in_a = vec![false; chains.num_vars()];
    let mut in_b = vec![false; chains.num_vars()];
    for (id, step) in proof.iter() {
        if step.is_original() {
            let side = if is_b(id) { &mut in_b } else { &mut in_a };
            for &code in chains.codes(id) {
                side[(code >> 1) as usize] = true;
            }
        }
    }
    let is_global = |slot: u32| in_a[slot as usize] && in_b[slot as usize];
    let is_a_local = |slot: u32| in_a[slot as usize] && !in_b[slot as usize];

    let mut graph = Aig::new();
    let mut inputs: Vec<Var> = Vec::new();
    let mut input_of: HashMap<Var, aig::Lit> = HashMap::new();
    let mut var_lit = |graph: &mut Aig, v: Var| -> aig::Lit {
        *input_of.entry(v).or_insert_with(|| {
            inputs.push(v);
            graph.add_input()
        })
    };

    // Interpolant literal per step, up to the root.
    let mut itp: Vec<aig::Lit> = Vec::with_capacity(root.as_usize() + 1);
    for (id, step) in proof.iter().take(root.as_usize() + 1) {
        let ants = step.antecedents;
        let lit = if !step.is_original() {
            // Fold the antecedents' interpolants at each pivot; the
            // replay has refused forward references before the first.
            let mut cur: Option<aig::Lit> = None;
            chains.resolve(id, |position, slot, _| {
                let acc = cur.unwrap_or(itp[ants[0].as_usize()]);
                let other = itp[ants[position].as_usize()];
                cur = Some(if is_a_local(slot) {
                    graph.or(acc, other)
                } else {
                    graph.and(acc, other)
                });
            })?;
            cur.unwrap_or(itp[ants[0].as_usize()])
        } else if is_b(id) {
            aig::Lit::TRUE
        } else {
            // Disjunction of the global literals of the clause.
            let terms: Vec<aig::Lit> = step
                .clause
                .iter()
                .zip(chains.codes(id))
                .filter(|&(_, &code)| is_global(code >> 1))
                .map(|(&l, _)| var_lit(&mut graph, l.var()).xor_complement(l.is_negative()))
                .collect();
            graph.or_all(&terms)
        };
        itp.push(lit);
    }

    graph.add_output(itp[root.as_usize()]);
    Ok(Interpolant { graph, inputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Lit;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&v| Var::new(v.unsigned_abs() - 1).lit(v < 0))
            .collect()
    }

    /// A = (a)(¬a ∨ g), B = (¬g): global var g, A-local a.
    /// Refutation: (g) from A, empty with B. Interpolant must be g.
    #[test]
    fn simple_interpolant_is_shared_literal() {
        let mut p = Proof::new();
        let a1 = p.add_original(lits(&[1])); // a
        let a2 = p.add_original(lits(&[-1, 2])); // ¬a ∨ g
        let b1 = p.add_original(lits(&[-2])); // ¬g
        let g = p.add_derived(lits(&[2]), [a1, a2]);
        let e = p.add_derived([], [g, b1]);
        p.check().unwrap();
        let itp = interpolant(&p, e, |id| id == b1).unwrap();
        assert_eq!(itp.inputs, vec![Var::new(1)]);
        // I(a=*, g=1) = 1, I(g=0) = 0.
        assert!(itp.evaluate(&[false, true]));
        assert!(!itp.evaluate(&[false, false]));
    }

    /// Checks A ⟹ I and I ∧ B ⟹ ⊥ by brute force over all variables.
    fn verify_interpolant(
        p: &Proof,
        itp: &Interpolant,
        a_clauses: &[Vec<Lit>],
        b_clauses: &[Vec<Lit>],
    ) {
        let num_vars = p
            .iter()
            .flat_map(|(_, s)| s.clause.iter().map(|l| l.var().index() + 1))
            .max()
            .unwrap() as usize;
        let eval_clauses = |cs: &[Vec<Lit>], m: &[bool]| {
            cs.iter()
                .all(|c| c.iter().any(|l| m[l.var().as_usize()] ^ l.is_negative()))
        };
        for bits in 0..(1u64 << num_vars) {
            let m: Vec<bool> = (0..num_vars).map(|i| bits >> i & 1 == 1).collect();
            let iv = itp.evaluate(&m);
            if eval_clauses(a_clauses, &m) {
                assert!(iv, "A holds but interpolant false under {m:?}");
            }
            if eval_clauses(b_clauses, &m) {
                assert!(!iv, "B holds but interpolant true under {m:?}");
            }
        }
    }

    #[test]
    fn interpolant_properties_hold() {
        // A = (x)(¬x ∨ y)(¬y ∨ s), B = (¬s ∨ z)(¬z)(s ∨ z).
        // Shared: s. A-local: x, y. B-local: z.
        let a_clauses = vec![lits(&[1]), lits(&[-1, 2]), lits(&[-2, 3])];
        let b_clauses = vec![lits(&[-3, 4]), lits(&[-4]), lits(&[3, 4])];
        let mut p = Proof::new();
        let a: Vec<ClauseId> = a_clauses
            .iter()
            .map(|c| p.add_original(c.iter().copied()))
            .collect();
        let b: Vec<ClauseId> = b_clauses
            .iter()
            .map(|c| p.add_original(c.iter().copied()))
            .collect();
        // Derive s from A.
        let y = p.add_derived(lits(&[2]), [a[0], a[1]]);
        let s = p.add_derived(lits(&[3]), [y, a[2]]);
        // Derive ¬s from B: (¬s ∨ z) + (¬z) = (¬s).
        let ns = p.add_derived(lits(&[-3]), [b[0], b[1]]);
        let e = p.add_derived([], [s, ns]);
        p.check().unwrap();
        let b_set: std::collections::HashSet<ClauseId> = b.iter().copied().collect();
        let itp = interpolant(&p, e, |id| b_set.contains(&id)).unwrap();
        // Interpolant mentions only the shared variable s.
        assert!(itp.inputs.iter().all(|v| *v == Var::new(2)));
        verify_interpolant(&p, &itp, &a_clauses, &b_clauses);
    }

    #[test]
    fn all_b_gives_true_interpolant() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1]));
        let c2 = p.add_original(lits(&[-1]));
        let e = p.add_derived([], [c1, c2]);
        let itp = interpolant(&p, e, |_| true).unwrap();
        assert!(itp.evaluate(&[false, false]));
        assert!(itp.evaluate(&[true, true]));
    }

    #[test]
    fn all_a_gives_false_interpolant() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1]));
        let c2 = p.add_original(lits(&[-1]));
        let e = p.add_derived([], [c1, c2]);
        let itp = interpolant(&p, e, |_| false).unwrap();
        // No globals: A-local pivot, I = ⊥ ∨ ⊥.
        assert!(!itp.evaluate(&[false, false]));
        assert!(!itp.evaluate(&[true, true]));
    }

    #[test]
    fn tautological_antecedent_is_reported() {
        // (z)(x)(x ∨ ¬x ∨ ¬z): the tautology sits second in the chain.
        let mut p = Proof::new();
        let z = p.add_original(lits(&[2]));
        let x = p.add_original(lits(&[1]));
        let t = p.add_original(lits(&[1, -1, -2]));
        let nx = p.add_derived(lits(&[-1]), [z, t]);
        let e = p.add_derived([], [x, nx]);
        match interpolant(&p, e, |id| id == x) {
            Err(CheckError::TautologicalAntecedent(a)) => assert_eq!(a, t),
            other => panic!("expected TautologicalAntecedent, got {other:?}"),
        }
    }

    #[test]
    fn broken_chain_is_reported() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[1, 3]));
        let bad = p.add_derived(lits(&[2, 3]), [c1, c2]);
        match interpolant(&p, bad, |_| false) {
            Err(CheckError::NoPivot { step, .. }) => assert_eq!(step, bad),
            other => panic!("expected NoPivot, got {other:?}"),
        }
    }
}
