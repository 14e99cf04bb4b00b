//! Independent proof checkers.
//!
//! Two checkers with different trust profiles:
//!
//! - [`check_strict`]: verifies every derived step by *replaying the
//!   recorded chain resolution literally* — the strongest audit, needing
//!   no search at all (the paper's "simple proof checker"). The replay
//!   is [`crate::chain::Chains`], which also serves the interpolator
//!   and the chain lints.
//! - [`check_rup`]: verifies every derived step by reverse unit
//!   propagation over the earlier clauses, ignoring the recorded
//!   antecedents (DRUP-style). Useful for cross-validating proofs whose
//!   chains were produced by a different tool.
//!
//! Both reject ill-formed proofs (forward references, unknown steps).

use crate::chain::Chains;
use crate::rup::Propagator;
use crate::{ClauseId, Proof};
use cnf::Lit;
use std::fmt;

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A derived step has no antecedents.
    NoAntecedents(ClauseId),
    /// An antecedent id does not precede the step using it.
    ForwardReference {
        /// The offending step.
        step: ClauseId,
        /// The antecedent that is not strictly earlier.
        antecedent: ClauseId,
    },
    /// An antecedent clause is tautological (contains `x` and `¬x`),
    /// which the chain checker does not admit.
    TautologicalAntecedent(ClauseId),
    /// Resolving in an antecedent found no clashing literal.
    NoPivot {
        /// The step being checked.
        step: ClauseId,
        /// Position in the antecedent chain (1-based).
        position: usize,
    },
    /// Resolving in an antecedent found more than one clashing variable.
    MultiplePivots {
        /// The step being checked.
        step: ClauseId,
        /// Position in the antecedent chain (1-based).
        position: usize,
    },
    /// The chain's final resolvent contains a literal missing from the
    /// recorded clause (the recorded clause may be weaker, never
    /// stronger).
    ResolventNotSubsumed {
        /// The step being checked.
        step: ClauseId,
        /// A literal of the resolvent absent from the recorded clause.
        missing: Lit,
    },
    /// A clause failed reverse-unit-propagation checking.
    RupFailed(ClauseId),
    /// The proof claims a refutation but has no empty clause.
    NoRefutation,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NoAntecedents(s) => write!(f, "derived step {s} has no antecedents"),
            CheckError::ForwardReference { step, antecedent } => {
                write!(f, "step {step} references non-earlier step {antecedent}")
            }
            CheckError::TautologicalAntecedent(s) => {
                write!(f, "antecedent {s} is tautological")
            }
            CheckError::NoPivot { step, position } => {
                write!(f, "step {step}: no pivot at chain position {position}")
            }
            CheckError::MultiplePivots { step, position } => {
                write!(
                    f,
                    "step {step}: multiple pivots at chain position {position}"
                )
            }
            CheckError::ResolventNotSubsumed { step, missing } => {
                write!(
                    f,
                    "step {step}: resolvent literal {missing} not in recorded clause"
                )
            }
            CheckError::RupFailed(s) => write!(f, "step {s} is not a RUP consequence"),
            CheckError::NoRefutation => write!(f, "proof contains no empty clause"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks every derived step by strict chain resolution.
///
/// For a step with antecedents `a₀ … aₖ`, the checker starts from
/// `clause(a₀)` and resolves each `clause(aᵢ)` in turn; each resolution
/// must have exactly one clashing variable, and no antecedent may be a
/// tautology. The final resolvent must be a subset of (i.e. subsume)
/// the recorded clause — recording a weaker clause is sound and
/// occasionally convenient. The replay is [`Chains::resolve`]'s.
///
/// # Errors
///
/// Returns the first violation found, identifying the step.
pub fn check_strict(proof: &Proof) -> Result<(), CheckError> {
    let mut chains = Chains::new(proof);
    for (id, step) in proof.iter() {
        if step.is_original() {
            continue;
        }
        let resolvent = chains.resolve(id, |_, _, _| {})?;
        if let Some(&missing) = resolvent
            .iter()
            .find(|l| step.clause.binary_search(l).is_err())
        {
            return Err(CheckError::ResolventNotSubsumed { step: id, missing });
        }
    }
    Ok(())
}

/// Checks that the proof is a *refutation*: it passes [`check_strict`]
/// and contains the empty clause.
///
/// # Errors
///
/// Returns [`CheckError::NoRefutation`] if no empty clause is present,
/// or the first chain-resolution violation.
pub fn check_refutation(proof: &Proof) -> Result<ClauseId, CheckError> {
    check_strict(proof)?;
    proof.empty_clause().ok_or(CheckError::NoRefutation)
}

/// Checks every derived clause by reverse unit propagation (RUP) over
/// *all* earlier clauses, ignoring the recorded antecedent chains.
///
/// A clause `C` is a RUP consequence if asserting `¬C` and propagating
/// units over the earlier clauses yields a conflict. Every chain
/// resolvent is a RUP consequence, so any proof accepted by
/// [`check_strict`] is accepted here too; the converse does not hold.
/// The propagation is [`crate::rup::Propagator`]'s.
///
/// # Errors
///
/// Returns the first step that is not a RUP consequence, or a
/// structural error.
pub fn check_rup(proof: &Proof) -> Result<(), CheckError> {
    let mut rup = Propagator::default();
    for (id, step) in proof.iter() {
        if !step.is_original() {
            if let Some(&antecedent) = step.antecedents.iter().find(|a| a.index() >= id.index()) {
                return Err(CheckError::ForwardReference {
                    step: id,
                    antecedent,
                });
            }
            if !rup.implies(step.clause) {
                return Err(CheckError::RupFailed(id));
            }
        }
        rup.add(step.clause);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&v| Var::new(v.unsigned_abs() - 1).lit(v < 0))
            .collect()
    }

    /// The pigeonhole-free classic: (x∨y) (¬x∨y) (x∨¬y) (¬x∨¬y) refuted.
    fn tiny_refutation() -> Proof {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 2]));
        let c3 = p.add_original(lits(&[1, -2]));
        let c4 = p.add_original(lits(&[-1, -2]));
        let y = p.add_derived(lits(&[2]), [c1, c2]);
        let ny = p.add_derived(lits(&[-2]), [c3, c4]);
        p.add_derived([], [y, ny]);
        p
    }

    #[test]
    fn strict_accepts_valid_refutation() {
        let p = tiny_refutation();
        assert_eq!(check_strict(&p), Ok(()));
        assert!(check_refutation(&p).is_ok());
    }

    #[test]
    fn rup_accepts_valid_refutation() {
        let p = tiny_refutation();
        assert_eq!(check_rup(&p), Ok(()));
    }

    #[test]
    fn strict_rejects_bogus_chain() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[1, 3]));
        // No clash between c1 and c2.
        let bad = p.add_derived(lits(&[2, 3]), [c1, c2]);
        assert_eq!(
            check_strict(&p),
            Err(CheckError::NoPivot {
                step: bad,
                position: 1
            })
        );
    }

    #[test]
    fn strict_rejects_double_pivot() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, -2]));
        let bad = p.add_derived([], [c1, c2]);
        assert_eq!(
            check_strict(&p),
            Err(CheckError::MultiplePivots {
                step: bad,
                position: 1
            })
        );
    }

    #[test]
    fn strict_rejects_wrong_resolvent() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 3]));
        // True resolvent is (2 ∨ 3); claiming (2) drops a literal.
        let bad = p.add_derived(lits(&[2]), [c1, c2]);
        match check_strict(&p) {
            Err(CheckError::ResolventNotSubsumed { step, .. }) => assert_eq!(step, bad),
            other => panic!("expected subsumption failure, got {other:?}"),
        }
    }

    #[test]
    fn strict_allows_weakened_clause() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 3]));
        // Recording (2 ∨ 3 ∨ 4) for resolvent (2 ∨ 3) is sound weakening.
        p.add_derived(lits(&[2, 3, 4]), [c1, c2]);
        assert_eq!(check_strict(&p), Ok(()));
    }

    #[test]
    fn strict_rejects_tautological_antecedent() {
        let mut p = Proof::new();
        let t = p.add_original(lits(&[1, -1]));
        let c = p.add_original(lits(&[2]));
        p.add_derived(lits(&[2]), [t, c]);
        assert_eq!(check_strict(&p), Err(CheckError::TautologicalAntecedent(t)));
    }

    #[test]
    fn strict_rejects_a_tautological_antecedent_at_any_position() {
        // (z)(x)(x ∨ ¬x ∨ ¬z) is satisfiable; resolving the tautology in
        // second position once left only one polarity of x behind.
        let bogus = "1 2 0 0\n2 1 0 0\n3 1 -1 -2 0 0\n4 -1 0 1 3 0\n5 0 2 4 0\n";
        let p = crate::import::read_tracecheck(bogus.as_bytes()).unwrap();
        let taut = Err(CheckError::TautologicalAntecedent(ClauseId::new(2)));
        assert_eq!(check_strict(&p), taut);
        assert_eq!(check_refutation(&p).map(|_| ()), taut);
        // In first position the tautology is refused as well.
        let first = "1 1 -1 2 0 0\n2 -1 3 0 0\n3 -1 2 3 0 1 2 0\n";
        let p = crate::import::read_tracecheck(first.as_bytes()).unwrap();
        let taut = Err(CheckError::TautologicalAntecedent(ClauseId::new(0)));
        assert_eq!(check_strict(&p), taut);
    }

    #[test]
    fn rup_rejects_non_consequence() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let bad = p.add_derived(lits(&[1]), [c1]);
        assert_eq!(check_rup(&p), Err(CheckError::RupFailed(bad)));
    }

    #[test]
    fn rup_accepts_chain_free_consequence() {
        // (1)(−1 ∨ 2) ⊢ (2) by propagation even with a useless chain.
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1]));
        let c2 = p.add_original(lits(&[-1, 2]));
        p.add_derived(lits(&[2]), [c2, c1]);
        assert_eq!(check_rup(&p), Ok(()));
    }

    #[test]
    fn rup_accepts_a_proof_naming_the_largest_variable() {
        // `-2147483648` is the negative literal of variable 2^31 − 1;
        // the check sizes its tables by the two variables named.
        let text = "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n";
        let p = crate::import::read_tracecheck(text.as_bytes()).unwrap();
        assert_eq!(check_rup(&p), Ok(()));
    }

    #[test]
    fn strict_accepts_a_proof_naming_the_largest_variable() {
        // The replay renumbers the two variables named to slots 0 and 1.
        let text = "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n";
        let p = crate::import::read_tracecheck(text.as_bytes()).unwrap();
        assert_eq!(check_strict(&p), Ok(()));
    }

    #[test]
    fn refutation_check_requires_empty_clause() {
        let mut p = Proof::new();
        p.add_original(lits(&[1]));
        assert_eq!(check_refutation(&p).unwrap_err(), CheckError::NoRefutation);
    }

    #[test]
    fn long_chain_resolution() {
        // x1, x1->x2, ..., x4->x5, ¬x5 refuted with a single chain.
        let mut p = Proof::new();
        let mut ants = vec![p.add_original(lits(&[1]))];
        for i in 1..5 {
            ants.push(p.add_original(lits(&[-(i), i + 1])));
        }
        ants.push(p.add_original(lits(&[-5])));
        p.add_derived([], ants);
        assert_eq!(check_strict(&p), Ok(()));
        assert_eq!(check_rup(&p), Ok(()));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = CheckError::NoPivot {
            step: ClauseId::new(7),
            position: 2,
        };
        assert!(format!("{e}").contains("c7"));
    }
}
