//! Mechanical proof repair for `rplint --fix`.
//!
//! [`fix_proof`] applies only transformations that cannot change what
//! the proof proves:
//!
//! 1. **Duplicate-derivation dedup** — a derived step whose clause is
//!    identical (steps store clauses sorted and duplicate-free) to an
//!    earlier step's clause is dropped and every reference to it is
//!    remapped to the earlier step. Chain resolution depends only on the
//!    *clauses* of the antecedents, so the remap preserves validity.
//! 2. **Tautology pruning** — a step whose clause contains `x` and `¬x`
//!    and which no later step references is dropped. A tautology is
//!    vacuously true, so nothing can depend on dropping it; referenced
//!    tautologies are kept (removing them would dangle antecedents).
//! 3. **Dead-step stripping** — when the proof contains an empty
//!    clause, [`proof::trim`] keeps only its backward-reachable cone.
//!    This preserves the refutation by construction.
//!
//! The three passes repeat until a full round changes nothing — the
//! fix-point contract. Each pass strictly shrinks the proof when it does
//! anything, so termination is immediate. The driver in `rplint`
//! additionally re-runs [`fix_proof`] on its own output and refuses to
//! write if the second run is not a no-op.

use crate::{cited_steps, is_tautology};
use proof::{ClauseId, Proof};
use std::collections::HashMap;

/// What [`fix_proof`] did, by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixSummary {
    /// Full dedup/prune/trim rounds executed (including the final
    /// round that found nothing left to do).
    pub passes: usize,
    /// Derived steps dropped because an earlier step had the same clause.
    pub deduped: usize,
    /// Unreferenced tautological steps dropped.
    pub tautologies: usize,
    /// Derived steps outside the empty clause's cone, dropped by trim.
    pub dead_derived: usize,
    /// Input steps outside the empty clause's cone, dropped by trim.
    pub dead_inputs: usize,
}

impl FixSummary {
    /// Total steps removed across all categories.
    pub fn removed(&self) -> usize {
        self.deduped + self.tautologies + self.dead_derived + self.dead_inputs
    }
}

/// The outcome of [`fix_proof`].
#[derive(Clone, Debug)]
pub struct FixResult {
    /// The repaired proof (identical to the input when nothing applied).
    pub proof: Proof,
    /// Whether any step was removed.
    pub changed: bool,
    /// Removal counts per category.
    pub summary: FixSummary,
}

/// Applies mechanical repairs (dedup, tautology pruning, dead-step
/// stripping) to fix-point. See the module docs for the exact contract.
pub fn fix_proof(p: &Proof) -> FixResult {
    let mut cur = p.clone();
    let mut summary = FixSummary::default();
    let mut changed = true;
    while changed {
        changed = false;
        summary.passes += 1;
        if let Some(next) = dedup_derivations(&cur, &mut summary) {
            cur = next;
            changed = true;
        }
        if let Some(next) = prune_tautologies(&cur, &mut summary) {
            cur = next;
            changed = true;
        }
        if let Some(root) = cur.empty_clause() {
            let tr = proof::trim(&cur, root);
            if tr.proof.len() < cur.len() {
                for (id, step) in cur.iter() {
                    if !tr.kept(id) {
                        if step.is_original() {
                            summary.dead_inputs += 1;
                        } else {
                            summary.dead_derived += 1;
                        }
                    }
                }
                cur = tr.proof;
                changed = true;
            }
        }
    }
    FixResult {
        changed: summary.removed() > 0,
        summary,
        proof: cur,
    }
}

/// Drops derived steps whose clause already occurred, remapping
/// references to the first occurrence. Returns `None` when nothing to do.
fn dedup_derivations(p: &Proof, summary: &mut FixSummary) -> Option<Proof> {
    let mut seen: HashMap<&[cnf::Lit], ClauseId> = HashMap::with_capacity(p.len());
    let mut map: Vec<ClauseId> = Vec::with_capacity(p.len());
    let mut out = Proof::new();
    let mut dropped = 0usize;
    for (id, step) in p.iter() {
        if !step.is_original() {
            if let Some(&first) = seen.get(step.clause) {
                map.push(first);
                dropped += 1;
                continue;
            }
        }
        let nid = out.copy_step(p, id, |a| map[a.as_usize()]);
        seen.entry(step.clause).or_insert(nid);
        map.push(nid);
    }
    if dropped == 0 {
        return None;
    }
    summary.deduped += dropped;
    Some(out)
}

/// Drops unreferenced tautological steps. Returns `None` when nothing
/// to do.
fn prune_tautologies(p: &Proof, summary: &mut FixSummary) -> Option<Proof> {
    let cited = cited_steps(p);
    let doomed: Vec<bool> = p
        .iter()
        .map(|(id, step)| !cited[id.as_usize()] && is_tautology(step.clause))
        .collect();
    let dropped = doomed.iter().filter(|&&d| d).count();
    if dropped == 0 {
        return None;
    }
    let mut map: Vec<ClauseId> = Vec::with_capacity(p.len());
    let mut out = Proof::new();
    for (id, _) in p.iter() {
        if doomed[id.as_usize()] {
            // Never referenced, so the placeholder id is never read.
            map.push(ClauseId::new(0));
            continue;
        }
        let nid = out.copy_step(p, id, |a| map[a.as_usize()]);
        map.push(nid);
    }
    summary.tautologies += dropped;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn lits(xs: &[i32]) -> Vec<cnf::Lit> {
        xs.iter()
            .map(|&v| Var::new(v.unsigned_abs() - 1).lit(v < 0))
            .collect()
    }

    /// The xor-style refutation used across the proof crate's tests,
    /// padded with a dead derivation, a duplicate derivation, and an
    /// unreferenced tautology.
    fn messy_refutation() -> Proof {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 2]));
        let c3 = p.add_original(lits(&[1, -2]));
        let c4 = p.add_original(lits(&[-1, -2]));
        let b = p.add_derived(lits(&[2]), [c1, c2]);
        let _dup = p.add_derived(lits(&[2]), [c1, c2]);
        let _dead = p.add_derived(lits(&[1]), [c1, c3]);
        let _taut = p.add_original(lits(&[1, -1]));
        let nb = p.add_derived(lits(&[-2]), [c3, c4]);
        p.add_derived([], [b, nb]);
        p
    }

    #[test]
    fn repairs_and_reaches_fix_point() {
        let p = messy_refutation();
        assert!(p.check().is_ok());
        let fixed = fix_proof(&p);
        assert!(fixed.changed);
        assert!(fixed.proof.len() < p.len());
        assert!(fixed.proof.check().is_ok());
        assert!(
            fixed.proof.empty_clause().is_some(),
            "refutation must survive"
        );
        assert_eq!(fixed.summary.deduped, 1);
        assert_eq!(fixed.summary.tautologies, 1);
        assert_eq!(fixed.summary.dead_derived, 1);
        assert_eq!(fixed.summary.removed(), 3);

        // Second run is a no-op: the fix-point contract.
        let again = fix_proof(&fixed.proof);
        assert!(!again.changed);
        assert_eq!(again.summary.removed(), 0);
        assert_eq!(again.proof.len(), fixed.proof.len());
    }

    #[test]
    fn clean_proof_is_untouched() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1]));
        let na = p.add_original(lits(&[-1]));
        p.add_derived([], [a, na]);
        let fixed = fix_proof(&p);
        assert!(!fixed.changed);
        assert_eq!(fixed.proof.len(), 3);
        assert_eq!(fixed.summary.passes, 1);
    }

    #[test]
    fn referenced_tautology_is_kept() {
        // A referenced tautology must not be dropped: removing it would
        // dangle its dependant's antecedent list.
        let mut p = Proof::new();
        let t = p.add_original(lits(&[1, -1, 3]));
        let c = p.add_original(lits(&[-1, 2]));
        p.add_derived(lits(&[-1, 2, 3]), [t, c]);
        let fixed = fix_proof(&p);
        assert!(!fixed.changed);
        assert_eq!(fixed.proof.len(), 3);
        assert_eq!(fixed.summary.tautologies, 0);
    }

    #[test]
    fn dedup_without_refutation_still_applies() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1, 2]));
        let b = p.add_original(lits(&[-1, 2]));
        p.add_derived(lits(&[2]), [a, b]);
        p.add_derived(lits(&[2]), [a, b]);
        let fixed = fix_proof(&p);
        assert!(fixed.changed);
        assert_eq!(fixed.summary.deduped, 1);
        assert_eq!(fixed.proof.len(), 3);
        assert!(fixed.proof.check().is_ok());
    }
}
