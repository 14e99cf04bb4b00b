//! Proof compaction by clause hash-consing.
//!
//! Long sweeping runs re-derive the same clause many times (e.g. the
//! same implication learned in different local SAT calls). Since chain
//! resolution only ever looks at a step's *clause*, every later
//! reference can be redirected to the first derivation of that clause;
//! backward trimming then drops the orphaned duplicates. This is a
//! classical cheap proof-compression pass, applied here before or after
//! [`crate::trim`].

use crate::{trim, ClauseId, Proof, TrimResult};
use cnf::Lit;
use std::collections::HashMap;

/// Rewrites `proof` so that all references to duplicate clauses point at
/// the earliest step deriving that clause, then trims backward from
/// `root`.
///
/// The result proves the same root clause; it is never larger than
/// `trim(proof, root)` would be, and often smaller.
///
/// Note: the returned [`TrimResult`]'s id mapping refers to the
/// intermediate trimmed proof, not to `proof` — use plain [`trim`] when
/// the old-to-new step mapping matters.
///
/// # Panics
///
/// Panics if `root` is out of range.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::{compact, Proof};
///
/// let mut p = Proof::new();
/// let x = Var::new(0);
/// let y = Var::new(1);
/// let c1 = p.add_original([x.positive(), y.positive()]);
/// let c2 = p.add_original([x.negative(), y.positive()]);
/// // (y) derived twice, second derivation redundant.
/// let _y1 = p.add_derived([y.positive()], [c1, c2]);
/// let y2 = p.add_derived([y.positive()], [c2, c1]);
/// let c3 = p.add_original([y.negative()]);
/// let e = p.add_derived([], [y2, c3]);
/// let compacted = compact(&p, e);
/// assert!(compacted.proof.len() < p.len());
/// assert!(proof::check::check_refutation(&compacted.proof).is_ok());
/// ```
pub fn compact(proof: &Proof, root: ClauseId) -> TrimResult {
    assert!(root.as_usize() < proof.len(), "root out of range");
    // Trim first so deduplication only ever redirects *within* the
    // refutation's cone — redirecting into untrimmed territory could
    // otherwise pull in a larger derivation subtree than trimming alone
    // would have kept.
    let trimmed = trim(proof, root);
    let base = &trimmed.proof;
    let base_root = trimmed.root;

    // canonical[id] = earliest kept step with the same clause.
    let mut first_of: HashMap<&[Lit], ClauseId> = HashMap::new();
    let mut canonical: Vec<ClauseId> = Vec::with_capacity(base.len());
    for (id, step) in base.iter() {
        let canon = *first_of.entry(step.clause).or_insert(id);
        canonical.push(canon);
    }
    // Rebuild with redirected antecedents; ids stay in place so the
    // root stays valid, and a final trim removes the orphans.
    let mut rewritten = Proof::new();
    for (id, _) in base.iter() {
        let nid = rewritten.copy_step(base, id, |a| canonical[a.as_usize()]);
        debug_assert_eq!(nid, id);
    }
    trim(&rewritten, canonical[base_root.as_usize()])
}

/// Compacts a refutation (root = the empty clause).
///
/// # Panics
///
/// Panics if the proof has no empty clause.
pub fn compact_refutation(proof: &Proof) -> TrimResult {
    let root = proof
        .empty_clause()
        .expect("proof contains no empty clause");
    compact(proof, root)
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

    #[test]
    fn removes_duplicate_derivations() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 2]));
        let c3 = p.add_original(lits(&[-2]));
        // Derive (2) three times.
        let _d1 = p.add_derived(lits(&[2]), [c1, c2]);
        let _d2 = p.add_derived(lits(&[2]), [c2, c1]);
        let d3 = p.add_derived(lits(&[2]), [c1, c2]);
        let e = p.add_derived([], [d3, c3]);
        let r = compact(&p, e);
        // One derivation of (2) survives.
        assert_eq!(r.proof.len(), 5);
        crate::check::check_refutation(&r.proof).unwrap();
    }

    #[test]
    fn compact_never_bigger_than_trim() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1]));
        let c2 = p.add_original(lits(&[-1, 2]));
        let d = p.add_derived(lits(&[2]), [c1, c2]);
        let c3 = p.add_original(lits(&[-2]));
        let e = p.add_derived([], [d, c3]);
        let t = trim(&p, e);
        let c = compact(&p, e);
        assert!(c.proof.len() <= t.proof.len());
        crate::check::check_strict(&c.proof).unwrap();
    }

    #[test]
    fn duplicate_original_clauses_consolidate() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1]));
        let c1b = p.add_original(lits(&[1])); // duplicate input
        let c2 = p.add_original(lits(&[-1]));
        let e = p.add_derived([], [c1b, c2]);
        let _ = c1;
        let r = compact(&p, e);
        // The duplicate original is dropped by trimming.
        assert_eq!(r.proof.num_original(), 2);
        crate::check::check_refutation(&r.proof).unwrap();
    }

    #[test]
    #[should_panic(expected = "no empty clause")]
    fn refutation_requires_empty() {
        let mut p = Proof::new();
        p.add_original(lits(&[1]));
        compact_refutation(&p);
    }
}
