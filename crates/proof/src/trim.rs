//! Backward proof trimming (core extraction).
//!
//! A CEC engine records every inference it makes, but only the steps on
//! the backward-reachable cone of the final empty clause participate in
//! the refutation. Trimming removes the rest, and as a by-product
//! identifies the *unsat core*: which original clauses (and, in the CEC
//! setting, which equivalence lemmas) were actually needed.

use crate::{ClauseId, Proof};

/// Result of trimming a proof to the cone of one root step.
#[derive(Clone, Debug)]
pub struct TrimResult {
    /// The trimmed proof (ids renumbered, order preserved).
    pub proof: Proof,
    /// The root's id inside [`TrimResult::proof`].
    pub root: ClauseId,
    /// For each kept step, its id in the original proof
    /// (indexed by new id).
    pub original_ids: Vec<ClauseId>,
    /// `new_id[old_id]` — the new id of each kept step.
    new_id: Vec<Option<ClauseId>>,
}

impl TrimResult {
    /// The new id of an original-proof step, if it survived trimming.
    pub fn new_id(&self, old: ClauseId) -> Option<ClauseId> {
        self.new_id.get(old.as_usize()).copied().flatten()
    }

    /// Whether an original-proof step survived trimming.
    pub fn kept(&self, old: ClauseId) -> bool {
        self.new_id(old).is_some()
    }
}

/// Trims `proof` to the steps backward-reachable from `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::{trim, Proof};
///
/// let mut p = Proof::new();
/// let x = Var::new(0);
/// let a = p.add_original([x.positive()]);
/// let b = p.add_original([x.negative()]);
/// let _unused = p.add_original([Var::new(1).positive()]);
/// let e = p.add_derived([], [a, b]);
/// let t = trim(&p, e);
/// assert_eq!(t.proof.len(), 3); // the unused clause is gone
/// assert!(t.proof.check().is_ok());
/// ```
pub fn trim(proof: &Proof, root: ClauseId) -> TrimResult {
    assert!(root.as_usize() < proof.len(), "root out of range");
    let mut needed = vec![false; proof.len()];
    needed[root.as_usize()] = true;
    for idx in (0..=root.as_usize()).rev() {
        if !needed[idx] {
            continue;
        }
        for &a in proof.step(ClauseId::new(idx as u32)).antecedents {
            needed[a.as_usize()] = true;
        }
    }

    let mut out = Proof::new();
    let mut new_id: Vec<Option<ClauseId>> = vec![None; proof.len()];
    let mut original_ids = Vec::new();
    for (id, _) in proof.iter() {
        if !needed[id.as_usize()] {
            continue;
        }
        let nid = out.copy_step(proof, id, |a| {
            new_id[a.as_usize()].expect("antecedent kept")
        });
        new_id[id.as_usize()] = Some(nid);
        original_ids.push(id);
    }
    let root_new = new_id[root.as_usize()].expect("root kept");
    TrimResult {
        proof: out,
        root: root_new,
        original_ids,
        new_id,
    }
}

/// Trims a refutation to the cone of its empty clause.
///
/// # Panics
///
/// Panics if the proof has no empty clause.
pub fn trim_refutation(proof: &Proof) -> TrimResult {
    let root = proof
        .empty_clause()
        .expect("proof contains no empty clause");
    trim(proof, root)
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

    #[test]
    fn trims_unreachable_steps() {
        let mut p = Proof::new();
        let c1 = p.add_original(lits(&[1, 2]));
        let c2 = p.add_original(lits(&[-1, 2]));
        let c3 = p.add_original(lits(&[1, -2]));
        let c4 = p.add_original(lits(&[-1, -2]));
        // A derived clause never used downstream:
        let _noise = p.add_derived(lits(&[2, -2, 1]), [c1, c3]);
        let y = p.add_derived(lits(&[2]), [c1, c2]);
        let ny = p.add_derived(lits(&[-2]), [c3, c4]);
        let e = p.add_derived([], [y, ny]);
        let t = trim(&p, e);
        assert_eq!(t.proof.len(), 7);
        assert!(t.proof.check().is_ok());
        assert_eq!(t.proof.empty_clause(), Some(t.root));
        assert_eq!(t.proof.num_original(), 4);
    }

    #[test]
    fn trim_tracks_id_mapping() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1]));
        let dead = p.add_original(lits(&[2]));
        let b = p.add_original(lits(&[-1]));
        let e = p.add_derived([], [a, b]);
        let t = trim(&p, e);
        assert!(t.kept(a));
        assert!(!t.kept(dead));
        assert_eq!(t.original_ids.len(), 3);
        assert_eq!(t.new_id(e), Some(t.root));
        // The kept original ids map back correctly.
        for (new_idx, old) in t.original_ids.iter().enumerate() {
            assert_eq!(t.new_id(*old), Some(ClauseId::new(new_idx as u32)));
        }
    }

    #[test]
    fn trim_refutation_uses_empty_clause() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1]));
        let b = p.add_original(lits(&[-1]));
        p.add_derived([], [a, b]);
        let t = trim_refutation(&p);
        assert_eq!(t.proof.len(), 3);
    }

    #[test]
    #[should_panic(expected = "no empty clause")]
    fn trim_refutation_requires_empty() {
        let mut p = Proof::new();
        p.add_original(lits(&[1]));
        trim_refutation(&p);
    }

    #[test]
    fn trim_is_idempotent() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1]));
        let b = p.add_original(lits(&[-1, 2]));
        let c = p.add_original(lits(&[-2]));
        let d = p.add_derived(lits(&[2]), [a, b]);
        let e = p.add_derived([], [d, c]);
        let t1 = trim(&p, e);
        let t2 = trim(&t1.proof, t1.root);
        assert_eq!(t1.proof.len(), t2.proof.len());
    }
}
