//! The resolution proof store.
//!
//! A proof is an append-only sequence of *steps*. Each step records a
//! clause; an **original** step has no antecedents (it is an input
//! clause, e.g. a Tseitin definition), while a **derived** step records
//! the ordered list of antecedent steps from which its clause follows by
//! *chain (linear input) resolution*: starting from the first
//! antecedent's clause, each later antecedent is resolved in on the
//! unique variable occurring with opposite polarity.
//!
//! This is the TraceCheck-style format the paper's checker consumes; the
//! `check` module verifies it independently of how it was produced.

use cnf::Lit;
use std::fmt;

/// Identifier of a proof step (index into the proof).
///
/// # Example
///
/// ```
/// use proof::{ClauseId, Proof};
/// let mut p = Proof::new();
/// let id = p.add_original([]);
/// assert_eq!(id, ClauseId::new(0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseId(u32);

impl ClauseId {
    /// Creates an id from a raw step index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        ClauseId(index)
    }

    /// Raw step index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Index as `usize`.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What kind of reasoning produced a proof step.
///
/// Roles are advisory metadata for reporting (e.g. the proof-composition
/// breakdown in experiment T6); checkers ignore them entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepRole {
    /// An input (original) clause.
    Input,
    /// A clause learnt by CDCL conflict analysis.
    Learned,
    /// A final conflict clause under assumptions.
    FinalConflict,
    /// A canonical equivalence lemma (weakened final conflict).
    Lemma,
    /// A structural-hashing merge derivation.
    Structural,
    /// A transitive composition of equivalence lemmas.
    Composition,
    /// Derived by an unspecified mechanism.
    Other,
}

impl StepRole {
    /// All roles in presentation order.
    pub fn all() -> [StepRole; 7] {
        [
            StepRole::Input,
            StepRole::Learned,
            StepRole::FinalConflict,
            StepRole::Lemma,
            StepRole::Structural,
            StepRole::Composition,
            StepRole::Other,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            StepRole::Input => "input",
            StepRole::Learned => "learned",
            StepRole::FinalConflict => "final",
            StepRole::Lemma => "lemma",
            StepRole::Structural => "struct",
            StepRole::Composition => "compose",
            StepRole::Other => "other",
        }
    }
}

/// One step of a proof, borrowed from the store.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// The clause this step establishes (sorted, duplicate-free).
    pub clause: &'a [Lit],
    /// Antecedent steps, in chain-resolution order; empty for original
    /// clauses.
    pub antecedents: &'a [ClauseId],
}

impl Step<'_> {
    /// Whether this is an input (original) clause.
    #[inline]
    pub fn is_original(&self) -> bool {
        self.antecedents.is_empty()
    }
}

/// An append-only resolution proof.
///
/// Clause literals and antecedent lists are stored in flat arenas so
/// large proofs (millions of steps) stay cache- and allocator-friendly.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::Proof;
///
/// let mut p = Proof::new();
/// let x = Var::new(0);
/// let c1 = p.add_original([x.positive()]);
/// let c2 = p.add_original([x.negative()]);
/// let empty = p.add_derived([], [c1, c2]);
/// assert_eq!(p.empty_clause(), Some(empty));
/// assert!(p.check().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Proof {
    lits: Vec<Lit>,
    ants: Vec<ClauseId>,
    // (lit_start, lit_end, ant_start, ant_end) per step.
    steps: Vec<(u32, u32, u32, u32)>,
    roles: Vec<StepRole>,
    empty: Option<ClauseId>,
    num_original: usize,
}

impl Proof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        Proof::default()
    }

    /// Number of steps (original + derived).
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the proof has no steps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of original (input) clauses.
    #[inline]
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of derived clauses.
    #[inline]
    pub fn num_derived(&self) -> usize {
        self.steps.len() - self.num_original
    }

    /// Total number of binary resolution operations recorded
    /// (each derived step with `k` antecedents contributes `k - 1`).
    pub fn num_resolutions(&self) -> u64 {
        self.steps
            .iter()
            .map(|&(_, _, a0, a1)| ((a1 - a0) as u64).saturating_sub(1))
            .sum()
    }

    /// The first recorded empty clause, if any — the proof's root when
    /// refuting an unsatisfiable formula.
    #[inline]
    pub fn empty_clause(&self) -> Option<ClauseId> {
        self.empty
    }

    /// The step with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn step(&self, id: ClauseId) -> Step<'_> {
        let (l0, l1, a0, a1) = self.steps[id.as_usize()];
        Step {
            clause: &self.lits[l0 as usize..l1 as usize],
            antecedents: &self.ants[a0 as usize..a1 as usize],
        }
    }

    /// The clause of the given step.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn clause(&self, id: ClauseId) -> &[Lit] {
        self.step(id).clause
    }

    /// Every step's clause, in step order, in one slice.
    pub(crate) fn literals(&self) -> &[Lit] {
        &self.lits
    }

    /// Where step `id`'s clause sits in [`Proof::literals`].
    pub(crate) fn lit_range(&self, id: ClauseId) -> std::ops::Range<usize> {
        let (l0, l1, _, _) = self.steps[id.as_usize()];
        l0 as usize..l1 as usize
    }

    /// Iterates over all steps in order.
    pub fn iter(&self) -> impl Iterator<Item = (ClauseId, Step<'_>)> {
        (0..self.steps.len() as u32).map(move |i| {
            let id = ClauseId::new(i);
            (id, self.step(id))
        })
    }

    /// Records an original (input) clause and returns its id.
    ///
    /// The clause is sorted and deduplicated. Recording a tautology
    /// (containing `x` and `¬x`) is allowed but pointless.
    pub fn add_original<I: IntoIterator<Item = Lit>>(&mut self, clause: I) -> ClauseId {
        self.num_original += 1;
        self.push(clause, [])
    }

    /// Records a derived clause with its antecedent chain and returns
    /// its id.
    ///
    /// Validity (each antecedent exists and is earlier, the chain
    /// resolves to the clause) is *not* checked here; run
    /// [`Proof::check`] or the checkers in [`crate::check`]. This keeps
    /// the hot solver path allocation-only.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an antecedent id is not strictly
    /// smaller than the new step's id.
    pub fn add_derived<I, A>(&mut self, clause: I, antecedents: A) -> ClauseId
    where
        I: IntoIterator<Item = Lit>,
        A: IntoIterator<Item = ClauseId>,
    {
        self.push(clause, antecedents)
    }

    /// Appends step `id` of `other`, renaming each of its antecedents
    /// through `rename`, and keeps its role. Returns the new step's id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for `other`.
    pub fn copy_step(
        &mut self,
        other: &Proof,
        id: ClauseId,
        rename: impl FnMut(ClauseId) -> ClauseId,
    ) -> ClauseId {
        let step = other.step(id);
        if step.is_original() {
            self.num_original += 1;
        }
        let image = self.push(
            step.clause.iter().copied(),
            step.antecedents.iter().copied().map(rename),
        );
        self.roles[image.as_usize()] = other.role(id);
        image
    }

    fn push<I, A>(&mut self, clause: I, antecedents: A) -> ClauseId
    where
        I: IntoIterator<Item = Lit>,
        A: IntoIterator<Item = ClauseId>,
    {
        let id = ClauseId::new(self.steps.len() as u32);
        let l0 = self.lits.len() as u32;
        self.lits.extend(clause);
        let lits = &mut self.lits[l0 as usize..];
        lits.sort_unstable();
        let l1 = {
            // Deduplicate in place.
            let mut write = l0 as usize;
            for read in l0 as usize..self.lits.len() {
                if write == l0 as usize || self.lits[read] != self.lits[write - 1] {
                    self.lits[write] = self.lits[read];
                    write += 1;
                }
            }
            self.lits.truncate(write);
            write as u32
        };
        let a0 = self.ants.len() as u32;
        self.ants.extend(antecedents);
        let a1 = self.ants.len() as u32;
        debug_assert!(
            self.ants[a0 as usize..a1 as usize]
                .iter()
                .all(|a| a.index() < id.index()),
            "antecedent must precede the derived step"
        );
        self.steps.push((l0, l1, a0, a1));
        self.roles.push(if a0 == a1 {
            StepRole::Input
        } else {
            StepRole::Other
        });
        if l0 == l1 && self.empty.is_none() {
            self.empty = Some(id);
        }
        id
    }

    /// The advisory role of a step (defaults: [`StepRole::Input`] for
    /// originals, [`StepRole::Other`] for derived steps).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn role(&self, id: ClauseId) -> StepRole {
        self.roles[id.as_usize()]
    }

    /// Tags a step with a role (reporting metadata only).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_role(&mut self, id: ClauseId, role: StepRole) {
        self.roles[id.as_usize()] = role;
    }

    /// Counts steps and resolutions per role.
    pub fn role_histogram(&self) -> Vec<(StepRole, usize, u64)> {
        let mut rows: Vec<(StepRole, usize, u64)> =
            StepRole::all().iter().map(|&r| (r, 0, 0)).collect();
        for (idx, &(_, _, a0, a1)) in self.steps.iter().enumerate() {
            let role = self.roles[idx];
            let slot = rows
                .iter_mut()
                .find(|(r, ..)| *r == role)
                .expect("all roles present");
            slot.1 += 1;
            slot.2 += ((a1 - a0) as u64).saturating_sub(1);
        }
        rows
    }

    /// Convenience: runs the strict chain-resolution checker over the
    /// whole proof (see [`crate::check::check_strict`]).
    ///
    /// # Errors
    ///
    /// Returns the first invalid step found.
    pub fn check(&self) -> Result<(), crate::check::CheckError> {
        crate::check::check_strict(self)
    }

    /// Summary statistics for reports.
    pub fn stats(&self) -> ProofStats {
        let mut max_width = 0;
        let mut total_width: u64 = 0;
        let mut max_chain = 0;
        for &(l0, l1, a0, a1) in &self.steps {
            let w = (l1 - l0) as usize;
            max_width = max_width.max(w);
            total_width += w as u64;
            max_chain = max_chain.max((a1 - a0) as usize);
        }
        ProofStats {
            original: self.num_original(),
            derived: self.num_derived(),
            resolutions: self.num_resolutions(),
            max_width,
            total_literals: total_width,
            max_chain,
            refutation: self.empty.is_some(),
        }
    }
}

/// Aggregate proof metrics, as printed in the experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofStats {
    /// Number of original (input) clauses.
    pub original: usize,
    /// Number of derived clauses.
    pub derived: usize,
    /// Total binary resolution operations.
    pub resolutions: u64,
    /// Widest clause in the proof.
    pub max_width: usize,
    /// Total literal occurrences across all steps.
    pub total_literals: u64,
    /// Longest antecedent chain of any step.
    pub max_chain: usize,
    /// Whether the proof contains the empty clause.
    pub refutation: bool,
}

impl fmt::Display for ProofStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "orig={} derived={} resolutions={} max_width={} refutation={}",
            self.original, self.derived, self.resolutions, self.max_width, self.refutation
        )
    }
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
    fn clauses_are_sorted_and_deduped() {
        let mut p = Proof::new();
        let id = p.add_original(lits(&[3, 1, -2, 3, 1]));
        let c = p.clause(id);
        assert_eq!(c.len(), 3);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn counts_track_kinds() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1]));
        let b = p.add_original(lits(&[-1, 2]));
        let d = p.add_derived(lits(&[2]), [b, a]);
        assert_eq!(p.num_original(), 2);
        assert_eq!(p.num_derived(), 1);
        assert_eq!(p.num_resolutions(), 1);
        assert!(p.step(a).is_original());
        assert!(!p.step(d).is_original());
    }

    #[test]
    fn empty_clause_detected() {
        let mut p = Proof::new();
        assert_eq!(p.empty_clause(), None);
        let a = p.add_original(lits(&[1]));
        let b = p.add_original(lits(&[-1]));
        let e = p.add_derived([], [a, b]);
        assert_eq!(p.empty_clause(), Some(e));
        assert!(p.stats().refutation);
    }

    #[test]
    fn stats_aggregate() {
        let mut p = Proof::new();
        let a = p.add_original(lits(&[1, 2, 3]));
        let b = p.add_original(lits(&[-1]));
        let c = p.add_original(lits(&[-2]));
        let _d = p.add_derived(lits(&[3]), [a, b, c]);
        let s = p.stats();
        assert_eq!(s.original, 3);
        assert_eq!(s.derived, 1);
        assert_eq!(s.resolutions, 2);
        assert_eq!(s.max_width, 3);
        assert_eq!(s.max_chain, 3);
        assert!(!s.refutation);
        assert!(format!("{s}").contains("resolutions=2"));
    }

    #[test]
    fn iter_visits_in_order() {
        let mut p = Proof::new();
        p.add_original(lits(&[1]));
        p.add_original(lits(&[2]));
        let ids: Vec<u32> = p.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
