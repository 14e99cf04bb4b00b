//! Clause storage: one flat arena of 32-bit words.
//!
//! Each clause is a fixed header followed by its literals:
//!
//! | word | contents |
//! |------|----------|
//! | 0 | literal count |
//! | 1 | flags (bit 0 learnt, bit 1 deleted), the LBD in the bits above |
//! | 2 | proof step id + 1, or 0 for none |
//! | 3 | activity, as `f32` bits |
//!
//! A [`ClauseRef`] is the offset of a clause's header, so the watcher
//! loop reads the deleted flag and the literals from the same cache
//! line. Header words are stored as [`Lit`] codes, which lets a clause's
//! literals borrow as `&[Lit]` without `unsafe`.
//!
//! Deleting a clause only sets its flag. Its words stay in place until
//! [`ClauseDb::compact`] copies the live clauses, in insertion order,
//! into a fresh arena.

use cnf::Lit;
use proof::ClauseId;

/// Header words per clause.
const HEADER: usize = 4;
const SIZE: usize = 0;
const FLAGS: usize = 1;
const PROOF_ID: usize = 2;
const ACTIVITY: usize = 3;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LBD_SHIFT: u32 = 2;

/// Reference to a clause in the [`ClauseDb`]: the arena offset of its
/// header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The clause whose header starts at arena offset `offset`.
    #[inline]
    pub(crate) fn new(offset: usize) -> Self {
        ClauseRef(offset as u32)
    }

    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }
}

/// The solver's clause database: original (permanent) and learnt
/// (reducible) clauses, each carrying its proof step id when proof
/// logging is enabled.
#[derive(Debug, Default)]
pub struct ClauseDb {
    arena: Vec<Lit>,
    num_live: usize,
    num_learnt: usize,
    // Words held by deleted clauses, reclaimed by `compact`.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ClauseDb::default()
    }

    #[inline]
    fn word(&self, r: ClauseRef, k: usize) -> u32 {
        self.arena[r.offset() + k].code()
    }

    #[inline]
    fn set_word(&mut self, r: ClauseRef, k: usize, w: u32) {
        self.arena[r.offset() + k] = Lit::from_code(w);
    }

    /// Adds a clause; `learnt` clauses are eligible for reduction.
    ///
    /// # Panics
    ///
    /// Panics if the arena would outgrow 32-bit offsets.
    pub fn add(&mut self, lits: &[Lit], learnt: bool, proof_id: Option<ClauseId>) -> ClauseRef {
        let r =
            ClauseRef(u32::try_from(self.arena.len()).expect("clause arena exceeds 2^32 words"));
        let header = [
            lits.len() as u32,
            if learnt { LEARNT } else { 0 },
            proof_id.map_or(0, |id| id.index() + 1),
            0f32.to_bits(),
        ];
        self.arena.extend(header.map(Lit::from_code));
        self.arena.extend_from_slice(lits);
        self.num_live += 1;
        if learnt {
            self.num_learnt += 1;
        }
        r
    }

    /// The literals of a clause. The first two are the watched ones.
    #[inline]
    pub fn lits(&self, r: ClauseRef) -> &[Lit] {
        let start = r.offset() + HEADER;
        &self.arena[start..start + self.word(r, SIZE) as usize]
    }

    /// The `k`-th literal of a clause.
    #[inline]
    pub fn lit(&self, r: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.word(r, SIZE) as usize);
        self.arena[r.offset() + HEADER + k]
    }

    /// Mutable literals of a clause that is not deleted (for watch
    /// reordering): the watcher loop's one read of a clause header.
    #[inline]
    pub fn live_lits_mut(&mut self, r: ClauseRef) -> Option<&mut [Lit]> {
        let header = &self.arena[r.offset()..r.offset() + HEADER];
        if header[FLAGS].code() & DELETED != 0 {
            return None;
        }
        let start = r.offset() + HEADER;
        let end = start + header[SIZE].code() as usize;
        Some(&mut self.arena[start..end])
    }

    /// The proof step that introduced this clause, if logging.
    #[inline]
    pub fn proof_id(&self, r: ClauseRef) -> Option<ClauseId> {
        self.word(r, PROOF_ID).checked_sub(1).map(ClauseId::new)
    }

    /// Whether the clause was learnt (reducible).
    #[inline]
    pub fn is_learnt(&self, r: ClauseRef) -> bool {
        self.word(r, FLAGS) & LEARNT != 0
    }

    /// Whether the clause has been deleted.
    #[inline]
    pub fn is_deleted(&self, r: ClauseRef) -> bool {
        self.word(r, FLAGS) & DELETED != 0
    }

    /// Marks a clause deleted. Its words count as waste until the next
    /// [`ClauseDb::compact`].
    pub fn delete(&mut self, r: ClauseRef) {
        let flags = self.word(r, FLAGS);
        debug_assert!(flags & DELETED == 0);
        self.set_word(r, FLAGS, flags | DELETED);
        self.num_live -= 1;
        self.wasted += HEADER + self.word(r, SIZE) as usize;
        if flags & LEARNT != 0 {
            self.num_learnt -= 1;
        }
    }

    /// Glue (LBD) of a learnt clause.
    #[inline]
    pub fn lbd(&self, r: ClauseRef) -> u32 {
        self.word(r, FLAGS) >> LBD_SHIFT
    }

    /// Sets the glue (LBD) of a clause, saturating at 2^30 − 1.
    #[inline]
    pub fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        let flags = self.word(r, FLAGS) & (LEARNT | DELETED);
        self.set_word(
            r,
            FLAGS,
            flags | lbd.min(u32::MAX >> LBD_SHIFT) << LBD_SHIFT,
        );
    }

    /// Clause activity (for reduction ordering).
    #[inline]
    pub fn activity(&self, r: ClauseRef) -> f32 {
        f32::from_bits(self.word(r, ACTIVITY))
    }

    /// Bumps a clause's activity; returns true if a global rescale of
    /// all activities is needed (caller then calls [`ClauseDb::rescale`]).
    pub fn bump(&mut self, r: ClauseRef, inc: f32) -> bool {
        let activity = self.activity(r) + inc;
        self.set_word(r, ACTIVITY, activity.to_bits());
        activity >= 1e20
    }

    /// Rescales all clause activities by `factor`.
    pub fn rescale(&mut self, factor: f32) {
        let mut r = ClauseRef(0);
        while r.offset() < self.arena.len() {
            let activity = self.activity(r) * factor;
            self.set_word(r, ACTIVITY, activity.to_bits());
            r = ClauseRef::new(self.end(r));
        }
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Number of live clauses.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.num_live
    }

    /// Total arena length in words, deleted clauses included. Clause
    /// offsets lie below it in insertion order.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Arena words held by deleted clauses.
    #[inline]
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// The arena offset just past clause `r`: the next clause's header,
    /// or [`ClauseDb::len`].
    #[inline]
    pub fn end(&self, r: ClauseRef) -> usize {
        r.offset() + HEADER + self.word(r, SIZE) as usize
    }

    /// Every clause, deleted ones included, in insertion order.
    fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            (next < self.arena.len()).then(|| {
                let r = ClauseRef::new(next);
                next = self.end(r);
                r
            })
        })
    }

    /// All live learnt clause references, in insertion order.
    pub fn learnt_refs(&self) -> Vec<ClauseRef> {
        self.refs()
            .filter(|&r| self.is_learnt(r) && !self.is_deleted(r))
            .collect()
    }

    /// Copies the live clauses, in insertion order, into a fresh arena
    /// and returns the map from old clause references to new ones.
    pub fn compact(&mut self) -> Relocation {
        let mut arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut r = ClauseRef(0);
        while r.offset() < self.arena.len() {
            let end = self.end(r);
            if !self.is_deleted(r) {
                let moved_to = arena.len() as u32;
                arena.extend_from_slice(&self.arena[r.offset()..end]);
                // The old copy's activity word becomes its forwarding offset.
                self.set_word(r, ACTIVITY, moved_to);
            }
            r = ClauseRef::new(end);
        }
        self.wasted = 0;
        Relocation(ClauseDb {
            arena: std::mem::replace(&mut self.arena, arena),
            ..ClauseDb::default()
        })
    }
}

/// The old arena after [`ClauseDb::compact`], read as a map from its
/// clause references to the compacted arena's.
#[derive(Debug)]
pub struct Relocation(ClauseDb);

impl Relocation {
    /// The new reference of clause `r`, or `None` if it was deleted.
    #[inline]
    pub fn get(&self, r: ClauseRef) -> Option<ClauseRef> {
        (!self.0.is_deleted(r)).then(|| ClauseRef(self.0.word(r, ACTIVITY)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn l(i: u32) -> Lit {
        Var::new(i).positive()
    }

    #[test]
    fn add_and_access() {
        let mut db = ClauseDb::new();
        let r = db.add(&[l(0), l(1)], false, None);
        assert_eq!(db.lits(r), &[l(0), l(1)]);
        assert_eq!(db.lit(r, 1), l(1));
        assert!(!db.is_learnt(r));
        assert!(!db.is_deleted(r));
        assert_eq!(db.proof_id(r), None);
        assert_eq!(db.num_live(), 1);
        let s = db.add(&[l(2)], true, Some(ClauseId::new(0)));
        assert_eq!(db.proof_id(s), Some(ClauseId::new(0)));
        assert_eq!(db.end(s), db.len());
    }

    #[test]
    fn delete_counts_and_keeps_words_until_compaction() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(0)], true, None);
        let b = db.add(&[l(1)], true, None);
        assert_eq!(db.num_learnt(), 2);
        db.delete(a);
        assert!(db.is_deleted(a));
        assert!(db.live_lits_mut(a).is_none());
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.wasted(), 5);
        assert_eq!(db.learnt_refs(), vec![b]);
    }

    #[test]
    fn lbd_packs_above_the_flags() {
        let mut db = ClauseDb::new();
        let r = db.add(&[l(0), l(1)], true, None);
        db.set_lbd(r, 7);
        assert_eq!(db.lbd(r), 7);
        assert!(db.is_learnt(r));
        db.delete(r);
        db.set_lbd(r, u32::MAX);
        assert_eq!(db.lbd(r), u32::MAX >> LBD_SHIFT);
        assert!(db.is_learnt(r) && db.is_deleted(r));
    }

    #[test]
    fn activity_rescale() {
        let mut db = ClauseDb::new();
        let r = db.add(&[l(0)], true, None);
        assert!(!db.bump(r, 1.0));
        assert!(db.bump(r, 1e20));
        db.rescale(1e-20);
        assert!(db.activity(r) <= 1.001);
    }

    #[test]
    fn compaction_keeps_live_clauses_in_order_and_relocates() {
        let mut db = ClauseDb::new();
        let a = db.add(&[l(0), l(1)], false, Some(ClauseId::new(3)));
        let b = db.add(&[l(2), l(3), l(4)], true, None);
        let c = db.add(&[l(5)], true, Some(ClauseId::new(9)));
        let d = db.add(&[l(6), l(7)], true, None);
        db.set_lbd(c, 4);
        db.bump(c, 2.5);
        db.delete(b);
        db.delete(d);
        let moved = db.compact();
        assert_eq!(db.wasted(), 0);
        assert_eq!(db.len(), 2 * HEADER + 3);
        assert_eq!(moved.get(b), None);
        assert_eq!(moved.get(d), None);
        let (a2, c2) = (moved.get(a).unwrap(), moved.get(c).unwrap());
        assert_eq!(db.lits(a2), &[l(0), l(1)]);
        assert_eq!(db.lits(c2), &[l(5)]);
        assert_eq!(db.proof_id(c2), Some(ClauseId::new(9)));
        assert_eq!((db.lbd(c2), db.activity(c2)), (4, 2.5));
        assert_eq!(db.learnt_refs(), vec![c2]);
        assert_eq!(db.refs().collect::<Vec<_>>(), vec![a2, c2]);
        assert_eq!(db.proof_id(a2), Some(ClauseId::new(3)));
    }
}
