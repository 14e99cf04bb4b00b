//! Propositional variables, literals, clauses, and formulas.

use std::fmt;
use std::num::NonZeroI32;

/// A propositional variable, 0-based.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.positive().var(), v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its 0-based index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Var(index)
    }

    /// 0-based index of this variable.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Index as `usize`, for table lookups.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub const fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub const fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given sign
    /// (`negated = true` gives the negative literal).
    #[inline]
    pub const fn lit(self, negated: bool) -> Lit {
        Lit(self.0 << 1 | negated as u32)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A propositional literal: a [`Var`] plus a sign, packed as
/// `var * 2 + negated`.
///
/// # Example
///
/// ```
/// use cnf::{Lit, Var};
/// let p = Var::new(0).positive();
/// assert!(!p.is_negative());
/// assert_eq!(!p, Var::new(0).negative());
/// assert_eq!(p.to_dimacs(), 1);
/// assert_eq!((!p).to_dimacs(), -1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from its packed encoding (`var * 2 + sign`).
    #[inline]
    pub const fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// Packed encoding (`var * 2 + sign`).
    #[inline]
    pub const fn code(self) -> u32 {
        self.0
    }

    /// The variable of this literal.
    #[inline]
    pub const fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the negative literal of its variable.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 & 1 != 0
    }

    /// This literal negated iff `flip` is true.
    #[inline]
    pub const fn xor_sign(self, flip: bool) -> Lit {
        Lit(self.0 ^ flip as u32)
    }

    /// Converts to DIMACS convention: 1-based, sign = polarity.
    ///
    /// # Panics
    ///
    /// Panics on the positive literal of variable index `i32::MAX`,
    /// whose DIMACS value 2^31 leaves `i32`; its negative literal is
    /// `i32::MIN`.
    pub fn to_dimacs(self) -> i32 {
        let v = i64::from(self.var().index()) + 1;
        let signed = if self.is_negative() { -v } else { v };
        i32::try_from(signed).expect("variable index overflows dimacs")
    }

    /// Parses a DIMACS literal (nonzero; sign = polarity).
    pub fn from_dimacs(value: NonZeroI32) -> Lit {
        let v = value.get();
        Var::new(v.unsigned_abs() - 1).lit(v < 0)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<Var> for Lit {
    #[inline]
    fn from(v: Var) -> Lit {
        v.positive()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬v{}", self.var().index())
        } else {
            write!(f, "v{}", self.var().index())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A disjunction of literals.
///
/// Stored as a plain vector; emptiness means *false*.
pub type Clause = Vec<Lit>;

/// A formula in conjunctive normal form.
///
/// # Example
///
/// ```
/// use cnf::{Cnf, Var};
/// let mut f = Cnf::new();
/// let a = f.fresh_var().positive();
/// let b = f.fresh_var().positive();
/// f.add_clause(vec![a, b]);
/// f.add_clause(vec![!a]);
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Creates an empty formula with `num_vars` pre-allocated variables.
    pub fn with_vars(num_vars: u32) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses, in insertion order.
    #[inline]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Allocates and returns a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Appends a clause, growing the variable count if the clause
    /// mentions unseen variables. Returns the clause index.
    pub fn add_clause(&mut self, clause: Clause) -> usize {
        for l in &clause {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.clauses.push(clause);
        self.clauses.len() - 1
    }

    /// Mutable access to the clause list, for in-place edits such as
    /// strengthening, reordering, or removing clauses. Callers must not
    /// introduce variables at or beyond [`Cnf::num_vars`]; call
    /// [`Cnf::reserve_vars`] first when widening a clause.
    #[inline]
    pub fn clauses_mut(&mut self) -> &mut Vec<Clause> {
        &mut self.clauses
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// Evaluates the formula under a total assignment
    /// (`assignment[v]` is the value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than [`Cnf::num_vars`].
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars as usize);
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().as_usize()] ^ l.is_negative())
        })
    }
}

impl Extend<Clause> for Cnf {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        let mut f = Cnf::new();
        f.extend(iter);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_lit_round_trip() {
        let v = Var::new(5);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.negative().is_negative());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(v.lit(true), v.negative());
        assert_eq!(Lit::from_code(v.positive().code()), v.positive());
    }

    #[test]
    fn dimacs_round_trip() {
        for code in 0..20u32 {
            let l = Lit::from_code(code);
            let d = l.to_dimacs();
            assert_eq!(Lit::from_dimacs(NonZeroI32::new(d).unwrap()), l);
        }
        assert_eq!(Var::new(0).positive().to_dimacs(), 1);
        assert_eq!(Var::new(2).negative().to_dimacs(), -3);
    }

    #[test]
    fn dimacs_round_trip_at_the_i32_limits() {
        for d in [i32::MIN, -i32::MAX, i32::MAX] {
            let l = Lit::from_dimacs(NonZeroI32::new(d).unwrap());
            assert_eq!(l.to_dimacs(), d);
        }
    }

    #[test]
    fn cnf_grows_vars_from_clauses() {
        let mut f = Cnf::new();
        f.add_clause(vec![Var::new(9).positive()]);
        assert_eq!(f.num_vars(), 10);
        f.reserve_vars(4);
        assert_eq!(f.num_vars(), 10);
        f.reserve_vars(20);
        assert_eq!(f.num_vars(), 20);
    }

    #[test]
    fn evaluate_formula() {
        let mut f = Cnf::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        f.add_clause(vec![a.positive(), b.positive()]);
        f.add_clause(vec![a.negative(), b.positive()]);
        assert!(f.evaluate(&[true, true]));
        assert!(f.evaluate(&[false, true]));
        assert!(!f.evaluate(&[true, false]));
        assert!(!f.evaluate(&[false, false]));
    }

    #[test]
    fn empty_clause_is_false() {
        let mut f = Cnf::new();
        f.add_clause(vec![]);
        assert!(!f.evaluate(&[]));
    }

    #[test]
    fn collect_and_extend() {
        let f: Cnf = vec![vec![Var::new(0).positive()], vec![Var::new(1).negative()]]
            .into_iter()
            .collect();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_literals(), 2);
    }

    #[test]
    fn lit_display() {
        assert_eq!(format!("{}", Var::new(1).positive()), "v1");
        assert_eq!(format!("{}", Var::new(1).negative()), "¬v1");
    }
}
