//! A CDCL SAT solver with resolution-proof logging.
//!
//! Built from scratch for the `resolution-cec` workspace: the paper's
//! thesis is that a combinational-equivalence engine can emit a single
//! checkable resolution proof, and that requires a solver whose every
//! answer is accompanied by a derivation. This crate provides:
//!
//! - [`Solver`]: MiniSat-family CDCL (two-watched literals, VSIDS +
//!   phase saving, 1UIP learning with recursive minimization, Luby
//!   restarts, LBD-guided clause-database reduction, incremental
//!   assumptions).
//! - One flat clause arena: each clause is a 4-word header (size,
//!   flags and LBD, proof id, activity) followed by its literals, so a
//!   watcher reaches the deleted flag and the literals in one cache
//!   line. Once deleted clauses hold more than half of the arena after a
//!   reduction, the live ones are compacted in insertion order, which
//!   leaves the search unchanged. Conflict analysis, chain replay and
//!   clause addition reuse their buffers and allocate nothing per
//!   conflict.
//! - TraceCheck-style proof logging: original clauses become original
//!   proof steps; learnt clauses, level-0 consequences, and final
//!   conflicts under assumptions record chain-resolution antecedents,
//!   reconstructed by trail replay (see [`Solver`] docs).
//! - [`Solver::add_derived_clause`]: lets a client (the CEC engine)
//!   inject externally derived lemmas — e.g. structural-hashing
//!   equivalences — into both the clause database and the proof;
//!   [`Solver::record_derived_clause`] logs such a step without
//!   attaching it, for a clause an attached one already subsumes.
//! - Lazy loading of a formula: [`Solver::add_clause`] is
//!   [`Solver::record_clause`] (an original proof step, counted in the
//!   learnt-clause limit) followed by [`Solver::attach_clause`] (the
//!   clause joins the search). A client may record a whole formula up
//!   front and attach each part when a query first needs it, and keep
//!   the variables it has not attached out of the decisions with
//!   [`Solver::set_decision_var`]. A `Sat` answer then assigns every
//!   decision variable; one that is neither decided nor implied reads
//!   `false` in the model.
//!
//! # Example
//!
//! ```
//! use sat::{SolveResult, Solver};
//!
//! let mut s = Solver::with_proof();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause(&[x.positive(), y.positive()]);
//! s.add_clause(&[x.negative(), y.positive()]);
//! s.add_clause(&[y.negative()]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! proof::check::check_refutation(s.proof().unwrap()).unwrap();
//! ```

#![warn(missing_docs)]

mod db;
mod heap;
mod luby;
mod solver;

pub use luby::luby;
pub use solver::{SolveResult, Solver, SolverConfig, SolverStats};
