//! Umbrella crate for the `resolution-cec` workspace.
//!
//! Re-exports the workspace crates so the root-level examples and
//! integration tests can exercise the whole stack through one dependency:
//!
//! - [`aig`] — And-Inverter Graphs, simulation, generators, AIGER I/O
//! - [`cnf`] — CNF formulas, Tseitin encoding, DIMACS I/O
//! - [`sat`] — CDCL SAT solver with resolution-proof logging
//! - [`proof`] — resolution proof store, checkers, trimming, compaction,
//!   TraceCheck/DRAT I/O, interpolation
//! - [`bdd`] — ROBDDs, the canonical-form equivalence baseline
//! - [`cec`] — the paper's contribution: proof-producing combinational
//!   equivalence checking (plus monolithic and BDD baselines and FRAIG
//!   reduction)
//!
//! # Example
//!
//! ```
//! use resolution_cec::aig::gen;
//! use resolution_cec::cec::{EngineConfig, Session, SharedContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = gen::ripple_carry_adder(8);
//! let b = gen::carry_lookahead_adder(8);
//! let ctx = SharedContext::disabled();
//! let outcome = Session::new(EngineConfig::default(), &ctx).check(&a, &b)?;
//! assert!(outcome.is_equivalent());
//! # Ok(())
//! # }
//! ```

pub use aig;
pub use bdd;
pub use cec;
pub use cnf;
pub use proof;
pub use sat;
