//! Resolution proofs: storage, checking, trimming, export, and
//! interpolation.
//!
//! This crate is the audit half of the `resolution-cec` workspace. The
//! SAT solver and the CEC engine *produce* [`Proof`]s; everything here
//! consumes them independently:
//!
//! - [`check::check_strict`] replays every recorded chain resolution —
//!   the paper's "simple proof checker" that lets a third party trust a
//!   CEC verdict without trusting the engine. [`chain::Chains`] is the
//!   one chain replay behind it, behind [`interpolate`] and behind the
//!   `lint` crate's chain lints.
//! - [`check::check_rup`] cross-validates by reverse unit propagation,
//!   through [`rup::Propagator`], the propagator the DRAT lint shares.
//! - [`trim`] extracts the backward cone of the empty clause (the unsat
//!   core / the lemmas that mattered); [`compact`] additionally
//!   hash-conses duplicate clause derivations before trimming.
//! - [`export`] writes TraceCheck and DRAT; [`import`] reads TraceCheck
//!   back, so proofs are durable artifacts.
//! - [`interpolate`] builds Craig interpolants (McMillan's system)
//!   directly as [`aig::Aig`] circuits.
//!
//! # Example
//!
//! ```
//! use cnf::Var;
//! use proof::Proof;
//!
//! let mut p = Proof::new();
//! let x = Var::new(0);
//! let a = p.add_original([x.positive()]);
//! let b = p.add_original([x.negative()]);
//! p.add_derived([], [a, b]);
//! assert!(proof::check::check_refutation(&p).is_ok());
//! ```

#![warn(missing_docs)]

pub mod chain;
pub mod check;
mod compact;
pub mod export;
pub mod import;
pub mod interpolate;
pub mod rup;
mod store;
mod trim;

pub use compact::{compact, compact_refutation};

pub use store::{ClauseId, Proof, ProofStats, Step, StepRole};
pub use trim::{trim, trim_refutation, TrimResult};
