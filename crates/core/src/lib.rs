//! Proof-producing combinational equivalence checking.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*On Resolution Proofs for Combinational Equivalence*, DAC 2007):
//! a SAT-sweeping CEC engine whose *every* reasoning step — structural
//! hashing, simulation-guided SAT sweeping, and the final miter check —
//! contributes inferences to a single resolution proof that an
//! independent, trivially simple checker can replay.
//!
//! - [`Session`] / [`EngineConfig`] / [`SharedContext`]: the engine's
//!   one entry point — a check (or a FRAIG reduction) as a cheap object
//!   over shared state, so services can run many checks per process.
//!   [`Session::check`] sweeps; [`Session::check_monolithic`] is the
//!   single-SAT-call baseline. Both verdicts leave through the same
//!   final solve and the same proof / counterexample checks.
//! - [`bdd_baseline::prove_bdd`]: the canonical-form baseline, with no
//!   certificate.
//! - [`Miter`]: both circuits in one AIG over shared inputs.
//! - [`SimClasses`]: simulation-derived candidate equivalence classes.
//! - [`CecOutcome`]: an [`Equivalent`](CecOutcome::Equivalent) verdict
//!   carries a [`Certificate`] with the refutation; an
//!   [`Inequivalent`](CecOutcome::Inequivalent) verdict carries a
//!   validated [`Counterexample`].
//!
//! # Example
//!
//! ```
//! use aig::gen::{carry_select_adder, ripple_carry_adder};
//! use cec::{EngineConfig, Session, SharedContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = ripple_carry_adder(8);
//! let b = carry_select_adder(8, 3);
//! let ctx = SharedContext::disabled();
//! let outcome = Session::new(EngineConfig::default(), &ctx).check(&a, &b)?;
//! let cert = outcome.certificate().expect("equivalent");
//! // The verdict is auditable: replay the proof independently.
//! proof::check::check_refutation(cert.proof.as_ref().unwrap())?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bdd_baseline;
mod engine;
pub mod journal;
mod miter;
mod outcome;
mod session;
mod sim;
mod stats_json;

pub use engine::miter_cnf;
pub use journal::{CrashMode, CrashPoint, Durable};
pub use miter::Miter;
pub use outcome::{CecError, CecOutcome, Certificate, Counterexample, EngineStats, PhaseTimes};
pub use session::{EngineConfig, Session, SharedContext};
pub use sim::SimClasses;
