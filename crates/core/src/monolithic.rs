//! The monolithic baseline: one SAT call on the whole miter CNF.
//!
//! This is the comparison point of the paper's headline experiment: the
//! same verdict and the same kind of resolution proof, but produced by a
//! single solver run on the Tseitin encoding of the full miter, with no
//! structural hashing across the circuits, no simulation, and no
//! intermediate lemmas.

use crate::outcome::{CecError, CecOutcome, Certificate, Counterexample, EngineStats};
use aig::Aig;
use cnf::tseitin;
use obs::{Recorder, TID_COORDINATOR};
use proof::Proof;
use sat::{SolveResult, Solver, SolverConfig};
use std::time::Instant;

/// Options for the monolithic baseline.
#[derive(Clone, Debug)]
pub struct MonolithicOptions {
    /// Record a resolution proof.
    pub proof: bool,
    /// Run the proof lint pass before returning (see
    /// [`crate::EngineConfig::lint_proof`]).
    pub lint_proof: bool,
    /// Re-check the proof / counterexample before returning.
    pub verify: bool,
    /// Trace recorder (see [`crate::SharedContext::recorder`]); disabled
    /// by default.
    pub recorder: Recorder,
}

impl Default for MonolithicOptions {
    fn default() -> Self {
        MonolithicOptions {
            proof: true,
            lint_proof: false,
            verify: false,
            recorder: Recorder::disabled(),
        }
    }
}

/// Decides equivalence with a single SAT call on the miter CNF.
///
/// # Errors
///
/// Same contract as [`crate::Session::check`].
///
/// # Example
///
/// ```
/// use aig::gen::{brent_kung_adder, ripple_carry_adder};
/// use cec::monolithic::{prove_monolithic, MonolithicOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = ripple_carry_adder(6);
/// let b = brent_kung_adder(6);
/// let outcome = prove_monolithic(&a, &b, &MonolithicOptions::default())?;
/// assert!(outcome.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn prove_monolithic(
    a: &Aig,
    b: &Aig,
    options: &MonolithicOptions,
) -> Result<CecOutcome, CecError> {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(CecError::InterfaceMismatch {
            a: (a.num_inputs(), a.num_outputs()),
            b: (b.num_inputs(), b.num_outputs()),
        });
    }
    if a.num_outputs() == 0 {
        return Err(CecError::NoOutputs);
    }
    let start = Instant::now();
    let rec = &options.recorder;
    let enc = tseitin::encode_miter(a, b);
    let mut solver = Solver::with_config(SolverConfig {
        proof_logging: options.proof,
        ..SolverConfig::default()
    });
    solver.set_recorder(rec.clone(), TID_COORDINATOR);
    solver.ensure_vars(enc.cnf.num_vars());
    let mut original_sides = Vec::new();
    for (clause, side) in enc.cnf.clauses().iter().zip(&enc.partition) {
        if let Some(id) = solver.add_clause(clause) {
            original_sides.push((id, *side));
        }
    }
    let mut stats = EngineStats {
        miter_nodes: a.len() + b.len(),
        circuit_nodes: a.len() + b.len(),
        ..EngineStats::default()
    };
    stats.phases.miter = start.elapsed();
    rec.complete("miter", TID_COORDINATOR, start, stats.phases.miter);
    let solve_start = Instant::now();
    let result = solver.solve();
    stats.phases.final_solve = solve_start.elapsed();
    rec.complete(
        "final_solve",
        TID_COORDINATOR,
        solve_start,
        stats.phases.final_solve,
    );
    stats.solver = *solver.stats();

    match result {
        SolveResult::Unknown => unreachable!("monolithic solve runs without a budget"),
        SolveResult::Unsat => {
            let empty = solver.empty_clause_id();
            let proof: Option<Proof> = solver.into_proof();
            let mut lint_report = None;
            if let Some(p) = &proof {
                stats.proof = Some(p.stats());
                if options.verify {
                    let check_start = Instant::now();
                    proof::check::check_refutation(p).map_err(CecError::ProofRejected)?;
                    stats.phases.check = check_start.elapsed();
                    rec.complete("check", TID_COORDINATOR, check_start, stats.phases.check);
                }
                let trim_start = Instant::now();
                let t = proof::trim_refutation(p);
                stats.trimmed = Some(t.proof.stats());
                stats.phases.trim = trim_start.elapsed();
                rec.complete("trim", TID_COORDINATOR, trim_start, stats.phases.trim);
                if options.lint_proof {
                    let lint_start = Instant::now();
                    let lint_opts = lint::LintOptions {
                        expect_refutation: true,
                        ..lint::LintOptions::default()
                    };
                    let report = lint::lint_proof(p, &lint_opts);
                    stats.lints = Some(report.counts());
                    lint_report = Some(report);
                    stats.phases.lint = lint_start.elapsed();
                    rec.complete("lint", TID_COORDINATOR, lint_start, stats.phases.lint);
                }
            }
            stats.elapsed = start.elapsed();
            let partition = proof.as_ref().map(|_| {
                // Original clauses were added in `enc.cnf` order; ids and
                // partition labels line up one-to-one (tautologies are
                // impossible in a Tseitin encoding).
                original_sides.clone()
            });
            Ok(CecOutcome::Equivalent(Box::new(Certificate {
                proof,
                empty_clause: empty,
                partition,
                stats,
                lint_report,
            })))
        }
        SolveResult::Sat => {
            let pattern: Vec<bool> = enc
                .shared_inputs
                .iter()
                .map(|v| solver.model_value(*v))
                .collect();
            let counterexample = Counterexample {
                outputs_a: a.evaluate(&pattern),
                outputs_b: b.evaluate(&pattern),
                pattern,
            };
            if options.verify && counterexample.outputs_a == counterexample.outputs_b {
                return Err(CecError::BogusCounterexample(counterexample));
            }
            stats.elapsed = start.elapsed();
            Ok(CecOutcome::Inequivalent {
                counterexample,
                stats,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::gen::{kogge_stone_adder, mutate, ripple_carry_adder};

    #[test]
    fn equivalent_adders_unsat_with_proof() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let opts = MonolithicOptions {
            verify: true,
            ..MonolithicOptions::default()
        };
        let outcome = prove_monolithic(&a, &b, &opts).unwrap();
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn mutant_found_sat() {
        let a = ripple_carry_adder(3);
        let b = (0..30)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let outcome = prove_monolithic(&a, &b, &MonolithicOptions::default()).unwrap();
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn agrees_with_sweeping_engine() {
        use crate::{EngineConfig, Session, SharedContext};
        let ctx = SharedContext::disabled();
        let pairs: Vec<(Aig, Aig)> = vec![
            (ripple_carry_adder(3), kogge_stone_adder(3)),
            (aig::gen::parity_chain(5), aig::gen::parity_tree(5)),
        ];
        for (a, b) in &pairs {
            let mono = prove_monolithic(a, b, &MonolithicOptions::default()).unwrap();
            let sweep = Session::new(EngineConfig::default(), &ctx)
                .check(a, b)
                .unwrap();
            assert_eq!(mono.is_equivalent(), sweep.is_equivalent());
        }
    }
}
