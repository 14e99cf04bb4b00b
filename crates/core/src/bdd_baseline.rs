//! The BDD baseline: equivalence by canonical form.
//!
//! Before SAT-based flows, combinational equivalence was decided by
//! building ROBDDs of both circuits and comparing node references —
//! constant-time comparison once built, *no certificate needed or
//! available*. The catch, reproduced in experiment T8: diagram size is
//! extremely sensitive to variable order, and for multiplier-like
//! functions it is exponential under **every** order. The SAT-sweeping
//! engine has no such cliff — and produces a checkable proof besides.

use crate::outcome::{CecError, Counterexample};
use aig::Aig;
use bdd::{interleaved_ordering, natural_ordering, BddOverflow, BddRef, Manager};
use std::time::{Duration, Instant};

/// Variable-ordering strategy for the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BddOrdering {
    /// Inputs in declaration order.
    Natural,
    /// Interleave the two operand words (`a0 b0 a1 b1 …`) — required
    /// for linear-size adder BDDs. Falls back to natural order when the
    /// input count is odd.
    Interleaved,
}

/// Options for the BDD baseline.
#[derive(Clone, Debug)]
pub struct BddOptions {
    /// Hard node limit; exceeding it yields [`BddVerdict::Overflow`].
    pub node_limit: usize,
    /// Variable ordering strategy.
    pub ordering: BddOrdering,
}

impl Default for BddOptions {
    fn default() -> Self {
        BddOptions {
            node_limit: 1 << 22,
            ordering: BddOrdering::Interleaved,
        }
    }
}

/// Outcome of the BDD baseline.
#[derive(Debug)]
pub enum BddVerdict {
    /// Canonical forms coincide on every output.
    Equivalent {
        /// Peak node count of the manager.
        nodes: usize,
        /// Wall-clock build time.
        elapsed: Duration,
    },
    /// The circuits differ; a witness extracted from the difference BDD.
    Inequivalent {
        /// The distinguishing assignment.
        counterexample: Counterexample,
        /// Peak node count of the manager.
        nodes: usize,
    },
    /// The diagrams exceeded the node limit — no verdict.
    Overflow(BddOverflow),
}

impl BddVerdict {
    /// Whether a verdict (either way) was reached.
    pub fn decided(&self) -> bool {
        !matches!(self, BddVerdict::Overflow(_))
    }
}

/// Decides equivalence by building and comparing ROBDDs.
///
/// # Errors
///
/// [`CecError::InterfaceMismatch`] / [`CecError::NoOutputs`] for
/// malformed inputs (node-limit overflow is a [`BddVerdict`], not an
/// error).
///
/// # Example
///
/// ```
/// use aig::gen::{brent_kung_adder, ripple_carry_adder};
/// use cec::bdd_baseline::{prove_bdd, BddOptions, BddVerdict};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = ripple_carry_adder(16);
/// let b = brent_kung_adder(16);
/// let verdict = prove_bdd(&a, &b, &BddOptions::default())?;
/// assert!(matches!(verdict, BddVerdict::Equivalent { .. }));
/// # Ok(())
/// # }
/// ```
pub fn prove_bdd(a: &Aig, b: &Aig, options: &BddOptions) -> Result<BddVerdict, CecError> {
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
    let n = a.num_inputs();
    let ordering = match options.ordering {
        BddOrdering::Natural => natural_ordering(n),
        BddOrdering::Interleaved if n.is_multiple_of(2) => interleaved_ordering(n / 2),
        BddOrdering::Interleaved => natural_ordering(n),
    };
    // level -> input index, for counterexample extraction.
    let mut input_of_level = vec![0usize; n];
    for (input, &level) in ordering.iter().enumerate() {
        input_of_level[level as usize] = input;
    }

    let mut m = Manager::new(options.node_limit);
    let oa = match m.from_aig(a, &ordering) {
        Ok(v) => v,
        Err(e) => return Ok(BddVerdict::Overflow(e)),
    };
    let ob = match m.from_aig(b, &ordering) {
        Ok(v) => v,
        Err(e) => return Ok(BddVerdict::Overflow(e)),
    };

    for (fa, fb) in oa.iter().zip(ob.iter()) {
        if fa == fb {
            continue; // canonicity: identical refs, identical functions
        }
        let diff = match m.xor(*fa, *fb) {
            Ok(d) => d,
            Err(e) => return Ok(BddVerdict::Overflow(e)),
        };
        if diff == BddRef::FALSE {
            continue;
        }
        let path = m.one_sat(diff).expect("non-false diff has a model");
        let mut pattern = vec![false; n];
        for (level, value) in path {
            pattern[input_of_level[level as usize]] = value;
        }
        let counterexample = Counterexample {
            outputs_a: a.evaluate(&pattern),
            outputs_b: b.evaluate(&pattern),
            pattern,
        };
        return Ok(BddVerdict::Inequivalent {
            counterexample,
            nodes: m.num_nodes(),
        });
    }
    Ok(BddVerdict::Equivalent {
        nodes: m.num_nodes(),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::gen;

    #[test]
    fn adders_equivalent_by_canonical_form() {
        let a = gen::ripple_carry_adder(8);
        let b = gen::carry_select_adder(8, 3);
        let v = prove_bdd(&a, &b, &BddOptions::default()).unwrap();
        match v {
            BddVerdict::Equivalent { nodes, .. } => assert!(nodes > 2),
            other => panic!("expected equivalent, got {other:?}"),
        }
    }

    #[test]
    fn mutants_get_counterexamples() {
        let a = gen::ripple_carry_adder(4);
        let b = (0..40)
            .filter_map(|s| gen::mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let v = prove_bdd(&a, &b, &BddOptions::default()).unwrap();
        match v {
            BddVerdict::Inequivalent { counterexample, .. } => {
                assert_ne!(counterexample.outputs_a, counterexample.outputs_b);
                assert_eq!(
                    a.evaluate(&counterexample.pattern),
                    counterexample.outputs_a
                );
                assert_eq!(
                    b.evaluate(&counterexample.pattern),
                    counterexample.outputs_b
                );
            }
            other => panic!("expected inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn multiplier_overflow_is_a_verdict_not_an_error() {
        let a = gen::array_multiplier(7);
        let b = gen::carry_save_multiplier(7);
        let opts = BddOptions {
            node_limit: 20_000,
            ..BddOptions::default()
        };
        let v = prove_bdd(&a, &b, &opts).unwrap();
        assert!(!v.decided());
    }

    #[test]
    fn agrees_with_sat_engine() {
        use crate::{EngineConfig, Session, SharedContext};
        let a = gen::alu(4, gen::AluArch::Ripple);
        let b = gen::alu(4, gen::AluArch::KoggeStone);
        let bddv = prove_bdd(&a, &b, &BddOptions::default()).unwrap();
        let ctx = SharedContext::disabled();
        let satv = Session::new(EngineConfig::default(), &ctx)
            .check(&a, &b)
            .unwrap();
        assert!(matches!(bddv, BddVerdict::Equivalent { .. }));
        assert!(satv.is_equivalent());
    }

    #[test]
    fn constant_circuits_without_inputs() {
        use aig::Lit;
        let mut a = Aig::new();
        a.add_output(Lit::TRUE);
        let b = a.clone();
        assert!(matches!(
            prove_bdd(&a, &b, &BddOptions::default()).unwrap(),
            BddVerdict::Equivalent { .. }
        ));
        let mut c = Aig::new();
        c.add_output(Lit::FALSE);
        match prove_bdd(&a, &c, &BddOptions::default()).unwrap() {
            BddVerdict::Inequivalent { counterexample, .. } => {
                assert!(counterexample.pattern.is_empty());
            }
            other => panic!("expected inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn interface_checks() {
        let a = gen::parity_tree(3);
        let b = gen::parity_tree(4);
        assert!(prove_bdd(&a, &b, &BddOptions::default()).is_err());
    }
}
