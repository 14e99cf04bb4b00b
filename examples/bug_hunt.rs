//! Bug hunt: mutation-based validation of the equivalence checker's
//! SAT (counterexample) path.
//!
//! A multiplier is mutated one gate at a time; for each mutant the CEC
//! engine either returns a counterexample — which is re-executed on both
//! circuits to confirm it really distinguishes them — or proves the
//! mutant equivalent (a *masked* fault), in which case the proof is
//! replayed by the independent checker. Either way, no verdict is taken
//! on faith.
//!
//! Run with: `cargo run --release --example bug_hunt`

use resolution_cec::aig::gen::{array_multiplier, mutate};
use resolution_cec::cec::{EngineConfig, Session, SharedContext};
use resolution_cec::proof;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let golden = array_multiplier(5);
    println!("golden 5x5 array multiplier: {} gates", golden.num_ands());

    let ctx = SharedContext::disabled();
    let config = EngineConfig {
        verify: true,
        ..EngineConfig::default()
    };

    let mut caught = 0;
    let mut masked = 0;
    let trials = 40;
    for seed in 0..trials {
        let Some(mutant) = mutate(&golden, seed) else {
            continue;
        };
        match Session::new(config.clone(), &ctx).check(&golden, &mutant)? {
            outcome if outcome.is_equivalent() => {
                // The fault is masked: logically unobservable. Audit it.
                let cert = outcome.certificate().expect("equivalent");
                proof::check::check_refutation(cert.proof.as_ref().expect("proof"))?;
                masked += 1;
            }
            outcome => {
                let cex = outcome.counterexample().expect("inequivalent");
                // Confirm the counterexample on both circuits.
                assert_eq!(golden.evaluate(&cex.pattern), cex.outputs_a);
                assert_eq!(mutant.evaluate(&cex.pattern), cex.outputs_b);
                assert_ne!(cex.outputs_a, cex.outputs_b);
                caught += 1;
            }
        }
    }
    println!("mutants:  {trials}");
    println!("caught:   {caught} (counterexample confirmed by re-execution)");
    println!("masked:   {masked} (equivalence proof replayed by the checker)");
    assert!(caught > 0, "a gate-level fault campaign should find bugs");
    println!("bug hunt complete — every verdict was independently validated");
    Ok(())
}
