//! FRAIG optimization: the equivalence-checking engine pointed at a
//! single netlist, merging functionally equivalent internal nodes.
//!
//! A redundancy-rich design is built (a datapath computing the same
//! arithmetic twice in different architectures, as naive HLS output
//! often does), reduced with `cec::Session::reduce`, and the optimization itself
//! is then *verified* by running the proof-producing checker on the
//! before/after pair — optimizing and signing off with the same
//! machinery.
//!
//! Run with: `cargo run --release --example fraig_optimize`

use resolution_cec::aig::gen::{brent_kung_adder, ripple_carry_adder};
use resolution_cec::aig::{Aig, Lit, Node};
use resolution_cec::cec::{EngineConfig, Session, SharedContext};
use resolution_cec::proof;

/// Imports `src` into `g` over `inputs` without structural hashing.
fn import_unshared(g: &mut Aig, src: &Aig, inputs: &[Lit]) -> Vec<Lit> {
    let mut map = vec![Lit::FALSE; src.len()];
    for (id, node) in src.iter() {
        match *node {
            Node::Const => {}
            Node::Input { index } => map[id.as_usize()] = inputs[index as usize],
            Node::And { a, b } => {
                let la = map[a.node().as_usize()].xor_complement(a.is_complemented());
                let lb = map[b.node().as_usize()].xor_complement(b.is_complemented());
                map[id.as_usize()] = g.and_unshared(la, lb);
            }
        }
    }
    src.outputs()
        .iter()
        .map(|o| map[o.node().as_usize()].xor_complement(o.is_complemented()))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "bloated" design: a 16-bit sum computed by two different
    // adder architectures, both sets of outputs exposed.
    let width = 16;
    let mut bloated = Aig::new();
    let inputs: Vec<Lit> = (0..2 * width).map(|_| bloated.add_input()).collect();
    for arch in [ripple_carry_adder(width), brent_kung_adder(width)] {
        for o in import_unshared(&mut bloated, &arch, &inputs) {
            bloated.add_output(o);
        }
    }
    println!(
        "bloated design: {} AND gates, {} outputs",
        bloated.num_ands(),
        bloated.num_outputs()
    );

    let ctx = SharedContext::disabled();
    let t = std::time::Instant::now();
    let (optimized, _) = Session::new(EngineConfig::default(), &ctx).reduce(&bloated);
    println!(
        "fraig reduce:   {} AND gates ({:.0}% removed) in {:?}",
        optimized.num_ands(),
        100.0 * (1.0 - optimized.num_ands() as f64 / bloated.num_ands() as f64),
        t.elapsed()
    );

    // Sign off the optimization with a checkable proof.
    let config = EngineConfig {
        verify: true,
        ..EngineConfig::default()
    };
    let outcome = Session::new(config, &ctx).check(&bloated, &optimized)?;
    let cert = outcome
        .certificate()
        .expect("reduction must preserve the function");
    proof::check::check_refutation(cert.proof.as_ref().expect("proof"))?;
    println!(
        "sign-off:       optimization PROVEN equivalence-preserving ({} resolutions, checked)",
        cert.stats.proof.map_or(0, |s| s.resolutions)
    );
    Ok(())
}
