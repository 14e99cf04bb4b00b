//! Golden engine fingerprints: proofs, counterexamples and run counters
//! of a fixed set of checks, pinned byte for byte.
//!
//! Every check runs over the grid engine ∈ {static, adaptive} ×
//! (threads, learnt sharing) ∈ {(1, off), (2, off), (4, off), (2, on)} ×
//! pair conflict limit ∈ {none, 4}, and contributes one line: the FNV-1a
//! fingerprint of the TraceCheck proof (or of the counterexample bits),
//! then every deterministic counter of the run. Two `reduce` lines add
//! the fingerprint of a reduced AIGER graph. Times are left out; nothing
//! else is. A refactor of the engine must leave `golden_expected.txt`
//! unchanged. On a mismatch the test prints the lines it computed.

use resolution_cec::aig::{self, gen, Aig};
use resolution_cec::cec::{
    CecOutcome, EngineConfig, EngineSelect, EngineStats, Session, SharedContext,
};
use resolution_cec::proof;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("golden_expected.txt");

/// The checked pairs: six family pairs and one inequivalent mutant.
fn pairs() -> Vec<(String, Aig, Aig)> {
    let mut pairs: Vec<(String, Aig, Aig)> = [
        ("adder", 12),
        ("parity", 16),
        ("mul", 4),
        ("cmp", 12),
        ("popcount", 10),
        ("shift", 8),
    ]
    .into_iter()
    .map(|(family, width)| {
        let (a, b) = gen::family_pair(family, width).expect("known family");
        (format!("{family}-{width}"), a, b)
    })
    .collect();
    let (a, b) = gen::family_pair("adder", 8).expect("known family");
    let (seed, mutant) = (0..)
        .find_map(|s| {
            gen::mutate(&b, s)
                .filter(|m| simulation_separates(&a, m))
                .map(|m| (s, m))
        })
        .expect("some mutant differs");
    pairs.push((format!("adder-8~m{seed}"), a, mutant));
    pairs
}

/// Whether seeded random simulation tells the two graphs apart.
fn simulation_separates(a: &Aig, b: &Aig) -> bool {
    let outputs = |g: &Aig| g.output_signatures(&g.simulate_random(4, 1));
    outputs(a) != outputs(b)
}

/// Every configuration of the grid, labelled.
fn configs() -> Vec<(String, EngineConfig)> {
    let mut configs = Vec::new();
    for (engine, name) in [
        (EngineSelect::Static, "static"),
        (EngineSelect::Adaptive, "adaptive"),
    ] {
        for (threads, share_learnts) in [(1, false), (2, false), (4, false), (2, true)] {
            for limit in [None, Some(4)] {
                let label = format!(
                    "{name} t{threads} share={} limit={}",
                    if share_learnts { "on" } else { "off" },
                    limit.map_or_else(|| "none".to_string(), |l: u64| l.to_string())
                );
                configs.push((
                    label,
                    EngineConfig {
                        engine,
                        threads,
                        share_learnts,
                        pair_conflict_limit: limit,
                        ..EngineConfig::default()
                    },
                ));
            }
        }
    }
    configs
}

fn fnv(bytes: &[u8]) -> String {
    obs::hash::fnv1a64_hex(bytes)
}

/// Every deterministic counter of a run, in a fixed order.
fn counters(s: &EngineStats) -> String {
    let mut out = format!(
        "sat={}/{}/{} ref={} struct={} skip={} lemmas={} rounds={} solver={}/{} hist={}/{}",
        s.sat_calls,
        s.sat_unsat,
        s.sat_cex,
        s.refinements,
        s.structural_merges,
        s.pairs_skipped,
        s.lemmas,
        s.rounds,
        s.solver.conflicts,
        s.solver.propagations,
        s.sat_conflict_hist.count(),
        s.lemma_chain_hist.count(),
    );
    if let Some(d) = &s.dispatch {
        write!(out, " dispatch=[{d}]").unwrap();
    }
    for (w, ws) in s.workers.iter().enumerate() {
        write!(
            out,
            " w{w}={}/{}/{}/{}/{}/{}",
            ws.sat_calls, ws.sat_unsat, ws.sat_cex, ws.conflicts, ws.merges, ws.lemmas
        )
        .unwrap();
    }
    write!(
        out,
        " windows={:?} stitch={:?}",
        s.pair_windows, s.stitch_boundaries
    )
    .unwrap();
    out
}

fn check_line(name: &str, label: &str, outcome: &CecOutcome) -> String {
    let verdict = match outcome {
        CecOutcome::Equivalent(cert) => {
            let mut bytes = Vec::new();
            proof::export::write_tracecheck(cert.proof.as_ref().expect("proof on"), &mut bytes)
                .unwrap();
            format!("proof={}", fnv(&bytes))
        }
        CecOutcome::Inequivalent { counterexample, .. } => {
            let bits: String = counterexample
                .pattern
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            format!("cex={}", fnv(bits.as_bytes()))
        }
    };
    format!("{name} {label}: {verdict} {}", counters(outcome.stats()))
}

/// A graph with planted redundancy: a random graph and a reshuffled copy
/// of it, built without structural hashing, outputs taken from both.
fn redundant_graph() -> Aig {
    let base = gen::random_aig(8, 80, 4, 3);
    let copy = base.shuffle_rebuild(17);
    let mut g = Aig::new();
    let inputs = g.add_inputs(8);
    for src in [&base, &copy] {
        let mut map = vec![aig::Lit::FALSE; src.len()];
        for (id, node) in src.iter() {
            match *node {
                aig::Node::Const => {}
                aig::Node::Input { index } => map[id.as_usize()] = inputs[index as usize],
                aig::Node::And { a, b } => {
                    let la = map[a.node().as_usize()].xor_complement(a.is_complemented());
                    let lb = map[b.node().as_usize()].xor_complement(b.is_complemented());
                    map[id.as_usize()] = g.and_unshared(la, lb);
                }
            }
        }
        for o in src.outputs() {
            g.add_output(map[o.node().as_usize()].xor_complement(o.is_complemented()));
        }
    }
    g
}

fn actual() -> String {
    let ctx = SharedContext::disabled();
    let mut out = String::new();
    for (name, a, b) in pairs() {
        for (label, config) in configs() {
            let outcome = Session::new(config, &ctx)
                .check(&a, &b)
                .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
            writeln!(out, "{}", check_line(&name, &label, &outcome)).unwrap();
        }
    }
    let g = redundant_graph();
    for threads in [1, 4] {
        let config = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        let (reduced, stats) = Session::new(config, &ctx).reduce(&g);
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(&reduced, &mut bytes).unwrap();
        writeln!(
            out,
            "reduce t{threads}: aig={} ands={} {}",
            fnv(&bytes),
            reduced.num_ands(),
            counters(&stats)
        )
        .unwrap();
    }
    out
}

#[test]
fn engine_fingerprints_match_golden() {
    let actual = actual();
    // Shown by the harness only when the test fails.
    print!("{actual}");
    let expected: Vec<&str> = EXPECTED.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = actual.lines().collect();
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(e, g, "golden line {} differs", i + 1);
    }
    assert_eq!(expected.len(), got.len(), "golden line count differs");
}
