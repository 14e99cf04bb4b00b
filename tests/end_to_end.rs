//! End-to-end integration tests spanning every crate: generators → miter
//! → sweeping engine / monolithic baseline → proof → independent checker
//! → trimming → interpolation.

use resolution_cec::aig::gen;
use resolution_cec::aig::{sim, Aig};
use resolution_cec::cec::{CecOutcome, EngineConfig, Session, SharedContext};
use resolution_cec::cnf::tseitin;
use resolution_cec::proof;

/// Every equivalent pair in the benchmark family zoo, at small sizes.
fn equivalent_pairs() -> Vec<(&'static str, Aig, Aig)> {
    vec![
        (
            "adder rca/ksa",
            gen::ripple_carry_adder(6),
            gen::kogge_stone_adder(6),
        ),
        (
            "adder rca/bka",
            gen::ripple_carry_adder(6),
            gen::brent_kung_adder(6),
        ),
        (
            "adder rca/csel",
            gen::ripple_carry_adder(6),
            gen::carry_select_adder(6, 2),
        ),
        (
            "mult array/csa",
            gen::array_multiplier(4),
            gen::carry_save_multiplier(4),
        ),
        (
            "alu ripple/ks",
            gen::alu(4, gen::AluArch::Ripple),
            gen::alu(4, gen::AluArch::KoggeStone),
        ),
        (
            "shifter log/mux",
            gen::barrel_shifter_log(8),
            gen::barrel_shifter_mux(8),
        ),
        (
            "cmp ripple/sub",
            gen::comparator_ripple(6),
            gen::comparator_subtract(6),
        ),
        (
            "parity chain/tree",
            gen::parity_chain(8),
            gen::parity_tree(8),
        ),
        (
            "adder rca/cskip",
            gen::ripple_carry_adder(6),
            gen::carry_skip_adder(6, 2),
        ),
        (
            "prio chain/onehot",
            gen::priority_encoder_chain(8),
            gen::priority_encoder_onehot(8),
        ),
        (
            "decoder flat/split",
            gen::decoder_flat(4),
            gen::decoder_split(4),
        ),
        (
            "popcount serial/csa",
            gen::popcount_serial(8),
            gen::popcount_csa(8),
        ),
    ]
}

fn verified_options() -> EngineConfig {
    EngineConfig {
        verify: true,
        ..EngineConfig::default()
    }
}

#[test]
fn sweeping_engine_proves_the_whole_zoo() {
    for (name, a, b) in equivalent_pairs() {
        let outcome = Session::new(verified_options(), &SharedContext::disabled())
            .check(&a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let cert = outcome
            .certificate()
            .unwrap_or_else(|| panic!("{name}: expected equivalent"));
        let p = cert.proof.as_ref().expect("proof recorded");
        proof::check::check_refutation(p).unwrap_or_else(|e| panic!("{name}: strict: {e}"));
        proof::check::check_rup(p).unwrap_or_else(|e| panic!("{name}: rup: {e}"));
    }
}

/// Runs the monolithic baseline.
fn monolithic(a: &Aig, b: &Aig, config: EngineConfig) -> CecOutcome {
    Session::new(config, &SharedContext::disabled())
        .check_monolithic(a, b)
        .unwrap()
}

#[test]
fn monolithic_baseline_agrees_on_the_zoo() {
    for (name, a, b) in equivalent_pairs() {
        let outcome = Session::new(verified_options(), &SharedContext::disabled())
            .check_monolithic(&a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.is_equivalent(), "{name}");
        let p = outcome
            .certificate()
            .unwrap()
            .proof
            .as_ref()
            .unwrap()
            .clone();
        proof::check::check_refutation(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn stitched_proofs_are_smaller_than_monolithic_on_adders() {
    // The headline claim at small scale: for equivalence-rich pairs the
    // sweeping engine's (trimmed) proof is much smaller than the
    // monolithic one.
    let a = gen::ripple_carry_adder(10);
    let b = gen::kogge_stone_adder(10);
    let sweep = Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let mono = monolithic(&a, &b, EngineConfig::default());
    let rs = sweep
        .certificate()
        .unwrap()
        .stats
        .proof
        .unwrap()
        .resolutions;
    let rm = mono.certificate().unwrap().stats.proof.unwrap().resolutions;
    assert!(
        rs * 2 < rm,
        "sweeping proof ({rs} resolutions) should be well under monolithic ({rm})"
    );
}

#[test]
fn every_engine_configuration_is_sound() {
    let a = gen::ripple_carry_adder(5);
    let b = gen::carry_select_adder(5, 2);
    for share in [false, true] {
        for structural in [false, true] {
            for sweep in [false, true] {
                let opts = EngineConfig {
                    share_structure: share,
                    structural_merging: structural,
                    sweep,
                    verify: true,
                    ..EngineConfig::default()
                };
                let outcome = Session::new(opts, &SharedContext::disabled())
                    .check(&a, &b)
                    .unwrap_or_else(|e| {
                        panic!("share={share} structural={structural} sweep={sweep}: {e}")
                    });
                let cert = outcome.certificate().unwrap_or_else(|| {
                    panic!("share={share} structural={structural} sweep={sweep}: not equivalent")
                });
                proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
            }
        }
    }
}

#[test]
fn mutants_are_caught_by_both_engines() {
    let golden = gen::alu(3, gen::AluArch::Ripple);
    let mut caught_sweep = 0;
    let mut caught_mono = 0;
    let mut tried = 0;
    for seed in 0..12 {
        let Some(mutant) = gen::mutate(&golden, seed) else {
            continue;
        };
        // Ground truth by exhaustive evaluation (8 inputs).
        let truly_equal = sim::exhaustive_diff(&golden, &mutant, 8).is_none();
        tried += 1;
        let sweep = Session::new(verified_options(), &SharedContext::disabled())
            .check(&golden, &mutant)
            .unwrap();
        assert_eq!(sweep.is_equivalent(), truly_equal, "sweep seed {seed}");
        if !sweep.is_equivalent() {
            caught_sweep += 1;
        }
        let mono = monolithic(&golden, &mutant, verified_options());
        assert_eq!(mono.is_equivalent(), truly_equal, "mono seed {seed}");
        if !mono.is_equivalent() {
            caught_mono += 1;
        }
    }
    assert!(tried > 0);
    assert_eq!(caught_sweep, caught_mono);
    assert!(caught_sweep > 0, "no observable faults in {tried} mutants");
}

#[test]
fn aiger_round_trip_preserves_equivalence_verdicts() {
    // Write a circuit out in both AIGER formats, read it back, and let
    // the engine prove round-tripped == original.
    use resolution_cec::aig::aiger;
    let original = gen::alu(4, gen::AluArch::BrentKung);
    for binary in [false, true] {
        let mut buf = Vec::new();
        if binary {
            aiger::write_binary(&original, &mut buf).unwrap();
        } else {
            aiger::write_ascii(&original, &mut buf).unwrap();
        }
        let reread = aiger::read(&buf[..]).unwrap();
        let outcome = Session::new(verified_options(), &SharedContext::disabled())
            .check(&original, &reread)
            .unwrap();
        assert!(outcome.is_equivalent(), "binary={binary}");
    }
}

#[test]
fn rewritten_circuits_prove_equivalent_with_structural_merges() {
    // shuffle_rebuild only re-associates AND trees, so the sweep should
    // discharge a large share of the work structurally.
    let a = gen::random_aig(10, 120, 4, 7);
    let b = a.shuffle_rebuild(99);
    let outcome = Session::new(verified_options(), &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let cert = outcome.certificate().expect("rewrite preserves function");
    proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
}

fn tracecheck_bytes(p: &proof::Proof) -> Vec<u8> {
    let mut buf = Vec::new();
    proof::export::write_tracecheck(p, &mut buf).unwrap();
    buf
}

#[test]
fn sweep_is_reproducible_across_runs() {
    // Determinism: two same-seed runs over the whole zoo produce
    // byte-identical trimmed proofs.
    for (name, a, b) in equivalent_pairs() {
        let trimmed: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
                    .check(&a, &b)
                    .unwrap();
                let cert = outcome.certificate().unwrap_or_else(|| panic!("{name}"));
                let trim = proof::trim_refutation(cert.proof.as_ref().unwrap());
                tracecheck_bytes(&trim.proof)
            })
            .collect();
        assert_eq!(
            trimmed[0], trimmed[1],
            "{name}: same-seed runs must emit identical trimmed proofs"
        );
    }
}

#[test]
fn tracecheck_round_trip_preserves_checkability() {
    // Golden round-trip: an engine proof survives TraceCheck export →
    // import with every step intact and still passes both independent
    // checkers.
    let a = gen::ripple_carry_adder(6);
    let b = gen::carry_select_adder(6, 2);
    let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let cert = outcome.certificate().unwrap();
    let original = cert.proof.as_ref().unwrap();

    let bytes = tracecheck_bytes(original);
    let reread = proof::import::read_tracecheck(&bytes[..]).expect("exported proof parses");
    assert_eq!(reread.len(), original.len());
    assert_eq!(reread.num_original(), original.num_original());
    proof::check::check_refutation(&reread).unwrap();
    proof::check::check_rup(&reread).unwrap();
    // A second export of the imported proof is byte-identical.
    assert_eq!(tracecheck_bytes(&reread), bytes);
}

#[test]
fn unsat_core_identifies_needed_lemmas() {
    let a = gen::ripple_carry_adder(6);
    let b = gen::brent_kung_adder(6);
    let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let cert = outcome.certificate().unwrap();
    let p = cert.proof.as_ref().unwrap();
    let trimmed = proof::trim_refutation(p);
    // The trimmed proof keeps only what the refutation needs...
    assert!(trimmed.proof.len() < p.len());
    // ...and its original clauses are a subset of the recorded ones.
    assert!(trimmed.proof.num_original() <= p.num_original());
    proof::check::check_refutation(&trimmed.proof).unwrap();
}

#[test]
fn sweep_proof_interpolants_are_valid() {
    use resolution_cec::cec::Miter;
    use resolution_cec::cnf::tseitin::Partition;
    use resolution_cec::sat::{SolveResult, Solver};

    let a = gen::ripple_carry_adder(4);
    let b = gen::brent_kung_adder(4);
    let opts = EngineConfig {
        share_structure: false, // required for clause-side labels
        verify: true,
        ..EngineConfig::default()
    };
    let outcome = Session::new(opts, &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let cert = outcome.certificate().expect("equivalent");
    let itp = cert
        .interpolant()
        .expect("partition present in unshared proof mode")
        .expect("proof replays");

    // A ⟹ I on every induced assignment: rebuild the same miter (the
    // construction is deterministic; solver var i is miter node i).
    let miter = Miter::build(&a, &b, false);
    for bits in 0..(1u64 << a.num_inputs()) {
        let pattern: Vec<bool> = (0..a.num_inputs()).map(|i| bits >> i & 1 == 1).collect();
        let values = miter.graph.evaluate_nodes(&pattern);
        assert!(
            itp.evaluate(&values),
            "A-side clauses hold but interpolant is false on {pattern:?}"
        );
    }

    // I ∧ B-side clauses is unsatisfiable.
    let p = cert.proof.as_ref().unwrap();
    let mut check = Solver::new();
    check.ensure_vars(miter.graph.len() as u32);
    for (id, side) in cert.partition.as_ref().unwrap() {
        if *side == Partition::B {
            check.add_clause(p.clause(*id));
        }
    }
    // Encode the interpolant over fresh variables tied to the miter vars.
    let enc = tseitin::encode_from(&itp.graph, miter.graph.len() as u32);
    check.ensure_vars(enc.cnf.num_vars());
    for clause in enc.cnf.clauses() {
        check.add_clause(clause);
    }
    for (input_lit, var) in enc.input_lits.iter().zip(&itp.inputs) {
        check.add_clause(&[!*input_lit, var.positive()]);
        check.add_clause(&[*input_lit, var.negative()]);
    }
    check.add_clause(&[enc.output_lits[0]]);
    assert_eq!(check.solve(), SolveResult::Unsat, "I ∧ B must be unsat");
}

#[test]
fn interpolants_from_miter_proofs_are_valid() {
    use resolution_cec::cnf::tseitin::{self, Partition};
    use resolution_cec::proof::interpolate;
    use resolution_cec::sat::{SolveResult, Solver};

    let a = gen::parity_chain(5);
    let b = gen::parity_tree(5);
    let miter = tseitin::encode_miter(&a, &b);
    let mut solver = Solver::with_proof();
    solver.ensure_vars(miter.cnf.num_vars());
    let mut sides = Vec::new();
    for (clause, side) in miter.cnf.clauses().iter().zip(&miter.partition) {
        if let Some(id) = solver.add_clause(clause) {
            while sides.len() <= id.as_usize() {
                sides.push(Partition::B);
            }
            sides[id.as_usize()] = *side;
        }
    }
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let p = solver.proof().unwrap();
    let root = p.empty_clause().unwrap();
    let itp = interpolate::interpolant(p, root, |id| {
        sides.get(id.as_usize()).copied() != Some(Partition::A)
    })
    .expect("interpolation succeeds");
    // A ⟹ I on every induced assignment.
    for bits in 0..(1u64 << a.num_inputs()) {
        let pattern: Vec<bool> = (0..a.num_inputs()).map(|i| bits >> i & 1 == 1).collect();
        let mut assignment = vec![false; miter.cnf.num_vars() as usize];
        for (v, &bit) in miter.shared_inputs.iter().zip(&pattern) {
            assignment[v.as_usize()] = bit;
        }
        for (enc, g) in [(&miter.enc_a, &a), (&miter.enc_b, &b)] {
            let values = g.evaluate_nodes(&pattern);
            for (node, var) in enc.node_var.iter().enumerate() {
                assignment[var.as_usize()] = values[node];
            }
        }
        assert!(itp.evaluate(&assignment), "A ⟹ I violated");
    }
}
