//! Property-based tests over the whole stack.
//!
//! Random circuits, random rewrites, and random faults drive the
//! equivalence checker; every claimed equivalence is backed by a checked
//! resolution proof and every claimed difference by a re-executed
//! counterexample — and for small input counts, both verdicts are
//! compared against exhaustive evaluation.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use resolution_cec::aig::gen::{mutate, random_aig};
use resolution_cec::aig::sim::exhaustive_diff;
use resolution_cec::aig::{Aig, NodeId};
use resolution_cec::cec::{EngineConfig, Miter, Session, SharedContext, SimClasses};
use resolution_cec::cnf::{Lit, Var};
use resolution_cec::proof::{self, check::CheckError, ClauseId, Proof};
use std::collections::BTreeSet;

fn verified() -> EngineConfig {
    EngineConfig {
        verify: true,
        ..EngineConfig::default()
    }
}

/// Each node's class leader, `None` for a node in no live class.
fn leaders(classes: &SimClasses, len: usize) -> Vec<Option<NodeId>> {
    (0..len as u32)
        .map(|n| {
            classes
                .class_of(NodeId::new(n))
                .map(|(c, _)| classes.leader(c))
        })
        .collect()
}

/// Each node's phase-normalized signature under the words of `passes`,
/// one word per pass (`pass[i]` holds input `i`'s 64 values).
fn normalized(graph: &Aig, classes: &SimClasses, passes: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let sims: Vec<Vec<u64>> = passes.iter().map(|w| graph.simulate_word(w)).collect();
    (0..graph.len())
        .map(|n| {
            let mask = u64::from(classes.phase(NodeId::new(n as u32))).wrapping_neg();
            sims.iter().map(|sig| sig[n] ^ mask).collect()
        })
        .collect()
}

/// The single-pattern refinement the sweep used before a counterexample
/// refined the classes with its neighbourhood, over the leader view: in
/// each class, the members whose phase-normalized value differs from
/// the leader's split off together, and a group of one leaves the live
/// classes. Returns the new leaders and the number of classes split.
fn refine_with_pattern_reference(
    graph: &Aig,
    classes: &SimClasses,
    before: &[Option<NodeId>],
    pattern: &[bool],
) -> (Vec<Option<NodeId>>, usize) {
    let values = graph.evaluate_nodes(pattern);
    let key = |n: NodeId| values[n.as_usize()] ^ classes.phase(n);
    let group = |n: NodeId| before[n.as_usize()].map(|l| (l, key(n) == key(l)));
    let mut split_leaders = Vec::new();
    let after = (0..before.len() as u32)
        .map(|n| {
            let g = group(NodeId::new(n))?;
            let members: Vec<NodeId> = (0..before.len() as u32)
                .map(NodeId::new)
                .filter(|&m| group(m) == Some(g))
                .collect();
            if !g.1 && !split_leaders.contains(&g.0) {
                split_leaders.push(g.0);
            }
            (members.len() >= 2).then(|| members[0])
        })
        .collect();
    (after, split_leaders.len())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Rewriting (shuffle/balance) never changes the function, and the
    /// engine can always prove it with a checkable refutation.
    #[test]
    fn rewrites_are_equivalence_preserving(
        inputs in 2usize..8,
        gates in 5usize..80,
        outputs in 1usize..4,
        seed in any::<u64>(),
        rewrite_seed in any::<u64>(),
        balance in any::<bool>(),
    ) {
        let a = random_aig(inputs, gates, outputs, seed);
        let b = if balance { a.balance() } else { a.shuffle_rebuild(rewrite_seed) };
        prop_assert_eq!(exhaustive_diff(&a, &b, 8), None);
        let outcome = Session::new(verified(), &SharedContext::disabled()).check(&a, &b).unwrap();
        let cert = outcome.certificate().expect("rewrite preserves function");
        prop_assert!(proof::check::check_refutation(cert.proof.as_ref().unwrap()).is_ok());
    }

    /// The engine's verdict matches exhaustive ground truth on mutants.
    #[test]
    fn engine_matches_ground_truth_on_mutants(
        inputs in 2usize..7,
        gates in 5usize..60,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let Some(b) = mutate(&a, fault_seed) else {
            return Ok(());
        };
        let truth_equal = exhaustive_diff(&a, &b, 8).is_none();
        let outcome = Session::new(verified(), &SharedContext::disabled()).check(&a, &b).unwrap();
        prop_assert_eq!(outcome.is_equivalent(), truth_equal);
        if let Some(cex) = outcome.counterexample() {
            prop_assert_eq!(&a.evaluate(&cex.pattern), &cex.outputs_a);
            prop_assert_eq!(&b.evaluate(&cex.pattern), &cex.outputs_b);
            prop_assert_ne!(&cex.outputs_a, &cex.outputs_b);
        }
    }

    /// Engine options never change the verdict, only the work profile.
    #[test]
    fn options_do_not_change_verdicts(
        inputs in 2usize..6,
        gates in 5usize..40,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        share in any::<bool>(),
        structural in any::<bool>(),
        sim_words in 1usize..8,
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let b = match fault_seed % 3 {
            0 => a.shuffle_rebuild(fault_seed),
            _ => match mutate(&a, fault_seed) {
                Some(m) => m,
                None => return Ok(()),
            },
        };
        let truth_equal = exhaustive_diff(&a, &b, 8).is_none();
        let opts = EngineConfig {
            share_structure: share,
            structural_merging: structural,
            sim_words,
            verify: true,
            ..EngineConfig::default()
        };
        let outcome = Session::new(opts, &SharedContext::disabled()).check(&a, &b).unwrap();
        prop_assert_eq!(outcome.is_equivalent(), truth_equal);
    }

    /// Trimming any engine proof preserves checkability and the root.
    #[test]
    fn trimmed_engine_proofs_check(
        inputs in 2usize..6,
        gates in 5usize..40,
        seed in any::<u64>(),
        rewrite_seed in any::<u64>(),
    ) {
        let a = random_aig(inputs, gates, 2, seed);
        let b = a.shuffle_rebuild(rewrite_seed);
        let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled()).check(&a, &b).unwrap();
        let cert = outcome.certificate().expect("equivalent");
        let p = cert.proof.as_ref().unwrap();
        let t = proof::trim_refutation(p);
        prop_assert!(t.proof.len() <= p.len());
        prop_assert!(proof::check::check_refutation(&t.proof).is_ok());
        prop_assert!(proof::check::check_rup(&t.proof).is_ok());
    }

    /// Refining the candidate classes with simulated words is exact: two
    /// members of one class stay together iff the words never tell them
    /// apart (phase-normalized), so refinement never separates two nodes
    /// that exhaustive simulation finds equal up to the class phase, and
    /// never leaves two members of one class that a pattern of the words
    /// tells apart. Leaders stay their class's smallest member, and a
    /// word repeating one pattern 64 times splits exactly as the
    /// single-pattern refinement did.
    #[test]
    fn refinement_splits_exactly_what_the_words_tell_apart(
        inputs in 6usize..9,
        gates in 20usize..120,
        outputs in 1usize..4,
        seed in any::<u64>(),
        rewrite_seed in any::<u64>(),
        balance in any::<bool>(),
        share in any::<bool>(),
        words in prop::collection::vec(any::<u64>(), 8),
        pick in any::<usize>(),
    ) {
        let a = random_aig(inputs, gates, outputs, seed);
        let b = if balance { a.balance() } else { a.shuffle_rebuild(rewrite_seed) };
        let graph = Miter::build(&a, &b, share).graph;
        let len = graph.len();
        let mut classes = SimClasses::from_random_simulation(&graph, 1, seed ^ rewrite_seed);
        let before = leaders(&classes, len);
        let mut single = classes.clone();

        // Every one of the 2^inputs patterns, four words' worth.
        let exhaustive: Vec<Vec<u64>> = (0..4)
            .map(|w| {
                (0..inputs)
                    .map(|i| (0..64).fold(0, |acc, bit| {
                        let pattern = (w * 64 + bit) % (1 << inputs);
                        acc | (((pattern >> i) & 1) as u64) << bit
                    }))
                    .collect()
            })
            .collect();
        let truth = normalized(&graph, &classes, &exhaustive);
        let word = &words[..inputs];
        let told = normalized(&graph, &classes, &[word.to_vec()]);
        classes.refine(&graph, word);
        let after = leaders(&classes, len);
        for n in 0..len {
            if let Some(leader) = after[n] {
                prop_assert!(leader.as_usize() <= n);
            }
            for m in n + 1..len {
                let was = before[n].is_some() && before[n] == before[m];
                let is = after[n].is_some() && after[n] == after[m];
                prop_assert_eq!(is, was && told[n] == told[m], "nodes {} and {}", n, m);
                if was && truth[n] == truth[m] {
                    prop_assert!(is, "equal nodes {} and {} separated", n, m);
                }
            }
        }

        // From the same classes, one pattern repeated in all 64 bits: one
        // that tells two members of a class apart, when there is one.
        let separating: Vec<usize> = (0..1 << inputs)
            .filter(|&p| {
                let bit = |n: usize| truth[n][p / 64] >> (p % 64) & 1;
                (0..len).any(|n| before[n].is_some_and(|l| bit(n) != bit(l.as_usize())))
            })
            .collect();
        let p = separating.get(pick % separating.len().max(1)).copied().unwrap_or(pick);
        let pattern: Vec<bool> = (0..inputs).map(|i| (p >> i) & 1 == 1).collect();
        let (expected, expected_splits) =
            refine_with_pattern_reference(&graph, &single, &before, &pattern);
        let repeated: Vec<u64> = pattern.iter().map(|&v| u64::from(v).wrapping_neg()).collect();
        prop_assert_eq!(single.refine(&graph, &repeated), expected_splits);
        prop_assert_eq!(leaders(&single, len), expected);
    }
}

/// The variables of the checker/lint agreement proofs: a few small
/// indices and 2^31−1, the largest a `Lit` holds. Like every proof
/// reader, the generator gives that one only its negative literal
/// (`-2147483648`); its positive one has no DIMACS form.
const POOL: [u32; 5] = [0, 1, 2, 3, i32::MAX as u32];

/// A random literal over [`POOL`].
fn pool_lit(rng: &mut SmallRng) -> Lit {
    let v = *POOL.choose(rng).expect("non-empty pool");
    Var::new(v).lit(v == POOL[4] || rng.gen_bool(0.5))
}

fn is_tautology(c: &BTreeSet<Lit>) -> bool {
    c.iter().any(|&l| c.contains(&!l))
}

/// A random small proof over [`POOL`]: inputs, some tautological, then
/// chains built to resolve, each damaged in one way or left whole: two
/// neighbours swapped, an antecedent dropped or an extra one added, or
/// the clause weakened. The recorded clause is never a tautology, as in
/// every proof the engine writes.
fn random_proof(seed: u64) -> Proof {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = Proof::new();
    for _ in 0..rng.gen_range(3..8) {
        let mut clause: Vec<Lit> = (0..rng.gen_range(1..4))
            .map(|_| pool_lit(&mut rng))
            .collect();
        if rng.gen_bool(0.05) {
            clause.push(!clause[0]);
        }
        p.add_original(clause);
    }
    for _ in 0..rng.gen_range(2..8) {
        let n = p.len() as u32;
        let mut chain = vec![ClauseId::new(rng.gen_range(0..n))];
        let mut resolvent: BTreeSet<Lit> = p.clause(chain[0]).iter().copied().collect();
        for _ in 0..rng.gen_range(1..4) {
            let clashes = |a: &ClauseId| {
                let c = p.clause(*a);
                c.iter().filter(|&&l| resolvent.contains(&!l)).count() == 1
            };
            let fits: Vec<ClauseId> = (0..n).map(ClauseId::new).filter(clashes).collect();
            let Some(&a) = fits.choose(&mut rng) else {
                break;
            };
            let c = p.clause(a);
            let pivot = *c.iter().find(|&&l| resolvent.contains(&!l)).expect("fits");
            resolvent.remove(&!pivot);
            resolvent.extend(c.iter().copied().filter(|&l| l != pivot));
            chain.push(a);
        }
        match rng.gen_range(0..6) {
            0 if chain.len() > 1 => {
                let i = rng.gen_range(0..chain.len() - 1);
                chain.swap(i, i + 1);
            }
            1 if chain.len() > 1 => {
                chain.remove(rng.gen_range(0..chain.len()));
            }
            2 => chain.push(ClauseId::new(rng.gen_range(0..n))),
            3 => {
                let l = pool_lit(&mut rng);
                if !resolvent.contains(&!l) {
                    resolvent.insert(l);
                }
            }
            _ => {}
        }
        if !is_tautology(&resolvent) {
            p.add_derived(resolvent, chain);
        }
    }
    p
}

/// Chain resolution over literal sets, the naive way: the resolvent
/// of derived step `id`, or why its chain does not resolve.
fn reference_resolvent(p: &Proof, id: ClauseId) -> Result<BTreeSet<Lit>, CheckError> {
    let mut resolvent = BTreeSet::new();
    for (position, &a) in p.step(id).antecedents.iter().enumerate() {
        let clause: BTreeSet<Lit> = p.clause(a).iter().copied().collect();
        if is_tautology(&clause) {
            return Err(CheckError::TautologicalAntecedent(a));
        }
        if position == 0 {
            resolvent = clause;
            continue;
        }
        let clashes: Vec<Lit> = clause
            .iter()
            .copied()
            .filter(|&l| resolvent.contains(&!l))
            .collect();
        let pivot = match clashes[..] {
            [pivot] => pivot,
            [] => return Err(CheckError::NoPivot { step: id, position }),
            _ => return Err(CheckError::MultiplePivots { step: id, position }),
        };
        resolvent.remove(&!pivot);
        resolvent.extend(clause.into_iter().filter(|&l| l != pivot));
    }
    Ok(resolvent)
}

/// The naive strict check: every derived step's reference resolvent is
/// part of its recorded clause.
fn reference_check(p: &Proof) -> Result<(), CheckError> {
    for (id, step) in p.iter().filter(|(_, step)| !step.is_original()) {
        let resolvent = reference_resolvent(p, id)?;
        if let Some(&missing) = resolvent
            .iter()
            .find(|l| step.clause.binary_search(l).is_err())
        {
            return Err(CheckError::ResolventNotSubsumed { step: id, missing });
        }
    }
    Ok(())
}

/// `check_strict` reaches the reference's verdict: the same error at
/// the same step and chain position. Where the resolvent is not part of
/// the recorded clause, the literal it names is one the reference's
/// resolvent has and the recorded clause lacks. And the full proof lint
/// reports an error exactly when `check_strict` rejects.
fn checker_and_lints_agree(p: &Proof) -> Result<(), TestCaseError> {
    let verdict = proof::check::check_strict(p);
    match (&verdict, reference_check(p)) {
        (
            Err(CheckError::ResolventNotSubsumed { step, missing }),
            Err(CheckError::ResolventNotSubsumed { step: expected, .. }),
        ) => {
            prop_assert_eq!(step, &expected);
            let resolvent = reference_resolvent(p, *step).expect("chain resolves");
            prop_assert!(resolvent.contains(missing));
            prop_assert!(!p.clause(*step).contains(missing));
        }
        (verdict, expected) => prop_assert_eq!(verdict, &expected),
    }
    let report = lint::lint_proof(p, &lint::LintOptions::default());
    prop_assert_eq!(
        report.is_clean(),
        verdict.is_ok(),
        "{:?} against {:?}",
        verdict,
        report.diagnostics()
    );
    Ok(())
}

#[test]
fn checker_and_lints_agree_on_pinned_proofs() {
    for text in [
        // (z)(x)(x ∨ ¬x ∨ ¬z) is satisfiable: a tautology second in a
        // chain once left one polarity behind, and `check_strict`
        // accepted this refutation.
        "1 2 0 0\n2 1 0 0\n3 1 -1 -2 0 0\n4 -1 0 1 3 0\n5 0 2 4 0\n",
        // A tautology first in a chain: the lints once passed it.
        "1 1 -1 2 0 0\n2 -1 3 0 0\n3 -1 2 3 0 1 2 0\n",
        "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n",
    ] {
        let p = proof::import::read_tracecheck(text.as_bytes()).unwrap();
        checker_and_lints_agree(&p).unwrap_or_else(|e| panic!("{text:?}: {e:?}"));
    }
    // (x_2^31 ∨ x_1)(¬x_1) ⊢ () leaves x_2^31 behind. TraceCheck cannot
    // write that literal (2^31 leaves `i32`), so the proof is built in
    // process; the lints once panicked rendering it.
    let top = Var::new(i32::MAX as u32).positive();
    let x = Var::new(0).positive();
    let mut p = Proof::new();
    let a = p.add_original([top, x]);
    let b = p.add_original([!x]);
    p.add_derived([], [a, b]);
    checker_and_lints_agree(&p).unwrap();
    let report = lint::lint_proof(&p, &lint::LintOptions::default());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.severity == lint::Severity::Error && d.message.contains("2147483648")),
        "{:?}",
        report.diagnostics()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `check_strict` agrees with the naive reference, and the full
    /// proof lint with `check_strict`, on random small proofs (see
    /// `random_proof`).
    #[test]
    fn checker_and_lints_agree_on_random_proofs(seed in any::<u64>()) {
        checker_and_lints_agree(&random_proof(seed))?;
    }
}
