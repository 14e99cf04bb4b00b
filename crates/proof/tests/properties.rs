//! Property-based tests for the proof store and checkers, using random
//! *valid* chain constructions and random corruptions.

use cnf::{Lit, Var};
use proof::rup::Propagator;
use proof::{check, trim, ClauseId, Proof};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a random valid resolution proof by repeatedly resolving two
/// earlier clauses that clash on exactly one variable.
fn random_valid_proof(num_vars: u32, originals: usize, derivations: usize, seed: u64) -> Proof {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut p = Proof::new();
    let mut clauses: Vec<(ClauseId, Vec<Lit>)> = Vec::new();
    for _ in 0..originals {
        let len = rng.gen_range(1..4usize);
        let mut lits: Vec<Lit> = (0..len)
            .map(|_| Var::new(rng.gen_range(0..num_vars)).lit(rng.gen()))
            .collect();
        lits.sort_unstable();
        lits.dedup();
        // Avoid tautologies so everything stays resolvable.
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            continue;
        }
        let id = p.add_original(lits.iter().copied());
        clauses.push((id, lits));
    }
    for _ in 0..derivations {
        if clauses.is_empty() {
            break;
        }
        // Pick a pair with a unique clash.
        for _attempt in 0..30 {
            let (ia, ca) = &clauses[rng.gen_range(0..clauses.len())];
            let (ib, cb) = &clauses[rng.gen_range(0..clauses.len())];
            let clashes: Vec<Lit> = ca.iter().copied().filter(|l| cb.contains(&!*l)).collect();
            if clashes.len() != 1 {
                continue;
            }
            let pivot = clashes[0];
            let mut resolvent: Vec<Lit> = ca
                .iter()
                .chain(cb.iter())
                .copied()
                .filter(|&l| l != pivot && l != !pivot)
                .collect();
            resolvent.sort_unstable();
            resolvent.dedup();
            if resolvent.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue; // tautological resolvent, skip
            }
            let id = p.add_derived(resolvent.iter().copied(), [*ia, *ib]);
            clauses.push((id, resolvent));
            break;
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every randomly built valid proof passes both checkers.
    #[test]
    fn valid_proofs_pass_both_checkers(
        num_vars in 2u32..8,
        originals in 2usize..12,
        derivations in 0usize..20,
        seed in any::<u64>(),
    ) {
        let p = random_valid_proof(num_vars, originals, derivations, seed);
        prop_assert_eq!(check::check_strict(&p), Ok(()));
        prop_assert_eq!(check::check_rup(&p), Ok(()));
    }

    /// Corrupting a derived clause by adding a fresh literal still
    /// passes (weakening), but *removing* a resolvent literal fails the
    /// strict checker.
    #[test]
    fn strict_checker_rejects_strengthening(
        num_vars in 3u32..8,
        seed in any::<u64>(),
    ) {
        // (x ∨ y) and (¬x ∨ z) resolve to (y ∨ z); claim (y) instead.
        let _ = seed;
        let x = Var::new(0);
        let y = Var::new(1);
        let z = Var::new(num_vars - 1);
        prop_assume!(z.index() >= 2);
        let mut p = Proof::new();
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative(), z.positive()]);
        p.add_derived([y.positive()], [c1, c2]);
        prop_assert!(check::check_strict(&p).is_err());
        prop_assert!(check::check_rup(&p).is_err());
    }

    /// Trimming preserves checkability and never grows the proof, for
    /// any step chosen as the root.
    #[test]
    fn trim_any_root_preserves_validity(
        num_vars in 2u32..8,
        originals in 2usize..10,
        derivations in 1usize..15,
        seed in any::<u64>(),
        root_choice in any::<u64>(),
    ) {
        let p = random_valid_proof(num_vars, originals, derivations, seed);
        prop_assume!(!p.is_empty());
        let root = ClauseId::new((root_choice % p.len() as u64) as u32);
        let t = trim(&p, root);
        prop_assert!(t.proof.len() <= p.len());
        prop_assert_eq!(check::check_strict(&t.proof), Ok(()));
        // The root's clause is preserved verbatim.
        prop_assert_eq!(p.clause(root), t.proof.clause(t.root));
    }

    /// Strengthening corruption: removing any literal from any derived
    /// step's recorded clause must be rejected by the strict checker
    /// (the proofs record exact resolvents).
    #[test]
    fn checker_rejects_any_strengthening_corruption(
        num_vars in 2u32..8,
        originals in 2usize..12,
        derivations in 1usize..20,
        seed in any::<u64>(),
        victim_choice in any::<u64>(),
        literal_choice in any::<u64>(),
    ) {
        let p = random_valid_proof(num_vars, originals, derivations, seed);
        // Pick a derived, non-empty step to corrupt.
        let victims: Vec<ClauseId> = p
            .iter()
            .filter(|(_, s)| !s.is_original() && !s.clause.is_empty())
            .map(|(id, _)| id)
            .collect();
        prop_assume!(!victims.is_empty());
        let victim = victims[(victim_choice % victims.len() as u64) as usize];
        let drop_idx = (literal_choice % p.clause(victim).len() as u64) as usize;

        // Rebuild the proof with one literal removed from the victim.
        let mut corrupted = Proof::new();
        for (id, step) in p.iter() {
            let lits: Vec<Lit> = if id == victim {
                step.clause
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop_idx)
                    .map(|(_, &l)| l)
                    .collect()
            } else {
                step.clause.to_vec()
            };
            if step.is_original() {
                corrupted.add_original(lits);
            } else {
                corrupted.add_derived(lits, step.antecedents.iter().copied());
            }
        }
        prop_assert!(
            check::check_strict(&corrupted).is_err(),
            "strict checker accepted a strengthened step"
        );
    }

    /// TraceCheck export is parseable line-per-step with 1-based ids.
    #[test]
    fn tracecheck_export_shape(
        num_vars in 2u32..6,
        originals in 1usize..8,
        derivations in 0usize..10,
        seed in any::<u64>(),
    ) {
        let p = random_valid_proof(num_vars, originals, derivations, seed);
        let mut buf = Vec::new();
        proof::export::write_tracecheck(&p, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(text.lines().count(), p.len());
        for (i, line) in text.lines().enumerate() {
            let first: u64 = line.split_whitespace().next().unwrap().parse().unwrap();
            prop_assert_eq!(first, i as u64 + 1);
            prop_assert!(line.trim_end().ends_with('0'));
        }
    }
}

/// One call on a [`Propagator`].
#[derive(Debug)]
enum Op {
    Add(Vec<Lit>),
    /// Deactivates the n-th clause added.
    Deactivate(usize),
    Implies(Vec<Lit>),
}

/// A random sequence of `len` calls over `num_vars` variables. Clauses
/// are sorted and duplicate-free, tautologies included; added clauses
/// have one to four literals, queries none to three. Deactivations
/// appear only if `deactivate` is set.
fn random_ops(num_vars: u32, len: usize, deactivate: bool, seed: u64) -> Vec<Op> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut added = 0;
    (0..len)
        .map(|_| {
            let roll = rng.gen_range(0..20u32);
            let width = if roll < 10 {
                rng.gen_range(1..5usize)
            } else {
                rng.gen_range(0..4usize)
            };
            let mut clause: Vec<Lit> = (0..width)
                .map(|_| Var::new(rng.gen_range(0..num_vars)).lit(rng.gen()))
                .collect();
            clause.sort_unstable();
            clause.dedup();
            match roll {
                0..=9 => {
                    added += 1;
                    Op::Add(clause)
                }
                10..=12 if deactivate && added > 0 => Op::Deactivate(rng.gen_range(0..added)),
                _ => Op::Implies(clause),
            }
        })
        .collect()
}

/// The RUP question answered naively: assume every literal of `query`
/// false, then sweep all `clauses` for a false or unit clause until a
/// sweep changes nothing.
fn reference_implies(clauses: &[&[Lit]], query: &[Lit]) -> bool {
    // The sessions name at most 8 variables.
    let mut value: Vec<Option<bool>> = vec![None; 8];
    let lit_value =
        |value: &[Option<bool>], l: Lit| value[l.var().as_usize()].map(|v| v != l.is_negative());
    for &l in query {
        match lit_value(&value, l) {
            Some(true) => return true,
            Some(false) => {}
            None => value[l.var().as_usize()] = Some(l.is_negative()),
        }
    }
    loop {
        let mut changed = false;
        for clause in clauses {
            let mut open = clause
                .iter()
                .filter(|&&l| lit_value(&value, l) != Some(false));
            match (open.next(), open.next()) {
                (None, _) => return true,
                (Some(&l), None) if lit_value(&value, l).is_none() => {
                    value[l.var().as_usize()] = Some(!l.is_negative());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

/// Runs `ops` on a [`Propagator`]. For each query, returns the
/// propagator's answer, the reference's over the active clauses, and the
/// reference's over every clause ever added.
fn replay(ops: &[Op]) -> Vec<(bool, bool, bool)> {
    let mut rup = Propagator::default();
    let mut added: Vec<(&[Lit], usize, bool)> = Vec::new();
    let mut answers = Vec::new();
    for op in ops {
        match op {
            Op::Add(clause) => added.push((clause, rup.add(clause), true)),
            Op::Deactivate(n) => {
                rup.deactivate(added[*n].1);
                added[*n].2 = false;
            }
            Op::Implies(query) => {
                let all: Vec<&[Lit]> = added.iter().map(|c| c.0).collect();
                let active: Vec<&[Lit]> = added.iter().filter(|c| c.2).map(|c| c.0).collect();
                answers.push((
                    rup.implies(query),
                    reference_implies(&active, query),
                    reference_implies(&all, query),
                ));
            }
        }
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Without deactivations the propagator answers every query as the
    /// naive reference does.
    #[test]
    fn propagator_matches_naive_rup(
        num_vars in 1u32..9,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let ops = random_ops(num_vars, len, false, seed);
        for (got, reference, _) in replay(&ops) {
            prop_assert_eq!(got, reference, "on {:?}", ops);
        }
    }

    /// With deactivations the propagator's base may be stale-strong: it
    /// accepts every clause the reference accepts over the active
    /// clauses, and nothing the reference rejects over all clauses ever
    /// added.
    #[test]
    fn deactivation_leaves_the_propagator_stale_strong(
        num_vars in 1u32..9,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let ops = random_ops(num_vars, len, true, seed);
        for (got, active, all) in replay(&ops) {
            prop_assert!(!active || got, "rejected a clause the active set implies, on {:?}", ops);
            prop_assert!(!got || all, "accepted a clause the clauses ever added do not imply, on {:?}", ops);
        }
    }
}
