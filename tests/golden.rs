//! Golden engine fingerprints: proofs, counterexamples and run counters
//! of a fixed set of checks, pinned byte for byte.
//!
//! Every check runs with pair conflict limit ∈ {none, 4}, and
//! contributes one line: the FNV-1a fingerprint of the TraceCheck proof
//! (or of the counterexample bits), then every deterministic counter of
//! the run. A `reduce` line adds the fingerprint of a reduced AIGER
//! graph. Times are left out; nothing
//! else is. A refactor of the engine must leave `golden_expected.txt`
//! unchanged. On a mismatch the test prints the lines it computed.
//!
//! The same runs, each reporting into a fresh live metrics registry,
//! pin the contract between the two counter outputs: every engine
//! counter of the final `metrics-v1` snapshot equals its `stats-v1`
//! source, and turning metrics on changes no golden line.
//!
//! The monolithic baseline has its own lines in
//! `golden_monolithic.txt`: each pair under three settings, pinning the
//! proof or counterexample fingerprint, the empty clause, the
//! interpolation partition, the trimmed proof, the lint counts, the
//! solver counters and the miter size.
//!
//! `golden_solver.txt` pins the SAT solver alone on two pigeonhole
//! refutations, one solved in budgeted calls whose search crosses
//! clause-database reductions and compactions: every solver counter
//! and the proof.

use obs::json::Value;
use obs::metrics::Metrics;
use obs::Recorder;
use resolution_cec::aig::{self, gen, Aig};
use resolution_cec::cec::{CecOutcome, EngineConfig, EngineStats, Session, SharedContext};
use resolution_cec::cnf::tseitin::Partition;
use resolution_cec::cnf::{Lit, Var};
use resolution_cec::proof;
use resolution_cec::sat::{SolveResult, Solver, SolverConfig, SolverStats};
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("golden_expected.txt");
const EXPECTED_MONOLITHIC: &str = include_str!("golden_monolithic.txt");
const EXPECTED_SOLVER: &str = include_str!("golden_solver.txt");

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

/// Every configuration of the grid, labelled. Labels keep the words
/// `static`, `t1` and `share=off` from when a second discharge schedule,
/// the round engine's thread counts and learnt sharing between its
/// workers shared the grid, so the lines stay comparable with the files
/// of that time.
fn configs() -> Vec<(String, EngineConfig)> {
    [None, Some(4)]
        .into_iter()
        .map(|limit| {
            let label = format!(
                "static t1 share=off limit={}",
                limit.map_or_else(|| "none".to_string(), |l: u64| l.to_string())
            );
            let config = EngineConfig {
                pair_conflict_limit: limit,
                ..EngineConfig::default()
            };
            (label, config)
        })
        .collect()
}

fn fnv(bytes: &[u8]) -> String {
    obs::hash::fnv1a64_hex(bytes)
}

/// Every deterministic counter of a run, in a fixed order.
fn counters(s: &EngineStats) -> String {
    format!(
        "sat={}/{}/{} ref={} struct={} skip={} lemmas={} solver={}/{} hist={}/{}",
        s.sat_calls,
        s.sat_unsat,
        s.sat_cex,
        s.refinements,
        s.structural_merges,
        s.pairs_skipped,
        s.lemmas,
        s.solver.conflicts,
        s.solver.propagations,
        s.sat_conflict_hist.count(),
        s.lemma_chain_hist.count(),
    )
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

/// Runs every check of the grid and the reduction, each on a fresh
/// context from `ctx`, and returns their golden lines. `inspect` sees
/// each run's line, stats and context, and the verdict counter a check
/// ticks (`None` for a reduction).
fn run_golden(
    ctx: impl Fn() -> SharedContext,
    mut inspect: impl FnMut(&str, &EngineStats, Option<&str>, &SharedContext),
) -> String {
    let mut out = String::new();
    for (name, a, b) in pairs() {
        for (label, config) in configs() {
            let ctx = ctx();
            let outcome = Session::new(config, &ctx)
                .check(&a, &b)
                .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
            let line = check_line(&name, &label, &outcome);
            let verdict = if outcome.is_equivalent() {
                "cec.certificates_emitted"
            } else {
                "cec.counterexamples"
            };
            inspect(&line, outcome.stats(), Some(verdict), &ctx);
            writeln!(out, "{line}").unwrap();
        }
    }
    let ctx = ctx();
    let (reduced, stats) = Session::new(EngineConfig::default(), &ctx).reduce(&redundant_graph());
    let mut bytes = Vec::new();
    aig::aiger::write_ascii(&reduced, &mut bytes).unwrap();
    let line = format!(
        "reduce t1: aig={} ands={} {}",
        fnv(&bytes),
        reduced.num_ands(),
        counters(&stats)
    );
    inspect(&line, &stats, None, &ctx);
    writeln!(out, "{line}").unwrap();
    out
}

/// Asserts the computed lines equal the expected file's.
fn assert_golden_against(expected: &str, actual: &str) {
    // Shown by the harness only when the test fails.
    print!("{actual}");
    let expected: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = actual.lines().collect();
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(e, g, "golden line {} differs", i + 1);
    }
    assert_eq!(expected.len(), got.len(), "golden line count differs");
}

/// Asserts the computed lines equal `golden_expected.txt`.
fn assert_golden(actual: &str) {
    assert_golden_against(EXPECTED, actual);
}

#[test]
fn engine_fingerprints_match_golden() {
    assert_golden(&run_golden(SharedContext::disabled, |_, _, _, _| {}));
}

/// The monolithic baseline's settings: `(label, proof, lint, verify)`,
/// where `lint` runs `rplint`'s proof pass over the recorded proof.
const MONOLITHIC_SETTINGS: [(&str, bool, bool, bool); 3] = [
    ("default", true, false, false),
    ("verify+lint", true, true, true),
    ("proof=off", false, false, false),
];

/// A monolithic check's line: the verdict fingerprint, the empty
/// clause, the partition size and A-side count, the trimmed proof's
/// original/derived/resolution counts, the lint counts, the solver's
/// conflicts/propagations/decisions and the miter node count.
fn monolithic_line(
    name: &str,
    label: &str,
    outcome: &CecOutcome,
    lints: Option<lint::LintCounts>,
) -> String {
    let show = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    let s = outcome.stats();
    let (verdict, empty, partition) = match outcome {
        CecOutcome::Equivalent(cert) => {
            let verdict = cert.proof.as_ref().map_or("proof=none".to_string(), |p| {
                let mut bytes = Vec::new();
                proof::export::write_tracecheck(p, &mut bytes).unwrap();
                format!("proof={}", fnv(&bytes))
            });
            let partition = cert.partition.as_ref().map(|sides| {
                let a_side = sides.iter().filter(|(_, s)| *s == Partition::A).count();
                format!("{}/{a_side}", sides.len())
            });
            (
                verdict,
                cert.empty_clause.map(|id| id.index().to_string()),
                partition,
            )
        }
        CecOutcome::Inequivalent { counterexample, .. } => {
            let bits: String = counterexample
                .pattern
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            (format!("cex={}", fnv(bits.as_bytes())), None, None)
        }
    };
    let trimmed = s
        .trimmed
        .map(|t| format!("{}/{}/{}", t.original, t.derived, t.resolutions));
    let lints = lints.map(|l| format!("{}/{}/{}", l.errors, l.warnings, l.infos));
    format!(
        "{name} {label}: {verdict} empty={} partition={} trimmed={} lints={} solver={}/{}/{} nodes={}",
        show(empty),
        show(partition),
        show(trimmed),
        show(lints),
        s.solver.conflicts,
        s.solver.propagations,
        s.solver.decisions,
        s.miter_nodes,
    )
}

#[test]
fn monolithic_fingerprints_match_golden() {
    let mut out = String::new();
    for (name, a, b) in pairs() {
        for (label, proof, lint, verify) in MONOLITHIC_SETTINGS {
            let config = EngineConfig {
                proof,
                verify,
                ..EngineConfig::default()
            };
            let outcome = Session::new(config, &SharedContext::disabled())
                .check_monolithic(&a, &b)
                .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
            let opts = lint::LintOptions {
                expect_refutation: true,
                ..lint::LintOptions::default()
            };
            let lints = outcome
                .certificate()
                .and_then(|cert| cert.proof.as_ref())
                .filter(|_| lint)
                .map(|p| lint::lint_proof(p, &opts).counts());
            writeln!(out, "{}", monolithic_line(&name, label, &outcome, lints)).unwrap();
        }
    }
    assert_golden_against(EXPECTED_MONOLITHIC, &out);
}

/// The counters a run's final snapshot must hold, sorted by name: each
/// engine counter with its stats source, and a check's three lifecycle
/// counters.
fn mirrored(stats: &EngineStats, verdict: Option<&str>) -> Vec<(String, u64)> {
    let mut want: Vec<(String, u64)> = [
        ("cec.sat_calls", stats.sat_calls),
        ("cec.conflicts", stats.sat_conflict_hist.sum()),
        ("cec.lemmas", stats.lemmas),
        ("cec.structural_merges", stats.structural_merges),
        ("cec.refinements", stats.refinements),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    if let Some(verdict) = verdict {
        for name in ["cec.checks_started", "cec.checks_completed", verdict] {
            want.push((name.to_string(), 1));
        }
    }
    want.sort();
    want
}

#[test]
fn live_counters_mirror_the_run_stats() {
    let mut runs = 0;
    let actual = run_golden(
        || SharedContext::new(Recorder::disabled(), Metrics::new()),
        |line, stats, verdict, ctx| {
            let snapshot = ctx.metrics.snapshot(0).expect("metrics enabled");
            let got: Vec<(String, u64)> = snapshot
                .get("counters")
                .and_then(Value::as_object)
                .expect("snapshot has counters")
                .iter()
                .map(|(name, v)| (name.clone(), v.as_u64().expect("counter is a u64")))
                .collect();
            assert_eq!(got, mirrored(stats, verdict), "{line}");
            runs += 1;
        },
    );
    assert_eq!(runs, 15);
    // Turning metrics on changes no proof, counterexample or counter.
    assert_golden(&actual);
}

/// Adds the pigeonhole formula PHP(`pigeons`, `holes`): every pigeon
/// sits in a hole, and no hole holds two pigeons.
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &vars {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for (p1, row1) in vars.iter().enumerate() {
            for row2 in &vars[p1 + 1..] {
                s.add_clause(&[row1[h].negative(), row2[h].negative()]);
            }
        }
    }
}

/// Refutes PHP(`pigeons`, `holes`) under `config` in `solve` calls of at
/// most `budget` conflicts each, and returns the instance's golden line:
/// the verdict, every solver counter and the FNV-1a fingerprint of the
/// TraceCheck proof.
fn solver_line(
    label: &str,
    (pigeons, holes): (usize, usize),
    config: SolverConfig,
    budget: Option<u64>,
) -> String {
    let mut s = Solver::with_config(config);
    pigeonhole(&mut s, pigeons, holes);
    s.set_conflict_budget(budget);
    let verdict = loop {
        let verdict = s.solve();
        if verdict != SolveResult::Unknown {
            break verdict;
        }
    };
    let SolverStats {
        conflicts,
        decisions,
        propagations,
        restarts,
        learnt,
        deleted,
        solves,
    } = *s.stats();
    let mut bytes = Vec::new();
    proof::export::write_tracecheck(s.proof().expect("proof on"), &mut bytes).unwrap();
    format!(
        "{label}: {verdict:?} conflicts={conflicts} decisions={decisions} \
         propagations={propagations} restarts={restarts} learnt={learnt} deleted={deleted} \
         solves={solves} proof={}",
        fnv(&bytes)
    )
}

#[test]
fn solver_learnt_export_matches_golden() {
    let reduce_often = SolverConfig {
        proof_logging: true,
        learnt_size_factor: 0.001,
        ..SolverConfig::default()
    };
    let default = SolverConfig {
        proof_logging: true,
        ..SolverConfig::default()
    };
    let mut out = String::new();
    for (label, php, config, budget) in [
        (
            "php(7,6) learnt_size_factor=0.001 budget=150",
            (7, 6),
            reduce_often,
            Some(150),
        ),
        ("php(8,7) default", (8, 7), default, None),
    ] {
        writeln!(out, "{}", solver_line(label, php, config, budget)).unwrap();
    }
    assert_golden_against(EXPECTED_SOLVER, &out);
}
