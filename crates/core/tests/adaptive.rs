//! The adaptive engine's contract: for every generator-zoo pair it must
//! reach the *same verdict* as the static engine with a *certified*
//! proof (lint-clean and replay-checked), deterministically across runs
//! and thread counts, while actually exercising its machinery (budgeted
//! dispatch, deferral, auto-tuned windows).

use aig::gen;
use aig::Aig;
use cec::{CecOutcome, EngineConfig, EngineSelect, Session, SharedContext};

fn prove(a: &Aig, b: &Aig, options: EngineConfig) -> CecOutcome {
    Session::new(options, &SharedContext::disabled())
        .check(a, b)
        .expect("prove runs")
}

fn adaptive() -> EngineConfig {
    EngineConfig {
        engine: EngineSelect::Adaptive,
        ..EngineConfig::default()
    }
}

/// Equivalent pairs across the circuit families the zoo covers.
fn zoo() -> Vec<(&'static str, Aig, Aig)> {
    vec![
        (
            "rca-ks-6",
            gen::ripple_carry_adder(6),
            gen::kogge_stone_adder(6),
        ),
        (
            "rca-bk-8",
            gen::ripple_carry_adder(8),
            gen::brent_kung_adder(8),
        ),
        (
            "csel-cskip-6",
            gen::carry_select_adder(6, 2),
            gen::carry_skip_adder(6, 3),
        ),
        (
            "mul-3",
            gen::array_multiplier(3),
            gen::carry_save_multiplier(3),
        ),
        ("parity-12", gen::parity_chain(12), gen::parity_tree(12)),
        ("popcount-8", gen::popcount_serial(8), gen::popcount_csa(8)),
        (
            "cmp-6",
            gen::comparator_ripple(6),
            gen::comparator_subtract(6),
        ),
        (
            "penc-8",
            gen::priority_encoder_chain(8),
            gen::priority_encoder_onehot(8),
        ),
        ("dec-4", gen::decoder_flat(4), gen::decoder_split(4)),
    ]
}

fn certify(name: &str, outcome: &CecOutcome) {
    let cert = outcome
        .certificate()
        .unwrap_or_else(|| panic!("{name}: expected equivalent"));
    let p = cert
        .proof
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: proof recorded"));
    proof::check::check_refutation(p).unwrap_or_else(|e| panic!("{name}: proof checks: {e}"));
    let report = lint::lint_proof(p, &lint::LintOptions::default());
    assert!(
        report.counts().errors == 0,
        "{name}: proof lint clean, got {}",
        report.counts()
    );
}

#[test]
fn adaptive_matches_static_across_zoo() {
    for (name, a, b) in zoo() {
        let s = prove(&a, &b, EngineConfig::default());
        let d = prove(&a, &b, adaptive());
        assert_eq!(
            s.is_equivalent(),
            d.is_equivalent(),
            "{name}: verdicts agree"
        );
        certify(name, &s);
        certify(name, &d);
        let ds = d.stats().dispatch.expect("adaptive run reports dispatch");
        assert!(
            ds.sat_budgeted + ds.sat_unbudgeted + ds.bdd_refuted > 0 || d.stats().sat_calls == 0,
            "{name}: dispatch covers every discharged pair"
        );
    }
}

#[test]
fn adaptive_detects_mutants() {
    let a = gen::ripple_carry_adder(5);
    let b = (0..40)
        .filter_map(|s| gen::mutate(&a, s))
        .find(|m| aig::sim::exhaustive_diff(&a, m, 10).is_some())
        .expect("differing mutant");
    let outcome = prove(&a, &b, adaptive());
    let cex = outcome.counterexample().expect("inequivalent");
    assert_eq!(a.evaluate(&cex.pattern), cex.outputs_a);
    assert_eq!(b.evaluate(&cex.pattern), cex.outputs_b);
    assert_ne!(cex.outputs_a, cex.outputs_b);
}

fn tracecheck_bytes(p: &proof::Proof) -> Vec<u8> {
    let mut buf = Vec::new();
    proof::export::write_tracecheck(p, &mut buf).unwrap();
    buf
}

#[test]
fn adaptive_runs_are_byte_deterministic() {
    let a = gen::array_multiplier(3);
    let b = gen::carry_save_multiplier(3);
    let run = || {
        let outcome = prove(&a, &b, adaptive());
        let cert = outcome.certificate().expect("equivalent");
        let stats = cert.stats.to_json().to_string();
        // Elapsed times vary run to run; strip them before comparing.
        let stats = strip_timing(&stats);
        (tracecheck_bytes(cert.proof.as_ref().unwrap()), stats)
    };
    let (p1, s1) = run();
    let (p2, s2) = run();
    assert_eq!(p1, p2, "proof bytes identical across runs");
    assert_eq!(s1, s2, "dispatch/counter stats identical across runs");
}

#[test]
fn adaptive_parallel_is_deterministic_per_thread_count() {
    let a = gen::ripple_carry_adder(8);
    let b = gen::kogge_stone_adder(8);
    for threads in [2, 3] {
        let opts = EngineConfig {
            threads,
            ..adaptive()
        };
        let run = || {
            let outcome = prove(&a, &b, opts.clone());
            let cert = outcome.certificate().expect("equivalent");
            proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
            (
                tracecheck_bytes(cert.proof.as_ref().unwrap()),
                cert.stats.pair_windows.clone(),
            )
        };
        let (p1, w1) = run();
        let (p2, w2) = run();
        assert_eq!(p1, p2, "threads={threads}: proof bytes identical");
        assert_eq!(w1, w2, "threads={threads}: window trajectory identical");
        assert!(!w1.is_empty(), "threads={threads}: windows recorded");
    }
}

#[test]
fn auto_tuned_window_stays_in_bounds() {
    let a = gen::array_multiplier(4);
    let b = gen::carry_save_multiplier(4);
    let opts = EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    };
    let outcome = prove(&a, &b, opts);
    let cert = outcome.certificate().expect("equivalent");
    let windows = &cert.stats.pair_windows;
    assert!(!windows.is_empty(), "auto-tune records per-round windows");
    assert!(windows.iter().all(|&w| (2..=64).contains(&w)));
    // A pinned window must be respected verbatim.
    let pinned = prove(
        &a,
        &b,
        EngineConfig {
            threads: 4,
            pairs_per_worker: Some(5),
            ..EngineConfig::default()
        },
    );
    let cert = pinned.certificate().expect("equivalent");
    assert!(cert.stats.pair_windows.iter().all(|&w| w == 5));
}

#[test]
fn hard_queue_recovers_deferred_pairs() {
    // A tight user limit forces deferrals; the retry pass (bounded by
    // the same limit) must leave the verdict and proof sound anyway.
    let a = gen::array_multiplier(3);
    let b = gen::carry_save_multiplier(3);
    let opts = EngineConfig {
        pair_conflict_limit: Some(2),
        ..adaptive()
    };
    let outcome = prove(&a, &b, opts);
    let cert = outcome.certificate().expect("equivalent");
    proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    let ds = cert.stats.dispatch.expect("adaptive dispatch stats");
    assert_eq!(ds.deferred, ds.retried, "every deferred pair is retried");
    // Unbudgeted adaptive defers only what its own budgets cut off, and
    // retries discharge those unbudgeted: nothing may be skipped.
    let free = prove(&a, &b, adaptive());
    assert_eq!(free.stats().pairs_skipped, 0);
    certify("mul-3-hardqueue", &free);
}

/// Removes `*_us` timing members from a stats JSON string so byte
/// comparisons only see deterministic counters.
fn strip_timing(s: &str) -> String {
    let v = obs::json::parse(s).expect("stats JSON parses");
    fn clean(v: &obs::json::Value) -> obs::json::Value {
        match v {
            obs::json::Value::Object(members) => obs::json::Value::Object(
                members
                    .iter()
                    .filter(|(k, _)| !k.ends_with("_us"))
                    .map(|(k, m)| (k.clone(), clean(m)))
                    .collect(),
            ),
            obs::json::Value::Array(items) => {
                obs::json::Value::Array(items.iter().map(clean).collect())
            }
            other => other.clone(),
        }
    }
    clean(&v).to_string()
}
