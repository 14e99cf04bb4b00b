//! Lints the proofs the engine emits for the whole circuit zoo —
//! sequentially and with four sweep workers — and asserts zero
//! error-severity findings, plus the acceptance benchmark: the
//! structural-only pass must beat full replay by at least 5×.
//!
//! Dead steps and duplicate derivations are *expected* in untrimmed
//! engine proofs (that is why `proof::trim` and `proof::compact`
//! exist), so the zoo asserts on errors, not warnings or infos.

use aig::gen;
use aig::Aig;
use cec::{CecOutcome, EngineConfig, Session, SharedContext};
use std::time::Instant;

/// Every equivalent pair in the benchmark family zoo, at small sizes
/// (mirrors `tests/end_to_end.rs`).
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

fn lint_zoo(threads: usize) {
    for (name, a, b) in equivalent_pairs() {
        let options = EngineConfig {
            threads,
            lint_proof: true,
            lint_bundle: true,
            ..EngineConfig::default()
        };
        let outcome = Session::new(options, &SharedContext::disabled())
            .check(&a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let CecOutcome::Equivalent(cert) = outcome else {
            panic!("{name}: zoo pair not proven equivalent");
        };
        let report = cert.lint_report.as_ref().expect("lint_proof ran");
        assert_eq!(
            report.counts().errors,
            0,
            "{name} (threads={threads}): {:?}",
            report.diagnostics()
        );
        assert_eq!(cert.stats.lints, Some(report.counts()));
        if threads > 1 {
            assert!(
                !cert.stats.stitch_boundaries.is_empty(),
                "{name}: parallel run must record stitch boundaries"
            );
        }
    }
}

#[test]
fn zoo_proofs_lint_clean_sequential() {
    lint_zoo(1);
}

#[test]
fn zoo_proofs_lint_clean_parallel() {
    lint_zoo(4);
}

/// Acceptance criterion: a structural-only lint pass over a 64-bit
/// adder proof must run at least 5× faster than the full `rcheck`
/// replay loop (strict chain replay + RUP cross-validation, which is
/// what `rcheck --refutation --rup` performs).
#[test]
fn structural_pass_beats_full_replay_on_64bit_adder() {
    let a = gen::ripple_carry_adder(64);
    let b = gen::kogge_stone_adder(64);
    let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check(&a, &b)
        .unwrap();
    let cert = outcome.certificate().expect("adders are equivalent");
    let p = cert.proof.as_ref().expect("proof recorded");

    // Warm both paths once so allocator and cache effects do not decide
    // the comparison, then time each as the best of 5: the lint pass
    // takes a few milliseconds, so one sample can be inflated several
    // times over by other tests sharing the CPUs.
    let opts = lint::LintOptions {
        expect_refutation: true,
        ..lint::LintOptions::structural()
    };
    let report = lint::lint_proof(p, &opts);
    assert_eq!(report.counts().errors, 0, "{:?}", report.diagnostics());
    proof::check::check_refutation(p).unwrap();

    let best_of_5 = |run: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed()
            })
            .min()
            .expect("five samples")
    };
    let lint_elapsed = best_of_5(&|| {
        let report = lint::lint_proof(p, &opts);
        assert_eq!(report.counts().errors, 0);
    });
    let replay_elapsed = best_of_5(&|| {
        proof::check::check_refutation(p).unwrap();
        proof::check::check_rup(p).unwrap();
    });

    assert!(
        lint_elapsed * 5 <= replay_elapsed,
        "structural lint pass must be at least 5x faster than full replay: \
         lint {lint_elapsed:?} vs replay {replay_elapsed:?} over {} steps",
        p.len()
    );
}
