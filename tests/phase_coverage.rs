//! Phase accounting adds up: the disjoint phases of a check cover at
//! least 95 % of its `elapsed` time.
//!
//! `EngineStats::phases` times the miter, simulation, sweep, final
//! solve, trim and replay check; `elapsed` is the whole check.
//! What falls between the phases is assembling the outcome (and, in a
//! journaled run, the verdict's proof fingerprint), which should stay
//! small against the rest. Each cell takes the best of three checks, so
//! one preempted run does not decide it. The cells are long enough for
//! the clock: tens of milliseconds each in a debug build.

use resolution_cec::aig::gen;
use resolution_cec::cec::{EngineConfig, Session, SharedContext};

/// The share of `elapsed` the phases must cover.
const MIN_COVERAGE: f64 = 0.95;

/// The best `phases.sum() / elapsed` of three checks of a family pair.
fn best_coverage(family: &str, width: usize) -> f64 {
    let (a, b) = gen::family_pair(family, width).expect("known family");
    let ctx = SharedContext::disabled();
    (0..3)
        .map(|_| {
            let outcome = Session::new(EngineConfig::default(), &ctx)
                .check(&a, &b)
                .expect("check runs");
            assert!(outcome.is_equivalent(), "{family}-{width}: verdict");
            let stats = outcome.stats();
            stats.phases.sum().as_secs_f64() / stats.elapsed.as_secs_f64()
        })
        .fold(0.0, f64::max)
}

#[test]
fn phases_cover_the_check() {
    for (family, width) in [("mul", 4), ("popcount", 10), ("adder", 32)] {
        let coverage = best_coverage(family, width);
        assert!(
            coverage >= MIN_COVERAGE,
            "{family}-{width}: phases cover {coverage:.3} of elapsed, below {MIN_COVERAGE}"
        );
    }
}
