//! Criterion bench for the parallel sweeping mode: end-to-end solve
//! time of the proof-producing engine on the 64-bit adder pair at
//! 1, 2, 4, and 8 worker threads. The 1-thread row is the classical
//! sequential sweep; higher rows shard each round's candidate pairs
//! over private incremental solvers and stitch the derivations back
//! into one proof.
//!
//! Interpreting the numbers requires knowing the host's core count
//! (printed below): with fewer hardware threads than workers the rows
//! degenerate to measuring total CPU work — the parallel rows then
//! show the sharding overhead (worker-side busy time per thread, which
//! is what a multi-core host runs concurrently, is reported by
//! `EngineStats::workers`).

use aig::gen::{kogge_stone_adder, ripple_carry_adder};
use cec::{EngineConfig, Session, SharedContext};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_t7(c: &mut Criterion) {
    eprintln!(
        "t7: host exposes {} hardware thread(s)",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    let a = ripple_carry_adder(64);
    let b = kogge_stone_adder(64);
    let mut group = c.benchmark_group("t7");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let options = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        group.bench_function(format!("add-rca/ks-64/threads-{threads}"), |bch| {
            bch.iter(|| {
                let outcome = Session::new(options.clone(), &SharedContext::disabled())
                    .check(&a, &b)
                    .expect("prove runs");
                assert!(outcome.is_equivalent());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_t7);
criterion_main!(benches);
