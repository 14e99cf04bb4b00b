//! Durability workload tiers. The quick variant runs in the normal
//! suite (and CI); the `#[ignore]`d ones are laptop-minutes scale and
//! run with `cargo test --release -p chaos -- --ignored`.

use chaos::{run_workload, WorkloadOptions};
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chaos-stress-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    fs::create_dir_all(&p).unwrap();
    p
}

#[test]
fn quick_workload_with_crashes_is_clean() {
    let dir = tmp("quick");
    let report = run_workload(
        &dir,
        &WorkloadOptions {
            seed: 11,
            ops: 3,
            crash_every: 2,
            keep: false,
        },
    );
    assert!(report.is_clean(), "{:?}", report.failures);
    assert!(report.crashes >= 1, "no crash was injected");
    assert_eq!(report.ops, 3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "laptop-minutes: long randomized op stream with crash injection"]
fn deep_workload_survives_a_long_op_stream() {
    let dir = tmp("deep");
    let report = run_workload(
        &dir,
        &WorkloadOptions {
            seed: 1,
            ops: 40,
            crash_every: 3,
            keep: false,
        },
    );
    assert!(report.is_clean(), "{:?}", report.failures);
    assert!(report.crashes >= 5, "only {} crashes fired", report.crashes);
    assert!(report.equivalent >= 40, "every op proves a baseline pair");
    assert!(report.inequivalent > 0, "some mutants must differ");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "laptop-minutes: independent seeds reproduce independent streams"]
fn deep_workload_is_deterministic_per_seed() {
    let a_dir = tmp("det-a");
    let b_dir = tmp("det-b");
    let options = WorkloadOptions {
        seed: 99,
        ops: 15,
        crash_every: 4,
        keep: false,
    };
    let first = run_workload(&a_dir, &options);
    let second = run_workload(&b_dir, &options);
    assert!(first.is_clean(), "{:?}", first.failures);
    assert_eq!(first.ops, second.ops);
    assert_eq!(first.equivalent, second.equivalent);
    assert_eq!(first.inequivalent, second.inequivalent);
    assert_eq!(first.crashes, second.crashes);
    fs::remove_dir_all(&a_dir).unwrap();
    fs::remove_dir_all(&b_dir).unwrap();
}
