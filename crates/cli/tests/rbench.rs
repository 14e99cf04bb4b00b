//! End-to-end tests of `rbench` (and `rcec --metrics-out`): golden
//! trajectory pairs through the compare gate with exit-code and
//! report-text assertions, a real seconds-scale ramp emitting
//! `bench-v2` with embedded `metrics-v1` snapshots, and the sampler
//! JSONL path of the checker itself.

use obs::json::Value;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rbench-test-{}-{name}", std::process::id()));
    p
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches")
}

/// A minimal bench-v2 document with one run cell and one scenario
/// cell, parameterized on the two compared metrics.
fn golden(elapsed_us: u64, rps: f64) -> String {
    format!(
        r#"{{"schema": "bench-v2", "date": "2026-08-09", "workload": "golden",
 "host": {{"os": "linux", "machine": "x86_64", "cpus": 4}},
 "runs": [{{"pair": "adder-16", "engine": "static", "threads": 1,
            "stats": {{"schema": "stats-v1", "elapsed_us": {elapsed_us}}}}}],
 "scenarios": [{{"name": "adder8", "threads": 1, "max_sustainable_rps": {rps}}}]}}"#
    )
}

fn write_golden(name: &str, contents: &str) -> PathBuf {
    let p = tmp(name);
    fs::write(&p, contents).unwrap();
    p
}

#[test]
fn compare_improvement_passes_gate() {
    let old = write_golden("imp-old.json", &golden(10_000, 10.0));
    let new = write_golden("imp-new.json", &golden(5_000, 20.0));
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &[
            "compare",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold=0.25",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gate: PASS"), "{text}");
    assert!(text.contains("improved"), "{text}");
    assert!(text.contains("run adder-16/static/t1"), "{text}");
    assert!(text.contains("scenario adder8/t1"), "{text}");
    for p in [old, new] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn compare_regression_beyond_threshold_fails_gate() {
    let old = write_golden("reg-old.json", &golden(10_000, 20.0));
    // elapsed 2x worse, rate halved: both read -100%, beyond a 25%
    // threshold.
    let new = write_golden("reg-new.json", &golden(20_000, 10.0));
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &[
            "compare",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold=0.25",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gate: FAIL (2 regressed)"), "{text}");
    assert!(text.contains("REGRESSED"), "{text}");
    assert_eq!(text.matches("(-100.0%)").count(), 2, "{text}");

    // The same pair under a generous threshold passes: the gate is the
    // threshold, not the direction.
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &[
            "compare",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold=2.0",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for p in [old, new] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn compare_new_and_removed_scenarios_report_but_pass() {
    let old = write_golden(
        "nr-old.json",
        r#"{"runs": [], "scenarios": [{"name": "gone", "threads": 1, "max_sustainable_rps": 5.0}]}"#,
    );
    let new = write_golden(
        "nr-new.json",
        r#"{"runs": [], "scenarios": [{"name": "fresh", "threads": 1, "max_sustainable_rps": 5.0}]}"#,
    );
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &["compare", old.to_str().unwrap(), new.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("removed"), "{text}");
    assert!(text.contains("new"), "{text}");
    assert!(text.contains("gate: PASS"), "{text}");
    for p in [old, new] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn compare_malformed_input_exits_two() {
    let good = write_golden("mal-good.json", &golden(100, 1.0));
    let bad = write_golden("mal-bad.json", r#"{"schema": "bench-v2"}"#);
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &["compare", bad.to_str().unwrap(), good.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("runs"));
    for p in [good, bad] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn run_emits_bench_v2_with_embedded_metrics() {
    let workload = tmp("run-workload.toml");
    fs::write(
        &workload,
        "name = \"itest\"\n\
         [ramp]\n\
         initial_rps = 5.0\n\
         increment_rps = 5.0\n\
         max_rps = 10.0\n\
         step_ms = 200\n\
         max_failure_rate = 0.0\n\
         p95_latency_ms = 30000.0\n\
         [[scenario]]\n\
         family = \"adder\"\n\
         width = 4\n\
         threads = [1, 2]\n",
    )
    .unwrap();
    let out_path = tmp("run-bench.json");
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &[
            "run",
            workload.to_str().unwrap(),
            &format!("--out={}", out_path.display()),
            "--date=2026-08-09",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let doc = obs::json::parse(&fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("bench-v2"));
    assert_eq!(doc.get("workload").and_then(Value::as_str), Some("itest"));
    let cells = doc.get("scenarios").and_then(Value::as_array).unwrap();
    assert_eq!(cells.len(), 2, "one cell per thread count");
    for cell in cells {
        let steps = cell.get("steps").and_then(Value::as_array).unwrap();
        let snaps = cell.get("metrics").and_then(Value::as_array).unwrap();
        assert!(!steps.is_empty());
        assert_eq!(steps.len(), snaps.len(), "one snapshot per step");
        assert!(cell
            .get("max_sustainable_rps")
            .and_then(Value::as_f64)
            .is_some());
        for snap in snaps {
            assert_eq!(
                snap.get("schema").and_then(Value::as_str),
                Some("metrics-v1")
            );
        }
    }

    // The emitted document renders and self-compares clean.
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &["report", out_path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Sustainable rates"));
    let out = run(
        env!("CARGO_BIN_EXE_rbench"),
        &[
            "compare",
            out_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for p in [workload, out_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_metrics_out_writes_metrics_v1_jsonl() {
    let a_path = tmp("m-a.aag");
    let b_path = tmp("m-b.aag");
    let metrics_path = tmp("m.jsonl");
    let stats_path = tmp("m-stats.json");
    let write_aiger = |g: &aig::Aig, path: &PathBuf| {
        let mut buf = Vec::new();
        aig::aiger::write_ascii(g, &mut buf).unwrap();
        fs::write(path, buf).unwrap();
    };
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::kogge_stone_adder(8), &b_path);

    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--metrics-out={}", metrics_path.display()),
            "--metrics-period-ms=5",
            &format!("--stats-json={}", stats_path.display()),
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let stats = obs::json::parse(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some("stats-v1"),
        "--stats-json output is schema-stamped"
    );

    let text = fs::read_to_string(&metrics_path).unwrap();
    let snaps: Vec<Value> = text
        .lines()
        .map(|l| obs::json::parse(l).expect("metrics line parses"))
        .collect();
    assert!(!snaps.is_empty());
    let last = snaps.last().unwrap();
    assert_eq!(
        last.get("schema").and_then(Value::as_str),
        Some("metrics-v1")
    );
    let counters = last.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(Value::as_u64).unwrap_or(0);
    assert_eq!(counter("cec.checks_started"), 1);
    assert_eq!(counter("cec.checks_completed"), 1);
    assert_eq!(counter("cec.certificates_emitted"), 1);
    // Every final engine counter agrees with its source in the
    // post-mortem stats tree.
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).expect(key);
    assert_eq!(
        counter("cec.conflicts"),
        field(stats.get("sat_conflict_hist").unwrap(), "sum")
    );
    for key in ["sat_calls", "lemmas", "structural_merges", "refinements"] {
        assert_eq!(counter(&format!("cec.{key}")), field(&stats, key), "{key}");
    }

    for p in [a_path, b_path, metrics_path, stats_path] {
        let _ = fs::remove_file(p);
    }
}
