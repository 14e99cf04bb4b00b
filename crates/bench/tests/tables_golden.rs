//! Tables golden: every non-time column of `tables` T1–T8, F1, F2 and
//! `trace-overhead`, one line per row, pinned in
//! `tables_golden.txt`. (`lint-cost` has only time columns.)
//!
//! The rows come from the same `bench::experiments` runners and pair
//! selections the `tables` binary prints, so a change that moves a proof
//! size, a counter or a BDD node count in any table shows up here as a
//! diff. F3 is left out: its BDD-overflow points take most of a full
//! `tables` run. On a mismatch the test prints the lines it computed.

use bench::experiments as exp;
use bench::suite;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("tables_golden.txt");

fn pct(f: f64) -> String {
    format!("{:.1}%", 100.0 * f)
}

fn ratio(num: u64, den: u64) -> String {
    format!("{:.1}x", num.max(1) as f64 / den.max(1) as f64)
}

fn computed() -> String {
    let mut out = String::new();
    let mut line = |s: String| writeln!(out, "{s}").unwrap();
    for r in exp::run_t1(&suite()) {
        line(format!(
            "t1 {} {} pi={} po={} and={}/{} dep={}/{} miter={} miter-nosh={}",
            r.name,
            r.family,
            r.inputs,
            r.outputs,
            r.ands.0,
            r.ands.1,
            r.depth.0,
            r.depth.1,
            r.miter_nodes,
            r.miter_nodes_unshared
        ));
    }
    for r in exp::run_t2(&suite()) {
        line(format!(
            "t2 {} sw-res={} sw-trim={} mn-res={} mn-trim={} mono/sw={}",
            r.name,
            r.sweep.resolutions,
            r.sweep.trimmed_resolutions,
            r.mono.resolutions,
            r.mono.trimmed_resolutions,
            ratio(r.mono.resolutions, r.sweep.resolutions)
        ));
    }
    for r in exp::run_t3(&suite()) {
        line(format!(
            "t3 {} recorded={} trimmed={} compact={} removed={} core-orig={}/{}",
            r.name,
            r.recorded,
            r.trimmed,
            r.compacted,
            pct(r.removed_fraction()),
            r.core_originals,
            r.originals
        ));
    }
    for r in exp::run_t4(&exp::select(exp::T4_PAIRS, &[])) {
        line(format!(
            "t4 {} {} sat={} cex={} struct={} resolutions={}",
            r.name,
            r.config.label(),
            r.sat_calls,
            r.sat_cex,
            r.structural_merges,
            r.resolutions
        ));
    }
    for r in exp::run_t5(&exp::select(&[], exp::T5_FAMILIES)) {
        line(format!(
            "t5 {} raw-res={} raw-itp={} trim-res={} trim-itp={} sweep-itp={} itp-vars={}",
            r.name,
            r.raw_resolutions,
            r.raw_itp_gates,
            r.trimmed_resolutions,
            r.trimmed_itp_gates,
            r.sweep_itp_gates,
            r.itp_inputs
        ));
    }
    for r in exp::run_t6(&exp::select(exp::T6_PAIRS, &[])) {
        for (role, steps, resolutions) in &r.breakdown {
            if *steps > 0 {
                line(format!(
                    "t6 {} {} steps={steps} share={} resolutions={resolutions}",
                    r.name,
                    role.label(),
                    pct(*steps as f64 / r.total as f64)
                ));
            }
        }
    }
    for r in exp::run_t7(&exp::select(exp::T7_PAIRS, &[])) {
        line(format!(
            "t7 {} gates={} reduced={} removed={}",
            r.name,
            r.before,
            r.after,
            pct(r.removed_fraction())
        ));
    }
    for r in exp::run_t8(&suite(), exp::BDD_NODE_LIMIT) {
        let nodes = r.bdd_nodes.map_or("OVERFLOW".into(), |n| n.to_string());
        line(format!(
            "t8 {} {} bdd-nodes={nodes} bdd-verdict={}",
            r.name,
            r.family,
            if r.bdd_decided { "yes" } else { "NO" }
        ));
    }
    for p in exp::run_f1(exp::F1_WIDTHS) {
        line(format!(
            "f1 {} sw-res={} mn-res={} mono/sw={}",
            p.width,
            p.sweep.1,
            p.mono.1,
            ratio(p.mono.1, p.sweep.1)
        ));
    }
    for p in exp::run_f2(&exp::select(exp::F2_PAIRS, &[]), exp::F2_WORDS) {
        line(format!(
            "f2 {} words={} classes={} candidates={}",
            p.name, p.words, p.classes, p.candidates
        ));
    }
    for r in exp::run_trace_overhead(1) {
        line(format!("trace-overhead {} events={}", r.setting, r.events));
    }
    out
}

#[test]
fn table_columns_match_golden() {
    let actual = computed();
    // Shown by the harness only when the test fails.
    print!("{actual}");
    let expected: Vec<&str> = EXPECTED.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = actual.lines().collect();
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(e, g, "golden line {} differs", i + 1);
    }
    assert_eq!(expected.len(), got.len(), "golden line count differs");
}
