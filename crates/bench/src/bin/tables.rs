//! Regenerates every table and figure of `EXPERIMENTS.md`, and the
//! `trace-overhead` and `lint-cost` series of `DESIGN.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin tables --release                 # everything
//! cargo run -p bench --bin tables --release -- t2 lint-cost # selected
//! ```
//!
//! An unknown key exits with status 2 and lists the valid keys.

use bench::experiments as exp;
use bench::{render_table, suite};

/// Every key, in the order a run without keys prints them.
const TABLES: &[(&str, fn())] = &[
    ("t1", t1),
    ("t2", t2),
    ("t3", t3),
    ("t4", t4),
    ("t5", t5),
    ("t6", t6),
    ("t7", t7),
    ("t8", t8),
    ("f1", f1),
    ("f2", f2),
    ("f3", f3),
    ("trace-overhead", trace_overhead),
    ("lint-cost", lint_cost),
    ("stats-json", stats_json),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| TABLES.iter().any(|(k, _)| a.eq_ignore_ascii_case(k));
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let keys: Vec<&str> = TABLES.iter().map(|(k, _)| *k).collect();
        eprintln!(
            "tables: unknown key `{bad}`; valid keys: {}",
            keys.join(", ")
        );
        std::process::exit(2);
    }
    for (key, run) in TABLES {
        if args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(key)) {
            run();
        }
    }
}

/// Prints `rows` under `header` as an aligned table and a blank line.
fn print_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    println!("{}", render_table(header, &rows));
}

/// Machine-readable stats record per suite pair: one JSON Lines row
/// `{"pair": ..., "stats": <EngineStats::to_json()>}` on stdout, the
/// same tree as `rcec --stats-json`. Pipe to a file to archive a run.
fn stats_json() {
    eprintln!("== stats-json: per-pair machine-readable engine stats =========");
    for p in suite() {
        let outcome = exp::sweep_prove(&p);
        let stats = match &outcome {
            cec::CecOutcome::Equivalent(cert) => &cert.stats,
            cec::CecOutcome::Inequivalent { stats, .. } => stats,
        };
        let row = obs::json::Value::Object(vec![
            ("pair".to_string(), obs::json::Value::Str(p.name.clone())),
            ("stats".to_string(), stats.to_json()),
        ]);
        println!("{row}");
    }
}

fn t1() {
    println!("== T1: benchmark characteristics ==============================");
    let rows = exp::run_t1(&suite()).into_iter().map(|r| {
        vec![
            r.name,
            r.family.to_string(),
            r.inputs.to_string(),
            r.outputs.to_string(),
            r.ands.0.to_string(),
            r.ands.1.to_string(),
            r.depth.0.to_string(),
            r.depth.1.to_string(),
            r.miter_nodes.to_string(),
            r.miter_nodes_unshared.to_string(),
        ]
    });
    print_table(
        &[
            "pair",
            "family",
            "pi",
            "po",
            "and(A)",
            "and(B)",
            "dep(A)",
            "dep(B)",
            "miter",
            "miter-nosh",
        ],
        rows,
    );
}

fn t2() {
    println!("== T2: sweeping vs monolithic (proof-producing) ===============");
    let rows = exp::run_t2(&suite()).into_iter().map(|r| {
        let ratio = r.proof_ratio();
        vec![
            r.name,
            format!("{:.1}", r.sweep.solve_ms),
            r.sweep.resolutions.to_string(),
            r.sweep.trimmed_resolutions.to_string(),
            format!("{:.1}", r.sweep.check_ms),
            format!("{:.1}", r.mono.solve_ms),
            r.mono.resolutions.to_string(),
            r.mono.trimmed_resolutions.to_string(),
            format!("{:.1}", r.mono.check_ms),
            format!("{ratio:.1}x"),
        ]
    });
    print_table(
        &[
            "pair", "sw-ms", "sw-res", "sw-trim", "sw-chk", "mn-ms", "mn-res", "mn-trim", "mn-chk",
            "mono/sw",
        ],
        rows,
    );
}

fn t3() {
    println!("== T3: backward proof trimming ================================");
    let rows = exp::run_t3(&suite()).into_iter().map(|r| {
        vec![
            r.name.clone(),
            r.recorded.to_string(),
            r.trimmed.to_string(),
            r.compacted.to_string(),
            format!("{:.1}%", 100.0 * r.removed_fraction()),
            format!("{}/{}", r.core_originals, r.originals),
            format!("{:.2}", r.trim_ms),
        ]
    });
    print_table(
        &[
            "pair",
            "recorded",
            "trimmed",
            "compact",
            "removed",
            "core-orig",
            "trim-ms",
        ],
        rows,
    );
}

fn t4() {
    println!("== T4: ablation (hashing / structural merging / sweeping) =====");
    let rows = exp::run_t4(&exp::select(exp::T4_PAIRS, &[]))
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.config.label().to_string(),
                r.sat_calls.to_string(),
                r.sat_cex.to_string(),
                r.structural_merges.to_string(),
                r.resolutions.to_string(),
                format!("{:.1}", r.solve_ms),
            ]
        });
    print_table(
        &[
            "pair",
            "config",
            "sat",
            "cex",
            "struct",
            "resolutions",
            "ms",
        ],
        rows,
    );
}

fn t5() {
    println!("== T5: Craig interpolants from miter refutations ==============");
    let rows = exp::run_t5(&exp::select(&[], exp::T5_FAMILIES))
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.raw_resolutions.to_string(),
                r.raw_itp_gates.to_string(),
                r.trimmed_resolutions.to_string(),
                r.trimmed_itp_gates.to_string(),
                r.sweep_itp_gates.to_string(),
                r.itp_inputs.to_string(),
            ]
        });
    print_table(
        &[
            "pair",
            "raw-res",
            "raw-itp",
            "trim-res",
            "trim-itp",
            "sweep-itp",
            "itp-vars",
        ],
        rows,
    );
}

fn t6() {
    println!("== T6: trimmed proof composition by reasoning mechanism =======");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in exp::run_t6(&exp::select(exp::T6_PAIRS, &[])) {
        for (role, steps, resolutions) in &r.breakdown {
            if *steps == 0 {
                continue;
            }
            rows.push(vec![
                r.name.clone(),
                role.label().to_string(),
                steps.to_string(),
                format!("{:.1}%", 100.0 * *steps as f64 / r.total as f64),
                resolutions.to_string(),
            ]);
        }
    }
    print_table(
        &["pair", "mechanism", "steps", "share", "resolutions"],
        rows,
    );
}

fn t7() {
    println!("== T7: FRAIG reduction (sweeping as an optimizer) =============");
    let rows = exp::run_t7(&exp::select(exp::T7_PAIRS, &[]))
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.before.to_string(),
                r.after.to_string(),
                format!("{:.1}%", 100.0 * r.removed_fraction()),
                format!("{:.1}", r.reduce_ms),
            ]
        });
    print_table(
        &["union of pair", "gates", "reduced", "removed", "ms"],
        rows,
    );
}

fn t8() {
    println!("== T8: BDD canonical-form baseline vs proof-producing sweep ===");
    let rows = exp::run_t8(&suite(), exp::BDD_NODE_LIMIT)
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.family.to_string(),
                match r.bdd_nodes {
                    Some(n) => n.to_string(),
                    None => "OVERFLOW".into(),
                },
                format!("{:.1}", r.bdd_ms),
                format!("{:.1}", r.sweep_ms),
                if r.bdd_decided { "yes" } else { "NO" }.into(),
            ]
        });
    print_table(
        &[
            "pair",
            "family",
            "bdd-nodes",
            "bdd-ms",
            "sweep-ms",
            "bdd-verdict",
        ],
        rows,
    );
}

fn f1() {
    println!("== F1: scaling with adder width (rca vs kogge-stone) ==========");
    let rows = exp::run_f1(exp::F1_WIDTHS).into_iter().map(|p| {
        vec![
            p.width.to_string(),
            format!("{:.1}", p.sweep.0),
            p.sweep.1.to_string(),
            format!("{:.1}", p.mono.0),
            p.mono.1.to_string(),
            format!("{:.1}x", p.mono.1.max(1) as f64 / p.sweep.1.max(1) as f64),
        ]
    });
    print_table(
        &["width", "sw-ms", "sw-res", "mn-ms", "mn-res", "mono/sw"],
        rows,
    );
}

fn f3() {
    println!("== F3: the BDD multiplier cliff (array vs carry-save) =========");
    let widths = [4usize, 5, 6, 7, 8, 10, 12];
    let rows = exp::run_f3(&widths, exp::BDD_NODE_LIMIT, 8)
        .into_iter()
        .map(|p| {
            vec![
                p.width.to_string(),
                match p.bdd_nodes {
                    Some(n) => n.to_string(),
                    None => "OVERFLOW".into(),
                },
                format!("{:.1}", p.bdd_ms),
                match p.sweep_ms {
                    Some(t) => format!("{t:.1}"),
                    None => "(skipped)".into(),
                },
            ]
        });
    print_table(&["width", "bdd-nodes", "bdd-ms", "sweep-ms"], rows);
    println!("note: sweep points above width 8 are skipped to keep the harness fast;");
    println!("      the SAT engine still terminates there, only slowly (see stress tests).\n");
}

fn f2() {
    println!("== F2: candidate survival vs simulation effort ================");
    let rows = exp::run_f2(&exp::select(exp::F2_PAIRS, &[]), exp::F2_WORDS)
        .into_iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.words.to_string(),
                p.classes.to_string(),
                p.candidates.to_string(),
            ]
        });
    print_table(&["pair", "words", "classes", "candidates"], rows);
}

fn trace_overhead() {
    println!("== trace-overhead: recorder cost on add-rca/ks-32, 20 rounds ===");
    let rows = exp::run_trace_overhead(20).into_iter().map(|r| {
        vec![
            r.setting.to_string(),
            format!("{:.2}", r.time.best_ms),
            format!("{:.2}", r.time.median_ms),
            format!("{:+.1}%", 100.0 * r.vs_disabled),
            r.events.to_string(),
        ]
    });
    print_table(
        &["recorder", "best-ms", "median-ms", "vs-disabled", "events"],
        rows,
    );
}

fn lint_cost() {
    println!("== lint-cost: bundle lint vs proof replay on add-64, best of 20 =");
    let rows = exp::run_lint_cost(20)
        .into_iter()
        .map(|r| vec![r.pass.to_string(), format!("{:.2}", r.best_ms)]);
    print_table(&["pass", "best-ms"], rows);
}
