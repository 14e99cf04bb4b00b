//! End-to-end tests of the command-line tools, driving the real
//! binaries through files and exit codes — the full third-party audit
//! loop: `rcec` emits a proof, `rcheck` replays it.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cec-tools-test-{}-{name}", std::process::id()));
    p
}

fn write_aiger(g: &aig::Aig, path: &PathBuf) {
    let mut buf = Vec::new();
    aig::aiger::write_ascii(g, &mut buf).unwrap();
    fs::write(path, buf).unwrap();
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches")
}

#[test]
fn rcec_equivalent_with_checked_proof_file() {
    let a_path = tmp("eq-a.aag");
    let b_path = tmp("eq-b.aag");
    let proof_path = tmp("eq.trace");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::kogge_stone_adder(8), &b_path);

    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            "--trim",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));

    // The emitted proof is independently re-checked by rcheck.
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[
            proof_path.to_str().unwrap(),
            "--refutation",
            "--rup",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ACCEPTED"));

    for p in [a_path, b_path, proof_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_proof_round_trips_through_rcheck() {
    // Golden round-trip: rcec emits a trimmed proof file, rcheck
    // independently replays it with both checkers, and a corrupted copy
    // of the very same file is rejected with a nonzero exit.
    let a_path = tmp("par-a.aag");
    let b_path = tmp("par-b.aag");
    let proof_path = tmp("par.trace");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::brent_kung_adder(8), &b_path);

    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            "--trim",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));

    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[
            proof_path.to_str().unwrap(),
            "--refutation",
            "--rup",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ACCEPTED"));

    // Corrupt the emitted proof (flip the polarity of the first literal
    // of the first derived step) and rcheck must refuse it.
    let text = fs::read_to_string(&proof_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let victim = lines
        .iter()
        .position(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            // A derived step has antecedents after the first 0 — and a
            // non-empty clause gives us a literal to flip.
            fields.get(1).is_some_and(|f| *f != "0")
                && fields
                    .iter()
                    .position(|f| *f == "0")
                    .is_some_and(|z| fields[z + 1..].iter().any(|f| *f != "0"))
        })
        .expect("trimmed refutation contains a derived non-empty step");
    let mut fields: Vec<String> = lines[victim]
        .split_whitespace()
        .map(str::to_string)
        .collect();
    fields[1] = format!("{}", -fields[1].parse::<i64>().unwrap());
    lines[victim] = fields.join(" ");
    let corrupted = lines.join("\n") + "\n";
    assert_ne!(text, corrupted, "corruption must change the file");
    let bad_path = tmp("par-bad.trace");
    fs::write(&bad_path, corrupted).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[bad_path.to_str().unwrap(), "--refutation", "--quiet"],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REJECTED"));

    for p in [a_path, b_path, proof_path, bad_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_detects_inequivalence() {
    let golden = aig::gen::ripple_carry_adder(4);
    let mutant = (0..40)
        .filter_map(|s| aig::gen::mutate(&golden, s))
        .find(|m| aig::sim::exhaustive_diff(&golden, m, 8).is_some())
        .expect("differing mutant");
    let a_path = tmp("ineq-a.aag");
    let b_path = tmp("ineq-b.aag");
    write_aiger(&golden, &a_path);
    write_aiger(&mutant, &b_path);

    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("INEQUIVALENT"));
    assert!(text.contains("input"));

    let _ = fs::remove_file(a_path);
    let _ = fs::remove_file(b_path);
}

#[test]
fn rcec_monolithic_mode_agrees() {
    use obs::json::{parse, Value};
    let a_path = tmp("mono-a.aag");
    let b_path = tmp("mono-b.aag");
    let metrics_path = tmp("mono-metrics.jsonl");
    let stats_path = tmp("mono-stats.json");
    write_aiger(&aig::gen::parity_chain(8), &a_path);
    write_aiger(&aig::gen::parity_tree(8), &b_path);
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--monolithic",
            "--check",
            &format!("--metrics-out={}", metrics_path.display()),
            &format!("--stats-json={}", stats_path.display()),
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The baseline reports into the session's registry: the check's
    // three lifecycle counters, and no engine counter.
    let text = fs::read_to_string(&metrics_path).unwrap();
    let last = parse(text.lines().last().expect("a final snapshot")).unwrap();
    let counters: Vec<(String, u64)> = last
        .get("counters")
        .and_then(Value::as_object)
        .expect("snapshot has counters")
        .iter()
        .map(|(name, v)| (name.clone(), v.as_u64().expect("counter is a u64")))
        .collect();
    let want: Vec<(String, u64)> = [
        "cec.certificates_emitted",
        "cec.checks_completed",
        "cec.checks_started",
    ]
    .iter()
    .map(|name| (name.to_string(), 1))
    .collect();
    assert_eq!(counters, want);
    let stats = parse(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    let final_solve = stats
        .get("phases")
        .and_then(|p| p.get("final_solve_us"))
        .and_then(Value::as_u64);
    assert!(final_solve > Some(0), "{final_solve:?}");

    for p in [a_path, b_path, metrics_path, stats_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_usage_errors() {
    let out = run(env!("CARGO_BIN_EXE_rcec"), &["only-one.aag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(env!("CARGO_BIN_EXE_rcec"), &["a", "b", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rsat_sat_and_unsat_with_proof() {
    // SAT instance.
    let sat_path = tmp("f.cnf");
    fs::write(&sat_path, "p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
    let out = run(env!("CARGO_BIN_EXE_rsat"), &[sat_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(10), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s SATISFIABLE"));
    assert!(
        text.contains("v -1 2 0") || text.contains("v -1 2"),
        "{text}"
    );

    // UNSAT instance with proof emission, checked by rcheck.
    let unsat_path = tmp("g.cnf");
    let proof_path = tmp("g.trace");
    fs::write(&unsat_path, "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rsat"),
        &[
            unsat_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(20), "{out:?}");
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[proof_path.to_str().unwrap(), "--refutation", "--quiet"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    for p in [sat_path, unsat_path, proof_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcheck_rejects_corrupted_proof() {
    let path = tmp("bad.trace");
    // Claims (1) from (1 2) and (-2 3): not a valid resolution.
    fs::write(&path, "1 1 2 0 0\n2 -2 3 0 0\n3 1 0 1 2 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[path.to_str().unwrap(), "--quiet"],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REJECTED"));
    let _ = fs::remove_file(path);
}

#[test]
fn rcheck_requires_refutation_when_asked() {
    let path = tmp("norefute.trace");
    fs::write(&path, "1 1 0 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[path.to_str().unwrap(), "--quiet"],
    );
    assert_eq!(out.status.code(), Some(0), "plain check passes");
    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[path.to_str().unwrap(), "--refutation", "--quiet"],
    );
    assert_eq!(out.status.code(), Some(1), "refutation check fails");
    let _ = fs::remove_file(path);
}

/// Two unshared copies of a 6-bit adder over the same inputs: a graph
/// `rfraig` must shrink.
fn planted_redundancy() -> aig::Aig {
    let base = aig::gen::ripple_carry_adder(6);
    let shuffled = base.shuffle_rebuild(5);
    let mut g = aig::Aig::new();
    let inputs: Vec<aig::Lit> = (0..12).map(|_| g.add_input()).collect();
    for src in [&base, &shuffled] {
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

#[test]
fn rfraig_reduces_and_round_trips() {
    let g = planted_redundancy();
    let in_path = tmp("fraig-in.aag");
    let out_path = tmp("fraig-out.aag");
    write_aiger(&g, &in_path);

    let out = run(
        env!("CARGO_BIN_EXE_rfraig"),
        &[
            in_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
            "--verify",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let reduced =
        aig::aiger::read(std::io::BufReader::new(fs::File::open(&out_path).unwrap())).unwrap();
    assert!(reduced.num_ands() < g.num_ands());
    let _ = fs::remove_file(in_path);
    let _ = fs::remove_file(out_path);
}

#[test]
fn rfraig_lints_the_proof_of_its_verification() {
    let in_path = tmp("fraig-lint-in.aag");
    let out_path = tmp("fraig-lint-out.aag");
    write_aiger(&planted_redundancy(), &in_path);
    for (flag, summary) in [("--lint-proof", "proof: "), ("--lint-bundle", "bundle: ")] {
        let out = run(
            env!("CARGO_BIN_EXE_rfraig"),
            &[
                in_path.to_str().unwrap(),
                out_path.to_str().unwrap(),
                "--verify",
                flag,
                "--quiet",
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.lines().last().is_some_and(|l| l.starts_with(summary)),
            "{flag}: {err}"
        );
    }
    let _ = fs::remove_file(in_path);
    let _ = fs::remove_file(out_path);
}

/// The `[errors, warnings, infos]` of a lint summary line such as
/// `bundle: 0 errors, 15 warnings, 0 infos`.
fn summary_counts(line: &str) -> [usize; 3] {
    let (_, counts) = line.split_once(": ").expect("a summary line");
    let counts: Vec<usize> = counts
        .split(", ")
        .map(|c| c.split(' ').next().unwrap().parse().unwrap())
        .collect();
    counts.try_into().expect("three counts")
}

#[test]
fn rcec_lint_counts_match_rplint_on_the_written_files() {
    // rcec's report covers the proof and certificate it writes, so
    // rplint's proof and bundle passes over the emitted files add up to
    // it, with --trim and without.
    let (a, b) = aig::gen::family_pair("adder", 8).expect("known family");
    let paths: Vec<PathBuf> = ["a.aag", "b.aag", "m.aag", "m.cnf", "p.trace", "p.cert"]
        .iter()
        .map(|name| tmp(&format!("agree-{name}")))
        .collect();
    let [a_path, b_path, miter, cnf, proof, cert] = &paths[..] else {
        unreachable!()
    };
    write_aiger(&a, a_path);
    write_aiger(&b, b_path);
    for trim in [false, true] {
        let mut args = vec![
            a_path.display().to_string(),
            b_path.display().to_string(),
            "--lint-proof".into(),
            "--lint-bundle".into(),
            format!("--proof={}", proof.display()),
            format!("--emit-miter={}", miter.display()),
            format!("--emit-cnf={}", cnf.display()),
            format!("--emit-cert={}", cert.display()),
            "--quiet".into(),
        ];
        if trim {
            args.push("--trim".into());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(env!("CARGO_BIN_EXE_rcec"), &args);
        assert_eq!(out.status.code(), Some(0), "trim={trim}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let last = err.lines().last().expect("a lint report");
        assert!(last.starts_with("bundle: "), "trim={trim}: {err}");
        let rcec = summary_counts(last);

        let files = [miter, cnf, proof, cert].map(|p| p.display().to_string());
        let mut args: Vec<&str> = files.iter().map(String::as_str).collect();
        args.push("--refutation");
        let out = run(env!("CARGO_BIN_EXE_rplint"), &args);
        assert_eq!(out.status.code(), Some(0), "trim={trim}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        // The proof file's parse report, its proof pass, the bundle pass.
        let summaries: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("proof: ") || l.starts_with("bundle: "))
            .collect();
        let [_, proof_pass, bundle_pass] = summaries[..] else {
            panic!("trim={trim}: {text}");
        };
        let (p, b) = (summary_counts(proof_pass), summary_counts(bundle_pass));
        assert_eq!(
            rcec,
            [0, 1, 2].map(|i| p[i] + b[i]),
            "trim={trim}: rcec {last:?}, rplint {proof_pass:?} + {bundle_pass:?}"
        );
    }
    for p in paths {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rplint_accepts_engine_proofs_and_lint_gate_passes() {
    // rcec emits a proof with its own --lint-proof gate on; rplint then
    // audits the file standalone.
    let a_path = tmp("plint-a.aag");
    let b_path = tmp("plint-b.aag");
    let proof_path = tmp("plint.trace");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::kogge_stone_adder(8), &b_path);
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            "--lint-proof",
            "--trim",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));

    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[proof_path.to_str().unwrap(), "--refutation"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 errors"));
    for p in [a_path, b_path, proof_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_and_rcecd_refuse_the_threads_flag() {
    // The round engine is gone: `--threads` is an unknown flag.
    for bin in [env!("CARGO_BIN_EXE_rcec"), env!("CARGO_BIN_EXE_rcecd")] {
        let out = run(bin, &["--threads=2"]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --threads"), "{err}");
    }
}

#[test]
fn rplint_flags_corrupted_proof_with_specific_code() {
    // A mis-ordered chain: replaying (x0∨x1) against (¬x1∨x2) first
    // leaves x1 in the resolvent that the recorded clause (x2) lacks.
    let path = tmp("plint-swap.trace");
    fs::write(&path, "1 1 2 0 0\n2 -1 2 0 0\n3 -2 3 0 0\n4 3 0 1 3 2 0\n").unwrap();
    let out = run(env!("CARGO_BIN_EXE_rplint"), &[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RP103"), "{text}");
    assert!(text.contains("error"), "{text}");

    // The structural-only pass skips chain replay and accepts the file.
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[path.to_str().unwrap(), "--fast"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = fs::remove_file(path);
}

#[test]
fn rplint_json_and_registry_listing() {
    let path = tmp("plint-json.trace");
    fs::write(&path, "1 1 0 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[path.to_str().unwrap(), "--refutation", "--json"],
    );
    // JSON mode still signals errors through the exit code (RP002: no
    // empty clause despite --refutation).
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"artifact\":\"proof\""), "{text}");
    assert!(text.contains("\"RP002\""), "{text}");
    assert!(text.contains("\"summary\""), "{text}");
    let _ = fs::remove_file(path);

    let out = run(env!("CARGO_BIN_EXE_rplint"), &["--list"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for code in ["RP001", "RP101", "CF001", "AG001"] {
        assert!(text.contains(code), "--list missing {code}");
    }
}

#[test]
fn rplint_lints_cnf_and_aig_files() {
    // CNF with a duplicate clause, a tautology, and an unused variable:
    // all warnings, so the exit stays 0 while the codes are reported.
    let cnf_path = tmp("plint.cnf");
    fs::write(&cnf_path, "p cnf 4 3\n1 2 0\n2 1 0\n3 -3 4 0\n").unwrap();
    let out = run(env!("CARGO_BIN_EXE_rplint"), &[cnf_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CF002"), "{text}");
    assert!(text.contains("CF003"), "{text}");
    let _ = fs::remove_file(cnf_path);

    // An AIG with two structurally identical ANDs: rplint loads the
    // file without re-hashing, so AG002 sees the duplicate.
    let mut g = aig::Aig::new();
    let x = g.add_input();
    let y = g.add_input();
    let a = g.and_raw(x, y);
    let b = g.and_raw(x, y);
    let top = g.and_raw(a, b);
    g.add_output(top);
    let aig_path = tmp("plint.aag");
    write_aiger(&g, &aig_path);
    let out = run(env!("CARGO_BIN_EXE_rplint"), &[aig_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AG002"), "{text}");
    let _ = fs::remove_file(aig_path);
}

#[test]
fn rplint_refuses_bad_usage() {
    let out = run(env!("CARGO_BIN_EXE_rplint"), &[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(env!("CARGO_BIN_EXE_rplint"), &["x", "--kind=nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(env!("CARGO_BIN_EXE_rplint"), &["x", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rcec_bdd_mode() {
    let a_path = tmp("bdd-a.aag");
    let b_path = tmp("bdd-b.aag");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::brent_kung_adder(8), &b_path);
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--bdd",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));
    let _ = fs::remove_file(a_path);
    let _ = fs::remove_file(b_path);
}

#[test]
fn rcec_emits_bundle_and_rplint_audits_it_clean() {
    // The full third-party bundle audit loop: rcec exports its miter,
    // CNF, proof, and certificate; rplint re-checks the cross-artifact
    // binding from the files alone.
    let a_path = tmp("bundle-a.aag");
    let b_path = tmp("bundle-b.aag");
    let miter_path = tmp("bundle-m.aag");
    let cnf_path = tmp("bundle-m.cnf");
    let proof_path = tmp("bundle.trace");
    let cert_path = tmp("bundle.cert");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::kogge_stone_adder(8), &b_path);
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            &format!("--emit-miter={}", miter_path.display()),
            &format!("--emit-cnf={}", cnf_path.display()),
            &format!("--emit-cert={}", cert_path.display()),
            "--lint-bundle",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));

    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            miter_path.to_str().unwrap(),
            cnf_path.to_str().unwrap(),
            proof_path.to_str().unwrap(),
            cert_path.to_str().unwrap(),
            "--refutation",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bundle:"), "{text}");
    for p in [a_path, b_path, miter_path, cnf_path, proof_path, cert_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rplint_bundle_corruptions_yield_distinct_xb_codes() {
    // One corrupted Tseitin clause, one foreign proof input clause, and
    // one mismatched certificate field: three distinct XB error codes.
    let a_path = tmp("xb-a.aag");
    let b_path = tmp("xb-b.aag");
    let miter_path = tmp("xb-m.aag");
    let cnf_path = tmp("xb-m.cnf");
    let proof_path = tmp("xb.trace");
    let cert_path = tmp("xb.cert");
    write_aiger(&aig::gen::ripple_carry_adder(6), &a_path);
    write_aiger(&aig::gen::brent_kung_adder(6), &b_path);
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            &format!("--proof={}", proof_path.display()),
            &format!("--emit-miter={}", miter_path.display()),
            &format!("--emit-cnf={}", cnf_path.display()),
            &format!("--emit-cert={}", cert_path.display()),
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Flip the sign of the first literal of the first 3-literal
    // (Tseitin t3) clause.
    let cnf_text = fs::read_to_string(&cnf_path).unwrap();
    let mut flipped = false;
    let bad_cnf: Vec<String> = cnf_text
        .lines()
        .map(|line| {
            if !flipped && !line.starts_with('p') && line.split_whitespace().count() == 4 {
                flipped = true;
                let mut toks: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
                let v: i64 = toks[0].parse().unwrap();
                toks[0] = (-v).to_string();
                toks.join(" ")
            } else {
                line.to_owned()
            }
        })
        .collect();
    assert!(flipped, "no 3-literal clause in {cnf_text}");
    fs::write(&cnf_path, bad_cnf.join("\n") + "\n").unwrap();

    // Append an input step over two primary-input variables that no CNF
    // clause relates: a foreign clause.
    let proof_text = fs::read_to_string(&proof_path).unwrap();
    let next_id = proof_text.lines().count() + 1;
    fs::write(&proof_path, format!("{proof_text}{next_id} 2 3 0 0\n")).unwrap();

    // Point the certificate at the wrong empty-clause step.
    let cert_text = fs::read_to_string(&cert_path).unwrap();
    let bad_cert: Vec<String> = cert_text
        .lines()
        .map(|line| {
            if line.starts_with("empty-clause") {
                "empty-clause 0".to_owned()
            } else {
                line.to_owned()
            }
        })
        .collect();
    fs::write(&cert_path, bad_cert.join("\n") + "\n").unwrap();

    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            miter_path.to_str().unwrap(),
            cnf_path.to_str().unwrap(),
            proof_path.to_str().unwrap(),
            cert_path.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for code in ["XB003", "XB005", "XB007"] {
        assert!(text.contains(code), "missing {code} in:\n{text}");
    }
    for p in [a_path, b_path, miter_path, cnf_path, proof_path, cert_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rplint_fix_shrinks_proof_and_is_idempotent() {
    // A refutation padded with a duplicate derivation, a dead step, and
    // an unreferenced tautology: --fix strips all three, the result
    // passes rcheck, and a second --fix run changes nothing.
    let path = tmp("fix.trace");
    let fixed_path = tmp("fix-1.trace");
    let fixed_again_path = tmp("fix-2.trace");
    fs::write(
        &path,
        "1 1 2 0 0\n2 -1 2 0 0\n3 1 -2 0 0\n4 -1 -2 0 0\n5 2 0 1 2 0\n\
         6 2 0 1 2 0\n7 1 0 1 3 0\n8 1 -1 0 0\n9 -2 0 3 4 0\n10 0 5 9 0\n",
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            path.to_str().unwrap(),
            "--fix",
            &format!("--fix-out={}", fixed_path.display()),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let fixed = fs::read_to_string(&fixed_path).unwrap();
    assert_eq!(fixed.lines().count(), 7, "{fixed}");

    let out = run(
        env!("CARGO_BIN_EXE_rcheck"),
        &[fixed_path.to_str().unwrap(), "--refutation", "--quiet"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            fixed_path.to_str().unwrap(),
            "--fix",
            &format!("--fix-out={}", fixed_again_path.display()),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(fixed, fs::read_to_string(&fixed_again_path).unwrap());
    for p in [path, fixed_path, fixed_again_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rplint_fix_reports_an_invalid_input_and_writes_nothing() {
    // Step 3's chain starts at the tautology (x1 ∨ ¬x1 ∨ x2): the input
    // fails the check itself, so --fix reports it as a plain lint run
    // does (RP003, exit 1) instead of blaming its own output.
    let path = tmp("taut-first.trace");
    let fixed_path = tmp("taut-first.fixed");
    let _ = fs::remove_file(&fixed_path);
    fs::write(&path, "1 1 -1 2 0 0\n2 -1 3 0 0\n3 -1 2 3 0 1 2 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            path.to_str().unwrap(),
            "--fix",
            &format!("--fix-out={}", fixed_path.display()),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("RP003"),
        "{out:?}"
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("internal error"));
    assert!(!fixed_path.exists(), "nothing is written");
    let _ = fs::remove_file(path);
}

#[test]
fn rplint_drat_frontend() {
    // A clean DRUP refutation of the xor formula lints clean against
    // its CNF; an addition that does not follow by unit propagation is
    // DR002.
    let cnf_path = tmp("drat.cnf");
    let drat_path = tmp("drat.drat");
    fs::write(&cnf_path, "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n").unwrap();
    fs::write(&drat_path, "1 0\n0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[
            cnf_path.to_str().unwrap(),
            drat_path.to_str().unwrap(),
            "--refutation",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    fs::write(&cnf_path, "p cnf 2 1\n1 2 0\n").unwrap();
    fs::write(&drat_path, "1 0\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rplint"),
        &[cnf_path.to_str().unwrap(), drat_path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DR002"), "{text}");

    // Standalone (no formula), the same trace has nothing to violate.
    let out = run(env!("CARGO_BIN_EXE_rplint"), &[drat_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = fs::remove_file(cnf_path);
    let _ = fs::remove_file(drat_path);
}

#[test]
fn rplint_list_groups_by_family() {
    let out = run(env!("CARGO_BIN_EXE_rplint"), &["--list"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for header in [
        "RP — resolution proofs",
        "CF — CNF formulas",
        "AG — AIG netlists",
        "XB — cross-artifact bundles",
        "DR — DRAT clausal proofs",
    ] {
        assert!(text.contains(header), "--list missing header {header:?}");
    }
    for code in ["XB001", "XB009", "DR001", "DR005"] {
        assert!(text.contains(code), "--list missing {code}");
    }
    // Codes appear under their family header, i.e. grouped.
    let rp = text.find("RP — ").unwrap();
    let xb = text.find("XB — ").unwrap();
    assert!(rp < text.find("RP001").unwrap());
    assert!(text.find("XB001").unwrap() > xb);
    assert!(text.find("RP001").unwrap() < xb);
}

#[test]
fn rcec_bundle_flags_require_sweeping_engine() {
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &["a", "b", "--bdd", "--lint-bundle"],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &["a", "b", "--monolithic", "--emit-cnf=x"],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn rcec_trace_exporters_and_stats_json() {
    use obs::json::{parse, Value};
    let a_path = tmp("tr-a.aag");
    let b_path = tmp("tr-b.aag");
    let jsonl_path = tmp("tr.jsonl");
    let chrome_path = tmp("tr.chrome.json");
    let stats_path = tmp("tr.stats.json");
    write_aiger(&aig::gen::ripple_carry_adder(8), &a_path);
    write_aiger(&aig::gen::kogge_stone_adder(8), &b_path);

    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &[
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--check",
            &format!("--trace-out={}", jsonl_path.display()),
            &format!("--trace-chrome={}", chrome_path.display()),
            &format!("--stats-json={}", stats_path.display()),
            "--verbose",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("phases:"), "--verbose prints phases: {err}");
    assert!(err.contains("sat-call conflicts:"), "{err}");

    // JSONL journal: one JSON object per line, schema keys present.
    let jsonl = fs::read_to_string(&jsonl_path).unwrap();
    let mut span_lines = 0;
    for line in jsonl.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        for key in ["ts_us", "tid", "kind", "name"] {
            assert!(v.get(key).is_some(), "JSONL line missing {key}: {line}");
        }
        if v.get("kind").and_then(Value::as_str) == Some("span") {
            assert!(v.get("dur_us").is_some(), "span without dur_us: {line}");
            span_lines += 1;
        }
    }
    assert!(span_lines > 0, "no span events in journal");

    // Chrome trace: well-formed JSON array, one thread-name metadata row
    // for the coordinator, and complete events on its tid.
    let chrome = fs::read_to_string(&chrome_path).unwrap();
    let v = parse(&chrome).expect("chrome trace parses");
    let events = v.as_array().expect("chrome trace is an array");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(names, ["coordinator"]);
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("tid").and_then(Value::as_u64) == Some(0)
        }),
        "no complete event on the coordinator's tid"
    );

    // Stats JSON: full tree with phase breakdown; disjoint phases can
    // never sum past the elapsed wall-clock (a few us of rounding).
    let stats = parse(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    let phases = stats.get("phases").expect("phases object");
    for key in ["miter_us", "sim_us", "sweep_us", "final_solve_us", "sum_us"] {
        assert!(phases.get(key).is_some(), "missing {key}");
    }
    let sum = phases.get("sum_us").and_then(Value::as_u64).unwrap();
    let elapsed = stats.get("elapsed_us").and_then(Value::as_u64).unwrap();
    assert!(
        sum > 0 && sum <= elapsed + 10,
        "sum={sum} elapsed={elapsed}"
    );
    assert!(stats.get("workers").is_none());
    assert!(stats.get("sat_conflict_hist").is_some());
    assert!(stats.get("proof").is_some());
    assert!(phases.get("check_us").and_then(Value::as_u64).unwrap() > 0);

    for p in [a_path, b_path, jsonl_path, chrome_path, stats_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rcec_trace_flags_reject_bdd_mode() {
    let out = run(
        env!("CARGO_BIN_EXE_rcec"),
        &["a", "b", "--bdd", "--stats-json=x"],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn rsat_trace_and_stats_json() {
    use obs::json::{parse, Value};
    // Pigeonhole php(8,7): hard enough that the solver restarts, so the
    // event journal has content.
    let pigeons = 8;
    let holes = 7;
    let var = |p: usize, h: usize| p * holes + h + 1;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push(
            (0..holes)
                .map(|h| var(p, h).to_string())
                .collect::<Vec<_>>()
                .join(" ")
                + " 0",
        );
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(format!("-{} -{} 0", var(p1, h), var(p2, h)));
            }
        }
    }
    let dimacs = format!(
        "p cnf {} {}\n{}\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\n")
    );

    let cnf_path = tmp("php.cnf");
    let jsonl_path = tmp("php.jsonl");
    let stats_path = tmp("php.stats.json");
    fs::write(&cnf_path, dimacs).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_rsat"),
        &[
            cnf_path.to_str().unwrap(),
            &format!("--trace-out={}", jsonl_path.display()),
            &format!("--stats-json={}", stats_path.display()),
            "--verbose",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(20), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("restarts="));

    let jsonl = fs::read_to_string(&jsonl_path).unwrap();
    let restart_lines = jsonl
        .lines()
        .map(|l| parse(l).expect("journal line parses"))
        .filter(|v| v.get("name").and_then(Value::as_str) == Some("restart"))
        .count();
    assert!(restart_lines > 0, "no restart events: {jsonl}");

    let stats = parse(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    let restarts = stats.get("restarts").and_then(Value::as_u64).unwrap();
    assert_eq!(restarts as usize, restart_lines);
    assert!(stats.get("conflicts").and_then(Value::as_u64).unwrap() > 0);

    for p in [cnf_path, jsonl_path, stats_path] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn rfraig_trace_and_stats_json() {
    use obs::json::{parse, Value};
    let in_path = tmp("fr-tr-in.aag");
    let out_path = tmp("fr-tr-out.aag");
    let jsonl_path = tmp("fr-tr.jsonl");
    let stats_path = tmp("fr-tr.stats.json");
    // A graph with planted redundancy, so sweeping has work to do.
    let g = {
        let base = aig::gen::ripple_carry_adder(6);
        let m = cec::Miter::build(&base, &aig::gen::kogge_stone_adder(6), false).graph;
        m.check().unwrap();
        m
    };
    write_aiger(&g, &in_path);

    let out = run(
        env!("CARGO_BIN_EXE_rfraig"),
        &[
            in_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
            &format!("--trace-out={}", jsonl_path.display()),
            &format!("--stats-json={}", stats_path.display()),
            "--verbose",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("phases:"));

    let jsonl = fs::read_to_string(&jsonl_path).unwrap();
    assert!(
        jsonl
            .lines()
            .map(|l| parse(l).expect("journal line parses"))
            .any(|v| v.get("name").and_then(Value::as_str) == Some("sat_call")),
        "no sat_call events: {jsonl}"
    );
    let stats = parse(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    assert!(stats.get("sat_calls").and_then(Value::as_u64).unwrap() > 0);
    assert!(stats.get("phases").is_some());

    for p in [in_path, out_path, jsonl_path, stats_path] {
        let _ = fs::remove_file(p);
    }
}
