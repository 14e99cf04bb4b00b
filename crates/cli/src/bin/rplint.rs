//! `rplint` — static analysis for resolution proofs, CNF formulas, AIG
//! netlists, DRAT traces, and cross-artifact certification bundles.
//!
//! ```text
//! rplint FILE... [--kind=proof|cnf|aig|drat|cert|journal] [--fast]
//!                [--refutation] [--json] [--quiet]
//! rplint PROOF --fix [--fix-out=FILE] [--quiet]
//! rplint --list
//! ```
//!
//! The artifact kind is inferred from the extension (`.cnf`/`.dimacs` →
//! CNF, `.aag`/`.aig` → AIG, `.drat` → DRAT, `.cert` → certificate
//! metadata, `.journal` → durability run-state journal, anything else →
//! TraceCheck proof) unless `--kind` overrides it; an unknown `--kind`
//! is a usage error (exit 2), never a silent default.
//!
//! **Bundle mode.** When the files span more than one kind, they are
//! treated as one certification bundle: each file is linted on its own
//! and then the cross-artifact pass (`XB` codes) checks that the CNF is
//! the Tseitin encoding of the AIG, that every proof input clause
//! occurs in the CNF, and that the certificate metadata describes the
//! proof; a `.drat` file is RUP-checked against the bundle's CNF.
//! Produce the artifacts with
//! `rcec --proof=p.tc --emit-miter=m.aag --emit-cnf=m.cnf --emit-cert=p.cert`.
//!
//! **Fix mode.** `--fix` applies mechanical repairs to a TraceCheck
//! proof — duplicate-derivation dedup, unreferenced-tautology pruning,
//! and dead-step stripping via `proof::trim` — re-applies them to
//! fix-point, verifies the result is idempotent and structurally valid,
//! and rewrites the file (or `--fix-out=FILE`). A refutation keeps its
//! empty clause by construction.
//!
//! `--fast` restricts proofs to the structural lints (no antecedent
//! chain analysis); `--refutation` requires an empty clause; `--json`
//! prints one JSON report per file; `--list` prints the lint registry
//! grouped by code family.
//!
//! AIG files are loaded *without* structural hashing or constant
//! folding so that duplicate and constant gates are reported rather
//! than silently repaired.
//!
//! Exit codes: 0 no errors, 1 at least one error-severity finding,
//! 2 usage or I/O error.

use cec_tools::{exit, Args};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rplint: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Proof,
    Cnf,
    Aig,
    Drat,
    Cert,
    Journal,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Proof => "proof",
            Kind::Cnf => "cnf",
            Kind::Aig => "aig",
            Kind::Drat => "drat",
            Kind::Cert => "cert",
            Kind::Journal => "journal",
        }
    }
}

fn kind_of(path: &str, forced: Option<Kind>) -> Kind {
    if let Some(k) = forced {
        return k;
    }
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".cnf") || lower.ends_with(".dimacs") {
        Kind::Cnf
    } else if lower.ends_with(".aag") || lower.ends_with(".aig") {
        Kind::Aig
    } else if lower.ends_with(".drat") {
        Kind::Drat
    } else if lower.ends_with(".cert") {
        Kind::Cert
    } else if lower.ends_with(".journal") {
        Kind::Journal
    } else {
        Kind::Proof
    }
}

fn list_registry() {
    let families = [
        (
            lint::Artifact::Proof,
            "RP",
            "resolution proofs (TraceCheck)",
        ),
        (lint::Artifact::Cnf, "CF", "CNF formulas (DIMACS)"),
        (lint::Artifact::Aig, "AG", "AIG netlists (AIGER)"),
        (lint::Artifact::Bundle, "XB", "cross-artifact bundles"),
        (lint::Artifact::Drat, "DR", "DRAT clausal proofs"),
        (
            lint::Artifact::Journal,
            "JN",
            "durability run-state journals",
        ),
        (
            lint::Artifact::Analysis,
            "AN",
            "static hardness analysis (advisory)",
        ),
    ];
    for (artifact, prefix, what) in families {
        println!("{prefix} — {what}");
        for l in lint::REGISTRY.iter().filter(|l| l.artifact == artifact) {
            println!(
                "  {} [{}] {} — {}",
                l.code,
                l.severity.label(),
                l.name,
                l.summary
            );
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "kind",
            "fast",
            "refutation",
            "json",
            "quiet",
            "list",
            "fix",
            "fix-out",
        ],
    )
    .map_err(|e| e.to_string())?;

    if args.has("list") {
        list_registry();
        return Ok(exit::OK);
    }
    if args.positional.is_empty() {
        return Err(
            "usage: rplint FILE... [--kind=proof|cnf|aig|drat|cert|journal] [--fast] \
             [--refutation] [--json] [--quiet] | rplint PROOF --fix \
             [--fix-out=FILE] | rplint --list"
                .into(),
        );
    }
    let forced = match args.value("kind") {
        None => None,
        Some("proof") => Some(Kind::Proof),
        Some("cnf") => Some(Kind::Cnf),
        Some("aig") => Some(Kind::Aig),
        Some("drat") => Some(Kind::Drat),
        Some("cert") => Some(Kind::Cert),
        Some("journal") => Some(Kind::Journal),
        Some(other) => {
            return Err(format!(
                "unknown kind `{other}` (proof|cnf|aig|drat|cert|journal)"
            ))
        }
    };
    let mut opts = if args.has("fast") {
        lint::LintOptions::structural()
    } else {
        lint::LintOptions::default()
    };
    opts.expect_refutation = args.has("refutation");

    if args.has("fix") || args.value("fix-out").is_some() {
        return fix_mode(&args, &opts, forced);
    }

    let kinds: Vec<Kind> = args.positional.iter().map(|p| kind_of(p, forced)).collect();
    let distinct = {
        let mut seen: Vec<Kind> = Vec::new();
        for &k in &kinds {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        seen.len()
    };
    if distinct > 1 {
        return bundle_mode(&args, &opts, &kinds);
    }

    let mut worst = exit::OK;
    for (path, &kind) in args.positional.iter().zip(&kinds) {
        let report = lint_one(path, kind, &opts)?;
        if report.counts().errors > 0 {
            worst = exit::NEGATIVE;
        }
        print_report(&args, path, &report, args.positional.len() > 1)?;
    }
    Ok(worst)
}

/// Lints a single file of the given kind in isolation.
fn lint_one(path: &str, kind: Kind, opts: &lint::LintOptions) -> Result<lint::Report, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut r = BufReader::new(f);
    Ok(match kind {
        Kind::Proof => lint::lint_tracecheck(r, opts).map_err(|e| format!("{path}: {e}"))?,
        Kind::Cnf => {
            let f = cnf::dimacs::read(&mut r).map_err(|e| format!("{path}: {e}"))?;
            lint::lint_cnf(&f)
        }
        Kind::Aig => {
            let g = aig::aiger::read_raw(r).map_err(|e| format!("{path}: {e}"))?;
            lint::lint_aig(&g)
        }
        Kind::Drat => lint::lint_drat(r, None, opts).map_err(|e| format!("{path}: {e}"))?,
        Kind::Journal => lint::lint_journal(r).map_err(|e| format!("{path}: {e}"))?,
        Kind::Cert => {
            let text = std::io::read_to_string(&mut r).map_err(|e| format!("{path}: {e}"))?;
            let info = lint::CertificateInfo::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            // Alone, a certificate only has its grammar to check; the
            // binding checks need the proof next to it (bundle mode).
            lint::lint_bundle(&lint::Bundle {
                certificate: Some(&info),
                ..lint::Bundle::default()
            })
        }
    })
}

fn print_report(
    args: &Args,
    label: &str,
    report: &lint::Report,
    prefix: bool,
) -> Result<(), String> {
    if args.has("json") {
        println!("{}", report.to_json());
    } else if !args.has("quiet") || !report.is_clean() {
        let stdout = std::io::stdout();
        let mut w = stdout.lock();
        if prefix {
            writeln!(w, "{label}:").map_err(|e| e.to_string())?;
        }
        report.write_text(&mut w).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Lints several files of distinct kinds as one certification bundle.
fn bundle_mode(args: &Args, opts: &lint::LintOptions, kinds: &[Kind]) -> Result<i32, String> {
    let mut aig_file: Option<(String, aig::Aig)> = None;
    let mut cnf_file: Option<(String, cnf::Cnf)> = None;
    let mut proof_file: Option<(String, Option<proof::Proof>)> = None;
    let mut cert_file: Option<(String, lint::CertificateInfo)> = None;
    let mut drat_file: Option<String> = None;
    let mut worst = exit::OK;

    // Load every artifact, reporting the per-file lints as we go.
    for (path, &kind) in args.positional.iter().zip(kinds) {
        let dup = |prev: &str| {
            format!(
                "bundle already has a {} artifact ({prev}); \
                 a bundle takes at most one file per kind",
                kind.label()
            )
        };
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let mut r = BufReader::new(f);
        let report = match kind {
            Kind::Aig => {
                if let Some((prev, _)) = &aig_file {
                    return Err(dup(prev));
                }
                let g = aig::aiger::read_raw(r).map_err(|e| format!("{path}: {e}"))?;
                let report = lint::lint_aig(&g);
                aig_file = Some((path.clone(), g));
                report
            }
            Kind::Cnf => {
                if let Some((prev, _)) = &cnf_file {
                    return Err(dup(prev));
                }
                let f = cnf::dimacs::read(&mut r).map_err(|e| format!("{path}: {e}"))?;
                let report = lint::lint_cnf(&f);
                cnf_file = Some((path.clone(), f));
                report
            }
            Kind::Proof => {
                if let Some((prev, _)) = &proof_file {
                    return Err(dup(prev));
                }
                let (report, p) = lint::read_tracecheck(r).map_err(|e| format!("{path}: {e}"))?;
                proof_file = Some((path.clone(), p));
                report
            }
            Kind::Cert => {
                if let Some((prev, _)) = &cert_file {
                    return Err(dup(prev));
                }
                let text = std::io::read_to_string(&mut r).map_err(|e| format!("{path}: {e}"))?;
                let info =
                    lint::CertificateInfo::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                cert_file = Some((path.clone(), info));
                continue; // nothing to report on its own
            }
            Kind::Drat => {
                if let Some(prev) = &drat_file {
                    return Err(dup(prev));
                }
                // Deferred: the RUP check wants the bundle's CNF, which
                // may be a later positional file.
                drat_file = Some(path.clone());
                continue;
            }
            // Journals have no cross-artifact pass here (that is
            // `rchaos check`'s job); lint the file on its own.
            Kind::Journal => lint::lint_journal(r).map_err(|e| format!("{path}: {e}"))?,
        };
        if report.counts().errors > 0 {
            worst = exit::NEGATIVE;
        }
        print_report(args, path, &report, true)?;
    }

    // Proof-level lints.
    let proof = proof_file.as_ref().and_then(|(_, p)| p.as_ref());
    if let (Some(p), Some((path, _))) = (proof, &proof_file) {
        let report = lint::lint_proof(p, opts);
        if report.counts().errors > 0 {
            worst = exit::NEGATIVE;
        }
        print_report(args, path, &report, true)?;
    }

    // The DRAT trace, RUP-checked against the bundle's formula.
    if let Some(path) = &drat_file {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let report = lint::lint_drat(BufReader::new(f), cnf_file.as_ref().map(|(_, f)| f), opts)
            .map_err(|e| format!("{path}: {e}"))?;
        if report.counts().errors > 0 {
            worst = exit::NEGATIVE;
        }
        print_report(args, path, &report, true)?;
    }

    // The cross-artifact pass.
    let bundle = lint::Bundle {
        aig: aig_file.as_ref().map(|(_, g)| g),
        cnf: cnf_file.as_ref().map(|(_, f)| f),
        proof,
        certificate: cert_file.as_ref().map(|(_, c)| c),
    };
    let report = lint::lint_bundle(&bundle);
    if report.counts().errors > 0 {
        worst = exit::NEGATIVE;
    }
    print_report(args, "bundle", &report, true)?;

    // Advisory hardness annotations (AN codes) over the bundle's
    // instance artifacts — the same analysis `ranalyze` runs
    // standalone. Never affects the exit code.
    if bundle.aig.is_some() || bundle.cnf.is_some() {
        let analysis = analysis::HardnessReport::of(bundle.aig, bundle.cnf);
        print_report(args, "analysis", &analysis.diagnostics(), true)?;
    }
    Ok(worst)
}

/// `--fix`: mechanical repair of a TraceCheck proof to fix-point.
fn fix_mode(args: &Args, opts: &lint::LintOptions, forced: Option<Kind>) -> Result<i32, String> {
    if args.positional.len() != 1 {
        return Err("--fix takes exactly one proof file".into());
    }
    let path = &args.positional[0];
    let kind = kind_of(path, forced);
    if kind != Kind::Proof {
        return Err(format!(
            "--fix repairs TraceCheck proofs, but {path} looks like a {} file \
             (override with --kind=proof)",
            kind.label()
        ));
    }
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut file_report, p) =
        lint::read_tracecheck(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    let Some(p) = p else {
        print_report(args, path, &file_report, false)?;
        return Err(format!(
            "{path}: cannot fix a file with file-level defects ({})",
            file_report.counts()
        ));
    };

    let had_refutation = p.empty_clause().is_some();
    let fixed = lint::fix_proof(&p);
    if had_refutation && fixed.proof.empty_clause().is_none() {
        return Err("internal error: fix dropped the empty clause".into());
    }
    if let Err(e) = fixed.proof.check() {
        // The fix only removes steps, so the input may be what fails:
        // then it is reported as a plain lint run would, and nothing is
        // written.
        if p.check().is_ok() {
            return Err(format!("internal error: fixed proof is invalid: {e}"));
        }
        if !args.has("quiet") {
            eprintln!("not fixed: {path} is itself invalid: {e}");
        }
        file_report.absorb(lint::lint_proof(&p, opts));
        print_report(args, path, &file_report, false)?;
        return Ok(exit::NEGATIVE);
    }
    let again = lint::fix_proof(&fixed.proof);
    if again.changed {
        return Err("internal error: --fix is not idempotent on this proof".into());
    }

    let out_path = args.value("fix-out").unwrap_or(path);
    let f = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let mut w = BufWriter::new(f);
    proof::export::write_tracecheck(&fixed.proof, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{out_path}: {e}"))?;

    let s = fixed.summary;
    if !args.has("quiet") {
        eprintln!(
            "fixed {path} -> {out_path}: {} -> {} steps in {} pass(es) \
             ({} duplicate, {} tautological, {} dead derived, {} dead input)",
            p.len(),
            fixed.proof.len(),
            s.passes,
            s.deduped,
            s.tautologies,
            s.dead_derived,
            s.dead_inputs
        );
    }

    let report = lint::lint_proof(&fixed.proof, opts);
    print_report(args, out_path, &report, false)?;
    Ok(if report.counts().errors > 0 {
        exit::NEGATIVE
    } else {
        exit::OK
    })
}
