//! `ranalyze` — static hardness analysis for CEC instances.
//!
//! ```text
//! ranalyze FILE... [--kind=aig|cnf] [--json] [--quiet]
//! ranalyze A.aag B.aag --miter [--json]
//! ```
//!
//! Computes the structural feature census of an AIG and/or CNF instance
//! (level depth, fanout and frontier-cut distributions, XOR/carry-chain
//! and multiplier-grid detection, variable-incidence-graph statistics,
//! block-modularity proxy), folds it into a deterministic hardness
//! score in `[0, 1]`, classifies the instance, and prints the advisory
//! `AN` diagnostics registered in `lint::REGISTRY` (`rplint --list`
//! shows the family). The same analysis annotates `rplint` bundles.
//!
//! The artifact kind is inferred from the extension (`.cnf`/`.dimacs` →
//! CNF, anything else → AIGER) unless `--kind` overrides it.
//!
//! **Bundle mode.** When the files span both kinds — one AIG plus one
//! CNF — they are analyzed as *one instance* and produce a single
//! combined report, mirroring `rplint`'s bundle treatment.
//!
//! **Miter mode.** `--miter` takes exactly two AIGs, builds the shared
//! miter the sweeping engine would build, and analyzes that — the
//! instance the engine actually sweeps.
//!
//! `--json` prints one `analysis-v1` JSON object per report; `--quiet`
//! suppresses text output for clean instances (score ≤ the AN008
//! threshold and no warnings).
//!
//! Exit codes: 0 analyzed, 2 usage or I/O error. The score is advisory,
//! so hard instances do not change the exit code.

use analysis::HardnessReport;
use cec_tools::{exit, read_aig, Args};
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("ranalyze: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Aig,
    Cnf,
}

fn kind_of(path: &str, forced: Option<Kind>) -> Kind {
    if let Some(k) = forced {
        return k;
    }
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".cnf") || lower.ends_with(".dimacs") {
        Kind::Cnf
    } else {
        Kind::Aig
    }
}

fn read_cnf(path: &str) -> Result<cnf::Cnf, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    cnf::dimacs::read(&mut BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn print_report(args: &Args, label: Option<&str>, report: &HardnessReport) -> Result<(), String> {
    if args.has("json") {
        println!("{}", report.to_json());
        return Ok(());
    }
    if args.has("quiet") && report.diagnostics().counts().warnings == 0 {
        return Ok(());
    }
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    if let Some(label) = label {
        writeln!(w, "{label}:").map_err(|e| e.to_string())?;
    }
    report.write_text(&mut w).map_err(|e| e.to_string())
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &["kind", "miter", "json", "quiet"],
    )
    .map_err(|e| e.to_string())?;
    if args.positional.is_empty() {
        return Err(
            "usage: ranalyze FILE... [--kind=aig|cnf] [--json] [--quiet] | \
             ranalyze A.aag B.aag --miter [--json]"
                .into(),
        );
    }
    let forced = match args.value("kind") {
        None => None,
        Some("aig") => Some(Kind::Aig),
        Some("cnf") => Some(Kind::Cnf),
        Some(other) => return Err(format!("unknown kind `{other}` (aig|cnf)")),
    };

    if args.has("miter") {
        if args.positional.len() != 2 {
            return Err("--miter takes exactly two AIG files".into());
        }
        let a = read_aig(&args.positional[0])?;
        let b = read_aig(&args.positional[1])?;
        let miter = cec::Miter::build(&a, &b, true);
        let formula = cec::miter_cnf(&miter);
        let report = HardnessReport::of(Some(&miter.graph), Some(&formula));
        print_report(&args, None, &report)?;
        return Ok(exit::OK);
    }

    let kinds: Vec<Kind> = args.positional.iter().map(|p| kind_of(p, forced)).collect();
    let aigs = kinds.iter().filter(|&&k| k == Kind::Aig).count();
    let cnfs = kinds.iter().filter(|&&k| k == Kind::Cnf).count();

    // One AIG plus one CNF form a single instance: a combined report.
    if aigs == 1 && cnfs == 1 {
        let mut g = None;
        let mut f = None;
        for (path, &kind) in args.positional.iter().zip(&kinds) {
            match kind {
                Kind::Aig => g = Some(read_aig(path)?),
                Kind::Cnf => f = Some(read_cnf(path)?),
            }
        }
        let report = HardnessReport::of(g.as_ref(), f.as_ref());
        print_report(&args, None, &report)?;
        return Ok(exit::OK);
    }

    let many = args.positional.len() > 1;
    for (path, &kind) in args.positional.iter().zip(&kinds) {
        let report = match kind {
            Kind::Aig => HardnessReport::of_aig(&read_aig(path)?),
            Kind::Cnf => HardnessReport::of_cnf(&read_cnf(path)?),
        };
        print_report(&args, many.then_some(path.as_str()), &report)?;
    }
    Ok(exit::OK)
}
