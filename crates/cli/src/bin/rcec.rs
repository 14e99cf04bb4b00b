//! `rcec` — proof-producing combinational equivalence checker.
//!
//! ```text
//! rcec A.aag B.aag [--monolithic] [--bdd] [--no-struct] [--no-share]
//!      [--no-sweep] [--limit=N] [--threads=N] [--pairs-per-worker=N]
//!      [--engine=static|adaptive] [--share-learnts]
//!      [--proof=FILE] [--trim] [--lint-proof] [--lint-bundle]
//!      [--emit-miter=FILE] [--emit-cnf=FILE] [--emit-cert=FILE]
//!      [--trace-out=FILE] [--trace-chrome=FILE] [--stats-json=FILE]
//!      [--metrics-out=FILE] [--metrics-period-ms=N] [--metrics-status[=FILE]]
//!      [--check] [--verbose] [--quiet]
//! rcec query ADDR A.aag B.aag [--proof=FILE] [--quiet]
//! ```
//!
//! `--threads=N` shards the sweeping phase over `N` worker threads with
//! private incremental solvers; the workers' derivations are stitched
//! back into one global proof, deterministically for a given seed and
//! thread count. `--pairs-per-worker=N` pins each round's window of
//! candidate pairs per worker; by default the window is auto-tuned
//! between rounds from the observed per-worker conflict imbalance.
//! `--share-learnts` additionally publishes each worker's learnt
//! clauses through the clause feed so sibling workers can import them;
//! every imported clause is re-derived into the importer's local proof,
//! so the stitched global proof stays self-contained (this changes
//! which conflicts each worker sees, so proof *bytes* differ from the
//! unshared schedule — verdicts and checkability do not).
//!
//! `rcec query` is the client mode: instead of proving locally it sends
//! the pair to a running `rcecd` daemon (see `rcecd --help`) and prints
//! the verdict the same way — exit 0 equivalent, 1 inequivalent,
//! 2 error. `--proof=FILE` saves the returned TraceCheck certificate;
//! whether the answer was a certificate-cache hit is noted on stderr.
//!
//! `--engine=adaptive` turns on per-pair dispatch driven by the static
//! hardness analysis (crate `analysis`, also exposed as `ranalyze`):
//! small easy pairs get a BDD probe first, every sweeping SAT call gets
//! a conflict budget scaled by the pair's structural score, and
//! over-budget pairs are deferred to a hard queue retried at the end.
//! Verdicts and certified proofs are identical to the default static
//! schedule; per-engine dispatch counts land in `--stats-json`.
//!
//! `--lint-proof` runs the static-analysis lint pass over the recorded
//! proof (including the parallel mode's stitch-boundary consistency
//! check) and prints its report — far cheaper than `--check`'s full
//! replay. Lint *errors* fail the run with exit 2. `--lint-bundle`
//! extends the pass across artifacts: the engine re-derives its own
//! miter CNF and statically checks AIG↔CNF↔proof↔certificate binding
//! (the `XB` lint family).
//!
//! `--emit-miter`/`--emit-cnf`/`--emit-cert` export the miter graph
//! (ASCII AIGER), its Tseitin CNF (DIMACS), and the certificate
//! metadata, so a third party can re-run the same bundle analysis with
//! `rplint miter.aag miter.cnf proof.tc cert.cert`. With `--trim` the
//! emitted certificate describes the trimmed proof (stitch boundaries,
//! which index the untrimmed stitching layout, are omitted).
//!
//! `--trace-out=FILE` writes the run's event journal as JSON Lines
//! (one object per line); `--trace-chrome=FILE` writes the same events
//! in Chrome `trace_event` format, loadable in `chrome://tracing` or
//! Perfetto, with the coordinator and each sweeping worker on its own
//! timeline row. `--stats-json=FILE` dumps the full machine-readable
//! stats tree (counters, per-phase wall-clock breakdown, per-SAT-call
//! conflict and per-lemma chain-length histograms, solver / proof /
//! lint counters, per-worker stats). `--verbose` prints the phase
//! breakdown and histograms on stderr.
//!
//! `--metrics-out=FILE` attaches a live metrics registry and a
//! background sampler that appends one `metrics-v1` snapshot (engine
//! counters, queue-depth gauges, per-worker rates, process RSS) to
//! FILE as JSON Lines every `--metrics-period-ms` (default 100), plus
//! a final snapshot at shutdown — the time-series view of a run, where
//! `--stats-json` is the post-mortem. `--metrics-status` renders the
//! same samples as one compact `key=value` line per period instead —
//! to stderr when bare, to a `tail -f`-able FILE with
//! `--metrics-status=FILE`; both formats can be active at once. Metric
//! names are listed in DESIGN.md.
//!
//! `--bdd` uses the canonical-form ROBDD baseline: fastest on small
//! structured circuits, but produces no proof and may answer UNDECIDED
//! (exit 2) on diagram blow-up.
//!
//! Exit codes: 0 equivalent, 1 inequivalent (counterexample printed),
//! 2 error.

use cec::bdd_baseline::{prove_bdd, BddOptions, BddVerdict};
use cec::monolithic::{prove_monolithic, MonolithicOptions};
use cec::{CecOutcome, EngineConfig, Session, SharedContext};
use cec_tools::{exit, trace, Args};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rcec: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "bdd",
            "monolithic",
            "no-struct",
            "no-share",
            "no-sweep",
            "limit",
            "threads",
            "pairs-per-worker",
            "engine",
            "share-learnts",
            "proof",
            "trim",
            "lint-proof",
            "lint-bundle",
            "emit-miter",
            "emit-cnf",
            "emit-cert",
            "trace-out",
            "trace-chrome",
            "stats-json",
            "metrics-out",
            "metrics-period-ms",
            "metrics-status",
            "check",
            "verbose",
            "quiet",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.positional.first().map(String::as_str) == Some("query") {
        return run_query(&args);
    }
    if args.positional.len() != 2 {
        return Err(
            "usage: rcec A.aag B.aag [--monolithic] [--no-struct] [--no-share] \
                    [--no-sweep] [--limit=N] [--threads=N] [--pairs-per-worker=N] \
                    [--engine=static|adaptive] [--share-learnts] \
                    [--proof=FILE] [--trim] [--lint-proof] [--lint-bundle] \
                    [--emit-miter=FILE] [--emit-cnf=FILE] [--emit-cert=FILE] \
                    [--trace-out=FILE] [--trace-chrome=FILE] [--stats-json=FILE] \
                    [--metrics-out=FILE] [--metrics-period-ms=N] [--metrics-status[=FILE]] \
                    [--check] [--verbose] [--quiet]\n       \
             rcec query ADDR A.aag B.aag [--proof=FILE] [--quiet]"
                .into(),
        );
    }
    let bundle_flags = args.has("lint-bundle")
        || args.value("emit-miter").is_some()
        || args.value("emit-cnf").is_some()
        || args.value("emit-cert").is_some();
    if bundle_flags && (args.has("bdd") || args.has("monolithic")) {
        return Err("--lint-bundle/--emit-* need the sweeping engine's miter; \
             they cannot combine with --bdd or --monolithic"
            .into());
    }
    let trace_flags = args.value("trace-out").is_some()
        || args.value("trace-chrome").is_some()
        || args.value("stats-json").is_some()
        || args.value("metrics-out").is_some()
        || args.has("metrics-status");
    if trace_flags && args.has("bdd") {
        return Err(
            "--trace-out/--trace-chrome/--stats-json/--metrics-out need the \
             SAT-based engines; they cannot combine with --bdd"
                .into(),
        );
    }
    let quiet = args.has("quiet");
    let verbose = args.has("verbose");
    let recorder = trace::recorder_for(&args);
    let (metrics, samplers) = trace::metrics_for(&args)?;
    let read = |path: &str| -> Result<aig::Aig, String> {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        aig::aiger::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
    };
    let a = read(&args.positional[0])?;
    let b = read(&args.positional[1])?;

    if args.has("bdd") {
        let verdict = prove_bdd(&a, &b, &BddOptions::default()).map_err(|e| e.to_string())?;
        return match verdict {
            BddVerdict::Equivalent { nodes, elapsed } => {
                if !quiet {
                    eprintln!("bdd: {nodes} nodes in {elapsed:?} (no proof available)");
                }
                println!("EQUIVALENT");
                Ok(exit::OK)
            }
            BddVerdict::Inequivalent { counterexample, .. } => {
                println!("INEQUIVALENT");
                let bits: String = counterexample
                    .pattern
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                println!("input  (lsb first): {bits}");
                Ok(exit::NEGATIVE)
            }
            BddVerdict::Overflow(e) => Err(format!("undecided: {e}")),
        };
    }

    let outcome = if args.has("monolithic") {
        prove_monolithic(
            &a,
            &b,
            &MonolithicOptions {
                lint_proof: args.has("lint-proof"),
                verify: args.has("check"),
                recorder: recorder.clone(),
                ..MonolithicOptions::default()
            },
        )
    } else {
        let mut config = EngineConfig {
            structural_merging: !args.has("no-struct"),
            share_structure: !args.has("no-share"),
            sweep: !args.has("no-sweep"),
            lint_proof: args.has("lint-proof"),
            lint_bundle: args.has("lint-bundle"),
            verify: args.has("check"),
            ..EngineConfig::default()
        };
        cec_tools::apply_engine_flags(&args, &mut config)?;
        let ctx = SharedContext::new(recorder.clone(), metrics.clone());
        Session::new(config, &ctx).check(&a, &b)
    }
    .map_err(|e| e.to_string())?;

    for sampler in samplers {
        let lines = sampler.stop().map_err(|e| format!("metrics: {e}"))?;
        if !quiet {
            eprintln!("metrics: {lines} snapshots");
        }
    }
    trace::write_trace_files(&recorder, &args)?;
    {
        let stats = match &outcome {
            CecOutcome::Equivalent(cert) => &cert.stats,
            CecOutcome::Inequivalent { stats, .. } => stats,
        };
        if let Some(path) = args.value("stats-json") {
            trace::write_json_file(path, &stats.to_json())?;
        }
        if verbose {
            eprintln!("phases: {}", stats.phases);
            eprintln!("sat-call conflicts: {}", stats.sat_conflict_hist);
            eprintln!("lemma chain lengths: {}", stats.lemma_chain_hist);
        }
    }

    match outcome {
        CecOutcome::Equivalent(cert) => {
            if !quiet {
                eprintln!("EQUIVALENT ({})", cert.stats);
                for (i, w) in cert.stats.workers.iter().enumerate() {
                    eprintln!("worker {i}: {w}");
                }
            }
            if let Some(report) = &cert.lint_report {
                let stderr = std::io::stderr();
                let mut w = stderr.lock();
                report.write_text(&mut w).map_err(|e| e.to_string())?;
                if !report.is_clean() {
                    return Err(format!("proof lint failed: {}", report.counts()));
                }
            }
            let trimmed = if args.has("trim") {
                cert.proof.as_ref().map(proof::trim_refutation)
            } else {
                None
            };
            if let Some(path) = args.value("proof") {
                let p = cert
                    .proof
                    .as_ref()
                    .ok_or("no proof recorded (internal error)")?;
                let to_write = trimmed.as_ref().map_or(p, |t| &t.proof);
                let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                let mut w = BufWriter::new(f);
                proof::export::write_tracecheck(to_write, &mut w)
                    .and_then(|()| w.flush())
                    .map_err(|e| format!("{path}: {e}"))?;
                if !quiet {
                    eprintln!("proof written to {path} ({} steps)", to_write.len());
                }
            }
            if args.value("emit-miter").is_some() || args.value("emit-cnf").is_some() {
                // The identical deterministic construction the prover ran.
                let miter = cec::Miter::build(&a, &b, !args.has("no-share"));
                if let Some(path) = args.value("emit-miter") {
                    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                    let mut w = BufWriter::new(f);
                    aig::aiger::write_ascii(&miter.graph, &mut w)
                        .and_then(|()| w.flush())
                        .map_err(|e| format!("{path}: {e}"))?;
                }
                if let Some(path) = args.value("emit-cnf") {
                    let formula = cec::miter_cnf(&miter);
                    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                    let mut w = BufWriter::new(f);
                    cnf::dimacs::write(&formula, &mut w)
                        .and_then(|()| w.flush())
                        .map_err(|e| format!("{path}: {e}"))?;
                }
            }
            if let Some(path) = args.value("emit-cert") {
                let info = match &trimmed {
                    Some(t) => lint::CertificateInfo {
                        empty_clause: Some(t.root.index()),
                        original: Some(t.proof.num_original()),
                        derived: Some(t.proof.num_derived()),
                        resolutions: Some(t.proof.num_resolutions()),
                        ..lint::CertificateInfo::default()
                    },
                    None => cert.info(),
                };
                let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                let mut w = BufWriter::new(f);
                info.write(&mut w)
                    .and_then(|()| w.flush())
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            println!("EQUIVALENT");
            Ok(exit::OK)
        }
        CecOutcome::Inequivalent {
            counterexample,
            stats,
        } => {
            if !quiet {
                for (i, w) in stats.workers.iter().enumerate() {
                    eprintln!("worker {i}: {w}");
                }
            }
            println!("INEQUIVALENT");
            let bits: String = counterexample
                .pattern
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            println!("input  (lsb first): {bits}");
            let show =
                |o: &[bool]| -> String { o.iter().map(|&b| if b { '1' } else { '0' }).collect() };
            println!("outputs A: {}", show(&counterexample.outputs_a));
            println!("outputs B: {}", show(&counterexample.outputs_b));
            Ok(exit::NEGATIVE)
        }
    }
}

/// `rcec query ADDR A.aag B.aag`: send the pair to a running `rcecd`
/// and print the verdict with the local tool's conventions.
fn run_query(args: &Args) -> Result<i32, String> {
    let [_, addr, path_a, path_b] = args.positional.as_slice() else {
        return Err("usage: rcec query ADDR A.aag B.aag [--proof=FILE] [--quiet]".into());
    };
    let quiet = args.has("quiet");
    let read = |path: &str| -> Result<aig::Aig, String> {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        aig::aiger::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
    };
    let a = read(path_a)?;
    let b = read(path_b)?;
    let mut client = serve::Client::connect(addr)?;
    let reply = client.check(&a, &b)?;
    if !quiet {
        eprintln!(
            "rcecd {}: cache {} in {} us",
            addr,
            if reply.cache_hit { "hit" } else { "miss" },
            reply.elapsed_us
        );
    }
    if reply.equivalent {
        if let Some(path) = args.value("proof") {
            let cert = reply
                .certificate
                .as_deref()
                .ok_or("daemon reply carried no certificate")?;
            let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = BufWriter::new(f);
            w.write_all(cert.as_bytes())
                .and_then(|()| w.flush())
                .map_err(|e| format!("{path}: {e}"))?;
            if !quiet {
                eprintln!("proof written to {path}");
            }
        }
        println!("EQUIVALENT");
        Ok(exit::OK)
    } else {
        println!("INEQUIVALENT");
        let bits = reply.pattern.as_deref().unwrap_or("");
        println!("input  (lsb first): {bits}");
        Ok(exit::NEGATIVE)
    }
}
