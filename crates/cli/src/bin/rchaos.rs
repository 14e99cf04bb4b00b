//! `rchaos` — the adversarial durability harness on the command line.
//!
//! ```text
//! rchaos gen     --dir=D --pair=NAME [--width=W]
//! rchaos prove   --dir=D [--seed=N] [--resume]
//!                [--crash=PHASE] [--abort-at=PHASE]
//! rchaos check   --dir=D [--fast] [--json]
//! rchaos corrupt --dir=D --artifact=FILE --mode=flip|multiflip|truncate|torn-record
//!                [--seed=N]
//! rchaos run     --dir=D [--seed=N] [--ops=N] [--crash-every=N] [--keep]
//! rchaos pairs
//! ```
//!
//! `gen` writes an equivalent circuit pair (`a.aag`, `b.aag`) into a
//! bundle directory; `prove` runs one journaled engine check over it
//! and emits the full artifact bundle plus manifest. `--crash` injects
//! a typed in-process crash at the named phase checkpoint (`miter`,
//! `sim`, `sweep`, `final_solve` or `trim`; each checkpoints once);
//! `--abort-at` is the kill-9 variant — the process dies with SIGABRT
//! and the synced journal is what survives. Either way,
//! `prove --resume` validates the journal and continues to the same
//! verdict, proof, and journal bytes an uninterrupted run produces.
//!
//! `corrupt` applies one seeded fault to a named artifact; `check` is
//! the paired adversarial checker — it verifies every manifest
//! fingerprint, re-parses and lints each artifact, and cross-links
//! proof, CNF, certificate, and journal verdict. `run` executes a
//! randomized workload stream of generate → prove → check → mutate →
//! re-prove ops (see `chaos::run_workload`).
//!
//! Exit codes: `prove` 0 equivalent / 1 inequivalent; `check` 0 clean /
//! 1 rejected; `run` 0 all ops clean / 1 failures; anything else
//! (usage, I/O, injected crash) 2.

use cec_tools::{exit, read_aig, Args};
use chaos::{check_bundle, corrupt, prove_and_emit, BundlePaths, FaultMode};
use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rchaos: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

const USAGE: &str = "usage: rchaos gen|prove|check|corrupt|run|pairs --dir=D [options] \
                     (see --help of the crate docs)";

fn parse_u64(args: &Args, name: &str, default: u64) -> Result<u64, String> {
    match args.value(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name}={v}")),
    }
}

fn dir_of(args: &Args) -> Result<BundlePaths, String> {
    args.value("dir")
        .map(BundlePaths::new)
        .ok_or_else(|| "missing --dir=DIR".into())
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "dir",
            "pair",
            "width",
            "seed",
            "resume",
            "crash",
            "abort-at",
            "fast",
            "json",
            "artifact",
            "mode",
            "ops",
            "crash-every",
            "keep",
        ],
    )
    .map_err(|e| e.to_string())?;
    let Some(cmd) = args.positional.first() else {
        return Err(USAGE.into());
    };
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "prove" => cmd_prove(&args),
        "check" => cmd_check(&args),
        "corrupt" => cmd_corrupt(&args),
        "run" => cmd_run(&args),
        "pairs" => {
            for name in chaos::PAIR_NAMES {
                println!("{name}");
            }
            Ok(exit::OK)
        }
        other => Err(format!("unknown subcommand `{other}`; {USAGE}")),
    }
}

fn cmd_gen(args: &Args) -> Result<i32, String> {
    let paths = dir_of(args)?;
    let pair = args.value("pair").ok_or("missing --pair=NAME")?;
    let width = parse_u64(args, "width", 4)? as usize;
    let (a, b) = chaos::generate_pair(pair, width)
        .ok_or_else(|| format!("unknown pair `{pair}` (try `rchaos pairs`)"))?;
    fs::create_dir_all(&paths.dir).map_err(|e| format!("{}: {e}", paths.dir.display()))?;
    let write = |path: &std::path::Path, g: &aig::Aig| -> Result<(), String> {
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(g, &mut bytes).expect("write to Vec cannot fail");
        fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&paths.a(), &a)?;
    write(&paths.b(), &b)?;
    println!(
        "generated {pair} pair ({} inputs, {} outputs) in {}",
        a.num_inputs(),
        a.num_outputs(),
        paths.dir.display()
    );
    Ok(exit::OK)
}

fn read_pair(paths: &BundlePaths) -> Result<(aig::Aig, aig::Aig), String> {
    Ok((read_aig(paths.a())?, read_aig(paths.b())?))
}

fn cmd_prove(args: &Args) -> Result<i32, String> {
    let paths = dir_of(args)?;
    let (a, b) = read_pair(&paths)?;
    let config = cec::EngineConfig {
        seed: parse_u64(args, "seed", 1)?,
        ..cec::EngineConfig::default()
    };
    let crash = match (args.value("crash"), args.value("abort-at")) {
        (Some(_), Some(_)) => {
            return Err("--crash and --abort-at are mutually exclusive".into());
        }
        (Some(spec), None) => Some(cec::CrashPoint::parse(spec, cec::CrashMode::Error)?),
        (None, Some(spec)) => Some(cec::CrashPoint::parse(spec, cec::CrashMode::Abort)?),
        (None, None) => None,
    };
    let outcome = prove_and_emit(&paths.dir, &a, &b, &config, crash, args.has("resume"))
        .map_err(|e| e.to_string())?;
    if outcome.is_equivalent() {
        println!("EQUIVALENT");
        Ok(exit::OK)
    } else {
        println!("NOT EQUIVALENT");
        Ok(exit::NEGATIVE)
    }
}

fn cmd_check(args: &Args) -> Result<i32, String> {
    let paths = dir_of(args)?;
    let opts = if args.has("fast") {
        lint::LintOptions::structural()
    } else {
        lint::LintOptions::default()
    };
    let report = check_bundle(&paths.dir, &opts);
    if args.has("json") {
        println!("{}", report.to_json());
    } else {
        let stdout = std::io::stdout();
        let mut w = stdout.lock();
        report.write_text(&mut w).map_err(|e| e.to_string())?;
    }
    Ok(if report.is_clean() {
        exit::OK
    } else {
        exit::NEGATIVE
    })
}

fn cmd_corrupt(args: &Args) -> Result<i32, String> {
    let paths = dir_of(args)?;
    let artifact = args.value("artifact").ok_or("missing --artifact=FILE")?;
    if !chaos::ARTIFACTS.contains(&artifact) && artifact != chaos::MANIFEST {
        return Err(format!(
            "unknown artifact `{artifact}` (one of {}, {})",
            chaos::ARTIFACTS.join(", "),
            chaos::MANIFEST
        ));
    }
    let mode = args
        .value("mode")
        .ok_or("missing --mode=flip|multiflip|truncate|torn-record")?;
    let mode = FaultMode::parse(mode)
        .ok_or_else(|| format!("unknown mode `{mode}` (flip|multiflip|truncate|torn-record)"))?;
    let seed = parse_u64(args, "seed", 1)?;
    let path = paths.file(artifact);
    let mut bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let what = corrupt(&mut bytes, mode, seed);
    fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{artifact}: {what}");
    Ok(exit::OK)
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    let paths = dir_of(args)?;
    let options = chaos::WorkloadOptions {
        seed: parse_u64(args, "seed", 1)?,
        ops: parse_u64(args, "ops", 10)? as usize,
        crash_every: parse_u64(args, "crash-every", 0)? as usize,
        keep: args.has("keep"),
    };
    fs::create_dir_all(&paths.dir).map_err(|e| format!("{}: {e}", paths.dir.display()))?;
    let report = chaos::run_workload(&paths.dir, &options);
    println!(
        "{} ops: {} equivalent, {} inequivalent, {} crashes resumed, {} failures",
        report.ops,
        report.equivalent,
        report.inequivalent,
        report.crashes,
        report.failures.len()
    );
    for f in &report.failures {
        eprintln!("FAIL: {f}");
    }
    Ok(if report.is_clean() {
        exit::OK
    } else {
        exit::NEGATIVE
    })
}
