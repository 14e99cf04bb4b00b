//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --state-dir DIR [--rev REV]
//! ```
//!
//! With `--trace 0` it sets the workload up five times, runs its timed
//! closed loop for `S` seconds of verdict time, certifies every verdict
//! outside the timed region, and reports `setup_s`,
//! `checks_per_cpu_s_best`, `verdict_cpu_ms_p50_best`,
//! `verdict_cpu_ms_p95_best` and `peak_rss_mb` (the times are process CPU
//! times, see `run::cpu_now`, and each pair counts with its best time over
//! the passes, see `report::end_to_end`). With `--trace 1`
//! it reports the per-layer metrics instead (see `layers`). The last
//! line of standard output is the result as one JSON object.
//!
//! `DIR` keeps the determinism gate's counts between runs of the same
//! build, and the recorded spans of traced runs.

mod gate;
mod layers;
mod pairs;
mod report;
mod run;
mod trace;

use gate::Gate;
use pairs::Workload;
use report::Report;
use run::{Prepared, SETUP_REPS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload {name:?}; one of {}",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        state_dir: PathBuf::from(value("--state-dir")?),
        rev: value("--rev").unwrap_or("unknown").to_string(),
    })
}

fn census(args: &Args) {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={cpus} cpu=\"{model}\" profile={profile} rev={} workload={} seed={} seconds={} trace={}",
        args.rev,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// The untraced run: the end-to-end metrics.
fn measure(args: &Args, gate: &mut Gate) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_wall_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        if let Some(Prepared::Serve { daemon, .. }) = prepared.take() {
            daemon.stop()?;
        }
        let (t0, c0) = (Instant::now(), run::cpu_now());
        prepared = Some(run::setup(args.workload, args.seed, gate)?);
        setup_s.push((run::cpu_now() - c0).as_secs_f64());
        setup_wall_s.push(t0.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("set up at least once");
    let reps: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-ups (CPU s): {}", reps.join(" "));
    let verdicts = run::timed_loop(
        &mut prepared,
        args.seconds,
        run::MIN_VERDICTS,
        &Tracer::new(false),
        gate,
    );
    if let Prepared::Serve { daemon, .. } = prepared {
        daemon.stop()?;
    }
    let hits = verdicts
        .samples
        .iter()
        .filter(|s| s.serve.is_some_and(|sv| sv.cache_hit))
        .count();
    if hits > 0 {
        println!("cache hits: {hits}/{}", verdicts.samples.len());
    }
    let sheet = report::end_to_end(&verdicts, &setup_s, &setup_wall_s, report::peak_rss_mb());
    Ok(Report {
        attempted: verdicts.attempted,
        failures: verdicts.failures,
        sheet,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    census(&args);
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: {}: {e}", args.state_dir.display());
        return ExitCode::from(2);
    }
    let name = args.workload.name();
    // Counts are compared only between runs of the same executable (by
    // size and modification time): a rebuilt engine may legitimately
    // search differently.
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_or(0, |m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            obs::hash::fnv1a64(format!("{} {mtime}", m.len()).as_bytes())
        });
    let counts = args
        .state_dir
        .join(format!("counts-{name}-{build:016x}.txt"));
    let result = Gate::load(counts).and_then(|mut gate| {
        let mut report = if args.trace {
            let trace_out = args
                .state_dir
                .join(format!("trace-{name}-{}.json", args.seed));
            layers::traced(
                args.workload,
                args.seed,
                args.seconds,
                &mut gate,
                &trace_out,
            )?
        } else {
            measure(&args, &mut gate)?
        };
        if let Err(e) = gate.save() {
            report.failures.push(e);
        }
        Ok(report)
    });
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
