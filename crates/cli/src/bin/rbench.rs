//! `rbench` — ramping-load throughput observatory.
//!
//! ```text
//! rbench run WORKLOAD.toml [--daemon=ADDR] [--out=FILE] [--date=YYYY-MM-DD] [--zoo] [--quiet]
//! rbench snapshot [--out=FILE] [--date=YYYY-MM-DD] [--quiet]
//! rbench compare OLD.json NEW.json [--threshold=FRAC]
//! rbench report FILE.json [--out=FILE]
//! ```
//!
//! `run` reads a workload description (TOML subset or JSON; see crate
//! `loadgen`) and drives the engine with a rising stream of
//! equivalence-check requests per scenario × thread count: starting at
//! `initial_rps`, climbing by `increment_rps` per step, each step
//! passing or failing on the configured failure-rate and p95-latency
//! criteria (latency is measured from each request's *scheduled*
//! arrival, so queueing delay counts). The result is a `bench-v2`
//! document — a strict superset of `bench-v1` — with each cell's
//! step-by-step trajectory, its **max sustainable rate**, and one
//! embedded `metrics-v1` snapshot per step. `--zoo` additionally runs
//! the classic t7 single-run zoo into the `runs` array.
//!
//! Scenarios marked `daemon = true` in the workload are driven over TCP
//! against a `rcecd` service instead of in-process: each serving thread
//! holds one connection, latencies include the socket round trip, and
//! step results gain `cache_hits` / `cache_hit_rate` columns plus
//! server-side metrics snapshots. `--daemon=ADDR` points them at an
//! external daemon; without it `rbench` starts an in-process one on a
//! loopback port for the duration of the run.
//!
//! `snapshot` is the `bench-v1`-compatible zoo snapshot: the t7
//! mixed-hardness zoo, one cell per pair (7 cells, each labelled engine
//! `static` and threads 1), run in-process with the host census taken from
//! `std::thread::available_parallelism` (the old Python fold-up
//! recorded the sandboxed interpreter's `os.cpu_count()`, which is how
//! the seeded snapshot came to claim `"cpus": 1`).
//!
//! `compare` diffs two trajectories (`bench-v1` or `bench-v2`, mixed
//! freely): run cells on `stats.elapsed_us`, scenario cells on
//! `max_sustainable_rps`. A cell worse by more than `--threshold`
//! (default 0.25 = 25 %) fails the gate; a latency's change is taken
//! over the old value and a rate's over the new one, so a 100x
//! slowdown and a 100x rate drop both read -9900 %. New/removed cells are
//! reported but never fail. Exit codes: 0 gate passes, 1 regression,
//! 2 malformed input — so CI can tell "slower" from "broken".
//!
//! `report` renders a trajectory as a markdown summary.

use cec_tools::{exit, trace, Args};
use obs::json::Value;
use std::fs;
use std::process::ExitCode;

const USAGE: &str =
    "usage: rbench run WORKLOAD [--daemon=ADDR] [--out=FILE] [--date=YYYY-MM-DD] [--zoo] [--quiet]
       rbench snapshot [--out=FILE] [--date=YYYY-MM-DD] [--quiet]
       rbench compare OLD.json NEW.json [--threshold=FRAC]
       rbench report FILE.json [--out=FILE]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("rbench: {msg}");
            ExitCode::from(exit::ERROR as u8)
        }
    }
}

fn run() -> Result<i32, String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &["out", "date", "zoo", "quiet", "threshold", "daemon"],
    )
    .map_err(|e| e.to_string())?;
    let sub = args.positional.first().map(String::as_str);
    match sub {
        Some("run") => cmd_run(&args),
        Some("snapshot") => cmd_snapshot(&args),
        Some("compare") => cmd_compare(&args),
        Some("report") => cmd_report(&args),
        _ => Err(USAGE.into()),
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn date_for(args: &Args) -> String {
    args.value("date")
        .map_or_else(loadgen::utc_date, str::to_string)
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    let [_, workload_path] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let quiet = args.has("quiet");
    let text = fs::read_to_string(workload_path).map_err(|e| format!("{workload_path}: {e}"))?;
    let workload = loadgen::Workload::parse(&text)?;
    let mut daemon = DaemonHandle::new(args.value("daemon"));

    let mut scenarios = Vec::new();
    for scenario in &workload.scenarios {
        for &threads in &scenario.threads {
            if !quiet {
                eprintln!(
                    "ramping {} t{threads}{} ...",
                    scenario.name,
                    if scenario.daemon { " (daemon)" } else { "" }
                );
            }
            let mut on_step = |s: &loadgen::StepResult| {
                if !quiet {
                    let hits = s.cache_hits.map_or(String::new(), |h| {
                        format!(", {h}/{} cache hits", s.requests)
                    });
                    eprintln!(
                        "  {:>7.1} rps: {}/{} ok, p95 {:.1} ms{hits} -> {}",
                        s.rps,
                        s.completed,
                        s.requests,
                        s.p95_us as f64 / 1000.0,
                        if s.passed { "pass" } else { "FAIL" }
                    );
                }
            };
            let cell = if scenario.daemon {
                let addr = daemon.addr(quiet)?;
                loadgen::run_scenario_daemon(scenario, threads, &workload.ramp, addr, &mut on_step)?
            } else {
                loadgen::run_scenario(scenario, threads, &workload.ramp, &mut on_step)
            };
            if !quiet {
                eprintln!(
                    "  max sustainable: {:.1} rps over {} steps",
                    cell.max_sustainable_rps,
                    cell.steps.len()
                );
            }
            scenarios.push(cell.to_json());
        }
    }
    daemon.stop();
    let runs = if args.has("zoo") {
        snapshot_zoo(quiet)
    } else {
        Vec::new()
    };
    let doc = loadgen::bench_doc(&date_for(args), &workload.name, runs, scenarios);
    emit(args, &doc, quiet)?;
    Ok(exit::OK)
}

/// The `rcecd` behind daemon-backed scenarios: an external address from
/// `--daemon=ADDR`, or an in-process server started lazily on loopback
/// the first time a scenario needs one (and shut down afterwards) so
/// `rbench run` exercises the real network path out of the box.
struct DaemonHandle {
    external: Option<String>,
    local: Option<(String, std::thread::JoinHandle<()>)>,
}

impl DaemonHandle {
    fn new(external: Option<&str>) -> DaemonHandle {
        DaemonHandle {
            external: external.map(str::to_string),
            local: None,
        }
    }

    fn addr(&mut self, quiet: bool) -> Result<&str, String> {
        if let Some(addr) = &self.external {
            return Ok(addr);
        }
        if self.local.is_none() {
            let server = serve::Server::bind(serve::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                metrics: obs::metrics::Metrics::new(),
                ..serve::ServerConfig::default()
            })
            .map_err(|e| format!("in-process rcecd: {e}"))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
            let handle = std::thread::spawn(move || {
                let _ = server.run();
            });
            if !quiet {
                eprintln!("started in-process rcecd on {addr} (use --daemon=ADDR to override)");
            }
            self.local = Some((addr, handle));
        }
        Ok(&self.local.as_ref().expect("just started").0)
    }

    fn stop(&mut self) {
        if let Some((addr, handle)) = self.local.take() {
            if let Ok(mut client) = serve::Client::connect(&addr) {
                let _ = client.shutdown();
            }
            let _ = handle.join();
        }
    }
}

fn cmd_snapshot(args: &Args) -> Result<i32, String> {
    if args.positional.len() != 1 {
        return Err(USAGE.into());
    }
    let quiet = args.has("quiet");
    let date = date_for(args);
    let runs = loadgen::snapshot_runs(&mut |label| {
        if !quiet {
            eprintln!("zoo: {label}");
        }
    });
    let n = runs.len();
    let doc = loadgen::bench_doc(&date, "t7-mixed-zoo", runs, Vec::new());
    let default_out = format!("BENCH_{date}.json");
    let out = args.value("out").unwrap_or(&default_out);
    trace::write_json_file(out, &doc)?;
    if !quiet {
        eprintln!("{out}: {n} runs");
    }
    Ok(exit::OK)
}

fn snapshot_zoo(quiet: bool) -> Vec<Value> {
    loadgen::snapshot_runs(&mut |label| {
        if !quiet {
            eprintln!("zoo: {label}");
        }
    })
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    let [_, old_path, new_path] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let threshold: f64 = match args.value("threshold") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--threshold: bad fraction `{v}`"))?,
        None => 0.25,
    };
    let old = read_json(old_path)?;
    let new = read_json(new_path)?;
    let report = loadgen::compare(&old, &new, threshold)?;
    print!("{report}");
    Ok(if report.gate_passes() {
        exit::OK
    } else {
        exit::NEGATIVE
    })
}

fn cmd_report(args: &Args) -> Result<i32, String> {
    let [_, path] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let doc = read_json(path)?;
    let md = loadgen::report::markdown(&doc)?;
    match args.value("out") {
        Some(out) => fs::write(out, &md).map_err(|e| format!("{out}: {e}"))?,
        None => print!("{md}"),
    }
    Ok(exit::OK)
}

fn emit(args: &Args, doc: &Value, quiet: bool) -> Result<(), String> {
    match args.value("out") {
        Some(out) => {
            trace::write_json_file(out, doc)?;
            if !quiet {
                eprintln!("wrote {out}");
            }
        }
        None => println!("{doc}"),
    }
    Ok(())
}
