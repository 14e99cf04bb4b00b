//! Shared plumbing for the command-line tools (`rcec`, `rsat`,
//! `rcheck`, ...): a tiny flag parser, the engine flags and the
//! certificate lint the checking tools share, and file helpers. The
//! binaries are thin
//! wrappers over the library crates — all logic lives in `cec`, `sat`,
//! and `proof`.

#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Parsed command line: positional arguments and `--flag[=value]`
/// options, in order.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Positional arguments.
    pub positional: Vec<String>,
    /// `--name` / `--name=value` options.
    pub flags: Vec<(String, Option<String>)>,
}

/// Error for an unknown or malformed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses raw arguments (without the program name), validating flag
    /// names against `allowed`.
    ///
    /// # Errors
    ///
    /// Rejects flags not in `allowed`.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        allowed: &[&str],
    ) -> Result<Args, ParseArgsError> {
        let mut args = Args::default();
        for a in raw {
            if let Some(rest) = a.strip_prefix("--") {
                let (name, value) = match rest.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                };
                if !allowed.contains(&name.as_str()) {
                    return Err(ParseArgsError(format!("unknown flag --{name}")));
                }
                args.flags.push((name, value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name=value`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// Applies the engine flag shared by `rcec` and `rfraig`, `--limit=N`,
/// to `config` when it is present.
///
/// # Errors
///
/// A non-numeric conflict limit.
pub fn apply_engine_flags(args: &Args, config: &mut cec::EngineConfig) -> Result<(), String> {
    if let Some(v) = args.value("limit") {
        config.pair_conflict_limit = Some(v.parse().map_err(|e| format!("--limit: {e}"))?);
    }
    Ok(())
}

/// The `--lint-proof` / `--lint-bundle` audit of `rcec` and `rfraig`:
/// `rplint`'s proof pass over the refutation `proof` and, given the
/// `miter` it refutes, the bundle pass over the miter graph, its CNF,
/// `proof` and `info`. The combined report goes to stderr, labelled
/// `bundle` when the bundle pass ran.
///
/// # Errors
///
/// An error-severity finding (`proof lint failed: …`), or a failed
/// write to stderr.
pub fn lint_certificate(
    proof: &proof::Proof,
    info: &lint::CertificateInfo,
    miter: Option<&cec::Miter>,
) -> Result<(), String> {
    let opts = lint::LintOptions {
        expect_refutation: true,
        ..lint::LintOptions::default()
    };
    let mut report = lint::lint_proof(proof, &opts);
    if let Some(miter) = miter {
        let formula = cec::miter_cnf(miter);
        let mut bundle = lint::lint_bundle(&lint::Bundle {
            aig: Some(&miter.graph),
            cnf: Some(&formula),
            proof: Some(proof),
            certificate: Some(info),
        });
        bundle.absorb(report);
        report = bundle;
    }
    report
        .write_text(&mut std::io::stderr().lock())
        .map_err(|e| e.to_string())?;
    if !report.is_clean() {
        return Err(format!("proof lint failed: {}", report.counts()));
    }
    Ok(())
}

/// Parses the value of `--flag=N` as a count of at least one.
///
/// # Errors
///
/// A non-numeric value or zero, naming the flag.
pub fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|e| format!("--{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("--{flag}: must be at least 1"));
    }
    Ok(n)
}

/// Reads an AIGER file, naming `path` in the error.
///
/// # Errors
///
/// The file cannot be opened or does not parse.
pub fn read_aig(path: impl AsRef<Path>) -> Result<aig::Aig, String> {
    let path = path.as_ref();
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    aig::aiger::read(BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Shared tracing / metrics plumbing for the tracing-capable tools
/// (`rcec`, `rfraig`, `rsat`): recorder construction from the common
/// `--trace-out` / `--trace-chrome` flags and exporter file writing.
pub mod trace {
    use crate::Args;
    use std::fs::File;
    use std::io::{BufWriter, Write};

    /// Builds the run's recorder: enabled iff an event exporter
    /// (`--trace-out` or `--trace-chrome`) was requested, so runs
    /// without those flags pay only the disabled-recorder branch.
    pub fn recorder_for(args: &Args) -> obs::Recorder {
        if args.value("trace-out").is_some() || args.value("trace-chrome").is_some() {
            obs::Recorder::new()
        } else {
            obs::Recorder::disabled()
        }
    }

    /// Drains `recorder` and writes the exporter files requested on the
    /// command line: `--trace-out=FILE` (JSONL event journal) and
    /// `--trace-chrome=FILE` (Chrome `trace_event` array for
    /// `chrome://tracing` / Perfetto).
    ///
    /// # Errors
    ///
    /// Reports file-creation or write failures as `path: cause`.
    pub fn write_trace_files(recorder: &obs::Recorder, args: &Args) -> Result<(), String> {
        if !recorder.is_enabled() {
            return Ok(());
        }
        let events = recorder.take_events();
        if let Some(path) = args.value("trace-out") {
            let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = BufWriter::new(f);
            obs::export::write_jsonl(&events, &mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = args.value("trace-chrome") {
            let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = BufWriter::new(f);
            obs::export::write_chrome_trace(&events, &mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    }

    /// Builds the run's live-metrics registry and samplers from the
    /// common `--metrics-out=FILE` / `--metrics-status[=FILE]` /
    /// `--metrics-period-ms=N` flags: with either output flag the
    /// registry is enabled and a background [`obs::metrics::Sampler`]
    /// per output appends one record per period (default 100 ms);
    /// without both the registry is disabled and every engine-side
    /// update costs one branch. `--metrics-out` writes `metrics-v1`
    /// snapshots as JSON Lines; `--metrics-status` writes one compact
    /// `key=value` status line per period — to FILE (`tail -f`-able)
    /// when given a value, to stderr when bare. Both may be active at
    /// once, sharing the one registry. Call
    /// [`obs::metrics::Sampler::stop`] on every returned sampler after
    /// the run to flush the final record.
    ///
    /// # Errors
    ///
    /// Reports a bad `--metrics-period-ms` value or a FILE creation
    /// failure as `path: cause`.
    pub fn metrics_for(
        args: &Args,
    ) -> Result<(obs::metrics::Metrics, Vec<obs::metrics::Sampler>), String> {
        if args.value("metrics-out").is_none() && !args.has("metrics-status") {
            return Ok((obs::metrics::Metrics::disabled(), Vec::new()));
        }
        let metrics = obs::metrics::Metrics::new();
        let samplers = samplers_for(args, &metrics)?;
        Ok((metrics, samplers))
    }

    /// Starts the samplers requested by `--metrics-out` /
    /// `--metrics-status` against an existing registry — the
    /// long-running-daemon variant of [`metrics_for`], for processes
    /// (like `rcecd`) whose registry must be live even when nothing
    /// samples it.
    ///
    /// # Errors
    ///
    /// Same diagnostics as [`metrics_for`].
    pub fn samplers_for(
        args: &Args,
        metrics: &obs::metrics::Metrics,
    ) -> Result<Vec<obs::metrics::Sampler>, String> {
        use obs::metrics::{SampleFormat, Sampler};
        let period_ms: u64 = match args.value("metrics-period-ms") {
            Some(v) => v
                .parse()
                .ok()
                .filter(|&p| p > 0)
                .ok_or_else(|| format!("--metrics-period-ms: bad period `{v}`"))?,
            None => 100,
        };
        let period = std::time::Duration::from_millis(period_ms);
        let mut samplers = Vec::new();
        if let Some(path) = args.value("metrics-out") {
            let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            samplers.push(Sampler::start(metrics.clone(), period, BufWriter::new(f)));
        }
        if args.has("metrics-status") {
            let sampler = match args.value("metrics-status") {
                Some(path) => {
                    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
                    Sampler::start_with(
                        metrics.clone(),
                        period,
                        BufWriter::new(f),
                        SampleFormat::Status,
                    )
                }
                None => Sampler::start_with(
                    metrics.clone(),
                    period,
                    std::io::stderr(),
                    SampleFormat::Status,
                ),
            };
            samplers.push(sampler);
        }
        Ok(samplers)
    }

    /// Writes a JSON value to `path`, newline-terminated (the payload of
    /// `--stats-json=FILE`).
    ///
    /// # Errors
    ///
    /// Reports file-creation or write failures as `path: cause`.
    pub fn write_json_file(path: &str, value: &obs::json::Value) -> Result<(), String> {
        let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = BufWriter::new(f);
        writeln!(w, "{value}")
            .and_then(|()| w.flush())
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// Conventional exit codes shared by the tools.
pub mod exit {
    /// Verdict reached: equivalent / proof accepted.
    pub const OK: i32 = 0;
    /// Verdict reached: inequivalent / proof rejected.
    pub const NEGATIVE: i32 = 1;
    /// Usage or input error.
    pub const ERROR: i32 = 2;
    /// SAT answer (DIMACS solver convention).
    pub const SAT: i32 = 10;
    /// UNSAT answer (DIMACS solver convention).
    pub const UNSAT: i32 = 20;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(
            s(&["x.aig", "--proof=out.trace", "--check", "y.aig"]),
            &["proof", "check"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["x.aig", "y.aig"]);
        assert!(a.has("check"));
        assert_eq!(a.value("proof"), Some("out.trace"));
        assert_eq!(a.value("check"), None);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(Args::parse(s(&["--bogus"]), &["proof"]).is_err());
    }

    #[test]
    fn last_flag_value_wins() {
        let a = Args::parse(s(&["--k=1", "--k=2"]), &["k"]).unwrap();
        assert_eq!(a.value("k"), Some("2"));
    }

    const ENGINE_FLAGS: &[&str] = &["limit"];

    fn engine_config(raw: &[&str]) -> Result<cec::EngineConfig, String> {
        let args = Args::parse(s(raw), ENGINE_FLAGS).map_err(|e| e.to_string())?;
        let mut config = cec::EngineConfig::default();
        apply_engine_flags(&args, &mut config)?;
        Ok(config)
    }

    #[test]
    fn engine_flags_apply_when_present() {
        assert_eq!(engine_config(&[]).unwrap(), cec::EngineConfig::default());
        let config = engine_config(&["--limit=7"]).unwrap();
        assert_eq!(config.pair_conflict_limit, Some(7));
    }

    #[test]
    fn engine_flags_reject_bad_values() {
        for (raw, message) in [
            ("--limit=many", "--limit: invalid digit found in string"),
            // The round engine is gone, and its flag with it.
            ("--threads=2", "unknown flag --threads"),
        ] {
            assert_eq!(engine_config(&[raw]).unwrap_err(), message, "{raw}");
        }
    }
}
